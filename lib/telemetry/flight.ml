(* The span store: one bounded ring of records per domain, always on. A
   span's record is allocated at open, sits on its domain's open-span stack
   while open (under the per-domain mutex: the server's handler sys-threads
   share domain 0), and is stored at close; an event is stored at once.
   Recording shares one atomic fetch-and-add, the global sequence number.
   Rings are registered under [reg_lock] (the Stage idiom) so every view
   reads them from any domain. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  seq : int;
  parent : int;
  root : int;
  domain : int;
  t_ns : int;
  cat : string;
  name : string;
  detail : string;
  mutable v : int;
  req_id : int64;
  mutable attrs : (string * value) list;
}

let on = Atomic.make true
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false
(* Records per ring. A span record averages ~22 words with its attributes
   on typea-tiny, so a full ring stays under ~200 KiB per domain, while a
   served request stores at most ~60 (DESIGN.md §10's completeness bound). *)
let depth = 1024
let capacity () = depth
let max_dumps = 4
let next_seq = Atomic.make 1
let overwritten = Atomic.make 0
let trips_ctr = Atomic.make 0
let dumps_ctr = Atomic.make 0
let now_ns () = Int64.to_int (Monotonic_clock.now_ns ())
let t0 = now_ns ()

(* Retention ([retain]): records from [kept_from] on are kept, the rings
   growing instead of overwriting them; span records past [budget] are
   refused. *)
let kept_from = Atomic.make max_int
let budget = Atomic.make 0
let refused_ctr = Atomic.make 0

let none =
  { seq = 0; parent = 0; root = 0; domain = -1; t_ns = 0; cat = ""; name = "";
    detail = ""; v = 0; req_id = 0L; attrs = [] }

type dstate = {
  domain : int;
  lock : Mutex.t; (* guards [stack] *)
  mutable stack : event list; (* open spans, innermost first *)
  mutable ring : event array; (* [||] until the first record; power of 2 *)
  mutable next : int; (* ring slot for the next record *)
  mutable filled : int;
  mutable lost : int; (* highest seq this domain overwrote or refused *)
}

let reg_lock = Mutex.create ()
let states : dstate list ref = ref []

let dls =
  Domain.DLS.new_key (fun () ->
      let d =
        { domain = (Domain.self () :> int); lock = Mutex.create (); stack = [];
          ring = [||]; next = 0; filled = 0; lost = 0 }
      in
      Mutex.lock reg_lock;
      states := d :: !states;
      Mutex.unlock reg_lock;
      d)

let registered () =
  Mutex.lock reg_lock;
  let s = !states in
  Mutex.unlock reg_lock;
  s

(* Only the owning domain stores into its ring, and apart from a ring's
   allocation or growth nothing here allocates: sys-threads sharing a
   domain cannot interleave inside a store. *)
let store ~span d e =
  let from = Atomic.get kept_from in
  if span && from < max_int && Atomic.fetch_and_add budget (-1) <= 0 then begin
    Atomic.incr refused_ctr;
    if e.seq > d.lost then d.lost <- e.seq
  end
  else begin
    let n = Array.length d.ring in
    if n = 0 then d.ring <- Array.make depth e
    else if d.filled = n then
      if d.ring.(d.next).seq >= from then begin
        (* oldest first, so the ring continues at slot [n] *)
        let old = d.ring and next = d.next in
        d.ring <-
          Array.init (2 * n) (fun i -> if i < n then old.((next + i) land (n - 1)) else e);
        d.next <- n
      end
      else begin
        let old = d.ring.(d.next) in
        if old.seq > d.lost then d.lost <- old.seq;
        Atomic.incr overwritten;
        d.filled <- n - 1
      end;
    d.ring.(d.next) <- e;
    d.next <- (d.next + 1) land (Array.length d.ring - 1);
    d.filled <- d.filled + 1
  end

let record ?(v = 0) ?(req_id = 0L) ?(detail = "") ~cat name =
  if Atomic.get on then begin
    let d = Domain.DLS.get dls in
    store ~span:false d
      { seq = Atomic.fetch_and_add next_seq 1; parent = 0; root = 0;
        domain = d.domain; t_ns = now_ns (); cat; name; detail; v; req_id;
        attrs = [] }
  end

let start ?parent ~req_id ~attrs ~t_ns name =
  if not (Atomic.get on) then none
  else begin
    let d = Domain.DLS.get dls in
    Mutex.lock d.lock;
    let p =
      match (parent, d.stack) with
      | Some p, _ | None, p :: _ -> p
      | None, [] -> none
    in
    let seq = Atomic.fetch_and_add next_seq 1 in
    let e =
      { seq; parent = p.seq; root = (if p == none then seq else p.root);
        domain = d.domain; t_ns; cat = "span"; name; detail = ""; v = 0; req_id;
        attrs }
    in
    d.stack <- e :: d.stack;
    Mutex.unlock d.lock;
    e
  end

let finish e ~ns =
  if e != none then begin
    e.v <- ns;
    let d = Domain.DLS.get dls in
    Mutex.lock d.lock;
    (* Interleaved sys-threads on one domain can close out of stack order;
       remove this span wherever it sits. *)
    (match d.stack with
    | s :: rest when s == e -> d.stack <- rest
    | stack -> d.stack <- List.filter (fun s -> s != e) stack);
    Mutex.unlock d.lock;
    store ~span:true d e
  end

let retain n =
  Option.iter (Atomic.set budget) n;
  Atomic.set kept_from (if n = None then max_int else Atomic.get next_seq)

let refused () = Atomic.get refused_ctr
let recorded () = Atomic.get next_seq - 1
let dropped () = Atomic.get overwritten
let trips () = Atomic.get trips_ctr

(* A view may race the owners' stores: it can then miss or repeat a record,
   never read outside a ring. *)
let select keep =
  let acc = ref [] in
  List.iter
    (fun d ->
      let ring = d.ring and next = d.next in
      let n = Array.length ring in
      for i = 1 to min d.filled n do
        let e = ring.((next - i) land (n - 1)) in
        if keep e then acc := e :: !acc
      done)
    (registered ());
  List.sort (fun a b -> compare a.seq b.seq) !acc

let events () = select (fun _ -> true)

let gather ~root =
  let tree = select (fun e -> e.root = root) in
  (tree, List.for_all (fun d -> d.lost < root) (registered ()))

let reset () =
  List.iter
    (fun d ->
      d.ring <- [||];
      d.next <- 0;
      d.filled <- 0;
      d.lost <- 0)
    (registered ());
  Atomic.set next_seq 1;
  List.iter (fun c -> Atomic.set c 0) [ overwritten; trips_ctr; dumps_ctr ]

(* --- dumps --- *)

let event_json e =
  Json.Obj
    ([ ("seq", Json.Int e.seq);
       ("t_ns", Json.Float (float_of_int (e.t_ns - t0)));
       ("domain", Json.Int e.domain);
       ("cat", Json.Str e.cat);
       ("name", Json.Str e.name);
       ("detail", Json.Str e.detail);
       ("v", Json.Int e.v) ]
    @
    (* Only request-scoped events carry the field, so dumps from paths that
       have no request in hand stay byte-compatible with older consumers. *)
    if e.req_id = 0L then []
    else [ ("req_id", Json.Str (Printf.sprintf "%016Lx" e.req_id)) ])

let to_json ?(reason = "") () =
  Json.Obj
    [ ("flight", Json.Int 1);
      ("reason", Json.Str reason);
      ("recorded", Json.Int (recorded ()));
      ("dropped", Json.Int (dropped ()));
      ("trips", Json.Int (trips ()));
      ("events", Json.Arr (List.map event_json (events ()))) ]

let to_text () =
  let buf = Buffer.create 1024 in
  let evs = events () in
  Printf.bprintf buf
    "flight recorder: %d event(s) retained, %d recorded, %d dropped, %d trip(s)\n"
    (List.length evs) (recorded ()) (dropped ()) (trips ());
  List.iter
    (fun e ->
      Printf.bprintf buf "  #%-6d %12.3f ms  d%-3d %-8s %-28s %s%s%s\n" e.seq
        (float_of_int (e.t_ns - t0) /. 1e6)
        e.domain e.cat e.name
        (if e.detail = "" then "" else e.detail ^ " ")
        (if e.v = 0 then "" else Printf.sprintf "v=%d " e.v)
        (if e.req_id = 0L then "" else Printf.sprintf "req=%016Lx" e.req_id))
    evs;
  Buffer.contents buf

let print oc = output_string oc (to_text ())

let dir = Atomic.make (Sys.getenv_opt "ZKQAC_FLIGHT_DIR")
let set_dir d = Atomic.set dir d
let dump_dir () = Atomic.get dir
let dump_lock = Mutex.create ()

let write_dump ~reason d =
  Mutex.lock dump_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dump_lock)
    (fun () ->
      if Atomic.get dumps_ctr < max_dumps then begin
        let k = Atomic.fetch_and_add dumps_ctr 1 in
        (try if not (Sys.file_exists d) then Sys.mkdir d 0o755 with Sys_error _ -> ());
        let base = Filename.concat d (Printf.sprintf "flight-%d-%d" (Unix.getpid ()) k) in
        (* Dumps are written at crash time — the one moment a half-written
           file is most likely and least useful. Atomic replacement means a
           dump either exists whole or not at all. *)
        let put path data =
          match Zkqac_durable.Durable.replace ~path data with
          | Ok () | Error _ -> ()
        in
        put (base ^ ".json") (Json.to_string (to_json ~reason ()) ^ "\n");
        put (base ^ ".txt") (Printf.sprintf "reason: %s\n%s" reason (to_text ()))
      end)

let do_trip ~stderr_fallback ~reason =
  Atomic.incr trips_ctr;
  record ~cat:"trip" ~detail:reason "flight.trip";
  match Atomic.get dir with
  | Some d -> ( try write_dump ~reason d with _ -> ())
  | None ->
      if stderr_fallback then (
        try
          Printf.eprintf "flight dump (%s):\n" reason;
          print stderr;
          flush stderr
        with _ -> ())

let trip ~reason = do_trip ~stderr_fallback:false ~reason
let emergency ~reason = do_trip ~stderr_fallback:true ~reason
