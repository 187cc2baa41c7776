(* Always-on flight recorder: per-domain bounded rings of structured events.

   The recording path is deliberately minimal — one atomic fetch-and-add for
   the global sequence number, a DLS lookup, and a ring store — because it
   runs on every span close, verdict, pool failure and wire-limit hit, traced
   or not. Rings are registered under [reg_lock]
   (the Trace/Stage idiom) so dumps can merge them from any domain. *)

type event = {
  seq : int;
  t_ns : int64;
  domain : int;
  cat : string;
  name : string;
  detail : string;
  v : int;
  req_id : int64; (* correlating request id; 0 = not request-scoped *)
}

let on = Atomic.make true
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let cap = 2048
let max_dumps = 4
let capacity () = cap
let next_seq = Atomic.make 1
let overwritten = Atomic.make 0
let trips_ctr = Atomic.make 0
let dumps_ctr = Atomic.make 0
let t0 = Monotonic_clock.now_ns ()

type dstate = {
  domain : int;
  mutable ring : event array; (* [||] until the first event *)
  mutable next : int; (* ring slot for the next event *)
  mutable count : int; (* total events this domain ever recorded *)
}

let reg_lock = Mutex.create ()
let states : dstate list ref = ref []

let dls =
  Domain.DLS.new_key (fun () ->
      let d = { domain = (Domain.self () :> int); ring = [||]; next = 0; count = 0 } in
      Mutex.lock reg_lock;
      states := d :: !states;
      Mutex.unlock reg_lock;
      d)

let record ?(v = 0) ?(req_id = 0L) ?(detail = "") ~cat name =
  if Atomic.get on then begin
    let d = Domain.DLS.get dls in
    let e =
      {
        seq = Atomic.fetch_and_add next_seq 1;
        t_ns = Int64.sub (Monotonic_clock.now_ns ()) t0;
        domain = d.domain;
        cat;
        name;
        detail;
        v;
        req_id;
      }
    in
    if Array.length d.ring = 0 then d.ring <- Array.make cap e
    else begin
      if d.count >= cap then Atomic.incr overwritten;
      d.ring.(d.next) <- e
    end;
    d.next <- (d.next + 1) mod cap;
    d.count <- d.count + 1
  end

let recorded () = Atomic.get next_seq - 1
let dropped () = Atomic.get overwritten
let trips () = Atomic.get trips_ctr

let events () =
  Mutex.lock reg_lock;
  let collected =
    List.concat_map
      (fun d ->
        let n = min d.count (Array.length d.ring) in
        (* oldest event sits at [next] once the ring has wrapped *)
        let start = if d.count > n then d.next else 0 in
        List.init n (fun i -> d.ring.((start + i) mod cap)))
      !states
  in
  Mutex.unlock reg_lock;
  List.sort (fun a b -> compare a.seq b.seq) collected

let reset () =
  Mutex.lock reg_lock;
  List.iter
    (fun d ->
      d.ring <- [||];
      d.next <- 0;
      d.count <- 0)
    !states;
  Mutex.unlock reg_lock;
  Atomic.set next_seq 1;
  Atomic.set overwritten 0;
  Atomic.set trips_ctr 0;
  Atomic.set dumps_ctr 0

(* --- dumps --- *)

let event_json e =
  Json.Obj
    ([ ("seq", Json.Int e.seq);
       ("t_ns", Json.Float (Int64.to_float e.t_ns));
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
        (Int64.to_float e.t_ns /. 1e6)
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
