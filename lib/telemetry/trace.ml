(* Hierarchical query tracing.

   A span is one timed region of one domain, with an explicit parent link —
   either inherited from the innermost open span of the calling domain, or
   passed explicitly (how Pool hands the caller's context to its worker
   domains). Closed spans go into a per-domain buffer; nothing is shared on
   the recording path except one atomic decrement of the global span budget,
   so relax jobs fanned out across domains record without contention.

   The budget bounds retained memory: once [capacity] spans are stored, new
   spans are counted in [dropped] and discarded. Every span close also
   makes one {!Stage.note}: duration, allocation words and GC pause time,
   the per-stage table that [Telemetry], [Metrics] and the bench harness
   read. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  id : int;
  parent : int; (* 0 = no parent *)
  root : int; (* id of the root span of this span's tree (= id for roots) *)
  name : string;
  tid : int;
  t0 : int64;
  mutable t1 : int64;
  mutable attrs : (string * value) list;
}

type ctx = span option

let none : ctx = None
let ctx_id : ctx -> int = function Some sp -> sp.id | None -> 0
let on = Atomic.make false
let enabled () = Atomic.get on

let default_capacity = 1 lsl 16
let capacity = Atomic.make default_capacity
let remaining = Atomic.make 0
let dropped_ctr = Atomic.make 0
let next_id = Atomic.make 1
let now_ns () = Monotonic_clock.now_ns ()
let t_zero = Atomic.make (now_ns ()) (* reset by [enable]/[reset] *)

(* --- per-domain buffers --- *)

type dstate = {
  tid : int;
  dm : Mutex.t;
      (* several sys-threads can share one domain (the server's connection
         handlers all live on domain 0), so the stack and buffer mutations
         below are guarded; the lock is per-domain and almost always
         uncontended. *)
  mutable buf : span array;
  mutable len : int;
  mutable stack : span list; (* open spans, innermost first *)
}

let reg_lock = Mutex.create ()
let states : dstate list ref = ref []

let dls =
  Domain.DLS.new_key (fun () ->
      let d =
        { tid = (Domain.self () :> int);
          dm = Mutex.create ();
          buf = [||];
          len = 0;
          stack = [] }
      in
      Mutex.lock reg_lock;
      states := d :: !states;
      Mutex.unlock reg_lock;
      d)

(* Caller holds [d.dm]. *)
let push d sp =
  if Atomic.fetch_and_add remaining (-1) > 0 then begin
    if d.len = Array.length d.buf then begin
      let grown = Array.make (max 64 (2 * Array.length d.buf)) sp in
      Array.blit d.buf 0 grown 0 d.len;
      d.buf <- grown
    end;
    d.buf.(d.len) <- sp;
    d.len <- d.len + 1
  end
  else Atomic.incr dropped_ctr

(* --- recording --- *)

let set_attrs (ctx : ctx) kvs =
  match ctx with None -> () | Some sp -> sp.attrs <- sp.attrs @ kvs

let set_attr ctx k v = set_attrs ctx [ (k, v) ]

(* A closed span, for programmatic consumption (timestamps relative to the
   last enable/reset, or to process start). Defined here because the close
   hook below receives one. *)
type info = {
  span_id : int;
  span_parent : int;
  span_root : int;
  span_name : string;
  span_tid : int;
  start_ns : int64;
  dur_ns : int64;
  span_attrs : (string * value) list;
}

let info_of_span zero sp =
  {
    span_id = sp.id;
    span_parent = sp.parent;
    span_root = sp.root;
    span_name = sp.name;
    span_tid = sp.tid;
    start_ns = Int64.sub sp.t0 zero;
    dur_ns = Int64.sub sp.t1 sp.t0;
    span_attrs = sp.attrs;
  }

(* One process-wide close hook, fired for every span as it closes whenever
   one is installed — with tracing off, and independent of the retention
   budget, so a consumer like the server's slow-query log sees complete
   trees without the export buffer holding them. The hook must be fast and
   must not raise. *)
let close_hook : (info -> unit) option Atomic.t = Atomic.make None
let set_close_hook h = Atomic.set close_hook h

let with_span ?parent ?(attrs = []) name f =
  let tracing = Atomic.get on in
  let t0 = now_ns () in
  (* Every span close makes one [Stage.note] and one flight record. Only a
     span that is exported or handed to the close hook also gets a record,
     with an id and a parent, on its domain's open-span stack. *)
  let ctx : ctx =
    if not (tracing || Atomic.get close_hook <> None) then None
    else begin
      let d = Domain.DLS.get dls in
      let parent_sp =
        match parent with
        | Some (Some p : ctx) -> Some p
        | Some None -> None
        | None -> (
          Mutex.lock d.dm;
          let p = match d.stack with s :: _ -> Some s | [] -> None in
          Mutex.unlock d.dm;
          p)
      in
      let id = Atomic.fetch_and_add next_id 1 in
      let sp =
        {
          id;
          parent = (match parent_sp with Some p -> p.id | None -> 0);
          (* A child inherits its tree's root id, so any span can be joined
             back to its request without walking parent links. *)
          root = (match parent_sp with Some p -> p.root | None -> id);
          name;
          tid = d.tid;
          t0;
          t1 = 0L;
          attrs;
        }
      in
      Mutex.lock d.dm;
      d.stack <- sp :: d.stack;
      Mutex.unlock d.dm;
      Some sp
    end
  in
  (* Domain-local allocation counters (minor, promoted, major words) and
     the domain's GC pause totals: the close-time deltas attribute this
     span's allocation and pauses to its stage (inclusive of children,
     like wall time). *)
  let mi0, pr0, ma0 = Gc.counters () in
  let gmi0, gma0 = Rte.pause_mark () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      let ns = Int64.to_int (Int64.sub t1 t0) in
      let mi1, pr1, ma1 = Gc.counters () in
      let gmi1, gma1 = Rte.pause_mark () in
      Stage.note name ~ns ~minor:(mi1 -. mi0) ~promoted:(pr1 -. pr0)
        ~major:(ma1 -. ma0)
        ~gc_minor_ns:(Int64.to_int (Int64.sub gmi1 gmi0))
        ~gc_major_ns:(Int64.to_int (Int64.sub gma1 gma0));
      Flight.record ~cat:"span" ~v:ns name;
      match ctx with
      | None -> ()
      | Some sp -> (
        sp.t1 <- t1;
        let d = Domain.DLS.get dls in
        Mutex.lock d.dm;
        (* Interleaved sys-threads on one domain can close out of stack
           order; remove this span wherever it sits. *)
        (match d.stack with
        | s :: rest when s == sp -> d.stack <- rest
        | stack -> d.stack <- List.filter (fun s -> not (s == sp)) stack);
        if tracing then push d sp;
        Mutex.unlock d.dm;
        match Atomic.get close_hook with
        | None -> ()
        | Some h -> ( try h (info_of_span (Atomic.get t_zero) sp) with _ -> ())))
    (fun () -> f ctx)

(* --- switching --- *)

let reset () =
  Mutex.lock reg_lock;
  List.iter
    (fun d ->
      d.len <- 0;
      d.buf <- [||])
    !states;
  Mutex.unlock reg_lock;
  Atomic.set remaining (Atomic.get capacity);
  Atomic.set dropped_ctr 0;
  Atomic.set t_zero (now_ns ())

let enable ?capacity:(cap = default_capacity) () =
  if cap < 1 then invalid_arg "Trace.enable: capacity must be positive";
  Atomic.set capacity cap;
  reset ();
  Atomic.set on true

let disable () = Atomic.set on false
let dropped () = Atomic.get dropped_ctr

(* --- export --- *)

let spans () =
  Mutex.lock reg_lock;
  let collected =
    List.concat_map
      (fun d ->
        let buf = d.buf in
        let len = min d.len (Array.length buf) in
        List.init len (fun i -> buf.(i)))
      !states
  in
  Mutex.unlock reg_lock;
  let zero = Atomic.get t_zero in
  collected
  |> List.map (info_of_span zero)
  |> List.sort (fun a b ->
         match Int64.compare a.start_ns b.start_ns with
         | 0 -> compare a.span_id b.span_id
         | c -> c)

let span_count () =
  Mutex.lock reg_lock;
  let n = List.fold_left (fun acc d -> acc + d.len) 0 !states in
  Mutex.unlock reg_lock;
  n

let value_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

(* Chrome trace-event JSON (the Perfetto / chrome://tracing format): one
   complete ("X") event per span, ts/dur in microseconds, tid = domain id.
   Span ids, root ids and parent links ride along in "args". *)
let chrome_meta sps =
  let tids = List.sort_uniq compare (List.map (fun s -> s.span_tid) sps) in
  Json.Obj
    [ ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.Str "zkqac") ]) ]
  :: List.map
       (fun tid ->
         Json.Obj
           [ ("name", Json.Str "thread_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int 1);
             ("tid", Json.Int tid);
             ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain %d" tid)) ]) ])
       tids

let chrome_event s =
  Json.Obj
    [ ("name", Json.Str s.span_name);
      ("cat", Json.Str "zkqac");
      ("ph", Json.Str "X");
      ("ts", Json.Float (Int64.to_float s.start_ns /. 1e3));
      ("dur", Json.Float (Int64.to_float s.dur_ns /. 1e3));
      ("pid", Json.Int 1);
      ("tid", Json.Int s.span_tid);
      ( "args",
        Json.Obj
          (("id", Json.Int s.span_id)
           :: (if s.span_parent = 0 then []
               else [ ("parent", Json.Int s.span_parent) ])
          @ (if s.span_root = 0 || s.span_root = s.span_id then []
             else [ ("root", Json.Int s.span_root) ])
          @ List.map (fun (k, v) -> (k, value_json v)) s.span_attrs) ) ]

(* Per-incident export: a trace file holding just the given spans (how the
   server's slow-query log writes one Perfetto file per sampled request).
   No GC slices — those are only meaningful against the full trace. *)
let chrome_json_of_spans sps =
  Json.Obj
    [ ("traceEvents", Json.Arr (chrome_meta sps @ List.map chrome_event sps));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("tool", Json.Str "zkqac") ]) ]

let chrome_json () =
  let sps = spans () in
  let meta = chrome_meta sps in
  let event = chrome_event in
  (* GC pause slices from the runtime-events bridge ride along as extra
     tracks (tid 1000+domain), so pauses line up under the spans that
     absorbed them. Both clocks are CLOCK_MONOTONIC, so subtracting the
     trace epoch aligns them; slices from before [enable] are dropped. *)
  let zero = Atomic.get t_zero in
  let gc_slices = List.filter (fun s -> s.Rte.sl_t0 >= zero) (Rte.slices ()) in
  let gc_tid (s : Rte.slice) =
    1000 + (if s.sl_domain >= 0 then s.sl_domain else 100 + s.sl_ring)
  in
  let gc_meta =
    List.sort_uniq compare (List.map gc_tid gc_slices)
    |> List.map (fun tid ->
           Json.Obj
             [ ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "gc (tid %d)" tid)) ]) ])
  in
  let gc_event (s : Rte.slice) =
    Json.Obj
      [ ("name", Json.Str ("gc." ^ s.sl_gc));
        ("cat", Json.Str "gc");
        ("ph", Json.Str "X");
        ("ts", Json.Float (Int64.to_float (Int64.sub s.sl_t0 zero) /. 1e3));
        ("dur", Json.Float (Int64.to_float (Int64.sub s.sl_t1 s.sl_t0) /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int (gc_tid s));
        ( "args",
          Json.Obj
            [ ("ring", Json.Int s.sl_ring);
              ( "domain",
                if s.sl_domain >= 0 then Json.Int s.sl_domain else Json.Str "unknown" ) ] ) ]
  in
  Json.Obj
    [ ( "traceEvents",
        Json.Arr (meta @ gc_meta @ List.map event sps @ List.map gc_event gc_slices) );
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [ ("tool", Json.Str "zkqac");
            ("dropped_spans", Json.Int (dropped ()));
            ("dropped_gc_slices", Json.Int (Rte.slices_dropped ()));
            ("lost_runtime_events", Json.Int (Rte.lost_events ())) ] ) ]

let write_chrome path = Json.to_file path (chrome_json ())

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let print_tree oc =
  let sps = spans () in
  let ids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace ids s.span_id ()) sps;
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.span_parent <> 0 && Hashtbl.mem ids s.span_parent then
        Hashtbl.replace children s.span_parent
          (s :: (try Hashtbl.find children s.span_parent with Not_found -> [])))
    sps;
  let attrs_str s =
    if s.span_attrs = [] then ""
    else
      Printf.sprintf " {%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) s.span_attrs))
  in
  let rec print indent s =
    Printf.fprintf oc "%s%-24s %10.3f ms  [tid %d]%s\n" indent s.span_name
      (Int64.to_float s.dur_ns /. 1e6)
      s.span_tid (attrs_str s);
    List.iter (print (indent ^ "  "))
      (List.rev (try Hashtbl.find children s.span_id with Not_found -> []))
  in
  let roots =
    List.filter
      (fun s -> s.span_parent = 0 || not (Hashtbl.mem ids s.span_parent))
      sps
  in
  List.iter (print "") roots;
  let d = dropped () in
  if d > 0 then Printf.fprintf oc "(%d span(s) dropped: ring capacity reached)\n" d
