(* Hierarchical query tracing over the span store ({!Flight}): a span's
   record lives in its domain's ring, and every close also makes one
   {!Stage.note}. A trace is a view of the rings — the span records stored
   between [enable] and [disable], which the rings keep instead of
   overwriting, up to [capacity]; the rest are refused and counted in
   [dropped]. *)

type value = Flight.value = Int of int | Float of float | Str of string | Bool of bool
type ctx = Flight.event

let none : ctx = Flight.none
let ctx_id (c : ctx) = c.seq
let on = Atomic.make false
let enabled () = Atomic.get on
let default_capacity = 1 lsl 16
let capacity = Atomic.make default_capacity

(* The view: records with [from <= seq < until], timestamps relative to
   [epoch]; [dropped] counts refusals past [dropped_base]. *)
let from = Atomic.make 1
let until = Atomic.make 0
let epoch = Atomic.make (Flight.now_ns ())
let dropped_base = Atomic.make 0

(* --- recording --- *)

let set_attrs (ctx : ctx) kvs = if ctx != none then ctx.attrs <- ctx.attrs @ kvs
let set_attr ctx k v = set_attrs ctx [ (k, v) ]

let with_span ?parent ?(req_id = 0L) ?(attrs = []) name f =
  let t0 = Flight.now_ns () in
  let ctx = Flight.start ?parent ~req_id ~attrs ~t_ns:t0 name in
  (* Domain-local allocation counters (minor, promoted, major words) and
     the domain's GC pause totals: the close-time deltas attribute this
     span's allocation and pauses to its stage (inclusive of children,
     like wall time). *)
  let mi0, pr0, ma0 = Gc.counters () in
  let gmi0, gma0 = Rte.pause_mark () in
  Fun.protect
    ~finally:(fun () ->
      let ns = Flight.now_ns () - t0 in
      let mi1, pr1, ma1 = Gc.counters () in
      let gmi1, gma1 = Rte.pause_mark () in
      Stage.note name ~ns ~minor:(mi1 -. mi0) ~promoted:(pr1 -. pr0)
        ~major:(ma1 -. ma0)
        ~gc_minor_ns:(Int64.to_int (Int64.sub gmi1 gmi0))
        ~gc_major_ns:(Int64.to_int (Int64.sub gma1 gma0));
      Flight.finish ctx ~ns)
    (fun () -> f ctx)

(* --- switching --- *)

let reset () =
  Atomic.set from (Flight.recorded () + 1);
  Atomic.set epoch (Flight.now_ns ());
  Atomic.set dropped_base (Flight.refused ());
  if Atomic.get on then Flight.retain (Some (Atomic.get capacity))

let enable ?capacity:(cap = default_capacity) () =
  if cap < 1 then invalid_arg "Trace.enable: capacity must be positive";
  Atomic.set capacity cap;
  Atomic.set on true;
  Atomic.set until max_int;
  reset ()

let disable () =
  if Atomic.exchange on false then begin
    Flight.retain None;
    Atomic.set until (Flight.recorded () + 1)
  end

let dropped () = Flight.refused () - Atomic.get dropped_base

(* --- export --- *)

let spans () =
  let from = Atomic.get from and until = Atomic.get until in
  Flight.select (fun e -> e.cat = "span" && e.seq >= from && e.seq < until)

let span_count () = List.length (spans ())
let start_ns (s : Flight.event) = s.t_ns - Atomic.get epoch

let value_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

(* A span's attributes, its request id (a record field) first as
   ["req_id"]. *)
let attrs (s : Flight.event) =
  if s.req_id = 0L then s.attrs
  else ("req_id", Str (Printf.sprintf "%016Lx" s.req_id)) :: s.attrs

let attrs_json s = List.map (fun (k, v) -> (k, value_json v)) (attrs s)

(* Chrome trace-event JSON (the Perfetto / chrome://tracing format): one
   complete ("X") event per span, ts/dur in microseconds, tid = domain id.
   Span ids, root ids and parent links ride along in "args". With [~gc],
   GC pause slices from the runtime-events bridge ride along as extra
   tracks (tid 1000+domain), so pauses line up under the spans that
   absorbed them. Both clocks are CLOCK_MONOTONIC, so subtracting the
   trace epoch aligns them; slices from before [enable] are dropped. *)
let chrome ~gc (sps : Flight.event list) =
  let zero = Atomic.get epoch in
  let slices =
    if not gc then []
    else List.filter (fun s -> Int64.to_int s.Rte.sl_t0 >= zero) (Rte.slices ())
  in
  let gc_tid (s : Rte.slice) =
    1000 + (if s.sl_domain >= 0 then s.sl_domain else 100 + s.sl_ring)
  in
  let thread name tid =
    Json.Obj
      [ ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf name tid)) ]) ]
  in
  let x ~name ~cat ~t0 ~dur ~tid args =
    Json.Obj
      [ ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("ph", Json.Str "X");
        ("ts", Json.Float (float_of_int (t0 - zero) /. 1e3));
        ("dur", Json.Float (float_of_int dur /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj args) ]
  in
  let span (s : Flight.event) =
    x ~name:s.name ~cat:"zkqac" ~t0:s.t_ns ~dur:s.v ~tid:s.domain
      (("id", Json.Int s.seq)
       :: (if s.parent = 0 then [] else [ ("parent", Json.Int s.parent) ])
      @ (if s.root = 0 || s.root = s.seq then [] else [ ("root", Json.Int s.root) ])
      @ attrs_json s)
  in
  let slice (s : Rte.slice) =
    let t0 = Int64.to_int s.sl_t0 in
    x ~name:("gc." ^ s.sl_gc) ~cat:"gc" ~t0 ~dur:(Int64.to_int s.sl_t1 - t0) ~tid:(gc_tid s)
      [ ("ring", Json.Int s.sl_ring);
        ("domain", if s.sl_domain >= 0 then Json.Int s.sl_domain else Json.Str "unknown") ]
  in
  let tids f l = List.sort_uniq compare (List.map f l) in
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          ((Json.Obj
              [ ("name", Json.Str "process_name");
                ("ph", Json.Str "M");
                ("pid", Json.Int 1);
                ("args", Json.Obj [ ("name", Json.Str "zkqac") ]) ]
           :: List.map (thread "domain %d") (tids (fun (s : Flight.event) -> s.domain) sps))
          @ List.map (thread "gc (tid %d)") (tids gc_tid slices)
          @ List.map span sps @ List.map slice slices) );
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          (("tool", Json.Str "zkqac")
           ::
           (if not gc then []
            else
              [ ("dropped_spans", Json.Int (dropped ()));
                ("dropped_gc_slices", Json.Int (Rte.slices_dropped ()));
                ("lost_runtime_events", Json.Int (Rte.lost_events ())) ])) ) ]

(* Per-incident export (one Perfetto file per sampled request): no GC
   slices, which are only meaningful against the full trace. *)
let chrome_json_of_spans sps = chrome ~gc:false sps
let write_chrome path = Json.to_file path (chrome ~gc:true (spans ()))

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let print_tree oc =
  let sps = spans () in
  let ids = Hashtbl.create 256 in
  List.iter (fun (s : Flight.event) -> Hashtbl.replace ids s.seq ()) sps;
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : Flight.event) ->
      if s.parent <> 0 && Hashtbl.mem ids s.parent then
        Hashtbl.replace children s.parent
          (s :: (try Hashtbl.find children s.parent with Not_found -> [])))
    sps;
  let attrs_str s =
    match attrs s with
    | [] -> ""
    | kvs ->
      Printf.sprintf " {%s}"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) kvs))
  in
  let rec print indent (s : Flight.event) =
    Printf.fprintf oc "%s%-24s %10.3f ms  [tid %d]%s\n" indent s.name
      (float_of_int s.v /. 1e6)
      s.domain (attrs_str s);
    List.iter (print (indent ^ "  "))
      (List.rev (try Hashtbl.find children s.seq with Not_found -> []))
  in
  let roots =
    List.filter
      (fun (s : Flight.event) -> s.parent = 0 || not (Hashtbl.mem ids s.parent))
      sps
  in
  List.iter (print "") roots;
  let d = dropped () in
  if d > 0 then Printf.fprintf oc "(%d span(s) dropped: ring capacity reached)\n" d
