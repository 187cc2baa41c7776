(* Runtime-events bridge: GC pause attribution per domain and per stage.

   One monitor domain owns a self-process cursor and polls it; everything it
   learns goes into mutable tables under [lock]. Producers only touch the
   tables through [pause_mark] (span open and close) — a cheap hashtable
   read — and the span's pause delta lands in its {!Stage} cell, so the GC
   attribution path adds nothing to the uninstrumented fast path. *)

module Re = Runtime_events

type slice = {
  sl_ring : int;
  sl_domain : int;
  sl_gc : string;
  sl_t0 : int64;
  sl_t1 : int64;
}

type dom_stats = {
  label : string;
  minor_s : float;
  major_s : float;
  minor_max_s : float;
  major_max_s : float;
  minor_n : int;
  major_n : int;
}

type totals = {
  mutable minor_ns : int64;
  mutable major_ns : int64;
  mutable minor_max : int64;
  mutable major_max : int64;
  mutable minor_n : int;
  mutable major_n : int;
}

let lock = Mutex.create ()

(* key: domain id when the ring was announced, -(ring+1) otherwise *)
let dom_tbl : (int, totals) Hashtbl.t = Hashtbl.create 8
let max_rings = 256
let ring2dom = Array.make max_rings (-1)
let minor_t0 = Array.make max_rings 0L
let major_t0 = Array.make max_rings 0L
let slice_cap = 16384
let slice_buf : slice list ref = ref [] (* newest first *)
let slice_n = ref 0
let slice_drop = ref 0
let is_started = Atomic.make false
let stop_flag = Atomic.make false
let monitor : unit Domain.t option ref = ref None
let started () = Atomic.get is_started

(* Self-identification: rings are slots, not domains, so each domain writes
   its [Domain.self] into the stream and the monitor maps slot -> domain. *)
type Re.User.tag += Domain_id

let domain_evt = lazy (Re.User.register "zkqac.domain_id" Domain_id Re.Type.int)

let announce () =
  if Atomic.get is_started then
    try Re.User.write (Lazy.force domain_evt) (Domain.self () :> int) with _ -> ()

let key_of_ring ring =
  if ring >= 0 && ring < max_rings && ring2dom.(ring) >= 0 then ring2dom.(ring)
  else -(ring + 1)

let label_of_key k = if k >= 0 then string_of_int k else Printf.sprintf "ring%d" (-k - 1)

let find_totals k =
  match Hashtbl.find_opt dom_tbl k with
  | Some t -> t
  | None ->
      let t =
        { minor_ns = 0L; major_ns = 0L; minor_max = 0L; major_max = 0L; minor_n = 0; major_n = 0 }
      in
      Hashtbl.add dom_tbl k t;
      t

let note_pause ring gc t0 t1 =
  let dur = Int64.sub t1 t0 in
  if dur > 0L then begin
    Mutex.lock lock;
    let t = find_totals (key_of_ring ring) in
    (match gc with
    | `Minor ->
        t.minor_ns <- Int64.add t.minor_ns dur;
        if dur > t.minor_max then t.minor_max <- dur;
        t.minor_n <- t.minor_n + 1
    | `Major ->
        t.major_ns <- Int64.add t.major_ns dur;
        if dur > t.major_max then t.major_max <- dur;
        t.major_n <- t.major_n + 1);
    if !slice_n < slice_cap then begin
      let sl_domain = if ring < max_rings && ring >= 0 then ring2dom.(ring) else -1 in
      slice_buf :=
        {
          sl_ring = ring;
          sl_domain;
          sl_gc = (match gc with `Minor -> "minor" | `Major -> "major");
          sl_t0 = t0;
          sl_t1 = t1;
        }
        :: !slice_buf;
      incr slice_n
    end
    else incr slice_drop;
    Mutex.unlock lock
  end

let on_begin ring ts phase =
  if ring >= 0 && ring < max_rings then
    match phase with
    | Re.EV_MINOR -> minor_t0.(ring) <- Re.Timestamp.to_int64 ts
    | Re.EV_MAJOR_SLICE -> major_t0.(ring) <- Re.Timestamp.to_int64 ts
    | _ -> ()

let on_end ring ts phase =
  if ring >= 0 && ring < max_rings then
    let close gc arr =
      let t0 = arr.(ring) in
      if t0 <> 0L then begin
        arr.(ring) <- 0L;
        note_pause ring gc t0 (Re.Timestamp.to_int64 ts)
      end
    in
    match phase with
    | Re.EV_MINOR -> close `Minor minor_t0
    | Re.EV_MAJOR_SLICE -> close `Major major_t0
    | _ -> ()

let on_domain_id ring _ts evt v =
  match Re.User.tag evt with
  | Domain_id ->
      if ring >= 0 && ring < max_rings && v >= 0 then begin
        (* Migrate any pauses already booked under the anonymous ring key to
           the real domain, so early GCs are not split across two labels. *)
        Mutex.lock lock;
        (if ring2dom.(ring) < 0 then
           match Hashtbl.find_opt dom_tbl (-(ring + 1)) with
           | Some old ->
               Hashtbl.remove dom_tbl (-(ring + 1));
               let t = find_totals v in
               t.minor_ns <- Int64.add t.minor_ns old.minor_ns;
               t.major_ns <- Int64.add t.major_ns old.major_ns;
               if old.minor_max > t.minor_max then t.minor_max <- old.minor_max;
               if old.major_max > t.major_max then t.major_max <- old.major_max;
               t.minor_n <- t.minor_n + old.minor_n;
               t.major_n <- t.major_n + old.major_n
           | None -> ());
        ring2dom.(ring) <- v;
        Mutex.unlock lock
      end
  | _ -> ()

let callbacks =
  lazy
    (Re.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end ()
    |> Re.Callbacks.add_user_event Re.Type.int on_domain_id)

let monitor_loop poll_us cursor =
  announce ();
  let cbs = Lazy.force callbacks in
  let delay = float_of_int poll_us /. 1e6 in
  while not (Atomic.get stop_flag) do
    ignore (Re.read_poll cursor cbs None);
    Unix.sleepf delay
  done;
  (* final drain so short-lived runs lose nothing *)
  ignore (Re.read_poll cursor cbs None)

(* One cursor for the process, with collection paused while stopped: a
   fresh cursor reads the ring from its oldest event, so a restart would
   count every pause still in it a second time. *)
let cursor = ref None

let start ?(poll_us = 500) () =
  if Atomic.compare_and_set is_started false true then begin
    Atomic.set stop_flag false;
    let c =
      match !cursor with
      | Some c ->
        Re.resume ();
        c
      | None ->
        Re.start ();
        let c = Re.create_cursor None in
        cursor := Some c;
        c
    in
    ignore (Lazy.force domain_evt);
    announce ();
    monitor := Some (Domain.spawn (fun () -> monitor_loop poll_us c))
  end

let stop () =
  if Atomic.get is_started then begin
    Atomic.set stop_flag true;
    (match !monitor with Some d -> Domain.join d | None -> ());
    monitor := None;
    Re.pause ();
    Atomic.set is_started false
  end

(* --- per-stage attribution (sampled by Trace.with_span) --- *)

let pause_mark () =
  if not (Atomic.get is_started) then (0L, 0L)
  else begin
    Mutex.lock lock;
    let r =
      match Hashtbl.find_opt dom_tbl (Domain.self () :> int) with
      | Some t -> (t.minor_ns, t.major_ns)
      | None -> (0L, 0L)
    in
    Mutex.unlock lock;
    r
  end

(* --- snapshots --- *)

let s_of_ns ns = Int64.to_float ns /. 1e9

let domain_snapshot () =
  Mutex.lock lock;
  let out =
    Hashtbl.fold
      (fun k t acc ->
        {
          label = label_of_key k;
          minor_s = s_of_ns t.minor_ns;
          major_s = s_of_ns t.major_ns;
          minor_max_s = s_of_ns t.minor_max;
          major_max_s = s_of_ns t.major_max;
          minor_n = t.minor_n;
          major_n = t.major_n;
        }
        :: acc)
      dom_tbl []
  in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.label b.label) out

let slices () =
  Mutex.lock lock;
  let out = List.rev !slice_buf in
  Mutex.unlock lock;
  out

let slices_dropped () =
  Mutex.lock lock;
  let n = !slice_drop in
  Mutex.unlock lock;
  n

let reset () =
  Mutex.lock lock;
  Hashtbl.reset dom_tbl;
  slice_buf := [];
  slice_n := 0;
  slice_drop := 0;
  Mutex.unlock lock
