(* Runtime-events bridge: GC pause attribution per domain and per stage.

   One self-process cursor, drained under [lock] by whoever needs its data:
   [pause_mark] (span open and close), the snapshots and [stop]. The
   callbacks run inside that drain, with [lock] held, and book what they
   read into the tables below. Nothing reads between readers, so the ring
   overwrites what a long reader-free stretch leaves, and [lost] counts it. *)

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

(* The newest [slice_cap] pause slices, in a ring (the Flight idiom). *)
let slice_cap = 16384
let slice_ring : slice array ref = ref [||] (* [||] until the first slice *)
let slice_n = ref 0 (* slices ever noted since [reset] *)

let lost = ref 0 (* runtime events the ring overwrote unread since [reset] *)

let is_started = Atomic.make false
let started () = Atomic.get is_started

(* Self-identification: rings are slots, not domains, so each domain writes
   its [Domain.self] into the stream and the reader maps slot -> domain. *)
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
    let sl =
      {
        sl_ring = ring;
        sl_domain = (if ring < max_rings && ring >= 0 then ring2dom.(ring) else -1);
        sl_gc = (match gc with `Minor -> "minor" | `Major -> "major");
        sl_t0 = t0;
        sl_t1 = t1;
      }
    in
    if Array.length !slice_ring = 0 then slice_ring := Array.make slice_cap sl;
    !slice_ring.(!slice_n mod slice_cap) <- sl;
    incr slice_n
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
        ring2dom.(ring) <- v
      end
  | _ -> ()

(* An overwritten stretch may hold the end of a pause whose begin was read,
   so forget the ring's open begins rather than book a bogus span. *)
let on_lost ring n =
  lost := !lost + n;
  if ring >= 0 && ring < max_rings then begin
    minor_t0.(ring) <- 0L;
    major_t0.(ring) <- 0L
  end

let callbacks =
  lazy
    (Re.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
       ~lost_events:on_lost ()
    |> Re.Callbacks.add_user_event Re.Type.int on_domain_id)

(* One cursor for the process, with collection paused while stopped: a
   fresh cursor reads the ring from its oldest event, so a restart would
   count every pause still in it a second time. *)
let cursor = ref None

(* Run [f] under [lock] after booking every event the ring holds. *)
let drained f =
  Mutex.protect lock (fun () ->
      (match !cursor with
      | Some c when Atomic.get is_started ->
          ignore (Re.read_poll c (Lazy.force callbacks) None)
      | _ -> ());
      f ())

let start () =
  if Atomic.compare_and_set is_started false true then begin
    (match !cursor with
    | Some _ -> Re.resume ()
    | None ->
        Re.start ();
        cursor := Some (Re.create_cursor None));
    ignore (Lazy.force domain_evt);
    announce ()
  end

let stop () =
  drained (fun () ->
      if Atomic.get is_started then begin
        Re.pause ();
        Atomic.set is_started false
      end)

(* --- per-stage attribution (sampled by Trace.with_span) --- *)

let pause_mark () =
  if not (Atomic.get is_started) then (0L, 0L)
  else
    drained (fun () ->
        match Hashtbl.find_opt dom_tbl (Domain.self () :> int) with
        | Some t -> (t.minor_ns, t.major_ns)
        | None ->
            (* No pause booked to this domain yet: the ring may have
               overwritten its announcement unread, so announce again. *)
            announce ();
            (0L, 0L))

(* --- snapshots --- *)

let s_of_ns ns = Int64.to_float ns /. 1e9

let domain_snapshot () =
  drained @@ fun () ->
  List.sort
    (fun a b -> compare a.label b.label)
    (Hashtbl.fold
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
       dom_tbl [])

let slices () =
  drained @@ fun () ->
  let n = min !slice_n slice_cap in
  let first = !slice_n - n in
  List.init n (fun i -> !slice_ring.((first + i) mod slice_cap))

let slices_dropped () = drained (fun () -> max 0 (!slice_n - slice_cap))
let lost_events () = drained (fun () -> !lost)

let reset () =
  drained @@ fun () ->
  Hashtbl.reset dom_tbl;
  slice_ring := [||];
  slice_n := 0;
  lost := 0
