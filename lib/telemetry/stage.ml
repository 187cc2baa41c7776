(* The per-stage table: one cell per stage name per domain, fed once by
   every span close, next to the domain's op counters.

   A cell holds the stage's latency histogram (whose count and sum double
   as calls and seconds), the GC words the stage allocated and the GC pause
   time it absorbed. Recording goes through a per-domain table
   (domain-local storage), so the hot path takes no lock; snapshots merge
   all per-domain tables under a mutex, and the per-domain tables double
   as the per-worker-domain breakdown of the [Pool] fan-out. *)

type cell = {
  hist : Histogram.t;
  mutable minor : float;
  mutable promoted : float;
  mutable major : float;
  mutable gc_minor_ns : int;
  mutable gc_major_ns : int;
}

let empty () =
  {
    hist = Histogram.create ();
    minor = 0.0;
    promoted = 0.0;
    major = 0.0;
    gc_minor_ns = 0;
    gc_major_ns = 0;
  }

let count c = Histogram.count c.hist

let op_slots = 13

type dstate = { tid : int; tbl : (string, cell) Hashtbl.t; ops : int array }

let reg_lock = Mutex.create ()
let states : dstate list ref = ref []

let dls =
  Domain.DLS.new_key (fun () ->
      let d =
        { tid = (Domain.self () :> int);
          tbl = Hashtbl.create 16;
          ops = Array.make op_slots 0 }
      in
      Mutex.lock reg_lock;
      states := d :: !states;
      Mutex.unlock reg_lock;
      d)

(* No safepoint falls between the load and the store, so the sys-threads
   sharing a domain cannot interleave inside one bump. *)
let add_op i n =
  let ops = (Domain.DLS.get dls).ops in
  ops.(i) <- ops.(i) + n

let ops () =
  Mutex.lock reg_lock;
  let sum = Array.make op_slots 0 in
  List.iter (fun d -> Array.iteri (fun i v -> sum.(i) <- sum.(i) + v) d.ops) !states;
  Mutex.unlock reg_lock;
  sum

(* Negative deltas can only come from counter approximation glitches or a
   reset of the pause totals mid-span; clamp so a snapshot is monotone. *)
let note name ~ns ~minor ~promoted ~major ~gc_minor_ns ~gc_major_ns =
  let d = Domain.DLS.get dls in
  let c =
    match Hashtbl.find_opt d.tbl name with
    | Some c -> c
    | None ->
      let c = empty () in
      Hashtbl.add d.tbl name c;
      c
  in
  Histogram.record c.hist ns;
  c.minor <- c.minor +. Float.max 0.0 minor;
  c.promoted <- c.promoted +. Float.max 0.0 promoted;
  c.major <- c.major +. Float.max 0.0 major;
  c.gc_minor_ns <- c.gc_minor_ns + max 0 gc_minor_ns;
  c.gc_major_ns <- c.gc_major_ns + max 0 gc_major_ns

(* Field-by-field arithmetic on cells; the result is always a fresh cell,
   so snapshots never alias the live tables. *)
let combine hist_op fop iop a b =
  {
    hist = hist_op a.hist b.hist;
    minor = fop a.minor b.minor;
    promoted = fop a.promoted b.promoted;
    major = fop a.major b.major;
    gc_minor_ns = iop a.gc_minor_ns b.gc_minor_ns;
    gc_major_ns = iop a.gc_major_ns b.gc_major_ns;
  }

let add = combine Histogram.merge ( +. ) ( + )

let sub =
  combine Histogram.sub
    (fun l e -> Float.max 0.0 (l -. e))
    (fun l e -> max 0 (l - e))

let snapshot () =
  Mutex.lock reg_lock;
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Hashtbl.iter
        (fun name c ->
          let acc =
            match Hashtbl.find_opt merged name with Some a -> a | None -> empty ()
          in
          Hashtbl.replace merged name (add acc c))
        d.tbl)
    !states;
  Mutex.unlock reg_lock;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_domain () =
  Mutex.lock reg_lock;
  let out =
    List.filter_map
      (fun d ->
        let total = Hashtbl.fold (fun _ c acc -> add acc c) d.tbl (empty ()) in
        if count total = 0 then None else Some (d.tid, total))
      !states
  in
  Mutex.unlock reg_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) out

let diff ~earlier ~later =
  List.filter_map
    (fun (name, l) ->
      let d =
        match List.assoc_opt name earlier with None -> l | Some e -> sub l e
      in
      if count d = 0 then None else Some (name, d))
    later

let reset () =
  Mutex.lock reg_lock;
  List.iter
    (fun d ->
      Hashtbl.reset d.tbl;
      Array.fill d.ops 0 op_slots 0)
    !states;
  Mutex.unlock reg_lock
