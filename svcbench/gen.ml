(* Everything a run sends is derived here from its --seed: the records, the
   order in which the senders query the workload's boxes, and the open-loop
   arrival schedule. The server child receives only the ADS file built from
   these records, plus its flags. *)

module Prng = Zkqac_rng.Prng
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Box = Zkqac_core.Box
module Workload = Zkqac_tpch.Workload

type backend = Mock | Typea_tiny

type load =
  | Closed of { warmup : int }
      (** each sender waits for its answer; its first [warmup] queries are
          not measured *)
  | Open of { qps : float; warmup_s : float }
      (** Poisson arrivals at [qps]; arrivals due in the first [warmup_s]
          seconds are not measured *)

(* Sender threads of every workload: the measuring host has two cores, so
   more senders would only queue behind the server child. *)
let senders = 2

(* Set-ups per run; setup_s is their median. *)
let setups = 3

type user = Every_role | Fraction of float

type workload = {
  name : string;
  backend : backend;
  rows : int;  (** Lineitem rows before the per-cell merge *)
  one_row : bool;
      (** a record keeps only the first of the rows merged into its cell *)
  depth : int;  (** grid side = 2^depth on each of the 3 dimensions *)
  user : user;
  box_frac : float;  (** share of the key space one query box covers *)
  boxes : int;  (** distinct query boxes; the same boxes for every seed *)
  load : load;
  limit_ms : float;  (** goodput latency limit *)
  tail : float;  (** the reported tail percentile *)
  audit : bool;  (** server appends an fsync'd audit entry per request *)
  checkpoint_every : float;  (** seconds between server checkpoints; 0 = off *)
  replay : int;  (** queries per sender replayed in-process by a traced run *)
}

(* Why each workload exists (README.md has the full table):
   - point: tiny boxes and every role, so nearly no relaxing; serving
     (sockets, protocol, pool hand-off) dominates. Never touches Fp/Curve.
   - restricted: the paper's 20% user on 1% boxes; SP proving (ABS.Relax)
     and the VO codec dominate.
   - typea-tiny: real pairings on a small grid; field and curve arithmetic
     are nearly all of the time, serving overhead is invisible.
   - durable-open: point's traffic as an open loop against a server that
     fsyncs an audit entry per request and checkpoints the ADS every 2 s,
     so write stalls show up in the latency of later arrivals. *)
let point =
  {
    name = "point";
    backend = Mock;
    rows = 6000;
    one_row = false;
    depth = 4;
    user = Every_role;
    box_frac = 0.001;
    boxes = 2048;
    load = Closed { warmup = 50 };
    limit_ms = 50.0;
    tail = 0.99;
    audit = false;
    checkpoint_every = 0.0;
    replay = 500;
  }

let restricted =
  {
    point with
    name = "restricted";
    user = Fraction 0.2;
    box_frac = 0.01;
    boxes = 256;
    limit_ms = 250.0;
    tail = 0.95;
    replay = 200;
  }

let typea_tiny =
  {
    name = "typea-tiny";
    backend = Typea_tiny;
    rows = 600;
    one_row = true;
    depth = 2;
    user = Fraction 0.2;
    box_frac = 0.01;
    boxes = 64;
    load = Closed { warmup = 4 };
    limit_ms = 5000.0;
    tail = 0.75;
    audit = false;
    checkpoint_every = 0.0;
    replay = 8;
  }

let durable_open =
  {
    point with
    name = "durable-open";
    boxes = 1024;
    load = Open { qps = 100.0; warmup_s = 1.0 };
    audit = true;
    checkpoint_every = 2.0;
  }

let workloads = [ point; restricted; typea_tiny; durable_open ]
let find name = List.find_opt (fun w -> w.name = name) workloads

let backend_name = function Mock -> "mock" | Typea_tiny -> "typea-tiny"

let backend_kind = function
  | Mock -> Zkqac_group.Backend.Mock
  | Typea_tiny -> Zkqac_group.Backend.Typea_tiny

(* Independent generators per purpose, so that no draw shifts another. Tag
   0 draws the records, tag 1 the schedule, tag 2 the query order. *)
let rng ~seed tag = Prng.create ((seed lsl 6) lor tag)

(* The policy pool and the restricted user's roles are the same for every
   seed, in the paper's default shape (10 policies, each an OR of three
   2-role ANDs over 10 roles). Drawn per seed, they made the ADS size and
   the relax cost differ by a fifth from one seed to the next. The seed
   varies the rows, which record gets which policy, and the queries. *)
let roles, policies =
  Workload.gen_policies (Prng.create 2018) Workload.default_policies

type inputs = {
  roles : Attr.t list;
  policies : Expr.t array;
  space : Keyspace.t;
  records : Record.t list;
  user : Attr.Set.t;
}

(* Every policy guards the same number of records (give or take one), in a
   seeded order, so the share of records a user may see does not move with
   the seed; on the few records of typea-tiny, independent draws moved the
   ADS size by 5% between seeds. typea-tiny has enough rows that each of
   its 64 cells holds a record for every seed, and keeps one row per
   record: with all of them, the dozen records its user may see carried a
   seed-dependent number of rows, which moved its mean VO by 5% between
   seeds. *)
let inputs w ~seed =
  let r = rng ~seed 0 in
  let space = Keyspace.create ~dims:3 ~depth:w.depth in
  let first_row (x : Record.t) =
    match String.index_opt x.Record.value '\n' with
    | Some i when w.one_row -> { x with Record.value = String.sub x.Record.value 0 i }
    | _ -> x
  in
  let records =
    Array.of_list
      (List.map first_row (Workload.lineitem_records r ~space ~rows:w.rows ~policies))
  in
  Prng.shuffle r records;
  let records =
    Array.to_list
      (Array.mapi
         (fun i (x : Record.t) ->
           { x with Record.policy = policies.(i mod Array.length policies) })
         records)
  in
  let user =
    match w.user with
    | Every_role -> Attr.set_of_list roles
    | Fraction frac ->
      Workload.user_for_fraction (Prng.create 2019) ~roles ~policies ~frac
  in
  { roles; policies; space; records; user }

let rec ipow b e = if e = 0 then 1 else b * ipow b (e - 1)

(* The run's query sequence: the workload's [boxes] boxes in a seeded
   order, repeated. Closed-loop sender k sends entries k, k + senders,
   k + 2 senders, ...; open-loop arrival i sends entry i. Any [boxes]
   consecutive entries hold every box once, so the mix a run measures does
   not depend on the seed, and the first round is the same for every run of
   a seed.

   The boxes have the size [Workload.range_query] gives for [w.box_frac].
   They are drawn once, by a generator that ignores the seed: drawn per
   seed, from the thousands of positions a box can take, they moved the
   mean VO size of restricted by 2-3% between seeds. *)
let cycle w inp ~seed =
  let probe = Workload.range_query (Prng.create 2020) ~space:inp.space ~frac:w.box_frac in
  let extent = probe.Box.hi.(0) - probe.Box.lo.(0) in
  let dims = Keyspace.dims inp.space in
  let n = Keyspace.side inp.space - extent + 1 in
  let positions = Array.init (ipow n dims) Fun.id in
  Prng.shuffle (Prng.create 2021) positions;
  let chosen = Array.sub positions 0 (min w.boxes (Array.length positions)) in
  Prng.shuffle (rng ~seed 2) chosen;
  Array.map
    (fun c ->
      let lo = Array.init dims (fun d -> c / ipow n d mod n) in
      Box.make ~lo ~hi:(Array.map (fun a -> a + extent) lo))
    chosen

(* Due times, in seconds from the start, of Poisson arrivals at [qps]: a
   warm-up segment of [warmup_s] seconds, then the measured [seconds].
   Each segment holds exactly round(qps x length) arrivals, placed as
   sorted uniform draws — a Poisson process conditioned on its count — so
   the measured window offers the same load for every seed. *)
let schedule ~seed ~qps ~warmup_s ~seconds =
  let r = rng ~seed 1 in
  let segment from len =
    let n = int_of_float (Float.round (qps *. len)) in
    let a = Array.init n (fun _ -> from +. Prng.float r len) in
    Array.sort Float.compare a;
    a
  in
  let warm = segment 0.0 warmup_s in
  Array.append warm (segment warmup_s seconds)

(* An answer as (key, value) pairs in key order, so a served answer and the
   expected one compare with [=]. *)
let answer records =
  List.sort compare
    (List.map (fun (r : Record.t) -> (r.Record.key, r.Record.value)) records)

(* The records a user may see in a box: what a correct answer holds,
   computed without the ADS. *)
let expected inp ~user box =
  answer
    (List.filter
       (fun (r : Record.t) ->
         Box.contains_point box r.Record.key && Expr.eval r.Record.policy user)
       inp.records)
