(* Statistics of one run (warm-up exclusion, percentiles, goodput) and of
   several runs (median and quartile spread, as Python's
   statistics.quantiles gives them). *)

type sample = {
  stream : int;  (** sender thread *)
  seq : int;  (** position in that sender's query sequence *)
  due_s : float;  (** open loop: scheduled send time from the start *)
  latency_ms : float;
      (** send (closed loop) or due time (open loop) to verified records *)
  ok : bool;  (** verified and equal to the expected answer *)
}

(* Drops the warm-up from [xs], whose samples [sample] gives. Closed loop:
   each sender's first [warmup] queries. Open loop: arrivals due in the
   first [warmup_s] seconds. *)
let measured load sample xs =
  List.filter
    (fun x ->
      let s = sample x in
      match load with
      | Gen.Closed { warmup; _ } -> s.seq >= warmup
      | Gen.Open { warmup_s; _ } -> s.due_s >= warmup_s)
    xs

let min_beyond = 10

(* Nearest rank: the smallest value with at least [q] of the samples at or
   below it. *)
let rank n q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let beyond n q = n - rank n q

(* A percentile of [sorted] (ascending) is reported only when at least
   [min_beyond] samples lie beyond it; otherwise the run is too short to say
   anything about it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 || beyond n q < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, %d samples give %d"
         (q *. 100.0) min_beyond n
         (if n = 0 then 0 else beyond n q))
  else Ok sorted.(rank n q - 1)

(* Verified answers within [limit_ms], per second of the window. A failed
   request counts as a miss whatever its latency. *)
let goodput ~limit_ms ~window_s samples =
  let good =
    List.length (List.filter (fun s -> s.ok && s.latency_ms <= limit_ms) samples)
  in
  float_of_int good /. window_s

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) with its default 'exclusive'
   method: first and third quartile. Needs two or more values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: needs at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 3)

(* Interquartile distance as a share of the median; 0 for a single run. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. Float.abs (median xs)
