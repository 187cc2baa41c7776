(* Log-bucketed latency histograms, HDR-style: 16 linear sub-buckets per
   power-of-two octave, so any recorded value lands in a bucket whose width
   is at most 1/16 of its magnitude (quantile error <= ~6%). Buckets are
   plain int counts, which makes histograms mergeable (and diffable) by
   pointwise addition (subtraction). *)

let sub_bits = 4 (* 16 sub-buckets per octave *)
let sub = 1 lsl sub_bits
let num_buckets = 16 * 60 (* covers durations up to ~2^63 ns *)

type t = {
  counts : int array;
  mutable total : int;
  mutable sum_ns : float;
}

let create () = { counts = Array.make num_buckets 0; total = 0; sum_ns = 0.0 }

let bucket_of_ns ns =
  if ns < sub then max 0 ns
  else begin
    (* e = floor(log2 ns) >= sub_bits *)
    let e = ref sub_bits in
    while ns lsr (!e + 1) > 0 do
      incr e
    done;
    let offset = (ns - (1 lsl !e)) lsr (!e - sub_bits) in
    min (num_buckets - 1) ((sub * (!e - sub_bits + 1)) + offset)
  end

(* Inclusive-lo / exclusive-hi bounds of bucket [b], in ns. *)
let bucket_bounds b =
  if b < sub then (float_of_int b, float_of_int (b + 1))
  else begin
    let g = b / sub and offset = b mod sub in
    let e = g + sub_bits - 1 in
    let step = float_of_int (1 lsl (e - sub_bits)) in
    let lo = float_of_int (1 lsl e) +. (float_of_int offset *. step) in
    (lo, lo +. step)
  end

let record t ns =
  let b = bucket_of_ns ns in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  t.sum_ns <- t.sum_ns +. float_of_int ns

let count t = t.total
let sum_ns t = t.sum_ns
let mean_ns t = if t.total = 0 then 0.0 else t.sum_ns /. float_of_int t.total

(* Min/max are derived from the bucket counts (lower bound of the first /
   last nonempty bucket), so they stay exact under merge and diff at the
   cost of bucket resolution (<= ~6% of the value). *)
let min_ns t =
  let rec find b =
    if b >= num_buckets then 0.0
    else if t.counts.(b) > 0 then fst (bucket_bounds b)
    else find (b + 1)
  in
  find 0

let max_ns t =
  let rec find b =
    if b < 0 then 0.0
    else if t.counts.(b) > 0 then fst (bucket_bounds b)
    else find (b - 1)
  in
  find (num_buckets - 1)

(* Sparse bucket view: (bucket index, count) for nonempty buckets, in
   index order — the form BENCH.json carries. *)
let buckets t =
  let out = ref [] in
  for b = num_buckets - 1 downto 0 do
    if t.counts.(b) > 0 then out := (b, t.counts.(b)) :: !out
  done;
  !out

let merge a b =
  {
    counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
    total = a.total + b.total;
    sum_ns = a.sum_ns +. b.sum_ns;
  }

(* [sub later earlier]: what was recorded between two copies of one
   histogram, clamped at zero. *)
let sub l e =
  {
    counts = Array.mapi (fun i c -> max 0 (c - e.counts.(i))) l.counts;
    total = max 0 (l.total - e.total);
    sum_ns = Float.max 0.0 (l.sum_ns -. e.sum_ns);
  }

(* [quantile t q] interpolates the q-quantile (q in [0,1]) from the bucket
   counts: the fractional rank q*(n-1) is located in its bucket and mapped
   linearly across the bucket's bounds. *)
let quantile t q =
  if t.total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int (t.total - 1) in
    let rec find b cum_before =
      if b >= num_buckets then fst (bucket_bounds (num_buckets - 1))
      else begin
        let c = t.counts.(b) in
        if c > 0 && rank < float_of_int (cum_before + c) then begin
          let lo, hi = bucket_bounds b in
          let pos = (rank -. float_of_int cum_before +. 0.5) /. float_of_int c in
          lo +. (Float.min 1.0 pos *. (hi -. lo))
        end
        else find (b + 1) (cum_before + c)
      end
    in
    find 0 0
  end

let to_json t =
  let ms ns = ns /. 1e6 in
  Json.Obj
    [ ("count", Json.Int t.total);
      ("mean_ms", Json.Float (ms (mean_ns t)));
      ("min_ms", Json.Float (ms (min_ns t)));
      ("max_ms", Json.Float (ms (max_ns t)));
      ("p50_ms", Json.Float (ms (quantile t 0.5)));
      ("p95_ms", Json.Float (ms (quantile t 0.95)));
      ("p99_ms", Json.Float (ms (quantile t 0.99)));
      ( "buckets",
        Json.Arr
          (List.map
             (fun (b, c) -> Json.Arr [ Json.Int b; Json.Int c ])
             (buckets t)) ) ]
