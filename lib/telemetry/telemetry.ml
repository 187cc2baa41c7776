type counter =
  | Pairing
  | G_exp
  | G_mul
  | Gt_exp
  | Gt_mul
  | Sha256_compress
  | Abs_sign
  | Abs_verify
  | Abs_relax
  | Cpabe_encrypt
  | Cpabe_decrypt
  | Multi_pairing
  | Multi_pairing_terms

let all_counters =
  [ Pairing; G_exp; G_mul; Gt_exp; Gt_mul; Sha256_compress; Abs_sign;
    Abs_verify; Abs_relax; Cpabe_encrypt; Cpabe_decrypt; Multi_pairing;
    Multi_pairing_terms ]

let counter_name = function
  | Pairing -> "pairing"
  | G_exp -> "g_exp"
  | G_mul -> "g_mul"
  | Gt_exp -> "gt_exp"
  | Gt_mul -> "gt_mul"
  | Sha256_compress -> "sha256_compress"
  | Abs_sign -> "abs_sign"
  | Abs_verify -> "abs_verify"
  | Abs_relax -> "abs_relax"
  | Cpabe_encrypt -> "cpabe_encrypt"
  | Cpabe_decrypt -> "cpabe_decrypt"
  | Multi_pairing -> "multi_pairings"
  | Multi_pairing_terms -> "multi_pairing_terms"

let index = function
  | Pairing -> 0
  | G_exp -> 1
  | G_mul -> 2
  | Gt_exp -> 3
  | Gt_mul -> 4
  | Sha256_compress -> 5
  | Abs_sign -> 6
  | Abs_verify -> 7
  | Abs_relax -> 8
  | Cpabe_encrypt -> 9
  | Cpabe_decrypt -> 10
  | Multi_pairing -> 11
  | Multi_pairing_terms -> 12

let num_counters = List.length all_counters

(* --- switching --- *)

let on = Switch.telemetry_on
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let with_enabled f =
  let prev = Atomic.get on in
  Atomic.set on true;
  Fun.protect ~finally:(fun () -> Atomic.set on prev) f

(* --- counters --- *)

let counters = Array.init num_counters (fun _ -> Atomic.make 0)

let bump c = if Atomic.get on then Atomic.incr counters.(index c)

let bump_n c n =
  if Atomic.get on then ignore (Atomic.fetch_and_add counters.(index c) n)

let get c = Atomic.get counters.(index c)

(* --- spans --- *)

(* The timing primitive lives in Trace: one [with_span] close makes one
   [Stage.note], and (when tracing is enabled) records a hierarchical span.
   The per-stage calls/seconds reported here are that table's histogram
   count and sum. *)

type span_stat = { calls : int; seconds : float }

let now_ns () = Monotonic_clock.now_ns ()
let span name f = Trace.with_span name (fun _ -> f ())

(* --- snapshots --- *)

type snapshot = { ops : int array; stages : (string * Stage.cell) list }

let snapshot () = { ops = Array.map Atomic.get counters; stages = Stage.snapshot () }

let diff ~earlier ~later =
  {
    ops = Array.mapi (fun i v -> v - earlier.ops.(i)) later.ops;
    stages = Stage.diff ~earlier:earlier.stages ~later:later.stages;
  }

let reset () =
  Array.iter (fun c -> Atomic.set c 0) counters;
  Stage.reset ()

let ops snap = List.map (fun c -> (c, snap.ops.(index c))) all_counters
let stages snap = snap.stages

let spans snap =
  List.map
    (fun (name, (c : Stage.cell)) ->
      (name, { calls = Stage.count c; seconds = Histogram.sum_ns c.hist *. 1e-9 }))
    snap.stages

(* --- reporting --- *)

let ops_json snap =
  Json.Obj (List.map (fun (c, n) -> (counter_name c, Json.Int n)) (ops snap))

let spans_json snap =
  Json.Obj
    (List.map
       (fun (name, { calls; seconds }) ->
         (name, Json.Obj [ ("calls", Json.Int calls); ("seconds", Json.Float seconds) ]))
       (spans snap))

let to_json snap =
  Json.Obj [ ("ops", ops_json snap); ("spans", spans_json snap) ]

let print oc snap =
  Printf.fprintf oc "telemetry: operation counts\n";
  let nonzero = List.filter (fun (_, n) -> n <> 0) (ops snap) in
  if nonzero = [] then Printf.fprintf oc "  (none recorded)\n"
  else
    List.iter
      (fun (c, n) -> Printf.fprintf oc "  %-16s %12d\n" (counter_name c) n)
      nonzero;
  if snap.stages <> [] then begin
    Printf.fprintf oc "telemetry: stage timings\n";
    List.iter
      (fun (name, { calls; seconds }) ->
        Printf.fprintf oc "  %-16s %6d call(s) %10.1f ms\n" name calls
          (seconds *. 1000.))
      (spans snap)
  end
