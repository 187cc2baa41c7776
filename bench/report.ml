(* Plain-text table rendering for the experiment harness, plus the
   structured-result sink behind `--json`. *)

module Json = Zkqac_telemetry.Json

(* Experiments push named series of JSON rows here; main drains them into
   the per-experiment record of BENCH.json. Off (a no-op) unless --json. *)
let collecting = ref false

let series_acc : (string * Json.t list ref) list ref = ref []

let emit ~series row =
  if !collecting then begin
    match List.assoc_opt series !series_acc with
    | Some rows -> rows := row :: !rows
    | None -> series_acc := !series_acc @ [ (series, ref [ row ]) ]
  end

let take_series () =
  let out = List.map (fun (n, rows) -> (n, Json.Arr (List.rev !rows))) !series_acc in
  series_acc := [];
  out

let hr width = String.make width '-'

let print_table ~title ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths =
    List.init cols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let render row =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%*s" (List.nth widths c) cell)
         row)
  in
  let total = List.fold_left ( + ) (2 * (cols - 1)) widths in
  Printf.printf "\n%s\n%s\n%s\n%s\n" title (hr total) (render header) (hr total);
  List.iter (fun row -> print_endline (render row)) rows;
  print_endline (hr total)

let ms t = Printf.sprintf "%.1f" (t *. 1000.)
let s t = Printf.sprintf "%.2f" t
let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.)
let mb bytes = Printf.sprintf "%.2f" (float_of_int bytes /. 1048576.)

(* Average time of [f] over [n] runs (n >= 1), on the monotonic clock. *)
let avg_time n f =
  let acc = ref 0.0 in
  let last = ref None in
  for _ = 1 to n do
    let v, t = Zkqac_parallel.Pool.time f in
    acc := !acc +. t;
    last := Some v
  done;
  (Option.get !last, !acc /. float_of_int n)

(* Dropped spans silently truncate traces and undercount histograms — any
   report built on them must say so, loudly. *)
let warn_dropped_spans () =
  let d = Zkqac_telemetry.Trace.dropped () in
  if d > 0 then
    Printf.eprintf
      "WARNING: %d trace span(s) dropped (trace capacity reached).\n\
      \         Per-stage histograms, allocation attribution and trace files\n\
      \         undercount this run; raise the capacity or trace fewer \
       experiments.\n\
       %!"
      d

(* The BENCH.json "histograms" and "alloc" sections: two views of one
   [Stage] snapshot (or diff of snapshots). *)
let histograms_json stages =
  Json.Obj
    (List.map
       (fun (name, (c : Zkqac_telemetry.Stage.cell)) ->
         (name, Zkqac_telemetry.Histogram.to_json c.hist))
       stages)

let alloc_json stages =
  Json.Obj
    (List.map
       (fun (name, (c : Zkqac_telemetry.Stage.cell)) ->
         ( name,
           Json.Obj
             [ ("count", Json.Int (Zkqac_telemetry.Stage.count c));
               ("minor_words", Json.Float c.minor);
               ("promoted_words", Json.Float c.promoted);
               ("major_words", Json.Float c.major) ] ))
       stages)

(* Per-stage latency percentiles from a [Stage] snapshot. *)
let print_histograms stages =
  let module H = Zkqac_telemetry.Histogram in
  if stages <> [] then begin
    let q h p = Printf.sprintf "%.3f" (H.quantile h p /. 1e6) in
    print_table ~title:"per-stage latency percentiles (ms)"
      ~header:[ "stage"; "count"; "mean"; "p50"; "p95"; "p99" ]
      (List.map
         (fun (name, (c : Zkqac_telemetry.Stage.cell)) ->
           let h = c.hist in
           [ name;
             string_of_int (H.count h);
             Printf.sprintf "%.3f" (H.mean_ns h /. 1e6);
             q h 0.50; q h 0.95; q h 0.99 ])
         stages)
  end
