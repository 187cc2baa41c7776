(* The benchmark harness: one section per table/figure of the paper's
   evaluation (Section 10 + Appendix E).

   Usage:
     dune exec bench/main.exe                 -- every experiment, smoke sizes
     dune exec bench/main.exe -- table1 fig7  -- selected experiments
     dune exec bench/main.exe -- --full all   -- larger (paper-shaped) sizes
     dune exec bench/main.exe -- --backend typea-tiny fig7
                                              -- real pairing backend *)

module Backend = Zkqac_group.Backend
module Telemetry = Zkqac_telemetry.Telemetry
module Trace = Zkqac_telemetry.Trace
module Metrics = Zkqac_telemetry.Metrics
module Flight = Zkqac_telemetry.Flight
module Rte = Zkqac_telemetry.Rte
module Json = Zkqac_telemetry.Json
module Pool = Zkqac_parallel.Pool

let experiments =
  [ "table1"; "table2"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
    "fig13"; "fig14"; "fig15"; "batch"; "micro" ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--full] [--backend %s] [--json PATH] [--trace DIR] [all | %s]...\n"
    (String.concat "|" (List.map Backend.to_string Backend.all))
    (String.concat " | " experiments);
  exit 2

let () =
  (* A crashing experiment should leave its last moments on disk (or at
     least on stderr) before the process dies. *)
  Printexc.set_uncaught_exception_handler (fun e bt ->
    Flight.emergency ~reason:("uncaught:" ^ Printexc.to_string e);
    Printf.eprintf "bench: fatal: %s\n%s%!" (Printexc.to_string e)
      (Printexc.raw_backtrace_to_string bt);
    exit 125);
  let args = List.tl (Array.to_list Sys.argv) in
  let full = ref false in
  let backend = ref Backend.Mock in
  let json_path = ref None in
  let trace_dir = ref None in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      full := true;
      parse rest
    | "--backend" :: b :: rest ->
      (match Backend.of_string b with
       | Some k -> backend := k
       | None -> usage ());
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--trace" :: dir :: rest ->
      trace_dir := Some dir;
      parse rest
    | "all" :: rest ->
      selected := !selected @ experiments;
      parse rest
    | exp :: rest when List.mem exp experiments ->
      selected := !selected @ [ exp ];
      parse rest
    | _ -> usage ()
  in
  parse args;
  let selected = if !selected = [] then experiments else !selected in
  let cfg = { Experiments.full = !full } in
  let backend_mod = Backend.instantiate !backend in
  let module B = (val backend_mod) in
  let module E = Experiments.Make (B) in
  Printf.printf
    "zkqac benchmark harness -- backend: %s, %s sizes\n"
    B.name
    (if !full then "full" else "smoke");
  (match !json_path with
   | None -> ()
   | Some path ->
     (* Fail fast on an unwritable path rather than after the experiments. *)
     (try close_out (open_out path)
      with Sys_error e ->
        Printf.eprintf "cannot write %s: %s\n" path e;
        exit 2);
     Report.collecting := true;
     Telemetry.enable ());
  (match !trace_dir with
   | None -> ()
   | Some dir ->
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
     else if not (Sys.is_directory dir) then begin
       Printf.eprintf "--trace %s: not a directory\n" dir;
       exit 2
     end;
     Trace.enable ());
  (* GC-pause attribution rides along whenever an output consumer exists:
     Perfetto GC tracks for --trace, gc-pause metrics for --json. *)
  if !json_path <> None || !trace_dir <> None then Rte.start ();
  let records = ref [] in
  let (), total =
    Pool.time @@ fun () ->
    List.iter
    (fun exp ->
      let run () =
        match exp with
        | "table1" -> E.table1 cfg
        | "table2" -> E.table2 cfg
        | "fig7" -> E.fig7 cfg
        | "fig8" -> E.fig8 cfg
        | "fig9" -> E.fig9 cfg
        | "fig10" -> E.fig10 cfg
        | "fig11" -> E.fig11 cfg
        | "fig12" -> E.fig12 cfg
        | "fig13" -> E.fig13 cfg
        | "fig14" -> E.fig14 cfg
        | "fig15" -> E.fig15 cfg
        | "batch" -> E.ablation_batch cfg
        | "micro" ->
          Micro.micro
            (backend_mod
             :: (if !backend = Backend.Mock then
                   [ Backend.instantiate Backend.Typea_tiny ]
                 else []))
        | _ -> assert false
      in
      let before = Telemetry.snapshot () in
      let _, t = Pool.time run in
      if !json_path <> None then begin
        let cost = Telemetry.diff ~earlier:before ~later:(Telemetry.snapshot ()) in
        let stages = Telemetry.stages cost in
        let series = Report.take_series () in
        records :=
          Json.Obj
            ([ ("name", Json.Str exp);
               ("wall_s", Json.Float t);
               ("ops", Telemetry.ops_json cost);
               ("spans", Telemetry.spans_json cost) ]
             @ (if stages = [] then []
                else
                  [ ("histograms", Report.histograms_json stages);
                    ("alloc", Report.alloc_json stages) ])
             @ (if series = [] then [] else [ ("series", Json.Obj series) ]))
          :: !records
      end;
      (match !trace_dir with
       | None -> ()
       | Some dir ->
         (* One Perfetto-loadable trace per experiment; reset so each file
            holds only its own spans. *)
         let path = Filename.concat dir (exp ^ ".trace.json") in
         Trace.write_chrome path;
         Printf.printf "[%s trace: %s, %d span(s)%s]\n%!" exp path
           (Trace.span_count ())
           (if Trace.dropped () > 0 then
              Printf.sprintf ", %d dropped" (Trace.dropped ())
            else "");
         Trace.reset ());
      Printf.printf "[%s done in %.1fs]\n%!" exp t)
    selected
  in
  Rte.stop ();
  let stages = Telemetry.stages (Telemetry.snapshot ()) in
  if Telemetry.enabled () || !trace_dir <> None then Report.print_histograms stages;
  Report.warn_dropped_spans ();
  Printf.printf "\ntotal: %.1fs\n" total;
  match !json_path with
  | None -> ()
  | Some path ->
    Json.to_file path
      (Json.Obj
         [ ("schema", Json.Str "zkqac-bench/3");
           ("backend", Json.Str (Backend.to_string !backend));
           ("full", Json.Bool !full);
           ("domains", Json.Int (Pool.size ()));
           ("total_wall_s", Json.Float total);
           ("histograms", Report.histograms_json stages);
           ("alloc", Report.alloc_json stages);
           ("metrics", Metrics.to_json ());
           ("experiments", Json.Arr (List.rev !records)) ]);
    Printf.printf "wrote %s\n" path
