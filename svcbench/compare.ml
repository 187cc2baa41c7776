(* `service.exe compare BASE NEW`: judge each workload x end-to-end metric
   of two run sets against the bounds in BENCHMARK.json.

   A runs file is {"schema": "svcbench-runs/1", "runs": [run...]}, each run
   {"workload", "seed", "metrics": {name: {"value", "unit"}}, "set"?}. A
   path may end in "#SET" to keep only the runs tagged with that set. *)

module Json = Zkqac_telemetry.Json

let schema = "svcbench-runs/1"

type better = Lower | Higher
type bound = { metric : string; better : better; bound : float }
type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let str = function Some (Json.Str s) -> Some s | _ -> None

let bounds_of_spec spec =
  match field "end_to_end" spec with
  | Some (Json.Arr ms) ->
    List.filter_map
      (fun m ->
        match (str (field "name" m), str (field "better" m), num (field "bound" m)) with
        | Some metric, Some "lower", Some bound -> Some { metric; better = Lower; bound }
        | Some metric, Some "higher", Some bound -> Some { metric; better = Higher; bound }
        | _ -> None)
      ms
  | _ -> []

(* (workload, metric, value) for every run in [runs], optionally only the
   runs of one set. *)
let values ?set runs =
  match field "runs" runs with
  | Some (Json.Arr rs) ->
    List.concat_map
      (fun r ->
        let in_set =
          match set with None -> true | Some s -> str (field "set" r) = Some s
        in
        match (in_set, str (field "workload" r), field "metrics" r) with
        | true, Some w, Some (Json.Obj ms) ->
          List.filter_map
            (fun (name, m) -> Option.map (fun v -> (w, name, v)) (num (field "value" m)))
            ms
        | _ -> [])
      rs
  | _ -> []

(* [a] reads better than [b]. *)
let beats better a b = match better with Lower -> a < b | Higher -> a > b

(* A regression is a median worse by more than the bound. A metric whose
   spread on either side is wider than its bound is unresolved, unless
   every new run beats every base run. An improvement needs the medians to
   differ by more than the base spread, with nine tenths of all base/new
   pairs won by the new side. *)
let verdict ~better ~bound ~base ~next =
  let mb = Stats.median base and mn = Stats.median next in
  let worse = (match better with Lower -> mn -. mb | Higher -> mb -. mn) /. Float.abs mb in
  let pairs = List.length base * List.length next in
  let wins =
    List.fold_left
      (fun acc n -> acc + List.length (List.filter (fun b -> beats better n b) base))
      0 next
  in
  if Float.max (Stats.spread base) (Stats.spread next) > bound then
    if wins = pairs then Improved else Unresolved
  else if worse > bound then Regressed
  else if -.worse > Stats.spread base && float_of_int wins >= 0.9 *. float_of_int pairs
  then Improved
  else Unchanged

type row = {
  workload : string;
  r_metric : string;
  base_median : float;
  new_median : float;
  change_pct : float;
  spread_pct : float;  (** the wider of the two sides *)
  verdict : verdict;
}

let rows ~spec ~base ~next =
  let bounds = bounds_of_spec spec in
  let workloads =
    List.sort_uniq compare (List.map (fun (w, _, _) -> w) (base @ next))
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun b ->
          let pick vs =
            List.filter_map
              (fun (w', m, v) -> if w' = w && m = b.metric then Some v else None)
              vs
          in
          match (pick base, pick next) with
          | [], _ | _, [] -> None
          | bs, ns ->
            let mb = Stats.median bs and mn = Stats.median ns in
            Some
              {
                workload = w;
                r_metric = b.metric;
                base_median = mb;
                new_median = mn;
                change_pct = (mn -. mb) /. Float.abs mb *. 100.0;
                spread_pct = 100.0 *. Float.max (Stats.spread bs) (Stats.spread ns);
                verdict = verdict ~better:b.better ~bound:b.bound ~base:bs ~next:ns;
              })
        bounds)
    workloads

let read_json path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let load arg =
  match String.rindex_opt arg '#' with
  | Some i ->
    values
      ~set:(String.sub arg (i + 1) (String.length arg - i - 1))
      (read_json (String.sub arg 0 i))
  | None -> values (read_json arg)

let main args =
  let spec, base, next =
    match args with
    | [ "--spec"; spec; base; next ] -> (spec, base, next)
    | [ base; next ] -> ("BENCHMARK.json", base, next)
    | _ ->
      prerr_endline "usage: service.exe compare [--spec BENCHMARK.json] BASE[#SET] NEW[#SET]";
      exit 2
  in
  match rows ~spec:(read_json spec) ~base:(load base) ~next:(load next) with
  | exception (Failure e | Sys_error e) ->
    prerr_endline ("compare: " ^ e);
    2
  | rows ->
    Printf.printf "%-13s %-16s %12s %12s %8s %8s  %s\n" "workload" "metric" "base"
      "new" "change" "spread" "verdict";
    List.iter
      (fun r ->
        Printf.printf "%-13s %-16s %12.4f %12.4f %+7.1f%% %7.1f%%  %s\n" r.workload
          r.r_metric r.base_median r.new_median r.change_pct r.spread_pct
          (verdict_to_string r.verdict))
      rows;
    if List.exists (fun r -> r.verdict = Regressed) rows then 1 else 0
