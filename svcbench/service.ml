(* The served-query benchmark (README.md has the workloads and metrics).

     service.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-dir DIR] [--json FILE]
     service.exe compare BASE NEW

   A run builds each workload's ADS from the seed, starts the service
   provider as a child process, sends queries through the verifying client
   from two sender threads, checks every answer against the records it
   generated, and prints the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1). The last line of stdout is one JSON
   object. Scratch files go under _svcbench/ in the working directory. *)

module Json = Zkqac_telemetry.Json
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_parallel.Monotonic_clock
module Drbg = Zkqac_hashing.Drbg
module Universe = Zkqac_policy.Universe
module Box = Zkqac_core.Box
module Proto = Zkqac_server.Proto
module Client = Zkqac_server.Client

type metric = { name : string; unit : string; value : float }

type outcome = Ok_answer | Wrong_answer | Rejected | Bad_request | Exhausted

(* One query as its sender saw it. *)
type obs = {
  sample : Stats.sample;
  outcome : outcome;
  vo_bytes : int;
  attempts : int;
  timing : Proto.timing option;
  attempt_ms : float;
  verify_ms : float;
  late_ms : float;  (** open loop: send time minus due time *)
  done_ns : int64;  (** when the answer arrived *)
  kept : (Box.t * (int array * string) list * int) option;
      (** query, served answer and VO bytes, for the traced replay *)
}

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  counts : (string * int) list;
}

let ms_of_ns ns = Int64.to_float ns /. 1e6
let ns_after t0 s = Int64.add t0 (Int64.of_float (s *. 1e9))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let file_mb path = float_of_int (Unix.stat path).Unix.st_size /. 1048576.0

let p_of xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Stats.percentile a q with Ok v -> v | Error e -> failwith e

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Ads_io = Zkqac_core.Ads_io.Make (P)
  module Cl = Client.Make (P)

  type built = {
    inp : Gen.inputs;
    universe : Universe.t;
    mvk : Abs.mvk;
    tree : Ap2g.t;
    build_s : float;
    save_s : float;
  }

  (* The data owner's side: records -> keys -> signed AP2G tree -> file. *)
  let build (w : Gen.workload) ~seed ~ads =
    let inp = Gen.inputs w ~seed in
    let tag = Printf.sprintf "svcbench:%d" seed in
    let drbg = Drbg.create ~seed:tag in
    let msk, mvk = Abs.setup drbg in
    let universe = Universe.create inp.Gen.roles in
    let sk = Abs.keygen drbg msk (Universe.attrs universe) in
    let t0 = Clock.now_ns () in
    let tree =
      Ap2g.build drbg ~mvk ~sk ~space:inp.Gen.space ~universe ~pseudo_seed:tag
        inp.Gen.records
    in
    let build_s = Clock.elapsed_since t0 in
    let t1 = Clock.now_ns () in
    Ads_io.save ~path:ads ~mvk tree;
    { inp; universe; mvk; tree; build_s; save_s = Clock.elapsed_since t1 }

  let child_spec (w : Gen.workload) ~dir ~ads ~trace_out =
    {
      Child.backend = w.Gen.backend;
      ads;
      audit = (if w.Gen.audit then Some (Filename.concat dir "audit.log") else None);
      checkpoint_every = w.Gen.checkpoint_every;
      trace_out;
    }

  (* [Gen.setups] full set-ups, each from the seed to a server that answers;
     all but the last server are stopped again. The last one writes its
     trace to [trace_out], if given. *)
  let setup (w : Gen.workload) ~seed ~dir ~trace_out =
    let rec go i times =
      let last = i + 1 = Gen.setups in
      let sdir = Filename.concat dir (Printf.sprintf "setup%d" i) in
      mkdir_p sdir;
      let ads = Filename.concat sdir "ads.bin" in
      let t0 = Clock.now_ns () in
      let b = build w ~seed ~ads in
      let child =
        Child.spawn
          (child_spec w ~dir:sdir ~ads ~trace_out:(if last then trace_out else None))
      in
      let times = Clock.elapsed_since t0 :: times in
      if not last then begin
        ignore (Child.stop child : string list);
        rm_rf sdir;
        go (i + 1) times
      end
      else (b, child, ads, Stats.median times)
    in
    go 0 []

  (* One query through the verifying client, timed from [since] (the send
     time in a closed loop, the due time in an open one). *)
  let query_one b ~user ~cfg ~keep ~stream ~seq ~due_s ~since ~late_ms box =
    let res =
      Trace.with_span "client.query" ~parent:Trace.none
        ~attrs:[ ("stream", Trace.Int stream); ("seq", Trace.Int seq) ]
      @@ fun _ -> Cl.query cfg ~mvk:b.mvk ~universe:b.universe ~user ~query:box ()
    in
    let done_ns = Clock.now_ns () in
    let latency_ms = ms_of_ns (Int64.sub done_ns since) in
    let base outcome =
      {
        sample = { Stats.stream; seq; due_s; latency_ms; ok = outcome = Ok_answer };
        outcome;
        vo_bytes = 0;
        attempts = 0;
        timing = None;
        attempt_ms = 0.0;
        verify_ms = 0.0;
        late_ms;
        done_ns;
        kept = None;
      }
    in
    match res with
    | Ok s ->
      let served = Gen.answer s.Cl.records in
      let outcome =
        if served = Gen.expected b.inp ~user box then Ok_answer else Wrong_answer
      in
      {
        (base outcome) with
        vo_bytes = s.Cl.vo_bytes;
        attempts = s.Cl.attempts;
        timing = s.Cl.server;
        attempt_ms = s.Cl.attempt_ms;
        verify_ms = s.Cl.verify_ms;
        kept = (if keep then Some (box, served, s.Cl.vo_bytes) else None);
      }
    | Error (Client.Rejected _) -> base Rejected
    | Error (Client.Bad_request _) -> base Bad_request
    | Error (Client.Exhausted { attempts; _ }) -> { (base Exhausted) with attempts }

  let closed b (w : Gen.workload) ~seed ~cfg ~user ~warmup ~seconds ~keep =
    let m = Mutex.create () and cv = Condition.create () in
    let waiting = ref Gen.senders and start = ref 0L in
    let out = Array.make Gen.senders [] and last = Array.make Gen.senders 0L in
    let cycle = Gen.cycle w b.inp ~seed in
    let body k () =
      (* A closed-loop sender is late by the time between an answer and
         its next send: checking the answer and picking the next box. *)
      let ready = ref (Clock.now_ns ()) in
      let one seq =
        let box = cycle.(((seq * Gen.senders) + k) mod Array.length cycle) in
        let sent = Clock.now_ns () in
        let o =
          query_one b ~user ~cfg ~keep:(seq < keep) ~stream:k ~seq ~due_s:0.0
            ~since:sent ~late_ms:(ms_of_ns (Int64.sub sent !ready)) box
        in
        ready := o.done_ns;
        o
      in
      let acc = ref [] in
      for seq = 0 to warmup - 1 do
        acc := one seq :: !acc
      done;
      Mutex.lock m;
      decr waiting;
      if !waiting = 0 then begin
        start := Clock.now_ns ();
        Condition.broadcast cv
      end
      else
        while !waiting > 0 do
          Condition.wait cv m
        done;
      let stop = ns_after !start seconds in
      Mutex.unlock m;
      ready := Clock.now_ns ();
      let seq = ref warmup in
      while Clock.now_ns () < stop do
        acc := one !seq :: !acc;
        incr seq
      done;
      last.(k) <- Clock.now_ns ();
      out.(k) <- !acc
    in
    let ths = Array.init Gen.senders (fun k -> Thread.create (body k) ()) in
    Array.iter Thread.join ths;
    let finish = Array.fold_left max 0L last in
    (List.concat (Array.to_list out), ms_of_ns (Int64.sub finish !start) /. 1e3)

  let open_loop b (w : Gen.workload) ~seed ~cfg ~user ~qps ~warmup_s ~seconds
      ~keep =
    let due = Gen.schedule ~seed ~qps ~warmup_s ~seconds in
    let cycle = Gen.cycle w b.inp ~seed in
    let claim = Atomic.make 0 in
    let t0 = ns_after (Clock.now_ns ()) 0.01 in
    let out = Array.make Gen.senders [] in
    let body k () =
      let acc = ref [] in
      let rec loop () =
        let i = Atomic.fetch_and_add claim 1 in
        if i < Array.length due then begin
          let due_ns = ns_after t0 due.(i) in
          let wait = ms_of_ns (Int64.sub due_ns (Clock.now_ns ())) /. 1e3 in
          if wait > 0.0 then Unix.sleepf wait;
          let late_ms = Float.max 0.0 (ms_of_ns (Int64.sub (Clock.now_ns ()) due_ns)) in
          acc :=
            query_one b ~user ~cfg ~keep:(i < keep) ~stream:k ~seq:i
              ~due_s:due.(i) ~since:due_ns ~late_ms
              cycle.(i mod Array.length cycle)
            :: !acc;
          loop ()
        end
      in
      loop ();
      out.(k) <- !acc
    in
    let ths = Array.init Gen.senders (fun k -> Thread.create (body k) ()) in
    Array.iter Thread.join ths;
    (List.concat (Array.to_list out), seconds)

  type window = {
    all : obs list;  (** warm-up included *)
    measured : obs list;
    window_s : float;
  }

  let serve_window b (w : Gen.workload) ~seed ~child ~seconds ~keep =
    let user = b.inp.Gen.user in
    let cfg = { Client.default_config with Client.port = child.Child.port } in
    let all, window_s =
      match w.Gen.load with
      | Gen.Closed { warmup } -> closed b w ~seed ~cfg ~user ~warmup ~seconds ~keep
      | Gen.Open { qps; warmup_s } ->
        open_loop b w ~seed ~cfg ~user ~qps ~warmup_s ~seconds ~keep
    in
    let measured = Stats.measured w.Gen.load (fun o -> o.sample) all in
    { all; measured; window_s }

  (* Position of a query in the run's query sequence (Gen.cycle). *)
  let index (w : Gen.workload) (s : Stats.sample) =
    match w.Gen.load with
    | Gen.Closed _ -> (s.Stats.seq * Gen.senders) + s.Stats.stream
    | Gen.Open _ -> s.Stats.seq

  (* Set-up time, sizes and memory only: on the measuring host, served
     timings repeat from run to run only within 5-25% (README.md), wider
     than the bounds they would need, so they are numbers of the traced run.
     The VO size is averaged over the first round of the query sequence
     (Gen.cycle), warm-up included (a size needs no warm-up), which holds
     every box once, so it is the same for every run of a seed. The
     server's memory is its peak once it serves, before the first request:
     read after a fixed number of requests, it moved by 8% between runs with
     the steps in which the server's heap grows. *)
  let e2e (w : Gen.workload) ~setup_s ~rss_mb ~ads win =
    let first_round =
      List.filter
        (fun o -> o.outcome = Ok_answer && index w o.sample < w.Gen.boxes)
        win.all
    in
    [ { name = "setup_s"; unit = "s"; value = setup_s };
      {
        name = "vo_kb";
        unit = "KiB";
        value = mean (List.map (fun o -> float_of_int o.vo_bytes /. 1024.0) first_round);
      };
      { name = "ads_mb"; unit = "MiB"; value = file_mb ads };
      { name = "server_rss_mb"; unit = "MiB"; value = rss_mb } ]

  (* Numbers from the served window: what the senders saw (goodput counts a
     failure as a miss; latency percentiles are over verified answers), the
     server's timing footer, the client's own split, and the generator's
     lateness. *)
  let served_layers (w : Gen.workload) win =
    let ok = List.filter (fun o -> o.outcome = Ok_answer) win.measured in
    let lat = List.map (fun o -> o.sample.Stats.latency_ms) ok in
    let timed = List.filter_map (fun o -> Option.map (fun t -> (o, t)) o.timing) ok in
    let us f = List.map (fun (_, t) -> float_of_int (f t) /. 1e3) timed in
    let q = w.Gen.tail in
    let total = us (fun t -> t.Proto.total_us) in
    (* The footer counts whole microseconds, so a stage's median repeats
       exactly from run to run; stages are reported as means. *)
    let stage f = mean (us f) in
    let net =
      List.map (fun (o, t) -> o.attempt_ms -. (float_of_int t.Proto.total_us /. 1e3)) timed
    in
    let verify = List.map (fun o -> o.verify_ms) ok in
    let late = List.map (fun o -> o.late_ms) win.measured in
    let attempts = List.fold_left (fun a o -> a + o.attempts) 0 ok in
    let m name unit value = { name; unit; value } in
    [ m "served.goodput_qps" "1/s"
        (Stats.goodput ~limit_ms:w.Gen.limit_ms ~window_s:win.window_s
           (List.map (fun o -> o.sample) win.measured));
      m "served.latency_p50_ms" "ms" (p_of lat 0.5);
      m "served.latency_tail_ms" "ms" (p_of lat q);
      m "server.queue_ms.mean" "ms" (stage (fun t -> t.Proto.queue_us));
      m "server.relax_ms.mean" "ms" (stage (fun t -> t.Proto.relax_us));
      m "server.prove_ms.mean" "ms" (stage (fun t -> t.Proto.prove_us));
      m "server.encode_ms.mean" "ms" (stage (fun t -> t.Proto.encode_us));
      m "server.other_ms.mean" "ms"
        (stage (fun t ->
             t.Proto.total_us - t.Proto.queue_us - t.Proto.relax_us
             - t.Proto.prove_us - t.Proto.encode_us));
      m "server.total_ms.mean" "ms" (mean total);
      m "server.total_ms.tail" "ms" (p_of total q);
      m "net_ms.p50" "ms" (p_of net 0.5);
      m "net_ms.tail" "ms" (p_of net q);
      m "client.verify_ms.p50" "ms" (p_of verify 0.5);
      m "client.verify_ms.tail" "ms" (p_of verify q);
      m "client.attempts_per_ok" "count"
        (float_of_int attempts /. float_of_int (max 1 (List.length ok)));
      m "gen.late_ms.tail" "ms" (p_of late q) ]

  type replayed = {
    same : bool;  (** same answer and VO size as served *)
    range_ms : float;
    self_ms : float;  (** range_vo minus its ABS.Relax calls *)
    relax_calls : float;
    nodes : float;
    enc_ms : float;
    dec_ms : float;
    ver_ms : float;
    bytes : float;
  }

  (* Replays the kept queries single-threaded in this process, timing each
     layer call, and checks that each gives the served answer and VO size. *)
  let replay b win =
    let kept = List.filter_map (fun o -> o.kept) win.all in
    let drbg = Drbg.create ~seed:"svcbench:replay" in
    let user = b.inp.Gen.user in
    let relax_s = ref 0.0 and relax_n = ref 0 in
    let pmap jobs =
      List.map
        (fun j ->
          let t0 = Clock.now_ns () in
          let r = j () in
          relax_s := !relax_s +. Clock.elapsed_since t0;
          incr relax_n;
          r)
        jobs
    in
    let timed name f =
      let t0 = Clock.now_ns () in
      let r = Trace.with_span name (fun _ -> f ()) in
      (r, Clock.elapsed_since t0 *. 1e3)
    in
    let rows =
      List.map
        (fun (box, served, served_bytes) ->
          Trace.with_span "replay.query" ~parent:Trace.none @@ fun _ ->
          let relax0 = !relax_s in
          let (vo, st), range_ms =
            timed "ap2g.range_vo" (fun () ->
                Ap2g.range_vo ~pmap drbg ~mvk:b.mvk b.tree ~user box)
          in
          let bytes, enc_ms = timed "vo.encode" (fun () -> Vo.to_bytes vo) in
          let decoded, dec_ms = timed "vo.decode" (fun () -> Vo.decode bytes) in
          let batch = Drbg.create ~seed:("svcbench-batch:" ^ bytes) in
          let verified, ver_ms =
            timed "ap2g.verify" (fun () ->
                match decoded with
                | Error e -> Error e
                | Ok vo ->
                  Ap2g.verify ~batch ~mvk:b.mvk ~t_universe:b.universe ~user
                    ~query:box vo)
          in
          let same =
            String.length bytes = served_bytes
            &&
            match verified with
            | Ok records -> Gen.answer records = served
            | Error _ -> false
          in
          {
            same;
            range_ms;
            self_ms = range_ms -. ((!relax_s -. relax0) *. 1e3);
            relax_calls = float_of_int st.Ap2g.relax_calls;
            nodes = float_of_int st.Ap2g.nodes_visited;
            enc_ms;
            dec_ms;
            ver_ms;
            bytes = float_of_int (String.length bytes);
          })
        kept
    in
    let col f = mean (List.map f rows) in
    let m name unit value = { name; unit; value } in
    ( List.length rows,
      List.for_all (fun r -> r.same) rows,
      [ m "ap2g.range_vo_ms" "ms" (col (fun r -> r.range_ms));
        m "ap2g.prove_self_ms" "ms" (col (fun r -> r.self_ms));
        m "abs.relax_ms" "ms"
          (if !relax_n = 0 then 0.0 else !relax_s *. 1e3 /. float_of_int !relax_n);
        m "ap2g.relax_calls" "count" (col (fun r -> r.relax_calls));
        m "ap2g.nodes_visited" "count" (col (fun r -> r.nodes));
        m "vo.encode_ms" "ms" (col (fun r -> r.enc_ms));
        m "vo.decode_ms" "ms" (col (fun r -> r.dec_ms));
        m "ap2g.verify_ms" "ms" (col (fun r -> r.ver_ms));
        m "vo.bytes" "B" (col (fun r -> r.bytes)) ] )

  let counts win =
    let n f = List.length (List.filter f win.measured) in
    let retries =
      List.fold_left (fun a o -> a + max 0 (o.attempts - 1)) 0 win.measured
    in
    [ ("ops_sent", List.length win.measured);
      ("ops_ok", n (fun o -> o.outcome = Ok_answer));
      ("ops_failed", n (fun o -> o.outcome <> Ok_answer));
      ("wrong", n (fun o -> o.outcome = Wrong_answer));
      ("rejected", n (fun o -> o.outcome = Rejected));
      ("bad_request", n (fun o -> o.outcome = Bad_request));
      ("exhausted", n (fun o -> o.outcome = Exhausted));
      ("retries", retries);
      ("samples", List.length win.measured);
      ("warmup_samples", List.length win.all - List.length win.measured) ]

  (* Rejections, refusals and wrong answers make a run incorrect, whether
     or not they fell in the warm-up. *)
  let all_sound win =
    List.for_all
      (fun o -> o.outcome = Ok_answer || o.outcome = Exhausted)
      win.all

  (* Extra time of the service provider's query path (Ap2g.range_vo ->
     Vo.to_bytes, in this process) with Trace recording, against Trace
     off. The server child records spans in every run, so two served
     windows cannot show this. The boxes are a prefix of [boxes] worth
     about 0.25 s; blocks with tracing off and on alternate, after one
     warm-up block each, and the best of each side counts, so drift hits
     both alike. *)
  let trace_overhead_pct b boxes =
    let user = b.inp.Gen.user in
    let sp drbg box = Vo.to_bytes (fst (Ap2g.range_vo drbg ~mvk:b.mvk b.tree ~user box)) in
    let fresh () = Drbg.create ~seed:"svcbench:overhead" in
    let rec prefix drbg acc spent = function
      | box :: rest when spent < 0.25 ->
        let t0 = Clock.now_ns () in
        ignore (sp drbg box : string);
        prefix drbg (box :: acc) (spent +. Clock.elapsed_since t0) rest
      | _ -> List.rev acc
    in
    let boxes = prefix (fresh ()) [] 0.0 boxes in
    (* Every block draws the same randomness, so both sides do the same
       work. *)
    let block traced =
      let drbg = fresh () in
      if traced then Trace.enable () else Trace.disable ();
      let t0 = Clock.now_ns () in
      List.iter (fun box -> ignore (sp drbg box : string)) boxes;
      let el = Clock.elapsed_since t0 in
      Trace.disable ();
      el
    in
    ignore (block false);
    ignore (block true);
    let off = ref infinity and on = ref infinity in
    for _ = 1 to 7 do
      off := Float.min !off (block false);
      on := Float.min !on (block true)
    done;
    (!on -. !off) /. !off *. 100.0

  let run (w : Gen.workload) ~seed ~seconds ~trace ~trace_dir ~dir =
    let server_trace =
      if trace then begin
        mkdir_p trace_dir;
        Some (Filename.concat trace_dir (w.Gen.name ^ ".server.trace.json"))
      end
      else None
    in
    let b, child, ads, setup_s = setup w ~seed ~dir ~trace_out:server_trace in
    if not trace then begin
      let rss_mb =
        match Child.hwm_mb child with
        | Some mb -> mb
        | None -> failwith "server child exited before the window"
      in
      let win = serve_window b w ~seed ~child ~seconds ~keep:0 in
      ignore (Child.stop child : string list);
      let counts = counts win in
      {
        workload = w.Gen.name;
        correct = all_sound win;
        attempted = List.assoc "ops_sent" counts;
        failed = List.assoc "ops_failed" counts;
        metrics = e2e w ~setup_s ~rss_mb ~ads win;
        counts;
      }
    end
    else begin
      (* The server child keeps every span of the window; the bench records
         a span around each client call and each replayed layer call. *)
      Trace.enable ~capacity:Child.trace_capacity ();
      let win = serve_window b w ~seed ~child ~seconds ~keep:w.Gen.replay in
      let report = Child.stop child in
      let spans, dropped =
        match
          List.find_map
            (fun l -> Scanf.sscanf_opt l "spans %d dropped %d" (fun s d -> (s, d)))
            report
        with
        | Some sd -> sd
        | None -> failwith "server child did not report its trace"
      in
      let replayed, replay_same, replay_metrics = replay b win in
      Trace.disable ();
      let bench_spans = Trace.span_count () and bench_dropped = Trace.dropped () in
      Trace.write_chrome (Filename.concat trace_dir (w.Gen.name ^ ".bench.trace.json"));
      Printf.printf
        "%s: server trace %d spans (%d dropped), bench trace %d spans (%d \
         dropped), %d queries replayed%s\n"
        w.Gen.name spans dropped bench_spans bench_dropped replayed
        (if replay_same then "" else " (MISMATCH with served answers)");
      let load_s =
        Layers.per_call ~min_s:0.0 (fun () ->
            match Ads_io.load ~path:ads with Ok _ -> () | Error e -> failwith e)
      in
      let kept_boxes = List.filter_map (fun o -> Option.map (fun (box, _, _) -> box) o.kept) win.all in
      let m name unit value = { name; unit; value } in
      let metrics =
        served_layers w win @ replay_metrics
        @ List.map (fun (n, u, v) -> m n u v) (Layers.groups ())
        @ [ m "ap2g.build_s" "s" b.build_s;
            m "ads_io.save_s" "s" b.save_s;
            m "ads_io.load_s" "s" load_s;
            m "audit.record_ms" "ms"
              (Layers.audit_record_ms ~path:(Filename.concat dir "micro-audit.log"));
            m "trace_overhead_pct" "%" (trace_overhead_pct b kept_boxes) ]
      in
      let counts = counts win in
      {
        workload = w.Gen.name;
        correct = all_sound win && replay_same && dropped = 0 && bench_dropped = 0;
        attempted = List.assoc "ops_sent" counts;
        failed = List.assoc "ops_failed" counts;
        metrics;
        counts = counts @ [ ("server_spans", spans); ("replayed", replayed) ];
      }
    end
end

let run_workload (w : Gen.workload) ~seed ~seconds ~trace ~trace_dir =
  let dir = Filename.concat "_svcbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let module P =
        (val Zkqac_group.Backend.instantiate (Gen.backend_kind w.Gen.backend))
      in
      let module R = Make (P) in
      R.run w ~seed ~seconds ~trace ~trace_dir ~dir)

let metric_fields ?(prefix = "") ms =
  List.map
    (fun m ->
      ( prefix ^ m.name,
        Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit) ] ))
    ms

(* With several workloads, metric names get the workload as a prefix. *)
let result_line results =
  let single = match results with [ _ ] -> true | _ -> false in
  let fields =
    List.concat_map
      (fun r -> metric_fields ~prefix:(if single then "" else r.workload ^ ".") r.metrics)
      results
  in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all (fun r -> r.correct) results));
      ("attempted", Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 results));
      ("failed", Json.Int (List.fold_left (fun a r -> a + r.failed) 0 results));
      ("metrics", Json.Obj fields) ]

let runs_json ~seed ~seconds ~trace results =
  Json.Obj
    [ ("schema", Json.Str Compare.schema);
      ( "runs",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [ ("workload", Json.Str r.workload);
                   ("seed", Json.Int seed);
                   ("seconds", Json.Float seconds);
                   ("trace", Json.Int (if trace then 1 else 0));
                   ("correct", Json.Bool r.correct);
                   ("attempted", Json.Int r.attempted);
                   ("failed", Json.Int r.failed);
                   ("metrics", Json.Obj (metric_fields r.metrics));
                   ( "counts",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counts) ) ])
             results) ) ]

let main () =
  let names = ref [] and seed = ref 42 and seconds = ref 12.0 and trace = ref 0 in
  let trace_dir = ref (Filename.concat "_svcbench" "traces") and json = ref None in
  let spec =
    [ ("--workload", Arg.String (fun s -> names := s :: !names),
       "NAME  run one workload (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measured window per workload (default 12)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run instead of end-to-end");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR  Chrome traces of a --trace 1 run");
      ("--json", Arg.String (fun s -> json := Some s), "FILE  also write the runs file") ]
  in
  let usage = "service.exe [options] | service.exe compare BASE NEW" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let workloads =
    match List.rev !names with
    | [] -> Gen.workloads
    | ns ->
      List.map
        (fun n ->
          match Gen.find n with
          | Some w -> w
          | None ->
            prerr_endline ("service.exe: unknown workload " ^ n);
            exit 2)
        ns
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "service.exe: --trace 0|1"; exit 2);
  if !seconds <= 0.0 then (prerr_endline "service.exe: --seconds must be > 0"; exit 2);
  let trace = !trace = 1 in
  let results =
    List.map
      (fun w ->
        let r =
          run_workload w ~seed:!seed ~seconds:!seconds ~trace ~trace_dir:!trace_dir
        in
        List.iter
          (fun m -> Printf.printf "%-13s %-24s %12.4f %s\n" r.workload m.name m.value m.unit)
          r.metrics;
        Printf.printf "%-13s %s\n%!" r.workload
          (String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts));
        r)
      workloads
  in
  Option.iter
    (fun path -> Json.to_file path (runs_json ~seed:!seed ~seconds:!seconds ~trace results))
    !json;
  print_endline (Json.to_string (result_line results));
  exit (if List.for_all (fun r -> r.correct) results then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* [exit] runs the at_exit hook that kills any server child. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  match Array.to_list Sys.argv with
  | _ :: "serve-child" :: rest -> Child.serve rest
  | _ :: "compare" :: rest -> exit (Compare.main rest)
  | _ -> (
    try main () with
    | Failure e | Sys_error e ->
      prerr_endline ("service.exe: " ^ e);
      exit 3
    | e ->
      prerr_endline ("service.exe: " ^ Printexc.to_string e);
      exit 3)
