module Trace = Zkqac_telemetry.Trace

let available_cores () = Domain.recommended_domain_count ()

(* ZKQAC_DOMAINS overrides the worker-domain count machine-wide; an unset or
   blank variable falls through to the scheduler's recommendation. Nonsense
   values fail loudly rather than silently serializing a benchmark. *)
let size () =
  match Sys.getenv_opt "ZKQAC_DOMAINS" with
  | None -> available_cores ()
  | Some raw ->
    let s = String.trim raw in
    if s = "" then available_cores ()
    else begin
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= 1024 -> n
      | Some n ->
        invalid_arg
          (Printf.sprintf "ZKQAC_DOMAINS=%d out of range (want 1..1024)" n)
      | None ->
        invalid_arg (Printf.sprintf "ZKQAC_DOMAINS=%S is not an integer" raw)
    end

(* Registered once at library init: the configured fan-out is a property of
   the environment, so exporters always see the value a run would use. *)
let () =
  Zkqac_telemetry.Metrics.register_gauge ~name:"zkqac_worker_domains"
    ~help:"Worker domains a parallel fan-out would use (ZKQAC_DOMAINS or the scheduler's recommendation)."
    (fun () ->
      match size () with
      | n -> [ ([], float_of_int n) ]
      | exception Invalid_argument _ -> [])

exception Job_failed of exn

(* [map] spawns its domains per call instead of borrowing the persistent
   pool below. Both alternatives were measured on a 2-vCPU host under two
   busy-loop CPU hogs: one pool submit per job let a job run on a domain
   other than its slice's, which broke per-domain allocation attribution in
   2 of 8 test runs; static slices behind a start barrier held attribution
   but took fig13's 16-thread row from 1.4-1.6 s to 1.7-2.3 s, and moving
   the t=1 row off the caller's domain slowed it too. *)
let map_results ~threads jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let run j =
    match j () with
    | v -> Ok v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Zkqac_telemetry.Flight.record ~cat:"pool"
        ~detail:(Printexc.to_string e) "pool.job_failed";
      Error (e, bt)
  in
  if threads <= 1 || n <= 1 then Array.to_list (Array.map run jobs)
  else begin
    let threads = min threads n in
    Trace.with_span "pool.map"
      ~attrs:[ ("threads", Trace.Int threads); ("jobs", Trace.Int n) ]
    @@ fun ctx ->
    let results = Array.make n None in
    (* Static block partition: domain k takes the contiguous slice
       [k*n/threads, (k+1)*n/threads). A failing job is recorded in place and
       the slice keeps going: callers get every job's outcome. *)
    let worker k () =
      (* Let the runtime-events reader map this domain's ring slot to its
         id, so its GC pauses are attributed to the right worker. *)
      Zkqac_telemetry.Rte.announce ();
      (* Parent the worker's span on the caller's [pool.map] span so jobs
         running on this domain show up under the query that spawned them. *)
      Trace.with_span "pool.worker" ~parent:ctx
        ~attrs:[ ("worker", Trace.Int k) ]
      @@ fun _ ->
      let lo = k * n / threads and hi = (k + 1) * n / threads in
      for i = lo to hi - 1 do
        results.(i) <- Some (run jobs.(i))
      done
    in
    let domains = List.init threads (fun k -> Domain.spawn (worker k)) in
    List.iter Domain.join domains;
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           (* The slices tile [0, n), so every cell was written. *)
           | None -> assert false)
         results)
  end

let map ~threads jobs =
  let results = map_results ~threads jobs in
  (* Re-raise the lowest-index failure: deterministic regardless of how the
     domains were scheduled. *)
  let rec extract acc = function
    | [] -> List.rev acc
    | Ok v :: rest -> extract (v :: acc) rest
    | Error (e, bt) :: _ ->
      (* An uncaught worker exception is exactly the post-mortem the flight
         recorder exists for: dump before the failure propagates. *)
      Zkqac_telemetry.Flight.trip
        ~reason:("pool-job-failure:" ^ Printexc.to_string e);
      Printexc.raise_with_backtrace (Job_failed e) bt
  in
  extract [] results

let time f =
  let t0 = Monotonic_clock.now_ns () in
  let v = f () in
  (v, Monotonic_clock.elapsed_since t0)

(* --- persistent pool ---

   [map] spawns fresh domains per call, which is fine for a one-shot CLI but
   not for a long-lived server answering queries for hours: domain spawn is
   microseconds of setup plus fresh DLS state per call. The persistent pool
   keeps [threads] worker domains alive, feeding them through a bounded-by-
   caller queue; a job whose thunk raises has its failure delivered to the
   waiting future AND retires the worker domain that ran it — a raised
   exception may have left domain-local state (DLS caches, allocation
   buffers) mid-update, so the conservative recovery is a fresh domain. Every
   retirement is counted in [zkqac_pool_respawns_total]. *)

let respawns_family =
  Zkqac_telemetry.Metrics.counter ~name:"zkqac_pool_respawns_total"
    ~help:"Persistent-pool worker domains retired after a job exception and replaced with a fresh domain."

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

type 'a fstate = Pending | Done of 'a outcome

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a fstate;
}

let fulfill fut r =
  Mutex.lock fut.fm;
  fut.state <- Done r;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Done r -> r
    | Pending ->
      Condition.wait fut.fc fut.fm;
      wait ()
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  r

let peek fut =
  Mutex.lock fut.fm;
  let st = fut.state in
  Mutex.unlock fut.fm;
  match st with Done r -> Some r | Pending -> None

type pool = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> bool) Queue.t; (* a task returns false iff its job raised *)
  threads : int;
  mutable workers : unit Domain.t list; (* every domain ever spawned, joined at shutdown *)
  mutable shutting_down : bool;
  mutable respawned : int;
}

let rec worker_loop p =
  Mutex.lock p.lock;
  let rec next () =
    if not (Queue.is_empty p.queue) then Some (Queue.pop p.queue)
    else if p.shutting_down then None
    else begin
      Condition.wait p.nonempty p.lock;
      next ()
    end
  in
  let task = next () in
  Mutex.unlock p.lock;
  match task with
  | None -> ()
  | Some task ->
    if task () then worker_loop p
    else begin
      (* The job raised: its future already holds the failure; retire this
         domain and hand its slot to a fresh one so a crash storm cannot
         bleed the pool dry. During shutdown a replacement is only spawned
         if work is still queued (shutdown runs any leftovers inline). *)
      Mutex.lock p.lock;
      p.respawned <- p.respawned + 1;
      Zkqac_telemetry.Metrics.inc respawns_family [];
      Zkqac_telemetry.Flight.record ~cat:"pool" ~v:p.respawned
        "pool.worker_respawned";
      if (not p.shutting_down) || not (Queue.is_empty p.queue) then
        p.workers <- Domain.spawn (spawn_worker p) :: p.workers;
      Mutex.unlock p.lock
    end

and spawn_worker p () =
  Zkqac_telemetry.Rte.announce ();
  worker_loop p

let create ?threads () =
  let threads = match threads with Some n -> n | None -> size () in
  if threads < 1 then invalid_arg "Pool.create: threads < 1";
  let p =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      threads;
      workers = [];
      shutting_down = false;
      respawned = 0;
    }
  in
  p.workers <- List.init threads (fun _ -> Domain.spawn (spawn_worker p));
  p

let respawns p = p.respawned

let submit ?ctx ?req_id ?(attrs = []) p f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  (* With a caller context, the job runs under a [pool.worker] span parented
     on it — the same shape [map] produces — so per-request spans
     recorded inside the job (sp.query, sp.relax, ...) attach to the
     submitting request's trace even though they run on a worker domain. *)
  let f =
    match ctx with
    | None -> f
    | Some parent ->
      fun () -> Trace.with_span "pool.worker" ~parent ?req_id ~attrs (fun _ -> f ())
  in
  let task () =
    match f () with
    | v ->
      fulfill fut (Ok v);
      true
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Zkqac_telemetry.Flight.record ~cat:"pool" ~detail:(Printexc.to_string e)
        "pool.job_failed";
      fulfill fut (Error (e, bt));
      false
  in
  Mutex.lock p.lock;
  if p.shutting_down then begin
    Mutex.unlock p.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task p.queue;
  Condition.signal p.nonempty;
  Mutex.unlock p.lock;
  fut

let run p f = await (submit p f)

let shutdown p =
  Mutex.lock p.lock;
  if p.shutting_down then Mutex.unlock p.lock
  else begin
    p.shutting_down <- true;
    Condition.broadcast p.nonempty;
    (* Workers retiring mid-shutdown may still add replacements, so drain
       the handle list until it stays empty. *)
    let rec drain () =
      match p.workers with
      | [] -> ()
      | ds ->
        p.workers <- [];
        Mutex.unlock p.lock;
        List.iter Domain.join ds;
        Mutex.lock p.lock;
        drain ()
    in
    drain ();
    (* If the last workers retired with work still queued, run the leftovers
       inline: every submitted future must be fulfilled. *)
    let leftovers = Queue.fold (fun acc t -> t :: acc) [] p.queue in
    Queue.clear p.queue;
    Mutex.unlock p.lock;
    List.iter (fun t -> ignore (t () : bool)) (List.rev leftovers)
  end
