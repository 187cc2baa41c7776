(* The service provider under test runs in a child process of the benchmark:
   a server sharing the load generator's process would share its domain 0
   with the client's verification, and a fresh process per workload keeps
   one workload's heap growth out of the next one's numbers.

   The child is this executable re-run as [serve-child]. It announces
   "ready PORT" on its stdout (a pipe to the parent) once it serves, drains
   on SIGTERM and, when asked to record a trace, writes it and reports
   "spans N dropped D" before exiting. *)

module Trace = Zkqac_telemetry.Trace
module Audit = Zkqac_audit.Audit
module Server = Zkqac_server.Server

type spec = {
  backend : Gen.backend;
  ads : string;
  audit : string option;  (** audit log, durability [Always] *)
  checkpoint_every : float;
  trace_out : string option;  (** Chrome trace written at drain *)
}

let trace_capacity = 1 lsl 21

let args s =
  [ "serve-child"; Gen.backend_name s.backend; s.ads;
    Printf.sprintf "%g" s.checkpoint_every;
    Option.value s.audit ~default:"-";
    Option.value s.trace_out ~default:"-" ]

let serve argv =
  let opt = function "-" -> None | s -> Some s in
  let backend, ads, checkpoint_every, audit, trace_out =
    match argv with
    | [ "mock"; ads; ck; audit; tr ] -> (Gen.Mock, ads, ck, opt audit, opt tr)
    | [ "typea-tiny"; ads; ck; audit; tr ] ->
      (Gen.Typea_tiny, ads, ck, opt audit, opt tr)
    | _ ->
      prerr_endline "serve-child: BACKEND ADS CHECKPOINT_EVERY AUDIT|- TRACE|-";
      exit 2
  in
  let module P = (val Zkqac_group.Backend.instantiate (Gen.backend_kind backend)) in
  let module S = Server.Make (P) in
  (match audit with
  | Some path -> (
    match Audit.enable ~durability:Audit.Always ~path () with
    | Ok () -> ()
    | Error e ->
      prerr_endline ("serve-child: " ^ e);
      exit 3)
  | None -> ());
  (* The server turns tracing on with the default span budget; a traced run
     raises the budget first so that no span of the window is dropped. *)
  if trace_out <> None then Trace.enable ~capacity:trace_capacity ();
  let cfg =
    {
      Server.default_config with
      Server.port = 0;
      checkpoint_every = float_of_string checkpoint_every;
      slow_inject = None;
    }
  in
  match S.start cfg ~ads with
  | Error e ->
    prerr_endline ("serve-child: " ^ e);
    exit 4
  | Ok t ->
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> S.begin_drain t));
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* A benchmark killed outright cannot stop its server: the server
       notices it was orphaned and drains itself. *)
    let parent = Unix.getppid () in
    ignore
      (Thread.create
         (fun () ->
           while Unix.getppid () = parent do
             Thread.delay 0.5
           done;
           S.begin_drain t)
         ());
    Printf.printf "ready %d\n%!" (S.port t);
    S.wait t;
    Audit.disable ();
    (match trace_out with
    | Some path ->
      Trace.disable ();
      Trace.write_chrome path;
      Printf.printf "spans %d dropped %d\n%!" (Trace.span_count ()) (Trace.dropped ())
    | None -> ());
    exit 0

(* --- the parent's handle --- *)

type t = { pid : int; port : int; out : in_channel }

let live : t list ref = ref []

let kill_all () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let forget c = live := List.filter (fun x -> x.pid <> c.pid) !live

(* Wait for [pid] up to [seconds], then SIGKILL it. *)
let reap pid seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_line_within ic seconds =
  let fd = Unix.descr_of_in_channel ic in
  match Unix.select [ fd ] [] [] seconds with
  | [], _, _ -> None
  | _ -> ( try Some (input_line ic) with End_of_file -> None)

let spawn spec =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args spec) in
  let pid =
    Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match read_line_within out 120.0 with
  | Some line when String.length line > 6 && String.sub line 0 6 = "ready " ->
    let c =
      { pid; port = int_of_string (String.sub line 6 (String.length line - 6)); out }
    in
    live := c :: !live;
    c
  | _ ->
    ignore (reap pid 1.0);
    close_in_noerr out;
    failwith "server child did not become ready"

(* Drain the child and return what it reported after the drain. *)
let stop c =
  forget c;
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec lines acc =
    match read_line_within c.out 30.0 with
    | Some l -> lines (l :: acc)
    | None -> List.rev acc
  in
  let report = lines [] in
  close_in_noerr c.out;
  let clean = reap c.pid 30.0 in
  if not clean then failwith "server child did not exit cleanly";
  report

(* Peak resident set of the child so far, MiB; [None] once it has exited. *)
let hwm_mb c =
  match open_in (Printf.sprintf "/proc/%d/status" c.pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> Some (float_of_int kb /. 1024.0)
        | None -> find ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) find
