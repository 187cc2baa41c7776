(* The verifying client behind `zkqac client`.

   Completeness survives transient failures; soundness never does. The two
   halves of that sentence are the whole design:

   - transport faults (refused, timeout, reset, short read, a garbled
     protocol envelope) and typed transient server statuses (Overloaded,
     Deadline) are retried with full-jitter exponential backoff under a
     bounded retry budget — a flaky network costs attempts, not answers;
   - a typed verification rejection of a complete, decoded response is
     TERMINAL. A VO that fails ABS verification, a completeness gap, a
     digest mismatch — retrying those could only help an adversary probe
     for an accepting run, so the rejection is surfaced immediately. *)

module Wire = Zkqac_util.Wire
module VE = Zkqac_util.Verify_error
module Attr = Zkqac_policy.Attr
module Prng = Zkqac_rng.Prng
module Monotonic_clock = Zkqac_parallel.Monotonic_clock
module Flight = Zkqac_telemetry.Flight
module Metrics = Zkqac_telemetry.Metrics
module Record = Zkqac_core.Record

let m_attempts =
  Metrics.counter ~name:"zkqac_client_attempts_total"
    ~help:"Query attempts made by the retrying client, by final-attempt flag."

let m_retries =
  Metrics.counter ~name:"zkqac_client_retries_total"
    ~help:"Retries performed by the client, by the transient fault that caused them."

type config = {
  host : string;
  port : int;
  connect_timeout : float;
  read_deadline : float;  (** budget for reading the whole response frame *)
  write_deadline : float;
  retries : int;  (** retry budget: attempts beyond the first *)
  base_backoff : float;  (** first backoff cap, seconds *)
  max_backoff : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7499;
    connect_timeout = 2.0;
    read_deadline = 10.0;
    write_deadline = 5.0;
    retries = 4;
    base_backoff = 0.05;
    max_backoff = 2.0;
  }

type failure =
  | Rejected of VE.t
      (** typed verification rejection of a complete response — never
          retried *)
  | Bad_request of string  (** the server refused the request — never retried *)
  | Exhausted of { attempts : int; last : string }
      (** only transient faults occurred, but the retry budget ran out *)

let failure_to_string = function
  | Rejected e -> Printf.sprintf "verification FAILED [%s]: %s" (VE.code e) (VE.to_string e)
  | Bad_request d -> "server refused the request: " ^ d
  | Exhausted { attempts; last } ->
    Printf.sprintf "no complete response after %d attempt(s); last fault: %s"
      attempts last

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module System = Zkqac_core.System.Make (P)

  type success = {
    records : Record.t list;
    vo_bytes : int;
    attempts : int;  (** total attempts, 1 = no retry was needed *)
    req_id : int64;  (** the correlation id this query travelled under *)
    server : Proto.timing option;  (** the server's timing footer; always [Some] *)
    attempt_ms : float;  (** wall time of the winning attempt (network+server) *)
    verify_ms : float;  (** local decode+verify time *)
  }

  (* One attempt: connect, send the request, read and decode one response
     frame. [`Transient] faults feed the retry loop; everything else is a
     final outcome. [rid] is the id the request carries: a footer that
     echoes a different non-zero id is a confused or broken responder, and
     the attempt is retried like any transport fault. A zero id is a reply
     sent before the request was read (a shed connection), so its typed
     status stands. *)
  let attempt cfg ~rid request =
    let a0 = Monotonic_clock.now_ns () in
    match
      Sockio.connect ~host:cfg.host ~port:cfg.port ~timeout:cfg.connect_timeout
    with
    | exception Sockio.Fault f -> `Transient ("connect-" ^ Sockio.fault_code f)
    | fd ->
      Fun.protect
        ~finally:(fun () -> Sockio.close_noerr fd)
        (fun () ->
          match
            let wdl = Sockio.deadline_after cfg.write_deadline in
            Sockio.write_frame fd ~deadline:wdl request;
            let rdl = Sockio.deadline_after cfg.read_deadline in
            Sockio.read_frame fd ~deadline:rdl
              ~max_bytes:Wire.default_limits.Wire.max_bytes
          with
          | exception Sockio.Fault f -> `Transient (Sockio.fault_code f)
          | frame -> (
            match Proto.decode_response ~limits:Wire.default_limits frame with
            | Error _ ->
              (* A complete frame that is not even a protocol envelope is
                 line noise or a mid-frame cut dressed as one; retrying is
                 sound because acceptance still requires full VO
                 verification. *)
              `Transient "garbled-response"
            | Ok (_, { Proto.f_req_id; _ })
              when f_req_id <> 0L && f_req_id <> rid ->
              `Transient "req-id-mismatch"
            | Ok (resp, footer) -> (
              match resp with
              | Proto.Vo vo ->
                let ms = Monotonic_clock.elapsed_since a0 *. 1000.0 in
                `Vo (vo, footer.Proto.f_timing, ms)
              | Proto.Overloaded -> `Transient "overloaded"
              | Proto.Deadline -> `Transient "server-deadline"
              | Proto.Bad_request d -> `Bad_request d
              | Proto.Server_error _ -> `Transient "server-error")))

  let query ?(prng = Prng.create 1) ?req_id cfg ~mvk ~universe ?hierarchy ~user
      ~query:box () =
    (* The client mints the correlation id unless the caller (loadgen, a
       test) supplies one; the same id rides every retry of this query, so
       all its attempts join server-side under one grep. *)
    let rid =
      match req_id with
      | Some id when id <> 0L -> id
      | Some _ | None -> Proto.mint_req_id ()
    in
    let request =
      Proto.encode_request
        { Proto.req_id = rid; roles = Attr.Set.elements user; query = box }
    in
    let max_attempts = 1 + max 0 cfg.retries in
    let rec go k last =
      if k >= max_attempts then Error (Exhausted { attempts = k; last })
      else begin
        if k > 0 then begin
          (* Full jitter: uniform in [0, min(max, base·2^(k-1))]. Decorrelates
             a thundering herd of retrying clients after a shed burst. *)
          let cap =
            Float.min cfg.max_backoff
              (cfg.base_backoff *. Float.pow 2.0 (float_of_int (k - 1)))
          in
          Metrics.inc m_retries [ ("reason", last) ];
          Flight.record ~cat:"client" ~req_id:rid ~detail:last ~v:k
            "client.retry";
          Unix.sleepf (Prng.float prng cap)
        end;
        Metrics.inc m_attempts [];
        match attempt cfg ~rid request with
        | `Transient fault -> go (k + 1) fault
        | `Bad_request d -> Error (Bad_request d)
        | `Vo (vo_payload, timing, attempt_ms) -> (
          let v0 = Monotonic_clock.now_ns () in
          match
            System.verify_vo ~mvk ~universe ?hierarchy ~roles:user ~query:box
              vo_payload
          with
          | Ok (records, _) ->
            Ok
              {
                records;
                vo_bytes = String.length vo_payload;
                attempts = k + 1;
                req_id = rid;
                server = Some timing;
                attempt_ms;
                verify_ms = Monotonic_clock.elapsed_since v0 *. 1000.0;
              }
          | Error e ->
            (* Soundness: a typed rejection is terminal, whatever the retry
               budget has left. *)
            Flight.record ~cat:"client" ~req_id:rid ~detail:(VE.code e)
              "client.rejected";
            Error (Rejected e))
      end
    in
    go 0 "none"
end
