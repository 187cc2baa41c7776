(** The verifying, retrying client behind [zkqac client].

    Transient faults — transport errors, garbled envelopes, typed
    [Overloaded]/[Deadline] statuses — are retried with full-jitter
    exponential backoff under a bounded budget. A typed verification
    rejection of a complete response is terminal: soundness failures are
    never retried. *)

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

val default_config : config

type failure =
  | Rejected of Zkqac_util.Verify_error.t
      (** typed verification rejection of a complete response — never
          retried *)
  | Bad_request of string  (** the server refused the request — never retried *)
  | Exhausted of { attempts : int; last : string }
      (** only transient faults occurred, but the retry budget ran out *)

val failure_to_string : failure -> string

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  type success = {
    records : Zkqac_core.Record.t list;
    vo_bytes : int;
    attempts : int;  (** total attempts, 1 = no retry was needed *)
    req_id : int64;  (** the correlation id this query travelled under *)
    server : Proto.timing option;
        (** the server's timing footer; always [Some], since every response
            carries one *)
    attempt_ms : float;
        (** wall time of the winning attempt: network + server. Subtracting
            the footer's [total_us] isolates the network share. *)
    verify_ms : float;  (** local decode+verify time *)
  }

  val query :
    ?prng:Zkqac_rng.Prng.t ->
    ?req_id:int64 ->
    config ->
    mvk:Zkqac_abs.Abs.Make(P).mvk ->
    universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Zkqac_core.Box.t ->
    unit ->
    (success, failure) result
  (** One authenticated query: send [query] claiming [user]'s roles, read
      the VO, verify it locally against [mvk] with
      {!Zkqac_core.System.Make.verify_vo}, which records the decision. The request carries [req_id]
      (minted here when absent or [0L]) across every retry; the responder
      must echo it in the footer — a different non-zero id is treated as a
      transient fault, while [0L] (a shed connection, answered before its
      request was read) keeps the response's own status. [prng] drives the backoff jitter only — never verification. *)
end
