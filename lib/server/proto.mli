(** The query protocol between [zkqac client] and [zkqac serve].

    One exchange per connection: a single request frame (claimed roles +
    query box), a single typed response frame. Load shedding and deadline
    expiry are explicit response statuses — transient conditions a client
    retries with backoff — while [Bad_request] is terminal. The VO payload
    travels opaque; the client verifies it locally against its own copy of
    the public key, so a compromised server or network can only produce
    typed verification failures, never accepted forgeries.

    There is one envelope version. For end-to-end correlation every
    request carries a client-minted 64-bit request id, and every response
    opens with a {!footer} that echoes it with a server-side timing split.
    A frame under any other magic string decodes to [Malformed]. Request
    ids are correlation-only and never enter VO bytes. *)

module Box = Zkqac_core.Box

val max_request_bytes : int
(** Upper bound on an encoded request; bigger frames are refused before
    allocation. *)

(** {1 Request ids} *)

val mint_req_id : unit -> int64
(** A fresh non-zero correlation id (splitmix64 over a per-process random
    base + counter): unique within a run, collision-unlikely across
    processes. Ids carry no authority. *)

val req_id_hex : int64 -> string
(** Canonical textual form: exactly 16 lowercase hex digits — what audit
    entries, flight dumps, the slowlog and loadgen reports all print, so
    one grep joins them. *)

(** {1 Requests} *)

type request = {
  req_id : int64;
      (** the correlation id; [0L] means "no id", and the server mints one *)
  roles : string list;
  query : Box.t;
}

val encode_request : request -> string

val decode_request :
  ?limits:Zkqac_util.Wire.limits ->
  string ->
  (request, Zkqac_util.Verify_error.t) result

(** {1 Responses} *)

type response =
  | Vo of string  (** the encoded VO — the client verifies it locally *)
  | Overloaded  (** load-shed: the in-flight bound was hit; retry later *)
  | Deadline  (** the server's query deadline expired; retry later *)
  | Bad_request of string  (** the request failed to decode; never retried *)
  | Server_error of string  (** query execution failed on the server *)

val response_code : response -> string

(** Server-side time split, microseconds (clamped into u32): pool queue
    wait, the ABS.Relax batch, the rest of VO construction, VO byte
    encoding, and the whole server-side handling. *)
type timing = {
  queue_us : int;
  relax_us : int;
  prove_us : int;
  encode_us : int;
  total_us : int;
}

val zero_timing : timing

val us_of_ns : int64 -> int
(** Nanoseconds to clamped non-negative microseconds. *)

val timing_json : timing -> Zkqac_telemetry.Json.t

type footer = { f_req_id : int64; f_timing : timing }
(** What every response carries ahead of its status: the echoed request id
    ([0L] when the server never read a request, as for a shed connection)
    plus the timing split. *)

val encode_response : footer:footer -> response -> string

val decode_response :
  ?limits:Zkqac_util.Wire.limits ->
  string ->
  (response * footer, Zkqac_util.Verify_error.t) result
