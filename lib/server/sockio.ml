(* Deadline-bounded socket I/O.

   Every read and write the serving stack performs carries an *absolute*
   monotonic deadline, not a per-syscall timeout: SO_RCVTIMEO alone would let
   a slowloris peer dribble one byte per almost-timeout forever, while an
   absolute deadline bounds the whole exchange. Before each syscall the
   remaining budget is recomputed and installed as the socket timeout, so a
   stalled peer costs at most the budget and a dribbling peer no more. *)

module Clock = Zkqac_parallel.Monotonic_clock

type fault =
  | Timeout  (** the deadline expired before the exchange completed *)
  | Closed  (** the peer closed or reset the connection mid-exchange *)
  | Refused  (** the connection attempt was refused *)
  | Too_large of { length : int; limit : int }
      (** a frame header announced more bytes than the reader allows *)
  | Io of string  (** any other OS-level failure *)

exception Fault of fault

let fault_code = function
  | Timeout -> "timeout"
  | Closed -> "closed"
  | Refused -> "refused"
  | Too_large _ -> "too-large"
  | Io _ -> "io"

let deadline_after seconds =
  Int64.add (Clock.now_ns ()) (Int64.of_float (seconds *. 1e9))

let remaining_s deadline =
  Int64.to_float (Int64.sub deadline (Clock.now_ns ())) /. 1e9

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A write to a peer-closed socket must surface as the typed Closed fault
   (EPIPE), not kill the process: Linux offers no per-fd opt-out that the
   OCaml Unix module exposes, so linking this module neutralizes SIGPIPE
   process-wide. *)
let () =
  match Sys.os_type with
  | "Unix" -> (
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    with Invalid_argument _ | Sys_error _ -> ())
  | _ -> ()

(* Clamp the per-syscall timeout away from 0: SO_RCVTIMEO = 0 means "block
   forever", the opposite of an expired deadline. *)
let arm fd opt deadline =
  let rem = remaining_s deadline in
  if rem <= 0.0 then raise (Fault Timeout);
  (try Unix.setsockopt_float fd opt (Float.max rem 0.005)
   with Unix.Unix_error _ -> ())

let classify = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> Fault Timeout
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ESHUTDOWN -> Fault Closed
  | Unix.ECONNREFUSED -> Fault Refused
  | e -> Fault (Io (Unix.error_message e))

let read_exact fd ~deadline n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Bytes.unsafe_to_string buf
    else begin
      arm fd Unix.SO_RCVTIMEO deadline;
      match Unix.read fd buf off (n - off) with
      | 0 -> raise (Fault Closed)
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> raise (classify e)
    end
  in
  go 0

let write_all fd ~deadline s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      arm fd Unix.SO_SNDTIMEO deadline;
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> raise (classify e)
    end
  in
  go 0

(* Frames are u32-BE length + payload. The length is checked against the
   caller's bound before any allocation — the network face of the Wire
   reader's max_bytes discipline. *)

let frame_header n =
  let b = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set b i (Char.chr ((n lsr (8 * (3 - i))) land 0xff))
  done;
  Bytes.unsafe_to_string b

let write_frame fd ~deadline payload =
  write_all fd ~deadline (frame_header (String.length payload) ^ payload)

let read_frame fd ~deadline ~max_bytes =
  let hdr = read_exact fd ~deadline 4 in
  let n = ref 0 in
  String.iter (fun c -> n := (!n lsl 8) lor Char.code c) hdr;
  if !n > max_bytes then raise (Fault (Too_large { length = !n; limit = max_bytes }));
  read_exact fd ~deadline !n

let connect ~host ~port ~timeout =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ -> (
      try Unix.inet_addr_of_string host
      with Failure _ -> raise (Fault (Io ("cannot resolve " ^ host))))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    (try Unix.connect fd (Unix.ADDR_INET (addr, port))
     with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
    (* Wait for writability, then read the real outcome from SO_ERROR. *)
    (match Unix.select [] [ fd ] [] timeout with
    | _, [], _ -> raise (Fault Timeout)
    | _ -> ());
    (match Unix.getsockopt_error fd with
    | None -> ()
    | Some e -> raise (classify e));
    Unix.clear_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  with
  | () -> fd
  | exception e ->
    close_noerr fd;
    (match e with
    | Unix.Unix_error (ue, _, _) -> raise (classify ue)
    | e -> raise e)
