(** Deadline-bounded socket I/O for the serving stack.

    Reads and writes carry an {e absolute} monotonic deadline rather than a
    per-syscall timeout: a slowloris peer that dribbles one byte per
    almost-timeout defeats SO_RCVTIMEO but not an absolute bound on the
    whole exchange. Every failure mode is a typed {!fault} — the serving
    layers never see a raw [Unix_error] from a hostile peer. *)

type fault =
  | Timeout  (** the deadline expired before the exchange completed *)
  | Closed  (** the peer closed or reset the connection mid-exchange *)
  | Refused  (** the connection attempt was refused *)
  | Too_large of { length : int; limit : int }
      (** a frame header announced more bytes than the reader allows *)
  | Io of string  (** any other OS-level failure *)

exception Fault of fault

val fault_code : fault -> string
(** Stable kebab-case tag for metrics labels and flight-recorder details. *)

val deadline_after : float -> int64
(** [deadline_after s] is the absolute monotonic deadline [s] seconds from
    now, to pass to the I/O calls below. *)

val remaining_s : int64 -> float
(** Seconds left until a deadline (negative once expired). *)

val connect : host:string -> port:int -> timeout:float -> Unix.file_descr
(** Open a TCP connection (non-blocking connect + select, so the timeout is
    honored even for black-hole addresses). Sets TCP_NODELAY.
    @raise Fault on refusal, timeout, or resolution failure. *)

val write_all : Unix.file_descr -> deadline:int64 -> string -> unit

val read_frame : Unix.file_descr -> deadline:int64 -> max_bytes:int -> string
(** Read one [u32-BE length ++ payload] frame. A length above [max_bytes]
    raises [Fault (Too_large _)] {e before} any allocation. *)

val write_frame : Unix.file_descr -> deadline:int64 -> string -> unit

val close_noerr : Unix.file_descr -> unit
