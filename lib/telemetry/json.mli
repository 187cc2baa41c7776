(** A minimal JSON tree, printer and parser.

    Just enough to emit machine-readable benchmark results, telemetry
    snapshots and trace files — and to read them back — without an external
    dependency. Printing is deterministic (object fields keep their
    construction order) and always produces valid JSON: strings are escaped
    per RFC 8259 and non-finite floats are emitted as [null]. Finite floats
    print in the shortest decimal form that parses back to the identical
    bits ([%.15g], falling back to [%.17g]), so
    [of_string (to_string j) = Ok j] holds for any tree without NaN or
    infinities. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

val to_file : string -> t -> unit
(** Write the value to [path] with a trailing newline. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; anything after it
    is an error). Number literals without [.], [e] or [E] become {!Int}
    (degrading to {!Float} beyond the native int range), everything else
    {!Float}. String escapes are decoded, [\uXXXX] (including surrogate
    pairs) to UTF-8. Errors report the byte offset. *)
