(** Append-only, hash-chained audit log with explicit group-commit
    durability.

    Every [System.verify_vo] decision (and every attack-harness cell)
    can be recorded as one line of an audit log whose integrity is
    verifiable offline — the paper's tamper-evidence mindset applied to our
    own operational record.

    {2 Chain format}

    Line 0 is the header ["# zkqac-audit/1"]. Every subsequent line is

    {v <hash-hex> <json> v}

    where [<json>] is [{"seq": n, "time": unix_seconds, "kind": k,
    "dur": mode, "body": ...}] and [<hash-hex>] is
    [sha256_hex (prev_hash_hex ^ "\n" ^ <json>)]; the previous hash of
    entry 0 is [sha256_hex (header_line)]. Hashes cover the exact bytes on
    disk (not a re-serialization), so verification has no canonicalization
    step: flip any byte of any line — hash, payload, or separator — and
    {!verify_file} reports the first entry whose link no longer checks.

    {2 Durability}

    Appends are flushed line-by-line; fsync policy is the sink's
    {!durability} mode, recorded in each entry's ["dur"] field. A crash can
    leave at most one torn (newline-less) line at the tail — {!recover}
    truncates exactly that line and nothing else. *)

module Json = Zkqac_telemetry.Json

type entry = {
  seq : int;
  time : float;  (** Unix wall-clock seconds at record time *)
  kind : string;  (** e.g. "verify", "attack", "attack-summary" *)
  body : Json.t;
  hash : string;  (** this entry's chain hash, 64 hex chars *)
  dur : string;  (** durability mode the writer recorded ("" in old logs) *)
}

type broken = {
  entry : int;
      (** 0-based index of the first entry that fails; a corrupted header
          reports entry 0 *)
  reason : string;
}

type durability =
  | Always  (** fsync after every append *)
  | Interval of float
      (** fsync at most every [dt] seconds: a power cut drops at most the
          last interval of acknowledged entries *)
  | Never  (** flush only; the page cache decides *)

val durability_to_string : durability -> string

val durability_of_string : string -> (durability, string) result
(** Parses ["always"], ["never"], ["interval"] (default 0.05 s) or
    ["interval:SECONDS"]. *)

val magic : string
(** The header line content. *)

(** {1 Global sink} *)

val enable : ?durability:durability -> path:string -> unit -> (unit, string) result
(** Open (or create) an audit log at [path] and route {!record} to it. If
    the file exists, its chain is re-verified first and appending resumes
    from the tail hash; a corrupted existing log is refused (run {!recover}
    first after a crash). A freshly created log is fsynced — file and
    directory — before any entry is acknowledged. [durability] defaults to
    {!Always}. A log that cannot be opened or read (a directory, say) is
    an [Error] naming its path. *)

val disable : unit -> unit
(** Flush, fsync (unless [Never]) and close the sink. Idempotent. *)

val enabled : unit -> bool
val path : unit -> string option

val durability : unit -> durability option
(** The active sink's durability mode, if enabled. *)

val record : ?time:float -> kind:string -> Json.t -> unit
(** Append one entry (no-op when no sink is enabled). [time] defaults to
    [Unix.gettimeofday ()]; tests pin it for determinism. Entries are
    flushed line-by-line and fsynced per the sink's durability mode, so a
    crash loses at most the entry being written (plus, under [Interval],
    the last unsynced interval). *)

(** {1 Offline verification} *)

val verify_file : string -> (entry list, broken) result
(** Walk the whole file, re-deriving every chain hash from the bytes on
    disk, and return the entries oldest-first — or the first broken
    link. @raise Sys_error naming the path if the file cannot be read (a
    directory, say): an unreadable log is not a broken chain. *)

(** {1 Crash recovery} *)

type repair = { kept : int; dropped : string option }

val recover : path:string -> (repair, broken) result
(** Repair the one artifact a crash can legitimately leave: a torn final
    line (no trailing newline) is truncated — atomically, via durable
    replace — and returned in [dropped]; a valid final line that merely
    lost its newline gets it appended; a missing or torn header on an
    otherwise empty log resets the file. Damage anywhere before the final
    line refuses to repair and reports the broken entry, exactly like
    {!verify_file}. A missing file is [Ok { kept = 0; dropped = None }].
    Outcomes feed [zkqac_recoveries_total{outcome}] as [audit-clean] /
    [audit-truncated]. @raise Sys_error as {!verify_file} does: an
    unreadable log is never taken for an empty one. *)

val pp_time : float -> string
(** ["YYYY-MM-DDTHH:MM:SSZ"] (UTC), for [zkqac audit show]. *)
