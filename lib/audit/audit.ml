(* Append-only hash-chained audit log.

   The chain hashes the exact bytes written to disk: each entry line is
   "<hash-hex> <json>" and hash = SHA-256(prev_hash_hex ^ "\n" ^ json).
   Verification therefore needs no JSON canonicalization — it re-hashes the
   payload substring as stored, so any single byte flip (in a hash, a
   payload, a space, a newline) breaks exactly one link and is reported as
   the first broken entry.

   Durability is group-commit: every entry is flushed to the OS, but fsync
   policy is explicit — [Always] (fsync each append), [Interval dt] (fsync
   at most every [dt] seconds, bounding how much acknowledged history a
   power cut can drop), or [Never] (flush only). The mode is recorded in
   each entry so an auditor can see what durability the writer promised. *)

module Sha256 = Zkqac_hashing.Sha256
module Json = Zkqac_telemetry.Json
module Flight = Zkqac_telemetry.Flight
module Metrics = Zkqac_telemetry.Metrics
module Durable = Zkqac_durable.Durable
module Crashpoint = Zkqac_durable.Crashpoint
module Clock = Zkqac_telemetry.Monotonic_clock

type entry = {
  seq : int;
  time : float;
  kind : string;
  body : Json.t;
  hash : string;
  dur : string;
}

type broken = { entry : int; reason : string }

type durability = Always | Interval of float | Never

let durability_to_string = function
  | Always -> "always"
  | Interval _ -> "interval"
  | Never -> "never"

let default_interval = 0.05

let durability_of_string s =
  match s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval default_interval)
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.equal (String.sub s 0 i) "interval" -> (
      match float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some dt when dt > 0.0 -> Ok (Interval dt)
      | _ -> Error (Printf.sprintf "bad fsync interval in %S" s))
    | _ ->
      Error
        (Printf.sprintf "unknown durability %S (expected always|interval[:SECONDS]|never)" s))

let magic = "# zkqac-audit/1"
let genesis = Sha256.hex magic

let payload_string ~seq ~time ~kind ~dur body =
  Json.to_string
    (Json.Obj
       [ ("seq", Json.Int seq);
         ("time", Json.Float time);
         ("kind", Json.Str kind);
         ("dur", Json.Str dur);
         ("body", body) ])

let link ~prev payload = Sha256.hex (prev ^ "\n" ^ payload)

(* --- parsing one stored line --- *)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let parse_line ~index line =
  let fail reason = Error { entry = index; reason } in
  if String.length line < 66 then fail "line too short for a chain entry"
  else
    let hash = String.sub line 0 64 in
    if not (String.for_all is_hex hash) then fail "chain hash is not lowercase hex"
    else if line.[64] <> ' ' then fail "missing separator after chain hash"
    else
      let payload = String.sub line 65 (String.length line - 65) in
      match Json.of_string payload with
      | Error e -> fail ("entry payload is not valid JSON: " ^ e)
      | Ok (Json.Obj fields) -> (
          let find k = List.assoc_opt k fields in
          match (find "seq", find "time", find "kind", find "body") with
          | Some (Json.Int seq), Some t, Some (Json.Str kind), Some body ->
              let time =
                match t with Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan
              in
              let dur = match find "dur" with Some (Json.Str d) -> d | _ -> "" in
              if Float.is_nan time then fail "entry time is not a number"
              else Ok ({ seq; time; kind; body; hash; dur }, payload)
          | _ -> fail "entry payload is missing seq/time/kind/body")
      | Ok _ -> fail "entry payload is not a JSON object"

(* --- offline verification --- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let verify_file path =
  match read_lines path with
  | [] -> Error { entry = 0; reason = "empty file: missing header line" }
  | header :: rest ->
      if header <> magic then
        Error { entry = 0; reason = Printf.sprintf "bad header (expected %S)" magic }
      else
        let rec go index prev acc = function
          | [] -> Ok (List.rev acc)
          | line :: tl -> (
              match parse_line ~index line with
              | Error e -> Error e
              | Ok (e, payload) ->
                  if e.hash <> link ~prev payload then
                    Error
                      {
                        entry = index;
                        reason = "chain hash mismatch: entry or its predecessor was altered";
                      }
                  else if e.seq <> index then
                    Error
                      {
                        entry = index;
                        reason =
                          Printf.sprintf "sequence gap: entry claims seq %d at position %d"
                            e.seq index;
                      }
                  else go (index + 1) e.hash (e :: acc) tl)
        in
        go 0 genesis [] rest

(* --- crash recovery --- *)

type repair = { kept : int; dropped : string option }

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_prefix_of whole s =
  String.length s <= String.length whole
  && String.equal s (String.sub whole 0 (String.length s))

(* Truncate a torn FINAL line — and only the final line. A line our writer
   produced is committed in one write ending in '\n', so a crash can leave
   at most one newline-less prefix at the tail; anything broken earlier (or
   a complete-but-invalid last line) is damage, not a crash artifact, and
   hard-fails exactly like [verify_file]. A valid final line that merely
   lost its '\n' gets the newline appended so the next append cannot fuse
   two lines. *)
let recover ~path =
  if not (Sys.file_exists path) then Ok { kept = 0; dropped = None }
  else begin
    let raw = try read_raw path with Sys_error _ | End_of_file -> "" in
    let finish repair =
      Metrics.recovery (if repair.dropped = None then "audit-clean" else "audit-truncated");
      (match repair.dropped with
      | Some line ->
        Flight.record ~cat:"recover"
          ~detail:
            (Printf.sprintf "%s: dropped %d-byte torn tail line" path (String.length line))
          "audit.truncated"
      | None -> ());
      Ok repair
    in
    let nl_terminated = String.length raw > 0 && raw.[String.length raw - 1] = '\n' in
    let lines = String.split_on_char '\n' raw in
    let lines = if nl_terminated then List.filteri (fun i _ -> i < List.length lines - 1) lines else lines in
    match lines with
    | [] | [ "" ] ->
      (* Crash between creation and the header reaching the disk: nothing
         was ever durable, so a fresh start is the honest state. *)
      (try Sys.remove path with Sys_error _ -> ());
      finish { kept = 0; dropped = None }
    | header :: entries when String.equal header magic -> (
      let n = List.length entries in
      let rec walk index prev kept = function
        | [] -> `Intact (List.rev kept)
        | line :: tl -> (
          match parse_line ~index line with
          | Ok (e, payload) when String.equal e.hash (link ~prev payload) && e.seq = index
            ->
            walk (index + 1) e.hash (line :: kept) tl
          | Ok (_, _) | Error _ ->
            if index = n - 1 && not nl_terminated then `Torn_tail (List.rev kept, line)
            else
              `Damaged
                {
                  entry = index;
                  reason = "chain broken before the final line: refusing to repair";
                })
      in
      match walk 0 genesis [] entries with
      | `Intact kept_lines ->
        if nl_terminated then finish { kept = List.length kept_lines; dropped = None }
        else begin
          (* Complete, valid tail that lost only its newline. *)
          (try
             let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
             Fun.protect
               ~finally:(fun () -> close_out_noerr oc)
               (fun () ->
                 output_char oc '\n';
                 flush oc;
                 try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ())
           with Sys_error _ -> ());
          finish { kept = List.length kept_lines; dropped = None }
        end
      | `Torn_tail (kept_lines, torn) -> (
        let contents = String.concat "\n" (magic :: kept_lines) ^ "\n" in
        match Durable.replace ~path contents with
        | Ok () -> finish { kept = List.length kept_lines; dropped = Some torn }
        | Error e ->
          Error { entry = n - 1; reason = "cannot rewrite log: " ^ Durable.error_to_string e })
      | `Damaged b -> Error b)
    | torn_header :: [] when (not nl_terminated) && is_prefix_of magic torn_header ->
      (* Torn header write: the log never durably existed. *)
      (try Sys.remove path with Sys_error _ -> ());
      finish { kept = 0; dropped = None }
    | _ -> Error { entry = 0; reason = Printf.sprintf "bad header (expected %S)" magic }
  end

(* --- global sink --- *)

type sink = {
  oc : out_channel;
  spath : string;
  dur : durability;
  mutable prev : string;
  mutable next_seq : int;
  mutable last_fsync : int64; (* [Clock.now_ns] of the last fsync *)
}

let sink_lock = Mutex.create ()
let sink : sink option ref = ref None

let m_fsync =
  Metrics.counter ~name:"zkqac_audit_fsync_seconds_total"
    ~help:"Wall-clock seconds spent fsyncing the audit log (group commit)."

let fsync_oc oc =
  let t0 = Clock.now_ns () in
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  Metrics.finc m_fsync ~by:(Clock.elapsed_since t0) []

let disable () =
  Mutex.lock sink_lock;
  (match !sink with
  | Some s ->
      (try
         flush s.oc;
         if s.dur <> Never then fsync_oc s.oc;
         close_out s.oc
       with Sys_error _ -> ());
      sink := None
  | None -> ());
  Mutex.unlock sink_lock

let enable ?(durability = Always) ~path () =
  disable ();
  let resume =
    if Sys.file_exists path then
      match verify_file path with
      | Ok entries ->
          let prev = match List.rev entries with e :: _ -> e.hash | [] -> genesis in
          Ok (prev, List.length entries)
      | Error b ->
          Error
            (Printf.sprintf "refusing to append to corrupted audit log %s (entry %d: %s)"
               path b.entry b.reason)
    else Ok (genesis, -1)
  in
  match resume with
  | Error _ as e -> e
  | Ok (prev, n) -> (
      try
        let fresh = n < 0 in
        let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
        if fresh then begin
          output_string oc (magic ^ "\n");
          flush oc;
          (* A log that exists only in the page cache can vanish in the same
             crash its entries are meant to explain: make the header — and,
             via the directory fsync, the file itself — durable before the
             first entry is acknowledged. *)
          if durability <> Never then begin
            fsync_oc oc;
            match Durable.fsync_dir (Filename.dirname path) with
            | Ok () -> ()
            | Error e ->
              Flight.record ~cat:"recover" ~detail:(Durable.error_to_string e)
                "audit.dir-fsync-failed"
          end
        end;
        Mutex.lock sink_lock;
        sink :=
          Some
            {
              oc;
              spath = path;
              dur = durability;
              prev;
              next_seq = max n 0;
              last_fsync = Clock.now_ns ();
            };
        Mutex.unlock sink_lock;
        Ok ()
      with Sys_error e -> Error ("cannot open audit log: " ^ e))

let enabled () =
  Mutex.lock sink_lock;
  let r = !sink <> None in
  Mutex.unlock sink_lock;
  r

let path () =
  Mutex.lock sink_lock;
  let r = match !sink with Some s -> Some s.spath | None -> None in
  Mutex.unlock sink_lock;
  r

let durability () =
  Mutex.lock sink_lock;
  let r = match !sink with Some s -> Some s.dur | None -> None in
  Mutex.unlock sink_lock;
  r

let record ?time ~kind body =
  Mutex.lock sink_lock;
  (match !sink with
  | None -> ()
  | Some s ->
      let time = match time with Some t -> t | None -> Unix.gettimeofday () in
      let payload =
        payload_string ~seq:s.next_seq ~time ~kind ~dur:(durability_to_string s.dur) body
      in
      let h = link ~prev:s.prev payload in
      let line = h ^ " " ^ payload ^ "\n" in
      (try
         (* Crash-harness hook: leave exactly half a line on disk, the torn
            state [recover] must truncate. *)
         if Crashpoint.armed "audit-torn" then begin
           output_string s.oc (String.sub line 0 (String.length line / 2));
           flush s.oc;
           Crashpoint.kill_now ()
         end;
         output_string s.oc line;
         flush s.oc;
         (match s.dur with
         | Always -> fsync_oc s.oc
         | Interval dt when Clock.elapsed_since s.last_fsync >= dt ->
           s.last_fsync <- Clock.now_ns ();
           fsync_oc s.oc
         | Interval _ | Never -> ());
         s.prev <- h;
         s.next_seq <- s.next_seq + 1
       with Sys_error _ -> ()));
  Mutex.unlock sink_lock

let pp_time t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
