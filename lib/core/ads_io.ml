module Sha256 = Zkqac_hashing.Sha256
module Wire = Zkqac_util.Wire
module Durable = Zkqac_durable.Durable
module Flight = Zkqac_telemetry.Flight
module Metrics = Zkqac_telemetry.Metrics

(* The newest epoch this process has saved or recovered, exported as the
   [zkqac_checkpoint_epoch] gauge. -1 means "no checkpoint touched yet" and
   suppresses the sample so expositions from checkpoint-free runs are
   unchanged. *)
let epoch_gauge = Atomic.make (-1)
let note_epoch e = if e > Atomic.get epoch_gauge then Atomic.set epoch_gauge e
let reset_epoch_gauge () = Atomic.set epoch_gauge (-1)

let () =
  Metrics.register_gauge ~name:"zkqac_checkpoint_epoch"
    ~help:"Epoch of the newest ADS checkpoint saved or recovered by this process."
    (fun () ->
      match Atomic.get epoch_gauge with
      | e when e >= 0 -> [ ([], float_of_int e) ]
      | _ -> [])

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Ap2g = Ap2g.Make (P)
  module Abs = Zkqac_abs.Abs.Make (P)

  let file_magic = "ZKQAC-ADS-FILE-v2"

  (* The commit footer is what makes a checkpoint self-certifying against
     torn writes: a digest of every preceding byte followed by a marker that
     is the last thing to reach the disk. A file missing or failing the
     footer was not completely written; one passing it is bit-for-bit the
     file [save] produced. *)
  let commit_magic = "ZKQAC-ADS-COMMIT-v2"

  let encode ~mvk ~epoch tree =
    let w = Wire.writer () in
    Wire.bytes w file_magic;
    Wire.u32 w epoch;
    Wire.bytes w (Abs.mvk_to_bytes mvk);
    let body = Ap2g.to_bytes tree in
    Wire.bytes w (Sha256.digest body);
    Wire.bytes w body;
    let payload = Wire.contents w in
    let f = Wire.writer () in
    Wire.bytes f (Sha256.digest payload);
    Wire.bytes f commit_magic;
    payload ^ Wire.contents f

  let save ?(epoch = 0) ~path ~mvk tree =
    match Durable.replace ~path (encode ~mvk ~epoch tree) with
    | Ok () -> note_epoch epoch
    | Error e -> raise (Sys_error (Durable.error_to_string e))

  (* Decode a checkpoint's bytes with every failure mode mapped to a typed
     [Verify_error]: a truncated or bit-flipped file on disk is exactly the
     hostile-input case the wire layer guards against, and a raw exception
     escaping here would crash a server that restarts from checkpoints. The
     final catch-all covers parsers embedded in [mvk_of_bytes]/[Ap2g.decode]
     whose exceptions are not already translated. The payload and the body
     are digested, and the body decoded, as slices of [data]: a checkpoint
     is never copied. *)
  let decode_typed data : (_, Zkqac_util.Verify_error.t) result =
    let module E = Zkqac_util.Verify_error in
    match
      let r = Wire.reader data in
      if String.equal (Wire.rbytes r) file_magic then begin
        let epoch = Wire.ru32 r in
        match Abs.mvk_of_bytes (Wire.rbytes r) with
        | None -> Error (E.Malformed { offset = Wire.pos r })
        | Some mvk ->
          let checksum = Wire.rbytes r in
          let body_off, body_len = Wire.rslice r in
          let payload_end = Wire.pos r in
          let footer = Wire.rbytes r in
          let marker = Wire.rbytes r in
          if not (Wire.at_end r) then Error (E.Malformed { offset = Wire.pos r })
          else if not (String.equal marker commit_magic) then
            Error (E.Invalid_shape "checkpoint commit marker missing (torn write)")
          else if not (String.equal footer (Sha256.digest_sub data 0 payload_end))
          then Error (E.Digest_mismatch "checkpoint payload digest")
          else if not (String.equal checksum (Sha256.digest_sub data body_off body_len))
          then Error (E.Digest_mismatch "ADS body checksum")
          else
            Result.map
              (fun tree -> (mvk, tree, epoch))
              (Ap2g.decode ~off:body_off ~len:body_len data)
      end
      else Error (E.Invalid_shape "not a zkqac ADS file")
    with
    | result -> result
    | exception (Wire.Malformed | End_of_file) -> Error (E.Malformed { offset = -1 })
    | exception Wire.Limit { what; limit } -> Error (E.Limit_exceeded { what; limit })
    | exception _ -> Error (E.Malformed { offset = -1 })

  (* The first [n] bytes of a file, or all of it when shorter. *)
  let read_prefix path n =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (min n (in_channel_length ic)))

  let load_typed ~path =
    match read_prefix path max_int with
    | data -> Result.map_error (fun e -> `Bad e) (decode_typed data)
    | exception Sys_error e -> Error (`Io e)
    | exception End_of_file -> Error (`Io "unexpected end of file")

  let load ~path =
    match load_typed ~path with
    | Ok (mvk, tree, _epoch) -> Ok (mvk, tree)
    | Error (`Io msg) -> Error (Printf.sprintf "ADS checkpoint %s: %s" path msg)
    | Error (`Bad e) ->
      Error
        (Printf.sprintf "ADS checkpoint %s: %s [%s]" path
           (Zkqac_util.Verify_error.to_string e)
           (Zkqac_util.Verify_error.code e))

  (* --- epoch siblings: <path>.e<N> --- *)

  let epoch_files path =
    let dir = Filename.dirname path and base = Filename.basename path in
    let prefix = base ^ ".e" in
    let pl = String.length prefix in
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             if String.length n > pl && String.equal (String.sub n 0 pl) prefix then
               match int_of_string_opt (String.sub n pl (String.length n - pl)) with
               | Some e when e >= 0 -> Some (e, Filename.concat dir n)
               | _ -> None
             else None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)

  let keep_epochs = 2

  let save_epoch ~path ~mvk ~epoch tree =
    let file = Printf.sprintf "%s.e%d" path epoch in
    (match Durable.replace ~path:file (encode ~mvk ~epoch tree) with
    | Ok () -> ()
    | Error e -> raise (Sys_error (Durable.error_to_string e)));
    note_epoch epoch;
    (* Keep the newest [keep_epochs] siblings so recovery can fall back one
       epoch; prune the rest. The base file is never pruned. *)
    epoch_files path
    |> List.filteri (fun i _ -> i >= keep_epochs)
    |> List.iter (fun (_, p) -> try Sys.remove p with Sys_error _ -> ())

  type recovered = {
    r_mvk : Abs.mvk;
    r_tree : Ap2g.t;
    r_epoch : int;
    r_source : string;
    r_skipped : (string * string) list;
        (** candidates rejected during selection: (path, typed error code or
            io message) *)
  }

  (* The epoch stamped in a checkpoint's header, read from the file's first
     bytes only; [None] when the file or its header is unreadable. *)
  let header_epoch path =
    match
      let r = Wire.reader (read_prefix path 64) in
      if String.equal (Wire.rbytes r) file_magic then Some (Wire.ru32 r) else None
    with
    | epoch -> epoch
    | exception (Sys_error _ | End_of_file | Wire.Malformed | Wire.Limit _) -> None

  (* Pick the newest valid epoch among the base checkpoint and its epoch
     siblings. Candidates are ranked by the epoch in their header (an
     unreadable header ranks first, as it may be the newest; on a tie the
     base file comes first) and decoded newest-first until one is valid.
     Every rejected candidate ranked before the chosen one is a fallback —
     flight-logged and counted — because it means a checkpoint this process
     once claimed to have written could not be read back. *)
  let load_recover ~path =
    let ranked =
      (if Sys.file_exists path then [ path ] else [])
      @ List.map snd (epoch_files path)
      |> List.map (fun p -> (Option.value (header_epoch p) ~default:max_int, p))
      |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
    in
    let rec pick skipped = function
      | [] -> (None, List.rev skipped)
      | (_, p) :: rest ->
        (match load_typed ~path:p with
         | Ok (mvk, tree, epoch) -> (Some (p, mvk, tree, epoch), List.rev skipped)
         | Error (`Io m) -> pick ((p, m) :: skipped) rest
         | Error (`Bad e) -> pick ((p, Zkqac_util.Verify_error.code e) :: skipped) rest)
    in
    let best, skipped = pick [] ranked in
    match best with
    | None ->
      Metrics.recovery "checkpoint-failed";
      Error
        (Printf.sprintf "no valid ADS checkpoint at %s (%d candidate(s) rejected)"
           path (List.length skipped))
    | Some (src, mvk, tree, epoch) ->
      List.iter
        (fun (p, m) ->
          Flight.record ~cat:"recover" ~detail:(p ^ ": " ^ m) "checkpoint.fallback")
        skipped;
      Metrics.recovery (if skipped = [] then "checkpoint-ok" else "checkpoint-fallback");
      Flight.record ~cat:"recover" ~detail:src ~v:epoch "checkpoint.recovered";
      note_epoch epoch;
      Ok { r_mvk = mvk; r_tree = tree; r_epoch = epoch; r_source = src; r_skipped = skipped }
end
