(* Durable.replace under injected syscall faults.

   The atomic-replace protocol claims one invariant above all: the final
   path NEVER holds a partial file — before the rename the old bytes are
   intact, after it the new bytes are complete. Real filesystems cannot
   produce short writes, ENOSPC, or fsync failure on demand, so these tests
   inject them through the syscall shim and check the invariant after every
   fault. The last group is the regression for the original hazard: a
   failing [Ads_io.save] used to leave a truncated checkpoint at the final
   path; now it must leave the old checkpoint byte-identical. *)

module Durable = Zkqac_durable.Durable
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Ads_io = Zkqac_core.Ads_io.Make (Backend)

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let in_temp_dir f =
  let dir = Filename.temp_file "zkqac-durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  f dir

(* The invariant every fault case asserts: whatever the fault, the final
   path holds either the complete old contents or the complete new ones. *)
let check_intact ~what path ~old_data =
  Alcotest.(check string) (what ^ ": old contents intact") old_data (read_all path)

let no_tmp_left dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         let rec has_sub i =
           i + 4 <= String.length f
           && (String.sub f i 4 = ".tmp" || has_sub (i + 1))
         in
         has_sub 0)
  |> fun leftovers ->
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers

(* --- plain success --- *)

let replace_success () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "old";
      (match Durable.replace ~path "new contents" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Durable.error_to_string e));
      Alcotest.(check string) "replaced" "new contents" (read_all path);
      no_tmp_left dir)

let replace_creates_fresh () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "fresh" in
      (match Durable.replace ~path "born atomic" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Durable.error_to_string e));
      Alcotest.(check string) "created" "born atomic" (read_all path))

(* --- injected faults --- *)

(* Short writes: the kernel may accept any prefix of a write. The loop must
   keep pushing and the final file must still be complete. *)
let short_writes_still_complete () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "old";
      let dribble =
        { Durable.real with Durable.write = (fun fd b off len -> Unix.write fd b off (min 3 len)) }
      in
      (match Durable.with_syscalls dribble (fun () -> Durable.replace ~path "0123456789abcdef") with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Durable.error_to_string e));
      Alcotest.(check string) "complete despite short writes" "0123456789abcdef"
        (read_all path))

(* ENOSPC mid-write: the target must keep its old contents and the torn
   temporary must be cleaned up. *)
let enospc_mid_write () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "the old checkpoint";
      let wrote = ref 0 in
      let disk_full =
        {
          Durable.real with
          Durable.write =
            (fun fd b off len ->
              if !wrote >= 4 then raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
              else begin
                let k = Unix.write fd b off (min 4 len) in
                wrote := !wrote + k;
                k
              end);
        }
      in
      (match
         Durable.with_syscalls disk_full (fun () ->
             Durable.replace ~path "this write will not fit on the disk")
       with
      | Ok () -> Alcotest.fail "ENOSPC write reported success"
      | Error e ->
        Alcotest.(check string) "typed op" "write" e.Durable.op);
      check_intact ~what:"enospc" path ~old_data:"the old checkpoint";
      no_tmp_left dir)

(* fsync failure: data may not be on the platter; the replace must fail and
   leave the old file. *)
let fsync_failure () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "old";
      let bad_fsync =
        {
          Durable.real with
          Durable.fsync = (fun _ -> raise (Unix.Unix_error (Unix.EIO, "fsync", "")));
        }
      in
      (match
         Durable.with_syscalls bad_fsync (fun () -> Durable.replace ~path "new")
       with
      | Ok () -> Alcotest.fail "EIO fsync reported success"
      | Error e -> Alcotest.(check string) "typed op" "fsync" e.Durable.op);
      check_intact ~what:"fsync-eio" path ~old_data:"old";
      no_tmp_left dir)

(* Deferred write error surfacing at close (NFS semantics): must fail. *)
let close_failure_after_fsync () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "old";
      let bad_close =
        {
          Durable.real with
          Durable.close =
            (fun fd ->
              Unix.close fd;
              raise (Unix.Unix_error (Unix.EIO, "close", "")));
        }
      in
      (match
         Durable.with_syscalls bad_close (fun () -> Durable.replace ~path "new")
       with
      | Ok () -> Alcotest.fail "EIO close reported success"
      | Error e -> Alcotest.(check string) "typed op" "close" e.Durable.op);
      check_intact ~what:"close-eio" path ~old_data:"old")

(* Rename failure: both files written, but the swap never happened — old
   contents must win and the temp must be gone. *)
let rename_failure () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "old";
      let bad_rename =
        {
          Durable.real with
          Durable.rename =
            (fun _ _ -> raise (Unix.Unix_error (Unix.EXDEV, "rename", "")));
        }
      in
      (match
         Durable.with_syscalls bad_rename (fun () -> Durable.replace ~path "new")
       with
      | Ok () -> Alcotest.fail "EXDEV rename reported success"
      | Error e -> Alcotest.(check string) "typed op" "rename" e.Durable.op);
      check_intact ~what:"rename-exdev" path ~old_data:"old";
      no_tmp_left dir)

(* A zero-byte write loop would spin forever on a real kernel bug; the loop
   converts it into a typed error instead. *)
let zero_write_is_error () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_all path "old";
      let stuck = { Durable.real with Durable.write = (fun _ _ _ _ -> 0) } in
      (match
         Durable.with_syscalls stuck (fun () -> Durable.replace ~path "new")
       with
      | Ok () -> Alcotest.fail "zero-byte write loop reported success"
      | Error e -> Alcotest.(check string) "typed op" "write" e.Durable.op);
      check_intact ~what:"zero-write" path ~old_data:"old")

(* Property: across randomized fault points (fail the Nth syscall of any
   kind), the final path never holds anything but the complete old or the
   complete new contents. *)
let randomized_fault_points () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      let old_data = "OLD-OLD-OLD-OLD-OLD" in
      let new_data = String.init 100 (fun i -> Char.chr (33 + (i mod 90))) in
      for fail_at = 1 to 12 do
        write_all path old_data;
        let calls = ref 0 in
        let arm name k =
          incr calls;
          if !calls = fail_at then raise (Unix.Unix_error (Unix.EIO, name, ""))
          else k ()
        in
        let flaky =
          {
            Durable.openfile = (fun p f m -> arm "open" (fun () -> Unix.openfile p f m));
            Durable.write =
              (fun fd b off len -> arm "write" (fun () -> Unix.write fd b off (min 7 len)));
            Durable.fsync = (fun fd -> arm "fsync" (fun () -> Unix.fsync fd));
            Durable.close = (fun fd -> arm "close" (fun () -> Unix.close fd));
            Durable.rename = (fun a b -> arm "rename" (fun () -> Unix.rename a b));
            Durable.unlink = (fun p -> arm "unlink" (fun () -> Unix.unlink p));
          }
        in
        let res =
          Durable.with_syscalls flaky (fun () -> Durable.replace ~path new_data)
        in
        let on_disk = read_all path in
        if on_disk <> old_data && on_disk <> new_data then
          Alcotest.failf
            "fault at syscall %d exposed a partial file (%d bytes: %S)" fail_at
            (String.length on_disk)
            (String.sub on_disk 0 (min 20 (String.length on_disk)));
        match res with
        | Ok () ->
          Alcotest.(check string)
            (Printf.sprintf "fault %d: success means new contents" fail_at)
            new_data on_disk
        | Error _ -> ()
      done)

(* --- the Ads_io regression (satellite: partial-checkpoint hazard) --- *)

let small_tree () =
  let drbg = Drbg.create ~seed:"test-durable" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create [ "RoleA" ] in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:1 ~depth:2 in
  let records =
    [ Record.make ~key:[| 1 |] ~value:"v" ~policy:(Expr.of_string "RoleA") ]
  in
  let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"d" records in
  (mvk, tree)

(* A crashing/failing writer must leave the previous checkpoint loadable and
   byte-identical — the exact hazard the old truncate-then-write save had. *)
let failing_save_leaves_old_checkpoint () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "ads.zkqac" in
      let mvk, tree = small_tree () in
      Ads_io.save ~path ~mvk tree;
      let good = read_all path in
      let wrote = ref 0 in
      let disk_full =
        {
          Durable.real with
          Durable.write =
            (fun fd b off len ->
              if !wrote >= 64 then raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
              else begin
                let k = Unix.write fd b off (min 64 len) in
                wrote := !wrote + k;
                k
              end);
        }
      in
      (match
         Durable.with_syscalls disk_full (fun () ->
             Ads_io.save ~path ~epoch:7 ~mvk tree)
       with
      | exception Sys_error _ -> ()
      | () -> Alcotest.fail "save over a full disk did not raise");
      Alcotest.(check string) "old checkpoint byte-identical" good (read_all path);
      (match Ads_io.load ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "old checkpoint no longer loads: %s" e);
      no_tmp_left dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The recovery paths feed the exposition: epoch gauge and outcome counter. *)
let recovery_metrics_exported () =
  let module Metrics = Zkqac_telemetry.Metrics in
  in_temp_dir (fun dir ->
      Metrics.reset ();
      Zkqac_core.Ads_io.reset_epoch_gauge ();
      let path = Filename.concat dir "ads.zkqac" in
      let mvk, tree = small_tree () in
      Ads_io.save ~path ~mvk tree;
      Ads_io.save_epoch ~path ~mvk ~epoch:5 tree;
      (match Ads_io.load_recover ~path with
      | Ok r -> Alcotest.(check int) "newest epoch wins" 5 r.Ads_io.r_epoch
      | Error e -> Alcotest.failf "load_recover: %s" e);
      let text = Metrics.to_prometheus () in
      Alcotest.(check bool) "epoch gauge exported" true
        (contains text "zkqac_checkpoint_epoch 5");
      Alcotest.(check bool) "recovery outcome counted" true
        (contains text "zkqac_recoveries_total{outcome=\"checkpoint-ok\"} 1");
      Metrics.reset ();
      Zkqac_core.Ads_io.reset_epoch_gauge ())

(* Flip one byte in the middle of a checkpoint: its header, and so its
   epoch, stays readable; its digests no longer match. *)
let corrupt_body path =
  let data = Bytes.of_string (read_all path) in
  let i = Bytes.length data / 2 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0xff));
  write_all path (Bytes.to_string data)

(* Recovery with epoch siblings 4 and 5, one of them corrupt: the result,
   its skipped candidates and the outcome counted. *)
let recover_with_corrupt ~corrupt =
  let module Metrics = Zkqac_telemetry.Metrics in
  in_temp_dir (fun dir ->
      Metrics.reset ();
      Zkqac_core.Ads_io.reset_epoch_gauge ();
      let path = Filename.concat dir "ads.zkqac" in
      let mvk, tree = small_tree () in
      Ads_io.save ~path ~mvk tree;
      Ads_io.save_epoch ~path ~mvk ~epoch:4 tree;
      Ads_io.save_epoch ~path ~mvk ~epoch:5 tree;
      corrupt_body (Printf.sprintf "%s.e%d" path corrupt);
      let r =
        match Ads_io.load_recover ~path with
        | Ok r -> r
        | Error e -> Alcotest.failf "load_recover: %s" e
      in
      let text = Metrics.to_prometheus () in
      let outcome =
        List.find
          (fun o ->
            contains text (Printf.sprintf "zkqac_recoveries_total{outcome=%S} 1" o))
          [ "checkpoint-ok"; "checkpoint-fallback" ]
      in
      Metrics.reset ();
      Zkqac_core.Ads_io.reset_epoch_gauge ();
      ( r.Ads_io.r_epoch,
        List.map (fun (p, _) -> Filename.basename p) r.Ads_io.r_skipped,
        outcome ))

(* A corrupt older sibling is never decoded: the newest valid epoch is read
   first and recovery stops there. *)
let recovery_stops_at_newest_valid () =
  let epoch, skipped, outcome = recover_with_corrupt ~corrupt:4 in
  Alcotest.(check int) "newest epoch" 5 epoch;
  Alcotest.(check (list string)) "nothing skipped" [] skipped;
  Alcotest.(check string) "outcome" "checkpoint-ok" outcome

let recovery_falls_back_past_corrupt_newest () =
  let epoch, skipped, outcome = recover_with_corrupt ~corrupt:5 in
  Alcotest.(check int) "fallback epoch" 4 epoch;
  Alcotest.(check (list string)) "newest skipped" [ "ads.zkqac.e5" ] skipped;
  Alcotest.(check string) "outcome" "checkpoint-fallback" outcome

(* The epoch-less v1 format is no longer read: such a file gets the same
   typed error as any other non-checkpoint. *)
let epochless_v1_rejected () =
  let module Wire = Zkqac_util.Wire in
  let mvk, tree = small_tree () in
  let body = Ap2g.to_bytes tree in
  let w = Wire.writer () in
  Wire.bytes w "ZKQAC-ADS-FILE-v1";
  Wire.bytes w (Abs.mvk_to_bytes mvk);
  Wire.bytes w (Zkqac_hashing.Sha256.digest body);
  Wire.bytes w body;
  match Ads_io.decode_typed (Wire.contents w) with
  | Error (Zkqac_util.Verify_error.Invalid_shape m) ->
    Alcotest.(check string) "typed error" "not a zkqac ADS file" m
  | Error e ->
    Alcotest.failf "wrong error: %s" (Zkqac_util.Verify_error.to_string e)
  | Ok _ -> Alcotest.fail "a v1 file loaded"

let successful_save_roundtrips () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "ads.zkqac" in
      let mvk, tree = small_tree () in
      Ads_io.save ~path ~epoch:3 ~mvk tree;
      match Ads_io.load_typed ~path with
      | Ok (_, _, epoch) -> Alcotest.(check int) "epoch stamped" 3 epoch
      | Error (`Io m) -> Alcotest.failf "reload failed: %s" m
      | Error (`Bad e) ->
        Alcotest.failf "reload failed: %s" (Zkqac_util.Verify_error.to_string e))

(* A checkpoint's body is decoded in place, as a slice of the file: a
   body-length field that reaches into the footer is malformed, and the
   body's decoder stops at the end of its slice even when the footer's
   bytes follow it. *)
let body_length_into_footer () =
  let module Wire = Zkqac_util.Wire in
  let module E = Zkqac_util.Verify_error in
  let data =
    in_temp_dir (fun dir ->
        let path = Filename.concat dir "ads.zkqac" in
        let mvk, tree = small_tree () in
        Ads_io.save ~path ~mvk tree;
        read_all path)
  in
  let r = Wire.reader data in
  ignore (Wire.rbytes r);
  ignore (Wire.ru32 r);
  ignore (Wire.rbytes r);
  ignore (Wire.rbytes r);
  let len_at = Wire.pos r in
  let body_off, body_len = Wire.rslice r in
  let with_body_len n =
    let w = Wire.writer () in
    Wire.u32 w n;
    let b = Bytes.of_string data in
    Bytes.blit_string (Wire.contents w) 0 b len_at 4;
    Bytes.to_string b
  in
  (* 36 bytes: the footer's whole digest field. *)
  List.iter
    (fun extra ->
      match Ads_io.decode_typed (with_body_len (body_len + extra)) with
      | Error (E.Malformed _) -> ()
      | Error e -> Alcotest.failf "+%d: wrong error %s" extra (E.to_string e)
      | Ok _ -> Alcotest.failf "+%d: a body reaching into the footer loaded" extra)
    [ 1; 36 ];
  let decode len =
    Result.map Ap2g.to_bytes (Ap2g.decode ~off:body_off ~len data)
  in
  Alcotest.(check bool) "the slice decodes in place" true
    (decode body_len = Ok (String.sub data body_off body_len));
  List.iter
    (fun len ->
      match decode len with
      | Error (E.Malformed _) -> ()
      | _ -> Alcotest.failf "a %d-byte slice of a %d-byte body decoded" len body_len)
    [ body_len - 1; body_len + 1 ]

(* A tree with several records per policy, one of them nested. *)
let policy_tree () =
  let drbg = Drbg.create ~seed:"test-durable-policies" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create [ "RoleA"; "RoleB" ] in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:2 ~depth:2 in
  let records =
    List.mapi
      (fun i policy ->
        Record.make ~key:[| i; i |] ~value:(string_of_int i) ~policy:(Expr.of_string policy))
      [ "RoleA"; "RoleB"; "RoleA"; "RoleA & RoleB" ]
  in
  Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"p" records

let rec nodes (n : Ap2g.Vo.node) =
  n :: (match n.content with Children c -> List.concat_map nodes c | _ -> [])

(* Nodes whose policies print alike share one policy value, and a leaf's
   record holds that same value. *)
let decoded_policies_shared () =
  let tree = policy_tree () in
  let decoded = Result.get_ok (Ap2g.decode (Ap2g.to_bytes tree)) in
  let all = nodes (Ap2g.root decoded) in
  let first = Hashtbl.create 16 in
  List.iter
    (fun (n : Ap2g.Vo.node) ->
      let s = Expr.to_string n.policy in
      (match Hashtbl.find_opt first s with
       | None -> Hashtbl.add first s n.policy
       | Some p -> Alcotest.(check bool) ("one value for " ^ s) true (p == n.policy));
      match n.content with
      | Leaf r ->
        Alcotest.(check bool) "record shares its leaf's policy" true
          (r.Record.policy == n.policy)
      | _ -> ())
    all;
  Alcotest.(check bool) "policies repeat" true (Hashtbl.length first < List.length all)

let decoded_stats_match () =
  let tree = policy_tree () in
  let st = Ap2g.stats tree in
  let st' = Ap2g.stats (Result.get_ok (Ap2g.decode (Ap2g.to_bytes tree))) in
  Alcotest.(check bool) "stats but sign_time" true
    ({ st' with Ap2g.sign_time = st.Ap2g.sign_time } = st)

let suite =
  [
    ( "durable",
      [
        Alcotest.test_case "replace success" `Quick replace_success;
        Alcotest.test_case "replace creates fresh file" `Quick replace_creates_fresh;
        Alcotest.test_case "short writes still complete" `Quick
          short_writes_still_complete;
        Alcotest.test_case "ENOSPC mid-write keeps old file" `Quick enospc_mid_write;
        Alcotest.test_case "fsync failure keeps old file" `Quick fsync_failure;
        Alcotest.test_case "close failure after fsync fails" `Quick
          close_failure_after_fsync;
        Alcotest.test_case "rename failure keeps old file" `Quick rename_failure;
        Alcotest.test_case "zero-byte write is a typed error" `Quick
          zero_write_is_error;
        Alcotest.test_case "randomized fault points never expose a partial file"
          `Quick randomized_fault_points;
        Alcotest.test_case "failing Ads_io.save leaves old checkpoint" `Quick
          failing_save_leaves_old_checkpoint;
        Alcotest.test_case "recovery metrics exported" `Quick
          recovery_metrics_exported;
        Alcotest.test_case "Ads_io.save epoch roundtrips" `Quick
          successful_save_roundtrips;
        Alcotest.test_case "recovery stops at the newest valid epoch" `Quick
          recovery_stops_at_newest_valid;
        Alcotest.test_case "recovery falls back past a corrupt newest epoch"
          `Quick recovery_falls_back_past_corrupt_newest;
        Alcotest.test_case "epoch-less v1 checkpoint rejected" `Quick
          epochless_v1_rejected;
        Alcotest.test_case "body length reaching into the footer is malformed"
          `Quick body_length_into_footer;
        Alcotest.test_case "decoded tree shares one policy per string" `Quick
          decoded_policies_shared;
        Alcotest.test_case "decoded tree stats match the built tree's" `Quick
          decoded_stats_match;
      ] );
  ]
