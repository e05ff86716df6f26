(* Unit tests for the durable protocol store: WAL replay, torn-tail
   truncation, CRC and version corruption, snapshot+replay
   equivalence, and the custody semantics the restart drills rely
   on. *)

module Store = Dmutex_store.Store

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dmutex-store-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let view_eq a b =
  a.Store.epoch = b.Store.epoch
  && a.Store.election = b.Store.election
  && a.Store.enq_round = b.Store.enq_round
  && a.Store.next_seq = b.Store.next_seq
  && a.Store.granted = b.Store.granted
  && a.Store.custody = b.Store.custody

let check_view msg expected actual =
  match actual with
  | None -> Alcotest.failf "%s: no view recovered" msg
  | Some v -> Alcotest.(check bool) msg true (view_eq expected v)

let sample_views ~n =
  let v0 = Store.empty_view ~n in
  let v1 = { v0 with Store.epoch = 3; next_seq = 1 } in
  let g2 = Array.copy v1.Store.granted in
  g2.(1) <- 7;
  let v2 =
    { v1 with Store.granted = g2; custody = Store.Holding { epoch = 3; shared = false } }
  in
  let v3 =
    { v2 with Store.custody = Store.No_token; election = 5; enq_round = 2 }
  in
  [ v0; v1; v2; v3 ]

let file_path dir name = Filename.concat dir name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_roundtrip_after_abort () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:4 () in
  let views = sample_views ~n:4 in
  List.iter (Store.record s) views;
  let last = List.nth views (List.length views - 1) in
  (* Crash-style close: nothing beyond the per-record fsyncs. *)
  Store.abort s;
  let s2 = Store.open_ ~dir ~n:4 () in
  check_view "abort loses nothing (every record is fsynced)" last
    (Store.view s2);
  Alcotest.(check bool) "records replayed" true
    ((Store.stats s2).Store.replayed > 0);
  Store.close s2

let test_snapshot_replay_equivalence () =
  (* The same sequence of views must recover bit-for-bit identically
     whether it comes back from pure WAL replay (abort) or from a
     folded snapshot (flush + abort). *)
  let views = sample_views ~n:4 in
  let recover_with finish =
    let dir = fresh_dir () in
    let s = Store.open_ ~dir ~n:4 () in
    List.iter (Store.record s) views;
    finish s;
    let s2 = Store.open_ ~dir ~n:4 () in
    let v = Store.view s2 in
    Store.abort s2;
    v
  in
  let from_wal = recover_with Store.abort in
  let from_snapshot =
    recover_with (fun s ->
        Store.flush s;
        Store.abort s)
  in
  let last = List.nth views (List.length views - 1) in
  check_view "recovered from WAL" last from_wal;
  check_view "recovered from snapshot" last from_snapshot

let test_torn_tail_truncated () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:3 () in
  let v0 = Store.empty_view ~n:3 in
  let v1 = { v0 with Store.epoch = 2 } in
  let v2 = { v1 with Store.next_seq = 9 } in
  Store.record s v1;
  let wal = file_path dir "wal.bin" in
  let len_after_v1 = (Unix.stat wal).Unix.st_size in
  Store.record s v2;
  Store.abort s;
  (* Tear the tail mid-record: keep 3 bytes of the v2 delta. *)
  let raw = read_file wal in
  Alcotest.(check bool) "second record appended" true
    (String.length raw > len_after_v1);
  write_file wal (String.sub raw 0 (len_after_v1 + 3));
  let s2 = Store.open_ ~dir ~n:3 () in
  check_view "recovers to last intact record" v1 (Store.view s2);
  (* The torn bytes must be gone from disk so appends restart on a
     frame boundary. *)
  Alcotest.(check int) "tail truncated on disk" len_after_v1
    (Unix.stat wal).Unix.st_size;
  let v3 = { v1 with Store.election = 4 } in
  Store.record s2 v3;
  Store.abort s2;
  let s3 = Store.open_ ~dir ~n:3 () in
  check_view "appends after truncation replay cleanly" v3 (Store.view s3);
  Store.abort s3

let test_corrupt_crc_tail_dropped () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:3 () in
  let v0 = Store.empty_view ~n:3 in
  let v1 = { v0 with Store.epoch = 2 } in
  let v2 = { v1 with Store.next_seq = 9 } in
  Store.record s v1;
  let wal = file_path dir "wal.bin" in
  let len_after_v1 = (Unix.stat wal).Unix.st_size in
  Store.record s v2;
  Store.abort s;
  (* Flip a byte inside the second record's payload: its CRC fails, so
     recovery stops at the last intact record. *)
  let raw = Bytes.of_string (read_file wal) in
  let off = len_after_v1 + 6 in
  Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0xFF));
  write_file wal (Bytes.to_string raw);
  let s2 = Store.open_ ~dir ~n:3 () in
  check_view "CRC-failing tail dropped" v1 (Store.view s2);
  Store.abort s2

(* Write a one-record store, then rewrite its snapshot's version byte
   to [version] and fix up the CRC so only the version differs — a
   stale directory from a different binary, not crash damage. Returns
   the directory. *)
let store_at_version version =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:3 () in
  Store.record s { (Store.empty_view ~n:3) with Store.epoch = 1 };
  Store.flush s;
  Store.close s;
  let snap = file_path dir "snapshot.bin" in
  let raw = Bytes.of_string (read_file snap) in
  Bytes.set_uint8 raw 0 version;
  let crc_off = Bytes.length raw - 4 in
  let table =
    Array.init 256 (fun i ->
        let c = ref i in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  for i = 0 to crc_off - 1 do
    crc := table.((!crc lxor Char.code (Bytes.get raw i)) land 0xFF)
           lxor (!crc lsr 8)
  done;
  Bytes.set_int32_be raw crc_off (Int32.of_int (!crc lxor 0xFFFFFFFF));
  write_file snap (Bytes.to_string raw);
  dir

let test_version_mismatch_rejected () =
  (* Must fail loudly, not truncate. *)
  let dir = store_at_version (Wire.format_version + 1) in
  (match Store.open_ ~dir ~n:3 () with
  | _ -> Alcotest.fail "foreign-version snapshot must raise Corrupt"
  | exception Store.Corrupt _ -> ())

let test_previous_version_rejected () =
  (* A state directory written before the v5 wire format. *)
  let dir = store_at_version 4 in
  match Store.open_ ~dir ~n:3 () with
  | _ -> Alcotest.fail "a v4 snapshot must raise Corrupt"
  | exception Store.Corrupt msg ->
      let says_v4 =
        let p = "record format v4, this binary speaks v5" in
        let k = String.length p and n = String.length msg in
        let rec scan i = i + k <= n && (String.sub msg i k = p || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "version error (%s)" msg) true says_v4

let test_cluster_size_mismatch_rejected () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:3 () in
  Store.record s { (Store.empty_view ~n:3) with Store.epoch = 1 };
  Store.flush s;
  Store.close s;
  match Store.open_ ~dir ~n:5 () with
  | _ -> Alcotest.fail "snapshot for n=3 must not open with n=5"
  | exception Store.Corrupt _ -> ()

let test_wal_limit_auto_snapshot () =
  let dir = fresh_dir () in
  let s = Store.open_ ~wal_limit:8 ~dir ~n:2 () in
  for i = 1 to 50 do
    Store.record s { (Store.empty_view ~n:2) with Store.epoch = i }
  done;
  let st = Store.stats s in
  Alcotest.(check bool) "auto-snapshot fired" true (st.Store.snapshots > 0);
  Alcotest.(check bool) "WAL kept bounded" true (st.Store.wal_records <= 8);
  Store.abort s;
  let s2 = Store.open_ ~dir ~n:2 () in
  check_view "latest state survives folding"
    { (Store.empty_view ~n:2) with Store.epoch = 50 }
    (Store.view s2);
  Store.abort s2

let test_no_change_no_write () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:2 () in
  let v = { (Store.empty_view ~n:2) with Store.epoch = 1 } in
  Store.record s v;
  let bytes_once = (Store.stats s).Store.wal_bytes in
  Store.record s v;
  Store.record s { v with Store.granted = Array.copy v.Store.granted };
  Alcotest.(check int) "identical views append nothing" bytes_once
    (Store.stats s).Store.wal_bytes;
  Store.close s

let test_custody_roundtrip () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:2 () in
  Store.record s
    { (Store.empty_view ~n:2) with
      Store.epoch = 4;
      custody = Store.Holding { epoch = 4; shared = false } };
  Store.abort s;
  let s2 = Store.open_ ~dir ~n:2 () in
  (match Store.view s2 with
  | Some { Store.custody = Store.Holding { epoch = 4; shared = false }; _ } -> ()
  | Some _ -> Alcotest.fail "custody lost or altered across restart"
  | None -> Alcotest.fail "no view recovered");
  Store.abort s2

let test_empty_dir_is_amnesia () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir ~n:2 () in
  Alcotest.(check bool) "no durable state -> no view" true
    (Store.view s = None);
  Store.close s;
  (* close with nothing recorded must not conjure a snapshot *)
  let s2 = Store.open_ ~dir ~n:2 () in
  Alcotest.(check bool) "still no view after idle close" true
    (Store.view s2 = None);
  Store.abort s2

let test_dir_name_roundtrip () =
  let keys =
    [
      "plain";
      "with space";
      "with/slash";
      "pct%lit";
      "%2f-preencoded";
      "unicode-\xc3\xa9\xe4\xb8\xad";
      "";
      "trailing%";
      String.init 256 Char.chr;
    ]
  in
  List.iter
    (fun key ->
      let dir = Store.dir_name_of_key key in
      String.iter
        (fun c ->
          let safe =
            (c >= 'a' && c <= 'z')
            || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9')
            || c = '-' || c = '_' || c = '%'
          in
          if not safe then
            Alcotest.failf "unsafe byte %C in dir name %S for key %S" c dir key)
        dir;
      Alcotest.(check string)
        (Printf.sprintf "round-trip %S" key)
        key
        (Store.key_of_dir_name dir))
    keys;
  (* The per-lock layout under a node's state directory is on disk:
     restarts of older nodes must find their stores where they left
     them. *)
  Alcotest.(check string) "per-lock directory" "node-0/lock-with%2fslash"
    (Store.lock_dir ~root:"node-0" "with/slash")

let test_dir_name_legacy_uppercase () =
  (* Early tools percent-encoded with uppercase hex; the decoder must
     keep reading those directories. *)
  Alcotest.(check string) "uppercase hex" "a b" (Store.key_of_dir_name "a%20b");
  Alcotest.(check string) "uppercase hex 2" "a/b" (Store.key_of_dir_name "a%2Fb")

let test_dir_name_corrupt () =
  let bad = [ "a%"; "a%2"; "a%zz"; "a%g0" ] in
  List.iter
    (fun d ->
      match Store.key_of_dir_name d with
      | _ -> Alcotest.failf "decoding %S must raise Corrupt" d
      | exception Store.Corrupt _ -> ())
    bad

let test_fencing_packing () =
  let f00 = Store.fencing ~epoch:0 ~minor:0 in
  let f01 = Store.fencing ~epoch:0 ~minor:1 in
  let f10 = Store.fencing ~epoch:1 ~minor:0 in
  Alcotest.(check bool) "minor advances" true (f01 > f00);
  Alcotest.(check bool) "epoch dominates any minor" true
    (f10 > Store.fencing ~epoch:0 ~minor:((1 lsl Store.fencing_minor_bits) - 1));
  Alcotest.(check int) "epoch extract" 7 (Store.fencing_epoch (Store.fencing ~epoch:7 ~minor:42));
  Alcotest.(check int) "minor extract" 42 (Store.fencing_minor (Store.fencing ~epoch:7 ~minor:42));
  (match Store.fencing ~epoch:(-1) ~minor:0 with
  | _ -> Alcotest.fail "negative epoch must be rejected"
  | exception Invalid_argument _ -> ())

let suite =
  ( "store",
    [
      Alcotest.test_case "abort loses nothing" `Quick test_roundtrip_after_abort;
      Alcotest.test_case "snapshot+replay equivalence" `Quick
        test_snapshot_replay_equivalence;
      Alcotest.test_case "torn WAL tail truncated" `Quick
        test_torn_tail_truncated;
      Alcotest.test_case "corrupt CRC tail dropped" `Quick
        test_corrupt_crc_tail_dropped;
      Alcotest.test_case "format version mismatch rejected" `Quick
        test_version_mismatch_rejected;
      Alcotest.test_case "v4 store records rejected" `Quick
        test_previous_version_rejected;
      Alcotest.test_case "cluster size mismatch rejected" `Quick
        test_cluster_size_mismatch_rejected;
      Alcotest.test_case "wal_limit folds into snapshot" `Quick
        test_wal_limit_auto_snapshot;
      Alcotest.test_case "no-change record writes nothing" `Quick
        test_no_change_no_write;
      Alcotest.test_case "custody survives crash-style close" `Quick
        test_custody_roundtrip;
      Alcotest.test_case "lock-key dir names round-trip" `Quick
        test_dir_name_roundtrip;
      Alcotest.test_case "legacy uppercase hex decodes" `Quick
        test_dir_name_legacy_uppercase;
      Alcotest.test_case "corrupt dir names fail loudly" `Quick
        test_dir_name_corrupt;
      Alcotest.test_case "fencing token packing" `Quick test_fencing_packing;
      Alcotest.test_case "empty directory means amnesia" `Quick
        test_empty_dir_is_amnesia;
    ] )
