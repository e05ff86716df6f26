open Dmutex

let roundtrip m = Wire.Protocol_codec.decode (Wire.Protocol_codec.encode m)

let entry ?(hops = 0) node seq = Qlist.entry ~hops ~node ~seq ()

let sample_token =
  {
    Protocol.tq = [ entry 1 4; entry ~hops:2 3 0 ];
    granted = [| 3; -1; 0; 7 |];
    epoch = 2;
    election = 41;
    vepoch = 5;
  }

(* A folded announcement with every optional field present, and one
   where the token already says everything but the view. *)
let full_handover =
  {
    Protocol.ho_view =
      { Protocol.vnum = 4;
        vmembers =
          [ { Protocol.mid = 1; maddr = "127.0.0.1:7001" };
            { Protocol.mid = 3; maddr = "" } ] };
    ho_granted = Some [| 3; 0; 0; 7 |];
    ho_epoch = Some 3;
    ho_election = Some 42;
    ho_monitor = Some (1, 6);
  }

let bare_handover =
  {
    Protocol.ho_view = { Protocol.vnum = 0; vmembers = [] };
    ho_granted = None;
    ho_epoch = None;
    ho_election = None;
    ho_monitor = None;
  }

let messages : Protocol.message list =
  [
    Protocol.Request (entry 2 9);
    Protocol.Monitor_request (entry ~hops:3 0 1);
    Protocol.Privilege (sample_token, None);
    Protocol.Privilege (sample_token, Some full_handover);
    Protocol.Privilege (sample_token, Some bare_handover);
    Protocol.Monitor_privilege sample_token;
    Protocol.New_arbiter
      {
        na_arbiter = 3;
        na_q = [ entry 3 0 ];
        na_granted = [| 0; 1; 2; 3 |];
        na_counter = 5;
        na_monitor = 1;
        na_epoch = 0;
        na_election = 17;
        na_view =
          { Protocol.vnum = 3;
            vmembers =
              [ { Protocol.mid = 0; maddr = "127.0.0.1:7000" };
                { Protocol.mid = 3; maddr = "" };
                { Protocol.mid = 5; maddr = "10.0.0.5:7100" } ] };
      };
    Protocol.Warning;
    Protocol.Enquiry { round = 3 };
    Protocol.Enquiry_reply { round = 3; status = Protocol.Have_token };
    Protocol.Enquiry_reply { round = 4; status = Protocol.Executed };
    Protocol.Enquiry_reply { round = 5; status = Protocol.Waiting_token };
    Protocol.Resume { round = 9 };
    Protocol.Invalidate { round = 10 };
    Protocol.Probe;
    Protocol.Probe_ack;
  ]

let test_roundtrip_all () =
  List.iter
    (fun m ->
      let m' = roundtrip m in
      if m' <> m then
        Alcotest.failf "roundtrip mismatch for %s"
          (Protocol.message_kind m))
    messages

let test_distinct_encodings () =
  let encs = List.map Wire.Protocol_codec.encode messages in
  let uniq = List.sort_uniq compare encs in
  Alcotest.(check int) "all encodings distinct" (List.length messages)
    (List.length uniq)

let test_truncated_rejected () =
  List.iter
    (fun handover ->
      let enc =
        Wire.Protocol_codec.encode (Protocol.Privilege (sample_token, handover))
      in
      for cut = 0 to String.length enc - 1 do
        let short = String.sub enc 0 cut in
        match Wire.Protocol_codec.decode short with
        | _ -> Alcotest.failf "truncation at %d accepted" cut
        | exception Wire.Malformed _ -> ()
      done)
    [ None; Some full_handover; Some bare_handover ]

let test_trailing_garbage_rejected () =
  let enc = Wire.Protocol_codec.encode Protocol.Warning in
  match Wire.Protocol_codec.decode (enc ^ "x") with
  | _ -> Alcotest.fail "trailing garbage accepted"
  | exception Wire.Malformed _ -> ()

let test_bad_tag_rejected () =
  match Wire.Protocol_codec.decode "\xFF" with
  | _ -> Alcotest.fail "bad tag accepted"
  | exception Wire.Malformed _ -> ()

let test_primitives () =
  let e = Wire.Enc.create () in
  Wire.Enc.u8 e 200;
  Wire.Enc.u16 e 65_000;
  Wire.Enc.i32 e (-12345);
  Wire.Enc.i64 e 0x1122334455667788L;
  Wire.Enc.bool e true;
  Wire.Enc.float e 3.25;
  Wire.Enc.string e "hello";
  Wire.Enc.option e Wire.Enc.int_ (Some 7);
  Wire.Enc.option e Wire.Enc.int_ None;
  Wire.Enc.list e Wire.Enc.int_ [ 1; 2; 3 ];
  Wire.Enc.array e Wire.Enc.u8 [| 4; 5 |];
  Wire.Enc.pair e Wire.Enc.int_ Wire.Enc.string (9, "ab");
  let d = Wire.Dec.of_string (Wire.Enc.contents e) in
  Alcotest.(check int) "u8" 200 (Wire.Dec.u8 d);
  Alcotest.(check int) "u16" 65_000 (Wire.Dec.u16 d);
  Alcotest.(check int) "i32" (-12345) (Wire.Dec.i32 d);
  Alcotest.(check int64) "i64" 0x1122334455667788L (Wire.Dec.i64 d);
  Alcotest.(check bool) "bool" true (Wire.Dec.bool d);
  Alcotest.(check (float 0.0)) "float" 3.25 (Wire.Dec.float d);
  Alcotest.(check string) "string" "hello" (Wire.Dec.string d);
  Alcotest.(check (option int)) "some" (Some 7)
    (Wire.Dec.option d Wire.Dec.int_);
  Alcotest.(check (option int)) "none" None (Wire.Dec.option d Wire.Dec.int_);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.Dec.list d Wire.Dec.int_);
  Alcotest.(check (array int)) "array" [| 4; 5 |]
    (Wire.Dec.array d Wire.Dec.u8);
  Alcotest.(check (pair int string)) "pair" (9, "ab")
    (Wire.Dec.pair d Wire.Dec.int_ Wire.Dec.string);
  Wire.Dec.check_eof d

let test_enc_range_checks () =
  let e = Wire.Enc.create () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Enc.u8: out of range")
    (fun () -> Wire.Enc.u8 e 256);
  Alcotest.check_raises "u16 range" (Invalid_argument "Enc.u16: out of range")
    (fun () -> Wire.Enc.u16 e (-1))

let gen_entry =
  QCheck.Gen.(
    map3
      (fun node seq hops -> Qlist.entry ~hops ~node ~seq ())
      (int_range 0 100) (int_range 0 1000) (int_range 0 10))

let gen_token =
  QCheck.Gen.(
    map3
      (fun tq granted (epoch, election) ->
        { Protocol.tq;
          granted = Array.of_list granted;
          epoch;
          election;
          vepoch = epoch * 7 mod 11;
        })
      (list_size (0 -- 10) gen_entry)
      (list_size (1 -- 10) (int_range (-1) 1000))
      (pair (int_range 0 50) (int_range 0 5000)))

let gen_message =
  QCheck.Gen.(
    oneof
      [
        map (fun e -> Protocol.Request e) gen_entry;
        map (fun e -> Protocol.Monitor_request e) gen_entry;
        map2
          (fun t (vnum, granted, counters) ->
            let pick k x = if k then Some x else None in
            let handover =
              match counters with
              | None -> None
              | Some (epoch, election, monitor) ->
                  Some
                    {
                      Protocol.ho_view =
                        { Protocol.vnum;
                          vmembers =
                            List.map
                              (fun mid -> { Protocol.mid; maddr = "" })
                              (List.init (vnum mod 4) Fun.id) };
                      ho_granted = pick (vnum mod 2 = 0) (Array.of_list granted);
                      ho_epoch = pick (epoch > 2) epoch;
                      ho_election = pick (election mod 3 <> 0) election;
                      ho_monitor = pick (monitor >= 0) (monitor, epoch);
                    }
            in
            Protocol.Privilege (t, handover))
          gen_token
          (triple (int_range 0 20)
             (list_size (1 -- 6) (int_range (-1) 100))
             (option
                (triple (int_range 0 9) (int_range 0 500) (int_range (-1) 5))));
        map (fun t -> Protocol.Monitor_privilege t) gen_token;
        map3
          (fun q granted (arb, counter, election) ->
            Protocol.New_arbiter
              {
                na_arbiter = arb;
                na_q = q;
                na_granted = Array.of_list granted;
                na_counter = counter;
                na_monitor = arb - 1;
                na_epoch = counter mod 3;
                na_election = election;
                na_view =
                  {
                    Protocol.vnum = counter mod 5;
                    vmembers =
                      List.mapi
                        (fun i g ->
                          { Protocol.mid = i; maddr = string_of_int g })
                        granted;
                  };
              })
          (list_size (0 -- 8) gen_entry)
          (list_size (1 -- 8) (int_range (-1) 100))
          (triple (int_range 0 20) (int_range 0 100) (int_range 0 10000));
        return Protocol.Warning;
        map (fun round -> Protocol.Enquiry { round }) (int_range 0 1000);
        map2
          (fun round s ->
            Protocol.Enquiry_reply
              {
                round;
                status =
                  (match s mod 3 with
                  | 0 -> Protocol.Have_token
                  | 1 -> Protocol.Executed
                  | _ -> Protocol.Waiting_token);
              })
          (int_range 0 1000) int;
        map (fun round -> Protocol.Resume { round }) (int_range 0 1000);
        map (fun round -> Protocol.Invalidate { round }) (int_range 0 1000);
        return Protocol.Probe;
        return Protocol.Probe_ack;
      ])

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip on random messages" ~count:500
    (QCheck.make gen_message)
    (fun m -> roundtrip m = m)

let prop_random_bytes_never_crash =
  QCheck.Test.make ~name:"random bytes either decode or raise Malformed"
    ~count:300
    (QCheck.make QCheck.Gen.(string_size (0 -- 40) ~gen:char))
    (fun s ->
      match Wire.Protocol_codec.decode s with
      | _ -> true
      | exception Wire.Malformed _ -> true)

let test_frame_header_version () =
  (* The version byte leads every frame header and gates decoding. *)
  let h = Wire.Frame.encode_header ~src:3 ~lock:"orders" Wire.Frame.Data in
  Alcotest.(check int) "header length"
    (Wire.Frame.fixed_len + String.length "orders")
    (String.length h);
  Alcotest.(check int) "leading version byte" Wire.format_version
    (String.get_uint8 h 0);
  let hd = Wire.Frame.decode_header h in
  Alcotest.(check int) "src roundtrips" 3 hd.Wire.Frame.src;
  Alcotest.(check bool) "kind roundtrips" true (hd.Wire.Frame.kind = Wire.Frame.Data);
  Alcotest.(check string) "lock key roundtrips" "orders" hd.Wire.Frame.lock;
  Alcotest.(check int) "payload starts right after the key" (String.length h)
    hd.Wire.Frame.payload_start;
  let bumped =
    String.init (String.length h) (fun i ->
        if i = 0 then Char.chr (Wire.format_version + 1) else h.[i])
  in
  match Wire.Frame.decode_header bumped with
  | _ -> Alcotest.fail "future-version header must not decode"
  | exception Wire.Malformed msg ->
      let mentions_version =
        let n = String.length msg and p = "version" in
        let k = String.length p in
        let rec scan i = i + k <= n && (String.sub msg i k = p || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error names the version (%s)" msg)
        true mentions_version

let test_previous_format_rejected () =
  (* v4 predates the folded announcement: a v4 peer cannot parse a v5
     PRIVILEGE, so its frames are refused by version, naming it. *)
  let h = Wire.Frame.encode_header ~src:3 ~lock:"orders" Wire.Frame.Data in
  Alcotest.(check int) "this build speaks v5" 5 Wire.format_version;
  let v4 = "\004" ^ String.sub h 1 (String.length h - 1) in
  match Wire.Frame.decode_header v4 with
  | _ -> Alcotest.fail "a v4 header must not decode"
  | exception Wire.Malformed msg ->
      Alcotest.(check string) "version error"
        "frame format version mismatch: peer speaks v4, this node v5" msg

let test_frame_header_lock_truncated () =
  (* A lock-length field promising more key bytes than the frame
     carries must be rejected, not read out of bounds. *)
  let h = Wire.Frame.encode_header ~src:1 ~lock:"orders" Wire.Frame.Data in
  let truncated = String.sub h 0 (String.length h - 2) in
  (match Wire.Frame.decode_header truncated with
  | _ -> Alcotest.fail "truncated lock key must not decode"
  | exception Wire.Malformed _ -> ());
  (* And the empty key is a first-class value, not a parse accident. *)
  let h0 = Wire.Frame.encode_header ~src:1 ~lock:"" Wire.Frame.Heartbeat in
  let hd = Wire.Frame.decode_header h0 in
  Alcotest.(check string) "empty lock key roundtrips" "" hd.Wire.Frame.lock;
  Alcotest.(check bool) "heartbeat kind roundtrips" true
    (hd.Wire.Frame.kind = Wire.Frame.Heartbeat)

let suite =
  ( "wire",
    [
      Alcotest.test_case "all message kinds roundtrip" `Quick
        test_roundtrip_all;
      Alcotest.test_case "frame header version byte" `Quick
        test_frame_header_version;
      Alcotest.test_case "v4 frames rejected by version" `Quick
        test_previous_format_rejected;
      Alcotest.test_case "frame header lock key bounds" `Quick
        test_frame_header_lock_truncated;
      Alcotest.test_case "encodings distinct" `Quick test_distinct_encodings;
      Alcotest.test_case "every truncation rejected" `Quick
        test_truncated_rejected;
      Alcotest.test_case "trailing garbage rejected" `Quick
        test_trailing_garbage_rejected;
      Alcotest.test_case "unknown tag rejected" `Quick test_bad_tag_rejected;
      Alcotest.test_case "primitive roundtrips" `Quick test_primitives;
      Alcotest.test_case "encoder range checks" `Quick test_enc_range_checks;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_random_bytes_never_crash;
    ] )
