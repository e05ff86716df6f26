(* Frame-codec robustness: reader_loop's failure paths driven by raw
   sockets speaking deliberately broken framing, plus the supervised
   outbound channel (retry, shedding, reconnect-after-close). *)

let addr port = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port)

(* A transport under test listening on [port] as node 0 of a 2-node
   peer list, collecting every delivered payload. *)
let listener ~port ~peer_port =
  let received = ref [] in
  let mu = Mutex.create () in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port };
      { Netkit.Transport.host = "127.0.0.1"; port = peer_port };
    |]
  in
  let tr =
    Netkit.Transport.create ~me:0 ~peers
      ~on_frame:(fun ~src ~lock payload ->
        Mutex.lock mu;
        received := (src, lock, payload) :: !received;
        Mutex.unlock mu)
      ()
  in
  let snapshot () =
    Mutex.lock mu;
    let l = List.rev !received in
    Mutex.unlock mu;
    l
  in
  (tr, snapshot)

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (addr port);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let rec push off =
    if off < Bytes.length b then
      push (off + Unix.write fd b off (Bytes.length b - off))
  in
  push 0

(* A well-formed wire frame: length prefix + Frame header + payload. *)
let good_frame ?(src = 1) ?(lock = "") payload =
  let body = Wire.Frame.encode_header ~src ~lock Wire.Frame.Data ^ payload in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length body));
  Bytes.to_string b ^ body

(* The frame version byte, [ahead] versions past this build's. *)
let version_byte ahead = String.make 1 (Char.chr (Wire.format_version + ahead))

let length_prefix len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let wait_for ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* Feed one malformed byte stream to a fresh connection, then prove
   the transport survived it: a subsequent clean connection still
   delivers. *)
let survives_garbage ~port ~peer_port garbage =
  let tr, snapshot = listener ~port ~peer_port in
  let bad = connect_raw port in
  write_all bad garbage;
  (* Give the reader a moment to choke on it. *)
  Thread.delay 0.1;
  (try Unix.close bad with _ -> ());
  let ok = connect_raw port in
  write_all ok (good_frame "after-garbage");
  let delivered =
    wait_for (fun () ->
        List.exists (fun (_, _, p) -> p = "after-garbage") (snapshot ()))
  in
  Unix.close ok;
  Netkit.Transport.close tr;
  Alcotest.(check bool) "garbage never delivered" false
    (List.exists (fun (_, _, p) -> p <> "after-garbage") (snapshot ()));
  Alcotest.(check bool) "clean frame delivered after garbage" true delivered

let test_oversized_length () =
  survives_garbage ~port:8701 ~peer_port:8702
    (length_prefix 100_000_000 ^ "xxxx")

let test_negative_length () =
  survives_garbage ~port:8703 ~peer_port:8704 (length_prefix (-1))

let test_short_frame () =
  (* Body shorter than the 8-byte fixed frame header. *)
  survives_garbage ~port:8705 ~peer_port:8706 (length_prefix 2 ^ "ab")

let test_bad_frame_kind () =
  (* Valid version byte, sender id and (empty) lock key, kind byte 255. *)
  let body = version_byte 0 ^ "\000\000\000\001\255\000\000payload" in
  survives_garbage ~port:8707 ~peer_port:8708
    (length_prefix (String.length body) ^ body)

let test_truncated_lock_key () =
  (* Lock-length field promises 200 key bytes; the frame ends first. *)
  let body = version_byte 0 ^ "\000\000\000\001\000\000\200key" in
  survives_garbage ~port:8724 ~peer_port:8725
    (length_prefix (String.length body) ^ body)

let test_version_mismatch () =
  (* A well-formed frame from a peer speaking a future format: the
     version byte must reject it before the kind byte is even read. *)
  let body = version_byte 1 ^ "\000\000\000\001\000\000\000payload" in
  Alcotest.(check bool) "crafted frame differs only in version" true
    (String.get_uint8 body 0 <> Wire.format_version);
  survives_garbage ~port:8726 ~peer_port:8727
    (length_prefix (String.length body) ^ body)

let test_bad_sender_id () =
  (* Sender ids are only loosely bounded (a joiner's first frames
     arrive before the receiver's peer table has a slot for it);
     src = me is the one id that can never be legitimate. *)
  let body = Wire.Frame.encode_header ~src:0 ~lock:"" Wire.Frame.Data ^ "evil" in
  survives_garbage ~port:8709 ~peer_port:8710
    (length_prefix (String.length body) ^ body)

let test_joiner_sender_id () =
  (* The flip side: an id beyond the peer table is delivered, carrying
     its real src — that's how a JOIN-REQUEST reaches the protocol
     before any view admits the sender. *)
  let tr, snapshot = listener ~port:8730 ~peer_port:8731 in
  let raw = connect_raw 8730 in
  write_all raw (good_frame ~src:99 "knock");
  let delivered =
    wait_for (fun () ->
        List.exists (fun (s, _, p) -> s = 99 && p = "knock") (snapshot ()))
  in
  (try Unix.close raw with _ -> ());
  Netkit.Transport.close tr;
  Alcotest.(check bool) "high sender id delivered" true delivered

let test_partial_header_disconnect () =
  (* Peer dies after two bytes of the length prefix. *)
  survives_garbage ~port:8711 ~peer_port:8712 "\000\000"

let test_mid_frame_disconnect () =
  (* Length promises 100 bytes; only 10 arrive before the close. *)
  survives_garbage ~port:8713 ~peer_port:8714 (length_prefix 100 ^ "0123456789")

let test_unreachable_peer_sheds () =
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8715 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8716 };
    |]
  in
  let tr =
    Netkit.Transport.create ~me:0 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  (* Peer 1 never started: the frame is accepted (the writer thread
     owns retrying), then shed once the per-frame budget runs out. *)
  Alcotest.(check bool) "send to dead peer accepted" true
    (Netkit.Transport.send tr ~dst:1 "hello");
  Alcotest.(check bool) "self-send refused" false
    (Netkit.Transport.send tr ~dst:0 "self");
  Alcotest.(check bool) "out-of-range refused" false
    (Netkit.Transport.send tr ~dst:7 "mars");
  let shed =
    wait_for ~timeout:15.0 (fun () ->
        (Netkit.Transport.metrics tr).Netkit.Transport.dropped >= 1)
  in
  Alcotest.(check bool) "frame shed after retry budget" true shed;
  let m = Netkit.Transport.metrics tr in
  Alcotest.(check int) "never counted as sent" 0 m.Netkit.Transport.sent;
  Alcotest.(check bool) "connect attempts counted as retries" true
    (m.Netkit.Transport.retries >= 1);
  Netkit.Transport.close tr;
  Netkit.Transport.close tr;
  Alcotest.(check bool) "send after close refused" false
    (Netkit.Transport.send tr ~dst:1 "late")

let test_lock_key_demux () =
  (* Frames for different lock keys share one connection and come out
     with their key intact — the demultiplexing contract every
     multi-instance node depends on. *)
  let tr, snapshot = listener ~port:8728 ~peer_port:8729 in
  let raw = connect_raw 8728 in
  write_all raw (good_frame ~lock:"orders" "o-payload");
  write_all raw (good_frame ~lock:"billing" "b-payload");
  write_all raw (good_frame "plain");
  let all_in =
    wait_for (fun () -> List.length (snapshot ()) >= 3)
  in
  Unix.close raw;
  Netkit.Transport.close tr;
  Alcotest.(check bool) "all three frames delivered" true all_in;
  let got = snapshot () in
  Alcotest.(check bool) "orders key routed" true
    (List.mem (1, "orders", "o-payload") got);
  Alcotest.(check bool) "billing key routed" true
    (List.mem (1, "billing", "b-payload") got);
  Alcotest.(check bool) "empty key routed" true (List.mem (1, "", "plain") got)

let test_chaos_loss_counted () =
  (* A frame eaten by set_loss reports success to the caller but is
     counted as dropped and never as sent — Simkit.Network semantics
     on live counters. *)
  let tr, _snapshot = listener ~port:8717 ~peer_port:8718 in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8717 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8718 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  Netkit.Transport.set_loss sender 1.0;
  for _ = 1 to 10 do
    Alcotest.(check bool) "lost send still reports success" true
      (Netkit.Transport.send sender ~dst:0 "into the void")
  done;
  let m = Netkit.Transport.metrics sender in
  Alcotest.(check int) "all ten counted dropped" 10 m.Netkit.Transport.dropped;
  Alcotest.(check int) "none counted sent" 0 m.Netkit.Transport.sent;
  Netkit.Transport.close sender;
  Netkit.Transport.close tr

let test_reconnect_after_close () =
  (* The receiving endpoint dies and is reborn on the same port; the
     sender's writer thread must reconnect and deliver again. *)
  let tr0, snapshot0 = listener ~port:8719 ~peer_port:8720 in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8719 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8720 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  ignore (Netkit.Transport.send sender ~dst:0 "first");
  Alcotest.(check bool) "first frame delivered" true
    (wait_for (fun () -> List.mem (1, "", "first") (snapshot0 ())));
  Netkit.Transport.close tr0;
  Thread.delay 0.1;
  (* Restart the endpoint, then keep sending until a frame lands: the
     first few writes may hit the dead connection and be retried or
     shed, which is exactly the behaviour under test. *)
  let tr0', snapshot0' = listener ~port:8719 ~peer_port:8720 in
  let landed =
    wait_for ~timeout:15.0 (fun () ->
        ignore (Netkit.Transport.send sender ~dst:0 "reborn");
        Thread.delay 0.05;
        List.exists (fun (_, _, p) -> p = "reborn") (snapshot0' ()))
  in
  Alcotest.(check bool) "frame delivered to reborn endpoint" true landed;
  Alcotest.(check bool) "reconnect counted" true
    ((Netkit.Transport.metrics sender).Netkit.Transport.reconnects >= 1);
  Netkit.Transport.close sender;
  Netkit.Transport.close tr0'

let test_one_dead_peer_does_not_stall_others () =
  (* The per-peer channel redesign in one assertion: with peer 1 dead,
     sends to live peer 2 keep flowing immediately. *)
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8721 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8722 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8723 };
    |]
  in
  let received = ref 0 in
  let mu = Mutex.create () in
  let tr2 =
    Netkit.Transport.create ~me:2 ~peers
      ~on_frame:(fun ~src:_ ~lock:_ _ ->
        Mutex.lock mu;
        incr received;
        Mutex.unlock mu)
      ()
  in
  let tr0 =
    Netkit.Transport.create ~me:0 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  (* Flood the dead peer 1 first, then time deliveries to live peer 2. *)
  for k = 1 to 50 do
    ignore (Netkit.Transport.send tr0 ~dst:1 (Printf.sprintf "dead-%d" k))
  done;
  let t_start = Unix.gettimeofday () in
  for k = 1 to 20 do
    ignore (Netkit.Transport.send tr0 ~dst:2 (Printf.sprintf "live-%d" k))
  done;
  let all =
    wait_for (fun () ->
        Mutex.lock mu;
        let n = !received in
        Mutex.unlock mu;
        n >= 20)
  in
  let elapsed = Unix.gettimeofday () -. t_start in
  Netkit.Transport.close tr0;
  Netkit.Transport.close tr2;
  Alcotest.(check bool) "live peer got all frames" true all;
  Alcotest.(check bool)
    (Printf.sprintf "no head-of-line blocking through dead peer (%.3fs)"
       elapsed)
    true (elapsed < 2.0)

(* A stateful frame reader over a raw socket: coalesced flushes put
   many frames into one read, so the carry buffer must persist across
   frames. [next ()] returns None at EOF. *)
let frame_reader fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec need n =
    Buffer.length buf >= n
    ||
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | got ->
        Buffer.add_subbytes buf chunk 0 got;
        need n
  in
  let take n =
    let s = Buffer.contents buf in
    let h = String.sub s 0 n in
    Buffer.clear buf;
    Buffer.add_substring buf s n (String.length s - n);
    h
  in
  fun () ->
    if not (need 4) then None
    else
      let len = Int32.to_int (String.get_int32_be (take 4) 0) in
      if not (need len) then None
      else
        let body = take len in
        let h = Wire.Frame.decode_header body in
        Some
          ( h.Wire.Frame.kind,
            String.sub body h.Wire.Frame.payload_start
              (String.length body - h.Wire.Frame.payload_start) )

(* Regression for the old writer-thread start race: two sends racing
   the channel's first use could each decide to start a writer and
   open two connections. The reactor design leaves exactly one owner
   per peer; pin it by racing 8 threads' first sends at a raw
   accept-counting listener and counting connections and frames. *)
let test_no_double_connection () =
  let port = 8731 in
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (addr port);
  Unix.listen srv 16;
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port };
      { Netkit.Transport.host = "127.0.0.1"; port = 8732 };
    |]
  in
  let tr =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  let barrier = Atomic.make 0 in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < 8 do
              Thread.yield ()
            done;
            ignore (Netkit.Transport.send tr ~dst:0 (Printf.sprintf "race-%d" i)))
          ())
  in
  List.iter Thread.join threads;
  (* Count accepted connections and frames for a settling window. *)
  let conns = ref [] and payloads = ref [] in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec accept_loop () =
    let now = Unix.gettimeofday () in
    if now < deadline then begin
      match Unix.select [ srv ] [] [] (deadline -. now) with
      | [], _, _ -> accept_loop ()
      | _ ->
          let fd, _ = Unix.accept srv in
          conns := fd :: !conns;
          ignore
            (Thread.create
               (fun () ->
                 let next = frame_reader fd in
                 let rec drain () =
                   match next () with
                   | Some (Wire.Frame.Data, p) ->
                       payloads := p :: !payloads;
                       drain ()
                   | Some (Wire.Frame.Heartbeat, _) -> drain ()
                   | None -> ()
                   | exception _ -> ()
                 in
                 drain ())
               ());
          accept_loop ()
    end
  in
  accept_loop ();
  let all_in =
    wait_for (fun () -> List.length !payloads >= 8)
  in
  Netkit.Transport.close tr;
  List.iter (fun fd -> try Unix.close fd with _ -> ()) !conns;
  Unix.close srv;
  Alcotest.(check int) "exactly one connection for 8 racing first sends" 1
    (List.length !conns);
  Alcotest.(check bool) "all 8 racing frames arrived" true all_in;
  Alcotest.(check int) "no frame duplicated" 8
    (List.length (List.sort_uniq compare !payloads))

let test_partial_write_large_frames () =
  (* Frames far bigger than a socket buffer force the flush into
     partial writes; every byte must still arrive, in order. *)
  let tr, snapshot = listener ~port:8733 ~peer_port:8734 in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8733 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8734 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  let big i = String.make 524_288 (Char.chr (Char.code 'a' + i)) in
  Netkit.Transport.cork sender;
  for i = 0 to 5 do
    Alcotest.(check bool) "big frame accepted" true
      (Netkit.Transport.send sender ~dst:0 (big i))
  done;
  Netkit.Transport.uncork sender;
  let all_in = wait_for ~timeout:15.0 (fun () -> List.length (snapshot ()) >= 6) in
  let got = snapshot () in
  (* The sent counter settles on the reactor thread after the write
     syscall; the receiver can see every frame first. *)
  ignore
    (wait_for (fun () -> (Netkit.Transport.metrics sender).Netkit.Transport.sent >= 6));
  let m = Netkit.Transport.metrics sender in
  Netkit.Transport.close sender;
  Netkit.Transport.close tr;
  Alcotest.(check bool) "all six 512KB frames delivered" true all_in;
  List.iteri
    (fun i (_, _, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "frame %d intact and in order" i)
        true
        (String.length p = 524_288 && p.[0] = Char.chr (Char.code 'a' + i)))
    got;
  Alcotest.(check int) "none dropped" 0 m.Netkit.Transport.dropped;
  Alcotest.(check int) "all counted sent" 6 m.Netkit.Transport.sent

let test_cork_coalesces_multi_lock () =
  (* Frames for many lock instances sent inside one cork window ride
     fewer write syscalls than frames — and still arrive in enqueue
     order with their keys intact. *)
  let tr, snapshot = listener ~port:8735 ~peer_port:8736 in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8735 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8736 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  (* Establish the connection so the corked batch hits a live socket. *)
  ignore (Netkit.Transport.send sender ~dst:0 "warmup");
  Alcotest.(check bool) "warmup delivered" true
    (wait_for (fun () -> List.length (snapshot ()) >= 1));
  Netkit.Transport.cork sender;
  for i = 0 to 15 do
    ignore
      (Netkit.Transport.send sender ~dst:0
         ~lock:(Printf.sprintf "shard-%d" (i mod 4))
         (Printf.sprintf "m-%02d" i))
  done;
  Netkit.Transport.uncork sender;
  let all_in = wait_for (fun () -> List.length (snapshot ()) >= 17) in
  let got = snapshot () in
  (* The sent counter settles on the reactor thread after the write
     syscall; the receiver can see every frame first. *)
  ignore
    (wait_for (fun () ->
         (Netkit.Transport.metrics sender).Netkit.Transport.sent >= 17));
  let m = Netkit.Transport.metrics sender in
  Netkit.Transport.close sender;
  Netkit.Transport.close tr;
  Alcotest.(check bool) "warmup + 16 corked frames delivered" true all_in;
  Alcotest.(check int) "all counted sent" 17 m.Netkit.Transport.sent;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced: %d flushes for %d frames"
       m.Netkit.Transport.flushes m.Netkit.Transport.sent)
    true
    (m.Netkit.Transport.flushes < m.Netkit.Transport.sent);
  let batch = List.filteri (fun i _ -> i >= 1) got in
  List.iteri
    (fun i (_, lock, p) ->
      Alcotest.(check string)
        (Printf.sprintf "frame %d in enqueue order" i)
        (Printf.sprintf "m-%02d" i) p;
      Alcotest.(check string)
        (Printf.sprintf "frame %d key intact" i)
        (Printf.sprintf "shard-%d" (i mod 4))
        lock)
    batch

let test_send_after_drained_ring () =
  (* An empty ring between sends must not wedge the reactor: a frame
     sent after the ring has drained still lands. *)
  let tr, snapshot = listener ~port:8737 ~peer_port:8738 in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8737 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8738 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  ignore (Netkit.Transport.send sender ~dst:0 "first");
  Alcotest.(check bool) "first frame delivered" true
    (wait_for (fun () -> List.mem (1, "", "first") (snapshot ())));
  (* Let the ring drain completely, then prove the loop still runs. *)
  Thread.delay 0.2;
  ignore (Netkit.Transport.send sender ~dst:0 "second");
  Alcotest.(check bool) "second frame delivered after idle ring" true
    (wait_for (fun () -> List.mem (1, "", "second") (snapshot ())));
  ignore
    (wait_for (fun () -> (Netkit.Transport.metrics sender).Netkit.Transport.sent >= 2));
  let m = Netkit.Transport.metrics sender in
  Netkit.Transport.close sender;
  Netkit.Transport.close tr;
  Alcotest.(check int) "nothing dropped" 0 m.Netkit.Transport.dropped;
  Alcotest.(check int) "both counted sent" 2 m.Netkit.Transport.sent

(* A sender on [port + 1] sharing [fault] with the test, aimed at a
   [listener] on [port], with the connection already established. *)
let faulty_pair ~port fault =
  let tr, snapshot = listener ~port ~peer_port:(port + 1) in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port };
      { Netkit.Transport.host = "127.0.0.1"; port = port + 1 };
    |]
  in
  let sender =
    Netkit.Transport.create ~fault ~me:1 ~peers
      ~on_frame:(fun ~src:_ ~lock:_ _ -> ())
      ()
  in
  ignore (Netkit.Transport.send sender ~dst:0 "warmup");
  Alcotest.(check bool) "warmup delivered" true
    (wait_for (fun () -> List.mem (1, "", "warmup") (snapshot ())));
  ignore
    (wait_for (fun () ->
         (Netkit.Transport.metrics sender).Netkit.Transport.sent >= 1));
  (tr, snapshot, sender)

let test_crashed_peer_drops () =
  (* A frame to a peer severed by [Fault.crash] is eaten at send time:
     accepted, counted dropped, never delivered. *)
  let fault = Netkit.Fault.create () in
  let tr, snapshot, sender = faulty_pair ~port:8745 fault in
  Netkit.Fault.crash fault 0;
  Alcotest.(check bool) "send to a crashed peer reports success" true
    (Netkit.Transport.send sender ~dst:0 "to-the-dead");
  Thread.delay 0.2;
  let m = Netkit.Transport.metrics sender in
  Netkit.Transport.close sender;
  Netkit.Transport.close tr;
  Alcotest.(check int) "counted dropped" 1 m.Netkit.Transport.dropped;
  Alcotest.(check int) "only the warmup counted sent" 1 m.Netkit.Transport.sent;
  Alcotest.(check bool) "never delivered" false
    (List.mem (1, "", "to-the-dead") (snapshot ()))

let test_partition_inside_cork () =
  (* A partition that lands after the send but before the flush: the
     frame passed the send-time check, so only the reactor's re-check
     when it serializes the ring can drop it. *)
  let fault = Netkit.Fault.create () in
  let tr, snapshot, sender = faulty_pair ~port:8747 fault in
  Netkit.Transport.cork sender;
  Alcotest.(check bool) "send accepted while connected" true
    (Netkit.Transport.send sender ~dst:0 "cut-off");
  Netkit.Fault.partition fault [ [ 0 ]; [ 1 ] ];
  Netkit.Transport.uncork sender;
  Alcotest.(check bool) "dropped at flush time" true
    (wait_for (fun () ->
         (Netkit.Transport.metrics sender).Netkit.Transport.dropped >= 1));
  Thread.delay 0.2;
  let m = Netkit.Transport.metrics sender in
  Netkit.Transport.close sender;
  Netkit.Transport.close tr;
  Alcotest.(check int) "one frame dropped" 1 m.Netkit.Transport.dropped;
  Alcotest.(check int) "only the warmup counted sent" 1 m.Netkit.Transport.sent;
  Alcotest.(check bool) "never delivered" false
    (List.mem (1, "", "cut-off") (snapshot ()))

let test_loss_probability_validated () =
  (* A loss probability outside [0, 1] (or NaN) is a usage error, not
     a silent "drop everything" or "drop nothing". *)
  let tr, _snapshot = listener ~port:8749 ~peer_port:8750 in
  let rejected p =
    match Netkit.Transport.set_loss tr p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let bad = List.filter (fun p -> not (rejected p)) [ 1.5; -0.1; Float.nan ] in
  let good = List.filter rejected [ 0.0; 0.3; 1.0 ] in
  Netkit.Transport.close tr;
  Alcotest.(check (list (float 0.0))) "out-of-range values rejected" [] bad;
  Alcotest.(check (list (float 0.0))) "probabilities accepted" [] good

let test_reconnect_preserves_pending_ring () =
  (* Frames queued against a not-yet-listening endpoint must survive
     the failed connect attempts and all land, in order, once the
     endpoint appears — no loss, no duplication, nothing shed. *)
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8739 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8740 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  for i = 1 to 20 do
    Alcotest.(check bool) "frame to dead endpoint accepted" true
      (Netkit.Transport.send sender ~dst:0 (Printf.sprintf "pending-%02d" i))
  done;
  Thread.delay 0.2;
  let tr, snapshot = listener ~port:8739 ~peer_port:8740 in
  let all_in =
    wait_for ~timeout:15.0 (fun () -> List.length (snapshot ()) >= 20)
  in
  let got = snapshot () in
  ignore
    (wait_for (fun () ->
         (Netkit.Transport.metrics sender).Netkit.Transport.sent >= 20));
  let m = Netkit.Transport.metrics sender in
  Netkit.Transport.close sender;
  Netkit.Transport.close tr;
  Alcotest.(check bool) "all 20 queued frames delivered" true all_in;
  List.iteri
    (fun i (_, _, p) ->
      Alcotest.(check string)
        (Printf.sprintf "frame %d in order" i)
        (Printf.sprintf "pending-%02d" (i + 1))
        p)
    got;
  Alcotest.(check int) "nothing dropped" 0 m.Netkit.Transport.dropped;
  Alcotest.(check int) "exactly 20 sent" 20 m.Netkit.Transport.sent;
  Alcotest.(check bool) "failed connects counted as retries" true
    (m.Netkit.Transport.retries >= 1)

let test_retire_mid_cork () =
  (* A peer excised by a view change while the sender is inside a cork
     window: everything latched for it must be shed at uncork — never
     requeued toward the dead ring, never delivered — and reviving the
     slot (a rejoin) must flow cleanly again. *)
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 8741 };
      { Netkit.Transport.host = "127.0.0.1"; port = 8742 };
    |]
  in
  let sender =
    Netkit.Transport.create ~me:0 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ())
      ()
  in
  let tr, snapshot =
    let received = ref [] in
    let mu = Mutex.create () in
    let tr =
      Netkit.Transport.create ~me:1 ~peers
        ~on_frame:(fun ~src ~lock:_ payload ->
          Mutex.lock mu;
          received := (src, payload) :: !received;
          Mutex.unlock mu)
        ()
    in
    ( tr,
      fun () ->
        Mutex.lock mu;
        let l = List.rev !received in
        Mutex.unlock mu;
        l )
  in
  (* Warm the connection up so the corked frames would otherwise fly. *)
  Alcotest.(check bool) "warm-up send accepted" true
    (Netkit.Transport.send sender ~dst:1 "warm-up");
  Alcotest.(check bool) "warm-up delivered" true
    (wait_for (fun () -> List.exists (fun (_, p) -> p = "warm-up") (snapshot ())));
  Netkit.Transport.cork sender;
  Alcotest.(check bool) "corked send accepted" true
    (Netkit.Transport.send sender ~dst:1 "corked-then-retired");
  Netkit.Transport.retire_peer sender ~dst:1;
  Netkit.Transport.uncork sender;
  Alcotest.(check bool) "retired flag set" true
    (Netkit.Transport.peer_retired sender ~dst:1);
  let shed =
    wait_for (fun () ->
        (Netkit.Transport.metrics sender).Netkit.Transport.dropped >= 1)
  in
  Alcotest.(check bool) "corked frame shed on retire" true shed;
  (* Sends to a retired slot are shed silently (like chaos loss). *)
  Alcotest.(check bool) "send to retired slot accepted-and-shed" true
    (Netkit.Transport.send sender ~dst:1 "into-the-void");
  (* Revive the slot — the rejoin path — and prove traffic flows. *)
  Netkit.Transport.add_peer sender ~dst:1 ~host:"127.0.0.1" ~port:8742;
  Alcotest.(check bool) "send after revive accepted" true
    (Netkit.Transport.send sender ~dst:1 "after-revive");
  let revived =
    wait_for (fun () ->
        List.exists (fun (_, p) -> p = "after-revive") (snapshot ()))
  in
  Alcotest.(check bool) "frame delivered after revive" true revived;
  Alcotest.(check bool) "retired frames never delivered" false
    (List.exists
       (fun (_, p) -> p = "corked-then-retired" || p = "into-the-void")
       (snapshot ()));
  Netkit.Transport.close sender;
  Netkit.Transport.close tr

let test_add_peer_mid_cork () =
  (* The opposite race: a peer added (view commit) inside a cork
     window. Frames sent to the brand-new slot while still corked must
     be flushed by the uncork like any other latched send. *)
  let sender =
    Netkit.Transport.create ~me:0
      ~peers:[| { Netkit.Transport.host = "127.0.0.1"; port = 8743 } |]
      ~on_frame:(fun ~src:_ ~lock:_ _ -> ())
      ()
  in
  let tr, snapshot =
    let received = ref [] in
    let mu = Mutex.create () in
    let peers =
      [|
        { Netkit.Transport.host = "127.0.0.1"; port = 8743 };
        { Netkit.Transport.host = "127.0.0.1"; port = 8744 };
      |]
    in
    let tr =
      Netkit.Transport.create ~me:1 ~peers
        ~on_frame:(fun ~src ~lock payload ->
          Mutex.lock mu;
          received := (src, lock, payload) :: !received;
          Mutex.unlock mu)
        ()
    in
    ( tr,
      fun () ->
        Mutex.lock mu;
        let l = List.rev !received in
        Mutex.unlock mu;
        l )
  in
  Netkit.Transport.cork sender;
  (* The slot does not exist yet: out-of-table sends are refused... *)
  Alcotest.(check bool) "send before add_peer refused" false
    (Netkit.Transport.send sender ~dst:1 "too-early");
  (* ...until the view commit installs it, mid-cork. *)
  Netkit.Transport.add_peer sender ~dst:1 ~host:"127.0.0.1" ~port:8744;
  Alcotest.(check bool) "send to fresh slot accepted" true
    (Netkit.Transport.send sender ~dst:1 "corked-to-newcomer");
  Netkit.Transport.uncork sender;
  let delivered =
    wait_for (fun () ->
        List.exists
          (fun (_, _, p) -> p = "corked-to-newcomer")
          (snapshot ()))
  in
  Alcotest.(check bool) "corked frame flushed to added peer" true delivered;
  Netkit.Transport.close sender;
  Netkit.Transport.close tr

let suite =
  ( "transport",
    [
      Alcotest.test_case "oversized length header" `Quick test_oversized_length;
      Alcotest.test_case "negative length header" `Quick test_negative_length;
      Alcotest.test_case "short (<header) frame" `Quick test_short_frame;
      Alcotest.test_case "unknown frame kind" `Quick test_bad_frame_kind;
      Alcotest.test_case "truncated lock key" `Quick test_truncated_lock_key;
      Alcotest.test_case "frame format version mismatch" `Quick
        test_version_mismatch;
      Alcotest.test_case "lock key demultiplexing" `Quick test_lock_key_demux;
      Alcotest.test_case "out-of-range sender id" `Quick test_bad_sender_id;
      Alcotest.test_case "beyond-table sender id delivered" `Quick
        test_joiner_sender_id;
      Alcotest.test_case "peer retired mid-cork" `Quick test_retire_mid_cork;
      Alcotest.test_case "peer added mid-cork" `Quick test_add_peer_mid_cork;
      Alcotest.test_case "partial header then disconnect" `Quick
        test_partial_header_disconnect;
      Alcotest.test_case "mid-frame disconnect" `Quick
        test_mid_frame_disconnect;
      Alcotest.test_case "unreachable peer: retry then shed" `Slow
        test_unreachable_peer_sheds;
      Alcotest.test_case "chaos loss counted as dropped" `Quick
        test_chaos_loss_counted;
      Alcotest.test_case "reconnect after endpoint restart" `Slow
        test_reconnect_after_close;
      Alcotest.test_case "dead peer cannot stall live peers" `Quick
        test_one_dead_peer_does_not_stall_others;
      Alcotest.test_case "racing first sends open one connection" `Quick
        test_no_double_connection;
      Alcotest.test_case "partial writes on oversized frames" `Quick
        test_partial_write_large_frames;
      Alcotest.test_case "cork coalesces multi-lock frames" `Quick
        test_cork_coalesces_multi_lock;
      Alcotest.test_case "send after drained ring lands" `Quick
        test_send_after_drained_ring;
      Alcotest.test_case "crashed peer: frame dropped" `Quick
        test_crashed_peer_drops;
      Alcotest.test_case "partition inside cork drops at flush" `Quick
        test_partition_inside_cork;
      Alcotest.test_case "loss probability validated" `Quick
        test_loss_probability_validated;
      Alcotest.test_case "reconnect preserves pending ring" `Slow
        test_reconnect_preserves_pending_ring;
    ] )
