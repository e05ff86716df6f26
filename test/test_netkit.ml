(* End-to-end over real loopback TCP: the same protocol state machine
   behind sockets, threads and wall-clock timers. *)

module Cluster = Netkit.Cluster.Make (Dmutex.Basic) (Wire.Protocol_codec)
module RCluster = Netkit.Cluster.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let fast_cfg n =
  { (Dmutex.Basic.config ~n ()) with
    Dmutex.Types.Config.t_collect = 0.02;
    t_forward = 0.02 }

let test_mutual_exclusion_counter () =
  let n = 4 and rounds = 15 in
  let cluster = Cluster.launch ~base_port:7911 (fast_cfg n) in
  let counter = ref 0 in
  let failures = ref 0 in
  let worker i () =
    for _ = 1 to rounds do
      match
        Cluster.Node.with_lock ~timeout:30.0 (Cluster.node cluster i)
          (fun () ->
            let v = !counter in
            Thread.delay 0.001;
            counter := v + 1)
      with
      | Some () -> ()
      | None -> incr failures
    done
  in
  let threads = List.init n (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Cluster.shutdown cluster;
  Alcotest.(check int) "no timeouts" 0 !failures;
  Alcotest.(check int) "no lost increments" (n * rounds) !counter

let test_single_node_holding () =
  let cluster = Cluster.launch ~base_port:7931 (fast_cfg 3) in
  let node = Cluster.node cluster 1 in
  Alcotest.(check bool) "not holding initially" false
    (Cluster.Node.holding node);
  let r =
    Cluster.Node.with_lock ~timeout:10.0 node (fun () ->
        Cluster.Node.holding node)
  in
  Alcotest.(check (option bool)) "holding inside" (Some true) r;
  (* Release happened; lock is reacquirable. *)
  let r2 = Cluster.Node.with_lock ~timeout:10.0 node (fun () -> 42) in
  Alcotest.(check (option int)) "reacquire" (Some 42) r2;
  Alcotest.(check bool) "messages flowed" true
    (Cluster.Node.messages_sent node > 0);
  Cluster.shutdown cluster

let test_sequential_handoff () =
  (* The token visits each node in turn. *)
  let n = 3 in
  let cluster = Cluster.launch ~base_port:7951 (fast_cfg n) in
  let visited = ref [] in
  for round = 0 to 2 do
    for i = 0 to n - 1 do
      match
        Cluster.Node.with_lock ~timeout:20.0 (Cluster.node cluster i)
          (fun () -> visited := (round, i) :: !visited)
      with
      | Some () -> ()
      | None -> Alcotest.failf "round %d node %d timed out" round i
    done
  done;
  Cluster.shutdown cluster;
  Alcotest.(check int) "nine grants" 9 (List.length !visited)

let test_transport_unreachable_peer () =
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 7971 };
      { Netkit.Transport.host = "127.0.0.1"; port = 7972 };
    |]
  in
  let tr =
    Netkit.Transport.create ~me:0 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  (* Peer 1 never started: the frame is accepted (the writer thread
     retries and eventually sheds it in the background) instead of
     raising or blocking. *)
  Alcotest.(check bool) "send to dead peer accepted" true
    (Netkit.Transport.send tr ~dst:1 "hello");
  Alcotest.(check bool) "self-send refused" false
    (Netkit.Transport.send tr ~dst:0 "self");
  Netkit.Transport.close tr;
  (* Closing twice is fine, and a closed transport refuses sends. *)
  Netkit.Transport.close tr;
  Alcotest.(check bool) "send after close refused" false
    (Netkit.Transport.send tr ~dst:1 "late")

let test_transport_roundtrip () =
  let received = ref [] in
  let mutex = Mutex.create () in
  let peers =
    [|
      { Netkit.Transport.host = "127.0.0.1"; port = 7981 };
      { Netkit.Transport.host = "127.0.0.1"; port = 7982 };
    |]
  in
  let t0 =
    Netkit.Transport.create ~me:0 ~peers
      ~on_frame:(fun ~src ~lock:_ payload ->
        Mutex.lock mutex;
        received := (src, payload) :: !received;
        Mutex.unlock mutex)
      ()
  in
  let t1 =
    Netkit.Transport.create ~me:1 ~peers ~on_frame:(fun ~src:_ ~lock:_ _ -> ()) ()
  in
  Alcotest.(check bool) "send ok" true (Netkit.Transport.send t1 ~dst:0 "ping");
  Alcotest.(check bool) "empty frame ok" true (Netkit.Transport.send t1 ~dst:0 "");
  let big = String.make 100_000 'x' in
  Alcotest.(check bool) "large frame ok" true (Netkit.Transport.send t1 ~dst:0 big);
  (* Wait for delivery. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    Mutex.lock mutex;
    let n = List.length !received in
    Mutex.unlock mutex;
    if n < 3 && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.01;
      wait ()
    end
  in
  wait ();
  Netkit.Transport.close t0;
  Netkit.Transport.close t1;
  let got = List.rev !received in
  Alcotest.(check int) "three frames" 3 (List.length got);
  List.iter
    (fun (src, _) -> Alcotest.(check int) "src id" 1 src)
    got;
  Alcotest.(check (list string)) "payloads in order" [ "ping"; ""; big ]
    (List.map snd got)

let test_crash_tolerance_tcp () =
  (* Resilient variant over TCP: kill a node; the others keep making
     progress thanks to Section 6 recovery. *)
  let n = 4 in
  let cfg =
    { (Dmutex.Resilient.config ~token_timeout:0.8 ~enquiry_timeout:0.4
         ~arbiter_timeout:1.2 ~n ()) with
      Dmutex.Types.Config.t_collect = 0.02;
      t_forward = 0.02 }
  in
  let cluster = RCluster.launch ~base_port:8001 cfg in
  (* Warm up: one grant each. *)
  for i = 0 to n - 1 do
    match
      RCluster.Node.with_lock ~timeout:20.0 (RCluster.node cluster i)
        (fun () -> ())
    with
    | Some () -> ()
    | None -> Alcotest.failf "warmup: node %d timed out" i
  done;
  (* Crash node 3 (possibly while idle — its role is unknowable from
     outside, which is the point of the drill). *)
  RCluster.crash cluster 3;
  let ok = ref 0 in
  for round = 1 to 5 do
    for i = 0 to n - 2 do
      match
        RCluster.Node.with_lock ~timeout:30.0 (RCluster.node cluster i)
          (fun () -> incr ok)
      with
      | Some () -> ()
      | None -> Alcotest.failf "round %d node %d timed out after crash" round i
    done
  done;
  RCluster.shutdown cluster;
  Alcotest.(check int) "survivors kept acquiring" 15 !ok

let test_lossy_tcp () =
  (* Resilient variant over TCP with 5% outgoing-frame loss on every
     node: the Section 6 machinery must keep the lock usable. *)
  let n = 3 in
  let cfg =
    { (Dmutex.Resilient.config ~token_timeout:0.5 ~enquiry_timeout:0.3
         ~arbiter_timeout:0.8 ~n ()) with
      Dmutex.Types.Config.t_collect = 0.02;
      t_forward = 0.02;
      retry_timeout = 0.3 }
  in
  let cluster = RCluster.launch ~base_port:8101 cfg in
  for i = 0 to n - 1 do
    RCluster.Node.set_loss (RCluster.node cluster i) 0.05
  done;
  let ok = ref 0 in
  for _round = 1 to 4 do
    for i = 0 to n - 1 do
      match
        RCluster.Node.with_lock ~timeout:30.0 (RCluster.node cluster i)
          (fun () -> incr ok)
      with
      | Some () -> ()
      | None -> () (* a timeout under loss is tolerated; count below *)
    done
  done;
  RCluster.shutdown cluster;
  Alcotest.(check bool)
    (Printf.sprintf "most acquisitions succeed under loss (%d/12)" !ok)
    true (!ok >= 10)

(* ------------------------------------------------------------------ *)
(* Lock namespace validation and multi-lock transactions *)

let test_launch_rejects_bad_lock_lists () =
  (* A duplicate key would silently alias two protocol instances; an
     empty list leaves the node with nothing to serve. Both must be
     rejected before any socket is bound. *)
  (match Cluster.launch ~base_port:7971 ~locks:[ "a"; "b"; "a" ] (fast_cfg 2) with
  | c ->
      Cluster.shutdown c;
      Alcotest.fail "duplicate lock list must be rejected"
  | exception Invalid_argument _ -> ());
  match Cluster.launch ~base_port:7973 ~locks:[] (fast_cfg 2) with
  | c ->
      Cluster.shutdown c;
      Alcotest.fail "empty lock list must be rejected"
  | exception Invalid_argument _ -> ()

let test_acquire_all_validates () =
  let cluster = Cluster.launch ~base_port:7975 ~locks:[ "a"; "b" ] (fast_cfg 2) in
  let node = Cluster.node cluster 0 in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      (match Cluster.Node.acquire_all ~locks:[] node with
      | _ -> Alcotest.fail "empty lock set must be rejected"
      | exception Invalid_argument _ -> ());
      (match
         Cluster.Node.acquire_all
           ~locks:
             [ ("a", Dmutex.Types.Exclusive); ("a", Dmutex.Types.Shared) ]
           node
       with
      | _ -> Alcotest.fail "duplicate key must be rejected"
      | exception Invalid_argument _ -> ());
      (* A valid set works end-to-end and releases cleanly. *)
      match
        Cluster.Node.with_locks ~timeout:20.0
          ~locks:[ ("b", Dmutex.Types.Exclusive); ("a", Dmutex.Types.Exclusive) ]
          node
          (fun () ->
            Cluster.Node.holding ~lock:"a" node
            && Cluster.Node.holding ~lock:"b" node)
      with
      | Some true ->
          Alcotest.(check bool) "released a" false
            (Cluster.Node.holding ~lock:"a" node);
          Alcotest.(check bool) "released b" false
            (Cluster.Node.holding ~lock:"b" node)
      | Some false -> Alcotest.fail "not holding both inside with_locks"
      | None -> Alcotest.fail "with_locks timed out on an idle cluster")

let test_with_locks_transactions () =
  (* Concurrent two-lock transactions from every node, each passing
     the lock set in a different order: canonical acquisition must
     keep them deadlock-free, and atomicity must keep two counters
     (one guarded by each lock, always updated together) in step. *)
  let n = 3 and rounds = 6 in
  let cluster =
    Cluster.launch ~base_port:7977 ~locks:[ "acct-a"; "acct-b" ] (fast_cfg n)
  in
  let ca = ref 0 and cb = ref 0 in
  let drift = ref 0 and timeouts = ref 0 in
  let worker i () =
    for r = 1 to rounds do
      let locks =
        (* Scrambled order per (node, round): with_locks must sort. *)
        if (i + r) mod 2 = 0 then
          [ ("acct-a", Dmutex.Types.Exclusive); ("acct-b", Dmutex.Types.Exclusive) ]
        else
          [ ("acct-b", Dmutex.Types.Exclusive); ("acct-a", Dmutex.Types.Exclusive) ]
      in
      match
        Cluster.with_locks ~timeout:60.0 ~locks cluster i (fun () ->
            let a = !ca and b = !cb in
            if a <> b then incr drift;
            Thread.delay 0.002;
            ca := a + 1;
            cb := b + 1)
      with
      | Some () -> ()
      | None -> incr timeouts
    done
  in
  let threads = List.init n (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Cluster.shutdown cluster;
  Alcotest.(check int) "no transaction timeouts" 0 !timeouts;
  Alcotest.(check int) "counters never observed apart" 0 !drift;
  Alcotest.(check int) "every transaction committed" (n * rounds) !ca;
  Alcotest.(check int) "both counters advanced in step" !ca !cb

module PCluster = Netkit.Cluster.Make (Dmutex.Prioritized) (Wire.Protocol_codec)

let test_prioritized_rw_keyed () =
  (* The read-write policy under the keyed namespace: one Prioritized
     cluster hosting two locks. Per lock, two reader nodes hammer
     shared acquisitions while node 0 interleaves exclusive rounds —
     writer priority must serve every writer round despite the reader
     flood (the starvation pin, live), shared grants on at least one
     lock must actually overlap (batching), and a writer must never
     overlap anyone. *)
  let n = 3 and writer_rounds = 4 and reader_rounds = 10 in
  let cfg =
    {
      (Dmutex.Prioritized.rw_config ~n ()) with
      Dmutex.Types.Config.t_collect = 0.02;
      t_forward = 0.02;
    }
  in
  let locks = [ "ra"; "rb" ] in
  let cluster = PCluster.launch ~base_port:7985 ~locks cfg in
  let history = Dmutex.History.create () in
  let failures = Atomic.make 0 in
  let reader i l () =
    for _ = 1 to reader_rounds do
      match
        PCluster.Node.with_lock ~timeout:60.0 ~lock:l ~mode:Dmutex.Types.Shared
          (PCluster.node cluster i)
          (fun () ->
            Test_chaos.in_cs ~mode:Dmutex.Types.Shared history ~lock:l
              ~holder:i (fun () -> Thread.delay 0.004))
      with
      | Some () -> ()
      | None -> Atomic.incr failures
    done
  in
  let writer_done = List.map (fun l -> (l, ref 0)) locks in
  let writer () =
    for _ = 1 to writer_rounds do
      List.iter
        (fun l ->
          match
            PCluster.Node.with_lock ~timeout:60.0 ~lock:l
              (PCluster.node cluster 0)
              (Test_chaos.hold history ~lock:l ~holder:0)
          with
          | Some () -> incr (List.assoc l writer_done)
          | None -> Atomic.incr failures)
        locks
    done
  in
  let threads =
    Thread.create writer ()
    :: List.concat_map
         (fun l -> [ Thread.create (reader 1 l) (); Thread.create (reader 2 l) () ])
         locks
  in
  List.iter Thread.join threads;
  PCluster.shutdown cluster;
  Alcotest.(check int) "no acquisition timeouts" 0 (Atomic.get failures);
  Test_chaos.check_safe history;
  List.iter
    (fun (l, d) ->
      Alcotest.(check int)
        (Printf.sprintf "writer never starved on %s" l)
        writer_rounds !d)
    writer_done;
  (* Batching is timing-dependent per lock, but across 2 locks x 10
     rounds of paired readers at least one shared overlap must occur. *)
  let batched =
    List.exists
      (fun (_, (l : Dmutex.History.lock_report)) -> l.peak_shared >= 2)
      (Dmutex.History.report history).locks
  in
  Alcotest.(check bool) "some shared grants overlapped" true batched

module RNode = Netkit.Node_runner.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let test_single_membership_gate () =
  (* Node 3's committed view excludes node 2, which was excised while it
     held node 1's REQUEST and relays it over the wire. The protocol's
     membership gate is the only one a live node runs: the relayed
     request reaches the protocol (node 3 passes it on to its arbiter),
     while a NEW-ARBITER from the same non-member is dropped and counted
     in [dmutex_unknown_peer_total]. *)
  let open Dmutex in
  let n = 4 in
  let cfg = Resilient.config ~n () in
  let peers =
    Array.init n (fun i ->
        { Netkit.Transport.host = "127.0.0.1"; port = 8751 + i })
  in
  let reg = Dmutex_obs.Registry.create () in
  let node = RNode.create ~obs:reg cfg ~me:3 ~peers () in
  let view =
    {
      Protocol.vnum = 1;
      vmembers = List.map (fun mid -> { Protocol.mid; maddr = "" }) [ 0; 1; 3 ];
    }
  in
  RNode.inject node
    (Types.Receive
       ( 0,
         Protocol.View_change
           {
             vc_view = view;
             vc_commit = true;
             vc_granted = Qlist.Granted.create n;
             vc_epoch = 0;
             vc_election = 0;
             vc_arbiter = 0;
           } ));
  Alcotest.(check (list int)) "committed view excludes node 2" [ 0; 1; 3 ]
    (List.sort compare (List.map fst (RNode.membership node)));
  let unknown =
    Dmutex_obs.Registry.Counter.get reg Dmutex_obs.Names.unknown_peer_total
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", peers.(3).port));
  let send_as_2 m =
    let body =
      Wire.Frame.encode_header ~src:2 ~lock:RNode.default_lock Wire.Frame.Data
      ^ Wire.Protocol_codec.encode m
    in
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (String.length body));
    let frame = Bytes.cat len (Bytes.of_string body) in
    ignore (Unix.write fd frame 0 (Bytes.length frame))
  in
  let wait_for pred =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    pred ()
  in
  send_as_2 (Protocol.Request (Qlist.entry ~node:1 ~seq:0 ()));
  let relayed =
    wait_for (fun () -> RNode.note_count node "stash-forwarded" > 0)
  in
  Alcotest.(check bool) "member's request reached the protocol" true relayed;
  Alcotest.(check int) "nothing counted as unknown-peer" 0
    (Dmutex_obs.Registry.Counter.value unknown);
  let st = RNode.state node in
  send_as_2
    (Protocol.New_arbiter
       {
         na_arbiter = 2;
         na_q = [];
         na_granted = Qlist.Granted.create n;
         na_counter = 0;
         na_monitor = -1;
         na_epoch = 0;
         na_election = st.Protocol.election + 1;
         na_view = view;
       });
  let counted =
    wait_for (fun () -> Dmutex_obs.Registry.Counter.value unknown > 0)
  in
  Unix.close fd;
  RNode.shutdown node;
  Alcotest.(check bool) "non-member's NEW-ARBITER counted" true counted;
  Alcotest.(check int) "counted once" 1
    (Dmutex_obs.Registry.Counter.value unknown);
  Alcotest.(check int) "dropped by the protocol's gate" 1
    (RNode.note_count node "nonmember-dropped");
  Alcotest.(check int) "arbiter unchanged" 0 (RNode.state node).Protocol.arbiter

let suite =
  ( "netkit",
    [
      Alcotest.test_case "TCP counter mutual exclusion" `Slow
        test_mutual_exclusion_counter;
      Alcotest.test_case "hold and reacquire" `Quick test_single_node_holding;
      Alcotest.test_case "sequential hand-off" `Slow test_sequential_handoff;
      Alcotest.test_case "unreachable peer" `Quick
        test_transport_unreachable_peer;
      Alcotest.test_case "transport roundtrip + framing" `Quick
        test_transport_roundtrip;
      Alcotest.test_case "crash tolerance over TCP" `Slow
        test_crash_tolerance_tcp;
      Alcotest.test_case "5% frame loss over TCP" `Slow test_lossy_tcp;
      Alcotest.test_case "launch rejects duplicate/empty lock lists" `Quick
        test_launch_rejects_bad_lock_lists;
      Alcotest.test_case "acquire_all validates its lock set" `Quick
        test_acquire_all_validates;
      Alcotest.test_case "multi-lock transactions stay atomic" `Slow
        test_with_locks_transactions;
      Alcotest.test_case "rw policy under the keyed namespace" `Slow
        test_prioritized_rw_keyed;
      Alcotest.test_case "one membership gate on a live node" `Quick
        test_single_membership_gate;
    ] )
