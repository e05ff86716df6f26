(* Message-level unit tests of the baseline state machines, mirroring
   test_protocol.ml: each algorithm's individual transitions, not just
   its end-to-end metrics. *)

open Dmutex.Types

let cfg = Config.default ~n:4

let sends effs =
  List.filter_map
    (function Send (dst, m) -> Some (dst, m) | _ -> None)
    effs

let broadcasts effs =
  List.filter_map (function Broadcast m -> Some m | _ -> None) effs

let has_enter effs = List.exists (function Enter_cs -> true | _ -> false) effs

(* --------------------------- central server ---------------------- *)

module CS = Baselines.Central_server

let test_central_grant_queue () =
  (* Server grants the first request, queues the second, grants it on
     release. *)
  let server = CS.init cfg 0 in
  let server, effs = CS.handle cfg ~now:0.0 server (Receive (1, CS.Request)) in
  Alcotest.(check bool) "grant to 1" true
    (sends effs = [ (1, CS.Grant) ]);
  let server, effs = CS.handle cfg ~now:0.0 server (Receive (2, CS.Request)) in
  Alcotest.(check int) "2 queued, nothing sent" 0 (List.length (sends effs));
  let _, effs = CS.handle cfg ~now:0.0 server (Receive (1, CS.Release)) in
  Alcotest.(check bool) "grant to 2 on release" true
    (sends effs = [ (2, CS.Grant) ])

let test_central_server_self () =
  (* The server itself enters directly and releases locally. *)
  let server = CS.init cfg 0 in
  let server, effs = CS.handle cfg ~now:0.0 server Request_cs in
  Alcotest.(check bool) "server enters own CS" true (has_enter effs);
  let server, effs = CS.handle cfg ~now:0.0 server (Receive (3, CS.Request)) in
  Alcotest.(check int) "3 must wait" 0 (List.length (sends effs));
  let _, effs = CS.handle cfg ~now:0.0 server Cs_done in
  Alcotest.(check bool) "grant to 3 after own CS" true
    (sends effs = [ (3, CS.Grant) ])

(* --------------------------- suzuki-kasami ----------------------- *)

module SK = Baselines.Suzuki_kasami

let test_sk_request_broadcast () =
  let st = SK.init cfg 2 in
  let _, effs = SK.handle cfg ~now:0.0 st Request_cs in
  match broadcasts effs with
  | [ SK.Request { j = 2; sn = 1 } ] -> ()
  | _ -> Alcotest.fail "expected broadcast REQUEST(2,1)"

let test_sk_holder_enters_directly () =
  let st = SK.init cfg 0 in
  let st, effs = SK.handle cfg ~now:0.0 st Request_cs in
  Alcotest.(check bool) "holder enters with zero messages" true
    (has_enter effs && sends effs = [] && broadcasts effs = []);
  ignore st

let test_sk_idle_holder_hands_over () =
  let st = SK.init cfg 0 in
  let _, effs =
    SK.handle cfg ~now:0.0 st (Receive (3, SK.Request { j = 3; sn = 1 }))
  in
  match sends effs with
  | [ (3, SK.Token _) ] -> ()
  | _ -> Alcotest.fail "idle holder must send the token"

let test_sk_stale_request_ignored () =
  let st = SK.init cfg 0 in
  let st, _ =
    SK.handle cfg ~now:0.0 st (Receive (3, SK.Request { j = 3; sn = 1 }))
  in
  (* Token gone; duplicate (stale) request must not send a second
     token (there is none) nor crash. *)
  let _, effs =
    SK.handle cfg ~now:0.0 st (Receive (3, SK.Request { j = 3; sn = 1 }))
  in
  Alcotest.(check int) "stale request ignored" 0 (List.length (sends effs))

let test_sk_queue_append_on_exit () =
  let st = SK.init cfg 0 in
  let st, _ = SK.handle cfg ~now:0.0 st Request_cs in
  (* requests from 1 and 2 arrive while 0 is in CS *)
  let st, _ =
    SK.handle cfg ~now:0.0 st (Receive (1, SK.Request { j = 1; sn = 1 }))
  in
  let st, _ =
    SK.handle cfg ~now:0.0 st (Receive (2, SK.Request { j = 2; sn = 1 }))
  in
  let _, effs = SK.handle cfg ~now:0.0 st Cs_done in
  (* Token goes to node 1 (scan order me+1..) with 2 still queued. *)
  match sends effs with
  | [ (1, SK.Token { tq = [ 2 ]; _ }) ] -> ()
  | _ -> Alcotest.fail "token must go to 1 with 2 queued"

(* --------------------------- ricart-agrawala --------------------- *)

module RA = Baselines.Ricart_agrawala

let test_ra_defer_lower_priority () =
  let st = RA.init cfg 1 in
  let st, _ = RA.handle cfg ~now:0.0 st Request_cs in
  (* Our ts = 1. An incoming request with ts 5 loses: deferred. *)
  let st, effs =
    RA.handle cfg ~now:0.0 st (Receive (2, RA.Request { ts = 5; j = 2 }))
  in
  Alcotest.(check int) "deferred" 0 (List.length (sends effs));
  (* An incoming request with ts 1 from a smaller id (0 < 1) wins. *)
  let st, effs =
    RA.handle cfg ~now:0.0 st (Receive (0, RA.Request { ts = 1; j = 0 }))
  in
  Alcotest.(check bool) "tie broken by id" true
    (sends effs = [ (0, RA.Reply) ]);
  (* All replies collected -> enter CS. *)
  let st, effs = RA.handle cfg ~now:0.0 st (Receive (0, RA.Reply)) in
  Alcotest.(check bool) "not yet" false (has_enter effs);
  let st, effs = RA.handle cfg ~now:0.0 st (Receive (2, RA.Reply)) in
  Alcotest.(check bool) "still not" false (has_enter effs);
  let st, effs = RA.handle cfg ~now:0.0 st (Receive (3, RA.Reply)) in
  Alcotest.(check bool) "entered after N-1 replies" true (has_enter effs);
  (* Leaving flushes the deferred reply to node 2. *)
  let _, effs = RA.handle cfg ~now:0.0 st Cs_done in
  Alcotest.(check bool) "deferred reply flushed" true
    (sends effs = [ (2, RA.Reply) ])

let test_ra_idle_always_replies () =
  let st = RA.init cfg 3 in
  let _, effs =
    RA.handle cfg ~now:0.0 st (Receive (1, RA.Request { ts = 9; j = 1 }))
  in
  Alcotest.(check bool) "idle node replies" true
    (sends effs = [ (1, RA.Reply) ])

(* --------------------------- raymond ----------------------------- *)

module RY = Baselines.Raymond

let test_raymond_root_grants_child () =
  let root = RY.init cfg 0 in
  let root, effs = RY.handle cfg ~now:0.0 root (Receive (1, RY.Request)) in
  Alcotest.(check bool) "privilege to child" true
    (sends effs = [ (1, RY.Privilege) ]);
  (* A later request must chase the token. *)
  let _, effs = RY.handle cfg ~now:0.0 root (Receive (2, RY.Request)) in
  Alcotest.(check bool) "chases the token" true
    (sends effs = [ (1, RY.Request) ])

let test_raymond_leaf_asks_parent () =
  let leaf = RY.init cfg 3 in
  let leaf, effs = RY.handle cfg ~now:0.0 leaf Request_cs in
  Alcotest.(check bool) "asks parent 1" true
    (sends effs = [ (1, RY.Request) ]);
  (* A second local request does not re-ask. *)
  let leaf, effs = RY.handle cfg ~now:0.0 leaf Request_cs in
  Alcotest.(check int) "no duplicate ask" 0 (List.length (sends effs));
  (* Privilege arrives: enter CS. *)
  let _, effs = RY.handle cfg ~now:0.0 leaf (Receive (1, RY.Privilege)) in
  Alcotest.(check bool) "entered" true (has_enter effs)

let test_raymond_relay () =
  (* Node 1 relays between its child 3 and the root 0. *)
  let mid = RY.init cfg 1 in
  let mid, effs = RY.handle cfg ~now:0.0 mid (Receive (3, RY.Request)) in
  Alcotest.(check bool) "asks holder (root)" true
    (sends effs = [ (0, RY.Request) ]);
  let _, effs = RY.handle cfg ~now:0.0 mid (Receive (0, RY.Privilege)) in
  Alcotest.(check bool) "passes privilege down" true
    (sends effs = [ (3, RY.Privilege) ])

(* --------------------------- maekawa ----------------------------- *)

module MK = Baselines.Maekawa

let test_maekawa_vote_once () =
  let v = MK.init cfg 1 in
  let v, effs =
    MK.handle cfg ~now:0.0 v (Receive (0, MK.Request { ts = 1; j = 0 }))
  in
  Alcotest.(check bool) "locked for 0" true
    (sends effs = [ (0, MK.Locked { ts = 1 }) ]);
  (* A worse concurrent request fails. *)
  let v, effs =
    MK.handle cfg ~now:0.0 v (Receive (2, MK.Request { ts = 5; j = 2 }))
  in
  Alcotest.(check bool) "failed for 2" true
    (sends effs = [ (2, MK.Failed { ts = 5 }) ]);
  (* A better one inquires the current candidate. *)
  let v, effs =
    MK.handle cfg ~now:0.0 v (Receive (3, MK.Request { ts = 0; j = 3 }))
  in
  Alcotest.(check bool) "inquire current candidate" true
    (sends effs = [ (0, MK.Inquire { ts = 1 }) ]);
  (* Release hands the vote to the best waiting request (ts 0). *)
  let _, effs = MK.handle cfg ~now:0.0 v (Receive (0, MK.Release { ts = 1 })) in
  Alcotest.(check bool) "re-vote best" true
    (sends effs = [ (3, MK.Locked { ts = 0 }) ])

let test_maekawa_stale_locked_ignored () =
  let c = MK.init cfg 0 in
  let c, _ = MK.handle cfg ~now:0.0 c Request_cs in
  (* my_ts = 1; a LOCKED for an old candidacy must not count. *)
  let c', effs =
    MK.handle cfg ~now:0.0 c (Receive (1, MK.Locked { ts = 77 }))
  in
  Alcotest.(check bool) "stale locked dropped" true
    (effs = [] && c'.MK.grants = c.MK.grants)

let test_maekawa_relinquish_on_failed () =
  let c = MK.init cfg 0 in
  let c, _ = MK.handle cfg ~now:0.0 c Request_cs in
  (* An inquire arrives first (we may still win): deferred. *)
  let c, effs = MK.handle cfg ~now:0.0 c (Receive (2, MK.Inquire { ts = 1 })) in
  Alcotest.(check int) "inquire deferred" 0 (List.length (sends effs));
  (* Then a FAILED: we must relinquish to the inquirer. *)
  let _, effs = MK.handle cfg ~now:0.0 c (Receive (3, MK.Failed { ts = 1 })) in
  Alcotest.(check bool) "relinquish sent" true
    (List.mem (2, MK.Relinquish { ts = 1 }) (sends effs))

(* --------------------------- singhal ----------------------------- *)

module SG = Baselines.Singhal

let test_singhal_staircase () =
  (* Node 0 asks nobody; node 3 asks 0,1,2. *)
  let st0 = SG.init cfg 0 in
  let _, effs = SG.handle cfg ~now:0.0 st0 Request_cs in
  Alcotest.(check bool) "node 0 enters alone" true
    (has_enter effs && sends effs = []);
  let st3 = SG.init cfg 3 in
  let _, effs = SG.handle cfg ~now:0.0 st3 Request_cs in
  Alcotest.(check (list int)) "node 3 asks everyone below" [ 0; 1; 2 ]
    (List.map fst (sends effs))

let test_singhal_echo_rule () =
  (* Node 0 (requesting, ts 1) receives a better request from node 2,
     which it never asked: it must reply AND echo its own request. *)
  let st = SG.init cfg 0 in
  let st, _ = SG.handle cfg ~now:0.0 st Request_cs in
  (* node 0's request enters CS immediately (empty R); exit first. *)
  let st, _ = SG.handle cfg ~now:0.0 st Cs_done in
  let st, effs = SG.handle cfg ~now:0.0 st Request_cs in
  Alcotest.(check bool) "second request also instant" true (has_enter effs);
  ignore st;
  (* Now a node with a non-trivial R set: node 1 requesting. *)
  let st = SG.init cfg 1 in
  let st, _ = SG.handle cfg ~now:0.0 st Request_cs in
  (* my ts = 1; better request (ts 1, id 0) from node 0, already in R
     — plain reply, no echo. *)
  let st, effs =
    SG.handle cfg ~now:0.0 st (Receive (0, SG.Request { ts = 1; j = 0 }))
  in
  Alcotest.(check bool) "reply only" true (sends effs = [ (0, SG.Reply) ]);
  (* Better request from node 2 (ts 0), NOT in node 1's R: reply +
     echo. *)
  let _, effs =
    SG.handle cfg ~now:0.0 st (Receive (2, SG.Request { ts = 0; j = 2 }))
  in
  let ms = List.map snd (sends effs) in
  Alcotest.(check int) "two messages" 2 (List.length ms);
  Alcotest.(check bool) "one is a reply" true (List.mem SG.Reply ms);
  Alcotest.(check bool) "one is the echoed request" true
    (List.exists (function SG.Request _ -> true | SG.Reply -> false) ms)

let test_singhal_shrink_on_exit () =
  let st = SG.init cfg 3 in
  let st, _ = SG.handle cfg ~now:0.0 st Request_cs in
  (* replies from 0,1,2 -> CS *)
  let st, _ = SG.handle cfg ~now:0.0 st (Receive (0, SG.Reply)) in
  let st, _ = SG.handle cfg ~now:0.0 st (Receive (1, SG.Reply)) in
  let st, effs = SG.handle cfg ~now:0.0 st (Receive (2, SG.Reply)) in
  Alcotest.(check bool) "entered" true (has_enter effs);
  (* node 1 requests while we're inside: deferred. *)
  let st, _ =
    SG.handle cfg ~now:0.0 st (Receive (1, SG.Request { ts = 9; j = 1 }))
  in
  let st, effs = SG.handle cfg ~now:0.0 st Cs_done in
  Alcotest.(check bool) "deferred reply flushed" true
    (sends effs = [ (1, SG.Reply) ]);
  (* R shrank to {me, 1}: the next request asks only node 1. *)
  let _, effs = SG.handle cfg ~now:0.0 st Request_cs in
  Alcotest.(check (list int)) "shrunken request set" [ 1 ]
    (List.map fst (sends effs))

(* --------------------------- lamport ----------------------------- *)

module LM = Baselines.Lamport

let test_lamport_needs_everyone () =
  let st = LM.init cfg 1 in
  let st, effs = LM.handle cfg ~now:0.0 st Request_cs in
  Alcotest.(check int) "request broadcast" 1 (List.length (broadcasts effs));
  (* Two acks are not enough with n = 4. *)
  let st, effs = LM.handle cfg ~now:0.0 st (Receive (0, LM.Ack { ts = 5 })) in
  Alcotest.(check bool) "not yet" false (has_enter effs);
  let st, effs = LM.handle cfg ~now:0.0 st (Receive (2, LM.Ack { ts = 5 })) in
  Alcotest.(check bool) "still not" false (has_enter effs);
  let st, effs = LM.handle cfg ~now:0.0 st (Receive (3, LM.Ack { ts = 5 })) in
  Alcotest.(check bool) "entered with all acks" true (has_enter effs);
  (* Exit broadcasts the release. *)
  let _, effs = LM.handle cfg ~now:0.0 st Cs_done in
  Alcotest.(check int) "release broadcast" 1 (List.length (broadcasts effs))

let test_lamport_queue_order () =
  (* We requested second: acks alone must not let us in; the earlier
     request's release must. *)
  let st = LM.init cfg 2 in
  let st, _ =
    LM.handle cfg ~now:0.0 st (Receive (0, LM.Request { ts = 1; j = 0 }))
  in
  let st, _ = LM.handle cfg ~now:0.0 st Request_cs in
  let st, effs = LM.handle cfg ~now:0.0 st (Receive (0, LM.Ack { ts = 9 })) in
  Alcotest.(check bool) "behind node 0" false (has_enter effs);
  let st, effs = LM.handle cfg ~now:0.0 st (Receive (1, LM.Ack { ts = 9 })) in
  Alcotest.(check bool) "acks insufficient" false (has_enter effs);
  let st, effs = LM.handle cfg ~now:0.0 st (Receive (3, LM.Ack { ts = 9 })) in
  Alcotest.(check bool) "still behind" false (has_enter effs);
  let _, effs =
    LM.handle cfg ~now:0.0 st (Receive (0, LM.Release { ts = 10; j = 0 }))
  in
  Alcotest.(check bool) "enter after head releases" true (has_enter effs)

let test_lamport_ack_timestamp () =
  (* The ack must carry a timestamp strictly above the request's. *)
  let st = LM.init cfg 3 in
  let _, effs =
    LM.handle cfg ~now:0.0 st (Receive (1, LM.Request { ts = 7; j = 1 }))
  in
  match sends effs with
  | [ (1, LM.Ack { ts }) ] ->
      Alcotest.(check bool) "ack ts above request ts" true (ts > 7)
  | _ -> Alcotest.fail "expected one ACK"

(* ----------------------- fault capability ------------------------ *)

(* None of the eight baselines models failures, and each must say so:
   injecting a crash into a simulation of one raises
   [Unsupported_fault] instead of silently measuring behaviour the
   algorithm never claimed. One pin per baseline, so adding a ninth
   without deciding its fault story breaks a test, not a comparison
   table. *)
let test_baselines_refuse_faults () =
  let check_refuses name (module A : ALGO) =
    Alcotest.(check bool)
      (name ^ " declares no crash model")
      false A.fault_support.crash_stop;
    Alcotest.(check bool)
      (name ^ " declares no loss model")
      false A.fault_support.message_loss;
    let module R = Dmutex.Sim_runner.Make (A) in
    let t = R.create ~seed:1 (Config.default ~n:4) in
    (match R.crash t 1 with
    | () -> Alcotest.failf "%s absorbed a crash silently" name
    | exception Unsupported_fault _ -> ());
    match R.set_loss t 0.1 with
    | () -> Alcotest.failf "%s absorbed message loss silently" name
    | exception Unsupported_fault _ -> ()
  in
  check_refuses "central-server" (module Baselines.Central_server);
  check_refuses "suzuki-kasami" (module Baselines.Suzuki_kasami);
  check_refuses "raymond" (module Baselines.Raymond);
  check_refuses "ricart-agrawala" (module Baselines.Ricart_agrawala);
  check_refuses "lamport" (module Baselines.Lamport);
  check_refuses "singhal" (module Baselines.Singhal);
  check_refuses "maekawa" (module Baselines.Maekawa);
  check_refuses "tree-quorum" (module Baselines.Tree_quorum)

let test_fault_plan_validation () =
  (* A whole plan is validated before anything is scheduled: the
     capability error arrives at injection time... *)
  let module R = Dmutex.Sim_runner.Make (Baselines.Suzuki_kasami) in
  let t = R.create ~seed:1 (Config.default ~n:4) in
  let plan = [ (5.0, Crash 1) ] in
  (match R.apply_faults t plan with
  | () -> Alcotest.fail "unsupported plan accepted"
  | exception Unsupported_fault msg ->
      Alcotest.(check bool) "error names the algorithm" true
        (Str_present.contains_substring msg "suzuki"));
  (* A partition loses messages, so it needs loss support too. *)
  Alcotest.(check bool) "baseline refuses a partition" true
    (match R.apply_faults t [ (1.0, Partition [ [ 0; 1 ]; [ 2; 3 ] ]) ] with
    | () -> false
    | exception Unsupported_fault _ -> true);
  (* ...while the protocol's own family accepts the same plan. *)
  let module RP = Dmutex.Sim_runner.Make (Dmutex.Basic) in
  let tp = RP.create ~seed:1 (Dmutex.Basic.config ~n:4 ()) in
  RP.apply_faults tp plan;
  (* Out-of-range entries are Invalid_argument, not capability errors. *)
  let invalid plan =
    match RP.apply_faults tp plan with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad node rejected" true (invalid [ (1.0, Crash 9) ]);
  Alcotest.(check bool) "bad partition id rejected" true
    (invalid [ (1.0, Partition [ [ 0; 1 ]; [ 2; 4 ] ]) ])

let suite =
  ( "baseline-units",
    [
      Alcotest.test_case "central: grant and queue" `Quick
        test_central_grant_queue;
      Alcotest.test_case "central: server self-service" `Quick
        test_central_server_self;
      Alcotest.test_case "suzuki: request broadcast" `Quick
        test_sk_request_broadcast;
      Alcotest.test_case "suzuki: holder enters free" `Quick
        test_sk_holder_enters_directly;
      Alcotest.test_case "suzuki: idle holder hands over" `Quick
        test_sk_idle_holder_hands_over;
      Alcotest.test_case "suzuki: stale request ignored" `Quick
        test_sk_stale_request_ignored;
      Alcotest.test_case "suzuki: queue built on exit" `Quick
        test_sk_queue_append_on_exit;
      Alcotest.test_case "ricart: defer and tie-break" `Quick
        test_ra_defer_lower_priority;
      Alcotest.test_case "ricart: idle replies" `Quick
        test_ra_idle_always_replies;
      Alcotest.test_case "raymond: root grants child" `Quick
        test_raymond_root_grants_child;
      Alcotest.test_case "raymond: leaf asks parent" `Quick
        test_raymond_leaf_asks_parent;
      Alcotest.test_case "raymond: mid-tree relay" `Quick test_raymond_relay;
      Alcotest.test_case "maekawa: vote/fail/inquire/re-vote" `Quick
        test_maekawa_vote_once;
      Alcotest.test_case "maekawa: stale LOCKED ignored" `Quick
        test_maekawa_stale_locked_ignored;
      Alcotest.test_case "maekawa: relinquish on FAILED" `Quick
        test_maekawa_relinquish_on_failed;
      Alcotest.test_case "singhal: staircase init" `Quick
        test_singhal_staircase;
      Alcotest.test_case "singhal: echo rule" `Quick test_singhal_echo_rule;
      Alcotest.test_case "singhal: request set shrinks" `Quick
        test_singhal_shrink_on_exit;
      Alcotest.test_case "lamport: needs every ack" `Quick
        test_lamport_needs_everyone;
      Alcotest.test_case "lamport: queue order respected" `Quick
        test_lamport_queue_order;
      Alcotest.test_case "lamport: ack timestamps" `Quick
        test_lamport_ack_timestamp;
      Alcotest.test_case "all baselines refuse injected faults" `Quick
        test_baselines_refuse_faults;
      Alcotest.test_case "fault plans validated before scheduling" `Quick
        test_fault_plan_validation;
    ] )
