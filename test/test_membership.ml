(* Unit tests of the dynamic-membership machinery: join/leave
   choreography, quorum-gated view commits, excision draining, the
   stale-view token guard, the non-member frame gate, and — most
   delicately — the mid-CS excision deferral (a committed view that
   excludes the node currently inside the critical section must not
   hand the token away until [Cs_done]). Node 0 is the initial
   arbiter throughout, exactly as in [Test_protocol]. *)

open Dmutex
open Dmutex.Types

let cfg = Basic.config ~n:4 ()

let step ?(now = 0.0) cfg st input = Protocol.handle cfg ~now st input

let sends effs =
  List.filter_map
    (function Send (dst, m) -> Some (dst, m) | _ -> None)
    effs

let notes effs =
  List.filter_map
    (function Note n -> Some (string_of_note n) | _ -> None)
    effs

let has_note effs s = List.mem s (notes effs)

let privilege_sends effs =
  List.filter_map
    (function
      | Send (dst, Protocol.Privilege (tok, _)) -> Some (dst, tok) | _ -> None)
    effs

let member_ids st = Protocol.member_ids st.Protocol.view

let mk_member ?(addr = "") mid = { Protocol.mid; maddr = addr }

(* A committed VIEW-CHANGE as a peer coordinator would send it. *)
let commit_vc ?(src = 0) ?(arbiter = 0) ~vnum members =
  Receive
    ( src,
      Protocol.View_change
    { Protocol.vc_view =
        { Protocol.vnum; vmembers = List.map mk_member members };
      vc_commit = true;
      vc_granted = Qlist.Granted.create 4;
      vc_epoch = 0;
      vc_election = 0;
      vc_arbiter = arbiter } )

(* ------------------------------------------------------------------ *)
(* Join choreography at the coordinator                                *)

let test_join_propose_then_commit () =
  (* The initial arbiter holds the token: a JOIN-REQUEST from an
     outsider triggers a proposal to every old-view member, and the
     commit waits for a majority of the OLD view (3 of 4, counting the
     coordinator itself). *)
  let st = Protocol.init cfg 0 in
  let joiner = mk_member ~addr:"127.0.0.1:9999" 4 in
  let st, effs = step cfg st (Receive (4, Protocol.Join_request joiner)) in
  Alcotest.(check bool) "proposal noted" true (has_note effs "view-proposed");
  let proposals =
    List.filter
      (function
        | _, Protocol.View_change { Protocol.vc_commit = false; _ } -> true
        | _ -> false)
      (sends effs)
  in
  Alcotest.(check (list int)) "proposed to every old member" [ 1; 2; 3 ]
    (List.sort compare (List.map fst proposals));
  Alcotest.(check int) "view unchanged before quorum" 0
    st.Protocol.view.Protocol.vnum;
  (* First ack: 2 of 3 — still short of quorum. *)
  let st, effs = step cfg st (Receive (1, Protocol.View_ack { va_vnum = 1 })) in
  Alcotest.(check int) "no commit on first ack" 0 (List.length (sends effs));
  Alcotest.(check int) "still the birth view" 0 st.Protocol.view.Protocol.vnum;
  (* Second ack reaches quorum: commit, local apply first. *)
  let st, effs = step cfg st (Receive (2, Protocol.View_ack { va_vnum = 1 })) in
  Alcotest.(check bool) "commit noted" true (has_note effs "view-committed");
  Alcotest.(check int) "epoch bumped" 1 st.Protocol.view.Protocol.vnum;
  Alcotest.(check (list int)) "joiner admitted" [ 0; 1; 2; 3; 4 ]
    (List.sort compare (member_ids st));
  let commits =
    List.filter
      (function
        | _, Protocol.View_change { Protocol.vc_commit = true; _ } -> true
        | _ -> false)
      (sends effs)
  in
  Alcotest.(check (list int)) "commit reaches old members and the joiner"
    [ 1; 2; 3; 4 ]
    (List.sort compare (List.map fst commits));
  (* The token in the coordinator's hands is stamped with the new
     view epoch. *)
  match st.Protocol.token with
  | Some tok -> Alcotest.(check int) "token vepoch" 1 tok.Protocol.vepoch
  | None -> Alcotest.fail "coordinator should still hold the token"

let test_join_relayed_by_non_arbiter () =
  (* A member that is not the arbiter relays the knock toward its
     believed arbiter instead of proposing. *)
  let st = Protocol.init cfg 1 in
  let joiner = mk_member ~addr:"127.0.0.1:9999" 4 in
  let _, effs = step cfg st (Receive (4, Protocol.Join_request joiner)) in
  match sends effs with
  | [ (0, Protocol.Join_request m) ] ->
      Alcotest.(check int) "relayed joiner id" 4 m.Protocol.mid;
      Alcotest.(check string) "address travels with the relay"
        "127.0.0.1:9999" m.Protocol.maddr
  | _ -> Alcotest.fail "expected one relayed JOIN-REQUEST to node 0"

let test_joiner_knocks_until_admitted () =
  (* A brand-new node knows only itself and a seed: every T_view
     firing knocks again; a commit admits it and stops the retries. *)
  let st = Protocol.joiner cfg ~me:4 ~seed:2 ~addr:"127.0.0.1:9999" in
  Alcotest.(check bool) "starts joining" true st.Protocol.joining;
  Alcotest.(check bool) "parks app requests" true st.Protocol.sync_wait;
  let st, effs = step cfg st (Timer_fired Protocol.T_view) in
  (match sends effs with
  | [ (2, Protocol.Join_request m) ] ->
      Alcotest.(check int) "knock carries our id" 4 m.Protocol.mid;
      Alcotest.(check string) "knock carries our address" "127.0.0.1:9999"
        m.Protocol.maddr
  | _ -> Alcotest.fail "expected JOIN-REQUEST to the seed");
  Alcotest.(check bool) "re-arms the knock timer" true
    (List.exists
       (function Set_timer (Protocol.T_view, _) -> true | _ -> false)
       effs);
  (* A commit excluding us must NOT stop the knocking. *)
  let st, _ = step cfg st (commit_vc ~vnum:1 [ 0; 1; 2 ]) in
  Alcotest.(check bool) "still joining after foreign commit" true
    st.Protocol.joining;
  (* The admitting commit flips us to member. *)
  let st, effs = step cfg st (commit_vc ~vnum:2 [ 0; 1; 2; 3; 4 ]) in
  Alcotest.(check bool) "admitted" false st.Protocol.joining;
  Alcotest.(check int) "adopted epoch" 2 st.Protocol.view.Protocol.vnum;
  Alcotest.(check bool) "acked the commit" true
    (List.exists
       (function
         | Send (_, Protocol.View_ack { va_vnum = 2 }) -> true | _ -> false)
       effs);
  Alcotest.(check bool) "knock timer cancelled" true
    (List.exists
       (function Cancel_timer Protocol.T_view -> true | _ -> false)
       effs)

(* ------------------------------------------------------------------ *)
(* Leave / excision                                                    *)

let test_leave_drains_queues () =
  (* The coordinator is collecting requests from 2 and 3 when node 2
     asks to leave: after the quorum commit, 2 is gone from the view
     AND from the collection queue. *)
  let st = Protocol.init cfg 0 in
  let st, _ =
    step cfg st (Receive (2, Protocol.Request (Qlist.entry ~node:2 ~seq:0 ())))
  in
  let st, _ =
    step cfg st (Receive (3, Protocol.Request (Qlist.entry ~node:3 ~seq:0 ())))
  in
  let st, effs = step cfg st (Receive (2, Protocol.Leave_request 2)) in
  Alcotest.(check bool) "proposal noted" true (has_note effs "view-proposed");
  let st, _ = step cfg st (Receive (1, Protocol.View_ack { va_vnum = 1 })) in
  let st, effs = step cfg st (Receive (3, Protocol.View_ack { va_vnum = 1 })) in
  Alcotest.(check bool) "commit noted" true (has_note effs "view-committed");
  Alcotest.(check (list int)) "view shrunk" [ 0; 1; 3 ]
    (List.sort compare (member_ids st));
  (match st.Protocol.role with
  | Protocol.Collecting { cq; _ } ->
      Alcotest.(check bool) "leaver drained from collection" false
        (Qlist.mem 2 cq);
      Alcotest.(check bool) "survivor kept" true (Qlist.mem 3 cq)
  | _ -> Alcotest.fail "coordinator should still be collecting");
  match st.Protocol.token with
  | Some tok -> Alcotest.(check int) "token vepoch" 1 tok.Protocol.vepoch
  | None -> Alcotest.fail "coordinator should still hold the token"

let test_leave_refused_for_last_member () =
  (* Excising the only member would leave an empty universe. *)
  let cfg1 = Basic.config ~n:1 () in
  let st = Protocol.init cfg1 0 in
  let _, effs = step cfg1 st (Receive (0, Protocol.Leave_request 0)) in
  Alcotest.(check bool) "refused" true (has_note effs "leave-refused-last")

(* ------------------------------------------------------------------ *)
(* Token / frame guards                                                *)

let test_stale_view_token_rejected () =
  (* A node that adopted view 1 rejects a token still stamped with
     view 0: view changes only happen in the coordinator's hands, so
     that token is a relic of a superseded universe. *)
  let st = Protocol.init cfg 1 in
  let st, _ = step cfg st (commit_vc ~vnum:1 [ 0; 1; 2 ]) in
  Alcotest.(check int) "adopted epoch" 1 st.Protocol.view.Protocol.vnum;
  let relic =
    { Protocol.tq = [ Qlist.entry ~node:1 ~seq:0 () ];
      granted = Qlist.Granted.create 4;
      epoch = 0; election = 1; vepoch = 0 }
  in
  let st, effs = step cfg st (Receive (0, Protocol.Privilege (relic, None))) in
  Alcotest.(check bool) "rejected" true (has_note effs "stale-view-token");
  Alcotest.(check bool) "not adopted" true (st.Protocol.token = None)

let test_nonmember_frames_dropped () =
  (* After a commit that excised node 3, its protocol frames bounce
     off the membership gate — but a knock to rejoin passes. *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st (commit_vc ~vnum:1 [ 0; 1; 2 ]) in
  let st', effs =
    step cfg st
      (Receive (3, Protocol.Request (Qlist.entry ~node:3 ~seq:0 ())))
  in
  Alcotest.(check bool) "dropped" true (has_note effs "nonmember-dropped");
  Alcotest.(check int) "no sends for a dropped frame" 0
    (List.length (sends effs));
  Alcotest.(check bool) "state untouched" true (st' = st);
  (* The same sender's JOIN-REQUEST is membership traffic: allowed. *)
  let _, effs =
    step cfg st (Receive (3, Protocol.Join_request (mk_member 3)))
  in
  Alcotest.(check bool) "knock not dropped" false
    (has_note effs "nonmember-dropped")

(* ------------------------------------------------------------------ *)
(* Mid-CS excision deferral                                            *)

let test_excised_in_cs_defers_handoff () =
  (* Node 0 is INSIDE the critical section when a commit excises it.
     Mutual exclusion outranks membership: the view is adopted but the
     token must stay put until Cs_done — only then does the hand-off
     to the heir happen, stamped with the new view epoch. *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st Request_cs in
  let st, _ =
    step cfg st (Receive (2, Protocol.Request (Qlist.entry ~node:2 ~seq:0 ())))
  in
  let st, _ = step cfg st (Timer_fired Protocol.T_dispatch) in
  Alcotest.(check bool) "in cs before the commit" true (Protocol.in_cs st);
  (* Commit excising node 0 arrives from a surviving member. *)
  let st, effs =
    step cfg st (commit_vc ~src:1 ~arbiter:1 ~vnum:1 [ 1; 2; 3 ])
  in
  Alcotest.(check bool) "deferral noted" true (has_note effs "excised-in-cs");
  Alcotest.(check int) "no privilege leaves mid-cs" 0
    (List.length (privilege_sends effs));
  Alcotest.(check bool) "still in cs" true (Protocol.in_cs st);
  Alcotest.(check bool) "token retained" true (st.Protocol.token <> None);
  Alcotest.(check int) "view adopted anyway" 1
    st.Protocol.view.Protocol.vnum;
  (* Leaving the CS performs the deferred hand-off. *)
  let st, effs = step cfg st Cs_done in
  Alcotest.(check bool) "handoff noted" true (has_note effs "excised-handoff");
  (match privilege_sends effs with
  | [ (2, tok) ] ->
      Alcotest.(check int) "token stamped with new view" 1
        tok.Protocol.vepoch;
      Alcotest.(check (list int)) "queue drained to survivors" [ 2 ]
        (List.map (fun e -> e.Qlist.node) tok.Protocol.tq)
  | _ -> Alcotest.fail "expected the token to go to the waiting survivor");
  Alcotest.(check bool) "token released" true (st.Protocol.token = None);
  Alcotest.(check bool) "out of cs" false (Protocol.in_cs st)

let test_excised_idle_hands_off_immediately () =
  (* Outside the CS the hand-off happens right at the commit: the
     coordinator excising itself gives the token to the lowest
     surviving member when no requests wait. *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st (Receive (0, Protocol.Leave_request 0)) in
  let st, _ = step cfg st (Receive (1, Protocol.View_ack { va_vnum = 1 })) in
  let st, effs = step cfg st (Receive (2, Protocol.View_ack { va_vnum = 1 })) in
  Alcotest.(check bool) "excision noted" true (has_note effs "excised");
  (match privilege_sends effs with
  | [ (dst, tok) ] ->
      Alcotest.(check int) "token to the lowest survivor" 1 dst;
      Alcotest.(check int) "token stamped with new view" 1 tok.Protocol.vepoch
  | _ -> Alcotest.fail "expected exactly one PRIVILEGE hand-off");
  Alcotest.(check bool) "token released" true (st.Protocol.token = None);
  Alcotest.(check (list int)) "view excludes us" [ 1; 2; 3 ]
    (List.sort compare (member_ids st))

(* ------------------------------------------------------------------ *)
(* Replays of the excision bugs deep churn walks found                 *)

let req node seq = Protocol.Request (Qlist.entry ~node ~seq ())

let collected st =
  match st.Protocol.role with
  | Protocol.Collecting { cq; _ } -> List.map (fun e -> e.Qlist.node) cq
  | _ -> Alcotest.fail "expected a collecting arbiter"

let announced_arbiters effs =
  List.filter_map
    (function
      | Send (_, Protocol.New_arbiter na) | Broadcast (Protocol.New_arbiter na)
        ->
          Some na.Protocol.na_arbiter
      | _ -> None)
    effs

let test_replay_relayed_request_passes_gate () =
  (* FIFO leave churn: node 2 was excised while survivors' requests
     were on their way to it; it relays them to its heir, whose gate
     used to drop every frame from a non-member — and the requester's
     finite retries ran out. A member's request is accepted from a
     non-member relay; the excised node's own is still refused. *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st (commit_vc ~vnum:1 [ 0; 1 ]) in
  let st, effs = step cfg st (Receive (2, req 1 0)) in
  Alcotest.(check bool) "relayed member request not dropped" false
    (has_note effs "nonmember-dropped");
  Alcotest.(check (list int)) "collected" [ 1 ] (collected st);
  let _, effs = step cfg st (Receive (2, req 2 0)) in
  Alcotest.(check bool) "the excised node's own request dropped" true
    (has_note effs "nonmember-dropped")

let test_replay_dispatch_skips_excised () =
  (* Non-FIFO leave churn: after committing v1 = [0,1] the arbiter
     still accepted REQUEST(2#0) relayed by node 0, then dispatched
     PRIVILEGE({0#0,1#1,2#0}) with NEW-ARBITER naming the excised node
     2 — nobody could reach the arbiter it elected. *)
  let st = Protocol.init cfg 1 in
  let st =
    { st with
      Protocol.view = { Protocol.vnum = 1; vmembers = [ mk_member 0; mk_member 1 ] } }
  in
  let tok =
    { Protocol.tq = []; granted = Qlist.Granted.create 4; epoch = 0;
      election = 1; vepoch = 1 }
  in
  let st, _ = step cfg st (Receive (0, Protocol.Privilege (tok, None))) in
  let st, _ = step cfg st (Receive (0, req 0 0)) in
  let st, _ = step cfg st Request_cs in
  let st, _ = step cfg st (Receive (0, req 2 0)) in
  let _, effs = step cfg st (Timer_fired Protocol.T_dispatch) in
  (match privilege_sends effs with
  | [ (0, tok) ] ->
      Alcotest.(check (list int)) "excised entry not scheduled" [ 0; 1 ]
        (List.map (fun e -> e.Qlist.node) tok.Protocol.tq)
  | _ -> Alcotest.fail "expected the token to go to node 0");
  Alcotest.(check (list int)) "the elected arbiter is a member" [ 1 ]
    (List.sort_uniq compare (announced_arbiters effs))

let test_replay_duplicate_resume_keeps_queue () =
  (* Regeneration vs excision: a holder frozen by an ENQUIRY was thawed
     by RESUME and became the collecting arbiter; a second copy of that
     RESUME passed the token on again, restarting collection without
     the queue — node 1's request was lost. A collecting arbiter frozen
     mid-window keeps its queue the same way. *)
  let rcfg = Resilient.config ~n:4 () in
  let st = Protocol.init rcfg 2 in
  let st, _ = step rcfg st Request_cs in
  let tok =
    { Protocol.tq = [ Qlist.entry ~node:2 ~seq:0 () ];
      granted = Qlist.Granted.create 4; epoch = 0; election = 1; vepoch = 0 }
  in
  let st, _ = step rcfg st (Receive (0, Protocol.Privilege (tok, None))) in
  let st, _ = step rcfg st (Receive (0, Protocol.Enquiry { round = 1 })) in
  let st, _ = step rcfg st Cs_done in
  let st, _ = step rcfg st (Receive (0, Protocol.Resume { round = 1 })) in
  let st, _ = step rcfg st (Receive (1, req 1 0)) in
  Alcotest.(check (list int)) "collecting node 1" [ 1 ] (collected st);
  let st, _ = step rcfg st (Receive (0, Protocol.Resume { round = 1 })) in
  Alcotest.(check (list int)) "duplicate RESUME keeps the queue" [ 1 ]
    (collected st);
  let st, _ = step rcfg st (Receive (3, Protocol.Enquiry { round = 2 })) in
  Alcotest.(check bool) "frozen mid-window" true st.Protocol.suspended;
  let st, _ = step rcfg st (Receive (3, Protocol.Resume { round = 2 })) in
  Alcotest.(check (list int)) "thawed with the queue" [ 1 ] (collected st);
  Alcotest.(check bool) "thawed" false st.Protocol.suspended

let test_replay_handoff_brings_view () =
  (* A coordinator that excises itself hands the token to an heir that
     may not have the commit yet. The heir used to take the token under
     its old view, and its next dispatch stamped the token with that
     older epoch, which every up-to-date member rejects as stale: the
     token was lost. The hand-off now carries the announcement, so the
     heir adopts the view with the token. *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st (Receive (0, Protocol.Leave_request 0)) in
  let st, _ = step cfg st (Receive (1, Protocol.View_ack { va_vnum = 1 })) in
  let _, effs = step cfg st (Receive (2, Protocol.View_ack { va_vnum = 1 })) in
  let handoff =
    List.find_map
      (function
        | Send (1, (Protocol.Privilege (_, Some _) as m)) -> Some m
        | _ -> None)
      effs
  in
  let heir = Protocol.init cfg 1 in
  let heir, _ =
    match handoff with
    | Some m -> step cfg heir (Receive (0, m))
    | None -> Alcotest.fail "expected a hand-off carrying the announcement"
  in
  Alcotest.(check int) "heir adopted the commit's view" 1
    heir.Protocol.view.Protocol.vnum;
  Alcotest.(check bool) "heir holds the token" true (heir.Protocol.token <> None);
  let heir, _ = step cfg heir (Receive (2, req 2 0)) in
  let _, effs = step cfg heir (Timer_fired Protocol.T_dispatch) in
  match privilege_sends effs with
  | [ (2, tok) ] ->
      Alcotest.(check int) "dispatched under the new view" 1 tok.Protocol.vepoch
  | _ -> Alcotest.fail "expected the token to go to node 2"

let test_replay_newer_token_waits_for_view () =
  (* FIFO leave churn: node 1 got the token (view 1) on one channel
     before the commit on another, became arbiter under view 0 and
     dispatched the token stamped with view 0 — rejected as stale by
     node 0, which had view 1. A token newer than our view now waits
     for that view, and its epoch never goes backwards. *)
  let st = Protocol.init cfg 1 in
  let st, _ = step cfg st Request_cs in
  let tok =
    { Protocol.tq = [ Qlist.entry ~node:1 ~seq:0 () ];
      granted = Qlist.Granted.create 4; epoch = 0; election = 1; vepoch = 1 }
  in
  let st, _ = step cfg st (Receive (0, Protocol.Privilege (tok, None))) in
  let st, _ = step cfg st Cs_done in
  let st, _ = step cfg st (Receive (0, req 0 1)) in
  let st', effs = step cfg st (Timer_fired Protocol.T_dispatch) in
  Alcotest.(check int) "no dispatch under the old view" 0
    (List.length (privilege_sends effs) + List.length (announced_arbiters effs));
  Alcotest.(check bool) "retries the dispatch" true
    (List.exists
       (function Set_timer (Protocol.T_dispatch, _) -> true | _ -> false)
       effs);
  let caught_up, _ = step cfg st' (commit_vc ~src:2 ~arbiter:1 ~vnum:1 [ 0; 1; 3 ]) in
  let _, effs = step cfg caught_up (Timer_fired Protocol.T_dispatch) in
  (match privilege_sends effs with
  | [ (0, tok) ] -> Alcotest.(check int) "dispatched under view 1" 1 tok.Protocol.vepoch
  | _ -> Alcotest.fail "expected the token to go to node 0 once the view is in");
  (* A view that never arrives is not waited for past a retry period,
     and the token keeps its newer epoch. *)
  let late = cfg.Types.Config.retry_timeout +. 1.0 in
  let _, effs = step ~now:late cfg st' (Timer_fired Protocol.T_dispatch) in
  match privilege_sends effs with
  | [ (0, tok) ] -> Alcotest.(check int) "epoch kept" 1 tok.Protocol.vepoch
  | _ -> Alcotest.fail "expected the dispatch after the retry period"

let suite =
  ( "membership",
    [
      Alcotest.test_case "join: propose then quorum commit" `Quick
        test_join_propose_then_commit;
      Alcotest.test_case "join: relayed toward the arbiter" `Quick
        test_join_relayed_by_non_arbiter;
      Alcotest.test_case "joiner knocks until admitted" `Quick
        test_joiner_knocks_until_admitted;
      Alcotest.test_case "leave drains queues" `Quick test_leave_drains_queues;
      Alcotest.test_case "leave refused for last member" `Quick
        test_leave_refused_for_last_member;
      Alcotest.test_case "stale-view token rejected" `Quick
        test_stale_view_token_rejected;
      Alcotest.test_case "non-member frames dropped" `Quick
        test_nonmember_frames_dropped;
      Alcotest.test_case "mid-CS excision defers hand-off" `Quick
        test_excised_in_cs_defers_handoff;
      Alcotest.test_case "idle excision hands off immediately" `Quick
        test_excised_idle_hands_off_immediately;
      Alcotest.test_case "replay: relayed request passes the gate" `Quick
        test_replay_relayed_request_passes_gate;
      Alcotest.test_case "replay: dispatch skips excised entries" `Quick
        test_replay_dispatch_skips_excised;
      Alcotest.test_case "replay: duplicate RESUME keeps the queue" `Quick
        test_replay_duplicate_resume_keeps_queue;
      Alcotest.test_case "replay: hand-off brings the heir the view" `Quick
        test_replay_handoff_brings_view;
      Alcotest.test_case "replay: newer token waits for its view" `Quick
        test_replay_newer_token_waits_for_view;
    ] )
