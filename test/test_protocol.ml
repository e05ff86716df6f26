(* Unit tests of the protocol state machine, driving [handle]
   directly. Node 0 is the initial arbiter throughout. *)

open Dmutex
open Dmutex.Types

let cfg = Basic.config ~n:4 ()

let step ?(now = 0.0) cfg st input = Protocol.handle cfg ~now st input

let sends effs =
  List.filter_map
    (function Send (dst, m) -> Some (dst, m) | _ -> None)
    effs

let broadcasts effs =
  List.filter_map (function Broadcast m -> Some m | _ -> None) effs

let has_enter effs = List.exists (function Enter_cs -> true | _ -> false) effs

let kinds effs =
  List.filter_map
    (function
      | Send (_, m) | Broadcast m -> Some (Protocol.message_kind m)
      | _ -> None)
    effs

let test_init_roles () =
  let a = Protocol.init cfg 0 and b = Protocol.init cfg 1 in
  Alcotest.(check bool) "initial arbiter collects" true
    (match a.Protocol.role with Protocol.Collecting _ -> true | _ -> false);
  Alcotest.(check bool) "initial arbiter holds token" true
    (a.Protocol.token <> None);
  Alcotest.(check bool) "other nodes normal" true
    (b.Protocol.role = Protocol.Normal);
  Alcotest.(check int) "everyone points at node 0" 0 b.Protocol.arbiter

let test_request_from_normal_node () =
  let st = Protocol.init cfg 1 in
  let st, effs = step cfg st Request_cs in
  Alcotest.(check bool) "wants cs" true (Protocol.wants_cs st);
  (match sends effs with
  | [ (0, Protocol.Request e) ] ->
      Alcotest.(check int) "request carries our id" 1 e.Qlist.node;
      Alcotest.(check int) "first seq" 0 e.Qlist.seq
  | _ -> Alcotest.fail "expected one REQUEST to the arbiter");
  (* second local request queues behind the first *)
  let st, effs = step cfg st Request_cs in
  Alcotest.(check int) "no second message" 0 (List.length (sends effs));
  Alcotest.(check int) "queued locally" 1 (List.length st.Protocol.pending_modes)

let test_arbiter_enqueues_own_request () =
  let st = Protocol.init cfg 0 in
  let st, effs = step cfg st Request_cs in
  Alcotest.(check int) "no message for arbiter self-request" 0
    (List.length (sends effs));
  match st.Protocol.role with
  | Protocol.Collecting { cq; armed; _ } ->
      Alcotest.(check bool) "queued in own collection" true
        (Qlist.mem 0 cq);
      Alcotest.(check bool) "dispatch timer armed" true armed
  | _ -> Alcotest.fail "arbiter should still be collecting"

let dispatch_with_requests requests =
  (* Feed REQUESTs to the initial arbiter and fire the dispatch
     timer. *)
  let st = Protocol.init cfg 0 in
  let st =
    List.fold_left
      (fun st (j, seq) ->
        let st, _ =
          step cfg st
            (Receive (j, Protocol.Request (Qlist.entry ~node:j ~seq ())))
        in
        st)
      st requests
  in
  step cfg st (Timer_fired Protocol.T_dispatch)

let test_dispatch () =
  let st, effs = dispatch_with_requests [ (1, 0); (2, 0) ] in
  (* Token goes to the head (node 1); NEW-ARBITER names the tail (2). *)
  (match
     List.find_opt
       (function _, Protocol.Privilege _ -> true | _ -> false)
       (sends effs)
   with
  | Some (dst, Protocol.Privilege (tok, _)) ->
      Alcotest.(check int) "token to head" 1 dst;
      Alcotest.(check (list int)) "token queue" [ 1; 2 ]
        (List.map (fun e -> e.Qlist.node) tok.Protocol.tq);
      Alcotest.(check int) "election bumped" 1 tok.Protocol.election
  | _ -> Alcotest.fail "expected PRIVILEGE send");
  (match broadcasts effs with
  | [ Protocol.New_arbiter na ] ->
      Alcotest.(check int) "new arbiter is tail" 2 na.Protocol.na_arbiter;
      Alcotest.(check int) "election in broadcast" 1 na.Protocol.na_election
  | _ -> Alcotest.fail "expected one NEW-ARBITER broadcast");
  Alcotest.(check bool) "arbiter enters forwarding" true
    (match st.Protocol.role with Protocol.Forwarding _ -> true | _ -> false);
  Alcotest.(check bool) "token released" true (st.Protocol.token = None)

let test_dispatch_self_head () =
  (* The arbiter's own request is first: it executes directly. *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st Request_cs in
  let st, _ =
    step cfg st (Receive (2, Protocol.Request (Qlist.entry ~node:2 ~seq:0 ())))
  in
  let st, effs = step cfg st (Timer_fired Protocol.T_dispatch) in
  Alcotest.(check bool) "enters CS directly" true (has_enter effs);
  Alcotest.(check bool) "in cs" true (Protocol.in_cs st);
  Alcotest.(check bool) "no privilege message" true
    (not
       (List.exists
          (function _, Protocol.Privilege _ -> true | _ -> false)
          (sends effs)))

let test_singleton_self_suppression () =
  (* Only the arbiter's own request: no broadcast at all (Eq. 1's
     zero-message case). *)
  let st = Protocol.init cfg 0 in
  let st, _ = step cfg st Request_cs in
  let _, effs = step cfg st (Timer_fired Protocol.T_dispatch) in
  Alcotest.(check int) "no broadcast" 0 (List.length (broadcasts effs));
  Alcotest.(check int) "no sends" 0 (List.length (sends effs))

let test_empty_dispatch_idles () =
  let st = Protocol.init cfg 0 in
  let st, effs = step cfg st (Timer_fired Protocol.T_dispatch) in
  Alcotest.(check int) "no effects" 0 (List.length effs);
  match st.Protocol.role with
  | Protocol.Collecting { armed; _ } ->
      Alcotest.(check bool) "unarmed" false armed
  | _ -> Alcotest.fail "still collecting"

let test_cs_done_passes_token () =
  let tok =
    { Protocol.tq = [ Qlist.entry ~node:1 ~seq:0 (); Qlist.entry ~node:3 ~seq:0 () ];
      granted = Qlist.Granted.create 4;
      epoch = 0;
      election = 1; vepoch = 0 }
  in
  let st = Protocol.init cfg 1 in
  let st, _ = step cfg st Request_cs in
  let st, effs = step cfg st (Receive (0, Protocol.Privilege (tok, None))) in
  Alcotest.(check bool) "entered" true (has_enter effs);
  let st, effs = step cfg st Cs_done in
  (match sends effs with
  | [ (3, Protocol.Privilege (tok', _)) ] ->
      Alcotest.(check (list int)) "we removed ourselves" [ 3 ]
        (List.map (fun e -> e.Qlist.node) tok'.Protocol.tq);
      Alcotest.(check bool) "grant recorded" true
        (Qlist.Granted.already_served tok'.Protocol.granted
           (Qlist.entry ~node:1 ~seq:0 ()))
  | _ -> Alcotest.fail "expected token pass to node 3");
  Alcotest.(check bool) "no longer in cs" false (Protocol.in_cs st)

let test_tail_becomes_arbiter () =
  let tok =
    { Protocol.tq = [ Qlist.entry ~node:1 ~seq:0 () ];
      granted = Qlist.Granted.create 4;
      epoch = 0;
      election = 1; vepoch = 0 }
  in
  let st = Protocol.init cfg 1 in
  let st, _ = step cfg st Request_cs in
  let st, _ = step cfg st (Receive (0, Protocol.Privilege (tok, None))) in
  let st, _ = step cfg st Cs_done in
  Alcotest.(check bool) "tail keeps token and collects" true
    (match st.Protocol.role with Protocol.Collecting _ -> true | _ -> false);
  Alcotest.(check bool) "token retained" true (st.Protocol.token <> None);
  Alcotest.(check int) "believes itself arbiter" 1 st.Protocol.arbiter

let test_new_arbiter_election () =
  let st = Protocol.init cfg 2 in
  let na =
    Protocol.New_arbiter
      { na_arbiter = 2; na_q = [ Qlist.entry ~node:2 ~seq:0 () ];
        na_granted = Qlist.Granted.create 4; na_counter = 1;
        na_monitor = -1; na_epoch = 0; na_election = 1;
        na_view = Protocol.birth_view cfg }
  in
  let st, _ = step cfg st (Receive (0, na)) in
  Alcotest.(check bool) "elected: awaiting token" true
    (match st.Protocol.role with Protocol.Await_token _ -> true | _ -> false);
  Alcotest.(check int) "knows itself arbiter" 2 st.Protocol.arbiter

let test_stale_election_ignored () =
  let st = Protocol.init cfg 2 in
  let na ~arbiter ~election =
    Protocol.New_arbiter
      { na_arbiter = arbiter; na_q = []; na_granted = Qlist.Granted.create 4;
        na_counter = 1; na_monitor = -1; na_epoch = 0; na_election = election;
        na_view = Protocol.birth_view cfg }
  in
  let st, _ = step cfg st (Receive (0, na ~arbiter:3 ~election:5)) in
  Alcotest.(check int) "fresh election applied" 3 st.Protocol.arbiter;
  let st, _ = step cfg st (Receive (1, na ~arbiter:2 ~election:2)) in
  Alcotest.(check int) "stale election ignored" 3 st.Protocol.arbiter;
  Alcotest.(check bool) "not elected by stale message" true
    (st.Protocol.role = Protocol.Normal)

let test_miss_retransmission () =
  let st = Protocol.init cfg 2 in
  let st, _ = step cfg st Request_cs in
  let na ~election =
    Protocol.New_arbiter
      { na_arbiter = 3; na_q = [ Qlist.entry ~node:1 ~seq:0 () ];
        na_granted = Qlist.Granted.create 4; na_counter = 1;
        na_monitor = -1; na_epoch = 0; na_election = election;
        na_view = Protocol.birth_view cfg }
  in
  (* First miss: tolerated (request may be in flight). *)
  let st, effs = step cfg st (Receive (0, na ~election:1)) in
  Alcotest.(check int) "no retransmit on first miss" 0
    (List.length (sends effs));
  (* Second consecutive miss: retransmit to the announced arbiter. *)
  let _, effs = step cfg st (Receive (3, na ~election:2)) in
  match sends effs with
  | [ (3, Protocol.Request e) ] ->
      Alcotest.(check int) "same seq retransmitted" 0 e.Qlist.seq
  | _ -> Alcotest.fail "expected retransmission to arbiter 3"

let test_ack_resets_misses () =
  let st = Protocol.init cfg 2 in
  let st, _ = step cfg st Request_cs in
  let na ~q ~election =
    Protocol.New_arbiter
      { na_arbiter = 3; na_q = q; na_granted = Qlist.Granted.create 4;
        na_counter = 1; na_monitor = -1; na_epoch = 0; na_election = election;
        na_view = Protocol.birth_view cfg }
  in
  let st, _ = step cfg st (Receive (0, na ~q:[] ~election:1)) in
  let st, effs =
    step cfg st
      (Receive (0, na ~q:[ Qlist.entry ~node:2 ~seq:0 () ] ~election:2))
  in
  Alcotest.(check int) "implicit ack, no retransmit" 0
    (List.length (sends effs));
  Alcotest.(check int) "misses reset" 0 st.Protocol.misses

let test_forwarding_phase () =
  let st, _ = dispatch_with_requests [ (1, 0); (2, 0) ] in
  (* Late request arrives while forwarding: relayed to the new
     arbiter (node 2). *)
  let st, effs =
    step cfg st (Receive (3, Protocol.Request (Qlist.entry ~node:3 ~seq:0 ())))
  in
  (match sends effs with
  | [ (2, Protocol.Request e) ] ->
      Alcotest.(check int) "hop counted" 1 e.Qlist.hops
  | _ -> Alcotest.fail "expected forward to new arbiter");
  Alcotest.(check bool) "forwarded note" true
    (List.exists (function Note Forwarded -> true | _ -> false) effs);
  (* After the forwarding window the node is a bystander. *)
  let st, _ = step cfg st (Timer_fired Protocol.T_forward_end) in
  Alcotest.(check bool) "back to normal" true (st.Protocol.role = Protocol.Normal)

let test_normal_relays_toward_arbiter () =
  let st, _ = dispatch_with_requests [ (1, 0); (2, 0) ] in
  let st, _ = step cfg st (Timer_fired Protocol.T_forward_end) in
  let _, effs =
    step cfg st (Receive (3, Protocol.Request (Qlist.entry ~node:3 ~seq:0 ())))
  in
  match sends effs with
  | [ (2, Protocol.Request _) ] -> ()
  | _ -> Alcotest.fail "bystander should relay toward its believed arbiter"

let test_duplicate_served_request_dropped () =
  let st = Protocol.init cfg 0 in
  let granted =
    Qlist.Granted.mark (Qlist.Granted.create 4) (Qlist.entry ~node:2 ~seq:3 ())
  in
  let st = { st with Protocol.granted_known = granted } in
  let _, effs =
    step cfg st (Receive (2, Protocol.Request (Qlist.entry ~node:2 ~seq:3 ())))
  in
  Alcotest.(check bool) "dropped as already served" true
    (List.exists (function Note Dropped_request -> true | _ -> false) effs)

let test_stale_token_discarded () =
  let st = Protocol.init cfg 1 in
  let st = { st with Protocol.token_epoch = 5 } in
  let tok =
    { Protocol.tq = [ Qlist.entry ~node:1 ~seq:0 () ];
      granted = Qlist.Granted.create 4; epoch = 3; election = 1; vepoch = 0 }
  in
  let st', effs = step cfg st (Receive (0, Protocol.Privilege (tok, None))) in
  Alcotest.(check bool) "not entered" false (has_enter effs);
  Alcotest.(check bool) "state unchanged" true (st' = st)

let test_message_kinds () =
  Alcotest.(check string) "request kind" "REQUEST"
    (Protocol.message_kind (Protocol.Request (Qlist.entry ~node:0 ~seq:0 ())));
  Alcotest.(check string) "warning kind" "WARNING"
    (Protocol.message_kind Protocol.Warning)

(* ------------------------------------------------------------------ *)
(* Read-write extension: shared batches, writer priority, WFG edges *)

let shared_entry node seq = Qlist.entry ~mode:Types.Shared ~node ~seq ()

let find_privilege ~dst effs =
  match
    List.find_opt
      (function d, Protocol.Privilege _ -> d = dst | _ -> false)
      (sends effs)
  with
  | Some (_, Protocol.Privilege (tok, _)) -> tok
  | _ -> Alcotest.failf "expected PRIVILEGE to node %d" dst

let test_rw_batch_flow () =
  (* Arbiter 0 collects shared requests from 1 and 2 plus an exclusive
     one from 3; node 1 becomes batch coordinator, READ-GRANTs 2, and
     the batch completes with one served-vector step for both. *)
  let a = Protocol.init cfg 0 in
  let a, _ = step cfg a (Receive (1, Protocol.Request (shared_entry 1 0))) in
  let a, _ = step cfg a (Receive (2, Protocol.Request (shared_entry 2 0))) in
  let a, _ =
    step cfg a (Receive (3, Protocol.Request (Qlist.entry ~node:3 ~seq:0 ())))
  in
  let _a, effs = step cfg a (Timer_fired Protocol.T_dispatch) in
  let token = find_privilege ~dst:1 effs in
  (* Coordinator: own shared request outstanding, token arrives. *)
  let b = Protocol.init cfg 1 in
  let b, _ = step cfg b Request_shared_cs in
  let b, effs = step cfg b (Receive (0, Protocol.Privilege (token, None))) in
  Alcotest.(check bool) "coordinator enters CS" true (has_enter effs);
  Alcotest.(check bool) "coordinator reports Shared" true
    (Protocol.cs_mode b = Types.Shared);
  Alcotest.(check bool) "batch size noted" true
    (List.exists
       (function Note (Types.Read_batch 2) -> true | _ -> false)
       effs);
  (* The coordinator's Q-list snapshot yields the wait-for edges: the
     queued writer 3 waits on both shared holders. *)
  Alcotest.(check (list (pair int int)))
    "wait edges: writer waits on both readers"
    [ (3, 1); (3, 2) ]
    (List.sort compare (Protocol.wait_edges b));
  let rg =
    match
      List.find_opt
        (function 2, Protocol.Read_grant _ -> true | _ -> false)
        (sends effs)
    with
    | Some (_, Protocol.Read_grant rg) -> rg
    | _ -> Alcotest.fail "expected READ-GRANT to node 2"
  in
  (* Reader 2: grant matches its outstanding shared request. *)
  let c = Protocol.init cfg 2 in
  let c, _ = step cfg c Request_shared_cs in
  let c, effs = step cfg c (Receive (1, Protocol.Read_grant rg)) in
  Alcotest.(check bool) "reader enters CS" true (has_enter effs);
  Alcotest.(check bool) "reader reports Shared" true
    (Protocol.cs_mode c = Types.Shared);
  (* Reader leaves: READ-DONE flows back to the coordinator. *)
  let _c, effs = step cfg c Cs_done in
  let rd_seq =
    match sends effs with
    | [ (1, Protocol.Read_done { rd_seq }) ] -> rd_seq
    | _ -> Alcotest.fail "expected READ-DONE to the coordinator"
  in
  (* Coordinator finishes its own read, then the READ-DONE completes
     the batch: both entries served in one step, token moves to the
     queued writer. *)
  let b, _ = step cfg b Cs_done in
  Alcotest.(check bool) "token pinned until batch completes" true
    (b.Protocol.token <> None);
  let b, effs =
    step cfg b (Receive (2, Protocol.Read_done { rd_seq }))
  in
  Alcotest.(check bool) "batch cleared" true (b.Protocol.rbatch = None);
  let tok3 = find_privilege ~dst:3 effs in
  Alcotest.(check (list int)) "writer now heads the token queue" [ 3 ]
    (List.map (fun e -> e.Qlist.node) tok3.Protocol.tq);
  Alcotest.(check bool) "both readers marked served" true
    (Qlist.Granted.already_served tok3.Protocol.granted (shared_entry 1 0)
    && Qlist.Granted.already_served tok3.Protocol.granted (shared_entry 2 0))

let test_rw_writer_priority_dispatch () =
  (* Under the read-write policy writers outrank queued readers at
     each arbiter hand-off, FCFS as the tie-break. *)
  let rw = Dmutex.Prioritized.rw_config ~n:4 () in
  let a = Protocol.init rw 0 in
  let a, _ = step rw a (Receive (1, Protocol.Request (shared_entry 1 0))) in
  let a, _ =
    step rw a (Receive (3, Protocol.Request (Qlist.entry ~node:3 ~seq:0 ())))
  in
  let a, _ = step rw a (Receive (2, Protocol.Request (shared_entry 2 0))) in
  let _a, effs = step rw a (Timer_fired Protocol.T_dispatch) in
  let token = find_privilege ~dst:3 effs in
  Alcotest.(check (list int)) "writer first, readers keep FCFS" [ 3; 1; 2 ]
    (List.map (fun e -> e.Qlist.node) token.Protocol.tq)

let test_rw_solo_reader_plain_path () =
  (* A batch of one — here a solo reader — takes the unchanged
     exclusive code path bit for bit: no READ-GRANT, no batch state,
     no batch note. *)
  let a = Protocol.init cfg 0 in
  let a, _ = step cfg a (Receive (1, Protocol.Request (shared_entry 1 0))) in
  let _a, effs = step cfg a (Timer_fired Protocol.T_dispatch) in
  let token = find_privilege ~dst:1 effs in
  let b = Protocol.init cfg 1 in
  let b, _ = step cfg b Request_shared_cs in
  let b, effs = step cfg b (Receive (0, Protocol.Privilege (token, None))) in
  Alcotest.(check bool) "enters CS" true (has_enter effs);
  Alcotest.(check bool) "no batch state" true (b.Protocol.rbatch = None);
  Alcotest.(check bool) "no READ-GRANT sent" true
    (not
       (List.exists
          (function _, Protocol.Read_grant _ -> true | _ -> false)
          (sends effs)))

let test_rw_batch_regrant_on_timeout () =
  (* A silent reader gets its READ-GRANT again when T_rbatch fires;
     the batch is not forced complete on the first try. *)
  let a = Protocol.init cfg 0 in
  let a, _ = step cfg a (Receive (1, Protocol.Request (shared_entry 1 0))) in
  let a, _ = step cfg a (Receive (2, Protocol.Request (shared_entry 2 0))) in
  let _a, effs = step cfg a (Timer_fired Protocol.T_dispatch) in
  let token = find_privilege ~dst:1 effs in
  let b = Protocol.init cfg 1 in
  let b, _ = step cfg b Request_shared_cs in
  let b, _ = step cfg b (Receive (0, Protocol.Privilege (token, None))) in
  let b, effs = step cfg b (Timer_fired Protocol.T_rbatch) in
  Alcotest.(check int) "grant re-sent to the silent reader" 1
    (List.length
       (List.filter
          (function 2, Protocol.Read_grant _ -> true | _ -> false)
          (sends effs)));
  Alcotest.(check bool) "batch still open" true (b.Protocol.rbatch <> None)

let test_rw_stale_grant_answered () =
  (* A READ-GRANT for a request we never made (or finished long ago)
     is answered with READ-DONE immediately, so a confused coordinator
     can never wedge on us. *)
  let c = Protocol.init cfg 2 in
  let rg =
    {
      Protocol.rg_epoch = 0;
      rg_minor = 1;
      rg_entry = shared_entry 2 7;
    }
  in
  let c, effs = step cfg c (Receive (1, Protocol.Read_grant rg)) in
  Alcotest.(check bool) "not in CS" false (Protocol.in_cs c);
  match sends effs with
  | [ (1, Protocol.Read_done { rd_seq = 7 }) ] -> ()
  | _ -> Alcotest.fail "expected an immediate READ-DONE"

let test_rw_wait_edges_exclusive () =
  (* Exclusive holder with a queue: every queued node waits on the
     holder; a node without the token contributes no edges. *)
  let a = Protocol.init cfg 0 in
  let a, _ = step cfg a Request_cs in
  let a, _ =
    step cfg a (Receive (2, Protocol.Request (Qlist.entry ~node:2 ~seq:0 ())))
  in
  let a, _ = step cfg a (Timer_fired Protocol.T_dispatch) in
  Alcotest.(check bool) "holder in CS" true (Protocol.in_cs a);
  Alcotest.(check (list (pair int int))) "queued node waits on holder"
    [ (2, 0) ]
    (Protocol.wait_edges a);
  let b = Protocol.init cfg 1 in
  Alcotest.(check (list (pair int int))) "no token, no edges" []
    (Protocol.wait_edges b)

let suite =
  ( "protocol",
    [
      Alcotest.test_case "initial roles" `Quick test_init_roles;
      Alcotest.test_case "request from normal node" `Quick
        test_request_from_normal_node;
      Alcotest.test_case "arbiter self-request" `Quick
        test_arbiter_enqueues_own_request;
      Alcotest.test_case "dispatch" `Quick test_dispatch;
      Alcotest.test_case "dispatch with self at head" `Quick
        test_dispatch_self_head;
      Alcotest.test_case "self-singleton suppression" `Quick
        test_singleton_self_suppression;
      Alcotest.test_case "empty dispatch idles" `Quick
        test_empty_dispatch_idles;
      Alcotest.test_case "CS completion passes token" `Quick
        test_cs_done_passes_token;
      Alcotest.test_case "tail becomes arbiter" `Quick
        test_tail_becomes_arbiter;
      Alcotest.test_case "election by NEW-ARBITER" `Quick
        test_new_arbiter_election;
      Alcotest.test_case "stale election ignored" `Quick
        test_stale_election_ignored;
      Alcotest.test_case "retransmit after two misses" `Quick
        test_miss_retransmission;
      Alcotest.test_case "implicit ack resets misses" `Quick
        test_ack_resets_misses;
      Alcotest.test_case "forwarding phase" `Quick test_forwarding_phase;
      Alcotest.test_case "bystander relays toward arbiter" `Quick
        test_normal_relays_toward_arbiter;
      Alcotest.test_case "served duplicate dropped" `Quick
        test_duplicate_served_request_dropped;
      Alcotest.test_case "stale token discarded" `Quick
        test_stale_token_discarded;
      Alcotest.test_case "message kinds" `Quick test_message_kinds;
      Alcotest.test_case "rw: shared batch end-to-end" `Quick
        test_rw_batch_flow;
      Alcotest.test_case "rw: writer-priority dispatch" `Quick
        test_rw_writer_priority_dispatch;
      Alcotest.test_case "rw: solo reader takes the exclusive path" `Quick
        test_rw_solo_reader_plain_path;
      Alcotest.test_case "rw: batch re-grant on timeout" `Quick
        test_rw_batch_regrant_on_timeout;
      Alcotest.test_case "rw: stale READ-GRANT answered" `Quick
        test_rw_stale_grant_answered;
      Alcotest.test_case "rw: wait-for edges (exclusive)" `Quick
        test_rw_wait_edges_exclusive;
    ] )
