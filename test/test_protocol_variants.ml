(* Unit tests of the Section 4.1 (monitor) and Section 6 (recovery)
   message handlers, driving Protocol.handle directly — the
   integration suites exercise these paths end-to-end; these pin the
   individual transitions. *)

open Dmutex
open Dmutex.Types

let mon_cfg = Monitored.config ~monitor:0 ~threshold:2 ~window:4 ~n:4 ()

let res_cfg =
  Resilient.config ~token_timeout:1.0 ~enquiry_timeout:0.5
    ~arbiter_timeout:2.0 ~n:4 ()

let step ?(now = 0.0) cfg st input = Protocol.handle cfg ~now st input

let sends effs =
  List.filter_map
    (function Send (dst, m) -> Some (dst, m) | _ -> None)
    effs

let broadcasts effs =
  List.filter_map (function Broadcast m -> Some m | _ -> None) effs

let timers effs =
  List.filter_map (function Set_timer (k, d) -> Some (k, d) | _ -> None) effs

let entry ?(hops = 0) node seq = Qlist.entry ~hops ~node ~seq ()

let token ?(epoch = 0) ?(election = 1) q =
  { Protocol.tq = q; granted = Qlist.Granted.create 4; epoch; election; vepoch = 0 }

(* ------------------------- monitor (§4.1) ------------------------ *)

let test_monitor_request_parked () =
  (* The monitor, as a bystander, parks resubmitted requests. *)
  let st = Protocol.init mon_cfg 0 in
  let st = { st with Protocol.role = Protocol.Normal } in
  let st, effs =
    step mon_cfg st (Receive (2, Protocol.Monitor_request (entry 2 0)))
  in
  Alcotest.(check int) "no sends" 0 (List.length (sends effs));
  Alcotest.(check bool) "parked" true
    (Qlist.mem 2 st.Protocol.monitor_buffer)

let test_monitor_request_served_if_arbiter () =
  (* If the monitor happens to be the collecting arbiter, a
     resubmission joins the normal queue directly. *)
  let st = Protocol.init mon_cfg 0 in
  let st, _ =
    step mon_cfg st (Receive (2, Protocol.Monitor_request (entry 2 0)))
  in
  match st.Protocol.role with
  | Protocol.Collecting { cq; _ } ->
      Alcotest.(check bool) "joined the collection" true (Qlist.mem 2 cq);
      Alcotest.(check int) "buffer untouched" 0
        (List.length st.Protocol.monitor_buffer)
  | _ -> Alcotest.fail "monitor should be collecting initially"

let test_monitor_privilege_flushes_buffer () =
  (* MONITOR-PRIVILEGE: append parked requests, broadcast NEW-ARBITER
     with counter 0, forward the token to the head. *)
  let st = Protocol.init mon_cfg 0 in
  let st = { st with Protocol.role = Protocol.Normal; token = None } in
  let st, _ =
    step mon_cfg st (Receive (3, Protocol.Monitor_request (entry 3 0)))
  in
  let st, effs =
    step mon_cfg st
      (Receive (1, Protocol.Monitor_privilege (token [ entry 1 1 ])))
  in
  (match broadcasts effs with
  | [ Protocol.New_arbiter na ] ->
      Alcotest.(check int) "counter reset" 0 na.Protocol.na_counter;
      Alcotest.(check (list int)) "buffered request appended" [ 1; 3 ]
        (List.map (fun e -> e.Qlist.node) na.Protocol.na_q);
      Alcotest.(check int) "tail (parked requester) is new arbiter" 3
        na.Protocol.na_arbiter
  | _ -> Alcotest.fail "expected a NEW-ARBITER broadcast from the monitor");
  (match sends effs with
  | [ (1, Protocol.Privilege (t, _)) ] ->
      Alcotest.(check int) "token forwarded to head" 2
        (List.length t.Protocol.tq)
  | _ -> Alcotest.fail "expected the token to move to node 1");
  Alcotest.(check int) "buffer discarded" 0
    (List.length st.Protocol.monitor_buffer)

let test_over_budget_drop_when_monitored () =
  (* A request over the τ hop budget is dropped by a forwarding
     arbiter in the monitored variant (the requester will escape to
     the monitor). *)
  let st = Protocol.init mon_cfg 1 in
  let st =
    { st with Protocol.role = Protocol.Forwarding { next_arbiter = 2 } }
  in
  let _, effs =
    step mon_cfg st (Receive (3, Protocol.Request (entry ~hops:2 3 0)))
  in
  Alcotest.(check int) "not forwarded" 0 (List.length (sends effs));
  Alcotest.(check bool) "dropped note" true
    (List.exists (function Note Dropped_request -> true | _ -> false) effs)

let test_miss_escape_to_monitor () =
  (* τ consecutive NEW-ARBITER misses: the requester resubmits to the
     monitor rather than the arbiter. *)
  let st = Protocol.init mon_cfg 2 in
  let st, _ = step mon_cfg st Request_cs in
  let na ~election =
    Protocol.New_arbiter
      {
        na_arbiter = 3;
        na_q = [ entry 1 0 ];
        na_granted = Qlist.Granted.create 4;
        na_counter = 1;
        na_monitor = 0;
        na_epoch = 0;
        na_election = election;
        na_view = Protocol.birth_view mon_cfg;
      }
  in
  let st, _ = step mon_cfg st (Receive (1, na ~election:1)) in
  let _, effs = step mon_cfg st (Receive (1, na ~election:2)) in
  Alcotest.(check bool) "escaped to the monitor" true
    (List.exists
       (function
         | Send (0, Protocol.Monitor_request e) -> e.Qlist.node = 2
         | _ -> false)
       effs);
  Alcotest.(check bool) "noted" true
    (List.exists
       (function Note Resubmitted_to_monitor -> true | _ -> false)
       effs)

(* ------------------------- recovery (§6) ------------------------- *)

let elected_arbiter () =
  (* Node 2 elected via NEW-ARBITER, awaiting the token, with a known
     last Q-list. *)
  let st = Protocol.init res_cfg 2 in
  let na =
    Protocol.New_arbiter
      {
        na_arbiter = 2;
        na_q = [ entry 1 0; entry 2 0 ];
        na_granted = Qlist.Granted.create 4;
        na_counter = 1;
        na_monitor = -1;
        na_epoch = 0;
        na_election = 3;
        na_view = Protocol.birth_view res_cfg;
      }
  in
  let st, effs = step res_cfg st (Receive (0, na)) in
  (st, effs)

let test_elected_arbiter_arms_token_timeout () =
  let _, effs = elected_arbiter () in
  Alcotest.(check bool) "T_token armed" true
    (List.exists (fun (k, _) -> k = Protocol.T_token) (timers effs))

let test_warning_starts_enquiry () =
  let st, _ = elected_arbiter () in
  let st, effs = step res_cfg st (Receive (1, Protocol.Warning)) in
  let enquiries =
    List.filter
      (function _, Protocol.Enquiry _ -> true | _ -> false)
      (sends effs)
  in
  (* Every peer is enquired (not just the last Q-list): the replies
     double as the quorum gating regeneration. *)
  Alcotest.(check (list int)) "enquired peers" [ 0; 1; 3 ]
    (List.sort compare (List.map fst enquiries));
  Alcotest.(check bool) "recovery running" true (st.Protocol.recovery <> None);
  Alcotest.(check bool) "noted" true
    (List.exists (function Note Recovery_started -> true | _ -> false) effs)

let test_warning_ignored_when_token_held () =
  let st = Protocol.init res_cfg 0 in
  (* initial arbiter holds the token *)
  let st', effs = step res_cfg st (Receive (3, Protocol.Warning)) in
  Alcotest.(check bool) "no recovery with token in hand" true
    (st'.Protocol.recovery = None && effs = [])

let test_enquiry_reply_have_token_resumes () =
  let st, _ = elected_arbiter () in
  let st, _ = step res_cfg st (Receive (1, Protocol.Warning)) in
  let st, effs =
    step res_cfg st
      (Receive
         (1, Protocol.Enquiry_reply { round = 1; status = Protocol.Have_token }))
  in
  Alcotest.(check bool) "resume sent to holder" true
    (List.mem (1, Protocol.Resume { round = 1 }) (sends effs));
  Alcotest.(check bool) "recovery closed" true (st.Protocol.recovery = None)

let test_all_waiting_regenerates () =
  let st, _ = elected_arbiter () in
  let st, _ = step res_cfg st (Receive (1, Protocol.Warning)) in
  let reply src status =
    Receive (src, Protocol.Enquiry_reply { round = 1; status })
  in
  let st, _ = step res_cfg st (reply 0 Protocol.Executed) in
  let st, _ = step res_cfg st (reply 1 Protocol.Waiting_token) in
  (* Node 3 stays silent; with n = 4 the recoverer plus two repliers
     is already a majority, so the enquiry timeout regenerates. *)
  let st, effs = step res_cfg st (Timer_fired Protocol.T_enquiry) in
  Alcotest.(check bool) "token regenerated" true
    (List.exists (function Note Token_regenerated -> true | _ -> false) effs);
  Alcotest.(check bool) "waiting node invalidated" true
    (List.mem (1, Protocol.Invalidate { round = 1 }) (sends effs));
  (* Regeneration epochs are id-salted (+1+me) so concurrent
     recoveries can never mint equal epochs. *)
  Alcotest.(check bool) "epoch bumped" true (st.Protocol.token_epoch = 3);
  (match st.Protocol.token with
  | Some t -> Alcotest.(check int) "fresh token epoch" 3 t.Protocol.epoch
  | None -> Alcotest.fail "arbiter should now hold a token");
  (* The waiting responder is rescheduled at the front. *)
  match st.Protocol.role with
  | Protocol.Collecting { cq; _ } ->
      Alcotest.(check bool) "waiting node at front of queue" true
        (match cq with e :: _ -> e.Qlist.node = 1 | [] -> false)
  | _ -> Alcotest.fail "arbiter should be collecting with the new token"

let test_quorum_blocks_regeneration () =
  (* A recoverer that has heard from fewer than a majority must not
     mint a token — across a partition the real one may still be
     alive. It keeps re-enquirying the silent peers instead. *)
  let st, _ = elected_arbiter () in
  let st, _ = step res_cfg st (Receive (1, Protocol.Warning)) in
  let st, _ =
    step res_cfg st
      (Receive (0, Protocol.Enquiry_reply { round = 1; status = Protocol.Executed }))
  in
  (* recoverer + 1 replier = 2 < 3 (majority of 4) *)
  let st, effs = step res_cfg st (Timer_fired Protocol.T_enquiry) in
  Alcotest.(check bool) "no regeneration below quorum" false
    (List.exists (function Note Token_regenerated -> true | _ -> false) effs);
  Alcotest.(check bool) "recovery still running" true
    (st.Protocol.recovery <> None);
  let re_enquired =
    List.filter_map
      (function dst, Protocol.Enquiry _ -> Some dst | _ -> None)
      (sends effs)
  in
  Alcotest.(check (list int)) "silent peers re-enquired" [ 1; 3 ]
    (List.sort compare re_enquired);
  Alcotest.(check bool) "enquiry timer re-armed" true
    (List.exists (fun (k, _) -> k = Protocol.T_enquiry) (timers effs))

let test_announcement_cancels_recovery () =
  (* A higher-election announcement naming another arbiter supersedes
     our in-flight invalidation: it owns recovery now. *)
  let st, _ = elected_arbiter () in
  let st, _ = step res_cfg st (Receive (1, Protocol.Warning)) in
  Alcotest.(check bool) "recovery running" true (st.Protocol.recovery <> None);
  let na =
    Protocol.New_arbiter
      {
        na_arbiter = 3;
        na_q = [];
        na_granted = Qlist.Granted.create 4;
        na_counter = 2;
        na_monitor = -1;
        na_epoch = 0;
        na_election = 9;
        na_view = Protocol.birth_view res_cfg;
      }
  in
  let st, effs = step res_cfg st (Receive (3, na)) in
  Alcotest.(check bool) "recovery cancelled" true
    (st.Protocol.recovery = None);
  Alcotest.(check bool) "enquiry timer cancelled" true
    (List.mem (Cancel_timer Protocol.T_enquiry) effs)

let test_enquiry_suspends_holder () =
  (* A token holder answering an ENQUIRY suspends passing until
     RESUME. *)
  let st = Protocol.init res_cfg 1 in
  let st, _ = step res_cfg st Request_cs in
  let st, _ =
    step res_cfg st (Receive (0, Protocol.Privilege (token [ entry 1 0 ], None)))
  in
  let st, effs = step res_cfg st (Receive (3, Protocol.Enquiry { round = 7 })) in
  (match sends effs with
  | [ (3, Protocol.Enquiry_reply { round = 7; status = Protocol.Have_token }) ]
    -> ()
  | _ -> Alcotest.fail "expected have-token reply");
  Alcotest.(check bool) "suspended" true st.Protocol.suspended;
  (* CS completes while suspended: the token is held, not passed. *)
  let st, effs = step res_cfg st Cs_done in
  Alcotest.(check int) "no token hop while suspended" 0
    (List.length (sends effs));
  Alcotest.(check bool) "token retained" true (st.Protocol.token <> None);
  (* RESUME releases it (empty queue -> become arbiter here). *)
  let st, _ = step res_cfg st (Receive (3, Protocol.Resume { round = 7 })) in
  Alcotest.(check bool) "unsuspended" false st.Protocol.suspended;
  Alcotest.(check bool) "acts on the held token" true
    (match st.Protocol.role with
    | Protocol.Collecting _ -> true
    | _ -> false)

let test_probe_ack () =
  let st = Protocol.init res_cfg 3 in
  let _, effs = step res_cfg st (Receive (0, Protocol.Probe)) in
  Alcotest.(check bool) "ack" true
    (sends effs = [ (0, Protocol.Probe_ack) ])

let test_takeover_on_probe_timeout () =
  (* The watcher probes; no answer; it proclaims itself and starts
     recovery. *)
  let st = Protocol.init res_cfg 0 in
  (* Make node 0 the watcher of arbiter 2. *)
  let st =
    { st with Protocol.role = Protocol.Normal; arbiter = 2; watching = true;
      token = None;
      last_q = [ entry 1 0 ] }
  in
  let st, effs = step res_cfg st (Timer_fired Protocol.T_watch) in
  Alcotest.(check bool) "probe sent" true
    (List.mem (2, Protocol.Probe) (sends effs));
  let st, effs = step res_cfg st (Timer_fired Protocol.T_probe) in
  (match broadcasts effs with
  | [ Protocol.New_arbiter na ] ->
      Alcotest.(check int) "proclaims itself" 0 na.Protocol.na_arbiter;
      Alcotest.(check bool) "election bumped" true (na.Protocol.na_election >= 1)
  | _ -> Alcotest.fail "expected takeover broadcast");
  Alcotest.(check bool) "takeover noted" true
    (List.exists (function Note Arbiter_takeover -> true | _ -> false) effs);
  Alcotest.(check bool) "recovery started to find the token" true
    (st.Protocol.recovery <> None)

let test_watch_survives_self_announcement () =
  (* A self-announcement (src = arbiter) must keep the watcher
     watching. *)
  let st = Protocol.init res_cfg 0 in
  let st =
    { st with Protocol.role = Protocol.Normal; arbiter = 2; watching = true }
  in
  let na ~src ~election =
    Receive
      ( src,
        Protocol.New_arbiter
          {
            na_arbiter = 2;
            na_q = [ entry 2 5 ];
            na_granted = Qlist.Granted.create 4;
            na_counter = 1;
            na_monitor = -1;
            na_epoch = 0;
            na_election = election;
            na_view = Protocol.birth_view res_cfg;
          } )
  in
  let st, effs = step res_cfg st (na ~src:2 ~election:1) in
  Alcotest.(check bool) "still watching" true st.Protocol.watching;
  Alcotest.(check bool) "watch timer re-armed" true
    (List.exists (fun (k, _) -> k = Protocol.T_watch) (timers effs));
  (* A normal hand-off announced by a different dispatcher stands the
     watcher down. *)
  let st, effs = step res_cfg st (na ~src:1 ~election:2) in
  Alcotest.(check bool) "stood down" false st.Protocol.watching;
  Alcotest.(check bool) "watch cancelled" true
    (List.exists
       (function Cancel_timer Protocol.T_watch -> true | _ -> false)
       effs)

let test_stale_round_ignored () =
  let st = Protocol.init res_cfg 1 in
  let st = { st with Protocol.enq_round = 5 } in
  let st', effs = step res_cfg st (Receive (0, Protocol.Resume { round = 3 })) in
  Alcotest.(check bool) "stale resume ignored" true (st' = st && effs = []);
  let st', _ = step res_cfg st (Receive (0, Protocol.Invalidate { round = 3 })) in
  Alcotest.(check bool) "stale invalidate ignored" true
    (st'.Protocol.enq_round = 5)

(* ------------- folded announcement (§3.1, deployment) ------------ *)

let privileges effs =
  List.filter_map
    (function
      | Send (dst, Protocol.Privilege (tok, ho)) -> Some (dst, tok, ho)
      | _ -> None)
    effs

let new_arbiters effs =
  List.filter_map
    (function
      | Send (dst, (Protocol.New_arbiter _ as m)) -> Some (dst, m)
      | _ -> None)
    effs

(* What a folded PRIVILEGE stands for: the NEW-ARBITER naming the
   tail of the token's queue (the receiver, for a singleton or an empty
   queue), the token supplying every field the handover leaves out. *)
let unfolded ~receiver (tok : Protocol.token) (ho : Protocol.handover) =
  let monitor, counter = Option.value ho.Protocol.ho_monitor ~default:(-1, 0) in
  Protocol.New_arbiter
    {
      Protocol.na_arbiter =
        (match Qlist.final_holder tok.Protocol.tq with
        | Some t -> t
        | None -> receiver);
      na_q = tok.Protocol.tq;
      na_granted = Option.value ho.Protocol.ho_granted ~default:tok.Protocol.granted;
      na_counter = counter;
      na_monitor = monitor;
      na_epoch = Option.value ho.Protocol.ho_epoch ~default:tok.Protocol.epoch;
      na_election =
        Option.value ho.Protocol.ho_election ~default:tok.Protocol.election;
      na_view = ho.Protocol.ho_view;
    }

(* The receiver of a folded PRIVILEGE ends exactly where NEW-ARBITER
   followed by the bare PRIVILEGE leaves it: same state, same effects
   in the same order. *)
let check_equivalent cfg receiver ~src ~announcement tok ho =
  let folded =
    step cfg receiver (Receive (src, Protocol.Privilege (tok, Some ho)))
  in
  let split =
    let st, e1 = step cfg receiver (Receive (src, announcement)) in
    let st, e2 = step cfg st (Receive (src, Protocol.Privilege (tok, None))) in
    (st, e1 @ e2)
  in
  Alcotest.(check bool) "same state as NEW-ARBITER then PRIVILEGE" true
    (fst folded = fst split);
  Alcotest.(check bool) "same effects as NEW-ARBITER then PRIVILEGE" true
    (snd folded = snd split);
  folded

let view vnum members =
  { Protocol.vnum;
    vmembers = List.map (fun mid -> { Protocol.mid; maddr = "" }) members }

(* Node 0, the initial arbiter holding the token, schedules node 1's
   request alone. *)
let dispatch_singleton cfg st0 =
  let st0, _ = step cfg st0 (Receive (1, Protocol.Request (entry 1 0))) in
  step cfg st0 (Timer_fired Protocol.T_dispatch)

let test_singleton_dispatch_folds () =
  let _, effs = dispatch_singleton res_cfg (Protocol.init res_cfg 0) in
  Alcotest.(check int) "no broadcast" 0 (List.length (broadcasts effs));
  Alcotest.(check (list int)) "NEW-ARBITER to the N-2 others" [ 2; 3 ]
    (List.sort compare (List.map fst (new_arbiters effs)));
  (match privileges effs with
  | [ (1, tok, Some ho) ] ->
      Alcotest.(check (list int)) "singleton queue" [ 1 ]
        (List.map (fun e -> e.Qlist.node) tok.Protocol.tq);
      Alcotest.(check bool) "carries the view" true
        (ho.Protocol.ho_view = Protocol.birth_view res_cfg);
      Alcotest.(check bool) "nothing the token already says" true
        (ho.Protocol.ho_granted = None && ho.Protocol.ho_epoch = None
        && ho.Protocol.ho_election = None && ho.Protocol.ho_monitor = None);
      Alcotest.(check string) "counted as one PRIVILEGE" "PRIVILEGE"
        (Protocol.message_kind (Protocol.Privilege (tok, Some ho)))
  | _ -> Alcotest.fail "expected one PRIVILEGE with the announcement to node 1");
  (* The paper presets keep Eq. 1's accounting: a NEW-ARBITER broadcast
     and a bare PRIVILEGE. *)
  let basic = Basic.config ~n:4 () in
  let _, effs = dispatch_singleton basic (Protocol.init basic 0) in
  (match broadcasts effs with
  | [ Protocol.New_arbiter na ] ->
      Alcotest.(check int) "basic: broadcast names the tail" 1
        na.Protocol.na_arbiter
  | _ -> Alcotest.fail "basic: expected one NEW-ARBITER broadcast");
  Alcotest.(check int) "basic: no point-to-point NEW-ARBITER" 0
    (List.length (new_arbiters effs));
  match privileges effs with
  | [ (1, _, None) ] -> ()
  | _ -> Alcotest.fail "basic: expected a bare PRIVILEGE to node 1"

let test_fold_equivalent_committed_view () =
  (* The dispatcher runs view 2 (node 3 excised) and knows more grants
     than its token records; the tail is still at view 1. Receipt
     adopts view 2 from the folded announcement, then the token. *)
  let st0 = Protocol.init res_cfg 0 in
  let st0 =
    { st0 with
      Protocol.view = view 2 [ 0; 1; 2 ];
      granted_known = [| 0; -1; 4; -1 |];
      token =
        Option.map (fun t -> { t with Protocol.vepoch = 2 }) st0.Protocol.token }
  in
  let _, effs = dispatch_singleton res_cfg st0 in
  let announcement =
    match new_arbiters effs with
    | [ (2, m) ] -> m
    | _ -> Alcotest.fail "expected NEW-ARBITER to node 2 only"
  in
  match privileges effs with
  | [ (1, tok, Some ho) ] ->
      Alcotest.(check bool) "granted vector folded where it differs" true
        (ho.Protocol.ho_granted = Some [| 0; -1; 4; -1 |]);
      Alcotest.(check bool) "it is the others' announcement" true
        (unfolded ~receiver:1 tok ho
         = (match announcement with
           | Protocol.New_arbiter na ->
               Protocol.New_arbiter { na with Protocol.na_counter = 0 }
           | m -> m));
      let receiver = { (Protocol.init res_cfg 1) with Protocol.view = view 1 [ 0; 1; 2; 3 ] } in
      let st, _ = check_equivalent res_cfg receiver ~src:0 ~announcement tok ho in
      Alcotest.(check int) "view adopted" 2 st.Protocol.view.Protocol.vnum;
      Alcotest.(check bool) "in the CS" true st.Protocol.in_cs
  | _ -> Alcotest.fail "expected one folded PRIVILEGE to node 1"

let test_fold_equivalent_monitored () =
  (* Section 4.1 path: the token reaches the monitor (node 2), which
     announces with its counter reset and forwards the token to the
     singleton tail, folding the monitor fields in. *)
  let cfg =
    { (Monitored.config ~monitor:2 ~n:4 ()) with
      Types.Config.skip_new_arbiter_to_tail = true }
  in
  let _, effs = dispatch_singleton cfg (Protocol.init cfg 0) in
  let tok =
    match sends effs with
    | [ (2, Protocol.Monitor_privilege tok) ] -> tok
    | _ -> Alcotest.fail "expected the token routed to the monitor"
  in
  let monitor = { (Protocol.init cfg 2) with Protocol.role = Protocol.Normal } in
  let _, effs = step cfg monitor (Receive (0, Protocol.Monitor_privilege tok)) in
  let announcement =
    match List.sort compare (List.map fst (new_arbiters effs)) with
    | [ 0; 3 ] -> snd (List.hd (new_arbiters effs))
    | _ -> Alcotest.fail "expected NEW-ARBITER to nodes 0 and 3"
  in
  match privileges effs with
  | [ (1, tok, Some ho) ] ->
      Alcotest.(check bool) "monitor fields folded" true
        (ho.Protocol.ho_monitor = Some (2, 0));
      Alcotest.(check bool) "it is the others' announcement" true
        (unfolded ~receiver:1 tok ho = announcement);
      ignore
        (check_equivalent cfg (Protocol.init cfg 1) ~src:2 ~announcement tok ho)
  | _ -> Alcotest.fail "expected one folded PRIVILEGE to node 1"

let test_fold_equivalent_nonmember_sender () =
  (* A coordinator that excised itself hands the token to the lowest
     survivor with the announcement folded in. At a survivor that
     already has the commit the sender is outside the view: the
     announcement is dropped exactly like a lone NEW-ARBITER from it,
     and the token is taken. *)
  let st0 = Protocol.init res_cfg 0 in
  let st0, _ = step res_cfg st0 (Receive (0, Protocol.Leave_request 0)) in
  let st0, _ = step res_cfg st0 (Receive (1, Protocol.View_ack { va_vnum = 1 })) in
  let _, effs = step res_cfg st0 (Receive (2, Protocol.View_ack { va_vnum = 1 })) in
  let commit =
    match
      List.find_opt
        (function
          | 1, Protocol.View_change { Protocol.vc_commit = true; _ } -> true
          | _ -> false)
        (sends effs)
    with
    | Some (_, m) -> m
    | None -> Alcotest.fail "expected the commit to node 1"
  in
  match privileges effs with
  | [ (1, tok, Some ho) ] ->
      let receiver, _ = step res_cfg (Protocol.init res_cfg 1) (Receive (0, commit)) in
      Alcotest.(check bool) "sender outside the receiver's view" false
        (Protocol.is_member receiver.Protocol.view 0);
      let announcement = unfolded ~receiver:1 tok ho in
      let st, effs =
        check_equivalent res_cfg receiver ~src:0 ~announcement tok ho
      in
      Alcotest.(check bool) "announcement dropped at the gate" true
        (List.mem (Note (Custom "nonmember-dropped")) effs);
      Alcotest.(check bool) "token taken" true (st.Protocol.token <> None)
  | _ -> Alcotest.fail "expected the hand-off PRIVILEGE to node 1"

(* ---------------- idle-window rule (Config.early_close) ---------------- *)

let dispatch_timers effs =
  List.filter_map
    (fun (k, d) -> if k = Protocol.T_dispatch then Some d else None)
    (timers effs)

let window_skipped effs = List.mem (Note (Custom "window-skipped")) effs

(* Node 2's REQUEST reaches arbiter 0 (token in hand, window anchored
   at 0, [t_collect] = 0.1) at [now]: the dispatch timers it arms, and
   whether the rule reported a skipped window. *)
let window_rules =
  let basic = Basic.config ~n:4 () in
  [ ("idle over a window: dispatch now", res_cfg, false, 0.25, [ 0.0 ], true);
    ("idle exactly one window: dispatch now", res_cfg, false, 0.1, [ 0.0 ], true);
    ("token under a window old: residual", res_cfg, false, 0.04, [ 0.06 ], false);
    ("window armed: no new timer", res_cfg, true, 0.25, [], false);
    ("basic: the fixed grid", basic, false, 0.25, [ 0.05 ], false) ]

let window_rule_case (name, cfg, armed, now, expected, skipped) =
  Alcotest.test_case ("idle window: " ^ name) `Quick (fun () ->
      let cq = if armed then [ entry 1 0 ] else [] in
      let st =
        { (Protocol.init cfg 0) with
          Protocol.role = Protocol.Collecting { cq; anchor = 0.0; armed } }
      in
      let st, effs =
        step ~now cfg st (Receive (2, Protocol.Request (entry 2 0)))
      in
      Alcotest.(check (list (float 1e-9))) "dispatch timers" expected
        (dispatch_timers effs);
      Alcotest.(check bool) "window-skipped note" skipped (window_skipped effs);
      match st.Protocol.role with
      | Protocol.Collecting { cq; armed; _ } ->
          Alcotest.(check bool) "queued and armed" true
            (Qlist.mem 2 cq && armed)
      | _ -> Alcotest.fail "the arbiter must keep collecting")

let test_idle_window_own_request () =
  (* The idle arbiter's own request: the zero-delay timer's firing
     enters the CS, with the same self-singleton announcement recovery
     makes when the fixed grid fires a residual later. *)
  let fire cfg =
    let st, effs = step ~now:0.25 cfg (Protocol.init cfg 0) Request_cs in
    let delay =
      match dispatch_timers effs with
      | [ d ] -> d
      | _ -> Alcotest.fail "expected one dispatch timer"
    in
    let st, effs =
      step ~now:(0.25 +. delay) cfg st (Timer_fired Protocol.T_dispatch)
    in
    (delay, st, List.filter (function Note _ -> false | _ -> true) effs)
  in
  let d_on, st_on, on = fire res_cfg in
  let d_off, _, off = fire { res_cfg with Types.Config.early_close = false } in
  Alcotest.(check (float 1e-9)) "dispatched at once" 0.0 d_on;
  Alcotest.(check (float 1e-9)) "fixed grid: the residual" 0.05 d_off;
  Alcotest.(check bool) "in the CS" true
    (st_on.Protocol.in_cs && List.mem Enter_cs on);
  Alcotest.(check bool) "self-singleton still announced" true
    (List.exists
       (function
         | Broadcast (Protocol.New_arbiter _) | Send (_, Protocol.New_arbiter _) ->
             true
         | _ -> false)
       on);
  Alcotest.(check bool) "same effects as at the grid boundary" true (on = off)

let suite =
  ( "protocol-variants",
    [
      Alcotest.test_case "monitor parks resubmissions" `Quick
        test_monitor_request_parked;
      Alcotest.test_case "monitor-as-arbiter serves directly" `Quick
        test_monitor_request_served_if_arbiter;
      Alcotest.test_case "monitor pass flushes buffer" `Quick
        test_monitor_privilege_flushes_buffer;
      Alcotest.test_case "over-budget drop (monitored)" `Quick
        test_over_budget_drop_when_monitored;
      Alcotest.test_case "τ misses escape to monitor" `Quick
        test_miss_escape_to_monitor;
      Alcotest.test_case "elected arbiter arms token timeout" `Quick
        test_elected_arbiter_arms_token_timeout;
      Alcotest.test_case "WARNING starts two-phase enquiry" `Quick
        test_warning_starts_enquiry;
      Alcotest.test_case "WARNING ignored with token in hand" `Quick
        test_warning_ignored_when_token_held;
      Alcotest.test_case "have-token reply resumes" `Quick
        test_enquiry_reply_have_token_resumes;
      Alcotest.test_case "all-waiting regenerates the token" `Quick
        test_all_waiting_regenerates;
      Alcotest.test_case "quorum gates regeneration" `Quick
        test_quorum_blocks_regeneration;
      Alcotest.test_case "announcement cancels rival recovery" `Quick
        test_announcement_cancels_recovery;
      Alcotest.test_case "ENQUIRY suspends a holder" `Quick
        test_enquiry_suspends_holder;
      Alcotest.test_case "PROBE is acknowledged" `Quick test_probe_ack;
      Alcotest.test_case "takeover on probe timeout" `Quick
        test_takeover_on_probe_timeout;
      Alcotest.test_case "watch survives self-announcement" `Quick
        test_watch_survives_self_announcement;
      Alcotest.test_case "stale rounds ignored" `Quick
        test_stale_round_ignored;
      Alcotest.test_case "singleton dispatch folds the announcement" `Quick
        test_singleton_dispatch_folds;
      Alcotest.test_case "folded = split: committed view" `Quick
        test_fold_equivalent_committed_view;
      Alcotest.test_case "folded = split: monitored" `Quick
        test_fold_equivalent_monitored;
      Alcotest.test_case "folded = split: sender outside view" `Quick
        test_fold_equivalent_nonmember_sender;
      Alcotest.test_case "idle window: own request enters at once" `Quick
        test_idle_window_own_request;
    ]
    @ List.map window_rule_case window_rules )
