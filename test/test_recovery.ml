(* Section 6: failure recovery. Fault injection on the resilient
   variant through the simulated network. *)

open Dmutex
module R = Sim_runner.Make (Resilient)

let cfg ?(n = 8) () =
  Resilient.config ~token_timeout:1.5 ~enquiry_timeout:0.8
    ~arbiter_timeout:2.5 ~n ()

let load t n rate =
  let rng = Simkit.Rng.create 37 in
  for i = 0 to n - 1 do
    let node_rng = Simkit.Rng.split rng in
    ignore
      (Simkit.Workload.poisson (R.engine t) ~rng:node_rng ~rate
         ~on_arrival:(fun _ -> R.request t i))
  done

let note o name = try List.assoc name (o : Sim_runner.outcome).notes with Not_found -> 0

(* Probe from [start] until the predicate-chosen victim exists, then
   apply the fault. *)
let inject_when t ~start f =
  let rec probe delay =
    ignore
      (Simkit.Engine.schedule (R.engine t) ~delay (fun _ ->
           if not (f t) then probe 0.05))
  in
  probe start

let test_no_fault_baseline () =
  (* The recovery machinery must not perturb a healthy run. *)
  let o = R.run_poisson ~seed:1 ~requests:10_000 ~rate:0.2 (cfg ()) in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check int) "all served" 0 o.unserved;
  Alcotest.(check int) "no recoveries triggered" 0 (note o "recovery-started")

let test_loss_probability_validated () =
  (* 1.5 would drop every message and nan none, both silently: either
     entry point refuses them. *)
  let t = R.create ~seed:1 (cfg ()) in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "set_loss %g rejected" p) true
        (match R.set_loss t p with
        | () -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check bool) (Printf.sprintf "Loss %g rejected" p) true
        (match R.apply_faults t [ (1.0, Types.Loss p) ] with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ 1.5; -0.1; Float.nan ]

let test_partition_heal () =
  (* A 5|3 split for 10 s, then healed: the majority side may
     regenerate, but never alongside a live token, and service goes on
     after the heal. *)
  let n = 8 in
  let t = R.create ~seed:5 (cfg ~n ()) in
  let heal_at = 30.0 in
  let after_heal = ref 0 in
  R.on_grant t (fun ~node:_ ~delay:_ ->
      if Simkit.Engine.now (R.engine t) > heal_at +. 5.0 then incr after_heal);
  let o =
    R.saturate ~requests:max_int
      ~faults:
        [
          (20.0, Types.Partition [ [ 0; 1; 2; 3; 4 ]; [ 5; 6; 7 ] ]);
          (heal_at, Types.Heal);
        ]
      ~until:120.0 t
  in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool)
    (Printf.sprintf "service resumed after the heal (%d grants)" !after_heal)
    true (!after_heal > 100)

let test_token_holder_crash () =
  let n = 8 in
  let t = R.create ~seed:2 (cfg ~n ()) in
  load t n 0.3;
  inject_when t ~start:5.0 (fun t ->
      match
        List.find_opt
          (fun i ->
            let st = R.state t i in
            st.Protocol.in_cs || st.Protocol.token <> None)
          (List.init n Fun.id)
      with
      | Some i ->
          R.crash t i;
          true
      | None -> false);
  R.step_until t 100.0;
  let o = R.outcome t in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool) "token regenerated" true (note o "token-regenerated" >= 1);
  Alcotest.(check bool) "service continued" true (o.completed > 100)

let test_privilege_drop () =
  let n = 8 in
  let t = R.create ~seed:3 (cfg ~n ()) in
  load t n 0.3;
  let dropped = ref false in
  ignore
    (Simkit.Engine.schedule (R.engine t) ~delay:5.0 (fun _ ->
         Simkit.Network.set_interceptor (R.network t) (fun ~src:_ ~dst:_ m ->
             match m with
             | Protocol.Privilege _ when not !dropped ->
                 dropped := true;
                 Simkit.Network.Drop
             | _ -> Simkit.Network.Deliver)));
  R.step_until t 100.0;
  let o = R.outcome t in
  Alcotest.(check bool) "the drop happened" true !dropped;
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool) "recovery ran" true (note o "recovery-started" >= 1);
  Alcotest.(check bool) "service continued" true (o.completed > 100)

let test_arbiter_crash_takeover () =
  let n = 8 in
  let t = R.create ~seed:4 (cfg ~n ()) in
  load t n 0.3;
  inject_when t ~start:5.0 (fun t ->
      match
        List.find_opt
          (fun i ->
            let st = R.state t i in
            st.Protocol.token = None
            &&
            match st.Protocol.role with
            | Protocol.Await_token _ -> true
            | _ -> false)
          (List.init n Fun.id)
      with
      | Some i ->
          R.crash t i;
          true
      | None -> false);
  R.step_until t 100.0;
  let o = R.outcome t in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool) "service continued" true (o.completed > 100)

let test_lossy_network () =
  (* 2% uniform loss: retransmission + recovery keep the system live.
     (The paper: "with the increasing quality of emerging networks,
     loss will be minimized" — we are harsher.) *)
  let n = 6 in
  let t = R.create ~seed:5 (cfg ~n ()) in
  Simkit.Network.set_loss (R.network t) 0.02;
  load t n 0.2;
  R.step_until t 400.0;
  let o = R.outcome t in
  Alcotest.(check int) "no violations under loss" 0 o.safety_violations;
  Alcotest.(check bool) "most requests served" true
    (o.completed > 300 && o.unserved < 8)

let test_request_loss_detected () =
  (* Drop the first REQUEST: the NEW-ARBITER implicit-ack mechanism
     must retransmit it. *)
  let n = 5 in
  let t = R.create ~seed:6 (cfg ~n ()) in
  let dropped = ref false in
  Simkit.Network.set_interceptor (R.network t) (fun ~src:_ ~dst:_ m ->
      match m with
      | Protocol.Request _ when not !dropped ->
          dropped := true;
          Simkit.Network.Drop
      | _ -> Simkit.Network.Deliver);
  load t n 0.2;
  R.step_until t 120.0;
  let o = R.outcome t in
  Alcotest.(check bool) "drop happened" true !dropped;
  (* At most the steady-state in-flight request can be pending at the
     cutoff; the dropped request itself was recovered long before. *)
  Alcotest.(check bool) "no backlog beyond in-flight" true (o.unserved <= 2);
  Alcotest.(check bool) "plenty served" true (o.completed > 80);
  Alcotest.(check int) "no violations" 0 o.safety_violations

let test_repeated_faults () =
  (* Crash three different token holders in sequence; the protocol
     must survive each. *)
  let n = 10 in
  let t = R.create ~seed:7 (cfg ~n ()) in
  load t n 0.3;
  let crashes = ref 0 in
  let rec probe delay =
    ignore
      (Simkit.Engine.schedule (R.engine t) ~delay (fun _ ->
           if !crashes < 3 then begin
             (match
                List.find_opt
                  (fun i ->
                    (not (Simkit.Network.is_crashed (R.network t) i))
                    &&
                    let st = R.state t i in
                    st.Protocol.in_cs || st.Protocol.token <> None)
                  (List.init n Fun.id)
              with
             | Some i ->
                 R.crash t i;
                 incr crashes
             | None -> ());
             probe 15.0
           end))
  in
  probe 5.0;
  R.step_until t 200.0;
  let o = R.outcome t in
  Alcotest.(check int) "three crashes injected" 3 !crashes;
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool) "multiple regenerations" true
    (note o "token-regenerated" >= 2);
  Alcotest.(check bool) "service continued" true (o.completed > 200)

let test_crash_recover_rejoin () =
  (* A crashed node that recovers with a fresh state rejoins the
     protocol and gets served again. *)
  let n = 6 in
  let t = R.create ~seed:8 (cfg ~n ()) in
  load t n 0.2;
  ignore
    (Simkit.Engine.schedule (R.engine t) ~delay:5.0 (fun _ ->
         (* Crash a bystander. *)
         let victim =
           List.find
             (fun i ->
               let st = R.state t i in
               (not st.Protocol.in_cs)
               && st.Protocol.token = None
               &&
               match st.Protocol.role with
               | Protocol.Normal -> true
               | _ -> false)
             (List.init n Fun.id)
         in
         R.crash t victim;
         ignore
           (Simkit.Engine.schedule (R.engine t) ~delay:20.0 (fun _ ->
                R.recover t victim))));
  R.step_until t 150.0;
  let o = R.outcome t in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool) "system live" true (o.completed > 100)

(* ------------------------------------------------------------------ *)
(* Restart semantics, driven directly on the pure state machine: what
   a node may and may not do after coming back from a crash, with and
   without durable memory. *)

let sends effs =
  List.filter_map
    (function Types.Send (dst, m) -> Some (dst, m) | _ -> None)
    effs

let has_note name effs =
  List.exists
    (function Types.Note n -> Types.string_of_note n = name | _ -> false)
    effs

let na ~arbiter ~epoch ~election ~n =
  Protocol.New_arbiter
    {
      Protocol.na_arbiter = arbiter;
      na_q = [];
      na_granted = Qlist.Granted.create n;
      na_counter = 0;
      na_monitor = -1;
      na_epoch = epoch;
      na_election = election;
      na_view =
        { Protocol.vnum = 0;
          vmembers =
            List.init n (fun i -> { Protocol.mid = i; maddr = "" }) };
    }

let test_amnesiac_never_regenerates () =
  (* Acceptance: a node restarted with an empty state directory never
     regenerates the token while a live token exists elsewhere. *)
  let n = 5 in
  let cfg = cfg ~n () in
  let st = Protocol.rejoin cfg 0 in
  Alcotest.(check bool) "restart without store is amnesiac" true
    st.Protocol.amnesiac;
  (* Phase 1 refused: a WARNING (how invalidations start) must not
     fan out ENQUIRYs from an amnesiac. *)
  let st', effs =
    Protocol.handle cfg ~now:1.0 st (Types.Receive (1, Protocol.Warning))
  in
  Alcotest.(check int) "no ENQUIRY sent" 0 (List.length (sends effs));
  Alcotest.(check bool) "refusal is visible" true
    (has_note "recovery-refused-amnesiac" effs);
  Alcotest.(check bool) "no invalidation running" true
    (st'.Protocol.recovery = None);
  (* Phase 2 refused too (belt and braces): even with an in-flight
     invalidation record, an amnesiac must not mint a token. *)
  let rigged =
    { st with
      Protocol.recovery =
        Some
          { Protocol.rround = 1; expected = [ 1; 2 ]; replied = [ 1; 2 ];
            waiting = [] } }
  in
  let st'', effs =
    Protocol.handle cfg ~now:2.0 rigged (Types.Timer_fired Protocol.T_enquiry)
  in
  Alcotest.(check bool) "no token regenerated" false
    (has_note "token-regenerated" effs);
  Alcotest.(check bool) "no token appeared" true (st''.Protocol.token = None);
  Alcotest.(check bool) "invalidation dropped" true
    (st''.Protocol.recovery = None)

let test_restored_custodian_recovers () =
  (* Contrast: a restart backed by a durable store is NOT amnesiac,
     and a dead custodian's WARNING starts the invalidation. *)
  let n = 5 in
  let cfg = cfg ~n () in
  let r =
    { Protocol.r_epoch = 4; r_election = 2; r_enq_round = 1; r_next_seq = 3;
      r_granted = Qlist.Granted.create n; r_had_token = true; r_view = None }
  in
  let st = Protocol.rejoin_restored cfg 0 r in
  Alcotest.(check bool) "not amnesiac with memory" false st.Protocol.amnesiac;
  Alcotest.(check int) "epoch restored" 4 st.Protocol.token_epoch;
  Alcotest.(check int) "request counter restored" 3 st.Protocol.next_seq;
  Alcotest.(check bool) "token object never resurrected" true
    (st.Protocol.token = None);
  let st', effs =
    Protocol.handle cfg ~now:1.0 st (Types.Receive (0, Protocol.Warning))
  in
  Alcotest.(check int) "ENQUIRY fans out to every peer" (n - 1)
    (List.length (sends effs));
  Alcotest.(check bool) "invalidation running" true
    (st'.Protocol.recovery <> None)

let test_restored_never_claims_token () =
  (* A restarted ex-custodian answering an ENQUIRY must never claim
     Have_token: its pre-crash token claim died with it. *)
  let n = 5 in
  let cfg = cfg ~n () in
  let r =
    { Protocol.r_epoch = 4; r_election = 2; r_enq_round = 0; r_next_seq = 3;
      r_granted = Qlist.Granted.create n; r_had_token = true; r_view = None }
  in
  let st = Protocol.rejoin_restored cfg 0 r in
  let _, effs =
    Protocol.handle cfg ~now:1.0 st
      (Types.Receive (2, Protocol.Enquiry { round = 7 }))
  in
  match sends effs with
  | [ (2, Protocol.Enquiry_reply { status; _ }) ] ->
      Alcotest.(check bool) "status is not Have_token" true
        (status <> Protocol.Have_token)
  | _ -> Alcotest.fail "expected exactly one ENQUIRY-REPLY to the asker"

let test_sync_wait_absorbs_epoch_first () =
  (* Satellite: a restarted node absorbs the higher epoch from the
     first NEW-ARBITER heard BEFORE issuing its own REQUEST — the
     request is parked until then and goes to the announced arbiter. *)
  let n = 5 in
  let cfg = cfg ~n () in
  let st = Protocol.rejoin cfg 0 in
  let st, effs = Protocol.handle cfg ~now:1.0 st Types.Request_cs in
  Alcotest.(check int) "request parked, nothing sent" 0
    (List.length (sends effs));
  Alcotest.(check int) "parked as pending" 1 (List.length st.Protocol.pending_modes);
  let st, effs =
    Protocol.handle cfg ~now:2.0 st
      (Types.Receive (3, na ~arbiter:3 ~epoch:9 ~election:6 ~n))
  in
  Alcotest.(check int) "higher epoch absorbed first" 9
    st.Protocol.token_epoch;
  Alcotest.(check bool) "announcement clears amnesia" false
    st.Protocol.amnesiac;
  (match sends effs with
  | [ (3, Protocol.Request e) ] ->
      Alcotest.(check int) "request carries restarted seq" 0 e.Qlist.seq
  | _ -> Alcotest.fail "expected the parked REQUEST to the new arbiter");
  Alcotest.(check int) "pending drained" 0 (List.length st.Protocol.pending_modes)

let test_sync_wait_escape_valve () =
  (* If no announcement ever comes, T_retry releases the parked
     request — liveness — but amnesia stays until fresh knowledge. *)
  let n = 5 in
  let cfg = cfg ~n () in
  let st = Protocol.rejoin cfg 0 in
  let st, _ = Protocol.handle cfg ~now:1.0 st Types.Request_cs in
  let st, effs =
    Protocol.handle cfg ~now:10.0 st (Types.Timer_fired Protocol.T_retry)
  in
  Alcotest.(check int) "parked request finally issued" 1
    (List.length (sends effs));
  Alcotest.(check bool) "sync-wait over" false st.Protocol.sync_wait;
  Alcotest.(check bool) "amnesia is NOT cleared by a timeout" true
    st.Protocol.amnesiac

let test_past_life_entries_shed () =
  (* A node killed while the token was on its way to it restarts from
     its store; a peer's transport still holds that PRIVILEGE and
     delivers it after the restart, before the regenerated epoch
     reaches us. Its head entry is our pre-crash request (seq 2, below
     the restored counter 3): granting it would hand the new
     incarnation's parked caller a CS on the dead token, with a fencing
     token older than grants the cluster already issued. *)
  let n = 5 in
  let cfg = cfg ~n () in
  let r =
    { Protocol.r_epoch = 0; r_election = 1; r_enq_round = 0; r_next_seq = 3;
      r_granted = Qlist.Granted.create n; r_had_token = false; r_view = None }
  in
  let restarted () =
    let st = Protocol.rejoin_restored cfg 0 r in
    let st, _ = Protocol.handle cfg ~now:1.0 st Types.Request_cs in
    Alcotest.(check int) "request parked" 1 (List.length st.Protocol.pending_modes);
    st
  in
  let privilege ~epoch entries =
    Protocol.Privilege
      ( { Protocol.tq =
            List.map (fun (node, seq) -> Qlist.entry ~node ~seq ()) entries;
          granted = Qlist.Granted.create n; epoch; election = 1; vepoch = 0 },
        None )
  in
  let entered effs = List.mem Types.Enter_cs effs in
  (* Others still queued behind the dead entry: it is marked served and
     the token moves on to them. *)
  let st', effs =
    Protocol.handle cfg ~now:2.0 (restarted ())
      (Types.Receive (3, privilege ~epoch:0 [ (0, 2); (2, 7) ]))
  in
  Alcotest.(check bool) "no CS entry on a past-life grant" false
    (entered effs || st'.Protocol.in_cs);
  (match sends effs with
  | [ (2, Protocol.Privilege (tk, _)) ] ->
      Alcotest.(check bool) "dead entry marked served" true
        (Qlist.Granted.already_served tk.Protocol.granted
           (Qlist.entry ~node:0 ~seq:2 ()));
      Alcotest.(check int) "only the live entry left" 1
        (List.length tk.Protocol.tq)
  | _ -> Alcotest.fail "expected the token forwarded to node 2");
  Alcotest.(check bool) "shed loudly" true (has_note "past-life-shed" effs);
  Alcotest.(check bool) "still resynchronizing" true st'.Protocol.sync_wait;
  (* The regenerated epoch arrives: the parked request goes out as
     seq 3, and a token granting THAT entry is entered normally. *)
  let st, _ =
    Protocol.handle cfg ~now:3.0 st'
      (Types.Receive (3, na ~arbiter:3 ~epoch:4 ~election:2 ~n))
  in
  Alcotest.(check (option int)) "current request in flight" (Some 3)
    st.Protocol.outstanding;
  let st, effs =
    Protocol.handle cfg ~now:4.0 st
      (Types.Receive (3, privilege ~epoch:4 [ (0, 3) ]))
  in
  Alcotest.(check bool) "this incarnation's grant is entered" true
    (entered effs && st.Protocol.in_cs);
  (* We were the token's last entry: we hold it as the arbiter, but it
     serves nothing of ours until a current announcement arrives — one
     from a newer epoch discards it and our request goes there. *)
  let st, effs =
    Protocol.handle cfg ~now:2.0 (restarted ())
      (Types.Receive (3, privilege ~epoch:0 [ (0, 2) ]))
  in
  Alcotest.(check bool) "held, not entered" true
    ((not (entered effs)) && st.Protocol.token <> None);
  Alcotest.(check bool) "parked request still parked" true
    (st.Protocol.sync_wait && List.length st.Protocol.pending_modes = 1);
  (* The announcement of the dispatch that sent it, queued behind it
     in the same peer's transport, is no news: still parked. *)
  let st, effs =
    Protocol.handle cfg ~now:2.05 st
      (Types.Receive (3, na ~arbiter:0 ~epoch:0 ~election:1 ~n))
  in
  Alcotest.(check bool) "stale announcement does not end resync" true
    (st.Protocol.sync_wait && List.length st.Protocol.pending_modes = 1 && sends effs = []);
  let st, effs =
    Protocol.handle cfg ~now:2.1 st
      (Types.Receive (3, na ~arbiter:3 ~epoch:4 ~election:2 ~n))
  in
  Alcotest.(check bool) "superseded token discarded" true
    (st.Protocol.token = None && has_note "token-invalidated" effs);
  match sends effs with
  | [ (3, Protocol.Request e) ] ->
      Alcotest.(check int) "request goes to the current arbiter" 3 e.Qlist.seq
  | _ -> Alcotest.fail "expected the parked REQUEST to node 3"

let test_request_arms_lost_token_watchdog () =
  (* A request issued to a remote arbiter arms T_token immediately —
     not only once a Q-list announcement acknowledges it. If the
     elected arbiter died with the token in transit and restarted as a
     normal node, no announcement ever comes: requests just bounce
     between stash-relays, and the watchdog's WARNING is the only path
     back to recovery (found by the restart soak). *)
  let n = 4 in
  let cfg = cfg ~n () in
  let armed effs =
    List.exists
      (function Types.Set_timer (Protocol.T_token, _) -> true | _ -> false)
      effs
  in
  let st = Protocol.init cfg 2 in
  let st, effs = Protocol.handle cfg ~now:1.0 st Types.Request_cs in
  Alcotest.(check bool) "watchdog armed at issue" true (armed effs);
  (* Unserved past the timeout: WARNING the believed arbiter, re-arm. *)
  let _, effs =
    Protocol.handle cfg ~now:3.0 st (Types.Timer_fired Protocol.T_token)
  in
  (match sends effs with
  | [ (dst, Protocol.Warning) ] ->
      Alcotest.(check int) "warned the believed arbiter" st.Protocol.arbiter
        dst
  | _ -> Alcotest.fail "expected exactly one WARNING to the arbiter");
  Alcotest.(check bool) "watchdog re-armed" true (armed effs)

let test_drill_harness () =
  (* The packaged Section 6 drills must all report resumed service. *)
  let rows = Experiments.table_recovery ~n:10 () in
  Alcotest.(check int) "four scenarios" 4 (List.length rows);
  List.iter
    (fun (r : Experiments.recovery_row) ->
      Alcotest.(check bool) (r.scenario ^ " resumed") true
        r.served_after_fault)
    rows

let suite =
  ( "recovery",
    [
      Alcotest.test_case "healthy run untouched" `Quick test_no_fault_baseline;
      Alcotest.test_case "token holder crash" `Quick test_token_holder_crash;
      Alcotest.test_case "loss probability validated" `Quick
        test_loss_probability_validated;
      Alcotest.test_case "partition then heal" `Quick test_partition_heal;
      Alcotest.test_case "privilege message drop" `Quick test_privilege_drop;
      Alcotest.test_case "arbiter crash and takeover" `Quick
        test_arbiter_crash_takeover;
      Alcotest.test_case "2% message loss" `Slow test_lossy_network;
      Alcotest.test_case "request loss implicit-ack" `Quick
        test_request_loss_detected;
      Alcotest.test_case "three successive holder crashes" `Slow
        test_repeated_faults;
      Alcotest.test_case "crash, recover, rejoin" `Quick
        test_crash_recover_rejoin;
      Alcotest.test_case "amnesiac never regenerates" `Quick
        test_amnesiac_never_regenerates;
      Alcotest.test_case "restored custodian starts recovery" `Quick
        test_restored_custodian_recovers;
      Alcotest.test_case "restored node never claims the token" `Quick
        test_restored_never_claims_token;
      Alcotest.test_case "sync-wait absorbs epoch before REQUEST" `Quick
        test_sync_wait_absorbs_epoch_first;
      Alcotest.test_case "sync-wait escape valve" `Quick
        test_sync_wait_escape_valve;
      Alcotest.test_case "past-life entries shed after restart" `Quick
        test_past_life_entries_shed;
      Alcotest.test_case "request arms lost-token watchdog" `Quick
        test_request_arms_lost_token_watchdog;
      Alcotest.test_case "packaged drills resume" `Slow test_drill_harness;
    ] )
