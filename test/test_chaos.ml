(* Live-cluster chaos: the Section 6 recovery machinery exercised over
   real sockets under a deterministic fault schedule, with
   {!Dmutex.History} judging mutual exclusion. Also hosts the
   node-runner robustness regressions (timer precision, with_lock
   timeout drain) that need a real runtime rather than the
   simulator. *)

open Dmutex
module RCluster = Netkit.Cluster.Make (Resilient) (Wire.Protocol_codec)
module BCluster = Netkit.Cluster.Make (Basic) (Wire.Protocol_codec)
module PV = Dmutex_store.Protocol_view

let chaos_seed =
  match Sys.getenv_opt "DMUTEX_CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> 20260807)
  | None -> 20260807

let log_dir = Sys.getenv_opt "DMUTEX_CHAOS_LOG_DIR"

let soak_cfg n =
  {
    (Resilient.config ~token_timeout:0.6 ~enquiry_timeout:0.3
       ~arbiter_timeout:0.9 ~n ())
    with
    Types.Config.t_collect = 0.02;
    t_forward = 0.02;
    retry_timeout = 0.3;
  }

(* Run [work] as [holder]'s critical section on [lock], reported to
   the soak's checker. A holder the checker fences off as stale still
   runs [work] but is not inside, so it does not leave. *)
let in_cs ?fencing ?(mode = Types.Exclusive) history ~lock ~holder work =
  let inside =
    History.enter ?fencing history ~lock ~holder ~mode <> History.Fenced_off
  in
  let v = work () in
  if inside then History.leave history ~lock ~holder;
  v

(* The node-level soaks' CS body: a short hold seen by the checker. *)
let hold history ~lock ~holder () =
  in_cs history ~lock ~holder (fun () -> Thread.delay 0.002)

let check_safe history =
  let r = History.report history in
  Alcotest.(check int)
    (Format.asprintf "zero safety violations (%a)" History.pp_report r)
    0 r.violations

(* One structured trace sink per soak when logs are collected: CS
   entries/exits, recovery milestones and liveness suspicions from
   every node land in one ring, flushed as JSONL next to the soak
   log so CI uploads it with the rest of the artifacts. *)
let make_trace () =
  match log_dir with
  | None -> None
  | Some _ -> Some (Dmutex_obs.Events.create ~capacity:16384 ())

let write_soak_logs ?(name = "chaos-soak") ?trace cluster ~history ~served =
  match log_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
      (match trace with
      | Some sink ->
          Dmutex_obs.Events.flush_file sink
            (Filename.concat dir (name ^ "-trace.jsonl"))
      | None -> ());
      let oc = open_out (Filename.concat dir (name ^ ".log")) in
      Printf.fprintf oc "seed: %d\n" chaos_seed;
      Printf.fprintf oc "%s\n"
        (Format.asprintf "%a" History.pp_report (History.report history));
      Array.iteri (fun i s -> Printf.fprintf oc "node %d served: %d\n" i s) served;
      List.iter
        (fun (at, msg) -> Printf.fprintf oc "chaos @ %6.2fs: %s\n" at msg)
        (RCluster.chaos_log cluster);
      List.iter
        (fun (name, k) -> Printf.fprintf oc "note %s: %d\n" name k)
        (RCluster.notes cluster);
      Printf.fprintf oc "metrics: %s\n"
        (Format.asprintf "%a" Netkit.Transport.pp_metrics
           (RCluster.metrics cluster));
      Printf.fprintf oc "report: %s\n"
        (Format.asprintf "%a" Dmutex_obs.Report.pp
           (RCluster.obs_report cluster));
      List.iter
        (fun (lock, r) ->
          Printf.fprintf oc "report[%s]: %s\n" lock
            (Format.asprintf "%a" Dmutex_obs.Report.pp r))
        (RCluster.obs_report_by_lock cluster);
      for i = 0 to RCluster.n cluster - 1 do
        Printf.fprintf oc "node %d: %s | notes %s\n" i
          (Format.asprintf "%a" Netkit.Transport.pp_metrics
             (RCluster.Node.metrics (RCluster.node cluster i)))
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s:%d" k v)
                (RCluster.Node.notes (RCluster.node cluster i))))
      done;
      for i = 0 to RCluster.n cluster - 1 do
        List.iter
          (fun lock ->
            let st = RCluster.Node.state ~lock (RCluster.node cluster i) in
            Printf.fprintf oc
              "state[%s] %s watching=%b elec=%d epoch=%d susp=%b\n" lock
              (Format.asprintf "%a" Protocol.pp_state st)
              st.Protocol.watching st.Protocol.election st.Protocol.token_epoch
              st.Protocol.suspended)
          (RCluster.locks cluster)
      done;
      close_out oc

(* Role selectors shared by the crash and restart drills: each takes
   the cluster size and then matches the [Crash_where]/[Restart_where]
   selector signature. Single-role selectors judge the first hosted
   lock; [select_multi_token_holder] spans the whole namespace. *)

let select_token_holder n ~states ~locks ~live =
  let lock = List.hd locks in
  List.find_opt
    (fun i ->
      live i
      &&
      let st : Protocol.state = states i ~lock in
      st.Protocol.token <> None
      && match st.Protocol.role with Protocol.Normal -> true | _ -> false)
    (List.init n Fun.id)

let select_watched_arbiter n ~states ~locks ~live =
  let lock = List.hd locks in
  let ids = List.init n Fun.id in
  match
    List.find_opt
      (fun w ->
        live w
        &&
        let st : Protocol.state = states w ~lock in
        st.Protocol.watching && live st.Protocol.arbiter
        && st.Protocol.arbiter <> w)
      ids
  with
  | Some w -> Some (states w ~lock).Protocol.arbiter
  | None ->
      (* Fallback: the node currently acting as arbiter. *)
      List.find_opt
        (fun i ->
          live i
          &&
          match (states i ~lock).Protocol.role with
          | Protocol.Normal -> false
          | _ -> true)
        ids

(* An arbiter caught mid-collection: an ENQUIRY round is in flight on
   it right now. Falls back to whoever is arbitering when the window
   is missed. *)
let select_collecting_arbiter n ~states ~locks ~live =
  match
    List.find_opt
      (fun i -> live i && (states i ~lock:(List.hd locks)).Protocol.recovery <> None)
      (List.init n Fun.id)
  with
  | Some i -> Some i
  | None -> select_watched_arbiter n ~states ~locks ~live

(* A node holding the tokens of at least two locks at once — the
   victim the sharded restart drill is after: its crash entangles
   several instances' recovery machinery in one outage. *)
let select_multi_token_holder n ~states ~locks ~live =
  List.find_opt
    (fun i ->
      live i
      && List.length
           (List.filter
              (fun lock -> (states i ~lock).Protocol.token <> None)
              locks)
         >= 2)
    (List.init n Fun.id)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with _ -> ())
  | _ -> ( try Unix.unlink path with _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Where restart drills keep their per-node state directories: under
   DMUTEX_CHAOS_STATE_DIR when set (CI uploads it on failure), else a
   throwaway under the system temp dir. *)
let soak_state_root name =
  match Sys.getenv_opt "DMUTEX_CHAOS_STATE_DIR" with
  | Some d -> Filename.concat d name
  | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "dmutex-%s-%d" name (Unix.getpid ()))

let has_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
  scan 0

(* The headline drill: 5 nodes over real sockets, each hosting TWO
   independent locks over the shared transport; the schedule applies
   7% loss, crash-stops the token holder of the first lock, then the
   arbiter watched by its previous arbiter, partitions the cluster and
   heals it. The survivors must keep taking both locks with zero
   safety violations on either, and the Section 6 notes must show a
   two-phase invalidation and a PROBE takeover actually fired. *)
let test_chaos_soak () =
  let n = 5 in
  let locks = [ "alpha"; "beta" ] in
  let trace = make_trace () in
  let cluster =
    RCluster.launch ~base_port:8501 ~seed:chaos_seed ~locks
      ~heartbeat_period:0.2 ~suspect_timeout:0.8 ?trace (soak_cfg n)
  in
  let fault = RCluster.fault cluster in
  (* Exclusion must hold within each lock, while the two locks are
     routinely held concurrently. *)
  let history = History.create () in
  let served = Array.make n 0 in
  let served_mu = Mutex.create () in
  let stop = ref false in
  let worker i lock () =
    let rng = Random.State.make [| chaos_seed; i; 0x50a1; Hashtbl.hash lock |] in
    while (not !stop) && not (Netkit.Fault.is_crashed fault i) do
      (match
         RCluster.Node.with_lock ~timeout:3.0 ~lock (RCluster.node cluster i)
           (hold history ~lock ~holder:i)
       with
      | Some () ->
          Mutex.lock served_mu;
          served.(i) <- served.(i) + 1;
          Mutex.unlock served_mu
      | None -> ());
      Thread.delay (0.005 +. Random.State.float rng 0.03)
    done
  in
  let threads =
    List.concat_map
      (fun lock -> List.init n (fun i -> Thread.create (worker i lock) ()))
      locks
  in
  RCluster.chaos cluster
    [
      (0.0, RCluster.Fault (Loss 0.07));
      (1.5, RCluster.Crash_where ("token-holder", select_token_holder n));
      (4.5, RCluster.Crash_where ("watched-arbiter", select_watched_arbiter n));
      (7.5, RCluster.Fault (Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]));
      (9.5, RCluster.Fault Heal);
      (11.0, RCluster.Fault (Loss 0.0));
    ];
  RCluster.wait_chaos cluster;
  (* Post-fault convergence: every surviving node must keep getting
     served after the last fault cleared. *)
  let survivors =
    List.filter
      (fun i -> not (Netkit.Fault.is_crashed fault i))
      (List.init n Fun.id)
  in
  let snapshot =
    Mutex.lock served_mu;
    let s = Array.copy served in
    Mutex.unlock served_mu;
    s
  in
  let deadline = Unix.gettimeofday () +. 25.0 in
  let rec settle () =
    let progressed =
      Mutex.lock served_mu;
      let p =
        List.for_all (fun i -> served.(i) >= snapshot.(i) + 2) survivors
      in
      Mutex.unlock served_mu;
      p
    in
    if progressed then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.1;
      settle ()
    end
  in
  let all_served = settle () in
  stop := true;
  List.iter Thread.join threads;
  write_soak_logs ?trace cluster ~history ~served;
  let chaos_entries = List.length (RCluster.chaos_log cluster) in
  let recovery = RCluster.note_count cluster "recovery-started" in
  let takeover = RCluster.note_count cluster "arbiter-takeover" in
  let regenerated = RCluster.note_count cluster "token-regenerated" in
  RCluster.shutdown cluster;
  Alcotest.(check bool) "schedule ran" true (chaos_entries >= 6);
  check_safe history;
  Alcotest.(check bool)
    (Printf.sprintf "at least two survivors (%d)" (List.length survivors))
    true
    (List.length survivors >= 2);
  Alcotest.(check bool) "every survivor served after the storm" true all_served;
  Alcotest.(check bool)
    (Printf.sprintf "two-phase invalidation fired (%d)" recovery)
    true (recovery >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "PROBE takeover fired (%d)" takeover)
    true (takeover >= 1);
  Logs.app (fun m ->
      m "soak: served=%s recovery=%d takeover=%d regenerated=%d"
        (String.concat ","
           (Array.to_list (Array.map string_of_int served)))
        recovery takeover regenerated)

(* With an empty schedule the chaos layer must be invisible: every
   grant lands promptly, nothing is dropped, and the recovery
   machinery never starts. *)
let test_empty_schedule_baseline () =
  let n = 3 in
  let cluster =
    RCluster.launch ~base_port:8551 ~seed:chaos_seed ~heartbeat_period:0.2
      ~suspect_timeout:0.8 (soak_cfg n)
  in
  (* A bad loss probability is refused before anything runs, by the
     schedule and by a node alike. *)
  Alcotest.(check bool) "chaos refuses loss 1.5" true
    (match RCluster.chaos cluster [ (0.0, RCluster.Fault (Loss 1.5)) ] with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "node refuses loss nan" true
    (match RCluster.Node.set_loss (RCluster.node cluster 0) Float.nan with
    | () -> false
    | exception Invalid_argument _ -> true);
  RCluster.chaos cluster [];
  RCluster.wait_chaos cluster;
  let rounds = 4 in
  let latencies = ref [] in
  for _round = 1 to rounds do
    for i = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      match
        RCluster.Node.with_lock ~timeout:20.0 (RCluster.node cluster i)
          (fun () -> ())
      with
      | Some () -> latencies := (Unix.gettimeofday () -. t0) :: !latencies
      | None -> Alcotest.failf "baseline grant timed out on node %d" i
    done
  done;
  let m = RCluster.metrics cluster in
  let recovery = RCluster.note_count cluster "recovery-started" in
  (* A [Loss] event reaches every node's transport: at 1.0 the next
     request's frames are eaten (nothing was dropped before). *)
  RCluster.chaos cluster [ (0.0, RCluster.Fault (Loss 1.0)) ];
  RCluster.wait_chaos cluster;
  ignore
    (RCluster.Node.with_lock ~timeout:0.3 (RCluster.node cluster 1) ignore);
  let lossy = RCluster.metrics cluster in
  RCluster.shutdown cluster;
  Alcotest.(check bool) "Loss 1.0 reaches the transports" true
    (lossy.Netkit.Transport.dropped > 0);
  let mean =
    List.fold_left ( +. ) 0.0 !latencies
    /. float_of_int (List.length !latencies)
  in
  Alcotest.(check int) "all grants measured" (rounds * n)
    (List.length !latencies);
  Alcotest.(check bool)
    (Printf.sprintf "mean grant latency sane (%.3fs)" mean)
    true (mean < 1.0);
  Alcotest.(check int) "nothing dropped without chaos" 0
    m.Netkit.Transport.dropped;
  Alcotest.(check int) "recovery never started" 0 recovery

(* Satellite regression: a with_lock that times out must not leave a
   claimable ghost request — the stale grant is drained the moment it
   lands. *)
let test_with_lock_timeout_drains () =
  let n = 3 in
  let cfg =
    {
      (Basic.config ~n ()) with
      Types.Config.t_collect = 0.02;
      t_forward = 0.02;
    }
  in
  let cluster = BCluster.launch ~base_port:8571 cfg in
  let holder = BCluster.node cluster 0 in
  let victim = BCluster.node cluster 1 in
  let bystander = BCluster.node cluster 2 in
  let release_holder = Mutex.create () in
  Mutex.lock release_holder;
  let holder_thread =
    Thread.create
      (fun () ->
        ignore
          (BCluster.Node.with_lock ~timeout:20.0 holder (fun () ->
               (* Hold the token until the main thread says go. *)
               Mutex.lock release_holder;
               Mutex.unlock release_holder)))
      ()
  in
  (* Wait until the holder actually has the CS. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (BCluster.Node.holding holder)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "holder entered" true (BCluster.Node.holding holder);
  (* The victim's request cannot be served while the holder sits on
     the lock: it times out, leaving its REQUEST queued cluster-wide. *)
  let r = BCluster.Node.with_lock ~timeout:0.2 victim (fun () -> ()) in
  Alcotest.(check bool) "victim timed out" true (r = None);
  (* Free the lock; the stale grant for the victim must be drained,
     not held. *)
  Mutex.unlock release_holder;
  Thread.join holder_thread;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec victim_stays_clean () =
    if BCluster.Node.holding victim then false
    else if Unix.gettimeofday () >= deadline then true
    else begin
      Thread.delay 0.005;
      victim_stays_clean ()
    end
  in
  (* A bystander can take the lock — impossible if the victim's ghost
     grant were stuck held. *)
  let got =
    BCluster.Node.with_lock ~timeout:10.0 bystander (fun () ->
        BCluster.Node.holding victim)
  in
  Alcotest.(check (option bool)) "bystander served, victim not holding"
    (Some false) got;
  Alcotest.(check bool) "victim never stuck holding" true
    (victim_stays_clean ());
  (* And the victim itself can lock again normally. *)
  let again = BCluster.Node.with_lock ~timeout:10.0 victim (fun () -> 7) in
  Alcotest.(check (option int)) "victim reusable" (Some 7) again;
  BCluster.shutdown cluster

(* The timer thread sleeps to the earliest deadline and is woken only
   by a deadline earlier than that one: a short timer armed while a long
   one is pending still fires on time, a cancelled timer never fires, a
   re-arm to a later time neither fires early nor needs a wake, and a
   [with_lock] waiter's deadline is honoured like any timer. [Tick] arms
   timers on demand ([Arm (k, d)] arrives as a message) and records each
   firing's lateness against the deadline it was armed for. *)
module Tick = struct
  type message = Arm of int * float | Cancel of int

  type state = {
    due : (int * float) list;  (** timer -> protocol-clock deadline *)
    fires : (int * float) list;  (** timer -> lateness, newest first *)
  }

  type timer = int

  let name = "tick"
  let fault_support = { Types.crash_stop = false; message_loss = false }
  let init _cfg _me = { due = []; fires = [] }
  let rejoin = init

  let handle _cfg ~now st input =
    match (input : (message, timer) Types.input) with
    | Types.Receive (_, Arm (k, d)) ->
        ( { st with due = (k, now +. d) :: List.remove_assoc k st.due },
          [ Types.Set_timer (k, d) ] )
    | Types.Receive (_, Cancel k) ->
        ({ st with due = List.remove_assoc k st.due }, [ Types.Cancel_timer k ])
    | Types.Timer_fired k ->
        let late =
          match List.assoc_opt k st.due with
          | Some d -> now -. d
          | None -> infinity
        in
        ( { due = List.remove_assoc k st.due; fires = (k, late) :: st.fires },
          [] )
    | Types.Request_cs | Types.Request_shared_cs | Types.Cs_done ->
        (* Requests are never granted: [with_lock] can only time out. *)
        (st, [])

  let in_cs _ = false
  let cs_mode _ = Types.Exclusive
  let wants_cs _ = false
  let message_kind _ = "TICK"
  let pp_message ppf _ = Format.fprintf ppf "tick"
  let pp_state ppf st = Format.fprintf ppf "%d fires" (List.length st.fires)
end

module TickCodec = struct
  type message = Tick.message

  let encode _ = "t"
  let decode _ = Tick.Cancel 0
end

module TickNode = Netkit.Node_runner.Make (Tick) (TickCodec)

let test_timer_deadline_precision () =
  let peers = [| { Netkit.Transport.host = "127.0.0.1"; port = 8591 } |] in
  let node = TickNode.create (Types.Config.default ~n:1) ~me:0 ~peers () in
  let arm k d = TickNode.inject node (Types.Receive (0, Tick.Arm (k, d))) in
  let fires k =
    List.filter_map
      (fun (k', late) -> if k' = k then Some late else None)
      (TickNode.state node).Tick.fires
  in
  let check_fired_once what k ~tol =
    match fires k with
    | [ late ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s fired on time (%.3fs late)" what late)
          true
          (late >= -0.001 && late <= tol)
    | l ->
        Alcotest.failf "%s: timer %d fired %d times, expected once" what k
          (List.length l)
  in
  (* Let the thread fall asleep on the empty wheel, arm the long timer
     (0.4 s), then immediately a short one (60 ms): the thread is asleep
     until the long deadline and must be woken to honour the short
     one. *)
  Thread.delay 0.05;
  arm 2 0.4;
  arm 1 0.06;
  Thread.delay 0.2;
  (* Cancel the long timer before it is due. *)
  TickNode.inject node (Types.Receive (0, Tick.Cancel 2));
  Thread.delay 0.4;
  check_fired_once "short timer" 1 ~tol:0.19;
  Alcotest.(check int) "cancelled timer never fired" 0 (List.length (fires 2));
  (* Re-arm to a later deadline while the thread sleeps toward the
     earlier one: no wake is owed, and the timer must fire once, at
     the later time — never at the deadline it was first armed for. *)
  arm 3 0.15;
  Thread.delay 0.03;
  arm 3 0.3;
  Thread.delay 0.5;
  check_fired_once "re-armed timer" 3 ~tol:0.1;
  (* A 5 s timer keeps the thread asleep toward its 1 s cap; 200 short
     timers armed from two threads must each wake it in time. *)
  arm 4 5.0;
  Thread.delay 0.03;
  let burst base =
    Thread.create
      (fun () ->
        for i = 0 to 99 do
          arm (base + i) (0.02 +. (0.0003 *. float_of_int i));
          if i mod 10 = 0 then Thread.delay 0.003
        done)
      ()
  in
  List.iter Thread.join [ burst 100; burst 200 ];
  Thread.delay 0.3;
  let shorts =
    List.filter (fun (k, _) -> k >= 100) (TickNode.state node).Tick.fires
  in
  let worst = List.fold_left (fun acc (_, l) -> Float.max acc l) 0.0 shorts in
  Alcotest.(check int) "every short timer fired once" 200 (List.length shorts);
  Alcotest.(check bool)
    (Printf.sprintf "short timers within tolerance (worst %.3fs late)" worst)
    true (worst <= 0.15);
  (* A waiter's deadline is one more deadline: with the thread still
     asleep toward the 5 s timer, a grant that never comes must time
     out on time. *)
  let t0 = Unix.gettimeofday () in
  let r = TickNode.with_lock ~timeout:0.2 node (fun () -> ()) in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "ungranted with_lock returns None" true (r = None);
  Alcotest.(check bool)
    (Printf.sprintf "with_lock timed out on time (%.3fs)" waited)
    true
    (waited >= 0.2 && waited <= 0.35);
  Alcotest.(check int) "long timer still pending" 0 (List.length (fires 4));
  TickNode.shutdown node

(* Satellite regression for heartbeat piggybacking: the transport
   suppresses a peer's beacon whenever some frame was already written
   to it within the period, so heavy REQUEST traffic must never
   starve the liveness signal — no false suspicions of live nodes
   while data flows, a crashed node still suspected within the
   monitor deadline, and alive again on return. *)
let test_heartbeat_piggyback_liveness () =
  let n = 3 in
  let cfg = soak_cfg n in
  let locks = [ "hb-a"; "hb-b"; "hb-c"; "hb-d" ] in
  let peers =
    Array.init n (fun i ->
        { Netkit.Transport.host = "127.0.0.1"; port = 8751 + i })
  in
  let events = ref [] in
  let mu = Mutex.create () in
  let record me what peer =
    Mutex.lock mu;
    events := (Unix.gettimeofday (), me, what, peer) :: !events;
    Mutex.unlock mu
  in
  let snapshot () =
    Mutex.lock mu;
    let l = List.rev !events in
    Mutex.unlock mu;
    l
  in
  let make me =
    RCluster.Node.create ~heartbeat_period:0.1 ~suspect_timeout:0.4
      ~on_suspect:(record me `Suspect)
      ~on_alive:(record me `Alive) ~locks cfg ~me ~peers ()
  in
  let nodes = Array.init n make in
  (* Phase 1 — heavy multi-lock REQUEST traffic for a stretch many
     suspect-timeouts long: beacons are suppressed behind the data,
     which must itself keep every monitor fed. *)
  let stop = Atomic.make false in
  let served = Atomic.make 0 in
  let workers =
    List.concat_map
      (fun lock ->
        List.init n (fun i ->
            Thread.create
              (fun () ->
                while not (Atomic.get stop) do
                  match
                    RCluster.Node.with_lock ~timeout:5.0 ~lock nodes.(i)
                      (fun () -> ())
                  with
                  | Some () -> Atomic.incr served
                  | None -> ()
                done)
              ()))
      locks
  in
  Thread.delay 1.2;
  Atomic.set stop true;
  List.iter Thread.join workers;
  Alcotest.(check bool)
    (Printf.sprintf "traffic actually flowed (%d grants)" (Atomic.get served))
    true
    (Atomic.get served >= 30);
  Alcotest.(check int) "no false suspicion under batched-REQUEST load" 0
    (List.length (snapshot ()));
  (* Phase 2 — crash node 2: with the chatter gone the survivors must
     still notice within the monitor deadline (plus scheduling slack;
     the beacon suppression must not have pushed last-heard stale). *)
  let t_crash = Unix.gettimeofday () in
  RCluster.Node.crash nodes.(2);
  let suspected_by i =
    List.exists
      (fun (_, me, what, peer) -> me = i && what = `Suspect && peer = 2)
      (snapshot ())
  in
  let both_suspect =
    let deadline = t_crash +. 2.0 in
    let rec go () =
      if suspected_by 0 && suspected_by 1 then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Thread.delay 0.02;
        go ()
      end
    in
    go ()
  in
  Alcotest.(check bool) "crashed node suspected within deadline + slack" true
    both_suspect;
  Alcotest.(check bool) "node 2 listed suspect" true
    (List.mem 2 (RCluster.Node.suspected nodes.(0)));
  (* Phase 3 — the node returns (fresh process, same endpoint): the
     first frames heard from it must flip the monitors back. *)
  let reborn = make 2 in
  let alive_on i =
    List.exists
      (fun (ts, me, what, peer) ->
        ts > t_crash && me = i && what = `Alive && peer = 2)
      (snapshot ())
  in
  let both_alive =
    let deadline = Unix.gettimeofday () +. 3.0 in
    let rec go () =
      if alive_on 0 && alive_on 1 then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Thread.delay 0.02;
        go ()
      end
    in
    go ()
  in
  Alcotest.(check bool) "alive fires when the node returns" true both_alive;
  RCluster.Node.shutdown reborn;
  Array.iter RCluster.Node.shutdown nodes

let suite =
  ( "chaos",
    [
      Alcotest.test_case "timer deadline precision" `Quick
        test_timer_deadline_precision;
      Alcotest.test_case "heartbeat piggybacking keeps liveness" `Slow
        test_heartbeat_piggyback_liveness;
      Alcotest.test_case "with_lock timeout drains stale grant" `Quick
        test_with_lock_timeout_drains;
      Alcotest.test_case "empty schedule is invisible" `Slow
        test_empty_schedule_baseline;
      Alcotest.test_case "live chaos soak (Section 6 on real sockets)" `Slow
        test_chaos_soak;
    ] )

(* ------------------------------------------------------------------ *)
(* Restart drills: nodes are torn down for real (sockets closed, store
   aborted without flush) and brought back from their state
   directories mid-protocol. Separate suite so CI can run it as its
   own job: [test/main.exe test restart-soak]. *)

(* Kill-and-restart soak: the token holder dies mid-CS with durable
   custody, the arbiter dies mid-collection, and a fixed node restarts
   for good measure. Every node must come back from disk, mutual
   exclusion must hold throughout, and the whole
   cluster must keep being served afterwards. *)
let test_restart_soak () =
  let n = 4 in
  let locks = [ "alpha"; "beta" ] in
  let cfg = soak_cfg n in
  let state_root = soak_state_root "restart-soak" in
  (* Stale directories from a previous run would restore the wrong
     incarnation instead of starting fresh. *)
  rm_rf state_root;
  let trace = make_trace () in
  let cluster =
    RCluster.launch ~base_port:8601 ~seed:chaos_seed ~locks
      ~heartbeat_period:0.2 ~suspect_timeout:0.8 ~state_root ?trace
      ~persist:PV.capture ~restore:(PV.restore cfg) cfg
  in
  let fault = RCluster.fault cluster in
  let history = History.create () in
  let served = Array.make n 0 in
  let served_mu = Mutex.create () in
  let stop = ref false in
  let worker i lock () =
    let rng = Random.State.make [| chaos_seed; i; 0x7e57; Hashtbl.hash lock |] in
    while not !stop do
      if Netkit.Fault.is_crashed fault i then Thread.delay 0.05
      else begin
        (match
           RCluster.Node.with_lock ~timeout:3.0 ~lock (RCluster.node cluster i)
             (hold history ~lock ~holder:i)
         with
        | Some () ->
            Mutex.lock served_mu;
            served.(i) <- served.(i) + 1;
            Mutex.unlock served_mu
        | None -> ());
        Thread.delay (0.005 +. Random.State.float rng 0.03)
      end
    done
  in
  let threads =
    List.concat_map
      (fun lock -> List.init n (fun i -> Thread.create (worker i lock) ()))
      locks
  in
  RCluster.chaos cluster
    [
      ( 1.0,
        RCluster.Restart_where
          {
            label = "token-holder";
            select = select_token_holder n;
            after = 0.6;
          } );
      ( 4.0,
        RCluster.Restart_where
          {
            label = "collecting-arbiter";
            select = select_collecting_arbiter n;
            after = 0.6;
          } );
      (7.0, RCluster.Fault (Restart { node = 0; after = 0.4 }));
    ];
  RCluster.wait_chaos cluster;
  (* Post-restart convergence: every node — the restarted ones
     included — must keep getting served. *)
  let snapshot =
    Mutex.lock served_mu;
    let s = Array.copy served in
    Mutex.unlock served_mu;
    s
  in
  let deadline = Unix.gettimeofday () +. 25.0 in
  let rec settle () =
    let progressed =
      Mutex.lock served_mu;
      let p =
        List.for_all
          (fun i -> served.(i) >= snapshot.(i) + 2)
          (List.init n Fun.id)
      in
      Mutex.unlock served_mu;
      p
    in
    if progressed then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.1;
      settle ()
    end
  in
  let all_served = settle () in
  stop := true;
  List.iter Thread.join threads;
  write_soak_logs ~name:"restart-soak" ?trace cluster
    ~history
    ~served;
  let restarts_completed =
    List.length
      (List.filter (fun (_, m) -> has_sub m "back up")
         (RCluster.chaos_log cluster))
  in
  (* Both locks' instances persist through their own live stores. *)
  let store_live =
    List.for_all
      (fun lock ->
        RCluster.Node.store_stats ~lock (RCluster.node cluster 0) <> None)
      locks
  in
  let recovery = RCluster.note_count cluster "recovery-started" in
  let regenerated = RCluster.note_count cluster "token-regenerated" in
  RCluster.shutdown cluster;
  Alcotest.(check bool) "nodes persist through per-lock live stores" true
    store_live;
  check_safe history;
  Alcotest.(check bool)
    (Printf.sprintf "restart drills completed (%d)" restarts_completed)
    true
    (restarts_completed >= 2);
  Alcotest.(check bool) "every node served after the restarts" true all_served;
  Logs.app (fun m ->
      m "restart soak: served=%s restarts=%d recovery=%d regenerated=%d"
        (String.concat ","
           (Array.to_list (Array.map string_of_int served)))
        restarts_completed recovery regenerated);
  if Sys.getenv_opt "DMUTEX_CHAOS_STATE_DIR" = None then rm_rf state_root

(* Amnesia end-to-end: a node loses its state directory across the
   restart (disk wiped while it was down). The amnesiac rejoin must
   never regenerate a token while a live one circulates — it resyncs
   from the running cluster and is eventually served normally. *)
let test_amnesiac_restart_stays_safe () =
  let n = 3 in
  let cfg = soak_cfg n in
  let state_root = soak_state_root "amnesia-restart" in
  rm_rf state_root;
  let cluster =
    RCluster.launch ~base_port:8641 ~seed:chaos_seed ~heartbeat_period:0.2
      ~suspect_timeout:0.8 ~state_root ~persist:PV.capture
      ~restore:(PV.restore cfg) cfg
  in
  let history = History.create () in
  let lock = RCluster.Node.default_lock in
  let stop = ref false in
  (* Keep the token circulating on the survivors so a live token
     provably exists the whole time the amnesiac is resyncing. *)
  let worker i () =
    while not !stop do
      (match
         RCluster.Node.with_lock ~timeout:3.0 (RCluster.node cluster i)
           (hold history ~lock ~holder:i)
       with
      | Some () | None -> ());
      Thread.delay 0.01
    done
  in
  let threads = List.map (fun i -> Thread.create (worker i) ()) [ 0; 2 ] in
  Thread.delay 1.0;
  RCluster.crash cluster 1;
  (* The disk dies with the process: wipe node 1's state directory so
     the restart comes back with an empty store — amnesia. *)
  rm_rf (Filename.concat state_root "node-1");
  Thread.delay 0.5;
  RCluster.restart cluster 1;
  let restarted = RCluster.node cluster 1 in
  Alcotest.(check bool) "empty state dir restarts amnesiac" true
    (RCluster.Node.state restarted).Protocol.amnesiac;
  (* Liveness: the amnesiac must still get the lock once resynced
     (sync_wait parks the request, the retry valve or the next
     NEW-ARBITER releases it). *)
  let got =
    RCluster.Node.with_lock ~timeout:20.0 restarted
      (hold history ~lock ~holder:1)
  in
  stop := true;
  List.iter Thread.join threads;
  let regenerated_by_amnesiac =
    RCluster.Node.note_count restarted "token-regenerated"
  in
  let resynced = not (RCluster.Node.state restarted).Protocol.amnesiac in
  RCluster.shutdown cluster;
  Alcotest.(check bool) "amnesiac eventually served" true (got = Some ());
  Alcotest.(check bool) "amnesia cleared by live knowledge" true resynced;
  Alcotest.(check int) "amnesiac never regenerated the token" 0
    regenerated_by_amnesiac;
  check_safe history;
  if Sys.getenv_opt "DMUTEX_CHAOS_STATE_DIR" = None then rm_rf state_root

let restart_suite =
  ( "restart-soak",
    [
      Alcotest.test_case "amnesiac restart stays safe" `Slow
        test_amnesiac_restart_stays_safe;
      Alcotest.test_case "kill-and-restart soak (holder mid-CS, arbiter \
                          mid-collection)"
        `Slow test_restart_soak;
    ] )

(* ------------------------------------------------------------------ *)
(* Rolling-churn soak: the dynamic-membership tentpole end to end.
   A 5-node birth cluster grows to 8 through live JOIN-REQUEST knocks,
   survives a kill-and-restart of a birth node mid-churn (the restart
   must rejoin the *current* epoch-2 view from disk, not the birth
   view), then shrinks to 4 through LEAVE-REQUEST excisions — the
   initial arbiter and a freshly joined node among the leavers — all
   under live with_lock traffic on two locks. Safety: zero safety
   violations on either lock. Liveness: every survivor keeps being
   served after the churn, and no worker thread is left stuck.
   Bookkeeping: the view epoch observed on a survivor is monotone and
   ends at one commit per churn event, matching the
   [dmutex_view_epoch] gauge. Separate suite so CI can run it as its
   own job: [test/main.exe test churn-soak]. *)
let test_churn_soak () =
  let birth_n = 5 in
  let max_n = 8 in
  let observer = 4 in
  (* never churned *)
  let locks = [ "alpha"; "beta" ] in
  let cfg = soak_cfg birth_n in
  let state_root = soak_state_root "churn-soak" in
  rm_rf state_root;
  let trace = make_trace () in
  let cluster =
    RCluster.launch ~base_port:8671 ~seed:chaos_seed ~locks
      ~heartbeat_period:0.2 ~suspect_timeout:0.8 ~state_root ?trace
      ~persist:PV.capture ~restore:(PV.restore cfg) cfg
  in
  let fault = RCluster.fault cluster in
  let history = History.create () in
  let served = Array.make max_n 0 in
  let served_mu = Mutex.create () in
  let stop = ref false in
  let retired = Array.make max_n false in
  let worker i lock () =
    let rng = Random.State.make [| chaos_seed; i; 0xc4a0; Hashtbl.hash lock |] in
    while (not !stop) && not retired.(i) do
      if Netkit.Fault.is_crashed fault i then Thread.delay 0.05
      else begin
        (match
           RCluster.Node.with_lock ~timeout:3.0 ~lock (RCluster.node cluster i)
             (hold history ~lock ~holder:i)
         with
        | Some () ->
            Mutex.lock served_mu;
            served.(i) <- served.(i) + 1;
            Mutex.unlock served_mu
        | None -> ());
        Thread.delay (0.005 +. Random.State.float rng 0.03)
      end
    done
  in
  let threads = ref [] in
  let spawn_workers i =
    threads :=
      List.map (fun lock -> Thread.create (worker i lock) ()) locks @ !threads
  in
  List.iter spawn_workers (List.init birth_n Fun.id);
  let wait_until ~timeout ~what pred =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if pred () then ()
      else if Unix.gettimeofday () >= deadline then
        Alcotest.failf "churn soak: timed out waiting for %s" what
      else begin
        Thread.delay 0.05;
        go ()
      end
    in
    go ()
  in
  let obs_view lock =
    (RCluster.Node.state ~lock (RCluster.node cluster observer)).Protocol.view
  in
  (* One sample of the observer's view epoch after every churn event:
     the sequence must come out monotone. *)
  let epochs = ref [] in
  let sample_epoch () =
    epochs := (obs_view "alpha").Protocol.vnum :: !epochs
  in
  let member_everywhere id =
    List.for_all
      (fun lock ->
        List.mem_assoc id (RCluster.Node.membership ~lock (RCluster.node cluster id))
        && List.mem_assoc id
             (RCluster.Node.membership ~lock (RCluster.node cluster observer)))
      locks
  in
  let join seed =
    let id =
      RCluster.add_node cluster ~init:(fun ~me ~addr ~lock:_ ->
          ( Resilient.joiner cfg ~me ~seed ~addr,
            [ Types.Timer_fired Resilient.T_view ] ))
    in
    wait_until ~timeout:20.0
      ~what:(Printf.sprintf "admission of node %d" id)
      (fun () ->
        List.for_all
          (fun lock ->
            let st = RCluster.Node.state ~lock (RCluster.node cluster id) in
            (not st.Protocol.joining)
            && Protocol.is_member st.Protocol.view id)
          locks
        && member_everywhere id);
    sample_epoch ();
    spawn_workers id;
    id
  in
  let excised_at_observer i =
    List.for_all
      (fun lock ->
        not
          (List.mem_assoc i
             (RCluster.Node.membership ~lock (RCluster.node cluster observer))))
      locks
  in
  let leave i =
    (* The LEAVE-REQUEST relay is fire-and-forget (a coordinator busy
       with another view change defers it without retry), so keep
       re-injecting until the excision is visible on the observer. *)
    let deadline = Unix.gettimeofday () +. 20.0 in
    let rec nag () =
      if excised_at_observer i then ()
      else if Unix.gettimeofday () >= deadline then
        Alcotest.failf "churn soak: timed out excising node %d" i
      else begin
        RCluster.remove_node cluster i ~leave:(fun ~lock:_ ->
            Types.Receive (i, Resilient.Leave_request i));
        let rec poll k =
          if k > 0 && not (excised_at_observer i) then begin
            Thread.delay 0.1;
            poll (k - 1)
          end
        in
        poll 10;
        nag ()
      end
    in
    nag ();
    sample_epoch ();
    retired.(i) <- true;
    Thread.delay 0.1;
    RCluster.retire cluster i
  in
  (* Let the birth cluster take real traffic before churning. *)
  Thread.delay 1.0;
  (* Grow 5 -> 7. *)
  let id5 = join observer in
  let id6 = join observer in
  Alcotest.(check (list int)) "joined ids are appended" [ 5; 6 ] [ id5; id6 ];
  (* Kill-and-restart a birth node mid-churn: it must come back in the
     current (twice-grown) view straight from its store, not the birth
     view — two joins were committed and persisted before it died. *)
  Netkit.Fault.crash fault 1;
  RCluster.crash cluster 1;
  Thread.delay 0.5;
  RCluster.restart cluster 1;
  let restored_vnum =
    (RCluster.Node.state ~lock:"alpha" (RCluster.node cluster 1)).Protocol.view
      .Protocol.vnum
  in
  Alcotest.(check bool)
    (Printf.sprintf "restart rejoins a churned view from disk (vnum %d)"
       restored_vnum)
    true (restored_vnum >= 1);
  (* Grow to 8. *)
  let id7 = join observer in
  Alcotest.(check int) "third joiner id" 7 id7;
  (* Shrink 8 -> 4: the initial arbiter first (the token's birthplace),
     then another birth node, a freshly joined node, and one more. *)
  List.iter leave [ 0; 2; 5; 3 ];
  let survivors = [ 1; 4; 6; 7 ] in
  List.iter
    (fun lock ->
      Alcotest.(check (list int))
        (Printf.sprintf "final membership on %s" lock)
        survivors
        (List.sort compare
           (List.map fst
              (RCluster.Node.membership ~lock (RCluster.node cluster observer)))))
    locks;
  (* Post-churn convergence: every survivor keeps being served. *)
  let snapshot =
    Mutex.lock served_mu;
    let s = Array.copy served in
    Mutex.unlock served_mu;
    s
  in
  wait_until ~timeout:25.0 ~what:"post-churn progress on every survivor"
    (fun () ->
      Mutex.lock served_mu;
      let p = List.for_all (fun i -> served.(i) >= snapshot.(i) + 2) survivors in
      Mutex.unlock served_mu;
      p);
  stop := true;
  List.iter Thread.join !threads;
  write_soak_logs ~name:"churn-soak" ?trace cluster
    ~history ~served;
  let epoch_seq = List.rev !epochs in
  let final_epoch = (obs_view "alpha").Protocol.vnum in
  let gauge_epoch =
    Dmutex_obs.Registry.Gauge.(
      value
        (get
           (RCluster.registries cluster).(observer)
           ~labels:[ ("lock", "alpha") ]
           Dmutex_obs.Names.view_epoch))
  in
  RCluster.shutdown cluster;
  check_safe history;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "view epoch monotone through churn (%s)"
       (String.concat "," (List.map string_of_int epoch_seq)))
    true (monotone epoch_seq);
  Alcotest.(check bool)
    (Printf.sprintf "one commit per churn event (final epoch %d)" final_epoch)
    true
    (final_epoch >= 7);
  Alcotest.(check (float 0.01)) "view-epoch gauge tracks the observer"
    (float_of_int final_epoch) gauge_epoch;
  Logs.app (fun m ->
      m "churn soak: served=%s epochs=%s restored_vnum=%d"
        (String.concat "," (Array.to_list (Array.map string_of_int served)))
        (String.concat "," (List.map string_of_int epoch_seq))
        restored_vnum);
  if Sys.getenv_opt "DMUTEX_CHAOS_STATE_DIR" = None then rm_rf state_root

let churn_suite =
  ( "churn-soak",
    [
      Alcotest.test_case "rolling churn 5->8->4 with live traffic" `Slow
        test_churn_soak;
    ] )

(* ------------------------------------------------------------------ *)
(* Sharded soak: the lock-namespace tentpole end to end. 8 independent
   locks on a 5-node cluster, every node contending on every lock over
   one shared transport, durable per-lock stores — then a node caught
   holding the tokens of at least two locks is killed and restarted
   from disk, entangling several instances' Section 6 recovery in one
   outage. Per lock: zero safety violations and a
   messages-per-CS in the paper's Eq. 4 band. *)
let test_sharded_soak () =
  let n = 5 in
  let locks = List.init 8 (fun k -> Printf.sprintf "shard-%d" k) in
  let cfg = soak_cfg n in
  let state_root = soak_state_root "sharded-soak" in
  rm_rf state_root;
  let trace = make_trace () in
  let cluster =
    RCluster.launch ~base_port:8661 ~seed:chaos_seed ~locks
      ~heartbeat_period:0.2 ~suspect_timeout:0.8 ~state_root ?trace
      ~persist:PV.capture ~restore:(PV.restore cfg) cfg
  in
  let fault = RCluster.fault cluster in
  let history = History.create () in
  let served = Array.make n 0 in
  let served_mu = Mutex.create () in
  let stop = ref false in
  let worker i lock () =
    let rng =
      Random.State.make [| chaos_seed; i; 0x5a4d; Hashtbl.hash lock |]
    in
    while not !stop do
      if Netkit.Fault.is_crashed fault i then Thread.delay 0.05
      else begin
        (match
           RCluster.Node.with_lock ~timeout:3.0 ~lock (RCluster.node cluster i)
             (hold history ~lock ~holder:i)
         with
        | Some () ->
            Mutex.lock served_mu;
            served.(i) <- served.(i) + 1;
            Mutex.unlock served_mu
        | None -> ());
        Thread.delay (0.01 +. Random.State.float rng 0.05)
      end
    done
  in
  let threads =
    List.concat_map
      (fun lock -> List.init n (fun i -> Thread.create (worker i lock) ()))
      locks
  in
  (* Let every shard make contended progress, then kill-and-restart a
     node currently holding tokens for two or more locks. *)
  RCluster.chaos cluster
    [
      ( 2.5,
        RCluster.Restart_where
          {
            label = "multi-token-holder";
            select = select_multi_token_holder n;
            after = 0.6;
          } );
    ];
  RCluster.wait_chaos cluster;
  (* Post-restart convergence: every node keeps being served. *)
  let snapshot =
    Mutex.lock served_mu;
    let s = Array.copy served in
    Mutex.unlock served_mu;
    s
  in
  let deadline = Unix.gettimeofday () +. 25.0 in
  let rec settle () =
    let progressed =
      Mutex.lock served_mu;
      let p =
        List.for_all
          (fun i -> served.(i) >= snapshot.(i) + 2)
          (List.init n Fun.id)
      in
      Mutex.unlock served_mu;
      p
    in
    if progressed then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.1;
      settle ()
    end
  in
  let all_served = settle () in
  stop := true;
  List.iter Thread.join threads;
  write_soak_logs ~name:"sharded-soak" ?trace cluster
    ~history ~served;
  let restarts_completed =
    List.length
      (List.filter (fun (_, m) -> has_sub m "back up")
         (RCluster.chaos_log cluster))
  in
  let reports =
    List.map (fun lock -> (lock, RCluster.obs_report ~lock cluster)) locks
  in
  RCluster.shutdown cluster;
  check_safe history;
  Alcotest.(check bool)
    (Printf.sprintf "multi-token-holder restart completed (%d)"
       restarts_completed)
    true
    (restarts_completed >= 1);
  Alcotest.(check bool) "every node served after the restart" true all_served;
  (* Per-lock message complexity: each shard behaves like its own
     single-lock cluster, landing in the paper's Eq. 4 band — the
     multiplexing is free in protocol messages. *)
  List.iter
    (fun (l, (r : Dmutex_obs.Report.t)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: served at least once (%d)" l r.cs_entries)
        true (r.cs_entries > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: messages per CS in Eq. 4 band (%.2f)" l
           r.messages_per_cs)
        true
        (r.messages_per_cs >= 2.5 && r.messages_per_cs <= 4.5))
    reports;
  Logs.app (fun m ->
      m "sharded soak: served=%s restarts=%d"
        (String.concat "," (Array.to_list (Array.map string_of_int served)))
        restarts_completed)

let sharded_suite =
  ( "sharded-soak",
    [
      Alcotest.test_case
        "sharded soak (8 locks x 5 nodes, multi-token restart)" `Slow
        test_sharded_soak;
    ] )

(* ------------------------------------------------------------------ *)
(* Client-session soak: hundreds of thin-client sessions over the
   session layer of a 5-node cluster. The node hosting a busy session
   service is killed mid-grant and restarted from disk; one client
   stalls inside a held grant past its lease. Safety is judged at the
   resource by the checker with fencing: every entry must carry a
   strictly higher token than the one before it, a stale holder is
   fenced off, and no two holders may overlap. *)

module S = Netkit.Session.Make (Resilient) (Wire.Protocol_codec)
module SC = Netkit.Session_client
module WC = Wire.Client

let rotate l k =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + k) mod n))

(* Raw framing for the deliberately ill-behaved client: no renewal
   thread, no reconnect — it must be able to stall. *)
let craw_rpc fd req =
  Netkit.Session_frame.send fd (WC.encode_request req);
  WC.decode_response (Netkit.Session_frame.recv fd)

let test_client_soak () =
  let n = 5 in
  let k = 4 in
  let client_threads = 75 in
  let generations = 3 in
  let rounds = 2 in
  let lease_ms = 1_000 in
  let locks = List.init k (fun i -> Printf.sprintf "cl-%d" i) in
  let cfg = soak_cfg n in
  let state_root = soak_state_root "client-soak" in
  rm_rf state_root;
  let trace = make_trace () in
  let cluster =
    RCluster.launch ~base_port:8701 ~seed:chaos_seed ~locks
      ~heartbeat_period:0.2 ~suspect_timeout:0.8 ~state_root ?trace
      ~persist:PV.capture ~restore:(PV.restore cfg) cfg
  in
  let mk_server i =
    S.create ~lease_ms ?trace
      ~seed:(chaos_seed + i)
      ~fencing:PV.fencing_of_state
      ~node:(RCluster.node cluster i)
      ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = 0 }
      ()
  in
  let servers = Array.init n mk_server in
  let ports = Array.map S.port servers in
  let addrs =
    Array.to_list
      (Array.map (fun p -> { Netkit.Transport.host = "127.0.0.1"; port = p }) ports)
  in
  let history = History.create () in
  let grants = Atomic.make 0 in
  let lost = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let sessions_opened = Atomic.make 0 in
  let failure_log = ref [] in
  let flog_mu = Mutex.create () in
  let worker c () =
    for g = 0 to generations - 1 do
      let cl =
        SC.connect ~lease_ms
          ~seed:(chaos_seed + (c * 31) + g)
          ~addrs:(rotate addrs ((c + g) mod n))
          ()
      in
      let lock = Printf.sprintf "cl-%d" (c mod k) in
      let had_session = ref false in
      for _ = 1 to rounds do
        (match
           SC.with_lock ~timeout:60.0 ~lock cl (fun ~fencing ->
               in_cs ~fencing history ~lock ~holder:c (fun () ->
                   Thread.delay 0.002))
         with
        | Ok () -> Atomic.incr grants
        | Error (SC.Session_lost _) -> Atomic.incr lost
        | Error e ->
            Atomic.incr failures;
            Mutex.lock flog_mu;
            failure_log := SC.string_of_error e :: !failure_log;
            Mutex.unlock flog_mu);
        (* A grant or a loud loss both prove a session existed, even
           if it is gone again by the time we close. *)
        if SC.session_id cl <> None then had_session := true
      done;
      if !had_session || SC.session_id cl <> None then
        Atomic.incr sessions_opened;
      SC.close cl
    done
  in
  let threads =
    List.init client_threads (fun c -> Thread.create (worker c) ())
  in
  (* Let traffic build, then stall one client inside a held grant:
     grant cl-1 to a raw session that will never release or renew. *)
  let wait_for ?(timeout = 30.0) pred =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if pred () then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Thread.delay 0.05;
        go ()
      end
    in
    go ()
  in
  ignore (wait_for (fun () -> Atomic.get grants >= 10));
  let stall_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect stall_fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", ports.(1)));
  Unix.setsockopt_float stall_fd Unix.SO_RCVTIMEO 30.0;
  (match craw_rpc stall_fd (WC.Hello { rid = 1 }) with
  | WC.Hello_ok _ -> ()
  | _ -> Alcotest.fail "stalled client hello");
  (match
     craw_rpc stall_fd
       (WC.Open_session { rid = 2; lease_ms; resume = None })
   with
  | WC.Session_opened _ -> Atomic.incr sessions_opened
  | _ -> Alcotest.fail "stalled client open");
  Netkit.Session_frame.send stall_fd
    (WC.encode_request
       (WC.Acquire
          {
            rid = 3;
            lock = "cl-1";
            timeout_ms = 45_000;
            try_only = false;
            shared = false;
          }));
  let stall_fencing =
    match WC.decode_response (Netkit.Session_frame.recv stall_fd) with
    | WC.Granted { fencing; _ } ->
        (* Do the protected work promptly, then hold the grant
           forever: the lease must drain it without our help. *)
        in_cs ~fencing history ~lock:"cl-1" ~holder:client_threads ignore;
        fencing
    | _ -> Alcotest.fail "stalled client grant"
  in
  (* Kill the busiest session host mid-grant and bring it back. *)
  ignore (wait_for (fun () -> (S.stats servers.(0)).S.granted >= 5));
  S.shutdown servers.(0);
  RCluster.crash cluster 0;
  Thread.delay 0.8;
  RCluster.restart cluster 0;
  let rec recreate attempt =
    match
      S.create ~lease_ms ?trace ~seed:(chaos_seed + 100)
        ~fencing:PV.fencing_of_state
        ~node:(RCluster.node cluster 0)
        ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = ports.(0) }
        ()
    with
    | s -> s
    | exception Unix.Unix_error _ when attempt < 10 ->
        Thread.delay 0.3;
        recreate (attempt + 1)
  in
  servers.(0) <- recreate 0;
  (* The stalled client must be told, loudly, that its lease lapsed. *)
  let stall_lost =
    match WC.decode_response (Netkit.Session_frame.recv stall_fd) with
    | WC.Session_lost { rid = 0; _ } -> true
    | _ -> false
    | exception _ -> false
  in
  (try Unix.close stall_fd with _ -> ());
  List.iter Thread.join threads;
  let served =
    Array.map (fun s -> (S.stats s).S.granted) servers
  in
  write_soak_logs ~name:"client-soak" ?trace cluster ~history ~served;
  (match log_dir with
  | None -> ()
  | Some dir ->
      let oc = open_out (Filename.concat dir "client-soak-clients.log") in
      Printf.fprintf oc
        "sessions=%d grants=%d lost=%d failures=%d stall_fencing=%d \
         stall_lost=%b\n"
        (Atomic.get sessions_opened) (Atomic.get grants) (Atomic.get lost)
        (Atomic.get failures) stall_fencing stall_lost;
      List.iter (fun m -> Printf.fprintf oc "failure: %s\n" m) !failure_log;
      close_out oc);
  Array.iter S.shutdown servers;
  RCluster.shutdown cluster;
  (* Safety: no raw overlap, and fencing strictly monotonic per lock
     (the checker counts any out-of-order entry as a violation, so one
     assert covers both). *)
  check_safe history;
  (* Scale: the soak actually exercised hundreds of sessions. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 sessions (%d)" (Atomic.get sessions_opened))
    true
    (Atomic.get sessions_opened >= 200);
  (* Liveness: nobody hung — every with_lock resolved (we got here),
     explicit failures stayed rare, and the drained stalled grant let
     cl-1 keep moving to strictly higher fencing tokens. *)
  Alcotest.(check int)
    (Printf.sprintf "no unexplained client failures (%s)"
       (String.concat "; " !failure_log))
    0 (Atomic.get failures);
  Alcotest.(check bool) "stalled client lost its session loudly" true
    stall_lost;
  let newest_cl1 =
    (List.assoc "cl-1" (History.report history).locks).History.newest
  in
  Alcotest.(check bool) "cl-1 advanced past the stalled grant" true
    (Option.value ~default:min_int newest_cl1 > stall_fencing);
  Logs.app (fun m ->
      m "client soak: sessions=%d grants=%d lost=%d stall_lost=%b"
        (Atomic.get sessions_opened) (Atomic.get grants) (Atomic.get lost)
        stall_lost);
  if Sys.getenv_opt "DMUTEX_CHAOS_STATE_DIR" = None then rm_rf state_root

let client_suite =
  ( "client-soak",
    [
      Alcotest.test_case
        "client-session soak (200+ sessions, node kill mid-grant, stalled \
         lease)"
        `Slow test_client_soak;
    ] )
