(* Transaction soak: many leased sessions running random 2–3 lock
   mixed-mode transactions through [Session_client.with_locks] against
   a live cluster, with three independent judges:

   - per-lock read-write exclusion, judged by {!Dmutex.History} —
     concurrent readers are legal, a writer is alone (no reader, no
     other writer);
   - the cluster-wide wait-for graph never holds a *persistent* cycle
     (a scanner thread unions {!Dmutex.Protocol.wait_edges} across
     every node x lock and runs {!Dmutex_obs.Wfg.find_cycle}; the
     edges are node-granular, so short-lived cycles from sessions
     multiplexing onto the same nodes are expected — a deadlock is a
     cycle that never dissolves);
   - fencing stays strictly monotone per lock across exclusive
     grants, checked by the same checker in a sequential epilogue
     phase.

   Scale comes from the environment so CI can push past 100 sessions
   while a plain `dune runtest` stays quick:
     DMUTEX_TXN_CLIENTS  concurrent sessions     (default 24)
     DMUTEX_TXN_ROUNDS   transactions per client (default 3)
   The RNG is seeded from DMUTEX_CHAOS_SEED like the other soaks, so
   a failing CI run reproduces locally. *)

open Dmutex
module WC = Wire.Client
module RCluster = Netkit.Cluster.Make (Resilient) (Wire.Protocol_codec)
module S = Netkit.Session.Make (Resilient) (Wire.Protocol_codec)
module SC = Netkit.Session_client
module Wfg = Dmutex_obs.Wfg

let chaos_seed =
  match Sys.getenv_opt "DMUTEX_CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> 20260807)
  | None -> 20260807

let log_dir = Sys.getenv_opt "DMUTEX_CHAOS_LOG_DIR"

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let n_clients = env_int "DMUTEX_TXN_CLIENTS" 24
let n_rounds = env_int "DMUTEX_TXN_ROUNDS" 3

let test_transaction_soak () =
  let n = 3 in
  let lock_names = [ "acct-a"; "acct-b"; "acct-c"; "acct-d" ] in
  let cfg =
    {
      (Resilient.config ~n ()) with
      Types.Config.t_collect = 0.02;
      t_forward = 0.02;
    }
  in
  let cluster = RCluster.launch ~base_port:10201 ~locks:lock_names cfg in
  let servers =
    Array.init n (fun i ->
        S.create ~fencing:Dmutex_store.Protocol_view.fencing_of_state
          ~node:(RCluster.node cluster i)
          ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = 0 }
          ())
  in
  let addrs =
    Array.to_list
      (Array.map
         (fun s -> { Netkit.Transport.host = "127.0.0.1"; port = S.port s })
         servers)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter S.shutdown servers;
      RCluster.shutdown cluster)
    (fun () ->
      let history = History.create () in
      let commits = Atomic.make 0 in
      let failures = Atomic.make 0 in
      let failure_log = ref [] in
      let log_mu = Mutex.create () in
      let note_failure msg =
        Atomic.incr failures;
        Mutex.lock log_mu;
        failure_log := msg :: !failure_log;
        Mutex.unlock log_mu
      in
      (* --- wait-for-graph scanner ----------------------------------
         The protocol's wait-for edges are *node*-granular: many
         sessions multiplex onto each node, so node 0 waiting on node 2
         for lock A while node 2 waits on node 0 for lock B is two
         unrelated sessions, not a deadlock. A real deadlock is a cycle
         that *persists* — it can never dissolve on its own — whereas
         multiplexing artifacts clear as soon as a few-millisecond hold
         is released. The scanner therefore tracks the longest streak
         of consecutive cyclic scans; the verdict is on persistence. *)
      let stop_scanner = Atomic.make false in
      let scans = Atomic.make 0 in
      let transient_cycles = Atomic.make 0 in
      let max_streak = Atomic.make 0 in
      let worst_cycle = ref None in
      let scanner () =
        let streak = ref 0 in
        while not (Atomic.get stop_scanner) do
          let scan =
            List.concat_map
              (fun lock ->
                List.init n (fun i ->
                    ( lock,
                      Resilient.wait_edges
                        (RCluster.Node.state ~lock (RCluster.node cluster i))
                    )))
              lock_names
          in
          let g = Wfg.of_scan scan in
          (match Wfg.find_cycle g with
          | Some c ->
              Atomic.incr transient_cycles;
              incr streak;
              if !streak > Atomic.get max_streak then begin
                Atomic.set max_streak !streak;
                worst_cycle := Some c
              end
          | None -> streak := 0);
          Atomic.incr scans;
          Thread.delay 0.01
        done
      in
      let scanner_t = Thread.create scanner () in
      (* --- the transaction mix ------------------------------------- *)
      let lock_arr = Array.of_list lock_names in
      let worker c () =
        let rng = Random.State.make [| chaos_seed; c; 0x7a11 |] in
        (* Rotate the endpoint list so sessions spread over the
           cluster instead of all landing on node 0. *)
        let rot = c mod n in
        let my_addrs =
          List.mapi (fun i _ -> List.nth addrs ((i + rot) mod n)) addrs
        in
        let cl = SC.connect ~seed:(1000 + c) ~addrs:my_addrs () in
        for r = 1 to n_rounds do
          (* Pick 2–3 distinct locks, each shared with probability
             0.7, and deliberately scramble the order: with_locks must
             canonicalize it. *)
          let k = 2 + Random.State.int rng 2 in
          let start = Random.State.int rng (Array.length lock_arr) in
          let step = 1 + Random.State.int rng (Array.length lock_arr - 1) in
          let picks =
            List.init k (fun i ->
                lock_arr.((start + (i * step)) mod Array.length lock_arr))
            |> List.sort_uniq compare
          in
          let txn =
            List.map
              (fun l ->
                let mode =
                  if Random.State.float rng 1.0 < 0.7 then Types.Shared
                  else Types.Exclusive
                in
                (l, mode))
              picks
          in
          let txn =
            (* scramble: reverse half the time *)
            if Random.State.bool rng then List.rev txn else txn
          in
          match
            SC.with_locks ~timeout:60.0 ~locks:txn cl (fun ~fencing ->
                if fencing <= 0 then note_failure "non-positive fencing";
                List.iter
                  (fun (lock, mode) ->
                    ignore (History.enter history ~lock ~holder:c ~mode))
                  txn;
                Thread.delay (0.001 +. Random.State.float rng 0.002);
                List.iter
                  (fun (lock, _) -> History.leave history ~lock ~holder:c)
                  txn)
          with
          | Ok () -> Atomic.incr commits
          | Error e ->
              note_failure
                (Printf.sprintf "client %d round %d [%s]: %s" c r
                   (String.concat ","
                      (List.map
                         (fun (l, m) ->
                           l ^ (match m with Types.Shared -> "/s" | _ -> "/x"))
                         txn))
                   (SC.string_of_error e))
        done;
        SC.close cl
      in
      let threads =
        List.init n_clients (fun c -> Thread.create (worker c) ())
      in
      List.iter Thread.join threads;
      Atomic.set stop_scanner true;
      Thread.join scanner_t;
      (* --- fencing epilogue: strictly monotone per lock ------------ *)
      let epilogue = SC.connect ~seed:9999 ~addrs () in
      List.iter
        (fun l ->
          for _ = 1 to 3 do
            (match SC.acquire ~timeout:30.0 ~lock:l epilogue with
            | Ok fencing ->
                Test_chaos.in_cs ~fencing history ~lock:l ~holder:n_clients
                  ignore
            | Error e ->
                note_failure
                  (Printf.sprintf "epilogue acquire %s: %s" l
                     (SC.string_of_error e)));
            match SC.release ~lock:l epilogue with
            | Ok () -> ()
            | Error e ->
                note_failure
                  (Printf.sprintf "epilogue release %s: %s" l
                     (SC.string_of_error e))
          done)
        lock_names;
      SC.close epilogue;
      (* --- artifacts ----------------------------------------------- *)
      (match log_dir with
      | None -> ()
      | Some dir ->
          (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
          let oc = open_out (Filename.concat dir "txn-soak.log") in
          Printf.fprintf oc "seed: %d clients: %d rounds: %d\n" chaos_seed
            n_clients n_rounds;
          Printf.fprintf oc "commits: %d failures: %d\n" (Atomic.get commits)
            (Atomic.get failures);
          Printf.fprintf oc "wfg scans: %d transient cycles: %d max streak: %d\n"
            (Atomic.get scans) (Atomic.get transient_cycles)
            (Atomic.get max_streak);
          (match !worst_cycle with
          | Some c ->
              Printf.fprintf oc "first cycle: %s\n"
                (Format.asprintf "%a" Wfg.pp_cycle c)
          | None -> ());
          Printf.fprintf oc "%s\n"
            (Format.asprintf "%a" History.pp_report (History.report history));
          List.iter (fun m -> Printf.fprintf oc "failure: %s\n" m) !failure_log;
          close_out oc);
      (* --- verdicts ------------------------------------------------ *)
      Alcotest.(check int)
        (Printf.sprintf "zero transaction failures (%s)"
           (String.concat "; " !failure_log))
        0 (Atomic.get failures);
      Alcotest.(check int) "every transaction committed"
        (n_clients * n_rounds) (Atomic.get commits);
      Test_chaos.check_safe history;
      (* A deadlock would pin the cycle in place for the rest of the
         run (thousands of scans at 10 ms); transient node-granular
         cycles from session multiplexing dissolve within a hold time.
         One second of uninterrupted cycle is far past any legal hold. *)
      Alcotest.(check bool)
        (Printf.sprintf "no persistent wait-for cycle (worst %s for %d scans)"
           (match !worst_cycle with
           | Some c -> Format.asprintf "%a" Wfg.pp_cycle c
           | None -> "-")
           (Atomic.get max_streak))
        true
        (Atomic.get max_streak < 100);
      Alcotest.(check bool) "scanner actually ran" true (Atomic.get scans > 10);
      Logs.app (fun m ->
          m
            "txn soak: clients=%d rounds=%d commits=%d wfg_scans=%d \
             transient_cycles=%d max_streak=%d readers=%s"
            n_clients n_rounds (Atomic.get commits) (Atomic.get scans)
            (Atomic.get transient_cycles) (Atomic.get max_streak)
            (String.concat ","
               (List.map
                  (fun (_, (l : History.lock_report)) ->
                    string_of_int l.peak_shared)
                  (History.report history).locks))))

let suite =
  ( "txn-soak",
    [
      Alcotest.test_case "mixed-mode multi-lock transactions" `Slow
        test_transaction_soak;
    ] )
