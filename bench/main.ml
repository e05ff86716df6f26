(* The benchmark harness regenerates every quantitative artefact of
   the paper (the per-experiment index lives in DESIGN.md):

     fig3:messages        Figure 3   messages/CS vs lambda, Tcoll 0.1/0.2
     fig4:delay           Figure 4   delay/CS vs lambda
     fig5:forwarded       Figure 5   forwarded fraction vs lambda
     fig6:comparison      Figure 6   vs Ricart-Agrawala and Singhal
     table:light-load     Eq. 1-2    (N^2-1)/N across N
     table:heavy-load     Eq. 4-5    3 - 2/N across N
     table:service-time   Eq. 3, 6   delay bounds across N
     table:monitor        Section 4  starvation-free overhead
     table:recovery       Section 6  fault drills
     table:all-algorithms Section 2.4/3.3 context
     table:ablations      DESIGN.md  tuning + broadcast suppression

   plus one Bechamel micro-benchmark per experiment kernel, so a
   performance regression in the simulator or the protocol shows up
   next to the numbers it would distort.

   Sweeps fan out over a domain pool (Simkit.Pool): DMUTEX_JOBS caps
   the parallelism (1 forces sequential; output is bit-for-bit
   identical either way). Each experiment reports its wall-clock, and
   DMUTEX_BENCH_JSON=path additionally writes a machine-readable
   summary (per-experiment seconds, per-kernel ns/run, jobs count) so
   later runs can be diffed against a recorded baseline.

   DMUTEX_BENCH_REQUESTS scales the per-point simulation length
   (default 50_000; the paper used 1_000_000 — set it that high for a
   full-fidelity run). DMUTEX_BENCH_QUICK=1 shrinks everything for a
   smoke run. *)

let fmt = Format.std_formatter

let quick = Sys.getenv_opt "DMUTEX_BENCH_QUICK" = Some "1"

(* Bad settings end the run before anything is measured: a misspelt
   section would otherwise run nothing and exit 0. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* DMUTEX_BENCH_ONLY=lab (comma-separated section names, see [main])
   restricts the run to named sections — the nightly lab workflow
   regenerates only the big-N tables without paying for the
   live-socket experiments. The JSON summary then lacks the skipped
   sections' derived metrics, so its gate run needs
   [--allow-missing]. *)
let only_sections =
  match Sys.getenv_opt "DMUTEX_BENCH_ONLY" with
  | None | Some "" -> None
  | Some s -> Some (List.map String.trim (String.split_on_char ',' s))

let requests =
  match Sys.getenv_opt "DMUTEX_BENCH_REQUESTS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None ->
          usage_error "DMUTEX_BENCH_REQUESTS: expected a positive integer, got %S"
            s)
  | None -> if quick then 2_000 else 50_000

let runs = if quick then 2 else 3
let rates = if quick then [ 0.01; 0.2; 2.0 ] else Experiments.default_rates
let line () = Format.fprintf fmt "@."

(* Wall-clock per experiment, printed inline and recorded for the
   JSON summary. *)
let timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  timings := (name, dt) :: !timings;
  Format.fprintf fmt "   [%s: %.2f s wall]@.@." name dt;
  r

let figures () =
  let f3, f4, f5 =
    timed "fig3-5" (fun () -> Experiments.fig345 ~requests ~runs ~rates ())
  in
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:"fig3:messages — average messages per CS (paper Fig. 3)" f3;
  line ();
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:"fig4:delay — average delay per CS, seconds (paper Fig. 4)" f4;
  line ();
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:"fig5:forwarded — forwarded fraction of messages (paper Fig. 5)"
    f5;
  line ();
  let f6 =
    timed "fig6" (fun () ->
        Experiments.fig6_comparison ~requests ~runs ~rates ())
  in
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:
      "fig6:comparison — messages per CS vs Ricart-Agrawala and Singhal \
       (paper Fig. 6)"
    f6;
  line ()

let tables () =
  let light_load =
    timed "table:light-load" (fun () ->
        Experiments.table_light_load ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_bounds fmt
    ~title:"table:light-load — Eq. 1: M = (N^2-1)/N at light load" light_load;
  line ();
  let heavy_load =
    timed "table:heavy-load" (fun () ->
        Experiments.table_heavy_load ~requests ~runs ())
  in
  Experiments.print_bounds fmt
    ~title:"table:heavy-load — Eq. 4: M = 3 - 2/N at saturation" heavy_load;
  line ();
  let light, heavy =
    timed "table:service-time" (fun () ->
        Experiments.table_service_time ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_bounds fmt
    ~title:"table:service-time — Eq. 3 (light load delay)" light;
  line ();
  Experiments.print_bounds fmt
    ~title:
      "table:service-time — Eq. 6 (heavy load; models a mid-cycle arrival, \
       measured value is a full rotation — see EXPERIMENTS.md)"
    heavy;
  line ();
  let monitor =
    timed "table:monitor" (fun () ->
        Experiments.table_monitor_overhead ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:"table:monitor — Section 4.1 starvation-free overhead" monitor;
  line ();
  let recovery = timed "table:recovery" Experiments.table_recovery in
  Experiments.print_recovery fmt recovery;
  line ();
  let all_algorithms =
    timed "table:all-algorithms" (fun () ->
        Experiments.table_all_algorithms ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_algorithms fmt all_algorithms;
  line ();
  let collection =
    timed "table:ablations:collection" (fun () ->
        Experiments.table_collection_tuning ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_sweep ~xlabel:"Tcoll" fmt
    ~title:"table:ablations — collection-phase tuning at lambda=0.2"
    collection;
  line ();
  let skip_broadcast =
    timed "table:ablations:skip-broadcast" (fun () ->
        Experiments.table_skip_broadcast ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:"table:ablations — Section 3.1 NEW-ARBITER suppression"
    skip_broadcast;
  line ();
  let forwarding =
    timed "table:ablations:forwarding" (fun () ->
        Experiments.table_forwarding_tuning ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_sweep ~xlabel:"Tfwd" fmt
    ~title:"table:ablations — forwarding-phase tuning at lambda=0.2"
    forwarding;
  line ();
  let balance =
    timed "table:load-balance" (fun () ->
        Experiments.table_load_balance ~requests:(requests / 2) ())
  in
  Experiments.print_balance fmt balance;
  line ();
  let fairness =
    timed "table:fairness" (fun () ->
        Experiments.table_fairness ~requests:(requests / 2) ())
  in
  Experiments.print_fairness fmt fairness;
  line ();
  let topology =
    timed "table:topology" (fun () ->
        Experiments.table_topology ~requests:(requests / 2) ())
  in
  Experiments.print_topology fmt topology;
  line ();
  let delay_model =
    timed "table:delay-model" (fun () ->
        Experiments.table_delay_model ~requests:(requests / 2) ~runs ())
  in
  Experiments.print_sweep ~xlabel:"lambda" fmt
    ~title:
      "table:delay-model — gated-M/D/1 interpolation vs simulation        (beyond-paper extension)"
    delay_model;
  line ();
  let mix =
    timed "table:message-mix" (fun () ->
        Experiments.table_message_mix ~requests:(requests / 2) ())
  in
  Experiments.print_message_mix fmt mix;
  line ()

(* Everything the JSON summary embeds beyond timings: derived
   per-experiment reports, keyed under "derived". Populated by the lab
   tables and the live experiments below. *)
let derived_reports : (string * Dmutex_obs.Json.t) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Big-N comparison lab: table:scale, table:wan, table:faults. The
   derived rows are embedded in the JSON summary (schema 3) so the
   gate can hold the dmutex Eq. 4 band at every N and watch the
   scaling exponent against the committed baseline. *)

let scale_json ~replicates (rows : Experiments.scale_row list) =
  let open Dmutex_obs.Json in
  let cell (c : Experiments.scale_cell) =
    Obj
      [
        ("n", Num (float_of_int c.Experiments.n_nodes));
        ("messages_per_cs", Num c.Experiments.msgs.Experiments.mean);
        ("messages_ci95", Num c.Experiments.msgs.Experiments.ci95);
        ("mean_delay", Num c.Experiments.dly.Experiments.mean);
        ("alloc_mb", Num c.Experiments.alloc_mb);
      ]
  in
  Obj
    [
      ("replicates", Num (float_of_int replicates));
      ( "rows",
        List
          (List.map
             (fun (r : Experiments.scale_row) ->
               Obj
                 [
                   ("algorithm", Str r.Experiments.algorithm);
                   ("exponent", Num r.Experiments.exponent);
                   ("cells", List (List.map cell r.Experiments.cells));
                 ])
             rows) );
    ]

let wan_json (rows : Experiments.wan_row list) =
  let open Dmutex_obs.Json in
  let region (s : Experiments.wan_region_stats) =
    Obj
      [
        ("region", Num (float_of_int s.Experiments.region));
        ("grants", Num (float_of_int s.Experiments.grants));
        ("p50", Num s.Experiments.p50);
        ("p95", Num s.Experiments.p95);
        ("p99", Num s.Experiments.p99);
      ]
  in
  List
    (List.map
       (fun (r : Experiments.wan_row) ->
         Obj
           [
             ("algorithm", Str r.Experiments.wan_algorithm);
             ("scenario", Str r.Experiments.scenario);
             ("messages_per_cs", Num r.Experiments.wan_msgs);
             ("mean_delay", Num r.Experiments.wan_mean_delay);
             ("regions", List (List.map region r.Experiments.regions));
           ])
       rows)

let faults_json (rows : Experiments.fault_row list) =
  let open Dmutex_obs.Json in
  List
    (List.map
       (fun (r : Experiments.fault_row) ->
         Obj
           [
             ("algorithm", Str r.Experiments.fault_algorithm);
             ("supported", Bool r.Experiments.supported);
             ("completed", Num (float_of_int r.Experiments.fault_completed));
             ("messages_per_cs", Num r.Experiments.fault_msgs);
             ("mean_delay", Num r.Experiments.fault_mean_delay);
             ("max_delay", Num r.Experiments.fault_max_delay);
             ("unserved", Num (float_of_int r.Experiments.fault_unserved));
           ])
       rows)

let lab () =
  let replicates = if quick then 1 else 3 in
  let scale =
    timed "table:scale" (fun () -> Experiments.table_scale ~replicates ())
  in
  Experiments.print_scale fmt scale;
  line ();
  let wan_n = if quick then 12 else 24 in
  let wan_requests = if quick then 1_500 else 6_000 in
  let wan =
    timed "table:wan" (fun () ->
        Experiments.table_wan ~n:wan_n ~requests:wan_requests ())
  in
  Experiments.print_wan fmt wan;
  line ();
  let fault_n = if quick then 10 else 20 in
  let fault_requests = if quick then 1_000 else 4_000 in
  let faults =
    timed "table:faults" (fun () ->
        Experiments.table_faults ~n:fault_n ~requests:fault_requests ())
  in
  Experiments.print_faults fmt faults;
  line ();
  derived_reports :=
    ("faults", faults_json faults) :: ("wan", wan_json wan)
    :: ("scale", scale_json ~replicates scale)
    :: !derived_reports

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the kernels behind each experiment.      *)

open Bechamel
open Toolkit
module RB = Dmutex.Sim_runner.Make (Dmutex.Basic)
module RM = Dmutex.Sim_runner.Make (Dmutex.Monitored)
module RRA = Dmutex.Sim_runner.Make (Baselines.Ricart_agrawala)

let micro_tests =
  let cfg10 = Dmutex.Basic.config ~n:10 () in
  [
    (* fig3/4/5 kernel: one saturated epoch (10 CSs) of the basic
       algorithm in the simulator. *)
    Test.make ~name:"fig3-5:sim-epoch-basic"
      (Staged.stage (fun () ->
           ignore (RB.run_saturated ~seed:1 ~requests:10 cfg10)));
    (* fig6 kernel: the comparison's heaviest comparator. *)
    Test.make ~name:"fig6:sim-epoch-ricart"
      (Staged.stage (fun () ->
           ignore
             (RRA.run_saturated ~seed:1 ~requests:10
                (Dmutex.Types.Config.default ~n:10))));
    (* table:monitor kernel: one monitored epoch. *)
    Test.make ~name:"table-monitor:sim-epoch-monitored"
      (Staged.stage (fun () ->
           ignore
             (RM.run_saturated ~seed:1 ~requests:10
                (Dmutex.Monitored.config ~n:10 ()))));
    (* Protocol step: a request landing at a collecting arbiter. *)
    (let st = Dmutex.Protocol.init cfg10 0 in
     let req =
       Dmutex.Protocol.Request (Dmutex.Qlist.entry ~node:3 ~seq:0 ())
     in
     Test.make ~name:"kernel:protocol-handle"
       (Staged.stage (fun () ->
            ignore
              (Dmutex.Protocol.handle cfg10 ~now:0.0 st
                 (Dmutex.Types.Receive (3, req))))));
    (* Wire codec: the token message that dominates traffic. *)
    (let tok =
       Dmutex.Protocol.Privilege
         ( {
             Dmutex.Protocol.tq =
               List.init 10 (fun i -> Dmutex.Qlist.entry ~node:i ~seq:4 ());
             granted = Array.make 10 3;
             epoch = 1;
             election = 99;
             vepoch = 0;
           },
           None )
     in
     let enc = Wire.Protocol_codec.encode tok in
     Test.make ~name:"kernel:codec-roundtrip"
       (Staged.stage (fun () -> ignore (Wire.Protocol_codec.decode enc))));
    (* Engine: schedule + fire one event. *)
    (let e = Simkit.Engine.create () in
     Test.make ~name:"kernel:engine-event"
       (Staged.stage (fun () ->
            ignore (Simkit.Engine.schedule e ~delay:0.0 (fun _ -> ()));
            ignore (Simkit.Engine.step e))));
    (* Transport flush: serialize a 16-frame coalesced batch (a
       request payload per frame, pooled buffer, no per-frame
       allocation) and push it through one write syscall. *)
    (let payload =
       Wire.Protocol_codec.encode
         (Dmutex.Protocol.Request (Dmutex.Qlist.entry ~node:3 ~seq:7 ()))
     in
     let fb = Netkit.Transport.Flush.create () in
     let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     Test.make ~name:"kernel:transport-flush"
       (Staged.stage (fun () ->
            Netkit.Transport.Flush.reset fb;
            for i = 0 to 15 do
              Netkit.Transport.Flush.add_frame fb ~src:1
                ~lock:(Printf.sprintf "shard-%d" (i land 7))
                Wire.Frame.Data payload
            done;
            ignore (Netkit.Transport.Flush.write fb devnull ~pos:0))));
  ]

(* ------------------------------------------------------------------ *)
(* Derived per-CS accounting through the observability registry: the
   same canonical series a live cluster exposes, derived the same way
   (Dmutex_obs.Report), embedded into the JSON summary and enforced by
   the CI regression gate (bench/gate.ml). The sim's own outcome
   counter rides along as a cross-check: the registry-derived value
   and the simulator's native count must agree. *)

let derived () =
  let open Dmutex_obs in
  let n = 10 in
  let cfg = Dmutex.Basic.config ~n () in
  let one key ~predicted run =
    let reg = Registry.create () in
    let (outcome : Dmutex.Sim_runner.outcome) =
      timed ("derived:" ^ key) (fun () -> run reg)
    in
    let report = Report.derive (Registry.snapshot reg) in
    Format.fprintf fmt
      "derived:%s — %a@.   (sim native %.3f msgs/CS, analysis predicts \
       %.3f)@.@."
      key Report.pp report outcome.Dmutex.Sim_runner.messages_per_cs predicted;
    let json =
      match Report.to_json report with
      | Json.Obj fields ->
          Json.Obj
            (fields
            @ [
                ("predicted_messages_per_cs", Json.Num predicted);
                ( "sim_messages_per_cs",
                  Json.Num outcome.Dmutex.Sim_runner.messages_per_cs );
                ("n", Json.Num (float_of_int n));
              ])
      | j -> j
    in
    derived_reports := (key, json) :: !derived_reports
  in
  (* Saturation: Eq. 4, M = 3 - 2/N. *)
  one "high_load"
    ~predicted:(3.0 -. (2.0 /. float_of_int n))
    (fun reg ->
      RB.run_saturated ~seed:11 ~requests:(min requests 5_000) ~obs:reg cfg);
  (* Light load: Eq. 1, M = (N^2 - 1)/N. *)
  one "light_load"
    ~predicted:(float_of_int ((n * n) - 1) /. float_of_int n)
    (fun reg ->
      RB.run_poisson ~seed:11 ~rate:0.01
        ~requests:(min (requests / 2) 2_000)
        ~obs:reg cfg)

(* ------------------------------------------------------------------ *)
(* Sharded throughput: the lock namespace measured live. K independent
   locks on an N-node loopback cluster (real sockets, one multiplexed
   transport per node), every node driving a closed loop on every
   lock. Reports aggregate critical sections per second and the
   per-lock messages-per-CS — each shard must stay in the same Eq. 4
   band as a single-lock cluster, making the multiplexing provably
   free in protocol messages. *)

module SCluster = Netkit.Cluster.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let sharded () =
  let open Dmutex_obs in
  let n = 5 in
  let k = 8 in
  (* Enough rounds per (node, lock) pair that the free startup grants
     cannot drag the per-lock mean below the Eq. 4 band. *)
  let rounds = if quick then 12 else 25 in
  let locks = List.init k (fun i -> Printf.sprintf "shard-%d" i) in
  (* Tight collection timers: the reactor transport coalesces the
     frames of a protocol step (and anything else in the same flush
     window) into single writes, so the paper's batching no longer
     needs a long T_collect to keep syscall costs down — the timer can
     be latency-sized instead of throughput-sized. *)
  let cfg =
    {
      (Dmutex.Resilient.config ~n ()) with
      Dmutex.Types.Config.t_collect = 0.002;
      t_forward = 0.002;
    }
  in
  let cluster, elapsed, timeouts =
    timed "sharded:throughput" (fun () ->
        let cluster = SCluster.launch ~base_port:8901 ~locks cfg in
        let timeouts = Atomic.make 0 in
        let t0 = Unix.gettimeofday () in
        let worker i lock () =
          for _ = 1 to rounds do
            match
              SCluster.Node.with_lock ~timeout:30.0 ~lock
                (SCluster.node cluster i) (fun () -> ())
            with
            | Some () -> ()
            | None -> Atomic.incr timeouts
          done
        in
        let threads =
          List.concat_map
            (fun lock ->
              List.init n (fun i -> Thread.create (worker i lock) ()))
            locks
        in
        List.iter Thread.join threads;
        (cluster, Unix.gettimeofday () -. t0, Atomic.get timeouts))
  in
  let report = SCluster.obs_report cluster in
  let by_lock = SCluster.obs_report_by_lock cluster in
  SCluster.shutdown cluster;
  let cs_per_sec =
    if elapsed > 0.0 then float_of_int report.Report.cs_entries /. elapsed
    else 0.0
  in
  Format.fprintf fmt
    "sharded:throughput — %d locks x %d nodes: %d CS in %.2f s (%.1f CS/s \
     aggregate), %.3f msgs/CS, %d timeouts@."
    k n report.Report.cs_entries elapsed cs_per_sec
    report.Report.messages_per_cs timeouts;
  List.iter
    (fun (lock, (r : Report.t)) ->
      Format.fprintf fmt "   %-10s %4d CS  %.3f msgs/CS@." lock
        r.Report.cs_entries r.Report.messages_per_cs)
    by_lock;
  line ();
  let json =
    Json.Obj
      [
        ("locks", Json.Num (float_of_int k));
        ("nodes", Json.Num (float_of_int n));
        ("cs_entries", Json.Num (float_of_int report.Report.cs_entries));
        ("cs_per_sec", Json.Num cs_per_sec);
        ("messages_per_cs", Json.Num report.Report.messages_per_cs);
        ("timeouts", Json.Num (float_of_int timeouts));
        ( "per_lock",
          Json.Obj
            (List.map
               (fun (lock, (r : Report.t)) ->
                 ( lock,
                   Json.Obj
                     [
                       ("cs_entries", Json.Num (float_of_int r.Report.cs_entries));
                       ("messages_per_cs", Json.Num r.Report.messages_per_cs);
                     ] ))
               by_lock) );
      ]
  in
  derived_reports := ("sharded", json) :: !derived_reports

(* ------------------------------------------------------------------ *)
(* Client swarm: the session layer measured live. M ≫ N thin clients
   (each a Session_client over loopback TCP) hammer K locks through
   the session services of an N-node cluster. Reports the aggregate
   grant rate and — the acceptance criterion — the protocol
   messages-per-CS, which must stay in the same Eq. 4 band as a
   clientless cluster: sessions multiplex onto the node's token
   passing, they add zero protocol messages. *)

module SSession = Netkit.Session.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let client_swarm () =
  let open Dmutex_obs in
  let n = 5 in
  let k = 4 in
  let clients = if quick then 48 else 200 in
  let rounds = if quick then 2 else 3 in
  let locks = List.init k (fun i -> Printf.sprintf "swarm-%d" i) in
  let cfg =
    {
      (Dmutex.Resilient.config ~n ()) with
      Dmutex.Types.Config.t_collect = 0.002;
      t_forward = 0.002;
    }
  in
  let grants = Atomic.make 0 and failures = Atomic.make 0 in
  let cluster, elapsed =
    timed "client:swarm" (fun () ->
        let cluster = SCluster.launch ~base_port:8951 ~locks cfg in
        let servers =
          Array.init n (fun i ->
              SSession.create
                ~fencing:Dmutex_store.Protocol_view.fencing_of_state
                ~node:(SCluster.node cluster i)
                ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = 0 }
                ())
        in
        let addrs =
          Array.to_list
            (Array.map
               (fun s ->
                 { Netkit.Transport.host = "127.0.0.1"; port = SSession.port s })
               servers)
        in
        let t0 = Unix.gettimeofday () in
        let worker c () =
          let cl =
            Netkit.Session_client.connect ~seed:(0x5eed + c) ~addrs ()
          in
          let lock = Printf.sprintf "swarm-%d" (c mod k) in
          for _ = 1 to rounds do
            match
              Netkit.Session_client.with_lock ~timeout:60.0 ~lock cl
                (fun ~fencing:_ -> ())
            with
            | Ok () -> Atomic.incr grants
            | Error _ -> Atomic.incr failures
          done;
          Netkit.Session_client.close cl
        in
        let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
        List.iter Thread.join threads;
        let elapsed = Unix.gettimeofday () -. t0 in
        Array.iter SSession.shutdown servers;
        (cluster, elapsed))
  in
  let report = SCluster.obs_report cluster in
  SCluster.shutdown cluster;
  let granted = Atomic.get grants and failed = Atomic.get failures in
  let acq_per_sec =
    if elapsed > 0.0 then float_of_int granted /. elapsed else 0.0
  in
  Format.fprintf fmt
    "client:swarm — %d clients x %d rounds over %d locks, %d nodes: %d \
     grants in %.2f s (%.1f acq/s), %.3f protocol msgs/CS, %d failures@."
    clients rounds k n granted elapsed acq_per_sec
    report.Report.messages_per_cs failed;
  line ();
  let json =
    Json.Obj
      [
        ("clients", Json.Num (float_of_int clients));
        ("nodes", Json.Num (float_of_int n));
        ("locks", Json.Num (float_of_int k));
        ("grants", Json.Num (float_of_int granted));
        ("failures", Json.Num (float_of_int failed));
        ("acq_per_sec", Json.Num acq_per_sec);
        ("messages_per_cs", Json.Num report.Report.messages_per_cs);
      ]
  in
  derived_reports := ("client", json) :: !derived_reports

(* ------------------------------------------------------------------ *)
(* Read-write throughput: the shared-grant batching quantified. A
   saturated cluster under the read-write policy with a 90/10
   read-heavy mix serves maximal reader runs concurrently under one
   grant batch, so CS throughput must come out well above — the CI
   floor says at least twice — the same workload served exclusively.
   Same seed for both runs: the only variable is the mode mix. *)

module RW = Dmutex.Sim_runner.Make (Dmutex.Prioritized)

let rw_throughput () =
  let open Dmutex_obs in
  let n = 8 in
  let reqs = min requests 20_000 in
  let cfg = Dmutex.Prioritized.rw_config ~n () in
  let rw, excl =
    timed "rw:throughput" (fun () ->
        ( RW.run_saturated ~seed:21 ~requests:reqs ~read_fraction:0.9 cfg,
          RW.run_saturated ~seed:21 ~requests:reqs cfg ))
  in
  let rate (o : Dmutex.Sim_runner.outcome) =
    if o.sim_time > 0.0 then float_of_int o.completed /. o.sim_time else 0.0
  in
  let speedup = if rate excl > 0.0 then rate rw /. rate excl else 0.0 in
  let batches =
    match List.assoc_opt "read-batch" rw.notes with Some k -> k | None -> 0
  in
  Format.fprintf fmt
    "rw:throughput — %d nodes saturated, 90%% shared: %.1f CS/s vs %.1f \
     CS/s exclusive-only (speedup %.2fx), %d reader batches, %d violations@."
    n (rate rw) (rate excl) speedup batches rw.safety_violations;
  line ();
  let json =
    Json.Obj
      [
        ("nodes", Json.Num (float_of_int n));
        ("read_fraction", Json.Num 0.9);
        ("cs_per_sec", Json.Num (rate rw));
        ("exclusive_cs_per_sec", Json.Num (rate excl));
        ("speedup", Json.Num speedup);
        ("read_batches", Json.Num (float_of_int batches));
        ("messages_per_cs", Json.Num rw.messages_per_cs);
        ("safety_violations", Json.Num (float_of_int rw.safety_violations));
      ]
  in
  derived_reports := ("rw", json) :: !derived_reports

let kernel_estimates : (string * float) list ref = ref []

let run_micro () =
  Format.fprintf fmt "== micro-benchmarks (Bechamel, monotonic clock) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              kernel_estimates := (name, est) :: !kernel_estimates;
              Format.fprintf fmt "%-36s %12.1f ns/run@." name est
          | _ -> Format.fprintf fmt "%-36s (no estimate)@." name)
        results)
    micro_tests;
  line ()

(* ------------------------------------------------------------------ *)
(* Machine-readable summary (DMUTEX_BENCH_JSON=path).                  *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~total =
  let buf = Buffer.create 2048 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"schema\": 3,\n");
  add (Printf.sprintf "  \"quick\": %b,\n" quick);
  add (Printf.sprintf "  \"requests_per_point\": %d,\n" requests);
  add (Printf.sprintf "  \"runs\": %d,\n" runs);
  add (Printf.sprintf "  \"rates\": %d,\n" (List.length rates));
  add (Printf.sprintf "  \"jobs\": %d,\n" (Simkit.Pool.jobs ()));
  add "  \"experiments\": [\n";
  let exps = List.rev !timings in
  List.iteri
    (fun i (name, dt) ->
      add
        (Printf.sprintf "    {\"name\": \"%s\", \"seconds\": %.6f}%s\n"
           (json_escape name) dt
           (if i = List.length exps - 1 then "" else ",")))
    exps;
  add "  ],\n";
  add "  \"kernels\": [\n";
  let kernels = List.rev !kernel_estimates in
  List.iteri
    (fun i (name, est) ->
      add
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n"
           (json_escape name) est
           (if i = List.length kernels - 1 then "" else ",")))
    kernels;
  add "  ],\n";
  add "  \"derived\": {\n";
  let ds = List.rev !derived_reports in
  List.iteri
    (fun i (key, json) ->
      (* Re-indent the pretty-printed report to sit two levels deep. *)
      let pretty = Dmutex_obs.Json.to_string_pretty json in
      let indented =
        String.concat "\n    " (String.split_on_char '\n' pretty)
      in
      add
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape key) indented
           (if i = List.length ds - 1 then "" else ",")))
    ds;
  add "  },\n";
  add (Printf.sprintf "  \"total_seconds\": %.6f\n" total);
  add "}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

let () =
  (* Kernels first, on a fresh heap: timed after the lab (table:scale
     allocates ~24 GB) they read 20–25% slower for reasons that have
     nothing to do with the code they measure. *)
  let sections =
    [
      ("micro", run_micro);
      ("figures", figures);
      ("tables", tables);
      ("lab", lab);
      ("derived", derived);
      ("rw", rw_throughput);
      ("sharded", sharded);
      ("client", client_swarm);
    ]
  in
  Option.iter
    (List.iter (fun name ->
         if not (List.mem_assoc name sections) then
           usage_error "DMUTEX_BENCH_ONLY: unknown section %S (valid: %s)" name
             (String.concat ", " (List.map fst sections))))
    only_sections;
  Format.fprintf fmt
    "dmutex bench — requests/point=%d runs=%d rates=%d jobs=%d%s@.@." requests
    runs (List.length rates) (Simkit.Pool.jobs ())
    (if quick then " (QUICK mode)" else "");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, run) ->
      match only_sections with
      | Some names when not (List.mem name names) -> ()
      | Some _ | None -> run ())
    sections;
  let total = Unix.gettimeofday () -. t0 in
  Format.fprintf fmt "total wall-clock: %.2f s (jobs=%d)@." total
    (Simkit.Pool.jobs ());
  (match Sys.getenv_opt "DMUTEX_BENCH_JSON" with
  | Some path when path <> "" ->
      write_json path ~total;
      Format.fprintf fmt "wrote %s@." path
  | Some _ | None -> ());
  Format.fprintf fmt "done.@."
