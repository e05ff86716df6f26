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

   Everything here is simulation or an in-process kernel: the harness
   opens no socket. The live lock service is measured by bench/e2e.

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
   regenerates only the big-N tables without paying for the rest.
   The JSON summary then lacks the skipped sections' derived metrics,
   so its gate run needs [--allow-missing]. *)
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
   tables and the derived and rw sections below. *)
let derived_reports : (string * Dmutex_obs.Json.t) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Big-N comparison lab: table:scale, table:wan, table:faults. The
   derived rows are embedded in the JSON summary (schema 4) so the
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

let write_json file ~total =
  let open Dmutex_obs.Json in
  let named key (name, v) = Obj [ ("name", Str name); (key, Num v) ] in
  let summary =
    Obj
      [
        ("schema", Num 4.);
        ("quick", Bool quick);
        ("requests_per_point", Num (float_of_int requests));
        ("runs", Num (float_of_int runs));
        ("rates", Num (float_of_int (List.length rates)));
        ("jobs", Num (float_of_int (Simkit.Pool.jobs ())));
        ("experiments", List (List.rev_map (named "seconds") !timings));
        ("kernels", List (List.rev_map (named "ns_per_run") !kernel_estimates));
        ("derived", Obj (List.rev !derived_reports));
        ("total_seconds", Num total);
      ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string_pretty summary);
      output_char oc '\n')

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
