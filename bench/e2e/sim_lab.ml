(* sim-lab: the comparison lab's hot path with no sockets — the
   protocol's [handle], the Q-list and the simkit engine. The window
   runs the lab's saturated experiment at N=100 back to back: a fresh
   simulation per run (as [Sim_runner.run_saturated] builds it), 10N
   critical sections each, the paper's constant 0.1 s message delay —
   so every run is the same computation and the seed only moves the
   crash drill. (Any jitter in the delays breaks the lockstep of
   requests and collection windows that Eq. 4 assumes: with delays
   drawn from 99.9-100.1 ms, messages/CS sits 11% above it.) The
   latency reported is the simulator's wall-clock time per grant: from
   one CS completion to the next within a run. About one grant in two
   hundred holds a minor collection and takes some 0.3 ms instead of
   5-13 us; the median and the p90 lie well clear of those. Before the
   window, a Resilient run crashes the token holder at t=5 simulated
   seconds and reports the simulated time until the next CS entry. *)

let n = 100

(* 10N critical sections per run: long enough that the start-up
   rotation no longer lifts messages/CS more than 5% above Eq. 4's
   3 - 2/N (at 2N it sits 17% above). *)
let requests = 10 * n

(* Nanosecond monotonic clock: a grant is too short for the
   microsecond resolution of [Unix.gettimeofday]. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* messages_per_cs is taken over the window's first runs only (seeds
   S .. S+63), so it is exact for a seed whatever the machine speed. *)
let exact_runs = 64

(* The crash drill runs at N=10 with the lab's recovery timeouts
   (table:recovery): the requesters' 2 s token timeout must exceed a
   saturated rotation, about N x 0.2 s, or recovery fires without a
   crash. Uniform 50-150 ms message delays make the gap depend on the
   seed. *)
let drill_n = 10

(* A set-up takes about 1.5 ms, a third of a live cluster's: groups of
   16 give each group mean as much time to average over. *)
let setup_group = 16

let say = Outcome.say
let now = Unix.gettimeofday

(* Token holder crashed at the first instant from t=5 s that some node
   holds the token or is in its CS (the token may be in flight at any
   single instant); the gap runs to the next CS entry anywhere. *)
let recovery_gap ~seed =
  let n = drill_n in
  let module RR = Dmutex.Sim_runner.Make (Dmutex.Resilient) in
  let cfg =
    Dmutex.Resilient.config ~token_timeout:2.0 ~enquiry_timeout:1.0
      ~arbiter_timeout:3.0 ~n ()
  in
  let t = RR.create ~seed ~latency:(Simkit.Network.Uniform (0.05, 0.15)) cfg in
  let engine = RR.engine t in
  let crashed = ref nan and resumed = ref nan in
  let holder () =
    let rec go i =
      if i >= n then None
      else
        let st = RR.state t i in
        if st.Dmutex.Protocol.in_cs || st.Dmutex.Protocol.token <> None then
          Some i
        else go (i + 1)
    in
    go 0
  in
  let rec probe delay =
    ignore
      (Simkit.Engine.schedule engine ~delay (fun e ->
           match holder () with
           | Some i ->
               RR.crash t i;
               crashed := Simkit.Engine.now e
           | None -> probe 0.05))
  in
  probe 5.0;
  RR.on_grant t (fun ~node:_ ~delay:_ ->
      (* Completions fire exactly t_exec after entry. *)
      let entered = Simkit.Engine.now engine -. cfg.Dmutex.Types.Config.t_exec in
      if Float.is_nan !resumed && (not (Float.is_nan !crashed)) && entered > !crashed
      then resumed := entered);
  let o = RR.saturate ~requests:max_int ~until:60.0 t in
  (o.Dmutex.Sim_runner.safety_violations, !resumed -. !crashed)

module Make
    (A : Dmutex.Types.ALGO
           with type state = Dmutex.Protocol.state
            and type message = Dmutex.Protocol.message) =
struct
  module R = Dmutex.Sim_runner.Make (A)

  let cfg = Dmutex.Basic.config ~n ()

  (* One slice of the window: its per-grant times summarized, its
     critical sections, and the wall-clock and CPU seconds they took. *)
  type slice = { lat : Stats.batch; cs : int; seconds : float; cpu : float }

  let rate s = float_of_int s.cs /. s.seconds
  let cpu_us s = s.cpu /. float_of_int (max 1 s.cs) *. 1e6

  let run (settings : Outcome.settings) =
    say "sim-lab: saturated simulation, N=%d, %d CS per run" n requests;
    (* Set-up: build an N-node simulation and serve every node once. *)
    let setup r =
      ignore (R.run_saturated ~seed:(settings.Outcome.seed + r) ~requests:n cfg)
    in
    let early, () =
      Outcome.first_setups settings ~group:setup_group ~setup ~dispose:ignore
    in
    let drill_violations, gap = recovery_gap ~seed:settings.Outcome.seed in
    say "  recovery: %.3f simulated s from crashing the token holder to the next CS entry" gap;
    (* Grant times of the slice being recorded. *)
    let grants = Stats.Samples.create () in
    (* One run; with [record], the wall-clock time from each CS
       completion to the next is kept. *)
    let run_one ~record seed =
      let t = R.create ~seed cfg in
      if record then begin
        let last = ref nan in
        R.on_grant t (fun ~node:_ ~delay:_ ->
            let x = clock () in
            if Float.is_finite !last then Stats.Samples.add grants (x -. !last);
            last := x)
      end;
      R.saturate ~requests t
    in
    let w0 = now () +. settings.Outcome.warmup in
    let j = ref 0 in
    while now () < w0 do
      ignore (run_one ~record:false (settings.Outcome.seed + 0x40000000 + !j));
      incr j
    done;
    if settings.Outcome.trace then Spans.reset_aggregates ();
    let t_start = now () in
    let k_slices = Outcome.slices settings in
    let width = settings.Outcome.seconds /. float_of_int k_slices in
    let cpu0 = Probe.cpu_seconds () and gc0 = Probe.gc () in
    let slices = ref [] and s_start = ref t_start and s_cpu = ref cpu0 and s_cs = ref 0 in
    let completed = ref 0 and violations = ref 0 and starved = ref 0 in
    let exact_msgs = ref 0 and exact_cs = ref 0 in
    (* The simulator's own per-kind message and dispatch counters, for
       the traced run's protocol metrics. *)
    let kinds = Hashtbl.create 8 in
    let note o name = Option.value ~default:0 (List.assoc_opt name o.Dmutex.Sim_runner.notes) in
    let dispatches = ref 0 and queued = ref 0 in
    let k = ref 0 in
    while List.length !slices < k_slices do
      let seed = settings.Outcome.seed + !k in
      let o =
        if settings.Outcome.trace then
          Spans.around ~scope:false Spans.Sim_run ~node:(-1) ~lock:"" (fun () ->
              run_one ~record:true seed)
        else run_one ~record:true seed
      in
      completed := !completed + o.Dmutex.Sim_runner.completed;
      s_cs := !s_cs + o.Dmutex.Sim_runner.completed;
      violations := !violations + o.Dmutex.Sim_runner.safety_violations;
      (* A closed loop always leaves each node's next request open, so
         up to N are unserved at the stop; a node never granted in a
         run of 10N critical sections was starved. *)
      if
        o.Dmutex.Sim_runner.unserved > n
        || Array.exists
             (fun (s : Dmutex.Sim_runner.node_stats) -> s.Dmutex.Sim_runner.grants = 0)
             o.Dmutex.Sim_runner.per_node
      then incr starved;
      List.iter
        (fun (kind, c) ->
          Hashtbl.replace kinds kind
            (c + Option.value ~default:0 (Hashtbl.find_opt kinds kind)))
        o.Dmutex.Sim_runner.by_kind;
      dispatches := !dispatches + note o "queue-length";
      queued := !queued + note o "queue-length-sum";
      if !k < exact_runs then begin
        exact_msgs := !exact_msgs + o.Dmutex.Sim_runner.messages;
        exact_cs := !exact_cs + o.Dmutex.Sim_runner.completed
      end;
      incr k;
      (* A slice closes with the first run to end past its boundary. *)
      let t = now () in
      if t >= t_start +. (width *. float_of_int (List.length !slices + 1)) then begin
        let cpu = Probe.cpu_seconds () and seconds = t -. !s_start in
        slices :=
          {
            lat = Stats.summarize_samples ~seconds grants;
            cs = !s_cs;
            seconds;
            cpu = cpu -. !s_cpu;
          }
          :: !slices;
        Stats.Samples.clear grants;
        s_start := t;
        s_cpu := cpu;
        s_cs := 0
      end
    done;
    let elapsed = now () -. t_start in
    let gc1 = Probe.gc () in
    let rss = Probe.peak_rss_mb () in
    let setup_s =
      Outcome.last_setups settings ~group:setup_group ~setup ~dispose:ignore early
    in
    let slices = Array.of_list (List.rev !slices) in
    let us v = v *. 1e6 in
    (* Each printed batch: its rate and CPU cost, and the medians of its
       slices' percentiles. *)
    let per_batch = Outcome.slices_per_batch settings in
    for i = 0 to Outcome.batches - 1 do
      let b = Array.sub slices (i * per_batch) per_batch in
      let sum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 b in
      let cs = sum (fun s -> float_of_int s.cs) in
      let med f = us (Stats.median (Array.map f b)) in
      say "  batch %d/%d: %9.1f simulated CS/s  p50 %.2f us  p90 %.2f us per grant  %.2f CPU us/grant"
        (i + 1) Outcome.batches
        (cs /. sum (fun s -> s.seconds))
        (med (fun s -> s.lat.Stats.p50))
        (med (fun s -> s.lat.Stats.p90))
        (sum (fun s -> s.cpu) /. cs *. 1e6)
    done;
    let best ~lower f = Stats.better_quartile ~lower (Array.map f slices) in
    let p50 = best ~lower:true (fun s -> s.lat.Stats.p50)
    and p90 = best ~lower:true (fun s -> s.lat.Stats.p90)
    and cpu_us = best ~lower:true cpu_us
    and rate = best ~lower:false rate in
    let mpcs = float_of_int !exact_msgs /. float_of_int (max 1 !exact_cs) in
    let predicted = 3.0 -. (2.0 /. float_of_int n) in
    say "  %d runs, %d CS: %.1f simulated CS/s, %.2f CPU us/grant, p50 %.2f us p90 %.2f us per grant"
      !k !completed rate cpu_us (us p50) (us p90);
    say "  messages/CS %.4f over the first %d runs (Eq. 4 predicts %.4f)" mpcs
      exact_runs predicted;
    let problems =
      List.concat
        [
          (if Array.for_all (fun s -> Stats.supports ~p:90.0 s.lat.Stats.count) slices
           then []
           else [ "a slice had too few grants for its p90" ]);
          (if !k >= exact_runs then []
           else [ Printf.sprintf "only %d runs, messages/CS needs %d" !k exact_runs ]);
          (if Float.abs (mpcs -. predicted) <= 0.05 *. predicted then []
           else
             [ Printf.sprintf "messages/CS %.4f not within 5%% of %.4f" mpcs predicted ]);
          (if !starved = 0 then []
           else [ Printf.sprintf "%d runs left a node unserved" !starved ]);
          (if Float.is_finite gap && gap > 0.0 then []
           else [ "service did not resume after the token holder crashed" ]);
        ]
    in
    let cs = max 1 !completed in
    let per_cs v = float_of_int v /. float_of_int cs in
    let metrics =
      if not settings.Outcome.trace then
        [
          ("acquire_p50_ms", p50 *. 1000.0);
          ("acquire_p90_ms", p90 *. 1000.0);
          ("grants_per_s", rate);
          ("messages_per_cs", mpcs);
          ("setup_s", setup_s);
          ("peak_rss_mb", rss);
        ]
      else
        let sent kind = Option.value ~default:0 (Hashtbl.find_opt kinds kind) in
        let step = Spans.summary Spans.Step in
        [
          ("proc.threads", float_of_int (Probe.threads ()));
          ("proc.cpu_us_per_grant", cpu_us);
          ("protocol.steps_per_cs", per_cs step.Spans.n);
          ("protocol.step_us", step.Spans.mean_us);
          ("protocol.step_us_p99", step.Spans.p99_us);
          ("protocol.busy_frac", step.Spans.seconds /. elapsed);
          ("protocol.request_per_cs", per_cs (sent "REQUEST"));
          ("protocol.privilege_per_cs", per_cs (sent "PRIVILEGE"));
          ("protocol.new_arbiter_per_cs", per_cs (sent "NEW-ARBITER"));
          ( "protocol.queue_length_mean",
            float_of_int !queued /. float_of_int (max 1 !dispatches) );
          ("gc.alloc_bytes_per_cs", (gc1.Probe.alloc_bytes -. gc0.Probe.alloc_bytes) /. float_of_int cs);
          ("gc.minor_per_kcs", 1000.0 *. per_cs (gc1.Probe.minor - gc0.Probe.minor));
          ("gc.major_per_kcs", 1000.0 *. per_cs (gc1.Probe.major - gc0.Probe.major));
          ("sim.recovery_gap_s", gap);
          ("trace.grants_per_s", rate);
        ]
    in
    {
      Outcome.attempted = !completed;
      failed = 0;
      violations = !violations + drill_violations;
      problems;
      metrics;
    }
end
