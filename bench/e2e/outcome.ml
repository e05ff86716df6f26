(* The contract of one workload run: the settings it is given, what
   it reports back, and the metric catalogue the benchmark definition
   (BENCHMARK.json at the repository root) names. An untraced run
   reports every end-to-end metric; a traced run every per-layer
   metric, 0 where the workload does not exercise the layer (e.g. the
   store outside client-durable, the wire on sim-lab). *)

type settings = {
  seed : int;
  warmup : float;  (** seconds of load before the window opens *)
  seconds : float;  (** length of the measured window *)
  trace : bool;
  setups : int;  (** groups of set-ups timed per run, at least 1 *)
}

(* Every window is cut into this many equal batches, printed one line
   each; they show whether the run reached a steady state. *)
let batches = 5

(* Each batch is cut further into slices of about a second, and the
   timing metrics are taken over slices. *)
let slices_per_batch s =
  max 1 (int_of_float (Float.round (s.seconds /. float_of_int batches)))

let slices s = batches * slices_per_batch s

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Each timed metric is the better quartile of its per-slice readings
   (Stats.better_quartile), not their median. On a machine shared with
   other guests, the same code runs up to twice as slow for seconds or
   minutes at a time, with no time stolen that /proc/stat would show;
   the processors are simply slower. Such spells only ever make a
   slice worse, so the better quartile reads the program's own speed
   while up to three quarters of the window is disturbed. A change to
   the code moves every slice, and the quartile with them. *)

(* Set-up timing. A set-up of a live cluster lasts a few milliseconds,
   and a third or so of them stall another 3 ms while a node's reactor
   domain starts. Timed one by one, a run's set-ups jump between those
   two modes from run to run. So set-ups are timed in groups of
   [group] (by default 4), each group giving its mean per set-up, and
   [setup_s] is the better quartile of the group means, which moves
   smoothly with the share of set-ups that stalled. Half the groups run
   before the window and the rest after it, so that a slow spell of the
   machine meets only some of them. *)
let default_group = 4

let groups_before s = (s.setups + 1) / 2

(* One group of set-ups numbered from [first]; the teardowns between
   them are not timed. The last set-up is returned still running. *)
let time_group ~group ~setup ~dispose ~first =
  let total = ref 0.0 in
  let rec go j prev =
    Option.iter dispose prev;
    let t0 = Unix.gettimeofday () in
    let x = setup (first + j) in
    total := !total +. (Unix.gettimeofday () -. t0);
    if j + 1 < group then go (j + 1) (Some x) else x
  in
  let x = go 0 None in
  (!total /. float_of_int group, x)

let time_groups ~group ~setup ~dispose ~first k =
  Array.init k (fun i ->
      let t, x = time_group ~group ~setup ~dispose ~first:(first + (i * group)) in
      dispose x;
      t)

(* The groups before the window: their means, and the last set-up,
   left running for the window to measure. *)
let first_setups ?(group = default_group) s ~setup ~dispose =
  let before = groups_before s in
  let early = time_groups ~group ~setup ~dispose ~first:0 (before - 1) in
  let t, x = time_group ~group ~setup ~dispose ~first:((before - 1) * group) in
  (Array.append early [| t |], x)

(* The groups after the window. Prints every group's mean and returns
   the better quartile over all groups: [setup_s]. *)
let last_setups ?(group = default_group) s ~setup ~dispose early =
  let before = groups_before s in
  let late =
    time_groups ~group ~setup ~dispose ~first:(before * group) (s.setups - before)
  in
  let times = Array.append early late in
  let m = Stats.better_quartile ~lower:true times in
  say "  set-up: %.5f s (better quartile) over %d groups of %d (%s)" m
    (Array.length times) group
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.5f") times)));
  m

let end_to_end =
  [
    ("acquire_p50_ms", "ms");
    ("acquire_p90_ms", "ms");
    ("grants_per_s", "1/s");
    ("messages_per_cs", "count");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("gen.lag_p99_ms", "ms");
    ("gen.achieved_over_offered", "ratio");
    ("node_runner.acquire_call_us", "us");
    ("node_runner.release_call_us", "us");
    ("node_runner.sync_delay_ms", "ms");
    ("proc.threads", "count");
    ("proc.cpu_us_per_grant", "us");
    ("protocol.steps_per_cs", "count");
    ("protocol.step_us", "us");
    ("protocol.step_us_p99", "us");
    ("protocol.busy_frac", "ratio");
    ("protocol.request_per_cs", "count");
    ("protocol.privilege_per_cs", "count");
    ("protocol.new_arbiter_per_cs", "count");
    ("protocol.queue_length_mean", "count");
    ("protocol.collection_ms", "ms");
    ("protocol.forwarding_ms", "ms");
    ("protocol.read_batch_size", "count");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.bytes_per_msg", "B");
    ("transport.flushes_per_cs", "count");
    ("transport.frames_per_flush", "count");
    ("transport.queue_depth_max", "count");
    ("transport.dropped", "count");
    ("transport.retries", "count");
    ("session.overhead_ms", "ms");
    ("session.release_call_ms", "ms");
    ("session.grants_per_cs", "count");
    ("session.rejected", "count");
    ("session.stale_grants", "count");
    ("store.fsync_ms", "ms");
    ("store.fsync_ms_p99", "ms");
    ("store.fsyncs_per_cs", "count");
    ("store.busy_frac", "ratio");
    ("gc.alloc_bytes_per_cs", "B");
    ("gc.minor_per_kcs", "count");
    ("gc.major_per_kcs", "count");
    ("sim.recovery_gap_s", "s");
    ("trace.grants_per_s", "1/s");
  ]

type t = {
  attempted : int;
  failed : int;
  violations : int;
  problems : string list;  (** reasons the run is not a valid measurement *)
  metrics : (string * float) list;
      (** end-to-end metrics when untraced, per-layer when traced *)
}

let correct t = t.violations = 0 && t.problems = []

(* Fill in the catalogue: a per-layer metric the workload does not
   produce reads 0; a missing or non-finite end-to-end metric is a
   problem, since every workload must measure all of them. *)
let complete ~trace t =
  let catalogue = if trace then per_layer else end_to_end in
  let problems = ref [] in
  let metrics =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name t.metrics with
        | Some v when Float.is_finite v -> (name, v)
        | Some _ | None ->
            if not trace then
              problems := Printf.sprintf "%s not measured" name :: !problems;
            (name, 0.0))
      catalogue
  in
  { t with metrics; problems = t.problems @ List.rev !problems }

let to_json ~trace t =
  let open Dmutex_obs.Json in
  let catalogue = if trace then per_layer else end_to_end in
  Obj
    [
      ("correct", Bool (correct t));
      ("attempted", Num (float_of_int t.attempted));
      ("failed", Num (float_of_int t.failed));
      ( "metrics",
        Obj
          (List.map
             (fun (name, unit_) ->
               ( name,
                 Obj
                   [
                     ("value", Num (List.assoc name t.metrics));
                     ("unit", Str unit_);
                   ] ))
             catalogue) );
    ]
