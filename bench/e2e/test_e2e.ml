(* Unit tests of the end-to-end benchmark's own machinery, plus short
   smoke runs of two workloads. *)

module E = Dmutex_e2e
module Registry = Dmutex_obs.Registry
module Json = Dmutex_obs.Json

let close = Alcotest.float 1e-9

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50.0 (E.Stats.percentile a 50.0);
  Alcotest.check close "p99 of 1..100" 99.0 (E.Stats.percentile a 99.0);
  Alcotest.check close "p100 is the max" 100.0 (E.Stats.percentile a 100.0);
  Alcotest.check close "p1 is the min" 1.0 (E.Stats.percentile a 1.0);
  Alcotest.check close "one sample" 7.0 (E.Stats.percentile [| 7.0 |] 99.0);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (E.Stats.percentile [||] 50.0));
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (E.Stats.min_samples 99.0);
  Alcotest.(check int) "p50 needs 20 samples" 20 (E.Stats.min_samples 50.0);
  Alcotest.(check bool) "999 samples do not support p99" false
    (E.Stats.supports ~p:99.0 999);
  Alcotest.(check bool) "1000 samples support p99" true
    (E.Stats.supports ~p:99.0 1000);
  (* The in-place quickselect agrees with sorting, duplicates and all. *)
  let rng = Random.State.make [| 3 |] in
  List.iter
    (fun n ->
      let buf = E.Stats.Samples.create () in
      for _ = 1 to n do
        E.Stats.Samples.add buf (float_of_int (Random.State.int rng 50))
      done;
      let a = E.Stats.Samples.to_array buf in
      let b = E.Stats.summarize_samples ~seconds:1.0 buf in
      Alcotest.check close (Printf.sprintf "p50 of %d" n) (E.Stats.percentile a 50.0)
        b.E.Stats.p50;
      Alcotest.check close (Printf.sprintf "p99 of %d" n) (E.Stats.percentile a 99.0)
        b.E.Stats.p99;
      Alcotest.check close (Printf.sprintf "mean of %d" n) (E.Stats.mean a)
        b.E.Stats.mean)
    [ 1; 2; 7; 100; 5000 ]

let test_batches () =
  (* Six samples over [0, 3): two per one-second batch, plus one
     outside the window. *)
  let times = [| 0.2; 0.7; 1.1; 1.9; 2.0; 2.5; 3.5 |] in
  let values = [| 1.0; 3.0; 10.0; 20.0; 5.0; 7.0; 100.0 |] in
  let b = E.Stats.batches ~t0:0.0 ~t1:3.0 ~k:3 times values in
  Alcotest.(check (array int)) "counts" [| 2; 2; 2 |]
    (Array.map (fun x -> x.E.Stats.count) b);
  Alcotest.(check (array close)) "means" [| 2.0; 15.0; 6.0 |]
    (Array.map (fun x -> x.E.Stats.mean) b);
  Alcotest.(check (array close)) "rates" [| 2.0; 2.0; 2.0 |]
    (Array.map (fun x -> x.E.Stats.rate) b);
  Alcotest.(check (array close)) "medians" [| 1.0; 10.0; 5.0 |]
    (Array.map (fun x -> x.E.Stats.p50) b);
  (* The better quartile of eight slices: the 2nd smallest when lower
     is better, the 6th when higher is better. *)
  let slices = [| 9.0; 1.0; 8.0; 2.0; 7.0; 3.0; 6.0; 4.0 |] in
  Alcotest.check close "lower is better" 2.0
    (E.Stats.better_quartile ~lower:true slices);
  Alcotest.check close "higher is better" 7.0
    (E.Stats.better_quartile ~lower:false slices)

let test_histo_quantile () =
  let reg = Registry.create () in
  let h = Registry.Histogram.get reg "x" in
  for v = 1 to 100 do
    Registry.Histogram.observe h (float_of_int v)
  done;
  let snap = Registry.snapshot reg in
  let histo = List.assoc { Registry.name = "x"; labels = [] } snap.Registry.histograms in
  (* The 50th value (50) sits in the (32, 64] bucket, the 99th in
     (64, 128]: the estimate is the bucket's upper bound. *)
  Alcotest.check close "q0.5" 64.0 (E.Stats.histo_quantile histo 0.5);
  Alcotest.check close "q0.99" 128.0 (E.Stats.histo_quantile histo 0.99);
  Alcotest.check close "q0.01" 1.0 (E.Stats.histo_quantile histo 0.01);
  (* The finer log histogram errs high by at most one 4.4% bucket. *)
  let lh = E.Stats.Loghist.create () in
  for v = 1 to 1000 do
    E.Stats.Loghist.add lh (float_of_int v)
  done;
  let q = E.Stats.Loghist.quantile lh 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "loghist p99 %.2f within [990, 990 * 2^(1/16)]" q)
    true
    (q >= 990.0 && q <= 990.0 *. Float.pow 2.0 (1.0 /. 16.0))

let test_json_round_trip () =
  let o =
    E.Outcome.complete ~trace:false
      {
        E.Outcome.attempted = 1200;
        failed = 0;
        violations = 0;
        problems = [];
        metrics =
          List.mapi (fun i (name, _) -> (name, 1.25 +. float_of_int i))
            E.Outcome.end_to_end;
      }
  in
  let s = Json.to_string (E.Outcome.to_json ~trace:false o) in
  match Json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj fields as j) ->
      Alcotest.(check (list string)) "top-level keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields);
      Alcotest.(check bool) "correct" true
        (Json.member "correct" j = Some (Json.Bool true));
      List.iteri
        (fun i (name, unit_) ->
          Alcotest.(check (option (float 1e-12)))
            (name ^ " value") (Some (1.25 +. float_of_int i))
            (Option.bind (Json.path [ "metrics"; name; "value" ] j) Json.num);
          Alcotest.(check (option string))
            (name ^ " unit") (Some unit_)
            (Option.bind (Json.path [ "metrics"; name; "unit" ] j) Json.str))
        E.Outcome.end_to_end;
      Alcotest.(check string) "re-rendering is stable" s (Json.to_string j)
  | Ok _ -> Alcotest.fail "not an object"

let test_missing_metric_is_a_problem () =
  let o =
    E.Outcome.complete ~trace:false
      { E.Outcome.attempted = 1; failed = 0; violations = 0; problems = []; metrics = [] }
  in
  Alcotest.(check bool) "incorrect" false (E.Outcome.correct o);
  let traced =
    E.Outcome.complete ~trace:true
      { E.Outcome.attempted = 1; failed = 0; violations = 0; problems = []; metrics = [] }
  in
  Alcotest.(check bool) "absent layers read 0" true
    (E.Outcome.correct traced
    && List.for_all (fun (_, v) -> v = 0.0) traced.E.Outcome.metrics)

let test_witness () =
  let open E.Witness in
  let w = create ~locks:2 in
  enter w ~lock:0 ~holder:1 ~mode:Exclusive;
  leave w ~lock:0 ~holder:1;
  enter w ~lock:0 ~holder:2 ~mode:Exclusive;
  enter w ~lock:1 ~holder:3 ~mode:Exclusive;
  Alcotest.(check int) "separate locks and sequential holders are fine" 0
    (violations w);
  (* Injected double grant: a second exclusive holder of lock 0. *)
  enter w ~lock:0 ~holder:4 ~mode:Exclusive;
  Alcotest.(check int) "double grant caught" 1 (violations w);
  leave w ~lock:0 ~holder:2;
  leave w ~lock:0 ~holder:4;
  enter w ~lock:0 ~holder:5 ~mode:Shared;
  enter w ~lock:0 ~holder:6 ~mode:Shared;
  Alcotest.(check int) "readers share" 1 (violations w);
  enter w ~lock:0 ~holder:7 ~mode:Exclusive;
  Alcotest.(check int) "writer beside readers caught" 2 (violations w);
  let f = create ~locks:1 in
  fencing f ~lock:0 ~mode:Exclusive 10;
  fencing f ~lock:0 ~mode:Shared 11;
  fencing f ~lock:0 ~mode:Shared 11;
  Alcotest.(check int) "one shared batch shares a token" 0 (violations f);
  fencing f ~lock:0 ~mode:Exclusive 11;
  Alcotest.(check int) "exclusive reuse caught" 1 (violations f);
  fencing f ~lock:0 ~mode:Exclusive 9;
  Alcotest.(check int) "regression caught" 2 (violations f)

let smoke_settings trace =
  { E.Outcome.seed = 7; warmup = 0.2; seconds = 1.0; trace; setups = 1 }

let check_end_to_end o =
  Alcotest.(check int) "no violations" 0 o.E.Outcome.violations;
  List.iter
    (fun (name, _) ->
      let v = List.assoc name o.E.Outcome.metrics in
      Alcotest.(check bool) (Printf.sprintf "%s = %g > 0" name v) true (v > 0.0))
    E.Outcome.end_to_end

module Sim = E.Sim_lab.Make (Dmutex.Basic)
module Traced_basic = E.Traced.Algo (Dmutex.Basic)
module Sim_traced = E.Sim_lab.Make (Traced_basic)
module Live = E.Live.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let test_sim_lab_smoke () =
  let o = E.Outcome.complete ~trace:false (Sim.run (smoke_settings false)) in
  check_end_to_end o;
  let mpcs = List.assoc "messages_per_cs" o.E.Outcome.metrics in
  Alcotest.(check bool) "messages/CS on the Eq. 4 band" true
    (Float.abs (mpcs -. 2.98) < 0.15)

let test_sim_lab_traced_smoke () =
  let o = E.Outcome.complete ~trace:true (Sim_traced.run (smoke_settings true)) in
  let m name = List.assoc name o.E.Outcome.metrics in
  Alcotest.(check bool) "protocol steps seen" true (m "protocol.steps_per_cs" > 1.0);
  Alcotest.(check bool) "recovery gap seen" true (m "sim.recovery_gap_s" > 0.0);
  List.iter
    (fun name -> Alcotest.(check (float 0.0)) (name ^ " absent on sim-lab") 0.0 (m name))
    [ "wire.encode_us"; "transport.flushes_per_cs"; "store.fsync_ms"; "session.grants_per_cs" ]

let test_live_saturated_smoke () =
  let o = E.Outcome.complete ~trace:false (Live.live_saturated (smoke_settings false)) in
  check_end_to_end o;
  Alcotest.(check int) "nothing failed" 0 o.E.Outcome.failed

let suite =
  [
    ( "e2e-bench",
      [
        Alcotest.test_case "nearest-rank percentiles and sample rule" `Quick
          test_percentiles;
        Alcotest.test_case "batch means" `Quick test_batches;
        Alcotest.test_case "histogram quantiles" `Quick test_histo_quantile;
        Alcotest.test_case "result JSON round trip" `Quick test_json_round_trip;
        Alcotest.test_case "metric catalogue completion" `Quick
          test_missing_metric_is_a_problem;
        Alcotest.test_case "witness catches a double grant" `Quick test_witness;
        Alcotest.test_case "sim-lab 1 s smoke" `Quick test_sim_lab_smoke;
        Alcotest.test_case "sim-lab traced 1 s smoke" `Quick
          test_sim_lab_traced_smoke;
        Alcotest.test_case "live-saturated 1 s smoke" `Quick
          test_live_saturated_smoke;
      ] );
  ]

let () = Alcotest.run "dmutex-e2e" suite
