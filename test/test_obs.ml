(* The observability layer: registry correctness under concurrency,
   trace-ring semantics, the hand-rolled JSON, the bench regression
   gate, and — the acceptance criterion of the layer — per-CS message
   accounting that matches the paper's analysis from both runtimes:
   the simulator and a live 5-node cluster over real sockets. *)

open Dmutex_obs
module RB = Dmutex.Sim_runner.Make (Dmutex.Basic)
module RCluster = Netkit.Cluster.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_counter_basics () =
  let reg = Registry.create () in
  let c = Registry.Counter.get reg "requests_total" in
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  Alcotest.(check int) "value" 42 (Registry.Counter.value c);
  (* Find-or-create: a second lookup is the same cell. *)
  let c' = Registry.Counter.get reg "requests_total" in
  Registry.Counter.incr c';
  Alcotest.(check int) "same cell" 43 (Registry.Counter.value c);
  (* Different labels are a different series. *)
  let lab =
    Registry.Counter.get reg ~labels:[ ("kind", "REQUEST") ] "requests_total"
  in
  Registry.Counter.incr lab;
  Alcotest.(check int) "labelled series separate" 43
    (Registry.Counter.value c);
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "two series" 2 (List.length snap.Registry.counters)

let test_wrong_type_lookup_raises () =
  let reg = Registry.create () in
  ignore (Registry.Counter.get reg "x");
  Alcotest.check_raises "counter fetched as gauge"
    (Invalid_argument "Registry: x is not a gauge") (fun () ->
      ignore (Registry.Gauge.get reg "x"))

let test_histogram_log2_buckets () =
  let reg = Registry.create () in
  let h = Registry.Histogram.get reg "lat" in
  (* Exact powers of two land in their own bucket (v <= 2^e, smallest
     such e), values just above land in the next. *)
  Registry.Histogram.observe h 1.0;
  Registry.Histogram.observe h 1.5;
  Registry.Histogram.observe h 2.0;
  Registry.Histogram.observe h 0.25;
  Registry.Histogram.observe h 0.0;
  (* Non-positive: lowest bucket. *)
  let snap = Registry.snapshot reg in
  let _, histo = List.hd snap.Registry.histograms in
  Alcotest.(check int) "count" 5 histo.Registry.h_count;
  Alcotest.(check bool) "sum" true (feq histo.Registry.h_sum 4.75);
  Alcotest.(check bool) "min" true (feq histo.Registry.h_min 0.0);
  Alcotest.(check bool) "max" true (feq histo.Registry.h_max 2.0);
  let count_at ub =
    List.assoc_opt ub histo.Registry.h_buckets |> Option.value ~default:0
  in
  Alcotest.(check int) "1.0 -> le 1" 1 (count_at 1.0);
  Alcotest.(check int) "1.5 -> le 2 joins 2.0" 2 (count_at 2.0);
  Alcotest.(check int) "0.25 -> le 0.25" 1 (count_at 0.25);
  Alcotest.(check int) "0.0 -> lowest bucket" 1 (count_at (Float.pow 2. (-30.)))

let test_counter_concurrent () =
  let reg = Registry.create () in
  let c = Registry.Counter.get reg "hits" in
  let workers = 8 and per = 25_000 in
  let ths =
    List.init workers (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per do
              Registry.Counter.incr c
            done)
          ())
  in
  List.iter Thread.join ths;
  Alcotest.(check int) "no lost increments" (workers * per)
    (Registry.Counter.value c)

let test_snapshot_while_writing () =
  let reg = Registry.create () in
  let c = Registry.Counter.get reg "n" in
  let h = Registry.Histogram.get reg "h" in
  let stop = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Registry.Counter.incr c;
          Registry.Histogram.observe h 0.5
        done)
      ()
  in
  (* Each snapshot must be internally sane (count = sum of buckets)
     and counters monotone across snapshots. *)
  let last = ref 0 in
  for _ = 1 to 200 do
    let snap = Registry.snapshot reg in
    let v = List.assoc_opt { Registry.name = "n"; labels = [] }
        snap.Registry.counters |> Option.value ~default:0
    in
    Alcotest.(check bool) "monotone" true (v >= !last);
    last := v;
    List.iter
      (fun (_, histo) ->
        let bucket_total =
          List.fold_left (fun a (_, k) -> a + k) 0 histo.Registry.h_buckets
        in
        Alcotest.(check int) "buckets sum to count" histo.Registry.h_count
          bucket_total)
      snap.Registry.histograms
  done;
  Atomic.set stop true;
  Thread.join writer

let test_merge_and_expose () =
  let mk v =
    let reg = Registry.create () in
    Registry.Counter.add (Registry.Counter.get reg "msgs") v;
    Registry.Histogram.observe (Registry.Histogram.get reg "d")
      (float_of_int v);
    Registry.snapshot reg
  in
  let merged = Registry.merge [ mk 1; mk 2; mk 4 ] in
  Alcotest.(check int) "counters sum" 7
    (List.assoc { Registry.name = "msgs"; labels = [] }
       merged.Registry.counters);
  let _, histo = List.hd merged.Registry.histograms in
  Alcotest.(check int) "histogram counts sum" 3 histo.Registry.h_count;
  Alcotest.(check bool) "histogram sums sum" true
    (feq histo.Registry.h_sum 7.0);
  Alcotest.(check bool) "min/max combine" true
    (feq histo.Registry.h_min 1.0 && feq histo.Registry.h_max 4.0);
  let text = Registry.expose merged in
  Alcotest.(check bool) "exposition has TYPE lines" true
    (Str_present.contains_substring text "# TYPE msgs counter"
    && Str_present.contains_substring text "msgs 7");
  Alcotest.(check bool) "histogram is cumulative with +Inf" true
    (Str_present.contains_substring text "d_bucket{le=\"+Inf\"} 3"
    && Str_present.contains_substring text "d_count 3")

let test_label_value_escaping () =
  (* Lock keys are arbitrary strings and flow into label values, so
     the exposition must escape backslash, quote and newline per the
     Prometheus text format — and not corrupt the line structure. *)
  let reg = Registry.create () in
  Registry.Counter.incr
    (Registry.Counter.get reg
       ~labels:[ ("lock", "a\\b\"c\nd") ]
       "evil_total");
  let text = Registry.expose (Registry.snapshot reg) in
  Alcotest.(check bool) "escaped label value rendered" true
    (Str_present.contains_substring text
       {|evil_total{lock="a\\b\"c\nd"} 1|});
  (* The raw newline must never reach the output mid-line. *)
  Alcotest.(check bool) "no raw newline inside the label" false
    (Str_present.contains_substring text "c\nd")

let test_protocol_metrics_lock_labels () =
  (* Two instances sharing one registry but labelled with different
     lock keys must write disjoint series, and Report can split them
     back apart. *)
  let reg = Registry.create () in
  let a = Protocol_metrics.create ~labels:(Names.lock_label "a") reg in
  let b = Protocol_metrics.create ~labels:(Names.lock_label "b") reg in
  Protocol_metrics.sent a ~kind:"REQUEST";
  Protocol_metrics.sent a ~kind:"REQUEST";
  Protocol_metrics.sent b ~kind:"REQUEST";
  Protocol_metrics.cs_entered a ~now:1.0;
  Protocol_metrics.cs_exited a ~now:1.1;
  Protocol_metrics.cs_entered b ~now:2.0;
  Protocol_metrics.cs_exited b ~now:2.1;
  Protocol_metrics.cs_entered b ~now:3.0;
  Protocol_metrics.cs_exited b ~now:3.1;
  let snap = Registry.snapshot reg in
  Alcotest.(check (list string)) "locks discovered" [ "a"; "b" ]
    (Report.locks snap);
  let ra = Report.derive ~lock:"a" snap in
  let rb = Report.derive ~lock:"b" snap in
  let rall = Report.derive snap in
  Alcotest.(check int) "a sends" 2 ra.Report.messages_sent;
  Alcotest.(check int) "b sends" 1 rb.Report.messages_sent;
  Alcotest.(check int) "a entries" 1 ra.Report.cs_entries;
  Alcotest.(check int) "b entries" 2 rb.Report.cs_entries;
  Alcotest.(check int) "unscoped aggregates both" 3 rall.Report.cs_entries;
  let by = Report.by_lock snap in
  Alcotest.(check int) "by_lock covers both" 2 (List.length by);
  Alcotest.(check (option int)) "by_lock b entries" (Some 2)
    (Option.map
       (fun (r : Report.t) -> r.Report.cs_entries)
       (List.assoc_opt "b" by))

(* ------------------------------------------------------------------ *)
(* Trace events *)

let test_trace_ring_wraparound () =
  let sink = Events.create ~capacity:8 () in
  for i = 1 to 20 do
    Events.emit sink ~fields:[ ("i", string_of_int i) ] "tick"
  done;
  Alcotest.(check int) "total counts everything" 20 (Events.total sink);
  let evs = Events.events sink in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length evs);
  let is = List.map (fun e -> List.assoc "i" e.Events.fields) evs in
  Alcotest.(check (list string)) "most recent, oldest first"
    (List.map string_of_int [ 13; 14; 15; 16; 17; 18; 19; 20 ])
    is;
  (* Sequence numbers are strictly increasing. *)
  let seqs = List.map (fun e -> e.Events.seq) evs in
  Alcotest.(check bool) "seq strictly increasing" true
    (List.for_all2 (fun a b -> a < b) seqs (List.tl seqs @ [ max_int ]))

let test_trace_flush_jsonl () =
  let sink = Events.create ~capacity:4 () in
  Events.emit sink ~severity:Events.Warn
    ~fields:[ ("node", "3"); ("peer", "1") ]
    "liveness.suspect";
  let path = Filename.temp_file "dmutex-trace" ".jsonl" in
  Events.flush_file sink path;
  let ic = open_in path in
  let header = input_line ic in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  (* Every line is one parseable JSON object. *)
  (match Json.of_string header with
  | Ok j ->
      Alcotest.(check (option bool)) "header marker" (Some true)
        (Option.bind (Json.member "trace_header" j) (function
          | Json.Bool b -> Some b
          | _ -> None));
      Alcotest.(check (option (float 0.0))) "total" (Some 1.0)
        (Option.bind (Json.member "total" j) Json.num)
  | Error e -> Alcotest.failf "header unparseable: %s" e);
  match Json.of_string line with
  | Ok j ->
      Alcotest.(check (option string)) "name" (Some "liveness.suspect")
        (Option.bind (Json.member "name" j) Json.str);
      Alcotest.(check (option string)) "severity" (Some "warn")
        (Option.bind (Json.member "severity" j) Json.str);
      Alcotest.(check (option string)) "field" (Some "3")
        (Option.bind (Json.path [ "fields"; "node" ] j) Json.str)
  | Error e -> Alcotest.failf "event unparseable: %s" e

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Str "x\"y\n" ]);
        ("c", Json.Num 3.0);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_byte_roundtrip () =
  (* Strings are byte sequences (Latin-1 semantics): control bytes and
     non-ASCII bytes are escaped as \u00XX on output and decoded back
     to the same bytes on input — a trace field holding raw bytes
     survives the trip and stays ASCII on the wire. *)
  let raw = "\x01tab\there\xff\x7f \xc3\xa9" in
  let text = Json.to_string (Json.Str raw) in
  String.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "output stays printable ASCII (0x%02x)" (Char.code c))
        true
        (Char.code c >= 0x20 && Char.code c < 0x7f))
    text;
  Alcotest.(check bool) "control byte escaped" true
    (Str_present.contains_substring text {|\u0001|});
  Alcotest.(check bool) "high byte escaped" true
    (Str_present.contains_substring text {|\u00ff|});
  match Json.of_string text with
  | Ok (Json.Str s) -> Alcotest.(check string) "bytes roundtrip" raw s
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_errors () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated list" true (bad "[1,");
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "bare word" true (bad "nope");
  Alcotest.(check bool) "valid nested ok" true (not (bad "{\"a\":[{}]}"))

(* ------------------------------------------------------------------ *)
(* Gate *)

(* A minimal results file: the classic derived metrics, the read-write
   speedup, and a two-point scale table for the dmutex row (the gate
   generates a band check per swept N and an exponent check from it). *)
let results ?(scale_mpc1000 = 3.5) ?(exponent = 0.02) ~mpc ~wall () =
  let cell n v =
    Json.Obj [ ("n", Json.Num n); ("messages_per_cs", Json.Num v) ]
  in
  Json.Obj
    [
      ( "derived",
        Json.Obj
          [
            ( "high_load",
              Json.Obj [ ("messages_per_cs", Json.Num mpc) ] );
            ( "light_load",
              Json.Obj [ ("messages_per_cs", Json.Num 9.9) ] );
            ("rw", Json.Obj [ ("speedup", Json.Num 3.0) ]);
            ( "scale",
              Json.Obj
                [
                  ( "rows",
                    Json.List
                      [
                        Json.Obj
                          [
                            ("algorithm", Json.Str "this-paper (basic)");
                            ("exponent", Json.Num exponent);
                            ( "cells",
                              Json.List
                                [ cell 10. 3.25; cell 1000. scale_mpc1000 ] );
                          ];
                      ] );
                ] );
          ] );
      ("total_seconds", Json.Num wall);
    ]

let test_gate_pass_and_fail () =
  let baseline = results ~mpc:2.8 ~wall:10.0 () in
  (* Identical run passes. *)
  let ok = Gate.run ~baseline ~current:baseline () in
  Alcotest.(check (list string)) "no failures" [] ok.Gate.failures;
  (* A small improvement passes. *)
  let better = Gate.run ~baseline ~current:(results ~mpc:2.6 ~wall:8.0 ()) () in
  Alcotest.(check int) "improvement ok" 0 (List.length better.Gate.failures);
  (* A >25% messages-per-CS regression fails, even inside the band. *)
  let worse = Gate.run ~baseline ~current:(results ~mpc:3.6 ~wall:10.0 ()) () in
  Alcotest.(check bool) "regression fails" true (worse.Gate.failures <> []);
  (* Out of the absolute band fails even with a complicit baseline. *)
  let drifted =
    Gate.run
      ~baseline:(results ~mpc:4.6 ~wall:10.0 ())
      ~current:(results ~mpc:4.7 ~wall:10.0 ())
      ()
  in
  Alcotest.(check bool) "band fails independently" true
    (List.exists
       (fun l -> Str_present.contains_substring l "band")
       drifted.Gate.failures);
  (* Wall-clock uses its own tolerance. *)
  let slow =
    Gate.run ~wall_tolerance:4.0 ~baseline
      ~current:(results ~mpc:2.8 ~wall:45.0 ())
      ()
  in
  Alcotest.(check (list string)) "loose wall tolerance" [] slow.Gate.failures

let test_gate_missing_metrics () =
  let baseline = results ~mpc:2.8 ~wall:10.0 () in
  (* Missing in current: fail. *)
  let broken =
    Gate.run ~baseline ~current:(Json.Obj [ ("total_seconds", Json.Num 1.0) ]) ()
  in
  Alcotest.(check bool) "missing current fails" true
    (List.length broken.Gate.failures >= 2);
  (* Missing in baseline: fail, naming the fix — a baseline without a
     gated metric is stale, not a reason to skip the check. *)
  let old_baseline = Json.Obj [ ("total_seconds", Json.Num 10.0) ] in
  let vs_old =
    Gate.run ~baseline:old_baseline ~current:(results ~mpc:2.8 ~wall:10.0 ()) ()
  in
  Alcotest.(check bool) "missing baseline fails" true
    (List.exists
       (fun l ->
         Str_present.contains_substring l "high-load"
         && Str_present.contains_substring l "regenerate the baseline")
       vs_old.Gate.failures);
  (* Even a sectioned run cannot excuse a stale baseline. *)
  let lax =
    Gate.run ~allow_missing:true ~baseline:old_baseline
      ~current:(results ~mpc:2.8 ~wall:10.0 ())
      ()
  in
  Alcotest.(check bool) "allow_missing keeps baseline failures" true
    (lax.Gate.failures <> [])

let test_gate_scale_checks () =
  let baseline = results ~mpc:2.8 ~wall:10.0 () in
  (* The Eq. 4 band applies to every swept N of the dmutex row. *)
  let bad_n =
    Gate.run ~baseline
      ~current:(results ~scale_mpc1000:5.2 ~mpc:2.8 ~wall:10.0 ())
      ()
  in
  Alcotest.(check bool) "band violation at one N fails" true
    (List.exists
       (fun l -> Str_present.contains_substring l "N=1000")
       bad_n.Gate.failures);
  (* Exponent drifts are judged by absolute tolerance vs the baseline. *)
  let drift =
    Gate.run ~baseline
      ~current:(results ~exponent:0.4 ~mpc:2.8 ~wall:10.0 ())
      ()
  in
  Alcotest.(check bool) "exponent drift fails" true
    (List.exists
       (fun l -> Str_present.contains_substring l "exponent")
       drift.Gate.failures);
  let ok = Gate.run ~baseline ~current:baseline () in
  Alcotest.(check (list string)) "identical scale passes" [] ok.Gate.failures;
  (* The summary table has a header plus one row per evaluated metric. *)
  Alcotest.(check bool) "summary present" true
    (List.length ok.Gate.summary > 5)

let test_gate_allow_missing () =
  let baseline = results ~mpc:2.8 ~wall:10.0 () in
  let sectioned = Json.Obj [ ("total_seconds", Json.Num 10.0) ] in
  (* A run without the lab section fails by default — the per-N band
     checks must not vanish silently... *)
  let strict = Gate.run ~baseline ~current:sectioned () in
  Alcotest.(check bool) "missing scale fails" true
    (List.exists
       (fun l -> Str_present.contains_substring l "scale")
       strict.Gate.failures);
  (* ...but a deliberately sectioned bench gates what it has. *)
  let lax = Gate.run ~allow_missing:true ~baseline ~current:sectioned () in
  Alcotest.(check (list string)) "allow_missing skips" [] lax.Gate.failures

(* The object [dmutex_bench --workload all] prints: one result per
   workload, each with the end-to-end metric catalogue. *)
let e2e_workload ~grants ~mpc =
  let m name v =
    (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str "") ])
  in
  Json.Obj
    [
      ("correct", Json.Bool true);
      ("attempted", Json.Num 1000.);
      ("failed", Json.Num 0.);
      ( "metrics",
        Json.Obj
          [
            m "acquire_p50_ms" 1.0;
            m "acquire_p90_ms" 2.0;
            m "grants_per_s" grants;
            m "messages_per_cs" mpc;
            m "setup_s" 0.5;
            m "peak_rss_mb" 20.;
          ] );
    ]

let e2e_result ?(saturated = e2e_workload ~grants:13000. ~mpc:2.6)
    ?(durable = e2e_workload ~grants:1450. ~mpc:3.0) () =
  Json.Obj
    [
      ("live-saturated", saturated);
      ("live-light", e2e_workload ~grants:250. ~mpc:4.8);
      ("client-durable", durable);
      ("sim-lab", e2e_workload ~grants:1e6 ~mpc:2.6);
    ]

let names_metric (o : Gate.outcome) ~workload ~metric =
  List.exists
    (fun l ->
      Str_present.contains_substring l workload
      && Str_present.contains_substring l metric)
    o.Gate.failures

let test_gate_e2e () =
  let ok = Gate.e2e (e2e_result ()) in
  Alcotest.(check (list string)) "fixture passes" [] ok.Gate.failures;
  Alcotest.(check int) "header plus four checks" 5
    (List.length ok.Gate.summary);
  let slow =
    Gate.e2e
      (e2e_result ~saturated:(e2e_workload ~grants:3949. ~mpc:2.6) ())
  in
  Alcotest.(check int) "one failure below the floor" 1
    (List.length slow.Gate.failures);
  Alcotest.(check bool) "floor failure names workload and metric" true
    (names_metric slow ~workload:"live-saturated" ~metric:"grants_per_s");
  let costly =
    Gate.e2e (e2e_result ~durable:(e2e_workload ~grants:1450. ~mpc:4.6) ())
  in
  Alcotest.(check bool) "band failure names workload and metric" true
    (names_metric costly ~workload:"client-durable" ~metric:"messages_per_cs");
  (* A child run that printed no result line appears as null. *)
  let lost = Gate.e2e (e2e_result ~durable:Json.Null ()) in
  Alcotest.(check bool) "null workload fails" true
    (names_metric lost ~workload:"client-durable" ~metric:"grants_per_s"
    && names_metric lost ~workload:"client-durable" ~metric:"messages_per_cs")

(* ------------------------------------------------------------------ *)
(* Wait-for graph *)

let test_wfg_cycles () =
  let g = Wfg.of_scan [ ("a", [ (1, 2) ]); ("b", [ (2, 3); (9, 9) ]) ] in
  Alcotest.(check int) "self-edges dropped" 2 (Wfg.edge_count g);
  Alcotest.(check bool) "chain is acyclic" true (Wfg.cycle_free g);
  let g = Wfg.add_edges g ~lock:"c" [ (3, 1) ] in
  (match Wfg.find_cycle g with
  | None -> Alcotest.fail "closing the chain must produce a cycle"
  | Some cycle ->
      Alcotest.(check int) "cycle covers all three" 3 (List.length cycle);
      (* Every consecutive pair (wrapping) must be a real edge. *)
      let es =
        List.map (fun e -> (e.Wfg.waiter, e.Wfg.holder)) (Wfg.edges g)
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | [ last ] -> [ (last, List.hd cycle) ]
        | [] -> []
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) "cycle follows edges" true (List.mem p es))
        (pairs cycle);
      Alcotest.(check string) "pp renders wait order" "1 -> 2 -> 3"
        (Format.asprintf "%a" Wfg.pp_cycle [ 1; 2; 3 ]));
  Alcotest.(check bool) "not cycle-free anymore" false (Wfg.cycle_free g);
  (* Two disjoint locks without a shared vertex cannot deadlock. *)
  let disjoint = Wfg.of_scan [ ("a", [ (1, 2) ]); ("b", [ (3, 4) ]) ] in
  Alcotest.(check bool) "disjoint locks acyclic" true (Wfg.cycle_free disjoint)

let test_wfg_record_metrics () =
  let reg = Registry.create () in
  let ob = Wfg.obs reg in
  let trace = Events.create () in
  let acyclic = Wfg.of_scan [ ("a", [ (1, 2); (3, 2) ]) ] in
  (match Wfg.record ~trace ob acyclic with
  | None -> ()
  | Some _ -> Alcotest.fail "acyclic scan must not report a cycle");
  Alcotest.(check bool) "edge gauge set" true
    (feq (Registry.Gauge.value (Registry.Gauge.get reg Names.wfg_edges)) 2.0);
  Alcotest.(check int) "no cycle counted" 0
    (Registry.Counter.value (Registry.Counter.get reg Names.wfg_cycles_total));
  let deadlocked = Wfg.of_scan [ ("a", [ (1, 2) ]); ("b", [ (2, 1) ]) ] in
  (match Wfg.record ~trace ob deadlocked with
  | Some _ -> ()
  | None -> Alcotest.fail "deadlock scan must report its cycle");
  Alcotest.(check int) "cycle counted" 1
    (Registry.Counter.value (Registry.Counter.get reg Names.wfg_cycles_total));
  Alcotest.(check bool) "wfg.cycle trace event emitted" true
    (List.exists
       (fun e -> e.Events.name = "wfg.cycle")
       (Events.events trace))

(* ------------------------------------------------------------------ *)
(* Per-CS accounting: simulator vs the paper's analysis *)

let test_sim_high_load_messages_per_cs () =
  let n = 10 in
  let reg = Registry.create () in
  let outcome =
    RB.run_saturated ~seed:3 ~requests:2_000 ~obs:reg
      (Dmutex.Basic.config ~n ())
  in
  let report = Report.derive (Registry.snapshot reg) in
  (* The registry-derived value must agree with the simulator's own
     accounting... *)
  Alcotest.(check bool) "registry agrees with sim counters" true
    (feq ~eps:1e-6 report.Report.messages_per_cs
       outcome.Dmutex.Sim_runner.messages_per_cs);
  Alcotest.(check int) "every CS counted" 2_000 report.Report.cs_entries;
  (* ...and with Eq. 4: M = 3 - 2/N at saturation (within 5%). *)
  let predicted = 3.0 -. (2.0 /. float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "high load %.3f within 5%% of %.3f"
       report.Report.messages_per_cs predicted)
    true
    (Float.abs (report.Report.messages_per_cs -. predicted) /. predicted
    < 0.05);
  (* At saturation the queue holds everyone: mean sampled Q length is
     close to N. *)
  Alcotest.(check bool) "queue near N" true
    (report.Report.queue_length_mean > float_of_int n *. 0.8)

let test_sim_light_load_messages_per_cs () =
  let n = 10 in
  let reg = Registry.create () in
  ignore
    (RB.run_poisson ~seed:3 ~rate:0.01 ~requests:1_000 ~obs:reg
       (Dmutex.Basic.config ~n ()));
  let report = Report.derive (Registry.snapshot reg) in
  (* Eq. 1: M = (N^2 - 1)/N ~= N at light load (within 10%). *)
  let predicted = float_of_int ((n * n) - 1) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "light load %.3f within 10%% of %.3f"
       report.Report.messages_per_cs predicted)
    true
    (Float.abs (report.Report.messages_per_cs -. predicted) /. predicted
    < 0.10)

(* ------------------------------------------------------------------ *)
(* Live cluster: the acceptance criterion. A chaos-free 5-node run at
   high load must report messages-per-CS inside [2.5, 4.5] through
   Cluster.obs_report — the same derivation the bench embeds and the
   CI gate enforces. *)

let test_live_high_load_band () =
  let n = 5 and rounds = 30 in
  let cfg =
    { (Dmutex.Resilient.config ~n ()) with
      Dmutex.Types.Config.t_collect = 0.02;
      t_forward = 0.02 }
  in
  let trace = Events.create () in
  let cluster = RCluster.launch ~base_port:8701 ~trace cfg in
  let timeouts = ref 0 in
  (* Closed loop: every node re-requests as soon as it leaves the CS,
     which is the regime of Eq. 4. *)
  let worker i () =
    for _ = 1 to rounds do
      match
        RCluster.Node.with_lock ~timeout:30.0 (RCluster.node cluster i)
          (fun () -> ())
      with
      | Some () -> ()
      | None -> incr timeouts
    done
  in
  let threads = List.init n (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  let report = RCluster.obs_report cluster in
  (* The merged snapshot carries the transport series too, and they
     roughly corroborate the protocol counters (transport counts
     frames including heartbeats/duplicates, so >=). The protocol
     counts a send when its step emits it, the transport once the
     frame is written: the last steps' frames can still be queued at
     this instant, so sample the transport until it has flushed them
     (bounded — a frame it never writes still fails the check). *)
  let transport_sent () =
    List.fold_left
      (fun acc (s, v) ->
        if s.Registry.name = Names.transport_sent_total then acc + v else acc)
      0 (RCluster.obs_snapshot cluster).Registry.counters
  in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec flushed () =
    let sent = transport_sent () in
    if sent >= report.Report.messages_sent || Unix.gettimeofday () > deadline
    then sent
    else begin
      Thread.delay 0.01;
      flushed ()
    end
  in
  let transport_sent = flushed () in
  RCluster.shutdown cluster;
  Alcotest.(check int) "no lock timeouts" 0 !timeouts;
  Alcotest.(check int) "every CS entry counted" (n * rounds)
    report.Report.cs_entries;
  Alcotest.(check bool)
    (Printf.sprintf "live messages/CS %.3f in [2.5, 4.5]"
       report.Report.messages_per_cs)
    true
    (report.Report.messages_per_cs >= 2.5
    && report.Report.messages_per_cs <= 4.5);
  Alcotest.(check bool) "sync delay observed" true
    (report.Report.sync_delay_mean > 0.0);
  Alcotest.(check bool) "transport sent >= protocol sent" true
    (transport_sent >= report.Report.messages_sent);
  (* The shared trace sink saw every node's CS activity. *)
  let enters =
    List.filter (fun e -> e.Events.name = "cs.enter") (Events.events trace)
  in
  Alcotest.(check bool) "trace records CS entries" true
    (List.length enters > 0 || Events.total trace > Events.capacity trace)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter basics and labels" `Quick
        test_counter_basics;
      Alcotest.test_case "wrong-type lookup raises" `Quick
        test_wrong_type_lookup_raises;
      Alcotest.test_case "log2 histogram bucket edges" `Quick
        test_histogram_log2_buckets;
      Alcotest.test_case "concurrent counter increments" `Quick
        test_counter_concurrent;
      Alcotest.test_case "snapshot while writing" `Quick
        test_snapshot_while_writing;
      Alcotest.test_case "merge and Prometheus exposition" `Quick
        test_merge_and_expose;
      Alcotest.test_case "label value escaping" `Quick
        test_label_value_escaping;
      Alcotest.test_case "per-lock series split and report" `Quick
        test_protocol_metrics_lock_labels;
      Alcotest.test_case "trace ring wraparound" `Quick
        test_trace_ring_wraparound;
      Alcotest.test_case "trace flush is parseable JSONL" `Quick
        test_trace_flush_jsonl;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json byte escaping roundtrip" `Quick
        test_json_byte_roundtrip;
      Alcotest.test_case "json parse errors" `Quick test_json_errors;
      Alcotest.test_case "wfg cycle detection" `Quick test_wfg_cycles;
      Alcotest.test_case "wfg metric recording" `Quick
        test_wfg_record_metrics;
      Alcotest.test_case "gate pass/regression/band" `Quick
        test_gate_pass_and_fail;
      Alcotest.test_case "gate missing metrics" `Quick
        test_gate_missing_metrics;
      Alcotest.test_case "gate per-N scale band and exponent" `Quick
        test_gate_scale_checks;
      Alcotest.test_case "gate allow-missing for sectioned runs" `Quick
        test_gate_allow_missing;
      Alcotest.test_case "gate e2e floors and bands" `Quick test_gate_e2e;
      Alcotest.test_case "sim high load matches Eq. 4" `Quick
        test_sim_high_load_messages_per_cs;
      Alcotest.test_case "sim light load matches Eq. 1" `Quick
        test_sim_light_load_messages_per_cs;
      Alcotest.test_case "live 5-node high load in band (acceptance)" `Slow
        test_live_high_load_band;
    ] )
