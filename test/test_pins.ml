(* The protocol's behaviour in the simulator, pinned exactly: one
   fingerprint per preset. A change that only restructures [Protocol]
   must leave every value here unchanged. A change that alters
   behaviour on purpose re-pins the values and says so in CHANGES.md. *)

open Dmutex

type pin = {
  completed : int;
  messages : int;
  by_kind : (string * int) list;
  notes : (string * int) list;
  mean_delay : float;
}

(* One simulator run per preset, each small enough to take well under
   a second. *)
let runs : (string * (unit -> Sim_runner.outcome)) list =
  let n = 5 and requests = 400 in
  [
    ( "basic saturated",
      fun () ->
        let module R = Sim_runner.Make (Basic) in
        R.run_saturated ~seed:11 ~requests (Basic.config ~n ()) );
    ( "basic poisson",
      fun () ->
        let module R = Sim_runner.Make (Basic) in
        R.run_poisson ~seed:12 ~requests ~rate:1.0 (Basic.config ~n ()) );
    ( "fair poisson",
      fun () ->
        let module R = Sim_runner.Make (Fair) in
        R.run_poisson ~seed:13 ~requests ~rate:2.0 (Fair.config ~n ()) );
    ( "monitored poisson",
      fun () ->
        let module R = Sim_runner.Make (Monitored) in
        R.run_poisson ~seed:14 ~requests ~rate:2.0 (Monitored.config ~n ()) );
    ( "prioritized poisson",
      fun () ->
        let module R = Sim_runner.Make (Prioritized) in
        R.run_poisson ~seed:15 ~requests ~rate:2.0
          (Prioritized.config ~priorities:[| 1; 5; 2; 4; 3 |] ~n ()) );
    ( "read-write saturated",
      fun () ->
        let module R = Sim_runner.Make (Prioritized) in
        R.run_saturated ~seed:16 ~requests ~read_fraction:0.5
          (Prioritized.rw_config ~n ()) );
    ( "resilient crash and loss",
      fun () ->
        let module R = Sim_runner.Make (Resilient) in
        let plan =
          [ (3.0, Types.Loss 0.05); (6.0, Types.Crash 2);
            (20.0, Types.Loss 0.0) ]
        in
        R.saturate ~requests ~faults:plan ~until:500.0
          (R.create ~seed:17 (Resilient.config ~n ())) );
  ]

let pins : (string * pin) list =
  [
    ( "basic saturated",
      { completed = 400; messages = 1044;
        by_kind = [ ("NEW-ARBITER", 320); ("PRIVILEGE", 400); ("REQUEST", 324) ];
        notes = [ ("became-arbiter", 80); ("phase-collection", 81); ("queue-length", 81); ("queue-length-sum", 401) ];
        mean_delay = 1.0947499999999917 } );
    ( "basic poisson",
      { completed = 400; messages = 1127;
        by_kind = [ ("NEW-ARBITER", 400); ("PRIVILEGE", 396); ("REQUEST", 331) ];
        notes = [ ("became-arbiter", 102); ("forwarded", 6); ("phase-collection", 102); ("phase-forwarding", 23); ("queue-length", 102); ("queue-length-sum", 400); ("stash-forwarded", 5) ];
        mean_delay = 4.3707500315291696 } );
    ( "fair poisson",
      { completed = 400; messages = 1047;
        by_kind = [ ("NEW-ARBITER", 324); ("PRIVILEGE", 400); ("REQUEST", 323) ];
        notes = [ ("became-arbiter", 81); ("phase-collection", 81); ("queue-length", 81); ("queue-length-sum", 400) ];
        mean_delay = 22.282499440056426 } );
    ( "monitored poisson",
      { completed = 400; messages = 1049;
        by_kind = [ ("MONITOR-PRIVILEGE", 16); ("NEW-ARBITER", 324); ("PRIVILEGE", 384); ("REQUEST", 325) ];
        notes = [ ("became-arbiter", 81); ("forwarded", 1); ("monitor-pass", 16); ("phase-collection", 82); ("phase-forwarding", 1); ("queue-length", 82); ("queue-length-sum", 403) ];
        mean_delay = 24.806520968343587 } );
    ( "prioritized poisson",
      { completed = 400; messages = 1055;
        by_kind = [ ("NEW-ARBITER", 328); ("PRIVILEGE", 400); ("REQUEST", 327) ];
        notes = [ ("became-arbiter", 82); ("forwarded", 2); ("phase-collection", 83); ("phase-forwarding", 2); ("queue-length", 83); ("queue-length-sum", 404); ("stash-forwarded", 1) ];
        mean_delay = 25.783233847492383 } );
    ( "read-write saturated",
      { completed = 400; messages = 1152;
        by_kind = [ ("NEW-ARBITER", 320); ("PRIVILEGE", 266); ("READ-DONE", 121); ("READ-GRANT", 122); ("REQUEST", 323) ];
        notes = [ ("became-arbiter", 80); ("phase-collection", 81); ("phase-forwarding", 71); ("queue-length", 81); ("queue-length-sum", 401); ("read-batch", 69) ];
        mean_delay = 0.94949999999999968 } );
    ( "resilient crash and loss",
      { completed = 400; messages = 1136;
        by_kind = [ ("ENQUIRY", 8); ("ENQUIRY-REPLY", 6); ("INVALIDATE", 2); ("NEW-ARBITER", 404); ("PRIVILEGE", 401); ("REQUEST", 309); ("WARNING", 6) ];
        notes = [ ("became-arbiter", 99); ("phase-collection", 101); ("queue-length", 101); ("queue-length-sum", 405); ("recovery-started", 2); ("retransmitted", 4); ("token-regenerated", 2) ];
        mean_delay = 1.014249999999985 } );
  ]

let test_pin name run () =
  let (o : Sim_runner.outcome) = run () in
  let p = List.assoc name pins in
  let counts = Alcotest.(list (pair string int)) in
  Alcotest.(check int) "completed" p.completed o.completed;
  Alcotest.(check int) "messages" p.messages o.messages;
  Alcotest.check counts "by kind" p.by_kind o.by_kind;
  Alcotest.check counts "notes" p.notes o.notes;
  Alcotest.(check (float 1e-9)) "mean delay" p.mean_delay o.mean_delay;
  Alcotest.(check int) "safety violations" 0 o.safety_violations

let suite =
  ( "pins",
    List.map
      (fun (name, run) -> Alcotest.test_case name `Quick (test_pin name run))
      runs )
