(* The safety checker: its rules as one table of hand-made histories,
   the offline audit of simulator traces (a replay through the same
   checker must agree with the runner's online verdict), and the
   simulator's own use of it. *)

open Simkit
open Dmutex

type op =
  | Enter of { holder : int; mode : Types.mode; fencing : int option }
  | Leave of int
  | Crash of int

let x ?fencing holder = Enter { holder; mode = Types.Exclusive; fencing }
let s ?fencing holder = Enter { holder; mode = Types.Shared; fencing }

let play ops =
  let h = History.create () in
  List.iter
    (function
      | Enter { holder; mode; fencing } ->
          ignore (History.enter ?fencing h ~lock:"a" ~holder ~mode)
      | Leave holder -> History.leave h ~lock:"a" ~holder
      | Crash holder -> History.crash h ~holder)
    ops;
  History.report h

let describe = function
  | History.Overlap { entry; occupant; _ } ->
      Printf.sprintf "overlap %d over %d" entry.holder occupant.holder
  | History.Double_entry { entry; _ } ->
      Printf.sprintf "double entry %d" entry.holder
  | History.Orphan_leave { holder; _ } ->
      Printf.sprintf "orphan leave %d" holder
  | History.Regression { entry; previous; _ } ->
      Printf.sprintf "regression %d after %d" entry.holder previous.holder

(* name, history, expected violations, fenced off, takeovers, peak
   shared holders *)
let rules =
  [
    ("clean run", [ x 0; Leave 0; x 1; Leave 1 ], [], 0, 0, 0);
    ( "detects overlap",
      [ x 0; x 1; Leave 0; Leave 1 ],
      [ "overlap 1 over 0" ], 0, 0, 0 );
    ("detects double entry", [ x 0; x 0 ], [ "double entry 0" ], 0, 0, 0);
    ("detects orphan exit", [ Leave 2 ], [ "orphan leave 2" ], 0, 0, 0);
    ("crash clears holder", [ x 0; Crash 0; x 1; Leave 1 ], [], 0, 0, 0);
    ("shared beside shared", [ s 0; s 1; Leave 0; Leave 1 ], [], 0, 0, 2);
    ( "exclusive beside shared",
      [ s 0; x 1; Leave 0; Leave 1 ],
      [ "overlap 1 over 0" ], 0, 0, 1 );
    ( "stale token fenced off",
      [ x ~fencing:5 0; x ~fencing:4 1; x ~fencing:5 2; Leave 0 ],
      [], 2, 0, 0 );
    ( "newer token takes over",
      [ x ~fencing:5 0; x ~fencing:6 1; Leave 0; Leave 1 ],
      [], 0, 1, 0 );
    ( "token regression at a free resource",
      [ x ~fencing:5 0; Leave 0; x ~fencing:4 1; Leave 1; x ~fencing:4 2 ],
      [ "regression 1 after 0"; "regression 2 after 1" ], 0, 0, 0 );
    ( "equal token within a shared batch",
      [
        s ~fencing:5 0; s ~fencing:5 1; Leave 0; Leave 1; s ~fencing:5 2;
        Leave 2; x ~fencing:6 3; Leave 3;
      ],
      [], 0, 0, 2 );
  ]

let rule_case (name, ops, violations, fenced_off, takeovers, peak) =
  Alcotest.test_case name `Quick (fun () ->
      let r = play ops in
      Alcotest.(check (list string))
        "violations" violations
        (List.map describe r.first);
      Alcotest.(check int) "violation count" (List.length violations)
        r.violations;
      Alcotest.(check int) "fenced off" fenced_off r.fenced_off;
      Alcotest.(check int) "takeovers" takeovers r.takeovers;
      Alcotest.(check int) "peak shared" peak
        (match r.locks with [ (_, l) ] -> l.peak_shared | _ -> 0))

let test_report_pp () =
  let r = play [ x ~fencing:3 0; Leave 0; s ~fencing:2 1 ] in
  let text = Format.asprintf "%a" History.pp_report r in
  Alcotest.(check bool) "names both holders and their tokens" true
    (Str_present.contains_substring text
       "holder 1 (shared, token 2) entered after holder 0 (exclusive, token 3)")

(* The offline audit: replay a simulator trace through a fresh
   checker. The traces below come from exclusive-only algorithms. *)
let audit trace =
  let h = History.create () in
  List.iter
    (fun (r : Trace.record) ->
      match r.tag with
      | "enter-cs" ->
          ignore
            (History.enter h ~lock:"cs" ~holder:r.node ~mode:Types.Exclusive)
      | "exit-cs" -> History.leave h ~lock:"cs" ~holder:r.node
      | "crash" -> History.crash h ~holder:r.node
      | _ -> ())
    (Trace.records trace);
  History.report h

let agree_with_runner (type s m tm)
    (module A : Types.ALGO
      with type state = s and type message = m and type timer = tm) cfg =
  let module R = Sim_runner.Make (A) in
  let trace = Trace.create ~capacity:1_000_000 () in
  Trace.set_enabled trace true;
  let o = R.run_poisson ~seed:5 ~requests:2_000 ~rate:0.3 ~trace cfg in
  let r = audit trace in
  Alcotest.(check int) (A.name ^ ": audit clean") 0 r.violations;
  Alcotest.(check int) (A.name ^ ": runner agrees") 0 o.safety_violations;
  Alcotest.(check int)
    (A.name ^ ": admitted entries are the completions")
    o.completed r.entries

let test_agreement_basic () =
  agree_with_runner (module Basic) (Basic.config ~n:8 ())

let test_agreement_maekawa () =
  agree_with_runner (module Baselines.Maekawa) (Types.Config.default ~n:8)

let test_agreement_lamport () =
  agree_with_runner (module Baselines.Lamport) (Types.Config.default ~n:8)

let test_planted_double_grant () =
  let module R = Sim_runner.Make (Test_mcheck.Broken_grant_all) in
  let o = R.run_saturated ~requests:50 (Types.Config.default ~n:3) in
  Alcotest.(check bool)
    (Printf.sprintf "violations counted (%d)" o.safety_violations)
    true (o.safety_violations > 0)

(* Node 1 is restarted 1 ms into its CS: the dead CS must not
   complete, and the new life must not see its exit. The entry time is
   read off the trace, not assumed from the window grid. *)
let test_restart_within_t_exec () =
  let module R = Sim_runner.Make (Resilient) in
  let trace = Trace.create () in
  Trace.set_enabled trace true;
  let t = R.create ~trace (Resilient.config ~n:3 ()) in
  R.request t 1;
  let entries () =
    List.filter
      (fun (r : Trace.record) -> r.tag = "enter-cs" && r.node = 1)
      (Trace.records trace)
  in
  while entries () = [] && Engine.step (R.engine t) do () done;
  let entered =
    match entries () with
    | [ r ] -> r.time
    | _ -> Alcotest.fail "node 1 never entered its CS"
  in
  let restart = entered +. 0.001 in
  R.apply_faults t [ (restart, Types.Restart { node = 1; after = 0.005 }) ];
  R.step_until t 2.0;
  let o = R.outcome t in
  Alcotest.(check (list (float 1e-9))) "entered once, before the restart"
    [ entered ]
    (List.map (fun (r : Trace.record) -> r.time) (entries ()));
  Alcotest.(check int) "the dead CS is not completed" 0 o.completed;
  Alcotest.(check bool) "no exit-cs in the new life" false
    (List.exists
       (fun (r : Trace.record) -> r.tag = "exit-cs" && r.time > restart)
       (Trace.records trace));
  Alcotest.(check int) "runner checker clean" 0 o.safety_violations;
  Alcotest.(check int) "offline audit clean" 0 (audit trace).violations

let suite =
  ( "audit",
    List.map rule_case rules
    @ [
        Alcotest.test_case "agrees with runner: basic" `Quick
          test_agreement_basic;
        Alcotest.test_case "agrees with runner: maekawa" `Quick
          test_agreement_maekawa;
        Alcotest.test_case "agrees with runner: lamport" `Quick
          test_agreement_lamport;
        Alcotest.test_case "report rendering" `Quick test_report_pp;
        Alcotest.test_case "simulator catches a planted double grant" `Quick
          test_planted_double_grant;
        Alcotest.test_case "restart within t_exec drops the old CS exit"
          `Quick test_restart_within_t_exec;
      ] )
