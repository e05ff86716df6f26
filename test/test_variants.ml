(* The paper's optional variants: starvation-free (Section 4.1),
   prioritized (Section 5.2), rotation (Section 5.1), and the Section
   3.1 broadcast-suppression option. *)

open Dmutex
module RB = Sim_runner.Make (Basic)
module RM = Sim_runner.Make (Monitored)
module RP = Sim_runner.Make (Prioritized)
module RR = Sim_runner.Make (Resilient)

let test_monitored_correct () =
  let cfg = Monitored.config ~n:10 () in
  let o = RM.run_poisson ~seed:1 ~requests:10_000 ~rate:0.2 cfg in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  (* An open-loop run stops with the steady-state in-flight requests
     still pending; only an excess would indicate starvation. *)
  Alcotest.(check bool) "no backlog beyond steady state" true
    (o.unserved < 20)

let test_monitored_low_load_overhead () =
  (* Paper: ~1 extra message per CS at very low load (one token pass
     to the monitor per period, one CS per period). *)
  let basic =
    RB.run_poisson ~seed:2 ~requests:8_000 ~rate:0.01 (Basic.config ~n:10 ())
  in
  let mon =
    RM.run_poisson ~seed:2 ~requests:8_000 ~rate:0.01 (Monitored.config ~n:10 ())
  in
  let overhead = mon.messages_per_cs -. basic.messages_per_cs in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.2f in [0.5, 2.5]" overhead)
    true
    (overhead > 0.5 && overhead < 2.5);
  Alcotest.(check bool) "monitor passes happened" true (mon.monitor_passes > 0)

let test_monitored_high_load_no_overhead () =
  let basic = RB.run_saturated ~seed:3 ~requests:10_000 (Basic.config ~n:10 ()) in
  let mon = RM.run_saturated ~seed:3 ~requests:10_000 (Monitored.config ~n:10 ()) in
  Alcotest.(check bool) "negligible overhead at saturation" true
    (mon.messages_per_cs -. basic.messages_per_cs < 0.1)

let test_monitor_is_arbiter_sometimes () =
  (* The monitor must also be able to serve as a regular arbiter. *)
  let cfg = Monitored.config ~monitor:0 ~n:4 () in
  let o = RM.run_poisson ~seed:4 ~requests:5_000 ~rate:0.5 cfg in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check int) "all served" 0 o.unserved

let test_rotation () =
  let cfg = Monitored.config ~rotate:true ~n:6 () in
  let o = RM.run_poisson ~seed:5 ~requests:8_000 ~rate:0.2 cfg in
  Alcotest.(check int) "no violations with rotating monitor" 0
    o.safety_violations;
  Alcotest.(check int) "all served" 0 o.unserved

let test_priorities_reorder () =
  (* Half the nodes are high priority; under contention they must wait
     less on average. *)
  let n = 8 in
  let priorities = Array.init n (fun i -> if i < 4 then 10 else 0) in
  let cfg = Prioritized.config ~priorities ~n () in
  let t = RP.create ~seed:6 cfg in
  let engine = RP.engine t in
  let rng = Simkit.Rng.create 3 in
  let grants_hi = ref 0 and grants_lo = ref 0 in
  let waits_hi = Simkit.Stats.Tally.create ()
  and waits_lo = Simkit.Stats.Tally.create () in
  let outstanding = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let node_rng = Simkit.Rng.split rng in
    ignore
      (Simkit.Workload.poisson engine ~rng:node_rng ~rate:0.8
         ~on_arrival:(fun _ ->
           if not (Hashtbl.mem outstanding i) then begin
             Hashtbl.replace outstanding i (Simkit.Engine.now engine);
             RP.request t i
           end))
  done;
  let rec sample () =
    ignore
      (Simkit.Engine.schedule engine ~delay:0.02 (fun _ ->
           for i = 0 to n - 1 do
             if (RP.state t i).Protocol.in_cs then
               match Hashtbl.find_opt outstanding i with
               | Some t0 ->
                   Hashtbl.remove outstanding i;
                   let w = Simkit.Engine.now engine -. t0 in
                   if i < 4 then begin
                     incr grants_hi;
                     Simkit.Stats.Tally.add waits_hi w
                   end
                   else begin
                     incr grants_lo;
                     Simkit.Stats.Tally.add waits_lo w
                   end
               | None -> ()
           done;
           sample ()))
  in
  sample ();
  RP.step_until t 200.0;
  Alcotest.(check bool) "both classes served" true
    (!grants_hi > 50 && !grants_lo > 50);
  Alcotest.(check bool) "high priority waits less" true
    (Simkit.Stats.Tally.mean waits_hi < Simkit.Stats.Tally.mean waits_lo);
  Alcotest.(check int) "no violations" 0 (RP.outcome t).safety_violations

let test_priorities_no_starvation () =
  (* Section 5.2: even the lowest priority node is eventually served
     (it tends to become the arbiter). *)
  let n = 4 in
  let priorities = [| 0; 10; 10; 10 |] in
  let cfg = Prioritized.config ~priorities ~n () in
  let t = RP.create ~seed:7 cfg in
  for _ = 1 to 5 do
    RP.request t 0;
    RP.request t 1;
    RP.request t 2;
    RP.request t 3
  done;
  RP.step_until t 120.0;
  let o = RP.outcome t in
  Alcotest.(check int) "everything served" 20 o.completed;
  Alcotest.(check int) "nothing left over" 0 o.unserved

(* ------------------------------------------------------------------ *)
(* Read-write policy (Prioritized.rw_config): batching and the
   writer-priority starvation pin *)

let test_rw_config_shape () =
  (* rw_config is the same incremental priority machine with the mode
     as the key: writer_priority on, no static priority table. *)
  let cfg = Prioritized.rw_config ~n:6 () in
  Alcotest.(check bool) "writer priority on" true
    cfg.Types.Config.writer_priority;
  Alcotest.(check bool) "no static priorities" true
    (cfg.Types.Config.priorities = None);
  (* The static-priority constructor still validates its table. *)
  (match Prioritized.config ~priorities:[| 1; 2 |] ~n:3 () with
  | _ -> Alcotest.fail "short priority table must be rejected"
  | exception Invalid_argument _ -> ())

let test_rw_read_mix_batches () =
  (* A 90/10 read-heavy saturated run under the read-write policy:
     still zero violations, and shared batches actually form. *)
  let cfg = Prioritized.rw_config ~n:8 () in
  let o = RP.run_saturated ~seed:11 ~requests:6_000 ~read_fraction:0.9 cfg in
  Alcotest.(check int) "no violations with shared grants" 0
    o.safety_violations;
  Alcotest.(check bool) "reader batches formed" true
    (List.mem_assoc "read-batch" o.notes);
  (* Batching must beat one-at-a-time service on throughput: the same
     workload served exclusively needs strictly more time per CS. *)
  let excl = RP.run_saturated ~seed:11 ~requests:6_000 cfg in
  Alcotest.(check bool)
    (Printf.sprintf "read-heavy throughput higher (%.1f vs %.1f cs/s)"
       (float_of_int o.completed /. o.sim_time)
       (float_of_int excl.completed /. excl.sim_time))
    true
    (float_of_int o.completed /. o.sim_time
    > float_of_int excl.completed /. excl.sim_time)

let test_rw_writer_not_starved () =
  (* The starvation pin: one writer against seven loop-requesting
     readers. Writer priority reorders each dispatched window, so the
     writer's requests are all served despite the reader flood. *)
  let n = 8 in
  let cfg = Prioritized.rw_config ~n () in
  let t = RP.create ~seed:12 cfg in
  let writer_rounds = 6 in
  for _ = 1 to writer_rounds do
    RP.request t 0 (* defaults to Exclusive *)
  done;
  for _ = 1 to 12 do
    for i = 1 to n - 1 do
      RP.request ~mode:Types.Shared t i
    done
  done;
  RP.step_until t 600.0;
  let o = RP.outcome t in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check int) "nothing starved, writer included" 0 o.unserved;
  Alcotest.(check int) "writer served every round" writer_rounds
    o.per_node.(0).Sim_runner.grants

let test_skip_broadcast_saves_messages () =
  let base = Basic.config ~n:10 () in
  let skip = { base with Types.Config.skip_new_arbiter_to_tail = true } in
  let o_base = RB.run_poisson ~seed:8 ~requests:8_000 ~rate:0.005 base in
  let o_skip = RB.run_poisson ~seed:8 ~requests:8_000 ~rate:0.005 skip in
  Alcotest.(check bool)
    (Printf.sprintf "skip saves ~1 message (%.2f vs %.2f)"
       o_skip.messages_per_cs o_base.messages_per_cs)
    true
    (o_base.messages_per_cs -. o_skip.messages_per_cs > 0.5);
  Alcotest.(check int) "still correct" 0 o_skip.safety_violations;
  Alcotest.(check int) "still live" 0 o_skip.unserved

let test_idle_window_saves_residual () =
  (* At light load the deployment preset's idle-window rule takes the
     fixed grid's mean residual, T_req/2, off the delay and nothing
     else; at saturation no arbiter is ever idle a whole window. *)
  let on = Resilient.config ~n:5 () in
  let off = { on with Types.Config.early_close = false } in
  let light cfg = RR.run_poisson ~seed:1 ~requests:2_000 ~rate:0.1 cfg in
  let o_on = light on and o_off = light off in
  let saved = o_off.mean_delay -. o_on.mean_delay in
  let half = on.Types.Config.t_collect /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "delay drops by T_req/2 ± 20%% (%.4f of %.4f s)" saved half)
    true
    (Float.abs (saved -. half) <= 0.2 *. half);
  Alcotest.(check bool)
    (Printf.sprintf "messages/CS within 3%% (%.3f vs %.3f)"
       o_on.messages_per_cs o_off.messages_per_cs)
    true
    (Float.abs (o_on.messages_per_cs -. o_off.messages_per_cs)
     <= 0.03 *. o_off.messages_per_cs);
  List.iter
    (fun (o : Sim_runner.outcome) ->
      Alcotest.(check int) "no violations" 0 o.safety_violations;
      Alcotest.(check int) "nothing unserved" 0 o.unserved)
    [ o_on; o_off ];
  let skipped (o : Sim_runner.outcome) =
    Option.value ~default:0 (List.assoc_opt "window-skipped" o.notes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "most windows skipped (%d of %d CSs)" (skipped o_on)
       o_on.completed)
    true
    (2 * skipped o_on > o_on.completed);
  Alcotest.(check int) "none with the rule off" 0 (skipped o_off);
  let sat cfg = RR.run_saturated ~seed:1 ~requests:2_000 cfg in
  let s_on = sat on and s_off = sat off in
  Alcotest.(check int) "saturated: same completions" s_off.completed
    s_on.completed;
  Alcotest.(check bool)
    (Printf.sprintf "saturated: messages/CS within 1%% (%.4f vs %.4f)"
       s_on.messages_per_cs s_off.messages_per_cs)
    true
    (Float.abs (s_on.messages_per_cs -. s_off.messages_per_cs)
     <= 0.01 *. s_off.messages_per_cs)

let test_zero_collection_window () =
  (* Degenerate tuning: dispatch immediately after the token arrives.
     More messages, still correct. *)
  let cfg = Basic.config ~t_collect:0.0 ~n:6 () in
  let o = RB.run_poisson ~seed:9 ~requests:5_000 ~rate:0.3 cfg in
  Alcotest.(check int) "no violations" 0 o.safety_violations;
  Alcotest.(check bool) "no backlog beyond in-flight" true (o.unserved <= 3)

let test_initial_arbiter_choice () =
  let cfg = { (Basic.config ~n:5 ()) with Types.Config.initial_arbiter = 3 } in
  let o = RB.run_poisson ~seed:10 ~requests:3_000 ~rate:0.2 cfg in
  Alcotest.(check int) "works from any initial arbiter" 0 o.safety_violations;
  Alcotest.(check int) "served" 0 o.unserved

let suite =
  ( "variants",
    [
      Alcotest.test_case "monitored correct" `Quick test_monitored_correct;
      Alcotest.test_case "monitored low-load overhead ~1" `Quick
        test_monitored_low_load_overhead;
      Alcotest.test_case "monitored high-load overhead ~0" `Quick
        test_monitored_high_load_no_overhead;
      Alcotest.test_case "monitor doubling as arbiter" `Quick
        test_monitor_is_arbiter_sometimes;
      Alcotest.test_case "rotating monitor" `Quick test_rotation;
      Alcotest.test_case "priorities reorder service" `Slow
        test_priorities_reorder;
      Alcotest.test_case "low priority not starved" `Quick
        test_priorities_no_starvation;
      Alcotest.test_case "rw: config shape" `Quick test_rw_config_shape;
      Alcotest.test_case "rw: read-mix batches and throughput" `Quick
        test_rw_read_mix_batches;
      Alcotest.test_case "rw: writer not starved by readers" `Quick
        test_rw_writer_not_starved;
      Alcotest.test_case "Section 3.1 suppression saves messages" `Quick
        test_skip_broadcast_saves_messages;
      Alcotest.test_case "idle-window rule saves T_req/2 at light load" `Quick
        test_idle_window_saves_residual;
      Alcotest.test_case "zero-length collection window" `Quick
        test_zero_collection_window;
      Alcotest.test_case "non-default initial arbiter" `Quick
        test_initial_arbiter_choice;
    ] )
