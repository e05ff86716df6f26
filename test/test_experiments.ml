(* Smoke tests of the experiment harness at miniature sizes: shapes
   and invariants of every table/figure generator, so the bench
   targets cannot silently rot. *)

let tiny_rates = [ 0.01; 0.5 ]

let test_fig345_shape () =
  let f3, f4, f5 =
    Experiments.fig345 ~n:5 ~requests:1_000 ~runs:2 ~rates:tiny_rates ()
  in
  List.iter
    (fun rows ->
      Alcotest.(check int) "row per rate" (List.length tiny_rates)
        (List.length rows);
      List.iter
        (fun (r : Experiments.sweep_row) ->
          Alcotest.(check int) "two series" 2 (List.length r.series);
          List.iter
            (fun (_, (p : Experiments.point)) ->
              if Float.is_nan p.mean then Alcotest.fail "nan mean")
            r.series)
        rows)
    [ f3; f4; f5 ]

let test_fig3_trend () =
  let f3 =
    Experiments.fig3_messages ~n:10 ~requests:4_000 ~runs:2
      ~rates:[ 0.005; 2.0 ] ()
  in
  match f3 with
  | [ low; high ] ->
      let get row = (List.assoc "Tcoll=0.1" row.Experiments.series).Experiments.mean in
      Alcotest.(check bool) "messages fall with load" true
        (get low > 8.0 && get high < 3.2)
  | _ -> Alcotest.fail "two rows expected"

let test_fig5_negligible_at_high_load () =
  let f5 =
    Experiments.fig5_forwarded ~n:10 ~requests:4_000 ~runs:2
      ~rates:[ 2.0 ] ()
  in
  match f5 with
  | [ row ] ->
      List.iter
        (fun (_, (p : Experiments.point)) ->
          Alcotest.(check bool) "negligible forwarding at high load" true
            (p.mean < 0.001))
        row.Experiments.series
  | _ -> Alcotest.fail "one row expected"

let test_fig6_shape () =
  let rows =
    Experiments.fig6_comparison ~n:5 ~requests:1_000 ~runs:2 ~rates:tiny_rates ()
  in
  List.iter
    (fun (r : Experiments.sweep_row) ->
      Alcotest.(check (list string)) "series names"
        [ "this-paper"; "ricart-agrawala"; "singhal-dynamic" ]
        (List.map fst r.series))
    rows

let test_light_heavy_tables () =
  let light = Experiments.table_light_load ~requests:2_000 ~runs:2 ~ns:[ 5; 10 ] () in
  List.iter
    (fun (r : Experiments.bound_row) ->
      let ratio = r.measured.mean /. r.analytic in
      Alcotest.(check bool)
        (Printf.sprintf "light N=%d ratio %.2f" r.n_nodes ratio)
        true
        (ratio > 0.85 && ratio < 1.1))
    light;
  let heavy = Experiments.table_heavy_load ~requests:5_000 ~runs:2 ~ns:[ 5; 10 ] () in
  List.iter
    (fun (r : Experiments.bound_row) ->
      let ratio = r.measured.mean /. r.analytic in
      Alcotest.(check bool)
        (Printf.sprintf "heavy N=%d ratio %.3f" r.n_nodes ratio)
        true
        (ratio > 0.98 && ratio < 1.02))
    heavy

let test_collection_tuning_monotone () =
  let rows =
    Experiments.table_collection_tuning ~n:10 ~requests:3_000 ~runs:2
      ~t_collects:[ 0.05; 0.5 ] ~rate:0.2 ()
  in
  match rows with
  | [ short; long ] ->
      let msgs r = (List.assoc "messages/CS" r.Experiments.series).Experiments.mean in
      let dly r = (List.assoc "delay" r.Experiments.series).Experiments.mean in
      Alcotest.(check bool) "longer collection, fewer messages" true
        (msgs long < msgs short);
      Alcotest.(check bool) "longer collection, more delay" true
        (dly long > dly short)
  | _ -> Alcotest.fail "two rows expected"

let test_all_algorithms_table () =
  let rows = Experiments.table_all_algorithms ~n:5 ~requests:2_000 ~runs:2 () in
  Alcotest.(check int) "nine algorithms" 9 (List.length rows);
  (* The headline claim, in table form: this paper beats every other
     distributed algorithm at saturation (central server is not
     distributed). *)
  let sat name = match List.find_opt (fun (n, _, _) -> n = name) rows with
    | Some (_, _, (p : Experiments.point)) -> p.mean
    | None -> Alcotest.failf "missing %s" name
  in
  let this = sat "this-paper (basic)" in
  List.iter
    (fun other ->
      Alcotest.(check bool)
        (Printf.sprintf "beats %s at saturation" other)
        true
        (this < sat other))
    [ "suzuki-kasami"; "raymond-tree"; "ricart-agrawala"; "lamport";
      "singhal-dynamic"; "maekawa"; "tree-quorum" ]

let test_message_mix () =
  let rows = Experiments.table_message_mix ~n:10 ~requests:5_000 () in
  Alcotest.(check int) "three kinds" 3 (List.length rows);
  (* Light-load terms match Eq. 1 to a few percent; the saturation
     total matches Eq. 4. *)
  List.iter
    (fun (kind, lm, la, _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s light term %.3f ~ %.3f" kind lm la)
        true
        (abs_float (lm -. la) /. la < 0.05))
    rows;
  let sat_total = List.fold_left (fun a (_, _, _, sm, _) -> a +. sm) 0.0 rows in
  Alcotest.(check bool)
    (Printf.sprintf "saturation total %.3f ~ 2.8" sat_total)
    true
    (abs_float (sat_total -. 2.8) < 0.02)

let test_faults_pinned () =
  (* The resilient row of the lab's quick table:faults. Any drift
     means the default plan no longer replays the same events at the
     same simulated times and in the same order. *)
  let rows = Experiments.table_faults ~n:10 ~requests:1_000 () in
  let r =
    List.find
      (fun (r : Experiments.fault_row) ->
        r.fault_algorithm = "this-paper (resilient)")
      rows
  in
  Alcotest.(check int) "completed" 1_000 r.fault_completed;
  Alcotest.(check (float 1e-9)) "messages per CS" 3.228 r.fault_msgs;
  Alcotest.(check int) "unserved" 10 r.fault_unserved;
  Alcotest.(check int) "every baseline refuses the plan" 1
    (List.length
       (List.filter (fun (r : Experiments.fault_row) -> r.supported) rows))

let test_print_functions () =
  (* Rendering must not raise on any shape, including empty input. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.print_sweep ~title:"t" ppf [];
  Experiments.print_bounds ~title:"t" ppf [];
  Experiments.print_recovery ppf [];
  Experiments.print_algorithms ppf [];
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "emitted something" true (Buffer.length buf > 0)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "fig 3/4/5 shapes" `Slow test_fig345_shape;
      Alcotest.test_case "fig 3 trend" `Slow test_fig3_trend;
      Alcotest.test_case "fig 5 high-load forwarding" `Slow
        test_fig5_negligible_at_high_load;
      Alcotest.test_case "fig 6 series" `Slow test_fig6_shape;
      Alcotest.test_case "light/heavy analytic tables" `Slow
        test_light_heavy_tables;
      Alcotest.test_case "collection tuning monotone" `Slow
        test_collection_tuning_monotone;
      Alcotest.test_case "all-algorithms table" `Slow
        test_all_algorithms_table;
      Alcotest.test_case "message mix terms" `Slow test_message_mix;
      Alcotest.test_case "table:faults pinned" `Quick test_faults_pinned;
      Alcotest.test_case "printers total" `Quick test_print_functions;
    ] )
