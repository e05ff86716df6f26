(* CI bench gates.

     gate [--tolerance T] [--wall-tolerance T] [--allow-missing]
          BASELINE.json CURRENT.json
     gate E2E.json

   Given two BENCH_RESULTS.json files, applies Dmutex_obs.Gate.run:
   messages-per-CS must not regress relative to the baseline beyond
   the tolerance and must sit in the absolute acceptance band of the
   paper's Eq. 4, total wall-clock must not regress beyond the
   (separately tuned, looser) wall tolerance, and the scale table's
   dmutex row must hold the band at every swept N. Given one file,
   the result of bench/e2e's [--workload all] run, applies
   Dmutex_obs.Gate.e2e: the live throughput floors and messages-per-CS
   bands; the options do not apply there. Prints one line per check
   plus a fixed-width per-metric summary table; exits 1 on any
   failure, 2 on unreadable input. Every failure mode is a one-line
   diagnosis naming the file — a missing or corrupt baseline must read
   as "fix the baseline", never as a gate crash. *)

let tolerance = ref 0.25
let wall_tolerance = ref 0.25
let allow_missing = ref false
let files = ref []

let spec =
  [
    ( "--tolerance",
      Arg.Set_float tolerance,
      "T  relative tolerance of the deterministic metrics (default 0.25)" );
    ( "--wall-tolerance",
      Arg.Set_float wall_tolerance,
      "T  relative wall-clock tolerance (default 0.25; CI passes a loose \
       one — shared runners are noisy)" );
    ( "--allow-missing",
      Arg.Set allow_missing,
      "   skip (instead of fail) metrics absent from the current run — \
       for sectioned benches (DMUTEX_BENCH_ONLY) whose JSON \
       legitimately lacks whole sections" );
  ]

let usage = "gate [options] BASELINE.json CURRENT.json | gate E2E.json"

let read role path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
      Printf.eprintf "gate: cannot read %s file: %s\n" role e;
      exit 2
  | exception e ->
      Printf.eprintf "gate: cannot read %s file %s: %s\n" role path
        (Printexc.to_string e);
      exit 2
  | s -> (
      match Dmutex_obs.Json.of_string s with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "gate: %s file %s is not valid JSON: %s\n" role path e;
          exit 2)

let report ~what gate =
  match gate () with
  | exception e ->
      (* Schema surprises (e.g. a number where an object belongs)
         must still yield a diagnosis, not a backtrace. *)
      Printf.eprintf "gate: cannot check %s: %s\n" what (Printexc.to_string e);
      exit 2
  | outcome ->
      List.iter print_endline outcome.Dmutex_obs.Gate.lines;
      print_newline ();
      List.iter print_endline outcome.Dmutex_obs.Gate.summary;
      print_newline ();
      if outcome.Dmutex_obs.Gate.failures = [] then
        print_endline "gate: all checks passed"
      else begin
        Printf.printf "gate: %d check(s) FAILED\n"
          (List.length outcome.Dmutex_obs.Gate.failures);
        exit 1
      end

let () =
  Arg.parse spec (fun f -> files := f :: !files) usage;
  match List.rev !files with
  | [ result_path ] ->
      let result = read "e2e result" result_path in
      report ~what:result_path (fun () -> Dmutex_obs.Gate.e2e result)
  | [ baseline_path; current_path ] ->
      let baseline = read "baseline" baseline_path
      and current = read "current" current_path in
      report
        ~what:(Printf.sprintf "%s against %s" current_path baseline_path)
        (fun () ->
          Dmutex_obs.Gate.run ~tolerance:!tolerance
            ~wall_tolerance:!wall_tolerance ~allow_missing:!allow_missing
            ~baseline ~current ())
  | _ ->
      prerr_endline usage;
      exit 2
