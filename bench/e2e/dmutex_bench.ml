(* End-to-end benchmark of the lock service.

     dmutex_bench --workload <name>|all --seed S [--seconds T] [--trace 0|1]
                  [--spans FILE] [--json FILE]

   Runs one workload in this process — or, with [all], each workload in
   a fresh child process — after timed set-ups and a warm-up, for a
   window of T seconds (default 36). Human-readable lines go to
   standard output first; the last line is one JSON object with keys
   correct, attempted, failed and metrics: the end-to-end metrics, or
   with --trace 1 the per-layer metrics of a traced rerun. --spans
   writes the traced run's retained spans as JSONL; --json copies the
   result to a file. Exits 0 only for a correct run, and without a
   result line (code 2) when the workload could not be run at all. *)

module E = Dmutex_e2e

let workloads = [ "live-saturated"; "live-light"; "client-durable"; "sim-lab" ]
let warmup = 3.0
let setups = 6

module Plain = E.Live.Make (Dmutex.Resilient) (Wire.Protocol_codec)
module Traced_resilient = E.Traced.Algo (Dmutex.Resilient)
module Traced_codec = E.Traced.Codec (Wire.Protocol_codec)
module Traced = E.Live.Make (Traced_resilient) (Traced_codec)
module Sim = E.Sim_lab.Make (Dmutex.Basic)
module Traced_basic = E.Traced.Algo (Dmutex.Basic)
module Sim_traced = E.Sim_lab.Make (Traced_basic)

let run_one workload (settings : E.Outcome.settings) =
  (* Durable state stays under the working directory and is removed at
     the end of the run. *)
  let state_root =
    Filename.concat ".e2e-state" (string_of_int (Unix.getpid ()))
  in
  match (workload, settings.E.Outcome.trace) with
  | "live-saturated", false -> Plain.live_saturated settings
  | "live-saturated", true -> Traced.live_saturated settings
  | "live-light", false -> Plain.live_light settings
  | "live-light", true -> Traced.live_light settings
  | "client-durable", false -> Plain.client_durable settings ~state_root
  | "client-durable", true -> Traced.client_durable settings ~state_root
  | "sim-lab", false -> Sim.run settings
  | "sim-lab", true -> Sim_traced.run settings
  | w, _ -> invalid_arg ("unknown workload " ^ w)

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      output_char oc '\n')

(* [all]: each workload in its own process, its output passed through;
   the last line collects every child's result by workload name. *)
let run_all ~seed ~seconds ~trace ~json =
  let results =
    List.map
      (fun w ->
        let args =
          [|
            Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace";
            string_of_int trace;
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        let result =
          match Dmutex_obs.Json.of_string !last with
          | Ok j -> j
          | Error _ -> Dmutex_obs.Json.Null
        in
        (w, ok, result))
      workloads
  in
  let j =
    Dmutex_obs.Json.to_string
      (Dmutex_obs.Json.Obj (List.map (fun (w, _, r) -> (w, r)) results))
  in
  if json <> "" then write_file json j;
  print_endline j;
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 36.0 in
  let trace = ref 0 and spans = ref "" and json = ref "" in
  let usage =
    "dmutex_bench --workload <"
    ^ String.concat "|" (workloads @ [ "all" ])
    ^ "> --seed S [--seconds T] [--trace 0|1] [--spans FILE] [--json FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload to run, or all");
      ("--seed", Arg.Set_int seed, " seed the workload's inputs derive from");
      ("--seconds", Arg.Set_float seconds, " length of the measured window");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
      ("--spans", Arg.Set_string spans, " write the traced run's spans as JSONL");
      ("--json", Arg.Set_string json, " also write the result to this file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload ("all" :: workloads)))
    || (!trace <> 0 && !trace <> 1)
    || !seconds <= 0.0
  then begin
    prerr_endline usage;
    exit 2
  end;
  if !workload = "all" then
    run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
  else
    let settings =
      {
        E.Outcome.seed = !seed;
        warmup;
        seconds = !seconds;
        trace = !trace = 1;
        setups;
      }
    in
    match run_one !workload settings with
    | exception e ->
        Printf.eprintf "%s: could not run: %s\n%!" !workload
          (Printexc.to_string e);
        exit 2
    | o ->
        let trace = settings.E.Outcome.trace in
        let o = E.Outcome.complete ~trace o in
        List.iter (fun p -> Printf.printf "  INVALID: %s\n" p) o.E.Outcome.problems;
        Printf.printf "  failed_frac %.6f (%d of %d attempts), violations %d\n"
          (float_of_int o.E.Outcome.failed
          /. float_of_int (max 1 o.E.Outcome.attempted))
          o.E.Outcome.failed o.E.Outcome.attempted o.E.Outcome.violations;
        if trace && !spans <> "" then E.Spans.write_jsonl !spans;
        let j = Dmutex_obs.Json.to_string (E.Outcome.to_json ~trace o) in
        if !json <> "" then write_file !json j;
        print_endline j;
        exit (if E.Outcome.correct o then 0 else 1)
