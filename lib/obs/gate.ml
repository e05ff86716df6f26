type outcome = {
  lines : string list;
  failures : string list;
  summary : string list;
}

(* The acceptance band around the paper's Eq. 4 (M = 3 - 2/N), held
   whatever the baseline says. *)
let eq4_band = (2.5, 4.5)

(* Absolute tolerance on the dmutex scaling exponent vs the
   baseline's: relative tolerances are meaningless for a metric that
   sits near zero by design. *)
let exponent_tolerance = 0.15

(* Which way is "worse": costs (messages/CS, wall-clock) regress
   upward, rates (throughput, speedup) regress downward. *)
type direction = Higher_bad | Lower_bad

type check = {
  label : string;
  dotted : string;  (* where the metric lives, for diagnostics *)
  probe : Json.t -> float option;
  tolerance : float;  (* relative: fail when cur is worse than base by more *)
  absolute_tolerance : float option;
      (* when set, replaces the relative rule: |cur - base| must not
         exceed it *)
  band : (float * float) option;  (* absolute bounds on the current value *)
  direction : direction;
}

let get path json = Option.bind (Json.path path json) Json.num

let of_path ~label ?(tolerance = 0.25) ?band ?(direction = Higher_bad) path =
  {
    label;
    dotted = String.concat "." path;
    probe = get path;
    tolerance;
    absolute_tolerance = None;
    band;
    direction;
  }

(* --- derived.scale probes ------------------------------------------- *)

(* The scale table's dmutex row carries the Eq. 4 claim out to N=1000;
   its checks are generated from whatever Ns the current run actually
   swept, so adding or removing sweep points never silently drops the
   band. *)

let dmutex_scale_algorithm = "this-paper (basic)"

let scale_row json =
  match Json.path [ "derived"; "scale"; "rows" ] json with
  | Some (Json.List rows) ->
      List.find_opt
        (fun r ->
          Option.bind (Json.member "algorithm" r) Json.str
          = Some dmutex_scale_algorithm)
        rows
  | _ -> None

let scale_cells row =
  match Json.member "cells" row with
  | Some (Json.List cells) -> cells
  | _ -> []

let cell_n c =
  Option.bind (Json.member "n" c) Json.num |> Option.map int_of_float

let scale_cell_probe ~n json =
  Option.bind (scale_row json) (fun row ->
      List.find_opt (fun c -> cell_n c = Some n) (scale_cells row))
  |> Fun.flip Option.bind (fun c ->
         Option.bind (Json.member "messages_per_cs" c) Json.num)

let scale_exponent_probe json =
  Option.bind (scale_row json) (fun row ->
      Option.bind (Json.member "exponent" row) Json.num)

(* --- the report under construction ---------------------------------- *)

type report = {
  mutable said : string list;
  mutable failed : string list;
  mutable rows : string list;
}

let say r l = r.said <- l :: r.said

let fail r l =
  r.failed <- l :: r.failed;
  say r l

let row r c base cur status =
  let num_or_dash = function
    | Some v -> Printf.sprintf "%12.4f" v
    | None -> Printf.sprintf "%12s" "-"
  in
  let delta =
    match (base, cur) with
    | Some b, Some v when b <> 0.0 ->
        Printf.sprintf "%+7.1f%%" (100. *. (v -. b) /. b)
    | _ -> Printf.sprintf "%8s" "-"
  in
  r.rows <-
    Printf.sprintf "%-34s %s %s %s  %s" c.label (num_or_dash base)
      (num_or_dash cur) delta status
    :: r.rows

(* The absolute band applies whatever the baseline says, so a drifting
   baseline cannot ratchet a metric away from its acceptance range.
   Records a failure and returns false when [cur] is outside it. *)
let within_band r c ~base cur =
  match c.band with
  | Some (lo, hi) when cur < lo || cur > hi ->
      fail r
        (Printf.sprintf
           "FAIL %s — current %.4f outside acceptance band [%.2f, %.2f]"
           c.label cur lo hi);
      row r c base (Some cur) "FAIL";
      false
  | Some _ | None -> true

let finish r =
  let header =
    Printf.sprintf "%-34s %12s %12s %8s  %s" "metric" "baseline" "current"
      "delta" "status"
  in
  {
    lines = List.rev r.said;
    failures = List.rev r.failed;
    summary = header :: List.rev r.rows;
  }

(* --- the gate -------------------------------------------------------- *)

let run ?(tolerance = 0.25) ?(wall_tolerance = 0.25) ?(allow_missing = false)
    ~baseline ~current () =
  let static_checks =
    [
      of_path ~label:"high-load messages/CS" ~tolerance ~band:eq4_band
        [ "derived"; "high_load"; "messages_per_cs" ];
      of_path ~label:"light-load messages/CS" ~tolerance
        [ "derived"; "light_load"; "messages_per_cs" ];
      (* Read-write batching: the 90/10 read-heavy saturated run must
         clear at least twice the exclusive-only throughput on the
         same seed — the payoff the shared-grant machinery exists for. *)
      of_path ~label:"rw read-heavy speedup" ~tolerance
        ~band:(2.0, infinity) ~direction:Lower_bad
        [ "derived"; "rw"; "speedup" ];
      of_path ~label:"total wall-clock" ~tolerance:wall_tolerance
        [ "total_seconds" ];
    ]
  in
  (* Per-N band checks generated from the current run's dmutex scale
     row: Eq. 4 must hold at every swept N — including N far past the
     paper's largest experiment — and each cell is compared against
     the baseline's matching cell. *)
  let scale_checks =
    match scale_row current with
    | None -> []
    | Some row ->
        let per_n n =
          {
            label = Printf.sprintf "scale dmutex messages/CS @ N=%d" n;
            dotted = Printf.sprintf "derived.scale[dmutex][n=%d]" n;
            probe = scale_cell_probe ~n;
            tolerance;
            absolute_tolerance = None;
            band = Some eq4_band;
            direction = Higher_bad;
          }
        in
        List.map per_n (List.filter_map cell_n (scale_cells row))
        @ [
            {
              label = "scale dmutex exponent";
              dotted = "derived.scale[dmutex].exponent";
              probe = scale_exponent_probe;
              tolerance;
              absolute_tolerance = Some exponent_tolerance;
              band = None;
              direction = Higher_bad;
            };
          ]
  in
  let r = { said = []; failed = []; rows = [] } in
  (* The scale table is a gated artefact: if the current run dropped it
     entirely the per-N band checks silently vanish, so its absence is
     itself a failure (unless the run was deliberately sectioned with
     [allow_missing]). *)
  (match scale_row current with
  | Some _ -> ()
  | None ->
      if allow_missing then
        say r "skip scale table: no derived.scale in current run"
      else
        fail r
          "FAIL scale table: current run has no derived.scale dmutex row \
           (bench ran without the lab section?)");
  List.iter
    (fun c ->
      match (c.probe baseline, c.probe current) with
      | None, cur ->
          fail r
            (Printf.sprintf "FAIL %s: baseline has no %s — regenerate the \
                             baseline"
               c.label c.dotted);
          row r c None cur "FAIL"
      | base, None when allow_missing ->
          say r
            (Printf.sprintf "skip %s: missing %s in current run" c.label
               c.dotted);
          row r c base None "skip"
      | base, None ->
          fail r
            (Printf.sprintf "FAIL %s: missing %s in current run" c.label
               c.dotted);
          row r c base None "FAIL"
      | Some base, Some cur ->
          let rel_ok =
            match c.absolute_tolerance with
            | Some at -> Float.abs (cur -. base) <= at
            | None -> (
                match c.direction with
                | Higher_bad -> cur <= base *. (1. +. c.tolerance)
                | Lower_bad -> cur >= base *. (1. -. c.tolerance))
          in
          let detail =
            match c.absolute_tolerance with
            | Some at ->
                Printf.sprintf "%s: baseline %.4f current %.4f (tol ±%.2f)"
                  c.label base cur at
            | None ->
                let delta = if base = 0. then 0. else (cur -. base) /. base in
                Printf.sprintf
                  "%s: baseline %.4f current %.4f (%+.1f%%, tol %.0f%%)"
                  c.label base cur (100. *. delta) (100. *. c.tolerance)
          in
          if not rel_ok then begin
            fail r ("FAIL " ^ detail ^ " — regression over tolerance");
            row r c (Some base) (Some cur) "FAIL"
          end
          else if within_band r c ~base:(Some base) cur then begin
            say r ("ok   " ^ detail);
            row r c (Some base) (Some cur) "ok"
          end)
    (static_checks @ scale_checks);
  finish r

(* --- the e2e smoke --------------------------------------------------- *)

(* Absolute floors and bands on the live workloads of the end-to-end
   benchmark. The throughput floors sit far below what a 2-core host
   serves in 36 s windows (12.9k-14.0k and about 1.5k grants/s), so
   only a collapse trips them on a shared CI runner. The saturated
   upper bound holds the per-CS cost within 25% of its Eq. 4 value
   (2.6 at 5 nodes); the client path keeps the whole Eq. 4 band. *)
let e2e_checks =
  let metric ~workload ~name band =
    of_path ~label:(workload ^ " " ^ name) ~band
      [ workload; "metrics"; name; "value" ]
  in
  [
    metric ~workload:"live-saturated" ~name:"grants_per_s" (3950., infinity);
    metric ~workload:"live-saturated" ~name:"messages_per_cs" (2.5, 3.25);
    metric ~workload:"client-durable" ~name:"grants_per_s" (250., infinity);
    metric ~workload:"client-durable" ~name:"messages_per_cs" eq4_band;
  ]

let e2e result =
  let r = { said = []; failed = []; rows = [] } in
  List.iter
    (fun c ->
      match c.probe result with
      | None ->
          fail r
            (Printf.sprintf "FAIL %s: missing %s in the e2e result" c.label
               c.dotted);
          row r c None None "FAIL"
      | Some cur ->
          if within_band r c ~base:None cur then begin
            let lo, hi = Option.get c.band in
            say r
              (Printf.sprintf "ok   %s: %.4f in [%.2f, %.2f]" c.label cur lo
                 hi);
            row r c None (Some cur) "ok"
          end)
    e2e_checks;
  finish r
