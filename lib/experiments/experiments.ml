open Dmutex

type point = { mean : float; ci95 : float }

type sweep_row = { rate : float; series : (string * point) list }

let default_rates = [ 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.5; 1.0; 2.0; 5.0 ]

module RBasic = Sim_runner.Make (Basic)
module RMon = Sim_runner.Make (Monitored)
module RRes = Sim_runner.Make (Resilient)
module RRA = Sim_runner.Make (Baselines.Ricart_agrawala)
module RSing = Sim_runner.Make (Baselines.Singhal)
module RSK = Sim_runner.Make (Baselines.Suzuki_kasami)
module RRay = Sim_runner.Make (Baselines.Raymond)
module RMk = Sim_runner.Make (Baselines.Maekawa)
module RCs = Sim_runner.Make (Baselines.Central_server)
module RLam = Sim_runner.Make (Baselines.Lamport)
module RTq = Sim_runner.Make (Baselines.Tree_quorum)

(* Every simulation point below owns its own [Rng]/[Engine]/[Network]
   and is seeded only by its position in the sweep, so sweeps dispatch
   independent points through [Simkit.Pool] — parallel results are
   bit-for-bit identical to a sequential run (DMUTEX_JOBS=1). *)

(* Replicate an experiment over [runs] seeds and summarize one metric
   with its across-runs 95% CI — the paper's "multiple runs" CIs. *)
let replicated ~runs f metric =
  let outcomes = Simkit.Pool.init runs ~f:(fun k -> f ~seed:(1000 + (7919 * k))) in
  let tally = Simkit.Stats.Tally.create () in
  List.iter (fun o -> Simkit.Stats.Tally.add tally (metric o)) outcomes;
  {
    mean = Simkit.Stats.Tally.mean tally;
    ci95 = Simkit.Stats.Tally.ci95_halfwidth tally;
  }

let messages (o : Sim_runner.outcome) = o.messages_per_cs
let delay (o : Sim_runner.outcome) = o.mean_delay
let forwarded (o : Sim_runner.outcome) = o.forwarded_fraction

(* ------------------------------------------------------------------ *)
(* Figures 3-5                                                         *)

let basic_outcomes ~n ~requests ~runs ~rates () =
  (* For each λ and each collection length, the list of replicated
     outcomes. *)
  Simkit.Pool.map rates ~f:(fun rate ->
      let per_collect t_collect =
        let cfg = Basic.config ~t_collect ~n () in
        Simkit.Pool.init runs ~f:(fun k ->
            RBasic.run_poisson ~seed:(1000 + (7919 * k)) ~requests ~rate cfg)
      in
      (rate, per_collect 0.1, per_collect 0.2))

let summarize outcomes metric =
  let tally = Simkit.Stats.Tally.create () in
  List.iter (fun o -> Simkit.Stats.Tally.add tally (metric o)) outcomes;
  {
    mean = Simkit.Stats.Tally.mean tally;
    ci95 = Simkit.Stats.Tally.ci95_halfwidth tally;
  }

let fig345 ?(n = 10) ?(requests = 50_000) ?(runs = 3) ?(rates = default_rates)
    () =
  let data = basic_outcomes ~n ~requests ~runs ~rates () in
  let build metric =
    List.map
      (fun (rate, o1, o2) ->
        {
          rate;
          series =
            [
              ("Tcoll=0.1", summarize o1 metric);
              ("Tcoll=0.2", summarize o2 metric);
            ];
        })
      data
  in
  (build messages, build delay, build forwarded)

let fig3_messages ?n ?requests ?runs ?rates () =
  let f3, _, _ = fig345 ?n ?requests ?runs ?rates () in
  f3

let fig4_delay ?n ?requests ?runs ?rates () =
  let _, f4, _ = fig345 ?n ?requests ?runs ?rates () in
  f4

let fig5_forwarded ?n ?requests ?runs ?rates () =
  let _, _, f5 = fig345 ?n ?requests ?runs ?rates () in
  f5

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)

let fig6_comparison ?(n = 10) ?(requests = 50_000) ?(runs = 3)
    ?(rates = default_rates) () =
  let cfg = Types.Config.default ~n in
  Simkit.Pool.map rates ~f:(fun rate ->
      let new_alg =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate cfg)
          messages
      in
      let ra =
        replicated ~runs
          (fun ~seed -> RRA.run_poisson ~seed ~requests ~rate cfg)
          messages
      in
      let sing =
        replicated ~runs
          (fun ~seed -> RSing.run_poisson ~seed ~requests ~rate cfg)
          messages
      in
      {
        rate;
        series =
          [
            ("this-paper", new_alg);
            ("ricart-agrawala", ra);
            ("singhal-dynamic", sing);
          ];
      })

(* ------------------------------------------------------------------ *)
(* Analytic tables                                                     *)

type bound_row = { n_nodes : int; analytic : float; measured : point }

let low_rate = 0.005
(* λ low enough that requests essentially never overlap for any N we
   sweep: the Eq. 1 regime. *)

let table_light_load ?(requests = 20_000) ?(runs = 3)
    ?(ns = [ 5; 10; 20; 50 ]) () =
  Simkit.Pool.map ns ~f:(fun n ->
      let cfg = Basic.config ~n () in
      let measured =
        replicated ~runs
          (fun ~seed ->
            RBasic.run_poisson ~seed ~requests ~rate:low_rate cfg)
          messages
      in
      { n_nodes = n; analytic = Analysis.light_load_messages ~n; measured })

let table_heavy_load ?(requests = 50_000) ?(runs = 3)
    ?(ns = [ 5; 10; 20; 50 ]) () =
  Simkit.Pool.map ns ~f:(fun n ->
      let cfg = Basic.config ~n () in
      let measured =
        replicated ~runs
          (fun ~seed -> RBasic.run_saturated ~seed ~requests cfg)
          messages
      in
      { n_nodes = n; analytic = Analysis.heavy_load_messages ~n; measured })

let table_service_time ?(requests = 20_000) ?(runs = 3)
    ?(ns = [ 5; 10; 20; 50 ]) () =
  let light =
    Simkit.Pool.map ns ~f:(fun n ->
        let cfg = Basic.config ~n () in
        let measured =
          replicated ~runs
            (fun ~seed ->
              RBasic.run_poisson ~seed ~requests ~rate:low_rate cfg)
            delay
        in
        {
          n_nodes = n;
          analytic = Analysis.light_load_service_time cfg;
          measured;
        })
  in
  let heavy =
    Simkit.Pool.map ns ~f:(fun n ->
        let cfg = Basic.config ~n () in
        let measured =
          replicated ~runs
            (fun ~seed -> RBasic.run_saturated ~seed ~requests cfg)
            delay
        in
        {
          n_nodes = n;
          analytic = Analysis.heavy_load_service_time cfg;
          measured;
        })
  in
  (light, heavy)

(* ------------------------------------------------------------------ *)
(* Monitor overhead (Section 4)                                        *)

let table_monitor_overhead ?(n = 10) ?(requests = 30_000) ?(runs = 3)
    ?(rates = [ 0.01; 0.05; 0.2; 0.5; 2.0 ]) () =
  let basic_cfg = Basic.config ~n () in
  let mon_cfg = Monitored.config ~n () in
  Simkit.Pool.map rates ~f:(fun rate ->
      let basic =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate basic_cfg)
          messages
      in
      let mon =
        replicated ~runs
          (fun ~seed -> RMon.run_poisson ~seed ~requests ~rate mon_cfg)
          messages
      in
      {
        rate;
        series =
          [
            ("basic", basic);
            ("monitored", mon);
            ( "overhead",
              { mean = mon.mean -. basic.mean; ci95 = mon.ci95 +. basic.ci95 }
            );
          ];
      })

(* ------------------------------------------------------------------ *)
(* Recovery drills (Section 6)                                         *)

type recovery_row = {
  scenario : string;
  completed : int;
  recoveries : int;
  regenerated : int;
  takeovers : int;
  served_after_fault : bool;
}

let note o name = List.assoc_opt name (o : Sim_runner.outcome).notes
let note0 o name = Option.value ~default:0 (note o name)

(* Drive a resilient simulation under load; from t=5.0 keep probing
   every 50 ms until the fault can actually be injected (e.g. the
   token may be in flight at any single sampling instant), then
   observe whether service continues. [inject] returns [true] once it
   has fired. *)
let drill ~n ~scenario ~inject () =
  let cfg =
    Resilient.config ~token_timeout:2.0 ~enquiry_timeout:1.0
      ~arbiter_timeout:3.0 ~n ()
  in
  let t = RRes.create ~seed:77 cfg in
  let engine = RRes.engine t in
  let rng = Simkit.Rng.create 4242 in
  for i = 0 to n - 1 do
    let node_rng = Simkit.Rng.split rng in
    ignore
      (Simkit.Workload.poisson engine ~rng:node_rng ~rate:0.3
         ~on_arrival:(fun _ -> RRes.request t i))
  done;
  let rec arm_probe delay =
    ignore
      (Simkit.Engine.schedule engine ~delay (fun _ ->
           if not (inject t) then arm_probe 0.05))
  in
  arm_probe 5.0;
  RRes.step_until t 5.0;
  let before = (RRes.outcome t).completed in
  RRes.step_until t 120.0;
  let o = RRes.outcome t in
  {
    scenario;
    completed = o.completed;
    recoveries = note0 o "recovery-started";
    regenerated = note0 o "token-regenerated";
    takeovers = note0 o "arbiter-takeover";
    served_after_fault = o.completed > before + 10;
  }

let find_node ~n t pred =
  let rec go i =
    if i >= 0 then if pred (RRes.state t i) then Some i else go (i - 1)
    else None
  in
  go (n - 1)

let table_recovery ?(n = 10) () =
  let holder_crash () =
    drill ~n ~scenario:"token holder crashes in CS" ~inject:(fun t ->
        match
          find_node ~n t (fun st ->
              st.Protocol.in_cs || st.Protocol.token <> None)
        with
        | Some i ->
            RRes.crash t i;
            true
        | None -> false)
      ()
  in
  let privilege_drop () =
    drill ~n ~scenario:"PRIVILEGE message lost in transit" ~inject:(fun t ->
        let dropped = ref false in
        Simkit.Network.set_interceptor (RRes.network t)
          (fun ~src:_ ~dst:_ msg ->
            match msg with
            | Protocol.Privilege _ when not !dropped ->
                dropped := true;
                Simkit.Network.Drop
            | _ -> Simkit.Network.Deliver);
        true)
      ()
  in
  let arbiter_crash () =
    drill ~n ~scenario:"current arbiter crashes" ~inject:(fun t ->
        let is_arbiter st =
          match st.Protocol.role with
          | Protocol.Await_token _ | Protocol.Collecting _ -> true
          | Protocol.Normal | Protocol.Forwarding _ -> false
        in
        match
          find_node ~n t (fun st -> is_arbiter st && st.Protocol.token = None)
        with
        | Some i ->
            RRes.crash t i;
            true
        | None -> false)
      ()
  in
  let minimal_three () =
    drill ~n ~scenario:"all but three nodes crash" ~inject:(fun t ->
        (* Keep the token holder, the believed arbiter and one more
           node alive: the paper's minimal operational set. *)
        match
          find_node ~n t (fun st ->
              st.Protocol.token <> None || st.Protocol.in_cs)
        with
        | None -> false
        | Some holder ->
            let arbiter = (RRes.state t holder).Protocol.arbiter in
            let third = (holder + 1) mod n in
            let keep =
              List.sort_uniq compare [ holder; arbiter; third ]
            in
            for i = 0 to n - 1 do
              if not (List.mem i keep) then RRes.crash t i
            done;
            true)
      ()
  in
  Simkit.Pool.map
    [ holder_crash; privilege_drop; arbiter_crash; minimal_three ]
    ~f:(fun d -> d ())

(* ------------------------------------------------------------------ *)
(* All-algorithms context table                                        *)

let table_all_algorithms ?(n = 10) ?(requests = 30_000) ?(runs = 3) () =
  let cfg = Types.Config.default ~n in
  let pair (type s)
      (run_poisson :
        seed:int -> requests:int -> rate:float -> Types.Config.t -> s)
      (run_saturated : seed:int -> requests:int -> Types.Config.t -> s)
      (metric : s -> float) =
    ( replicated ~runs
        (fun ~seed -> run_poisson ~seed ~requests ~rate:low_rate cfg)
        metric,
      replicated ~runs
        (fun ~seed -> run_saturated ~seed ~requests cfg)
        metric )
  in
  (* One task per algorithm: each measures its own low-load and
     saturated pair, so the nine algorithms run concurrently. *)
  let algorithms =
    [
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RBasic.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RBasic.run_saturated ~seed ~requests cfg)
            messages
        in
        ("this-paper (basic)", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RSK.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RSK.run_saturated ~seed ~requests cfg)
            messages
        in
        ("suzuki-kasami", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RRay.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RRay.run_saturated ~seed ~requests cfg)
            messages
        in
        ("raymond-tree", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RRA.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RRA.run_saturated ~seed ~requests cfg)
            messages
        in
        ("ricart-agrawala", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RLam.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RLam.run_saturated ~seed ~requests cfg)
            messages
        in
        ("lamport", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RSing.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RSing.run_saturated ~seed ~requests cfg)
            messages
        in
        ("singhal-dynamic", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RMk.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RMk.run_saturated ~seed ~requests cfg)
            messages
        in
        ("maekawa", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RTq.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RTq.run_saturated ~seed ~requests cfg)
            messages
        in
        ("tree-quorum", low, sat));
      (fun () ->
        let low, sat =
          pair
            (fun ~seed ~requests ~rate cfg -> RCs.run_poisson ~seed ~requests ~rate cfg)
            (fun ~seed ~requests cfg -> RCs.run_saturated ~seed ~requests cfg)
            messages
        in
        ("central-server", low, sat));
    ]
  in
  Simkit.Pool.map algorithms ~f:(fun a -> a ())

(* Eq. 1 charges, per non-self CS at light load: 1 REQUEST, (N-1)
   NEW-ARBITER messages, 1 PRIVILEGE; the requester-is-arbiter case
   (probability 1/N) charges nothing. Eq. 4 charges, per N CSs at
   saturation: N REQUESTs (minus the arbiter's own), N-1 PRIVILEGE
   hops and one (N-1)-message broadcast. *)
let table_message_mix ?(n = 10) ?(requests = 30_000) () =
  let nf = float_of_int n in
  let cfg = Basic.config ~n () in
  let low, sat =
    match
      Simkit.Pool.map
        [
          (fun () -> RBasic.run_poisson ~seed:44 ~requests ~rate:low_rate cfg);
          (fun () -> RBasic.run_saturated ~seed:44 ~requests cfg);
        ]
        ~f:(fun s -> s ())
    with
    | [ low; sat ] -> (low, sat)
    | _ -> assert false
  in
  let per_cs (o : Sim_runner.outcome) kind =
    float_of_int
      (match List.assoc_opt kind o.Sim_runner.by_kind with
      | Some v -> v
      | None -> 0)
    /. float_of_int o.Sim_runner.completed
  in
  let non_self = 1.0 -. (1.0 /. nf) in
  (* Saturation analytic terms use the paper's Eq. 4 decomposition:
     N REQUESTs, N-1 PRIVILEGE hops and one (N-1)-message broadcast per
     N critical sections. Our realization swaps one unit between the
     first two terms — the arbiter registers its own request without a
     message (paper charges it) while the token takes one extra hop
     from the dispatching arbiter to Head(Q) (paper folds it away) —
     and the total matches Eq. 4 exactly. *)
  [
    ("REQUEST", per_cs low "REQUEST", non_self, per_cs sat "REQUEST", 1.0);
    ("PRIVILEGE", per_cs low "PRIVILEGE", non_self,
     per_cs sat "PRIVILEGE", non_self);
    ("NEW-ARBITER", per_cs low "NEW-ARBITER", non_self *. (nf -. 1.0),
     per_cs sat "NEW-ARBITER", (nf -. 1.0) /. nf);
  ]

let print_message_mix ppf rows =
  Format.fprintf ppf
    "@[<v>== message mix per CS: Eqs. 1 and 4 term by term (N=10) ==@,";
  Format.fprintf ppf "%-12s | %10s | %10s | %10s | %10s@," "kind"
    "low meas" "low Eq.1" "sat meas" "sat Eq.4";
  List.iter
    (fun (kind, lm, la, sm, sa) ->
      Format.fprintf ppf "%-12s | %10.3f | %10.3f | %10.3f | %10.3f@," kind
        lm la sm sa)
    rows;
  Format.fprintf ppf
    "note: at saturation our realization moves one unit from REQUEST@,";
  Format.fprintf ppf
    "(arbiter self-enqueues, no message) to PRIVILEGE (explicit hop to@,";
  Format.fprintf ppf
    "Head(Q)); the terms swap but the Eq. 4 total is exact.@,@]"

(* ------------------------------------------------------------------ *)
(* Section 5.1: load balance and fairness                              *)

type balance_row = {
  node : int;
  req_rate : float;
  grants_share : float;
  arbiter_share : float;
  msg_share : float;
}

module RFair = Sim_runner.Make (Fair)

let table_load_balance ?(n = 10) ?(requests = 30_000) () =
  (* Node i offers load proportional to i: nodes 0 and 1 are idle
     freeloaders, node n-1 is the chattiest. *)
  let rate i = 0.05 *. float_of_int i in
  let cfg = Basic.config ~n () in
  let t = RBasic.create ~seed:91 cfg in
  let rng = Simkit.Rng.create 17 in
  for i = 0 to n - 1 do
    let node_rng = Simkit.Rng.split rng in
    if rate i > 0.0 then
      ignore
        (Simkit.Workload.poisson (RBasic.engine t) ~rng:node_rng
           ~rate:(rate i) ~on_arrival:(fun _ -> RBasic.request t i))
  done;
  let horizon =
    float_of_int requests
    /. List.fold_left (fun a i -> a +. rate i) 0.0 (List.init n Fun.id)
  in
  RBasic.step_until t horizon;
  let o = RBasic.outcome t in
  let total f =
    float_of_int (Array.fold_left (fun a st -> a + f st) 0 o.Sim_runner.per_node)
  in
  let tg = total (fun st -> st.Sim_runner.grants)
  and td = total (fun st -> st.Sim_runner.dispatches)
  and tm = total (fun st -> st.Sim_runner.sent) in
  let share x t = if t = 0.0 then 0.0 else float_of_int x /. t in
  let rows =
    List.init n (fun i ->
        let st = o.Sim_runner.per_node.(i) in
        {
          node = i;
          req_rate = rate i;
          grants_share = share st.Sim_runner.grants tg;
          arbiter_share = share st.Sim_runner.dispatches td;
          msg_share = share st.Sim_runner.sent tm;
        })
  in
  (* Jain fairness of arbiter duty per unit of offered load, over the
     requesting nodes only: 1.0 = duty exactly proportional to load. *)
  let normalized =
    rows
    |> List.filter (fun r -> r.req_rate > 0.0)
    |> List.map (fun r -> r.arbiter_share /. r.req_rate)
    |> Array.of_list
  in
  (rows, Simkit.Stats.jain_fairness normalized)

let table_fairness ?(n = 8) ?(requests = 20_000) () =
  (* Skewed demand: half the nodes request 4x as often. Measure how
     evenly grants are spread per unit of demand. *)
  let rate i = if i < n / 2 then 0.8 else 0.2 in
  let run (type s m tm)
      (module A : Types.ALGO
        with type state = s and type message = m and type timer = tm) cfg =
    let module R = Sim_runner.Make (A) in
    let t = R.create ~seed:92 cfg in
    let rng = Simkit.Rng.create 23 in
    for i = 0 to n - 1 do
      let node_rng = Simkit.Rng.split rng in
      ignore
        (Simkit.Workload.poisson (R.engine t) ~rng:node_rng ~rate:(rate i)
           ~on_arrival:(fun _ -> R.request t i))
    done;
    let horizon =
      float_of_int requests
      /. List.fold_left (fun a i -> a +. rate i) 0.0 (List.init n Fun.id)
    in
    R.step_until t horizon;
    let o = R.outcome t in
    let per_demand =
      Array.mapi
        (fun i st -> float_of_int st.Sim_runner.grants /. rate i)
        o.Sim_runner.per_node
    in
    (Simkit.Stats.jain_fairness per_demand, o.Sim_runner.messages_per_cs)
  in
  Simkit.Pool.map
    [
      (fun () -> ("fcfs (basic)", run (module Basic) (Basic.config ~n ())));
      (fun () -> ("least-served-first", run (module Fair) (Fair.config ~n ())));
    ]
    ~f:(fun v ->
      let name, (jain, msgs) = v () in
      (name, jain, msgs))

let table_delay_model ?(n = 10) ?(requests = 20_000) ?(runs = 3)
    ?(rates = [ 0.02; 0.1; 0.2; 0.3; 0.4; 0.45 ]) () =
  let cfg = Basic.config ~n () in
  Simkit.Pool.map rates ~f:(fun rate ->
      let measured =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate cfg)
          delay
      in
      let predicted =
        match Analysis.predicted_delay cfg ~rate with
        | Some p -> { mean = p; ci95 = 0.0 }
        | None -> { mean = nan; ci95 = 0.0 }
      in
      { rate; series = [ ("predicted", predicted); ("measured", measured) ] })

(* ------------------------------------------------------------------ *)
(* Topology sensitivity                                                *)

let table_topology ?(n = 10) ?(requests = 20_000) () =
  Simkit.Pool.map Simkit.Topology.all ~f:(fun topo ->
      let cfg = Basic.config ~n () in
      let latency = Simkit.Topology.latency topo ~n ~per_hop:0.1 in
      let o = RBasic.run_saturated ~seed:93 ~requests ~latency cfg in
      ( Format.asprintf "%a" Simkit.Topology.pp topo,
        Simkit.Topology.mean_distance topo ~n,
        o.Sim_runner.messages_per_cs,
        o.Sim_runner.mean_delay ))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let table_collection_tuning ?(n = 10) ?(requests = 30_000) ?(runs = 3)
    ?(t_collects = [ 0.02; 0.05; 0.1; 0.2; 0.5; 1.0 ]) ?(rate = 0.2) () =
  Simkit.Pool.map t_collects ~f:(fun t_collect ->
      let cfg = Basic.config ~t_collect ~n () in
      let msgs =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate cfg)
          messages
      in
      let dly =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate cfg)
          delay
      in
      { rate = t_collect; series = [ ("messages/CS", msgs); ("delay", dly) ] })

let table_skip_broadcast ?(n = 10) ?(requests = 30_000) ?(runs = 3) () =
  let rates = [ 0.005; 0.02; 0.1 ] in
  Simkit.Pool.map rates ~f:(fun rate ->
      let base = Basic.config ~n () in
      let on = { base with Types.Config.skip_new_arbiter_to_tail = true } in
      let m_off =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate base)
          messages
      in
      let m_on =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate on)
          messages
      in
      { rate; series = [ ("broadcast-always", m_off); ("skip-to-tail", m_on) ] })

let table_forwarding_tuning ?(n = 10) ?(requests = 30_000) ?(runs = 3)
    ?(t_forwards = [ 0.0; 0.05; 0.1; 0.2; 0.4 ]) ?(rate = 0.2) () =
  Simkit.Pool.map t_forwards ~f:(fun t_forward ->
      let cfg =
        { (Basic.config ~n ()) with Types.Config.t_forward }
      in
      let run metric =
        replicated ~runs
          (fun ~seed -> RBasic.run_poisson ~seed ~requests ~rate cfg)
          metric
      in
      {
        rate = t_forward;
        series =
          [
            ("forwarded-frac", run forwarded);
            ("messages/CS", run messages);
            ("delay", run delay);
          ];
      })

(* ------------------------------------------------------------------ *)
(* Big-N comparison lab: table:scale, table:wan, table:faults          *)

(* The full comparison set as first-class modules, with each
   algorithm's canonical config for a given N. Every sweep below
   instantiates its own [Sim_runner.Make] at the point, so points stay
   independent and Pool-dispatchable. *)
let comparison_set : (string * (module Types.ALGO) * (int -> Types.Config.t)) list
    =
  [
    ( "this-paper (basic)",
      (module Basic : Types.ALGO),
      fun n -> Basic.config ~n () );
    ( "suzuki-kasami",
      (module Baselines.Suzuki_kasami : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "raymond-tree",
      (module Baselines.Raymond : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "ricart-agrawala",
      (module Baselines.Ricart_agrawala : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "lamport",
      (module Baselines.Lamport : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "singhal-dynamic",
      (module Baselines.Singhal : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "maekawa",
      (module Baselines.Maekawa : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "tree-quorum",
      (module Baselines.Tree_quorum : Types.ALGO),
      fun n -> Types.Config.default ~n );
    ( "central-server",
      (module Baselines.Central_server : Types.ALGO),
      fun n -> Types.Config.default ~n );
  ]

type scale_cell = {
  n_nodes : int;
  msgs : point;
  dly : point;
  alloc_mb : float;
}

type scale_row = {
  algorithm : string;
  cells : scale_cell list;
  exponent : float;
}

let default_scale_ns = [ 10; 50; 100; 250; 500; 1000 ]

(* One sweep point: [replicates] saturated runs at a fixed (algorithm,
   N), all sharing a single simulation arena via [Sim_runner.reset] —
   the per-point state is allocated once, so even N=1000 points cost
   one engine/network/node-array build. [alloc_mb] is the total bytes
   allocated by the point (GC-reported, so minor-heap churn counts),
   the memory-cost metric the scaling table compares. *)
let scale_point (module A : Types.ALGO) cfg ~requests ~replicates =
  let module R = Sim_runner.Make (A) in
  let before = Gc.allocated_bytes () in
  let m_tally = Simkit.Stats.Tally.create () in
  let d_tally = Simkit.Stats.Tally.create () in
  let t = R.create ~seed:1000 cfg in
  for k = 0 to replicates - 1 do
    if k > 0 then R.reset ~seed:(1000 + (7919 * k)) t;
    let o = R.saturate ~requests t in
    Simkit.Stats.Tally.add m_tally o.Sim_runner.messages_per_cs;
    Simkit.Stats.Tally.add d_tally o.Sim_runner.mean_delay
  done;
  let alloc_mb = (Gc.allocated_bytes () -. before) /. (1024.0 *. 1024.0) in
  ( {
      mean = Simkit.Stats.Tally.mean m_tally;
      ci95 = Simkit.Stats.Tally.ci95_halfwidth m_tally;
    },
    {
      mean = Simkit.Stats.Tally.mean d_tally;
      ci95 = Simkit.Stats.Tally.ci95_halfwidth d_tally;
    },
    alloc_mb )

(* Least-squares slope of ln(messages/CS) against ln(N): the empirical
   scaling exponent. ~0 for token-asking algorithms whose per-CS cost
   is O(1) amortized, ~1 for broadcast-per-CS algorithms. *)
let scale_exponent cells =
  let pts =
    List.filter_map
      (fun c ->
        if c.msgs.mean > 0.0 then
          Some (log (float_of_int c.n_nodes), log c.msgs.mean)
        else None)
      cells
  in
  match pts with
  | [] | [ _ ] -> 0.0
  | pts ->
      let n = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
      ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

(* Per-point request budget. Two epochs (2N requests) for every
   algorithm: the dmutex Eq. 4 band needs at least N requests to
   complete a saturated epoch (below that, messages/CS reads under
   2.5), and for broadcast algorithms the O(N²) start-up flood then
   amortizes over enough CS executions to approximate steady state.
   The [~algorithm] parameter lets callers reshape the budget per
   algorithm (e.g. trimming broadcast baselines in a constrained CI
   lane) without forking the sweep. *)
let default_scale_requests ~algorithm:_ ~n = 2 * n

let table_scale ?(ns = default_scale_ns) ?requests_at ?(replicates = 2) () =
  let requests_at =
    match requests_at with Some f -> f | None -> default_scale_requests
  in
  (* One Pool task per (algorithm, N) point: the N=1000 broadcast
     algorithms dominate wall-clock, so finer granularity than
     one-task-per-algorithm keeps the domains busy. *)
  let points =
    List.concat_map
      (fun (name, m, cfg_of) -> List.map (fun n -> (name, m, cfg_of, n)) ns)
      comparison_set
  in
  let cells =
    Simkit.Pool.map points ~f:(fun (name, m, cfg_of, n) ->
        let msgs, dly, alloc_mb =
          scale_point m (cfg_of n)
            ~requests:(requests_at ~algorithm:name ~n)
            ~replicates
        in
        (name, { n_nodes = n; msgs; dly; alloc_mb }))
  in
  List.map
    (fun (name, _, _) ->
      let mine =
        List.filter_map
          (fun (nm, c) -> if String.equal nm name then Some c else None)
          cells
      in
      let mine =
        List.sort (fun a b -> compare a.n_nodes b.n_nodes) mine
      in
      { algorithm = name; cells = mine; exponent = scale_exponent mine })
    comparison_set

type wan_region_stats = {
  region : int;
  grants : int;
  p50 : float;
  p95 : float;
  p99 : float;
}

type wan_row = {
  wan_algorithm : string;
  scenario : string;
  wan_msgs : float;
  wan_mean_delay : float;
  regions : wan_region_stats list;
}

(* Three regions in blocks (nodes 0..n/3-1 in region 0, ...), with a
   one-way latency matrix shaped like a US/EU/APAC triangle (seconds
   scaled to the paper's T_msg=0.1 LAN unit: intra-region fast,
   transpacific slowest). *)
let wan_region_of ~n ~nregions i = i * nregions / n

let wan_scenarios ~n =
  let nregions = 3 in
  let region_of = Array.init n (wan_region_of ~n ~nregions) in
  let base =
    [|
      [| 0.02; 0.12; 0.18 |];
      [| 0.12; 0.02; 0.25 |];
      [| 0.18; 0.25; 0.02 |];
    |]
  in
  ( nregions,
    region_of,
    [
      ("lan-uniform", Simkit.Network.Uniform (0.05, 0.15));
      ( "wan-regions",
        Simkit.Network.regions ~region_of ~base ~jitter_sigma:0.3 () );
      ( "wan-pareto",
        Simkit.Network.Pareto { scale = 0.02; shape = 1.5; cap = 5.0 } );
    ] )

let wan_algorithms =
  List.filter
    (fun (name, _, _) ->
      List.mem name
        [ "this-paper (basic)"; "suzuki-kasami"; "ricart-agrawala" ])
    comparison_set

let table_wan ?(n = 12) ?(requests = 3_000) () =
  let nregions, region_of, scenarios = wan_scenarios ~n in
  let points =
    List.concat_map
      (fun (name, m, cfg_of) ->
        List.map (fun (scen, lat) -> (name, m, cfg_of, scen, lat)) scenarios)
      wan_algorithms
  in
  Simkit.Pool.map points ~f:(fun (name, m, cfg_of, scenario, latency) ->
      let module A = (val m : Types.ALGO) in
      let module R = Sim_runner.Make (A) in
      let t = R.create ~seed:4242 ~latency (cfg_of n) in
      (* Per-region request→exit delay distributions. Saturated delays
         are full-rotation waits (N · (T_exec + latency)), so the
         histogram spans well past the heaviest Pareto rotation. *)
      let hists =
        Array.init nregions (fun _ ->
            Simkit.Stats.Histogram.create ~lo:0.0 ~hi:60.0 ~buckets:1200)
      in
      R.on_grant t (fun ~node ~delay ->
          Simkit.Stats.Histogram.add hists.(region_of.(node)) delay);
      let o = R.saturate ~requests t in
      let regions =
        List.init nregions (fun r ->
            let h = hists.(r) in
            let q x =
              if Simkit.Stats.Histogram.count h = 0 then 0.0
              else Simkit.Stats.Histogram.quantile h x
            in
            {
              region = r;
              grants = Simkit.Stats.Histogram.count h;
              p50 = q 0.5;
              p95 = q 0.95;
              p99 = q 0.99;
            })
      in
      {
        wan_algorithm = name;
        scenario;
        wan_msgs = o.Sim_runner.messages_per_cs;
        wan_mean_delay = o.Sim_runner.mean_delay;
        regions;
      })

type fault_row = {
  fault_algorithm : string;
  supported : bool;
  fault_completed : int;
  fault_msgs : float;
  fault_mean_delay : float;
  fault_max_delay : float;
  fault_unserved : int;
}

(* One schedule replayed verbatim against every algorithm: two
   crash-and-restart events (one early, one mid-run) and a 5% loss
   window from 60 to 75 s. Algorithms without a failure model refuse
   the plan loudly ([Types.Unsupported_fault]) and are reported as
   unsupported rather than silently measured. *)
let default_fault_plan ~n : Types.fault_plan =
  [
    (15.0, Types.Restart { node = 1 mod n; after = 8.0 });
    (40.0, Types.Restart { node = n / 2; after = 10.0 });
    (60.0, Types.Loss 0.05);
    (75.0, Types.Loss 0.0);
  ]

let fault_set ~n:_ =
  ( "this-paper (resilient)",
    (module Resilient : Types.ALGO),
    fun n ->
      Resilient.config ~token_timeout:2.0 ~enquiry_timeout:1.0
        ~arbiter_timeout:3.0 ~n () )
  :: List.filter
       (fun (name, _, _) -> not (String.equal name "this-paper (basic)"))
       comparison_set

let table_faults ?(n = 10) ?(requests = 2_000) () =
  let plan = default_fault_plan ~n in
  Simkit.Pool.map (fault_set ~n) ~f:(fun (name, m, cfg_of) ->
      let module A = (val m : Types.ALGO) in
      let module R = Sim_runner.Make (A) in
      match
        let t = R.create ~seed:77 (cfg_of n) in
        (* Horizon bound: a wedged recovery must end the run, not hang
           the sweep. Generous vs the ~0.2 s/CS saturated cycle. *)
        R.saturate ~requests ~faults:plan
          ~until:(1000.0 +. (0.5 *. float_of_int requests))
          t
      with
      | o ->
          {
            fault_algorithm = name;
            supported = true;
            fault_completed = o.Sim_runner.completed;
            fault_msgs = o.Sim_runner.messages_per_cs;
            fault_mean_delay = o.Sim_runner.mean_delay;
            fault_max_delay = o.Sim_runner.max_delay;
            fault_unserved = o.Sim_runner.unserved;
          }
      | exception Types.Unsupported_fault _ ->
          {
            fault_algorithm = name;
            supported = false;
            fault_completed = 0;
            fault_msgs = 0.0;
            fault_mean_delay = 0.0;
            fault_max_delay = 0.0;
            fault_unserved = 0;
          })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let print_sweep ?(xlabel = "rate") ~title ppf rows =
  Format.fprintf ppf "@[<v>== %s ==@," title;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%10s" xlabel;
      List.iter
        (fun (name, _) -> Format.fprintf ppf " | %22s" name)
        first.series;
      Format.fprintf ppf "@,";
      List.iter
        (fun row ->
          Format.fprintf ppf "%10.3f" row.rate;
          List.iter
            (fun (_, p) ->
              Format.fprintf ppf " | %12.4f +/-%6.4f" p.mean p.ci95)
            row.series;
          Format.fprintf ppf "@,")
        rows);
  Format.fprintf ppf "@]"

let print_bounds ~title ppf rows =
  Format.fprintf ppf "@[<v>== %s ==@,%6s | %12s | %12s | %8s@," title "N"
    "analytic" "measured" "ratio";
  List.iter
    (fun (r : bound_row) ->
      Format.fprintf ppf "%6d | %12.4f | %12.4f | %8.3f@," r.n_nodes r.analytic
        r.measured.mean
        (r.measured.mean /. r.analytic))
    rows;
  Format.fprintf ppf "@]"

let print_recovery ppf rows =
  Format.fprintf ppf
    "@[<v>== Section 6 recovery drills (resilient variant) ==@,";
  Format.fprintf ppf "%-34s | %9s | %10s | %11s | %9s | %s@," "scenario"
    "completed" "recoveries" "regenerated" "takeovers" "progress";
  List.iter
    (fun (r : recovery_row) ->
      Format.fprintf ppf "%-34s | %9d | %10d | %11d | %9d | %s@," r.scenario
        r.completed r.recoveries r.regenerated r.takeovers
        (if r.served_after_fault then "RESUMED" else "STALLED"))
    rows;
  Format.fprintf ppf "@]"

let print_balance ppf (rows, jain) =
  Format.fprintf ppf
    "@[<v>== Section 5.1 load balance (heterogeneous demand) ==@,";
  Format.fprintf ppf "%5s | %8s | %12s | %13s | %10s@," "node" "rate"
    "grants-share" "arbiter-share" "msg-share";
  List.iter
    (fun r ->
      Format.fprintf ppf "%5d | %8.3f | %12.3f | %13.3f | %10.3f@," r.node
        r.req_rate r.grants_share r.arbiter_share r.msg_share)
    rows;
  Format.fprintf ppf
    "Jain index of arbiter duty per unit load (requesters): %.3f@,@]" jain

let print_fairness ppf rows =
  Format.fprintf ppf
    "@[<v>== Section 5.1 strict fairness: FCFS vs least-served-first ==@,";
  Format.fprintf ppf "%-20s | %16s | %12s@," "policy" "Jain(grants/rate)"
    "messages/CS";
  List.iter
    (fun (name, jain, msgs) ->
      Format.fprintf ppf "%-20s | %16.4f | %12.3f@," name jain msgs)
    rows;
  Format.fprintf ppf "@]"

let print_topology ppf rows =
  Format.fprintf ppf
    "@[<v>== topology sensitivity (saturated, per-hop latency 0.1) ==@,";
  Format.fprintf ppf "%-10s | %10s | %12s | %10s@," "topology" "mean-hops"
    "messages/CS" "delay/CS";
  List.iter
    (fun (name, hops, msgs, delay) ->
      Format.fprintf ppf "%-10s | %10.2f | %12.3f | %10.3f@," name hops msgs
        delay)
    rows;
  Format.fprintf ppf "@]"

let print_algorithms ppf rows =
  Format.fprintf ppf "@[<v>== messages per CS: all algorithms (N=10) ==@,";
  Format.fprintf ppf "%-22s | %22s | %22s@," "algorithm" "low load"
    "saturation";
  List.iter
    (fun (name, low, sat) ->
      Format.fprintf ppf "%-22s | %12.3f +/-%6.3f | %12.3f +/-%6.3f@," name
        low.mean low.ci95 sat.mean sat.ci95)
    rows;
  Format.fprintf ppf "@]"

let print_scale ppf rows =
  Format.fprintf ppf "@[<v>== big-N scaling: messages/CS (top), delay, alloc MB ==@,";
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-22s" "algorithm";
      List.iter
        (fun c -> Format.fprintf ppf " | N=%-9d" c.n_nodes)
        first.cells;
      Format.fprintf ppf " | %8s@," "exponent";
      List.iter
        (fun r ->
          Format.fprintf ppf "%-22s" r.algorithm;
          List.iter
            (fun c -> Format.fprintf ppf " | %11.3f" c.msgs.mean)
            r.cells;
          Format.fprintf ppf " | %8.3f@," r.exponent;
          Format.fprintf ppf "%-22s" "  delay";
          List.iter
            (fun c -> Format.fprintf ppf " | %11.3f" c.dly.mean)
            r.cells;
          Format.fprintf ppf " |@,";
          Format.fprintf ppf "%-22s" "  alloc-MB";
          List.iter
            (fun c -> Format.fprintf ppf " | %11.2f" c.alloc_mb)
            r.cells;
          Format.fprintf ppf " |@,")
        rows);
  Format.fprintf ppf "@]"

let print_wan ppf rows =
  Format.fprintf ppf
    "@[<v>== WAN delay models: per-region CS latency percentiles ==@,";
  Format.fprintf ppf "%-22s | %-12s | %11s | %6s | %8s %8s %8s@," "algorithm"
    "scenario" "messages/CS" "region" "p50" "p95" "p99";
  List.iter
    (fun r ->
      List.iteri
        (fun i reg ->
          Format.fprintf ppf "%-22s | %-12s | %11s | %6d | %8.3f %8.3f %8.3f@,"
            (if i = 0 then r.wan_algorithm else "")
            (if i = 0 then r.scenario else "")
            (if i = 0 then Printf.sprintf "%.3f" r.wan_msgs else "")
            reg.region reg.p50 reg.p95 reg.p99)
        r.regions)
    rows;
  Format.fprintf ppf "@]"

let print_faults ppf rows =
  Format.fprintf ppf
    "@[<v>== uniform fault schedule: recovery cost per algorithm ==@,";
  Format.fprintf ppf "%-24s | %-11s | %9s | %11s | %10s | %9s | %8s@,"
    "algorithm" "faults" "completed" "messages/CS" "mean-delay" "max-delay"
    "unserved";
  List.iter
    (fun r ->
      if r.supported then
        Format.fprintf ppf "%-24s | %-11s | %9d | %11.3f | %10.3f | %9.3f | %8d@,"
          r.fault_algorithm "injected" r.fault_completed r.fault_msgs
          r.fault_mean_delay r.fault_max_delay r.fault_unserved
      else
        Format.fprintf ppf "%-24s | %-11s | %9s | %11s | %10s | %9s | %8s@,"
          r.fault_algorithm "UNSUPPORTED" "-" "-" "-" "-" "-")
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* CSV export                                                          *)

module Csv = struct
  let buf_add_row buf cells =
    Buffer.add_string buf (String.concat "," cells);
    Buffer.add_char buf '\n'

  (* Quote a field if it contains a comma or a quote. *)
  let field s =
    if String.exists (fun c -> c = ',' || c = '"') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s

  let of_sweep (rows : sweep_row list) =
    let buf = Buffer.create 1024 in
    (match rows with
    | [] -> buf_add_row buf [ "x" ]
    | first :: _ ->
        buf_add_row buf
          ("x"
          :: List.concat_map
               (fun (name, _) ->
                 [ field (name ^ " mean"); field (name ^ " ci95") ])
               first.series);
        List.iter
          (fun (row : sweep_row) ->
            buf_add_row buf
              (Printf.sprintf "%g" row.rate
              :: List.concat_map
                   (fun (_, (p : point)) ->
                     [ Printf.sprintf "%g" p.mean; Printf.sprintf "%g" p.ci95 ])
                   row.series))
          rows);
    Buffer.contents buf

  let of_bounds (rows : bound_row list) =
    let buf = Buffer.create 512 in
    buf_add_row buf [ "n"; "analytic"; "measured"; "ci95"; "ratio" ];
    List.iter
      (fun (r : bound_row) ->
        buf_add_row buf
          [
            string_of_int r.n_nodes;
            Printf.sprintf "%g" r.analytic;
            Printf.sprintf "%g" r.measured.mean;
            Printf.sprintf "%g" r.measured.ci95;
            Printf.sprintf "%g" (r.measured.mean /. r.analytic);
          ])
      rows;
    Buffer.contents buf

  let of_recovery (rows : recovery_row list) =
    let buf = Buffer.create 512 in
    buf_add_row buf
      [
        "scenario"; "completed"; "recoveries"; "regenerated"; "takeovers";
        "resumed";
      ];
    List.iter
      (fun (r : recovery_row) ->
        buf_add_row buf
          [
            field r.scenario;
            string_of_int r.completed;
            string_of_int r.recoveries;
            string_of_int r.regenerated;
            string_of_int r.takeovers;
            string_of_bool r.served_after_fault;
          ])
      rows;
    Buffer.contents buf

  let of_algorithms rows =
    let buf = Buffer.create 512 in
    buf_add_row buf
      [ "algorithm"; "low mean"; "low ci95"; "sat mean"; "sat ci95" ];
    List.iter
      (fun (name, (low : point), (sat : point)) ->
        buf_add_row buf
          [
            field name;
            Printf.sprintf "%g" low.mean;
            Printf.sprintf "%g" low.ci95;
            Printf.sprintf "%g" sat.mean;
            Printf.sprintf "%g" sat.ci95;
          ])
      rows;
    Buffer.contents buf

  let of_balance ((rows : balance_row list), jain) =
    let buf = Buffer.create 512 in
    buf_add_row buf
      [ "node"; "rate"; "grants_share"; "arbiter_share"; "msg_share" ];
    List.iter
      (fun (r : balance_row) ->
        buf_add_row buf
          [
            string_of_int r.node;
            Printf.sprintf "%g" r.req_rate;
            Printf.sprintf "%g" r.grants_share;
            Printf.sprintf "%g" r.arbiter_share;
            Printf.sprintf "%g" r.msg_share;
          ])
      rows;
    Buffer.add_string buf (Printf.sprintf "# jain_index,%g\n" jain);
    Buffer.contents buf

  let of_topology rows =
    let buf = Buffer.create 512 in
    buf_add_row buf [ "topology"; "mean_hops"; "messages_per_cs"; "delay" ];
    List.iter
      (fun (name, hops, msgs, delay) ->
        buf_add_row buf
          [
            field name;
            Printf.sprintf "%g" hops;
            Printf.sprintf "%g" msgs;
            Printf.sprintf "%g" delay;
          ])
      rows;
    Buffer.contents buf

  let write ~dir ~name csv =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc csv);
    path

end
