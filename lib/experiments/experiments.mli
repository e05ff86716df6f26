(** Reproduction harness for every quantitative artefact in the paper.

    Each [fig*] / [table*] function runs the simulations (replicated
    over several seeds, as the paper's "multiple runs") and returns
    structured rows; [print_*] renders them as the aligned text tables
    the benches and the CLI emit. Parameters default to the paper's
    setup: N = 10 nodes, [T_msg = T_fwd = T_exec = 0.1], Poisson
    arrivals at per-node rate λ, collection phase 0.1 vs 0.2. *)

type point = {
  mean : float;
  ci95 : float;  (** Half-width over the replicated runs. *)
}

type sweep_row = {
  rate : float;  (** Per-node arrival rate λ. *)
  series : (string * point) list;  (** One value per curve. *)
}

val default_rates : float list
(** Log-spaced λ sweep crossing the saturation knee of the paper's
    10-node system. *)

(** {1 Figures 3-5: the basic algorithm under load} *)

val fig3_messages :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list
(** Average messages per CS vs λ, for collection phases 0.1 and 0.2. *)

val fig4_delay :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list
(** Average delay per CS (request arrival → CS exit) vs λ. *)

val fig5_forwarded :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list
(** Fraction of forwarded messages vs λ. *)

val fig345 :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list * sweep_row list * sweep_row list
(** All three figures from one set of simulation runs (they share the
    workload, as in the paper). Returned in order (fig3, fig4, fig5). *)

(** {1 Figure 6: comparison with other algorithms} *)

val fig6_comparison :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list
(** Messages per CS for the new algorithm vs Ricart-Agrawala vs
    Singhal's dynamic algorithm. *)

(** {1 Analytic tables (Equations 1-6)} *)

type bound_row = {
  n_nodes : int;
  analytic : float;
  measured : point;
}

val table_light_load :
  ?requests:int -> ?runs:int -> ?ns:int list -> unit -> bound_row list
(** Eq. 1 vs measured messages/CS at λ → 0, for several N. *)

val table_heavy_load :
  ?requests:int -> ?runs:int -> ?ns:int list -> unit -> bound_row list
(** Eq. 4 vs measured messages/CS at saturation. *)

val table_service_time :
  ?requests:int -> ?runs:int -> ?ns:int list -> unit ->
  bound_row list * bound_row list
(** Eqs. 3 and 6 vs measured delay (light, heavy). The heavy-load
    analytic form models the wait of a random arrival mid-cycle; the
    closed-loop measurement sees a full rotation, so shapes (growth
    with N), not absolute values, are compared. *)

(** {1 Section 4/6 variants} *)

val table_monitor_overhead :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list
(** Messages/CS of the basic vs the starvation-free (monitored)
    variant: the paper claims ≈ +1 message at low load, ≈ +0 at high
    load. *)

type recovery_row = {
  scenario : string;
  completed : int;
  recoveries : int;  (** Two-phase invalidations started. *)
  regenerated : int;  (** Tokens regenerated. *)
  takeovers : int;  (** Arbiter takeovers. *)
  served_after_fault : bool;  (** Did the system keep granting CSs? *)
}

val table_recovery : ?n:int -> unit -> recovery_row list
(** Section 6 fault drills on the resilient variant: lost token
    (holder crash), dropped PRIVILEGE message, arbiter crash, and a
    3-live-node scenario (the paper's minimal operational set). *)

val table_all_algorithms :
  ?n:int -> ?requests:int -> ?runs:int -> unit ->
  (string * point * point) list
(** Every implemented algorithm: (name, messages/CS at low load,
    messages/CS at saturation), for the Section 2.4 context table. *)

val table_message_mix :
  ?n:int -> ?requests:int -> unit ->
  (string * float * float * float * float) list
(** The paper's message accounting, term by term: for each message
    kind (REQUEST, PRIVILEGE, NEW-ARBITER), its measured per-CS count
    at light load and at saturation next to the count implied by
    Eqs. 1 and 4 — (kind, light measured, light analytic, sat
    measured, sat analytic). *)

val print_message_mix :
  Format.formatter -> (string * float * float * float * float) list -> unit

(** {1 Section 5.1: load balance and fairness} *)

type balance_row = {
  node : int;
  req_rate : float;  (** Offered per-node arrival rate. *)
  grants_share : float;  (** Fraction of all CS grants. *)
  arbiter_share : float;  (** Fraction of all arbiter dispatches. *)
  msg_share : float;  (** Fraction of all messages sent. *)
}

val table_load_balance :
  ?n:int -> ?requests:int -> unit -> balance_row list * float
(** Heterogeneous load (node i requests at a rate proportional to i):
    the paper claims the arbiter role lands on nodes in proportion to
    the load they generate, and that idle nodes do no work. Returns
    per-node shares and the Jain fairness index of arbiter duty among
    the {e requesting} nodes. *)

val table_fairness :
  ?n:int -> ?requests:int -> unit -> (string * float * float) list
(** FCFS (basic) vs least-served-first ([Fair]) under a skewed
    workload: (variant, Jain index of per-node grants, messages/CS).
    The stricter Section 5.1 policy should push the grant distribution
    toward 1.0 without a message-cost penalty. *)

val table_delay_model :
  ?n:int -> ?requests:int -> ?runs:int -> ?rates:float list -> unit ->
  sweep_row list
(** Beyond-paper extension: the gated-M/D/1 interpolation of
    {!Dmutex.Analysis.predicted_delay} against simulation at
    intermediate loads (the paper analyses only the two extremes).
    Series: predicted, measured. *)

(** {1 Topology sensitivity} *)

val table_topology :
  ?n:int -> ?requests:int -> unit ->
  (string * float * float * float) list
(** The paper assumes nothing about topology (Section 2.1). For each
    standard topology (per-hop latency 0.1): (name, mean hop distance,
    messages/CS at saturation, delay/CS at saturation). Message counts
    must be invariant; delay must scale with mean distance. *)

(** {1 Big-N comparison lab} *)

type scale_cell = {
  n_nodes : int;
  msgs : point;  (** Messages per CS at saturation. *)
  dly : point;  (** Mean request→exit delay. *)
  alloc_mb : float;
      (** Total GC-reported bytes allocated by the sweep point, in MB:
          the memory cost of simulating this (algorithm, N) — the
          per-point arena keeps it flat in the number of replicates.
          Approximate when several Pool domains share the OCaml 4.14
          threads fallback. *)
}

type scale_row = {
  algorithm : string;
  cells : scale_cell list;  (** Sorted by [n_nodes]. *)
  exponent : float;
      (** Least-squares slope of ln(messages/CS) vs ln(N): ≈0 for the
          paper's algorithm (Eq. 4 tends to the constant 3), ≈1 for
          broadcast-per-CS baselines. *)
}

val default_scale_ns : int list
(** [10; 50; 100; 250; 500; 1000] — the De Turck-style sweep two
    orders of magnitude past the paper's N=10. *)

val default_scale_requests : algorithm:string -> n:int -> int
(** The default per-point CS target: two saturated epochs ([2*N]) —
    the dmutex Eq. 4 band needs at least one full epoch, and the
    broadcast baselines' O(N²) start-up flood then amortizes over
    enough grants to approximate steady state. The [algorithm] label
    is accepted so callers can reshape the budget per algorithm. *)

val table_scale :
  ?ns:int list ->
  ?requests_at:(algorithm:string -> n:int -> int) ->
  ?replicates:int ->
  unit ->
  scale_row list
(** Saturated messages/CS, delay, and simulation memory for every
    implemented algorithm across [ns] (default {!default_scale_ns}).
    [requests_at] maps an (algorithm, N) point to its CS target
    (default {!default_scale_requests}); [replicates] (default 2) runs
    per point share one arena via [Sim_runner.reset]. Points are
    dispatched through [Simkit.Pool]; parallel output is bit-for-bit
    equal to sequential except the non-semantic [alloc_mb] field. *)

type wan_region_stats = {
  region : int;
  grants : int;  (** CS grants observed in this region. *)
  p50 : float;
  p95 : float;
  p99 : float;  (** Request→exit latency percentiles, seconds. *)
}

type wan_row = {
  wan_algorithm : string;
  scenario : string;  (** [lan-uniform], [wan-regions] or [wan-pareto]. *)
  wan_msgs : float;
  wan_mean_delay : float;
  regions : wan_region_stats list;
}

val table_wan : ?n:int -> ?requests:int -> unit -> wan_row list
(** Multi-region and heavy-tailed delay models: [n] (default 12) nodes
    in three regions under a US/EU/APAC-shaped latency matrix with
    lognormal jitter, plus a uniform-LAN control and a truncated-Pareto
    tail, for the paper's algorithm and two baselines. Reports
    messages/CS and per-region CS latency percentiles. *)

type fault_row = {
  fault_algorithm : string;
  supported : bool;
      (** False when the algorithm's [fault_support] rejected the
          plan — no numbers are fabricated for it. *)
  fault_completed : int;
  fault_msgs : float;
  fault_mean_delay : float;
  fault_max_delay : float;
  fault_unserved : int;
}

val table_faults : ?n:int -> ?requests:int -> unit -> fault_row list
(** One fault schedule (two crash-and-restarts plus a 5% loss window)
    replayed verbatim against the resilient variant and every
    baseline, so recovery cost is a compared metric. Baselines without
    a failure model appear as [supported = false] rows — the loud
    {!Dmutex.Types.Unsupported_fault} path — rather than as silently
    wrong measurements. *)

(** {1 Ablations} *)

val table_collection_tuning :
  ?n:int -> ?requests:int -> ?runs:int -> ?t_collects:float list ->
  ?rate:float -> unit -> sweep_row list
(** DESIGN.md ablation: messages/CS and delay as the collection phase
    length varies (the paper's central tuning knob), at a fixed λ.
    The [rate] field of each row holds the collection length. *)

val table_skip_broadcast :
  ?n:int -> ?requests:int -> ?runs:int -> unit -> sweep_row list
(** DESIGN.md ablation: the Section 3.1 NEW-ARBITER suppression option
    on vs off, at low load where it matters. *)

val table_forwarding_tuning :
  ?n:int -> ?requests:int -> ?runs:int -> ?t_forwards:float list ->
  ?rate:float -> unit -> sweep_row list
(** The paper's second knob (Sections 2.1, 7): the forwarding-phase
    length. Short phases strand more late requests (relayed or
    retransmitted instead of forwarded); long phases keep the old
    arbiter busy. Rows keyed by [t_forward]; series: forwarded
    fraction, delay, messages/CS. *)

(** {1 Rendering} *)

val print_sweep :
  ?xlabel:string -> title:string -> Format.formatter -> sweep_row list -> unit

val print_bounds :
  title:string -> Format.formatter -> bound_row list -> unit

val print_recovery : Format.formatter -> recovery_row list -> unit

val print_balance :
  Format.formatter -> balance_row list * float -> unit

val print_fairness :
  Format.formatter -> (string * float * float) list -> unit

val print_topology :
  Format.formatter -> (string * float * float * float) list -> unit

val print_algorithms :
  Format.formatter -> (string * point * point) list -> unit

val print_scale : Format.formatter -> scale_row list -> unit
val print_wan : Format.formatter -> wan_row list -> unit
val print_faults : Format.formatter -> fault_row list -> unit

(** Machine-readable CSV output for every artefact above. *)
module Csv : sig
  (** Machine-readable output for every experiment artefact: plain CSV
      with a header row, one line per data point, mean and 95% CI
      half-width side by side. Suitable for gnuplot / matplotlib /
      spreadsheets. *)

  val of_sweep : sweep_row list -> string
  (** Header: [x,<series> mean,<series> ci95,...]. *)

  val of_bounds : bound_row list -> string
  (** Header: [n,analytic,measured,ci95,ratio]. *)

  val of_recovery : recovery_row list -> string

  val of_algorithms :
    (string * point * point) list -> string

  val of_balance : balance_row list * float -> string
  (** The Jain index is appended as a trailing comment line. *)

  val of_topology : (string * float * float * float) list -> string

  val write : dir:string -> name:string -> string -> string
  (** [write ~dir ~name csv] stores [csv] as [dir/name.csv] (creating
      [dir] if missing) and returns the path. *)

end
