(** Drive any {!Types.ALGO} state machine inside the simkit
    discrete-event engine and collect the paper's metrics: messages per
    CS invocation (Figure 3), delay per CS (Figure 4), forwarded
    fraction (Figure 5), plus per-message-kind counts and every
    {!Types.note}. *)

(** Per-node activity counters, for the paper's Section 5.1
    load-balance claims: the arbiter role should gravitate to the
    nodes that generate the load. *)
type node_stats = {
  grants : int;  (** CS executions by this node. *)
  dispatches : int;  (** Collection windows this node dispatched as arbiter. *)
  sent : int;  (** Messages this node sent (broadcast = n-1). *)
}

(** Summary of one simulation run. *)
type outcome = {
  algorithm : string;
  n : int;
  rate : float;  (** Per-node Poisson arrival rate; [0.] if closed-loop. *)
  completed : int;  (** CS executions observed. *)
  sim_time : float;  (** Simulated seconds elapsed. *)
  messages : int;  (** Total network messages. *)
  messages_per_cs : float;
  by_kind : (string * int) list;  (** Message counts per protocol kind. *)
  mean_delay : float;  (** Mean request-arrival → CS-exit time. *)
  delay_ci95 : float;
  max_delay : float;
  forwarded : int;
  forwarded_fraction : float;  (** forwarded / total messages (Fig. 5). *)
  retransmits : int;
  dropped_requests : int;
  monitor_passes : int;
  notes : (string * int) list;  (** Every note counter, sorted. *)
  safety_violations : int;
      (** Unsafe CS entries and exits as {!History} judges them (any
          overlap involving an [Exclusive] holder — concurrent
          [Shared] holders are legal); must be 0. *)
  unserved : int;  (** Requests arrived but never served (liveness). *)
  per_node : node_stats array;
}

val pp_outcome : Format.formatter -> outcome -> unit

module Make (A : Types.ALGO) : sig
  type t

  val create :
    ?seed:int ->
    ?trace:Simkit.Trace.t ->
    ?latency:Simkit.Network.latency ->
    ?obs:Dmutex_obs.Registry.t ->
    Types.Config.t ->
    t
  (** Build a simulation: [Config.n] nodes in their initial states.
      [latency] defaults to a constant [t_msg] network; pass e.g.
      [Simkit.Topology.latency] for topology studies. [obs], when
      given, receives the canonical {!Dmutex_obs.Names} series for
      the whole run (all nodes aggregate into the one registry), so
      simulator metrics are directly comparable with a live-cluster
      {!Dmutex_obs.Report}. *)

  val engine : t -> Simkit.Engine.t
  val network : t -> A.message Simkit.Network.t
  val state : t -> int -> A.state
  (** Current protocol state of a node (for tests). *)

  val request : ?mode:Types.mode -> t -> int -> unit
  (** Inject an application CS request at a node, at the current
      simulated time. [mode] defaults to [Exclusive] unless a read mix
      is installed ({!set_read_mix}), in which case an unlabelled
      request draws its mode from the mix. *)

  val set_read_mix : ?seed:int -> t -> float -> unit
  (** [set_read_mix t f] makes every subsequently injected request
      whose mode is not given explicitly a [Shared] request with
      probability [f] (its own RNG stream, so enabling the mix does
      not perturb the network or workload draws). [0.] removes the
      mix. Cleared by {!reset}. *)

  val crash : t -> int -> unit
  (** Fail-stop a node: its messages are dropped, its timers cancelled,
      its inputs ignored. If it held the token, the token dies with it.
      @raise Types.Unsupported_fault if [A.fault_support.crash_stop] is
      false — algorithms without a failure model must not silently
      absorb an injected crash. *)

  val recover : t -> int -> unit
  (** Restart a crashed node with a fresh [rejoin] state (it never
      resurrects a token or role it held before the crash). In a
      closed-loop run the node's request cycle is restarted too. *)

  val set_loss : t -> float -> unit
  (** Uniform message-loss probability, gated on
      [A.fault_support.message_loss] like {!crash} (setting [0.] is
      always allowed).
      @raise Invalid_argument if [p] is outside [\[0, 1\]] or NaN. *)

  val apply_faults : t -> Types.fault_plan -> unit
  (** Validate a fault plan against [A.fault_support] and schedule it
      on the engine, reading each offset as absolute simulated
      seconds. [Restart] crashes the node and {!recover}s it [after]
      seconds later; [Loss] is {!set_loss}; [Partition] and [Heal]
      go to [Simkit.Network.partition]/[heal]. [Partition] needs
      [message_loss] support, since a partition loses messages. The
      whole plan is validated before anything is scheduled, so an
      unsupported algorithm fails at injection time.
      @raise Types.Unsupported_fault on an uncovered fault kind.
      @raise Invalid_argument on out-of-range nodes (partition members
      included), negative times, a non-positive restart delay or
      probabilities outside [\[0, 1\]]. *)

  val on_grant : t -> (node:int -> delay:float -> unit) -> unit
  (** Install a per-grant observer called at each CS completion with
      the node and its request→exit delay — e.g. to feed per-region
      latency histograms in WAN experiments. *)

  val reset : ?seed:int -> t -> unit
  (** Return the simulation to its just-created state while reusing
      every arena: engine agenda, network arrays, per-node tables and
      cached timer closures, stat counters. [reset ~seed t] replays
      exactly the run a fresh [create ~seed cfg] would, so sweep
      replicates at large [n] can share one allocation. *)

  val step_until : t -> float -> unit
  (** Run the engine up to an absolute simulated time. *)

  val run_poisson :
    ?seed:int ->
    ?requests:int ->
    ?rate:float ->
    ?trace:Simkit.Trace.t ->
    ?latency:Simkit.Network.latency ->
    ?obs:Dmutex_obs.Registry.t ->
    Types.Config.t ->
    outcome
  (** Open-loop experiment (the paper's Section 3.3 setup): every node
      draws CS requests from an independent Poisson process of rate
      [rate] (default [1.0]) and the run stops after [requests]
      (default [10_000]) CS executions. *)

  val run_saturated :
    ?seed:int ->
    ?requests:int ->
    ?read_fraction:float ->
    ?trace:Simkit.Trace.t ->
    ?latency:Simkit.Network.latency ->
    ?obs:Dmutex_obs.Registry.t ->
    Types.Config.t ->
    outcome
  (** Closed-loop heavy-load experiment: every node re-requests the CS
      immediately after leaving it, so the Q-list stays full — the
      regime of Eqs. 4-6. [read_fraction] (default [0.]) makes that
      fraction of requests [Shared] — the read-write workload of the
      [rw:throughput] benchmark. *)

  val saturate :
    ?requests:int -> ?faults:Types.fault_plan -> ?until:float -> t -> outcome
  (** The closed-loop experiment on an existing (fresh or {!reset})
      simulation — the arena-reusing core of {!run_saturated}, with an
      optional fault schedule applied before the first request and an
      optional simulated-time horizon [until] (a bound on fault runs
      whose recovery machinery could otherwise retry forever). *)

  val outcome : t -> outcome
  (** Snapshot metrics of a manually driven simulation. *)
end

val replicate :
  runs:int -> (seed:int -> outcome) -> outcome list * (float * float)
(** Run an experiment under [runs] different seeds; return the
    individual outcomes and the (mean, 95% CI half-width) of
    [messages_per_cs] across runs. *)
