(** Closed-form performance bounds from Section 3 of the paper
    (Equations 1-6), plus the textbook per-CS message counts of the
    comparison algorithms quoted in Sections 2.4 and 3.3. All are exact
    transcriptions; the benches print them next to measured values. *)

val light_load_messages : n:int -> float
(** Eq. 1: average messages per CS invocation at very light load,
    [(N^2 - 1) / N]; tends to [N] (Eq. 2). *)

val heavy_load_messages : n:int -> float
(** Eq. 4: average messages per CS at saturation, [3 - 2/N]; tends to
    [3] (Eq. 5). *)

val light_load_service_time : Types.Config.t -> float
(** Eq. 3: average service time per CS at light load,
    [(1 - 1/N) * 2 * T_msg + T_req + T_exec]. *)

val heavy_load_service_time : Types.Config.t -> float
(** Eq. 6: average service time at heavy load,
    [(1 - 1/N) * T_msg + T_req + (N/2 + 1)(T_msg + T_exec)]. *)

val utilization : Types.Config.t -> rate:float -> float
(** Offered load ρ = N·λ·(T_msg + T_exec): the fraction of time the
    token is busy moving or serving. ρ ≥ 1 means the open-loop system
    is beyond saturation and queues grow without bound. *)

val predicted_delay : Types.Config.t -> rate:float -> float option
(** Heuristic mean delay per CS at per-node Poisson rate λ, bridging
    the paper's two extremes (Eqs. 3 and 6) with an M/D/1-style
    queueing term under the gated-service correction:
    base + ρ·S·(1 + ρ) ∕ (2(1 − ρ)) where S = T_msg + T_exec.
    The base's residual collection window, [T_req/2], models the
    paper's fixed windows: with [Config.early_close] on (the
    [Resilient] preset) a lightly loaded arbiter skips most of it, and
    the measured delay sits up to [T_req/2] below this prediction.
    [None] when ρ ≥ 1 (no steady state). The paper only analyses the
    extremes; simulation validates this interpolation to within ≈ 15%
    for ρ ≤ 0.8 (see the test suite). *)

val no_starvation_bound : Types.Config.t -> float
(** Eq. 7's left-hand side [T_privilege + T_exec + T_req] with
    [T_privilege = T_msg]: the budget that must exceed the forwarding
    path for indefinite forwarding to be impossible under deterministic
    timing (Section 4). *)

(** Reference per-CS message counts for the comparison algorithms, as
    cited by the paper. *)
module Reference : sig
  val ricart_agrawala : n:int -> float
  (** [2 (N - 1)] at every load. *)

  val suzuki_kasami : n:int -> float
  (** [N] when the requester does not hold the token. *)

  val maekawa : n:int -> float
  (** Between [3 sqrt N] and [5 sqrt N]; we return [3 sqrt N]. *)

  val central_server : float
  (** 3 messages: request, grant, release. *)
end
