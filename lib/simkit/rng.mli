(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (SplitMix64). Every simulation
    takes an explicit [Rng.t] so that experiments are reproducible from
    a seed alone, and [split] lets independent components (one workload
    generator per node, the network delay model, ...) draw from
    statistically independent streams without sharing mutable state. *)

type t
(** A mutable generator. Not thread-safe; use [split] to hand separate
    generators to separate threads. *)

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** Snapshot of the generator state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64 pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. [bound] must be
    positive. *)

val bool : t -> bool

val uniform : t -> float
(** Uniform on [\[0, 1)]. *)

val float : t -> float -> float
(** [float t x] is uniform on [\[0, x)]. *)

val range : t -> float -> float -> float
(** [range t lo hi] is uniform on [\[lo, hi)]. *)

val gaussian : t -> float
(** Draw from the standard normal N(0, 1) (Box-Muller). *)

val lognormal : t -> median:float -> sigma:float -> float
(** Draw from a lognormal distribution parameterised by its median
    ([exp mu]) and the log-space standard deviation [sigma]. The
    median form keeps the "typical" delay readable while [sigma]
    controls tail weight. Both strictly positive ([sigma] may be 0,
    degenerating to the constant [median]). *)

val pareto : t -> scale:float -> shape:float -> float
(** Draw from a Pareto distribution with minimum value [scale] (x_m)
    and tail index [shape] (alpha). Median is
    [scale *. 2.0 ** (1.0 /. shape)]; means are infinite for
    [shape <= 1.0], so heavy-tail experiments should report
    percentiles, not averages. *)

val assign : dst:t -> src:t -> unit
(** Copy [src]'s state into [dst] in place — the allocation-free
    counterpart of [copy], for re-deriving split streams in a reused
    arena. *)

val exponential : t -> rate:float -> float
(** Draw from Exp(rate): mean [1.0 /. rate]. Used for Poisson-process
    inter-arrival times. [rate] must be positive. *)

val poisson : t -> mean:float -> int
(** Draw from a Poisson distribution (Knuth's method for small means,
    normal approximation above 50). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
