(** Simulated message-passing network.

    Delivers messages between [n] numbered nodes through the
    discrete-event {!Engine}, applying a configurable latency model,
    random loss, partitions, node crashes, and an arbitrary
    interceptor for targeted fault injection. Message counting follows
    the paper's accounting: a broadcast to [n - 1] peers costs [n - 1]
    messages. *)

type 'm t
(** A network carrying messages of type ['m]. *)

(** Latency model applied to each message independently. *)
type latency =
  | Constant of float  (** Fixed delay, the paper's [T_msg]. *)
  | Uniform of float * float  (** Uniform on [\[lo, hi)]. *)
  | Exponential of float
      (** Exponential with the given mean — heavy-ish tail, reorders
          concurrent messages aggressively. *)
  | Per_pair of (int -> int -> float)  (** Function of (src, dst). *)
  | Lognormal of { median : float; sigma : float }
      (** Lognormal service delay: [median] is the typical delay,
          [sigma] the log-space spread (WAN measurements commonly fit
          sigma 0.3–1.0). *)
  | Pareto of { scale : float; shape : float; cap : float }
      (** Heavy-tailed delay: Pareto with minimum [scale] and tail
          index [shape], truncated at [cap] so a single astronomical
          draw cannot stall a finite-horizon simulation. [shape <= 1]
          has infinite mean below the cap — report percentiles. *)
  | Regions of {
      region_of : int array;
      base : float array array;
      jitter_sigma : float;
    }
      (** Multi-region topology: node [i] lives in region
          [region_of.(i)]; one-way delay between regions [a] and [b]
          is [base.(a).(b)], multiplied by lognormal jitter with
          median 1 and spread [jitter_sigma] (0 = deterministic
          matrix). Build with {!regions} for validation. *)

val regions :
  region_of:int array ->
  base:float array array ->
  ?jitter_sigma:float ->
  unit ->
  latency
(** Validated constructor for {!Regions}: checks the matrix is square
    and every region id indexes it. [jitter_sigma] defaults to 0. *)

val sample : Rng.t -> latency -> src:int -> dst:int -> float
(** Draw one delay for a [src -> dst] message from a latency model.
    Exposed so tests can pin seeded quantiles of each distribution
    without standing up a full network. *)

(** Decision of the fault-injection interceptor for one message. *)
type verdict =
  | Deliver  (** Deliver normally. *)
  | Drop  (** Silently lose the message. *)
  | Delay of float  (** Deliver with this extra delay. *)

val create : Engine.t -> n:int -> rng:Rng.t -> latency:latency -> 'm t
(** A network of nodes numbered [0 .. n-1]. The handler must be
    installed with {!set_handler} before the first send. *)

val n : 'm t -> int
val engine : 'm t -> Engine.t

val rng : 'm t -> Rng.t
(** The network's private delay/loss stream — exposed so an arena
    host can [Rng.assign] a fresh stream into it between reused
    replicates. *)

val set_handler : 'm t -> (src:int -> dst:int -> 'm -> unit) -> unit
(** Install the delivery callback, invoked at the message's arrival
    time. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Enqueue a message. Self-sends are delivered (with latency) but are
    not counted as network messages. *)

val broadcast : 'm t -> src:int -> 'm -> unit
(** Send to every node except [src]; counts [n - 1] messages. *)

val set_loss : 'm t -> float -> unit
(** Uniform i.i.d. drop probability for every message (default 0). *)

val set_interceptor : 'm t -> (src:int -> dst:int -> 'm -> verdict) -> unit
(** Install a fault-injection hook consulted for every message after
    the loss draw. Replaces any previous interceptor. *)

val clear_interceptor : 'm t -> unit

val crash : 'm t -> int -> unit
(** Crash a node: all messages from or to it are dropped until
    {!recover}. Crashing is idempotent. *)

val recover : 'm t -> int -> unit
val is_crashed : 'm t -> int -> bool

val partition : 'm t -> int list list -> unit
(** Install a partition: messages between nodes in different groups are
    dropped. Nodes absent from every group form an implicit extra
    group. *)

val heal : 'm t -> unit
(** Remove any partition. *)

val sent : 'm t -> int
(** Network messages sent so far (self-sends excluded, drops
    included — a dropped message was still transmitted). *)

val delivered : 'm t -> int

val dropped : 'm t -> int
(** Messages lost to the loss model, interceptor, crashes or
    partitions. *)

val reset_counters : 'm t -> unit

val reset : 'm t -> unit
(** Return the network to its just-created state in place — no loss,
    no interceptor, no crashes, no partition, counters at zero — so a
    sweep point can reuse one network across replicates without
    reallocating the per-node arrays. The latency model and handler
    are kept. *)
