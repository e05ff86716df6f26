(** The ordered list of scheduled critical-section requests carried
    inside the token (the paper's {e Q-list}), plus the per-node
    granted-sequence vector [L] of the Section 2.4 sequence-number
    extension.

    Entries are kept in service order: head is served next, tail is the
    next arbiter. Sequence numbers make retransmitted requests
    idempotent: an entry is dropped whenever [L] already records an
    equal or newer grant for its node. *)

type entry = {
  node : Types.node_id;
  seq : int;  (** The requester's request counter when it sent this. *)
  hops : int;  (** Times this request has been forwarded (τ budget). *)
  mode : Types.mode;
      (** Requested access mode. [Exclusive] (the default) reproduces
          the paper's protocol exactly; [Shared] entries at the head of
          the list are batched into one grant. *)
}

val entry :
  ?hops:int -> ?mode:Types.mode -> node:Types.node_id -> seq:int -> unit -> entry

type t = entry list
(** Service order, head first. The empty list is a valid (empty)
    Q-list. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

val mem : Types.node_id -> t -> bool
(** Is some request from this node scheduled? *)

val head : t -> entry option
val tail_node : t -> Types.node_id option
(** The last entry's node — the next arbiter. *)

val enqueue : entry -> t -> t
(** FCFS insert at the back, deduplicating by node: if the node already
    has an entry, keep the one with the larger sequence number in its
    original position. *)

val enqueue_all : entry list -> t -> t
(** [enqueue_all es q] enqueues each of [es], in order, at the back of
    [q]. *)

val sort_by_priority : int array -> t -> t
(** Stable sort, higher priority first (Section 5.2); FCFS order is
    preserved within a priority level. *)

val sort_writers_first : t -> t
(** Stable sort, [Exclusive] entries first: the writer-priority policy
    of the read-write extension, expressed as a Section 5.2 priority
    sort with the mode as the key. FCFS within each mode class. *)

val compatible : entry -> entry -> bool
(** Can these two requests hold the CS simultaneously? True exactly
    when both are [Shared]. *)

val head_batch : t -> t
(** The maximal batch servable as one grant: the head entry alone when
    it is [Exclusive], else the maximal prefix run of [Shared]
    entries. [head_batch [] = []]. *)

val final_holder : t -> Types.node_id option
(** The node holding the token once the queue is fully served — the
    next arbiter a NEW-ARBITER broadcast must name. The tail, unless
    the queue ends in a run of two or more [Shared] entries: that run
    is granted as one batch whose coordinator (the run's first entry)
    keeps the token while the rest execute on READ-GRANTs. *)

val sort_least_served : int array -> t -> t
(** Stable sort by past grants ascending: [granted.(node)] is the last
    served sequence number, a proxy for how often the node has been
    served (Section 5.1's stricter fairness). *)

(** The granted vector [L]: [granted.(j)] is the sequence number of the
    last request by node [j] that was (or is being) served. *)
module Granted : sig
  type g = int array

  val create : int -> g
  (** All entries [-1]: nothing granted yet. *)

  val get : g -> Types.node_id -> int
  (** Last granted sequence for the node; [-1] when the vector has no
      slot for it yet (a joiner beyond the birth cluster size). *)

  val ensure : g -> int -> g
  (** Grow (never shrink) to at least the given length, padding with
      [-1]. Returns the argument unchanged when already long enough. *)

  val already_served : g -> entry -> bool
  val mark : g -> entry -> g
  (** Functional update recording that [entry] was served; grows the
      vector when the entry's node id is beyond its current length. *)

  val mark_all : g -> entry list -> g
  (** Mark every entry of a grant batch at once — the served-vector
      update of a shared batch is one step, not one per reader. *)

  val merge : g -> g -> g
  (** Pointwise max over the union of lengths — used when a
      regenerated token meets a stale one's knowledge, and when views
      of different sizes exchange vectors. *)

  val total : g -> int
  (** Total grants recorded (each served slot counts [seq + 1]).
      Strictly increases on every [mark] / non-trivial [mark_all] —
      the minor half of a fencing token, advancing once per grant
      batch. *)

  val pp : Format.formatter -> g -> unit
end

val prune : Granted.g -> t -> t
(** Remove entries already served according to [L]. *)
