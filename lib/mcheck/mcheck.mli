(** Explicit-state model checker for {!Dmutex.Types.ALGO} state
    machines.

    Exhaustively explores every interleaving of a small configuration:
    message deliveries in any order, timers firing at any moment an
    event can occur (a sound over-approximation of real-time
    behaviour), and critical sections completing at any point. Checks

    - {b mutual exclusion}, read-write flavour: concurrent CS holders
      are legal exactly when every one reports {!Dmutex.Types.Shared}
      via [cs_mode]; an exclusive holder must be alone. Without shared
      requests this is the classic "never two in CS", and
    - {b deadlock freedom}: no reachable state where some node wants
      the CS but no transition is enabled.

    This mechanizes the paper's informal Section 2.3 argument for
    bounded configurations. State counts grow quickly; [n = 2..3] with
    one or two requests per node is the practical envelope. *)

module Make (A : Dmutex.Types.ALGO) : sig
  type violation = {
    kind : [ `Safety | `Deadlock ];
    trace : string list;
        (** Human-readable transition labels from the initial state to
            the offending state. *)
    walk : int option;
        (** The random walk (1-based) that found it; [None] from the
            exhaustive search. Walks are deterministic in [seed], so
            [run_random ~walks:w] with the same arguments replays it as
            its last walk. *)
  }

  type result = {
    states : int;  (** Distinct global states visited. *)
    transitions : int;
    violation : violation option;
    truncated : bool;  (** Hit [max_states] before exhausting. *)
  }

  val run :
    ?max_states:int ->
    ?requests_per_node:int ->
    ?shared_per_node:int ->
    ?fifo:bool ->
    ?progress:bool ->
    Dmutex.Types.Config.t ->
    result
  (** [run cfg] explores from the all-initial state with
      [requests_per_node] (default 1) exclusive CS requests and
      [shared_per_node] (default 0) shared CS requests injectable at
      each node, visiting at most [max_states] (default 2_000_000)
      states.
      Armed timers fire nondeterministically, at any point after
      they are set. [fifo] (default [false]) restricts each (src, dst)
      channel to in-order delivery — required by algorithms such as
      Lamport's, which the unrestricted checker correctly refutes. *)

  val run_random :
    ?walks:int ->
    ?depth:int ->
    ?seed:int ->
    ?requests_per_node:int ->
    ?shared_per_node:int ->
    ?fifo:bool ->
    Dmutex.Types.Config.t ->
    result
  (** Monte-Carlo exploration for configurations beyond exhaustive
      reach: [walks] (default 1000) independent random walks of up to
      [depth] (default 400) uniformly chosen transitions each,
      checking the same properties along the way. [states] reports
      distinct states touched. Finding nothing is evidence, not
      proof. *)

  val describe : violation -> string
  (** ["Safety"] or ["Deadlock"], the walk that found it if any, then
      the trace, one transition per line. *)

  val pp_result : Format.formatter -> result -> unit
end
