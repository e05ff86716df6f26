(** Client-facing session service: thin clients acquire the
    distributed locks a node hosts without joining the protocol's
    broadcast set.

    The paper makes every participant a full Q-list node; at "millions
    of users" scale that is untenable, so M ≫ N clients connect here
    over the {!Wire.Client} request/response protocol and the node
    enters the critical section on their behalf — one {e pump} thread
    per lock drives {!Node_runner}'s [with_lock] (reusing its timeout
    and abandoned-grant draining) and holds the CS while the granted
    clients run: exactly one for an exclusive acquire, or the whole
    leading run of shared waiters at once for read acquires — the
    session-layer face of the protocol's reader batches, all members
    carrying the same fencing token.

    Robustness invariants:

    - {b Leases.} A session must renew (any request renews; [Renew]
      exists for idle holders) within [lease_ms] or it is expired: its
      held grants are drained (the pump releases the distributed
      lock), its queued acquires are cancelled, and its connection
      gets an unsolicited [Session_lost]. A stalled or dead client can
      delay a lock by at most one lease.
    - {b Fencing.} Every grant carries a fencing token — strictly
      monotonic per lock, cluster-wide — derived from durable protocol
      state ({!Dmutex_store.Protocol_view.fencing_of_state}): the
      token-regeneration epoch above the [L] vector's grant sum.
      Downstream resources reject a staler holder by comparing tokens.
      Grants for which no genuine token can be derived (recovery
      re-grants of already-served requests) are dropped and retried,
      never issued.
    - {b Failover.} A disconnected session stays resumable by sid for
      a [grace_ms] window; resuming returns the held-locks list so a
      client whose [Granted] reply died with the connection recovers
      its grant state. Past the window the session is gone — loudly.
    - {b Load shedding.} Admission control caps live sessions
      ([max_sessions]), each lock's wait queue ([max_waiters]) and
      each session's in-flight acquires (32); every
      refusal is an explicit [Rejected] with a retry-after hint. No
      request is ever silently dropped. *)

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) : sig
  module Node : module type of Node_runner.Make (A) (C)

  type t

  type stats = {
    opened : int;  (** Sessions opened (fresh, not resumes). *)
    resumed : int;  (** Successful re-attaches by sid. *)
    expired : int;  (** Lease/grace expiries, incl. shutdown. *)
    granted : int;  (** Grants issued (fencing tokens handed out). *)
    rejected : int;  (** Explicit [Rejected] replies of any reason. *)
    stale_grants : int;
        (** Grants dropped because no genuine fencing token could be
            derived — retried, never issued. *)
  }

  val create :
    ?lease_ms:int ->
    ?grace_ms:int ->
    ?max_sessions:int ->
    ?max_waiters:int ->
    ?obs:Dmutex_obs.Registry.t ->
    ?trace:Dmutex_obs.Events.sink ->
    ?seed:int ->
    fencing:(A.state -> int option) ->
    node:Node.t ->
    addr:Transport.endpoint ->
    unit ->
    t
  (** Bind [addr] (port [0] picks an ephemeral one; see {!port}) and
      serve sessions for the locks [node] hosts. [fencing] derives the
      fencing token from the protocol state observed inside the CS —
      pass {!Dmutex_store.Protocol_view.fencing_of_state} for the
      stock protocol. Defaults: [lease_ms] 5000, [grace_ms] =
      [lease_ms], [max_sessions] 1024, [max_waiters] 256 per lock.
      [obs] mirrors session activity
      into the [dmutex_client_*] series; [trace] records session
      lifecycle events. *)

  val port : t -> int
  (** The actually bound TCP port. *)

  val sessions : t -> int
  (** Live sessions right now (attached + in-grace detached). *)

  val stats : t -> stats

  val last_fencing : t -> lock:string -> int option
  (** The last fencing token this node issued for [lock], if any —
      test/debug visibility into the monotonicity invariant. *)

  val shutdown : t -> unit
  (** Stop accepting, expire every session (each attached client gets
      an unsolicited [Session_lost] so failover starts immediately),
      and join the service threads. Pump threads exit once the
      underlying node stops granting — shut the node down after this.
      Idempotent. *)
end
