(** Thin-client library for the session service ({!Session}).

    One [t] is one leased session against a cluster: it connects to
    any reachable endpoint, opens a session, and multiplexes
    request/response calls over a single connection (no dedicated
    reader thread — whichever caller is waiting drives the socket). A
    background thread renews the lease at a third of its period so a
    client parked inside its critical section never expires.

    Failure handling, in order of escalation:

    - {b Reconnect.} On disconnection the client retries every
      endpoint with capped-exponential backoff (plus jitter) and
      re-attaches by session id. A resume restores the held-locks
      list, so a grant whose [Granted] reply died with the connection
      is recovered, not re-acquired.
    - {b Failover.} Endpoints are tried round-robin starting from the
      last good one; any node in the list can adopt the session while
      its grace window is open.
    - {b Loud loss.} If the session cannot be resumed anywhere and
      grants were at stake — or the server expired it — the next call
      returns [Session_lost] exactly once, then the client starts a
      fresh session. Nothing ever hangs: every path ends in a grant,
      an explicit rejection, a timeout, or a loss. *)

type error =
  | Timeout
      (** The {e local} deadline passed without a server verdict (or
          [try_acquire] lost). A queue-side expiry the server decided
          is a [Rejected (Lock_timeout, _)] instead — the two are
          deliberately distinct: after [Timeout] the request may still
          be queued server-side; after [Rejected] it certainly is not. *)
  | Rejected of Wire.Client.reject_reason * float
      (** Explicit server refusal; the float is the suggested
          retry-after in seconds. *)
  | Session_lost of string
      (** The session is gone — lease expired, grace window closed, or
          node shut down. Any fencing tokens held are stale. *)
  | Disconnected of string
      (** No endpoint reachable within the deadline. *)

val string_of_error : error -> string

type t

val connect :
  ?lease_ms:int ->
  ?seed:int ->
  addrs:Transport.endpoint list ->
  unit ->
  t
(** Create a client for the session services at [addrs]. Connection
    is lazy — the first call dials. [lease_ms] (default 5000) is the
    requested lease; reconnect sweeps back off from 0.05 s, doubling
    to a 2 s cap; [seed] fixes the jitter
    RNG for reproducible tests. Raises [Invalid_argument] on an empty
    endpoint list. *)

val acquire :
  ?timeout:float -> ?shared:bool -> lock:string -> t -> (int, error) result
(** Block until the cluster grants [lock] to this session, returning
    the grant's fencing token. [shared] (default [false]) requests a
    read grant: compatible shared holders may be admitted together,
    all carrying the same fencing token. Retries transparently across
    disconnections and failovers until [timeout] (default 30 s)
    expires. If a resume reveals the lock already held (the grant
    landed mid-failover), returns its token immediately. A server-side
    queue expiry surfaces as [Rejected (Lock_timeout, retry_after)];
    [Error Timeout] is strictly the local deadline. *)

val try_acquire : ?shared:bool -> lock:string -> t -> (int, error) result
(** Non-blocking probe: grant only if the node can enter the CS for
    [lock] without queueing. [Error Timeout] means "busy right now". *)

val release : lock:string -> t -> (unit, error) result
(** Release [lock]. [Error (Rejected (Not_held, _))] means the lease
    already drained the grant server-side: the lock is free, but the
    caller's fencing token was stale — surfaced, not swallowed. *)

val renew : t -> (unit, error) result
(** Explicitly renew the lease (any request renews implicitly; the
    background thread calls this — exposed for tests and for clients
    that disable it by closing promptly). *)

val with_lock :
  ?timeout:float ->
  ?shared:bool ->
  lock:string ->
  t ->
  (fencing:int -> 'a) ->
  ('a, error) result
(** [with_lock ~lock t f] acquires, runs [f ~fencing], releases (even
    on exception), and returns [f]'s value. A server refusal —
    including a queue-side [Lock_timeout] — comes back as
    [Rejected (reason, retry_after)], distinct from the local
    [Timeout]. *)

val with_locks :
  ?timeout:float ->
  ?retries:int ->
  locks:(string * Dmutex.Types.mode) list ->
  t ->
  (fencing:int -> 'a) ->
  ('a, error) result
(** [with_locks ~locks t f]: hold the whole multi-lock set atomically,
    then run [f ~fencing] where [fencing] is the maximum fencing token
    over the set (it dominates every per-lock token, so any resource
    guarded by one of the locks rejects staler holders). Locks are
    acquired in canonical (lexicographic) key order regardless of the
    order given — every client agreeing on one global order makes the
    hold-and-wait graph acyclic, so transactions cannot deadlock. A
    refusal mid-set releases everything already acquired
    (all-or-nothing) and retries with a fresh slice of the [timeout]
    budget, up to [retries] (default 4) extra attempts. Raises
    [Invalid_argument] on an empty set or a duplicate lock name. *)

val session_id : t -> string option
(** The current session id, once a session is open. *)

val connected : t -> bool

val break_conn : t -> unit
(** Test hook: sever the current connection as if the network
    dropped it. The next call reconnects and resumes. *)

val close : t -> unit
(** Gracefully close the session (best effort) and stop the renewal
    thread. The client is unusable afterwards. *)
