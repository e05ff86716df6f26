(** Length-prefixed framed messaging over TCP, hardened for chaos.

    Each wire frame is a 4-byte big-endian length followed by a body
    that starts with a {!Wire.Frame} header (sender id + kind + lock
    key), so many protocol instances multiplex over the same
    supervised connections and the receiver demultiplexes payloads by
    lock key.

    A {!t} owns one listening socket plus one {e supervised outbound
    channel} per peer, all driven by one I/O event loop ({!Reactor}, on
    its own domain). Outbound frames land in a bounded per-peer ring
    buffer (1024 frames); the reactor (re)connects lazily with capped exponential backoff and jitter, serializes
    every queued frame for a peer into one pooled buffer and flushes it
    with one [write] syscall (a {e coalesced flush}). A dead or slow
    peer can therefore only stall its own ring — never sends to the
    rest of the cluster — and transient socket errors requeue the
    unsent tail of the interrupted flush instead of losing it.
    Incoming frames are parsed in place out of pooled per-connection
    buffers, many per syscall, and handed to the receive callback on
    the reactor. *)

type endpoint = { host : string; port : int }

val pp_endpoint : Format.formatter -> endpoint -> unit

(** Counters mirroring [Simkit.Network]'s accounting on live sockets.
    Only data frames count; transport heartbeats are invisible here
    (except in [flushes], which counts syscalls, not frames). *)
type metrics = {
  sent : int;  (** Data frames successfully handed to the kernel. *)
  delivered : int;  (** Inbound data frames handed to [on_frame]. *)
  dropped : int;
      (** Frames lost to chaos (loss draw, {!Fault} connectivity), to a full
          send queue, or shed after the per-frame retry budget against
          an unreachable peer. Never also counted in [sent]. *)
  retries : int;  (** Failed connect/write attempts that were retried. *)
  reconnects : int;  (** Connections re-established after the first. *)
  flushes : int;
      (** Outbound [write] syscalls. [sent / flushes] is the realized
          coalescing factor; the [?obs] histogram
          [dmutex_transport_frames_per_flush] gives its distribution. *)
  queue_depth : int;  (** Frames currently waiting across all rings. *)
}

val pp_metrics : Format.formatter -> metrics -> unit

type t

val create :
  ?fault:Fault.t ->
  ?heartbeat_period:float ->
  ?seed:int ->
  ?on_heartbeat:(src:int -> unit) ->
  ?obs:Dmutex_obs.Registry.t ->
  me:int ->
  peers:endpoint array ->
  on_frame:(src:int -> lock:string -> string -> unit) ->
  unit ->
  t
(** [create ~me ~peers ~on_frame ()] binds and listens on
    [peers.(me)].port and starts the reactor. [on_frame] runs on the
    reactor's domain; it must be thread-safe, must not call {!close},
    and receives the lock key the frame was addressed to so the caller
    can route it to the right protocol instance. Each frame carries
    the sender's id, so [src] is trustworthy only on a trusted network
    — this is a research runtime, not an authenticated one.

    [fault] installs a connectivity filter (crash-stop and partitions)
    checked when a frame is sent, again when the reactor serializes
    it, and when a frame arrives; normally one injector shared by a
    whole in-process cluster.
    [heartbeat_period] > 0 emits a transport heartbeat to every peer
    each period — except peers some frame was already written to
    within the period, whose traffic {e piggybacks} the liveness
    signal; arrivals are reported via [on_heartbeat] and feed
    peer-liveness monitoring upstream. [seed] makes the loss and
    backoff-jitter draws reproducible. [obs] mirrors every counter
    bump into that registry's [dmutex_transport_*] series
    ({!Dmutex_obs.Names}); [metrics] reads additionally sample the
    queue depth into its gauge.

    Every queued frame goes out on the next reactor pass, which
    already batches whatever a protocol step produced (see {!cork}). *)

val send : t -> dst:int -> ?lock:string -> string -> bool
(** Frame a payload for lock instance [lock] (default [""]) and hand
    it to [dst]'s outbound ring. Returns [false] only if the transport
    is closed, [dst] is this node or out of range, or the ring is full
    — [true] means {e accepted}, not yet written: the reactor
    delivers (or retries and eventually sheds) it asynchronously. A
    frame eaten by chaos ({!set_loss}, or a [fault] that severs [dst])
    also returns [true]: to the caller the network ate it, which is
    exactly what the Section 6 machinery must tolerate; the counters
    record it as [dropped] and never as [sent]. *)

val broadcast : t -> ?lock:string -> string -> int
(** Send to every other peer; returns how many frames were accepted.
    Internally corked, so all copies ride one reactor pass. *)

val cork : t -> unit
(** Suspend reactor wake-ups: frames sent while corked are queued but
    the reactor is only woken by the matching {!uncork}, so
    everything sent inside a cork window coalesces into the same
    flush(es). Nestable; cheap (two atomic ops). The protocol layer
    corks around a state-machine step so every frame the step emits —
    REQUESTs, token forwards, grants, across all lock instances —
    rides one syscall per peer. *)

val uncork : t -> unit
(** Leave the cork window, waking the reactor if a send was latched. *)

val set_loss : t -> float -> unit
(** Drop each outgoing frame with this probability {e before} it
    reaches the socket — chaos testing for the Section 6 machinery on
    a real network (TCP itself never loses accepted data). This is the
    live stack's only loss draw; the [fault] injector filters
    connectivity alone, after it.
    @raise Invalid_argument if [p] is outside [\[0, 1\]] or NaN. *)

val sent : t -> int
(** Data frames successfully handed to the kernel so far. *)

val add_peer : t -> dst:int -> host:string -> port:int -> unit
(** Grow (or revive) the peer table to follow a committed membership
    view. If [dst] already has a slot it is re-pointed at
    [host:port] and un-retired (a rejoining peer may come back at a
    new address); otherwise the table grows to [dst + 1] slots, any
    gap ids born retired. Safe to call from protocol callbacks. *)

val retire_peer : t -> dst:int -> unit
(** Mark [dst] excised from the membership view: subsequent sends to
    it are shed (counted as dropped), and the reactor tears
    down its connection and drains its queue on the next pass. The
    slot stays allocated — {!add_peer} revives it on rejoin.
    Idempotent; unknown ids are ignored. *)

val peer_retired : t -> dst:int -> bool
(** Whether [dst] is currently retired (false for unknown ids). *)

val metrics : t -> metrics

val close : t -> unit
(** Stop the reactor (joining its domain) and close every
    socket. Queued frames are discarded. Idempotent. Must not be
    called from a transport callback. *)

(** The coalesced-flush serializer: frames append into one pooled
    buffer ready for a single [write]. Exposed for the
    [kernel:transport-flush] microbenchmark; not part of the messaging
    API. *)
module Flush : sig
  type t

  val create : unit -> t
  val length : t -> int
  val reset : t -> unit
  val release : t -> unit

  val add_frame : t -> src:int -> lock:string -> Wire.Frame.kind -> string -> unit
  (** Append one length-prefixed frame, growing via the buffer pool. *)

  val write : t -> Unix.file_descr -> pos:int -> int
  (** One [write] syscall of everything from [pos]; returns the count. *)
end
