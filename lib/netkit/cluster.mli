(** In-process test cluster: [n] protocol nodes on loopback TCP.

    Each node is a full {!Node_runner} with its own sockets and
    threads; only the process boundary is missing compared to a real
    deployment. All nodes share one {!Fault} injector for crash-stop
    and partitions, and {!chaos} replays the simulator's fault
    vocabulary ({!Dmutex.Types.fault}) on live frames as a wall-clock
    schedule. Used by the examples, the end-to-end tests and the chaos
    soak. *)

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) : sig
  module Node : module type of Node_runner.Make (A) (C)

  type selector =
    states:(int -> lock:string -> A.state) ->
    locks:string list ->
    live:(int -> bool) ->
    int option
  (** Role-targeted victim selection: inspect any node's protocol
      state for any hosted lock ([states i ~lock]) and the list of
      lock keys, and name a victim — e.g. "whoever holds the token of
      lock [x] right now", or "any node holding tokens for at least
      two locks". *)

  (** One step of a chaos schedule. *)
  type chaos_event =
    | Fault of Dmutex.Types.fault
        (** A fault by node id, in the simulator's vocabulary:
            - [Crash i] severs [i] from the network through {!fault}
              (crash-stop; its process keeps running);
            - [Restart { node; after }] is the full drill: tear [node]
              down for real ({!crash} — sockets closed, stores aborted
              without flush), keep it down for [after] seconds, then
              {!restart} it from its state directories. The schedule
              thread blocks through the outage (events are
              deliberately sequential);
            - [Loss p] sets every node's transport loss
              ({!Node_runner.Make.set_loss}); nodes restarted or added
              later inherit it;
            - [Partition]/[Heal] go to {!fault}. *)
    | Crash_where of string * selector
        (** Role-targeted crash-stop: the selector inspects live
            protocol states and names the victim (e.g. "whoever holds
            the token right now"), which is severed as by [Crash].
            Polled every 20 ms until it returns a live node, giving up
            after 10 s; the label is for the chaos log. *)
    | Restart_where of { label : string; select : selector; after : float }
        (** Role-targeted [Restart]: victim selection as in
            [Crash_where] — e.g. "whoever holds the token right now",
            killed mid-CS and brought back from disk. *)

  type chaos_schedule = (float * chaos_event) list
  (** Events paired with wall-clock offsets in seconds from
      {!chaos}-call time. *)

  type t

  val launch :
    ?base_port:int ->
    ?seed:int ->
    ?locks:string list ->
    ?heartbeat_period:float ->
    ?suspect_timeout:float ->
    ?state_root:string ->
    ?trace:Dmutex_obs.Events.sink ->
    ?persist:(A.state -> Dmutex_store.Store.view) ->
    ?restore:
      (me:int ->
      Dmutex_store.Store.view option ->
      A.state * (A.message, A.timer) Dmutex.Types.input list) ->
    Dmutex.Types.Config.t ->
    t
  (** Start [cfg.n] nodes on 127.0.0.1 ports [base_port ..
      base_port+n-1] (default base port 7801; picks free ports by
      retrying a few bases on bind failure). [seed] drives each node's
      transport randomness (loss and backoff draws), making chaos runs
      reproducible. Every node hosts one protocol instance per
      [locks] entry (default [[Node.default_lock]]), all multiplexed
      over its one transport; a duplicate lock name (which would
      silently shadow the first instance) or an empty list is rejected
      with [Invalid_argument] before any node starts.
      [heartbeat_period] enables each node's peer liveness monitor
      (off by default), shared by all of its instances.

      [state_root] enables durability: node [i] persists lock [k]
      through a [Dmutex_store.Store] in
      [state_root/node-i/lock-<sanitized k>] (created as needed; keys
      are percent-encoded for the directory name and stamped into the
      store so a mix-up fails loudly at open), capturing states through
      [persist] after every step (see {!Node_runner.Make.create}).
      [restore] rebuilds one instance's state from its recovered view
      at {!restart} time — called once per lock; [None] view means an
      empty directory, i.e. amnesia; the returned inputs are injected
      into that fresh instance (e.g. a self-addressed WARNING when
      custody was durable). Defaults to [A.rejoin] with no inputs.

      Every node gets its own {!Dmutex_obs.Registry} (see
      {!registries}), owned by the cluster and re-attached across
      {!restart}, so counters span a node's whole life including
      crash-restart drills. [trace] plugs one shared structured event
      sink into every node. *)

  val node : t -> int -> Node.t
  val n : t -> int

  val locks : t -> string list
  (** The lock keys every node hosts, in [launch] order. *)

  val with_locks :
    ?timeout:float ->
    ?retries:int ->
    locks:(string * Dmutex.Types.mode) list ->
    t ->
    int ->
    (unit -> 'a) ->
    'a option
  (** [with_locks ~locks t i f]: run [f] on node [i] holding the whole
      multi-lock set atomically — {!Node_runner.Make.with_locks} on
      that node (canonical acquisition order, all-or-nothing with
      bounded retry). *)

  val fault : t -> Fault.t
  (** The cluster-wide connectivity injector (shared by every node's
      transport) for direct, un-scheduled crash-stop and partitions. *)

  val chaos : t -> chaos_schedule -> unit
  (** Run a chaos schedule on a background thread: each event fires at
      its wall-clock offset from now. At most one schedule at a time.
      {!shutdown} aborts a running schedule.
      @raise Invalid_argument before anything runs if an event names a
      node out of range or a loss probability outside [\[0, 1\]]. *)

  val wait_chaos : t -> unit
  (** Block until the running schedule (if any) has fired its last
      event. *)

  val chaos_log : t -> (float * string) list
  (** What the schedule actually did, with offsets — including which
      node each [Crash_where] resolved to. *)

  val metrics : t -> Transport.metrics
  (** Transport counters summed over all nodes. *)

  val notes : t -> (string * int) list
  (** Protocol note counters summed over all nodes (the live
      equivalent of the simulator's outcome notes). *)

  val note_count : t -> string -> int

  val registries : t -> Dmutex_obs.Registry.t array
  (** Per-node metrics registries, indexed by node id. Stable across
      {!restart}: a restarted node keeps accumulating into the same
      registry. *)

  val obs_snapshot : t -> Dmutex_obs.Registry.snapshot
  (** Cluster-wide merged snapshot of every node's registry. *)

  val obs_report : ?lock:string -> t -> Dmutex_obs.Report.t
  (** Derived run report over the merged snapshot: total messages
      sent/received, CS entries, {e messages per critical section},
      per-kind breakdown, sync-delay and queue-length statistics. The
      live counterpart of the simulator's per-CS accounting — same
      series names, same derivation. With [lock], restricted to the
      series carrying that [lock=<key>] label — the per-lock view of a
      sharded run. *)

  val obs_report_by_lock : t -> (string * Dmutex_obs.Report.t) list
  (** One {!obs_report} per lock key found in the merged snapshot,
      sorted by key. *)

  val add_node :
    t ->
    init:
      (me:int ->
      addr:string ->
      lock:string ->
      A.state * (A.message, A.timer) Dmutex.Types.input list) ->
    int
  (** Grow the cluster by one brand-new node: allocates the next id
      and a fresh loopback endpoint, starts a full {!Node} there (with
      its own store directories when [state_root] was given, and its
      own registry appended to {!registries}), and injects the inputs
      [init] returns per lock. [init ~me ~addr ~lock] builds the
      per-lock starting state — normally [Protocol.joiner] with a live
      seed member, so the node knocks with JOIN-REQUEST until a view
      commit admits it; [addr] is the ["host:port"] the new node is
      reachable at (travels in the join request). Returns the new id.
      Existing nodes learn the newcomer's address from the committed
      view — nothing is reconfigured here. *)

  val remove_node :
    t ->
    int ->
    leave:(lock:string -> (A.message, A.timer) Dmutex.Types.input) ->
    unit
  (** Start excising node [i]: [leave ~lock] builds the protocol input
      announcing the departure (for {!Dmutex.Protocol},
      [Receive (i, Leave_request i)]) and is injected into [i] itself,
      which relays it toward the token-holding arbiter. The node keeps
      running until the commit excises it — use {!retire} once the
      view has moved on to stop its process. *)

  val retire : t -> int -> unit
  (** Stop an excised node's process (graceful store close). Its slot
      stays allocated and dead: ids are never reused. *)

  val crash : t -> int -> unit
  (** Fail-stop one node for real (sockets closed, threads stopped,
      store aborted {e without} flushing) — unlike [Fault.crash],
      which only severs a node from the network and is reversible. *)

  val restart : t -> int -> unit
  (** Bring a {!crash}ed node back: reopen its state directory (when
      [state_root] was given), rebuild its protocol state through the
      [restore] hook, rebind the same endpoint (retrying while the old
      sockets drain), and inject the restore inputs. The node rejoins
      the running cluster as a restarted process would. *)

  val shutdown : t -> unit
  (** Abort any chaos schedule and stop every node gracefully (stores
      flushed and closed). *)
end
