(** Shared vocabulary for every mutual-exclusion algorithm in this
    repository.

    All algorithms — the paper's arbiter protocol and the six baselines
    — are expressed as {e pure} state machines over the {!input} /
    {!effect_} types below, which is what lets a single implementation
    be driven by the discrete-event simulator ({!Sim_runner}), by the
    real TCP runtime ([Netkit.Node_runner]), and by the exhaustive
    model checker ([Mcheck]). *)

type node_id = int
(** Nodes are numbered [0 .. n-1]. The paper's "node 1" is our node
    [0]. *)

(** Access mode of a critical-section request. The paper grants one
    exclusive CS at a time; [Shared] generalizes the grant pipeline to
    the partial-mutual-exclusion regime — a maximal run of compatible
    readers at the head of the Q-list is served as {e one} grant batch.
    Two [Shared] requests are compatible; anything involving
    [Exclusive] is not. [Exclusive] is the default everywhere, which
    pins single-mode behavior bit-identical to the original protocol. *)
type mode = Shared | Exclusive

let string_of_mode = function Shared -> "shared" | Exclusive -> "exclusive"

(** Protocol configuration. Field names follow the paper's notation
    where one exists. *)
module Config = struct
  type t = {
    n : int;  (** Number of nodes, [N]. *)
    t_msg : float;  (** Message transmission time [T_msg] (analysis & timeouts). *)
    t_exec : float;  (** CS execution time [T_exec] (driven by the runner). *)
    t_collect : float;  (** Request collection phase duration [T_req]. *)
    t_forward : float;  (** Request forwarding phase duration [T_fwd]. *)
    initial_arbiter : node_id;  (** The node assigned arbiter at start-up. *)
    skip_new_arbiter_to_tail : bool;
        (** Section 3.1 optimization: when the Q-list is a singleton
            naming another node, send that node no separate NEW-ARBITER
            (the token alone proves arbitership to its receiver); its
            PRIVILEGE carries the rest of the announcement instead.
            Default [false], matching the accounting of Eq. 1; the
            deployment preset [Resilient.config] turns it on. *)
    early_close : bool;
        (** Idle-window rule: a request reaching a collecting arbiter
            with no window armed, at least one full [t_collect] after
            the window's anchor, dispatches at once instead of at the
            next window boundary. The arbiter has then held the token
            through a whole empty window, so waiting adds no
            concurrency it has evidence of. Default [false], the
            paper's fixed window grid (Eq. 1's residual [T_req/2]);
            the deployment preset [Resilient.config] turns it on. *)
    monitor : node_id option;
        (** Enable the Section 4.1 starvation-free variant with this
            monitor node. *)
    rotate_monitor : bool;
        (** Section 5.1: rotate the monitor role round-robin via the
            NEW-ARBITER broadcast. Only meaningful with [monitor]. *)
    forward_threshold : int;
        (** τ: forwarding hop budget for a request, and the number of
            consecutive NEW-ARBITER misses after which a requester
            resubmits to the monitor. *)
    window : int;
        (** Moving-window length (in NEW-ARBITER observations) for the
            average Q-list size that adapts the monitor period. *)
    retransmit_misses : int;
        (** Consecutive NEW-ARBITER broadcasts that may omit an
            outstanding request before the requester retransmits
            (Section 6, Lost Request). [2] tolerates the benign case of
            a request still in flight or being forwarded when a
            broadcast goes out. *)
    retry_timeout : float;
        (** Requester's blind retransmission timeout (Section 6:
            "appropriate timeouts may also be used to retransmit a
            request"). Without it a dropped request whose owner never
            observes another NEW-ARBITER broadcast would wait forever —
            the model checker exhibits exactly that deadlock. *)
    max_retries : int;
        (** Bound on timeout-driven retransmissions per request;
            [-1] = unbounded (production default). The model checker
            sets a small bound to keep its state space finite. *)
    priorities : int array option;
        (** Section 5.2 static priorities (larger = more urgent). The
            arbiter stably sorts the Q-list by priority at dispatch. *)
    writer_priority : bool;
        (** Read-write mode policy: stably sort each dispatched Q-list
            writers ([Exclusive]) first, reusing the Section 5.2
            machinery with mode as the priority key. Keeps writers from
            starving behind a steady reader stream, and groups readers
            adjacently so maximal batches form. Grouping is per
            dispatch window, so a reader arriving after a writer waits
            at most one window — bounded, not starvation. Ignored when
            [priorities] is set (explicit priorities win). *)
    least_served_first : bool;
        (** Section 5.1's stricter fairness ("a scheme similar to
            Suzuki-Kasami's"): the arbiter stably sorts each dispatched
            Q-list so nodes with fewer past grants (smaller entries in
            the token's L vector) go first. Mutually composable with
            FCFS (it is the tie-break) but ignored when [priorities]
            is set. *)
    recovery : bool;
        (** Enable the Section 6 failure-recovery machinery (token
            timeouts, WARNING / two-phase invalidation, arbiter
            takeover). *)
    token_timeout : float;
        (** Requester's patience for the token after its request was
            confirmed scheduled. *)
    enquiry_timeout : float;  (** Arbiter's patience for ENQUIRY replies. *)
    arbiter_timeout : float;
        (** Previous arbiter's patience for evidence that the new
            arbiter is alive. *)
  }

  (** Defaults mirror the paper's simulation: [t_msg = t_forward =
      t_exec = 0.1], [t_collect = 0.1], node 0 as initial arbiter, no
      monitor, no priorities, recovery off. *)
  let default ~n =
    if n <= 0 then invalid_arg "Config.default: n must be positive";
    {
      n;
      t_msg = 0.1;
      t_exec = 0.1;
      t_collect = 0.1;
      t_forward = 0.1;
      initial_arbiter = 0;
      skip_new_arbiter_to_tail = false;
      early_close = false;
      monitor = None;
      rotate_monitor = false;
      forward_threshold = 3;
      window = 16;
      retransmit_misses = 2;
      retry_timeout = 4.0;
      max_retries = -1;
      priorities = None;
      writer_priority = false;
      least_served_first = false;
      recovery = false;
      token_timeout = 5.0;
      enquiry_timeout = 1.0;
      arbiter_timeout = 5.0;
    }

  let validate t =
    if t.n <= 0 then invalid_arg "Config: n must be positive";
    if t.initial_arbiter < 0 || t.initial_arbiter >= t.n then
      invalid_arg "Config: initial_arbiter out of range";
    (match t.monitor with
    | Some m when m < 0 || m >= t.n ->
        invalid_arg "Config: monitor out of range"
    | _ -> ());
    (match t.priorities with
    | Some p when Array.length p <> t.n ->
        invalid_arg "Config: priorities array must have length n"
    | _ -> ());
    if t.t_collect < 0.0 || t.t_forward < 0.0 || t.t_exec < 0.0 then
      invalid_arg "Config: negative duration";
    t
end

(** Events fed into a node's state machine by whichever runtime hosts
    it. *)
type ('msg, 'timer) input =
  | Request_cs  (** The local application wants the critical section. *)
  | Request_shared_cs
      (** The local application wants the critical section in [Shared]
          (read) mode. Algorithms without a shared-mode path treat this
          exactly like {!Request_cs}. *)
  | Cs_done  (** The local application left the critical section. *)
  | Receive of node_id * 'msg  (** A message arrived from a peer. *)
  | Timer_fired of 'timer  (** A timer armed via [Set_timer] expired. *)

(** Observable metric events emitted by algorithms via [Note]; the
    runtimes count them. *)
type note =
  | Forwarded  (** A REQUEST was relayed during the forwarding phase. *)
  | Dropped_request  (** A REQUEST was discarded (late or over τ hops). *)
  | Stashed
      (** A REQUEST reached a node that is not (or not yet) the
          arbiter; it is parked and handed to the next known arbiter
          instead of being dropped. *)
  | Stash_forwarded  (** A parked REQUEST was passed along. *)
  | Retransmitted  (** A requester resent after a NEW-ARBITER miss. *)
  | Resubmitted_to_monitor  (** Starvation escape hatch used (§4.1). *)
  | Became_arbiter
  | Monitor_pass  (** The token was routed through the monitor. *)
  | Queue_length of int  (** Q-list length at dispatch. *)
  | Read_batch of int
      (** A shared grant batch of this many readers was launched as one
          grant (emitted only for batches of two or more; a batch of
          one rides the unchanged exclusive path). *)
  | Phase of string * float
      (** A protocol phase (e.g. ["collection"], ["forwarding"]) ran
          for the given duration in the emitting node's clock. *)
  | Recovery_started  (** Two-phase token invalidation began (§6). *)
  | Token_regenerated  (** A lost token was replaced (§6). *)
  | Arbiter_takeover  (** Previous arbiter proclaimed itself (§6). *)
  | Membership of { vepoch : int; members : (node_id * string) list }
      (** The membership view changed (or was re-announced): epoch
          number and the member set with each member's opaque address
          metadata. Runtimes re-point transports, liveness monitors
          and gauges off this note. *)
  | Custom of string

let string_of_note = function
  | Forwarded -> "forwarded"
  | Dropped_request -> "dropped-request"
  | Stashed -> "stashed"
  | Stash_forwarded -> "stash-forwarded"
  | Retransmitted -> "retransmitted"
  | Resubmitted_to_monitor -> "resubmitted-to-monitor"
  | Became_arbiter -> "became-arbiter"
  | Monitor_pass -> "monitor-pass"
  | Queue_length _ -> "queue-length"
  | Read_batch _ -> "read-batch"
  | Phase (p, _) -> "phase-" ^ p
  | Recovery_started -> "recovery-started"
  | Token_regenerated -> "token-regenerated"
  | Arbiter_takeover -> "arbiter-takeover"
  | Membership _ -> "membership"
  | Custom s -> s

(** Actions requested of the hosting runtime by a state-machine step. *)
type ('msg, 'timer) effect_ =
  | Send of node_id * 'msg
  | Broadcast of 'msg  (** Deliver to every node except the sender. *)
  | Enter_cs
      (** Start executing the critical section; the runtime answers
          with [Cs_done] when the application (or the simulated
          [t_exec]) finishes. *)
  | Set_timer of 'timer * float
      (** Arm (or re-arm) the timer identified by the key. *)
  | Cancel_timer of 'timer
  | Note of note

(** Which injected faults an algorithm models honestly. A host must
    consult this before injecting: crashing a node running an
    algorithm whose state machine has no recovery path would silently
    measure garbage (the run wedges or violates safety in ways the
    original algorithm never claimed to survive). *)
type fault_support = { crash_stop : bool; message_loss : bool }

exception Unsupported_fault of string
(** Raised by a host when a fault is injected into an algorithm whose
    {!fault_support} does not cover it. The payload names the
    algorithm and the fault, e.g. ["raymond does not model crash-stop
    failures"]. *)

(** One injected fault, in the vocabulary both hosts read: the
    simulator ([Sim_runner.apply_faults]) and the live cluster
    ([Netkit.Cluster.chaos]). *)
type fault =
  | Crash of node_id  (** Fail-stop the node. *)
  | Restart of { node : node_id; after : float }
      (** Fail-stop [node] now and bring it back [after] seconds later
          in a fresh incarnation (rebuilt from its durable state where
          the host has one). *)
  | Loss of float
      (** From now on, drop each message independently with this
          probability. *)
  | Partition of node_id list list
      (** Drop messages between nodes in different groups; nodes in no
          group form one extra group. *)
  | Heal  (** Remove any partition. *)

type fault_plan = (float * fault) list
(** Faults paired with offsets from the start of the run: simulated
    seconds in the simulator, wall-clock seconds on a live cluster.
    One plan replays verbatim against any algorithm and either host. *)

let check_loss who p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "%s: loss probability %g outside [0, 1]" who p)
(** [check_loss who p] raises [Invalid_argument] (naming [who]) unless
    [p] is a probability; NaN is rejected. *)

let pp_fault ppf = function
  | Crash i -> Format.fprintf ppf "crash(%d)" i
  | Restart { node; after } ->
      Format.fprintf ppf "restart(%d, +%.2fs)" node after
  | Loss p -> Format.fprintf ppf "loss=%.3f" p
  | Partition groups ->
      Format.fprintf ppf "partition(%s)"
        (String.concat "|"
           (List.map
              (fun g -> String.concat "," (List.map string_of_int g))
              groups))
  | Heal -> Format.fprintf ppf "heal"

(** The interface every algorithm implements. Implementations must be
    pure: [handle] returns a fresh state and never mutates. *)
module type ALGO = sig
  type state
  type message
  type timer

  val name : string

  val fault_support : fault_support
  (** Which injected faults this algorithm models. Hosts raise
      {!Unsupported_fault} rather than inject an unmodelled fault. *)

  val init : Config.t -> node_id -> state
  (** Initial state of one node. *)

  val rejoin : Config.t -> node_id -> state
  (** State for a node restarting after a fail-stop crash: like
      [init], but a rejoining node must never resurrect authority it
      lost — in particular it must not re-manufacture the token or a
      coordinator role it held at start-up. *)

  val handle :
    Config.t ->
    now:float ->
    state ->
    (message, timer) input ->
    state * (message, timer) effect_ list
  (** One atomic step: consume an input, produce the successor state
      and the effects to apply. [now] is the host's current time; pure
      algorithms may only use it to compute relative deadlines. *)

  val in_cs : state -> bool
  (** Whether this node believes it is inside the critical section
      (used by safety checks). *)

  val cs_mode : state -> mode
  (** The mode of the node's current (or imminent) CS occupancy:
      [Shared] only while the node participates in a shared grant
      batch. Safety checks allow two nodes in the CS simultaneously
      only when both report [Shared]. Algorithms without a shared-mode
      path return [Exclusive] unconditionally. *)

  val wants_cs : state -> bool
  (** Whether this node has an unserved request (used by liveness
      checks). *)

  val message_kind : message -> string
  (** Short label for per-kind message accounting, e.g. ["REQUEST"]. *)

  val pp_message : Format.formatter -> message -> unit
  val pp_state : Format.formatter -> state -> unit
end
