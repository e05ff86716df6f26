(** The Banerjee–Chrysanthis arbiter/Q-list token protocol (ICDCS
    1996) as a single pure state machine.

    {!Types.Config} flags select the paper's variants: [monitor]
    enables the Section 4.1 starvation-free extension, [priorities]
    the Section 5.2 prioritized access, [least_served_first] the
    Section 5.1 strict fairness ordering, and [recovery] the Section 6
    failure handling. The exported modules {!Basic}, {!Monitored},
    {!Resilient}, {!Prioritized} and {!Fair} are thin specializations.

    All types are exposed concretely: tests, the model checker, and
    fault-injection harnesses inspect protocol states freely. Regular
    users should treat everything except {!init}, {!handle} and the
    two predicates as read-only. *)

open Types

(** One entry of a membership view. [maddr] is opaque metadata the
    pure protocol never interprets: the TCP runtime packs "host:port"
    into it so view changes double as address distribution, while the
    simulator and model checker leave it empty. *)
type member = { mid : node_id; maddr : string }

(** The epoch-numbered membership view. Epoch 0 is the birth view
    (members [0 .. n-1]); every committed join or leave increments
    it. Views are only changed by the token-holding arbiter, after a
    majority of the outgoing view acknowledged the proposal. *)
type view = { vnum : int; vmembers : member list }

(** The PRIVILEGE message's payload (the {e token}). Exactly one
    non-stale token exists at any time. *)
type token = {
  tq : Qlist.t;  (** The Q-list: nodes scheduled to enter the CS, in order. *)
  granted : Qlist.Granted.g;
      (** The Section 2.4 [L] vector: last served sequence number per
          node; makes retransmitted requests idempotent. *)
  epoch : int;
      (** Regeneration counter (Section 6): a token resurfacing from
          before a regeneration is discarded by its stale epoch. *)
  election : int;
      (** Arbiter hand-off counter; see {!new_arbiter.na_election}. *)
  vepoch : int;
      (** Membership view epoch the token was last dispatched under.
          Views only change while the token sits with the coordinator,
          so a token bearing an older view epoch than the receiver's is
          provably stale and rejected loudly. *)
}

(** A node's answer to the two-phase token invalidation ENQUIRY
    (Section 6): "I had the token and executed", "I have the token",
    "I am waiting for the token". *)
type enq_status = Have_token | Executed | Waiting_token

(** Payload of the NEW-ARBITER broadcast. *)
type new_arbiter = {
  na_arbiter : node_id;  (** The newly declared arbiter: [Tail(Q)]. *)
  na_q : Qlist.t;
      (** The dispatched Q-list — doubling as the implicit
          acknowledgement of every scheduled request (Section 6). *)
  na_granted : Qlist.Granted.g;  (** Best-known [L] vector. *)
  na_counter : int;
      (** Monitor-period counter (Section 4.1), reset by the
          monitor. *)
  na_monitor : node_id;  (** Current monitor node; [-1] = variant off. *)
  na_epoch : int;  (** Highest token epoch known to the sender. *)
  na_election : int;
      (** Monotone election number: receivers ignore announcements
          older than the latest they have seen, so a reordered stale
          broadcast can never re-elect a node that already handed the
          role on. *)
  na_view : view;
      (** The sender's membership view: every announcement is an
          anti-entropy carrier, so a member that missed a VIEW-CHANGE
          commit catches up at the next broadcast. *)
}

(** The part of a NEW-ARBITER announcement that the token cannot
    supply. With [Config.skip_new_arbiter_to_tail] on (Section 3.1), a
    dispatch whose Q-list is a single entry for another node sends no
    separate NEW-ARBITER to that node: its PRIVILEGE carries this
    record instead. A holder that has left the view hands the token on
    the same way, so the heir learns the view with it. The Q-list (the
    token's) and the announced arbiter (its tail, or the receiver for
    an empty queue) are implied; every optional field is [None] when
    it equals what the token says. Receipt applies the rebuilt
    announcement and then the token in one step, leaving the receiver
    exactly as NEW-ARBITER followed by PRIVILEGE would. *)
type handover = {
  ho_view : view;  (** The dispatcher's committed view ([na_view]). *)
  ho_granted : Qlist.Granted.g option;
      (** The dispatcher's [L] vector, when it differs from the
          token's. *)
  ho_epoch : int option;  (** [na_epoch], when it differs from the token's. *)
  ho_election : int option;
      (** [na_election], when it differs from the token's. *)
  ho_monitor : (node_id * int) option;
      (** Monitor and period counter (Section 4.1); [None] while the
          variant is off, where the counter means nothing. *)
}

(** Payload of the VIEW-CHANGE message (proposal and commit phases of
    a membership change). *)
type view_change = {
  vc_view : view;  (** The proposed / committed new view. *)
  vc_commit : bool;
      (** [false]: proposal — receivers only acknowledge reachability;
          a majority of the outgoing view must ack before commit.
          [true]: commit — receivers adopt the view and drain excised
          nodes from every queue. *)
  vc_granted : Qlist.Granted.g;  (** Joiner sync payload: [L] vector. *)
  vc_epoch : int;  (** Joiner sync payload: coordinator's token epoch. *)
  vc_election : int;  (** Joiner sync payload: election number. *)
  vc_arbiter : node_id;  (** The post-commit arbiter. *)
}

(** Protocol messages. The first five are the paper's; WARNING through
    PROBE-ACK implement Section 6. *)
type message =
  | Request of Qlist.entry  (** REQUEST(j, n): node j's (n+1)-th request. *)
  | Monitor_request of Qlist.entry
      (** Resubmission of a starving request to the monitor (§4.1). *)
  | Privilege of token * handover option
      (** The token, sent to [Head(Q)]; to a singleton tail, with the
          announcement folded in (see {!handover}). *)
  | Monitor_privilege of token
      (** Token routed through the monitor without a NEW-ARBITER
          broadcast; the monitor augments Q and broadcasts instead. *)
  | New_arbiter of new_arbiter
  | Warning  (** Requester's token timeout fired (§6). *)
  | Enquiry of { round : int }  (** Phase 1 of token invalidation. *)
  | Enquiry_reply of { round : int; status : enq_status }
  | Resume of { round : int }  (** Token located: continue normally. *)
  | Invalidate of { round : int }
      (** Token declared lost; the receiver is rescheduled at the
          front of the regenerating arbiter's queue. *)
  | Probe  (** Previous-arbiter liveness check of the current one. *)
  | Probe_ack
  | Join_request of member
      (** A node outside the view asks to be admitted; relayed toward
          the token-holding arbiter like a stashed request. *)
  | Leave_request of node_id
      (** Excise this node from the view (voluntary departure or an
          operator / liveness decision); relayed like JOIN-REQUEST. *)
  | View_change of view_change
  | View_ack of { va_vnum : int }
      (** Acknowledgement of a VIEW-CHANGE (either phase). *)
  | Read_grant of read_grant
      (** Shared-batch grant: the batch coordinator (the token-holding
          head reader of a maximal shared run) admits a fellow reader
          into the CS. [rg_minor] is the batch's fencing minor — the
          granted-vector total with the whole batch marked — so every
          reader of one batch derives the {e same} fencing token. *)
  | Read_done of { rd_seq : int }
      (** A batched reader left the CS; once every READ-DONE (and the
          coordinator's own CS) is in, the whole batch is marked served
          at once and the token moves on. *)

and read_grant = { rg_epoch : int; rg_minor : int; rg_entry : Qlist.entry }

(** Timer keys (managed by the hosting runtime via [Set_timer] /
    [Cancel_timer]; at most one instance of each key is armed). *)
type timer =
  | T_dispatch  (** End of the current request-collection window. *)
  | T_forward_end  (** End of the request-forwarding phase. *)
  | T_retry
      (** Blind retransmission of an unacknowledged request; patience
          scales with the observed Q-list length. *)
  | T_stash  (** Drain parked third-party requests toward the arbiter. *)
  | T_token  (** Requester's patience for the token (recovery). *)
  | T_enquiry  (** Arbiter's patience for ENQUIRY replies. *)
  | T_watch  (** The watcher's patience for arbiter liveness evidence. *)
  | T_probe  (** Patience for a PROBE answer. *)
  | T_view
      (** Joiner: re-send JOIN-REQUEST until admitted. Coordinator:
          re-send VIEW-CHANGE to silent members until quorum / acks.
          Otherwise: an idle firing re-surfaces the current view as a
          [Membership] note (used after restarts). *)
  | T_rbatch
      (** Batch coordinator's patience for READ-DONE replies: re-grant
          silent readers, and (with recovery on) eventually force the
          batch complete so a crashed reader cannot wedge the token. *)

(** The arbiter life-cycle of Figure 1, event-driven. *)
type role =
  | Normal  (** Not the arbiter. *)
  | Await_token of Qlist.t
      (** Elected arbiter, already collecting (the carried queue)
          while the token is still travelling to us. *)
  | Collecting of { cq : Qlist.t; anchor : float; armed : bool }
      (** Arbiter holding the token. [anchor] is the start of the
          window grid; [armed] whether [T_dispatch] is pending (an
          idle arbiter keeps no timer running). *)
  | Forwarding of { next_arbiter : node_id }
      (** Post-dispatch: relaying late requests to the new arbiter. *)

(** In-progress two-phase token invalidation (Section 6), at the
    arbiter running it. *)
type recovery = {
  rround : int;  (** This invalidation's round number. *)
  expected : node_id list;  (** Peers sent an ENQUIRY. *)
  replied : node_id list;
  waiting : Qlist.t;
      (** Entries of peers that answered [Waiting_token]; they go to
          the front of the regenerated token's queue. *)
}

(** An in-flight shared grant batch at its coordinator — the
    token-holding head reader of a maximal run of compatible [Shared]
    entries. The coordinator enters the CS itself, READ-GRANTs the
    rest of the run, and holds the token until its own CS and every
    READ-DONE are in; only then is the batch marked served (one
    served-vector update, one fencing advance) and the token passed
    on. A batch of one — every exclusive grant — never allocates
    this. *)
type rbatch = {
  rb_entries : Qlist.t;  (** The whole batch, coordinator's entry first. *)
  rb_await : node_id list;  (** Readers whose READ-DONE is still out. *)
  rb_minor : int;  (** The batch fencing minor, shared by every reader. *)
  rb_tries : int;  (** [T_rbatch] re-grant rounds already spent. *)
}

(** A reader admitted into the CS by a READ-GRANT: it holds no token;
    ([rg_fepoch], [rg_fminor]) is what its fencing derives from. *)
type rgrant = {
  rg_from : node_id;  (** The coordinator to answer with READ-DONE. *)
  rg_seq : int;  (** Our request being served. *)
  rg_fepoch : int;  (** Fencing epoch the grant rode in on. *)
  rg_fminor : int;  (** Shared batch fencing minor. *)
}

(** A view change in progress at its coordinator (the token-holding
    arbiter). *)
type pending_vc = {
  pv_view : view;  (** The new view being installed. *)
  pv_quorum : int;  (** Acks needed before commit, counting ourselves. *)
  pv_acks : node_id list;
  pv_committed : bool;
      (** [false]: proposal phase — dispatch is deferred so the token
          stays with the coordinator (the serialization point for
          views). [true]: committed and broadcast; re-sent on [T_view]
          to silent members until a majority of the new view acked. *)
}

(** Complete per-node protocol state. Pure: {!handle} returns a fresh
    value. *)
type state = {
  me : node_id;
  arbiter : node_id;  (** Believed current arbiter (the ARBITER variable). *)
  prev_arbiter : node_id;  (** Tracked only when [recovery] is on. *)
  monitor : node_id;  (** Current monitor; [-1] = variant off. *)
  role : role;
  next_seq : int;  (** Our request counter (Section 2.4 sequence numbers). *)
  outstanding : int option;  (** Sequence number of our in-flight request. *)
  out_mode : Types.mode;  (** Mode of the outstanding request. *)
  pending_modes : Types.mode list;
      (** Modes of the application requests queued behind
          [outstanding], oldest first. *)
  in_cs : bool;
  rbatch : rbatch option;
      (** We coordinate an in-flight shared batch (and hold the token). *)
  rgrant : rgrant option;  (** We are in the CS under a READ-GRANT. *)
  token : token option;
  suspended : bool;  (** Token passing frozen by an ENQUIRY (Section 6). *)
  misses : int;  (** Consecutive NEW-ARBITER broadcasts omitting us. *)
  monitor_misses : int;  (** Misses since the last monitor resubmission (τ). *)
  retries_left : int;  (** Timeout retransmissions remaining; [-1] = ∞. *)
  observed_q_len : int;  (** |Q| in the last announcement seen. *)
  last_q : Qlist.t;  (** Latest announced Q-list (recovery only). *)
  granted_known : Qlist.Granted.g;  (** Best-known [L] vector. *)
  na_counter : int;  (** §4.1 period counter (monitored variant only). *)
  qsizes : int list;  (** Moving window of |Q| (monitored variant only). *)
  executed_this_round : bool;  (** For ENQUIRY replies (recovery only). *)
  monitor_buffer : Qlist.t;  (** Requests parked at the monitor. *)
  stash : Qlist.t;
      (** Third-party requests that reached us while we were not the
          arbiter; relayed to the next arbiter we learn of. *)
  token_epoch : int;  (** Highest token epoch witnessed. *)
  election : int;  (** Highest election number witnessed. *)
  enq_round : int;  (** Highest ENQUIRY round seen or started. *)
  recovery : recovery option;
  watching : bool;
      (** Recovery only: we are the {e unique} watcher of the current
          arbiter (the last dispatcher that handed the role to someone
          else). Uniqueness is what makes PROBE-timeout takeover safe:
          two simultaneous self-proclaimed arbiters would regenerate
          two tokens. *)
  amnesiac : bool;
      (** Restarted with no durable state: epoch/election knowledge
          may be arbitrarily stale, so the node refuses to start or
          finish a token regeneration until a live NEW-ARBITER or
          PRIVILEGE re-anchors it. *)
  sync_wait : bool;
      (** Restarted: application requests are parked until the first
          announcement (or token) is absorbed, so a higher epoch out
          there reaches us before our own REQUEST goes out. [T_retry]
          is the escape valve when the system stays silent. *)
  view : view;  (** Current membership view. *)
  joining : bool;
      (** We are outside every view, periodically ([T_view]) knocking
          with JOIN-REQUEST until a commit admits us. *)
  pending_vc : pending_vc option;
      (** Coordinator only: the view change being installed. *)
  incarnation_seq : int;
      (** The seq of this incarnation's first request ([0] unless
          restarted from a store). Our entries below it in an arriving
          token's Q-list were issued before a crash and their callers
          died with it: they are marked served and skipped, never
          entered, and the token — the one the cluster lost to the
          crash, possibly superseded since — does not end the restart's
          resynchronization. *)
  last_token_seen : float;
      (** Recovery only: the last instant the live token was in this
          node's hands (received, held through a CS, dispatched or
          regenerated). A WARNING arriving within one
          [Config.token_timeout] of this is staler than the node's own
          knowledge and is ignored — its own dispatch-time watchdog
          covers the interim, and an enquiry round racing a live token
          can regenerate a second one. *)
}

val name : string

val fault_support : Types.fault_support
(** Both [crash_stop] and [message_loss]: the paper's recovery
    machinery (NEW-ARBITER election, quorum-gated token regeneration)
    makes injected crashes and losses part of the modelled
    behaviour. *)

val init : Config.t -> node_id -> state
(** Initial state: [Config.initial_arbiter] starts as the collecting
    arbiter holding the token; everyone else is [Normal]. *)

val rejoin : Config.t -> node_id -> state
(** Post-crash restart state: always a plain participant — never
    resurrects the token or the arbiter role (see
    {!Types.ALGO.rejoin}). With the recovery variant on, the state is
    additionally {!state.amnesiac} and {!state.sync_wait}: a node that
    lost all durable state must not regenerate tokens or issue
    requests until resynchronized. *)

(** The protocol-critical slice of state recovered from a durable
    store ([Dmutex_store]) at restart. *)
type restored = {
  r_epoch : int;  (** Highest token epoch proven durable. *)
  r_election : int;  (** Highest election number proven durable. *)
  r_enq_round : int;  (** Highest ENQUIRY round proven durable. *)
  r_next_seq : int;  (** The node's own request counter. *)
  r_granted : Qlist.Granted.g;  (** Last durable [L] vector. *)
  r_had_token : bool;
      (** Custody was durable at the crash: the token provably died
          with this node. [rejoin_restored] never resurrects the token
          object; the caller reacts by injecting
          [Receive (me, Warning)] so the Section 6 invalidation runs
          against knowledge that cannot over-claim. *)
  r_view : (int * (node_id * string) list) option;
      (** Last durable membership view (epoch, members with address
          metadata): a mid-churn restart rejoins the {e current} view,
          not the birth view. *)
}

val rejoin_restored : Config.t -> node_id -> restored -> state
(** Like {!rejoin}, but seeded from a durable store: the monotone
    counters and the [L] vector come back, so the node is {e not}
    amnesiac — though it still resynchronizes ({!state.sync_wait})
    before issuing its first request. *)

val joiner :
  Config.t -> me:node_id -> seed:node_id -> addr:string -> state
(** State for a brand-new node outside every view: it knows only its
    own identity, its address metadata, and one [seed] member to
    contact. The runtime injects a first [Timer_fired T_view]; every
    firing sends JOIN-REQUEST toward the seed (relayed to the
    token-holding arbiter) and re-arms, until a VIEW-CHANGE commit
    admits the node. Application requests park ({!state.sync_wait})
    until the commit's sync payload re-anchors the counters. *)

val birth_view : Config.t -> view
(** Epoch 0, members [0 .. n-1], empty address metadata. *)

val member_ids : view -> node_id list
val is_member : view -> node_id -> bool

val handle :
  Config.t ->
  now:float ->
  state ->
  (message, timer) input ->
  state * (message, timer) effect_ list
(** One atomic protocol step. See {!Types.ALGO.handle}. *)

val in_cs : state -> bool
val wants_cs : state -> bool

val cs_mode : state -> Types.mode
(** [Shared] only while this node participates in a live shared batch
    (coordinator or READ-GRANTed reader); [Exclusive] otherwise — in
    particular for a solo shared grant, which rides the unchanged
    exclusive path. See {!Types.ALGO.cs_mode}. *)

val wait_edges : state -> (Types.node_id * Types.node_id) list
(** Wait-for edges visible from this node, as [(waiter, holder)]
    pairs: the entries queued in the token's Q-list behind the grant
    currently being served. Empty unless this node holds the token
    with a holder in the CS, so exactly one node per lock contributes
    at any instant; the per-lock union across nodes feeds the
    cross-lock wait-for-graph deadlock detector
    ({!Dmutex_obs.Wfg}). *)

val message_kind : message -> string
(** ["REQUEST"], ["PRIVILEGE"], ["NEW-ARBITER"], ... — the labels used
    in per-kind message accounting. A PRIVILEGE with a folded
    announcement is one ["PRIVILEGE"]. *)

val pp_message : Format.formatter -> message -> unit
val pp_role : Format.formatter -> role -> unit
val pp_state : Format.formatter -> state -> unit
