(* The Banerjee-Chrysanthis arbiter/Q-list token protocol (ICDCS'96),
   as one pure state machine. Config flags select the paper's variants:
   [monitor] enables the Section 4.1 starvation-free extension,
   [priorities] the Section 5.2 prioritized access, [recovery] the
   Section 6 failure handling. The exported modules [Basic],
   [Monitored], [Resilient] and [Prioritized] in this library are thin
   specializations of this module. *)

open Types

type member = { mid : node_id; maddr : string }
(* [maddr] is opaque metadata the pure protocol never interprets; the
   TCP runtime packs "host:port" into it so a View_change doubles as
   address distribution, while the simulator and model checker leave
   it empty. *)

type view = { vnum : int; vmembers : member list }
(* The epoch-numbered membership view. [vnum] 0 is the birth view
   (members 0..n-1); every committed join/leave increments it. Member
   lists are kept sorted by id. *)

type token = {
  tq : Qlist.t;
  granted : Qlist.Granted.g;
  epoch : int;
  election : int;
  vepoch : int;
}
(* [epoch] is incremented each time a lost token is regenerated
   (Section 6); it lets nodes discard a stale token that resurfaces
   after regeneration, which the paper's prose assumes away.
   [election] counts arbiter hand-offs: every dispatch increments it,
   and it rides in both the token and the NEW-ARBITER broadcast so
   that a reordered stale announcement can never re-elect a node that
   has already passed the role on. [vepoch] is the membership view
   the token was last dispatched under: view changes are only
   committed by a token-holding arbiter, so a token bearing an older
   view epoch than the receiver's is provably stale and rejected. *)

type enq_status = Have_token | Executed | Waiting_token

type new_arbiter = {
  na_arbiter : node_id;
  na_q : Qlist.t;
  na_granted : Qlist.Granted.g;
  na_counter : int;  (* adaptive monitor period counter (Section 4.1) *)
  na_monitor : node_id;  (* current monitor; -1 when the variant is off *)
  na_epoch : int;
  na_election : int;
  na_view : view;
}
(* [na_view] makes every announcement an anti-entropy carrier for the
   membership view: a member that missed a VIEW-CHANGE commit catches
   up at the next broadcast instead of dropping the new member's
   frames forever. *)

type handover = {
  ho_view : view;
  ho_granted : Qlist.Granted.g option;
  ho_epoch : int option;
  ho_election : int option;
  ho_monitor : (node_id * int) option;
}
(* The part of a NEW-ARBITER the token cannot supply, folded into the
   PRIVILEGE of a singleton tail (Section 3.1) and of an excised
   holder's hand-off. The Q-list is the token's and the announced
   arbiter its tail (the receiver, for a singleton or an empty queue);
   each optional field is [None] when the token already says the
   same. *)

type view_change = {
  vc_view : view;  (* the proposed / committed new view *)
  vc_commit : bool;  (* false = proposal (quorum phase), true = commit *)
  vc_granted : Qlist.Granted.g;
  vc_epoch : int;  (* coordinator's token epoch — joiner sync payload *)
  vc_election : int;
  vc_arbiter : node_id;
}

type message =
  | Request of Qlist.entry
  | Monitor_request of Qlist.entry
      (* resubmission of a starving request directly to the monitor *)
  | Privilege of token * handover option
  | Monitor_privilege of token
      (* token routed through the monitor without a NEW-ARBITER
         broadcast; the monitor broadcasts instead *)
  | New_arbiter of new_arbiter
  | Warning
  | Enquiry of { round : int }
  | Enquiry_reply of { round : int; status : enq_status }
  | Resume of { round : int }
  | Invalidate of { round : int }
  | Probe
  | Probe_ack
  | Join_request of member
      (* a node outside the view asks to be admitted; relayed toward
         the token-holding arbiter like a stashed request *)
  | Leave_request of node_id
      (* excise this node from the view (voluntary departure or an
         operator/liveness decision); relayed like Join_request *)
  | View_change of view_change
  | View_ack of { va_vnum : int }
  | Read_grant of read_grant
      (* shared-batch grant: the batch coordinator (the token-holding
         head reader) admits a fellow reader into the CS. [rg_minor] is
         the batch's fencing minor — the granted-vector total with the
         whole batch marked — so every reader in the batch surfaces the
         same fencing token. *)
  | Read_done of { rd_seq : int }
      (* a batched reader left the CS; the coordinator may pass the
         token on once every reader (and itself) is done *)

and read_grant = { rg_epoch : int; rg_minor : int; rg_entry : Qlist.entry }

type timer =
  | T_dispatch  (* end of the current request-collection window *)
  | T_forward_end  (* end of the request-forwarding phase *)
  | T_retry  (* blind retransmission of an unacknowledged request *)
  | T_stash  (* drain parked third-party requests toward the arbiter *)
  | T_token  (* requester's patience for the token (recovery) *)
  | T_enquiry  (* arbiter's patience for ENQUIRY replies *)
  | T_watch  (* previous arbiter watching the new arbiter *)
  | T_probe  (* patience for a PROBE answer *)
  | T_view
      (* joiner: re-send JOIN-REQUEST until admitted; coordinator:
         re-send VIEW-CHANGE to silent members until quorum/acks *)
  | T_rbatch
      (* batch coordinator's patience for READ-DONE replies: re-grant
         silent readers, and (with recovery on) eventually force the
         batch complete so a crashed reader cannot wedge the token *)

type role =
  | Normal
  | Await_token of Qlist.t
      (* elected arbiter, collecting while the token travels to us *)
  | Collecting of { cq : Qlist.t; anchor : float; armed : bool }
      (* arbiter holding the token; [anchor] is the start of the
         current collection window, [armed] whether T_dispatch is set *)
  | Forwarding of { next_arbiter : node_id }

type recovery = {
  rround : int;
  expected : node_id list;  (* peers we sent ENQUIRY to *)
  replied : node_id list;
  waiting : Qlist.t;  (* entries of peers that answered "waiting" *)
}

type rbatch = {
  rb_entries : Qlist.t;  (* the whole batch, coordinator's entry first *)
  rb_await : node_id list;  (* readers whose READ-DONE is still out *)
  rb_minor : int;  (* the batch fencing minor, shared by every reader *)
  rb_tries : int;  (* T_rbatch re-grant rounds already spent *)
}
(* The token-holding head reader of a maximal shared run coordinates
   the batch: it enters the CS itself, READ-GRANTs the other readers,
   and holds the token until its own CS and every READ-DONE are in.
   Only then is the whole batch marked served (one served-vector
   update, one fencing advance) and the token passed on. *)

type rgrant = {
  rg_from : node_id;  (* the coordinator to answer with READ-DONE *)
  rg_seq : int;  (* our request being served *)
  rg_fepoch : int;  (* fencing epoch the grant rode in on *)
  rg_fminor : int;  (* shared batch fencing minor *)
}
(* A reader admitted into the CS by a READ-GRANT: it holds no token;
   the pair (rg_fepoch, rg_fminor) is what its fencing derives from. *)

type pending_vc = {
  pv_view : view;  (* the new view being installed *)
  pv_quorum : int;  (* acks needed, counting ourselves *)
  pv_acks : node_id list;
  pv_committed : bool;
      (* false: proposal phase — a majority of the OLD view must ack
         before commit, so a partitioned minority can never change the
         view. true: committed locally and broadcast; we keep
         re-sending to silent new-view members until a majority of the
         NEW view has acked (announcements carry the view onward). *)
}

type state = {
  me : node_id;
  arbiter : node_id;
  prev_arbiter : node_id;
  monitor : node_id;  (* -1 = starvation-free variant off *)
  role : role;
  next_seq : int;
  outstanding : int option;  (* seq of our in-flight request *)
  out_mode : Types.mode;  (* mode of the outstanding request *)
  pending : int;  (* application requests queued behind [outstanding] *)
  pending_modes : Types.mode list;
  (* FIFO modes of the [pending] queued requests, oldest first; kept
     exactly [pending] long so surfacing a pending request knows its
     mode *)
  in_cs : bool;
  rbatch : rbatch option;  (* we coordinate an in-flight shared batch *)
  rgrant : rgrant option;  (* we are in the CS under a READ-GRANT *)
  token : token option;
  suspended : bool;  (* token passing frozen by an ENQUIRY (Section 6) *)
  misses : int;  (* consecutive NEW-ARBITER broadcasts omitting us *)
  monitor_misses : int;  (* misses since last resubmission, for τ *)
  retries_left : int;  (* timeout retransmissions remaining; -1 = ∞ *)
  observed_q_len : int;  (* |Q| in the last announcement we saw *)
  last_q : Qlist.t;  (* Q-list of the latest NEW-ARBITER we saw *)
  granted_known : Qlist.Granted.g;  (* best-known L vector *)
  na_counter : int;
  qsizes : int list;  (* moving window of observed |Q|, newest first *)
  executed_this_round : bool;
  monitor_buffer : Qlist.t;  (* requests parked at the monitor *)
  stash : Qlist.t;
  (* requests that reached us while we were not the arbiter; handed to
     the next arbiter we learn of (see receive_request) *)
  token_epoch : int;  (* highest token epoch witnessed *)
  election : int;  (* highest election number witnessed *)
  enq_round : int;  (* highest ENQUIRY round seen or started *)
  recovery : recovery option;
  watching : bool;
  (* recovery only: we are the (unique) watcher of the current arbiter
     — the last dispatcher that handed the role to someone else. The
     uniqueness is what makes PROBE-timeout takeover safe: two
     simultaneous self-proclaimed arbiters would regenerate two
     tokens. *)
  amnesiac : bool;
  (* restarted with no durable state: our epoch/election counters may
     be arbitrarily stale, so starting or finishing a token
     regeneration could mint a second token (or reuse a burnt epoch).
     Cleared by the first current-election NEW-ARBITER or PRIVILEGE
     absorbed — fresh knowledge that re-anchors the counters. *)
  sync_wait : bool;
  (* restarted: park application requests until the first announcement
     (or token) is absorbed, so any higher epoch heard resynchronizes
     us before our own REQUEST goes out. T_retry is the escape valve
     when the system is idle and no announcement ever comes. *)
  view : view;  (* current membership view *)
  joining : bool;
  (* we are outside the view, periodically (T_view) sending
     JOIN-REQUEST to our seed contact until a VIEW-CHANGE commit
     containing us arrives *)
  pending_vc : pending_vc option;
  (* coordinator only: the view change we are installing. Dispatch is
     deferred while a proposal is un-committed, so the token never
     leaves the coordinator mid-view-change — which is exactly what
     makes the token the serialization point for views. *)
  incarnation_seq : int;
  (* the seq of this incarnation's first request: our Q-list entries
     below it were issued before a crash, and their callers died with
     that incarnation (see [shed_past_life]) *)
  last_token_seen : float;
  (* recovery only: the last instant the live token was in our hands
     (received, held through a CS, dispatched or regenerated). A
     WARNING arriving within one token_timeout of this is staler than
     our own knowledge and is ignored: starting an enquiry round while
     the token demonstrably lives can race it (every reply can say
     "waiting" while the token is airborne between two repliers) and
     end in a second token. *)
}

let name = "banerjee-chrysanthis"

(* The paper's protocol is explicitly fault-tolerant: NEW-ARBITER
   election survives arbiter crashes and token regeneration survives
   token-holder crashes, so injected crash-stop faults and lost
   messages are within the modelled behaviour. *)
let fault_support = { Types.crash_stop = true; message_loss = true }

let no_monitor = -1

(* ------------------------------------------------------------------ *)
(* Membership views                                                    *)

let birth_view cfg =
  { vnum = 0;
    vmembers = List.init cfg.Config.n (fun i -> { mid = i; maddr = "" }) }

let member_ids v = List.map (fun m -> m.mid) v.vmembers
let is_member v j = List.exists (fun m -> m.mid = j) v.vmembers
let view_size v = List.length v.vmembers
let majority v = (view_size v / 2) + 1

let sort_members ms =
  List.sort_uniq (fun a b -> compare a.mid b.mid) ms

(* Emit the legacy Broadcast effect while the view is still the birth
   universe — runtimes deliver it to 0..n-1, and simulator/model-
   checker/bench accounting stays bit-identical to the fixed-N
   protocol. Any churned view uses explicit per-member sends. *)
let is_birth cfg v = v.vnum = 0 && view_size v = cfg.Config.n

let bcast cfg st msg =
  if is_birth cfg st.view then [ Broadcast msg ]
  else
    List.filter_map
      (fun m -> if m.mid = st.me then None else Some (Send (m.mid, msg)))
      st.view.vmembers

let note_view v =
  Note
    (Membership
       { vepoch = v.vnum;
         members = List.map (fun m -> (m.mid, m.maddr)) v.vmembers })

let init cfg me =
  let cfg = Config.validate cfg in
  let monitor = match cfg.Config.monitor with Some m -> m | None -> no_monitor in
  let is_first = me = cfg.Config.initial_arbiter in
  {
    me;
    arbiter = cfg.Config.initial_arbiter;
    prev_arbiter = cfg.Config.initial_arbiter;
    monitor;
    role =
      (if is_first then Collecting { cq = []; anchor = 0.0; armed = false }
       else Normal);
    next_seq = 0;
    outstanding = None;
    out_mode = Types.Exclusive;
    pending = 0;
    pending_modes = [];
    in_cs = false;
    rbatch = None;
    rgrant = None;
    token =
      (if is_first then
         Some
           { tq = []; granted = Qlist.Granted.create cfg.Config.n; epoch = 0;
             election = 0; vepoch = 0 }
       else None);
    suspended = false;
    misses = 0;
    monitor_misses = 0;
    retries_left = 0;
    observed_q_len = 0;
    last_q = [];
    granted_known = Qlist.Granted.create cfg.Config.n;
    na_counter = 0;
    qsizes = [];
    executed_this_round = false;
    monitor_buffer = [];
    stash = [];
    token_epoch = 0;
    election = 0;
    enq_round = 0;
    recovery = None;
    watching = false;
    view = birth_view cfg;
    joining = false;
    pending_vc = None;
    amnesiac = false;
    sync_wait = false;
    incarnation_seq = 0;
    (* Never: a node that has never touched the token must not treat
       a WARNING as stale, whatever the clock says. *)
    last_token_seen = Float.neg_infinity;
  }

(* A restarted node comes back as a plain participant: shift the
   would-be initial arbiter away from [me] so [init] gives us neither
   the token nor the arbiter role. It resynchronizes through the next
   NEW-ARBITER broadcast (and the relaying of its stale-addressed
   requests). With the recovery variant on, a restart with no durable
   state is {e amnesia}: the node must neither claim anything about
   the token nor regenerate one until fresh knowledge arrives (see the
   [amnesiac] field). *)
let rejoin cfg me =
  let cfg = Config.validate cfg in
  let base =
    if cfg.Config.n = 1 then init cfg me
    else if cfg.Config.initial_arbiter = me then
      init
        { cfg with Config.initial_arbiter = (me + 1) mod cfg.Config.n }
        me
    else init cfg me
  in
  if cfg.Config.recovery && cfg.Config.n > 1 then
    { base with amnesiac = true; sync_wait = true }
  else base

(* A brand-new node outside every view: it knows only its own identity
   and one seed member to contact. The runtime injects a first
   [Timer_fired T_view]; every firing sends JOIN-REQUEST toward the
   seed (relayed to the token-holding arbiter) and re-arms, until a
   VIEW-CHANGE commit admits us. Application requests park behind
   [sync_wait] until the commit's sync payload re-anchors us. *)
let joiner cfg ~me ~seed ~addr =
  let cfg = Config.validate cfg in
  if seed = me then invalid_arg "Protocol.joiner: seed must differ from me";
  let ia = if me = 0 then min 1 (cfg.Config.n - 1) else 0 in
  let base = init { cfg with Config.initial_arbiter = ia } me in
  {
    base with
    arbiter = seed;
    prev_arbiter = seed;
    view = { vnum = -1; vmembers = [ { mid = me; maddr = addr } ] };
    joining = true;
    sync_wait = true;
  }

type restored = {
  r_epoch : int;
  r_election : int;
  r_enq_round : int;
  r_next_seq : int;
  r_granted : Qlist.Granted.g;
  r_had_token : bool;
  r_view : (int * (node_id * string) list) option;
      (* last durable membership view: a mid-churn restart must rejoin
         the current view, not the birth view *)
}

(* A restart backed by a durable store: the monotone counters and the
   L vector come back, so the node is not amnesiac — its epoch
   knowledge is exactly what it had proven durable before the crash.
   It still resynchronizes ([sync_wait]) before issuing requests, and
   it never resurrects the token object itself: if custody was durable
   at the crash, the token provably died with us and the caller
   injects a WARNING to start the Section 6 invalidation. *)
let rejoin_restored cfg me r =
  let base = rejoin cfg me in
  let view =
    match r.r_view with
    | Some (vnum, ms) when vnum > 0 ->
        { vnum;
          vmembers =
            sort_members (List.map (fun (mid, maddr) -> { mid; maddr }) ms) }
    | _ -> base.view
  in
  {
    base with
    amnesiac = false;
    sync_wait = cfg.Config.recovery && cfg.Config.n > 1;
    next_seq = r.r_next_seq;
    incarnation_seq = r.r_next_seq;
    granted_known = Qlist.Granted.merge base.granted_known r.r_granted;
    token_epoch = max base.token_epoch r.r_epoch;
    election = max base.election r.r_election;
    enq_round = max base.enq_round r.r_enq_round;
    view;
    arbiter = (if is_member view base.arbiter then base.arbiter
               else (match member_ids view with
                     | m :: _ when m <> me -> m
                     | _ :: m :: _ -> m
                     | _ -> base.arbiter));
  }

let in_cs st = st.in_cs
let wants_cs st = st.outstanding <> None || st.pending > 0

(* Shared occupancy exists only inside a live batch: a coordinator (or
   a READ-GRANTed reader) reports [Shared]; a solo shared request rides
   the unchanged exclusive path and conservatively reports [Exclusive]. *)
let cs_mode st =
  if st.rgrant <> None || st.rbatch <> None then Types.Shared
  else Types.Exclusive

(* Wait-for edges visible from this node, as [(waiter, holder)] pairs.
   Only the token holder sees the authoritative Q-list, so exactly one
   node per lock contributes edges at any instant; the union across
   locks is the cluster's wait-for graph ({!Dmutex_obs.Wfg}). Holders
   are this node (exclusive) or the live reader batch; waiters are the
   queued entries behind them. *)
let wait_edges st =
  match st.token with
  | None -> []
  | Some tk ->
      let holders =
        match st.rbatch with
        | Some b ->
            List.map (fun (e : Qlist.entry) -> e.Qlist.node) b.rb_entries
        | None -> if st.in_cs then [ st.me ] else []
      in
      if holders = [] then []
      else
        let waiters =
          List.filter_map
            (fun (e : Qlist.entry) ->
              if List.mem e.Qlist.node holders then None
              else Some e.Qlist.node)
            tk.tq
        in
        List.concat_map
          (fun w -> List.map (fun h -> (w, h)) holders)
          waiters

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let monitored st = st.monitor >= 0

let truncate_window cfg xs =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take cfg.Config.window xs

let avg_qsize_ceiling st =
  match st.qsizes with
  | [] -> 1 (* no observations yet: shortest period, per the paper's
               low-load reasoning *)
  | xs ->
      let sum = List.fold_left ( + ) 0 xs in
      let mean = float_of_int sum /. float_of_int (List.length xs) in
      max 1 (int_of_float (Float.ceil mean))

(* A requester's patience before blindly retransmitting: at least the
   configured floor, and at least a few full queue rotations as
   estimated from the last announced Q-list length — at saturation a
   rotation (and hence the next implicit ack) takes |Q|·(T_msg+T_exec),
   which can dwarf any fixed timeout. *)
let retry_delay cfg st =
  let rotation =
    float_of_int (max 1 st.observed_q_len)
    *. (cfg.Config.t_msg +. cfg.Config.t_exec)
  in
  Float.max cfg.Config.retry_timeout
    ((3.0 *. rotation) +. cfg.Config.t_collect +. cfg.Config.t_forward)

(* Residual time until the next conceptual collection-window boundary.
   Faithful to the paper's fixed windows without busy-looping when the
   system is idle: the window grid is anchored at [anchor]. *)
let window_residual cfg ~now ~anchor =
  let w = cfg.Config.t_collect in
  if w <= 0.0 then 0.0
  else
    let elapsed = now -. anchor in
    let r = w -. Float.rem elapsed w in
    if r <= 0.0 then w else r

(* Effects arming a window for its first request. With
   [Config.early_close], an arbiter that has held the token through a
   whole empty window since [anchor] closes this one at once. The
   dispatch still runs on the (zero-delay) timer, like every other. *)
let arm_window cfg ~now ~anchor =
  let w = cfg.Config.t_collect in
  if cfg.Config.early_close && w > 0.0 && now -. anchor >= w then
    [ Set_timer (T_dispatch, 0.0); Note (Custom "window-skipped") ]
  else [ Set_timer (T_dispatch, window_residual cfg ~now ~anchor) ]

(* State components that only optional variants read are kept at
   their initial value when the variant is off: the protocol behaves
   identically, and the model checker's state space stays small. *)
let observe_qsize cfg st q =
  if monitored st then truncate_window cfg (List.length q :: st.qsizes)
  else []

let keep_last_q cfg q = if cfg.Config.recovery then q else []
let keep_prev cfg st v = if cfg.Config.recovery then v else st.prev_arbiter
let keep_counter st v = if monitored st then v else 0

(* ------------------------------------------------------------------ *)
(* Requester side                                                      *)

(* Pop the oldest pending request's mode; callers pair this with the
   [pending - 1] bookkeeping. Exclusive when the mode queue is somehow
   short — the conservative default. *)
let pop_pending_mode st =
  match st.pending_modes with
  | m :: rest -> (m, { st with pending_modes = rest })
  | [] -> (Types.Exclusive, st)

(* Queue a request at a collecting node: an arbiter awaiting the token,
   or one holding it, whose window the first request arms. *)
let accept_request cfg ~now st e =
  match st.role with
  | Await_token q -> ({ st with role = Await_token (Qlist.enqueue e q) }, [])
  | Collecting { cq; anchor; armed } ->
      ( { st with
          role =
            Collecting { cq = Qlist.enqueue e cq; anchor; armed = true } },
        if armed then [] else arm_window cfg ~now ~anchor )
  | Normal | Forwarding _ -> assert false

(* Issue the next application request: either register directly in our
   own collection (when we are the arbiter) or send REQUEST(me, seq) to
   the believed arbiter. *)
let issue_request cfg ~now ?(mode = Types.Exclusive) st =
  let seq = st.next_seq in
  let e = Qlist.entry ~mode ~node:st.me ~seq () in
  let st =
    { st with next_seq = seq + 1; outstanding = Some seq; out_mode = mode;
      misses = 0; monitor_misses = 0; retries_left = cfg.Config.max_retries }
  in
  match st.role with
  | Await_token _ | Collecting _ -> accept_request cfg ~now st e
  | Normal | Forwarding _ ->
      let arm =
        if cfg.Config.max_retries = 0 then []
        else [ Set_timer (T_retry, retry_delay cfg st) ]
      in
      (* Lost-token watchdog from the moment the request leaves us, not
         only once a Q-list acknowledges it: if the request wanders
         between stale stash-relays because the elected arbiter died
         with the token in transit (and restarted as a normal node), no
         announcement ever comes — yet someone must eventually WARNING
         the believed arbiter or the token stays lost forever. Spurious
         firings are harmless: the warned node holds (or locates) the
         token and recovery never starts. *)
      let watchdog =
        if cfg.Config.recovery then
          [ Set_timer (T_token, cfg.Config.token_timeout) ]
        else []
      in
      (st, (Send (st.arbiter, Request e) :: arm) @ watchdog)

let request_cs cfg ~now ?(mode = Types.Exclusive) st =
  if st.outstanding <> None || st.in_cs then
    ( { st with pending = st.pending + 1;
        pending_modes = st.pending_modes @ [ mode ] },
      [] )
  else if st.sync_wait then
    (* Restarted and not yet resynchronized: park the request until
       the first announcement (or token) is absorbed, so any higher
       epoch out there reaches us before our own REQUEST goes out.
       T_retry is the escape valve if the system stays silent. *)
    ( { st with pending = st.pending + 1;
        pending_modes = st.pending_modes @ [ mode ] },
      [ Set_timer (T_retry, retry_delay cfg st) ] )
  else issue_request cfg ~now ~mode st

(* Fresh current-election knowledge arrived (a live NEW-ARBITER or the
   token itself): the restart resynchronization is over. Clears both
   gates and surfaces a parked application request, now addressed to
   the arbiter we just learned of. *)
let end_resync cfg ~now st =
  if not (st.amnesiac || st.sync_wait) then (st, [])
  else
    let was_waiting = st.sync_wait in
    let st = { st with amnesiac = false; sync_wait = false } in
    if was_waiting && st.pending > 0 && st.outstanding = None && not st.in_cs
    then
      let mode, st = pop_pending_mode st in
      let st = { st with pending = st.pending - 1 } in
      issue_request cfg ~now ~mode st
    else (st, [])

(* ------------------------------------------------------------------ *)
(* Folded announcements (Section 3.1)                                  *)

(* Fold an announcement into the PRIVILEGE that carries [token],
   keeping only what the token does not already say; [unfold] is its
   inverse at the receiver. The announced arbiter is the tail of the
   token's queue, or the receiver when the queue is empty. *)
let fold (na : new_arbiter) token =
  let unless_token x tx = if x = tx then None else Some x in
  { ho_view = na.na_view;
    ho_granted = unless_token na.na_granted token.granted;
    ho_epoch = unless_token na.na_epoch token.epoch;
    ho_election = unless_token na.na_election token.election;
    ho_monitor =
      (if na.na_monitor = no_monitor then None
       else Some (na.na_monitor, na.na_counter)) }

let unfold st token ho =
  let na_monitor, na_counter =
    match ho.ho_monitor with Some mc -> mc | None -> (no_monitor, 0)
  in
  { na_arbiter =
      (match Qlist.final_holder token.tq with Some t -> t | None -> st.me);
    na_q = token.tq;
    na_granted = Option.value ho.ho_granted ~default:token.granted;
    na_counter;
    na_monitor;
    na_epoch = Option.value ho.ho_epoch ~default:token.epoch;
    na_election = Option.value ho.ho_election ~default:token.election;
    na_view = ho.ho_view }

(* The hand-off of a token holder that has left the view: the token,
   stamped with the committed view and drained of excised entries,
   goes to the head of its queue (or the lowest survivor), announcing
   the arbiter it will elect. The heir may not have the commit yet; the
   folded announcement brings it the view with the token, so it never
   holds a token newer than its view. *)
let handoff_token st tk =
  let tk =
    { tk with
      tq = List.filter (fun e -> is_member st.view e.Qlist.node) tk.tq;
      vepoch = st.view.vnum }
  in
  let heir =
    match tk.tq with
    | e :: _ -> e.Qlist.node
    | [] -> ( match member_ids st.view with h :: _ -> h | [] -> st.me)
  in
  if heir = st.me then []
  else
    let na =
      { na_arbiter =
          (match Qlist.final_holder tk.tq with Some t -> t | None -> heir);
        na_q = tk.tq;
        na_granted = st.granted_known;
        na_counter = st.na_counter;
        na_monitor = st.monitor;
        na_epoch = st.token_epoch;
        na_election = st.election;
        na_view = st.view }
    in
    [ Send (heir, Privilege (tk, Some (fold na tk))) ]

(* ------------------------------------------------------------------ *)
(* Membership: adopting a committed view                               *)

(* Adopt a newer committed view: every structure that can hold entries
   (or identities) of excised nodes is drained — the Q-list inside a
   held token, the collection queues, the stash, the monitor buffer,
   the last announced Q-list, and an in-flight enquiry round's target
   and reply sets — without losing the token. The sync payload's
   monotone knowledge (L vector, token epoch, election) is absorbed,
   and the change is surfaced to the runtime as a [Membership] note so
   transports and liveness monitors re-point on the fly. *)
(* Requests a node holds outside any token queue: the collection
   queue, the pre-queue of an arbiter awaiting the token, the resync
   stash, the monitor's parking buffer, and requests frozen by an
   in-flight enquiry round. An excised arbiter must fold these into
   the token it hands off — dropping them silently starves the
   requesters, whose blind retries are finite. *)
let parked_requests st =
  (match st.role with
  | Collecting { cq; _ } -> cq
  | Await_token q -> q
  | Normal | Forwarding _ -> [])
  @ st.stash @ st.monitor_buffer
  @ (match st.recovery with Some r -> r.waiting | None -> [])

(* The queue an excised token-holder hands off: surviving token-queue
   entries first, then surviving parked requests not already served.
   Shared with [commit_view] so the arbiter named in the commit and
   the heir the token actually goes to always agree. *)
let drained_queue st (v : view) ~granted tk =
  let keep e = is_member v e.Qlist.node in
  let merged = Qlist.Granted.merge tk.granted granted in
  List.fold_left
    (fun acc e -> Qlist.enqueue e acc)
    (List.filter keep tk.tq)
    (Qlist.prune merged (List.filter keep (parked_requests st)))

let apply_view cfg ~now st (v : view) ~granted ~tepoch ~elec ~arbiter =
  let keep e = is_member v e.Qlist.node in
  let filter_q = List.filter keep in
  (* Survivors' requests parked at this node, not yet in any token. *)
  let absorb tk =
    { tk with
      tq = drained_queue st v ~granted tk;
      granted = Qlist.Granted.merge tk.granted granted }
  in
  if st.joining && not (is_member v st.me) then
    (* Still outside the view: keep knocking. Adopting a universe that
       excludes us would stop the join retries (and lose our own
       address metadata). *)
    (st, [])
  else if not (is_member v st.me) then
    if (st.in_cs || st.rbatch <> None) && st.token <> None then
      (* Excised while inside the critical section: adopting the view
         must not hand the token away under our feet — mutual
         exclusion outranks membership. Adopt the view, shed every
         other responsibility, but keep the token and the CS; the
         hand-off happens at [Cs_done] (see [cs_done]). *)
      ( { st with
          view = v;
          joining = false;
          pending_vc = None;
          role = Normal;
          (* Parked survivor requests ride inside the kept token so
             the [Cs_done] hand-off carries them to the heir. *)
          token = Option.map absorb st.token;
          outstanding = None;
          pending = 0;
          pending_modes = [];
          (* An in-flight batch keeps coordinating: the hand-off waits
             in [finish_batch], which re-checks membership. Excised
             awaited readers can no longer answer — drop them. *)
          rbatch =
            Option.map
              (fun b ->
                { b with rb_await = List.filter (is_member v) b.rb_await })
              st.rbatch;
          watching = false;
          recovery = None;
          stash = [];
          monitor_buffer = [];
          granted_known = Qlist.Granted.merge st.granted_known granted;
          token_epoch = max st.token_epoch tepoch;
          election = max st.election elec },
        [ note_view v; Note (Custom "excised-in-cs");
          Cancel_timer T_token; Cancel_timer T_retry;
          Cancel_timer T_enquiry; Cancel_timer T_watch;
          Cancel_timer T_probe; Cancel_timer T_view ] )
    else
    (* We were excised. If the token is in our hands (a voluntary
       leave committed by ourselves as coordinator), hand it to an heir
       before going dark (see [handoff_token]). *)
    let reader_done =
      (* Excised while reading under a READ-GRANT: best-effort answer
         so the coordinator's batch completes without waiting for its
         T_rbatch force. *)
      match st.rgrant with
      | Some r -> [ Send (r.rg_from, Read_done { rd_seq = r.rg_seq }) ]
      | None -> []
    in
    let st' =
      { st with
        view = v;
        joining = false;
        pending_vc = None;
        role = Normal;
        token = None;
        outstanding = None;
        pending = 0;
        pending_modes = [];
        in_cs = false;
        rbatch = None;
        rgrant = None;
        watching = false;
        recovery = None;
        stash = [];
        monitor_buffer = [];
        granted_known = Qlist.Granted.merge st.granted_known granted;
        token_epoch = max st.token_epoch tepoch;
        election = max st.election elec }
    in
    let handoff =
      match st.token with
      | None -> []
      | Some tk -> handoff_token st' (absorb tk)
    in
    ( st',
      reader_done @ handoff
      @ [ note_view v; Note (Custom "excised");
          Cancel_timer T_token; Cancel_timer T_retry;
          Cancel_timer T_enquiry; Cancel_timer T_watch;
          Cancel_timer T_probe; Cancel_timer T_view ] )
  else begin
    let joined_now = st.joining in
    (* The commit's arbiter field is a hint naming the heir at commit
       time; the token may well have moved on since. Only let it
       override a pointer that is demonstrably broken (names an
       excised node) or loses a strictly newer election — a node that
       has watched the token travel knows better than the commit. And
       never adopt a hint naming ourselves unless we are actually
       positioned to receive the token: a tokenless node believing
       itself arbiter is a request sink (it suppresses its own retries
       and swallows relayed requests, expecting a token that will
       never come). *)
    let expects_token =
      st.token <> None
      ||
      match st.role with
      | Await_token _ | Collecting _ -> true
      | Normal | Forwarding _ -> false
    in
    let broken = elec > st.election || not (is_member v st.arbiter) in
    let new_arbiter =
      if not broken then st.arbiter
      else if is_member v arbiter && (arbiter <> st.me || expects_token)
      then arbiter
      else
        (* Hint unusable: re-point at some surviving peer — the
           stash-relay chain walks the request to the real holder. *)
        match List.filter (fun j -> j <> st.me) (member_ids v) with
        | h :: _ -> h
        | [] -> st.me
    in
    let st =
      { st with
        view = v;
        joining = false;
        token =
          Option.map
            (fun tk -> { tk with tq = filter_q tk.tq; vepoch = v.vnum })
            st.token;
        role =
          (match st.role with
          | Normal -> Normal
          | Forwarding _ as r -> r
          | Await_token q -> Await_token (filter_q q)
          | Collecting c -> Collecting { c with cq = filter_q c.cq });
        recovery =
          Option.map
            (fun r ->
              { r with
                expected = List.filter (is_member v) r.expected;
                replied = List.filter (is_member v) r.replied;
                waiting = filter_q r.waiting })
            st.recovery;
        rbatch =
          Option.map
            (fun b ->
              { b with rb_await = List.filter (is_member v) b.rb_await })
            st.rbatch;
        stash = filter_q st.stash;
        monitor_buffer = filter_q st.monitor_buffer;
        last_q = filter_q st.last_q;
        granted_known = Qlist.Granted.merge st.granted_known granted;
        token_epoch = max st.token_epoch tepoch;
        election = max st.election elec;
        arbiter = new_arbiter }
    in
    let joined_effs = if joined_now then [ Cancel_timer T_view ] else [] in
    (* Our outstanding request may have been parked at — or in flight
       to — a node this view excised; those copies are gone, and blind
       retries are finite. Re-issue it to the arbiter we now believe
       in, with a fresh retry budget: duplicates are harmless (the
       Q-list deduplicates, the granted ledger rejects the served). *)
    let st, resend_effs =
      match st.outstanding with
      | Some seq
        when st.arbiter <> st.me && (not st.in_cs)
             && not
                  (Qlist.Granted.already_served st.granted_known
                     (Qlist.entry ~node:st.me ~seq ())) ->
          ( { st with misses = 0; retries_left = cfg.Config.max_retries },
            [ Send
                ( st.arbiter,
                  Request
                    (Qlist.entry ~mode:st.out_mode ~node:st.me ~seq ()) );
              Set_timer (T_retry, retry_delay cfg st) ] )
      | _ -> (st, [])
    in
    let st, resync_effs = end_resync cfg ~now st in
    (st, (note_view v :: joined_effs) @ resend_effs @ resync_effs)
  end

(* ------------------------------------------------------------------ *)
(* Arbiter side: accepting, forwarding and dispatching requests        *)

let receive_request cfg ~now st e =
  if Qlist.Granted.already_served st.granted_known e then
    (* A duplicate of a request we know has been satisfied. The
       requester clearly never learned (its grant or our announcement
       was lost): silence here would leave it retransmitting forever,
       so answer with our current view — the L vector in it clears the
       requester's [outstanding] (see [observe_qlist]). *)
    ( st,
      [ Note Dropped_request;
        Send
          ( e.Qlist.node,
            New_arbiter
              {
                na_arbiter = st.arbiter;
                na_q = st.last_q;
                na_granted = st.granted_known;
                na_counter = st.na_counter;
                na_monitor = st.monitor;
                na_epoch = st.token_epoch;
                na_election = st.election;
                na_view = st.view;
              } ) ] )
  else
    match st.role with
    | Await_token _ | Collecting _ -> accept_request cfg ~now st e
    | Forwarding { next_arbiter } ->
        if monitored st && e.Qlist.hops >= cfg.Config.forward_threshold then
          (* Over the τ budget: drop; the requester will escape to the
             monitor after τ NEW-ARBITER misses (Section 4.1). *)
          (st, [ Note Dropped_request ])
        else
          ( st,
            [ Send (next_arbiter, Request { e with Qlist.hops = e.Qlist.hops + 1 });
              Note Forwarded ] )
    | Normal ->
        (* The paper drops requests that arrive after the forwarding
           phase and relies on retransmission. We are more careful:
           a mislaid request is relayed toward our believed arbiter —
           believed-arbiter pointers only move forward in election
           order, so such chains terminate at the live arbiter — and
           once it exhausts its hop budget it is parked here and
           re-launched by a timer. The monitored variant instead drops
           over-budget requests, as Section 4.1 specifies: the
           requester escapes to the monitor. *)
        if e.Qlist.hops < cfg.Config.forward_threshold then
          if st.arbiter <> st.me then
            ( st,
              [ Send
                  (st.arbiter, Request { e with Qlist.hops = e.Qlist.hops + 1 });
                Note Stash_forwarded ] )
          else ({ st with stash = Qlist.enqueue e st.stash }, [ Note Stashed ])
        else if monitored st then (st, [ Note Dropped_request ])
        else
          ( { st with stash = Qlist.enqueue e st.stash },
            [ Note Stashed;
              Set_timer (T_stash, cfg.Config.retry_timeout) ] )

let receive_monitor_request cfg ~now st e =
  if st.me <> st.monitor then (* stale monitor identity; park it anyway *)
    (st, [ Send (st.monitor, Monitor_request e) ])
  else if Qlist.Granted.already_served st.granted_known e then
    (st, [ Note Dropped_request ])
  else
    match st.role with
    | Await_token _ | Collecting _ ->
        (* The monitor happens to be the current arbiter: serve the
           request through the normal collection directly. *)
        accept_request cfg ~now st e
    | Normal | Forwarding _ ->
        ({ st with monitor_buffer = Qlist.enqueue e st.monitor_buffer }, [])

(* Announce the arbiter elected by dispatching [token] with queue [q].
   Returns the NEW-ARBITER sends and, under the Section 3.1 option,
   the announcement folded for the tail's PRIVILEGE. A self-singleton
   is not announced when the arbiter identity is unchanged
   ([prev_announced] is already us): nobody's knowledge goes stale and
   Eq. 1 counts zero messages for the requester-is-arbiter case. *)
let announce cfg st ~prev_announced ~q ~counter ~next_monitor ~token =
  let tail = match Qlist.final_holder q with Some t -> t | None -> st.me in
  let na =
    {
      na_arbiter = tail;
      na_q = q;
      na_granted = st.granted_known;
      na_counter = counter;
      na_monitor = next_monitor;
      na_epoch = st.token_epoch;
      na_election = st.election;
      na_view = st.view;
    }
  in
  let msg = New_arbiter na in
  match q with
  | [ e ]
    when e.Qlist.node = st.me && prev_announced = st.me
         && not cfg.Config.recovery ->
      (* Self-singleton, role unchanged: nothing anyone needs to hear.
         With recovery on we announce anyway — the epoch riding on the
         announcement is what lets a healed partition discover (and
         invalidate) a superseded token universe; a silent self-serving
         arbiter would keep a split brain alive indefinitely. *)
      ([], None)
  | [ e ] when cfg.Config.skip_new_arbiter_to_tail && e.Qlist.node <> st.me ->
      (* Send point-to-point to everyone except ourselves and the new
         arbiter, which learns its election from the token itself and
         the rest of the announcement from the PRIVILEGE. *)
      ( List.filter_map
          (fun dst ->
            if dst = st.me || dst = e.Qlist.node then None
            else Some (Send (dst, msg)))
          (member_ids st.view),
        Some (fold na token) )
  | _ -> (bcast cfg st msg, None)

(* Coordinator's patience for READ-DONE replies: at least one blind
   retry period, and at least a grant round-trip plus the CS itself. *)
let rbatch_delay cfg =
  Float.max cfg.Config.retry_timeout
    ((2.0 *. cfg.Config.t_msg) +. cfg.Config.t_exec)

let read_grants token ~minor others =
  List.map
    (fun e ->
      Send
        ( e.Qlist.node,
          Read_grant
            { rg_epoch = token.epoch; rg_minor = minor; rg_entry = e } ))
    others

(* Give the token (with Q-list [q]) its first hop, or enter the CS
   directly when we head the list ourselves. When the head of the list
   opens a maximal run of two or more compatible readers, the head
   becomes the batch coordinator: it enters the CS and READ-GRANTs the
   rest of the run in one grant batch. A batch of one — every
   exclusive grant, and a solo reader — takes the unchanged path. *)
let launch_token cfg ~now ?handover st token =
  let st = { st with last_token_seen = now } in
  match token.tq with
  | [] -> assert false
  | head :: _ when head.Qlist.node = st.me -> (
      let outstanding =
        match st.outstanding with
        | Some s when s <= head.Qlist.seq -> None
        | o -> o
      in
      match Qlist.head_batch token.tq with
      | [] | [ _ ] ->
          ( { st with in_cs = true; token = Some token; outstanding;
              executed_this_round = cfg.Config.recovery },
            [ Enter_cs; Cancel_timer T_token; Cancel_timer T_retry ] )
      | batch ->
          let minor =
            Qlist.Granted.total (Qlist.Granted.mark_all token.granted batch)
          in
          let others =
            List.filter (fun e -> e.Qlist.node <> st.me) batch
          in
          ( { st with in_cs = true; token = Some token; outstanding;
              executed_this_round = cfg.Config.recovery;
              rbatch =
                Some
                  { rb_entries = batch;
                    rb_await = List.map (fun e -> e.Qlist.node) others;
                    rb_minor = minor;
                    rb_tries = 0 } },
            (Enter_cs :: read_grants token ~minor others)
            @ [ Note (Read_batch (List.length batch));
                Set_timer (T_rbatch, rbatch_delay cfg);
                Cancel_timer T_token; Cancel_timer T_retry ] ))
  | head :: _ ->
      ( { st with token = None },
        [ Send (head.Qlist.node, Privilege (token, handover)) ] )

(* End of a collection window with the token in hand: Figure 1's
   dispatch step. *)
let dispatch cfg ~now st =
  match (st.role, st.token) with
  | Collecting { anchor; _ }, Some token
    when (match st.pending_vc with
         | Some pv -> not pv.pv_committed
         | None -> false)
         || (token.vepoch > st.view.vnum
            && now -. anchor < cfg.Config.retry_timeout) ->
      (* Hold the token and try again shortly while a view-change
         proposal awaits its quorum (the token is the serialization
         point for views), or while the token is newer than our view —
         its commit and announcement have not reached us yet.
         Scheduling under the older view could elect an excised node,
         and would stamp the token with a view epoch its next holder
         rejects as stale. The coordinator keeps re-sending the commit;
         a view still missing after one retry period is not waited for
         (a dispatch never lowers the token's [vepoch]). *)
      ( st,
        [ Set_timer
            ( T_dispatch,
              Float.max cfg.Config.t_collect cfg.Config.enquiry_timeout ) ] )
  | Collecting { cq; anchor; _ }, Some token ->
      (* Requests of nodes outside our view (relayed to us, or
         collected before the commit that excised them) are never
         scheduled: the tail would be an arbiter nobody can reach. *)
      let q =
        List.filter
          (fun e -> is_member st.view e.Qlist.node)
          (Qlist.prune token.granted cq)
      in
      if q = [] then
        (* Nothing (new) to schedule: keep collecting, unarmed; the
           next request re-arms at the window boundary. *)
        ( { st with role = Collecting { cq = []; anchor; armed = false } },
          [] )
      else begin
        let q =
          match cfg.Config.priorities with
          | Some p -> Qlist.sort_by_priority p q
          | None ->
              if cfg.Config.least_served_first then
                Qlist.sort_least_served token.granted q
              else q
        in
        (* Writer priority (read-write policy): mode dominates, any
           other sort is the tie-break within each mode class. Sorting
           readers adjacent is also what lets maximal batches form. *)
        let q =
          if cfg.Config.writer_priority && cfg.Config.priorities = None then
            Qlist.sort_writers_first q
          else q
        in
        let prev_announced = st.arbiter in
        let tail = match Qlist.final_holder q with Some t -> t | None -> st.me in
        let counter = st.na_counter + 1 in
        let monitor_route =
          monitored st && st.me <> st.monitor
          && counter >= avg_qsize_ceiling st
        in
        let base =
          { st with
            last_q = keep_last_q cfg q;
            prev_arbiter = keep_prev cfg st st.me;
            arbiter = tail;
            election = st.election + 1;
            executed_this_round = false;
            observed_q_len = List.length q;
            qsizes = observe_qsize cfg st q }
        in
        let base =
          { base with
            watching = cfg.Config.recovery && tail <> st.me }
        in
        let watch =
          if base.watching then
            [ Set_timer (T_watch, cfg.Config.arbiter_timeout) ]
          else []
        in
        let note =
          [
            Note (Queue_length (List.length q));
            (* Collection window just closed: its duration is dispatch
               time minus the window anchor (Figure 1's Tcoll, as
               actually realised — idle windows stretch it). *)
            Note (Phase ("collection", now -. anchor));
          ]
        in
        if monitor_route then begin
          (* Section 4.1: hand the token to the monitor without
             broadcasting; the monitor augments Q, broadcasts with the
             counter reset, and forwards the token. *)
          let token =
            { token with tq = q; election = base.election;
              vepoch = max token.vepoch base.view.vnum }
          in
          let st' =
            { base with
              token = None;
              last_token_seen = now;
              na_counter = counter;
              role =
                (if tail = st.me then Await_token []
                 else Forwarding { next_arbiter = tail }) }
          in
          let forward_end =
            if tail = st.me then
              (* The token is travelling back to us via the monitor;
                 it can die en route, and as the Await_token arbiter
                 nobody else will notice (Section 6, Lost Token). *)
              if cfg.Config.recovery then
                [ Set_timer (T_token, cfg.Config.token_timeout) ]
              else []
            else [ Set_timer (T_forward_end, cfg.Config.t_forward) ]
          in
          ( st',
            [ Send (st.monitor, Monitor_privilege token); Note Monitor_pass ]
            @ forward_end @ watch @ note )
        end
        else begin
          let counter = if st.me = st.monitor then 0 else counter in
          let base = { base with na_counter = keep_counter st counter } in
          (* When the arbiter is itself the monitor, flush its parked
             requests into this dispatch. *)
          let q, base =
            if st.me = st.monitor && base.monitor_buffer <> [] then
              let merged =
                List.fold_left
                  (fun acc e -> Qlist.enqueue e acc)
                  q
                  (Qlist.prune token.granted base.monitor_buffer)
              in
              (merged, { base with monitor_buffer = []; last_q = merged })
            else (q, base)
          in
          let tail = match Qlist.final_holder q with Some t -> t | None -> st.me in
          let base = { base with arbiter = tail } in
          (* Monitor rotation happens only when the monitor itself
             broadcasts (Section 5.1); a regular dispatch re-announces
             the current monitor unchanged. *)
          let token =
            { token with tq = q; election = base.election;
              vepoch = max token.vepoch base.view.vnum }
          in
          let announce_effs, handover =
            announce cfg base ~prev_announced ~q ~counter
              ~next_monitor:st.monitor ~token
          in
          let st', launch_effs =
            if tail = st.me then begin
              (* We stay arbiter: after our own CS completes the token
                 stays here and collection restarts. *)
              let st' = { base with role = Await_token [] } in
              let st', effs = launch_token cfg ~now st' token in
              (* If the token left us (sent to the queue head), arm the
                 lost-token watchdog: we are the only node positioned
                 to notice it never comes back. *)
              if cfg.Config.recovery && st'.token = None then
                (st', effs @ [ Set_timer (T_token, cfg.Config.token_timeout) ])
              else (st', effs)
            end
            else begin
              let st' =
                { base with role = Forwarding { next_arbiter = tail } }
              in
              let st', effs = launch_token cfg ~now ?handover st' token in
              (st', effs @ [ Set_timer (T_forward_end, cfg.Config.t_forward) ])
            end
          in
          (st', announce_effs @ launch_effs @ watch @ note)
        end
      end
  | _ -> (st, []) (* stale dispatch timer *)

(* The token has come into our hands as (future) arbiter: start a
   fresh full collection window (Figure 1: request-collection runs
   after the privilege arrives). If we have an unserved request of our
   own that is not yet queued anywhere (it may have been dropped while
   travelling), schedule it here: the arbiter must never starve
   itself. *)
let become_collecting cfg ~now st pre_q token =
  (* Absorb any requests parked while we were not yet the arbiter. *)
  let pre_q =
    List.fold_left (fun acc e -> Qlist.enqueue e acc) pre_q st.stash
  in
  let st = { st with stash = [] } in
  let pre_q =
    match st.outstanding with
    | Some seq
      when (not (Qlist.mem st.me pre_q))
           && not
                (Qlist.Granted.already_served token.granted
                   (Qlist.entry ~node:st.me ~seq ())) ->
        Qlist.enqueue (Qlist.entry ~mode:st.out_mode ~node:st.me ~seq ()) pre_q
    | _ -> pre_q
  in
  let armed = Qlist.prune token.granted pre_q <> [] in
  let st' =
    { st with
      role = Collecting { cq = pre_q; anchor = now; armed };
      token = Some token;
      last_token_seen = now;
      arbiter = st.me }
  in
  let cancel =
    if cfg.Config.recovery then [ Cancel_timer T_token ] else []
  in
  let effs =
    cancel
    @
    if armed then [ Set_timer (T_dispatch, cfg.Config.t_collect) ] else []
  in
  if cfg.Config.t_collect <= 0.0 then
    (* Degenerate zero-length window: dispatch immediately (the armed
       timer, if any, becomes a harmless stale no-op). *)
    let st'', effs' = dispatch cfg ~now st' in
    (st'', effs @ effs')
  else (st', effs)

(* ------------------------------------------------------------------ *)
(* Token passing                                                       *)

let pass_token_on cfg ~now st token =
  match token.tq with
  | [] ->
      (* We are the tail: the new arbiter. We may or may not have seen
         our NEW-ARBITER announcement (it can be suppressed by the
         Section 3.1 option); the token itself is the proof. *)
      let pre_q = match st.role with Await_token q -> q | _ -> [] in
      let st = { st with prev_arbiter = keep_prev cfg st st.arbiter } in
      let st', effs = become_collecting cfg ~now st pre_q token in
      (st', (Note Became_arbiter :: effs))
  | head :: _ when head.Qlist.node = st.me ->
      (* Possible only with a duplicate entry for us; serve it. *)
      launch_token cfg ~now st token
  | head :: _ ->
      ( { st with token = None; last_token_seen = now },
        [ Send (head.Qlist.node, Privilege (token, None)) ] )

(* Surface the next queued application request, if any. *)
let surface_pending cfg ~now (st, effs) =
  if st.pending > 0 then begin
    let mode, st = pop_pending_mode st in
    let st = { st with pending = st.pending - 1 } in
    let st, effs' = issue_request cfg ~now ~mode st in
    (st, effs @ effs')
  end
  else (st, effs)

(* The whole shared batch is over (our own CS and every READ-DONE):
   mark every batch entry in the served vector at once — one grant,
   one fencing advance — drop the batch from the Q-list and move the
   token on. Mirrors the tail of [cs_done] for the exclusive case. *)
let finish_batch cfg ~now st token b =
  let granted = Qlist.Granted.mark_all token.granted b.rb_entries in
  let in_batch e =
    List.exists
      (fun be -> be.Qlist.node = e.Qlist.node && be.Qlist.seq = e.Qlist.seq)
      b.rb_entries
  in
  let tq = List.filter (fun e -> not (in_batch e)) token.tq in
  let token = { token with tq; granted } in
  let st =
    { st with rbatch = None;
      granted_known = Qlist.Granted.merge st.granted_known granted }
  in
  if not (is_member st.view st.me) then
    (* Excised while the batch was in flight ([apply_view] deferred the
       hand-off exactly as for an exclusive holder mid-CS): hand the
       token to the heir before going dark. *)
    ( { st with token = None; role = Normal; suspended = false },
      Cancel_timer T_rbatch
      :: handoff_token st token
      @ [ Note (Custom "excised-handoff") ] )
  else if st.suspended then
    (* An ENQUIRY froze us: hold the token until RESUME. *)
    ( { st with token = Some token; last_token_seen = now },
      [ Cancel_timer T_rbatch ] )
  else
    let st, effs = pass_token_on cfg ~now st token in
    (st, Cancel_timer T_rbatch :: effs)

let cs_done cfg ~now st =
  match st.rgrant with
  | Some r ->
      (* A batched reader leaving the CS: tell the coordinator. Our own
         slot of the served vector can be recorded right away — the
         coordinator marks the whole batch when it completes. *)
      let e = Qlist.entry ~mode:Types.Shared ~node:st.me ~seq:r.rg_seq () in
      let st =
        { st with in_cs = false; rgrant = None;
          granted_known = Qlist.Granted.mark st.granted_known e }
      in
      surface_pending cfg ~now
        (st, [ Send (r.rg_from, Read_done { rd_seq = r.rg_seq }) ])
  | None -> (
  match (st.token, st.rbatch) with
  | None, _ -> (st, []) (* spurious *)
  | Some token, Some b ->
      (* Batch coordinator done with its own read: the token may only
         move once every batched reader's READ-DONE is in. *)
      let st = { st with in_cs = false } in
      if b.rb_await = [] then
        surface_pending cfg ~now (finish_batch cfg ~now st token b)
      else surface_pending cfg ~now (st, [])
  | Some token, None ->
      let served, rest =
        match token.tq with
        | e :: rest when e.Qlist.node = st.me -> (Some e, rest)
        | q -> (None, q)
      in
      let granted =
        match served with
        | Some e -> Qlist.Granted.mark token.granted e
        | None -> token.granted
      in
      let token = { token with tq = rest; granted } in
      let st =
        { st with in_cs = false; granted_known =
            Qlist.Granted.merge st.granted_known granted }
      in
      if not (is_member st.view st.me) then
        (* Excised mid-CS ([apply_view] deferred the hand-off to keep
           mutual exclusion): now that the CS is over, hand the token
           to the heir and go dark. *)
        ( { st with token = None; role = Normal; suspended = false },
          handoff_token st token @ [ Note (Custom "excised-handoff") ] )
      else
      let st, effs =
        if st.suspended then
          (* An ENQUIRY froze us: hold the token until RESUME. *)
          ({ st with token = Some token; last_token_seen = now }, [])
        else pass_token_on cfg ~now st token
      in
      surface_pending cfg ~now (st, effs))

(* ------------------------------------------------------------------ *)
(* NEW-ARBITER bookkeeping (requester side + election)                 *)

(* Requester-side reaction to an announced Q-list: the Q-list is the
   implicit acknowledgement (Section 6, Lost Request). Runs both on a
   received NEW-ARBITER and on the Q-list a node announces itself (a
   broadcaster is not delivered its own broadcast, but it has observed
   the same information). *)
let observe_qlist cfg st q =
  match st.outstanding with
  | None -> (st, [])
  | Some seq ->
      if
        Qlist.Granted.already_served st.granted_known
          (Qlist.entry ~node:st.me ~seq ())
      then
        ({ st with outstanding = None },
         [ Cancel_timer T_retry; Cancel_timer T_token ])
      else if Qlist.mem st.me q then
        (* Confirmed scheduled: the blind retry timer is no longer
           needed (and at large N a queue rotation can outlast it,
           which would flood the arbiter with duplicates). *)
        let effs =
          Cancel_timer T_retry
          ::
          (if cfg.Config.recovery then
             [ Set_timer (T_token, cfg.Config.token_timeout) ]
           else [])
        in
        ({ st with misses = 0 }, effs)
      else if st.arbiter = st.me then
        (* We are (about to be) the arbiter ourselves; our request is
           re-queued by [become_collecting], never retransmitted. *)
        (st, [])
      else begin
        let misses = st.misses + 1 in
        let monitor_misses =
          if monitored st then st.monitor_misses + 1 else 0
        in
        if
          monitored st && st.me <> st.monitor
          && monitor_misses >= cfg.Config.forward_threshold
        then
          ( { st with misses; monitor_misses = 0 },
            [ Send
                ( st.monitor,
                  Monitor_request
                    (Qlist.entry ~mode:st.out_mode ~node:st.me ~seq ()) );
              Note Resubmitted_to_monitor ] )
        else if misses >= cfg.Config.retransmit_misses then
          let arm =
            if cfg.Config.max_retries = 0 then []
            else [ Set_timer (T_retry, retry_delay cfg st) ]
          in
          ( { st with misses = 0; monitor_misses },
            Send
              ( st.arbiter,
                Request (Qlist.entry ~mode:st.out_mode ~node:st.me ~seq ()) )
            :: Note Retransmitted :: arm )
        else ({ st with misses; monitor_misses }, [])
      end

let receive_new_arbiter cfg ~now st ~src na =
  if na.na_view.vnum < st.view.vnum then
    (* An announcement from a superseded membership universe: only its
       monotone knowledge is absorbed; obeying its election could
       resurrect an excised arbiter. *)
    ( { st with
        granted_known = Qlist.Granted.merge st.granted_known na.na_granted;
        token_epoch = max st.token_epoch na.na_epoch },
      [ Note (Custom "stale-view-announcement") ] )
  else
  let st, view_effs =
    if na.na_view.vnum > st.view.vnum then
      (* The announcement carries a newer view than ours (we missed a
         VIEW-CHANGE commit): anti-entropy catch-up. *)
      apply_view cfg ~now st na.na_view ~granted:na.na_granted
        ~tepoch:na.na_epoch ~elec:na.na_election ~arbiter:na.na_arbiter
    else (st, [])
  in
  if not (is_member st.view st.me) then (st, view_effs)
  else
  let st, main_effs =
  (* Split-brain repair: a healed partition can leave two arbiters,
     each with a token, both racing their election counters so neither
     ever adopts the other's announcement. Token epochs are the
     tie-breaker — they only move on regeneration — so epoch knowledge
     must travel unconditionally, and a token from a superseded epoch
     must be discarded by whoever holds it (not mid-CS: the current
     excursion finishes; the token dies right after). *)
  let stale_token =
    cfg.Config.recovery && (not st.in_cs) && st.rbatch = None
    && match st.token with
       | Some tk -> tk.epoch < na.na_epoch
       | None -> false
  in
  let st, pre_effs =
    if not stale_token then (st, [])
    else
      let q =
        match st.role with
        | Collecting { cq; _ } -> cq
        | Await_token q -> q
        | Normal | Forwarding _ -> []
      in
      if na.na_arbiter = st.me then
        (* We are the arbiter of the newer universe too: keep the
           queue and wait for the valid token. *)
        ( { st with
            token = None;
            role = Await_token q;
            token_epoch = max st.token_epoch na.na_epoch },
          [ Note (Custom "token-invalidated");
            Set_timer (T_token, cfg.Config.token_timeout) ] )
      else
        let fwd = List.map (fun e -> Send (na.na_arbiter, Request e)) q in
        ( { st with
            token = None;
            role = Normal;
            arbiter = na.na_arbiter;
            token_epoch = max st.token_epoch na.na_epoch },
          Note (Custom "token-invalidated") :: fwd )
  in
  if na.na_election < st.election then
    (* A reordered announcement from a past election: obeying it could
       re-elect a node that has already handed the role on. Only the
       monotone knowledge (the L vector and the token epoch) is
       absorbed. *)
    ( { st with
        granted_known = Qlist.Granted.merge st.granted_known na.na_granted;
        token_epoch = max st.token_epoch na.na_epoch },
      pre_effs )
  else begin
  let st =
    { st with
      arbiter = na.na_arbiter;
      prev_arbiter = keep_prev cfg st src;
      monitor = na.na_monitor;
      na_counter = keep_counter st na.na_counter;
      last_q = keep_last_q cfg na.na_q;
      granted_known = Qlist.Granted.merge st.granted_known na.na_granted;
      token_epoch = max st.token_epoch na.na_epoch;
      election = max st.election na.na_election;
      executed_this_round = false;
      observed_q_len = List.length na.na_q;
      qsizes = observe_qsize cfg st na.na_q }
  in
  (* Watch transfer: a normal hand-off (announced by the outgoing
     dispatcher) makes that dispatcher the new watcher, so everyone
     else stands down. A self-announcement (src = arbiter: a
     self-re-election or a takeover) changes nothing about who watches
     — the current watcher re-arms and keeps watching. *)
  let self_announced = src = na.na_arbiter in
  let st =
    if cfg.Config.recovery then
      { st with watching = self_announced && st.watching }
    else st
  in
  let effs =
    if not cfg.Config.recovery then []
    else
      (* Whoever this announcement names, the arbiter identity was
         just refreshed: any probe in flight is answering a stale
         question (the next T_token/T_watch cycle re-probes). *)
      Cancel_timer T_probe
      ::
      (if st.watching then [ Set_timer (T_watch, cfg.Config.arbiter_timeout) ]
       else [ Cancel_timer T_watch ])
  in
  (* A live announcement naming someone else supersedes any
     invalidation we were running ourselves: the named arbiter owns
     recovery now. Without this a superseded recoverer keeps
     re-ENQUIRYing and, once its quorum finally arrives, mints a
     competing token. *)
  let st, effs =
    if cfg.Config.recovery && st.recovery <> None && na.na_arbiter <> st.me
    then ({ st with recovery = None }, Cancel_timer T_enquiry :: effs)
    else (st, effs)
  in
  (* Election. *)
  let st, effs =
    if na.na_arbiter = st.me then
      match st.role with
      | Normal | Forwarding _ ->
          (* Elected: besides collecting, watch for the token itself —
             it can be lost before it ever reaches us (Section 6). *)
          let effs =
            if cfg.Config.recovery then
              Set_timer (T_token, cfg.Config.token_timeout) :: effs
            else effs
          in
          ({ st with role = Await_token [] }, effs)
      | Await_token _ ->
          (* Already elected and still waiting: keep our queue, but
             refresh the lost-token watchdog — this announcement is
             not the token. *)
          let effs =
            if cfg.Config.recovery then
              Set_timer (T_token, cfg.Config.token_timeout) :: effs
            else effs
          in
          (st, effs)
      | Collecting _ ->
          (* Already the arbiter with the token in hand. *)
          (st, effs)
    else
      match st.role with
      | Await_token q when q <> [] ->
          (* We were superseded (recovery path): salvage what we
             collected by forwarding it to the real arbiter. *)
          let fwd =
            List.map (fun e -> Send (na.na_arbiter, Request e)) q
          in
          ({ st with role = Normal }, effs @ fwd)
      | Await_token _ -> ({ st with role = Normal }, effs)
      | Normal | Forwarding _ | Collecting _ -> (st, effs)
  in
  (* Hand over any parked requests to the announced arbiter. *)
  let st, effs =
    if st.stash = [] then (st, effs)
    else begin
      let live = Qlist.prune st.granted_known st.stash in
      if na.na_arbiter = st.me then
        (* We are the arbiter: keep them; they merge into our queue in
           [become_collecting] (or are already there). *)
        match st.role with
        | Await_token q ->
            let q =
              List.fold_left (fun acc e -> Qlist.enqueue e acc) q live
            in
            ({ st with stash = []; role = Await_token q }, effs)
        | Collecting _ | Normal | Forwarding _ -> (st, effs)
      else
        let sends =
          List.concat_map
            (fun e ->
              [ Send
                  (na.na_arbiter,
                   Request { e with Qlist.hops = e.Qlist.hops + 1 });
                Note Stash_forwarded ])
            live
        in
        ({ st with stash = [] }, effs @ sends)
    end
  in
  (* A live announcement is the fresh knowledge that ends a restart's
     resynchronization: epoch and election were just absorbed above,
     so a parked request can finally go out. Not so one no newer than a
     token we hold while still resynchronizing — a token from our past
     life ([absorb_token]): it was made by the dispatch that sent that
     token, or earlier, and reached us from the same peer's queue. *)
  let predates_held =
    st.sync_wait
    && match st.token with
       | Some tk -> na.na_election <= tk.election
       | None -> false
  in
  let st, resync_effs =
    if predates_held then (st, []) else end_resync cfg ~now st
  in
  (* Requester bookkeeping: the Q-list doubles as an implicit ack. *)
  let st, effs' = observe_qlist cfg st na.na_q in
  (st, pre_effs @ effs @ resync_effs @ effs')
  end
  in
  (st, view_effs @ main_effs)

(* Our entries in a token's Q-list with a seq below [incarnation_seq]
   were issued before a crash: the store made [next_seq] durable before
   each REQUEST left, so every request of this incarnation is numbered
   from there. Their callers died with the old incarnation. A token
   that still schedules them is the one the cluster lost to that crash,
   delivered late (a peer's transport kept the PRIVILEGE queued across
   our restart); a regeneration we have not heard of may already have
   superseded it. Such entries are shed — marked served in the token's
   [L] vector, so the whole cluster prunes them from then on, and never
   entered: entering would grant the new incarnation's first caller on
   a token whose fencing is older than grants already issued. *)
let shed_past_life st token =
  if st.incarnation_seq = 0 then (false, token)
  else
    let dead (e : Qlist.entry) =
      e.Qlist.node = st.me && e.Qlist.seq < st.incarnation_seq
    in
    match List.filter dead token.tq with
    | [] -> (false, token)
    | gone ->
        ( true,
          { token with
            tq = List.filter (fun e -> not (dead e)) token.tq;
            granted = Qlist.Granted.mark_all token.granted gone } )

(* Absorb a token's arrival. A live token is the freshest knowledge
   there is: any restart resynchronization ends. One that came back
   from our past life is not — the resynchronization stays until a
   current announcement arrives, and one from a newer
   epoch discards it (the split-brain repair in [receive_new_arbiter])
   before any request of ours can be served with it. Either way the
   token cannot be lost while we hold it, so a running enquiry round
   is over. *)
let absorb_token st ~past_life token =
  let st =
    { st with token_epoch = token.epoch;
      election = max st.election token.election; recovery = None }
  in
  if past_life then
    { st with granted_known = Qlist.Granted.merge st.granted_known token.granted }
  else { st with amnesiac = false; sync_wait = false }

(* ------------------------------------------------------------------ *)
(* Monitor pass (Section 4.1)                                          *)

let receive_monitor_privilege cfg ~now st token =
  if token.epoch < st.token_epoch then (st, [ Note (Custom "stale-token") ])
  else if token.vepoch < st.view.vnum then
    (st, [ Note (Custom "stale-view-token") ])
  else begin
    (* Same as the PRIVILEGE receipt: the token in hand supersedes any
       enquiry round we were running (see [Receive Privilege]). *)
    let past_life, token = shed_past_life st token in
    let aborted = st.recovery <> None in
    let st = absorb_token st ~past_life token in
    let receipt_effs =
      (if aborted then [ Cancel_timer T_enquiry ] else [])
      @ if past_life then [ Note (Custom "past-life-shed") ] else []
    in
    let q =
      List.fold_left
        (fun acc e -> Qlist.enqueue e acc)
        token.tq
        (Qlist.prune token.granted st.monitor_buffer)
    in
    let st = { st with monitor_buffer = [] } in
    match q with
    | [] ->
        (* Every scheduled request turned out served: the monitor
           becomes the arbiter itself and restarts collection. *)
        let st', effs = become_collecting cfg ~now st [] { token with tq = [] } in
        (st', receipt_effs @ (Note Became_arbiter :: effs))
    | _ ->
        let prev_announced = st.arbiter in
        let tail = match Qlist.final_holder q with Some t -> t | None -> st.me in
        let next_monitor =
          if cfg.Config.rotate_monitor then (st.me + 1) mod cfg.Config.n
          else st.me
        in
        let st =
          { st with
            arbiter = tail;
            prev_arbiter = keep_prev cfg st st.me;
            na_counter = 0;
            last_q = keep_last_q cfg q;
            monitor = next_monitor;
            observed_q_len = List.length q;
            qsizes = observe_qsize cfg st q }
        in
        let token = { token with tq = q } in
        let announce_effs, handover =
          announce cfg st ~prev_announced ~q ~counter:0 ~next_monitor ~token
        in
        let st, effs =
          if tail = st.me then
            let st = { st with role = Await_token [] } in
            launch_token cfg ~now st token
          else launch_token cfg ~now ?handover st token
        in
        (* The monitor observes the Q-list it just announced: its own
           broadcast is not delivered back to it. *)
        let st, effs' = observe_qlist cfg st q in
        (st, receipt_effs @ announce_effs @ effs @ effs')
  end

(* ------------------------------------------------------------------ *)
(* Shared grant batches                                                *)

(* A READ-GRANT admits us into the CS as one reader of a shared batch.
   The coordinator holds the token; we hold only the grant. Stale or
   duplicate grants are answered with READ-DONE immediately so the
   coordinator is never stuck on a reader that has moved on. *)
let receive_read_grant cfg st ~src rg =
  if rg.rg_epoch < st.token_epoch then
    (st, [ Note (Custom "stale-read-grant") ])
  else
    let e = rg.rg_entry in
    if st.in_cs then
      (* A duplicate of the grant we are already executing: the
         READ-DONE goes out at [Cs_done]. *)
      (st, [])
    else
      match st.outstanding with
      | Some seq when seq = e.Qlist.seq && e.Qlist.node = st.me ->
          ( { st with in_cs = true; outstanding = None;
              rgrant =
                Some
                  { rg_from = src; rg_seq = seq;
                    rg_fepoch = rg.rg_epoch; rg_fminor = rg.rg_minor };
              token_epoch = max st.token_epoch rg.rg_epoch;
              executed_this_round = cfg.Config.recovery },
            [ Enter_cs; Cancel_timer T_retry; Cancel_timer T_token ] )
      | _ -> (st, [ Send (src, Read_done { rd_seq = e.Qlist.seq }) ])

let receive_read_done cfg ~now st ~src ~rd_seq =
  match st.rbatch with
  | Some b
    when List.exists
           (fun e -> e.Qlist.node = src && e.Qlist.seq = rd_seq)
           b.rb_entries ->
      let rb_await = List.filter (fun j -> j <> src) b.rb_await in
      let b = { b with rb_await } in
      let st = { st with rbatch = Some b } in
      if rb_await = [] && not st.in_cs then
        match st.token with
        | Some token -> finish_batch cfg ~now st token b
        | None -> (st, []) (* unreachable: a coordinator holds the token *)
      else (st, [])
  | _ -> (st, []) (* stale READ-DONE from an already-completed batch *)

let rbatch_timeout cfg ~now st =
  match (st.rbatch, st.token) with
  | Some b, Some token ->
      if b.rb_await = [] then
        (* A view change may have drained the await list with nothing
           left to trigger completion: do it here. *)
        if st.in_cs then (st, []) else finish_batch cfg ~now st token b
      else if cfg.Config.recovery && b.rb_tries >= 2 then begin
        (* Readers still silent after two re-grant rounds are dead
           (crash-stop is modelled when recovery is on): force the
           batch complete so a crashed reader cannot wedge the token.
           Their requests are spent either way — the batch entries are
           marked served. *)
        let st = { st with rbatch = Some { b with rb_await = [] } } in
        if st.in_cs then (st, [ Note (Custom "rbatch-forced") ])
        else
          let st, effs = finish_batch cfg ~now st token b in
          (st, Note (Custom "rbatch-forced") :: effs)
      end
      else
        let others =
          List.filter
            (fun e -> List.mem e.Qlist.node b.rb_await)
            b.rb_entries
        in
        ( { st with rbatch = Some { b with rb_tries = b.rb_tries + 1 } },
          read_grants token ~minor:b.rb_minor others
          @ [ Set_timer (T_rbatch, rbatch_delay cfg) ] )
  | _ -> (st, []) (* stale timer *)

(* ------------------------------------------------------------------ *)
(* Section 6: recovery                                                 *)

let start_recovery cfg st =
  match st.recovery with
  | Some _ -> (st, [])
  | None ->
      if st.token <> None then (st, []) (* we hold the token: no loss *)
      else if st.amnesiac then
        (* Restarted with no durable state: our epoch knowledge may be
           arbitrarily stale, so running an invalidation could end in
           regenerating a token while the real one lives (or with a
           burnt epoch). Refuse until fresh knowledge clears the
           amnesia; the live nodes' own watchdogs cover the loss. *)
        (st, [ Note (Custom "recovery-refused-amnesiac") ])
      else begin
        let round = st.enq_round + 1 in
        (* Everyone is enquired, not just the last Q-list: the replies
           double as the quorum that gates regeneration (see
           [finish_recovery]), so the wider the net, the sooner a
           legitimate recovery completes — and a partitioned minority
           can never mint a second token. *)
        let targets =
          member_ids st.view |> List.filter (fun j -> j <> st.me)
        in
        let sends = List.map (fun j -> Send (j, Enquiry { round })) targets in
        ( { st with
            recovery =
              Some { rround = round; expected = targets; replied = []; waiting = [] };
            enq_round = round },
          sends
          @ [ Set_timer (T_enquiry, cfg.Config.enquiry_timeout);
              Note Recovery_started ] )
      end

(* Phase 2: every reply is in (or the arbiter timed out): if nobody has
   the token, regenerate it with the still-waiting requesters at the
   front of our queue (Section 6, Lost Token). *)
let finish_recovery cfg ~now st =
  match st.recovery with
  | None -> (st, [])
  | Some _ when st.amnesiac ->
      (* Belt and braces: amnesia can only postdate an in-flight
         invalidation if state was lost mid-protocol — never mint a
         token from counters we cannot trust. *)
      ( { st with recovery = None },
        [ Cancel_timer T_enquiry; Note (Custom "recovery-refused-amnesiac") ] )
  | Some r
    when 1 + List.length (List.sort_uniq compare r.replied)
         < majority st.view ->
      (* Not enough of the cluster heard from: regenerating now could
         mint a token while the real one lives across a partition.
         Keep asking the silent nodes; the quorum arrives when the
         partition heals (or never, if too many really crashed — in
         which case there is no safe recovery to be had). *)
      let silent =
        List.filter (fun j -> not (List.mem j r.replied)) r.expected
      in
      ( st,
        List.map (fun j -> Send (j, Enquiry { round = r.rround })) silent
        @ [ Set_timer (T_enquiry, cfg.Config.enquiry_timeout) ] )
  | Some r ->
      let st = { st with recovery = None } in
      let invalidates =
        List.map (fun e -> Send (e.Qlist.node, Invalidate { round = r.rround }))
          (List.filter (fun e -> e.Qlist.node <> st.me) r.waiting)
      in
      (* The epoch skip is id-salted so two nodes regenerating
         concurrently from the same base (both sides of a partition
         lost the token) cannot mint equal epochs — an equal-epoch
         pair would be two forever-valid tokens. *)
      let epoch = st.token_epoch + 1 + st.me in
      let token =
        { tq = []; granted = st.granted_known; epoch;
          election = st.election; vepoch = st.view.vnum }
      in
      let st = { st with token_epoch = epoch } in
      let pre_q, st =
        match st.role with
        | Await_token q -> (q, st)
        | Collecting { cq; _ } -> (cq, st)
        | Normal | Forwarding _ -> ([], { st with role = Await_token [] })
      in
      let merged =
        List.fold_left (fun acc e -> Qlist.enqueue e acc) r.waiting pre_q
      in
      let st, effs = become_collecting cfg ~now st merged token in
      (st, invalidates @ (Note Token_regenerated :: effs)
           @ [ Cancel_timer T_enquiry ])

let receive_enquiry cfg st ~src ~round =
  let status =
    if st.token <> None then Have_token
    else if st.executed_this_round then Executed
    else Waiting_token
  in
  let st =
    if status = Have_token then
      { st with suspended = true; enq_round = max st.enq_round round }
    else { st with enq_round = max st.enq_round round }
  in
  (* An ENQUIRY proves [src] is running an invalidation of its own. If
     we are too, exactly one of the two may finish: both completing
     regenerates two tokens (the id-salted epochs keep them unequal,
     but both are live until they meet — a transient mutual-exclusion
     hole, easily hit when a healed partition lets two pending rounds
     reach quorum together). Lowest id wins: the higher-id node folds
     its round and becomes a quorum member of the survivor's — its
     WAITING reply carries its requesters into the regenerated token's
     queue. The lost-token watchdog is re-armed so a winner that dies
     mid-round just delays recovery instead of stranding it. *)
  let st, tie_break =
    if st.recovery <> None && status <> Have_token && src < st.me then
      ( { st with recovery = None },
        [ Cancel_timer T_enquiry;
          Set_timer (T_token, cfg.Config.token_timeout);
          Note (Custom "recovery-yielded") ] )
    else (st, [])
  in
  (st, Send (src, Enquiry_reply { round; status }) :: tie_break)

let receive_enquiry_reply cfg ~now st ~src ~round ~status =
  match st.recovery with
  | Some r when r.rround = round ->
      let r = { r with replied = src :: r.replied } in
      (match status with
      | Have_token ->
          (* Token located: resume normal operation. If we are the
             arbiter still waiting for it, keep the lost-token
             watchdog armed — the resumed pass can die in transit
             exactly like the one that triggered this round. *)
          ( { st with recovery = None },
            [ Send (src, Resume { round }); Cancel_timer T_enquiry ]
            @
            (if st.arbiter = st.me && st.token = None then
               [ Set_timer (T_token, cfg.Config.token_timeout) ]
             else []) )
      | Executed | Waiting_token ->
          let r =
            if status = Waiting_token then
              match
                List.find_opt (fun e -> e.Qlist.node = src) st.last_q
              with
              | Some e -> { r with waiting = r.waiting @ [ e ] }
              | None -> r
            else r
          in
          let st = { st with recovery = Some r } in
          let all_in =
            List.for_all (fun j -> List.mem j r.replied) r.expected
          in
          if all_in then finish_recovery cfg ~now st else (st, []))
  | _ ->
      (* Stale round — but a HAVE-TOKEN straggler still deserves its
         RESUME: the replier froze itself on our ENQUIRY (possibly a
         duplicate that landed after we closed the round), and with
         the round gone no verdict is coming — it would sit on the
         token forever. Resuming is safe either way: a stale-epoch
         token dies at the receivers' epoch guard. *)
      if status = Have_token then (st, [ Send (src, Resume { round }) ])
      else (st, [])

let receive_resume cfg ~now st ~round =
  if round < st.enq_round then (st, [])
  else begin
    let st = { st with suspended = false } in
    match (st.in_cs, st.token, st.role) with
    | false, Some token, (Normal | Forwarding _ | Await_token _)
      when st.rbatch = None ->
        (* We were frozen after finishing our CS: pass the token now.
           A batch coordinator instead keeps holding until its last
           READ-DONE arrives — [finish_batch] sees [suspended] off. A
           collecting arbiter (frozen mid-window, or thawed already by
           an earlier copy of this RESUME) keeps the token: passing it
           on again would restart collection without the queue. *)
        pass_token_on cfg ~now st token
    | _ -> (st, [])
  end

let receive_invalidate cfg st ~round =
  if round < st.enq_round then (st, [])
  else
    ( { st with enq_round = round },
      if cfg.Config.recovery && st.outstanding <> None then
        [ Set_timer (T_token, cfg.Config.token_timeout) ]
      else [] )

let token_timeout cfg st =
  if st.arbiter = st.me then
    (* We are the arbiter and the token has not reached us. *)
    match st.role with
    | Await_token _ -> start_recovery cfg st
    | Normal | Forwarding _ | Collecting _ -> (st, [])
  else
    match st.outstanding with
    | None -> (st, [])
    | Some _ ->
        ( st,
          [ Send (st.arbiter, Warning);
            Set_timer (T_token, cfg.Config.token_timeout) ] )

let watch_timeout cfg st =
  (* We dispatched a while ago and saw no NEW-ARBITER since: probe the
     arbiter we are watching. *)
  if (not st.watching) || st.arbiter = st.me then (st, [])
  else
    ( st,
      [ Send (st.arbiter, Probe);
        Set_timer (T_probe, cfg.Config.enquiry_timeout) ] )

let probe_timeout cfg ~now st =
  ignore now;
  (* The arbiter is dead: proclaim ourselves (Section 6, Failed
     Arbiter), then locate or regenerate the token. *)
  let st =
    { st with
      arbiter = st.me;
      watching = false;
      election = st.election + 1;
      role =
        (match st.role with
        | Await_token _ | Collecting _ -> st.role
        | Normal | Forwarding _ -> Await_token []) }
  in
  let effs =
    bcast cfg st
      (New_arbiter
         {
           na_arbiter = st.me;
           na_q = [];
           na_granted = st.granted_known;
           na_counter = st.na_counter;
           na_monitor = st.monitor;
           na_epoch = st.token_epoch;
           na_election = st.election;
           na_view = st.view;
         })
    @ [ Note Arbiter_takeover ]
  in
  let st, effs' = start_recovery cfg st in
  (st, effs @ effs')

(* ------------------------------------------------------------------ *)
(* Membership: join / leave choreography                               *)

let vc_msg st ~view ~commit =
  View_change
    {
      vc_view = view;
      vc_commit = commit;
      vc_granted = st.granted_known;
      vc_epoch = st.token_epoch;
      vc_election = st.election;
      vc_arbiter = st.arbiter;
    }

(* Commit a quorum-approved view: apply locally first (the coordinator
   holds the token, so this stamps it with the new view epoch and
   drains excised requesters), then broadcast the commit — to the
   union of old and new members, so both a joiner and a voluntary
   leaver hear the outcome. *)
let commit_view cfg ~now st pv =
  let v = pv.pv_view in
  let old_members = member_ids st.view in
  (* Name the post-commit arbiter: ourselves, unless we are excising
     ourselves — then the TAIL of the drained queue the token carries
     out (the token ends its run there and collection restarts; the
     head is merely the next grantee), or the lowest survivor when the
     queue leaves with nothing in it. *)
  let arb =
    if is_member v st.me then st.me
    else
      let fallback =
        match member_ids v with h :: _ -> h | [] -> st.me
      in
      match st.token with
      | Some tk -> (
          match
            Qlist.final_holder (drained_queue st v ~granted:st.granted_known tk)
          with
          | Some t -> t
          | None -> fallback)
      | None -> fallback
  in
  let st, apply_effs =
    apply_view cfg ~now st v ~granted:st.granted_known
      ~tepoch:st.token_epoch ~elec:st.election ~arbiter:arb
  in
  let st = { st with arbiter = (if is_member v st.me then st.arbiter else arb) } in
  let msg = vc_msg { st with arbiter = arb } ~view:v ~commit:true in
  let recipients =
    List.sort_uniq compare (old_members @ member_ids v)
    |> List.filter (fun j -> j <> st.me)
  in
  ( { st with pending_vc = Some { pv with pv_committed = true; pv_acks = [] } },
    List.map (fun j -> Send (j, msg)) recipients
    @ apply_effs
    @ [ Set_timer (T_view, cfg.Config.enquiry_timeout);
        Note (Custom "view-committed") ] )

(* Propose a new view to every old-view member. The commit is gated on
   acks from a majority of the OLD view (counting ourselves), so a
   coordinator cut off in a minority partition can never change the
   view — the same quorum discipline that guards token regeneration. *)
let propose_view cfg ~now st v =
  let pv =
    { pv_view = v; pv_quorum = majority st.view; pv_acks = [];
      pv_committed = false }
  in
  if 1 >= pv.pv_quorum then commit_view cfg ~now st pv
  else
    let targets = member_ids st.view |> List.filter (fun j -> j <> st.me) in
    let msg = vc_msg st ~view:v ~commit:false in
    ( { st with pending_vc = Some pv },
      List.map (fun j -> Send (j, msg)) targets
      @ [ Set_timer (T_view, cfg.Config.enquiry_timeout);
          Note (Custom "view-proposed") ] )

let holding_as_arbiter st =
  st.token <> None
  && match st.role with Collecting _ -> true | _ -> false

let receive_join_request cfg ~now st (m : member) =
  if m.mid = st.me then (st, [])
  else if is_member st.view m.mid then
    (* Already admitted — the commit may have been lost. Re-send it if
       we are in a position to speak for the view. *)
    if holding_as_arbiter st then
      (st, [ Send (m.mid, vc_msg st ~view:st.view ~commit:true) ])
    else (st, [])
  else if holding_as_arbiter st then
    match st.pending_vc with
    | Some _ -> (st, [ Note (Custom "join-deferred") ])
    | None ->
        let v =
          { vnum = st.view.vnum + 1;
            vmembers = sort_members (m :: st.view.vmembers) }
        in
        propose_view cfg ~now st v
  else if st.arbiter <> st.me then
    (* Relay toward the token-holding arbiter, like a stashed
       request: believed-arbiter pointers only move forward, so the
       chain terminates. The joiner re-sends on T_view regardless. *)
    (st, [ Send (st.arbiter, Join_request m) ])
  else (st, [ Note (Custom "join-deferred") ])

let receive_leave_request cfg ~now st lid =
  if not (is_member st.view lid) then (st, [])
  else if holding_as_arbiter st then
    match st.pending_vc with
    | Some _ -> (st, [ Note (Custom "leave-deferred") ])
    | None ->
        let v =
          { vnum = st.view.vnum + 1;
            vmembers =
              List.filter (fun m -> m.mid <> lid) st.view.vmembers }
        in
        if v.vmembers = [] then (st, [ Note (Custom "leave-refused-last") ])
        else propose_view cfg ~now st v
  else if st.arbiter <> st.me && is_member st.view st.arbiter then
    (st, [ Send (st.arbiter, Leave_request lid) ])
  else (st, [ Note (Custom "leave-deferred") ])

let receive_view_change cfg ~now st ~src vc =
  let ack = Send (src, View_ack { va_vnum = vc.vc_view.vnum }) in
  if not vc.vc_commit then
    (* Proposal phase: the ack only certifies reachability — nothing
       is applied until the commit. *)
    (st, [ ack ])
  else if vc.vc_view.vnum <= st.view.vnum then (st, [ ack ])
  else
    let st, effs =
      apply_view cfg ~now st vc.vc_view ~granted:vc.vc_granted
        ~tepoch:vc.vc_epoch ~elec:vc.vc_election ~arbiter:vc.vc_arbiter
    in
    (st, ack :: effs)

let receive_view_ack cfg ~now st ~src ~va_vnum =
  match st.pending_vc with
  | Some pv when pv.pv_view.vnum = va_vnum ->
      let pv =
        { pv with pv_acks = List.sort_uniq compare (src :: pv.pv_acks) }
      in
      if not pv.pv_committed then
        if 1 + List.length pv.pv_acks >= pv.pv_quorum then
          commit_view cfg ~now st pv
        else ({ st with pending_vc = Some pv }, [])
      else if 1 + List.length pv.pv_acks >= majority pv.pv_view then
        ({ st with pending_vc = None }, [ Cancel_timer T_view ])
      else ({ st with pending_vc = Some pv }, [])
  | _ -> (st, [])

let view_timer cfg st =
  if st.joining then
    (* Keep knocking until a commit admits us. *)
    let self_m =
      match List.find_opt (fun m -> m.mid = st.me) st.view.vmembers with
      | Some m -> m
      | None -> { mid = st.me; maddr = "" }
    in
    ( st,
      [ Send (st.arbiter, Join_request self_m);
        Set_timer (T_view, cfg.Config.retry_timeout) ] )
  else
    match st.pending_vc with
    | Some pv ->
        let commit = pv.pv_committed in
        let universe =
          if commit then member_ids pv.pv_view else member_ids st.view
        in
        let silent =
          List.filter
            (fun j -> j <> st.me && not (List.mem j pv.pv_acks))
            universe
        in
        let msg = vc_msg st ~view:pv.pv_view ~commit in
        ( st,
          List.map (fun j -> Send (j, msg)) silent
          @ [ Set_timer (T_view, cfg.Config.enquiry_timeout) ] )
    | None ->
        (* Idle refresh: re-surface the current view to the runtime
           (used after a restart to re-point gauges and transports). *)
        (st, [ note_view st.view ])

(* ------------------------------------------------------------------ *)
(* Main entry point                                                    *)

let handle_inner cfg ~now st (input : (message, timer) input) :
    state * (message, timer) effect_ list =
  match input with
  | Request_cs -> request_cs cfg ~now ~mode:Types.Exclusive st
  | Request_shared_cs -> request_cs cfg ~now ~mode:Types.Shared st
  | Cs_done -> cs_done cfg ~now st
  | Timer_fired T_dispatch -> dispatch cfg ~now st
  | Timer_fired T_rbatch -> rbatch_timeout cfg ~now st
  | Timer_fired T_forward_end -> (
      match st.role with
      | Forwarding _ ->
          ( { st with role = Normal },
            [ Note (Phase ("forwarding", cfg.Config.t_forward)) ] )
      | _ -> (st, []))
  | Timer_fired T_stash -> (
      match st.role with
      | Normal | Forwarding _ when st.stash <> [] && st.arbiter <> st.me ->
          let live = Qlist.prune st.granted_known st.stash in
          let sends =
            List.concat_map
              (fun e ->
                [ Send (st.arbiter, Request { e with Qlist.hops = 0 });
                  Note Stash_forwarded ])
              live
          in
          ({ st with stash = [] }, sends)
      | _ -> (st, []))
  | Timer_fired T_retry
    when st.sync_wait && st.outstanding = None && st.pending > 0
         && not st.in_cs ->
      (* Restart resynchronization escape valve: the system stayed
         silent past a whole retry period, so stop waiting for an
         announcement and issue the parked request with the knowledge
         we have. Amnesia (if any) stays: this is a timeout, not fresh
         knowledge. *)
      let mode, st = pop_pending_mode st in
      let st = { st with sync_wait = false; pending = st.pending - 1 } in
      issue_request cfg ~now ~mode st
  | Timer_fired T_retry -> (
      match st.outstanding with
      | Some seq
        when st.arbiter <> st.me && (not st.in_cs) && st.retries_left <> 0 ->
          let retries_left =
            if st.retries_left > 0 then st.retries_left - 1
            else st.retries_left
          in
          ( { st with retries_left },
            [ Send
                ( st.arbiter,
                  Request
                    (Qlist.entry ~mode:st.out_mode ~node:st.me ~seq ()) );
              Set_timer (T_retry, retry_delay cfg st);
              Note Retransmitted ] )
      | _ -> (st, []))
  | Timer_fired T_token ->
      if cfg.Config.recovery then token_timeout cfg st else (st, [])
  | Timer_fired T_enquiry -> finish_recovery cfg ~now st
  | Timer_fired T_watch ->
      if cfg.Config.recovery then watch_timeout cfg st else (st, [])
  | Timer_fired T_probe ->
      if cfg.Config.recovery then probe_timeout cfg ~now st else (st, [])
  | Timer_fired T_view -> view_timer cfg st
  | Receive (_, Join_request m) -> receive_join_request cfg ~now st m
  | Receive (_, Leave_request lid) -> receive_leave_request cfg ~now st lid
  | Receive (src, View_change vc) -> receive_view_change cfg ~now st ~src vc
  | Receive (src, View_ack { va_vnum }) ->
      receive_view_ack cfg ~now st ~src ~va_vnum
  | Receive (_, Request e) -> receive_request cfg ~now st e
  | Receive (_, Monitor_request e) -> receive_monitor_request cfg ~now st e
  | Receive (_, Privilege (token, _)) ->
      if token.epoch < st.token_epoch then (st, [ Note (Custom "stale-token") ])
      else if token.vepoch < st.view.vnum then
        (* View changes are committed only while the token is in the
           coordinator's hands, so a token stamped with an older view
           epoch is a relic of a superseded universe. Reject loudly;
           the live token (or a regeneration) carries the current
           view. *)
        (st, [ Note (Custom "stale-view-token") ])
      else begin
        (* Holding the token ends any enquiry round we were running:
           it cannot be lost while it is in our hands, yet letting the
           round run out would conclude exactly that and mint a second
           one. See [absorb_token] for what it does to a restart's
           resynchronization. *)
        let past_life, token = shed_past_life st token in
        let aborted = st.recovery <> None in
        let st = absorb_token st ~past_life token in
        let st, effs =
          match token.tq with
          | head :: _ when head.Qlist.node = st.me ->
              launch_token cfg ~now st token
          | _ -> pass_token_on cfg ~now st token
        in
        let effs =
          if past_life then Note (Custom "past-life-shed") :: effs else effs
        in
        if aborted then (st, Cancel_timer T_enquiry :: effs) else (st, effs)
      end
  | Receive (_, Monitor_privilege token) ->
      receive_monitor_privilege cfg ~now st token
  | Receive (src, Read_grant rg) -> receive_read_grant cfg st ~src rg
  | Receive (src, Read_done { rd_seq }) ->
      receive_read_done cfg ~now st ~src ~rd_seq
  | Receive (src, New_arbiter na) -> receive_new_arbiter cfg ~now st ~src na
  | Receive (src, Warning) ->
      if not cfg.Config.recovery then (st, [])
      else if
        src <> st.me
        && now -. st.last_token_seen < cfg.Config.token_timeout
      then
        (* The token passed through our hands within one watchdog
           period: the warner's knowledge is staler than ours, and our
           own dispatch-time watchdog covers the interim. Starting an
           enquiry round against a demonstrably live token can race it
           — every reply can say "waiting" while the token is airborne
           between two repliers — and end in a second token.
           Self-warnings (injected at restart when durable custody
           proves the token died with us) are always honoured. *)
        (st, [ Note (Custom "warning-ignored-token-live") ])
      else start_recovery cfg st
  | Receive (src, Enquiry { round }) -> receive_enquiry cfg st ~src ~round
  | Receive (src, Enquiry_reply { round; status }) ->
      receive_enquiry_reply cfg ~now st ~src ~round ~status
  | Receive (_, Resume { round }) -> receive_resume cfg ~now st ~round
  | Receive (_, Invalidate { round }) -> receive_invalidate cfg st ~round
  | Receive (src, Probe) -> (st, [ Send (src, Probe_ack) ])
  | Receive (_, Probe_ack) ->
      ( st,
        if cfg.Config.recovery && st.watching then
          [ Cancel_timer T_probe;
            Set_timer (T_watch, cfg.Config.arbiter_timeout) ]
        else if cfg.Config.recovery then [ Cancel_timer T_probe ]
        else [] )

(* Defense in depth against stale senders: once membership can shrink,
   frames from outside the current view must not reach the protocol
   proper. Membership traffic itself (a joiner's knock and acks, a
   leaver's commit), a PRIVILEGE hand-off from a leaving coordinator,
   and a member's request relayed by a node excised while it held that
   request, are the only messages a non-member may deliver. A
   PRIVILEGE with a folded announcement is received as the NEW-ARBITER
   it stands for, then the token, each through this gate: the
   announcement of a non-member is dropped like a lone one. *)
let rec handle cfg ~now st (input : (message, timer) input) :
    state * (message, timer) effect_ list =
  match input with
  | Receive (src, Privilege (token, Some ho)) ->
      let st, na_effs =
        handle cfg ~now st (Receive (src, New_arbiter (unfold st token ho)))
      in
      let st, tk_effs =
        handle cfg ~now st (Receive (src, Privilege (token, None)))
      in
      (st, na_effs @ tk_effs)
  | Receive (src, msg)
    when src <> st.me && (not st.joining)
         && not (is_member st.view src) -> (
      match msg with
      | Join_request _ | Leave_request _ | View_change _ | View_ack _
      | Privilege _ ->
          handle_inner cfg ~now st input
      | (Request e | Monitor_request e) when is_member st.view e.Qlist.node ->
          handle_inner cfg ~now st input
      | _ -> (st, [ Note (Custom "nonmember-dropped") ]))
  | _ -> handle_inner cfg ~now st input

(* ------------------------------------------------------------------ *)
(* Introspection and printing                                          *)

let message_kind = function
  | Request _ -> "REQUEST"
  | Monitor_request _ -> "MONITOR-REQUEST"
  | Privilege _ -> "PRIVILEGE"
  | Monitor_privilege _ -> "MONITOR-PRIVILEGE"
  | New_arbiter _ -> "NEW-ARBITER"
  | Warning -> "WARNING"
  | Enquiry _ -> "ENQUIRY"
  | Enquiry_reply _ -> "ENQUIRY-REPLY"
  | Resume _ -> "RESUME"
  | Invalidate _ -> "INVALIDATE"
  | Probe -> "PROBE"
  | Probe_ack -> "PROBE-ACK"
  | Join_request _ -> "JOIN-REQUEST"
  | Leave_request _ -> "LEAVE-REQUEST"
  | View_change _ -> "VIEW-CHANGE"
  | View_ack _ -> "VIEW-ACK"
  | Read_grant _ -> "READ-GRANT"
  | Read_done _ -> "READ-DONE"

let pp_status ppf = function
  | Have_token -> Format.pp_print_string ppf "have-token"
  | Executed -> Format.pp_print_string ppf "executed"
  | Waiting_token -> Format.pp_print_string ppf "waiting"

let pp_message ppf = function
  | Request e -> Format.fprintf ppf "REQUEST(%a)" Qlist.pp_entry e
  | Monitor_request e ->
      Format.fprintf ppf "MONITOR-REQUEST(%a)" Qlist.pp_entry e
  | Privilege (t, None) -> Format.fprintf ppf "PRIVILEGE(%a)" Qlist.pp t.tq
  | Privilege (t, Some ho) ->
      Format.fprintf ppf "PRIVILEGE(%a, +NEW-ARBITER v=%d)" Qlist.pp t.tq
        ho.ho_view.vnum
  | Monitor_privilege t ->
      Format.fprintf ppf "MONITOR-PRIVILEGE(%a)" Qlist.pp t.tq
  | New_arbiter na ->
      Format.fprintf ppf "NEW-ARBITER(%d, %a, c=%d)" na.na_arbiter Qlist.pp
        na.na_q na.na_counter
  | Warning -> Format.pp_print_string ppf "WARNING"
  | Enquiry { round } -> Format.fprintf ppf "ENQUIRY(r=%d)" round
  | Enquiry_reply { round; status } ->
      Format.fprintf ppf "ENQUIRY-REPLY(r=%d, %a)" round pp_status status
  | Resume { round } -> Format.fprintf ppf "RESUME(r=%d)" round
  | Invalidate { round } -> Format.fprintf ppf "INVALIDATE(r=%d)" round
  | Probe -> Format.pp_print_string ppf "PROBE"
  | Probe_ack -> Format.pp_print_string ppf "PROBE-ACK"
  | Join_request m -> Format.fprintf ppf "JOIN-REQUEST(%d@%s)" m.mid m.maddr
  | Leave_request lid -> Format.fprintf ppf "LEAVE-REQUEST(%d)" lid
  | View_change vc ->
      Format.fprintf ppf "VIEW-CHANGE(v=%d,%s,[%s])" vc.vc_view.vnum
        (if vc.vc_commit then "commit" else "propose")
        (String.concat ","
           (List.map (fun m -> string_of_int m.mid) vc.vc_view.vmembers))
  | View_ack { va_vnum } -> Format.fprintf ppf "VIEW-ACK(v=%d)" va_vnum
  | Read_grant { rg_epoch; rg_minor; rg_entry } ->
      Format.fprintf ppf "READ-GRANT(%a, e=%d, m=%d)" Qlist.pp_entry rg_entry
        rg_epoch rg_minor
  | Read_done { rd_seq } -> Format.fprintf ppf "READ-DONE(#%d)" rd_seq

let pp_role ppf = function
  | Normal -> Format.pp_print_string ppf "normal"
  | Await_token q -> Format.fprintf ppf "await-token%a" Qlist.pp q
  | Collecting { cq; armed; _ } ->
      Format.fprintf ppf "collecting%a%s" Qlist.pp cq
        (if armed then "+" else "-")
  | Forwarding { next_arbiter } ->
      Format.fprintf ppf "forwarding->%d" next_arbiter

let pp_state ppf st =
  Format.fprintf ppf
    "@[<h>node %d: view=%d arbiter=%d role=%a%s%s%s out=%s pend=%d misses=%d@]"
    st.me st.view.vnum st.arbiter pp_role st.role
    (if st.in_cs then
       if st.rgrant <> None then " IN-CS(r)"
       else if st.rbatch <> None then " IN-CS(R)"
       else " IN-CS"
     else "")
    (if st.token <> None then " TOKEN" else "")
    (if st.amnesiac then " AMNESIAC" else if st.sync_wait then " SYNC-WAIT"
     else "")
    (match st.outstanding with Some s -> string_of_int s | None -> "-")
    st.pending st.misses
