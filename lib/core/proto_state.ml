(* The protocol's state, messages and timers, the initial states, and
   the small helpers every section of the protocol shares. The
   sections themselves live in the [Proto_*] modules that follow, in
   dependency order; {!Protocol} is the one public interface. *)

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
  pending_modes : Types.mode list;
  (* modes of the application requests queued behind [outstanding],
     oldest first *)
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

(* The other members of our view, in id order. *)
let peers st = List.filter (fun j -> j <> st.me) (member_ids st.view)
let send_all dsts msg = List.map (fun j -> Send (j, msg)) dsts
let send_requests dst q = List.map (fun e -> Send (dst, Request e)) q

(* Emit the legacy Broadcast effect while the view is still the birth
   universe — runtimes deliver it to 0..n-1, and simulator/model-
   checker/bench accounting stays bit-identical to the fixed-N
   protocol. Any churned view uses explicit per-member sends. *)
let is_birth cfg v = v.vnum = 0 && view_size v = cfg.Config.n

let bcast cfg st msg =
  if is_birth cfg st.view then [ Broadcast msg ] else send_all (peers st) msg

let note_view v =
  Note
    (Membership
       { vepoch = v.vnum;
         members = List.map (fun m -> (m.mid, m.maddr)) v.vmembers })

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let monitored st = st.monitor >= 0

(* Absorb monotone knowledge: the L vector merges pointwise, the token
   epoch and the election number only ever move up. This copies the
   state record once more, so the paths that run for every grant
   ([obey], [cs_done], [finish_batch], [receive_read_grant]) make the
   same updates inside their own record update instead. *)
let learn ?granted ?epoch ?election st =
  { st with
    granted_known =
      (match granted with
       | Some g -> Qlist.Granted.merge st.granted_known g
       | None -> st.granted_known);
    token_epoch =
      (match epoch with Some e -> max st.token_epoch e | None -> st.token_epoch);
    election =
      (match election with Some e -> max st.election e | None -> st.election) }

(* The NEW-ARBITER payload naming [arbiter] with queue [q]; everything
   else is this node's current knowledge. *)
let announcement st ~arbiter ~q =
  { na_arbiter = arbiter;
    na_q = q;
    na_granted = st.granted_known;
    na_counter = st.na_counter;
    na_monitor = st.monitor;
    na_epoch = st.token_epoch;
    na_election = st.election;
    na_view = st.view }

(* The node that ends up holding the token once [q] is served (the
   next arbiter), or [default] for an empty queue. *)
let tail_of q ~default =
  match Qlist.final_holder q with Some t -> t | None -> default

(* The queue a collecting node holds outside the token: an arbiter's
   open window, or the pre-queue of one awaiting the token. *)
let collected st =
  match st.role with
  | Collecting { cq; _ } -> cq
  | Await_token q -> q
  | Normal | Forwarding _ -> []

(* Our own request [seq], in the mode it was issued with. *)
let own_entry st seq = Qlist.entry ~mode:st.out_mode ~node:st.me ~seq ()

(* The lost-token watchdog (Section 6): armed only with recovery on. *)
let watchdog cfg =
  if cfg.Config.recovery then [ Set_timer (T_token, cfg.Config.token_timeout) ]
  else []

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

let retry_timer cfg st = Set_timer (T_retry, retry_delay cfg st)

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
(* Initial states                                                      *)

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
  learn ~granted:r.r_granted ~epoch:r.r_epoch ~election:r.r_election
    {
      base with
      amnesiac = false;
      sync_wait = cfg.Config.recovery && cfg.Config.n > 1;
      next_seq = r.r_next_seq;
      incarnation_seq = r.r_next_seq;
      enq_round = max base.enq_round r.r_enq_round;
      view;
      arbiter = (if is_member view base.arbiter then base.arbiter
                 else (match member_ids view with
                       | m :: _ when m <> me -> m
                       | _ :: m :: _ -> m
                       | _ -> base.arbiter));
    }

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)

let in_cs st = st.in_cs
let wants_cs st = st.outstanding <> None || st.pending_modes <> []

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
