(* Section 2, NEW-ARBITER: what a node learns from an announcement —
   the new arbiter, the implicit acknowledgement of its own request,
   and (with recovery on) who watches whom. *)

open Types
open Proto_state
open Proto_requester
open Proto_view
open Proto_arbiter

(* Requester-side reaction to an announced Q-list: the Q-list is the
   implicit acknowledgement (Section 6, Lost Request). Runs both on a
   received NEW-ARBITER and on the Q-list a node announces itself (a
   broadcaster is not delivered its own broadcast, but it has observed
   the same information). *)
let observe_qlist cfg st q =
  match st.outstanding with
  | None -> (st, [])
  | Some seq ->
      if Qlist.Granted.already_served st.granted_known (own_entry st seq)
      then
        ({ st with outstanding = None },
         [ Cancel_timer T_retry; Cancel_timer T_token ])
      else if Qlist.mem st.me q then
        (* Confirmed scheduled: the blind retry timer is no longer
           needed (and at large N a queue rotation can outlast it,
           which would flood the arbiter with duplicates). *)
        ({ st with misses = 0 }, Cancel_timer T_retry :: watchdog cfg)
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
            [ Send (st.monitor, Monitor_request (own_entry st seq));
              Note Resubmitted_to_monitor ] )
        else if misses >= cfg.Config.retransmit_misses then
          let arm =
            if cfg.Config.max_retries = 0 then [] else [ retry_timer cfg st ]
          in
          ( { st with misses = 0; monitor_misses },
            Send (st.arbiter, Request (own_entry st seq))
            :: Note Retransmitted :: arm )
        else ({ st with misses; monitor_misses }, [])
      end

(* Split-brain repair: a healed partition can leave two arbiters, each
   with a token, both racing their election counters so neither ever
   adopts the other's announcement. Token epochs are the tie-breaker —
   they only move on regeneration — so epoch knowledge must travel
   unconditionally, and a token from a superseded epoch must be
   discarded by whoever holds it (not mid-CS: the current excursion
   finishes; the token dies right after). *)
let discard_stale_token cfg st na =
  let stale_token =
    cfg.Config.recovery && (not st.in_cs) && st.rbatch = None
    && match st.token with
       | Some tk -> tk.epoch < na.na_epoch
       | None -> false
  in
  if not stale_token then (st, [])
  else
    let q = collected st in
    let st = learn ~epoch:na.na_epoch { st with token = None } in
    if na.na_arbiter = st.me then
      (* We are the arbiter of the newer universe too: keep the queue
         and wait for the valid token. *)
      ( { st with role = Await_token q },
        Note (Custom "token-invalidated") :: watchdog cfg )
    else
      ( { st with role = Normal; arbiter = na.na_arbiter },
        Note (Custom "token-invalidated") :: send_requests na.na_arbiter q )

(* A current announcement: adopt the arbiter it names, and everything
   else it says. *)
let obey cfg ~now st ~src na =
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
          ({ st with role = Await_token [] }, watchdog cfg @ effs)
      | Await_token _ ->
          (* Already elected and still waiting: keep our queue, but
             refresh the lost-token watchdog — this announcement is
             not the token. *)
          (st, watchdog cfg @ effs)
      | Collecting _ ->
          (* Already the arbiter with the token in hand. *)
          (st, effs)
    else
      match st.role with
      | Await_token q when q <> [] ->
          (* We were superseded (recovery path): salvage what we
             collected by forwarding it to the real arbiter. *)
          ({ st with role = Normal }, effs @ send_requests na.na_arbiter q)
      | Await_token _ -> ({ st with role = Normal }, effs)
      | Normal | Forwarding _ | Collecting _ -> (st, effs)
  in
  (* Hand over any parked requests to the announced arbiter. *)
  let st, effs =
    if st.stash = [] then (st, effs)
    else if na.na_arbiter <> st.me then
      let st, sends = relay_stash st ~hops:succ in
      (st, effs @ sends)
    else
      (* We are the arbiter: keep them; they merge into our queue in
         [become_collecting] (or are already there). *)
      match st.role with
      | Await_token q ->
          let live = Qlist.prune st.granted_known st.stash in
          ({ st with stash = []; role = Await_token (Qlist.enqueue_all live q) },
           effs)
      | Collecting _ | Normal | Forwarding _ -> (st, effs)
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
  (st, effs @ resync_effs @ effs')

let receive_new_arbiter cfg ~now st ~src na =
  if na.na_view.vnum < st.view.vnum then
    (* An announcement from a superseded membership universe: only its
       monotone knowledge is absorbed; obeying its election could
       resurrect an excised arbiter. *)
    ( learn ~granted:na.na_granted ~epoch:na.na_epoch st,
      [ Note (Custom "stale-view-announcement") ] )
  else
    let st, view_effs =
      if na.na_view.vnum > st.view.vnum then
        (* The announcement carries a newer view than ours (we missed
           a VIEW-CHANGE commit): anti-entropy catch-up. *)
        apply_view cfg ~now st na.na_view ~granted:na.na_granted
          ~tepoch:na.na_epoch ~elec:na.na_election ~arbiter:na.na_arbiter
      else (st, [])
    in
    if not (is_member st.view st.me) then (st, view_effs)
    else
      let st, stale_effs = discard_stale_token cfg st na in
      let st, effs =
        if na.na_election < st.election then
          (* A reordered announcement from a past election: obeying it
             could re-elect a node that has already handed the role on.
             Only the monotone knowledge (the L vector and the token
             epoch) is absorbed. *)
          (learn ~granted:na.na_granted ~epoch:na.na_epoch st, [])
        else obey cfg ~now st ~src na
      in
      (st, view_effs @ stale_effs @ effs)
