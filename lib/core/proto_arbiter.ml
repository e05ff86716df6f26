(* Section 2, the arbiter: accepting, forwarding and relaying requests,
   announcing the next arbiter, and dispatching the token at the end of
   each collection window. *)

open Types
open Proto_state
open Proto_requester
open Proto_fold

(* Relay the requests parked in our stash to the arbiter we believe
   in, with hop counts rewritten by [hops]; those already served are
   dropped. *)
let relay_stash st ~hops =
  let sends =
    List.concat_map
      (fun e ->
        [ Send (st.arbiter, Request { e with Qlist.hops = hops e.Qlist.hops });
          Note Stash_forwarded ])
      (Qlist.prune st.granted_known st.stash)
  in
  ({ st with stash = [] }, sends)

(* T_stash: a request parked past its hop budget is re-launched toward
   the believed arbiter with a fresh budget. *)
let stash_timeout st =
  match st.role with
  | (Normal | Forwarding _) when st.stash <> [] && st.arbiter <> st.me ->
      relay_stash st ~hops:(fun _ -> 0)
  | _ -> (st, [])

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
            New_arbiter (announcement st ~arbiter:st.arbiter ~q:st.last_q) )
      ] )
  else
    let relay dst note =
      (st, [ Send (dst, Request { e with Qlist.hops = e.Qlist.hops + 1 }); Note note ])
    in
    match st.role with
    | Await_token _ | Collecting _ -> accept_request cfg ~now st e
    | Forwarding { next_arbiter } ->
        if monitored st && e.Qlist.hops >= cfg.Config.forward_threshold then
          (* Over the τ budget: drop; the requester will escape to the
             monitor after τ NEW-ARBITER misses (Section 4.1). *)
          (st, [ Note Dropped_request ])
        else relay next_arbiter Forwarded
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
          if st.arbiter <> st.me then relay st.arbiter Stash_forwarded
          else ({ st with stash = Qlist.enqueue e st.stash }, [ Note Stashed ])
        else if monitored st then (st, [ Note Dropped_request ])
        else
          ( { st with stash = Qlist.enqueue e st.stash },
            [ Note Stashed;
              Set_timer (T_stash, cfg.Config.retry_timeout) ] )

(* Announce the arbiter elected by dispatching [token] with queue [q].
   Returns the NEW-ARBITER sends and, under the Section 3.1 option,
   the announcement folded for the tail's PRIVILEGE. A self-singleton
   is not announced when the arbiter identity is unchanged
   ([prev_announced] is already us): nobody's knowledge goes stale and
   Eq. 1 counts zero messages for the requester-is-arbiter case. *)
let announce cfg st ~prev_announced ~q ~counter ~token =
  let na =
    { (announcement st ~arbiter:(tail_of q ~default:st.me) ~q) with
      na_counter = counter }
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
      ( send_all (List.filter (fun j -> j <> e.Qlist.node) (peers st)) msg,
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
      let st =
        { st with in_cs = true; token = Some token; outstanding;
          executed_this_round = cfg.Config.recovery }
      in
      match Qlist.head_batch token.tq with
      | [] | [ _ ] ->
          (st, [ Enter_cs; Cancel_timer T_token; Cancel_timer T_retry ])
      | batch ->
          let minor =
            Qlist.Granted.total (Qlist.Granted.mark_all token.granted batch)
          in
          let others =
            List.filter (fun e -> e.Qlist.node <> st.me) batch
          in
          ( { st with
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
        let tail = tail_of q ~default:st.me in
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
            qsizes = observe_qsize cfg st q;
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
        (* The token as this dispatch sends it out with queue [q]. *)
        let stamp q =
          { token with tq = q; election = base.election;
            vepoch = max token.vepoch base.view.vnum }
        in
        if monitor_route then begin
          (* Section 4.1: hand the token to the monitor without
             broadcasting; the monitor augments Q, broadcasts with the
             counter reset, and forwards the token. *)
          let token = stamp q in
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
              watchdog cfg
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
                Qlist.enqueue_all
                  (Qlist.prune token.granted base.monitor_buffer)
                  q
              in
              (merged, { base with monitor_buffer = []; last_q = merged })
            else (q, base)
          in
          let tail = tail_of q ~default:st.me in
          let base = { base with arbiter = tail } in
          (* Monitor rotation happens only when the monitor itself
             broadcasts (Section 5.1); a regular dispatch re-announces
             the current monitor unchanged. *)
          let token = stamp q in
          let announce_effs, handover =
            announce cfg base ~prev_announced ~q ~counter ~token
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
              if st'.token = None then (st', effs @ watchdog cfg)
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
  let pre_q = Qlist.enqueue_all st.stash pre_q in
  let st = { st with stash = [] } in
  let pre_q =
    match st.outstanding with
    | Some seq
      when (not (Qlist.mem st.me pre_q))
           && not (Qlist.Granted.already_served token.granted (own_entry st seq))
      ->
        Qlist.enqueue (own_entry st seq) pre_q
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
