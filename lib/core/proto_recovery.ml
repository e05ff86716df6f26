(* Section 6, recovery: the requester's WARNING, the arbiter's
   two-phase token invalidation (ENQUIRY, then RESUME or INVALIDATE and
   a regenerated token), and the previous arbiter's watch over the
   current one (PROBE). *)

open Types
open Proto_state
open Proto_arbiter
open Proto_token

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
        let targets = peers st in
        ( { st with
            recovery =
              Some { rround = round; expected = targets; replied = []; waiting = [] };
            enq_round = round },
          send_all targets (Enquiry { round })
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
        send_all silent (Enquiry { round = r.rround })
        @ [ Set_timer (T_enquiry, cfg.Config.enquiry_timeout) ] )
  | Some r ->
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
      let st, effs =
        become_collecting cfg ~now
          { st with recovery = None; token_epoch = epoch }
          (Qlist.enqueue_all (collected st) r.waiting)
          token
      in
      (st, invalidates @ (Note Token_regenerated :: effs)
           @ [ Cancel_timer T_enquiry ])

let receive_enquiry cfg st ~src ~round =
  let status =
    if st.token <> None then Have_token
    else if st.executed_this_round then Executed
    else Waiting_token
  in
  let st =
    { st with suspended = st.suspended || status = Have_token;
      enq_round = max st.enq_round round }
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
        (Cancel_timer T_enquiry :: watchdog cfg)
        @ [ Note (Custom "recovery-yielded") ] )
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
            @ if st.arbiter = st.me && st.token = None then watchdog cfg
              else [] )
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
      if st.outstanding <> None then watchdog cfg else [] )

(* A WARNING from a requester whose token timeout fired. *)
let receive_warning cfg ~now st ~src =
  if src <> st.me && now -. st.last_token_seen < cfg.Config.token_timeout
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

let token_timeout cfg st =
  if st.arbiter = st.me then
    (* We are the arbiter and the token has not reached us. *)
    match st.role with
    | Await_token _ -> start_recovery cfg st
    | Normal | Forwarding _ | Collecting _ -> (st, [])
  else
    match st.outstanding with
    | None -> (st, [])
    | Some _ -> (st, Send (st.arbiter, Warning) :: watchdog cfg)

let watch_timeout cfg st =
  (* We dispatched a while ago and saw no NEW-ARBITER since: probe the
     arbiter we are watching. *)
  if (not st.watching) || st.arbiter = st.me then (st, [])
  else
    ( st,
      [ Send (st.arbiter, Probe);
        Set_timer (T_probe, cfg.Config.enquiry_timeout) ] )

let receive_probe_ack cfg st =
  ( st,
    if st.watching then
      [ Cancel_timer T_probe; Set_timer (T_watch, cfg.Config.arbiter_timeout) ]
    else [ Cancel_timer T_probe ] )

let probe_timeout cfg st =
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
    bcast cfg st (New_arbiter (announcement st ~arbiter:st.me ~q:[]))
    @ [ Note Arbiter_takeover ]
  in
  let st, effs' = start_recovery cfg st in
  (st, effs @ effs')
