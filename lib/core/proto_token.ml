(* Section 2, token passing: a PRIVILEGE's receipt, the token's walk
   down the Q-list, and the exit from the critical section. *)

open Types
open Proto_state
open Proto_requester
open Proto_fold
open Proto_arbiter

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
      (* We head the queue: enter (a duplicate entry for us, or a
         PRIVILEGE that brings us our own grant). *)
      launch_token cfg ~now st token
  | head :: _ ->
      ( { st with token = None; last_token_seen = now },
        [ Send (head.Qlist.node, Privilege (token, None)) ] )

(* Surface the next queued application request, if any. *)
let surface_pending cfg ~now (st, effs) =
  if st.pending_modes = [] then (st, effs)
  else
    let st, effs' = issue_pending cfg ~now st in
    (st, effs @ effs')

(* Move the token on once its grant is over, exclusive or a whole
   batch. A holder excised mid-CS ([apply_view] deferred the hand-off
   to keep mutual exclusion) hands it to the heir and goes dark; one
   frozen by an ENQUIRY holds it until RESUME. *)
let release_token cfg ~now st token =
  if not (is_member st.view st.me) then
    ( { st with token = None; role = Normal; suspended = false },
      handoff_token st token @ [ Note (Custom "excised-handoff") ] )
  else if st.suspended then
    ({ st with token = Some token; last_token_seen = now }, [])
  else pass_token_on cfg ~now st token

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
  let st =
    { st with rbatch = None;
      granted_known = Qlist.Granted.merge st.granted_known granted }
  in
  let st, effs = release_token cfg ~now st { token with tq; granted } in
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
      let token =
        match token.tq with
        | e :: rest when e.Qlist.node = st.me ->
            { token with tq = rest; granted = Qlist.Granted.mark token.granted e }
        | _ -> token
      in
      let st =
        { st with in_cs = false;
          granted_known = Qlist.Granted.merge st.granted_known token.granted }
      in
      let released = release_token cfg ~now st token in
      if is_member st.view st.me then surface_pending cfg ~now released
      else released)

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
  if past_life then learn ~granted:token.granted st
  else { st with amnesiac = false; sync_wait = false }

(* A token arriving, by PRIVILEGE or through the monitor. One from a
   superseded epoch, or stamped with an older view than ours, is a
   relic and dies here: view changes are committed only while the
   token is in the coordinator's hands, and the live token (or a
   regeneration) carries the current view. Otherwise the token is
   absorbed and [k] acts on it. Holding the token ends any enquiry
   round we were running: it cannot be lost while it is in our hands,
   yet letting the round run out would conclude exactly that and mint
   a second one. *)
let receive_token st token k =
  if token.epoch < st.token_epoch then (st, [ Note (Custom "stale-token") ])
  else if token.vepoch < st.view.vnum then
    (st, [ Note (Custom "stale-view-token") ])
  else
    let past_life, token = shed_past_life st token in
    let aborted = st.recovery <> None in
    let st, effs = k (absorb_token st ~past_life token) token in
    ( st,
      (if aborted then [ Cancel_timer T_enquiry ] else [])
      @ (if past_life then [ Note (Custom "past-life-shed") ] else [])
      @ effs )
