(* Membership: adopting a committed view, whether it arrives as a
   VIEW-CHANGE commit or rides on an announcement. *)

open Types
open Proto_state
open Proto_requester
open Proto_fold

(* Requests a node holds outside any token queue: the collection
   queue, the pre-queue of an arbiter awaiting the token, the resync
   stash, the monitor's parking buffer, and requests frozen by an
   in-flight enquiry round. An excised arbiter must fold these into
   the token it hands off — dropping them silently starves the
   requesters, whose blind retries are finite. *)
let parked_requests st =
  collected st @ st.stash @ st.monitor_buffer
  @ (match st.recovery with Some r -> r.waiting | None -> [])

(* The queue an excised token-holder hands off: surviving token-queue
   entries first, then surviving parked requests not already served.
   Shared with [commit_view] so the arbiter named in the commit and
   the heir the token actually goes to always agree. *)
let drained_queue st (v : view) ~granted tk =
  let keep e = is_member v e.Qlist.node in
  let merged = Qlist.Granted.merge tk.granted granted in
  Qlist.enqueue_all
    (Qlist.prune merged (List.filter keep (parked_requests st)))
    (List.filter keep tk.tq)

(* Adopt a newer committed view: every structure that can hold entries
   (or identities) of excised nodes is drained — the Q-list inside a
   held token, the collection queues, the stash, the monitor buffer,
   the last announced Q-list, and an in-flight enquiry round's target
   and reply sets — without losing the token. The sync payload's
   monotone knowledge (L vector, token epoch, election) is absorbed,
   and the change is surfaced to the runtime as a [Membership] note so
   transports and liveness monitors re-point on the fly. *)
let apply_view cfg ~now st (v : view) ~granted ~tepoch ~elec ~arbiter =
  let filter_q = List.filter (fun e -> is_member v e.Qlist.node) in
  let filter_ids = List.filter (is_member v) in
  (* Excised readers can no longer answer a batch coordinator. *)
  let rbatch =
    Option.map (fun b -> { b with rb_await = filter_ids b.rb_await }) st.rbatch
  in
  if st.joining && not (is_member v st.me) then
    (* Still outside the view: keep knocking. Adopting a universe that
       excludes us would stop the join retries (and lose our own
       address metadata). *)
    (st, [])
  else if not (is_member v st.me) then begin
    (* We were excised: adopt the view and shed every responsibility. *)
    let dark =
      learn ~granted ~epoch:tepoch ~election:elec
        { st with view = v; joining = false; pending_vc = None; role = Normal;
          outstanding = None; pending_modes = []; rbatch; watching = false;
          recovery = None; stash = []; monitor_buffer = [] }
    in
    let excised note =
      [ note_view v; Note (Custom note);
        Cancel_timer T_token; Cancel_timer T_retry;
        Cancel_timer T_enquiry; Cancel_timer T_watch;
        Cancel_timer T_probe; Cancel_timer T_view ]
    in
    (* Survivors' requests parked at this node ride inside the token we
       hand off. *)
    let absorb tk =
      { tk with
        tq = drained_queue st v ~granted tk;
        granted = Qlist.Granted.merge tk.granted granted }
    in
    if (st.in_cs || st.rbatch <> None) && st.token <> None then
      (* Excised while inside the critical section: mutual exclusion
         outranks membership, so we keep the token and the CS. The
         hand-off happens at [Cs_done] (see [cs_done]), or, for an
         in-flight batch, in [finish_batch]: both re-check
         membership. *)
      ({ dark with token = Option.map absorb st.token },
       excised "excised-in-cs")
    else
      let reader_done =
        (* Excised while reading under a READ-GRANT: best-effort answer
           so the coordinator's batch completes without waiting for its
           T_rbatch force. *)
        match st.rgrant with
        | Some r -> [ Send (r.rg_from, Read_done { rd_seq = r.rg_seq }) ]
        | None -> []
      in
      let dark =
        { dark with token = None; in_cs = false; rbatch = None; rgrant = None }
      in
      (* A token in our hands (a voluntary leave committed by ourselves
         as coordinator) goes to an heir before we go dark (see
         [handoff_token]). *)
      let handoff =
        match st.token with
        | None -> []
        | Some tk -> handoff_token dark (absorb tk)
      in
      (dark, reader_done @ handoff @ excised "excised")
  end
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
      learn ~granted ~epoch:tepoch ~election:elec
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
                  expected = filter_ids r.expected;
                  replied = filter_ids r.replied;
                  waiting = filter_q r.waiting })
              st.recovery;
          rbatch;
          stash = filter_q st.stash;
          monitor_buffer = filter_q st.monitor_buffer;
          last_q = filter_q st.last_q;
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
                     (own_entry st seq)) ->
          ( { st with misses = 0; retries_left = cfg.Config.max_retries },
            [ Send (st.arbiter, Request (own_entry st seq));
              retry_timer cfg st ] )
      | _ -> (st, [])
    in
    let st, resync_effs = end_resync cfg ~now st in
    (st, (note_view v :: joined_effs) @ resend_effs @ resync_effs)
  end
