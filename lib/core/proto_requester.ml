(* Section 2, the requester: issuing a request, parking the ones the
   application makes while one is outstanding, retransmitting, and the
   end of a restart's resynchronization. *)

open Types
open Proto_state

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
  let st =
    { st with next_seq = seq + 1; outstanding = Some seq; out_mode = mode;
      misses = 0; monitor_misses = 0; retries_left = cfg.Config.max_retries }
  in
  let e = own_entry st seq in
  match st.role with
  | Await_token _ | Collecting _ -> accept_request cfg ~now st e
  | Normal | Forwarding _ ->
      let arm =
        if cfg.Config.max_retries = 0 then [] else [ retry_timer cfg st ]
      in
      (* Lost-token watchdog from the moment the request leaves us, not
         only once a Q-list acknowledges it: if the request wanders
         between stale stash-relays because the elected arbiter died
         with the token in transit (and restarted as a normal node), no
         announcement ever comes — yet someone must eventually WARNING
         the believed arbiter or the token stays lost forever. Spurious
         firings are harmless: the warned node holds (or locates) the
         token and recovery never starts. *)
      (st, (Send (st.arbiter, Request e) :: arm) @ watchdog cfg)

(* Issue the oldest parked application request, if any. *)
let issue_pending cfg ~now st =
  match st.pending_modes with
  | mode :: rest -> issue_request cfg ~now ~mode { st with pending_modes = rest }
  | [] -> (st, [])

let request_cs cfg ~now ?(mode = Types.Exclusive) st =
  if st.outstanding <> None || st.in_cs then
    ({ st with pending_modes = st.pending_modes @ [ mode ] }, [])
  else if st.sync_wait then
    (* Restarted and not yet resynchronized: park the request until
       the first announcement (or token) is absorbed, so any higher
       epoch out there reaches us before our own REQUEST goes out.
       T_retry is the escape valve if the system stays silent. *)
    ( { st with pending_modes = st.pending_modes @ [ mode ] },
      [ retry_timer cfg st ] )
  else issue_request cfg ~now ~mode st

let retry_timeout cfg ~now st =
  match st.outstanding with
  | None when st.sync_wait && st.pending_modes <> [] && not st.in_cs ->
      (* Restart resynchronization escape valve: the system stayed
         silent past a whole retry period, so stop waiting for an
         announcement and issue the parked request with the knowledge
         we have. Amnesia (if any) stays: this is a timeout, not fresh
         knowledge. *)
      issue_pending cfg ~now { st with sync_wait = false }
  | Some seq
    when st.arbiter <> st.me && (not st.in_cs) && st.retries_left <> 0 ->
      let retries_left =
        if st.retries_left > 0 then st.retries_left - 1 else st.retries_left
      in
      ( { st with retries_left },
        [ Send (st.arbiter, Request (own_entry st seq));
          retry_timer cfg st;
          Note Retransmitted ] )
  | _ -> (st, [])

(* Fresh current-election knowledge arrived (a live NEW-ARBITER or the
   token itself): the restart resynchronization is over. Clears both
   gates and surfaces a parked application request, now addressed to
   the arbiter we just learned of. *)
let end_resync cfg ~now st =
  if not (st.amnesiac || st.sync_wait) then (st, [])
  else
    let was_waiting = st.sync_wait in
    let st = { st with amnesiac = false; sync_wait = false } in
    if was_waiting && st.outstanding = None && not st.in_cs then
      issue_pending cfg ~now st
    else (st, [])
