(* Membership: the join and leave choreography. The token-holding
   arbiter coordinates a view change: it proposes the view, commits
   once a majority of the old view acked, and re-sends the commit
   until a majority of the new view did. *)

open Types
open Proto_state
open Proto_view

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
      | Some tk ->
          tail_of (drained_queue st v ~granted:st.granted_known tk)
            ~default:fallback
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
    send_all recipients msg
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
    ( { st with pending_vc = Some pv },
      send_all (peers st) (vc_msg st ~view:v ~commit:false)
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
        ( st,
          send_all silent (vc_msg st ~view:pv.pv_view ~commit)
          @ [ Set_timer (T_view, cfg.Config.enquiry_timeout) ] )
    | None ->
        (* Idle refresh: re-surface the current view to the runtime
           (used after a restart to re-point gauges and transports). *)
        (st, [ note_view st.view ])
