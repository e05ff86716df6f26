(* The Banerjee-Chrysanthis arbiter/Q-list token protocol (ICDCS'96),
   as one pure state machine. Config flags select the paper's variants:
   [monitor] enables the Section 4.1 starvation-free extension,
   [priorities] the Section 5.2 prioritized access, [recovery] the
   Section 6 failure handling. The exported modules [Basic],
   [Monitored], [Resilient] and [Prioritized] in this library are thin
   specializations of this module.

   The protocol is split along the paper's sections, one private
   module each, every one opening only the ones before it:
   [Proto_state] (types, initial states, shared helpers); Section 2 in
   [Proto_requester], [Proto_arbiter], [Proto_token] and
   [Proto_election], with the Section 3.1 fold ([Proto_fold]) and view
   adoption ([Proto_view]) placed where they first serve; then the
   extensions [Proto_monitor] (4.1), [Proto_batch] (shared grants),
   [Proto_recovery] (6) and [Proto_membership] (join and leave). This
   module routes each input to its section, behind the membership
   gate. *)

include Proto_state
open Types
open Proto_requester
open Proto_fold
open Proto_arbiter
open Proto_token
open Proto_election
open Proto_monitor
open Proto_batch
open Proto_recovery
open Proto_membership

(* ------------------------------------------------------------------ *)
(* Main entry point                                                    *)

let handle_inner cfg ~now st (input : (message, timer) input) :
    state * (message, timer) effect_ list =
  match input with
  | Request_cs -> request_cs cfg ~now ~mode:Types.Exclusive st
  | Request_shared_cs -> request_cs cfg ~now ~mode:Types.Shared st
  | Cs_done -> cs_done cfg ~now st
  | Timer_fired (T_token | T_watch | T_probe)
  | Receive (_, (Warning | Probe_ack))
    when not cfg.Config.recovery ->
      (st, [])
  | Timer_fired T_dispatch -> dispatch cfg ~now st
  | Timer_fired T_rbatch -> rbatch_timeout cfg ~now st
  | Timer_fired T_forward_end -> (
      match st.role with
      | Forwarding _ ->
          ( { st with role = Normal },
            [ Note (Phase ("forwarding", cfg.Config.t_forward)) ] )
      | _ -> (st, []))
  | Timer_fired T_stash -> stash_timeout st
  | Timer_fired T_retry -> retry_timeout cfg ~now st
  | Timer_fired T_token -> token_timeout cfg st
  | Timer_fired T_enquiry -> finish_recovery cfg ~now st
  | Timer_fired T_watch -> watch_timeout cfg st
  | Timer_fired T_probe -> probe_timeout cfg st
  | Timer_fired T_view -> view_timer cfg st
  | Receive (_, Join_request m) -> receive_join_request cfg ~now st m
  | Receive (_, Leave_request lid) -> receive_leave_request cfg ~now st lid
  | Receive (src, View_change vc) -> receive_view_change cfg ~now st ~src vc
  | Receive (src, View_ack { va_vnum }) ->
      receive_view_ack cfg ~now st ~src ~va_vnum
  | Receive (_, Request e) -> receive_request cfg ~now st e
  | Receive (_, Monitor_request e) -> receive_monitor_request cfg ~now st e
  | Receive (_, Privilege (token, _)) ->
      receive_token st token (pass_token_on cfg ~now)
  | Receive (_, Monitor_privilege token) ->
      receive_monitor_privilege cfg ~now st token
  | Receive (src, Read_grant rg) -> receive_read_grant cfg st ~src rg
  | Receive (src, Read_done { rd_seq }) ->
      receive_read_done cfg ~now st ~src ~rd_seq
  | Receive (src, New_arbiter na) -> receive_new_arbiter cfg ~now st ~src na
  | Receive (src, Warning) -> receive_warning cfg ~now st ~src
  | Receive (src, Enquiry { round }) -> receive_enquiry cfg st ~src ~round
  | Receive (src, Enquiry_reply { round; status }) ->
      receive_enquiry_reply cfg ~now st ~src ~round ~status
  | Receive (_, Resume { round }) -> receive_resume cfg ~now st ~round
  | Receive (_, Invalidate { round }) -> receive_invalidate cfg st ~round
  | Receive (src, Probe) -> (st, [ Send (src, Probe_ack) ])
  | Receive (_, Probe_ack) -> receive_probe_ack cfg st

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
    (List.length st.pending_modes) st.misses
