(* Section 4.1, the starvation-free extension: requests resubmitted to
   the monitor, and the token's detour through it, where the parked
   requests join the Q-list and the monitor announces instead of the
   dispatching arbiter. *)

open Types
open Proto_state
open Proto_requester
open Proto_arbiter
open Proto_token
open Proto_election

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

let receive_monitor_privilege cfg ~now st token =
  receive_token st token @@ fun st token ->
  let q =
    Qlist.enqueue_all (Qlist.prune token.granted st.monitor_buffer) token.tq
  in
  let st = { st with monitor_buffer = [] } in
  match q with
  | [] ->
      (* Every scheduled request turned out served: the monitor
         becomes the arbiter itself and restarts collection. *)
      let st', effs = become_collecting cfg ~now st [] { token with tq = [] } in
      (st', Note Became_arbiter :: effs)
  | _ ->
      let prev_announced = st.arbiter in
      let tail = tail_of q ~default:st.me in
      let st =
        { st with
          arbiter = tail;
          prev_arbiter = keep_prev cfg st st.me;
          na_counter = 0;
          last_q = keep_last_q cfg q;
          monitor =
            (if cfg.Config.rotate_monitor then (st.me + 1) mod cfg.Config.n
             else st.me);
          observed_q_len = List.length q;
          qsizes = observe_qsize cfg st q }
      in
      let token = { token with tq = q } in
      let announce_effs, handover =
        announce cfg st ~prev_announced ~q ~counter:0 ~token
      in
      let st, effs =
        if tail = st.me then
          launch_token cfg ~now { st with role = Await_token [] } token
        else launch_token cfg ~now ?handover st token
      in
      (* The monitor observes the Q-list it just announced: its own
         broadcast is not delivered back to it. *)
      let st, effs' = observe_qlist cfg st q in
      (st, announce_effs @ effs @ effs')
