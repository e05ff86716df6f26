(* Shared grant batches, the read-write extension: a reader's
   READ-GRANT, the coordinator collecting READ-DONEs, and its patience
   with silent readers. The batch itself is formed in [launch_token]
   and completed in [finish_batch]. *)

open Types
open Proto_state
open Proto_arbiter
open Proto_token

(* A READ-GRANT admits us into the CS as one reader of a shared batch.
   The coordinator holds the token; we hold only the grant. Stale or
   duplicate grants are answered with READ-DONE immediately so the
   coordinator is never stuck on a reader that has moved on. *)
let receive_read_grant cfg st ~src rg =
  if rg.rg_epoch < st.token_epoch then
    (st, [ Note (Custom "stale-read-grant") ])
  else
    let e = rg.rg_entry in
    if st.in_cs then
      (* A duplicate of the grant we are already executing: the
         READ-DONE goes out at [Cs_done]. *)
      (st, [])
    else
      match st.outstanding with
      | Some seq when seq = e.Qlist.seq && e.Qlist.node = st.me ->
          ( { st with in_cs = true; outstanding = None;
              rgrant =
                Some
                  { rg_from = src; rg_seq = seq;
                    rg_fepoch = rg.rg_epoch; rg_fminor = rg.rg_minor };
              token_epoch = max st.token_epoch rg.rg_epoch;
              executed_this_round = cfg.Config.recovery },
            [ Enter_cs; Cancel_timer T_retry; Cancel_timer T_token ] )
      | _ -> (st, [ Send (src, Read_done { rd_seq = e.Qlist.seq }) ])

let receive_read_done cfg ~now st ~src ~rd_seq =
  match st.rbatch with
  | Some b
    when List.exists
           (fun e -> e.Qlist.node = src && e.Qlist.seq = rd_seq)
           b.rb_entries ->
      let rb_await = List.filter (fun j -> j <> src) b.rb_await in
      let b = { b with rb_await } in
      let st = { st with rbatch = Some b } in
      if rb_await = [] && not st.in_cs then
        match st.token with
        | Some token -> finish_batch cfg ~now st token b
        | None -> (st, []) (* unreachable: a coordinator holds the token *)
      else (st, [])
  | _ -> (st, []) (* stale READ-DONE from an already-completed batch *)

let rbatch_timeout cfg ~now st =
  match (st.rbatch, st.token) with
  | Some b, Some token ->
      if b.rb_await = [] then
        (* A view change may have drained the await list with nothing
           left to trigger completion: do it here. *)
        if st.in_cs then (st, []) else finish_batch cfg ~now st token b
      else if cfg.Config.recovery && b.rb_tries >= 2 then begin
        (* Readers still silent after two re-grant rounds are dead
           (crash-stop is modelled when recovery is on): force the
           batch complete so a crashed reader cannot wedge the token.
           Their requests are spent either way — the batch entries are
           marked served. *)
        let st = { st with rbatch = Some { b with rb_await = [] } } in
        if st.in_cs then (st, [ Note (Custom "rbatch-forced") ])
        else
          let st, effs = finish_batch cfg ~now st token b in
          (st, Note (Custom "rbatch-forced") :: effs)
      end
      else
        let others =
          List.filter
            (fun e -> List.mem e.Qlist.node b.rb_await)
            b.rb_entries
        in
        ( { st with rbatch = Some { b with rb_tries = b.rb_tries + 1 } },
          read_grants token ~minor:b.rb_minor others
          @ [ Set_timer (T_rbatch, rbatch_delay cfg) ] )
  | _ -> (st, []) (* stale timer *)
