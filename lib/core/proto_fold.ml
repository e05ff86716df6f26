(* Section 3.1: a NEW-ARBITER folded into the PRIVILEGE that carries
   the token, and the hand-off of a holder that has left the view,
   which reuses the same fold. *)

open Types
open Proto_state

(* Fold an announcement into the PRIVILEGE that carries [token],
   keeping only what the token does not already say; [unfold] is its
   inverse at the receiver. The announced arbiter is the tail of the
   token's queue, or the receiver when the queue is empty. *)
let fold (na : new_arbiter) token =
  let unless_token x tx = if x = tx then None else Some x in
  { ho_view = na.na_view;
    ho_granted = unless_token na.na_granted token.granted;
    ho_epoch = unless_token na.na_epoch token.epoch;
    ho_election = unless_token na.na_election token.election;
    ho_monitor =
      (if na.na_monitor = no_monitor then None
       else Some (na.na_monitor, na.na_counter)) }

let unfold st token ho =
  let na_monitor, na_counter =
    match ho.ho_monitor with Some mc -> mc | None -> (no_monitor, 0)
  in
  { na_arbiter = tail_of token.tq ~default:st.me;
    na_q = token.tq;
    na_granted = Option.value ho.ho_granted ~default:token.granted;
    na_counter;
    na_monitor;
    na_epoch = Option.value ho.ho_epoch ~default:token.epoch;
    na_election = Option.value ho.ho_election ~default:token.election;
    na_view = ho.ho_view }

(* The hand-off of a token holder that has left the view: the token,
   stamped with the committed view and drained of excised entries,
   goes to the head of its queue (or the lowest survivor), announcing
   the arbiter it will elect. The heir may not have the commit yet; the
   folded announcement brings it the view with the token, so it never
   holds a token newer than its view. *)
let handoff_token st tk =
  let tk =
    { tk with
      tq = List.filter (fun e -> is_member st.view e.Qlist.node) tk.tq;
      vepoch = st.view.vnum }
  in
  let heir =
    match tk.tq with
    | e :: _ -> e.Qlist.node
    | [] -> ( match member_ids st.view with h :: _ -> h | [] -> st.me)
  in
  if heir = st.me then []
  else
    let na = announcement st ~arbiter:(tail_of tk.tq ~default:heir) ~q:tk.tq in
    [ Send (heir, Privilege (tk, Some (fold na tk))) ]
