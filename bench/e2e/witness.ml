(* Per-lock safety witness kept by the load generator. The generator
   tells it when a holder enters (the grant is seen) and leaves (just
   before the release is sent); since a holder's interval seen here
   lies inside its real critical section, any overlap the witness
   sees is a real one. It flags a second holder beside an exclusive
   one, an exclusive holder beside anyone, and — where grants carry
   fencing tokens — a token that does not strictly increase per lock,
   except that the members of one shared batch share a token. *)

type mode = Dmutex.Types.mode = Shared | Exclusive

type lock_state = {
  mutable holders : (int * mode) list;
  mutable last_fencing : int;
  mutable last_mode : mode;
}

type t = {
  mu : Mutex.t;
  locks : lock_state array;
  mutable violations : int;
  mutable first : string list;  (** the first few violations, newest first *)
}

let create ~locks =
  {
    mu = Mutex.create ();
    locks =
      Array.init locks (fun _ ->
          { holders = []; last_fencing = min_int; last_mode = Exclusive });
    violations = 0;
    first = [];
  }

let flag t msg =
  t.violations <- t.violations + 1;
  if List.length t.first < 5 then t.first <- msg :: t.first

let string_of_mode = Dmutex.Types.string_of_mode

let enter t ~lock ~holder ~mode =
  Mutex.lock t.mu;
  let l = t.locks.(lock) in
  (match l.holders with
  | [] -> ()
  | (other, other_mode) :: _
    when mode = Exclusive || List.exists (fun (_, m) -> m = Exclusive) l.holders
    ->
      flag t
        (Printf.sprintf "lock %d: %s grant to %d while %d holds it (%s)" lock
           (string_of_mode mode) holder other (string_of_mode other_mode))
  | _ -> ());
  l.holders <- (holder, mode) :: l.holders;
  Mutex.unlock t.mu

let leave t ~lock ~holder =
  Mutex.lock t.mu;
  let l = t.locks.(lock) in
  let rec drop = function
    | [] -> []
    | (h, _) :: rest when h = holder -> rest
    | x :: rest -> x :: drop rest
  in
  l.holders <- drop l.holders;
  Mutex.unlock t.mu

let fencing t ~lock ~mode token =
  Mutex.lock t.mu;
  let l = t.locks.(lock) in
  if
    token < l.last_fencing
    || (token = l.last_fencing && not (mode = Shared && l.last_mode = Shared))
  then
    flag t
      (Printf.sprintf "lock %d: fencing %d (%s) after %d (%s)" lock token
         (string_of_mode mode) l.last_fencing (string_of_mode l.last_mode));
  l.last_fencing <- token;
  l.last_mode <- mode;
  Mutex.unlock t.mu

let violations t =
  Mutex.lock t.mu;
  let v = t.violations in
  Mutex.unlock t.mu;
  v

let first_violations t =
  Mutex.lock t.mu;
  let l = List.rev t.first in
  Mutex.unlock t.mu;
  l
