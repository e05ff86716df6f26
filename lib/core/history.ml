type entry = { holder : int; mode : Types.mode; fencing : int option }

type violation =
  | Overlap of { lock : string; entry : entry; occupant : entry }
  | Double_entry of { lock : string; entry : entry }
  | Orphan_leave of { lock : string; holder : int }
  | Regression of { lock : string; entry : entry; previous : entry }

type verdict = Admitted | Violation of violation | Fenced_off
type lock_report = { peak_shared : int; newest : int option }

type report = {
  entries : int;
  fenced_off : int;
  takeovers : int;
  violations : int;
  first : violation list;
  locks : (string * lock_report) list;
}

type lock_state = {
  mutable inside : entry list;
  mutable fenced_out : int list;
      (* holders displaced by a takeover whose [leave] is still due *)
  mutable previous : entry option;  (* the most recent fenced entry *)
  mutable peak_shared : int;
}

type t = {
  mu : Mutex.t;
  locks : (string, lock_state) Hashtbl.t;
  mutable last : (string * lock_state) option;
      (* the lock used last: the simulator's one lock skips hashing *)
  mutable entries : int;
  mutable fenced_off : int;
  mutable takeovers : int;
  mutable violations : int;
  mutable first : violation list;  (* newest first, at most [keep] *)
}

let keep = 8

let create () =
  {
    mu = Mutex.create ();
    locks = Hashtbl.create 8;
    last = None;
    entries = 0;
    fenced_off = 0;
    takeovers = 0;
    violations = 0;
    first = [];
  }

let state t lock =
  match t.last with
  | Some (l, s) when l == lock -> s
  | _ ->
      let s =
        match Hashtbl.find_opt t.locks lock with
        | Some s -> s
        | None ->
            let s =
              { inside = []; fenced_out = []; previous = None; peak_shared = 0 }
            in
            Hashtbl.add t.locks lock s;
            s
      in
      t.last <- Some (lock, s);
      s

let record t v =
  t.violations <- t.violations + 1;
  if t.violations <= keep then t.first <- v :: t.first

let both_shared a b = a.mode = Types.Shared && b.mode = Types.Shared

(* Hand-rolled rather than List.exists/filter/find_opt: the simulator
   calls these once per CS entry and exit, and closures would
   allocate on every call. *)
let rec mem holder = function
  | [] -> false
  | o :: rest -> o.holder = holder || mem holder rest

let rec without holder = function
  | [] -> []
  | o :: rest ->
      if o.holder = holder then without holder rest
      else o :: without holder rest

let rec conflict entry = function
  | [] -> None
  | o :: rest -> if both_shared entry o then conflict entry rest else Some o

(* Drop [holder]'s open entry; [true] if it had one. *)
let remove s holder =
  mem holder s.inside
  && begin
       s.inside <- without holder s.inside;
       true
     end

let admit t s entry =
  s.inside <- entry :: s.inside;
  if entry.fencing <> None then s.previous <- Some entry;
  if entry.mode = Types.Shared then begin
    let shared =
      List.fold_left
        (fun k o -> if o.mode = Types.Shared then k + 1 else k)
        0 s.inside
    in
    s.peak_shared <- max s.peak_shared shared
  end;
  t.entries <- t.entries + 1

(* A fenced entry over occupants: join their shared batch, be refused
   as stale, or fence every (older) occupant out. *)
let enter_occupied t s entry f =
  if
    List.for_all (fun o -> both_shared entry o && o.fencing = entry.fencing)
      s.inside
  then Admitted
  else if
    List.exists
      (fun o -> match o.fencing with Some g -> g >= f | None -> false)
      s.inside
  then Fenced_off
  else begin
    t.takeovers <- t.takeovers + 1;
    s.fenced_out <- List.map (fun o -> o.holder) s.inside @ s.fenced_out;
    s.inside <- [];
    Admitted
  end

let judge t s ~lock entry =
  if remove s entry.holder then Violation (Double_entry { lock; entry })
  else
    match (entry.fencing, s.inside, s.previous) with
    | None, inside, _ -> (
        match conflict entry inside with
        | Some occupant -> Violation (Overlap { lock; entry; occupant })
        | None -> Admitted)
    | Some f, _ :: _, _ -> enter_occupied t s entry f
    | Some f, [], Some ({ fencing = Some g; _ } as previous)
      when f < g || (f = g && not (both_shared entry previous)) ->
        Violation (Regression { lock; entry; previous })
    | Some _, [], _ -> Admitted

let enter ?fencing t ~lock ~holder ~mode =
  let entry = { holder; mode; fencing } in
  Mutex.lock t.mu;
  let s = state t lock in
  let verdict = judge t s ~lock entry in
  (match verdict with
  | Fenced_off -> t.fenced_off <- t.fenced_off + 1
  | Admitted -> admit t s entry
  | Violation v ->
      record t v;
      admit t s entry);
  Mutex.unlock t.mu;
  verdict

let leave t ~lock ~holder =
  Mutex.lock t.mu;
  let s = state t lock in
  (if not (remove s holder) then
     if List.mem holder s.fenced_out then
       s.fenced_out <- List.filter (( <> ) holder) s.fenced_out
     else record t (Orphan_leave { lock; holder }));
  Mutex.unlock t.mu

let crash t ~holder =
  Mutex.lock t.mu;
  Hashtbl.iter
    (fun _ s ->
      ignore (remove s holder);
      s.fenced_out <- List.filter (( <> ) holder) s.fenced_out)
    t.locks;
  Mutex.unlock t.mu

let report t =
  Mutex.lock t.mu;
  let locks =
    Hashtbl.fold
      (fun lock s acc ->
        ( lock,
          {
            peak_shared = s.peak_shared;
            newest = Option.bind s.previous (fun p -> p.fencing);
          } )
        :: acc)
      t.locks []
  in
  let r =
    {
      entries = t.entries;
      fenced_off = t.fenced_off;
      takeovers = t.takeovers;
      violations = t.violations;
      first = List.rev t.first;
      locks = List.sort compare locks;
    }
  in
  Mutex.unlock t.mu;
  r

let pp_entry ppf e =
  Format.fprintf ppf "holder %d (%s%s)" e.holder (Types.string_of_mode e.mode)
    (match e.fencing with Some f -> Printf.sprintf ", token %d" f | None -> "")

let pp_violation ppf = function
  | Overlap { lock; entry; occupant } ->
      Format.fprintf ppf "lock %s: %a entered while %a inside" lock pp_entry
        entry pp_entry occupant
  | Double_entry { lock; entry } ->
      Format.fprintf ppf "lock %s: %a entered while already inside" lock
        pp_entry entry
  | Orphan_leave { lock; holder } ->
      Format.fprintf ppf "lock %s: holder %d left without being inside" lock
        holder
  | Regression { lock; entry; previous } ->
      Format.fprintf ppf "lock %s: %a entered after %a" lock pp_entry entry
        pp_entry previous

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>history: %d entries, %d violations, %d fenced off, %d takeovers, \
     peak shared [%s]"
    r.entries r.violations r.fenced_off r.takeovers
    (String.concat " "
       (List.map
          (fun (lock, (l : lock_report)) ->
            Printf.sprintf "%s:%d" lock l.peak_shared)
          r.locks));
  List.iter
    (fun v -> Format.fprintf ppf "@,violation: %a" pp_violation v)
    r.first;
  Format.fprintf ppf "@]"
