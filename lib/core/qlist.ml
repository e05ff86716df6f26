type entry = {
  node : Types.node_id;
  seq : int;
  hops : int;
  mode : Types.mode;
}

let entry ?(hops = 0) ?(mode = Types.Exclusive) ~node ~seq () =
  { node; seq; hops; mode }

type t = entry list

let pp_entry ppf e =
  (* Exclusive entries print exactly as before the mode extension, so
     pre-existing logs and expect-style tests stay byte-identical. *)
  Format.fprintf ppf "%d#%d%s" e.node e.seq
    (match e.mode with Types.Shared -> "r" | Types.Exclusive -> "")

let pp ppf q =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp_entry)
    q

let mem node q = List.exists (fun e -> e.node = node) q
let head = function [] -> None | e :: _ -> Some e

let tail_node q =
  match List.rev q with [] -> None | e :: _ -> Some e.node

let enqueue e q =
  let rec place = function
    | [] -> [ e ]
    | e' :: rest when e'.node = e.node ->
        (* Keep the newer request in the earlier slot; drop the other. *)
        (if e.seq > e'.seq then e else e') :: rest
    | e' :: rest -> e' :: place rest
  in
  place q

let enqueue_all es q = List.fold_left (fun acc e -> enqueue e acc) q es

(* Both sort policies are the same machine: a stable sort on a
   per-entry urgency key, higher first — FCFS is the tie-break. *)
let sort_by_urgency key q =
  List.stable_sort (fun a b -> compare (key b) (key a)) q

let sort_by_priority priorities q =
  sort_by_urgency (fun e -> priorities.(e.node)) q

let sort_writers_first q =
  sort_by_urgency
    (fun e -> match e.mode with Types.Exclusive -> 1 | Types.Shared -> 0)
    q

let compatible a b =
  match (a.mode, b.mode) with
  | Types.Shared, Types.Shared -> true
  | _ -> false

let head_batch = function
  | [] -> []
  | e :: _ when e.mode = Types.Exclusive -> [ e ]
  | e :: rest ->
      let rec readers acc = function
        | e' :: rest when compatible e e' -> readers (e' :: acc) rest
        | _ -> List.rev acc
      in
      e :: readers [] rest

(* The node left holding the token once [q] has been fully served.
   Normally the tail — but a trailing run of two or more compatible
   shared entries is granted as one batch whose coordinator (the run's
   FIRST entry) keeps the token while the others execute on
   READ-GRANTs, so the token never physically reaches the tail. A
   NEW-ARBITER announcement must name this node, not the literal
   tail. *)
let final_holder q =
  match List.rev q with
  | [] -> None
  | [ e ] -> Some e.node
  | last :: prev :: _ when not (compatible last prev) -> Some last.node
  | last :: rest ->
      let rec first_of_run first = function
        | e :: tl when compatible first e -> first_of_run e tl
        | _ -> first
      in
      Some (first_of_run last rest).node

module Granted = struct
  type g = int array

  let create n = Array.make n (-1)

  (* Dynamic membership means node ids beyond the birth cluster size
     appear in entries; every accessor treats a missing slot as -1
     (never granted) and every writer grows the vector as needed.
     Vectors only grow — ids are never renumbered. *)
  let get g i = if i < Array.length g then g.(i) else -1

  let ensure g n =
    let len = Array.length g in
    if n <= len then g else Array.append g (Array.make (n - len) (-1))

  let already_served g e = get g e.node >= e.seq

  let mark g e =
    let g' =
      if e.node < Array.length g then Array.copy g else ensure g (e.node + 1)
    in
    g'.(e.node) <- max g'.(e.node) e.seq;
    g'

  let mark_all g es = List.fold_left mark g es

  let merge a b =
    let n = max (Array.length a) (Array.length b) in
    Array.init n (fun i -> max (get a i) (get b i))

  (* Total grants recorded: each served slot counts seq+1 (sequence
     numbers start at 0). Strictly monotone under [mark], which is
     what makes it the minor half of a fencing token; a whole shared
     batch is marked at once, so fencing advances once per grant
     batch. *)
  let total g =
    Array.fold_left (fun acc s -> if s >= 0 then acc + s + 1 else acc) 0 g

  let pp ppf g =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         Format.pp_print_int)
      (Array.to_list g)
end

let sort_least_served granted q =
  List.stable_sort
    (fun a b -> compare (Granted.get granted a.node) (Granted.get granted b.node))
    q

let prune g q = List.filter (fun e -> not (Granted.already_served g e)) q
