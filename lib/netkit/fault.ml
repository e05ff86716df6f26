type t = {
  mutex : Mutex.t;
  mutable crashed : bool array;
  mutable group_of : int array option;
}

let create () = { mutex = Mutex.create (); crashed = [||]; group_of = None }

let with_mutex t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let check_id i name =
  if i < 0 then
    invalid_arg (Printf.sprintf "Fault.%s: node id out of range" name)

(* Both tables grow on demand, so ids of nodes that join later need no
   set-up. Ids past either table read as "not crashed" and "in the
   implicit extra group". *)
let set_crashed t i v name =
  check_id i name;
  with_mutex t (fun () ->
      let len = Array.length t.crashed in
      if i >= len then begin
        let crashed = Array.make (i + 1) false in
        Array.blit t.crashed 0 crashed 0 len;
        t.crashed <- crashed
      end;
      t.crashed.(i) <- v)

let crash t i = set_crashed t i true "crash"
let recover t i = set_crashed t i false "recover"

let crashed_locked t i = i < Array.length t.crashed && t.crashed.(i)

let is_crashed t i =
  check_id i "is_crashed";
  with_mutex t (fun () -> crashed_locked t i)

let partition t groups =
  List.iter (List.iter (fun i -> check_id i "partition")) groups;
  let top = List.fold_left (List.fold_left max) (-1) groups in
  let group_of = Array.make (top + 1) (-1) in
  List.iteri (fun g members -> List.iter (fun i -> group_of.(i) <- g) members)
    groups;
  with_mutex t (fun () -> t.group_of <- Some group_of)

let heal t = with_mutex t (fun () -> t.group_of <- None)

let reachable t ~src ~dst =
  check_id src "reachable";
  check_id dst "reachable";
  with_mutex t (fun () ->
      let group i =
        match t.group_of with
        | Some g when i < Array.length g -> g.(i)
        | Some _ | None -> -1
      in
      (not (crashed_locked t src || crashed_locked t dst))
      && group src = group dst)
