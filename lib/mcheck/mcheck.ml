open Dmutex.Types

module Make (A : Dmutex.Types.ALGO) = struct
  type violation = {
    kind : [ `Safety | `Deadlock ];
    trace : string list;
    walk : int option;
  }

  type result = {
    states : int;
    transitions : int;
    violation : violation option;
    truncated : bool;
  }

  (* A global state. All components are kept in canonical form so that
     structural equality identifies equivalent states. Messages are
     grouped into per-(src, dst) channel queues: in FIFO mode the queue
     order is semantic; otherwise each queue is kept sorted. *)
  type gstate = {
    nodes : A.state array;
    inflight : ((int * int) * A.message list) list;
        (* sorted by channel key; message list in FIFO order *)
    timers : (int * A.timer) list;  (* armed timers *)
    budget : int array;  (* exclusive CS requests not yet injected *)
    sbudget : int array;  (* shared CS requests not yet injected *)
  }

  type transition =
    | Inject of int
    | Inject_shared of int
    | Deliver of int * int * A.message
    | Fire of int * A.timer
    | Finish of int  (* node leaves its CS *)

  let label = function
    | Inject i -> Printf.sprintf "node %d requests CS" i
    | Inject_shared i -> Printf.sprintf "node %d requests shared CS" i
    | Deliver (src, dst, m) ->
        Format.asprintf "deliver %d->%d: %a" src dst A.pp_message m
    | Fire (i, _) -> Printf.sprintf "timer fires at node %d" i
    | Finish i -> Printf.sprintf "node %d leaves CS" i

  (* Canonicalize the channel map: drop empty queues, sort by key;
     without FIFO semantics also sort within each queue. *)
  let canon_msgs ~fifo l =
    l
    |> List.filter (fun (_, q) -> q <> [])
    |> List.map (fun (k, q) -> (k, if fifo then q else List.sort compare q))
    |> List.sort compare

  let canon_timers l = List.sort_uniq compare l

  (* States are keyed by the MD5 of their marshalled image: the
     default polymorphic hash samples only a few words of these large
     records, which would degenerate the table. [No_sharing] makes the
     image a function of the value alone: with sharing, two
     structurally equal states whose heaps alias differently marshal
     differently and would be counted twice. The parent map keeps
     digests and labels only, so the visited set stays compact. *)
  let digest (g : gstate) =
    Digest.string (Marshal.to_string g [ Marshal.No_sharing ])

  let channel_add key msg l =
    let rec go = function
      | [] -> [ (key, [ msg ]) ]
      | (k, q) :: rest when k = key -> (k, q @ [ msg ]) :: rest
      | kv :: rest -> kv :: go rest
    in
    go l

  let channel_remove key msg l =
    let rec drop_first = function
      | [] -> []
      | m :: rest when m = msg -> rest
      | m :: rest -> m :: drop_first rest
    in
    List.map (fun (k, q) -> if k = key then (k, drop_first q) else (k, q)) l

  (* Apply one transition; effects are folded into the successor
     state. *)
  let apply ~fifo cfg g tr =
    let n = Array.length g.nodes in
    let nodes = Array.copy g.nodes in
    let inflight = ref g.inflight in
    let timers = ref g.timers in
    let budget = Array.copy g.budget in
    let sbudget = Array.copy g.sbudget in
    let step i input =
      let st, effs = A.handle cfg ~now:0.0 nodes.(i) input in
      nodes.(i) <- st;
      List.iter
        (fun eff ->
          match eff with
          | Send (dst, m) -> inflight := channel_add (i, dst) m !inflight
          | Broadcast m ->
              for dst = 0 to n - 1 do
                if dst <> i then inflight := channel_add (i, dst) m !inflight
              done
          | Enter_cs -> ()
          | Set_timer (k, _) ->
              timers := (i, k) :: List.filter (fun t -> t <> (i, k)) !timers
          | Cancel_timer k ->
              timers := List.filter (fun t -> t <> (i, k)) !timers
          | Note _ -> ())
        effs
    in
    (match tr with
    | Inject i ->
        budget.(i) <- budget.(i) - 1;
        step i Request_cs
    | Inject_shared i ->
        sbudget.(i) <- sbudget.(i) - 1;
        step i Request_shared_cs
    | Deliver (src, dst, m) ->
        inflight := channel_remove (src, dst) m !inflight;
        step dst (Receive (src, m))
    | Fire (i, k) ->
        timers := List.filter (fun t -> t <> (i, k)) !timers;
        step i (Timer_fired k)
    | Finish i -> step i Cs_done);
    {
      nodes;
      inflight = canon_msgs ~fifo !inflight;
      timers = canon_timers !timers;
      budget;
      sbudget;
    }

  let enabled ~fifo g =
    let n = Array.length g.nodes in
    let injects =
      List.filter_map
        (fun i -> if g.budget.(i) > 0 then Some (Inject i) else None)
        (List.init n (fun i -> i))
      @ List.filter_map
          (fun i ->
            if g.sbudget.(i) > 0 then Some (Inject_shared i) else None)
          (List.init n (fun i -> i))
    in
    let delivers =
      List.concat_map
        (fun ((src, dst), q) ->
          let candidates =
            if fifo then match q with [] -> [] | m :: _ -> [ m ]
            else List.sort_uniq compare q
          in
          List.map (fun m -> Deliver (src, dst, m)) candidates)
        g.inflight
    in
    let fires = List.map (fun (i, k) -> Fire (i, k)) g.timers in
    let finishes =
      List.filter_map
        (fun i -> if A.in_cs g.nodes.(i) then Some (Finish i) else None)
        (List.init n (fun i -> i))
    in
    injects @ delivers @ fires @ finishes

  (* Mutual exclusion, read-write flavour: concurrent holders are
     legal exactly when every one of them holds in [Shared] mode — an
     [Exclusive] holder must be alone. With no shared requests in the
     mix this degenerates to the classic "never two in CS". *)
  let unsafe g =
    let holders = List.filter A.in_cs (Array.to_list g.nodes) in
    match holders with
    | [] | [ _ ] -> false
    | holders ->
        List.exists (fun st -> A.cs_mode st = Exclusive) holders

  let wants g = Array.exists (fun st -> A.wants_cs st) g.nodes

  let run ?(max_states = 2_000_000) ?(requests_per_node = 1)
      ?(shared_per_node = 0) ?(fifo = false) ?(progress = false) cfg =
    let n = cfg.Config.n in
    let initial =
      {
        nodes = Array.init n (fun i -> A.init cfg i);
        inflight = [];
        timers = [];
        budget = Array.make n requests_per_node;
        sbudget = Array.make n shared_per_node;
      }
    in
    let visited : (string, unit) Hashtbl.t = Hashtbl.create 65536 in
    let parent : (string, string * string) Hashtbl.t =
      Hashtbl.create 65536
    in
    let queue = Queue.create () in
    let d0 = digest initial in
    Hashtbl.replace visited d0 ();
    Queue.add (initial, d0) queue;
    let transitions = ref 0 in
    let truncated = ref false in
    let violation = ref None in
    let trace_to d =
      let rec go d acc =
        match Hashtbl.find_opt parent d with
        | None -> acc
        | Some (p, lbl) -> go p (lbl :: acc)
      in
      go d []
    in
    (try
       while not (Queue.is_empty queue) do
         let g, dg = Queue.pop queue in
         let trs = enabled ~fifo g in
         if trs = [] && wants g then begin
           violation :=
             Some { kind = `Deadlock; trace = trace_to dg; walk = None };
           raise Exit
         end;
         List.iter
           (fun tr ->
             incr transitions;
             let g' = apply ~fifo cfg g tr in
             let dg' = digest g' in
             if not (Hashtbl.mem visited dg') then begin
               Hashtbl.replace visited dg' ();
               if progress && Hashtbl.length visited mod 20_000 = 0 then
                 Printf.eprintf "  ... %d states, %d in flight\n%!"
                   (Hashtbl.length visited)
                   (List.length g'.inflight);
               Hashtbl.replace parent dg' (dg, label tr);
               if unsafe g' then begin
                 violation :=
                   Some { kind = `Safety; trace = trace_to dg'; walk = None };
                 raise Exit
               end;
               if Hashtbl.length visited >= max_states then begin
                 truncated := true;
                 raise Exit
               end;
               Queue.add (g', dg') queue
             end)
           trs
       done
     with Exit -> ());
    {
      states = Hashtbl.length visited;
      transitions = !transitions;
      violation = !violation;
      truncated = !truncated;
    }

  let run_random ?(walks = 1000) ?(depth = 400) ?(seed = 1)
      ?(requests_per_node = 1) ?(shared_per_node = 0) ?(fifo = false) cfg =
    let n = cfg.Config.n in
    let initial =
      {
        nodes = Array.init n (fun i -> A.init cfg i);
        inflight = [];
        timers = [];
        budget = Array.make n requests_per_node;
        sbudget = Array.make n shared_per_node;
      }
    in
    let rng = Random.State.make [| seed |] in
    let visited : (string, unit) Hashtbl.t = Hashtbl.create 65536 in
    let transitions = ref 0 in
    let violation = ref None in
    (try
       for w = 1 to walks do
         let g = ref initial in
         let path = ref [] in
         (try
            for _ = 1 to depth do
              match enabled ~fifo !g with
              | [] ->
                  if wants !g then begin
                    violation :=
                      Some
                        { kind = `Deadlock; trace = List.rev !path;
                          walk = Some w };
                    raise Exit
                  end
                  else raise Not_found (* quiescent: walk over *)
              | trs ->
                  let tr = List.nth trs (Random.State.int rng (List.length trs)) in
                  incr transitions;
                  path := label tr :: !path;
                  g := apply ~fifo cfg !g tr;
                  Hashtbl.replace visited (digest !g) ();
                  if unsafe !g then begin
                    violation :=
                      Some
                        { kind = `Safety; trace = List.rev !path;
                          walk = Some w };
                    raise Exit
                  end
            done
          with Not_found -> ())
       done
     with Exit -> ());
    {
      states = Hashtbl.length visited;
      transitions = !transitions;
      violation = !violation;
      truncated = true (* random exploration is never exhaustive *);
    }

  let describe v =
    let kind = match v.kind with `Safety -> "Safety" | `Deadlock -> "Deadlock" in
    let where =
      match v.walk with
      | Some w -> Printf.sprintf " in random walk %d:" w
      | None -> ":"
    in
    String.concat "\n" ((kind ^ where) :: v.trace)

  let pp_result ppf r =
    match r.violation with
    | None ->
        Format.fprintf ppf "OK: %d states, %d transitions%s" r.states
          r.transitions
          (if r.truncated then " (TRUNCATED)" else "")
    | Some v ->
        Format.fprintf ppf "%s@.(%d states visited)" (describe v) r.states
end
