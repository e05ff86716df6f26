let src_log = Logs.Src.create "netkit.cluster" ~doc:"in-process TCP cluster"

module Log = (val Logs.src_log src_log)

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) =
struct
  module Node = Node_runner.Make (A) (C)

  type selector =
    states:(int -> lock:string -> A.state) ->
    locks:string list ->
    live:(int -> bool) ->
    int option

  type chaos_event =
    | Fault of Dmutex.Types.fault
    | Crash_where of string * selector
    | Restart_where of { label : string; select : selector; after : float }

  type chaos_schedule = (float * chaos_event) list

  type t = {
    (* [nodes], [live], [peers] and [obs] grow in lock-step as members
       join ({!add_node}); slots are never removed — an excised node's
       slot stays (dead) so ids remain stable. Guarded by
       [restart_mu] for growth; readers take benign-stale snapshots. *)
    mutable nodes : Node.t array;
    mutable live : bool array;
    fault : Fault.t;
    cfg : Dmutex.Types.Config.t;
    mutable peers : Transport.endpoint array;
    base_port : int;  (** the probed base actually bound. *)
    seed : int;
    locks : string list;
    heartbeat_period : float option;
    suspect_timeout : float;
    state_root : string option;
    mutable loss : float;
        (* every transport's loss probability; a node started later
           (restart, add_node) inherits it *)
    (* One registry per node slot, owned by the cluster and handed to
       every incarnation of that node: counters survive kill-and-
       restart drills, so a run report covers the whole run. *)
    mutable obs : Dmutex_obs.Registry.t array;
    trace : Dmutex_obs.Events.sink option;
    persist : (A.state -> Dmutex_store.Store.view) option;
    restore :
      me:int ->
      Dmutex_store.Store.view option ->
      A.state * (A.message, A.timer) Dmutex.Types.input list;
    mutable chaos_thread : Thread.t option;
    chaos_log : (float * string) list ref;
    chaos_mu : Mutex.t;
    restart_mu : Mutex.t;
    mutable stopping : bool;
  }

  let endpoints ~base_port n =
    Array.init n (fun i ->
        { Transport.host = "127.0.0.1"; port = base_port + i })

  let state_dir root i = Filename.concat root (Printf.sprintf "node-%d" i)

  (* Per-lock store opener for node [i]: each instance recovers from
     (and appends to) its own key-stamped subdirectory. *)
  let open_stores ~root ~n ~obs i ~lock =
    (try Unix.mkdir (state_dir root i) 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Some
      (Dmutex_store.Store.open_
         ~dir:(Dmutex_store.Store.lock_dir ~root:(state_dir root i) lock)
         ~key:lock ~n ~obs ())

  let try_launch cfg ~base_port ~seed ~locks ~heartbeat_period
      ~suspect_timeout ~state_root ~obs ~trace ~persist ~restore =
    let n = cfg.Dmutex.Types.Config.n in
    let peers = endpoints ~base_port n in
    let fault = Fault.create () in
    (match state_root with
    | Some root -> (
        try Unix.mkdir root 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    | None -> ());
    let restore =
      match restore with
      | Some f -> f
      | None ->
          fun ~me v ->
            ignore v;
            (A.rejoin cfg me, [])
    in
    let started = ref [] in
    try
      let nodes =
        Array.init n (fun i ->
            let store =
              Option.map
                (fun root -> open_stores ~root ~n ~obs:obs.(i) i)
                state_root
            in
            let node =
              Node.create ~fault ?heartbeat_period ~suspect_timeout
                ~seed:(seed + i) ~locks ?store ?persist ~obs:obs.(i) ?trace
                cfg ~me:i ~peers ()
            in
            started := node :: !started;
            node)
      in
      Some
        {
          nodes;
          live = Array.make n true;
          fault;
          cfg;
          peers;
          base_port;
          seed;
          locks;
          heartbeat_period;
          suspect_timeout;
          state_root;
          loss = 0.0;
          obs;
          trace;
          persist;
          restore;
          chaos_thread = None;
          chaos_log = ref [];
          chaos_mu = Mutex.create ();
          restart_mu = Mutex.create ();
          stopping = false;
        }
    with Unix.Unix_error ((EADDRINUSE | EACCES), _, _) ->
      List.iter Node.crash !started;
      None

  let launch ?(base_port = 7801) ?(seed = 0xc1a05)
      ?(locks = [ Node.default_lock ]) ?heartbeat_period
      ?(suspect_timeout = 1.0) ?state_root ?trace ?persist ?restore cfg =
    (* Validate the lock list before any node binds a port: a
       duplicate key would otherwise surface as a mid-launch
       [Node.create] failure after some nodes already started. *)
    if locks = [] then invalid_arg "Cluster.launch: empty lock list";
    (let seen = Hashtbl.create (List.length locks) in
     List.iter
       (fun l ->
         if Hashtbl.mem seen l then
           invalid_arg
             (Printf.sprintf
                "Cluster.launch: duplicate lock name %S (each lock key names \
                 one protocol instance; listing it twice would silently \
                 shadow the first)"
                l);
         Hashtbl.add seen l ())
       locks);
    let obs =
      Array.init cfg.Dmutex.Types.Config.n (fun _ ->
          Dmutex_obs.Registry.create ())
    in
    (* Ports may be taken by a previous run still in TIME_WAIT; probe a
       few bases before giving up. *)
    let rec attempt k =
      if k >= 20 then failwith "Cluster.launch: no free port range"
      else
        match
          try_launch cfg
            ~base_port:(base_port + (k * 100))
            ~seed ~locks ~heartbeat_period ~suspect_timeout ~state_root ~obs
            ~trace ~persist ~restore
        with
        | Some t -> t
        | None -> attempt (k + 1)
    in
    attempt 0

  let node t i = t.nodes.(i)
  let n t = Array.length t.nodes
  let locks t = t.locks

  let with_locks ?timeout ?retries ~locks t i f =
    Node.with_locks ?timeout ?retries ~locks t.nodes.(i) f
  let fault t = t.fault

  let crash t i =
    if t.live.(i) then begin
      t.live.(i) <- false;
      (* Crash-style: the store is closed without a final snapshot
         fold, leaving exactly what explicit fsyncs made durable. *)
      Node.crash t.nodes.(i)
    end

  (* Bring node [i] back: reopen its per-lock state directories,
     rebuild each instance's protocol state through the [restore]
     hook, bind the same endpoint again (retrying while the old
     sockets drain), and feed the restore inputs (e.g. a
     self-addressed WARNING for a dead token custodian) through the
     fresh node, per lock. *)
  let restart t i =
    Mutex.lock t.restart_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.restart_mu)
      (fun () ->
        if t.live.(i) then crash t i;
        Fault.recover t.fault i;
        (* Stores are always opened with the birth-cluster size: the
           recorded [n] is a layout invariant, not the current member
           count (growth past it is recorded by the view itself). *)
        let n = t.cfg.Dmutex.Types.Config.n in
        let per_lock =
          List.map
            (fun key ->
              let store =
                match t.state_root with
                | None -> None
                | Some root -> open_stores ~root ~n ~obs:t.obs.(i) i ~lock:key
              in
              let view =
                Option.join (Option.map Dmutex_store.Store.view store)
              in
              let initial, inputs = t.restore ~me:i view in
              (key, (store, initial, inputs)))
            t.locks
        in
        let find key = List.assoc key per_lock in
        let rec bind attempts =
          match
            Node.create ~fault:t.fault ?heartbeat_period:t.heartbeat_period
              ~suspect_timeout:t.suspect_timeout ~seed:(t.seed + i)
              ~locks:t.locks
              ~initial:(fun ~lock ->
                let _, st, _ = find lock in
                Some st)
              ~store:(fun ~lock ->
                let s, _, _ = find lock in
                s)
              ?persist:t.persist ~obs:t.obs.(i) ?trace:t.trace t.cfg ~me:i
              ~peers:t.peers ()
          with
          | node -> node
          | exception Unix.Unix_error ((EADDRINUSE | EACCES), _, _)
            when attempts < 40 ->
              Thread.delay 0.05;
              bind (attempts + 1)
        in
        let node = bind 0 in
        Node.set_loss node t.loss;
        t.nodes.(i) <- node;
        t.live.(i) <- true;
        List.iter
          (fun (key, (_, _, inputs)) ->
            List.iter (Node.inject ~lock:key node) inputs)
          per_lock)

  (* Admit a brand-new node: allocate the next id and endpoint, start
     its runner with per-lock states from [init] (normally
     [Protocol.joiner], knowing only itself and a seed member), and
     feed the startup inputs (a first [T_view] kick so the knock goes
     out). Admission itself is the protocol's job — the node starts
     outside every view and re-knocks until a commit lands. Returns
     the new node's id. *)
  let add_node t ~init =
    Mutex.lock t.restart_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.restart_mu)
      (fun () ->
        let i = Array.length t.nodes in
        let reg = Dmutex_obs.Registry.create () in
        let rec attempt k =
          if k >= 5 then failwith "Cluster.add_node: no free port"
          else
            let port = t.base_port + i + (k * 1000) in
            let ep = { Transport.host = "127.0.0.1"; port } in
            let peers = Array.append t.peers [| ep |] in
            let addr = Printf.sprintf "127.0.0.1:%d" port in
            let per_lock =
              List.map (fun key -> (key, init ~me:i ~addr ~lock:key)) t.locks
            in
            let store =
              Option.map
                (fun root ->
                  open_stores ~root ~n:t.cfg.Dmutex.Types.Config.n ~obs:reg i)
                t.state_root
            in
            match
              Node.create ~fault:t.fault ?heartbeat_period:t.heartbeat_period
                ~suspect_timeout:t.suspect_timeout ~seed:(t.seed + i)
                ~locks:t.locks
                ~initial:(fun ~lock -> Some (fst (List.assoc lock per_lock)))
                ?store ?persist:t.persist ~obs:reg ?trace:t.trace t.cfg ~me:i
                ~peers ()
            with
            | node ->
                Node.set_loss node t.loss;
                t.nodes <- Array.append t.nodes [| node |];
                t.live <- Array.append t.live [| true |];
                t.peers <- peers;
                t.obs <- Array.append t.obs [| reg |];
                List.iter
                  (fun (key, (_, inputs)) ->
                    List.iter (Node.inject ~lock:key node) inputs)
                  per_lock;
                Log.info (fun m ->
                    m "add_node: node %d joining at %s" i addr);
                i
            | exception Unix.Unix_error ((EADDRINUSE | EACCES), _, _) ->
                attempt (k + 1)
        in
        attempt 0)

  (* Ask the cluster to excise node [i]: [leave ~lock] builds the
     protocol input announcing the departure (for {!Dmutex.Protocol},
     [Receive (i, Leave_request i)]) and is injected into [i] itself,
     which relays toward the token-holding arbiter. The node keeps
     running until the commit excises it; call {!retire} afterwards to
     stop its process. *)
  let remove_node t i ~leave =
    if i < 0 || i >= Array.length t.nodes then
      invalid_arg "Cluster.remove_node: no such node";
    List.iter
      (fun key -> Node.inject ~lock:key t.nodes.(i) (leave ~lock:key))
      t.locks

  (* Stop an excised node's process for good (graceful store close);
     its slot stays dead. *)
  let retire t i =
    if i >= 0 && i < Array.length t.nodes && t.live.(i) then begin
      t.live.(i) <- false;
      Node.shutdown t.nodes.(i)
    end

  let log_chaos t at msg =
    Mutex.lock t.chaos_mu;
    t.chaos_log := (at, msg) :: !(t.chaos_log);
    Mutex.unlock t.chaos_mu;
    Log.info (fun m -> m "chaos @ %.2fs: %s" at msg)

  let chaos_log t =
    Mutex.lock t.chaos_mu;
    let l = List.rev !(t.chaos_log) in
    Mutex.unlock t.chaos_mu;
    l

  (* Interruptible wall-clock sleep used by the schedule runner. *)
  let rec sleep_until t deadline =
    let now = Unix.gettimeofday () in
    if now < deadline && not t.stopping then begin
      Thread.delay (Float.min 0.05 (deadline -. now));
      sleep_until t deadline
    end

  let alive t i = t.live.(i) && not (Fault.is_crashed t.fault i)

  (* Resolve a role-targeted crash: poll the live protocol states
     until the selector names a victim (roles move with the token, so
     the schedule cannot know ids in advance). *)
  let run_crash_where t at label select =
    let give_up = Unix.gettimeofday () +. 10.0 in
    let rec poll () =
      if t.stopping then ()
      else
        match
          select
            ~states:(fun i ~lock -> Node.state ~lock t.nodes.(i))
            ~locks:t.locks ~live:(alive t)
        with
        | Some i when alive t i ->
            Fault.crash t.fault i;
            log_chaos t at (Printf.sprintf "crash[%s] -> node %d" label i)
        | Some _ | None ->
            if Unix.gettimeofday () < give_up then begin
              Thread.delay 0.02;
              poll ()
            end
            else
              log_chaos t at
                (Printf.sprintf "crash[%s] -> no victim within 10s" label)
    in
    poll ()

  (* Tear node [i] down for real, wait out the outage, bring it back
     from its state directory. Blocks the schedule thread for [after]
     seconds — chaos events are deliberately sequential. *)
  let run_restart t at label i after =
    crash t i;
    log_chaos t at (Printf.sprintf "restart[%s]: node %d down" label i);
    sleep_until t (Unix.gettimeofday () +. Float.max 0.0 after);
    if not t.stopping then begin
      restart t i;
      log_chaos t at (Printf.sprintf "restart[%s]: node %d back up" label i)
    end

  (* Role-targeted restart: same victim polling as [run_crash_where]. *)
  let run_restart_where t at label select after =
    let give_up = Unix.gettimeofday () +. 10.0 in
    let rec poll () =
      if t.stopping then ()
      else
        match
          select
            ~states:(fun i ~lock -> Node.state ~lock t.nodes.(i))
            ~locks:t.locks ~live:(alive t)
        with
        | Some i when alive t i -> run_restart t at label i after
        | Some _ | None ->
            if Unix.gettimeofday () < give_up then begin
              Thread.delay 0.02;
              poll ()
            end
            else
              log_chaos t at
                (Printf.sprintf "restart[%s] -> no victim within 10s" label)
    in
    poll ()

  (* Under [restart_mu], so a node restarted or added concurrently
     either sees the new probability or is reached by the sweep. *)
  let set_loss t p =
    Mutex.lock t.restart_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.restart_mu)
      (fun () ->
        t.loss <- p;
        Array.iteri
          (fun i node -> if t.live.(i) then Node.set_loss node p)
          t.nodes)

  let run_fault t at (f : Dmutex.Types.fault) =
    let log () =
      log_chaos t at (Format.asprintf "%a" Dmutex.Types.pp_fault f)
    in
    match f with
    | Crash i ->
        Fault.crash t.fault i;
        log ()
    | Restart { node; after } -> run_restart t at "node" node after
    | Loss p ->
        set_loss t p;
        log ()
    | Partition groups ->
        Fault.partition t.fault groups;
        log ()
    | Heal ->
        Fault.heal t.fault;
        log ()

  let run_schedule t schedule =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (at, ev) ->
        sleep_until t (t0 +. at);
        if not t.stopping then
          match ev with
          | Fault f -> run_fault t at f
          | Crash_where (label, select) -> run_crash_where t at label select
          | Restart_where { label; select; after } ->
              run_restart_where t at label select after)
      schedule

  (* Bad entries fail here, on the caller's thread, not mid-schedule. *)
  let validate_schedule t schedule =
    let check_node i =
      if i < 0 || i >= Array.length t.nodes then
        invalid_arg "Cluster.chaos: node out of range"
    in
    List.iter
      (fun (_, ev) ->
        match ev with
        | Fault (Crash node | Restart { node; _ }) -> check_node node
        | Fault (Loss p) -> Dmutex.Types.check_loss "Cluster.chaos" p
        | Fault (Partition groups) ->
            if List.exists (List.exists (fun i -> i < 0)) groups then
              invalid_arg "Cluster.chaos: negative partition member"
        | Fault Heal | Crash_where _ | Restart_where _ -> ())
      schedule

  let chaos t schedule =
    (match t.chaos_thread with
    | Some _ -> invalid_arg "Cluster.chaos: a schedule is already running"
    | None -> ());
    validate_schedule t schedule;
    let schedule =
      List.sort (fun (a, _) (b, _) -> Float.compare a b) schedule
    in
    t.chaos_thread <- Some (Thread.create (run_schedule t) schedule)

  let wait_chaos t =
    match t.chaos_thread with
    | None -> ()
    | Some th ->
        Thread.join th;
        t.chaos_thread <- None

  let metrics t =
    Array.fold_left
      (fun acc node ->
        let m = Node.metrics node in
        {
          Transport.sent = acc.Transport.sent + m.Transport.sent;
          delivered = acc.Transport.delivered + m.Transport.delivered;
          dropped = acc.Transport.dropped + m.Transport.dropped;
          retries = acc.Transport.retries + m.Transport.retries;
          reconnects = acc.Transport.reconnects + m.Transport.reconnects;
          flushes = acc.Transport.flushes + m.Transport.flushes;
          queue_depth = acc.Transport.queue_depth + m.Transport.queue_depth;
        })
      {
        Transport.sent = 0;
        delivered = 0;
        dropped = 0;
        retries = 0;
        reconnects = 0;
        flushes = 0;
        queue_depth = 0;
      }
      t.nodes

  let notes t =
    let merged = Hashtbl.create 16 in
    Array.iter
      (fun node ->
        List.iter
          (fun (name, k) ->
            Hashtbl.replace merged name
              (k + Option.value ~default:0 (Hashtbl.find_opt merged name)))
          (Node.notes node))
      t.nodes;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])

  let note_count t name =
    Array.fold_left (fun acc node -> acc + Node.note_count node name) 0 t.nodes

  let registries t = t.obs

  let obs_snapshot t =
    Dmutex_obs.Registry.merge
      (Array.to_list (Array.map Dmutex_obs.Registry.snapshot t.obs))

  let obs_report ?lock t = Dmutex_obs.Report.derive ?lock (obs_snapshot t)
  let obs_report_by_lock t = Dmutex_obs.Report.by_lock (obs_snapshot t)

  let shutdown t =
    t.stopping <- true;
    wait_chaos t;
    (* Graceful: flush every surviving store so the directories are
       left with a folded snapshot. *)
    Array.iteri
      (fun i node ->
        if t.live.(i) then begin
          t.live.(i) <- false;
          Node.shutdown node
        end)
      t.nodes
end
