(* One real lock-service node over TCP. Start N of these (one per peer
   in the shared peer list) and they form a distributed-mutex cluster
   running the paper's algorithm — one independent protocol instance
   per --locks key, multiplexed over the node's single transport;
   --demo makes the node repeatedly acquire every lock and print while
   holding it.

   Example (three shells):
     dmutexd --id 0 --peers 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803 --demo
     dmutexd --id 1 --peers 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803 --demo
     dmutexd --id 2 --peers 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803 --demo

   With --state-dir the node persists each lock's protocol-critical
   state (epoch, counters, token custody) in its own subdirectory, and
   a later start from the same directory is a durable restart:
   counters come back, custody is honoured (a dead custodian triggers
   the Section 6 invalidation), and the node never regenerates a token
   from amnesia. SIGTERM/SIGINT flush the stores before exiting. *)

open Cmdliner
module Node = Netkit.Node_runner.Make (Dmutex.Resilient) (Wire.Protocol_codec)
module Session = Netkit.Session.Make (Dmutex.Resilient) (Wire.Protocol_codec)

let parse_endpoint s =
  match String.split_on_char ':' s with
  | [ host; port ] -> (
      match int_of_string_opt port with
      | Some port -> Ok { Netkit.Transport.host; port }
      | None -> Error (`Msg (Printf.sprintf "bad port in %S" s)))
  | _ -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s))

let endpoint_conv =
  Arg.conv
    ( parse_endpoint,
      fun ppf e -> Netkit.Transport.pp_endpoint ppf e )

let id_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "id" ] ~doc:"This node's index into the peer list.")

let peers_arg =
  Arg.(
    required
    & opt (some (list endpoint_conv)) None
    & info [ "peers" ] ~doc:"Comma-separated HOST:PORT list, one per node.")

let locks_arg =
  Arg.(
    value
    & opt (list string) [ Node.default_lock ]
    & info [ "locks" ]
        ~doc:
          "Comma-separated lock keys this cluster serves. Every node \
           must be started with the same list; each key runs its own \
           independent protocol instance over the shared connections."
        ~docv:"KEY,...")

let demo_arg =
  Arg.(
    value & flag
    & info [ "demo" ]
        ~doc:
          "Repeatedly acquire each lock (one worker per key), print, \
           hold 200 ms, release.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let metrics_every_arg =
  Arg.(
    value & opt float 0.0
    & info [ "metrics-every" ]
        ~doc:
          "Print transport metrics (sent/delivered/dropped/retries/\
           reconnects/queue depth) and protocol note counters every \
           $(docv) seconds. 0 disables." ~docv:"SEC")

(* A probability, or a usage error naming the flag: 1.5 would drop
   every frame and nan none, both silently. *)
let probability_conv =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok p when p >= 0.0 && p <= 1.0 -> Ok p
    | Ok _ ->
        Error (`Msg (Printf.sprintf "expected a probability in [0, 1], got %s" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_float)

let loss_arg =
  Arg.(
    value & opt probability_conv 0.0
    & info [ "loss" ]
        ~doc:
          "Chaos: drop each outgoing frame with this probability \
           before it reaches the socket. $(docv) must lie in [0, 1]."
        ~docv:"P")

let heartbeat_arg =
  Arg.(
    value & opt float 0.5
    & info [ "heartbeat" ]
        ~doc:
          "Transport heartbeat period in seconds; peers silent for \
           longer than four periods are reported suspect. 0 disables \
           the liveness monitor." ~docv:"SEC")

let metrics_addr_arg =
  Arg.(
    value
    & opt (some endpoint_conv) None
    & info [ "metrics-addr" ]
        ~doc:
          "Serve this node's metrics registry as a Prometheus text \
           endpoint (format 0.0.4) on $(docv). Any HTTP request path \
           returns the full exposition." ~docv:"HOST:PORT")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-file" ]
        ~doc:
          "Record structured trace events (CS enter/exit, recovery \
           milestones, liveness suspicions) into an in-memory ring and \
           flush them to $(docv) as JSONL on exit — including signal- \
           driven shutdown." ~docv:"PATH")

let join_arg =
  Arg.(
    value
    & opt (some endpoint_conv) None
    & info [ "join" ]
        ~doc:
          "Join a running cluster as a brand-new member: knock at this \
           seed member's HOST:PORT (which must be another entry of \
           --peers) with JOIN-REQUEST until a view commit admits the \
           node. --peers lists the current members' addresses plus \
           this node's own listen address at index --id. Durable state \
           in --state-dir takes precedence: a restart rejoins the view \
           it last committed instead of knocking anew." ~docv:"HOST:PORT")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ]
        ~doc:
          "Directory for the durable protocol stores (created if \
           missing; one lock-KEY subdirectory per lock). Every \
           protocol step is made durable before its effects apply; \
           starting again from the same directory is a crash-restart \
           with memory. Without it a restart is amnesiac: the node \
           rejoins but refuses to regenerate tokens until \
           resynchronized." ~docv:"DIR")

let client_addr_arg =
  Arg.(
    value
    & opt (some endpoint_conv) None
    & info [ "client-addr" ]
        ~doc:
          "Serve thin clients on this HOST:PORT (port 0 picks an \
           ephemeral port, logged at startup). Clients speak the \
           session wire protocol — hello / open-session / acquire / \
           release / renew — and this node holds the protocol token \
           on their behalf; every grant carries a fencing token. \
           Without this flag the node serves no clients." ~docv:"HOST:PORT")

let lease_ms_arg =
  Arg.(
    value
    & opt int 5_000
    & info [ "lease-ms" ]
        ~doc:
          "Client session lease in milliseconds. A session whose \
           client stops renewing for this long is expired: its grants \
           are released, queued requests cancelled, and a reconnecting \
           client is told the session is lost. Only meaningful with \
           --client-addr." ~docv:"MS")

let print_metrics node id =
  let m = Node.metrics node in
  let notes = Node.notes node in
  let suspects = Node.suspected node in
  Printf.printf "node %d: %s%s%s\n%!" id
    (Format.asprintf "%a" Netkit.Transport.pp_metrics m)
    (match suspects with
    | [] -> ""
    | l ->
        " suspects=[" ^ String.concat "," (List.map string_of_int l) ^ "]")
    (match notes with
    | [] -> ""
    | l ->
        " notes={"
        ^ String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) l)
        ^ "}")

let print_store_stats node id =
  List.iter
    (fun lock ->
      match Node.store_stats ~lock node with
      | None -> ()
      | Some s ->
          Printf.printf
            "node %d: lock %s: store wal-records=%d wal-bytes=%d snapshots=%d \
             replayed=%d last-flush=%s\n\
             %!"
            id lock s.Dmutex_store.Store.wal_records
            s.Dmutex_store.Store.wal_bytes s.Dmutex_store.Store.snapshots
            s.Dmutex_store.Store.replayed
            (if s.Dmutex_store.Store.last_flush = 0.0 then "never"
             else
               Printf.sprintf "%.1fs ago"
                 (Unix.gettimeofday () -. s.Dmutex_store.Store.last_flush)))
    (Node.locks node)

(* Minimal single-threaded HTTP responder. [/wfg] answers with the
   current cross-lock wait-for graph as JSON; every other path gets
   the Prometheus exposition. Enough for a scrape target and a
   deadlock spot-check; not a web server. *)
let serve_metrics (ep : Netkit.Transport.endpoint) reg ~wfg =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string ep.Netkit.Transport.host, ep.port));
  Unix.listen sock 8;
  ignore
    (Thread.create
       (fun () ->
         while true do
           match Unix.accept sock with
           | exception Unix.Unix_error _ -> Thread.delay 0.1
           | fd, _ ->
               (try
                  let buf = Bytes.create 4096 in
                  let n = try Unix.read fd buf 0 4096 with _ -> 0 in
                  let path =
                    match
                      String.split_on_char ' '
                        (Bytes.sub_string buf 0 (max 0 n))
                    with
                    | _meth :: p :: _ -> p
                    | _ -> "/"
                  in
                  let body, ctype =
                    if path = "/wfg" then (wfg (), "application/json")
                    else
                      ( Dmutex_obs.Registry.expose
                          (Dmutex_obs.Registry.snapshot reg),
                        "text/plain; version=0.0.4" )
                  in
                  let resp =
                    Printf.sprintf
                      "HTTP/1.1 200 OK\r\n\
                       Content-Type: %s\r\n\
                       Content-Length: %d\r\n\
                       Connection: close\r\n\
                       \r\n\
                       %s"
                      ctype (String.length body) body
                  in
                  ignore
                    (Unix.write_substring fd resp 0 (String.length resp))
                with _ -> ());
               (try Unix.close fd with _ -> ())
         done)
       ())

let run id peers locks demo verbose metrics_every loss heartbeat metrics_addr
    trace_file join state_dir client_addr lease_ms =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
  let peers = Array.of_list peers in
  let n = Array.length peers in
  if id < 0 || id >= n then (
    prerr_endline "--id out of range of --peers";
    exit 1);
  (* Reject a malformed lock list here, with the flag named, rather
     than letting the node constructor's Invalid_argument escape as a
     backtrace: each key is one protocol instance, and a duplicate
     would silently alias two instances onto one. *)
  if locks = [] then (
    prerr_endline "--locks: at least one lock key is required";
    exit 1);
  (let rec first_dup = function
     | [] -> None
     | k :: rest -> if List.mem k rest then Some k else first_dup rest
   in
   match first_dup locks with
   | Some k ->
       Printf.eprintf
         "--locks: duplicate lock key %S (each key must appear once)\n" k;
       exit 1
   | None -> ());
  let join_seed =
    match join with
    | None -> None
    | Some ep ->
        let idx = ref (-1) in
        Array.iteri
          (fun i p -> if !idx < 0 && i <> id && p = ep then idx := i)
          peers;
        if !idx < 0 then (
          prerr_endline "--join address must be another entry of --peers";
          exit 1);
        Some !idx
  in
  let cfg =
    { (Dmutex.Resilient.config ~n ()) with
      Dmutex.Types.Config.t_collect = 0.05;
      t_forward = 0.05 }
  in
  let heartbeat_period = if heartbeat > 0.0 then Some heartbeat else None in
  let obs = Dmutex_obs.Registry.create () in
  let trace =
    Option.map
      (fun path ->
        let sink = Dmutex_obs.Events.create () in
        Dmutex_obs.Events.attach_at_exit sink path;
        sink)
      trace_file
  in
  (* Durable stores: a non-empty per-lock directory means this start
     is a restart of that instance — rebuild its protocol state from
     the recovered view and let a durable token custody trigger
     recovery immediately. *)
  let per_lock =
    match state_dir with
    | None -> []
    | Some root ->
        let rec mkdir_p dir =
          if not (Sys.file_exists dir) then (
            mkdir_p (Filename.dirname dir);
            try Unix.mkdir dir 0o755
            with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
        in
        mkdir_p root;
        List.map
          (fun lock ->
            let dir = Dmutex_store.Store.lock_dir ~root lock in
            let store = Dmutex_store.Store.open_ ~dir ~key:lock ~n ~obs () in
            match Dmutex_store.Store.view store with
            | None -> (lock, (store, None, []))
            | Some view ->
                let state, inputs =
                  Dmutex_store.Protocol_view.restore cfg ~me:id (Some view)
                in
                Logs.info (fun m ->
                    m "node %d: lock %s: restarting from %s (epoch %d, \
                       custody %s)"
                      id lock dir view.Dmutex_store.Store.epoch
                      (match view.Dmutex_store.Store.custody with
                      | Dmutex_store.Store.Holding _ -> "held"
                      | Dmutex_store.Store.No_token -> "none"));
                (lock, (store, Some state, inputs)))
          locks
  in
  let store, persist =
    match per_lock with
    | [] -> (None, None)
    | _ ->
        ( Some
            (fun ~lock ->
              Option.map (fun (s, _, _) -> s) (List.assoc_opt lock per_lock)),
          Some Dmutex_store.Protocol_view.capture )
  in
  (* A joining node starts every instance outside the view, knocking
     at the seed; a durable restart wins over the knock — the node
     rejoins the view it last committed (Protocol_view.restore). *)
  let joiner_init =
    Option.map
      (fun seed ->
        let addr =
          Printf.sprintf "%s:%d" peers.(id).Netkit.Transport.host
            peers.(id).Netkit.Transport.port
        in
        fun () ->
          ( Dmutex.Resilient.joiner cfg ~me:id ~seed ~addr,
            [ Dmutex.Types.Timer_fired Dmutex.Resilient.T_view ] ))
      join_seed
  in
  let restored ~lock =
    Option.bind (List.assoc_opt lock per_lock) (fun (_, st, _) -> st)
  in
  let initial =
    match (per_lock, joiner_init) with
    | [], None -> None
    | _ ->
        Some
          (fun ~lock ->
            match restored ~lock with
            | Some st -> Some st
            | None -> Option.map (fun mk -> fst (mk ())) joiner_init)
  in
  let node =
    Node.create ?heartbeat_period
      ~suspect_timeout:(Float.max 0.5 (4.0 *. heartbeat))
      ~on_suspect:(fun peer ->
        Logs.warn (fun m -> m "node %d: peer %d suspected down" id peer))
      ~on_alive:(fun peer ->
        Logs.info (fun m -> m "node %d: peer %d alive again" id peer))
      ~locks ?initial ?store ?persist ~obs ?trace cfg ~me:id
      ~peers ()
  in
  List.iter
    (fun lock ->
      let inputs =
        match (restored ~lock, List.assoc_opt lock per_lock, joiner_init) with
        | Some _, Some (_, _, inputs), _ -> inputs
        | _, _, Some mk -> snd (mk ())
        | _, Some (_, _, inputs), None -> inputs
        | _ -> []
      in
      List.iter (Node.inject ~lock node) inputs)
    locks;
  if loss > 0.0 then Node.set_loss node loss;
  (match metrics_addr with
  | None -> ()
  | Some ep ->
      (* The /wfg handler scans every hosted lock's protocol state for
         holder/waiter edges and unions them into one wait-for graph;
         a cycle also bumps the wfg_cycles_total counter and emits a
         trace event via [Wfg.record]. *)
      let wfg_obs = Dmutex_obs.Wfg.obs obs in
      let wfg () =
        let scan =
          List.map
            (fun lock ->
              (lock, Dmutex.Protocol.wait_edges (Node.state ~lock node)))
            (Node.locks node)
        in
        let g = Dmutex_obs.Wfg.of_scan scan in
        let cycle = Dmutex_obs.Wfg.record ?trace wfg_obs g in
        let open Dmutex_obs.Json in
        to_string
          (Obj
             [
               ("node", Num (float_of_int id));
               ( "edges",
                 List
                   (List.map
                      (fun e ->
                        Obj
                          [
                            ("waiter", Num (float_of_int e.Dmutex_obs.Wfg.waiter));
                            ("holder", Num (float_of_int e.Dmutex_obs.Wfg.holder));
                            ("lock", Str e.Dmutex_obs.Wfg.lock);
                          ])
                      (Dmutex_obs.Wfg.edges g)) );
               ( "cycle",
                 match cycle with
                 | None -> Null
                 | Some c -> List (List.map (fun i -> Num (float_of_int i)) c)
               );
             ])
      in
      serve_metrics ep obs ~wfg;
      Logs.info (fun m ->
          m "node %d: metrics on http://%s:%d/metrics, wait-for graph on /wfg"
            id ep.Netkit.Transport.host ep.port));
  (* Client session service: thin clients connect here and this node
     fronts the protocol for them. Started after the node so grants
     can flow immediately; shut down before the node so in-flight
     grants drain through a live protocol engine. *)
  let session_server =
    Option.map
      (fun (addr : Netkit.Transport.endpoint) ->
        let srv =
          Session.create ~lease_ms ~obs ?trace
            ~fencing:Dmutex_store.Protocol_view.fencing_of_state ~node ~addr ()
        in
        Logs.info (fun m ->
            m "node %d: serving clients on %s:%d (lease %dms)" id addr.host
              (Session.port srv) lease_ms);
        srv)
      client_addr
  in
  if metrics_every > 0.0 then
    ignore
      (Thread.create
         (fun () ->
           while true do
             Thread.delay metrics_every;
             print_metrics node id
           done)
         ());
  (* Graceful shutdown: flush the store and report before exiting.
     Signals only set the flag — the main loop below does the work
     outside the signal handler. *)
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  Printf.printf "node %d/%d listening on %s:%d%s\n%!" id n peers.(id).host
    peers.(id).port
    (match state_dir with
    | Some dir -> Printf.sprintf " (durable: %s)" dir
    | None -> "");
  let finish () =
    (* Metrics before shutdown (a closed transport reads all-zero),
       store stats after (so the final flush is included). *)
    print_metrics node id;
    Option.iter
      (fun srv ->
        let s = Session.stats srv in
        Printf.printf
          "node %d: sessions opened=%d resumed=%d expired=%d granted=%d \
           rejected=%d stale-grants=%d\n\
           %!"
          id s.Session.opened s.Session.resumed s.Session.expired
          s.Session.granted s.Session.rejected s.Session.stale_grants;
        Session.shutdown srv)
      session_server;
    Node.shutdown node;
    print_store_stats node id;
    (match (trace, trace_file) with
    | Some sink, Some path -> Dmutex_obs.Events.flush_file sink path
    | _ -> ());
    exit 0
  in
  if demo then (
    (* One worker per lock key: independent instances should make
       independent progress, so contend on all of them at once. *)
    List.iter
      (fun lock ->
        ignore
          (Thread.create
             (fun () ->
               let rec loop k =
                 if not (Atomic.get stop) then (
                   (match
                      Node.with_lock ~timeout:30.0 ~lock node (fun () ->
                          Printf.printf "node %d holds %s (round %d)\n%!" id
                            lock k;
                          Thread.delay 0.2)
                    with
                   | Some () -> ()
                   | None ->
                       Printf.printf "node %d: lock %s timed out\n%!" id lock);
                   Thread.delay (0.1 +. Random.float 0.5);
                   loop (k + 1))
               in
               loop 1)
             ()))
      locks;
    let rec wait () =
      if Atomic.get stop then finish ();
      Thread.delay 0.2;
      wait ()
    in
    wait ())
  else
    (* Serve forever; the node participates in the protocol (forwards
       requests, relays the token) without requesting the CS. *)
    let rec idle () =
      if Atomic.get stop then finish ();
      Thread.delay 0.2;
      idle ()
    in
    idle ()

let main =
  Cmd.v
    (Cmd.info "dmutexd" ~version:"1.0.0"
       ~doc:
         "A node of the ICDCS'96 token-passing distributed mutual \
          exclusion protocol over TCP.")
    Term.(
      const run $ id_arg $ peers_arg $ locks_arg $ demo_arg $ verbose_arg
      $ metrics_every_arg $ loss_arg $ heartbeat_arg $ metrics_addr_arg
      $ trace_file_arg $ join_arg $ state_dir_arg $ client_addr_arg
      $ lease_ms_arg)

let () = exit (Cmd.eval main)
