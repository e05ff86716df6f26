module Obs = Dmutex_obs

module Make
    (A : Dmutex.Types.ALGO)
    (C : Wire.CODEC with type message = A.message) =
struct
  module Node = Node_runner.Make (A) (C)
  module WC = Wire.Client

  (* Admission bound on one session's queued acquires, across locks. *)
  let max_inflight = 32

  type conn = {
    fd : Unix.file_descr;
    wmu : Mutex.t;
    mutable wopen : bool;  (** false once a write failed or we closed it. *)
  }

  type session = {
    sid : string;
    s_lease_ms : int;
    smu : Mutex.t;
    scond : Condition.t;
        (** Signalled on release, expiry and close — what a serving
            pump thread sleeps on while its client is in the CS. *)
    mutable sconn : conn option;  (** [None] while detached. *)
    mutable s_deadline : float;
        (** Lease deadline while attached; grace deadline once
            detached. The sweeper expires the session past it. *)
    mutable s_alive : bool;
    mutable s_held : (string * int) list;  (** lock -> fencing token *)
    mutable s_inflight : int;  (** queued acquires, all locks *)
  }

  type waiter = {
    w_rid : int;
    w_sess : session;
    w_mode : Dmutex.Types.mode;
        (** Shared waiters at the head of the queue are granted
            together under one node hold; exclusive ones alone. *)
    w_deadline : float;
    mutable w_pending : bool;
  }

  type lockq = {
    lq_lock : string;
    lq_mu : Mutex.t;
    lq_cond : Condition.t;  (** wakes the pump when a waiter arrives *)
    mutable lq_waiters : waiter list;  (** FIFO, head served first *)
    mutable lq_last_fencing : int;
    lq_grants : Obs.Registry.Counter.handle option;
    lq_fencing : Obs.Registry.Gauge.handle option;
    lq_depth : Obs.Registry.Gauge.handle option;
  }

  type stats = {
    opened : int;
    resumed : int;
    expired : int;
    granted : int;
    rejected : int;
    stale_grants : int;
  }

  type t = {
    node : Node.t;
    fencing : A.state -> int option;
    lease_ms : int;
    grace_ms : int;
    max_sessions : int;
    max_waiters : int;
    mu : Mutex.t;  (** registry, rng, counters *)
    sessions : (string, session) Hashtbl.t;
    locks : (string, lockq) Hashtbl.t;
    rng : Random.State.t;
    sock : Unix.file_descr;
    port : int;
    mutable stopping : bool;
    mutable accept_thread : Thread.t option;
    mutable sweep_thread : Thread.t option;
    (* plain counters under [mu]; mirrored into [obs] when present *)
    mutable n_opened : int;
    mutable n_resumed : int;
    mutable n_expired : int;
    mutable n_granted : int;
    mutable n_rejected : int;
    mutable n_stale : int;
    obs : Obs.Registry.t option;
    g_sessions : Obs.Registry.Gauge.handle option;
    c_opened : Obs.Registry.Counter.handle option;
    c_resumes : Obs.Registry.Counter.handle option;
    c_expiries : Obs.Registry.Counter.handle option;
    c_stale : Obs.Registry.Counter.handle option;
    trace : Obs.Events.sink option;
  }

  let trace t ?(severity = Obs.Events.Info) name fields =
    match t.trace with
    | None -> ()
    | Some sink -> Obs.Events.emit sink ~severity ~fields name

  let incr_counter = function
    | None -> ()
    | Some h -> Obs.Registry.Counter.incr h

  let set_gauge g v = match g with
    | None -> ()
    | Some h -> Obs.Registry.Gauge.set h v

  let now () = Unix.gettimeofday ()

  (* ---------------------------------------------------------------- *)
  (* Connection writes *)

  (* Serialized per connection; a failed or timed-out write marks the
     connection dead and closes it, which pops the reader thread out
     of its blocking read and runs the detach path. Never raises. *)
  let send_resp conn resp =
    Mutex.lock conn.wmu;
    (try
       if conn.wopen then
         Session_frame.send conn.fd (WC.encode_response resp)
     with _ ->
       conn.wopen <- false;
       (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ()));
    Mutex.unlock conn.wmu

  let close_conn conn =
    Mutex.lock conn.wmu;
    conn.wopen <- false;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ());
    Mutex.unlock conn.wmu

  (* ---------------------------------------------------------------- *)
  (* Session registry *)

  let fresh_sid t =
    let b = Buffer.create 32 in
    for _ = 0 to 3 do
      Buffer.add_string b (Printf.sprintf "%08x" (Random.State.bits t.rng))
    done;
    Buffer.contents b

  let live_sessions t =
    Hashtbl.fold (fun _ s acc -> if s.s_alive then acc + 1 else acc)
      t.sessions 0

  let reject t conn ~rid reason ~retry_after_ms =
    Mutex.lock t.mu;
    t.n_rejected <- t.n_rejected + 1;
    Mutex.unlock t.mu;
    (match t.obs with
    | Some reg ->
        Obs.Registry.Counter.incr
          (Obs.Registry.Counter.get reg
             ~labels:(Obs.Names.reason_label (WC.string_of_reason reason))
             Obs.Names.client_rejections_total)
    | None -> ());
    trace t ~severity:Obs.Events.Warn "session.reject"
      [ ("reason", WC.string_of_reason reason) ];
    send_resp conn (WC.Rejected { rid; reason; retry_after_ms })

  (* Cancel every queued acquire of [s] (session closing, expiring or
     detaching). The waiters stay in their lock queues — the pump and
     sweeper skip non-pending entries — they just stop being eligible
     for a grant. *)
  let cancel_waiters t s =
    Hashtbl.iter
      (fun _ lq ->
        Mutex.lock lq.lq_mu;
        List.iter
          (fun w -> if w.w_sess == s && w.w_pending then w.w_pending <- false)
          lq.lq_waiters;
        Mutex.unlock lq.lq_mu)
      t.locks;
    Mutex.lock s.smu;
    s.s_inflight <- 0;
    Mutex.unlock s.smu

  (* Expire a session: lease ran out (attached: the client stalled;
     detached: the grace window closed) or the node is shutting down.
     Held grants are not revoked here — flipping [s_alive] and
     broadcasting wakes the pump thread serving the grant, which
     strips the hold and releases the distributed lock; the fencing
     token the client still has is then stale by construction. *)
  let expire_session t s ~reason =
    let conn =
      Mutex.lock s.smu;
      let c = s.sconn in
      if s.s_alive then begin
        s.s_alive <- false;
        s.sconn <- None;
        Condition.broadcast s.scond
      end;
      Mutex.unlock s.smu;
      c
    in
    cancel_waiters t s;
    Mutex.lock t.mu;
    Hashtbl.remove t.sessions s.sid;
    t.n_expired <- t.n_expired + 1;
    set_gauge t.g_sessions (float_of_int (live_sessions t));
    Mutex.unlock t.mu;
    incr_counter t.c_expiries;
    trace t ~severity:Obs.Events.Warn "session.expire"
      [ ("sid", s.sid); ("reason", reason) ];
    match conn with
    | None -> ()
    | Some conn ->
        send_resp conn (WC.Session_lost { rid = 0; reason });
        close_conn conn

  (* ---------------------------------------------------------------- *)
  (* Grant pump: one thread per lock. It waits for a pending waiter,
     asks the node for the distributed lock with [with_lock] (whose
     timeout machinery also drains abandoned grants), and while inside
     the CS serves the oldest still-pending waiter until that client
     releases, closes, or its lease expires. *)

  (* Pop the run of waiters one node hold can serve in [mode]:
     exclusive — just the oldest eligible waiter; shared — the maximal
     leading run of shared waiters, stopping at the first eligible
     exclusive waiter so writers keep their queue position (the
     session-layer mirror of the protocol's reader batch). Expired
     waiters met on the way are rejected with [Lock_timeout]. *)
  let pop_batch t lq ~mode =
    let rec go acc = function
      | [] -> (List.rev acc, [])
      | w :: rest ->
          if not w.w_pending then go acc rest
          else if now () > w.w_deadline then begin
            w.w_pending <- false;
            Mutex.lock w.w_sess.smu;
            w.w_sess.s_inflight <- max 0 (w.w_sess.s_inflight - 1);
            let conn = w.w_sess.sconn in
            Mutex.unlock w.w_sess.smu;
            (match conn with
            | Some conn ->
                reject t conn ~rid:w.w_rid WC.Lock_timeout ~retry_after_ms:0
            | None -> ());
            go acc rest
          end
          else begin
            match (mode : Dmutex.Types.mode) with
            | Exclusive -> (List.rev (w :: acc), rest)
            | Shared ->
                if w.w_mode = Dmutex.Types.Shared then go (w :: acc) rest
                else (List.rev acc, w :: rest)
          end
    in
    Mutex.lock lq.lq_mu;
    let batch, rest = go [] lq.lq_waiters in
    lq.lq_waiters <- rest;
    set_gauge lq.lq_depth (float_of_int (List.length rest));
    Mutex.unlock lq.lq_mu;
    batch

  (* Runs inside [Node.with_lock ~mode]: the node is in the CS for
     [lq.lq_lock] on some clients' behalf. In [Shared] mode the whole
     leading run of shared waiters is granted together under one
     fencing token — shared holders are peers, not an order, exactly
     as in the protocol's reader batch; in [Exclusive] mode exactly
     one client is served. Returns [true] if any client was actually
     served (so the caller knows progress was made). *)
  let serve t lq mode () =
    let st = Node.state ~lock:lq.lq_lock t.node in
    match t.fencing st with
    | None ->
        (* Not a genuine first-time grant (e.g. a recovery re-granted
           an already-served request): issuing a fencing token here
           could repeat a value, so drop the grant and retry. *)
        Mutex.lock t.mu;
        t.n_stale <- t.n_stale + 1;
        Mutex.unlock t.mu;
        incr_counter t.c_stale;
        trace t ~severity:Obs.Events.Warn "session.stale_grant"
          [ ("lock", lq.lq_lock) ];
        false
    | Some fencing ->
        if fencing <= lq.lq_last_fencing then begin
          (* Defence in depth: never let a non-increasing token out. *)
          Mutex.lock t.mu;
          t.n_stale <- t.n_stale + 1;
          Mutex.unlock t.mu;
          incr_counter t.c_stale;
          trace t ~severity:Obs.Events.Error "session.fencing_regression"
            [
              ("lock", lq.lq_lock);
              ("fencing", string_of_int fencing);
              ("last", string_of_int lq.lq_last_fencing);
            ];
          false
        end
        else begin
          match pop_batch t lq ~mode with
          | [] -> false (* nobody still wants it; release right away *)
          | batch ->
              lq.lq_last_fencing <- fencing;
              let mode_label =
                match (mode : Dmutex.Types.mode) with
                | Dmutex.Types.Shared -> "shared"
                | Dmutex.Types.Exclusive -> "exclusive"
              in
              let granted =
                List.filter_map
                  (fun w ->
                    let s = w.w_sess in
                    Mutex.lock s.smu;
                    w.w_pending <- false;
                    s.s_inflight <- max 0 (s.s_inflight - 1);
                    if not s.s_alive then begin
                      (* Raced its own expiry: drop this grant. *)
                      Mutex.unlock s.smu;
                      None
                    end
                    else begin
                      s.s_held <- (lq.lq_lock, fencing) :: s.s_held;
                      let conn = s.sconn in
                      Mutex.unlock s.smu;
                      Mutex.lock t.mu;
                      t.n_granted <- t.n_granted + 1;
                      Mutex.unlock t.mu;
                      incr_counter lq.lq_grants;
                      set_gauge lq.lq_fencing (float_of_int fencing);
                      trace t "session.grant"
                        [
                          ("sid", s.sid);
                          ("lock", lq.lq_lock);
                          ("fencing", string_of_int fencing);
                          ("mode", mode_label);
                        ];
                      (match conn with
                      | Some conn ->
                          send_resp conn
                            (WC.Granted
                               { rid = w.w_rid; lock = lq.lq_lock; fencing })
                      | None -> ());
                      Some s
                    end)
                  batch
              in
              if granted = [] then false
              else begin
                (* Hold the CS until every granted client releases,
                   closes, or the lease sweeper kills its session.
                   Waiting the sessions out one by one is fine: the
                   hold ends when the slowest is done regardless of
                   the order we observe the others in. *)
                List.iter
                  (fun s ->
                    Mutex.lock s.smu;
                    while s.s_alive && List.mem_assoc lq.lq_lock s.s_held do
                      Condition.wait s.scond s.smu
                    done;
                    if List.mem_assoc lq.lq_lock s.s_held then
                      (* Expiry path: strip the hold ourselves. *)
                      s.s_held <- List.remove_assoc lq.lq_lock s.s_held;
                    Mutex.unlock s.smu)
                  granted;
                true
              end
        end

  let pending_exists lq =
    List.exists (fun w -> w.w_pending) lq.lq_waiters

  let pump t lq =
    while not t.stopping do
      Mutex.lock lq.lq_mu;
      while (not t.stopping) && not (pending_exists lq) do
        Condition.wait lq.lq_cond lq.lq_mu
      done;
      let horizon =
        List.fold_left
          (fun acc w -> if w.w_pending then Float.max acc w.w_deadline else acc)
          0. lq.lq_waiters
      in
      (* Acquire in the head waiter's mode: a shared head pulls its
         whole run of fellow readers in with it, an exclusive head is
         served alone. *)
      let mode =
        match List.find_opt (fun w -> w.w_pending) lq.lq_waiters with
        | Some w -> w.w_mode
        | None -> Dmutex.Types.Exclusive
      in
      Mutex.unlock lq.lq_mu;
      if not t.stopping then begin
        let timeout = Float.max 0.05 (horizon -. now ()) in
        match
          Node.with_lock ~timeout ~lock:lq.lq_lock ~mode t.node
            (serve t lq mode)
        with
        | Some _ -> ()
        | None ->
            (* Grant never arrived inside the horizon; the sweeper (or
               the next pop) times the waiters out individually. *)
            ()
      end
    done

  (* ---------------------------------------------------------------- *)
  (* Request dispatch (per-connection reader thread) *)

  let renew_lease s =
    s.s_deadline <- now () +. (float_of_int s.s_lease_ms /. 1000.)

  let handle_open t conn attached ~rid ~lease_ms ~resume =
    let lease_ms = if lease_ms <= 0 then t.lease_ms else lease_ms in
    match resume with
    | Some sid -> (
        let s =
          Mutex.lock t.mu;
          let s = Hashtbl.find_opt t.sessions sid in
          Mutex.unlock t.mu;
          s
        in
        match s with
        | Some s when s.s_alive ->
            Mutex.lock s.smu;
            (match s.sconn with
            | Some old when old != conn -> close_conn old
            | _ -> ());
            s.sconn <- Some conn;
            renew_lease s;
            let held = s.s_held in
            Mutex.unlock s.smu;
            attached := Some s;
            Mutex.lock t.mu;
            t.n_resumed <- t.n_resumed + 1;
            Mutex.unlock t.mu;
            incr_counter t.c_resumes;
            trace t "session.resume" [ ("sid", s.sid) ];
            send_resp conn
              (WC.Session_opened
                 {
                   rid;
                   sid = s.sid;
                   lease_ms = s.s_lease_ms;
                   grace_ms = t.grace_ms;
                   resumed = true;
                   held;
                 })
        | _ ->
            send_resp conn
              (WC.Session_lost
                 { rid; reason = "unknown or expired session " ^ sid }))
    | None ->
        let admitted =
          Mutex.lock t.mu;
          let ok = live_sessions t < t.max_sessions in
          let s =
            if ok then begin
              let sid = fresh_sid t in
              let s =
                {
                  sid;
                  s_lease_ms = lease_ms;
                  smu = Mutex.create ();
                  scond = Condition.create ();
                  sconn = Some conn;
                  s_deadline = now () +. (float_of_int lease_ms /. 1000.);
                  s_alive = true;
                  s_held = [];
                  s_inflight = 0;
                }
              in
              Hashtbl.replace t.sessions sid s;
              t.n_opened <- t.n_opened + 1;
              set_gauge t.g_sessions (float_of_int (live_sessions t));
              Some s
            end
            else None
          in
          Mutex.unlock t.mu;
          s
        in
        (match admitted with
        | Some s ->
            attached := Some s;
            incr_counter t.c_opened;
            trace t "session.open" [ ("sid", s.sid) ];
            send_resp conn
              (WC.Session_opened
                 {
                   rid;
                   sid = s.sid;
                   lease_ms;
                   grace_ms = t.grace_ms;
                   resumed = false;
                   held = [];
                 })
        | None ->
            (* Admission control: shed load with an explicit
               retry-after instead of queueing unboundedly. *)
            reject t conn ~rid WC.Session_limit
              ~retry_after_ms:(t.lease_ms / 2))

  let handle_acquire t conn s ~rid ~lock ~timeout_ms ~try_only ~shared =
    Mutex.lock s.smu;
    renew_lease s;
    let already = List.mem_assoc lock s.s_held in
    let inflight = s.s_inflight in
    Mutex.unlock s.smu;
    match Hashtbl.find_opt t.locks lock with
    | None -> reject t conn ~rid WC.Unknown_lock ~retry_after_ms:0
    | Some _ when already -> reject t conn ~rid WC.Already_held ~retry_after_ms:0
    | Some _ when inflight >= max_inflight ->
        reject t conn ~rid WC.Queue_full ~retry_after_ms:(t.lease_ms / 4)
    | Some lq ->
        let timeout_ms =
          if timeout_ms > 0 then timeout_ms else if try_only then 1_000
          else 30_000
        in
        let w =
          {
            w_rid = rid;
            w_sess = s;
            w_mode =
              (if shared then Dmutex.Types.Shared else Dmutex.Types.Exclusive);
            w_deadline = now () +. (float_of_int timeout_ms /. 1000.);
            w_pending = true;
          }
        in
        Mutex.lock lq.lq_mu;
        let depth =
          List.length (List.filter (fun w -> w.w_pending) lq.lq_waiters)
        in
        if depth >= t.max_waiters then begin
          Mutex.unlock lq.lq_mu;
          reject t conn ~rid WC.Queue_full ~retry_after_ms:(t.lease_ms / 4)
        end
        else begin
          lq.lq_waiters <- lq.lq_waiters @ [ w ];
          set_gauge lq.lq_depth (float_of_int (depth + 1));
          Condition.signal lq.lq_cond;
          Mutex.unlock lq.lq_mu;
          Mutex.lock s.smu;
          s.s_inflight <- s.s_inflight + 1;
          Mutex.unlock s.smu
        end

  let handle_release t conn s ~rid ~lock =
    Mutex.lock s.smu;
    renew_lease s;
    let held = List.mem_assoc lock s.s_held in
    if held then begin
      s.s_held <- List.remove_assoc lock s.s_held;
      Condition.broadcast s.scond
    end;
    Mutex.unlock s.smu;
    if held then send_resp conn (WC.Released { rid; lock })
    else reject t conn ~rid WC.Not_held ~retry_after_ms:0

  let handle_close t conn s ~rid attached =
    cancel_waiters t s;
    Mutex.lock s.smu;
    s.s_alive <- false;
    s.s_held <- [];
    s.sconn <- None;
    Condition.broadcast s.scond;
    Mutex.unlock s.smu;
    Mutex.lock t.mu;
    Hashtbl.remove t.sessions s.sid;
    set_gauge t.g_sessions (float_of_int (live_sessions t));
    Mutex.unlock t.mu;
    attached := None;
    trace t "session.close" [ ("sid", s.sid) ];
    send_resp conn (WC.Closed { rid })

  (* Session-scoped requests: no session on this connection is a
     protocol error; a session the sweeper already expired gets a loud
     [Session_lost] — a renewal racing its own expiry must lose
     visibly, never silently revive. *)
  let with_session t conn attached ~rid f =
    match !attached with
    | None -> reject t conn ~rid WC.Bad_request ~retry_after_ms:0
    | Some s when not s.s_alive ->
        attached := None;
        send_resp conn (WC.Session_lost { rid; reason = "session expired" })
    | Some s -> f s

  let dispatch t conn attached req =
    match req with
    | WC.Hello { rid } ->
        send_resp conn
          (WC.Hello_ok { rid; node = Node.id t.node; proto = WC.version })
    | WC.Open_session { rid; lease_ms; resume } ->
        handle_open t conn attached ~rid ~lease_ms ~resume
    | WC.Acquire { rid; lock; timeout_ms; try_only; shared } ->
        with_session t conn attached ~rid (fun s ->
            handle_acquire t conn s ~rid ~lock ~timeout_ms ~try_only ~shared)
    | WC.Release { rid; lock } ->
        with_session t conn attached ~rid (fun s ->
            handle_release t conn s ~rid ~lock)
    | WC.Renew { rid } ->
        with_session t conn attached ~rid (fun s ->
            Mutex.lock s.smu;
            renew_lease s;
            Mutex.unlock s.smu;
            send_resp conn (WC.Renewed { rid; lease_ms = s.s_lease_ms }))
    | WC.Close { rid } ->
        with_session t conn attached ~rid (fun s ->
            handle_close t conn s ~rid attached)

  (* A connection died (EOF, error, or we closed it). Detach its
     session: the session survives until the grace deadline so the
     client can fail over and resume by sid; its queued acquires are
     cancelled (the client re-issues them after resuming), and its
     held grants stay held — release still belongs to the client until
     the lease/grace runs out. *)
  let detach t conn s =
    cancel_waiters t s;
    Mutex.lock s.smu;
    (match s.sconn with
    | Some c when c == conn ->
        s.sconn <- None;
        s.s_deadline <- now () +. (float_of_int t.grace_ms /. 1000.)
    | _ -> () (* already re-attached elsewhere *));
    Mutex.unlock s.smu;
    trace t "session.detach" [ ("sid", s.sid) ]

  let serve_conn t conn =
    let attached = ref None in
    (try
       while conn.wopen && not t.stopping do
         let body = Session_frame.recv conn.fd in
         match WC.decode_request body with
         | req -> dispatch t conn attached req
         | exception Wire.Malformed m ->
             trace t ~severity:Obs.Events.Warn "session.malformed"
               [ ("error", m) ];
             send_resp conn
               (WC.Session_lost { rid = 0; reason = "malformed request: " ^ m });
             raise Exit
       done
     with _ -> ());
    close_conn conn;
    (try Unix.close conn.fd with _ -> ());
    match !attached with None -> () | Some s -> detach t conn s

  (* ---------------------------------------------------------------- *)
  (* Background threads *)

  let accept_loop t =
    while not t.stopping do
      match Unix.accept t.sock with
      | fd, _ ->
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0 with _ -> ());
          let conn = { fd; wmu = Mutex.create (); wopen = true } in
          ignore (Thread.create (serve_conn t) conn)
      | exception _ -> if not t.stopping then Thread.delay 0.05
    done

  let sweep t =
    while not t.stopping do
      Thread.delay 0.05;
      let t_now = now () in
      (* Lease / grace expiries. *)
      let expired =
        Mutex.lock t.mu;
        let es =
          Hashtbl.fold
            (fun _ s acc ->
              if s.s_alive && t_now > s.s_deadline then s :: acc else acc)
            t.sessions []
        in
        Mutex.unlock t.mu;
        es
      in
      List.iter (fun s -> expire_session t s ~reason:"lease expired") expired;
      (* Queued acquires past their deadline get a prompt, explicit
         timeout even while the pump is blocked waiting for a grant. *)
      Hashtbl.iter
        (fun _ lq ->
          let timed_out =
            Mutex.lock lq.lq_mu;
            let ws =
              List.filter
                (fun w -> w.w_pending && t_now > w.w_deadline)
                lq.lq_waiters
            in
            List.iter (fun w -> w.w_pending <- false) ws;
            lq.lq_waiters <-
              List.filter (fun w -> w.w_pending) lq.lq_waiters;
            set_gauge lq.lq_depth (float_of_int (List.length lq.lq_waiters));
            Mutex.unlock lq.lq_mu;
            ws
          in
          List.iter
            (fun w ->
              Mutex.lock w.w_sess.smu;
              w.w_sess.s_inflight <- max 0 (w.w_sess.s_inflight - 1);
              let conn = w.w_sess.sconn in
              Mutex.unlock w.w_sess.smu;
              match conn with
              | Some conn ->
                  reject t conn ~rid:w.w_rid WC.Lock_timeout ~retry_after_ms:0
              | None -> ())
            timed_out)
        t.locks
    done

  (* ---------------------------------------------------------------- *)

  let create ?(lease_ms = 5_000) ?grace_ms ?(max_sessions = 1_024)
      ?(max_waiters = 256) ?obs ?trace:trace_sink ?seed
      ~fencing ~node ~addr () =
    let grace_ms = Option.value grace_ms ~default:lease_ms in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    (try
       Unix.bind sock
         (Unix.ADDR_INET
            (Unix.inet_addr_of_string addr.Transport.host, addr.Transport.port));
       Unix.listen sock 128
     with e ->
       (try Unix.close sock with _ -> ());
       raise e);
    let port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> addr.Transport.port
    in
    let seed =
      match seed with
      | Some s -> s
      | None ->
          (int_of_float (Unix.gettimeofday () *. 1e6) lxor Unix.getpid ())
          land max_int
    in
    let ghandle name =
      Option.map (fun reg -> Obs.Registry.Gauge.get reg name) obs
    in
    let chandle name =
      Option.map (fun reg -> Obs.Registry.Counter.get reg name) obs
    in
    let locks = Hashtbl.create 16 in
    List.iter
      (fun lock ->
        Hashtbl.replace locks lock
          {
            lq_lock = lock;
            lq_mu = Mutex.create ();
            lq_cond = Condition.create ();
            lq_waiters = [];
            lq_last_fencing = -1;
            lq_grants =
              Option.map
                (fun reg ->
                  Obs.Registry.Counter.get reg
                    ~labels:(Obs.Names.lock_label lock)
                    Obs.Names.client_grants_total)
                obs;
            lq_fencing =
              Option.map
                (fun reg ->
                  Obs.Registry.Gauge.get reg
                    ~labels:(Obs.Names.lock_label lock)
                    Obs.Names.client_fencing)
                obs;
            lq_depth =
              Option.map
                (fun reg ->
                  Obs.Registry.Gauge.get reg
                    ~labels:(Obs.Names.lock_label lock)
                    Obs.Names.client_waiters)
                obs;
          })
      (Node.locks node);
    let t =
      {
        node;
        fencing;
        lease_ms;
        grace_ms;
        max_sessions;
        max_waiters;
        mu = Mutex.create ();
        sessions = Hashtbl.create 64;
        locks;
        rng = Random.State.make [| seed; 0x5e55 |];
        sock;
        port;
        stopping = false;
        accept_thread = None;
        sweep_thread = None;
        n_opened = 0;
        n_resumed = 0;
        n_expired = 0;
        n_granted = 0;
        n_rejected = 0;
        n_stale = 0;
        obs;
        g_sessions = ghandle Obs.Names.client_sessions;
        c_opened = chandle Obs.Names.client_sessions_opened_total;
        c_resumes = chandle Obs.Names.client_resumes_total;
        c_expiries = chandle Obs.Names.client_lease_expiries_total;
        c_stale = chandle Obs.Names.client_stale_grants_total;
        trace = trace_sink;
      }
    in
    Hashtbl.iter (fun _ lq -> ignore (Thread.create (pump t) lq)) locks;
    t.accept_thread <- Some (Thread.create accept_loop t);
    t.sweep_thread <- Some (Thread.create sweep t);
    t

  let port t = t.port
  let sessions t = Mutex.lock t.mu; let n = live_sessions t in Mutex.unlock t.mu; n

  let stats t =
    Mutex.lock t.mu;
    let s =
      {
        opened = t.n_opened;
        resumed = t.n_resumed;
        expired = t.n_expired;
        granted = t.n_granted;
        rejected = t.n_rejected;
        stale_grants = t.n_stale;
      }
    in
    Mutex.unlock t.mu;
    s

  let last_fencing t ~lock =
    match Hashtbl.find_opt t.locks lock with
    | None -> None
    | Some lq ->
        Mutex.lock lq.lq_mu;
        let f = lq.lq_last_fencing in
        Mutex.unlock lq.lq_mu;
        if f < 0 then None else Some f

  let shutdown t =
    if not t.stopping then begin
      t.stopping <- true;
      (* Tell every attached client loudly before the sockets vanish,
         so failover starts now rather than on a TCP timeout. *)
      let sessions =
        Mutex.lock t.mu;
        let ss = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
        Mutex.unlock t.mu;
        ss
      in
      List.iter (fun s -> expire_session t s ~reason:"node shutting down")
        sessions;
      Hashtbl.iter
        (fun _ lq ->
          Mutex.lock lq.lq_mu;
          Condition.broadcast lq.lq_cond;
          Mutex.unlock lq.lq_mu)
        t.locks;
      (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close t.sock with _ -> ());
      (match t.sweep_thread with Some th -> Thread.join th | None -> ());
      match t.accept_thread with Some th -> Thread.join th | None -> ()
    end
end
