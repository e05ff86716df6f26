(* The socket workloads: live-saturated, live-light and client-durable.
   Every node of the cluster runs in this process on loopback TCP with
   no injected delay, so latency is processor time plus the protocol's
   2 ms collection and forwarding timers. Load comes from at most two
   generator threads (the core count of the 2-vCPU machine the
   workloads were sized on) driving the public calls:
   [Node.acquire]/[Node.release] with the [on_grant] hook for the live
   workloads, one [Session_client] per thread for client-durable. *)

module Registry = Dmutex_obs.Registry
module Names = Dmutex_obs.Names

type settings = Outcome.settings = {
  seed : int;
  warmup : float;
  seconds : float;
  trace : bool;
  setups : int;
}

let now = Unix.gettimeofday

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Thread.delay d

let say = Outcome.say
let batches = Outcome.batches

(* Grant notifications from the nodes' threads to a generator thread.
   [take] sleeps in [select] on a self-pipe so an open-loop generator
   can also wake for its next arrival; a byte is written only when the
   queue goes from empty to non-empty, so a busy queue costs no
   syscalls. *)
module Mailbox = struct
  type 'a t = {
    mu : Mutex.t;
    mutable items : 'a list;  (** newest first *)
    rd : Unix.file_descr;
    wr : Unix.file_descr;
    buf : Bytes.t;
  }

  (* The pipe is never closed: a node thread finishing a step after
     shutdown may still push, and a closed descriptor number could by
     then name another file. A run makes a handful of these. *)
  let create () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock rd;
    Unix.set_nonblock wr;
    { mu = Mutex.create (); items = []; rd; wr; buf = Bytes.create 64 }

  let push t x =
    Mutex.lock t.mu;
    let was_empty = t.items = [] in
    t.items <- x :: t.items;
    Mutex.unlock t.mu;
    if was_empty then
      try ignore (Unix.single_write t.wr t.buf 0 1) with Unix.Unix_error _ -> ()

  (* Everything pushed so far, oldest first; waits up to [timeout]
     seconds when there is nothing yet. *)
  let take t ~timeout =
    (match Unix.select [ t.rd ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> (
        try
          while Unix.read t.rd t.buf 0 (Bytes.length t.buf) > 0 do
            ()
          done
        with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Mutex.lock t.mu;
    let l = t.items in
    t.items <- [];
    Mutex.unlock t.mu;
    List.rev l
end

(* Ports the kernel hands out as free right now; a bind race with
   another process is retried by the caller. *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> invalid_arg "free_ports")
      socks
  in
  List.iter Unix.close socks;
  ports

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* What a generator recorded: one entry per grant inside the window. *)
type samples = {
  times : Stats.Samples.t;  (** grant time *)
  lat : Stats.Samples.t;  (** request (or due time) to grant, seconds *)
  lags : Stats.Samples.t;  (** open loop: how late each arrival was handled *)
  mutable offered : int;  (** open loop: arrivals due inside the window *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failures *)
}

let samples () =
  {
    times = Stats.Samples.create ();
    lat = Stats.Samples.create ();
    lags = Stats.Samples.create ();
    offered = 0;
    attempted = 0;
    failed = 0;
    errors = [];
  }

let note_failure s msg =
  s.failed <- s.failed + 1;
  if List.length s.errors < 5 then s.errors <- msg :: s.errors

(* One record of what several generator threads saw. *)
let pool = function
  | [ s ] -> s
  | parts ->
      let all = samples () in
      List.iter
        (fun x ->
          let copy src dst =
            Array.iter (Stats.Samples.add dst) (Stats.Samples.to_array src)
          in
          copy x.times all.times;
          copy x.lat all.lat;
          copy x.lags all.lags;
          all.offered <- all.offered + x.offered;
          all.attempted <- all.attempted + x.attempted;
          all.failed <- all.failed + x.failed;
          all.errors <- all.errors @ x.errors)
        parts;
      all

module Make
    (A : Dmutex.Types.ALGO
           with type state = Dmutex.Protocol.state
            and type message = Dmutex.Protocol.message)
    (C : Wire.CODEC with type message = A.message) =
struct
  module Session = Netkit.Session.Make (A) (C)
  module Node = Session.Node

  let lock_name k = "lock-" ^ string_of_int k

  (* T_collect/T_forward at 2 ms as in the sharded bench: the reactor
     transport batches a step's frames anyway, so the timers can be
     latency-sized. Recovery is on, as dmutexd runs the protocol. *)
  let config n =
    {
      (Dmutex.Resilient.config ~n ()) with
      Dmutex.Types.Config.t_collect = 0.002;
      t_forward = 0.002;
    }

  type rig = {
    n : int;
    nlocks : int;
    nodes : Node.t array;
    regs : Registry.t array;
    grants : (int * int * float) Mailbox.t;  (** node, lock, grant time *)
    witness : Witness.t;
    mutable servers : Session.t array;
    mutable clients : Netkit.Session_client.t array;
  }

  (* Start [n] nodes hosting [nlocks] locks. With [grant_hook] every
     CS entry is witnessed and posted to the rig's mailbox; with
     [state_root] every (node, lock) instance persists through its own
     store, fsynced per step. *)
  let launch ~n ~nlocks ~seed ~grant_hook ~state_root =
    let cfg = config n in
    let locks = List.init nlocks lock_name in
    let index = Hashtbl.create nlocks in
    List.iteri (fun k l -> Hashtbl.replace index l k) locks;
    let grants = Mailbox.create () in
    let witness = Witness.create ~locks:nlocks in
    let on_grant i ~lock =
      let k = Hashtbl.find index lock in
      Witness.enter witness ~lock:k ~holder:i ~mode:Witness.Exclusive;
      Mailbox.push grants (i, k, now ())
    in
    let rec attempt k =
      let peers =
        Array.of_list
          (List.map
             (fun port -> { Netkit.Transport.host = "127.0.0.1"; port })
             (free_ports n))
      in
      let regs = Array.init n (fun _ -> Registry.create ()) in
      let store i =
        Option.map
          (fun root ->
            let dir = Filename.concat root (Printf.sprintf "try-%d/node-%d" k i) in
            mkdir_p dir;
            fun ~lock ->
              Some
                (Dmutex_store.Store.open_
                   ~dir:
                     (Filename.concat dir
                        ("lock-" ^ Dmutex_store.Store.dir_name_of_key lock))
                   ~key:lock ~n ~obs:regs.(i) ()))
          state_root
      in
      let persist =
        Option.map (fun _ -> Dmutex_store.Protocol_view.capture) state_root
      in
      let started = ref [] in
      match
        Array.init n (fun i ->
            let node =
              Node.create
                ?on_grant:(if grant_hook then Some (on_grant i) else None)
                ~seed:(seed + i) ~locks ?store:(store i) ?persist
                ~obs:regs.(i) cfg ~me:i ~peers ()
            in
            started := node :: !started;
            node)
      with
      | nodes ->
          {
            n;
            nlocks;
            nodes;
            regs;
            grants;
            witness;
            servers = [||];
            clients = [||];
          }
      | exception Unix.Unix_error ((Unix.EADDRINUSE | Unix.EACCES), _, _)
        when k < 5 ->
          List.iter Node.crash !started;
          attempt (k + 1)
    in
    attempt 0

  (* A client's close waits for its lease renewer to wake, a server's
     shutdown for its sweeper: each sleeps up to 0.1 s. Closed side by
     side, a client-durable rig goes down in the time of the slowest
     rather than the sum, which takes about 3.5 s off a run of 24
     set-ups. *)
  let in_parallel f a =
    Array.iter Thread.join (Array.map (Thread.create f) a)

  let teardown rig =
    in_parallel Netkit.Session_client.close rig.clients;
    in_parallel Session.shutdown rig.servers;
    Array.iter Node.shutdown rig.nodes

  let acquire rig ~trace i k =
    let lock = lock_name k in
    if trace then
      Spans.around Spans.Node_acquire ~node:i ~lock (fun () ->
          Node.acquire ~lock rig.nodes.(i))
    else Node.acquire ~lock rig.nodes.(i)

  let release rig ~trace i k =
    Witness.leave rig.witness ~lock:k ~holder:i;
    let lock = lock_name k in
    if trace then
      Spans.around Spans.Node_release ~node:i ~lock (fun () ->
          Node.release ~lock rig.nodes.(i))
    else Node.release ~lock rig.nodes.(i)

  (* Set-up ends when every (node, lock) pair has been granted once,
     all requests in flight at once. A lock's first grant alone waits
     on one 2 ms collection window or two, which made the time jump
     between modes; a full round over every node averages that out. *)
  let first_grants rig =
    for k = 0 to rig.nlocks - 1 do
      for i = 0 to rig.n - 1 do
        acquire rig ~trace:false i k
      done
    done;
    let deadline = now () +. 30.0 in
    let rec wait left =
      if left > 0 then begin
        if now () > deadline then
          failwith "set-up: a request was not granted within 30 s";
        let evs = Mailbox.take rig.grants ~timeout:0.05 in
        List.iter (fun (i, k, _) -> release rig ~trace:false i k) evs;
        wait (left - List.length evs)
      end
    in
    wait (rig.n * rig.nlocks)

  (* --- window edges -------------------------------------------------- *)

  type edge = {
    snap : Registry.snapshot;
    cpu : float;
    gc : Probe.gc;
    transport : Netkit.Transport.metrics array;  (** per node *)
    session : Session.stats array;  (** per session server *)
  }

  let edge rig =
    {
      snap = Probe.merged rig.regs;
      cpu = Probe.cpu_seconds ();
      gc = Probe.gc ();
      transport = Array.map Node.metrics rig.nodes;
      session = Array.map Session.stats rig.servers;
    }

  let total f a = Array.fold_left (fun acc x -> acc + f x) 0 a

  type window = {
    a : edge;  (** at the window's start *)
    b : edge;  (** at its end *)
    cpu : float array;  (** process CPU seconds at each slice boundary *)
    qmax : int;  (** traced: deepest transport queue seen *)
    threads : int;  (** traced: most OS threads seen *)
  }

  (* Run the window on the calling thread while the generators load the
     rig: wait out the warm-up, read the opening edge, read the process
     CPU clock at every slice boundary (sampling transport queue depth
     and thread count every 10 ms when traced), read the closing edge. *)
  let window settings rig ~w0 ~w1 =
    sleep_until w0;
    if settings.trace then Spans.reset_aggregates ();
    let a = edge rig in
    let k = Outcome.slices settings in
    let cpu = Array.make (k + 1) a.cpu in
    let qmax = ref 0 and threads = ref 0 in
    for i = 1 to k do
      let edge_i = w0 +. ((w1 -. w0) *. float_of_int i /. float_of_int k) in
      if settings.trace then
        while now () < edge_i do
          let depth =
            total
              (fun (m : Netkit.Transport.metrics) -> m.queue_depth)
              (Array.map Node.metrics rig.nodes)
          in
          qmax := max !qmax depth;
          threads := max !threads (Probe.threads ());
          Thread.delay 0.01
        done
      else sleep_until edge_i;
      cpu.(i) <- Probe.cpu_seconds ()
    done;
    { a; b = edge rig; cpu; qmax = !qmax; threads = !threads }

  (* --- generators ------------------------------------------------------ *)

  let record s ~tg ~lat =
    Stats.Samples.add s.times tg;
    Stats.Samples.add s.lat lat;
    s.attempted <- s.attempted + 1

  (* Closed loop: every (node, lock) pair keeps exactly one request
     outstanding and re-requests the moment its grant is released
     (zero hold time). Latency runs from the [acquire] call to the
     [on_grant] callback. *)
  let closed_loop rig ~trace ~w0 ~w1 s served =
    let pairs = rig.n * rig.nlocks in
    let issued = Array.make pairs 0.0 in
    let issue p =
      issued.(p) <- now ();
      acquire rig ~trace (p mod rig.n) (p / rig.n)
    in
    for p = 0 to pairs - 1 do
      issue p
    done;
    let stop = w1 +. 0.05 in
    while now () < stop do
      List.iter
        (fun (i, k, tg) ->
          let p = (k * rig.n) + i in
          if tg >= w0 && tg < w1 then begin
            record s ~tg ~lat:(tg -. issued.(p));
            served.(p) <- served.(p) + 1
          end;
          release rig ~trace i k;
          issue p)
        (Mailbox.take rig.grants ~timeout:0.02)
    done;
    Array.iter
      (fun t ->
        if t < stop -. 5.0 then begin
          s.attempted <- s.attempted + 1;
          note_failure s "a request was outstanding for over 5 s"
        end)
      issued

  (* Open loop: Poisson arrivals at [rate] per second, each on a pair
     drawn uniformly. An arrival at a pair whose previous request is
     still open waits in the generator; latency runs from the arrival's
     due time, so that wait counts. *)
  let open_loop rig ~trace ~rate ~rng ~w0 ~w1 s served =
    let pairs = rig.n * rig.nlocks in
    let due_of = Array.make pairs 0.0 in
    let busy = Array.make pairs false in
    let backlog = Array.init pairs (fun _ -> Queue.create ()) in
    let issue p due =
      busy.(p) <- true;
      due_of.(p) <- due;
      acquire rig ~trace (p mod rig.n) (p / rig.n)
    in
    let gap () = -.log (1.0 -. Random.State.float rng 1.0) /. rate in
    let next = ref (now () +. gap ()) in
    let stop = w1 +. 0.05 in
    while now () < stop do
      let t = now () in
      while !next <= t do
        let due = !next in
        let p = Random.State.int rng pairs in
        if due >= w0 && due < w1 then begin
          s.offered <- s.offered + 1;
          Stats.Samples.add s.lags (t -. due)
        end;
        if busy.(p) then Queue.push due backlog.(p) else issue p due;
        next := due +. gap ()
      done;
      let timeout = Float.max 0.0 (Float.min 0.02 (!next -. now ())) in
      List.iter
        (fun (i, k, tg) ->
          let p = (k * rig.n) + i in
          if tg >= w0 && tg < w1 then begin
            record s ~tg ~lat:(tg -. due_of.(p));
            served.(p) <- served.(p) + 1
          end;
          release rig ~trace i k;
          match Queue.take_opt backlog.(p) with
          | Some due -> issue p due
          | None -> busy.(p) <- false)
        (Mailbox.take rig.grants ~timeout)
    done;
    Array.iteri
      (fun p b ->
        if b && due_of.(p) < stop -. 5.0 then begin
          s.attempted <- s.attempted + 1;
          note_failure s "a request was outstanding for over 5 s"
        end)
      busy

  (* --- reporting ------------------------------------------------------- *)

  let ms v = v *. 1000.0

  (* One part of the window: its grants summarized and its CPU cost per
     grant. *)
  type part = { lat : Stats.batch; cpu_us : float }

  (* The window cut into [k] equal parts by grant time; [k] divides the
     number of slices at whose boundaries the clocks were read. *)
  let cut ~w0 ~w1 ~(w : window) ~k times lat =
    let step = (Array.length w.cpu - 1) / k in
    Array.mapi
      (fun i (x : Stats.batch) ->
        let j = i * step and j' = (i + 1) * step in
        {
          lat = x;
          cpu_us = (w.cpu.(j') -. w.cpu.(j)) /. float_of_int (max 1 x.Stats.count) *. 1e6;
        })
      (Stats.batches ~t0:w0 ~t1:w1 ~k times lat)

  (* Per-batch rate, latency and CPU cost, printed for every workload;
     the caller decides whether a drift invalidates the run. *)
  let batch_report b =
    Array.iteri
      (fun i p ->
        say "  batch %d/%d: %9.1f grants/s  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  %.1f CPU us/grant"
          (i + 1) batches p.lat.Stats.rate (ms p.lat.Stats.p50) (ms p.lat.Stats.p90)
          (ms p.lat.Stats.p99) p.cpu_us)
      b

  (* The end-to-end metrics every socket workload reports, plus the
     correctness problems shared by all of them. Rate and latency, like
     the CPU per grant [cpu] printed beside them, are the better
     quartiles of the window's slices (see Outcome). *)
  let end_to_end rig ~setup_s ~rss ~cpu ~(w : window) ~slices ~lat s =
    let n = Array.length lat in
    let cs = Probe.counter_delta w.a.snap w.b.snap Names.cs_entries_total in
    let sent = Probe.counter_delta w.a.snap w.b.snap Names.messages_sent_total in
    let best ~lower f = Stats.better_quartile ~lower (Array.map f slices) in
    let p50 = best ~lower:true (fun p -> p.lat.Stats.p50)
    and p90 = best ~lower:true (fun p -> p.lat.Stats.p90)
    and rate = best ~lower:false (fun p -> p.lat.Stats.rate) in
    let mpcs = float_of_int sent /. float_of_int (max 1 cs) in
    say "  acquire p50 %.3f ms, p90 %.3f ms; p99 %.3f ms over %d samples" (ms p50)
      (ms p90) (ms (Stats.percentile lat 99.0)) n;
    say "  %.1f grants/s, %.3f messages/CS, %.1f CPU us/grant" rate mpcs cpu;
    let problems =
      (if Stats.supports ~p:99.0 n then []
       else
         [
           Printf.sprintf "p99 needs %d samples, window had %d"
             (Stats.min_samples 99.0) n;
         ])
      @ (if Array.for_all (fun p -> Stats.supports ~p:90.0 p.lat.Stats.count) slices
         then []
         else [ "a slice had too few samples for its p90" ])
      @ List.rev s.errors
      @ Witness.first_violations rig.witness
    in
    ( [
        ("acquire_p50_ms", ms p50);
        ("acquire_p90_ms", ms p90);
        ("grants_per_s", rate);
        ("messages_per_cs", mpcs);
        ("setup_s", setup_s);
        ("peak_rss_mb", rss);
      ],
      problems )

  (* Per-layer metrics of a traced window, from the span aggregates,
     the registries and the transport/session counters. *)
  let per_layer settings rig ~(w : window) ~grants ~rate ~cpu ~lat s =
    let a = w.a and b = w.b in
    let cs = max 1 (Probe.counter_delta a.snap b.snap Names.cs_entries_total) in
    let per_cs v = float_of_int v /. float_of_int cs in
    let sent kind =
      Probe.counter_delta
        ~where:(Probe.label_is "kind" kind)
        a.snap b.snap Names.messages_sent_total
    in
    let hmean ?where name = Probe.histo_mean (Probe.histo_delta ?where a.snap b.snap name) in
    let phase p = ms (hmean ~where:(Probe.label_is "phase" p) Names.phase_seconds) in
    let step = Spans.summary Spans.Step in
    let enc = Spans.summary Spans.Encode and dec = Spans.summary Spans.Decode in
    let us k = (Spans.summary k).Spans.mean_us in
    let fsync = Probe.histo_delta a.snap b.snap Names.store_fsync_seconds in
    let sync_ms = ms (hmean Names.sync_delay_seconds) in
    let transport f = float_of_int (total f b.transport - total f a.transport) in
    let session f = float_of_int (total f b.session - total f a.session) in
    let flushes = transport (fun m -> m.Netkit.Transport.flushes) in
    [
      ("gen.lag_p99_ms", ms (Stats.percentile (Stats.Samples.to_array s.lags) 99.0));
      ( "gen.achieved_over_offered",
        if s.offered = 0 then 0.0
        else float_of_int grants /. float_of_int s.offered );
      ("node_runner.acquire_call_us", us Spans.Node_acquire);
      ("node_runner.release_call_us", us Spans.Node_release);
      ("node_runner.sync_delay_ms", sync_ms);
      ("proc.threads", float_of_int w.threads);
      ("proc.cpu_us_per_grant", cpu);
      ("protocol.steps_per_cs", per_cs step.Spans.n);
      ("protocol.step_us", step.Spans.mean_us);
      ("protocol.step_us_p99", step.Spans.p99_us);
      ("protocol.busy_frac", step.Spans.seconds /. settings.seconds);
      ("protocol.request_per_cs", per_cs (sent "REQUEST"));
      ("protocol.privilege_per_cs", per_cs (sent "PRIVILEGE"));
      ("protocol.new_arbiter_per_cs", per_cs (sent "NEW-ARBITER"));
      ("protocol.queue_length_mean", hmean Names.queue_length);
      ("protocol.collection_ms", phase "collection");
      ("protocol.forwarding_ms", phase "forwarding");
      ("protocol.read_batch_size", hmean Names.read_batch_size);
      ("wire.encode_us", enc.Spans.mean_us);
      ("wire.decode_us", dec.Spans.mean_us);
      ( "wire.bytes_per_msg",
        if enc.Spans.timed = 0 then 0.0
        else float_of_int enc.Spans.payload /. float_of_int enc.Spans.timed );
      ("transport.flushes_per_cs", flushes /. float_of_int cs);
      ( "transport.frames_per_flush",
        if flushes = 0.0 then 0.0
        else transport (fun m -> m.Netkit.Transport.sent) /. flushes );
      ("transport.queue_depth_max", float_of_int w.qmax);
      ("transport.dropped", transport (fun m -> m.Netkit.Transport.dropped));
      ("transport.retries", transport (fun m -> m.Netkit.Transport.retries));
      ( "session.overhead_ms",
        if rig.servers = [||] then 0.0 else ms (Stats.mean lat) -. sync_ms );
      ("session.release_call_ms", us Spans.Client_release /. 1000.0);
      ( "session.grants_per_cs",
        session (fun x -> x.Session.granted) /. float_of_int cs );
      ("session.rejected", session (fun x -> x.Session.rejected));
      ("session.stale_grants", session (fun x -> x.Session.stale_grants));
      ("store.fsync_ms", ms (Probe.histo_mean fsync));
      ( "store.fsync_ms_p99",
        if fsync.Registry.h_count = 0 then 0.0
        else ms (Stats.histo_quantile fsync 0.99) );
      ("store.fsyncs_per_cs", per_cs fsync.Registry.h_count);
      ( "store.busy_frac",
        fsync.Registry.h_sum /. (settings.seconds *. float_of_int rig.n) );
      ( "gc.alloc_bytes_per_cs",
        (b.gc.Probe.alloc_bytes -. a.gc.Probe.alloc_bytes) /. float_of_int cs );
      ("gc.minor_per_kcs", 1000.0 *. per_cs (b.gc.Probe.minor - a.gc.Probe.minor));
      ("gc.major_per_kcs", 1000.0 *. per_cs (b.gc.Probe.major - a.gc.Probe.major));
      ("trace.grants_per_s", rate);
    ]

  (* Run one socket workload: time the set-ups, start the generator
     threads, measure the window, tear down, and judge the run. *)
  let measure settings ~setup ~generators ~extra_checks =
    let early, rig = Outcome.first_setups settings ~setup ~dispose:teardown in
    let w0 = now () +. settings.warmup in
    let w1 = w0 +. settings.seconds in
    let gens = generators rig ~w0 ~w1 in
    let w = window settings rig ~w0 ~w1 in
    let results = List.map (fun (th, s) -> Thread.join th; s) gens in
    (* Read before the reporting below allocates its sample arrays. *)
    let rss = Probe.peak_rss_mb () in
    teardown rig;
    let setup_s = Outcome.last_setups settings ~setup ~dispose:teardown early in
    let s = pool results in
    let grants = Stats.Samples.length s.times in
    let times = Stats.Samples.to_array s.times and lat = Stats.Samples.to_array s.lat in
    let batch = cut ~w0 ~w1 ~w ~k:batches times lat in
    batch_report batch;
    let slices = cut ~w0 ~w1 ~w ~k:(Outcome.slices settings) times lat in
    let cpu = Stats.better_quartile ~lower:true (Array.map (fun p -> p.cpu_us) slices) in
    let e2e, problems = end_to_end rig ~setup_s ~rss ~cpu ~w ~slices ~lat s in
    let problems =
      problems @ extra_checks ~grants ~batches:(Array.map (fun p -> p.lat) batch) s
    in
    let metrics =
      if settings.trace then
        per_layer settings rig ~w ~grants ~rate:(List.assoc "grants_per_s" e2e) ~cpu
          ~lat s
      else e2e
    in
    {
      Outcome.attempted = s.attempted;
      failed = s.failed;
      violations = Witness.violations rig.witness;
      problems;
      metrics;
    }

  let spawn f =
    let s = samples () in
    (Thread.create f s, s)

  let every_pair_served served =
    if Array.exists (fun c -> c = 0) served then
      [ "a (node, lock) pair was never granted inside the window" ]
    else []

  (* live-saturated: 5 nodes x 8 locks, no store, no sessions, 40
     requests always in flight — the Eq. 4 capacity regime. *)
  let live_saturated settings =
    say "live-saturated: 5 nodes x 8 locks, closed loop, 40 requests in flight";
    let n = 5 and nlocks = 8 in
    let served = Array.make (n * nlocks) 0 in
    measure settings
      ~setup:(fun r ->
        let rig =
          launch ~n ~nlocks ~seed:(settings.seed + (100 * r)) ~grant_hook:true
            ~state_root:None
        in
        first_grants rig;
        rig)
      ~generators:(fun rig ~w0 ~w1 ->
        [ spawn (fun s -> closed_loop rig ~trace:settings.trace ~w0 ~w1 s served) ])
      ~extra_checks:(fun ~grants:_ ~batches:_ _ -> every_pair_served served)

  (* live-light: the same cluster under 250 Poisson acquires/s — the
     Eq. 1 regime, where the collection window sets latency. *)
  let light_rate = 250.0

  let live_light settings =
    say "live-light: 5 nodes x 8 locks, open loop, %.0f Poisson acquires/s"
      light_rate;
    let n = 5 and nlocks = 8 in
    let served = Array.make (n * nlocks) 0 in
    let rng = Random.State.make [| settings.seed; 0x11647 |] in
    measure settings
      ~setup:(fun r ->
        let rig =
          launch ~n ~nlocks ~seed:(settings.seed + (100 * r)) ~grant_hook:true
            ~state_root:None
        in
        first_grants rig;
        rig)
      ~generators:(fun rig ~w0 ~w1 ->
        [
          spawn (fun s ->
              open_loop rig ~trace:settings.trace ~rate:light_rate ~rng ~w0 ~w1
                s served);
        ])
      ~extra_checks:(fun ~grants ~batches s ->
        let achieved = float_of_int grants /. float_of_int (max 1 s.offered) in
        let first = batches.(0).Stats.p50
        and last = batches.(Array.length batches - 1).Stats.p50 in
        say "  achieved %.4f of offered (%d of %d arrivals)" achieved grants
          s.offered;
        every_pair_served served
        @ (if achieved >= 0.98 then []
           else
             [
               Printf.sprintf "achieved %.3f of the offered load (< 0.98)"
                 achieved;
             ])
        @
        if last <= 1.5 *. first then []
        else
          [
            Printf.sprintf
              "last batch p50 %.3f ms over 1.5x the first %.3f ms: backlog \
               growing"
              (ms last) (ms first);
          ])

  (* client-durable: 3 nodes x 4 locks with a fsync-per-step store and
     a session server each; two client threads, one session each on a
     different home node, closed loop over the locks round-robin, 90%
     shared — sessions, fencing, the store and reader batching. *)
  let client_durable settings ~state_root =
    say
      "client-durable: 3 nodes x 4 locks, durable stores, 2 session clients, \
       90%% shared";
    let n = 3 and nlocks = 4 and nclients = 2 in
    let client rig c =
      (* Home node first; the rest are failover targets. *)
      let addrs =
        List.init n (fun j ->
            {
              Netkit.Transport.host = "127.0.0.1";
              port = Session.port rig.servers.((c + j) mod n);
            })
      in
      Netkit.Session_client.connect ~seed:(settings.seed + c) ~addrs ()
    in
    let setup r =
      let rig =
        launch ~n ~nlocks ~seed:(settings.seed + (100 * r)) ~grant_hook:false
          ~state_root:(Some (Filename.concat state_root (string_of_int r)))
      in
      rig.servers <-
        Array.init n (fun i ->
            Session.create ~obs:rig.regs.(i) ~seed:(settings.seed + i)
              ~fencing:Dmutex_store.Protocol_view.fencing_of_state
              ~node:rig.nodes.(i)
              ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = 0 }
              ());
      rig.clients <- Array.init nclients (client rig);
      for k = 0 to nlocks - 1 do
        let cl = rig.clients.(k mod nclients) and lock = lock_name k in
        match Netkit.Session_client.acquire ~timeout:30.0 ~lock cl with
        | Ok _ -> ignore (Netkit.Session_client.release ~lock cl)
        | Error e ->
            failwith
              ("set-up: " ^ lock ^ ": " ^ Netkit.Session_client.string_of_error e)
      done;
      rig
    in
    let loop rig ~w0 ~w1 c s =
      let cl = rig.clients.(c) in
      let rng = Random.State.make [| settings.seed; c; 0xc11e |] in
      let k = ref c in
      let stop = w1 +. 0.05 in
      while now () < stop do
        let li = !k mod nlocks in
        incr k;
        let lock = lock_name li in
        let shared = Random.State.float rng 1.0 < 0.9 in
        let mode = if shared then Witness.Shared else Witness.Exclusive in
        let call () =
          Netkit.Session_client.acquire ~timeout:10.0 ~shared ~lock cl
        in
        let t0 = now () in
        let r =
          if settings.trace then
            Spans.around Spans.Client_acquire ~node:c ~lock call
          else call ()
        in
        let t1 = now () in
        let inside = t1 >= w0 && t1 < w1 in
        match r with
        | Ok fencing ->
            Witness.enter rig.witness ~lock:li ~holder:c ~mode;
            Witness.fencing rig.witness ~lock:li ~mode fencing;
            if inside then record s ~tg:t1 ~lat:(t1 -. t0);
            Witness.leave rig.witness ~lock:li ~holder:c;
            let rel () = Netkit.Session_client.release ~lock cl in
            let rr =
              if settings.trace then
                Spans.around Spans.Client_release ~node:c ~lock rel
              else rel ()
            in
            (match rr with
            | Ok () -> ()
            | Error e ->
                if inside then
                  note_failure s
                    ("release: " ^ Netkit.Session_client.string_of_error e))
        | Error e ->
            if inside then begin
              s.attempted <- s.attempted + 1;
              note_failure s
                ("acquire: " ^ Netkit.Session_client.string_of_error e)
            end
      done
    in
    Fun.protect
      ~finally:(fun () ->
        remove_tree state_root;
        try Unix.rmdir (Filename.dirname state_root)
        with Unix.Unix_error _ -> () (* other runs' state still there *))
      (fun () ->
        measure settings ~setup
          ~generators:(fun rig ~w0 ~w1 ->
            List.init nclients (fun c -> spawn (loop rig ~w0 ~w1 c)))
          ~extra_checks:(fun ~grants:_ ~batches:_ _ -> []))
end
