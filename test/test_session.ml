(* The client session layer end-to-end: leases, fencing tokens,
   failover, load shedding — a real cluster behind real session
   sockets, plus codec unit tests for the client wire family.

   The lease-edge cases use a *raw* client (hand-rolled frames, no
   renewal thread) so a stalled or dead client can actually stall:
   the Session_client library is deliberately too well-behaved to
   exhibit them. *)

module WC = Wire.Client
module RC = Netkit.Cluster.Make (Dmutex.Resilient) (Wire.Protocol_codec)
module S = Netkit.Session.Make (Dmutex.Resilient) (Wire.Protocol_codec)
module SC = Netkit.Session_client

(* ------------------------------------------------------------------ *)
(* Client wire-format units *)

let test_codec_roundtrip () =
  let reqs =
    [
      WC.Hello { rid = 1 };
      WC.Open_session { rid = 2; lease_ms = 5000; resume = None };
      WC.Open_session { rid = 3; lease_ms = 0; resume = Some "ab%cd" };
      WC.Acquire
        { rid = 4; lock = "a/b"; timeout_ms = 250; try_only = true;
          shared = false };
      WC.Acquire
        { rid = 8; lock = "rw"; timeout_ms = 100; try_only = false;
          shared = true };
      WC.Release { rid = 5; lock = "" };
      WC.Renew { rid = 6 };
      WC.Close { rid = 7 };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true
        (WC.decode_request (WC.encode_request r) = r))
    reqs;
  let resps =
    [
      WC.Hello_ok { rid = 1; node = 3; proto = WC.version };
      WC.Session_opened
        {
          rid = 2;
          sid = "s";
          lease_ms = 100;
          grace_ms = 200;
          resumed = true;
          held = [ ("l1", 42); ("l2", 7) ];
        };
      WC.Granted { rid = 3; lock = "x"; fencing = 1 lsl 41 };
      WC.Rejected { rid = 4; reason = WC.Queue_full; retry_after_ms = 125 };
      WC.Released { rid = 5; lock = "x" };
      WC.Renewed { rid = 6; lease_ms = 5000 };
      WC.Closed { rid = 7 };
      WC.Session_lost { rid = 0; reason = "lease expired" };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "response round-trips" true
        (WC.decode_response (WC.encode_response r) = r))
    resps

let test_codec_version_mismatch () =
  let s = WC.encode_request (WC.Hello { rid = 1 }) in
  let bad = Bytes.of_string s in
  Bytes.set bad 0 (Char.chr (WC.version + 1));
  (match WC.decode_request (Bytes.to_string bad) with
  | _ -> Alcotest.fail "foreign version byte must be rejected"
  | exception Wire.Malformed _ -> ());
  let s = WC.encode_response (WC.Closed { rid = 1 }) in
  (match WC.decode_response (String.sub s 0 (String.length s - 1)) with
  | _ -> Alcotest.fail "truncated response must be rejected"
  | exception Wire.Malformed _ -> ())

(* ------------------------------------------------------------------ *)
(* Live-cluster scaffolding *)

let fast_cfg n =
  {
    (Dmutex.Resilient.config ~n ()) with
    Dmutex.Types.Config.t_collect = 0.02;
    t_forward = 0.02;
  }

let with_cluster ?(n = 3) ?(locks = [ "apex" ]) ~base_port ?lease_ms ?grace_ms
    ?max_sessions ?max_waiters f =
  let cluster = RC.launch ~base_port ~locks (fast_cfg n) in
  let servers =
    Array.init n (fun i ->
        S.create ?lease_ms ?grace_ms ?max_sessions ?max_waiters
          ~fencing:Dmutex_store.Protocol_view.fencing_of_state
          ~node:(RC.node cluster i)
          ~addr:{ Netkit.Transport.host = "127.0.0.1"; port = 0 }
          ())
  in
  let addrs =
    Array.to_list
      (Array.map
         (fun s -> { Netkit.Transport.host = "127.0.0.1"; port = S.port s })
         servers)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter S.shutdown servers;
      RC.shutdown cluster)
    (fun () -> f cluster servers addrs)

(* Raw client: blocking frames on a socket, no renewal, no retries. *)
let raw_connect (ep : Netkit.Transport.endpoint) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string ep.host, ep.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let raw_send fd req = Netkit.Session_frame.send fd (WC.encode_request req)
let raw_recv fd = WC.decode_response (Netkit.Session_frame.recv fd)

let raw_rpc fd req =
  raw_send fd req;
  raw_recv fd

let raw_open ?(lease_ms = 400) fd =
  (match raw_rpc fd (WC.Hello { rid = 1 }) with
  | WC.Hello_ok _ -> ()
  | r -> Alcotest.failf "hello: unexpected %s" (match r with _ -> "response"));
  match raw_rpc fd (WC.Open_session { rid = 2; lease_ms; resume = None }) with
  | WC.Session_opened { sid; _ } -> sid
  | _ -> Alcotest.fail "open failed"

(* ------------------------------------------------------------------ *)
(* Grants and fencing *)

let test_acquire_release_fencing () =
  with_cluster ~base_port:9101 (fun _cluster servers addrs ->
      let cl = SC.connect ~seed:1 ~addrs () in
      let f1 =
        match SC.acquire ~timeout:20.0 ~lock:"apex" cl with
        | Ok f -> f
        | Error e -> Alcotest.failf "acquire 1: %s" (SC.string_of_error e)
      in
      (match SC.release ~lock:"apex" cl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "release 1: %s" (SC.string_of_error e));
      let f2 =
        match SC.acquire ~timeout:20.0 ~lock:"apex" cl with
        | Ok f -> f
        | Error e -> Alcotest.failf "acquire 2: %s" (SC.string_of_error e)
      in
      Alcotest.(check bool) "fencing strictly monotonic" true (f2 > f1);
      (match SC.release ~lock:"apex" cl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "release 2: %s" (SC.string_of_error e));
      Alcotest.(check bool)
        "server remembers last fencing" true
        (Array.exists (fun s -> S.last_fencing s ~lock:"apex" = Some f2) servers);
      SC.close cl)

let test_swarm_mutual_exclusion () =
  (* Many clients, one counter behind one lock: grants must serialize
     and every fencing token must be newer than the one before it. *)
  with_cluster ~base_port:9111 (fun _cluster _servers addrs ->
      let clients = 12 and rounds = 3 in
      let counter = ref 0 in
      let history = Dmutex.History.create () in
      let failures = Atomic.make 0 in
      let worker c () =
        let cl = SC.connect ~seed:(100 + c) ~addrs () in
        for _ = 1 to rounds do
          match
            SC.with_lock ~timeout:60.0 ~lock:"apex" cl (fun ~fencing ->
                Test_chaos.in_cs ~fencing history ~lock:"apex" ~holder:c
                  (fun () ->
                    let v = !counter in
                    Thread.delay 0.001;
                    counter := v + 1))
          with
          | Ok () -> ()
          | Error _ -> Atomic.incr failures
        done;
        SC.close cl
      in
      let threads =
        List.init clients (fun c -> Thread.create (worker c) ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "no failures" 0 (Atomic.get failures);
      Alcotest.(check int) "no lost increments" (clients * rounds) !counter;
      Test_chaos.check_safe history;
      Alcotest.(check int) "every grant admitted in fencing order"
        (clients * rounds) (Dmutex.History.report history).entries)

let test_try_acquire () =
  with_cluster ~base_port:9121 (fun _cluster _servers addrs ->
      let a = SC.connect ~seed:2 ~addrs () in
      let b = SC.connect ~seed:3 ~addrs () in
      (match SC.acquire ~timeout:20.0 ~lock:"apex" a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "holder: %s" (SC.string_of_error e));
      (match SC.try_acquire ~lock:"apex" b with
      | Error SC.Timeout -> ()
      | Ok _ -> Alcotest.fail "try_acquire must not steal a held lock"
      | Error e -> Alcotest.failf "try while held: %s" (SC.string_of_error e));
      (match SC.release ~lock:"apex" a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "release: %s" (SC.string_of_error e));
      (match SC.try_acquire ~lock:"apex" b with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "try when free: %s" (SC.string_of_error e));
      SC.close a;
      SC.close b)

(* ------------------------------------------------------------------ *)
(* Lease edges *)

let test_lease_expiry_in_cs () =
  (* A stalls inside its CS past the lease: the server drains the
     grant (protocol lock released) and B's later grant carries a
     strictly higher fencing token. *)
  with_cluster ~base_port:9131 ~lease_ms:400 (fun _cluster servers addrs ->
      let fd = raw_connect (List.nth addrs 0) in
      let _sid = raw_open ~lease_ms:400 fd in
      raw_send fd
        (WC.Acquire { rid = 10; lock = "apex"; timeout_ms = 10_000; try_only = false; shared = false });
      let fa =
        match raw_recv fd with
        | WC.Granted { fencing; _ } -> fencing
        | _ -> Alcotest.fail "raw grant"
      in
      (* Stall: no renewals, no release. The next frame on this socket
         must be the unsolicited lease-expiry Session_lost. *)
      (match raw_recv fd with
      | WC.Session_lost { rid = 0; _ } -> ()
      | _ -> Alcotest.fail "expected unsolicited Session_lost");
      let b = SC.connect ~seed:4 ~addrs:[ List.nth addrs 1 ] () in
      let fb =
        match SC.acquire ~timeout:20.0 ~lock:"apex" b with
        | Ok f -> f
        | Error e -> Alcotest.failf "B after expiry: %s" (SC.string_of_error e)
      in
      Alcotest.(check bool) "fencing advanced past drained grant" true (fb > fa);
      ignore (SC.release ~lock:"apex" b);
      SC.close b;
      (try Unix.close fd with _ -> ());
      Alcotest.(check bool) "server counted an expiry" true
        ((S.stats servers.(0)).S.expired >= 1))

let test_renewal_racing_expiry () =
  (* Renew arriving after the sweeper expired the session must lose
     loudly, never silently revive the lease. *)
  with_cluster ~base_port:9141 ~lease_ms:300 (fun _cluster _servers addrs ->
      let fd = raw_connect (List.nth addrs 0) in
      let _sid = raw_open ~lease_ms:300 fd in
      Thread.delay 0.8 (* comfortably past lease + sweep period *);
      (* The expiry notice is already queued on the socket; the renew
         reply follows it. *)
      raw_send fd (WC.Renew { rid = 11 });
      let saw_lost = ref false and saw_renewed = ref false in
      (try
         for _ = 1 to 2 do
           match raw_recv fd with
           | WC.Session_lost _ -> saw_lost := true
           | WC.Renewed _ -> saw_renewed := true
           | _ -> ()
         done
       with _ -> ());
      Alcotest.(check bool) "renewal lost loudly" true !saw_lost;
      Alcotest.(check bool) "renewal must not revive" false !saw_renewed;
      try Unix.close fd with _ -> ())

let test_dead_client_queued_cancelled () =
  (* B queues behind A, then B dies (lease lapses while waiting). When
     A finally releases, B's request must have been cancelled — the
     grant may not be issued to a dead session. *)
  with_cluster ~base_port:9151 ~lease_ms:400 (fun _cluster servers addrs ->
      let a = SC.connect ~seed:5 ~addrs:[ List.nth addrs 0 ] () in
      (match SC.acquire ~timeout:20.0 ~lock:"apex" a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "A: %s" (SC.string_of_error e));
      let fdb = raw_connect (List.nth addrs 0) in
      let _sidb = raw_open ~lease_ms:400 fdb in
      raw_send fdb
        (WC.Acquire { rid = 20; lock = "apex"; timeout_ms = 20_000; try_only = false; shared = false });
      (* B now stalls without renewing; its lease lapses while queued. *)
      (match raw_recv fdb with
      | WC.Session_lost { rid = 0; _ } -> ()
      | WC.Granted _ -> Alcotest.fail "dead session must not be granted"
      | _ -> Alcotest.fail "expected B's lease expiry");
      (match SC.release ~lock:"apex" a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "A release: %s" (SC.string_of_error e));
      (* The lock is free and B got nothing: C can take it. *)
      let c = SC.connect ~seed:6 ~addrs () in
      (match SC.acquire ~timeout:20.0 ~lock:"apex" c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "C: %s" (SC.string_of_error e));
      ignore (SC.release ~lock:"apex" c);
      SC.close c;
      SC.close a;
      (try Unix.close fdb with _ -> ());
      Alcotest.(check bool) "B's grant was never issued" true
        ((S.stats servers.(0)).S.granted <= 3))

(* ------------------------------------------------------------------ *)
(* Failover and shedding *)

let test_failover_resume () =
  (* Break the TCP connection under a held lock: the client must
     reconnect, resume by sid, and still know its grant. *)
  with_cluster ~base_port:9161 (fun _cluster _servers addrs ->
      let cl = SC.connect ~seed:7 ~addrs () in
      let f1 =
        match SC.acquire ~timeout:20.0 ~lock:"apex" cl with
        | Ok f -> f
        | Error e -> Alcotest.failf "acquire: %s" (SC.string_of_error e)
      in
      let sid_before = SC.session_id cl in
      SC.break_conn cl;
      (match SC.renew cl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "renew after break: %s" (SC.string_of_error e));
      Alcotest.(check bool) "same session resumed" true
        (SC.session_id cl = sid_before);
      (match SC.release ~lock:"apex" cl with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "release after resume: %s" (SC.string_of_error e));
      let f2 =
        match SC.acquire ~timeout:20.0 ~lock:"apex" cl with
        | Ok f -> f
        | Error e -> Alcotest.failf "reacquire: %s" (SC.string_of_error e)
      in
      Alcotest.(check bool) "fencing kept advancing" true (f2 > f1);
      ignore (SC.release ~lock:"apex" cl);
      SC.close cl)

let test_failover_to_other_node () =
  (* The node hosting the session shuts its session service down; a
     client with no grants silently fails over, one with grants loses
     its session loudly — then recovers with a fresh one. *)
  with_cluster ~base_port:9171 ~lease_ms:600 (fun _cluster servers addrs ->
      let idle =
        SC.connect ~seed:8 ~addrs:[ List.nth addrs 0; List.nth addrs 1 ] ()
      in
      ignore (SC.acquire ~timeout:20.0 ~lock:"apex" idle);
      ignore (SC.release ~lock:"apex" idle);
      let holder =
        SC.connect ~seed:9 ~addrs:[ List.nth addrs 0; List.nth addrs 1 ] ()
      in
      (match SC.acquire ~timeout:20.0 ~lock:"apex" holder with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "holder: %s" (SC.string_of_error e));
      S.shutdown servers.(0);
      (* Holder: loses the session loudly exactly once... *)
      let lost =
        match SC.acquire ~timeout:10.0 ~lock:"apex" holder with
        | Error (SC.Session_lost _) -> true
        | Ok _ -> false
        | Error e -> Alcotest.failf "holder fate: %s" (SC.string_of_error e)
      in
      Alcotest.(check bool) "grants lost loudly" true lost;
      (* ...then works again via node 1 on a fresh session. *)
      (match SC.acquire ~timeout:30.0 ~lock:"apex" holder with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "holder recovery: %s" (SC.string_of_error e));
      ignore (SC.release ~lock:"apex" holder);
      (* Idle client just fails over. *)
      (match SC.acquire ~timeout:30.0 ~lock:"apex" idle with
      | Ok _ -> ()
      | Error (SC.Session_lost _) -> (
          match SC.acquire ~timeout:30.0 ~lock:"apex" idle with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "idle retry: %s" (SC.string_of_error e))
      | Error e -> Alcotest.failf "idle failover: %s" (SC.string_of_error e));
      ignore (SC.release ~lock:"apex" idle);
      SC.close holder;
      SC.close idle)

let test_admission_cap () =
  with_cluster ~base_port:9181 ~max_sessions:2 (fun _cluster _servers addrs ->
      let ep = [ List.nth addrs 0 ] in
      let a = SC.connect ~seed:10 ~addrs:ep () in
      let b = SC.connect ~seed:11 ~addrs:ep () in
      (match SC.renew a with Ok () -> () | Error e -> Alcotest.failf "a: %s" (SC.string_of_error e));
      (match SC.renew b with Ok () -> () | Error e -> Alcotest.failf "b: %s" (SC.string_of_error e));
      let fd = raw_connect (List.nth addrs 0) in
      (match raw_rpc fd (WC.Hello { rid = 1 }) with
      | WC.Hello_ok _ -> ()
      | _ -> Alcotest.fail "hello");
      (match raw_rpc fd (WC.Open_session { rid = 2; lease_ms = 0; resume = None }) with
      | WC.Rejected { reason = WC.Session_limit; retry_after_ms; _ } ->
          Alcotest.(check bool) "retry-after hint" true (retry_after_ms > 0)
      | _ -> Alcotest.fail "third session must be shed");
      (try Unix.close fd with _ -> ());
      SC.close a;
      SC.close b)

let test_queue_cap () =
  with_cluster ~base_port:9191 ~max_waiters:1 (fun _cluster _servers addrs ->
      let ep = [ List.nth addrs 0 ] in
      let a = SC.connect ~seed:12 ~addrs:ep () in
      (match SC.acquire ~timeout:20.0 ~lock:"apex" a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "holder: %s" (SC.string_of_error e));
      (* One waiter fills the queue... *)
      let fdb = raw_connect (List.nth addrs 0) in
      let _ = raw_open ~lease_ms:5000 fdb in
      raw_send fdb
        (WC.Acquire { rid = 30; lock = "apex"; timeout_ms = 5_000; try_only = false; shared = false });
      Thread.delay 0.2;
      (* ...the next one is shed with an explicit retry-after. *)
      let fdc = raw_connect (List.nth addrs 0) in
      let _ = raw_open ~lease_ms:5000 fdc in
      (match
         raw_rpc fdc
           (WC.Acquire { rid = 31; lock = "apex"; timeout_ms = 5_000; try_only = false; shared = false })
       with
      | WC.Rejected { reason = WC.Queue_full; retry_after_ms; _ } ->
          Alcotest.(check bool) "retry-after hint" true (retry_after_ms > 0)
      | _ -> Alcotest.fail "over-cap waiter must be shed");
      (match
         raw_rpc fdc (WC.Acquire { rid = 32; lock = "nope"; timeout_ms = 100; try_only = false; shared = false })
       with
      | WC.Rejected { reason = WC.Unknown_lock; _ } -> ()
      | _ -> Alcotest.fail "unknown lock must be rejected");
      ignore (SC.release ~lock:"apex" a);
      SC.close a;
      (try Unix.close fdb with _ -> ());
      try Unix.close fdc with _ -> ())

(* ------------------------------------------------------------------ *)
(* Lock modes through the session layer *)

let test_shared_batch_grants () =
  (* Two readers pinned to different nodes: when their shared requests
     land in the same protocol window they are granted as one batch —
     concurrently, with one shared fencing token. Overlap is timing
     dependent (a shared waiter arriving after a batch dispatched
     serializes behind it), so we retry a few rounds until both
     readers are observed inside the CS at once. *)
  with_cluster ~base_port:9201 (fun _cluster _servers addrs ->
      let a = SC.connect ~seed:20 ~addrs:[ List.nth addrs 0 ] () in
      let b = SC.connect ~seed:21 ~addrs:[ List.nth addrs 1 ] () in
      let overlap_fencings = ref None in
      let rec round i =
        if i > 10 then ()
        else begin
          let inside = Atomic.make 0 in
          let overlapped = Atomic.make false in
          let fa = ref None and fb = ref None in
          let reader cl slot () =
            match
              SC.with_lock ~timeout:20.0 ~shared:true ~lock:"apex" cl
                (fun ~fencing ->
                  slot := Some fencing;
                  Atomic.incr inside;
                  (* Linger so the other reader has a chance to be in
                     the CS at the same time. *)
                  let t0 = Unix.gettimeofday () in
                  let rec spin () =
                    if Atomic.get inside >= 2 then Atomic.set overlapped true
                    else if Unix.gettimeofday () -. t0 < 0.5 then begin
                      Thread.delay 0.005;
                      spin ()
                    end
                  in
                  spin ();
                  ignore (Atomic.fetch_and_add inside (-1)))
            with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "shared acquire: %s" (SC.string_of_error e)
          in
          let t1 = Thread.create (reader a fa) () in
          let t2 = Thread.create (reader b fb) () in
          Thread.join t1;
          Thread.join t2;
          if Atomic.get overlapped then overlap_fencings := Some (!fa, !fb)
          else round (i + 1)
        end
      in
      round 1;
      let f_read =
        match !overlap_fencings with
        | Some (Some f1, Some f2) ->
            Alcotest.(check bool)
              "batched readers share one fencing token" true (f1 = f2);
            f1
        | _ -> Alcotest.fail "no concurrent shared grant observed in 10 rounds"
      in
      (* A writer after the batch advances fencing past the shared
         token and excludes readers while held. *)
      (match SC.acquire ~timeout:20.0 ~lock:"apex" a with
      | Ok fw ->
          Alcotest.(check bool)
            "writer fencing dominates the batch" true (fw > f_read)
      | Error e -> Alcotest.failf "writer: %s" (SC.string_of_error e));
      (match SC.try_acquire ~shared:true ~lock:"apex" b with
      | Error SC.Timeout -> ()
      | Ok _ -> Alcotest.fail "reader must not slip past a held writer"
      | Error e -> Alcotest.failf "reader vs writer: %s" (SC.string_of_error e));
      ignore (SC.release ~lock:"apex" a);
      SC.close a;
      SC.close b)

let test_rejected_vs_timeout () =
  (* A queue-side expiry is the *server's* verdict: the session
     sweeper rejects the expired waiter with Lock_timeout well inside
     the client's local deadline (server timeout + slack), so the
     caller sees Rejected — never the local Timeout, which is
     reserved for "no verdict arrived at all". *)
  with_cluster ~base_port:9211 (fun _cluster _servers addrs ->
      let a = SC.connect ~seed:22 ~addrs () in
      (match SC.acquire ~timeout:20.0 ~lock:"apex" a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "holder: %s" (SC.string_of_error e));
      let b = SC.connect ~seed:23 ~addrs () in
      (match SC.with_lock ~timeout:0.3 ~lock:"apex" b (fun ~fencing:_ -> ()) with
      | Error (SC.Rejected (WC.Lock_timeout, retry_after)) ->
          Alcotest.(check bool) "retry-after hint sane" true (retry_after >= 0.0)
      | Error SC.Timeout ->
          Alcotest.fail
            "queue expiry must surface as the server's Rejected, not the \
             local Timeout"
      | Ok () -> Alcotest.fail "must not be granted while held"
      | Error e -> Alcotest.failf "waiter: %s" (SC.string_of_error e));
      (* try_acquire keeps its distinct contract: busy is Timeout. *)
      (match SC.try_acquire ~lock:"apex" b with
      | Error SC.Timeout -> ()
      | Ok _ -> Alcotest.fail "try_acquire must not steal a held lock"
      | Error e -> Alcotest.failf "try: %s" (SC.string_of_error e));
      ignore (SC.release ~lock:"apex" a);
      SC.close a;
      SC.close b)

let suite =
  ( "session",
    [
      Alcotest.test_case "client codec round-trips" `Quick test_codec_roundtrip;
      Alcotest.test_case "client codec rejects foreign versions" `Quick
        test_codec_version_mismatch;
      Alcotest.test_case "acquire/release carries monotonic fencing" `Quick
        test_acquire_release_fencing;
      Alcotest.test_case "client swarm mutual exclusion" `Quick
        test_swarm_mutual_exclusion;
      Alcotest.test_case "try_acquire" `Quick test_try_acquire;
      Alcotest.test_case "lease expiry in CS drains and advances fencing"
        `Quick test_lease_expiry_in_cs;
      Alcotest.test_case "renewal racing expiry loses loudly" `Quick
        test_renewal_racing_expiry;
      Alcotest.test_case "dead client's queued acquire is cancelled" `Quick
        test_dead_client_queued_cancelled;
      Alcotest.test_case "failover resumes session by sid" `Quick
        test_failover_resume;
      Alcotest.test_case "failover to another node" `Quick
        test_failover_to_other_node;
      Alcotest.test_case "admission cap sheds with retry-after" `Quick
        test_admission_cap;
      Alcotest.test_case "queue cap sheds with retry-after" `Quick
        test_queue_cap;
      Alcotest.test_case "shared readers batch under one fencing token" `Quick
        test_shared_batch_grants;
      Alcotest.test_case "queue expiry is Rejected, local deadline is Timeout"
        `Quick test_rejected_vs_timeout;
    ] )
