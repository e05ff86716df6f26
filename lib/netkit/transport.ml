(* Reactor transport: framed TCP over an event-loop core.

   The previous transport spent a thread per inbound connection plus a
   writer thread per peer channel, one [Unix.write] per frame and a
   fresh [Bytes.create] per frame on both paths. This version runs one
   I/O event loop ({!Reactor}, on its own domain via [Simkit.Domainx])
   over non-blocking sockets:

   - outbound frames land in a per-peer ring buffer; the reactor
     serializes every queued frame — across all lock instances
     multiplexed on the connection — into one pooled flush buffer and
     pushes it with one [write] (a coalesced flush);
   - inbound bytes are read into a per-connection pooled buffer and
     parsed in place, many frames per syscall, with no per-frame
     allocation beyond the payload string handed to [on_frame];
   - heartbeats piggyback on traffic: a beacon is only emitted for a
     peer the transport has not written to for a full period, because
     any frame proves liveness to the receiver's monitor.

   Supervision semantics are unchanged from the writer-thread design:
   bounded per-peer queues shed new frames when full, reconnects use
   capped exponential backoff with jitter, a frame gets a bounded
   number of connect attempts before it is shed (DME tolerates loss by
   design), the chaos [Fault] connectivity filter is honoured at send,
   flush and receive time, and the full metrics contract
   (sent/delivered/dropped/retries/reconnects, mirrored into [?obs])
   survives, extended with flush observability
   (flushes/frames-per-flush). *)

type endpoint = { host : string; port : int }

let pp_endpoint ppf e = Format.fprintf ppf "%s:%d" e.host e.port

let src_log = Logs.Src.create "netkit.transport" ~doc:"framed TCP transport"

module Log = (val Logs.src_log src_log)

type metrics = {
  sent : int;
  delivered : int;
  dropped : int;
  retries : int;
  reconnects : int;
  flushes : int;
  queue_depth : int;
}

let pp_metrics ppf m =
  Format.fprintf ppf
    "sent=%d delivered=%d dropped=%d retries=%d reconnects=%d flushes=%d \
     queued=%d"
    m.sent m.delivered m.dropped m.retries m.reconnects m.flushes
    m.queue_depth

let backoff_floor = 0.05
let backoff_cap = 1.0
let connect_attempts_per_frame = 6
let connect_timeout = 1.0
let max_frame_len = 64 * 1024 * 1024

(* Stop topping up a flush batch past this many serialized bytes; the
   remainder goes in the next flush. *)
let flush_bytes_cap = 256 * 1024

(* Bound on each per-peer ring; a send to a full ring is shed. *)
let max_queue = 1024

(* ------------------------------------------------------------------ *)
(* Coalesced flush buffer: frames serialize into one pooled [Bytes.t]
   — length prefix, wire-v2 header and payload written in place, no
   per-frame allocation. Also the unit benched by
   [kernel:transport-flush]. *)

module Flush = struct
  type t = { mutable b : Bytes.t; mutable len : int }

  let create () = { b = Bufpool.take Bufpool.min_size; len = 0 }
  let length t = t.len
  let reset t = t.len <- 0

  let release t =
    Bufpool.give t.b;
    t.b <- Bytes.create 0

  let add_frame t ~src ~lock kind payload =
    let hl = Wire.Frame.header_len ~lock in
    let pl = String.length payload in
    let total = 4 + hl + pl in
    if t.len + total > Bytes.length t.b then
      t.b <- Bufpool.grow t.b ~len:t.len (t.len + total);
    Bytes.set_int32_be t.b t.len (Int32.of_int (hl + pl));
    let p = Wire.Frame.blit_header t.b ~pos:(t.len + 4) ~src ~lock kind in
    Bytes.blit_string payload 0 t.b p pl;
    t.len <- t.len + total

  (* One write syscall from [pos]; returns bytes written. *)
  let write t fd ~pos = Unix.write fd t.b pos (t.len - pos)
end

(* ------------------------------------------------------------------ *)
(* Per-peer outbound ring buffer.                                      *)

type item = {
  i_kind : Wire.Frame.kind;
  i_lock : string;
  i_payload : string;
  i_counted : bool;
  mutable i_attempts : int;
}

module Ring = struct
  type t = {
    mutable buf : item array;
    mutable head : int;
    mutable len : int;
    cap : int; (* enqueue bound; requeue may transiently exceed it *)
  }

  let dummy =
    {
      i_kind = Wire.Frame.Heartbeat;
      i_lock = "";
      i_payload = "";
      i_counted = false;
      i_attempts = 0;
    }

  let create cap = { buf = Array.make (max 8 (min cap 64)) dummy; head = 0; len = 0; cap }
  let length t = t.len
  let is_full t = t.len >= t.cap

  let grow t need =
    if need > Array.length t.buf then begin
      let cap' = max need (2 * Array.length t.buf) in
      let buf' = Array.make cap' dummy in
      for k = 0 to t.len - 1 do
        buf'.(k) <- t.buf.((t.head + k) mod Array.length t.buf)
      done;
      t.buf <- buf';
      t.head <- 0
    end

  let push t it =
    grow t (t.len + 1);
    t.buf.((t.head + t.len) mod Array.length t.buf) <- it;
    t.len <- t.len + 1

  let push_front t it =
    grow t (t.len + 1);
    t.head <- (t.head + Array.length t.buf - 1) mod Array.length t.buf;
    t.buf.(t.head) <- it;
    t.len <- t.len + 1

  let pop t =
    let it = t.buf.(t.head) in
    t.buf.(t.head) <- dummy;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    it

  (* Remove items failing [keep], in order; returns the removed. *)
  let reject t keep =
    let kept = ref [] and gone = ref [] in
    for _ = 1 to t.len do
      let it = pop t in
      if keep it then kept := it :: !kept else gone := it :: !gone
    done;
    List.iter (push t) (List.rev !kept);
    List.rev !gone
end

(* ------------------------------------------------------------------ *)

type obs_handles = {
  o_sent : Dmutex_obs.Registry.Counter.handle;
  o_delivered : Dmutex_obs.Registry.Counter.handle;
  o_dropped : Dmutex_obs.Registry.Counter.handle;
  o_retries : Dmutex_obs.Registry.Counter.handle;
  o_reconnects : Dmutex_obs.Registry.Counter.handle;
  o_flushes : Dmutex_obs.Registry.Counter.handle;
  o_frames_per_flush : Dmutex_obs.Registry.Histogram.handle;
  o_queue_depth : Dmutex_obs.Registry.Gauge.handle;
}

(* Outbound connection state, owned by the reactor. *)
type conn =
  | Off
  | Connecting of Unix.file_descr * float (* fd, give-up deadline *)
  | On of Unix.file_descr

type peer = {
  dst : int;
  mu : Mutex.t; (* guards [ring] *)
  ring : Ring.t;
  retired : bool Atomic.t;
      (* Excised from the membership view: sends are shed, the
         connection is torn down by the reactor, and the slot
         stays dead until [add_peer] revives it (a rejoin). *)
  mutable endpoint : endpoint; (* may be re-pointed on rejoin *)
  (* Everything below is touched only by the reactor. *)
  mutable conn : conn;
  mutable next_attempt : float;
  mutable backoff : float;
  mutable connected_once : bool;
  fb : Flush.t;
  mutable fb_pos : int; (* first unwritten byte of [fb] *)
  mutable inflight : (item * int) list; (* serialized items, end offsets *)
  mutable last_tx : float; (* last successful write, for hb piggyback *)
}

(* Inbound connection: a pooled parse buffer refilled in place. *)
type iconn = {
  ic_fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int; (* valid bytes *)
  mutable rpos : int; (* parse cursor *)
}

type t = {
  me : int;
  mutable peers : endpoint array;
  on_frame : src:int -> lock:string -> string -> unit;
  on_heartbeat : src:int -> unit;
  fault : Fault.t option;
  listener : Unix.file_descr;
  mutable ps : peer array;
  peers_mu : Mutex.t; (* guards replacement of [peers]/[ps] *)
  reactor : Reactor.t;
  iconns : (Unix.file_descr, iconn) Hashtbl.t; (* reactor-owned *)
  heartbeat_period : float option;
  hb_next : float ref; (* reactor-owned *)
  obs : obs_handles option;
  stats : Mutex.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable retries : int;
  mutable reconnects : int;
  mutable flushes : int;
  closed : bool Atomic.t;
  mutable loss : float;
  loss_rng : Random.State.t;
  backoff_rng : Random.State.t;
  cork_depth : int Atomic.t;
  pending_wake : bool Atomic.t;
}

let closed t = Atomic.get t.closed

let bump t f =
  Mutex.lock t.stats;
  f t;
  Mutex.unlock t.stats

let obs_incr t pick =
  match t.obs with
  | Some h -> Dmutex_obs.Registry.Counter.incr (pick h)
  | None -> ()

let count_dropped t counted =
  if counted then begin
    bump t (fun t -> t.dropped <- t.dropped + 1);
    obs_incr t (fun h -> h.o_dropped)
  end

let count_retry t =
  bump t (fun t -> t.retries <- t.retries + 1);
  obs_incr t (fun h -> h.o_retries)

let jittered t backoff =
  let j =
    Mutex.lock t.stats;
    let j = Random.State.float t.backoff_rng 1.0 in
    Mutex.unlock t.stats;
    j
  in
  backoff *. (0.5 +. j)

(* ------------------------------------------------------------------ *)
(* Waking and corking.

   Senders never touch the reactor state; they push into the ring and
   wake the reactor through a deduplicated flag, so a burst of
   sends costs at most one pipe write. [cork]/[uncork] suspend even
   that: while corked, wakes are latched and delivered on the last
   uncork — the protocol layer corks around a state-machine step so
   every frame the step emits rides one reactor pass (and usually one
   coalesced flush per peer). *)

let wake_reactor t =
  Atomic.set t.pending_wake true;
  if Atomic.get t.cork_depth = 0 then
    if Atomic.exchange t.pending_wake false then Reactor.wake t.reactor

let cork t = ignore (Atomic.fetch_and_add t.cork_depth 1)

let uncork t =
  if Atomic.fetch_and_add t.cork_depth (-1) = 1 then
    if Atomic.exchange t.pending_wake false then Reactor.wake t.reactor

(* ------------------------------------------------------------------ *)
(* Send path (any thread).                                             *)

let enqueue t ~dst ~counted ~kind ~lock payload =
  let pe = t.ps.(dst) in
  Mutex.lock pe.mu;
  let ok =
    if closed t then false
    else if Ring.is_full pe.ring then begin
      count_dropped t counted;
      false
    end
    else begin
      Ring.push pe.ring
        {
          i_kind = kind;
          i_lock = lock;
          i_payload = payload;
          i_counted = counted;
          i_attempts = 0;
        };
      true
    end
  in
  Mutex.unlock pe.mu;
  if ok then wake_reactor t;
  ok

let send_kind t ~dst ~lock ~counted kind payload =
  if closed t || dst = t.me || dst < 0 || dst >= Array.length t.ps then
    false
  else if Atomic.get t.ps.(dst).retired then begin
    (* The membership view excised this peer: the network ate it, as
       far as the protocol is concerned. *)
    count_dropped t counted;
    true
  end
  else begin
    let lost =
      Mutex.lock t.stats;
      let l = t.loss > 0.0 && Random.State.float t.loss_rng 1.0 < t.loss in
      Mutex.unlock t.stats;
      l
    in
    let severed =
      match t.fault with
      | None -> false
      | Some f -> not (Fault.reachable f ~src:t.me ~dst)
    in
    if lost || severed then begin
      (* Chaos mode: the network ate it. The caller sees success (that
         is the point) but the counters record a drop, never a send —
         matching [Simkit.Network] accounting. *)
      count_dropped t counted;
      true
    end
    else enqueue t ~dst ~counted ~kind ~lock payload
  end

let send t ~dst ?(lock = "") payload =
  send_kind t ~dst ~lock ~counted:true Wire.Frame.Data payload

let broadcast t ?(lock = "") payload =
  let ok = ref 0 in
  cork t;
  let ps = t.ps in
  for dst = 0 to Array.length ps - 1 do
    if dst <> t.me && (not (Atomic.get ps.(dst).retired))
       && send t ~dst ~lock payload
    then incr ok
  done;
  uncork t;
  !ok

(* ------------------------------------------------------------------ *)
(* Outbound reactor side: connect, coalesce, flush.                    *)

let set_write_interest t fd w =
  Reactor.modify t.reactor fd ~read:false ~write:w

let close_conn_fd t pe fd =
  Reactor.remove t.reactor fd;
  (try Unix.close fd with _ -> ());
  pe.conn <- Off

(* A connect attempt failed: every queued frame ages by one attempt
   and frames over budget are shed — the peer looks gone, and the
   queue must keep draining (DME tolerates loss by design). *)
let connect_failed t pe now =
  count_retry t;
  Mutex.lock pe.mu;
  let shed =
    Ring.reject pe.ring (fun it ->
        it.i_attempts <- it.i_attempts + 1;
        it.i_attempts < connect_attempts_per_frame)
  in
  Mutex.unlock pe.mu;
  List.iter (fun it -> count_dropped t it.i_counted) shed;
  if shed <> [] then
    Log.debug (fun m ->
        m "node %d: shedding %d frame(s) for dead peer %d" t.me
          (List.length shed) pe.dst);
  pe.next_attempt <- now +. jittered t pe.backoff;
  pe.backoff <- Float.min backoff_cap (pe.backoff *. 2.0)

let conn_broken t pe fd =
  count_retry t;
  close_conn_fd t pe fd;
  (* Requeue the frames of the interrupted flush that were not fully
     handed to the kernel, preserving order: nothing queued is lost
     across a reconnect. (A frame cut mid-write is re-sent whole —
     the receiver's stream ended inside it, so it never decoded.) *)
  let unsent =
    List.filter (fun (_, e) -> e > pe.fb_pos) pe.inflight |> List.map fst
  in
  Mutex.lock pe.mu;
  List.iter (fun it -> Ring.push_front pe.ring it) (List.rev unsent);
  Mutex.unlock pe.mu;
  Flush.reset pe.fb;
  pe.fb_pos <- 0;
  pe.inflight <- [];
  let now = Unix.gettimeofday () in
  pe.next_attempt <- now +. jittered t pe.backoff;
  pe.backoff <- Float.min backoff_cap (pe.backoff *. 2.0)

let ring_pending pe =
  Mutex.lock pe.mu;
  let n = Ring.length pe.ring in
  Mutex.unlock pe.mu;
  n > 0

(* Serialize queued frames (bounded by [flush_bytes_cap]) into the
   peer's pooled flush buffer. Chaos connectivity is re-checked per
   frame so a frame queued just before a crash/partition still
   honours it. *)
let refill t pe =
  Flush.reset pe.fb;
  pe.fb_pos <- 0;
  pe.inflight <- [];
  let frames = ref 0 in
  Mutex.lock pe.mu;
  while Flush.length pe.fb < flush_bytes_cap && Ring.length pe.ring > 0 do
    let it = Ring.pop pe.ring in
    let reachable =
      match t.fault with
      | None -> true
      | Some f -> Fault.reachable f ~src:t.me ~dst:pe.dst
    in
    if reachable then begin
      Flush.add_frame pe.fb ~src:t.me ~lock:it.i_lock it.i_kind it.i_payload;
      incr frames;
      pe.inflight <- (it, Flush.length pe.fb) :: pe.inflight
    end
    else count_dropped t it.i_counted
  done;
  Mutex.unlock pe.mu;
  pe.inflight <- List.rev pe.inflight;
  if !frames > 0 then begin
    match t.obs with
    | Some h ->
        Dmutex_obs.Registry.Histogram.observe h.o_frames_per_flush
          (float_of_int !frames)
    | None -> ()
  end

(* Push the flush buffer out; top it up and keep writing while the
   socket accepts whole buffers. *)
let rec flush_peer t pe fd now =
  if pe.fb_pos >= Flush.length pe.fb then refill t pe;
  let remaining = Flush.length pe.fb - pe.fb_pos in
  if remaining = 0 then set_write_interest t fd false
  else
    match Flush.write pe.fb fd ~pos:pe.fb_pos with
    | n ->
        pe.fb_pos <- pe.fb_pos + n;
        pe.last_tx <- now;
        bump t (fun t -> t.flushes <- t.flushes + 1);
        obs_incr t (fun h -> h.o_flushes);
        let rec settle () =
          match pe.inflight with
          | (it, e) :: rest when e <= pe.fb_pos ->
              if it.i_counted then begin
                bump t (fun t -> t.sent <- t.sent + 1);
                obs_incr t (fun h -> h.o_sent)
              end;
              pe.inflight <- rest;
              settle ()
          | _ -> ()
        in
        settle ();
        if pe.fb_pos < Flush.length pe.fb then set_write_interest t fd true
        else if ring_pending pe then flush_peer t pe fd now
        else set_write_interest t fd false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        set_write_interest t fd true
    | exception (Unix.Unix_error _ | Sys_error _) -> conn_broken t pe fd

let on_connected t pe fd now =
  pe.conn <- On fd;
  if pe.connected_once then begin
    bump t (fun t -> t.reconnects <- t.reconnects + 1);
    obs_incr t (fun h -> h.o_reconnects)
  end;
  pe.connected_once <- true;
  pe.backoff <- backoff_floor;
  flush_peer t pe fd now

let rec start_connect t pe now upd =
  let ep = pe.endpoint in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string ep.host, ep.port))
  with
  | () ->
      Reactor.add t.reactor fd ~read:false ~write:false
        (fun ~readable:_ ~writable:_ ->
          conn_event t pe fd);
      on_connected t pe fd now
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
      let deadline = now +. connect_timeout in
      pe.conn <- Connecting (fd, deadline);
      Reactor.add t.reactor fd ~read:false ~write:true
        (fun ~readable:_ ~writable ->
          if writable then conn_event t pe fd);
      upd deadline
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with _ -> ());
      connect_failed t pe now;
      upd pe.next_attempt

(* Writability on an outbound socket: either a pending connect
   resolved, or a partial flush can continue. *)
and conn_event t pe fd =
  if not (closed t) then
    let now = Unix.gettimeofday () in
    match pe.conn with
    | Connecting (cfd, _) when cfd = fd -> (
        match Unix.getsockopt_error fd with
        | None ->
            Reactor.modify t.reactor fd ~read:false ~write:false;
            on_connected t pe fd now
        | Some _ ->
            close_conn_fd t pe fd;
            connect_failed t pe now)
    | On cfd when cfd = fd -> flush_peer t pe fd now
    | _ -> ()

(* A peer the view excised: tear the connection down and drain its
   ring — nothing queued for a dead member may linger or requeue. *)
let drain_retired t pe =
  (match pe.conn with
  | On fd | Connecting (fd, _) -> close_conn_fd t pe fd
  | Off -> ());
  Flush.reset pe.fb;
  pe.fb_pos <- 0;
  pe.inflight <- [];
  Mutex.lock pe.mu;
  let gone = Ring.reject pe.ring (fun _ -> false) in
  Mutex.unlock pe.mu;
  List.iter (fun it -> count_dropped t it.i_counted) gone

(* Per-iteration service of one peer: shed/connect/flush as its state
   demands, folding the peer's nearest deadline into [upd]. *)
let service_peer t pe now upd =
  if Atomic.get pe.retired then drain_retired t pe
  else
  match pe.conn with
  | On fd ->
      if ring_pending pe || pe.fb_pos < Flush.length pe.fb then
        flush_peer t pe fd now
  | Connecting (fd, deadline) ->
      if now >= deadline then begin
        close_conn_fd t pe fd;
        connect_failed t pe now;
        upd pe.next_attempt
      end
      else upd deadline
  | Off ->
      if ring_pending pe then
        if now >= pe.next_attempt then start_connect t pe now upd
        else upd pe.next_attempt

(* ------------------------------------------------------------------ *)
(* Inbound reactor side: accept, buffered parse, dispatch.             *)

let close_iconn t ic =
  Reactor.remove t.reactor ic.ic_fd;
  Hashtbl.remove t.iconns ic.ic_fd;
  (try Unix.close ic.ic_fd with _ -> ());
  Bufpool.give ic.rbuf;
  ic.rbuf <- Bytes.create 0

exception Bad_stream of string

(* Parse every complete frame sitting in [ic.rbuf]. *)
let parse_frames t ic =
  let continue = ref true in
  while !continue && ic.rlen - ic.rpos >= 4 do
    let len = Int32.to_int (Bytes.get_int32_be ic.rbuf ic.rpos) in
    if len < 0 || len > max_frame_len then
      raise (Bad_stream (Printf.sprintf "bad frame length %d" len));
    if ic.rlen - ic.rpos - 4 < len then begin
      (* Incomplete: make sure the buffer can hold the whole frame,
         compacting parsed bytes away first. *)
      if ic.rpos > 0 then begin
        Bytes.blit ic.rbuf ic.rpos ic.rbuf 0 (ic.rlen - ic.rpos);
        ic.rlen <- ic.rlen - ic.rpos;
        ic.rpos <- 0
      end;
      if 4 + len > Bytes.length ic.rbuf then
        ic.rbuf <- Bufpool.grow ic.rbuf ~len:ic.rlen (4 + len);
      continue := false
    end
    else begin
      let off = ic.rpos + 4 in
      let h = Wire.Frame.decode_header_bytes ic.rbuf ~off ~len in
      let src = h.Wire.Frame.src in
      (* The upper bound is soft: a joiner's frames arrive before the
         local peer table has a slot for it (its JOIN-REQUEST is what
         creates one). Ids that cannot be node ids are still garbage. *)
      if src < 0 || src > 0xFFFF || src = t.me then
        raise (Wire.Malformed (Printf.sprintf "bad sender id %d" src));
      let admit =
        match t.fault with
        | None -> true
        | Some f -> Fault.reachable f ~src ~dst:t.me
      in
      (if admit then
         match h.Wire.Frame.kind with
         | Wire.Frame.Heartbeat -> t.on_heartbeat ~src
         | Wire.Frame.Data ->
             let payload =
               Bytes.sub_string ic.rbuf
                 (off + h.Wire.Frame.payload_start)
                 (len - h.Wire.Frame.payload_start)
             in
             bump t (fun t -> t.delivered <- t.delivered + 1);
             obs_incr t (fun h -> h.o_delivered);
             t.on_frame ~src ~lock:h.Wire.Frame.lock payload
       else count_dropped t (h.Wire.Frame.kind = Wire.Frame.Data));
      ic.rpos <- ic.rpos + 4 + len
    end
  done;
  if ic.rpos = ic.rlen then begin
    ic.rpos <- 0;
    ic.rlen <- 0
  end

let iconn_readable t ic =
  try
    let progress = ref true in
    let budget = ref 8 in
    while !progress && !budget > 0 do
      decr budget;
      progress := false;
      (* Keep headroom to read into. *)
      if ic.rlen = Bytes.length ic.rbuf then
        if ic.rpos > 0 then begin
          Bytes.blit ic.rbuf ic.rpos ic.rbuf 0 (ic.rlen - ic.rpos);
          ic.rlen <- ic.rlen - ic.rpos;
          ic.rpos <- 0
        end
        else ic.rbuf <- Bufpool.grow ic.rbuf ~len:ic.rlen (2 * ic.rlen);
      match
        Unix.read ic.ic_fd ic.rbuf ic.rlen (Bytes.length ic.rbuf - ic.rlen)
      with
      | 0 -> raise End_of_file
      | n ->
          ic.rlen <- ic.rlen + n;
          parse_frames t ic;
          progress := true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
    done
  with
  | End_of_file | Unix.Unix_error _ -> close_iconn t ic
  | Bad_stream msg | Failure msg | Wire.Malformed msg ->
      Log.warn (fun m -> m "reader stopped: %s" msg);
      close_iconn t ic

let register_inbound t fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  let ic = { ic_fd = fd; rbuf = Bufpool.take Bufpool.min_size; rlen = 0; rpos = 0 } in
  Hashtbl.replace t.iconns fd ic;
  Reactor.add t.reactor fd ~read:true ~write:false
    (fun ~readable ~writable:_ -> if readable then iconn_readable t ic)

let listener_readable t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listener with
    | fd, _ -> register_inbound t fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* The reactor tick: heartbeats, then every peer. Returns the earliest
   deadline the reactor must wake for. *)

let tick t now =
  if closed t then None
  else begin
    let next = ref None in
    let upd d =
      match !next with
      | None -> next := Some d
      | Some d' -> if d < d' then next := Some d
    in
    (match t.heartbeat_period with
    | Some p ->
        if now >= !(t.hb_next) then begin
          let ps = t.ps in
          for dst = 0 to Array.length ps - 1 do
            (* Piggybacking: any frame written within the last period
               already proved liveness to [dst]'s monitor — only emit
               a beacon for peers the transport has been silent to. *)
            if
              dst <> t.me
              && (not (Atomic.get ps.(dst).retired))
              && now -. ps.(dst).last_tx >= p
            then
              ignore
                (send_kind t ~dst ~lock:"" ~counted:false Wire.Frame.Heartbeat
                   "")
          done;
          t.hb_next := now +. p
        end;
        upd !(t.hb_next)
    | None -> ());
    Array.iter
      (fun pe -> if pe.dst <> t.me then service_peer t pe now upd)
      t.ps;
    !next
  end

(* ------------------------------------------------------------------ *)

let make_peer ~retired dst endpoint =
  {
    dst;
    mu = Mutex.create ();
    ring = Ring.create max_queue;
    retired = Atomic.make retired;
    endpoint;
    conn = Off;
    next_attempt = 0.0;
    backoff = backoff_floor;
    connected_once = false;
    fb = Flush.create ();
    fb_pos = 0;
    inflight = [];
    last_tx = 0.0;
  }

let create ?fault ?heartbeat_period ?(seed = 0x10ad)
    ?(on_heartbeat = fun ~src:_ -> ()) ?obs ~me ~peers ~on_frame () =
  (* A write to a peer that closed mid-stream must surface as [EPIPE]
     for the flush path to handle, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let ep = peers.(me) in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener
    (Unix.ADDR_INET (Unix.inet_addr_of_string ep.host, ep.port));
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let reactor = Reactor.create () in
  let ps =
    Array.init (Array.length peers) (fun dst ->
        make_peer ~retired:false dst peers.(dst))
  in
  let now = Unix.gettimeofday () in
  let t =
    {
      me;
      peers = Array.copy peers;
      on_frame;
      on_heartbeat;
      fault;
      listener;
      ps;
      peers_mu = Mutex.create ();
      reactor;
      iconns = Hashtbl.create 8;
      heartbeat_period;
      hb_next = ref (now +. Option.value ~default:0.0 heartbeat_period);
      obs =
        Option.map
          (fun reg ->
            let open Dmutex_obs in
            {
              o_sent = Registry.Counter.get reg Names.transport_sent_total;
              o_delivered =
                Registry.Counter.get reg Names.transport_delivered_total;
              o_dropped =
                Registry.Counter.get reg Names.transport_dropped_total;
              o_retries =
                Registry.Counter.get reg Names.transport_retries_total;
              o_reconnects =
                Registry.Counter.get reg Names.transport_reconnects_total;
              o_flushes =
                Registry.Counter.get reg Names.transport_flushes_total;
              o_frames_per_flush =
                Registry.Histogram.get reg Names.transport_frames_per_flush;
              o_queue_depth =
                Registry.Gauge.get reg Names.transport_queue_depth;
            })
          obs;
      stats = Mutex.create ();
      sent = 0;
      delivered = 0;
      dropped = 0;
      retries = 0;
      reconnects = 0;
      flushes = 0;
      closed = Atomic.make false;
      loss = 0.0;
      loss_rng = Random.State.make [| seed; me |];
      backoff_rng = Random.State.make [| seed; me; 0xb0ff |];
      cork_depth = Atomic.make 0;
      pending_wake = Atomic.make false;
    }
  in
  Reactor.add reactor listener ~read:true ~write:false
    (fun ~readable ~writable:_ -> if readable then listener_readable t);
  Reactor.set_tick reactor (tick t);
  Reactor.start reactor;
  t

let set_loss t p =
  Dmutex.Types.check_loss "Transport.set_loss" p;
  bump t (fun t -> t.loss <- p)
let sent t = t.sent

(* ------------------------------------------------------------------ *)
(* Dynamic membership: the peer table follows the committed view.
   Slots are append-only — a removed peer's slot is retired, never
   reused for a different endpoint under the same id, so queued frames
   can never leak to a new incarnation at another address. *)

let add_peer t ~dst ~host ~port =
  if dst < 0 || dst > 0xFFFF then invalid_arg "Transport.add_peer: bad id";
  if dst <> t.me && not (closed t) then begin
    let ep = { host; port } in
    Mutex.lock t.peers_mu;
    let len = Array.length t.ps in
    if dst < len then begin
      (* Revive (or re-point) an existing slot — a rejoining peer may
         come back at a new address. *)
      let pe = t.ps.(dst) in
      pe.endpoint <- ep;
      t.peers.(dst) <- ep;
      Atomic.set pe.retired false
    end
    else begin
      (* Gap slots (ids between the old length and [dst]) are born
         retired: they exist only so the array is dense. *)
      let ps' =
        Array.init (dst + 1) (fun i ->
            if i < len then t.ps.(i)
            else if i = dst then make_peer ~retired:false i ep
            else make_peer ~retired:true i { host = "127.0.0.1"; port = 0 })
      in
      let peers' =
        Array.init (dst + 1) (fun i ->
            if i < Array.length t.peers then t.peers.(i)
            else if i = dst then ep
            else { host = "127.0.0.1"; port = 0 })
      in
      t.ps <- ps';
      t.peers <- peers'
    end;
    Mutex.unlock t.peers_mu;
    wake_reactor t
  end

let retire_peer t ~dst =
  if dst >= 0 && dst < Array.length t.ps && dst <> t.me then begin
    let pe = t.ps.(dst) in
    if not (Atomic.exchange pe.retired true) then
      (* The reactor tears the connection down and drains the ring on
         its next pass. *)
      wake_reactor t
  end

let peer_retired t ~dst =
  dst >= 0 && dst < Array.length t.ps && Atomic.get t.ps.(dst).retired

let queue_depth t =
  let total = ref 0 in
  Array.iter
    (fun pe ->
      if pe.dst <> t.me then begin
        Mutex.lock pe.mu;
        total := !total + Ring.length pe.ring;
        Mutex.unlock pe.mu;
        total := !total + List.length pe.inflight
      end)
    t.ps;
  !total

let metrics t =
  Mutex.lock t.stats;
  let m =
    {
      sent = t.sent;
      delivered = t.delivered;
      dropped = t.dropped;
      retries = t.retries;
      reconnects = t.reconnects;
      flushes = t.flushes;
      queue_depth = 0;
    }
  in
  Mutex.unlock t.stats;
  let qd = queue_depth t in
  (match t.obs with
  | Some h ->
      (* The queue depth is a level, not a stream of events: sample it
         into the gauge whenever somebody reads the metrics. *)
      Dmutex_obs.Registry.Gauge.set h.o_queue_depth (float_of_int qd)
  | None -> ());
  { m with queue_depth = qd }

(* Must not be called from a transport callback (it joins the I/O
   domain). Safe to call more than once. *)
let close t =
  if not (Atomic.exchange t.closed true) then begin
    Reactor.post t.reactor (fun () ->
        (try Unix.close t.listener with _ -> ());
        Hashtbl.iter (fun _ ic -> close_iconn t ic) (Hashtbl.copy t.iconns);
        Array.iter
          (fun pe ->
            if pe.dst <> t.me then begin
              (match pe.conn with
              | On fd | Connecting (fd, _) -> close_conn_fd t pe fd
              | Off -> ());
              Flush.release pe.fb
            end)
          t.ps);
    Reactor.stop t.reactor
  end
