(* The traced run's span recorder. Every timed call — a protocol step,
   a codec call, a public Node_runner or Session_client call, one
   simulation run — becomes a span: name, start, end, parent span,
   node, lock, and the requester (node, seq) where the input names
   one. Spans go to a bounded in-memory ring (oldest overwritten) that
   is written out as JSONL at the end of the run, and are folded into
   per-name aggregates (count, total time, a log-scale histogram of
   durations) from which the per-layer metrics are read.

   The hot calls — protocol steps, codec calls, the node runner's
   public calls — are counted every time but timed one in [period]: a
   span costs about 0.15 us, too much to pay on every protocol step,
   which takes well under a microsecond. A
   protocol step inside a timed harness call always goes to the ring,
   so a sampled call keeps its children, but only the sampled steps
   feed the aggregates, which stay an unbiased sample.

   Nothing here runs in an untraced run: only the traced functor
   instances and the harness's traced paths call [record]. *)

type kind =
  | Step  (** one [ALGO.handle] call *)
  | Encode  (** one [CODEC.encode] call *)
  | Decode  (** one [CODEC.decode] call *)
  | Node_acquire  (** one [Node_runner.acquire] call *)
  | Node_release  (** one [Node_runner.release] call *)
  | Client_acquire  (** one [Session_client.acquire] call, to the grant *)
  | Client_release  (** one [Session_client.release] call *)
  | Sim_run  (** one saturated simulation run *)

let kinds =
  [| Step; Encode; Decode; Node_acquire; Node_release; Client_acquire;
     Client_release; Sim_run |]

let index = function
  | Step -> 0
  | Encode -> 1
  | Decode -> 2
  | Node_acquire -> 3
  | Node_release -> 4
  | Client_acquire -> 5
  | Client_release -> 6
  | Sim_run -> 7

let period = function
  | Step | Encode | Decode -> 32
  | Node_acquire | Node_release -> 8
  | Client_acquire | Client_release | Sim_run -> 1

let name = function
  | Step -> "protocol.step"
  | Encode -> "wire.encode"
  | Decode -> "wire.decode"
  | Node_acquire -> "node_runner.acquire"
  | Node_release -> "node_runner.release"
  | Client_acquire -> "session_client.acquire"
  | Client_release -> "session_client.release"
  | Sim_run -> "sim_runner.run_saturated"

type agg = {
  mutable count : int;
  mutable total : float;  (** seconds *)
  mutable bytes : int;  (** payload bytes, for codec spans *)
  hist : Stats.Loghist.t;  (** durations in microseconds *)
}

let capacity = 1 lsl 16

type ring = {
  ids : int array;
  kinds : int array;
  starts : float array;
  stops : float array;
  parents : int array;
  nodes : int array;
  locks : string array;
  rnodes : int array;
  rseqs : int array;
}

let mu = Mutex.create ()
let calls = Array.map (fun _ -> Atomic.make 0) kinds

(* Count one call of [kind]; true when this one is to be timed. *)
let sampled kind =
  Atomic.fetch_and_add calls.(index kind) 1 mod period kind = 0

(* Span times are written as microseconds from this instant, which the
   header line records, so they keep sub-microsecond resolution. *)
let base = Unix.gettimeofday ()
let next_id = Atomic.make 0
let total = ref 0

let aggs =
  Array.map
    (fun _ ->
      { count = 0; total = 0.0; bytes = 0; hist = Stats.Loghist.create () })
    kinds

(* Allocated on first use, so an untraced run carries no ring. *)
let ring =
  lazy
    {
      ids = Array.make capacity 0;
      kinds = Array.make capacity 0;
      starts = Array.make capacity 0.0;
      stops = Array.make capacity 0.0;
      parents = Array.make capacity (-1);
      nodes = Array.make capacity (-1);
      locks = Array.make capacity "";
      rnodes = Array.make capacity (-1);
      rseqs = Array.make capacity (-1);
    }

let fresh_id () = Atomic.fetch_and_add next_id 1

let record_id ?(aggregate = true) id kind ~start ~stop ~parent ~node ~lock
    ~rnode ~rseq ~bytes =
  Mutex.lock mu;
  (* Forced under [mu]: forcing a lazy from two domains at once raises. *)
  let r = Lazy.force ring in
  if aggregate then begin
    let a = aggs.(index kind) in
    let d = stop -. start in
    a.count <- a.count + 1;
    a.total <- a.total +. d;
    a.bytes <- a.bytes + bytes;
    Stats.Loghist.add a.hist (d *. 1e6)
  end;
  let slot = !total land (capacity - 1) in
  incr total;
  r.ids.(slot) <- id;
  r.kinds.(slot) <- index kind;
  r.starts.(slot) <- start;
  r.stops.(slot) <- stop;
  r.parents.(slot) <- parent;
  r.nodes.(slot) <- node;
  r.locks.(slot) <- lock;
  r.rnodes.(slot) <- rnode;
  r.rseqs.(slot) <- rseq;
  Mutex.unlock mu

let record ?aggregate kind ~start ~stop ~parent ~node ~lock ~rnode ~rseq
    ~bytes =
  record_id ?aggregate (fresh_id ()) kind ~start ~stop ~parent ~node ~lock
    ~rnode ~rseq ~bytes

(* The harness span a thread is inside, so a protocol step run
   synchronously by that call (on the same thread) names it as parent.
   Steps on other threads (reactor domains, timer threads) see a
   different thread id and record no parent. *)
type scope = { tid : int; span : int; s_lock : string }

let no_scope = { tid = -1; span = -1; s_lock = "" }
let current = Atomic.make no_scope

(* Time [f ()] as a harness span of [kind] for [node]/[lock], when
   sampled. With [scope] (the default) the protocol steps [f] runs on
   this thread are recorded as its children; a whole simulation run
   passes [~scope:false], as recording its every step would cost more
   than the step itself. *)
let around ?(scope = true) kind ~node ~lock f =
  if not (sampled kind) then f ()
  else
  let id = fresh_id () in
  if scope then
    Atomic.set current
      { tid = Thread.id (Thread.self ()); span = id; s_lock = lock };
  let start = Unix.gettimeofday () in
  let r = f () in
  let stop = Unix.gettimeofday () in
  if scope then Atomic.set current no_scope;
  record_id id kind ~start ~stop ~parent:(-1) ~node ~lock ~rnode:(-1)
    ~rseq:(-1) ~bytes:0;
  r

let parent_scope () =
  let s = Atomic.get current in
  if s == no_scope || s.tid <> Thread.id (Thread.self ()) then no_scope else s

(* Aggregates since the last [reset_aggregates]: [n] calls, of which
   [timed] were timed; [seconds] extrapolates their total time to all
   [n]; [payload] is the bytes of the timed codec calls. *)
type summary = {
  n : int;
  timed : int;
  seconds : float;
  payload : int;
  mean_us : float;
  p99_us : float;
}

let summary kind =
  Mutex.lock mu;
  let a = aggs.(index kind) in
  let n = Atomic.get calls.(index kind) in
  let s =
    {
      n;
      timed = a.count;
      seconds =
        (if a.count = 0 then 0.0
         else a.total *. float_of_int n /. float_of_int a.count);
      payload = a.bytes;
      mean_us =
        (if a.count = 0 then 0.0 else a.total /. float_of_int a.count *. 1e6);
      p99_us = Stats.Loghist.quantile a.hist 0.99;
    }
  in
  Mutex.unlock mu;
  s

let reset_aggregates () =
  Mutex.lock mu;
  Array.iter
    (fun a ->
      a.count <- 0;
      a.total <- 0.0;
      a.bytes <- 0;
      Stats.Loghist.reset a.hist)
    aggs;
  Array.iter (fun c -> Atomic.set c 0) calls;
  Mutex.unlock mu

(* Write the retained spans, oldest first, one JSON object per line,
   after a header line giving how many were recorded and kept. *)
let write_jsonl file =
  let open Dmutex_obs.Json in
  Mutex.lock mu;
  let r = Lazy.force ring in
  let recorded = !total in
  let kept = min recorded capacity in
  let lines =
    List.init kept (fun i ->
        let slot = (recorded - kept + i) land (capacity - 1) in
        let int_or_null v = if v < 0 then Null else Num (float_of_int v) in
        to_string
          (Obj
             [
               ("id", Num (float_of_int r.ids.(slot)));
               ("name", Str (name kinds.(r.kinds.(slot))));
               ("start_us", Num ((r.starts.(slot) -. base) *. 1e6));
               ("end_us", Num ((r.stops.(slot) -. base) *. 1e6));
               ("parent", int_or_null r.parents.(slot));
               ("node", int_or_null r.nodes.(slot));
               ("lock", Str r.locks.(slot));
               ( "requester",
                 if r.rnodes.(slot) < 0 then Null
                 else
                   Obj
                     [
                       ("node", Num (float_of_int r.rnodes.(slot)));
                       ("seq", Num (float_of_int r.rseqs.(slot)));
                     ] );
             ]))
  in
  Mutex.unlock mu;
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (to_string
           (Obj
              [
                ("base_unix_s", Num base);
                ("spans_recorded", Num (float_of_int recorded));
                ("spans_kept", Num (float_of_int kept));
              ]));
      output_char oc '\n';
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)
