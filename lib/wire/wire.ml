exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Bumped whenever the frame or store-record layout changes
   incompatibly. Every transport frame and every persistent store
   record leads with this byte, so a mixed-version cluster (or a state
   directory written by an older binary) fails loudly at decode time
   instead of misparsing. v3: dynamic membership — tokens carry a view
   epoch, NEW-ARBITER carries the membership view, and the
   JOIN-REQUEST / LEAVE-REQUEST / VIEW-CHANGE / VIEW-ACK messages and
   the store's membership-view record exist. v4: read-write modes —
   Q-list entries carry a mode byte (so REQUEST and PRIVILEGE frames
   carry it), the READ-GRANT / READ-DONE shared-batch messages exist,
   and the store's custody record carries a shared-batch flag. v5: a
   PRIVILEGE carries an optional folded announcement (Section 3.1: the
   tail of a singleton dispatch, and the heir of a holder leaving the
   view, get their NEW-ARBITER inside the token message) — the view,
   then the [L] vector, token epoch, election and monitor pair, each
   present only where it differs from the token. *)
let format_version = 5

module Enc = struct
  type t = Buffer.t

  let create ?(size = 128) () = Buffer.create size
  let contents = Buffer.contents
  let u8 e v =
    if v < 0 || v > 0xFF then invalid_arg "Enc.u8: out of range";
    Buffer.add_uint8 e v

  let u16 e v =
    if v < 0 || v > 0xFFFF then invalid_arg "Enc.u16: out of range";
    Buffer.add_uint16_be e v

  let i32 e v =
    if v < Int32.(to_int min_int) || v > Int32.(to_int max_int) then
      invalid_arg "Enc.i32: out of range";
    Buffer.add_int32_be e (Int32.of_int v)

  let i64 e v = Buffer.add_int64_be e v
  let int_ e v = i64 e (Int64.of_int v)
  let bool e b = u8 e (if b then 1 else 0)
  let float e f = i64 e (Int64.bits_of_float f)

  let string e s =
    i32 e (String.length s);
    Buffer.add_string e s

  let option e enc = function
    | None -> u8 e 0
    | Some v ->
        u8 e 1;
        enc e v

  let list e enc l =
    i32 e (List.length l);
    List.iter (enc e) l

  let array e enc a =
    i32 e (Array.length a);
    Array.iter (enc e) a

  let pair e enc_a enc_b (a, b) =
    enc_a e a;
    enc_b e b
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let remaining d = String.length d.data - d.pos
  let eof d = remaining d = 0

  let check_eof d =
    if not (eof d) then fail "trailing garbage: %d bytes" (remaining d)

  let need d n =
    if remaining d < n then
      fail "truncated input: need %d bytes, have %d" n (remaining d)

  let u8 d =
    need d 1;
    let v = Char.code d.data.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u16 d =
    need d 2;
    let v = String.get_uint16_be d.data d.pos in
    d.pos <- d.pos + 2;
    v

  let i32 d =
    need d 4;
    let v = String.get_int32_be d.data d.pos in
    d.pos <- d.pos + 4;
    Int32.to_int v

  let i64 d =
    need d 8;
    let v = String.get_int64_be d.data d.pos in
    d.pos <- d.pos + 8;
    v

  let int_ d =
    let v = i64 d in
    let r = Int64.to_int v in
    if Int64.of_int r <> v then fail "integer overflow on this platform";
    r

  let bool d =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | v -> fail "invalid boolean byte %d" v

  let float d = Int64.float_of_bits (i64 d)

  let string d =
    let n = i32 d in
    if n < 0 then fail "negative string length %d" n;
    need d n;
    let s = String.sub d.data d.pos n in
    d.pos <- d.pos + n;
    s

  let option d dec = match u8 d with
    | 0 -> None
    | 1 -> Some (dec d)
    | v -> fail "invalid option tag %d" v

  let list d dec =
    let n = i32 d in
    if n < 0 then fail "negative list length %d" n;
    List.init n (fun _ -> dec d)

  let array d dec =
    let n = i32 d in
    if n < 0 then fail "negative array length %d" n;
    Array.init n (fun _ -> dec d)

  let pair d dec_a dec_b =
    let a = dec_a d in
    let b = dec_b d in
    (a, b)
end

module Frame = struct
  type kind = Data | Heartbeat
  type header = { src : int; kind : kind; lock : string; payload_start : int }

  let fixed_len = 8
  let max_lock_len = 0xFFFF

  let header_len ~lock =
    let ll = String.length lock in
    if ll > max_lock_len then
      invalid_arg "Frame.header_len: lock key longer than 65535 bytes";
    fixed_len + ll

  (* Write the header into [b] at [pos] without allocating; returns
     the offset just past the header. The transport serializes whole
     coalesced flushes through this into one pooled buffer. *)
  let blit_header b ~pos ~src ~lock kind =
    let ll = String.length lock in
    if ll > max_lock_len then
      invalid_arg "Frame.blit_header: lock key longer than 65535 bytes";
    Bytes.set_uint8 b pos format_version;
    Bytes.set_int32_be b (pos + 1) (Int32.of_int src);
    Bytes.set_uint8 b (pos + 5) (match kind with Data -> 0 | Heartbeat -> 1);
    Bytes.set_uint16_be b (pos + 6) ll;
    Bytes.blit_string lock 0 b (pos + fixed_len) ll;
    pos + fixed_len + ll

  let encode_header ~src ~lock kind =
    let b = Bytes.create (header_len ~lock) in
    ignore (blit_header b ~pos:0 ~src ~lock kind);
    Bytes.unsafe_to_string b

  (* Decode a frame header in place from [len] bytes of [b] starting
     at [off] — the pooled-read-buffer twin of {!decode_header}.
     [payload_start] is relative to [off]. Only the lock key is
     materialized (the receiver needs it as a lookup key anyway). *)
  let decode_header_bytes b ~off ~len =
    if len < fixed_len then
      fail "frame shorter than its %d-byte header (%d bytes)" fixed_len len;
    let v = Bytes.get_uint8 b off in
    if v <> format_version then
      fail "frame format version mismatch: peer speaks v%d, this node v%d" v
        format_version;
    let src = Int32.to_int (Bytes.get_int32_be b (off + 1)) in
    let kind =
      match Bytes.get_uint8 b (off + 5) with
      | 0 -> Data
      | 1 -> Heartbeat
      | k -> fail "unknown frame kind %d" k
    in
    let ll = Bytes.get_uint16_be b (off + 6) in
    if len < fixed_len + ll then
      fail "frame truncated inside its %d-byte lock key (%d bytes total)" ll
        len;
    let lock = Bytes.sub_string b (off + fixed_len) ll in
    { src; kind; lock; payload_start = fixed_len + ll }

  let decode_header s =
    decode_header_bytes
      (Bytes.unsafe_of_string s)
      ~off:0 ~len:(String.length s)
end

module type CODEC = sig
  type message

  val encode : message -> string
  val decode : string -> message
end

module Client = struct
  (* The thin-client frame family is versioned independently of the
     node-to-node {!format_version}: clients are deployed separately
     from the cluster, so their protocol can evolve without
     invalidating state directories or the inter-node frame layout.
     Every request and response leads with this byte. v2: [Acquire]
     carries a [shared] mode flag. *)
  let version = 2

  type reject_reason =
    | Lock_timeout  (** The acquire deadline passed while queued. *)
    | Queue_full  (** Per-lock wait queue or per-session cap hit. *)
    | Session_limit  (** Admission control: node is at max sessions. *)
    | Already_held  (** The session already holds this lock. *)
    | Not_held  (** Release/renew of something the session lacks. *)
    | Unknown_lock  (** The node does not host this lock instance. *)
    | Bad_request  (** Protocol misuse (e.g. acquire before open). *)

  type req =
    | Hello of { rid : int }
    | Open_session of { rid : int; lease_ms : int; resume : string option }
    | Acquire of {
        rid : int;
        lock : string;
        timeout_ms : int;
        try_only : bool;
        shared : bool;
      }
    | Release of { rid : int; lock : string }
    | Renew of { rid : int }
    | Close of { rid : int }

  type resp =
    | Hello_ok of { rid : int; node : int; proto : int }
    | Session_opened of {
        rid : int;
        sid : string;
        lease_ms : int;
        grace_ms : int;
        resumed : bool;
        held : (string * int) list;
      }
    | Granted of { rid : int; lock : string; fencing : int }
    | Rejected of { rid : int; reason : reject_reason; retry_after_ms : int }
    | Released of { rid : int; lock : string }
    | Renewed of { rid : int; lease_ms : int }
    | Closed of { rid : int }
    | Session_lost of { rid : int; reason : string }

  let string_of_reason = function
    | Lock_timeout -> "timeout"
    | Queue_full -> "queue-full"
    | Session_limit -> "session-limit"
    | Already_held -> "already-held"
    | Not_held -> "not-held"
    | Unknown_lock -> "unknown-lock"
    | Bad_request -> "bad-request"

  let enc_reason e = function
    | Lock_timeout -> Enc.u8 e 0
    | Queue_full -> Enc.u8 e 1
    | Session_limit -> Enc.u8 e 2
    | Already_held -> Enc.u8 e 3
    | Not_held -> Enc.u8 e 4
    | Unknown_lock -> Enc.u8 e 5
    | Bad_request -> Enc.u8 e 6

  let dec_reason d =
    match Dec.u8 d with
    | 0 -> Lock_timeout
    | 1 -> Queue_full
    | 2 -> Session_limit
    | 3 -> Already_held
    | 4 -> Not_held
    | 5 -> Unknown_lock
    | 6 -> Bad_request
    | v -> fail "invalid reject reason %d" v

  let check_version d =
    let v = Dec.u8 d in
    if v <> version then
      fail "client frame version mismatch: peer speaks v%d, this end v%d" v
        version

  let encode_request (r : req) =
    let e = Enc.create ~size:64 () in
    Enc.u8 e version;
    (match r with
    | Hello { rid } ->
        Enc.u8 e 0;
        Enc.int_ e rid
    | Open_session { rid; lease_ms; resume } ->
        Enc.u8 e 1;
        Enc.int_ e rid;
        Enc.int_ e lease_ms;
        Enc.option e Enc.string resume
    | Acquire { rid; lock; timeout_ms; try_only; shared } ->
        Enc.u8 e 2;
        Enc.int_ e rid;
        Enc.string e lock;
        Enc.int_ e timeout_ms;
        Enc.bool e try_only;
        Enc.bool e shared
    | Release { rid; lock } ->
        Enc.u8 e 3;
        Enc.int_ e rid;
        Enc.string e lock
    | Renew { rid } ->
        Enc.u8 e 4;
        Enc.int_ e rid
    | Close { rid } ->
        Enc.u8 e 5;
        Enc.int_ e rid);
    Enc.contents e

  let decode_request s =
    let d = Dec.of_string s in
    check_version d;
    let r =
      match Dec.u8 d with
      | 0 -> Hello { rid = Dec.int_ d }
      | 1 ->
          let rid = Dec.int_ d in
          let lease_ms = Dec.int_ d in
          let resume = Dec.option d Dec.string in
          Open_session { rid; lease_ms; resume }
      | 2 ->
          let rid = Dec.int_ d in
          let lock = Dec.string d in
          let timeout_ms = Dec.int_ d in
          let try_only = Dec.bool d in
          let shared = Dec.bool d in
          Acquire { rid; lock; timeout_ms; try_only; shared }
      | 3 ->
          let rid = Dec.int_ d in
          let lock = Dec.string d in
          Release { rid; lock }
      | 4 -> Renew { rid = Dec.int_ d }
      | 5 -> Close { rid = Dec.int_ d }
      | t -> fail "unknown client request tag %d" t
    in
    Dec.check_eof d;
    r

  let encode_response (r : resp) =
    let e = Enc.create ~size:64 () in
    Enc.u8 e version;
    (match r with
    | Hello_ok { rid; node; proto } ->
        Enc.u8 e 0;
        Enc.int_ e rid;
        Enc.int_ e node;
        Enc.int_ e proto
    | Session_opened { rid; sid; lease_ms; grace_ms; resumed; held } ->
        Enc.u8 e 1;
        Enc.int_ e rid;
        Enc.string e sid;
        Enc.int_ e lease_ms;
        Enc.int_ e grace_ms;
        Enc.bool e resumed;
        Enc.list e (fun e kv -> Enc.pair e Enc.string Enc.int_ kv) held
    | Granted { rid; lock; fencing } ->
        Enc.u8 e 2;
        Enc.int_ e rid;
        Enc.string e lock;
        Enc.int_ e fencing
    | Rejected { rid; reason; retry_after_ms } ->
        Enc.u8 e 3;
        Enc.int_ e rid;
        enc_reason e reason;
        Enc.int_ e retry_after_ms
    | Released { rid; lock } ->
        Enc.u8 e 4;
        Enc.int_ e rid;
        Enc.string e lock
    | Renewed { rid; lease_ms } ->
        Enc.u8 e 5;
        Enc.int_ e rid;
        Enc.int_ e lease_ms
    | Closed { rid } ->
        Enc.u8 e 6;
        Enc.int_ e rid
    | Session_lost { rid; reason } ->
        Enc.u8 e 7;
        Enc.int_ e rid;
        Enc.string e reason);
    Enc.contents e

  let decode_response s =
    let d = Dec.of_string s in
    check_version d;
    let r =
      match Dec.u8 d with
      | 0 ->
          let rid = Dec.int_ d in
          let node = Dec.int_ d in
          let proto = Dec.int_ d in
          Hello_ok { rid; node; proto }
      | 1 ->
          let rid = Dec.int_ d in
          let sid = Dec.string d in
          let lease_ms = Dec.int_ d in
          let grace_ms = Dec.int_ d in
          let resumed = Dec.bool d in
          let held = Dec.list d (fun d -> Dec.pair d Dec.string Dec.int_) in
          Session_opened { rid; sid; lease_ms; grace_ms; resumed; held }
      | 2 ->
          let rid = Dec.int_ d in
          let lock = Dec.string d in
          let fencing = Dec.int_ d in
          Granted { rid; lock; fencing }
      | 3 ->
          let rid = Dec.int_ d in
          let reason = dec_reason d in
          let retry_after_ms = Dec.int_ d in
          Rejected { rid; reason; retry_after_ms }
      | 4 ->
          let rid = Dec.int_ d in
          let lock = Dec.string d in
          Released { rid; lock }
      | 5 ->
          let rid = Dec.int_ d in
          let lease_ms = Dec.int_ d in
          Renewed { rid; lease_ms }
      | 6 -> Closed { rid = Dec.int_ d }
      | 7 ->
          let rid = Dec.int_ d in
          let reason = Dec.string d in
          Session_lost { rid; reason }
      | t -> fail "unknown client response tag %d" t
    in
    Dec.check_eof d;
    r
end

module Protocol_codec = struct
  open Dmutex

  type message = Protocol.message

  let enc_mode e = function
    | Types.Exclusive -> Enc.u8 e 0
    | Types.Shared -> Enc.u8 e 1

  let dec_mode d =
    match Dec.u8 d with
    | 0 -> Types.Exclusive
    | 1 -> Types.Shared
    | v -> fail "invalid mode byte %d" v

  let enc_entry e (x : Qlist.entry) =
    Enc.int_ e x.Qlist.node;
    Enc.int_ e x.Qlist.seq;
    Enc.int_ e x.Qlist.hops;
    enc_mode e x.Qlist.mode

  let dec_entry d =
    let node = Dec.int_ d in
    let seq = Dec.int_ d in
    let hops = Dec.int_ d in
    let mode = dec_mode d in
    { Qlist.node; seq; hops; mode }

  let enc_token e (t : Protocol.token) =
    Enc.list e enc_entry t.Protocol.tq;
    Enc.array e Enc.int_ t.Protocol.granted;
    Enc.int_ e t.Protocol.epoch;
    Enc.int_ e t.Protocol.election;
    Enc.int_ e t.Protocol.vepoch

  let dec_token d =
    let tq = Dec.list d dec_entry in
    let granted = Dec.array d Dec.int_ in
    let epoch = Dec.int_ d in
    let election = Dec.int_ d in
    let vepoch = Dec.int_ d in
    { Protocol.tq; granted; epoch; election; vepoch }

  let enc_member e (m : Protocol.member) =
    Enc.int_ e m.Protocol.mid;
    Enc.string e m.Protocol.maddr

  let dec_member d =
    let mid = Dec.int_ d in
    let maddr = Dec.string d in
    { Protocol.mid; maddr }

  let enc_view e (v : Protocol.view) =
    Enc.int_ e v.Protocol.vnum;
    Enc.list e enc_member v.Protocol.vmembers

  let dec_view d =
    let vnum = Dec.int_ d in
    let vmembers = Dec.list d dec_member in
    { Protocol.vnum; vmembers }

  let enc_handover e (h : Protocol.handover) =
    enc_view e h.Protocol.ho_view;
    Enc.option e (fun e g -> Enc.array e Enc.int_ g) h.Protocol.ho_granted;
    Enc.option e Enc.int_ h.Protocol.ho_epoch;
    Enc.option e Enc.int_ h.Protocol.ho_election;
    Enc.option e (fun e mc -> Enc.pair e Enc.int_ Enc.int_ mc)
      h.Protocol.ho_monitor

  let dec_handover d =
    let ho_view = dec_view d in
    let ho_granted = Dec.option d (fun d -> Dec.array d Dec.int_) in
    let ho_epoch = Dec.option d Dec.int_ in
    let ho_election = Dec.option d Dec.int_ in
    let ho_monitor = Dec.option d (fun d -> Dec.pair d Dec.int_ Dec.int_) in
    { Protocol.ho_view; ho_granted; ho_epoch; ho_election; ho_monitor }

  let enc_status e = function
    | Protocol.Have_token -> Enc.u8 e 0
    | Protocol.Executed -> Enc.u8 e 1
    | Protocol.Waiting_token -> Enc.u8 e 2

  let dec_status d =
    match Dec.u8 d with
    | 0 -> Protocol.Have_token
    | 1 -> Protocol.Executed
    | 2 -> Protocol.Waiting_token
    | v -> fail "invalid enquiry status %d" v

  let encode (m : message) =
    let e = Enc.create () in
    (match m with
    | Protocol.Request x ->
        Enc.u8 e 0;
        enc_entry e x
    | Protocol.Monitor_request x ->
        Enc.u8 e 1;
        enc_entry e x
    | Protocol.Privilege (t, h) ->
        Enc.u8 e 2;
        enc_token e t;
        Enc.option e enc_handover h
    | Protocol.Monitor_privilege t ->
        Enc.u8 e 3;
        enc_token e t
    | Protocol.New_arbiter na ->
        Enc.u8 e 4;
        Enc.int_ e na.Protocol.na_arbiter;
        Enc.list e enc_entry na.Protocol.na_q;
        Enc.array e Enc.int_ na.Protocol.na_granted;
        Enc.int_ e na.Protocol.na_counter;
        Enc.int_ e na.Protocol.na_monitor;
        Enc.int_ e na.Protocol.na_epoch;
        Enc.int_ e na.Protocol.na_election;
        enc_view e na.Protocol.na_view
    | Protocol.Warning -> Enc.u8 e 5
    | Protocol.Enquiry { round } ->
        Enc.u8 e 6;
        Enc.int_ e round
    | Protocol.Enquiry_reply { round; status } ->
        Enc.u8 e 7;
        Enc.int_ e round;
        enc_status e status
    | Protocol.Resume { round } ->
        Enc.u8 e 8;
        Enc.int_ e round
    | Protocol.Invalidate { round } ->
        Enc.u8 e 9;
        Enc.int_ e round
    | Protocol.Probe -> Enc.u8 e 10
    | Protocol.Probe_ack -> Enc.u8 e 11
    | Protocol.Join_request m ->
        Enc.u8 e 12;
        enc_member e m
    | Protocol.Leave_request lid ->
        Enc.u8 e 13;
        Enc.int_ e lid
    | Protocol.View_change vc ->
        Enc.u8 e 14;
        enc_view e vc.Protocol.vc_view;
        Enc.bool e vc.Protocol.vc_commit;
        Enc.array e Enc.int_ vc.Protocol.vc_granted;
        Enc.int_ e vc.Protocol.vc_epoch;
        Enc.int_ e vc.Protocol.vc_election;
        Enc.int_ e vc.Protocol.vc_arbiter
    | Protocol.View_ack { va_vnum } ->
        Enc.u8 e 15;
        Enc.int_ e va_vnum
    | Protocol.Read_grant { rg_epoch; rg_minor; rg_entry } ->
        Enc.u8 e 16;
        Enc.int_ e rg_epoch;
        Enc.int_ e rg_minor;
        enc_entry e rg_entry
    | Protocol.Read_done { rd_seq } ->
        Enc.u8 e 17;
        Enc.int_ e rd_seq);
    Enc.contents e

  let decode s =
    let d = Dec.of_string s in
    let m =
      match Dec.u8 d with
      | 0 -> Protocol.Request (dec_entry d)
      | 1 -> Protocol.Monitor_request (dec_entry d)
      | 2 ->
          let t = dec_token d in
          let h = Dec.option d dec_handover in
          Protocol.Privilege (t, h)
      | 3 -> Protocol.Monitor_privilege (dec_token d)
      | 4 ->
          let na_arbiter = Dec.int_ d in
          let na_q = Dec.list d dec_entry in
          let na_granted = Dec.array d Dec.int_ in
          let na_counter = Dec.int_ d in
          let na_monitor = Dec.int_ d in
          let na_epoch = Dec.int_ d in
          let na_election = Dec.int_ d in
          let na_view = dec_view d in
          Protocol.New_arbiter
            { na_arbiter; na_q; na_granted; na_counter; na_monitor; na_epoch;
              na_election; na_view }
      | 5 -> Protocol.Warning
      | 6 -> Protocol.Enquiry { round = Dec.int_ d }
      | 7 ->
          let round = Dec.int_ d in
          let status = dec_status d in
          Protocol.Enquiry_reply { round; status }
      | 8 -> Protocol.Resume { round = Dec.int_ d }
      | 9 -> Protocol.Invalidate { round = Dec.int_ d }
      | 10 -> Protocol.Probe
      | 11 -> Protocol.Probe_ack
      | 12 -> Protocol.Join_request (dec_member d)
      | 13 -> Protocol.Leave_request (Dec.int_ d)
      | 14 ->
          let vc_view = dec_view d in
          let vc_commit = Dec.bool d in
          let vc_granted = Dec.array d Dec.int_ in
          let vc_epoch = Dec.int_ d in
          let vc_election = Dec.int_ d in
          let vc_arbiter = Dec.int_ d in
          Protocol.View_change
            { vc_view; vc_commit; vc_granted; vc_epoch; vc_election;
              vc_arbiter }
      | 15 -> Protocol.View_ack { va_vnum = Dec.int_ d }
      | 16 ->
          let rg_epoch = Dec.int_ d in
          let rg_minor = Dec.int_ d in
          let rg_entry = dec_entry d in
          Protocol.Read_grant { rg_epoch; rg_minor; rg_entry }
      | 17 -> Protocol.Read_done { rd_seq = Dec.int_ d }
      | t -> fail "unknown message tag %d" t
    in
    Dec.check_eof d;
    m
end
