exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type custody = No_token | Holding of { epoch : int; shared : bool }

type view = {
  epoch : int;
  election : int;
  enq_round : int;
  next_seq : int;
  granted : int array;
  custody : custody;
  mview : (int * (int * string) list) option;
}

type stats = {
  wal_records : int;
  wal_bytes : int;
  snapshots : int;
  replayed : int;
  last_flush : float;
}

let empty_view ~n =
  {
    epoch = 0;
    election = 0;
    enq_round = 0;
    next_seq = 0;
    granted = Array.make n (-1);
    custody = No_token;
    mview = None;
  }

let copy_view v = { v with granted = Array.copy v.granted }

(* ------------------------------------------------------------------ *)
(* Lock-key <-> directory-name encoding                                *)

let is_dir_safe = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true
  | _ -> false

let hex_val = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | c -> corrupt "lock-key directory name: invalid hex digit %C" c

let key_of_dir_name name =
  let n = String.length name in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match name.[!i] with
    | '%' ->
        if !i + 2 >= n then
          corrupt "lock-key directory name %S: truncated %%-escape" name;
        let hi = hex_val name.[!i + 1] and lo = hex_val name.[!i + 2] in
        Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
        i := !i + 2
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let dir_name_of_key key =
  let buf = Buffer.create (String.length key + 8) in
  String.iter
    (fun c ->
      if is_dir_safe c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
    key;
  let name = Buffer.contents buf in
  (* Round-trip guard: a key whose encoding does not decode back to
     the exact original would let two distinct keys share a state
     directory (silent cross-feeding) — fail loudly instead. *)
  let back = try key_of_dir_name name with Corrupt e -> e in
  if not (String.equal back key) then
    corrupt "lock-key encoding round-trip mismatch: %S encoded as %S decodes \
             to %S"
      key name back;
  name

let lock_dir ~root key = Filename.concat root ("lock-" ^ dir_name_of_key key)

(* ------------------------------------------------------------------ *)
(* Fencing tokens                                                      *)

(* A fencing token packs the token-regeneration epoch above a
   per-epoch grant counter in one non-negative OCaml int:
   [epoch * 2^40 + minor]. Both components are already persisted
   (epoch directly, the grant counter as the [L] vector whose marked
   sum only grows within an epoch), so a restarted node can never
   reissue a smaller token than one it durably recorded. 2^40 grants
   per epoch and 2^22 epochs fit a 63-bit int with room to spare. *)
let fencing_minor_bits = 40
let fencing_minor_mask = (1 lsl fencing_minor_bits) - 1

let fencing ~epoch ~minor =
  if epoch < 0 then invalid_arg "Store.fencing: negative epoch";
  if minor < 0 then invalid_arg "Store.fencing: negative minor";
  (epoch lsl fencing_minor_bits) lor (minor land fencing_minor_mask)

let fencing_epoch f = f lsr fencing_minor_bits
let fencing_minor f = f land fencing_minor_mask

let grant_sum granted =
  Array.fold_left (fun acc s -> if s >= 0 then acc + s + 1 else acc) 0 granted

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)                     *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s ~pos ~len =
  let tbl = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := tbl.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)
(* [version:u8 | tag:u8 | len:u16 | payload | crc32:u32], the CRC
   taken over everything before it. Tag 0 is the full-view snapshot;
   tags 1..6 are the WAL's field deltas. *)

let tag_snapshot = 0
let tag_epoch = 1
let tag_election = 2
let tag_enq_round = 3
let tag_next_seq = 4
let tag_served = 5
let tag_custody = 6

(* Lock-key stamp: first record of every fresh WAL, naming the lock
   instance the log belongs to. A key-namespaced deployment points
   each instance at its own subdirectory; the stamp (and its twin
   embedded in the snapshot) turns a mis-wired directory into a loud
   {!Corrupt} instead of silently feeding one lock's epochs to
   another. *)
let tag_key = 7

(* Committed membership view: a restart must rejoin the *current*
   view, not the birth view, or it would knock on excised peers and
   miss joined ones. *)
let tag_mview = 8

let frame tag payload =
  let len = String.length payload in
  if len > 0xFFFF then invalid_arg "Store: record payload too large";
  let b = Bytes.create (4 + len + 4) in
  Bytes.set_uint8 b 0 Wire.format_version;
  Bytes.set_uint8 b 1 tag;
  Bytes.set_uint16_be b 2 len;
  Bytes.blit_string payload 0 b 4 len;
  let crc = crc32 (Bytes.unsafe_to_string b) ~pos:0 ~len:(4 + len) in
  Bytes.set_int32_be b (4 + len) (Int32.of_int crc);
  Bytes.to_string b

(* Parse one frame at [off]. [None] means the tail is torn: too short
   for a header, shorter than its declared length, or failing its CRC
   — all the shapes a crash mid-append leaves behind. A frame whose
   CRC is intact but whose version byte or structure is wrong is not
   crash damage and raises {!Corrupt}. *)
let parse_frame ~what s off =
  let avail = String.length s - off in
  if avail < 8 then None
  else
    let len = String.get_uint16_be s (off + 2) in
    if avail < 4 + len + 4 then None
    else
      let stored =
        Int32.to_int (String.get_int32_be s (off + 4 + len)) land 0xFFFFFFFF
      in
      if crc32 s ~pos:off ~len:(4 + len) <> stored then None
      else begin
        let v = String.get_uint8 s off in
        if v <> Wire.format_version then
          corrupt "%s: record format v%d, this binary speaks v%d" what v
            Wire.format_version;
        let tag = String.get_uint8 s (off + 1) in
        Some (tag, String.sub s (off + 4) len, off + 8 + len)
      end

let enc_payload f =
  let e = Wire.Enc.create () in
  f e;
  Wire.Enc.contents e

let enc_custody e = function
  | No_token -> Wire.Enc.u8 e 0
  | Holding { epoch; shared } ->
      Wire.Enc.u8 e 1;
      Wire.Enc.int_ e epoch;
      Wire.Enc.u8 e (if shared then 1 else 0)

let dec_custody d =
  match Wire.Dec.u8 d with
  | 0 -> No_token
  | 1 ->
      let epoch = Wire.Dec.int_ d in
      let shared = Wire.Dec.u8 d <> 0 in
      Holding { epoch; shared }
  | c -> raise (Wire.Malformed (Printf.sprintf "invalid custody tag %d" c))

let enc_mview e mv =
  Wire.Enc.option e
    (fun e (vnum, members) ->
      Wire.Enc.int_ e vnum;
      Wire.Enc.list e
        (fun e (mid, addr) ->
          Wire.Enc.int_ e mid;
          Wire.Enc.string e addr)
        members)
    mv

let dec_mview d =
  Wire.Dec.option d (fun d ->
      let vnum = Wire.Dec.int_ d in
      let members =
        Wire.Dec.list d (fun d ->
            let mid = Wire.Dec.int_ d in
            let addr = Wire.Dec.string d in
            (mid, addr))
      in
      (vnum, members))

let snapshot_payload ~n ~key v =
  enc_payload (fun e ->
      Wire.Enc.int_ e n;
      Wire.Enc.string e key;
      Wire.Enc.int_ e v.epoch;
      Wire.Enc.int_ e v.election;
      Wire.Enc.int_ e v.enq_round;
      Wire.Enc.int_ e v.next_seq;
      Wire.Enc.array e Wire.Enc.int_ v.granted;
      enc_custody e v.custody;
      enc_mview e v.mview)

let decode_snapshot ~n ~key payload =
  match
    let d = Wire.Dec.of_string payload in
    let stored_n = Wire.Dec.int_ d in
    let stored_key = Wire.Dec.string d in
    let epoch = Wire.Dec.int_ d in
    let election = Wire.Dec.int_ d in
    let enq_round = Wire.Dec.int_ d in
    let next_seq = Wire.Dec.int_ d in
    let granted = Wire.Dec.array d Wire.Dec.int_ in
    let custody = dec_custody d in
    let mview = dec_mview d in
    Wire.Dec.check_eof d;
    ( stored_n,
      stored_key,
      { epoch; election; enq_round; next_seq; granted; custody; mview } )
  with
  | stored_n, stored_key, v ->
      if stored_key <> key then
        corrupt "snapshot written for lock key %S, this store opened for %S"
          stored_key key;
      (* A store that never witnessed a committed view change still
         belongs to the birth cluster, where the size is an invariant.
         Once an mview is recorded the cluster has churned and the
         granted vector may legitimately exceed the birth size. *)
      if v.mview = None then begin
        if stored_n <> n then
          corrupt "snapshot written for a %d-node cluster, this one has %d"
            stored_n n;
        if Array.length v.granted <> n then
          corrupt "snapshot granted vector has %d entries, expected %d"
            (Array.length v.granted) n
      end;
      v
  | exception Wire.Malformed m -> corrupt "snapshot payload: %s" m

(* Fold one CRC-intact WAL record into [base]. Payload decode errors
   on an intact record mean a foreign format, not crash damage. *)
let apply_record ~n base (tag, payload) =
  match
    let d = Wire.Dec.of_string payload in
    let r =
      if tag = tag_epoch then { base with epoch = Wire.Dec.int_ d }
      else if tag = tag_election then { base with election = Wire.Dec.int_ d }
      else if tag = tag_enq_round then
        { base with enq_round = Wire.Dec.int_ d }
      else if tag = tag_next_seq then { base with next_seq = Wire.Dec.int_ d }
      else if tag = tag_served then begin
        let node = Wire.Dec.int_ d in
        let seq = Wire.Dec.int_ d in
        (* Joined nodes carry ids beyond the birth size, so the upper
           bound is soft: grow the vector rather than reject. An id
           that is negative or absurdly large is still corruption. *)
        if node < 0 || node >= n + 4096 then
          corrupt "WAL served record for node %d of %d" node n;
        let len = Array.length base.granted in
        let granted =
          if node < len then Array.copy base.granted
          else Array.append base.granted (Array.make (node + 1 - len) (-1))
        in
        granted.(node) <- seq;
        { base with granted }
      end
      else if tag = tag_custody then { base with custody = dec_custody d }
      else if tag = tag_mview then { base with mview = dec_mview d }
      else corrupt "unknown WAL record tag %d" tag
    in
    Wire.Dec.check_eof d;
    r
  with
  | r -> r
  | exception Wire.Malformed m -> corrupt "WAL record payload: %s" m

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

(* Registry handles resolved once at [open_]: the store's own [stats]
   record stays authoritative, these mirror the same activity into the
   canonical [Dmutex_obs.Names] series. *)
type obs_handles = {
  o_appends : Dmutex_obs.Registry.Counter.handle;
  o_fsync : Dmutex_obs.Registry.Histogram.handle;
  o_snapshots : Dmutex_obs.Registry.Counter.handle;
}

type t = {
  dir : string;
  n : int;
  key : string;
  wal_limit : int;
  obs : obs_handles option;
  mu : Mutex.t;
  mutable wal_fd : Unix.file_descr option;
  mutable cur : view option;  (** Last durable view. *)
  mutable wal_records : int;
  mutable wal_bytes : int;
  mutable snapshots : int;
  mutable replayed : int;
  mutable last_flush : float;
}

let snapshot_path t = Filename.concat t.dir "snapshot.bin"
let wal_path t = Filename.concat t.dir "wal.bin"

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let read_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let open_ ?(wal_limit = 4096) ?(key = "") ?obs ~dir ~n () =
  if n <= 0 then invalid_arg "Store.open_: n must be positive";
  if wal_limit <= 0 then invalid_arg "Store.open_: wal_limit must be positive";
  (try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (Unix.ENOENT, _, _) ->
      invalid_arg (Printf.sprintf "Store.open_: parent of %s missing" dir));
  let t =
    {
      dir;
      n;
      key;
      wal_limit;
      obs =
        Option.map
          (fun reg ->
            let open Dmutex_obs in
            {
              o_appends =
                Registry.Counter.get reg Names.store_wal_appends_total;
              o_fsync = Registry.Histogram.get reg Names.store_fsync_seconds;
              o_snapshots =
                Registry.Counter.get reg Names.store_snapshots_total;
            })
          obs;
      mu = Mutex.create ();
      wal_fd = None;
      cur = None;
      wal_records = 0;
      wal_bytes = 0;
      snapshots = 0;
      replayed = 0;
      last_flush = 0.0;
    }
  in
  (* Recover: snapshot first, then replay the WAL over it, truncating
     any torn tail to the last intact record. *)
  let base =
    match read_file (snapshot_path t) with
    | None -> None
    | Some raw -> (
        match parse_frame ~what:"snapshot" raw 0 with
        | None -> corrupt "snapshot truncated or CRC mismatch"
        | Some (tag, payload, next) ->
            if tag <> tag_snapshot then
              corrupt "snapshot file holds record tag %d" tag;
            if next <> String.length raw then
              corrupt "snapshot file has %d trailing bytes"
                (String.length raw - next);
            Some (decode_snapshot ~n ~key payload))
  in
  let wal_raw = Option.value ~default:"" (read_file (wal_path t)) in
  let check_key_record payload =
    match
      let d = Wire.Dec.of_string payload in
      let k = Wire.Dec.string d in
      Wire.Dec.check_eof d;
      k
    with
    | k ->
        if k <> key then
          corrupt "WAL written for lock key %S, this store opened for %S" k
            key
    | exception Wire.Malformed m -> corrupt "WAL key record payload: %s" m
  in
  let rec replay view off =
    match parse_frame ~what:"WAL" wal_raw off with
    | None -> (view, off)
    | Some (tag, payload, next) ->
        if tag = tag_snapshot then corrupt "snapshot record inside the WAL";
        t.replayed <- t.replayed + 1;
        if tag = tag_key then begin
          check_key_record payload;
          replay view next
        end
        else
          let base = match view with Some v -> v | None -> empty_view ~n in
          replay (Some (apply_record ~n base (tag, payload))) next
  in
  let view, valid_len = replay base 0 in
  if valid_len < String.length wal_raw then begin
    (* Torn tail: drop it so the next append starts on a frame
       boundary. *)
    let fd = Unix.openfile (wal_path t) [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd valid_len;
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  end;
  t.cur <- Option.map copy_view view;
  t.wal_records <- t.replayed;
  t.wal_bytes <- valid_len;
  t.wal_fd <-
    Some
      (Unix.openfile (wal_path t)
         [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
         0o644);
  t

let view t =
  with_mu t (fun () -> Option.map copy_view t.cur)

let stats t =
  with_mu t (fun () ->
      {
        wal_records = t.wal_records;
        wal_bytes = t.wal_bytes;
        snapshots = t.snapshots;
        replayed = t.replayed;
        last_flush = t.last_flush;
      })

(* Delta frames turning [old] into [v]; [old = None] diffs against the
   never-ran view so a first record persists every live field. *)
let delta_frames ~n old v =
  if Array.length v.granted < n && v.mview = None then
    invalid_arg "Store.record: granted vector length mismatch";
  let old = match old with Some o -> o | None -> empty_view ~n in
  let fs = ref [] in
  let add tag payload = fs := frame tag payload :: !fs in
  if v.epoch <> old.epoch then
    add tag_epoch (enc_payload (fun e -> Wire.Enc.int_ e v.epoch));
  if v.election <> old.election then
    add tag_election (enc_payload (fun e -> Wire.Enc.int_ e v.election));
  if v.enq_round <> old.enq_round then
    add tag_enq_round (enc_payload (fun e -> Wire.Enc.int_ e v.enq_round));
  if v.next_seq <> old.next_seq then
    add tag_next_seq (enc_payload (fun e -> Wire.Enc.int_ e v.next_seq));
  let old_served j =
    if j < Array.length old.granted then old.granted.(j) else -1
  in
  Array.iteri
    (fun j seq ->
      if seq <> old_served j then
        add tag_served
          (enc_payload (fun e ->
               Wire.Enc.int_ e j;
               Wire.Enc.int_ e seq)))
    v.granted;
  if v.custody <> old.custody then
    add tag_custody (enc_payload (fun e -> enc_custody e v.custody));
  if v.mview <> old.mview then
    add tag_mview (enc_payload (fun e -> enc_mview e v.mview));
  List.rev !fs

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec push off =
    if off < Bytes.length b then
      push (off + Unix.write fd b off (Bytes.length b - off))
  in
  push 0

(* Must hold [t.mu]. *)
let flush_locked t =
  match (t.cur, t.wal_fd) with
  | None, _ | _, None -> ()
  | Some v, Some wal_fd ->
      let tmp = Filename.concat t.dir "snapshot.tmp" in
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      write_all fd (frame tag_snapshot (snapshot_payload ~n:t.n ~key:t.key v));
      Unix.fsync fd;
      Unix.close fd;
      Unix.rename tmp (snapshot_path t);
      fsync_dir t.dir;
      Unix.ftruncate wal_fd 0;
      (try Unix.fsync wal_fd with Unix.Unix_error _ -> ());
      t.wal_records <- 0;
      t.wal_bytes <- 0;
      t.snapshots <- t.snapshots + 1;
      (match t.obs with
      | Some h -> Dmutex_obs.Registry.Counter.incr h.o_snapshots
      | None -> ());
      t.last_flush <- Unix.gettimeofday ()

let record t v =
  with_mu t (fun () ->
      match t.wal_fd with
      | None -> ()
      | Some fd ->
          let frames = delta_frames ~n:t.n t.cur v in
          if frames <> [] then begin
            (* A fresh WAL opens with the lock-key stamp so replay can
               verify the log belongs to this instance. *)
            let frames =
              if t.wal_bytes = 0 then
                frame tag_key
                  (enc_payload (fun e -> Wire.Enc.string e t.key))
                :: frames
              else frames
            in
            let batch = String.concat "" frames in
            write_all fd batch;
            let t0 = Unix.gettimeofday () in
            Unix.fsync fd;
            (match t.obs with
            | Some h ->
                Dmutex_obs.Registry.Counter.add h.o_appends
                  (List.length frames);
                Dmutex_obs.Registry.Histogram.observe h.o_fsync
                  (Unix.gettimeofday () -. t0)
            | None -> ());
            t.wal_records <- t.wal_records + List.length frames;
            t.wal_bytes <- t.wal_bytes + String.length batch;
            t.last_flush <- Unix.gettimeofday ();
            t.cur <- Some (copy_view v);
            if t.wal_records > t.wal_limit then flush_locked t
          end)

let flush t = with_mu t (fun () -> flush_locked t)

let close t =
  with_mu t (fun () ->
      match t.wal_fd with
      | None -> ()
      | Some fd ->
          flush_locked t;
          t.wal_fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ()))

let abort t =
  with_mu t (fun () ->
      match t.wal_fd with
      | None -> ()
      | Some fd ->
          t.wal_fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ()))
