(** Durable per-node protocol store: append-only CRC-framed
    write-ahead log plus atomic snapshot.

    A node persists the protocol-critical slice of its state — the
    token-regeneration epoch, the election and ENQUIRY-round counters,
    its own request counter, the last-served sequence per peer (the
    paper's [L] vector), and {e token custody} — so that after a
    crash-restart it provably knows whether it held the token and from
    which epoch universe it came. Section 6's failure handling assumes
    a failed node can come back; without this store a restarted node
    has amnesia and could re-mint the token or reuse a regeneration
    epoch, breaking safety.

    Durability discipline (enforced by the caller, [Netkit.Node_runner]):
    the post-step view is {!record}ed — and fsynced — {e before} any of
    the step's effects are applied. In particular the custody record
    hits disk before the node enters its critical section and before a
    dispatched token's PRIVILEGE frame can reach the socket, so a
    crash at any point leaves a view that never {e over}-claims
    custody of a token some other node might hold.

    On-disk layout in the state directory: [snapshot.bin] (one framed
    record, replaced atomically by write-temp + fsync + rename) and
    [wal.bin] (framed delta records appended and fsynced per
    {!record}). Every frame leads with {!Wire.format_version} and ends
    with a CRC-32, so a stale or foreign state directory fails loudly
    ({!Corrupt}) while a torn tail — the normal shape of a crash
    mid-append — silently truncates to the last intact record.

    All operations are thread-safe. *)

exception Corrupt of string
(** The state directory cannot be trusted: format-version mismatch,
    snapshot CRC failure, or a cluster-size mismatch. Never raised for
    a torn or truncated WAL tail, which is expected crash damage and
    is repaired by truncation. *)

(** Who held the token, according to the last fsynced record. *)
type custody =
  | No_token
  | Holding of { epoch : int; shared : bool }
      (** The node held the token of this regeneration epoch. [shared]
          records that the hold was as the coordinator of a shared
          read batch — informational for post-crash forensics; custody
          semantics (who must start invalidation) are identical. *)

type view = {
  epoch : int;  (** Highest token-regeneration epoch witnessed. *)
  election : int;  (** Highest arbiter-election number witnessed. *)
  enq_round : int;  (** Highest ENQUIRY round seen or started. *)
  next_seq : int;  (** The node's own request counter. *)
  granted : int array;
      (** Last-served request sequence per peer (the [L] vector); may
          be longer than the birth cluster size once nodes join. *)
  custody : custody;
  mview : (int * (int * string) list) option;
      (** Last {e committed} membership view: [(vnum, members)] with
          each member as [(id, addr)]. [None] until a view change
          commits — the node still belongs to the birth view. A
          restart rejoins the recorded view, not the birth view. *)
}
(** The protocol-critical slice of one node's state. *)

type stats = {
  wal_records : int;  (** Delta records appended since open/snapshot. *)
  wal_bytes : int;  (** Current WAL size in bytes. *)
  snapshots : int;  (** Snapshots written since open. *)
  replayed : int;  (** WAL records replayed at open. *)
  last_flush : float;  (** Unix time of the last fsync; 0 if none. *)
}

type t

val empty_view : n:int -> view
(** All counters zero, nothing granted, no custody — the view of a
    node that has never run. *)

val dir_name_of_key : string -> string
(** Filesystem-safe directory name for a lock key: characters outside
    [[A-Za-z0-9_-]] are percent-encoded (lowercase hex). Guarded by an
    encode→decode round trip — if the encoding would not decode back
    to the exact key (so two distinct keys could share a state
    directory), raises {!Corrupt} instead of returning. *)

val lock_dir : root:string -> string -> string
(** [lock_dir ~root key] is the state directory of lock [key] under a
    node's state directory [root]: [root/lock-<dir_name_of_key key>].
    The one definition of the per-lock layout, shared by every tool
    that opens per-lock stores so they all agree on it. *)

val key_of_dir_name : string -> string
(** Inverse of {!dir_name_of_key}; accepts both hex cases in
    [%XX]-escapes (directories written by older builds used either).
    Raises {!Corrupt} on a truncated or non-hex escape. *)

val fencing_minor_bits : int
(** Bit width of the fencing token's per-epoch grant counter (40). *)

val fencing : epoch:int -> minor:int -> int
(** Pack a fencing token: the token-regeneration [epoch] above a
    per-epoch grant counter [minor] ([epoch * 2^40 + minor], both
    components non-negative or [Invalid_argument]). Tokens compare
    with plain integer [>]: a regeneration bumps [epoch] and dominates
    any grant count from the stale universe. *)

val fencing_epoch : int -> int
val fencing_minor : int -> int
(** Unpack the components of a {!fencing} token. *)

val grant_sum : int array -> int
(** Sum of [(granted.(j) + 1)] over served slots of an [L] vector —
    the number of grants it records. Within one regeneration epoch
    this is non-decreasing as grants are marked, which is what makes
    it usable as the fencing minor component. *)

val open_ :
  ?wal_limit:int -> ?key:string -> ?obs:Dmutex_obs.Registry.t ->
  dir:string -> n:int -> unit -> t
(** Open (creating if needed) the state directory and recover:
    load the snapshot if present, replay the WAL over it, and truncate
    any torn tail. [n] is the birth cluster size; a directory written
    for a different [n] raises {!Corrupt} {e unless} the snapshot
    records a committed membership view (churned clusters outgrow
    their birth size), as does any format-version mismatch. [key] (default [""]) names the lock instance this store
    belongs to: it is embedded in the snapshot and stamped as the first
    record of every fresh WAL, so a directory written for a different
    lock key raises {!Corrupt} instead of silently cross-feeding
    instances. [wal_limit] (default 4096) bounds the WAL record count
    before an automatic snapshot folds it away. [obs] mirrors store
    activity into that registry: WAL appends and snapshot counts as
    counters, per-{!record} fsync latency as a histogram (the
    [dmutex_store_*] series of {!Dmutex_obs.Names}). *)

val view : t -> view option
(** The recovered (and since-updated) view, or [None] if the
    directory held no durable state — which on a {e restart} is
    amnesia and must be treated as such by the caller. *)

val record : t -> view -> unit
(** Make [v] durable: append one delta record per changed field to the
    WAL and fsync once. A no-change call writes nothing. Automatically
    folds the WAL into a snapshot past [wal_limit]. No-op after
    {!close}/{!abort}. *)

val flush : t -> unit
(** Fold the current view into the snapshot now (write-temp + fsync +
    rename + directory fsync) and truncate the WAL. No-op if nothing
    was ever recorded, or after {!close}/{!abort}. *)

val stats : t -> stats

val close : t -> unit
(** Graceful shutdown: {!flush}, then close the file descriptors.
    Idempotent. *)

val abort : t -> unit
(** Crash-style shutdown: close the descriptors {e without} flushing —
    what a real crash leaves behind is exactly the already-fsynced
    snapshot + WAL. Used by restart chaos drills. Idempotent. *)
