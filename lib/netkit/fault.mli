(** Connectivity faults for the live TCP stack: crash-stop and
    partitions, the live counterpart of [Simkit.Network]'s
    [crash]/[partition], applied to real frames on their way to real
    sockets so the Section 6 recovery machinery can be exercised where
    it matters. Message loss is not here: each transport draws its own
    ({!Transport.set_loss}).

    One {!t} is normally shared by every node of an in-process
    {!Cluster}. A transport consults it when a frame is sent, again
    when its reactor serializes the frame for the socket, and again
    when a frame arrives. That makes a [crash i] symmetric (node [i]
    can neither be heard nor heard from) without reaching into [i]'s
    process state. A "crashed" node keeps running its local timers —
    to its peers it is indistinguishable from a fail-stop crash, and
    the protocol's epoch machinery must cope with whatever it does
    when (if) it is recovered.

    All operations are thread-safe. *)

type t

val create : unit -> t
(** A fault injector, initially transparent (no partition, nobody
    crashed). Every operation accepts any non-negative node id,
    including those of members that join later. *)

val crash : t -> int -> unit
(** Sever a node from the network (crash-stop). *)

val recover : t -> int -> unit
val is_crashed : t -> int -> bool

val partition : t -> int list list -> unit
(** Frames between nodes in different groups are dropped; nodes absent
    from every group form an implicit extra group. *)

val heal : t -> unit
(** Remove any partition. *)

val reachable : t -> src:int -> dst:int -> bool
(** Whether frames from [src] to [dst] currently pass the crash and
    partition filters. *)
