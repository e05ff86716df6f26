(** The safety checker: one judge of a critical-section history, shared
    by the simulator, the offline trace audit and every live soak.

    Callers report what a resource observed — a holder entering a
    lock's CS in some mode (optionally carrying a fencing token), the
    holder leaving, a holder crashing — and the checker decides whether
    the history so far is safe. The property is the paper's mutual
    exclusion (Section 2.3) generalized to reader/writer exclusion per
    lock, plus monotone fencing where tokens are given:

    - {b Without fencing}: two holders of one lock may overlap only if
      both are [Shared]; entering while already inside and leaving
      without being inside are violations; {!crash} clears the
      holder's open entries.
    - {b With fencing}: a [Shared] entry carrying the token of a
      [Shared] batch inside joins it; otherwise a token not newer than
      an occupant's is refused as stale ({!Fenced_off}, counted but
      not a violation), and a newer token over older occupants takes
      over (they are fenced out, and their later {!leave} is
      absorbed). At a free resource a token that regresses is a
      violation, and an equal token is allowed only when both it and
      the previous entry are [Shared] (one shared batch).

    Every operation is thread-safe. *)

type t

type entry = { holder : int; mode : Types.mode; fencing : int option }

type violation =
  | Overlap of { lock : string; entry : entry; occupant : entry }
      (** [entry] came in while the incompatible [occupant] was inside. *)
  | Double_entry of { lock : string; entry : entry }
      (** The holder entered while already inside. *)
  | Orphan_leave of { lock : string; holder : int }
      (** The holder left without being inside. *)
  | Regression of { lock : string; entry : entry; previous : entry }
      (** At a free resource, [entry]'s token did not advance past the
          [previous] entry's. *)

type verdict =
  | Admitted
  | Violation of violation  (** Admitted, and counted as a violation. *)
  | Fenced_off  (** Refused as stale: the holder is not inside. *)

type lock_report = {
  peak_shared : int;  (** Most [Shared] holders inside at once. *)
  newest : int option;  (** Token of the most recent fenced entry. *)
}

type report = {
  entries : int;  (** Admitted entries, violating ones included. *)
  fenced_off : int;
  takeovers : int;  (** Occupants fenced out by a newer token. *)
  violations : int;
  first : violation list;  (** The first few violations, oldest first. *)
  locks : (string * lock_report) list;  (** Sorted by lock. *)
}

val create : unit -> t

val enter :
  ?fencing:int -> t -> lock:string -> holder:int -> mode:Types.mode -> verdict
(** A holder that is {!Admitted} or in {!Violation} is inside and must
    {!leave}; a {!Fenced_off} one is not. *)

val leave : t -> lock:string -> holder:int -> unit
val crash : t -> holder:int -> unit

val report : t -> report

val pp_violation : Format.formatter -> violation -> unit

val pp_report : Format.formatter -> report -> unit
(** One summary line, then one line per recorded violation. *)
