(** Bench regression gates.

    {!run} compares the derived metrics of a fresh [BENCH_RESULTS.json]
    against the committed baseline. Two families of checks:

    - {b relative}: messages-per-CS (high and light load), the
      read-write speedup and total wall-clock must not regress by more
      than a tolerance fraction over the baseline. Messages-per-CS is
      deterministic (pure simulation, fixed seeds) so its tolerance can
      be tight; wall-clock depends on the host, so its tolerance is
      separate and CI passes a loose one.
    - {b absolute}: the high-load messages-per-CS must sit inside the
      acceptance band [2.5, 4.5] derived from the paper's Eq. 4
      (M = 3 - 2/N), and the read-write speedup must be at least 2,
      independent of what the baseline says — a drifting baseline
      cannot ratchet the protocol away from the analysis.

    The big-N scale table ([derived.scale]) adds checks generated from
    the current run: the dmutex row's messages-per-CS must sit inside
    the Eq. 4 band {e at every swept N} and within tolerance of the
    baseline's matching cell, and the empirical scaling exponent must
    stay within 0.15 of the baseline's.

    Improvements never fail. A metric missing from the {e baseline}
    fails with "regenerate the baseline". A metric missing from the
    {e current} run fails too, unless [allow_missing] marks the run as
    deliberately sectioned.

    {!e2e} holds absolute floors and bands on the result of the
    end-to-end benchmark's [--workload all] run. *)

type outcome = {
  lines : string list;  (** human-readable report, one line per check *)
  failures : string list;  (** subset describing failed checks; empty = pass *)
  summary : string list;
      (** fixed-width per-metric table (header first): label, baseline,
          current, delta, status — the one-glance digest printed under
          the per-check report *)
}

val run :
  ?tolerance:float ->
  (* relative tolerance of every check except wall-clock and the
     scale exponent, default 0.25 *)
  ?wall_tolerance:float ->
  (* wall-clock relative tolerance, default 0.25 *)
  ?allow_missing:bool ->
  (* default false. True turns "metric missing from the current run"
     into a skip instead of a failure, for deliberately sectioned
     benches (DMUTEX_BENCH_ONLY) whose JSON legitimately lacks whole
     sections. Band checks on metrics that are present still apply. *)
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  outcome

val e2e : Json.t -> outcome
(** Checks the object that [dmutex_bench --workload all] prints
    (workload -> [{correct, ..., metrics: {name: {value, unit}}}], a
    child run without a result line as [null]):
    - [live-saturated]: [grants_per_s] at least 3950 and
      [messages_per_cs] in [2.5, 3.25] (Eq. 4 gives 2.6 at 5 nodes);
    - [client-durable]: [grants_per_s] at least 250 and
      [messages_per_cs] in the Eq. 4 band [2.5, 4.5].

    A missing workload or metric fails. Each failure line names the
    workload and the metric. *)
