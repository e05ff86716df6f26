(* Canonical metric names, shared by the simulator and the live
   runtime so a Grafana query (or the Cluster run report) reads the
   same series from either. Naming follows Prometheus conventions:
   [_total] for counters, [_seconds] for duration histograms, bare
   names for gauges and dimensionless histograms. *)

(* Protocol *)
let messages_sent_total = "dmutex_messages_sent_total" (* label: kind *)
let messages_received_total = "dmutex_messages_received_total" (* label: kind *)
let cs_entries_total = "dmutex_cs_entries_total"
let cs_time_seconds = "dmutex_cs_time_seconds" (* histogram: CS occupancy *)
let sync_delay_seconds = "dmutex_sync_delay_seconds" (* request -> CS entry *)
let queue_length = "dmutex_queue_length" (* histogram: Q length at dispatch *)
let phase_seconds = "dmutex_phase_seconds" (* label: phase=collection|forwarding *)
let notes_total = "dmutex_notes_total" (* label: note — protocol Note effects *)

let kind_label kind = [ ("kind", kind) ]
let phase_label phase = [ ("phase", phase) ]
let note_label note = [ ("note", note) ]

let lock_label lock = [ ("lock", lock) ]
(* Lock-instance dimension: every protocol series carries [lock=<key>]
   when the node hosts a keyed instance registry, so one scrape (or one
   merged snapshot) separates per-lock traffic. *)

(* Transport *)
let transport_sent_total = "dmutex_transport_sent_total"
let transport_delivered_total = "dmutex_transport_delivered_total"
let transport_dropped_total = "dmutex_transport_dropped_total"
let transport_retries_total = "dmutex_transport_retries_total"
let transport_reconnects_total = "dmutex_transport_reconnects_total"
let transport_queue_depth = "dmutex_transport_queue_depth" (* gauge *)
let transport_flushes_total = "dmutex_transport_flushes_total"

let transport_frames_per_flush = "dmutex_transport_frames_per_flush"
(* histogram: frames coalesced into one flush syscall *)

(* Liveness / node runtime *)
let suspicions_total = "dmutex_suspicions_total"

(* Dynamic membership. [view_epoch] and [member_count] carry
   [lock=<key>] — each lock instance runs its own view machinery, and a
   churn soak asserts the epoch is monotone per lock. *)
let view_epoch = "dmutex_view_epoch" (* gauge, label: lock *)
let member_count = "dmutex_member_count" (* gauge, label: lock *)

let unknown_peer_total = "dmutex_unknown_peer_total"
(* frames from a sender outside the lock's committed view that the
   protocol's membership gate dropped ([nonmember-dropped] notes) *)

(* Client session layer. [client_fencing] and the per-lock counters
   carry [lock=<key>]; rejections carry [reason=<reject reason>]. *)
let client_sessions = "dmutex_client_sessions" (* gauge: live sessions *)
let client_sessions_opened_total = "dmutex_client_sessions_opened_total"
let client_resumes_total = "dmutex_client_resumes_total"
let client_grants_total = "dmutex_client_grants_total" (* label: lock *)
let client_rejections_total = "dmutex_client_rejections_total" (* label: reason *)
let client_lease_expiries_total = "dmutex_client_lease_expiries_total"
let client_stale_grants_total = "dmutex_client_stale_grants_total"
(* grants dropped because no genuine fencing token could be derived
   (e.g. a recovery re-granted an already-served request) *)

let client_waiters = "dmutex_client_waiters" (* gauge, label: lock *)
let client_fencing = "dmutex_client_fencing" (* gauge, label: lock *)
let reason_label reason = [ ("reason", reason) ]

(* Read-write grants. Batched reader grants are counted per lock; the
   batch-size histogram shows how much sharing the workload admits. *)
let read_batches_total = "dmutex_read_batches_total" (* label: lock *)
let read_batch_size = "dmutex_read_batch_size" (* histogram, label: lock *)

(* Wait-for-graph deadlock detector ({!Wfg}): edges observed in the
   last scan and cycles ever found. Canonically ordered transactions
   must keep [wfg_cycles_total] at zero — the transaction soak asserts
   exactly that. *)
let wfg_edges = "dmutex_wfg_edges" (* gauge: edges in last scan *)
let wfg_cycles_total = "dmutex_wfg_cycles_total" (* counter *)

(* Durable store *)
let store_wal_appends_total = "dmutex_store_wal_appends_total"
let store_fsync_seconds = "dmutex_store_fsync_seconds" (* histogram *)
let store_snapshots_total = "dmutex_store_snapshots_total"
