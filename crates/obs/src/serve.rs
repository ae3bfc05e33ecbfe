//! Counter-name registry for the `vrm-serve` daemon.
//!
//! `vrm-obs` keeps zero in-workspace dependencies, so the serve layer's
//! [`Counter`](crate::Counter)s are *declared* over in `vrm-serve` —
//! but their **names** live here, next to every other counter registry
//! this crate documents, so trace consumers, tests and CI assertions
//! address them through one vocabulary instead of scattered string
//! literals. All names are `serve/`-prefixed; the full registry with
//! per-counter semantics is documented in `docs/TELEMETRY.md` and
//! `docs/SERVE.md`.
//!
//! The cache counters carry the serve subsystem's headline soundness
//! and performance claims: a corpus replay served entirely warm shows
//! `serve/cache_hit` advancing while `serve/states_explored` stands
//! still — repeat queries are O(1) and cost zero new exploration.

/// Client connections accepted (TCP or Unix domain socket).
pub const CONNECTIONS: &str = "serve/connections";
/// Request lines parsed and dispatched, across all connections.
pub const REQUESTS: &str = "serve/requests";
/// Protocol lines rejected before dispatch (unparseable or invalid).
pub const BAD_REQUESTS: &str = "serve/bad_requests";
/// Jobs answered straight from the verdict cache.
pub const CACHE_HIT: &str = "serve/cache_hit";
/// Jobs that missed the cache and were queued for exploration.
pub const CACHE_MISS: &str = "serve/cache_miss";
/// Jobs admitted to the scheduler queue.
pub const JOBS_SUBMITTED: &str = "serve/jobs_submitted";
/// Jobs completed (verdict stored, waiters notified).
pub const JOBS_COMPLETED: &str = "serve/jobs_completed";
/// Jobs whose fast-lane run came back `Unknown` and were re-run on the
/// escalation lane with doubled budgets.
pub const JOBS_ESCALATED: &str = "serve/jobs_escalated";
/// Escalated or re-queried jobs that resumed from a parked checkpoint
/// (its sealed `VRMSRES4` image) instead of restarting from scratch.
pub const CHECKPOINT_RESUME: &str = "serve/checkpoint_resume";
/// Cached checkpoints rejected as corrupt (footer or decode failure).
pub const CHECKPOINT_CORRUPT: &str = "serve/checkpoint_corrupt";
/// Parked checkpoints evicted by the store's LRU cap (the suspended
/// walk is forgotten; a later re-query restarts from scratch).
pub const CHECKPOINT_EVICTED: &str = "serve/checkpoint_evicted";
/// States explored on behalf of serve jobs (fresh exploration work;
/// stands still across a fully cache-served replay).
pub const STATES_EXPLORED: &str = "serve/states_explored";
/// Cached verdicts evicted by the verdict cache's LRU cap (the verdict
/// is forgotten; a later identical query recomputes it).
pub const VERDICT_EVICTED: &str = "serve/verdict_evicted";
/// Cached `Unknown` verdicts past their staleness TTL at lookup time:
/// the entry is dropped and the query re-explores (resuming any parked
/// checkpoint) instead of serving the stale `Unknown` forever.
pub const UNKNOWN_EXPIRED: &str = "serve/unknown_expired";
/// Write-ahead-log records skipped on replay as torn or checksum-bad.
pub const WAL_CORRUPT_SKIPPED: &str = "serve/wal_corrupt_skipped";
/// Write-ahead-log appends that failed (I/O error or an injected
/// `WalFail` fault); the daemon degrades to in-memory service of that
/// record and keeps answering.
pub const WAL_WRITE_FAILED: &str = "serve/wal_write_failed";
/// Write-ahead-log compactions (live-state snapshot atomically
/// replacing the grown log).
pub const WAL_COMPACTIONS: &str = "serve/wal_compactions";
/// Entries (verdicts + checkpoints) restored from the write-ahead log
/// on daemon start.
pub const WAL_REPLAYED: &str = "serve/wal_replayed";
/// Worker processes spawned by the supervisor.
pub const WORKER_SPAWNED: &str = "serve/worker_spawned";
/// Worker processes SIGKILLed for exceeding their per-job wall-clock
/// deadline.
pub const WORKER_KILLED: &str = "serve/worker_killed";
/// Worker processes that exited without a usable answer (crash,
/// nonzero exit, unparsable output) — each is retried with backoff up
/// to the supervisor's restart bound.
pub const WORKER_CRASHED: &str = "serve/worker_crashed";
/// Jobs degraded to `Unknown{WorkerLost}` after the supervisor's kill
/// or restart budget was exhausted.
pub const WORKER_LOST: &str = "serve/worker_lost";
/// Client-side reconnect-and-resubmit attempts (idempotent retries
/// after a torn frame or dropped connection).
pub const CLIENT_RETRIES: &str = "serve/client_retries";
/// Response frames deliberately cut mid-write by the injected
/// `Disconnect` fault (chaos runs only).
pub const FRAMES_CUT: &str = "serve/frames_cut";

/// Every serve counter name, for exhaustive snapshot assertions.
pub const ALL: &[&str] = &[
    CONNECTIONS,
    REQUESTS,
    BAD_REQUESTS,
    CACHE_HIT,
    CACHE_MISS,
    JOBS_SUBMITTED,
    JOBS_COMPLETED,
    JOBS_ESCALATED,
    CHECKPOINT_RESUME,
    CHECKPOINT_CORRUPT,
    CHECKPOINT_EVICTED,
    STATES_EXPLORED,
    VERDICT_EVICTED,
    UNKNOWN_EXPIRED,
    WAL_CORRUPT_SKIPPED,
    WAL_WRITE_FAILED,
    WAL_COMPACTIONS,
    WAL_REPLAYED,
    WORKER_SPAWNED,
    WORKER_KILLED,
    WORKER_CRASHED,
    WORKER_LOST,
    CLIENT_RETRIES,
    FRAMES_CUT,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_prefixed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in ALL {
            assert!(name.starts_with("serve/"), "{name}");
            assert!(seen.insert(name), "duplicate counter name {name}");
        }
    }
}
