//! Tier-1 contract for vrm-serve's durability layer: a daemon given a
//! `state_dir` must come back from a restart serving the same answers
//! it computed before — verdicts *and* parked checkpoints — and must
//! refuse to resurrect a corrupted log record.
//!
//! These tests drive the in-process [`Service`] (graceful shutdown /
//! restart); the SIGKILL variant over a real daemon process lives in
//! `crates/serve/tests/crash_recovery.rs`.

use std::path::PathBuf;
use std::time::Duration;

use vrm::explore::{seal, CheckpointFault, ExploreError, Verdict, CHECKPOINT_FOOTER_LEN};
use vrm::obs::{serve as counters, Counter};
use vrm::sekvm::machine::{ExhaustiveConfig, Machine, ScheduleResume};
use vrm::sekvm::{workloads, KCoreConfig};
use vrm::serve::{
    DurableStore, JobConfig, JobResult, JobSpec, ServeConfig, Service, StoreOptions, SubmitOutcome,
    WalRecord,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("vrm-serve-store-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn unmap() -> JobSpec {
    JobSpec::Schedules {
        workload: "unmap".into(),
    }
}

fn budget(max_states: usize) -> JobConfig {
    JobConfig {
        max_states,
        jobs: 1,
        escalate: false,
    }
}

/// Submits and waits; returns the result plus whether it was cached.
fn submit_wait(svc: &Service, spec: JobSpec, cfg: JobConfig) -> (JobResult, bool) {
    match svc.submit(spec, cfg).expect("submit") {
        SubmitOutcome::Cached { result, .. } => (result, true),
        SubmitOutcome::Queued(id) => {
            let snap = svc.wait(id);
            (
                snap.result
                    .expect("done job has a result")
                    .expect("job result"),
                false,
            )
        }
    }
}

fn durable_cfg(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        workers: 1,
        state_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

fn armed() -> bool {
    // Injected WAL write failures (VRM_FAULT_SEED) deliberately drop
    // records, voiding the exact durability assertions below.
    std::env::var_os("VRM_FAULT_SEED").is_some()
}

#[test]
fn verdicts_and_checkpoints_survive_a_restart() {
    if armed() {
        return;
    }
    let dir = temp_dir("roundtrip");

    // First life: an under-budget Unknown (which parks a checkpoint)
    // and a full refinement Pass, both written ahead to the WAL. The
    // second job is deliberately checkpoint-free so the parked walk is
    // still on disk when the daemon dies.
    let refinement = JobSpec::Refinement {
        workload: "unmap".into(),
    };
    let svc = Service::start(durable_cfg(&dir));
    let (small, small_cached) = submit_wait(&svc, unmap(), budget(40));
    assert!(!small_cached);
    assert!(small.verdict.is_unknown(), "{:?}", small.verdict);
    let (full, full_cached) = submit_wait(&svc, refinement.clone(), JobConfig::default());
    assert!(!full_cached);
    assert_eq!(full.verdict, Verdict::Pass);
    svc.shutdown();
    drop(svc);

    // Second life, same state dir: both verdicts must be served from
    // the replayed cache, bit-identical to the first computation.
    let replayed = Counter::new(counters::WAL_REPLAYED);
    let r0 = replayed.get();
    let svc = Service::start(durable_cfg(&dir));
    assert!(replayed.get() > r0, "restart must replay the WAL");
    let (small2, cached) = submit_wait(&svc, unmap(), budget(40));
    assert!(cached, "warm re-query must hit the replayed cache");
    assert_eq!(small2.verdict, small.verdict);
    assert_eq!(small2.states, small.states);
    assert_eq!(small2.detail, small.detail);
    assert_eq!(
        small2.wall_ns, small.wall_ns,
        "cached replies report the original cost"
    );
    let (full2, cached) = submit_wait(&svc, refinement, JobConfig::default());
    assert!(cached);
    assert_eq!(full2.verdict, full.verdict);
    assert_eq!(full2.states, full.states);
    assert_eq!(full2.detail, full.detail);

    // The parked checkpoint survived serialization, the WAL, and the
    // restart: a doubled budget resumes the paid-for walk exactly
    // where the first life's budget cut it.
    let (doubled, cached) = submit_wait(&svc, unmap(), budget(80));
    assert!(!cached, "a new budget is a new digest");
    assert_eq!(doubled.verdict, Verdict::Pass, "{}", doubled.detail);
    assert!(
        doubled.resumed,
        "the replayed checkpoint must be resumed, not recomputed"
    );
    assert_eq!(
        small.states + doubled.states_new,
        doubled.states,
        "resume must continue exactly where the first life stopped"
    );
    svc.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_wal_record_is_skipped_not_served() {
    if armed() {
        return;
    }
    let dir = temp_dir("corrupt");

    let svc = Service::start(durable_cfg(&dir));
    let (small, _) = submit_wait(&svc, unmap(), budget(40));
    assert!(small.verdict.is_unknown());
    let (full, _) = submit_wait(&svc, unmap(), JobConfig::default());
    assert_eq!(full.verdict, Verdict::Pass);
    svc.shutdown();
    drop(svc);

    // Flip the last payload byte of the final record (the Pass
    // verdict), leaving its trailing 8-byte checksum intact.
    let wal = dir.join(vrm::serve::store::WAL_FILE);
    let mut bytes = std::fs::read(&wal).expect("wal exists");
    let n = bytes.len();
    bytes[n - 9] ^= 0x01;
    std::fs::write(&wal, &bytes).expect("rewrite wal");

    let skipped = Counter::new(counters::WAL_CORRUPT_SKIPPED);
    let s0 = skipped.get();
    let svc = Service::start(durable_cfg(&dir));
    assert!(
        skipped.get() > s0,
        "the checksum-bad record must be counted as skipped"
    );
    // The corrupted verdict is gone — recomputed, not resurrected…
    let (full2, cached) = submit_wait(&svc, unmap(), JobConfig::default());
    assert!(!cached, "a corrupted record must not be served from cache");
    assert_eq!(full2.verdict, Verdict::Pass);
    // …while every record before it replayed intact.
    let (small2, cached) = submit_wait(&svc, unmap(), budget(40));
    assert!(cached, "records before the corruption must survive");
    assert_eq!(small2.verdict, small.verdict);
    svc.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_unknown_is_reexplored_from_its_checkpoint() {
    // Satellite contract: a cached `Unknown` is not a fact, only the
    // best answer a past budget could buy — after its TTL it must be
    // re-explored (from the parked checkpoint) instead of re-served.
    let svc = Service::start(ServeConfig {
        workers: 1,
        unknown_ttl: Some(Duration::from_millis(50)),
        ..Default::default()
    });
    let (first, cached) = submit_wait(&svc, unmap(), budget(40));
    assert!(!cached);
    assert!(first.verdict.is_unknown());

    // Within the TTL the Unknown is served from cache.
    let (_, cached) = submit_wait(&svc, unmap(), budget(40));
    assert!(cached, "a fresh Unknown is still served");

    std::thread::sleep(Duration::from_millis(120));
    let expired = Counter::new(counters::UNKNOWN_EXPIRED);
    let e0 = expired.get();
    let (again, cached) = submit_wait(&svc, unmap(), budget(40));
    assert!(!cached, "an expired Unknown must not be served");
    assert!(expired.get() > e0, "the expiry must be counted");
    assert!(
        again.resumed,
        "the re-exploration must start from the parked checkpoint"
    );
    svc.shutdown();
}

/// The magics of the schedule-checkpoint formats this build refuses:
/// version 1 digested the state's debug text, version 2 nested the
/// engine's own sealed container inside its image, and version 3
/// carried no sleep masks.
const OLD_VERSIONS: [&[u8; 8]; 3] = [b"VRMSRES1", b"VRMSRES2", b"VRMSRES3"];

/// The unmap walk parked at 40 states, sealed under an older format's
/// `magic`: intact, and refused only because of what the magic says.
fn old_version_blob(magic: &[u8; 8]) -> Vec<u8> {
    let small = ExhaustiveConfig {
        max_states: 40,
        jobs: 1,
        ..ExhaustiveConfig::default()
    };
    let parked = Machine::explore_schedules(KCoreConfig::default(), workloads::unmap(), &small)
        .expect("walk")
        .resume
        .expect("a 40-state unmap walk is truncated");
    let image = parked.to_bytes().expect("images are never None");
    assert_eq!(&image[..8], b"VRMSRES4");
    let mut body = magic.to_vec();
    body.extend_from_slice(&image[8..image.len() - CHECKPOINT_FOOTER_LEN]);
    seal(body)
}

#[test]
fn a_version_1_schedule_checkpoint_is_rejected_on_its_magic() {
    for magic in OLD_VERSIONS {
        let err = ScheduleResume::from_bytes(
            KCoreConfig::default(),
            workloads::unmap(),
            &old_version_blob(magic),
        )
        .expect_err("an old-format blob must not resume");
        assert!(
            matches!(
                err,
                ExploreError::CorruptCheckpoint(CheckpointFault::BadMagic)
            ),
            "{}: {err:?}",
            String::from_utf8_lossy(magic)
        );
    }
}

#[test]
fn a_parked_version_1_checkpoint_is_recomputed_not_resumed() {
    if armed() {
        return;
    }
    // The same answer a daemon with no checkpoint gives.
    let fresh = Service::start(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let (expected, _) = submit_wait(&fresh, unmap(), budget(1 << 16));
    fresh.shutdown();
    assert_eq!(expected.verdict, Verdict::Pass, "{}", expected.detail);
    for magic in OLD_VERSIONS {
        let version = String::from_utf8_lossy(magic);
        let dir = temp_dir(&version);
        // A state dir left by an older build: its log parks the unmap
        // walk in that build's format.
        let pdigest = vrm::serve::digest::program_digest(&unmap()).expect("program digest");
        let (mut store, _) = DurableStore::open(&dir, StoreOptions::default()).expect("open log");
        store.append(&WalRecord::Park {
            pdigest,
            blob: old_version_blob(magic),
        });
        drop(store);

        let corrupt = Counter::new(counters::CHECKPOINT_CORRUPT);
        let c0 = corrupt.get();
        let svc = Service::start(durable_cfg(&dir));
        let (res, cached) = submit_wait(&svc, unmap(), budget(1 << 16));
        svc.shutdown();
        assert!(!cached, "{version}");
        assert_eq!(
            corrupt.get() - c0,
            1,
            "{version}: the stale checkpoint must be counted"
        );
        assert!(
            !res.resumed,
            "{version}: an old checkpoint must not be resumed"
        );
        assert_eq!(
            res.states_new, res.states,
            "{version}: the walk restarts from scratch"
        );
        assert_eq!(res.verdict, expected.verdict, "{version}");
        assert_eq!(res.states, expected.states, "{version}");
        assert_eq!(res.detail, expected.detail, "{version}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
