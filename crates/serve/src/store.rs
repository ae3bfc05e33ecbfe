//! The daemon's durable state: a write-ahead log for the verdict
//! cache and the parked-checkpoint store.
//!
//! A restart must not forget what the daemon paid to learn. Every
//! cache-relevant mutation is appended to `serve.wal` under the
//! daemon's `--state-dir` *before* the in-memory structure applies it;
//! on the next start the log is replayed in order and a warm corpus
//! pass is bit-identical to pre-crash, 100% cache hits. The file is a
//! log, not a database: append-only records behind an 8-byte magic,
//! compacted to a live-state snapshot (atomic `rename` over the old
//! log) once the appended volume crosses a threshold.
//!
//! ## On-disk format (`VRMWAL1\n`)
//!
//! | offset | field |
//! |--------|-------|
//! | 0      | magic `b"VRMWAL1\n"` |
//! | 8      | records, back to back |
//!
//! Each record is `[kind u8][len u32 LE][payload][fnv1a64 u64 LE]`,
//! the checksum taken over the kind byte, the length bytes and the
//! payload (via [`vrm_explore::checksum64`], the FNV-1a that also
//! seals checkpoint images). Payloads are read back through the shared
//! [`vrm_explore::Cursor`]. Record kinds:
//!
//! | kind | meaning | payload |
//! |------|---------|---------|
//! | 1 | verdict insert | digest `u128`, verdict, `states u64`, `wall_ns u64`, detail (`u32` length + UTF-8) |
//! | 2 | checkpoint park | program digest `u128`, `u32` length, sealed `VRMSRES4` image |
//! | 3 | checkpoint take | program digest `u128` |
//! | 4 | verdict remove (TTL expiry) | digest `u128` |
//!
//! A verdict is one tag byte (0 pass, 1 fail, 2 unknown); an unknown
//! adds its coverage as `states u64`, `frontier_len u64` and the
//! [`TruncationReason::tag`] byte.
//!
//! A park record's blob is opaque here: one from an older format
//! (`VRMSRES1` to `VRMSRES3`) replays into the store like any other, and
//! the job that takes it fails to decode it, counts it on
//! `serve/checkpoint_corrupt` and walks from scratch.
//!
//! ## Crash-safety discipline
//!
//! The daemon is designed to die by SIGKILL mid-append. Replay
//! therefore distinguishes two corruptions:
//!
//! * a **torn tail** — the file ends inside a record (the crash
//!   interrupted the final `write_all`). Everything before the tear
//!   replays; the tear itself is truncated away on open so the next
//!   append starts on a record boundary. Counted on
//!   `serve/wal_corrupt_skipped`.
//! * a **bad checksum** mid-file (bit rot, a hostile edit): the record
//!   is skipped by its intact framing and replay continues. Also
//!   counted on `serve/wal_corrupt_skipped`, as is an intact frame
//!   whose payload does not decode exactly (an unknown kind or tag,
//!   bytes left over, a detail that is not UTF-8). The
//!   `wal-skips-checksum` mutant disables this verification
//!   ([`StoreOptions::verify_checksums`]) and is killed by the
//!   mutation campaign.
//!
//! Appends deliberately do not fsync: the threat model is process
//! death (SIGKILL, OOM-kill, panic), which the page cache survives,
//! not power loss — a lost suffix only costs re-verification, never a
//! wrong verdict, because every record is recomputable.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use vrm_explore::{checksum64, Coverage, Cursor, TruncationReason, Verdict};
use vrm_obs::serve as names;
use vrm_obs::Counter;

use crate::cache::CacheEntry;

/// Leading magic of a serve write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"VRMWAL1\n";

/// The log's file name under the daemon's `--state-dir`.
pub const WAL_FILE: &str = "serve.wal";

/// Durability policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Whether replay verifies record checksums. **Always `true` in
    /// production**; `false` is the `serve-wal-skips-checksum` mutant,
    /// under which a corrupted verdict record is replayed as if it
    /// were intact.
    pub verify_checksums: bool,
    /// Appended bytes after which [`DurableStore::should_compact`]
    /// asks the service to snapshot live state over the grown log.
    pub compact_threshold: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            verify_checksums: true,
            compact_threshold: 1 << 20,
        }
    }
}

/// One durable mutation, in replay order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A verdict entered the cache.
    Verdict {
        /// The job's content digest (the cache key).
        digest: u128,
        /// The cached answer.
        entry: CacheEntry,
    },
    /// A suspended walk was parked, serialized as its sealed
    /// `VRMSRES4` image.
    Park {
        /// The program digest (the checkpoint-store key).
        pdigest: u128,
        /// The serialized [`vrm_sekvm::machine::ScheduleResume`].
        blob: Vec<u8>,
    },
    /// A parked walk was taken for resumption.
    Take {
        /// The program digest.
        pdigest: u128,
    },
    /// A cached verdict was dropped (stale-`Unknown` TTL expiry).
    Remove {
        /// The job's content digest.
        digest: u128,
    },
}

/// What replaying an existing log produced.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Records dropped as torn, checksum-bad or undecodable.
    pub skipped: u64,
}

/// The append handle over one `serve.wal`, plus its replay logic.
#[derive(Debug)]
pub struct DurableStore {
    path: PathBuf,
    file: Option<File>,
    opts: StoreOptions,
    /// Bytes appended since open or the last compaction.
    written: u64,
}

impl DurableStore {
    /// Opens (creating if absent) the log under `state_dir`, replays
    /// it, truncates any torn tail, and returns the append handle
    /// plus every surviving record in order.
    pub fn open(
        state_dir: &Path,
        opts: StoreOptions,
    ) -> std::io::Result<(DurableStore, ReplayOutcome)> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(WAL_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let (outcome, good_len) = replay(&bytes, &opts);
        if outcome.skipped > 0 {
            Counter::new(names::WAL_CORRUPT_SKIPPED).add(outcome.skipped);
        }
        let file = if bytes.is_empty() {
            let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
            f.write_all(WAL_MAGIC)?;
            f
        } else {
            // A torn tail is cut away so the next append starts on a
            // record boundary; mid-file skips keep their bytes (the
            // framing is intact, replay steps over them every time).
            if (good_len as u64) < bytes.len() as u64 {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(good_len as u64)?;
            }
            OpenOptions::new().append(true).open(&path)?
        };
        Ok((
            DurableStore {
                path,
                file: Some(file),
                opts,
                written: 0,
            },
            outcome,
        ))
    }

    /// The policy this store runs under.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// Appends one record, write-ahead of the in-memory mutation it
    /// records. An I/O failure — or an injected
    /// [`vrm_faults::FaultKind::WalFail`] — degrades that record to
    /// memory-only (counted on `serve/wal_write_failed`): the daemon
    /// keeps answering, it just forgets this record on restart.
    pub fn append(&mut self, rec: &WalRecord) {
        if vrm_faults::poll(vrm_faults::Site::WalWrite) == Some(vrm_faults::FaultKind::WalFail) {
            Counter::new(names::WAL_WRITE_FAILED).add(1);
            return;
        }
        let frame = encode_record(rec);
        let ok = match &mut self.file {
            Some(f) => f.write_all(&frame).and_then(|()| f.flush()).is_ok(),
            None => false,
        };
        if ok {
            self.written += frame.len() as u64;
        } else {
            Counter::new(names::WAL_WRITE_FAILED).add(1);
        }
    }

    /// `true` once enough has been appended that the service should
    /// call [`compact`](Self::compact) with its live state.
    pub fn should_compact(&self) -> bool {
        self.written > self.opts.compact_threshold
    }

    /// Replaces the grown log with a snapshot of live state: the
    /// records are written to `serve.wal.tmp` and atomically renamed
    /// over the log, so a crash mid-compaction leaves the old log
    /// intact. Counted on `serve/wal_compactions`.
    pub fn compact(&mut self, live: impl Iterator<Item = WalRecord>) {
        let tmp = self.path.with_extension("wal.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(WAL_MAGIC)?;
            for rec in live {
                f.write_all(&encode_record(&rec))?;
            }
            f.flush()?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(())
        };
        match write() {
            Ok(()) => {
                self.file = OpenOptions::new().append(true).open(&self.path).ok();
                self.written = 0;
                Counter::new(names::WAL_COMPACTIONS).add(1);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                Counter::new(names::WAL_WRITE_FAILED).add(1);
            }
        }
    }
}

/// Parses a log image into its surviving records plus the byte length
/// of the well-framed prefix (everything past it is a torn tail).
pub fn replay(bytes: &[u8], opts: &StoreOptions) -> (ReplayOutcome, usize) {
    let mut out = ReplayOutcome::default();
    if bytes.is_empty() {
        return (out, 0);
    }
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Not a log at all: everything is dropped and the file is
        // rewritten from the magic up.
        out.skipped = 1;
        return (out, 0);
    }
    let mut pos = WAL_MAGIC.len();
    let mut good_len = pos;
    while pos < bytes.len() {
        let Some((rec_end, kind, payload)) = frame_at(bytes, pos) else {
            // Torn tail: the final record was interrupted mid-write.
            out.skipped += 1;
            break;
        };
        let framed = &bytes[pos..pos + 5 + payload.len()];
        let sum = u64::from_le_bytes(bytes[rec_end - 8..rec_end].try_into().expect("8 bytes"));
        let intact = !opts.verify_checksums || sum == checksum64(framed);
        if intact {
            match decode_record(kind, payload) {
                Some(rec) => out.records.push(rec),
                None => out.skipped += 1,
            }
        } else {
            out.skipped += 1;
        }
        pos = rec_end;
        good_len = pos;
    }
    (out, good_len)
}

/// The `[kind][len][payload]` + checksum frame starting at `pos`, or
/// `None` when the remaining bytes cannot hold it (a torn tail).
fn frame_at(bytes: &[u8], pos: usize) -> Option<(usize, u8, &[u8])> {
    if bytes.len() - pos < 5 {
        return None;
    }
    let kind = bytes[pos];
    let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
    let rec_end = pos.checked_add(5)?.checked_add(len)?.checked_add(8)?;
    if rec_end > bytes.len() {
        return None;
    }
    Some((rec_end, kind, &bytes[pos + 5..pos + 5 + len]))
}

/// Serializes one record into its on-disk frame.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let (kind, payload) = match rec {
        WalRecord::Verdict { digest, entry } => {
            let mut p = Vec::new();
            p.extend_from_slice(&digest.to_le_bytes());
            encode_verdict(&mut p, &entry.verdict);
            p.extend_from_slice(&(entry.states as u64).to_le_bytes());
            p.extend_from_slice(&entry.wall_ns.to_le_bytes());
            p.extend_from_slice(&(entry.detail.len() as u32).to_le_bytes());
            p.extend_from_slice(entry.detail.as_bytes());
            (1u8, p)
        }
        WalRecord::Park { pdigest, blob } => {
            let mut p = Vec::new();
            p.extend_from_slice(&pdigest.to_le_bytes());
            p.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            p.extend_from_slice(blob);
            (2u8, p)
        }
        WalRecord::Take { pdigest } => (3u8, pdigest.to_le_bytes().to_vec()),
        WalRecord::Remove { digest } => (4u8, digest.to_le_bytes().to_vec()),
    };
    frame(kind, &payload)
}

/// `[kind][len][payload]` followed by the checksum over all three.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(5 + payload.len() + 8);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let sum = checksum64(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

fn decode_record(kind: u8, payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match kind {
        1 => WalRecord::Verdict {
            digest: c.u128()?,
            entry: CacheEntry {
                verdict: decode_verdict(&mut c)?,
                states: c.u64()? as usize,
                wall_ns: c.u64()?,
                detail: c.str()?.to_owned(),
            },
        },
        2 => {
            let pdigest = c.u128()?;
            let len = c.u32()? as usize;
            WalRecord::Park {
                pdigest,
                blob: c.take(len)?.to_vec(),
            }
        }
        3 => WalRecord::Take { pdigest: c.u128()? },
        4 => WalRecord::Remove { digest: c.u128()? },
        _ => return None,
    };
    c.is_empty().then_some(rec)
}

fn encode_verdict(out: &mut Vec<u8>, v: &Verdict) {
    match v {
        Verdict::Pass => out.push(0),
        Verdict::Fail => out.push(1),
        Verdict::Unknown { coverage } => {
            out.push(2);
            out.extend_from_slice(&(coverage.states as u64).to_le_bytes());
            out.extend_from_slice(&(coverage.frontier_len as u64).to_le_bytes());
            out.push(coverage.reason.tag());
        }
    }
}

fn decode_verdict(c: &mut Cursor<'_>) -> Option<Verdict> {
    match c.u8()? {
        0 => Some(Verdict::Pass),
        1 => Some(Verdict::Fail),
        2 => Some(Verdict::Unknown {
            coverage: Coverage {
                states: c.u64()? as usize,
                frontier_len: c.u64()? as usize,
                reason: TruncationReason::from_tag(c.u8()?)?,
            },
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(detail: &str) -> CacheEntry {
        CacheEntry {
            verdict: Verdict::Pass,
            states: 117,
            wall_ns: 42,
            detail: detail.into(),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Verdict {
                digest: 0xabc,
                entry: entry("outcomes:3"),
            },
            WalRecord::Park {
                pdigest: 0xdef,
                blob: vec![1, 2, 3, 4, 5],
            },
            WalRecord::Take { pdigest: 0xdef },
            WalRecord::Remove { digest: 0xabc },
            WalRecord::Verdict {
                digest: 7,
                entry: CacheEntry {
                    verdict: Verdict::Unknown {
                        coverage: Coverage {
                            states: 9,
                            frontier_len: 2,
                            reason: TruncationReason::WorkerLost,
                        },
                    },
                    states: 9,
                    wall_ns: 1,
                    detail: String::new(),
                },
            },
        ]
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn records_round_trip_through_the_log_image() {
        let records = sample_records();
        let (out, good) = replay(&log_of(&records), &StoreOptions::default());
        assert_eq!(out.records, records);
        assert_eq!(out.skipped, 0);
        assert_eq!(good, log_of(&records).len());
    }

    #[test]
    fn a_torn_tail_is_dropped_and_its_offset_reported() {
        let records = sample_records();
        let full = log_of(&records);
        let intact = log_of(&records[..4]);
        // Cut mid-way through the final record, as a SIGKILL during
        // write_all would.
        let torn = &full[..intact.len() + 3];
        let (out, good) = replay(torn, &StoreOptions::default());
        assert_eq!(out.records, records[..4]);
        assert_eq!(out.skipped, 1);
        assert_eq!(
            good,
            intact.len(),
            "the well-framed prefix must end exactly at the last whole record"
        );
    }

    #[test]
    fn a_flipped_byte_skips_exactly_that_record() {
        let records = sample_records();
        let mut bytes = log_of(&records);
        // Corrupt a payload byte of the *first* record (offset 8 is
        // the kind byte; 8+5 starts the payload).
        bytes[WAL_MAGIC.len() + 6] ^= 0x20;
        let (out, good) = replay(&bytes, &StoreOptions::default());
        assert_eq!(out.skipped, 1);
        assert_eq!(out.records, records[1..], "later records must survive");
        assert_eq!(good, bytes.len());
    }

    #[test]
    fn the_checksum_mutant_accepts_the_corrupt_record() {
        // The `serve-wal-skips-checksum` switch: with verification off,
        // a corrupted-but-decodable record is replayed as if intact —
        // the divergence the mutation campaign must detect.
        let records = vec![WalRecord::Verdict {
            digest: 1,
            entry: entry("outcomes:3"),
        }];
        let mut bytes = log_of(&records);
        let detail_last = bytes.len() - 8 - 1;
        bytes[detail_last] ^= 0x01; // "outcomes:3" -> "outcomes:2"
        let sound = replay(
            &bytes,
            &StoreOptions {
                verify_checksums: true,
                ..Default::default()
            },
        )
        .0;
        assert_eq!(sound.records.len(), 0);
        assert_eq!(sound.skipped, 1);
        let bugged = replay(
            &bytes,
            &StoreOptions {
                verify_checksums: false,
                ..Default::default()
            },
        )
        .0;
        assert_eq!(bugged.skipped, 0);
        match &bugged.records[0] {
            WalRecord::Verdict { entry, .. } => assert_eq!(entry.detail, "outcomes:2"),
            r => panic!("unexpected record {r:?}"),
        }
    }

    #[test]
    fn malformed_payloads_behind_intact_checksums_are_skipped() {
        // Frames this build never writes, each under a valid checksum,
        // so only the payload decoder can refuse them.
        let records = sample_records();
        let payload = |rec: &WalRecord| {
            let f = encode_record(rec);
            f[5..f.len() - 8].to_vec()
        };
        let pass = payload(&records[0]);
        let with = |mut p: Vec<u8>, at: usize, byte: u8| {
            p[at] = byte;
            p
        };
        let mut trailing = pass.clone();
        trailing.push(0);
        let malformed = [
            frame(1, &trailing),
            frame(9, &pass),
            // The verdict tag follows the 16-byte digest; an Unknown's
            // reason tag follows its two u64 coverage counts.
            frame(1, &with(pass.clone(), 16, 7)),
            frame(1, &with(payload(&records[4]), 33, 9)),
            // The last byte of the detail "outcomes:3".
            frame(1, &with(pass.clone(), pass.len() - 1, 0xff)),
        ];
        let mut bytes = WAL_MAGIC.to_vec();
        for (bad, rec) in malformed.iter().zip(&records) {
            bytes.extend_from_slice(bad);
            bytes.extend_from_slice(&encode_record(rec));
        }
        let (out, good) = replay(&bytes, &StoreOptions::default());
        assert_eq!(out.skipped, malformed.len() as u64);
        assert_eq!(
            out.records, records,
            "the records after each bad frame replay"
        );
        assert_eq!(good, bytes.len(), "skipped frames are not a torn tail");
    }

    #[test]
    fn a_non_log_file_is_dropped_wholesale() {
        let (out, good) = replay(b"not a wal at all", &StoreOptions::default());
        assert!(out.records.is_empty());
        assert_eq!(out.skipped, 1);
        assert_eq!(good, 0, "the rewrite must start from offset zero");
    }

    #[test]
    fn open_truncates_the_torn_tail_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "vrm-serve-store-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let records = sample_records();
        {
            let (mut store, replayed) =
                DurableStore::open(&dir, StoreOptions::default()).expect("open fresh");
            assert!(replayed.records.is_empty());
            for r in &records {
                store.append(r);
            }
        }
        // Tear the tail by hand, then reopen: the survivors replay and
        // the file is cut back to the last whole record.
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).expect("wal exists").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 4).expect("tear");
        drop(f);
        let (mut store, replayed) =
            DurableStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(replayed.records, records[..4]);
        assert_eq!(replayed.skipped, 1);
        // Appending after the truncation lands on a clean boundary.
        store.append(&records[0]);
        drop(store);
        let (_, replayed) = DurableStore::open(&dir, StoreOptions::default()).expect("reopen 2");
        assert_eq!(replayed.skipped, 0);
        assert_eq!(replayed.records.len(), 5);
        assert_eq!(replayed.records[4], records[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_live_records_and_resets_the_threshold() {
        let dir = std::env::temp_dir().join(format!(
            "vrm-serve-store-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            compact_threshold: 64,
            ..Default::default()
        };
        let (mut store, _) = DurableStore::open(&dir, opts).expect("open");
        for i in 0..20u128 {
            store.append(&WalRecord::Verdict {
                digest: i,
                entry: entry("outcomes:1"),
            });
        }
        assert!(store.should_compact());
        let live = vec![
            WalRecord::Verdict {
                digest: 99,
                entry: entry("outcomes:9"),
            },
            WalRecord::Park {
                pdigest: 5,
                blob: vec![9, 9],
            },
        ];
        store.compact(live.clone().into_iter());
        assert!(!store.should_compact());
        drop(store);
        let (_, replayed) = DurableStore::open(&dir, opts).expect("reopen");
        assert_eq!(replayed.records, live);
        assert_eq!(replayed.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
