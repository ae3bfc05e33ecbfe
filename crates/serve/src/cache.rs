//! The verdict cache and the checkpoint side-store.
//!
//! Both are plain maps — interior locking lives in
//! [`crate::Service`]'s one mutex, so the cache itself stays trivially
//! auditable. The soundness-relevant policy is concentrated in
//! [`VerdictCache::insert`]: a cached entry can only ever get *worse*
//! (via [`Verdict::merge`]'s `Fail > Unknown > Pass` ordering) — a
//! cached `Unknown` is never upgraded to `Pass` by cache bookkeeping;
//! only a fresh exploration, stored under its own (different) key, may
//! answer `Pass`.
//!
//! Both stores are **bounded**: least-recently-used entries beyond the
//! cap are evicted (counted on `serve/verdict_evicted` and
//! `serve/checkpoint_evicted`), which is sound — losing an entry only
//! costs recomputation, never a wrong verdict. Cached `Unknown`
//! verdicts additionally carry a **staleness TTL**
//! ([`VerdictCache::lookup`]): an `Unknown` is a statement about a
//! budget, not about the program, so serving it forever would pin a
//! "don't know" past the point where re-exploring (resuming the parked
//! checkpoint) could do better.
//!
//! The checkpoint store holds *serialized* walks — VRMSRES2 blobs from
//! [`vrm_sekvm::machine::ScheduleResume::to_bytes`] — rather than live
//! `ScheduleResume` values, so the same bytes flow to the in-memory
//! store, the write-ahead log, and the out-of-process worker protocol,
//! and the decode path is exercised on every resume instead of only
//! after a restart.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use vrm_explore::Verdict;
use vrm_obs::Counter;

/// A finished job's answer, as remembered by the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The verdict served to every future identical query.
    pub verdict: Verdict,
    /// Total distinct states that backed the verdict.
    pub states: usize,
    /// Wall-clock nanoseconds the original computation took (what a
    /// cache hit saves).
    pub wall_ns: u64,
    /// The original result's one-line detail.
    pub detail: String,
}

/// What [`VerdictCache::lookup`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup<'a> {
    /// A live entry; serve it.
    Hit(&'a CacheEntry),
    /// A cached `Unknown` past its TTL: the entry was just dropped
    /// (counted on `serve/unknown_expired`) and the caller should
    /// treat the query as a miss — and log the removal durably.
    Expired,
    /// Nothing cached under this digest.
    Miss,
}

/// Job-digest → verdict map, bounded by an LRU cap, with a staleness
/// TTL on `Unknown` entries.
#[derive(Debug)]
pub struct VerdictCache {
    map: HashMap<u128, (CacheEntry, Instant)>,
    /// Use order, least recently used at the front.
    order: VecDeque<u128>,
    cap: usize,
    unknown_ttl: Option<Duration>,
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache::with_policy(Self::DEFAULT_CAP, Some(Self::DEFAULT_UNKNOWN_TTL))
    }
}

impl VerdictCache {
    /// Production cap on cached verdicts, matching the checkpoint
    /// store's bound.
    pub const DEFAULT_CAP: usize = 256;

    /// Production staleness bound on cached `Unknown` verdicts.
    pub const DEFAULT_UNKNOWN_TTL: Duration = Duration::from_secs(600);

    /// A cache that evicts least-recently-used beyond `cap` entries.
    pub fn with_cap(cap: usize) -> VerdictCache {
        VerdictCache::with_policy(cap, Some(Self::DEFAULT_UNKNOWN_TTL))
    }

    /// Full policy control: LRU cap plus the `Unknown` staleness TTL
    /// (`None` disables expiry).
    pub fn with_policy(cap: usize, unknown_ttl: Option<Duration>) -> VerdictCache {
        VerdictCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            unknown_ttl,
        }
    }

    /// Looks up a cached verdict without touching recency or TTL
    /// state (tests and diagnostics; the serving path is
    /// [`lookup`](Self::lookup)).
    pub fn get(&self, digest: u128) -> Option<&CacheEntry> {
        self.map.get(&digest).map(|(e, _)| e)
    }

    /// The serving-path lookup: refreshes the entry's recency on a
    /// hit, and expires a stale `Unknown` (dropping it and reporting
    /// [`Lookup::Expired`] so the caller re-explores — resuming any
    /// parked checkpoint — instead of serving "don't know" forever).
    pub fn lookup(&mut self, digest: u128) -> Lookup<'_> {
        let Some((entry, stamped)) = self.map.get(&digest) else {
            return Lookup::Miss;
        };
        if let Some(ttl) = self.unknown_ttl {
            if entry.verdict.is_unknown() && stamped.elapsed() >= ttl {
                self.map.remove(&digest);
                self.order.retain(|d| *d != digest);
                Counter::new(vrm_obs::serve::UNKNOWN_EXPIRED).add(1);
                return Lookup::Expired;
            }
        }
        self.touch(digest);
        Lookup::Hit(&self.map[&digest].0)
    }

    /// Records a verdict. Identical queries are deterministic, so a
    /// racing duplicate insert carries the same verdict and the
    /// worst-wins merge is the identity; the merge is kept as the
    /// policy anyway so no future caller can weaken a cached verdict.
    /// Over-cap inserts evict the least-recently-used entry, counted
    /// on `serve/verdict_evicted`.
    pub fn insert(&mut self, digest: u128, entry: CacheEntry) {
        let now = Instant::now();
        match self.map.entry(digest) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let old = o.get().0.clone();
                let verdict = old.verdict.merge(entry.verdict);
                // Keep the bookkeeping of whichever side supplied the
                // surviving verdict.
                let keep = if verdict == old.verdict { old } else { entry };
                o.insert((CacheEntry { verdict, ..keep }, now));
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((entry, now));
            }
        }
        self.touch(digest);
        while self.map.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            Counter::new(vrm_obs::serve::VERDICT_EVICTED).add(1);
        }
    }

    /// Drops a cached verdict (WAL replay of a TTL removal).
    pub fn remove(&mut self, digest: u128) {
        if self.map.remove(&digest).is_some() {
            self.order.retain(|d| *d != digest);
        }
    }

    /// Entries in least-recently-used-first order, for compaction
    /// snapshots (replaying the snapshot re-inserts in this order and
    /// reproduces the same recency order).
    pub fn iter_lru(&self) -> impl Iterator<Item = (u128, &CacheEntry)> {
        self.order
            .iter()
            .filter_map(|d| self.map.get(d).map(|(e, _)| (*d, e)))
    }

    fn touch(&mut self, digest: u128) {
        self.order.retain(|d| *d != digest);
        self.order.push_back(digest);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Program-digest → suspended schedule walk (as a serialized VRMSRES2
/// blob), bounded by an LRU cap.
///
/// Checkpoints are single-use: [`take`](CheckpointStore::take) removes
/// the entry, because resuming consumes the parked frontier. A walk
/// that is *still* truncated after resuming parks its new checkpoint
/// right back.
///
/// Parked frontiers are the daemon's only unbounded-in-the-input state:
/// a long-lived daemon fed a generated corpus (the fuzz suite replays
/// programs nobody will ever re-query) would otherwise grow the store
/// without limit. [`park`](CheckpointStore::park) therefore evicts the
/// least-recently-parked entry beyond [`CheckpointStore::DEFAULT_CAP`],
/// counting each eviction on `serve/checkpoint_evicted`. Eviction is
/// sound: losing a checkpoint only costs re-exploration, never a wrong
/// verdict.
#[derive(Debug)]
pub struct CheckpointStore {
    map: HashMap<u128, Vec<u8>>,
    /// Park order, least recently parked at the front. Re-parking a
    /// digest refreshes its position.
    order: VecDeque<u128>,
    cap: usize,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::with_cap(Self::DEFAULT_CAP)
    }
}

impl CheckpointStore {
    /// Production cap on parked walks. Each parked frontier can hold
    /// thousands of serialized states, so the store is bounded well
    /// below anything the verdict cache needs.
    pub const DEFAULT_CAP: usize = 256;

    /// A store that evicts least-recently-parked beyond `cap` entries.
    pub fn with_cap(cap: usize) -> CheckpointStore {
        CheckpointStore {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Removes and returns the parked walk for a program, if any.
    pub fn take(&mut self, program_digest: u128) -> Option<Vec<u8>> {
        let hit = self.map.remove(&program_digest);
        if hit.is_some() {
            self.order.retain(|d| *d != program_digest);
        }
        hit
    }

    /// Parks a suspended walk for a program, replacing any older (and
    /// necessarily smaller) one, and evicting the least-recently-parked
    /// entry if the store is over its cap.
    pub fn park(&mut self, program_digest: u128, blob: Vec<u8>) {
        if self.map.insert(program_digest, blob).is_some() {
            self.order.retain(|d| *d != program_digest);
        }
        self.order.push_back(program_digest);
        while self.map.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            Counter::new(vrm_obs::serve::CHECKPOINT_EVICTED).add(1);
        }
    }

    /// Entries in least-recently-parked-first order, for compaction
    /// snapshots.
    pub fn iter_lru(&self) -> impl Iterator<Item = (u128, &Vec<u8>)> {
        self.order
            .iter()
            .filter_map(|d| self.map.get(d).map(|b| (*d, b)))
    }

    /// Number of parked walks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrm_explore::{Coverage, TruncationReason};
    use vrm_sekvm::machine::{ExhaustiveConfig, ScheduleResume};
    use vrm_sekvm::{KCoreConfig, Machine, Op, Script};

    /// A real parked walk's serialized image, produced the only way
    /// one can be: by starving a schedule exploration.
    fn parked_walk() -> Vec<u8> {
        let scripts: Vec<Script> = (0..2).map(|_| vec![Op::RegisterVm]).collect();
        let resume: ScheduleResume = Machine::explore_schedules(
            KCoreConfig::default(),
            scripts,
            &ExhaustiveConfig {
                max_states: 2,
                jobs: 1,
                ..ExhaustiveConfig::default()
            },
        )
        .expect("starved walk")
        .resume
        .expect("a starved walk parks a resume");
        resume.to_bytes().expect("own checkpoints serialize")
    }

    fn entry(verdict: Verdict) -> CacheEntry {
        CacheEntry {
            verdict,
            states: 10,
            wall_ns: 1,
            detail: String::new(),
        }
    }

    fn unknown() -> Verdict {
        Verdict::Unknown {
            coverage: Coverage {
                states: 10,
                frontier_len: 3,
                reason: TruncationReason::StateLimit,
            },
        }
    }

    #[test]
    fn cache_inserts_never_upgrade_a_verdict() {
        let mut c = VerdictCache::default();
        c.insert(7, entry(unknown()));
        c.insert(7, entry(Verdict::Pass));
        assert!(
            c.get(7).unwrap().verdict.is_unknown(),
            "a second insert must not upgrade Unknown to Pass"
        );
        c.insert(7, entry(Verdict::Fail));
        assert_eq!(c.get(7).unwrap().verdict, Verdict::Fail);
    }

    #[test]
    fn verdict_cache_evicts_least_recently_used() {
        let evicted = Counter::new(vrm_obs::serve::VERDICT_EVICTED);
        let before = evicted.get();
        let mut c = VerdictCache::with_cap(2);
        c.insert(1, entry(Verdict::Pass));
        c.insert(2, entry(Verdict::Pass));
        // A lookup refreshes recency: digest 1 becomes the most
        // recently used, so the over-cap insert evicts digest 2.
        assert!(matches!(c.lookup(1), Lookup::Hit(_)));
        c.insert(3, entry(Verdict::Pass));
        assert_eq!(c.len(), 2, "the cap must hold after an over-cap insert");
        assert!(c.get(2).is_none(), "the LRU entry must be the one evicted");
        assert!(c.get(1).is_some(), "a lookup must refresh recency");
        assert!(c.get(3).is_some());
        assert!(
            evicted.get() - before >= 1,
            "evictions must advance serve/verdict_evicted"
        );
    }

    #[test]
    fn stale_unknowns_expire_but_settled_verdicts_do_not() {
        let mut c = VerdictCache::with_policy(8, Some(Duration::from_millis(30)));
        c.insert(1, entry(unknown()));
        c.insert(2, entry(Verdict::Pass));
        assert!(
            matches!(c.lookup(1), Lookup::Hit(_)),
            "fresh Unknown serves"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            c.lookup(1),
            Lookup::Expired,
            "a stale Unknown must expire so the query re-explores"
        );
        assert_eq!(c.lookup(1), Lookup::Miss, "expiry drops the entry");
        assert!(
            matches!(c.lookup(2), Lookup::Hit(_)),
            "Pass/Fail are facts about the program, not a budget: no TTL"
        );
    }

    #[test]
    fn re_inserting_after_expiry_restarts_the_clock() {
        let mut c = VerdictCache::with_policy(8, Some(Duration::from_millis(25)));
        c.insert(1, entry(unknown()));
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(c.lookup(1), Lookup::Expired);
        c.insert(1, entry(unknown()));
        assert!(
            matches!(c.lookup(1), Lookup::Hit(_)),
            "the re-explored Unknown is fresh again"
        );
    }

    #[test]
    fn checkpoint_store_evicts_least_recently_parked() {
        let evicted = Counter::new(vrm_obs::serve::CHECKPOINT_EVICTED);
        let before = evicted.get();
        let mut s = CheckpointStore::with_cap(2);
        s.park(1, parked_walk());
        s.park(2, parked_walk());
        // Re-parking digest 1 must refresh its recency, so the next
        // eviction falls on digest 2 instead.
        s.park(1, parked_walk());
        s.park(3, parked_walk());
        assert_eq!(s.len(), 2, "the cap must hold after an over-cap park");
        assert!(
            s.take(2).is_none(),
            "the least-recently-parked entry must be the one evicted"
        );
        assert!(s.take(1).is_some(), "re-parking must refresh recency");
        assert!(s.take(3).is_some());
        assert!(s.is_empty());
        // Counters are process-global, so concurrent tests may also
        // bump this one: assert at-least, not exactly.
        assert!(
            evicted.get() - before >= 1,
            "evictions must advance serve/checkpoint_evicted"
        );
    }

    #[test]
    fn checkpoint_take_frees_capacity_without_evicting() {
        let mut s = CheckpointStore::with_cap(2);
        s.park(1, parked_walk());
        s.park(2, parked_walk());
        assert!(s.take(1).is_some());
        // The freed slot absorbs the next park: nothing is evicted and
        // both survivors stay retrievable.
        s.park(3, parked_walk());
        assert_eq!(s.len(), 2);
        assert!(
            s.take(2).is_some(),
            "taking must free a slot instead of forcing an eviction"
        );
        assert!(s.take(3).is_some());
    }

    #[test]
    fn checkpoint_default_store_carries_the_production_cap() {
        // SchedState builds its store via Default, so the production
        // bound must live there — an unbounded Default would silently
        // reopen the leak.
        let blob = parked_walk();
        let mut s = CheckpointStore::default();
        for digest in 0..(CheckpointStore::DEFAULT_CAP as u128 + 4) {
            s.park(digest, blob.clone());
        }
        assert_eq!(s.len(), CheckpointStore::DEFAULT_CAP);
        assert!(
            s.take(0).is_none(),
            "the oldest parks must have been evicted"
        );
        assert!(s.take(CheckpointStore::DEFAULT_CAP as u128 + 3).is_some());
    }

    #[test]
    fn lru_iteration_orders_by_recency() {
        let mut c = VerdictCache::with_cap(8);
        c.insert(1, entry(Verdict::Pass));
        c.insert(2, entry(Verdict::Pass));
        c.insert(3, entry(Verdict::Pass));
        assert!(matches!(c.lookup(1), Lookup::Hit(_)));
        let order: Vec<u128> = c.iter_lru().map(|(d, _)| d).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
