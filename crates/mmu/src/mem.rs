//! Word-granular physical memory.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use vrm_memmodel::ir::{Addr, Val};

/// log2 of the words in one [`Chunk`].
const CHUNK_BITS: u32 = 9;
/// Words in one [`Chunk`].
const CHUNK_WORDS: usize = 1 << CHUNK_BITS;

/// One aligned run of [`CHUNK_WORDS`] cells with at least one non-zero
/// word, and how many of its words are non-zero.
#[derive(Clone, PartialEq, Eq)]
struct Chunk {
    live: usize,
    cells: [Val; CHUNK_WORDS],
}

/// Sparse physical memory; unwritten cells read as zero.
///
/// The cells sit in aligned 512-word chunks, each behind an [`Arc`], so
/// a clone (every explored machine state is one) shares every chunk
/// until one side writes to it; [`PhysMem::write`] copies a chunk only
/// while a clone still holds it. A chunk whose words are all zero is
/// dropped, so equality (the hash first, then chunk by chunk, where a
/// shared chunk compares by pointer), iteration and the debug form see
/// the non-zero cells only.
///
/// Alongside the cells it keeps a running 128-bit hash of them — the sum
/// of [`cell_hash`] over every non-zero cell — which [`PhysMem::write`]
/// updates in O(1). Every other mutator goes through `write`, and the
/// fields are private, so the hash can never go stale: a state digest
/// reads it instead of walking the whole memory.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PhysMem {
    hash: u128,
    chunks: BTreeMap<u64, Arc<Chunk>>,
}

/// The debug form names the non-zero cells only, as an address → word
/// map; the chunking and the hash are derived from them.
impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("cells", &self.iter().collect::<BTreeMap<Addr, Val>>())
            .finish()
    }
}

/// The murmur3 64-bit finalizer: a bijective avalanche mix.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The 128-bit hash of one `(key, word)` cell, the summand of an
/// additive multiset hash. Key and word are mixed together before the
/// sum (never hashed separately and added), so swapping the words of
/// two cells changes the total.
pub fn cell_hash(key: u64, word: u64) -> u128 {
    let lo = fmix64(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ fmix64(word ^ 0x2545_f491_4f6c_dd1d));
    let hi = fmix64(
        key.rotate_left(29).wrapping_add(0xd6e8_feb8_6659_fd93) ^ fmix64(word.wrapping_add(lo)),
    );
    (u128::from(hi) << 64) | u128::from(lo)
}

/// The non-zero cells of chunk `key` whose in-chunk index lies in
/// `from..to`, in address order.
fn chunk_cells(
    key: u64,
    c: &Chunk,
    from: usize,
    to: usize,
) -> impl Iterator<Item = (Addr, Val)> + '_ {
    let base = key << CHUNK_BITS;
    c.cells[from..to]
        .iter()
        .zip(from as u64..)
        .filter(|&(&v, _)| v != 0)
        .map(move |(&v, i)| (base + i, v))
}

impl PhysMem {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one word.
    pub fn read(&self, addr: Addr) -> Val {
        self.chunks
            .get(&(addr >> CHUNK_BITS))
            .map_or(0, |c| c.cells[(addr as usize) & (CHUNK_WORDS - 1)])
    }

    /// Writes one word. The only mutator of the cells: it keeps the
    /// running hash equal to the sum of [`cell_hash`] over them, and
    /// copies the word's chunk first if a clone still shares it.
    pub fn write(&mut self, addr: Addr, val: Val) {
        let old = self.read(addr);
        if old == val {
            return;
        }
        if old != 0 {
            self.hash = self.hash.wrapping_sub(cell_hash(addr, old));
        }
        if val != 0 {
            self.hash = self.hash.wrapping_add(cell_hash(addr, val));
        }
        let key = addr >> CHUNK_BITS;
        let i = (addr as usize) & (CHUNK_WORDS - 1);
        match self.chunks.entry(key) {
            Entry::Vacant(e) => {
                // `old` is 0 here, so `val` is not.
                let mut c = Chunk {
                    live: 1,
                    cells: [0; CHUNK_WORDS],
                };
                c.cells[i] = val;
                e.insert(Arc::new(c));
            }
            Entry::Occupied(mut e) => {
                if val == 0 && e.get().live == 1 {
                    // The chunk's last non-zero word goes: drop it
                    // without copying it.
                    e.remove();
                    return;
                }
                let c = Arc::make_mut(e.get_mut());
                c.cells[i] = val;
                if old == 0 {
                    c.live += 1;
                } else if val == 0 {
                    c.live -= 1;
                }
            }
        }
    }

    /// Zeroes `len` words starting at `base`.
    pub fn zero_range(&mut self, base: Addr, len: u64) {
        let live: Vec<Addr> = self.live(base, base + len).map(|(a, _)| a).collect();
        for a in live {
            self.write(a, 0);
        }
    }

    /// Copies `len` words from `src` to `dst`.
    pub fn copy_range(&mut self, src: Addr, dst: Addr, len: u64) {
        let vals: Vec<Val> = (0..len).map(|i| self.read(src + i)).collect();
        for (i, v) in vals.into_iter().enumerate() {
            self.write(dst + i as u64, v);
        }
    }

    /// Number of non-zero cells (for tests and statistics).
    pub fn population(&self) -> usize {
        self.chunks.values().map(|c| c.live).sum()
    }

    /// Iterates over the non-zero cells in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Val)> + '_ {
        self.chunks
            .iter()
            .flat_map(|(&key, c)| chunk_cells(key, c, 0, CHUNK_WORDS))
    }

    /// Iterates over the non-zero cells in the half-open range
    /// `lo..hi`, in address order. Only the chunks that overlap the
    /// range are visited, each as one slice scan, so an empty region
    /// costs a map lookup rather than a lookup per cell.
    pub fn live(&self, lo: Addr, hi: Addr) -> impl Iterator<Item = (Addr, Val)> + '_ {
        let first = lo >> CHUNK_BITS;
        let end = if hi > lo {
            ((hi - 1) >> CHUNK_BITS) + 1
        } else {
            first
        };
        self.chunks.range(first..end).flat_map(move |(&key, c)| {
            let base = key << CHUNK_BITS;
            let from = lo.saturating_sub(base) as usize;
            let to = (hi - base).min(CHUNK_WORDS as u64) as usize;
            chunk_cells(key, c, from, to)
        })
    }

    /// Clones only the cells inside the given half-open ranges (cheap
    /// partial snapshot, e.g. just the page-table pools).
    pub fn clone_ranges(&self, ranges: &[(Addr, Addr)]) -> PhysMem {
        let mut out = PhysMem::new();
        for &(lo, hi) in ranges {
            for (a, v) in self.live(lo, hi) {
                out.write(a, v);
            }
        }
        out
    }

    /// The running hash of the contents: equal for equal contents, and
    /// O(1) to read.
    pub fn digest(&self) -> u128 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn recomputed(m: &PhysMem) -> u128 {
        m.iter()
            .fold(0u128, |h, (a, v)| h.wrapping_add(cell_hash(a, v)))
    }

    #[test]
    fn read_write_zero_default() {
        let mut m = PhysMem::new();
        assert_eq!(m.read(5), 0);
        m.write(5, 7);
        assert_eq!(m.read(5), 7);
        m.write(5, 0);
        assert_eq!(m.read(5), 0);
        assert_eq!(m.population(), 0);
        assert_eq!(m.digest(), 0);
    }

    #[test]
    fn copy_and_zero_ranges() {
        let mut m = PhysMem::new();
        for i in 0..4 {
            m.write(0x10 + i, i + 1);
        }
        m.copy_range(0x10, 0x20, 4);
        assert_eq!(m.read(0x23), 4);
        m.zero_range(0x10, 4);
        assert_eq!(m.read(0x12), 0);
        assert_eq!(m.read(0x21), 2);
    }

    #[test]
    fn copy_overlapping_forward() {
        let mut m = PhysMem::new();
        m.write(0x10, 1);
        m.write(0x11, 2);
        m.copy_range(0x10, 0x11, 2);
        assert_eq!(m.read(0x11), 1);
        assert_eq!(m.read(0x12), 2);
    }

    #[test]
    fn debug_form_names_only_the_cells() {
        let mut m = PhysMem::new();
        m.write(3, 9);
        assert_eq!(format!("{m:?}"), "PhysMem { cells: {3: 9} }");
    }

    /// An address within 24 words of a chunk boundary, so ranges and
    /// copies straddle chunks and whole chunks fill up and empty out.
    fn near_boundary(rng: &mut StdRng) -> Addr {
        rng.gen_range(1..4u64) * CHUNK_WORDS as u64 - 24 + rng.gen_range(0..48u64)
    }

    /// Applies a write to the model the way memory should: a zero word
    /// is no cell.
    fn model_write(model: &mut BTreeMap<Addr, Val>, addr: Addr, val: Val) {
        if val == 0 {
            model.remove(&addr);
        } else {
            model.insert(addr, val);
        }
    }

    /// `m` holds exactly the model's cells, by every observer: its hash,
    /// reads at random addresses, `iter`, `live` over a random window,
    /// `population`, and the debug text and equality of a memory
    /// rebuilt from the model (the debug text is also the model's own).
    fn assert_matches(m: &PhysMem, model: &BTreeMap<Addr, Val>, rng: &mut StdRng, at: &str) {
        let mut rebuilt = PhysMem::new();
        for (&a, &v) in model {
            rebuilt.write(a, v);
        }
        assert_eq!(m.digest(), recomputed(m), "{at}");
        assert_eq!(m.digest(), rebuilt.digest(), "{at}");
        assert_eq!(*m, rebuilt, "{at}");
        assert_eq!(format!("{m:?}"), format!("{rebuilt:?}"), "{at}");
        assert_eq!(
            format!("{m:?}"),
            format!("PhysMem {{ cells: {model:?} }}"),
            "{at}"
        );
        assert_eq!(m.population(), model.len(), "{at}");
        assert!(
            m.iter().eq(model.iter().map(|(&a, &v)| (a, v))),
            "{at}: iter"
        );
        for _ in 0..4 {
            let a = near_boundary(rng);
            assert_eq!(
                m.read(a),
                model.get(&a).copied().unwrap_or(0),
                "{at}: read {a:#x}"
            );
        }
        let lo = near_boundary(rng);
        let hi = lo + rng.gen_range(0..40u64);
        assert!(
            m.live(lo, hi)
                .eq(model.range(lo..hi).map(|(&a, &v)| (a, v))),
            "{at}: live {lo:#x}..{hi:#x}"
        );
    }

    #[test]
    fn running_hash_matches_recomputation_after_random_edits() {
        let mut rng = StdRng::seed_from_u64(0x6d656d);
        let mut m = PhysMem::new();
        let mut model: BTreeMap<Addr, Val> = BTreeMap::new();
        // Divergent clones must keep independent, exact contents: a
        // fork shares the chunks of the memory it was cloned from.
        let mut forks: Vec<(PhysMem, BTreeMap<Addr, Val>)> = Vec::new();
        for step in 0..2_000 {
            let addr = near_boundary(&mut rng);
            let len = rng.gen_range(0..40u64);
            match rng.gen_range(0..5u32) {
                // Small values so rewrites of an existing value and
                // writes of 0 to live and dead cells all happen often.
                0 | 1 => {
                    let val = rng.gen_range(0..4u64);
                    m.write(addr, val);
                    model_write(&mut model, addr, val);
                }
                2 => {
                    m.zero_range(addr, len);
                    model.retain(|&a, _| !(addr..addr + len).contains(&a));
                }
                3 => {
                    let dst = near_boundary(&mut rng);
                    m.copy_range(addr, dst, len);
                    let vals: Vec<Val> = (0..len)
                        .map(|i| model.get(&(addr + i)).copied().unwrap_or(0))
                        .collect();
                    for (i, v) in (0..).zip(vals) {
                        model_write(&mut model, dst + i, v);
                    }
                }
                _ => {
                    let lo = near_boundary(&mut rng);
                    let ranges = [(lo, lo + 24), (0, len), (addr, addr + len)];
                    m = m.clone_ranges(&ranges);
                    model.retain(|a, _| ranges.iter().any(|r| (r.0..r.1).contains(a)));
                }
            }
            assert_matches(&m, &model, &mut rng, &format!("step {step}"));
            if step % 97 == 0 {
                forks.push((m.clone(), model.clone()));
            }
            if let Some((f, fm)) = forks.last_mut() {
                f.write(addr, step);
                model_write(fm, addr, step);
                assert_matches(f, fm, &mut rng, &format!("fork at step {step}"));
                assert_matches(&m, &model, &mut rng, &format!("origin at step {step}"));
            }
        }
        for (i, (f, fm)) in forks.iter().enumerate() {
            assert_matches(f, fm, &mut rng, &format!("fork {i} at the end"));
        }
    }

    #[test]
    fn equal_contents_have_equal_hashes_whatever_the_history() {
        let mut a = PhysMem::new();
        let mut b = PhysMem::new();
        a.write(1, 5);
        a.write(2, 6);
        b.write(2, 1);
        b.write(1, 5);
        b.write(2, 6);
        b.write(7, 3);
        b.zero_range(7, 1);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        // Swapping two cells' words is a different state.
        let mut c = PhysMem::new();
        c.write(1, 6);
        c.write(2, 5);
        assert_ne!(a.digest(), c.digest());
    }
}
