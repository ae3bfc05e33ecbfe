//! Word-granular physical memory.

use std::collections::BTreeMap;

use vrm_memmodel::ir::{Addr, Val};

/// Sparse physical memory; unwritten cells read as zero.
///
/// Alongside the cells it keeps a running 128-bit hash of them — the sum
/// of [`cell_hash`] over every non-zero cell — which [`PhysMem::write`]
/// updates in O(1). Every other mutator goes through `write`, and the
/// field is private, so the hash can never go stale: a state digest
/// reads it instead of walking the whole memory.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PhysMem {
    cells: BTreeMap<Addr, Val>,
    hash: u128,
}

/// The debug form names the cells only; the hash is derived from them.
impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("cells", &self.cells)
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

impl PhysMem {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one word.
    pub fn read(&self, addr: Addr) -> Val {
        self.cells.get(&addr).copied().unwrap_or(0)
    }

    /// Writes one word. The only mutator of the cells: it keeps the
    /// running hash equal to the sum of [`cell_hash`] over them.
    pub fn write(&mut self, addr: Addr, val: Val) {
        let old = if val == 0 {
            self.cells.remove(&addr)
        } else {
            self.cells.insert(addr, val)
        };
        if let Some(old) = old {
            self.hash = self.hash.wrapping_sub(cell_hash(addr, old));
        }
        if val != 0 {
            self.hash = self.hash.wrapping_add(cell_hash(addr, val));
        }
    }

    /// Zeroes `len` words starting at `base`.
    pub fn zero_range(&mut self, base: Addr, len: u64) {
        let live: Vec<Addr> = self
            .cells
            .range(base..base + len)
            .map(|(&a, _)| a)
            .collect();
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
        self.cells.len()
    }

    /// Iterates over the non-zero cells.
    pub fn iter(&self) -> impl Iterator<Item = (&Addr, &Val)> {
        self.cells.iter()
    }

    /// Returns the snapshot as a map (for condition-4 checking).
    pub fn snapshot(&self) -> BTreeMap<Addr, Val> {
        self.cells.clone()
    }

    /// Clones only the cells inside the given half-open ranges (cheap
    /// partial snapshot, e.g. just the page-table pools).
    pub fn clone_ranges(&self, ranges: &[(Addr, Addr)]) -> PhysMem {
        let mut out = PhysMem::new();
        for &(lo, hi) in ranges {
            for (&a, &v) in self.cells.range(lo..hi) {
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
            .fold(0u128, |h, (&a, &v)| h.wrapping_add(cell_hash(a, v)))
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

    #[test]
    fn running_hash_matches_recomputation_after_random_edits() {
        let mut rng = StdRng::seed_from_u64(0x6d656d);
        let mut m = PhysMem::new();
        // Divergent clones must keep independent, exact hashes.
        let mut forks: Vec<PhysMem> = Vec::new();
        for step in 0..2_000 {
            let addr = rng.gen_range(0..64u64);
            let len = rng.gen_range(0..8u64);
            match rng.gen_range(0..5u32) {
                // Small values so rewrites of an existing value and
                // writes of 0 to live and dead cells all happen often.
                0 | 1 => m.write(addr, rng.gen_range(0..4u64)),
                2 => m.zero_range(addr, len),
                3 => m.copy_range(addr, rng.gen_range(0..64u64), len),
                _ => {
                    let lo = rng.gen_range(0..64u64);
                    m = m.clone_ranges(&[(lo, lo + 24), (0, len)]);
                }
            }
            assert_eq!(m.digest(), recomputed(&m), "step {step}");
            if step % 97 == 0 {
                forks.push(m.clone());
            }
            if let Some(f) = forks.last_mut() {
                f.write(addr, step);
                assert_eq!(f.digest(), recomputed(f), "fork at step {step}");
            }
        }
        for f in &forks {
            assert_eq!(f.digest(), recomputed(f));
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
