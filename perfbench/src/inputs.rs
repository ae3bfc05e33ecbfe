//! Seeded inputs. The same seed always gives the same inputs; the
//! program under test only ever sees the generated inputs, never the
//! seed.

use std::collections::BTreeSet;

use vrm_core::{check_wdrf, KernelSpec, WdrfCheckConfig, WdrfVerdict};
use vrm_memmodel::gen::{self, GenConfig};
use vrm_memmodel::parser::{parse, ParsedLitmus};
use vrm_memmodel::Program;

/// splitmix64: the benchmark's own generator, so the inputs do not
/// move when a crate changes its random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Generated programs are two-thread critical cycles. Three- and
/// four-thread shapes have a heavy-tailed cost (p90 ≈ 400 ms, max
/// seconds, at a 4096-state budget), which would let the draw of one
/// seed rather than the code decide a run's figures.
pub const GEN: GenConfig = GenConfig {
    min_threads: 2,
    max_threads: 2,
    po_cycle_free: false,
    recheck_shrinks: true,
};

/// State budget for a generated program (never reached by a
/// two-thread cycle; it bounds a pathological draw).
pub const GEN_MAX_STATES: usize = 1 << 14;

/// The [`Rng`] stream a seed's generated litmus programs are drawn from.
pub const LITMUS_STREAM: u64 = 3;

/// One litmus input: a corpus file or a generated cycle.
#[derive(Debug, Clone)]
pub struct LitmusItem {
    /// Source text, as a client would send it.
    pub text: String,
    /// Parsed form.
    pub parsed: ParsedLitmus,
    /// Generated (budgeted) rather than committed.
    pub generated: bool,
}

/// `count` distinct generated cycles drawn from `rng`, skipping any
/// whose canonical text repeats one already drawn (or one in `seen`).
pub fn generated(rng: &mut Rng, count: usize, seen: &mut BTreeSet<String>) -> Vec<LitmusItem> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let text = gen::render_text(&gen::sample_cycle(rng.next_u64(), &GEN), &GEN);
        let parsed = parse(&text).expect("generated programs parse");
        if !seen.insert(parsed.canonical_text()) {
            continue;
        }
        out.push(LitmusItem {
            text,
            parsed,
            generated: true,
        });
    }
    out
}

/// The campaign wDRF config (the one `bench --suite wdrf` and the
/// mutation campaign use) at jobs=1.
pub fn wdrf_campaign_config() -> WdrfCheckConfig {
    let mut cfg = WdrfCheckConfig {
        skip_sync_conditions: true,
        ..Default::default()
    };
    cfg.jobs = 1;
    cfg.promising.max_promises_per_thread = 1;
    cfg.promising.value_cfg.max_rounds = 3;
    cfg
}

/// `check_wdrf` on a catalog program at the campaign budget.
pub fn check_wdrf_campaign(prog: &Program) -> Result<WdrfVerdict, String> {
    let spec = KernelSpec::for_kernel_threads(0..prog.threads.len());
    check_wdrf(prog, &spec, &wdrf_campaign_config()).map_err(|e| format!("check_wdrf: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let draw = |seed| {
            let mut seen = BTreeSet::new();
            generated(&mut Rng::new(seed, 1), 12, &mut seen)
                .into_iter()
                .map(|i| i.text)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let texts = draw(5);
        let distinct: BTreeSet<_> = texts.iter().collect();
        assert_eq!(distinct.len(), texts.len());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(9, 0).shuffle(&mut a);
        Rng::new(9, 0).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
