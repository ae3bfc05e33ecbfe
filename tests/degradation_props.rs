//! Property-based tests for the engine's graceful degradation:
//!
//! * A budget-truncated walk's emission set is always a **subset** of
//!   the exhaustive emission set (partial results are sound — what was
//!   found is real, absence proves nothing).
//! * A truncated walk's checkpoint, resumed leg by leg to completion,
//!   reproduces the exhaustive emission set **bit-for-bit**, at
//!   `jobs` ∈ {1, 2, 4}. (The durable image of a checkpoint is the
//!   SeKVM schedule walk's; its byte round trip is tested beside it in
//!   `vrm-sekvm`.)

use std::collections::BTreeSet;

use proptest::prelude::*;
use vrm::explore::{explore, Completeness, ExploreConfig, Sink, StateSpace};

/// A seeded pseudo-random digraph over `0..modulus`: every expansion
/// emits its state, successors are splitmix-style hashes. Small enough
/// to enumerate exhaustively, irregular enough that truncation cuts it
/// at interesting places.
struct Maze {
    seed: u64,
    modulus: u64,
    branch: u64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl StateSpace for Maze {
    type State = u64;
    type Emit = u64;

    fn initial(&self) -> Vec<u64> {
        vec![self.seed % self.modulus]
    }

    fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
        sink.emit(*state);
        for b in 0..self.branch {
            let next = mix(state ^ self.seed ^ (b << 32)) % self.modulus;
            // A self-loop would be deduplicated anyway; skip it so some
            // states are genuinely terminal.
            if next != *state {
                sink.push(next);
            }
        }
    }
}

fn emit_set(emits: &[u64]) -> BTreeSet<u64> {
    emits.iter().copied().collect()
}

fn exhaustive_set(space: &Maze) -> BTreeSet<u64> {
    let r = explore(space, &ExploreConfig::default(), None);
    assert!(r.stats.completeness.is_exhaustive());
    emit_set(&r.emits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partial results are sound: whatever a starved walk emits, the
    /// exhaustive walk also emits.
    #[test]
    fn truncated_emissions_are_a_subset_of_exhaustive(
        seed in 0u64..1_000_000,
        modulus in 2u64..300,
        branch in 1u64..4,
        budget in 1usize..64,
    ) {
        let space = Maze { seed, modulus, branch };
        let full = exhaustive_set(&space);
        let r = explore(&space, &ExploreConfig::with_max_states(budget), None);
        let partial = emit_set(&r.emits);
        prop_assert!(
            partial.is_subset(&full),
            "truncated walk emitted states the exhaustive walk never saw: {:?}",
            partial.difference(&full).collect::<Vec<_>>()
        );
        // The walk either covered everything or honestly said it did not
        // (and then a resume checkpoint must be attached).
        match r.stats.completeness {
            Completeness::Exhaustive => prop_assert_eq!(&partial, &full),
            Completeness::Truncated { .. } => prop_assert!(r.resume.is_some()),
        }
    }

    /// Checkpoint → resume reproduces the exhaustive emission set
    /// exactly, whatever worker count drives each leg.
    #[test]
    fn checkpoint_resume_reproduces_exhaustive_set(
        seed in 0u64..1_000_000,
        modulus in 2u64..300,
        branch in 1u64..4,
        budget in 1usize..32,
    ) {
        let space = Maze { seed, modulus, branch };
        let full = exhaustive_set(&space);
        for jobs in [1usize, 2, 4] {
            let mut acc: BTreeSet<u64> = BTreeSet::new();
            let first = explore(&space, &ExploreConfig::with_max_states(budget).jobs(jobs), None);
            acc.extend(first.emits.iter().copied());
            let mut resume = first.resume;
            let mut legs = 0;
            while let Some(ckpt) = resume {
                let leg = explore(
                    &space,
                    &ExploreConfig::with_max_states(budget.max(8)).jobs(jobs),
                    Some(ckpt),
                );
                acc.extend(leg.emits.iter().copied());
                resume = leg.resume;
                legs += 1;
                prop_assert!(legs < 10_000, "resume loop failed to converge");
            }
            prop_assert_eq!(
                &acc,
                &full,
                "resumed union differs from exhaustive set at jobs={}",
                jobs
            );
        }
    }
}
