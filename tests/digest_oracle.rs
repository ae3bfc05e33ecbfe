//! The structural state digest against its reference.
//!
//! `KCore::state_digest` is what the every-schedule walks deduplicate
//! on. `KCore::encode_state`, the canonical text encoding of the same
//! fields, is kept as its oracle: over every prefix of seeded machine
//! runs of each registered workload, under the default configuration,
//! the 4-level stage-2 geometry and every mutant, two states must get
//! equal digests exactly when they encode to equal text. Runs under
//! different seeds reach the same states through different
//! interleavings, so the check covers "equal state, different history"
//! as well as "different state".
//!
//! The texts are large (the s2page array alone is 16K records), so each
//! is kept only as a 128-bit fingerprint.

use std::collections::HashMap;

use vrm::explore::digest128;
use vrm::sekvm::machine::Machine;
use vrm::sekvm::{mutants, workloads, KCore, KCoreConfig};

/// Steps per run at most: enough for every registered workload to
/// finish under every configuration, and a bound for one that stalls.
const MAX_STEPS: usize = 400;

fn text_fingerprint(k: &KCore) -> u128 {
    let mut text = String::new();
    k.encode_state(&mut text);
    digest128(&text)
}

/// Records `key ↦ value`; false if `key` already maps elsewhere.
fn maps_to(map: &mut HashMap<u128, u128>, key: u128, value: u128) -> bool {
    *map.entry(key).or_insert(value) == value
}

#[test]
fn state_digests_are_equal_exactly_when_encodings_are() {
    let mut configs = vec![
        ("default", KCoreConfig::default(), 0..4u64),
        (
            "s2-levels-4",
            KCoreConfig {
                s2_levels: 4,
                ..KCoreConfig::default()
            },
            0..2,
        ),
    ];
    configs.extend(mutants::all().into_iter().map(|m| (m.name, m.cfg, 0..2)));
    // Text → digest and digest → text must both stay functions: over
    // every pair, equal text ⇔ equal digest.
    let mut digest_of: HashMap<u128, u128> = HashMap::new();
    let mut text_of: HashMap<u128, u128> = HashMap::new();
    let mut samples = 0usize;
    for &name in workloads::NAMES {
        let scripts = workloads::by_name(name).expect("registered workload");
        for (cfg_name, cfg, seeds) in &configs {
            for seed in seeds.clone() {
                // `run(1)` continues the seeded schedule one step at a
                // time, so the machine passes through every prefix
                // `run(k)` of the same seed reaches.
                let mut m = Machine::new(*cfg, scripts.clone(), seed);
                for step in 0..=MAX_STEPS {
                    let (text, digest) = (text_fingerprint(&m.kcore), m.kcore.state_digest());
                    assert!(
                        maps_to(&mut digest_of, text, digest)
                            && maps_to(&mut text_of, digest, text),
                        "state_digest and encode_state disagree at \
                         {name} / {cfg_name} / seed {seed} / step {step}"
                    );
                    samples += 1;
                    if m.run(1).steps == 0 {
                        break;
                    }
                }
            }
        }
    }
    // Not vacuous: many distinct states, and many revisits of one.
    let distinct = digest_of.len();
    assert!(distinct >= 100, "only {distinct} distinct states");
    assert!(
        samples >= distinct + 100,
        "only {samples} samples of {distinct} states"
    );
}
