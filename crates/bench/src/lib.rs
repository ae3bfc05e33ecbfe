//! Benchmark harness regenerating every table and figure of the VRM paper.
//!
//! Binaries (run with `cargo run -p vrm-bench --bin <name>`):
//!
//! * `examples_table` — the §1–2 examples: RM-only behaviours vs SC;
//! * `table1` — verification-effort summary (the model-checking
//!   substitute for the paper's Coq LOC table);
//! * `table3` — microbenchmark cycles, KVM vs SeKVM on m400 and Seattle
//!   (with Table 2's operation descriptions);
//! * `fig8` — single-VM application benchmarks normalized to native;
//! * `fig9` — 1–32-VM scalability on the m400;
//! * `versions` — §5.6: the wDRF validation across kernel versions and
//!   3-/4-level stage-2 tables.
//!
//! The `bench` binary is the one harness for the reproduction's own
//! machinery: it writes a schema-versioned record per litmus file, wDRF
//! check, schedule walk and serve probe (`--suite litmus --jobs N`
//! times the enumerators on either driver).

#![warn(missing_docs)]

/// Formats one table row with a fixed-width label column.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<28}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

/// Prints a rule line.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}
