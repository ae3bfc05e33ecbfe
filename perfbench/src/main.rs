//! `vrm-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```console
//! $ python3 perfbench/run.py --workload machine --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this package and the `serve` daemon, then runs this
//! binary from the repository root. The two workloads, `machine` and
//! `serve`, are described in `perfbench/README.md`. With
//! `--trace 0` the run is untraced and reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Exit code 0 means a result was printed, 2 a usage or set-up error.

mod inputs;
mod known;
mod layers;
mod machine;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crate::stats::{finite, median, percentile, Ledger, OpKind};

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("decided_pct", "%"),
    ("correct_pct", "%"),
    ("peak_rss_mb", "MiB"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_p90", "ms"),
    ("miss_ms_p50", "ms"),
    ("miss_ms_p90", "ms"),
];

/// The per-layer metrics, reported by every traced run. A layer that is
/// not on a workload's verdict path reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("memmodel.parse_us", "us"),
    ("memmodel.gen_us", "us"),
    ("memmodel.sc_ms", "ms"),
    ("memmodel.sc_states", "count"),
    ("memmodel.promising_ms", "ms"),
    ("memmodel.promising_states", "count"),
    ("promising.certifications", "count"),
    ("promising.cert_refused", "count"),
    ("memmodel.axiomatic_ms", "ms"),
    ("axiomatic.accept_ratio", "ratio"),
    ("core.check_wdrf_ms", "ms"),
    ("core.wdrf_states", "count"),
    ("explore.states", "count"),
    ("explore.popped", "count"),
    ("explore.pushed", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.states_per_s", "1/s"),
    ("explore.frontier_peak", "count"),
    ("explore.steals", "count"),
    ("explore.sleep_pruned", "count"),
    ("explore.persistent_cut", "count"),
    ("explore.orbit_collapsed", "count"),
    ("explore.expand_ms", "ms"),
    ("explore.steal_ms", "ms"),
    ("explore.idle_ms", "ms"),
    ("explore.checkpoint_encode_us", "us"),
    ("explore.checkpoint_decode_ms", "ms"),
    ("sekvm.encode_state_us", "us"),
    ("sekvm.encode_state_kb", "KiB"),
    ("sekvm.kcore_clone_us", "us"),
    ("sekvm.validate_log_us", "us"),
    ("sekvm.boot_us", "us"),
    ("sekvm.ms_per_state", "ms"),
    ("spec.abstract_of_us", "us"),
    ("sekvm.check_invariants_us", "us"),
    ("serve.parse_request_us", "us"),
    ("serve.job_digest_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.wal_append_us", "us"),
    ("serve.wal_replay_ms", "ms"),
    ("serve.wal_kb", "KiB"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p90", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.jobs_escalated", "count"),
    ("serve.checkpoint_resume", "count"),
    ("serve.states_explored", "count"),
    ("serve.wal_compactions", "count"),
    ("obs.json_parse_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `machine` or `serve`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `serve` daemon binary.
    pub serve_bin: PathBuf,
    /// Scratch space for state dirs and trace files.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: vrm-perfbench --workload machine|serve --seed N \
--seconds S --trace 0|1 --serve-bin PATH [--work-dir DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let (Some(k), Some(v)) = (argv[i].strip_prefix("--"), argv.get(i + 1)) else {
            return Err(format!("unexpected argument {:?}", argv[i]));
        };
        flags.insert(k, v);
        i += 2;
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !["machine", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "numeric --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "numeric --seed".to_string())?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        serve_bin: PathBuf::from(get("serve-bin")?),
        work_dir: PathBuf::from(flags.get("work-dir").copied().unwrap_or(".perfbench-work")),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Every timed operation.
    pub ledger: Ledger,
    /// Median set-up time over the run's repetitions, seconds.
    pub setup_s: f64,
    /// Seconds the verdicts took: the checks' CPU time in-process, the
    /// loop's wall time for `serve`.
    pub timed_s: f64,
    /// Peak RSS of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metric values (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
}

/// How many times a run repeats its set-up; the median is reported. Set-up
/// is milliseconds of process spawn and input generation, which bursts of
/// host steal stretch: with 5 repetitions the `serve` median moved by 29%
/// between two ten-run batches.
pub const SETUP_REPS: usize = 15;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(out: &RunOut) -> BTreeMap<&'static str, f64> {
    let l = &out.ledger;
    let all = l.latencies_ms(|_| true);
    let hits = l.latencies_ms(|o| o.kind == OpKind::Hit);
    let misses = l.latencies_ms(|o| o.kind == OpKind::Miss);
    let ok = (l.attempted() - l.failed()) as f64;
    let p = |v: &[f64], q: f64| finite(percentile(v, q).unwrap_or(0.0));
    for (name, v) in [
        ("verdict_ms", &all),
        ("hit_ms", &hits),
        ("miss_ms", &misses),
    ] {
        println!("{}", stats::describe(name, v));
    }
    BTreeMap::from([
        ("setup_s", out.setup_s),
        ("verdicts_per_s", ok / out.timed_s.max(1e-9)),
        ("verdict_ms_p50", finite(median(&all).unwrap_or(0.0))),
        ("verdict_ms_p90", p(&all, 90.0)),
        ("decided_pct", l.decided_pct()),
        ("correct_pct", l.correct_pct()),
        ("peak_rss_mb", out.peak_rss_mb),
        ("hit_ms_p50", p(&hits, 50.0)),
        ("hit_ms_p90", p(&hits, 90.0)),
        ("miss_ms_p50", p(&misses, 50.0)),
        ("miss_ms_p90", p(&misses, 90.0)),
    ])
}

fn run_workload(args: &Args) -> Result<RunOut, String> {
    match args.workload.as_str() {
        "machine" => machine::run(args),
        _ => serve::run(args),
    }
}

/// The result line: every metric of `names`, in order, from `values`.
/// Written by hand rather than through a crate's JSON writer, so the
/// contract with the harness does not move when the crates do.
fn result_line(ledger: &Ledger, names: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = finite(values.get(name).copied().unwrap_or(0.0));
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ledger.failed() == 0,
        ledger.attempted(),
        ledger.failed(),
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        // Before any checker runs: the program's own spans, profiles and
        // counters are captured in memory from here on.
        vrm_obs::install_memory_sink();
        spans::enable();
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("{}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        layers::traced(&args)
    } else {
        run_workload(&args).map(|out| {
            let values = end_to_end(&out);
            (out.ledger, values)
        })
    };
    match result {
        Ok((ledger, values)) => {
            for op in ledger.ops.iter().filter(|o| !o.ok()).take(20) {
                eprintln!("failed operation: {:?}", op.class);
            }
            let names = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", result_line(&ledger, names, &values));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs `body` for `seconds` of wall time, in whole rounds: a round once
/// started always finishes, so every run weighs the inputs alike.
pub fn whole_rounds(seconds: f64, mut body: impl FnMut(usize)) {
    let start = std::time::Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut round = 0;
    while round == 0 || start.elapsed() < limit {
        body(round);
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = vrm_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f| m.get(f).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut l = Ledger::default();
        l.ops.push(stats::Op {
            kind: OpKind::Miss,
            latency: Duration::from_millis(3),
            class: stats::OpClass::Ok,
            decided: true,
            exec: None,
        });
        let line = result_line(&l, END_TO_END, &BTreeMap::from([("setup_s", 0.5)]));
        let v = vrm_obs::json::parse(&line).expect("JSON");
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(1));
        let m = v.get("metrics").and_then(|m| m.as_obj()).expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a(
            "--workload serve --seed 1 --seconds 2 --trace 0 --serve-bin x"
        ))
        .is_ok());
        assert!(parse_args(&a(
            "--workload nope --seed 1 --seconds 2 --trace 0 --serve-bin x"
        ))
        .is_err());
        assert!(parse_args(&a(
            "--workload serve --seed 1 --seconds 2 --trace 2 --serve-bin x"
        ))
        .is_err());
    }
}
