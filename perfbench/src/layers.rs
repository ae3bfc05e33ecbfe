//! The traced run: per-layer figures.
//!
//! A traced run does three things, in order:
//!
//! 1. runs the workload untraced in a child process for half the time,
//!    for the reference rate behind `bench.trace_overhead_pct`;
//! 2. runs the workload traced for the other half: the benchmark's own
//!    spans around each public call, plus the program's own spans,
//!    profiles and counters, captured through `vrm_obs`'s in-memory sink
//!    (and, for the daemon, its `VRM_TRACE` file);
//! 3. probes each layer on the path of the workload: times, from
//!    outside, the public functions the verdict passes through, on the
//!    workload's own inputs.
//!
//! A layer that is not on the workload's path reports 0. Counter names
//! use `.` where `vrm_obs` uses `/`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use vrm_memmodel::axiomatic::{enumerate_axiomatic_with, AxConfig};
use vrm_memmodel::gen;
use vrm_memmodel::parser::parse;
use vrm_memmodel::promising::enumerate_promising_with;
use vrm_memmodel::sc::{enumerate_sc_with, ScConfig};
use vrm_obs::json::{self, Json};
use vrm_sekvm::machine::{ExhaustiveConfig, Machine, ScheduleResume};
use vrm_sekvm::{KCore, KCoreConfig};
use vrm_serve::protocol::parse_request;
use vrm_serve::{CacheEntry, DurableStore, Request, StoreOptions, VerdictCache, WalRecord};

use crate::inputs::{self, LitmusItem, Rng};
use crate::stats::{median, Ledger, OpKind};
use crate::{serve, spans, Args, RunOut};

/// Per-layer values, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Engine counters: metric name and the `vrm_obs` counter behind it
/// (with `.` for `/`).
const EXPLORE_COUNTERS: &[(&str, &str)] = &[
    ("explore.popped", "explore.states_popped"),
    ("explore.pushed", "explore.states_pushed"),
    ("explore.dedup_hits", "explore.dedup_hits"),
    ("explore.steals", "explore.deque_steals"),
    ("explore.sleep_pruned", "explore.sleep_pruned"),
    ("explore.persistent_cut", "explore.persistent_cut"),
    ("explore.orbit_collapsed", "explore.orbit_collapsed"),
];

/// Every registered `vrm_obs` counter of this process, `/` renamed `.`.
fn counters() -> BTreeMap<String, u64> {
    vrm_obs::snapshot(0)
        .counters
        .into_iter()
        .map(|(k, v)| (k.replace('/', "."), v))
        .collect()
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> f64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// Microseconds `f` took, and its value.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = black_box(f());
    (v, t.elapsed().as_secs_f64() * 1e6)
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn num(v: &Json) -> Option<f64> {
    match *v {
        Json::Int(i) => Some(i as f64),
        Json::UInt(u) => Some(u as f64),
        Json::Float(f) => Some(f),
        _ => None,
    }
}

/// What the program's own trace lines add up to.
#[derive(Debug, Default)]
pub struct Harvest {
    /// Summed phase time from `profile` lines, ns.
    pub expand_ns: u64,
    /// Summed steal time, ns.
    pub steal_ns: u64,
    /// Summed idle time, ns.
    pub idle_ns: u64,
    /// Highest value each counter reached in a `metrics` line.
    pub counters: BTreeMap<String, u64>,
    /// Largest sampled `frontier_len` gauge.
    pub frontier: u64,
}

impl Harvest {
    /// Takes one trace line: spans go to the span store, profiles and
    /// metrics snapshots are summed here.
    pub fn absorb(&mut self, line: &str, thread_prefix: &str) {
        let Some(v) = json::parse(line) else {
            return;
        };
        if spans::store().absorb_trace_line(&v, thread_prefix) {
            return;
        }
        match v.get("type").and_then(Json::as_str) {
            Some("profile") => {
                let Some(phases) = v.get("phases").and_then(Json::as_obj) else {
                    return;
                };
                for (phase, h) in phases {
                    let ns = h.get("sum_ns").and_then(Json::as_u64).unwrap_or(0);
                    match phase.as_str() {
                        "expand" => self.expand_ns += ns,
                        "steal" => self.steal_ns += ns,
                        "idle" => self.idle_ns += ns,
                        _ => {}
                    }
                }
            }
            Some("metrics") => {
                if let Some(c) = v.get("counters").and_then(Json::as_obj) {
                    for (k, x) in c {
                        let e = self.counters.entry(k.replace('/', ".")).or_default();
                        *e = (*e).max(x.as_u64().unwrap_or(0));
                    }
                }
                if let Some(f) = v
                    .get("gauges")
                    .and_then(|g| g.get("frontier_len"))
                    .and_then(Json::as_u64)
                {
                    self.frontier = self.frontier.max(f);
                }
            }
            _ => {}
        }
    }

    /// Phase times per explored verdict, ms.
    pub fn phases(&self, values: &mut Values, verdicts: usize) {
        let per = |ns: u64| ns as f64 / 1e6 / verdicts.max(1) as f64;
        values.insert("explore.expand_ms", per(self.expand_ns));
        values.insert("explore.steal_ms", per(self.steal_ns));
        values.insert("explore.idle_ms", per(self.idle_ns));
    }
}

/// Work counters and the dedup ratio from counter values.
fn explore_counts(values: &mut Values, get: impl Fn(&str) -> f64) {
    for (metric, counter) in EXPLORE_COUNTERS {
        values.insert(metric, get(counter));
    }
    let dedup = get("explore.dedup_hits");
    let pushed = get("explore.states_pushed");
    values.insert("explore.dedup_ratio", dedup / (dedup + pushed).max(1.0));
}

/// The untraced rate, from a child run of this binary for `seconds`.
fn untraced_rate(args: &Args, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .arg("--serve-bin")
        .arg(&args.serve_bin)
        .arg("--work-dir")
        .arg(&args.work_dir)
        .env_remove(vrm_obs::trace::TRACE_ENV)
        .output()
        .map_err(|e| format!("untraced reference run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(json::parse)
        .and_then(|v| num(v.get("metrics")?.get("verdicts_per_s")?.get("value")?))
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("untraced reference run failed: {}", out.status))
}

/// The traced run: the workload's ledger and every per-layer value.
pub fn traced(args: &Args) -> Result<(Ledger, Values), String> {
    let half = (args.seconds / 2.0).max(1.0);
    let untraced = untraced_rate(args, half)?;
    let targs = Args {
        seconds: half,
        ..args.clone()
    };
    let before = counters();
    let out: RunOut = crate::run_workload(&targs)?;
    let after = counters();
    let mut values = out.layer;
    let ok = out.ledger.attempted() - out.ledger.failed();
    let traced_rate = ok as f64 / out.timed_s.max(1e-9);
    values.insert(
        "bench.trace_overhead_pct",
        (untraced - traced_rate) * 100.0 / untraced.max(1e-9),
    );
    let mut harvest = Harvest::default();
    for line in vrm_obs::drain_memory_sink() {
        harvest.absorb(&line, "");
    }
    if args.workload == "machine" {
        // In-process walks; `serve` takes these from the daemon's trace.
        explore_counts(&mut values, |c| delta(&before, &after, c));
        harvest.phases(&mut values, ok);
    }
    sekvm_probe(args.seed, &mut values);
    checkpoint_probe(&mut values)?;
    if args.workload == "serve" {
        core_probe(&mut values)?;
    }
    let mut table: Vec<_> = spans::store().self_times().into_iter().collect();
    table.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_us));
    println!("self time by span (top 15): name count total_ms self_ms");
    for (name, t) in table.iter().take(15) {
        println!(
            "  {name:<36} {:>8} {:>10.1} {:>10.1}",
            t.count,
            t.total_us as f64 / 1e3,
            t.self_us as f64 / 1e3
        );
    }
    let spans_file = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans::store().write_to(&spans_file) {
        eprintln!("{}: {e}", spans_file.display());
    }
    Ok((out.ledger, values))
}

/// The memmodel enumerators called one by one on `items` (each once, at
/// jobs=1, under the budgets `run_litmus` applies), plus parse, and
/// generation of the first `gen_count` programs of the seed's litmus draw.
pub fn memmodel_probe(items: &[LitmusItem], seed: u64, gen_count: usize, values: &mut Values) {
    let parse_us: Vec<f64> = items
        .iter()
        .map(|i| {
            let _s = spans::span("memmodel.parse");
            time_us(|| parse(&i.text)).1
        })
        .collect();
    values.insert("memmodel.parse_us", med(&parse_us));
    let mut rng = Rng::new(seed, inputs::LITMUS_STREAM);
    let gen_us: Vec<f64> = (0..gen_count)
        .map(|_| {
            let s = rng.next_u64();
            let _s = spans::span("memmodel.gen");
            time_us(|| gen::render_text(&gen::sample_cycle(s, &inputs::GEN), &inputs::GEN)).1
        })
        .collect();
    values.insert("memmodel.gen_us", med(&gen_us));
    let before = counters();
    let (mut sc_us, mut pm_us, mut ax_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sc_states, mut pm_states) = (0usize, 0usize);
    for item in items {
        let prog = &item.parsed.program;
        let mut sc_cfg = ScConfig {
            jobs: 1,
            ..ScConfig::default()
        };
        let mut pm_cfg = item.parsed.promising.clone();
        pm_cfg.jobs = 1;
        if item.generated {
            sc_cfg.max_states = inputs::GEN_MAX_STATES;
            pm_cfg.max_states = inputs::GEN_MAX_STATES;
        }
        let s = spans::span("memmodel.enumerate_sc");
        let (sc, us) = time_us(|| enumerate_sc_with(prog, &sc_cfg));
        drop(s);
        sc_us.push(us);
        sc_states += sc.map_or(0, |s| s.stats.states);
        let s = spans::span("memmodel.enumerate_promising");
        let (pm, us) = time_us(|| enumerate_promising_with(prog, &pm_cfg));
        drop(s);
        pm_us.push(us);
        pm_states += pm.map_or(0, |r| r.states_explored);
        if item.parsed.run_axiomatic {
            let ax_cfg = AxConfig {
                jobs: 1,
                ..AxConfig::default()
            };
            let _s = spans::span("memmodel.enumerate_axiomatic");
            ax_us.push(time_us(|| enumerate_axiomatic_with(prog, &ax_cfg)).1);
        }
    }
    let after = counters();
    values.insert("memmodel.sc_ms", mean(&sc_us) / 1e3);
    values.insert("memmodel.sc_states", sc_states as f64);
    values.insert("memmodel.promising_ms", mean(&pm_us) / 1e3);
    values.insert("memmodel.promising_states", pm_states as f64);
    values.insert("memmodel.axiomatic_ms", mean(&ax_us) / 1e3);
    let d = |c: &str| delta(&before, &after, c);
    values.insert("promising.certifications", d("promising.certifications"));
    values.insert("promising.cert_refused", d("promising.cert_refused"));
    let accepted = d("axiomatic.candidates_accepted");
    let all = accepted
        + d("axiomatic.rejected_internal")
        + d("axiomatic.rejected_atomicity")
        + d("axiomatic.rejected_external");
    values.insert("axiomatic.accept_ratio", accepted / all.max(1.0));
}

/// `check_wdrf` on the catalog at the campaign budget.
pub fn core_probe(values: &mut Values) -> Result<(), String> {
    let (mut ms, mut states) = (Vec::new(), 0usize);
    for (_, prog) in vrm_core::paper_examples::wdrf_catalog() {
        let _s = spans::span("core.check_wdrf");
        let (v, us) = time_us(|| inputs::check_wdrf_campaign(&prog));
        states += v?.stats.states;
        ms.push(us / 1e3);
    }
    values.insert("core.check_wdrf_ms", mean(&ms));
    values.insert("core.wdrf_states", states as f64);
    Ok(())
}

/// A `fmt::Write` that counts and hashes what is streamed into it, the
/// way the engine's digest consumes `KCore::encode_state`.
#[derive(Default)]
struct CountingHasher {
    bytes: u64,
    hash: u64,
}

impl std::fmt::Write for CountingHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes += s.len() as u64;
        for &b in s.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// KCore operations on states sampled from seeded `Machine::run(k)`
/// prefixes of each registered machine workload.
pub fn sekvm_probe(seed: u64, values: &mut Values) {
    const REPS: usize = 3;
    let cfg = KCoreConfig::default();
    let boot: Vec<f64> = (0..9)
        .map(|_| {
            let _s = spans::span("sekvm.boot");
            time_us(|| KCore::boot(cfg)).1
        })
        .collect();
    values.insert("sekvm.boot_us", med(&boot));
    let mut rng = Rng::new(seed, 5);
    let mut kcores = Vec::new();
    for w in vrm_sekvm::workloads::NAMES {
        let scripts = vrm_sekvm::workloads::by_name(w).expect("registered workload");
        for _ in 0..4 {
            let steps = rng.below(40) as usize;
            let mut m = Machine::new(cfg, scripts.clone(), rng.next_u64());
            m.run(steps);
            kcores.push(m.kcore);
        }
    }
    let (mut enc, mut kb, mut clone, mut log, mut abs, mut inv) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for k in &kcores {
        for _ in 0..REPS {
            let s = spans::span("sekvm.encode_state");
            let (w, us) = time_us(|| {
                let mut w = CountingHasher::default();
                k.encode_state(&mut w);
                w
            });
            drop(s);
            enc.push(us);
            kb.push(w.bytes as f64 / 1024.0);
            clone.push(time_us(|| k.clone()).1);
            log.push(time_us(|| vrm_sekvm::wdrf::validate_log(&k.log)).1);
            let s = spans::span("spec.abstract_of");
            abs.push(time_us(|| vrm_sekvm::refine::abstract_of(k)).1);
            drop(s);
            inv.push(time_us(|| vrm_sekvm::security::check_invariants(k)).1);
        }
    }
    values.insert("sekvm.encode_state_us", med(&enc));
    values.insert("sekvm.encode_state_kb", mean(&kb));
    values.insert("sekvm.kcore_clone_us", med(&clone));
    values.insert("sekvm.validate_log_us", med(&log));
    values.insert("spec.abstract_of_us", med(&abs));
    values.insert("sekvm.check_invariants_us", med(&inv));
}

/// `ScheduleResume::to_bytes`/`from_bytes` on an `unmap` walk parked at
/// a 40-state budget.
pub fn checkpoint_probe(values: &mut Values) -> Result<(), String> {
    let cfg = KCoreConfig::default();
    let scripts = vrm_sekvm::workloads::unmap();
    let ecfg = ExhaustiveConfig {
        max_states: 40,
        jobs: 1,
        ..ExhaustiveConfig::default()
    };
    let report = Machine::explore_schedules(cfg, scripts.clone(), &ecfg)
        .map_err(|e| format!("explore_schedules: {e}"))?;
    let resume = report.resume.ok_or("a 40-state unmap walk did not park")?;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..5 {
        let _s = spans::span("explore.checkpoint_encode");
        let (b, us) = time_us(|| resume.to_bytes());
        bytes = b.ok_or("checkpoint did not serialize")?;
        enc.push(us);
    }
    for _ in 0..5 {
        let _s = spans::span("explore.checkpoint_decode");
        let (r, us) = time_us(|| ScheduleResume::from_bytes(cfg, scripts.clone(), &bytes));
        r.map_err(|e| format!("checkpoint decode: {e}"))?;
        dec.push(us / 1e3);
    }
    values.insert("explore.checkpoint_encode_us", med(&enc));
    values.insert("explore.checkpoint_decode_ms", med(&dec));
    Ok(())
}

/// The serve layer's figures from a finished traced run: client-side
/// latency split, the daemon's counters and trace, and the serve
/// functions timed on the run's own requests and WAL.
pub fn serve_layers(
    out: &mut RunOut,
    seed: u64,
    sent: &[serve::Sent],
    daemon_counters: &BTreeMap<String, u64>,
    state_dir: &Path,
    trace_file: Option<&Path>,
) {
    let v = &mut out.layer;
    let ops = &out.ledger.ops;
    let misses = ops
        .iter()
        .filter(|o| o.ok() && o.kind == OpKind::Miss)
        .count();
    let exec_ms: Vec<f64> = ops
        .iter()
        .filter(|o| o.ok() && o.kind == OpKind::Miss)
        .filter_map(|o| Some(o.exec?.as_secs_f64() * 1e3))
        .collect();
    v.insert("serve.exec_ms_p50", med(&exec_ms));
    let overheads = serve::overheads_ms(ops);
    v.insert(
        "serve.overhead_ms_p50",
        serve::pct_or_zero(&overheads, 50.0),
    );
    v.insert(
        "serve.overhead_ms_p90",
        serve::pct_or_zero(&overheads, 90.0),
    );
    let replies: Vec<_> = sent.iter().filter_map(|s| s.reply.as_ref()).collect();
    let cached = replies.iter().filter(|r| r.cached).count();
    v.insert("serve.hit_ratio", cached as f64 / sent.len().max(1) as f64);
    for name in [
        "serve.jobs_escalated",
        "serve.checkpoint_resume",
        "serve.states_explored",
        "serve.wal_compactions",
    ] {
        v.insert(name, daemon_counters.get(name).copied().unwrap_or(0) as f64);
    }
    let fresh: Vec<_> = replies.iter().filter(|r| !r.cached).collect();
    let states: u64 = fresh.iter().map(|r| r.states_new).sum();
    let exec_s: f64 = fresh.iter().map(|r| r.wall_ns as f64 / 1e9).sum();
    v.insert("explore.states", states as f64);
    v.insert("explore.states_per_s", states as f64 / exec_s.max(1e-9));
    let machine: Vec<_> = sent
        .iter()
        .filter(|s| s.machine)
        .filter_map(|s| s.reply.as_ref())
        .collect();
    let m_states: u64 = machine.iter().map(|r| r.states_new).sum();
    let m_ms: f64 = machine.iter().map(|r| r.wall_ns as f64 / 1e6).sum();
    v.insert("sekvm.ms_per_state", m_ms / m_states.max(1) as f64);

    // The daemon's own trace: profiles, metrics snapshots and spans.
    let mut harvest = Harvest::default();
    if let Some(text) = trace_file.and_then(|p| std::fs::read_to_string(p).ok()) {
        for line in text.lines() {
            harvest.absorb(line, "daemon:");
        }
    }
    explore_counts(v, |c| harvest.counters.get(c).copied().unwrap_or(0) as f64);
    v.insert("explore.frontier_peak", harvest.frontier as f64);
    harvest.phases(v, misses);

    // The serve functions on this run's own requests.
    let lines: Vec<&str> = sent.iter().map(|s| s.line.as_str()).take(400).collect();
    let json_us: Vec<f64> = lines.iter().map(|l| time_us(|| json::parse(l)).1).collect();
    v.insert("obs.json_parse_us", med(&json_us));
    let mut parse_us = Vec::new();
    let mut specs = Vec::new();
    for l in &lines {
        let _s = spans::span("serve.parse_request");
        let (req, us) = time_us(|| parse_request(l));
        parse_us.push(us);
        if let Ok(Request::Submit { spec, cfg, .. }) = req {
            specs.push((spec, cfg));
        }
    }
    v.insert("serve.parse_request_us", med(&parse_us));
    let mut digest_us = Vec::new();
    let mut digests = Vec::new();
    for (spec, cfg) in &specs {
        let _s = spans::span("serve.job_digest");
        let (d, us) = time_us(|| vrm_serve::digest::job_digest(spec, cfg, true));
        digest_us.push(us);
        if let Ok(d) = d {
            digests.push(d);
        }
    }
    v.insert("serve.job_digest_us", med(&digest_us));
    digests.sort_unstable();
    digests.dedup();
    let entry = CacheEntry {
        verdict: vrm_explore::Verdict::Pass,
        states: 1,
        wall_ns: 1,
        detail: "outcomes:1".into(),
    };
    let mut cache = VerdictCache::with_cap(digests.len().max(1));
    for &d in &digests {
        cache.insert(d, entry.clone());
    }
    let lookup_us: Vec<f64> = (0..5)
        .map(|_| {
            let _s = spans::span("serve.cache_lookup");
            let (_, us) = time_us(|| {
                for &d in &digests {
                    black_box(matches!(cache.lookup(d), vrm_serve::Lookup::Hit(_)));
                }
            });
            us / digests.len().max(1) as f64
        })
        .collect();
    v.insert("serve.cache_lookup_us", med(&lookup_us));
    let scratch = state_dir.with_extension("append-probe");
    let _ = std::fs::remove_dir_all(&scratch);
    if let Ok((mut store, _)) = DurableStore::open(&scratch, StoreOptions::default()) {
        let append_us: Vec<f64> = digests
            .iter()
            .map(|&digest| {
                let rec = WalRecord::Verdict {
                    digest,
                    entry: entry.clone(),
                };
                let _s = spans::span("serve.wal_append");
                time_us(|| store.append(&rec)).1
            })
            .collect();
        v.insert("serve.wal_append_us", med(&append_us));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Ok(bytes) = std::fs::read(state_dir.join(vrm_serve::store::WAL_FILE)) {
        v.insert("serve.wal_kb", bytes.len() as f64 / 1024.0);
        let replay_ms: Vec<f64> = (0..3)
            .map(|_| {
                let _s = spans::span("serve.wal_replay");
                time_us(|| vrm_serve::store::replay(&bytes, &StoreOptions::default())).1 / 1e3
            })
            .collect();
        v.insert("serve.wal_replay_ms", med(&replay_ms));
    }

    // The memmodel layer on the litmus programs this run sent, and the
    // generator that drew them during set-up.
    let items: Vec<LitmusItem> = lines
        .iter()
        .filter_map(|l| {
            let text = json::parse(l)?.get("program")?.as_str()?.to_string();
            let parsed = parse(&text).ok()?;
            Some(LitmusItem {
                text,
                parsed,
                generated: true,
            })
        })
        .take(40)
        .collect();
    memmodel_probe(&items, seed, 16, &mut out.layer);
}
