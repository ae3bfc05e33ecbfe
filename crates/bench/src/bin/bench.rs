//! Perf-trajectory harness: runs the repo's representative workloads —
//! the litmus corpus, the `check_wdrf` paper examples, a machine-layer
//! schedule exploration, and the spec suite (refinement checking plus
//! the abstract ownership machine) — and (optionally) writes one
//! schema-versioned `BENCH_*.json` perf record per workload.
//!
//! ```console
//! $ cargo run -rp vrm-bench --bin bench -- litmus/
//! $ cargo run -rp vrm-bench --bin bench -- --suite wdrf
//! $ cargo run -rp vrm-bench --bin bench -- --jobs 4 --emit-bench BENCH_explore.json litmus/
//! ```
//!
//! Metrics are counts and wall-clock nanoseconds only (see
//! `docs/TELEMETRY.md` for the field-by-field schema); derived ratios
//! belong to whoever reads the trajectory. State counts are
//! deterministic across drivers and machines; `wall_ns` is not —
//! compare trajectories on the same hardware.
//!
//! Exit codes: `0` — every workload PASSed; `1` — at least one FAIL;
//! `3` — no FAILs, but at least one UNKNOWN (an enumeration was cut
//! short by a budget); `2` — usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vrm_core::paper_examples;
use vrm_core::{check_wdrf, KernelSpec, WdrfCheckConfig};
use vrm_explore::{explore, ExploreConfig, Verdict};
use vrm_memmodel::gen::{self, GenConfig};
use vrm_memmodel::parser::{parse, CheckModel, ParsedLitmus};
use vrm_memmodel::promising::enumerate_promising_with;
use vrm_memmodel::runner::{run_litmus, RunOverrides};
use vrm_memmodel::sc::{enumerate_sc_with, ScConfig};
use vrm_obs::{BenchFile, BenchRecord};
use vrm_sekvm::layout::VM_POOL_PFN;
use vrm_sekvm::machine::{ExhaustiveConfig, Machine, Script};
use vrm_sekvm::{refine, KCoreConfig};
use vrm_spec::{
    step as abs_step, AbsActor, AbsOutcome, AbsPerms, AbsProgram, AbsSpace, AbsState, AbsStep,
    Claim,
};

const USAGE: &str = "usage: bench [--jobs N] \
                     [--suite all|litmus|wdrf|schedules|reduction|spec|serve|fuzz] \
                     [--fuzz-count N] [--fuzz-seed S] [--fuzz-dump DIR] \
                     [--emit-bench PATH] [litmus-dir]\n\
                     exit codes: 0 all PASS, 1 any FAIL, 3 any UNKNOWN \
                     (budget-truncated, no verdict), 2 usage error";

/// Worst-verdict accumulator over the whole run: FAIL (1) dominates
/// UNKNOWN (3) dominates PASS (0) — [`Verdict::merge_exit_codes`], the
/// one lattice every CLI in this repo uses.
fn worse(acc: i32, next: i32) -> i32 {
    Verdict::merge_exit_codes(acc, next)
}

fn verdict_name(code: i32) -> &'static str {
    match code {
        0 => "PASS",
        1 => "FAIL",
        _ => "UNKNOWN",
    }
}

fn collect_litmus_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// One litmus file: SC + promising enumeration, the file's `check`
/// expectations, and the SC ⊆ RM sanity inclusion — the same verdict
/// rule as the `litmus` binary minus the axiomatic cross-check (which
/// has its own cost profile and is benched via `--suite litmus` on the
/// `litmus` binary itself).
fn bench_litmus_file(path: &Path, jobs: Option<usize>, out: &mut BenchFile) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    let mut parsed = match parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    if let Some(jobs) = jobs {
        parsed.promising.jobs = jobs;
    }
    let mut sc_cfg = ScConfig::default();
    if let Some(jobs) = jobs {
        sc_cfg.jobs = jobs;
    }
    let prog = &parsed.program;
    let started = Instant::now();
    let sc = enumerate_sc_with(prog, &sc_cfg).expect("SC enumeration");
    let rm_res = enumerate_promising_with(prog, &parsed.promising).expect("promising");
    let wall_ns = started.elapsed().as_nanos() as u64;
    let truncated = sc.truncated() || rm_res.truncated;
    let rm = rm_res.outcomes;
    let mut ok = sc.is_subset(&rm);
    for c in &parsed.checks {
        let set = match c.model {
            CheckModel::Arm => &rm,
            CheckModel::Sc => &sc,
        };
        let bindings: Vec<(&str, u64)> = c.bindings.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        if set.contains_binding(&bindings) != c.allows {
            ok = false;
        }
    }
    let exit_code = if truncated {
        3
    } else if ok {
        0
    } else {
        1
    };
    let mut stats = sc.stats;
    stats.absorb(&rm.stats);
    out.records.push(
        BenchRecord::new(format!("litmus/{}", prog.name))
            .param("jobs", stats.jobs)
            .metric("sc_outcomes", sc.len() as u64)
            .metric("rm_outcomes", rm.len() as u64)
            .metric("states", stats.states as u64)
            .metric("popped", stats.popped as u64)
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "litmus/{:<26} sc:{:<3} arm:{:<3} states:{:<7} {:>8.1}ms  {}",
        prog.name,
        sc.len(),
        rm.len(),
        stats.states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code)
    );
    exit_code
}

fn run_litmus_suite(dir: &Path, jobs: Option<usize>, out: &mut BenchFile) -> i32 {
    let files = collect_litmus_files(dir);
    if files.is_empty() {
        eprintln!("no .litmus files under {}", dir.display());
        return 1;
    }
    files
        .iter()
        .fold(0, |acc, f| worse(acc, bench_litmus_file(f, jobs, out)))
}

/// The `check_wdrf` workloads: the two repaired plain-memory paper
/// examples plus the Figure 7 ticket lock, under the same budgeted
/// config the mutation campaign uses.
fn run_wdrf_suite(jobs: Option<usize>, out: &mut BenchFile) -> i32 {
    let mut cfg = WdrfCheckConfig {
        skip_sync_conditions: true,
        ..Default::default()
    };
    if let Some(jobs) = jobs {
        cfg.jobs = jobs;
    }
    cfg.promising.max_promises_per_thread = 1;
    cfg.promising.value_cfg.max_rounds = 3;
    let workloads = [
        ("wdrf/example1", paper_examples::example1().fixed.unwrap()),
        ("wdrf/example3", paper_examples::example3().fixed.unwrap()),
        ("wdrf/ticket-lock", paper_examples::gen_vmid_program(true)),
    ];
    let mut acc = 0;
    for (name, prog) in workloads {
        let spec = KernelSpec::for_kernel_threads(0..prog.threads.len());
        let started = Instant::now();
        let v = check_wdrf(&prog, &spec, &cfg).expect("check_wdrf");
        let wall_ns = started.elapsed().as_nanos() as u64;
        let exit_code = v.verdict().exit_code();
        out.records.push(
            BenchRecord::new(name)
                .param("jobs", v.stats.jobs)
                .param("variant", "fixed")
                .param("budget", "campaign")
                .metric("states", v.stats.states as u64)
                .metric("popped", v.stats.popped as u64)
                .metric("counterexamples", v.counterexamples.len() as u64)
                .metric("wall_ns", wall_ns)
                .metric("exit_code", exit_code as u64),
        );
        println!(
            "{name:<33} states:{:<7} {:>8.1}ms  {}",
            v.stats.states,
            wall_ns as f64 / 1e6,
            verdict_name(exit_code)
        );
        acc = worse(acc, exit_code);
    }
    acc
}

/// A minimal two-CPU map → grant → revoke workload with VmId-lock
/// contention: the shared `unmap` workload from the sekvm registry,
/// so the bench records name the same programs the serve daemon runs.
fn unmap_scripts() -> Vec<Script> {
    vrm_sekvm::workloads::unmap()
}

fn run_schedules_suite(jobs: Option<usize>, out: &mut BenchFile) -> i32 {
    let mut ecfg = ExhaustiveConfig {
        max_states: 1 << 18,
        ..Default::default()
    };
    if let Some(jobs) = jobs {
        ecfg.jobs = jobs;
    }
    let started = Instant::now();
    let report = Machine::explore_schedules(KCoreConfig::default(), unmap_scripts(), &ecfg)
        .expect("explore_schedules");
    let wall_ns = started.elapsed().as_nanos() as u64;
    let exit_code = report.verdict().exit_code();
    out.records.push(
        BenchRecord::new("schedules/unmap")
            .param("jobs", report.stats.jobs)
            .param("max_states", ecfg.max_states)
            .metric("outcomes", report.outcomes.len() as u64)
            .metric("states", report.stats.states as u64)
            .metric("popped", report.stats.popped as u64)
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {}",
        "schedules/unmap",
        report.stats.states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code)
    );
    exit_code
}

/// The reduction suite (`docs/REDUCTION.md`): reduced-vs-unreduced
/// record pairs on deterministic anchors — the unfenced ISA2 litmus
/// test for the SC sleep-set + ample walk, and the `unmap` / `mirror`
/// machine workloads for schedule-level orbit collapse. Every pair is
/// pinned to the sequential driver (jobs=1): its popped/states counts
/// are exactly reproducible, so CI can grep them as anchors; parallel
/// reduced walks use ample sets only and their counts vary with worker
/// interleaving. The records carry a `reduction=on|off` param, and the
/// suite FAILs outright if a reduced walk changes an outcome set.
fn run_reduction_suite(dir: &Path, out: &mut BenchFile) -> i32 {
    let mut acc = 0;
    let path = dir.join("isa2.litmus");
    let parsed = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| parse(&t).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    let mut sc_pair = Vec::new();
    for reduction in [true, false] {
        let cfg = ScConfig {
            jobs: 1,
            reduction,
            ..ScConfig::default()
        };
        let started = Instant::now();
        let sc = enumerate_sc_with(&parsed.program, &cfg).expect("SC enumeration");
        let wall_ns = started.elapsed().as_nanos() as u64;
        let mode = if reduction { "on" } else { "off" };
        let name = format!("reduction/{}/{mode}", parsed.program.name);
        out.records.push(
            BenchRecord::new(name.clone())
                .param("jobs", 1)
                .param("reduction", mode)
                .metric("sc_outcomes", sc.len() as u64)
                .metric("states", sc.stats.states as u64)
                .metric("popped", sc.stats.popped as u64)
                .metric("wall_ns", wall_ns),
        );
        println!(
            "{name:<33} states:{:<7} popped:{:<7} {:>8.1}ms",
            sc.stats.states,
            sc.stats.popped,
            wall_ns as f64 / 1e6,
        );
        sc_pair.push(sc);
    }
    if sc_pair[0] != sc_pair[1] {
        eprintln!(
            "reduction/{}: the reduced SC walk changed the outcome set",
            parsed.program.name
        );
        acc = 1;
    }
    for workload in ["unmap", "mirror"] {
        let scripts = vrm_sekvm::workloads::by_name(workload).expect("registered workload");
        let mut pair = Vec::new();
        for reduction in [true, false] {
            let ecfg = ExhaustiveConfig {
                jobs: 1,
                reduction,
                ..ExhaustiveConfig::default()
            };
            let started = Instant::now();
            let report = Machine::explore_schedules(KCoreConfig::default(), scripts.clone(), &ecfg)
                .expect("explore_schedules");
            let wall_ns = started.elapsed().as_nanos() as u64;
            let exit_code = report.verdict().exit_code();
            let mode = if reduction { "on" } else { "off" };
            let name = format!("reduction/{workload}/{mode}");
            out.records.push(
                BenchRecord::new(name.clone())
                    .param("jobs", 1)
                    .param("reduction", mode)
                    .metric("outcomes", report.outcomes.len() as u64)
                    .metric("states", report.stats.states as u64)
                    .metric("popped", report.stats.popped as u64)
                    .metric("wall_ns", wall_ns)
                    .metric("exit_code", exit_code as u64),
            );
            println!(
                "{name:<33} states:{:<7} popped:{:<7} {:>8.1}ms  {}",
                report.stats.states,
                report.stats.popped,
                wall_ns as f64 / 1e6,
                verdict_name(exit_code)
            );
            acc = worse(acc, exit_code);
            pair.push(report);
        }
        if pair[0].outcomes != pair[1].outcomes || pair[0].verdict() != pair[1].verdict() {
            eprintln!("reduction/{workload}: the reduced schedule walk changed the outcome set");
            acc = 1;
        }
    }
    acc
}

/// The spec suite: the same unmap workload checked twice.
///
/// 1. `spec/refinement-unmap` — the concrete every-schedule walk with
///    per-transition refinement checking (`Machine::check_refinement`).
/// 2. `spec/abstract-unmap` — the workload's abstract shadow explored
///    directly on the ownership machine: the two authenticated image
///    donations, the zeroed data donation, and the grant/revoke pair,
///    with no locks, tickets, logs or memory images in the state. The
///    `abstract_to_concrete_pct` metric records how much smaller the
///    spec-level walk is than the concrete one it certifies.
fn run_spec_suite(jobs: Option<usize>, out: &mut BenchFile) -> i32 {
    let mut ecfg = ExhaustiveConfig {
        max_states: 1 << 18,
        ..Default::default()
    };
    if let Some(jobs) = jobs {
        ecfg.jobs = jobs;
    }
    let started = Instant::now();
    let report = Machine::check_refinement(KCoreConfig::default(), unmap_scripts(), &ecfg)
        .expect("check_refinement");
    let wall_ns = started.elapsed().as_nanos() as u64;
    let exit_code = report.verdict().exit_code();
    let concrete_states = report.stats.states;
    out.records.push(
        BenchRecord::new("spec/refinement-unmap")
            .param("jobs", report.stats.jobs)
            .param("max_states", ecfg.max_states)
            .metric("outcomes", report.outcomes.len() as u64)
            .metric("violations", report.violations.len() as u64)
            .metric("states", report.stats.states as u64)
            .metric("popped", report.stats.popped as u64)
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {}",
        "spec/refinement-unmap",
        report.stats.states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code)
    );
    let mut acc = exit_code;

    let vm = AbsActor::Vm(1);
    let data = VM_POOL_PFN.0 + 4;
    let steps = vec![
        AbsStep::Map {
            who: vm,
            vpn: 0,
            frame: VM_POOL_PFN.0,
            perms: AbsPerms::RWX,
            claim: Claim::Authenticated,
        },
        AbsStep::Map {
            who: vm,
            vpn: 1,
            frame: VM_POOL_PFN.0 + 1,
            perms: AbsPerms::RWX,
            claim: Claim::Authenticated,
        },
        AbsStep::Map {
            who: vm,
            vpn: 64,
            frame: data,
            perms: AbsPerms::RWX,
            claim: Claim::Zeroed,
        },
        AbsStep::Grant { vm: 1, frame: data },
        AbsStep::Map {
            who: AbsActor::Host,
            vpn: data,
            frame: data,
            perms: AbsPerms::RW,
            claim: Claim::Owned,
        },
        AbsStep::Unmap {
            who: AbsActor::Host,
            vpn: data,
        },
        AbsStep::Revoke { vm: 1, frame: data },
    ];
    let space = AbsSpace {
        uni: refine::universe(),
        init: AbsState::boot(),
        prog: AbsProgram {
            threads: vec![steps],
        },
    };
    let mut xcfg = ExploreConfig::with_max_states(1 << 18);
    if let Some(jobs) = jobs {
        xcfg = xcfg.jobs(jobs);
    }
    let started = Instant::now();
    let ex = explore(&space, &xcfg, None);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let clean = !ex.emits.is_empty() && ex.emits.iter().all(|o| *o == AbsOutcome::Clean);
    let exit_code = Verdict::from_parts(clean, &ex.stats).exit_code();
    out.records.push(
        BenchRecord::new("spec/abstract-unmap")
            .param("jobs", ex.stats.jobs)
            .param("max_states", 1 << 18)
            .metric("outcomes", ex.emits.len() as u64)
            .metric("states", ex.stats.states as u64)
            .metric("popped", ex.stats.popped as u64)
            .metric("concrete_states", concrete_states as u64)
            .metric(
                "abstract_to_concrete_pct",
                (ex.stats.states * 100 / concrete_states.max(1)) as u64,
            )
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {} ({}% of concrete)",
        "spec/abstract-unmap",
        ex.stats.states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code),
        ex.stats.states * 100 / concrete_states.max(1),
    );
    acc = worse(acc, exit_code);
    acc
}

/// The serve-suite corpus: one submit line per litmus file, wDRF
/// catalog program, and machine workload (schedule + refinement),
/// mirroring what the other suites run directly.
fn serve_corpus(dir: &Path, jobs: Option<usize>) -> Vec<String> {
    let with_jobs = |mut w: vrm_obs::json::ObjWriter| {
        if let Some(n) = jobs {
            w.field_u64("jobs", n as u64);
        }
        w.finish()
    };
    let mut lines = Vec::new();
    for file in collect_litmus_files(dir) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let mut w = vrm_obs::json::ObjWriter::new();
        w.field_str("op", "submit")
            .field_str("kind", "litmus")
            .field_str("program", &text);
        lines.push(with_jobs(w));
    }
    for (name, _) in paper_examples::wdrf_catalog() {
        let mut w = vrm_obs::json::ObjWriter::new();
        w.field_str("op", "submit")
            .field_str("kind", "wdrf")
            .field_str("name", name);
        lines.push(with_jobs(w));
    }
    for kind in ["schedules", "refinement"] {
        for workload in vrm_sekvm::workloads::NAMES {
            let mut w = vrm_obs::json::ObjWriter::new();
            w.field_str("op", "submit")
                .field_str("kind", kind)
                .field_str("workload", workload)
                .field_u64("max_states", 1 << 18);
            lines.push(with_jobs(w));
        }
    }
    lines
}

/// Replays the corpus through `clients` concurrent connections;
/// returns the worst exit code seen.
fn serve_replay(endpoint: &vrm_serve::server::Endpoint, lines: &[String], clients: usize) -> i32 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        vrm_serve::Client::connect(endpoint).expect("connect serve client");
                    let mut acc = 0;
                    for line in lines.iter().skip(c).step_by(clients) {
                        let reply = client.request(line).expect("serve request");
                        acc = worse(acc, reply.exit_code.unwrap_or(2));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().fold(0, |acc, h| {
            worse(acc, h.join().expect("serve client thread"))
        })
    })
}

/// The verification-as-a-service load driver: an in-process daemon
/// (write-ahead logging into a scratch state dir) replays the whole
/// corpus through 4 concurrent clients twice (cold, then warm — the
/// second pass must be answered entirely from the verdict cache),
/// probes checkpoint continuation with an under-budgeted schedule walk
/// re-queried at a larger budget, then restarts the daemon on the same
/// state dir and measures the recovered warm replay (`serve/replay`).
fn run_serve_suite(dir: &Path, jobs: Option<usize>, out: &mut BenchFile) -> i32 {
    use vrm_obs::serve as serve_names;
    use vrm_obs::Counter;

    const CLIENTS: usize = 4;
    let state_dir = std::env::temp_dir().join(format!("vrm-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let durable_cfg = || vrm_serve::ServeConfig {
        workers: CLIENTS,
        state_dir: Some(state_dir.clone()),
        ..Default::default()
    };
    let svc = vrm_serve::Service::start(durable_cfg());
    let handle = vrm_serve::server::serve(
        svc.clone(),
        &vrm_serve::server::Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind serve daemon");
    let endpoint = handle.local().clone();
    let lines = serve_corpus(dir, jobs);

    let mut acc = 0;
    for pass in ["cold", "warm"] {
        let hits0 = Counter::new(serve_names::CACHE_HIT).get();
        let states0 = Counter::new(serve_names::STATES_EXPLORED).get();
        let started = Instant::now();
        let exit_code = serve_replay(&endpoint, &lines, CLIENTS);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let hits = Counter::new(serve_names::CACHE_HIT).get() - hits0;
        let states = Counter::new(serve_names::STATES_EXPLORED).get() - states0;
        out.records.push(
            BenchRecord::new(format!("serve/{pass}"))
                .param("clients", CLIENTS)
                .param("requests", lines.len())
                .metric("cache_hits", hits)
                .metric("states", states)
                .metric("wall_ns", wall_ns)
                .metric(
                    "requests_per_sec_x1000",
                    lines.len() as u64 * 1_000_000_000_000 / wall_ns.max(1),
                )
                .metric("exit_code", exit_code as u64),
        );
        println!(
            "{:<33} states:{:<7} {:>8.1}ms  {} ({}/{} cache hits)",
            format!("serve/{pass}"),
            states,
            wall_ns as f64 / 1e6,
            verdict_name(exit_code),
            hits,
            lines.len(),
        );
        acc = worse(acc, exit_code);
    }

    // Checkpoint continuation: a 40-state budget truncates the unmap
    // walk (Unknown, checkpoint parked); the re-query at a fresh
    // budget resumes it instead of restarting, so its states_new is
    // only the remainder of the space.
    let mut client = vrm_serve::Client::connect(&endpoint).expect("connect serve client");
    let probe = |client: &mut vrm_serve::Client, budget: u64| {
        let mut w = vrm_obs::json::ObjWriter::new();
        w.field_str("op", "submit")
            .field_str("kind", "schedules")
            .field_str("workload", "unmap")
            .field_u64("max_states", budget);
        client.request(&w.finish()).expect("serve request")
    };
    let started = Instant::now();
    let small = probe(&mut client, 40);
    let resumed = probe(&mut client, 1 << 12);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let exit_code = resumed.exit_code.unwrap_or(2);
    out.records.push(
        BenchRecord::new("serve/escalate")
            .param("resumed", resumed.resumed)
            .metric("first_states", small.states)
            .metric("resumed_states_new", resumed.states_new)
            .metric("total_states", resumed.states)
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {} (resumed:{} new:{})",
        "serve/escalate",
        resumed.states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code),
        resumed.resumed,
        resumed.states_new,
    );
    acc = worse(acc, exit_code);

    svc.shutdown();
    handle.stop();

    // Durable restart: a fresh daemon on the same state dir must
    // answer the whole corpus from the replayed write-ahead log — the
    // crash-recovery path, measured end to end (WAL replay + 100%
    // warm hits over the wire).
    let replayed0 = Counter::new(serve_names::WAL_REPLAYED).get();
    let svc = vrm_serve::Service::start(durable_cfg());
    let handle = vrm_serve::server::serve(
        svc.clone(),
        &vrm_serve::server::Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind recovered serve daemon");
    let endpoint = handle.local().clone();
    let hits0 = Counter::new(serve_names::CACHE_HIT).get();
    let states0 = Counter::new(serve_names::STATES_EXPLORED).get();
    let replayed = Counter::new(serve_names::WAL_REPLAYED).get() - replayed0;
    let started = Instant::now();
    let exit_code = serve_replay(&endpoint, &lines, CLIENTS);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let hits = Counter::new(serve_names::CACHE_HIT).get() - hits0;
    let states = Counter::new(serve_names::STATES_EXPLORED).get() - states0;
    out.records.push(
        BenchRecord::new("serve/replay")
            .param("clients", CLIENTS)
            .param("requests", lines.len())
            .metric("cache_hits", hits)
            .metric("wal_records_replayed", replayed)
            .metric("states", states)
            .metric("wall_ns", wall_ns)
            .metric(
                "requests_per_sec_x1000",
                lines.len() as u64 * 1_000_000_000_000 / wall_ns.max(1),
            )
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {} ({}/{} cache hits after restart)",
        "serve/replay",
        states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code),
        hits,
        lines.len(),
    );
    acc = worse(acc, exit_code);

    svc.shutdown();
    handle.stop();
    let _ = std::fs::remove_dir_all(&state_dir);
    acc
}

/// Per-program state budget for the fuzz suite: 2–3 thread shapes
/// complete exactly well inside it, while a pathological shape
/// degrades to UNKNOWN instead of stalling the whole run.
const FUZZ_MAX_STATES: usize = 1 << 17;

/// Writes a shrunk counterexample next to its seed so CI can upload it
/// as an artifact and a human can replay it with the `litmus` binary.
fn dump_counterexample(dump: Option<&Path>, file: &str, text: &str) {
    eprintln!("fuzz: shrunk witness:\n{text}");
    if let Some(dir) = dump {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(file), text.as_bytes()))
        {
            eprintln!("fuzz: writing {file}: {e}");
        }
    }
}

/// The standing differential fuzzer over generated critical cycles:
/// every program at seeds `[seed0, seed0+count)` runs the full litmus
/// pipeline (SC + promising + axiomatic, same [`run_litmus`] as the
/// CLI and the daemon), and any `Fail` — a model-strength lattice
/// violation or conformance break on a program nobody hand-wrote — is
/// shrunk to a 1-minimal shape and dumped as a reproducible `.litmus`
/// file named after its seed.
fn run_fuzz_cycles(
    count: usize,
    seed0: u64,
    dump: Option<&Path>,
    ov: &RunOverrides,
    out: &mut BenchFile,
) -> i32 {
    let cfg = GenConfig::default();
    let mut fails = 0u64;
    let mut unknowns = 0u64;
    let mut states = 0u64;
    let started = Instant::now();
    let mut acc = 0;
    for seed in seed0..seed0 + count as u64 {
        let shape = gen::sample_cycle(seed, &cfg);
        let parsed = gen::render(&shape, &cfg);
        let run = match run_litmus(&parsed, ov) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fuzz: seed {seed:#x}: {e}");
                acc = worse(acc, 2);
                continue;
            }
        };
        states += run.stats.states as u64;
        match run.verdict {
            Verdict::Pass => {}
            Verdict::Unknown { .. } => unknowns += 1,
            Verdict::Fail => {
                fails += 1;
                eprintln!(
                    "fuzz: model disagreement at seed {seed:#x} \
                     (sc:{} rm:{} ax:{:?} conform:{})",
                    run.sc_outcomes, run.rm_outcomes, run.ax_outcomes, run.conform
                );
                let still_failing = |p: &ParsedLitmus| {
                    run_litmus(p, ov).is_ok_and(|r| matches!(r.verdict, Verdict::Fail))
                };
                let min = gen::shrink(&shape, &cfg, still_failing);
                dump_counterexample(
                    dump,
                    &format!("fuzz-cc-s{seed:x}.litmus"),
                    &gen::render_text(&min, &cfg),
                );
            }
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let exit_code = if acc == 2 {
        2
    } else if fails > 0 {
        1
    } else if unknowns > 0 {
        3
    } else {
        0
    };
    out.records.push(
        BenchRecord::new("fuzz/cycles")
            .param("seed0", seed0 as usize)
            .param("max_states", FUZZ_MAX_STATES)
            .metric("programs", count as u64)
            .metric("disagreements", fails)
            .metric("unknown", unknowns)
            .metric("states", states)
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {} ({count} programs, {fails} disagreements)",
        "fuzz/cycles",
        states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code),
    );
    exit_code
}

/// Page-table-walk differential fuzz: generated break-before-make /
/// TLBI-placement / stale-walk scenarios, each judged three ways —
///
/// 1. the abstract ownership machine: `vrm-spec`'s `Walk` verb must
///    accept the walk while mapped and reject it after `Unmap` (the
///    spec-level reading of "no stale translation");
/// 2. the SC enumeration must never reach the stale outcome;
/// 3. the relaxed model must reach it **iff** the maintenance protocol
///    is too weak ([`gen::WalkKind::bbm_sound`] is false) — a sound
///    break-before-make sequence forbidding it, a missing barrier or
///    missing TLBI allowing it.
fn run_fuzz_walks(
    count: usize,
    seed0: u64,
    dump: Option<&Path>,
    jobs: Option<usize>,
    out: &mut BenchFile,
) -> i32 {
    let uni = refine::universe();
    let frame = VM_POOL_PFN.0 + 4;
    let mut violations = 0u64;
    let mut unknowns = 0u64;
    let mut states = 0u64;
    let started = Instant::now();
    let mut acc = 0;
    for seed in seed0..seed0 + count as u64 {
        let w = gen::sample_walk(seed);
        let mut sc_cfg = ScConfig {
            max_states: FUZZ_MAX_STATES,
            ..Default::default()
        };
        let mut pm_cfg = w.parsed.promising.clone();
        pm_cfg.max_states = FUZZ_MAX_STATES;
        if let Some(jobs) = jobs {
            sc_cfg.jobs = jobs;
            pm_cfg.jobs = jobs;
        }
        let (sc, rm_res) = match (
            enumerate_sc_with(&w.parsed.program, &sc_cfg),
            enumerate_promising_with(&w.parsed.program, &pm_cfg),
        ) {
            (Ok(sc), Ok(rm)) => (sc, rm),
            (sc, rm) => {
                let e = sc.err().or(rm.err()).unwrap();
                eprintln!("fuzz: walk seed {seed:#x}: {e}");
                acc = worse(acc, 2);
                continue;
            }
        };
        states += (sc.stats.states + rm_res.outcomes.stats.states) as u64;
        let truncated = sc.truncated() || rm_res.truncated;
        let bindings: Vec<(&str, u64)> = w.stale.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let sc_stale = sc.contains_binding(&bindings);
        let rm_stale = rm_res.outcomes.contains_binding(&bindings);

        // The abstract machine's verdict on the same scenario: map the
        // page, walk it (legal), unmap it, walk again (must be
        // rejected — the spec has no TLB to be stale in).
        let map = AbsStep::Map {
            who: AbsActor::Host,
            vpn: w.vpn,
            frame,
            perms: AbsPerms::RW,
            claim: Claim::Owned,
        };
        let walk = AbsStep::Walk {
            who: AbsActor::Host,
            vpn: w.vpn,
            frame,
            write: false,
        };
        let mapped = abs_step(&uni, &AbsState::boot(), &map).expect("host map of owned frame");
        let spec_ok = abs_step(&uni, &mapped, &walk).is_ok();
        let unmapped = abs_step(
            &uni,
            &mapped,
            &AbsStep::Unmap {
                who: AbsActor::Host,
                vpn: w.vpn,
            },
        )
        .expect("host unmap");
        let spec_rejects_stale = abs_step(&uni, &unmapped, &walk).is_err();

        let mut ok = spec_ok && spec_rejects_stale && !sc_stale;
        if truncated {
            unknowns += 1;
        } else {
            // Only a complete relaxed enumeration can certify the
            // allows/forbids direction: the stale walk must be
            // RM-reachable exactly when the protocol is unsound.
            ok = ok && rm_stale != w.kind.bbm_sound();
        }
        if !ok {
            violations += 1;
            eprintln!(
                "fuzz: walk disagreement at seed {seed:#x} ({}): \
                 spec_ok:{spec_ok} spec_rejects_stale:{spec_rejects_stale} \
                 sc_stale:{sc_stale} rm_stale:{rm_stale}",
                w.kind.as_str()
            );
            dump_counterexample(
                dump,
                &format!("fuzz-walk-s{seed:x}.litmus"),
                &w.parsed.to_string(),
            );
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let exit_code = if acc == 2 {
        2
    } else if violations > 0 {
        1
    } else if unknowns > 0 {
        3
    } else {
        0
    };
    out.records.push(
        BenchRecord::new("fuzz/walks")
            .param("seed0", seed0 as usize)
            .param("max_states", FUZZ_MAX_STATES)
            .metric("programs", count as u64)
            .metric("disagreements", violations)
            .metric("unknown", unknowns)
            .metric("states", states)
            .metric("wall_ns", wall_ns)
            .metric("exit_code", exit_code as u64),
    );
    println!(
        "{:<33} states:{:<7} {:>8.1}ms  {} ({count} programs, {violations} disagreements)",
        "fuzz/walks",
        states,
        wall_ns as f64 / 1e6,
        verdict_name(exit_code),
    );
    exit_code
}

/// Replays a slice of the generated corpus through an in-process
/// daemon twice: programs the daemon has never seen exercise the
/// digest/normalization path cold, and the second pass must be
/// answered entirely from the verdict cache.
fn run_fuzz_serve_replay(
    count: usize,
    seed0: u64,
    jobs: Option<usize>,
    out: &mut BenchFile,
) -> i32 {
    use vrm_obs::serve as serve_names;
    use vrm_obs::Counter;

    const CLIENTS: usize = 2;
    let cfg = GenConfig::default();
    let lines: Vec<String> = (seed0..seed0 + count as u64)
        .map(|seed| {
            let text = gen::render_text(&gen::sample_cycle(seed, &cfg), &cfg);
            let mut w = vrm_obs::json::ObjWriter::new();
            w.field_str("op", "submit")
                .field_str("kind", "litmus")
                .field_str("program", &text)
                .field_u64("max_states", FUZZ_MAX_STATES as u64);
            if let Some(n) = jobs {
                w.field_u64("jobs", n as u64);
            }
            w.finish()
        })
        .collect();
    let svc = vrm_serve::Service::start(vrm_serve::ServeConfig {
        workers: CLIENTS,
        ..Default::default()
    });
    let handle = vrm_serve::server::serve(
        svc.clone(),
        &vrm_serve::server::Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind serve daemon");
    let endpoint = handle.local().clone();
    let mut acc = 0;
    let mut warm_hits = 0;
    for pass in ["cold", "warm"] {
        let hits0 = Counter::new(serve_names::CACHE_HIT).get();
        let started = Instant::now();
        let exit_code = serve_replay(&endpoint, &lines, CLIENTS);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let hits = Counter::new(serve_names::CACHE_HIT).get() - hits0;
        if pass == "warm" {
            warm_hits = hits;
        }
        out.records.push(
            BenchRecord::new(format!("fuzz/serve-{pass}"))
                .param("clients", CLIENTS)
                .param("requests", lines.len())
                .metric("cache_hits", hits)
                .metric("wall_ns", wall_ns)
                .metric("exit_code", exit_code as u64),
        );
        println!(
            "{:<33} hits:{:<7} {:>8.1}ms  {}",
            format!("fuzz/serve-{pass}"),
            hits,
            wall_ns as f64 / 1e6,
            verdict_name(exit_code),
        );
        acc = worse(acc, exit_code);
    }
    // An unseen generated corpus must still dedup perfectly: a cold
    // miss per distinct program, then all hits.
    if warm_hits < lines.len() as u64 {
        eprintln!(
            "fuzz: warm serve replay had {warm_hits}/{} cache hits",
            lines.len()
        );
        acc = worse(acc, 1);
    }
    svc.shutdown();
    handle.stop();
    acc
}

/// `--suite fuzz`: cycles, walks, and the generated-corpus serve
/// replay. Walks run a quarter of the cycle count (their shape space
/// is smaller), the serve replay a fixed small slice.
fn run_fuzz_suite(
    count: usize,
    seed0: u64,
    dump: Option<&Path>,
    jobs: Option<usize>,
    out: &mut BenchFile,
) -> i32 {
    let ov = RunOverrides {
        jobs,
        max_states: Some(FUZZ_MAX_STATES),
    };
    let mut acc = run_fuzz_cycles(count, seed0, dump, &ov, out);
    acc = worse(
        acc,
        run_fuzz_walks((count / 4).max(1), seed0, dump, jobs, out),
    );
    acc = worse(acc, run_fuzz_serve_replay(count.min(24), seed0, jobs, out));
    acc
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs: Option<usize> = None;
    let mut suite = "all".to_string();
    let mut emit: Option<PathBuf> = None;
    let mut litmus_dir: Option<PathBuf> = None;
    let mut fuzz_count: usize = 64;
    let mut fuzz_seed: u64 = 1;
    let mut fuzz_dump: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fuzz-count" => {
                let Some(n) = args.get(i + 1).and_then(|n| n.parse().ok()) else {
                    eprintln!("--fuzz-count needs a program count\n{USAGE}");
                    return ExitCode::from(2);
                };
                fuzz_count = n;
                i += 2;
            }
            "--fuzz-seed" => {
                let Some(n) = args.get(i + 1).and_then(|n| n.parse().ok()) else {
                    eprintln!("--fuzz-seed needs a numeric seed\n{USAGE}");
                    return ExitCode::from(2);
                };
                fuzz_seed = n;
                i += 2;
            }
            "--fuzz-dump" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("--fuzz-dump needs a directory path\n{USAGE}");
                    return ExitCode::from(2);
                };
                fuzz_dump = Some(PathBuf::from(p));
                i += 2;
            }
            "--jobs" => {
                let Some(n) = args.get(i + 1).and_then(|n| n.parse().ok()) else {
                    eprintln!("--jobs needs a numeric worker count\n{USAGE}");
                    return ExitCode::from(2);
                };
                jobs = Some(n);
                i += 2;
            }
            "--suite" => {
                let Some(s) = args.get(i + 1) else {
                    eprintln!("--suite needs all|litmus|wdrf|schedules|spec\n{USAGE}");
                    return ExitCode::from(2);
                };
                if ![
                    "all",
                    "litmus",
                    "wdrf",
                    "schedules",
                    "reduction",
                    "spec",
                    "serve",
                    "fuzz",
                ]
                .contains(&s.as_str())
                {
                    eprintln!("unknown suite {s:?}\n{USAGE}");
                    return ExitCode::from(2);
                }
                suite = s.clone();
                i += 2;
            }
            "--emit-bench" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("--emit-bench needs an output path\n{USAGE}");
                    return ExitCode::from(2);
                };
                emit = Some(PathBuf::from(p));
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            dir => {
                litmus_dir = Some(PathBuf::from(dir));
                i += 1;
            }
        }
    }
    let litmus_dir = litmus_dir.unwrap_or_else(|| PathBuf::from("litmus"));
    let run_litmus = matches!(suite.as_str(), "all" | "litmus");
    let run_wdrf = matches!(suite.as_str(), "all" | "wdrf");
    let run_schedules = matches!(suite.as_str(), "all" | "schedules");
    let run_reduction = matches!(suite.as_str(), "all" | "reduction");
    let run_spec = matches!(suite.as_str(), "all" | "spec");
    let run_serve = matches!(suite.as_str(), "all" | "serve");
    // The fuzzer is a standing job with its own CI lane and budget
    // knobs, not part of the default trajectory — `all` excludes it so
    // perf records stay comparable across fuzz-count changes.
    let run_fuzz = suite == "fuzz";
    if (run_litmus || run_reduction) && !litmus_dir.is_dir() {
        eprintln!("litmus dir {} not found\n{USAGE}", litmus_dir.display());
        return ExitCode::from(2);
    }

    let mut out = BenchFile::new(if suite == "all" {
        "explore"
    } else {
        suite.as_str()
    });
    let mut acc = 0;
    if run_litmus {
        acc = worse(acc, run_litmus_suite(&litmus_dir, jobs, &mut out));
    }
    if run_wdrf {
        acc = worse(acc, run_wdrf_suite(jobs, &mut out));
    }
    if run_schedules {
        acc = worse(acc, run_schedules_suite(jobs, &mut out));
    }
    if run_reduction {
        acc = worse(acc, run_reduction_suite(&litmus_dir, &mut out));
    }
    if run_spec {
        acc = worse(acc, run_spec_suite(jobs, &mut out));
    }
    if run_serve {
        acc = worse(acc, run_serve_suite(&litmus_dir, jobs, &mut out));
    }
    if run_fuzz {
        acc = worse(
            acc,
            run_fuzz_suite(fuzz_count, fuzz_seed, fuzz_dump.as_deref(), jobs, &mut out),
        );
    }

    if let Some(path) = &emit {
        if let Err(e) = out.write_to(path) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} record(s) to {} ({})",
            out.records.len(),
            path.display(),
            out.schema
        );
    }
    eprintln!("overall: {}", verdict_name(acc));
    match acc {
        0 => ExitCode::SUCCESS,
        1 => ExitCode::FAILURE,
        _ => ExitCode::from(3),
    }
}
