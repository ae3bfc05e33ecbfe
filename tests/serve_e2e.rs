//! End-to-end contract for the `vrm-serve` daemon, over a real TCP
//! socket with concurrent clients:
//!
//! * a cold pass of the full litmus corpus through 4 parallel clients
//!   returns exactly the verdicts the in-process `run_litmus` pipeline
//!   produces (at both 1 and 2 engine workers — verdicts are
//!   driver-independent, which is why `jobs` is not part of the cache
//!   key);
//! * an immediately repeated pass is answered entirely from the
//!   verdict cache: every reply is `cached:true` and the daemon
//!   explores **zero** new states (pinned via the process-global
//!   `serve/*` counters);
//! * an `Unknown` schedule walk re-queried with a doubled budget
//!   resumes from its parked checkpoint instead of starting over.
//!
//! vrm-obs counters are process-global, so everything lives in one
//! test function — parallel test binaries would tangle the deltas.

use std::sync::{Arc, Mutex};

use vrm::memmodel::parser::parse;
use vrm::memmodel::runner::{run_litmus, RunOverrides};
use vrm::obs::json::ObjWriter;
use vrm::obs::{serve as counters, Counter};
use vrm::serve::server::{serve, Endpoint};
use vrm::serve::{Client, ServeConfig, Service};

const CLIENTS: usize = 4;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("litmus/ directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    files.sort();
    assert!(files.len() >= 23, "expected a corpus, found {files:?}");
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).unwrap();
            (name, text)
        })
        .collect()
}

fn litmus_line(text: &str, jobs: u64) -> String {
    let mut w = ObjWriter::new();
    w.field_str("op", "submit")
        .field_str("kind", "litmus")
        .field_str("program", text)
        .field_u64("jobs", jobs);
    w.finish()
}

fn schedules_line(workload: &str, max_states: u64) -> String {
    let mut w = ObjWriter::new();
    w.field_str("op", "submit")
        .field_str("kind", "schedules")
        .field_str("workload", workload)
        .field_u64("max_states", max_states)
        .field_u64("jobs", 1);
    w.finish()
}

/// Replays `lines` through `CLIENTS` concurrent TCP clients
/// (round-robin split) and returns `(index, reply)` pairs in corpus
/// order.
fn replay(endpoint: &Endpoint, lines: &[String], jobs: u64) -> Vec<(usize, vrm::serve::Reply)> {
    let out = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let out = Arc::clone(&out);
            let endpoint = endpoint.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).expect("connect");
                for (i, line) in lines.iter().enumerate().skip(c).step_by(CLIENTS) {
                    let line = litmus_line(line, jobs);
                    let reply = client.request(&line).expect("request");
                    out.lock().unwrap().push((i, reply));
                }
            });
        }
    });
    let mut replies = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
    replies.sort_by_key(|(i, _)| *i);
    replies
}

#[test]
fn daemon_matches_cli_caches_repeats_and_resumes_unknowns() {
    if std::env::var_os("VRM_FAULT_SEED").is_some() {
        // Injected frame cuts would tear replies mid-line and void the
        // exact cache/counter pins below; the chaos CI job is what
        // drives a fault-armed daemon.
        return;
    }
    let corpus = corpus();

    // In-process baseline at both worker counts: the bit-match target.
    let mut direct = Vec::new();
    for (name, text) in &corpus {
        let parsed = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let seq = run_litmus(
            &parsed,
            &RunOverrides {
                jobs: Some(1),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let par = run_litmus(
            &parsed,
            &RunOverrides {
                jobs: Some(2),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            seq.exit_code(),
            par.exit_code(),
            "{name}: verdict is not driver-independent"
        );
        direct.push(seq.exit_code());
    }

    let svc = Service::start(ServeConfig {
        workers: CLIENTS,
        ..Default::default()
    });
    let handle =
        serve(Arc::clone(&svc), &Endpoint::Tcp("127.0.0.1:0".into())).expect("bind 127.0.0.1:0");
    let endpoint = handle.local().clone();

    let texts: Vec<String> = corpus.iter().map(|(_, t)| t.clone()).collect();
    let hit = Counter::new(counters::CACHE_HIT);
    let miss = Counter::new(counters::CACHE_MISS);
    let explored = Counter::new(counters::STATES_EXPLORED);

    // Cold pass, sequential engine (jobs=1), 4 concurrent clients.
    let (hit0, miss0, explored0) = (hit.get(), miss.get(), explored.get());
    for (i, reply) in replay(&endpoint, &texts, 1) {
        let (name, _) = &corpus[i];
        assert_eq!(reply.status, "done", "{name}: {}", reply.raw);
        assert_eq!(
            reply.exit_code,
            Some(direct[i]),
            "{name}: daemon verdict diverged from run_litmus\n{}",
            reply.raw
        );
        assert!(!reply.cached, "{name}: cold pass must not be cached");
    }
    assert_eq!(miss.get() - miss0, corpus.len() as u64, "cold pass misses");
    assert_eq!(hit.get() - hit0, 0, "cold pass must not hit the cache");
    assert!(explored.get() > explored0, "cold pass explored nothing");

    // Warm pass at jobs=2: `jobs` is outside the cache key, so every
    // query is a hit and the daemon explores zero new states.
    let (hit1, explored1) = (hit.get(), explored.get());
    for (i, reply) in replay(&endpoint, &texts, 2) {
        let (name, _) = &corpus[i];
        assert_eq!(
            reply.exit_code,
            Some(direct[i]),
            "{name}: cached verdict diverged\n{}",
            reply.raw
        );
        assert!(reply.cached, "{name}: warm pass must be served from cache");
        assert_eq!(reply.states_new, 0, "{name}: cached reply explored states");
    }
    assert_eq!(hit.get() - hit1, corpus.len() as u64, "warm pass hits");
    assert_eq!(
        explored.get() - explored1,
        0,
        "warm pass must explore zero new states"
    );

    // Unknown + checkpoint resume: the unmap schedule walk needs 117
    // states; a 40-state budget parks a checkpoint, and the doubled
    // budget continues it (fresh states < total) instead of restarting.
    let resume = Counter::new(counters::CHECKPOINT_RESUME);
    let resume0 = resume.get();
    let mut client = Client::connect(&endpoint).expect("connect");
    let small = client
        .request(&schedules_line("unmap", 40))
        .expect("request");
    assert_eq!(small.exit_code, Some(3), "under-budget walk: {}", small.raw);
    assert_eq!(small.verdict.as_deref(), Some("unknown"));
    assert!(!small.resumed);

    let doubled = client
        .request(&schedules_line("unmap", 80))
        .expect("request");
    assert_eq!(
        doubled.exit_code,
        Some(0),
        "doubled budget: {}",
        doubled.raw
    );
    assert!(
        doubled.resumed,
        "doubled-budget re-query must resume the parked checkpoint: {}",
        doubled.raw
    );
    assert!(
        doubled.states_new < doubled.states,
        "resume re-explored everything: new {} of {}",
        doubled.states_new,
        doubled.states
    );
    assert_eq!(
        small.states + doubled.states_new,
        doubled.states,
        "resumed walk must continue exactly where the budget cut it"
    );
    assert_eq!(
        doubled.states, 117,
        "the resumed legs together walk unmap's 117 states once"
    );
    assert_eq!(resume.get() - resume0, 1, "exactly one checkpoint resume");

    svc.shutdown();
    handle.stop();
}
