//! The `serve` workload: a closed loop of two clients against the
//! `serve` daemon over TCP loopback.
//!
//! The daemon is the `serve` binary in its own process, with a
//! `--state-dir` (write-ahead log on) and 2 workers. Each client sends
//! its next request only after the reply to the previous one. Requests
//! come in blocks of sixty, shuffled by seed within the block:
//!
//! - 32 repeats of one of the client's recent requests: cache-hit reads;
//! - 25 fresh generated litmus programs and 2 light named wDRF jobs
//!   (`example1` and `example3` at a small budget with `escalate`, which
//!   takes the slow lane): misses that explore, insert into the cache and
//!   append to the WAL;
//! - 1 heavy named job, `unmap` schedules at a small budget with
//!   `escalate` (checkpoint park/resume) and `unmap` refinement in turn.
//!
//! The mix keeps every reported percentile inside one cluster of similar
//! requests instead of on the edge between two, where one sample more or
//! less would swing it: hits are 32/60 of requests, so the overall median
//! is a hit; the heavy walks are 1/60 of requests and 1/28 of misses, so
//! both p90s fall well inside the light misses. The heavy walks are kept rare
//! on purpose: they are CPU-bound for ~0.5 s, and on a host that loses
//! time to steal their wall time moves by 15% from run to run; the light
//! requests wait mostly on the transport and move by a few percent.
//! `ticket-lock` is left out here: at any budget its certification
//! search costs 0.2–0.5 s, a heavy job in disguise.
//!
//! A client stops at the first block boundary after `--seconds`, so
//! every run has the same mix. Every reply is judged against its
//! input's known answer; every repeat must come back `cached` with
//! `states_new` 0 and its original verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vrm_obs::json::{self, Json, ObjWriter};
use vrm_serve::server::Endpoint;
use vrm_serve::{Client, Reply};

use crate::inputs::{self, Rng};
use crate::known::{self, Expect};
use crate::stats::{cpu_timed, percentile, Op, OpClass, OpKind};
use crate::{spans, Args, RunOut, SETUP_REPS};

/// Concurrent client connections.
pub const CLIENTS: usize = 2;
/// Requests per block.
pub const BLOCK: usize = 60;
/// Blocks generated per client: about four times what a run sends.
const MAX_BLOCKS: usize = 12;
/// Repeats pick among the client's most recent fresh requests, so the
/// daemon's 256-entry LRU verdict cache still holds them however many
/// requests a faster daemon lets a run send.
pub const REPEAT_WINDOW: usize = 40;
/// A request with no reply after this long has timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A named job: kind, name, budget range (inclusive) and `escalate`; its
/// known answer is in [`known`]. Every request of a kind gets its own budget, so none is
/// answered from the cache; budgets are spread evenly over the range
/// ([`spread_budget`]) so every run pays the same mean cost.
pub type Named = (&'static str, &'static str, (u64, u64), bool);

/// The heavy jobs, one per block in turn. `unmap` has 117 states: a
/// schedule walk budgeted 32..=116 truncates, parks its checkpoint and
/// finishes after one or two doublings; the refinement walk is budgeted
/// to finish at once.
pub const HEAVY: &[Named] = &[
    ("schedules", "unmap", (32, 116), true),
    ("refinement", "unmap", (117, 100_000), true),
];

/// The light named jobs, one of each per block: `example1` and
/// `example3` finish within two doublings of 100 states.
pub const LIGHT: &[Named] = &[
    ("wdrf", "example1", (100, 500), true),
    ("wdrf", "example3", (100, 500), true),
];

/// The `n`-th budget of a kind: a stride coprime to the range walks it
/// evenly, from a seeded offset, without repeating for a whole range.
pub fn spread_budget((lo, hi): (u64, u64), offset: u64, n: u64) -> u64 {
    let span = hi - lo + 1;
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = (span as f64 * 0.618) as u64 | 1;
    while gcd(stride, span) != 1 {
        stride += 1;
    }
    lo + (offset + n * stride) % span
}

/// What a reply must show.
#[derive(Debug, Clone, PartialEq)]
pub enum Want {
    /// A fresh request: not cached, this verdict; `refine` also demands
    /// zero refinement violations.
    Fresh {
        /// Known answer.
        expect: Expect,
        /// A refinement job.
        refine: bool,
        /// A schedule or refinement job (machine layer).
        machine: bool,
    },
    /// A repeat of the request at this stream index: cached, no new
    /// states, the original verdict.
    Repeat(usize),
}

/// One request of a client's stream.
#[derive(Debug, Clone)]
pub struct Req {
    /// The request line.
    pub line: String,
    /// What the reply must show.
    pub want: Want,
}

fn submit_line(kind: &str, field: &str, value: &str, max_states: u64, escalate: bool) -> String {
    let mut w = ObjWriter::new();
    w.field_str("op", "submit")
        .field_str("kind", kind)
        .field_str(field, value)
        .field_u64("max_states", max_states)
        .field_u64("jobs", 1);
    if escalate {
        w.field_bool("escalate", true);
    }
    w.finish()
}

fn named_req(job: &Named, budget: u64) -> Req {
    let (kind, name, _, escalate) = *job;
    let (field, expect) = if kind == "wdrf" {
        (
            "name",
            known::wdrf(name).expect("a known answer for every wDRF job"),
        )
    } else {
        // Every machine check PASSes.
        ("workload", Expect::Pass)
    };
    Req {
        line: submit_line(kind, field, name, budget, escalate),
        want: Want::Fresh {
            expect,
            refine: kind == "refinement",
            machine: kind != "wdrf",
        },
    }
}

/// Every client's request stream for `seed`. Fresh requests are unique
/// across all clients, so none can be answered from the cache.
pub fn streams(seed: u64) -> Vec<Vec<Req>> {
    let mut seen = BTreeSet::new();
    let mut litmus_rng = Rng::new(seed, inputs::LITMUS_STREAM);
    let mut offset_rng = Rng::new(seed, 4);
    let kinds: Vec<&Named> = HEAVY.iter().chain(LIGHT).collect();
    let offsets: Vec<u64> = kinds
        .iter()
        .map(|(_, _, (lo, hi), _)| offset_rng.below(hi - lo + 1))
        .collect();
    let mut sent = vec![0u64; kinds.len()];
    let mut budget = |k: usize| {
        sent[k] += 1;
        spread_budget(kinds[k].2, offsets[k], sent[k] - 1)
    };
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed, 10 + c as u64);
            let mut light = rng.below(LIGHT.len() as u64) as usize;
            let mut heavy = rng.below(HEAVY.len() as u64) as usize;
            let mut stream: Vec<Req> = Vec::with_capacity(MAX_BLOCKS * BLOCK);
            let mut fresh_idx: Vec<usize> = Vec::new();
            for block in 0..MAX_BLOCKS {
                // 0 = repeat, 1 = fresh litmus, 2 = light named, 3 = heavy.
                let mut slots = [0u8; BLOCK];
                slots[32..57].fill(1);
                slots[57..59].fill(2);
                slots[59] = 3;
                if block > 0 {
                    rng.shuffle(&mut slots);
                } else {
                    slots.sort_unstable_by(|a, b| b.cmp(a));
                }
                for slot in slots {
                    let req = match slot {
                        0 => {
                            let recent =
                                &fresh_idx[fresh_idx.len().saturating_sub(REPEAT_WINDOW)..];
                            let j = recent[rng.below(recent.len() as u64) as usize];
                            Req {
                                line: stream[j].line.clone(),
                                want: Want::Repeat(j),
                            }
                        }
                        1 => {
                            let item = inputs::generated(&mut litmus_rng, 1, &mut seen)
                                .pop()
                                .expect("one generated program");
                            Req {
                                line: submit_line(
                                    "litmus",
                                    "program",
                                    &item.text,
                                    inputs::GEN_MAX_STATES as u64,
                                    false,
                                ),
                                want: Want::Fresh {
                                    expect: known::GENERATED,
                                    refine: false,
                                    machine: false,
                                },
                            }
                        }
                        2 => {
                            let k = HEAVY.len() + light;
                            light = (light + 1) % LIGHT.len();
                            named_req(kinds[k], budget(k))
                        }
                        _ => {
                            let k = heavy;
                            heavy = (heavy + 1) % HEAVY.len();
                            named_req(kinds[k], budget(k))
                        }
                    };
                    if slot != 0 {
                        fresh_idx.push(stream.len());
                    }
                    stream.push(req);
                }
            }
            stream
        })
        .collect()
}

/// Judges one reply; `verdicts` holds the client's earlier verdicts.
pub fn judge(want: &Want, reply: &Reply, verdicts: &[Option<String>]) -> OpClass {
    if reply.status != "done" {
        return OpClass::Error(format!("status {}: {}", reply.status, reply.detail));
    }
    let verdict = reply.verdict.as_deref().unwrap_or("");
    let wrong = match want {
        Want::Fresh { expect, refine, .. } => {
            if reply.cached {
                Some("a fresh request came back cached".to_string())
            } else if let Err(e) = expect.judge_wire(verdict) {
                Some(e)
            } else if *refine && !reply.detail.contains("violations:0") {
                Some(format!("refinement violations: {}", reply.detail))
            } else {
                None
            }
        }
        Want::Repeat(j) => {
            let original = verdicts.get(*j).cloned().flatten();
            if !reply.cached || reply.states_new != 0 {
                Some(format!(
                    "repeat not served from cache (cached {}, states_new {})",
                    reply.cached, reply.states_new
                ))
            } else if original.as_deref() != Some(verdict) {
                Some(format!("repeat verdict {verdict}, original {original:?}"))
            } else {
                None
            }
        }
    };
    match wrong {
        Some(e) => OpClass::Wrong(e),
        None => OpClass::Ok,
    }
}

/// A running daemon process.
pub struct Daemon {
    child: Mutex<Child>,
    /// Kept open so the daemon can write its exit line.
    _stdout: BufReader<ChildStdout>,
    pid: u32,
    /// Where it listens.
    pub endpoint: Endpoint,
}

impl Daemon {
    /// Starts `serve listen` on an ephemeral loopback port and waits for
    /// its `listening on` line.
    pub fn spawn(bin: &Path, state_dir: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "listen",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
        ])
        .arg(state_dir)
        .env_remove("VRM_JOBS")
        .env_remove("VRM_FAULT_SEED")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        match trace {
            Some(p) => cmd.env(vrm_obs::trace::TRACE_ENV, p),
            None => cmd.env_remove(vrm_obs::trace::TRACE_ENV),
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on tcp:")
            .map(str::to_string);
        let daemon = Daemon {
            child: Mutex::new(child),
            _stdout: stdout,
            pid,
            endpoint: Endpoint::Tcp(addr.clone().unwrap_or_default()),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(daemon),
            (r, _) => Err(format!(
                "daemon did not report a listening address ({r:?}, {line:?})"
            )),
        }
    }

    /// Kills the daemon: every in-flight request then fails.
    pub fn kill(&self) {
        let mut c = self.child.lock().expect("daemon child");
        let _ = c.kill();
    }

    /// The daemon's peak RSS, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&self.pid.to_string())
    }

    /// The daemon's `serve/*` counters, renamed with `.` for `/`.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let Ok(reply) =
            Client::connect(&self.endpoint).and_then(|mut c| c.request("{\"op\":\"status\"}"))
        else {
            return BTreeMap::new();
        };
        json::parse(&reply.raw)
            .and_then(|v| v.get("counters").and_then(Json::as_obj).cloned())
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.replace('/', "."), v.as_u64()?)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Asks the daemon to shut down and waits for it to exit (killing it
    /// after 10 s).
    pub fn shutdown(self) -> Result<(), String> {
        let _ =
            Client::connect(&self.endpoint).and_then(|mut c| c.request("{\"op\":\"shutdown\"}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut c = self.child.lock().expect("daemon child");
            match c.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {}
                _ => {
                    let _ = c.kill();
                    let _ = c.wait();
                    return Err("daemon did not shut down within 10 s".into());
                }
            }
            drop(c);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let c = self.child.get_mut().unwrap_or_else(|p| p.into_inner());
        if let Ok(None) = c.try_wait() {
            let _ = c.kill();
        }
        let _ = c.wait();
    }
}

/// One request's outcome, kept for the per-layer figures.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The request line.
    pub line: String,
    /// The reply, when one arrived.
    pub reply: Option<Reply>,
    /// A named schedule or refinement job.
    pub machine: bool,
}

/// Sends `stream` over `client` until the first block boundary after
/// `limit`, judging each reply. `inflight` holds the issue time (ns
/// since `start`, +1) of the request on the wire, 0 when idle; the
/// watchdog sets `timed_out` before it aborts the request.
pub fn client_loop(
    mut client: Client,
    stream: &[Req],
    start: Instant,
    limit: Duration,
    inflight: &AtomicU64,
    timed_out: &AtomicBool,
) -> (Vec<Op>, Vec<Sent>) {
    let mut ops = Vec::new();
    let mut sent = Vec::new();
    let mut verdicts: Vec<Option<String>> = vec![None; stream.len()];
    for (i, req) in stream.iter().enumerate() {
        if i % BLOCK == 0 && i > 0 && start.elapsed() >= limit {
            break;
        }
        let _s = spans::span("serve.request");
        inflight.store(start.elapsed().as_nanos() as u64 + 1, Ordering::SeqCst);
        let t = Instant::now();
        let result = client.request(&req.line);
        let latency = t.elapsed();
        inflight.store(0, Ordering::SeqCst);
        let kind = match req.want {
            Want::Repeat(_) => OpKind::Hit,
            Want::Fresh { .. } => OpKind::Miss,
        };
        let machine = matches!(req.want, Want::Fresh { machine: true, .. });
        match result {
            Ok(reply) => {
                let class = judge(&req.want, &reply, &verdicts);
                verdicts[i] = reply.verdict.clone();
                ops.push(Op {
                    kind,
                    latency,
                    class,
                    decided: matches!(reply.verdict.as_deref(), Some("pass" | "fail")),
                    exec: Some(Duration::from_nanos(if reply.cached {
                        0
                    } else {
                        reply.wall_ns
                    })),
                });
                sent.push(Sent {
                    line: req.line.clone(),
                    reply: Some(reply),
                    machine,
                });
            }
            Err(e) => {
                ops.push(Op {
                    kind,
                    latency,
                    class: io_failure(&e, timed_out.load(Ordering::SeqCst)),
                    decided: false,
                    exec: None,
                });
                sent.push(Sent {
                    line: req.line.clone(),
                    reply: None,
                    machine,
                });
                // The connection is gone; the rest of the stream would
                // only repeat this failure.
                break;
            }
        }
    }
    (ops, sent)
}

/// Classifies a failed request.
pub fn io_failure(e: &std::io::Error, timed_out: bool) -> OpClass {
    if timed_out {
        OpClass::TimedOut
    } else if e.kind() == std::io::ErrorKind::ConnectionRefused {
        OpClass::Refused
    } else {
        OpClass::Error(e.to_string())
    }
}

/// Runs the clients against `endpoint` with a watchdog: a request past
/// `timeout` marks its client timed out and calls `abort`, which must
/// make the blocked read return (killing the daemon does).
pub fn closed_loop(
    clients: Vec<Client>,
    streams: &[Vec<Req>],
    limit: Duration,
    timeout: Duration,
    abort: &(dyn Fn() + Sync),
) -> (Vec<Op>, Vec<Sent>, f64) {
    let n = clients.len();
    let inflight: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let timed_out: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<Op>, Vec<Sent>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let (inflight, timed_out, done) = (&inflight[c], &timed_out[c], &done);
                let stream = &streams[c];
                std::thread::Builder::new()
                    .name(format!("perfbench-client-{c}"))
                    .spawn_scoped(s, move || {
                        let r = client_loop(client, stream, start, limit, inflight, timed_out);
                        done.fetch_add(1, Ordering::SeqCst);
                        r
                    })
                    .expect("spawn client thread")
            })
            .collect();
        while done.load(Ordering::SeqCst) < n {
            std::thread::sleep(Duration::from_millis(10));
            let now = start.elapsed().as_nanos() as u64;
            for c in 0..n {
                let t = inflight[c].load(Ordering::SeqCst);
                if t != 0
                    && now.saturating_sub(t - 1) > timeout.as_nanos() as u64
                    && !timed_out[c].swap(true, Ordering::SeqCst)
                {
                    abort();
                }
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed_s = start.elapsed().as_secs_f64();
    let mut ops = Vec::new();
    let mut sent = Vec::new();
    for (o, s) in results {
        ops.extend(o);
        sent.extend(s);
    }
    (ops, sent, timed_s)
}

/// A daemon with connected clients, ready for the timed loop.
struct Ready {
    daemon: Daemon,
    clients: Vec<Client>,
    streams: Vec<Vec<Req>>,
    state_dir: PathBuf,
}

/// Generates the streams, starts a daemon and connects the clients. The
/// set-up time returned is the generation's CPU time (`cpu_timed`, as for
/// every in-process step) plus the wall time from spawn to connected
/// clients, which the daemon spends in its own process.
fn setup(args: &Args, rep: usize, trace: Option<&Path>) -> Result<(Ready, f64), String> {
    let (streams, generate) = cpu_timed(|| streams(args.seed));
    let state_dir = args
        .work_dir
        .join(format!("serve-state-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let started = Instant::now();
    let daemon = Daemon::spawn(&args.serve_bin, &state_dir, trace)?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&daemon.endpoint))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect {}: {e}", daemon.endpoint))?;
    let took = generate.as_secs_f64() + started.elapsed().as_secs_f64();
    let ready = Ready {
        daemon,
        clients,
        streams,
        state_dir,
    };
    Ok((ready, took))
}

/// The timed run.
pub fn run(args: &Args) -> Result<RunOut, String> {
    let trace_file = args.trace.then(|| {
        args.work_dir
            .join(format!("daemon-{}.trace", std::process::id()))
    });
    if let Some(t) = &trace_file {
        let _ = std::fs::remove_file(t);
    }
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (r, took) = setup(args, rep, if last { trace_file.as_deref() } else { None })?;
        setup_times.push(took);
        if last {
            ready = Some(r);
        } else {
            r.daemon.shutdown()?;
            let _ = std::fs::remove_dir_all(&r.state_dir);
        }
    }
    let Ready {
        daemon,
        clients,
        streams,
        state_dir,
    } = ready.expect("at least one set-up");
    let (ops, sent, timed_s) = closed_loop(
        clients,
        &streams,
        Duration::from_secs_f64(args.seconds),
        REQUEST_TIMEOUT,
        &|| daemon.kill(),
    );
    let mut out = RunOut {
        setup_s: crate::stats::median(&setup_times).unwrap_or(0.0),
        timed_s,
        peak_rss_mb: daemon.peak_rss_mb(),
        ..RunOut::default()
    };
    out.ledger.ops = ops;
    let counters = daemon.counters();
    daemon.shutdown()?;
    if args.trace {
        crate::layers::serve_layers(
            &mut out,
            args.seed,
            &sent,
            &counters,
            &state_dir,
            trace_file.as_deref(),
        );
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    if let Some(t) = &trace_file {
        let _ = std::fs::remove_file(t);
    }
    Ok(out)
}

/// Latency minus execution time per completed request, ms.
pub fn overheads_ms(ops: &[Op]) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.ok())
        .filter_map(|o| Some((o.latency.saturating_sub(o.exec?)).as_secs_f64() * 1e3))
        .collect()
}

/// `p`-th percentile or 0.
pub fn pct_or_zero(v: &[f64], p: f64) -> f64 {
    percentile(v, p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::Arc;

    #[test]
    fn streams_are_seeded_blocks_of_fixed_mix_with_unique_fresh_requests() {
        let a = streams(11);
        let b = streams(11);
        assert_eq!(a.len(), CLIENTS);
        assert_eq!(
            a.iter().flatten().map(|r| &r.line).collect::<Vec<_>>(),
            b.iter().flatten().map(|r| &r.line).collect::<Vec<_>>()
        );
        let mut fresh = BTreeSet::new();
        for s in &a {
            for (bi, block) in s.chunks(BLOCK).enumerate() {
                let repeats = block
                    .iter()
                    .filter(|r| matches!(r.want, Want::Repeat(_)))
                    .count();
                assert_eq!(repeats, 32, "block {bi}");
            }
            for (i, r) in s.iter().enumerate() {
                match r.want {
                    Want::Repeat(j) => {
                        assert!(j < i && s[j].line == r.line);
                        let newer_fresh = s[j + 1..i]
                            .iter()
                            .filter(|x| matches!(x.want, Want::Fresh { .. }))
                            .count();
                        assert!(newer_fresh < REPEAT_WINDOW);
                    }
                    Want::Fresh { .. } => assert!(fresh.insert(r.line.clone()), "duplicate fresh"),
                }
            }
        }
    }

    #[test]
    fn budgets_walk_their_range_without_repeating() {
        for (range, offset) in [((32, 116), 7), ((16, 200), 150), ((100, 500), 0)] {
            let span = (range.1 - range.0 + 1) as usize;
            let b: BTreeSet<u64> = (0..span as u64)
                .map(|n| spread_budget(range, offset, n))
                .collect();
            assert_eq!(b.len(), span);
            assert!(b.iter().all(|x| (range.0..=range.1).contains(x)));
        }
    }

    fn fake_reply(verdict: &str, cached: bool) -> Reply {
        vrm_serve::protocol::parse_reply(&format!(
            "{{\"status\":\"done\",\"verdict\":\"{verdict}\",\"cached\":{cached},\"states_new\":{},\"detail\":\"outcomes:1 violations:0\"}}",
            if cached { 0 } else { 5 }
        ))
        .expect("reply parses")
    }

    #[test]
    fn a_wrong_verdict_is_a_failed_operation() {
        let fresh = Want::Fresh {
            expect: Expect::NotFail,
            refine: false,
            machine: false,
        };
        assert_eq!(judge(&fresh, &fake_reply("pass", false), &[]), OpClass::Ok);
        assert!(matches!(
            judge(&fresh, &fake_reply("fail", false), &[]),
            OpClass::Wrong(_)
        ));
        assert!(matches!(
            judge(&fresh, &fake_reply("pass", true), &[]),
            OpClass::Wrong(_)
        ));
        let prior = vec![Some("pass".to_string())];
        assert_eq!(
            judge(&Want::Repeat(0), &fake_reply("pass", true), &prior),
            OpClass::Ok
        );
        assert!(matches!(
            judge(&Want::Repeat(0), &fake_reply("unknown", true), &prior),
            OpClass::Wrong(_)
        ));
        assert!(matches!(
            judge(&Want::Repeat(0), &fake_reply("pass", false), &prior),
            OpClass::Wrong(_)
        ));
    }

    fn one_request(endpoint: &Endpoint, timeout: Duration, abort: &(dyn Fn() + Sync)) -> Op {
        let stream = vec![Req {
            line: "{\"op\":\"status\"}".into(),
            want: Want::Fresh {
                expect: Expect::Pass,
                refine: false,
                machine: false,
            },
        }];
        let client = match Client::connect(endpoint) {
            Ok(c) => c,
            Err(e) => {
                return Op {
                    kind: OpKind::Miss,
                    latency: Duration::ZERO,
                    class: io_failure(&e, false),
                    decided: false,
                    exec: None,
                }
            }
        };
        let (mut ops, _, _) = closed_loop(
            vec![client],
            std::slice::from_ref(&stream),
            Duration::from_secs(5),
            timeout,
            abort,
        );
        ops.pop().expect("one op")
    }

    #[test]
    fn a_refused_connection_is_a_failed_operation() {
        let port = TcpListener::bind("127.0.0.1:0")
            .expect("bind")
            .local_addr()
            .expect("addr")
            .port();
        let op = one_request(
            &Endpoint::Tcp(format!("127.0.0.1:{port}")),
            REQUEST_TIMEOUT,
            &|| {},
        );
        assert_eq!(op.class, OpClass::Refused);
        assert!(op.latency_ms().is_infinite());
    }

    #[test]
    fn a_timeout_is_a_failed_operation() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        let held: Arc<Mutex<Option<std::net::TcpStream>>> = Arc::new(Mutex::new(None));
        let server = {
            let held = Arc::clone(&held);
            std::thread::spawn(move || {
                let (s, _) = listener.accept().expect("accept");
                *held.lock().expect("held") = Some(s);
            })
        };
        let abort = || {
            // The stand-in for killing the daemon: drop the server side.
            if let Some(s) = held.lock().expect("held").take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        };
        let op = one_request(&endpoint, Duration::from_millis(200), &abort);
        server.join().expect("server thread");
        assert_eq!(op.class, OpClass::TimedOut);
        assert!(op.latency >= Duration::from_millis(200));
        assert!(op.latency_ms().is_infinite());
    }

    #[test]
    fn a_wrong_verdict_over_the_wire_is_a_failed_operation() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(s.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read request");
            s.write_all(b"{\"status\":\"done\",\"verdict\":\"fail\",\"cached\":false}\n")
                .expect("write reply");
        });
        let op = one_request(&endpoint, REQUEST_TIMEOUT, &|| {});
        server.join().expect("server thread");
        assert!(matches!(op.class, OpClass::Wrong(_)), "{:?}", op.class);
        assert!(op.latency_ms().is_infinite());
    }
}
