//! Percentiles and failure accounting.
//!
//! A timing is reported as its median and a high percentile. The
//! percentile rule is the one every figure in `perfbench/README.md`
//! follows: the highest percentile with at least ten samples beyond
//! it, reported together with the sample count ([`tail_percentile`]).
//!
//! Every operation lands in a [`Ledger`] as an [`Op`]. An operation
//! that failed — refused, timed out, errored, or answered with a
//! verdict that disagrees with the known answer — counts as attempted
//! and failed, and enters every latency distribution as `+inf`, so it
//! misses any latency limit.

use std::time::Duration;

/// How one operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum OpClass {
    /// Completed with the known answer.
    Ok,
    /// The connection was refused.
    Refused,
    /// No reply arrived before the request deadline.
    TimedOut,
    /// The operation errored (I/O, protocol or checker error).
    Error(String),
    /// A verdict or count that disagrees with the known answer.
    Wrong(String),
}

/// One timed operation: a check in-process or a request to the daemon.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which distribution besides the overall one it belongs to.
    pub kind: OpKind,
    /// Time from issue to answer: process CPU time for an in-process
    /// check ([`cpu_timed`]), wall time for a request to the daemon.
    pub latency: Duration,
    /// How it ended.
    pub class: OpClass,
    /// Whether the verdict was definite (PASS/FAIL) rather than UNKNOWN.
    pub decided: bool,
    /// Execution time the program reported (the daemon's `wall_ns`), if any.
    pub exec: Option<Duration>,
}

/// Hit or miss: whether the input was already checked earlier in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A repeat of an input the run already checked.
    Hit,
    /// The first check of an input in this run.
    Miss,
}

impl Op {
    /// `true` unless the operation failed.
    pub fn ok(&self) -> bool {
        self.class == OpClass::Ok
    }

    /// Latency in milliseconds, `+inf` for a failed operation.
    pub fn latency_ms(&self) -> f64 {
        if self.ok() {
            self.latency.as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// Every operation of one timed run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// In completion order.
    pub ops: Vec<Op>,
}

impl Ledger {
    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok()).count()
    }

    /// Latencies in ms of the operations `keep` selects, failures as `+inf`.
    pub fn latencies_ms(&self, keep: impl Fn(&Op) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| keep(o))
            .map(Op::latency_ms)
            .collect()
    }

    /// Share of operations that completed with a definite verdict.
    pub fn decided_pct(&self) -> f64 {
        pct(
            self.ops.iter().filter(|o| o.ok() && o.decided).count(),
            self.ops.iter().filter(|o| o.ok()).count(),
        )
    }

    /// Share of operations that completed with the known answer.
    pub fn correct_pct(&self) -> f64 {
        pct(self.attempted() - self.failed(), self.attempted())
    }
}

/// The clock of CPU time summed over every thread of this process.
pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time read from the Linux CPU-time clock `clock_id`, which leaves
/// out time spent waiting and time the vCPU was stolen by the host.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_clock(clock_id: i32) -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit fields, laid
    // out as `Timespec`; `ts` is valid and writable for the whole call,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u32::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| Duration::new(secs, nanos))
}

/// Elsewhere CPU time is not read; callers fall back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_clock(_clock_id: i32) -> Option<Duration> {
    None
}

/// Runs `f` and returns its value and the CPU time the whole process
/// spent meanwhile, summed over all its threads, or its wall time where
/// the scheduler's account is missing.
///
/// In-process checks are timed this way, so work a checker hands to
/// worker threads is counted like work on the calling thread. On a
/// shared host whose vCPUs lose time to steal in bursts (~15% of all
/// time on the 2-vCPU VM the benchmark was sized on), wall time moved
/// the same work by 15–25% between identical runs, while its CPU time
/// moved by a few percent. Nothing else of the benchmark runs while an
/// in-process check is timed.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let process_cpu = || cpu_clock(CLOCK_PROCESS_CPUTIME_ID);
    let wall = std::time::Instant::now();
    let cpu = process_cpu();
    let v = f();
    let took = match (cpu, process_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => wall.elapsed(),
    };
    (v, took)
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`;
/// `None` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The median by nearest rank.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest whole percentile from 50 to 99 that leaves at least ten
/// samples beyond it (by nearest rank) out of `n`; `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        n.saturating_sub(rank) >= 10
    })
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub((p as usize * n).div_ceil(100))
}

/// A timing summary line for the human-readable part of the report:
/// median, the fixed p90, and the percentile the ten-beyond rule allows.
pub fn describe(name: &str, samples: &[f64]) -> String {
    let n = samples.len();
    let tail = match tail_percentile(n) {
        Some(p) => format!(
            "p{p}={:.3}",
            percentile(samples, f64::from(p)).unwrap_or(f64::NAN)
        ),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "{name}: n={n} p50={:.3} p90={:.3} ({} beyond p90) rule tail {tail}",
        median(samples).unwrap_or(f64::NAN),
        percentile(samples, 90.0).unwrap_or(f64::NAN),
        beyond(n, 90),
    )
}

/// A value fit for the final JSON line: non-finite values (a percentile
/// that landed on a failed operation) become 1e9, an unmissable sentinel.
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock of the calling thread's CPU time.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    fn op(ms: u64, class: OpClass) -> Op {
        Op {
            kind: OpKind::Miss,
            latency: Duration::from_millis(ms),
            class,
            decided: true,
            exec: None,
        }
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(beyond(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        let d = describe("x", &v);
        assert!(d.contains("n=100") && d.contains("10 beyond p90") && d.contains("rule tail p90"));
    }

    #[test]
    fn cpu_time_counts_work_on_other_threads() {
        // Other tests may run meanwhile and only add to the process's CPU
        // time, so only lower bounds are checked.
        if cpu_clock(CLOCK_THREAD_CPUTIME_ID).is_none() {
            return;
        }
        let spin = Duration::from_millis(40);
        let ((), took) = cpu_timed(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let own = || cpu_clock(CLOCK_THREAD_CPUTIME_ID).expect("thread CPU clock");
                    let start = own();
                    while own() - start < spin {
                        std::hint::black_box((0..1000u64).fold(0u64, |a, i| a ^ i));
                    }
                });
            });
        });
        assert!(took >= spin, "{took:?}");
    }

    #[test]
    fn every_failure_counts_and_misses_the_latency_limit() {
        let mut l = Ledger::default();
        l.ops.push(op(5, OpClass::Ok));
        l.ops.push(op(1, OpClass::Refused));
        l.ops.push(op(2, OpClass::TimedOut));
        l.ops.push(op(3, OpClass::Wrong("pass != fail".into())));
        l.ops.push(op(4, OpClass::Error("eof".into())));
        assert_eq!((l.attempted(), l.failed()), (5, 4));
        assert_eq!(l.correct_pct(), 20.0);
        let lat = l.latencies_ms(|_| true);
        assert_eq!(lat.iter().filter(|x| x.is_infinite()).count(), 4);
        assert_eq!(median(&lat), Some(f64::INFINITY));
        assert_eq!(finite(f64::INFINITY), 1e9);
    }
}
