//! The benchmark's own span store, and self time.
//!
//! Spans are kept in memory with parent links and written out once, at
//! the end of a traced run. The benchmark opens a span around each
//! public call it makes into a layer ([`span`]); the program's own
//! `span` trace lines, captured through `vrm_obs`'s in-memory sink or
//! read back from a daemon's `VRM_TRACE` file, join the same store
//! through [`SpanStore::absorb_trace_line`].
//!
//! Both kinds share one clock, `vrm_obs::now_ns`, kept at microsecond
//! resolution (the program's trace lines carry `t_us`/`dur_us`). Spans
//! on one thread nest by interval, so [`SpanStore::self_times`] can
//! charge each span its duration minus the time its direct children
//! cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use vrm_obs::json::Json;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique within the store.
    pub id: u64,
    /// The span that was open on the same thread when this one began
    /// (recorded for the benchmark's spans; inferred for the program's).
    pub parent: Option<u64>,
    /// Span name, `<layer>.<call>` for the benchmark's own spans.
    pub name: String,
    /// Thread label, as `vrm_obs` writes it.
    pub thread: String,
    /// Start, µs on the `vrm_obs` trace clock.
    pub start_us: u64,
    /// End, µs on the same clock.
    pub end_us: u64,
}

/// Per-name totals from [`SpanStore::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Summed self time (duration minus direct children), µs.
    pub self_us: u64,
}

/// An in-memory store of finished spans.
#[derive(Debug, Default)]
pub struct SpanStore {
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static STORE: SpanStore = SpanStore {
    on: AtomicBool::new(false),
    next_id: AtomicU64::new(1),
    spans: Mutex::new(Vec::new()),
};

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide store the benchmark's [`span`]s record into.
pub fn store() -> &'static SpanStore {
    &STORE
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    STORE.on.store(true, Ordering::SeqCst);
}

fn thread_label() -> String {
    let t = std::thread::current();
    t.name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("{:?}", t.id()))
}

/// An open benchmark span; recorded when dropped.
pub struct Span {
    live: Option<(u64, Option<u64>, &'static str, u64)>,
}

/// Opens a span named `name` around a call into a layer. Inert (no
/// clock read) unless [`enable`] was called.
pub fn span(name: &'static str) -> Span {
    if !STORE.on.load(Ordering::Relaxed) {
        return Span { live: None };
    }
    let id = STORE.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied();
        s.push(id);
        p
    });
    Span {
        live: Some((id, parent, name, vrm_obs::now_ns())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.live.take() else {
            return;
        };
        let end_ns = vrm_obs::now_ns();
        OPEN.with(|s| {
            s.borrow_mut().retain(|&x| x != id);
        });
        STORE.push(SpanRec {
            id,
            parent,
            name: name.to_string(),
            thread: thread_label(),
            start_us: start_ns / 1_000,
            end_us: end_ns / 1_000,
        });
    }
}

impl SpanStore {
    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span store").push(rec);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store").clone()
    }

    /// Adds one of the program's parsed trace lines if it is a `span`
    /// line; returns whether it was. `thread_prefix` keeps the threads of
    /// another process (whose trace clock differs) apart from ours.
    pub fn absorb_trace_line(&self, v: &Json, thread_prefix: &str) -> bool {
        if v.get("type").and_then(Json::as_str) != Some("span") {
            return false;
        }
        let (Some(name), Some(t), Some(d)) = (
            v.get("name").and_then(Json::as_str),
            v.get("t_us").and_then(Json::as_u64),
            v.get("dur_us").and_then(Json::as_u64),
        ) else {
            return false;
        };
        let thread = v.get("thread").and_then(Json::as_str).unwrap_or("?");
        self.push(SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name: name.to_string(),
            thread: format!("{thread_prefix}{thread}"),
            start_us: t,
            end_us: t + d,
        });
        true
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let mut w = vrm_obs::json::ObjWriter::new();
            w.field_u64("id", s.id)
                .field_u64("parent", s.parent.unwrap_or(0))
                .field_str("name", &s.name)
                .field_str("thread", &s.thread)
                .field_u64("start_us", s.start_us)
                .field_u64("end_us", s.end_us);
            text.push_str(&w.finish());
            text.push('\n');
        }
        std::fs::write(path, text)
    }

    /// Per-name count, total and self time. Spans nest by interval on
    /// their own thread; a span's self time is its duration minus the
    /// time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, SpanTotals> {
        self_times(&self.spans())
    }
}

/// [`SpanStore::self_times`] over an explicit span list.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, SpanTotals> {
    let mut by_thread: BTreeMap<&str, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(&s.thread).or_default().push(s);
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for list in by_thread.values_mut() {
        // Parents sort before the children they contain: earlier start
        // first, and on a tie the longer span first.
        list.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.end_us), s.id));
        let mut child_us = vec![0u64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..list.len() {
            while let Some(&top) = stack.last() {
                if list[i].start_us >= list[top].start_us && list[i].end_us <= list[top].end_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                child_us[top] += list[i].end_us - list[i].start_us;
            }
            stack.push(i);
        }
        for (i, s) in list.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_us += dur;
            t.self_us += dur.saturating_sub(child_us[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrm_obs::json;

    fn rec(id: u64, name: &str, thread: &str, start_us: u64, end_us: u64) -> SpanRec {
        SpanRec {
            id,
            parent: None,
            name: name.into(),
            thread: thread.into(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            rec(1, "core.check_wdrf", "a", 0, 100),
            rec(2, "enumerate.sc", "a", 10, 30),
            rec(3, "explore.sequential", "a", 12, 28),
            rec(4, "enumerate.promising", "a", 40, 90),
            // Same interval, other thread: not a child.
            rec(5, "enumerate.sc", "b", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["core.check_wdrf"].self_us, 100 - 20 - 50);
        assert_eq!(t["enumerate.sc"].count, 2);
        assert_eq!(t["enumerate.sc"].self_us, (20 - 16) + 100);
        assert_eq!(t["explore.sequential"].self_us, 16);
        assert_eq!(t["enumerate.promising"].total_us, 50);
    }

    #[test]
    fn program_trace_lines_join_the_store() {
        let store = SpanStore::default();
        let line = |s: &str| json::parse(s).expect("JSON");
        assert!(store.absorb_trace_line(
            &line(r#"{"type":"span","name":"enumerate.sc","t_us":5,"dur_us":7,"thread":"main"}"#),
            "daemon:"
        ));
        assert!(!store.absorb_trace_line(&line(r#"{"type":"metrics","scope":"x"}"#), ""));
        let s = store.spans();
        assert_eq!((s[0].start_us, s[0].end_us), (5, 12));
        assert_eq!(s[0].thread, "daemon:main");
    }

    #[test]
    fn benchmark_spans_link_to_their_parent() {
        enable();
        std::thread::spawn(|| {
            let outer = span("test.outer");
            let inner = span("test.inner");
            drop(inner);
            drop(outer);
        })
        .join()
        .expect("span thread");
        let spans = store().spans();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);
    }
}
