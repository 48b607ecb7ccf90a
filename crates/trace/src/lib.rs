//! # seqdl-trace — a zero-dependency span/event sink for the evaluation pipeline
//!
//! The evaluation pipeline (engine fixpoint, RAM interpreter, parallel
//! executor) is instrumented with *spans* (run → stratum → level → round →
//! rule firing) and *events* (counters, instants).  This crate is the sink
//! they write to, designed around one invariant: **when tracing is disabled,
//! an instrumentation point costs a single relaxed atomic load** — no clock
//! read, no allocation, no branch on shared mutable state — so the RAM
//! interpreter's hot loop is unaffected by the instrumentation existing.
//!
//! When a [`Session`] is active, each thread appends [`Event`]s to its own
//! thread-local buffer (no locks on the record path); buffers drain into a
//! global sink when a thread closes its outermost open span, when it exits,
//! and when the session [`finish`](Session::finish)es.
//! Thread ids are small process-local ordinals assigned at a thread's first
//! event, and timestamps are microseconds from a process-wide monotonic epoch,
//! so per-thread event order is meaningful.
//!
//! Sessions are process-global and exclusive: [`start`] holds a lock until
//! [`Session::finish`], and every event is tagged with the session ordinal so
//! a straggler thread flushing a stale buffer cannot contaminate a later
//! session.
//!
//! [`chrome_trace_json`] serializes an event stream in the Chrome trace-event
//! format, loadable by Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Whether any session is currently recording.  The one word every
/// instrumentation point reads.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic epoch shared by every thread; set once at the first [`start`].
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Ordinal of the current session; events carry it so [`Session::finish`] can
/// discard events a late-flushing thread recorded for an earlier session.
static SESSION_ID: AtomicU64 = AtomicU64::new(0);

/// Next process-local thread ordinal.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Buffers flushed by exiting threads and by [`Session::finish`].
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Serializes sessions: held from [`start`] to [`Session::finish`].
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (matched by the next unmatched [`EventKind::End`] on the
    /// same thread).
    Begin,
    /// A span closed.
    End,
    /// A named counter sample ([`Event::value`] holds the sample).
    Counter,
    /// A zero-duration instant (e.g. a governor checkpoint).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Process-local thread ordinal (assigned at the thread's first event).
    pub tid: u32,
    /// Microseconds since the process-wide trace epoch.
    pub ts_us: u64,
    /// Begin/End/Counter/Instant.
    pub kind: EventKind,
    /// Span or counter name.  Present on [`EventKind::Begin`], [`EventKind::End`],
    /// [`EventKind::Counter`], and [`EventKind::Instant`] events alike.
    pub name: String,
    /// Counter sample; 0 for non-counter events.
    pub value: u64,
    /// Session ordinal the event belongs to.
    session: u64,
}

struct ThreadBuf {
    tid: u32,
    events: Vec<Event>,
    /// Spans this thread has open.  The buffer drains when the outermost one
    /// closes: the destructors of a scoped thread's thread-locals may run
    /// after `std::thread::scope` has returned, so draining only on thread
    /// exit could leave a joined worker's events out of [`Session::finish`].
    open_spans: usize,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.events.is_empty() {
            lock(&SINK).append(&mut self.events);
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
        open_spans: 0,
    });
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a tracing session is active.  A single relaxed load — the entire
/// cost of every instrumentation point while tracing is off.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_us() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn record(kind: EventKind, name: String, value: u64) {
    let event = Event {
        tid: 0, // patched below with the thread's ordinal
        ts_us: now_us(),
        kind,
        name,
        value,
        session: SESSION_ID.load(Ordering::Relaxed),
    };
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let tid = b.tid;
        b.events.push(Event { tid, ..event });
        match kind {
            EventKind::Begin => b.open_spans += 1,
            EventKind::End => {
                b.open_spans = b.open_spans.saturating_sub(1);
                if b.open_spans == 0 {
                    lock(&SINK).append(&mut b.events);
                }
            }
            EventKind::Counter | EventKind::Instant => {}
        }
    });
}

/// An exclusive recording session.  Created by [`start`]; dropped or
/// [`finish`](Session::finish)ed to stop recording.
pub struct Session {
    _exclusive: MutexGuard<'static, ()>,
}

/// Begin a recording session, enabling every instrumentation point in the
/// process.  Blocks until any other session in the process has finished.
#[must_use]
pub fn start() -> Session {
    let guard = lock(&SESSION_LOCK);
    EPOCH.get_or_init(Instant::now);
    SESSION_ID.fetch_add(1, Ordering::Relaxed);
    lock(&SINK).clear();
    ENABLED.store(true, Ordering::Relaxed);
    Session { _exclusive: guard }
}

impl Session {
    /// Stop recording and return every event of this session, stably ordered
    /// by timestamp (per-thread relative order is preserved).
    ///
    /// Other threads flush their buffers whenever their outermost span closes
    /// and again on exit, so a joined worker pool's spans are all here; the
    /// calling thread's buffer is flushed here.  A thread still running
    /// concurrently may lose its tail events — the callers in this workspace
    /// all join their workers first.
    #[must_use]
    pub fn finish(self) -> Vec<Event> {
        ENABLED.store(false, Ordering::Relaxed);
        let session = SESSION_ID.load(Ordering::Relaxed);
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            if !b.events.is_empty() {
                let mut drained = std::mem::take(&mut b.events);
                lock(&SINK).append(&mut drained);
            }
        });
        let mut events: Vec<Event> = lock(&SINK)
            .drain(..)
            .filter(|e| e.session == session)
            .collect();
        events.sort_by_key(|e| e.ts_us);
        events
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// RAII span: records [`EventKind::Begin`] now (if a session is active) and
/// the matching [`EventKind::End`] on drop.
pub struct SpanGuard {
    /// The span name, kept for the End event; `None` when tracing was off at
    /// construction, so the drop is free and never emits an unmatched End.
    name: Option<String>,
}

/// Open a span.  `name` is only invoked when a session is active, so callers
/// can format rule renderings lazily.
#[inline]
pub fn span(name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name: None };
    }
    let name = name();
    record(EventKind::Begin, name.clone(), 0);
    SpanGuard { name: Some(name) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            record(EventKind::End, name, 0);
        }
    }
}

/// Record a counter sample (no-op without an active session).
#[inline]
pub fn counter(name: &str, value: u64) {
    if enabled() {
        record(EventKind::Counter, name.to_string(), value);
    }
}

/// Record a zero-duration instant (no-op without an active session).
#[inline]
pub fn instant(name: &str) {
    if enabled() {
        record(EventKind::Instant, name.to_string(), 0);
    }
}

/// Escape `s` for embedding in a JSON string literal (quotes, backslashes,
/// and control characters; everything else passes through as UTF-8).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize events in the Chrome trace-event format (JSON array form):
/// `B`/`E` duration events for spans, `C` counter events, and `i` instants,
/// all under `pid` 1 with the recorded thread ordinals as `tid`.  The result
/// loads directly into Perfetto or `chrome://tracing`.
#[must_use]
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = json_escape(&e.name);
        let (tid, ts) = (e.tid, e.ts_us);
        let _ = match e.kind {
            EventKind::Begin => write!(
                out,
                "\n{{\"name\":\"{name}\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
            ),
            EventKind::End => write!(
                out,
                "\n{{\"name\":\"{name}\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
            ),
            EventKind::Counter => write!(
                out,
                "\n{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                 \"args\":{{\"value\":{}}}}}",
                e.value
            ),
            EventKind::Instant => write!(
                out,
                "\n{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{ts}}}"
            ),
        };
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing is process-global state; serialize the tests of this module so
    /// one test's disabled-phase assertions cannot observe another's session.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _t = lock(&TEST_LOCK);
        assert!(!enabled());
        {
            let _s = span(|| unreachable!("name closure must not run while disabled"));
            counter("c", 1);
            instant("i");
        }
        let session = start();
        let events = session.finish();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn session_records_balanced_spans_and_counters() {
        let _t = lock(&TEST_LOCK);
        let session = start();
        {
            let _outer = span(|| "outer".to_string());
            counter("work", 3);
            let _inner = span(|| "inner".to_string());
            instant("tick");
        }
        let events = session.finish();
        assert!(!enabled());
        let names: Vec<(&str, EventKind)> =
            events.iter().map(|e| (e.name.as_str(), e.kind)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", EventKind::Begin),
                ("work", EventKind::Counter),
                ("inner", EventKind::Begin),
                ("tick", EventKind::Instant),
                ("inner", EventKind::End),
                ("outer", EventKind::End),
            ]
        );
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(events.iter().all(|e| e.tid == events[0].tid));
    }

    #[test]
    fn worker_thread_buffers_flush_on_exit_with_distinct_tids() {
        let _t = lock(&TEST_LOCK);
        let session = start();
        let main_tid = {
            let _s = span(|| "driver".to_string());
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span(|| "worker".to_string());
                });
            });
            BUF.with(|b| b.borrow().tid)
        };
        let events = session.finish();
        assert_eq!(events.len(), 4);
        let worker_tid = events
            .iter()
            .find(|e| e.name == "worker")
            .expect("worker span recorded")
            .tid;
        assert_ne!(main_tid, worker_tid);
    }

    #[test]
    fn chrome_export_emits_one_object_per_event() {
        let _t = lock(&TEST_LOCK);
        let session = start();
        {
            let _s = span(|| "a \"quoted\" name".to_string());
            counter("n", 7);
        }
        let events = session.finish();
        let json = chrome_trace_json(&events);
        assert_eq!(json.matches("{\"name\"").count(), 3);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn stale_buffers_from_an_earlier_session_are_discarded() {
        let _t = lock(&TEST_LOCK);
        let first = start();
        counter("old", 1);
        drop(first); // disable without draining: "old" stays buffered
        let second = start();
        counter("new", 2);
        let events = second.finish();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].name, "new");
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
