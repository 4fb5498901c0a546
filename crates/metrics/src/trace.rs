//! Low-overhead event tracing for the runtime engine and the DES simulator.
//!
//! The design goal is *zero cost when disabled*: every instrumentation site
//! goes through a [`Tracer`] handle whose disabled form is a `None` — the
//! event-construction closure is never invoked, so hot loops pay one branch
//! and nothing else. When enabled, events land in a sharded, bounded
//! [`TraceBuffer`] (16 shards keyed by thread, a short critical section per
//! push) and can be exported as Chrome trace-event JSON (loadable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)) or as JSONL,
//! one event per line.
//!
//! Timestamps are microseconds (`ts_us`) from an arbitrary per-run origin:
//! the live runtime stamps wall-clock time from the tracer's creation
//! instant, the simulator stamps simulated seconds scaled to µs. `pid`
//! carries the node id and `tid` the worker/GPU/queue id, matching the
//! Chrome trace model so Perfetto groups tracks sensibly.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independently locked shards in a [`TraceBuffer`].
const SHARDS: usize = 16;

/// Default per-shard capacity (events); 16 shards × 64 Ki ≈ 1 M events.
const DEFAULT_SHARD_CAP: usize = 64 * 1024;

/// A single argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U(u64),
    F(f64),
    S(&'static str),
}

impl ArgValue {
    fn to_json(&self) -> serde_json::Value {
        use serde_json::{Number, Value};
        match self {
            ArgValue::U(u) => Value::Number(Number::U(*u)),
            ArgValue::F(f) => Value::Number(Number::F(*f)),
            ArgValue::S(s) => Value::String((*s).to_string()),
        }
    }
}

/// Span (has a duration) or instant (a point in time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Complete event — Chrome phase `"X"` with a `dur` field.
    Span { dur_us: u64 },
    /// Instant event — Chrome phase `"i"`.
    Instant,
}

/// One trace event. Names and categories are `&'static str` so recording
/// never allocates for the common case; dynamic context goes in [`args`].
///
/// [`args`]: TraceEvent::args
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name, e.g. `"fetch"`, `"preprocess"`, `"controller_decision"`.
    pub name: &'static str,
    /// Category, e.g. `"io"`, `"queue"`, `"cache"`, `"control"`.
    pub cat: &'static str,
    /// Start time in microseconds from the trace origin.
    pub ts_us: u64,
    /// Process id in the Chrome model — the node id here.
    pub pid: u32,
    /// Thread id in the Chrome model — worker / GPU / queue id here.
    pub tid: u32,
    pub kind: EventKind,
    /// Extra key/value context (storage tier, queue depth, reuse distance…).
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// A span covering `[ts_us, ts_us + dur_us]`.
    pub fn span(name: &'static str, cat: &'static str, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ts_us,
            pid: 0,
            tid: 0,
            kind: EventKind::Span { dur_us },
            args: Vec::new(),
        }
    }

    /// A point event at `ts_us`.
    pub fn instant(name: &'static str, cat: &'static str, ts_us: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ts_us,
            pid: 0,
            tid: 0,
            kind: EventKind::Instant,
            args: Vec::new(),
        }
    }

    pub fn pid(mut self, pid: u32) -> TraceEvent {
        self.pid = pid;
        self
    }

    pub fn tid(mut self, tid: u32) -> TraceEvent {
        self.tid = tid;
        self
    }

    pub fn arg_u(mut self, key: &'static str, v: u64) -> TraceEvent {
        self.args.push((key, ArgValue::U(v)));
        self
    }

    pub fn arg_f(mut self, key: &'static str, v: f64) -> TraceEvent {
        self.args.push((key, ArgValue::F(v)));
        self
    }

    pub fn arg_s(mut self, key: &'static str, v: &'static str) -> TraceEvent {
        self.args.push((key, ArgValue::S(v)));
        self
    }

    /// Render as a Chrome trace-event object (`ph` `"X"` or `"i"`).
    pub fn to_chrome_json(&self) -> serde_json::Value {
        use serde_json::{Map, Number, Value};
        let mut obj = Map::new();
        obj.insert("name".into(), Value::String(self.name.to_string()));
        obj.insert("cat".into(), Value::String(self.cat.to_string()));
        match self.kind {
            EventKind::Span { dur_us } => {
                obj.insert("ph".into(), Value::String("X".into()));
                obj.insert("ts".into(), Value::Number(Number::U(self.ts_us)));
                obj.insert("dur".into(), Value::Number(Number::U(dur_us)));
            }
            EventKind::Instant => {
                obj.insert("ph".into(), Value::String("i".into()));
                obj.insert("ts".into(), Value::Number(Number::U(self.ts_us)));
                // Thread-scoped instant: renders as a small marker on the track.
                obj.insert("s".into(), Value::String("t".into()));
            }
        }
        obj.insert("pid".into(), Value::Number(Number::U(self.pid as u64)));
        obj.insert("tid".into(), Value::Number(Number::U(self.tid as u64)));
        if !self.args.is_empty() {
            let mut args = Map::new();
            for (k, v) in &self.args {
                args.insert((*k).to_string(), v.to_json());
            }
            obj.insert("args".into(), Value::Object(args));
        }
        Value::Object(obj)
    }
}

struct Shard {
    events: Mutex<Vec<TraceEvent>>,
}

/// Sharded, bounded event store. Threads hash to a shard by thread id, so
/// concurrent recorders rarely contend; each shard holds at most
/// `shard_cap` events and counts (rather than stores) overflow.
pub struct TraceBuffer {
    shards: Vec<Shard>,
    shard_cap: usize,
    dropped: AtomicU64,
    origin: Instant,
}

impl TraceBuffer {
    pub fn new() -> TraceBuffer {
        TraceBuffer::with_shard_capacity(DEFAULT_SHARD_CAP)
    }

    pub fn with_shard_capacity(shard_cap: usize) -> TraceBuffer {
        TraceBuffer {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    events: Mutex::new(Vec::new()),
                })
                .collect(),
            shard_cap: shard_cap.max(1),
            dropped: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }

    /// Microseconds since this buffer was created (the trace origin for
    /// wall-clock recorders).
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Store one event; drops (and counts) it only when every shard it
    /// rotates onto is full.
    ///
    /// Shard choice starts from a per-thread hash (concurrent recorders
    /// rarely collide) and rotates by a thread-local counter, so a
    /// single-threaded recorder still fills the whole buffer rather than
    /// one shard.
    pub fn push(&self, event: TraceEvent) {
        thread_local! {
            static SHARD_SEED: u64 = {
                let mut hasher = DefaultHasher::new();
                std::thread::current().id().hash(&mut hasher);
                hasher.finish()
            };
            static SHARD_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        }
        let seed = SHARD_SEED.with(|s| *s);
        let tick = SHARD_TICK.with(|t| {
            let v = t.get();
            t.set(v.wrapping_add(1));
            v
        });
        let shard = &self.shards[(seed.wrapping_add(tick)) as usize % SHARDS];
        let mut events = shard.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() < self.shard_cap {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped because a shard hit its capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain all shards into one list sorted by timestamp.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let events = shard.events.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(events.iter().cloned());
        }
        all.sort_by_key(|e| e.ts_us);
        all
    }

    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.events.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole trace as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`), viewable in Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        use serde_json::{Map, Value};
        let events: Vec<Value> = self
            .snapshot()
            .iter()
            .map(TraceEvent::to_chrome_json)
            .collect();
        let mut doc = Map::new();
        doc.insert("traceEvents".into(), Value::Array(events));
        doc.insert("displayTimeUnit".into(), Value::String("ms".into()));
        serde_json::to_string(&Value::Object(doc)).expect("trace render")
    }

    /// The whole trace as JSONL: one Chrome trace-event object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.snapshot() {
            out.push_str(&serde_json::to_string(&event.to_chrome_json()).expect("trace render"));
            out.push('\n');
        }
        out
    }
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new()
    }
}

/// Cloneable recording handle. The disabled tracer is a `None` inside — the
/// closure given to [`Tracer::record_with`] is never called, so disabled
/// instrumentation costs a single branch.
#[derive(Clone, Default)]
pub struct Tracer {
    buffer: Option<Arc<TraceBuffer>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { buffer: None }
    }

    /// A tracer recording into a fresh default-capacity buffer.
    pub fn enabled() -> Tracer {
        Tracer {
            buffer: Some(Arc::new(TraceBuffer::new())),
        }
    }

    pub fn with_buffer(buffer: Arc<TraceBuffer>) -> Tracer {
        Tracer {
            buffer: Some(buffer),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.buffer.is_some()
    }

    /// Record the event produced by `make` — which only runs when tracing
    /// is enabled, keeping the disabled path free of any construction work.
    #[inline]
    pub fn record_with<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(buffer) = &self.buffer {
            buffer.push(make());
        }
    }

    /// Microseconds since the trace origin; 0 when disabled.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.buffer.as_deref().map_or(0, TraceBuffer::now_us)
    }

    pub fn buffer(&self) -> Option<&Arc<TraceBuffer>> {
        self.buffer.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        let mut built = false;
        t.record_with(|| {
            built = true;
            TraceEvent::instant("x", "t", 0)
        });
        assert!(!built);
        assert_eq!(t.now_us(), 0);
    }

    #[test]
    fn snapshot_is_time_sorted() {
        let buf = TraceBuffer::new();
        buf.push(TraceEvent::instant("b", "t", 20));
        buf.push(TraceEvent::span("a", "t", 10, 5));
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[1].name, "b");
    }

    #[test]
    fn bounded_buffer_counts_drops() {
        let buf = TraceBuffer::with_shard_capacity(1);
        // Rotation fills every shard once; the rest are dropped.
        for i in 0..(2 * SHARDS as u64) {
            buf.push(TraceEvent::instant("e", "t", i));
        }
        assert_eq!(buf.len(), SHARDS);
        assert_eq!(buf.dropped(), SHARDS as u64);
    }

    #[test]
    fn chrome_json_has_required_fields() {
        let buf = TraceBuffer::new();
        buf.push(
            TraceEvent::span("fetch", "io", 100, 40)
                .pid(1)
                .tid(3)
                .arg_s("tier", "store")
                .arg_u("bytes", 4096),
        );
        buf.push(TraceEvent::instant("evict", "cache", 150).arg_u("victims", 2));
        let doc: serde_json::Value = serde_json::from_str(&buf.chrome_trace_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        let span = &events[0];
        assert_eq!(span["ph"].as_str().unwrap(), "X");
        assert_eq!(span["ts"].as_u64().unwrap(), 100);
        assert_eq!(span["dur"].as_u64().unwrap(), 40);
        assert_eq!(span["pid"].as_u64().unwrap(), 1);
        assert_eq!(span["tid"].as_u64().unwrap(), 3);
        assert_eq!(span["args"]["tier"].as_str().unwrap(), "store");
        let inst = &events[1];
        assert_eq!(inst["ph"].as_str().unwrap(), "i");
        assert_eq!(inst["args"]["victims"].as_u64().unwrap(), 2);
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let buf = TraceBuffer::new();
        buf.push(TraceEvent::instant("a", "t", 1));
        buf.push(TraceEvent::instant("b", "t", 2));
        let jsonl = buf.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["name"].as_str().is_some());
        }
    }
}
