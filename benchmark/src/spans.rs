//! The benchmark's own span recorder. Spans are recorded from the
//! benchmark's files, around the calls into each layer; they are kept in a
//! buffer allocated up front and written out as Chrome trace-event JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
/// `parent` of a span nobody caused.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub id: SpanId,
    pub parent: SpanId,
    /// Calls into the layer the span covers (one span per layer and batch,
    /// so the two clock reads amortise over a batch of calls).
    pub calls: u32,
}

/// What one layer cost over a whole trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_us: f64,
    pub calls: u64,
}

impl LayerTotal {
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_us / self.calls as f64
        }
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Off: `span` still runs the closure but reads no clock and records
    /// nothing, which is what the tracing overhead is measured against.
    enabled: bool,
    dropped: u64,
}

impl Recorder {
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            enabled: true,
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Recorder::close`]. For spans that
    /// contain other spans.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        if self.spans.len() == self.spans.capacity() {
            // Never grow inside a measurement: count the loss instead.
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as SpanId;
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            dur_us: 0.0,
            id,
            parent,
            calls: 0,
        });
        id
    }

    pub fn close(&mut self, id: SpanId, calls: u32) {
        if id == NO_PARENT {
            return;
        }
        let end_us = self.now_us();
        let span = &mut self.spans[id as usize];
        span.dur_us = end_us - span.start_us;
        span.calls = calls;
    }

    /// Record `f` as a leaf span covering `calls` calls into `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, calls);
        out
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name: self time (each span's duration minus the durations
    /// of the spans that name it as parent) and calls.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut self_us: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                self_us[s.parent as usize] -= s.dur_us;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_us) {
            let t = totals.entry(s.name).or_default();
            t.self_us += own;
            t.calls += s.calls as u64;
        }
        totals
    }

    /// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Complete events (`"ph":"X"`); `args` carries the span id,
    /// its parent and the calls it covers.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"calls\":{}}}}}{}",
                s.name, s.start_us, s.dur_us, s.id, parent, s.calls, comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-made spans, so the arithmetic is exact.
    fn recorder_with(spans: Vec<Span>) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans,
            enabled: true,
            dropped: 0,
        }
    }

    fn span(name: &'static str, id: SpanId, parent: SpanId, dur_us: f64, calls: u32) -> Span {
        Span {
            name,
            start_us: 0.0,
            dur_us,
            id,
            parent,
            calls,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = recorder_with(vec![
            span("batch", 0, NO_PARENT, 100.0, 1),
            span("get", 1, 0, 30.0, 32),
            span("transform", 2, 0, 50.0, 32),
            span("batch", 3, NO_PARENT, 40.0, 1),
            span("get", 4, 3, 10.0, 32),
        ]);
        let t = r.layer_totals();
        assert_eq!(
            t["batch"],
            LayerTotal {
                self_us: 50.0,
                calls: 2
            }
        );
        assert_eq!(
            t["get"],
            LayerTotal {
                self_us: 40.0,
                calls: 64
            }
        );
        assert_eq!(
            t["transform"],
            LayerTotal {
                self_us: 50.0,
                calls: 32
            }
        );
        assert_eq!(t["get"].us_per_call(), 0.625);
        assert_eq!(LayerTotal::default().us_per_call(), 0.0);
    }

    #[test]
    fn spans_nest_and_name_their_parent() {
        let mut r = Recorder::new(8);
        let root = r.open("batch", NO_PARENT);
        let x = r.span("get", root, 4, || 7);
        r.close(root, 1);
        assert_eq!(x, 7);
        let s = r.spans();
        assert_eq!(
            (s[0].name, s[0].parent, s[0].calls),
            ("batch", NO_PARENT, 1)
        );
        assert_eq!((s[1].name, s[1].parent, s[1].calls), ("get", root, 4));
        assert!(s[0].dur_us >= s[1].dur_us);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut r = Recorder::new(1);
        r.span("a", NO_PARENT, 1, || ());
        r.span("b", NO_PARENT, 1, || ());
        assert_eq!((r.spans().len(), r.dropped()), (1, 1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(8);
        r.set_enabled(false);
        assert_eq!(r.span("a", NO_PARENT, 1, || 3), 3);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parents() {
        let r = recorder_with(vec![
            span("batch", 0, NO_PARENT, 9.5, 1),
            span("get", 1, 0, 3.0, 32),
        ]);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit_test.trace.json");
        r.write_chrome_trace(&path).expect("trace written");
        let text = std::fs::read_to_string(&path).expect("trace read back");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(0)
        );
        assert!(events[0]
            .get("args")
            .and_then(|a| a.get("parent"))
            .expect("parent key")
            .is_null());
    }
}
