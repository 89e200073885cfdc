//! Spans the benchmark records around its own calls into each layer,
//! kept in memory and written out at the end as Chrome-trace JSON (the
//! format npar-prof emits, so Perfetto opens both).
//!
//! A disabled [`Tracer`] records nothing; the untraced run measures the
//! end-to-end metrics and the traced run gives the per-layer ones.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer (module) name; the Chrome-trace category.
    pub layer: &'static str,
    pub name: String,
    pub tid: u64,
    pub start: Instant,
    pub end: Instant,
    /// Counters measured at the same boundary.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Small stable id of the calling thread, for the trace's `tid`.
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id (0 when disabled).
    pub fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a finished span on the calling thread; `id` comes from
    /// [`Tracer::id`] when children refer to it, else pass 0.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 { self.id() } else { id };
        let span = Span {
            id,
            parent,
            layer,
            name: name.into(),
            tid: tid(),
            start,
            end,
            args,
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Chrome-trace JSON of every recorded span (pid 0, one track per
    /// host thread, timestamps in microseconds since the tracer began).
    pub fn to_chrome_trace(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut ev = vec![
            r#"{"ph":"M","name":"process_name","pid":0,"args":{"name":"perfbench host"}}"#
                .to_string(),
        ];
        for s in self.spans() {
            let mut args = format!(r#""id":{}"#, s.id);
            if let Some(p) = s.parent {
                let _ = write!(args, r#","parent":{p}"#);
            }
            for (k, v) in &s.args {
                if v.is_finite() {
                    let _ = write!(args, r#","{k}":{v}"#);
                }
            }
            ev.push(format!(
                r#"{{"name":"{}","cat":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{},"args":{{{args}}}}}"#,
                escape(&s.name),
                s.layer,
                us(s.start),
                s.seconds() * 1e6,
                s.tid,
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            ev.join(",\n")
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Per-layer totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: usize,
    pub total_s: f64,
    /// Total minus the part of each span's interval its children cover.
    pub self_s: f64,
}

/// Self time per layer: a span's duration minus the union of its child
/// spans' intervals (children on other threads may overlap each other).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered: Vec<(Instant, Instant)> = children
            .get(&s.id)
            .map(|kids| {
                kids.iter()
                    .map(|k| (k.start.max(s.start), k.end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        covered.sort();
        let mut union = 0.0;
        let mut cur: Option<(Instant, Instant)> = None;
        for (a, b) in covered {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    union += cb.duration_since(ca).as_secs_f64();
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            union += cb.duration_since(ca).as_secs_f64();
        }
        let e = out.entry(s.layer).or_default();
        e.spans += 1;
        e.total_s += s.seconds();
        e.self_s += (s.seconds() - union).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.id();
        t.record(root, None, "runner", "sweep", at(0), at(100), vec![]);
        // Two overlapping children cover 10..60 once, not twice.
        t.record(0, Some(root), "apps", "a", at(10), at(50), vec![]);
        t.record(
            0,
            Some(root),
            "apps",
            "b",
            at(20),
            at(60),
            vec![("ops", 3.0)],
        );
        let st = self_times(&t.spans());
        assert!((st["runner"].self_s - 0.050).abs() < 1e-9);
        assert!((st["apps"].total_s - 0.080).abs() < 1e-9);
        assert_eq!(st["apps"].spans, 2);
        let json = t.to_chrome_trace();
        let v: serde::Value = serde_json::from_str(&json).expect("valid trace JSON");
        let text = serde_json::to_string(&v).expect("render");
        assert!(text.contains("traceEvents") && text.contains("\"ops\":3"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        t.record(t.id(), None, "runner", "sweep", now, now, vec![]);
        assert!(t.spans().is_empty());
    }
}
