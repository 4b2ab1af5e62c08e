//! Benchmark-side spans around every call into a layer of the program.
//!
//! Spans are recorded from the benchmark's own code (in-program layer tags
//! are ROADMAP's cost-attribution item), kept in memory, and written once
//! when the invocation ends. A disabled log records nothing, so the
//! untraced pass pays one branch per call.

use crate::stats::{self_times, Span};
use std::time::Instant;

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`SpanLog::open`]; hand it back to [`SpanLog::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanLog {
    /// A log that records nothing until [`SpanLog::set_rep`] enables it.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled: false,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts recording spans for traced repetition `rep`, or stops
    /// recording with `None`.
    pub fn set_rep(&mut self, rep: Option<u32>) {
        self.enabled = rep.is_some();
        self.rep = rep.unwrap_or(0);
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent, rep: self.rep });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id` — and, should a panic have unwound past them, any span
    /// still open inside it.
    pub fn close(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == i {
                break;
            }
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per repetition of the spans called `name`, one
    /// entry per traced repetition that has such a span.
    pub fn self_time_per_rep(&self, name: &str) -> Vec<f64> {
        let own = self_times(&self.spans);
        let reps = self.spans.iter().map(|s| s.rep).max().map_or(0, |r| r + 1);
        (0..reps)
            .filter_map(|rep| {
                let mut hit = false;
                let mut sum = 0.0;
                for (s, t) in self.spans.iter().zip(&own) {
                    if s.rep == rep && s.name == name {
                        hit = true;
                        sum += t;
                    }
                }
                hit.then_some(sum)
            })
            .collect()
    }

    /// The log as a JSON array of `{name, start, end, self, parent, rep}`.
    pub fn to_json(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::from("[");
        for (i, (s, t)) in self.spans.iter().zip(&own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"self\":{:.9},\"parent\":{},\"rep\":{}}}",
                s.name, s.start, s.end, t, parent, s.rep
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing_and_enabled_log_nests() {
        let mut log = SpanLog::new();
        log.scope("run", || ());
        assert!(log.spans().is_empty());
        log.set_rep(Some(2));
        let rep = log.open("rep");
        log.scope("run", || ());
        log.scope("run", || ());
        log.close(rep);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 2 && s.end >= s.start));
        assert_eq!(log.self_time_per_rep("run").len(), 1);
        assert!(log.self_time_per_rep("verify").is_empty());
        let parsed: serde::Value = serde_json::from_str(&log.to_json()).expect("valid JSON");
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(3));
    }
}
