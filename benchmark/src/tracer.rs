//! Host-time spans recorded in the benchmark's own code, around each call
//! into a layer.
//!
//! A span has a layer name, a start, an end and the span that caused it
//! (the enclosing open span). Spans are folded into per-layer totals as
//! they close, so a long run holds no span list: each layer keeps its
//! inclusive time, its self time (duration minus the part covered by child
//! spans) and its span count. A disabled tracer reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer span totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Spans closed.
    pub spans: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

struct Open {
    layer: &'static str,
    start: Instant,
    child_ns: u64,
}

/// The span recorder.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, LayerTime>,
}

impl Tracer {
    /// Turns span recording on or off (between units only).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    /// Opens a span for `layer`, child of the innermost open span.
    pub fn enter(&mut self, layer: &'static str) {
        if self.on {
            self.stack.push(Open {
                layer,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let Some(open) = self.stack.pop() else { return };
        let dur = open.start.elapsed().as_nanos() as u64;
        let entry = self.layers.entry(open.layer).or_default();
        entry.spans += 1;
        entry.total_ns += dur;
        entry.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Runs `f` inside a span for `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }

    /// Totals by layer.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.set_enabled(true);
        t.enter("bench");
        t.span("core.controller", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let bench = t.layers()["bench"];
        let ctrl = t.layers()["core.controller"];
        assert_eq!(bench.spans, 1);
        assert!(ctrl.self_ns >= 5_000_000);
        assert!(bench.total_ns >= ctrl.total_ns);
        assert!(bench.self_ns < bench.total_ns - ctrl.total_ns + 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::default();
        t.span("bench", || ());
        assert!(t.layers().is_empty());
    }
}
