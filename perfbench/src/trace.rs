//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a simulator crate; nothing inside the simulator is
//! instrumented. Every span of one run carries the same run id. Spans
//! stay in memory until the run ends, then [`Tracer::write_jsonl`]
//! writes them out in one go.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Crate the call goes into (`bench` for the harness itself).
    pub layer: &'static str,
    /// The public call that was timed.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled every method is a no-op
/// and [`Tracer::span`] just calls its closure.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            run_id: 0,
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer; every span it records carries `run_id`.
    pub fn on(run_id: u64) -> Tracer {
        Tracer {
            enabled: true,
            run_id,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later spans; close it with
    /// [`Tracer::close`]. Returns `None` when disabled.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the innermost open span (`id` from [`Tracer::open`]).
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Times `f` as a leaf span.
    #[inline]
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open(layer, name);
        let r = f();
        self.close(id);
        r
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part its child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = s.dur_ns().saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on(7);
        let outer = tr.open("bench", "outer");
        tr.span("streamsim", "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close(outer);
        let by_layer = tr.self_time_by_layer();
        let outer_span = &tr.spans()[0];
        let inner_span = &tr.spans()[1];
        assert_eq!(inner_span.parent, Some(0));
        let total = outer_span.dur_ns() as f64 * 1e-9;
        let sum: f64 = by_layer.values().sum();
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
        assert!(by_layer["streamsim"] >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.open("bench", "x");
        assert_eq!(tr.span("core", "y", || 3), 3);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
