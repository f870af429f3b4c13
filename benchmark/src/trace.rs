//! Spans recorded from the benchmark's own code, around its calls into each
//! layer: run -> round -> phase, and run -> probes -> probe. Kept in memory,
//! written when the run ends. Nothing inside the crates is instrumented.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use cycledger_protocol::engine::{RoundContext, RoundObserver};

use crate::json::quote;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// The protocol round the span belongs to, if any.
    pub round: Option<u64>,
    /// Executor batches completed while the span was open: the count taken
    /// at the same boundary as the times.
    pub batches: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Self time per span, aligned with `spans`: the span's duration minus the
/// part of it its direct children cover. Spans open and close in stack
/// order on one thread, so siblings never overlap and that part is the sum
/// of the children's durations.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_us).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            // Ids are positions: `Tracer::open` numbers spans as it pushes.
            debug_assert_eq!(spans[parent as usize].id, parent);
            own[parent as usize] -= span.duration_us();
        }
    }
    own
}

/// The layer (crate) a span's time is charged to, from its name: probes are
/// named `<layer>.probe.*`, everything else is the protocol engine's.
pub fn layer_of(name: &str) -> &str {
    match name.split_once(".probe.") {
        Some((layer, _)) => layer,
        None => "protocol",
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Positions of the spans still open, innermost last. An open span's
    /// `batches` holds the counter value it started at.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, round: Option<u64>, batches_now: u64) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().map(|&slot| self.spans[slot].id);
        let start_us = self.now_us();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us: start_us,
            round,
            batches: batches_now,
        });
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn close(&mut self, name: &'static str, batches_now: u64) {
        let end_us = self.now_us();
        let slot = self.open.pop().expect("close without an open span");
        let span = &mut self.spans[slot];
        assert_eq!(span.name, name, "spans must close in stack order");
        span.end_us = end_us;
        span.batches = batches_now - span.batches;
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }

    /// One JSON object per line: `{id, parent, name, start_us, end_us, round}`
    /// plus the `batches` count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let parent = span.parent.map_or("null".into(), |p| p.to_string());
            let round = span.round.map_or("null".into(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_us\": {}, \
                 \"end_us\": {}, \"round\": {round}, \"batches\": {}}}",
                span.id,
                quote(span.name),
                span.start_us,
                span.end_us,
                span.batches
            )?;
        }
        out.flush()
    }

    /// Chrome trace-event JSON (opens in Perfetto / `chrome://tracing`): one
    /// complete event per span, one track (`tid`) per layer.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut layers: Vec<&str> = Vec::new();
        let mut body = String::from("{\"traceEvents\": [\n");
        for span in self.spans() {
            let layer = layer_of(span.name);
            let tid = match layers.iter().position(|l| *l == layer) {
                Some(tid) => tid,
                None => {
                    layers.push(layer);
                    layers.len() - 1
                }
            };
            writeln!(
                body,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {tid}, \"args\": {{\"round\": {}, \"batches\": {}}}}},",
                quote(span.name),
                quote(layer),
                span.start_us,
                span.duration_us(),
                span.round.map_or("null".into(), |r| r.to_string()),
                span.batches
            )
            .expect("writing to a String");
        }
        for (tid, layer) in layers.iter().enumerate() {
            let sep = if tid + 1 < layers.len() { "," } else { "" };
            writeln!(
                body,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}{sep}",
                quote(layer)
            )
            .expect("writing to a String");
        }
        body.push_str("]}\n");
        std::fs::write(path, body)
    }
}

/// The engine's phase boundaries, turned into spans under the open round.
impl RoundObserver for Tracer {
    fn on_phase_start(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
        self.open(
            phase,
            Some(ctx.round),
            ctx.executor.batches_executed() as u64,
        );
    }

    fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
        self.close(phase, ctx.executor.batches_executed() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_us,
            end_us,
            round: None,
            batches: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, None, 0, 100),    // run
            span(1, Some(0), 10, 40), // round: two adjacent phases inside
            span(2, Some(1), 10, 25),
            span(3, Some(1), 25, 38),
            span(4, Some(0), 50, 90), // second round: one phase, one nested
            span(5, Some(4), 55, 85),
            span(6, Some(5), 60, 70),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100 - 30 - 40, "run minus its two rounds");
        assert_eq!(own[1], 30 - 15 - 13, "round minus adjacent phases");
        assert_eq!(own[2], 15);
        assert_eq!(own[3], 13);
        assert_eq!(own[4], 40 - 30);
        assert_eq!(own[5], 30 - 10, "grandchild charged to its parent only");
        assert_eq!(own[6], 10);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_stack_order_and_counts_batches() {
        let mut tracer = Tracer::new(4);
        tracer.open("run", None, 0);
        tracer.open("round", Some(7), 3);
        tracer.open("inter-consensus", Some(7), 3);
        tracer.close("inter-consensus", 5);
        tracer.close("round", 6);
        tracer.close("run", 6);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].batches, 2);
        assert_eq!(spans[1].batches, 3);
        assert_eq!(spans[1].round, Some(7));
        assert!(spans[0].end_us >= spans[2].end_us);
    }

    #[test]
    fn probe_names_map_to_their_layer_track() {
        assert_eq!(layer_of("crypto.probe.sign_us"), "crypto");
        assert_eq!(layer_of("net.probe.timer_ns"), "net");
        assert_eq!(layer_of("inter-consensus"), "protocol");
        assert_eq!(layer_of("round"), "protocol");
    }
}
