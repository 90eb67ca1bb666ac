//! Per-layer spans, recorded from outside the program around its public
//! calls and kept in memory until the run ends.
//!
//! A fleet replay records one span per (control interval, layer): every
//! call into a layer during an interval folds into that interval's span,
//! which keeps the summed busy time and the summed work count. `Advance`
//! spans also cover the job advance between ticks; every other layer runs
//! inside the control-tick event.

use std::time::Instant;

/// The layers of one fleet control interval, named after the public
/// calls they wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Node::advance` over the fleet at every spine event.
    Advance,
    /// `Node::lifecycle_tick` on nodes not restarting, plus the breaker
    /// clocks.
    Lifecycle,
    /// `Node::lifecycle_tick` on nodes whose restart (and checkpoint
    /// restore) is due.
    Restore,
    /// `Node::demand` plus `apportion` or `BudgetTree::tick`.
    Power,
    /// `Node::control_tick` on live nodes.
    Control,
    /// Retry drain, breaker mask and `Scheduler::dispatch`.
    Dispatch,
    /// `Node::take_checkpoint` on `Up` nodes.
    Checkpoint,
}

/// Number of [`Layer`] variants.
const N_LAYERS: usize = 7;

/// One (interval, layer) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Control interval the span belongs to (0-based tick number).
    pub tick: u32,
    /// The layer.
    pub layer: Layer,
    /// Time spent inside the layer this interval, ns.
    pub busy_ns: u64,
    /// Work items the layer handled this interval (node-ticks, jobs, …).
    pub count: u64,
}

/// Collects spans; a disabled recorder reads no clock and records
/// nothing, so the same replay code runs traced and untraced.
pub struct Recorder {
    enabled: bool,
    tick: u32,
    open: [Option<Span>; N_LAYERS],
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            tick: 0,
            open: [None; N_LAYERS],
            spans: Vec::new(),
        }
    }

    /// Marks the entry into a layer; pass the result to [`Recorder::finish`].
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Folds the time since `started` and `count` work items into the
    /// current interval's span of `layer`.
    pub fn finish(&mut self, started: Option<Instant>, layer: Layer, count: u64) {
        let Some(started) = started else {
            return;
        };
        let busy_ns = started.elapsed().as_nanos() as u64;
        let tick = self.tick;
        let slot = &mut self.open[layer as usize];
        match slot {
            Some(span) => {
                span.busy_ns += busy_ns;
                span.count += count;
            }
            None => {
                *slot = Some(Span {
                    tick,
                    layer,
                    busy_ns,
                    count,
                });
            }
        }
    }

    /// Closes the current interval: its open spans move to the record.
    pub fn end_interval(&mut self) {
        for slot in self.open.iter_mut() {
            if let Some(span) = slot.take() {
                self.spans.push(span);
            }
        }
        self.tick += 1;
    }

    /// Every closed span, in interval order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed busy seconds and work count of `layer` over the run.
    pub fn total(&self, layer: Layer) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0.0, 0), |(secs, n), s| (secs + s.busy_ns as f64 * 1e-9, n + s.count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_span_per_interval_and_layer() {
        let mut rec = Recorder::new(true);
        for _ in 0..3 {
            let s = rec.start();
            rec.finish(s, Layer::Advance, 2);
        }
        let s = rec.start();
        rec.finish(s, Layer::Control, 5);
        rec.end_interval();
        let s = rec.start();
        rec.finish(s, Layer::Advance, 1);
        rec.end_interval();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].tick, spans[0].layer, spans[0].count), (0, Layer::Advance, 6));
        assert_eq!((spans[2].tick, spans[2].count), (1, 1));
        assert_eq!(rec.total(Layer::Advance).1, 7);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.start();
        assert!(s.is_none());
        rec.finish(s, Layer::Power, 1);
        rec.end_interval();
        assert!(rec.spans().is_empty());
    }
}
