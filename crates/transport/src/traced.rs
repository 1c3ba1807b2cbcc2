//! Observer-only instrumentation wrapper applied around any backend when
//! round tracing is enabled.

use crate::{LinkSlab, RoundDelivery, Transport};
use cc_runtime::Word;
use cc_telemetry::{Event, LinkHistogram, TraceLevel};
use std::sync::Arc;
use std::time::Instant;

/// Wraps a [`Transport`] and emits one [`Event::TransportRound`] per
/// barrier: link count, words, max-vs-mean skew, a per-link word-count
/// histogram, and the barrier wall-clock. Applied by
/// [`crate::TransportKind::build`] only when the global telemetry handle is
/// enabled at [`TraceLevel::Rounds`], so untraced runs never pay for the
/// wrapper — and the delivery itself is forwarded untouched, keeping the
/// determinism contract trivially intact.
#[derive(Debug)]
pub struct TracedTransport {
    inner: Box<dyn Transport>,
}

impl TracedTransport {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn Transport>) -> Self {
        Self { inner }
    }
}

impl Transport for TracedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, src: usize, dst: usize, words: &[Word]) {
        self.inner.send(src, dst, words);
    }

    fn send_slab(&mut self, slab: LinkSlab) {
        self.inner.send_slab(slab);
    }

    fn broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        self.inner.broadcast(src, slab);
    }

    fn finish_round(&mut self) -> RoundDelivery {
        let start = Instant::now();
        let rd = self.inner.finish_round();
        let barrier_ns = start.elapsed().as_nanos() as u64;

        let tel = cc_telemetry::global();
        tel.emit(TraceLevel::Rounds, || {
            let mut links = 0usize;
            let mut words = 0u64;
            let mut max_link = 0u64;
            let mut hist = LinkHistogram::default();
            for (_, _, w) in rd.loads.iter() {
                let w = w as u64;
                links += 1;
                words += w;
                max_link = max_link.max(w);
                hist.add(w);
            }
            Event::TransportRound {
                backend: self.inner.name(),
                // `finish_round` already advanced the epoch; report the one
                // this barrier committed.
                epoch: self.inner.epoch().saturating_sub(1),
                links,
                words,
                max_link,
                mean_link: if links > 0 {
                    words as f64 / links as f64
                } else {
                    0.0
                },
                barrier_ns,
                hist,
            }
        });
        rd
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn is_resident(&self) -> bool {
        self.inner.is_resident()
    }

    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<cc_runtime::Word>>,
        on_round: &mut dyn FnMut(&cc_runtime::LinkLoads),
    ) -> Option<cc_runtime::ResidentOutcome> {
        self.inner.run_resident(kind, states, on_round)
    }

    fn orchestrator_bytes(&self) -> u64 {
        self.inner.orchestrator_bytes()
    }

    fn sim_time_ns(&self) -> u64 {
        self.inner.sim_time_ns()
    }

    fn net_retransmits(&self) -> u64 {
        self.inner.net_retransmits()
    }

    fn net_faults(&self) -> u64 {
        self.inner.net_faults()
    }

    fn has_fault_plan(&self) -> bool {
        self.inner.has_fault_plan()
    }

    fn take_crash(&mut self) -> Option<usize> {
        self.inner.take_crash()
    }

    fn on_recovery(&mut self, node: usize, state_words: usize) {
        self.inner.on_recovery(node, state_words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryTransport;

    #[test]
    fn traced_wrapper_is_delivery_transparent() {
        let mut plain: Box<dyn Transport> = Box::new(InMemoryTransport::new(4));
        let mut traced: Box<dyn Transport> =
            Box::new(TracedTransport::new(Box::new(InMemoryTransport::new(4))));
        for t in [&mut plain, &mut traced] {
            t.send(0, 1, &[7, 8]);
            t.send(2, 3, &[9]);
            t.broadcast(1, vec![42].into());
        }
        let a = plain.finish_round();
        let b = traced.finish_round();
        assert_eq!(a, b, "wrapper must not perturb deliveries or loads");
        assert_eq!(plain.epoch(), traced.epoch());
        assert_eq!(traced.name(), "inmemory", "name forwards to the backend");
        assert_eq!(traced.n(), 4);
    }
}
