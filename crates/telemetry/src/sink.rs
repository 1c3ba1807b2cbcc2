//! Sinks: where emitted events go.
//!
//! [`MemorySink`] aggregates in-process and is queryable from tests and
//! `cc-report`; [`JsonlSink`] appends one JSON object per event for offline
//! analysis. Both are cheap enough to leave attached for a whole test suite:
//! the memory sink keeps exact aggregates plus a bounded ring of recent raw
//! events rather than an unbounded log.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::File;
use std::io::{self, LineWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::{event_json, Event, LinkHistogram};

/// Destination for emitted [`Event`]s. Implementations must be `Send + Sync`
/// (instrumented layers emit from worker threads) and should never panic —
/// telemetry failures must not take down the simulation.
pub trait TelemetrySink: Send + Sync + fmt::Debug {
    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Per-phase aggregate across every [`Event::PhaseEnd`] seen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseAgg {
    /// Times the phase closed.
    pub runs: u64,
    /// Total link-level rounds charged while the phase was open.
    pub rounds: u64,
    /// Total words delivered while the phase was open.
    pub words: u64,
    /// Total wall-clock across all runs.
    pub wall_ns: u64,
}

/// Engine-level aggregate across every [`Event::EngineRound`] seen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineAgg {
    /// Round barriers observed.
    pub barriers: u64,
    /// Total node-stepping wall-clock.
    pub step_ns: u64,
    /// Total barrier (delivery) wall-clock.
    pub barrier_ns: u64,
    /// Total link-level rounds charged.
    pub rounds: u64,
    /// Total words delivered.
    pub words: u64,
}

/// Executor fan-out aggregate across every [`Event::ExecutorDispatch`] seen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DispatchAgg {
    /// Jobs that ran inline (below the executor's cutover).
    pub inline: u64,
    /// Jobs dispatched to worker threads.
    pub dispatched: u64,
    /// Total pieces across all jobs (queue depth integral).
    pub pieces: u64,
}

/// Per-backend transport aggregate across every [`Event::TransportRound`]
/// (and [`Event::FrameBatch`]) seen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportAgg {
    /// Round barriers observed.
    pub rounds: u64,
    /// Total words across all links and rounds.
    pub words: u64,
    /// Heaviest single link seen in any round.
    pub max_link: u64,
    /// Largest per-round skew (`max_link / mean_link`) seen.
    pub max_skew: f64,
    /// Sum of per-round skews (divide by `rounds` for the mean).
    pub skew_sum: f64,
    /// Total barrier wall-clock.
    pub barrier_ns: u64,
    /// Merged per-link word-count histogram across all rounds.
    pub hist: LinkHistogram,
    /// Frame batches shipped (batching backends only).
    pub frame_batches: u64,
    /// Total encoded bytes across all frame batches.
    pub frame_bytes: u64,
    /// Program-resident round barriers observed.
    pub resident_rounds: u64,
    /// Total payload bytes exchanged worker→worker in resident rounds.
    pub peer_bytes: u64,
}

/// Per-worker-process aggregate across every [`Event::Worker`]-wrapped
/// event merged from a distributed capture, plus the orchestrator-measured
/// barrier lanes for that worker. Deliberately separate from the global
/// aggregates: a worker's `FrameBatch` is the worker's half of the wire,
/// not a second copy of the orchestrator's.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerAgg {
    /// Total merged events attributed to this worker.
    pub events: u64,
    /// Frame batches the worker shipped.
    pub frame_batches: u64,
    /// Total encoded bytes across the worker's frame batches.
    pub frame_bytes: u64,
    /// Program-resident rounds the worker stepped.
    pub resident_rounds: u64,
    /// Payload bytes the worker exchanged peer-to-peer.
    pub peer_bytes: u64,
    /// Kernel dispatch decisions taken inside the worker.
    pub kernel_decisions: u64,
    /// Config warnings the worker re-reported (deduped in
    /// [`MemorySnapshot::warnings`]; counted here per process).
    pub config_warnings: u64,
    /// Total barrier-lane wall-clock charged to this worker (its busy
    /// time as seen from the orchestrator's commit-collection loop).
    pub lane_ns: u64,
    /// Barrier lanes observed for this worker.
    pub lanes: u64,
    /// Events the worker's [`WireSink`] dropped on overflow (reported by
    /// its `worker_events_dropped` counter line).
    pub events_dropped: u64,
}

/// One epoch's critical path derived from merged [`Event::BarrierLane`]s:
/// who closed the barrier, how far behind the median they were, and every
/// worker's lane. Produced by [`MemorySnapshot::critical_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPath {
    /// Backend the barrier belongs to.
    pub backend: &'static str,
    /// Barrier epoch.
    pub epoch: u64,
    /// Worker whose commit token closed the barrier (last to arrive).
    pub closer: u32,
    /// The closer's wall-clock from barrier start.
    pub max_ns: u64,
    /// Median lane wall-clock across the epoch's workers.
    pub median_ns: u64,
    /// Every `(worker, wall_ns)` lane, sorted by worker id.
    pub lanes: Vec<(u32, u64)>,
}

/// Network-conditioning aggregate across every [`Event::NetsimRound`] /
/// [`Event::NetsimFault`] seen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetsimAgg {
    /// Conditioned round barriers observed.
    pub rounds: u64,
    /// Total simulated time across all rounds (sum of per-round maxima).
    pub sim_ns: u64,
    /// Total simulated retransmissions.
    pub retransmits: u64,
    /// Total straggler injections.
    pub stragglers: u64,
    /// Injected node crashes.
    pub faults: u64,
    /// Completed recoveries (state re-ships).
    pub recoveries: u64,
}

/// A point-in-time copy of everything a [`MemorySink`] has aggregated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemorySnapshot {
    /// Named monotone counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named gauges (last observed value wins).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Rendered config warnings, in arrival order.
    pub warnings: Vec<String>,
    /// Per-phase aggregates, keyed by phase name.
    pub phases: BTreeMap<String, PhaseAgg>,
    /// Engine round-barrier aggregate.
    pub engine: EngineAgg,
    /// Executor fan-out aggregate.
    pub dispatch: DispatchAgg,
    /// Per-backend transport aggregates.
    pub transports: BTreeMap<&'static str, TransportAgg>,
    /// Network-conditioning aggregate (zero when netsim is off).
    pub netsim: NetsimAgg,
    /// Per-worker aggregates from merged distributed captures, keyed by
    /// worker process index (empty for single-process runs).
    pub workers: BTreeMap<u32, WorkerAgg>,
    /// Raw barrier lanes keyed by `(backend, epoch)` — epoch alone would
    /// collide when several backends run against one sink. Each entry is
    /// the `(worker, wall_ns)` arrivals for that barrier in commit order.
    pub lanes: BTreeMap<(&'static str, u64), Vec<(u32, u64)>>,
    /// How many processes reported each deduplicated config warning,
    /// keyed by the rendered message in [`MemorySnapshot::warnings`].
    pub warning_counts: BTreeMap<String, u64>,
    /// Ring of the most recent raw events (capacity
    /// [`MemorySink::RECENT_CAP`]; oldest dropped first).
    pub recent: VecDeque<Event>,
    /// Raw events dropped from the ring once it filled.
    pub dropped: u64,
}

impl MemorySnapshot {
    /// Derives the per-epoch critical path from the merged barrier lanes:
    /// for every `(backend, epoch)` barrier, the worker that closed it,
    /// its wall-clock, and the epoch median. Sorted by backend then epoch.
    #[must_use]
    pub fn critical_path(&self) -> Vec<EpochPath> {
        self.lanes
            .iter()
            .filter(|(_, lanes)| !lanes.is_empty())
            .map(|(&(backend, epoch), lanes)| {
                let (closer, max_ns) = lanes
                    .iter()
                    .copied()
                    .max_by_key(|&(worker, ns)| (ns, worker))
                    .expect("non-empty lanes");
                let mut sorted_ns: Vec<u64> = lanes.iter().map(|&(_, ns)| ns).collect();
                sorted_ns.sort_unstable();
                let median_ns = sorted_ns[sorted_ns.len() / 2];
                let mut by_worker = lanes.clone();
                by_worker.sort_unstable();
                EpochPath {
                    backend,
                    epoch,
                    closer,
                    max_ns,
                    median_ns,
                    lanes: by_worker,
                }
            })
            .collect()
    }

    /// Cumulative per-worker `(busy_ns, idle_ns)` across all merged
    /// barriers: busy is the worker's own lane time, idle is how long it
    /// sat waiting for each epoch's closing worker (`epoch max − lane`).
    #[must_use]
    pub fn worker_busy_idle(&self) -> BTreeMap<u32, (u64, u64)> {
        let mut out: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for lanes in self.lanes.values() {
            let max_ns = lanes.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
            for &(worker, ns) in lanes {
                let entry = out.entry(worker).or_insert((0, 0));
                entry.0 += ns;
                entry.1 += max_ns - ns;
            }
        }
        out
    }
}

/// In-memory aggregating sink. Aggregates are exact for the whole capture;
/// only the raw-event ring is bounded.
#[derive(Debug, Default)]
pub struct MemorySink {
    state: Mutex<MemorySnapshot>,
}

impl MemorySink {
    /// Capacity of the recent raw-event ring.
    pub const RECENT_CAP: usize = 4096;

    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything aggregated so far.
    #[must_use]
    pub fn snapshot(&self) -> MemorySnapshot {
        self.state.lock().expect("telemetry state poisoned").clone()
    }

    /// Clears all aggregates and the raw-event ring (used by `cc-report` to
    /// capture per-backend runs with one global sink).
    pub fn reset(&self) {
        *self.state.lock().expect("telemetry state poisoned") = MemorySnapshot::default();
    }

    /// Current value of a named counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let state = self.state.lock().expect("telemetry state poisoned");
        state.counters.get(name).copied().unwrap_or(0)
    }

    /// Last observed value of a named gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let state = self.state.lock().expect("telemetry state poisoned");
        state.gauges.get(name).copied()
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("telemetry state poisoned");
        match event {
            Event::ConfigWarning {
                owner,
                var,
                raw,
                expected,
                using,
            } => {
                push_warning(&mut state, owner, var, raw, expected, using);
            }
            Event::Counter { name, delta } => {
                *state.counters.entry(name).or_insert(0) += delta;
            }
            Event::Gauge { name, value } => {
                state.gauges.insert(name, *value);
            }
            Event::PhaseStart { .. } => {}
            Event::PhaseEnd {
                name,
                rounds,
                words,
                wall_ns,
            } => {
                let agg = state.phases.entry(name.clone()).or_default();
                agg.runs += 1;
                agg.rounds += rounds;
                agg.words += words;
                agg.wall_ns += wall_ns;
            }
            Event::EngineRound {
                step_ns,
                barrier_ns,
                rounds,
                words,
                ..
            } => {
                state.engine.barriers += 1;
                state.engine.step_ns += step_ns;
                state.engine.barrier_ns += barrier_ns;
                state.engine.rounds += rounds;
                state.engine.words += words;
            }
            Event::ExecutorDispatch { pieces, threads } => {
                if *threads > 1 {
                    state.dispatch.dispatched += 1;
                } else {
                    state.dispatch.inline += 1;
                }
                state.dispatch.pieces += *pieces as u64;
            }
            Event::KernelDecision { .. } => {
                *state.counters.entry("kernel_decisions").or_insert(0) += 1;
            }
            Event::TransportRound {
                backend,
                words,
                max_link,
                mean_link,
                barrier_ns,
                hist,
                ..
            } => {
                let agg = state.transports.entry(backend).or_default();
                agg.rounds += 1;
                agg.words += words;
                agg.max_link = agg.max_link.max(*max_link);
                let skew = if *mean_link > 0.0 {
                    *max_link as f64 / mean_link
                } else {
                    0.0
                };
                agg.max_skew = agg.max_skew.max(skew);
                agg.skew_sum += skew;
                agg.barrier_ns += barrier_ns;
                agg.hist.merge(hist);
            }
            Event::FrameBatch {
                backend,
                frames: _,
                bytes,
            } => {
                let agg = state.transports.entry(backend).or_default();
                agg.frame_batches += 1;
                agg.frame_bytes += *bytes as u64;
            }
            Event::ResidentRound {
                backend,
                peer_bytes,
                ..
            } => {
                let agg = state.transports.entry(backend).or_default();
                agg.resident_rounds += 1;
                agg.peer_bytes += peer_bytes;
            }
            Event::NetsimRound {
                sim_ns,
                retransmits,
                stragglers,
                ..
            } => {
                state.netsim.rounds += 1;
                state.netsim.sim_ns += sim_ns;
                state.netsim.retransmits += retransmits;
                state.netsim.stragglers += stragglers;
            }
            // Per-link detail; the per-round aggregate above already counts.
            Event::NetsimRetransmit { .. } => {}
            Event::NetsimFault { kind, .. } => {
                if *kind == "crash" {
                    state.netsim.faults += 1;
                } else {
                    state.netsim.recoveries += 1;
                }
            }
            // A merged worker event updates *worker* attribution only: the
            // global engine/transport aggregates stay the orchestrator's
            // view, so existing single-process assertions keep holding and
            // nothing is double counted.
            Event::Worker { worker, event } => {
                let agg = state.workers.entry(*worker).or_default();
                agg.events += 1;
                match event.as_ref() {
                    Event::FrameBatch { bytes, .. } => {
                        agg.frame_batches += 1;
                        agg.frame_bytes += *bytes as u64;
                    }
                    Event::ResidentRound { peer_bytes, .. } => {
                        agg.resident_rounds += 1;
                        agg.peer_bytes += peer_bytes;
                    }
                    Event::KernelDecision { .. } => agg.kernel_decisions += 1,
                    Event::Counter {
                        name: "worker_events_dropped",
                        delta,
                    } => agg.events_dropped += delta,
                    Event::ConfigWarning {
                        owner,
                        var,
                        raw,
                        expected,
                        using,
                    } => {
                        agg.config_warnings += 1;
                        push_warning(&mut state, owner, var, raw, expected, using);
                    }
                    _ => {}
                }
            }
            Event::Reset { .. } => {
                *state.counters.entry("clique_resets").or_insert(0) += 1;
            }
            Event::BarrierLane {
                backend,
                epoch,
                worker,
                wall_ns,
            } => {
                state
                    .lanes
                    .entry((backend, *epoch))
                    .or_default()
                    .push((*worker, *wall_ns));
                let agg = state.workers.entry(*worker).or_default();
                agg.lane_ns += wall_ns;
                agg.lanes += 1;
            }
        }
        if state.recent.len() >= Self::RECENT_CAP {
            state.recent.pop_front();
            state.dropped += 1;
        }
        state.recent.push_back(event.clone());
    }
}

/// Records one config warning with cross-process deduplication: the
/// rendered message lands in `warnings` the first time any process reports
/// it; repeats (each worker re-parses the same knob) only bump its count.
fn push_warning(
    state: &mut MemorySnapshot,
    owner: &str,
    var: &str,
    raw: &str,
    expected: &str,
    using: &str,
) {
    let msg = format!(
        "{owner}: ignoring unrecognised {var}={raw:?} (expected {expected}); using {using}"
    );
    let count = state.warning_counts.entry(msg.clone()).or_insert(0);
    *count += 1;
    if *count == 1 {
        state.warnings.push(msg);
    }
}

/// Appends one JSON object per event to a file (the `full:path` /
/// `rounds:path` sink). Write errors are swallowed after creation —
/// telemetry must never fail the run.
///
/// Every record is flushed through to the file immediately: the global
/// handle lives in a `static` that is never dropped, so any bytes still
/// buffered at process exit would be lost (and short runs would trace
/// nothing at all).
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<LineWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    /// Propagates the [`File::create`] failure so the caller can fall back
    /// to another sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            out: Mutex::new(LineWriter::new(file)),
        })
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut out = self.out.lock().expect("telemetry writer poisoned");
        let _ = writeln!(out, "{}", event_json(event));
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("telemetry writer poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Worker-side buffering sink for distributed capture: events accumulate
/// in memory as [`crate::event_json`] lines and are drained by the
/// transport worker loop into `Frame::Telemetry` payloads piggybacked on
/// the next commit (or the final Shutdown/Release). Bounded — a worker
/// that never reaches a flush point must not grow without limit; drops are
/// surfaced as a synthetic `worker_events_dropped` counter line on the
/// next drain.
#[derive(Debug, Default)]
pub struct WireSink {
    state: Mutex<WireState>,
}

#[derive(Debug, Default)]
struct WireState {
    lines: Vec<String>,
    dropped: u64,
}

impl WireSink {
    /// Maximum buffered lines between drains.
    pub const WIRE_CAP: usize = 65_536;

    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes every buffered event line, leaving the buffer empty. If the
    /// buffer overflowed since the last drain, the first returned line is
    /// a `worker_events_dropped` counter recording the loss.
    #[must_use]
    pub fn drain(&self) -> Vec<String> {
        let mut state = self.state.lock().expect("wire sink poisoned");
        let mut lines = std::mem::take(&mut state.lines);
        if state.dropped > 0 {
            let dropped = std::mem::take(&mut state.dropped);
            lines.insert(
                0,
                event_json(&Event::Counter {
                    name: "worker_events_dropped",
                    delta: dropped,
                }),
            );
        }
        lines
    }

    /// Whether nothing is buffered (drains can be skipped entirely, so an
    /// idle worker ships no telemetry frames at all).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let state = self.state.lock().expect("wire sink poisoned");
        state.lines.is_empty() && state.dropped == 0
    }
}

impl TelemetrySink for WireSink {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("wire sink poisoned");
        if state.lines.len() >= Self::WIRE_CAP {
            state.dropped += 1;
            return;
        }
        state.lines.push(event_json(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(backend: &'static str, loads: &[u64], barrier_ns: u64) -> Event {
        let links = loads.iter().filter(|w| **w > 0).count();
        let words: u64 = loads.iter().sum();
        let max_link = loads.iter().copied().max().unwrap_or(0);
        let mut hist = LinkHistogram::default();
        for &w in loads {
            hist.add(w);
        }
        Event::TransportRound {
            backend,
            epoch: 0,
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
    }

    #[test]
    fn memory_sink_aggregates_counters_gauges_and_warnings() {
        let sink = MemorySink::new();
        sink.record(&Event::Counter {
            name: "config_warnings",
            delta: 1,
        });
        sink.record(&Event::Counter {
            name: "config_warnings",
            delta: 2,
        });
        sink.record(&Event::Gauge {
            name: "hit_rate",
            value: 0.25,
        });
        sink.record(&Event::Gauge {
            name: "hit_rate",
            value: 0.5,
        });
        sink.record(&Event::ConfigWarning {
            owner: "cc-runtime".to_string(),
            var: "CC_EXECUTOR",
            raw: "banana".to_string(),
            expected: "sequential, parallel".to_string(),
            using: "Sequential".to_string(),
        });
        assert_eq!(sink.counter("config_warnings"), 3);
        assert_eq!(sink.gauge("hit_rate"), Some(0.5));
        assert_eq!(sink.counter("missing"), 0);
        let snap = sink.snapshot();
        assert_eq!(snap.warnings.len(), 1);
        assert!(snap.warnings[0].contains("CC_EXECUTOR=\"banana\""));
    }

    #[test]
    fn memory_sink_aggregates_phases_engine_and_transport() {
        let sink = MemorySink::new();
        sink.record(&Event::PhaseEnd {
            name: "mm".to_string(),
            rounds: 3,
            words: 30,
            wall_ns: 100,
        });
        sink.record(&Event::PhaseEnd {
            name: "mm".to_string(),
            rounds: 2,
            words: 20,
            wall_ns: 50,
        });
        sink.record(&Event::EngineRound {
            round: 0,
            live: 4,
            step_ns: 10,
            barrier_ns: 20,
            rounds: 1,
            words: 8,
        });
        sink.record(&Event::ExecutorDispatch {
            pieces: 64,
            threads: 4,
        });
        sink.record(&Event::ExecutorDispatch {
            pieces: 1,
            threads: 1,
        });
        sink.record(&round("inmemory", &[4, 2, 2], 7));
        sink.record(&round("inmemory", &[8, 0, 0], 9));
        sink.record(&Event::FrameBatch {
            backend: "socket",
            frames: 5,
            bytes: 640,
        });

        let snap = sink.snapshot();
        let mm = &snap.phases["mm"];
        assert_eq!((mm.runs, mm.rounds, mm.words, mm.wall_ns), (2, 5, 50, 150));
        assert_eq!(snap.engine.barriers, 1);
        assert_eq!(snap.engine.step_ns, 10);
        assert_eq!((snap.dispatch.inline, snap.dispatch.dispatched), (1, 1));
        assert_eq!(snap.dispatch.pieces, 65);

        let t = &snap.transports["inmemory"];
        assert_eq!(t.rounds, 2);
        assert_eq!(t.words, 16);
        assert_eq!(t.max_link, 8);
        // Round 1: max 4 / mean 8/3; round 2: max 8 / mean 8 = 1.0.
        assert!(
            t.max_skew > 1.49 && t.max_skew < 1.51,
            "skew {}",
            t.max_skew
        );
        assert_eq!(t.barrier_ns, 16);
        assert_eq!(t.hist.total(), 4);

        let s = &snap.transports["socket"];
        assert_eq!((s.frame_batches, s.frame_bytes), (1, 640));
    }

    #[test]
    fn recent_ring_is_bounded_and_reset_clears_everything() {
        let sink = MemorySink::new();
        for i in 0..(MemorySink::RECENT_CAP as u64 + 10) {
            sink.record(&Event::Counter {
                name: "tick",
                delta: i,
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.recent.len(), MemorySink::RECENT_CAP);
        assert_eq!(snap.dropped, 10);
        // Oldest were dropped: the first retained event is delta=10.
        assert_eq!(
            snap.recent[0],
            Event::Counter {
                name: "tick",
                delta: 10
            }
        );

        sink.reset();
        assert_eq!(sink.snapshot(), MemorySnapshot::default());
    }

    #[test]
    fn recent_ring_keeps_order_and_counts_drops_past_the_cap() {
        // Three laps of the ring: what is retained is always the newest
        // RECENT_CAP events, oldest first, and every evicted one is counted.
        let sink = MemorySink::new();
        let cap = MemorySink::RECENT_CAP as u64;
        let total = 3 * cap + 7;
        for i in 0..total {
            sink.record(&Event::Counter {
                name: "tick",
                delta: i,
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.dropped, total - cap);
        let deltas: Vec<u64> = snap
            .recent
            .iter()
            .map(|e| match e {
                Event::Counter { delta, .. } => *delta,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(deltas, (total - cap..total).collect::<Vec<_>>());
        assert_eq!(snap.counters["tick"], (0..total).sum::<u64>());
    }

    #[test]
    fn worker_events_attribute_without_touching_global_aggregates() {
        let sink = MemorySink::new();
        sink.record(&Event::Worker {
            worker: 0,
            event: Box::new(Event::FrameBatch {
                backend: "socket",
                frames: 4,
                bytes: 256,
            }),
        });
        sink.record(&Event::Worker {
            worker: 1,
            event: Box::new(Event::ResidentRound {
                backend: "tcp",
                epoch: 2,
                live: 8,
                peer_bytes: 1024,
                orchestrator_bytes: 0,
            }),
        });
        sink.record(&Event::Worker {
            worker: 1,
            event: Box::new(Event::KernelDecision {
                kernel: "bitset",
                op: "mul_bool",
                n: 64,
                tile: 0,
            }),
        });
        let snap = sink.snapshot();
        assert_eq!(snap.workers.len(), 2);
        let w0 = &snap.workers[&0];
        assert_eq!((w0.events, w0.frame_batches, w0.frame_bytes), (1, 1, 256));
        let w1 = &snap.workers[&1];
        assert_eq!(
            (
                w1.events,
                w1.resident_rounds,
                w1.peer_bytes,
                w1.kernel_decisions
            ),
            (2, 1, 1024, 1)
        );
        // Worker-attributed traffic must not leak into the orchestrator's
        // per-backend aggregates.
        assert!(snap.transports.is_empty());
    }

    #[test]
    fn duplicate_worker_warnings_dedupe_with_per_process_counts() {
        let sink = MemorySink::new();
        let warn = |worker: Option<u32>| {
            let inner = Event::ConfigWarning {
                owner: "cc-runtime".to_string(),
                var: "CC_KERNEL",
                raw: "banana".to_string(),
                expected: "names".to_string(),
                using: "bitset".to_string(),
            };
            match worker {
                Some(w) => Event::Worker {
                    worker: w,
                    event: Box::new(inner),
                },
                None => inner,
            }
        };
        sink.record(&warn(None)); // orchestrator
        sink.record(&warn(Some(0)));
        sink.record(&warn(Some(1)));
        let snap = sink.snapshot();
        assert_eq!(snap.warnings.len(), 1, "one footer line per knob");
        assert_eq!(snap.warning_counts[&snap.warnings[0]], 3);
        assert_eq!(snap.workers[&0].config_warnings, 1);
        assert_eq!(snap.workers[&1].config_warnings, 1);
    }

    #[test]
    fn barrier_lanes_derive_critical_path_and_busy_idle() {
        let sink = MemorySink::new();
        let lane = |epoch, worker, wall_ns| Event::BarrierLane {
            backend: "socket",
            epoch,
            worker,
            wall_ns,
        };
        // Epoch 0: worker 1 closes at 300 (median 200); epoch 1: worker 0
        // closes at 500 (median 100).
        sink.record(&lane(0, 0, 200));
        sink.record(&lane(0, 1, 300));
        sink.record(&lane(0, 2, 100));
        sink.record(&lane(1, 0, 500));
        sink.record(&lane(1, 1, 100));
        sink.record(&lane(1, 2, 50));
        let snap = sink.snapshot();
        let path = snap.critical_path();
        assert_eq!(path.len(), 2);
        assert_eq!(
            (path[0].closer, path[0].max_ns, path[0].median_ns),
            (1, 300, 200)
        );
        assert_eq!(
            (path[1].closer, path[1].max_ns, path[1].median_ns),
            (0, 500, 100)
        );
        let busy_idle = snap.worker_busy_idle();
        // Worker 2: busy 100+50, idle (300-100)+(500-50).
        assert_eq!(busy_idle[&2], (150, 650));
        // The closer of every epoch it closes accrues no idle there.
        assert_eq!(busy_idle[&1], (400, 400));
        assert_eq!(snap.workers[&0].lane_ns, 700);
        assert_eq!(snap.workers[&0].lanes, 2);
    }

    #[test]
    fn wire_sink_buffers_lines_and_reports_overflow() {
        let sink = WireSink::new();
        assert!(sink.is_empty());
        sink.record(&Event::Counter {
            name: "tick",
            delta: 1,
        });
        sink.record(&Event::PhaseStart {
            name: "mm".to_string(),
        });
        assert!(!sink.is_empty());
        let lines = sink.drain();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"counter\""));
        assert!(sink.is_empty());
        assert!(sink.drain().is_empty(), "drain leaves the buffer empty");

        for _ in 0..(WireSink::WIRE_CAP + 3) {
            sink.record(&Event::Counter {
                name: "tick",
                delta: 1,
            });
        }
        let lines = sink.drain();
        assert_eq!(lines.len(), WireSink::WIRE_CAP + 1);
        assert!(
            lines[0].contains("worker_events_dropped") && lines[0].contains("\"delta\":3"),
            "overflow surfaced: {}",
            lines[0]
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path = std::env::temp_dir().join(format!(
            "cc-telemetry-jsonl-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create(&path).expect("create jsonl");
        sink.record(&Event::Counter {
            name: "config_warnings",
            delta: 1,
        });
        sink.record(&Event::PhaseStart {
            name: "mm".to_string(),
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"counter\""));
        assert!(lines[1].contains("\"event\":\"phase_start\""));
        let _ = std::fs::remove_file(&path);
    }
}
