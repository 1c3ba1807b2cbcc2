//! Human-readable rendering of a capture: one line per engine/transport
//! round from the recent-event ring, plus aggregate footers.

use std::fmt;

use crate::event::{Event, LinkHistogram};
use crate::sink::MemorySnapshot;

/// A renderable timeline built from a [`MemorySnapshot`]. `Display` prints
/// per-round lines (from the bounded recent-event ring, so very long
/// captures show only the tail) followed by phase and transport totals.
#[derive(Debug, Clone)]
pub struct RoundTimeline {
    snapshot: MemorySnapshot,
}

impl RoundTimeline {
    /// Wraps a snapshot for rendering.
    #[must_use]
    pub fn from_snapshot(snapshot: &MemorySnapshot) -> Self {
        Self {
            snapshot: snapshot.clone(),
        }
    }
}

/// Compact sparkline-style rendering of a link histogram: one glyph per
/// non-empty leading range, scaled to the largest bucket.
fn render_hist(hist: &LinkHistogram) -> String {
    const GLYPHS: [char; 5] = ['.', ':', '+', '*', '#'];
    let top = hist.buckets.iter().copied().max().unwrap_or(0);
    if top == 0 {
        return "-".to_string();
    }
    let last = hist.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
    hist.buckets[..=last]
        .iter()
        .map(|&b| {
            if b == 0 {
                '_'
            } else {
                GLYPHS[((b * GLYPHS.len() as u64).div_ceil(top)) as usize - 1]
            }
        })
        .collect()
}

/// The ring line of a wire-visible event (frame batch, resident round,
/// config warning) on the lane `prefix` names: empty for the
/// orchestrator, `"w<id> "` for a merged worker event. Other events render
/// nothing here.
fn lane_line(f: &mut fmt::Formatter<'_>, prefix: &str, event: &Event) -> fmt::Result {
    match event {
        Event::FrameBatch {
            backend,
            frames,
            bytes,
        } => writeln!(
            f,
            "  {prefix}{backend} batch: frames={frames} bytes={bytes}"
        ),
        Event::ResidentRound {
            backend,
            epoch,
            live,
            peer_bytes,
            orchestrator_bytes,
        } => writeln!(
            f,
            "  {prefix}{backend} resident epoch {epoch:>4}: live={live} \
             peer_bytes={peer_bytes} orchestrator_bytes={orchestrator_bytes}"
        ),
        Event::ConfigWarning { owner, var, .. } => {
            writeln!(f, "  {prefix}warning: {owner} ignored malformed {var}")
        }
        _ => Ok(()),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

impl fmt::Display for RoundTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = &self.snapshot;
        if snap.dropped > 0 {
            writeln!(
                f,
                "(timeline tail: {} earlier events dropped from the ring)",
                snap.dropped
            )?;
        }
        for event in &snap.recent {
            match event {
                Event::PhaseStart { name } => writeln!(f, "phase {name} {{")?,
                Event::PhaseEnd {
                    name,
                    rounds,
                    words,
                    wall_ns,
                } => writeln!(
                    f,
                    "}} phase {name}: rounds={rounds} words={words} wall={:.3}ms",
                    ms(*wall_ns)
                )?,
                Event::EngineRound {
                    round,
                    live,
                    step_ns,
                    barrier_ns,
                    rounds,
                    words,
                } => writeln!(
                    f,
                    "  engine round {round:>4}: live={live} step={:.3}ms barrier={:.3}ms \
                     rounds={rounds} words={words}",
                    ms(*step_ns),
                    ms(*barrier_ns)
                )?,
                Event::TransportRound {
                    backend,
                    epoch,
                    links,
                    words,
                    max_link,
                    mean_link,
                    barrier_ns,
                    hist,
                } => writeln!(
                    f,
                    "  {backend} epoch {epoch:>4}: links={links} words={words} \
                     max={max_link} mean={mean_link:.1} barrier={:.3}ms hist=[{}]",
                    ms(*barrier_ns),
                    render_hist(hist)
                )?,
                Event::FrameBatch { .. }
                | Event::ResidentRound { .. }
                | Event::ConfigWarning { .. } => lane_line(f, "", event)?,
                Event::NetsimRound {
                    profile,
                    epoch,
                    links,
                    sim_ns,
                    retransmits,
                    stragglers,
                } => writeln!(
                    f,
                    "  netsim[{profile}] epoch {epoch:>4}: links={links} sim={:.3}ms \
                     retransmits={retransmits} stragglers={stragglers}",
                    ms(*sim_ns)
                )?,
                Event::NetsimFault {
                    profile,
                    epoch,
                    node,
                    kind,
                    state_words,
                } => writeln!(
                    f,
                    "  netsim[{profile}] epoch {epoch:>4}: {kind} node {node} \
                     (state_words={state_words})"
                )?,
                Event::Reset {
                    rounds,
                    words,
                    epoch,
                } => writeln!(
                    f,
                    "-- reset: discarded rounds={rounds} words={words} (fabric epoch {epoch})"
                )?,
                // Merged worker events render with a `w<id>` lane prefix;
                // only the worker's wire-visible activity shows in the
                // ring — the rest lands in the per-worker footer.
                Event::Worker { worker, event } => lane_line(f, &format!("w{worker} "), event)?,
                Event::Counter { .. }
                | Event::Gauge { .. }
                | Event::ExecutorDispatch { .. }
                | Event::KernelDecision { .. }
                | Event::BarrierLane { .. }
                | Event::NetsimRetransmit { .. } => {}
            }
        }

        if !snap.phases.is_empty() {
            writeln!(f, "phases:")?;
            for (name, agg) in &snap.phases {
                writeln!(
                    f,
                    "  {name}: runs={} rounds={} words={} wall={:.3}ms",
                    agg.runs,
                    agg.rounds,
                    agg.words,
                    ms(agg.wall_ns)
                )?;
            }
        }
        if snap.engine.barriers > 0 {
            writeln!(
                f,
                "engine: barriers={} step={:.3}ms barrier={:.3}ms rounds={} words={}",
                snap.engine.barriers,
                ms(snap.engine.step_ns),
                ms(snap.engine.barrier_ns),
                snap.engine.rounds,
                snap.engine.words
            )?;
        }
        if snap.dispatch.inline + snap.dispatch.dispatched > 0 {
            writeln!(
                f,
                "executor: inline={} dispatched={} pieces={}",
                snap.dispatch.inline, snap.dispatch.dispatched, snap.dispatch.pieces
            )?;
        }
        for (backend, agg) in &snap.transports {
            let mean_skew = if agg.rounds > 0 {
                agg.skew_sum / agg.rounds as f64
            } else {
                0.0
            };
            writeln!(
                f,
                "{backend}: rounds={} words={} max_link={} skew(max/mean)={:.2}/{:.2} \
                 barrier={:.3}ms batches={} hist=[{}]",
                agg.rounds,
                agg.words,
                agg.max_link,
                agg.max_skew,
                mean_skew,
                ms(agg.barrier_ns),
                agg.frame_batches,
                render_hist(&agg.hist)
            )?;
        }
        if snap.netsim.rounds > 0 {
            writeln!(
                f,
                "netsim: rounds={} sim={:.3}ms retransmits={} stragglers={} \
                 faults={} recoveries={}",
                snap.netsim.rounds,
                ms(snap.netsim.sim_ns),
                snap.netsim.retransmits,
                snap.netsim.stragglers,
                snap.netsim.faults,
                snap.netsim.recoveries
            )?;
        }
        let path = snap.critical_path();
        if !path.is_empty() {
            const PATH_TAIL: usize = 64;
            writeln!(f, "critical path:")?;
            if path.len() > PATH_TAIL {
                writeln!(f, "  ({} earlier epochs omitted)", path.len() - PATH_TAIL)?;
            }
            for ep in path.iter().skip(path.len().saturating_sub(PATH_TAIL)) {
                let lanes: Vec<String> = ep
                    .lanes
                    .iter()
                    .map(|&(w, ns)| {
                        let star = if w == ep.closer { "*" } else { "" };
                        format!("w{w}={:.3}ms{star}", ms(ns))
                    })
                    .collect();
                let skew = if ep.median_ns > 0 {
                    ep.max_ns as f64 / ep.median_ns as f64
                } else {
                    0.0
                };
                writeln!(
                    f,
                    "  {} epoch {:>4}: closer=w{} max={:.3}ms median={:.3}ms skew={:.2} \
                     lanes[{}]",
                    ep.backend,
                    ep.epoch,
                    ep.closer,
                    ms(ep.max_ns),
                    ms(ep.median_ns),
                    skew,
                    lanes.join(" ")
                )?;
            }
        }
        if !snap.workers.is_empty() {
            let busy_idle = snap.worker_busy_idle();
            writeln!(f, "workers:")?;
            for (id, agg) in &snap.workers {
                let (busy, idle) = busy_idle.get(id).copied().unwrap_or((0, 0));
                writeln!(
                    f,
                    "  w{id}: events={} batches={} resident={} peer_bytes={} kernel={} \
                     warnings={} busy={:.3}ms idle={:.3}ms dropped={}",
                    agg.events,
                    agg.frame_batches,
                    agg.resident_rounds,
                    agg.peer_bytes,
                    agg.kernel_decisions,
                    agg.config_warnings,
                    ms(busy),
                    ms(idle),
                    agg.events_dropped
                )?;
            }
        }
        for (name, value) in &snap.gauges {
            writeln!(f, "gauge {name} = {value}")?;
        }
        if !snap.warnings.is_empty() {
            writeln!(f, "warnings (deduped across processes):")?;
            for w in &snap.warnings {
                let count = snap.warning_counts.get(w).copied().unwrap_or(1);
                if count > 1 {
                    writeln!(f, "  {w} [x{count} processes]")?;
                } else {
                    writeln!(f, "  {w}")?;
                }
            }
        }
        if let Some(warns) = snap.counters.get("config_warnings") {
            writeln!(f, "config warnings: {warns}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, TelemetrySink};

    #[test]
    fn timeline_renders_rounds_phases_and_totals() {
        let sink = MemorySink::new();
        sink.record(&Event::PhaseStart {
            name: "triangles".to_string(),
        });
        sink.record(&Event::EngineRound {
            round: 0,
            live: 8,
            step_ns: 1_500_000,
            barrier_ns: 250_000,
            rounds: 2,
            words: 64,
        });
        let mut hist = LinkHistogram::default();
        hist.add(8);
        hist.add(2);
        sink.record(&Event::TransportRound {
            backend: "inmemory",
            epoch: 0,
            links: 2,
            words: 10,
            max_link: 8,
            mean_link: 5.0,
            barrier_ns: 90_000,
            hist,
        });
        sink.record(&Event::PhaseEnd {
            name: "triangles".to_string(),
            rounds: 2,
            words: 64,
            wall_ns: 2_000_000,
        });
        sink.record(&Event::Gauge {
            name: "service_cache_entries",
            value: 3.0,
        });

        let text = RoundTimeline::from_snapshot(&sink.snapshot()).to_string();
        assert!(text.contains("phase triangles {"), "{text}");
        assert!(text.contains("engine round    0"), "{text}");
        assert!(text.contains("inmemory epoch    0"), "{text}");
        assert!(text.contains("phases:"), "{text}");
        assert!(text.contains("gauge service_cache_entries = 3"), "{text}");
    }

    #[test]
    fn timeline_renders_worker_lanes_and_critical_path() {
        let sink = MemorySink::new();
        sink.record(&Event::Worker {
            worker: 0,
            event: Box::new(Event::FrameBatch {
                backend: "socket",
                frames: 3,
                bytes: 192,
            }),
        });
        sink.record(&Event::Worker {
            worker: 1,
            event: Box::new(Event::ResidentRound {
                backend: "tcp",
                epoch: 0,
                live: 4,
                peer_bytes: 512,
                orchestrator_bytes: 0,
            }),
        });
        sink.record(&Event::BarrierLane {
            backend: "socket",
            epoch: 0,
            worker: 0,
            wall_ns: 2_000_000,
        });
        sink.record(&Event::BarrierLane {
            backend: "socket",
            epoch: 0,
            worker: 1,
            wall_ns: 3_000_000,
        });
        sink.record(&Event::Reset {
            rounds: 7,
            words: 99,
            epoch: 4,
        });

        let text = RoundTimeline::from_snapshot(&sink.snapshot()).to_string();
        assert!(text.contains("w0 socket batch: frames=3"), "{text}");
        assert!(text.contains("w1 tcp resident epoch"), "{text}");
        assert!(text.contains("critical path:"), "{text}");
        assert!(
            text.contains("closer=w1 max=3.000ms median=3.000ms"),
            "{text}"
        );
        assert!(text.contains("w1=3.000ms*"), "closer starred: {text}");
        assert!(text.contains("workers:"), "{text}");
        assert!(text.contains("w0: events=1 batches=1"), "{text}");
        assert!(text.contains("busy=2.000ms idle=1.000ms"), "{text}");
        assert!(
            text.contains("-- reset: discarded rounds=7 words=99"),
            "{text}"
        );
    }

    #[test]
    fn duplicate_warnings_render_once_with_process_counts() {
        let sink = MemorySink::new();
        let warning = Event::ConfigWarning {
            owner: "cc-transport".to_string(),
            var: "CC_TRANSPORT",
            raw: "banana".to_string(),
            expected: "names".to_string(),
            using: "inmemory".to_string(),
        };
        sink.record(&warning);
        for worker in 0..2 {
            sink.record(&Event::Worker {
                worker,
                event: Box::new(warning.clone()),
            });
        }
        let text = RoundTimeline::from_snapshot(&sink.snapshot()).to_string();
        assert_eq!(
            text.matches("ignoring unrecognised CC_TRANSPORT").count(),
            1,
            "one footer line per knob: {text}"
        );
        assert!(text.contains("[x3 processes]"), "{text}");
    }

    #[test]
    fn histogram_rendering_marks_empty_and_scaled_buckets() {
        let mut h = LinkHistogram::default();
        assert_eq!(render_hist(&h), "-");
        h.add(1); // bucket 0
        h.add(8); // bucket 3
        h.add(8);
        let s = render_hist(&h);
        assert_eq!(s.len(), 4, "{s}");
        assert!(s.chars().nth(1) == Some('_') && s.chars().nth(2) == Some('_'));
        assert_eq!(s.chars().last(), Some('#'));
    }
}
