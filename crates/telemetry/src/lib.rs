//! # cc-telemetry: zero-cost-when-disabled observability
//!
//! The determinism contract (rounds/words/fingerprints bit-identical across
//! every executor × transport × service combination) says *that* the stack
//! is correct; this crate says *where wall-clock goes*. Every layer —
//! engine, executor, transport, clique phases, service — emits structured
//! [`Event`]s through one process-global [`Telemetry`] handle, and the
//! events flow to a pluggable [`TelemetrySink`]:
//!
//! * [`MemorySink`] — an in-memory aggregator queryable from tests and
//!   reports: counters, gauges, per-phase wall-clock, per-backend link
//!   histograms, plus a bounded ring of recent raw events.
//! * [`JsonlSink`] — one JSON object per event appended to a file, for
//!   offline analysis.
//! * [`RoundTimeline`] — a human-readable renderer over a memory snapshot.
//!
//! ## Selecting a level: `CC_TRACE`
//!
//! The `CC_TRACE` environment variable picks the level (and optionally the
//! sink) for every default-configured run in the process, mirroring
//! `CC_EXECUTOR` / `CC_TRANSPORT`:
//!
//! ```text
//! CC_TRACE=off                  # default: no sink, near-zero overhead
//! CC_TRACE=summary              # phases, config warnings, service gauges
//! CC_TRACE=rounds               # + per-round engine/transport events
//! CC_TRACE=full                 # + per-dispatch executor decisions
//! CC_TRACE=full:/tmp/run.jsonl  # any level may append ":path" for JSONL
//! ```
//!
//! Without a `:path` suffix, events aggregate into a process-global
//! [`MemorySink`] reachable via [`Telemetry::memory`]. A malformed value —
//! unknown level, empty path, a path on `off` — is rejected as a whole and
//! reported once per process (the shared [`env_config`] contract), exactly
//! like `parallel:banana` or `socket:banana`.
//!
//! ## Observer-only contract
//!
//! Instrumentation never feeds back into the simulation: results, rounds,
//! words, and pattern fingerprints are bit-identical between `CC_TRACE=off`
//! and `CC_TRACE=full` (pinned by the determinism suite). When the level is
//! [`TraceLevel::Off`] — the default — every [`Telemetry::emit`] call is a
//! branch on an already-resolved handle and the event is never even
//! constructed.
//!
//! ## Wire format
//!
//! [`event_json`] writes one event as one JSON line and [`event_from_json`]
//! reads it back: the format of [`JsonlSink`] files and of the lines
//! worker processes ship to the orchestrator
//! ([`Telemetry::merge_worker`]). Each [`Event`] variant is one row of the
//! table in `event.rs`, which generates the variant, its encoder and its
//! decoder. Adding an event means one table row plus one golden line in
//! that file's tests; a round-trip property there covers every row.
//!
//! ## Programmatic use
//!
//! ```rust
//! use cc_telemetry::{Telemetry, TraceLevel};
//!
//! // First install wins; later lazy env initialisation is skipped.
//! let handle = Telemetry::with_memory(TraceLevel::Rounds);
//! let _ = cc_telemetry::install(handle);
//! let tel = cc_telemetry::global();
//! tel.emit(TraceLevel::Rounds, || cc_telemetry::Event::Counter {
//!     name: "example_events",
//!     delta: 1,
//! });
//! if let Some(mem) = tel.memory() {
//!     assert_eq!(mem.counter("example_events"), 1);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env_config;
mod event;
mod sink;
mod timeline;

pub use crate::event::{event_from_json, event_json, Event, LinkHistogram};
pub use crate::sink::{
    DispatchAgg, EngineAgg, EpochPath, JsonlSink, MemorySink, MemorySnapshot, NetsimAgg, PhaseAgg,
    TelemetrySink, TransportAgg, WireSink, WorkerAgg,
};
pub use crate::timeline::RoundTimeline;

use std::sync::{Arc, OnceLock};

/// How much the instrumented stack reports. Levels are ordered: each level
/// includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No sink, no events; emit calls cost one branch (the default).
    #[default]
    Off,
    /// Run-level events: clique phase start/end (with wall-clock), config
    /// warnings, service batch gauges.
    Summary,
    /// Per-round events: engine step/barrier timings and transport link
    /// histograms, one event per round barrier.
    Rounds,
    /// Everything: per-dispatch executor decisions and socket frame-batch
    /// sizes on top of the round events.
    Full,
}

impl TraceLevel {
    /// The lowercase spec name (`"off"`, `"summary"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Rounds => "rounds",
            TraceLevel::Full => "full",
        }
    }
}

/// A parsed `CC_TRACE` spec: the level plus an optional JSONL sink path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSpec {
    /// The trace level.
    pub level: TraceLevel,
    /// JSONL output path (`CC_TRACE=<level>:<path>`); `None` selects the
    /// in-memory aggregator.
    pub path: Option<String>,
}

impl TraceSpec {
    /// The accepted grammar, for warning messages.
    pub const EXPECTED: &'static str = "off, summary, rounds, or full[:path]";

    /// Parses a `CC_TRACE` spec: a level name (`off`, `summary`, `rounds`,
    /// `full`), optionally suffixed `:<path>` to write JSONL instead of
    /// aggregating in memory. `None` for unknown names **or** malformed
    /// sink suffixes — `full:` (empty path) and `off:anything` (a sink on a
    /// disabled level) must not silently mean something else, mirroring the
    /// `parallel:banana` / `socket:banana` contract.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let (name, path) = match raw.split_once(':') {
            Some((name, path)) => (name, Some(path)),
            None => (raw, None),
        };
        let level = match name.to_ascii_lowercase().as_str() {
            "off" | "none" => TraceLevel::Off,
            "summary" => TraceLevel::Summary,
            "rounds" => TraceLevel::Rounds,
            "full" => TraceLevel::Full,
            _ => return None,
        };
        match path {
            None => Some(Self { level, path: None }),
            Some("") => None, // `full:` — an empty sink path is malformed
            Some(_) if level == TraceLevel::Off => None, // `off:path` is contradictory
            Some(p) => Some(Self {
                level,
                path: Some(p.to_string()),
            }),
        }
    }

    /// Resolves a `CC_TRACE` spec against the shared [`env_config`]
    /// machinery: `None` (unset) resolves to the fallback, a parseable
    /// value to its spec, and a malformed value to an error carrying the
    /// raw spec.
    pub fn resolve(spec: Option<&str>, fallback: TraceSpec) -> Result<Self, String> {
        env_config::resolve(spec, fallback, Self::parse)
    }
}

/// The telemetry handle every instrumented layer emits through: a level and
/// an optional sink. Cloning is cheap (the sink is shared).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    level: TraceLevel,
    sink: Option<Arc<dyn TelemetrySink>>,
    /// Set when the sink is the in-memory aggregator, so captures stay
    /// queryable without downcasting.
    memory: Option<Arc<MemorySink>>,
}

impl Telemetry {
    /// A disabled handle: no sink, every emit is a cheap branch.
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// A handle recording into a fresh in-memory aggregator at `level`.
    #[must_use]
    pub fn with_memory(level: TraceLevel) -> Self {
        if level == TraceLevel::Off {
            return Self::off();
        }
        let memory = Arc::new(MemorySink::default());
        Self {
            level,
            sink: Some(memory.clone() as Arc<dyn TelemetrySink>),
            memory: Some(memory),
        }
    }

    /// A handle recording into an explicit sink at `level`.
    #[must_use]
    pub fn with_sink(level: TraceLevel, sink: Arc<dyn TelemetrySink>) -> Self {
        if level == TraceLevel::Off {
            return Self::off();
        }
        Self {
            level,
            sink: Some(sink),
            memory: None,
        }
    }

    /// Builds the handle a [`TraceSpec`] describes: no sink for
    /// [`TraceLevel::Off`], the in-memory aggregator when no path is given,
    /// a [`JsonlSink`] otherwise. An unwritable path is reported once on
    /// stderr and falls back to the in-memory aggregator — a broken
    /// observer must not kill the run.
    #[must_use]
    pub fn from_spec(spec: &TraceSpec) -> Self {
        match (&spec.path, spec.level) {
            (_, TraceLevel::Off) => Self::off(),
            (None, level) => Self::with_memory(level),
            (Some(path), level) => match JsonlSink::create(path) {
                Ok(sink) => Self::with_sink(level, Arc::new(sink)),
                Err(e) => {
                    eprintln!(
                        "cc-telemetry: cannot open CC_TRACE sink {path:?} ({e}); \
                         using the in-memory aggregator"
                    );
                    Self::with_memory(level)
                }
            },
        }
    }

    /// The handle the `CC_TRACE` environment variable describes. A
    /// malformed value is reported once per process and falls back to
    /// [`TraceLevel::Off`] — the stderr path is used directly here because
    /// this *is* the global handle's initialiser (routing the warning
    /// through [`global`] would re-enter it).
    #[must_use]
    pub fn from_env() -> Self {
        let spec = match std::env::var("CC_TRACE") {
            Err(_) => TraceSpec::default(),
            Ok(raw) => match TraceSpec::parse(&raw) {
                Some(spec) => spec,
                None => {
                    env_config::warn_once_stderr(
                        "cc-telemetry",
                        "CC_TRACE",
                        &raw,
                        TraceSpec::EXPECTED,
                        "off",
                    );
                    TraceSpec::default()
                }
            },
        };
        Self::from_spec(&spec)
    }

    /// The configured level.
    #[must_use]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether events at `at` are recorded. The cheap guard hot paths use
    /// before doing any measurement work (taking timestamps, walking
    /// loads).
    #[inline]
    #[must_use]
    pub fn enabled(&self, at: TraceLevel) -> bool {
        at > TraceLevel::Off && at <= self.level && self.sink.is_some()
    }

    /// Records the event `make` builds, if `at` is enabled. The closure is
    /// never called when disabled, so emit sites cost one branch at
    /// [`TraceLevel::Off`].
    #[inline]
    pub fn emit(&self, at: TraceLevel, make: impl FnOnce() -> Event) {
        if self.enabled(at) {
            if let Some(sink) = &self.sink {
                sink.record(&make());
            }
        }
    }

    /// The in-memory aggregator, when this handle records into one.
    #[must_use]
    pub fn memory(&self) -> Option<&Arc<MemorySink>> {
        self.memory.as_ref()
    }

    /// Merges one worker's shipped event lines (the `Frame::Telemetry`
    /// payload: [`event_json`] lines drained from the worker's
    /// [`WireSink`]) into this handle's sink, wrapping each parsed event
    /// in [`Event::Worker`] for per-process attribution. Malformed lines
    /// are skipped — a corrupt capture must not fail the run — and a
    /// sink-less handle ignores the batch entirely.
    pub fn merge_worker(&self, worker: u32, lines: &[String]) {
        let Some(sink) = &self.sink else { return };
        for line in lines {
            if let Some(event) = event_from_json(line) {
                sink.record(&Event::Worker {
                    worker,
                    event: Box::new(event),
                });
            }
        }
    }

    /// Flushes the sink (a no-op for the memory sink).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Installs `telemetry` as the process-global handle. First install wins —
/// including the lazy `CC_TRACE` initialisation performed by the first
/// [`global`] call — so programmatic installs (tests, reports, examples)
/// must run before any instrumented layer is touched. Returns the rejected
/// handle when the global was already initialised.
pub fn install(telemetry: Telemetry) -> Result<(), Telemetry> {
    GLOBAL.set(telemetry)
}

/// The process-global telemetry handle every instrumented layer emits
/// through. Initialised on first use from `CC_TRACE` unless [`install`] ran
/// first.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::from_env)
}

/// The global handle if it was already initialised, without triggering the
/// lazy `CC_TRACE` initialisation. Used by [`env_config::warn_once`] so a
/// warning fired *during* global initialisation cannot re-enter it.
pub(crate) fn global_if_initialised() -> Option<&'static Telemetry> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_inclusive() {
        assert!(TraceLevel::Off < TraceLevel::Summary);
        assert!(TraceLevel::Summary < TraceLevel::Rounds);
        assert!(TraceLevel::Rounds < TraceLevel::Full);
        let tel = Telemetry::with_memory(TraceLevel::Rounds);
        assert!(tel.enabled(TraceLevel::Summary));
        assert!(tel.enabled(TraceLevel::Rounds));
        assert!(!tel.enabled(TraceLevel::Full));
        assert!(!tel.enabled(TraceLevel::Off), "Off is never an emit level");
    }

    #[test]
    fn spec_parser_accepts_known_levels() {
        assert_eq!(
            TraceSpec::parse("off"),
            Some(TraceSpec {
                level: TraceLevel::Off,
                path: None
            })
        );
        assert_eq!(
            TraceSpec::parse("SUMMARY"),
            Some(TraceSpec {
                level: TraceLevel::Summary,
                path: None
            })
        );
        assert_eq!(
            TraceSpec::parse("rounds"),
            Some(TraceSpec {
                level: TraceLevel::Rounds,
                path: None
            })
        );
        assert_eq!(
            TraceSpec::parse("full:/tmp/t.jsonl"),
            Some(TraceSpec {
                level: TraceLevel::Full,
                path: Some("/tmp/t.jsonl".to_string())
            })
        );
        assert_eq!(TraceSpec::parse("verbose"), None);
    }

    #[test]
    fn spec_parser_rejects_malformed_sink_suffixes() {
        // The `parallel:banana` contract: a malformed suffix rejects the
        // whole spec so `from_env` warns once and falls back, instead of
        // the spec silently meaning something else.
        assert_eq!(TraceSpec::parse("full:"), None, "empty sink path");
        assert_eq!(TraceSpec::parse("rounds:"), None, "empty sink path");
        assert_eq!(
            TraceSpec::parse("off:/tmp/t.jsonl"),
            None,
            "a sink on a disabled level is contradictory, not ignorable"
        );
        assert_eq!(TraceSpec::parse("off:"), None);
        assert_eq!(TraceSpec::parse(""), None);
        assert_eq!(TraceSpec::parse(":path"), None, "missing level");
    }

    #[test]
    fn spec_resolution_reports_malformed_specs() {
        // The shared env_config contract, exercised end to end for the new
        // knob: unset resolves to the fallback silently, malformed values
        // surface as errors carrying the raw spec.
        let fb = TraceSpec::default();
        assert_eq!(TraceSpec::resolve(None, fb.clone()), Ok(fb.clone()));
        assert_eq!(
            TraceSpec::resolve(Some("rounds"), fb.clone()),
            Ok(TraceSpec {
                level: TraceLevel::Rounds,
                path: None
            })
        );
        assert_eq!(
            TraceSpec::resolve(Some("full:"), fb.clone()),
            Err("full:".to_string())
        );
        assert_eq!(
            TraceSpec::resolve(Some("banana"), fb),
            Err("banana".to_string())
        );
    }

    #[test]
    fn off_handles_have_no_sink_and_never_build_events() {
        let tel = Telemetry::off();
        assert!(!tel.enabled(TraceLevel::Summary));
        let mut built = false;
        tel.emit(TraceLevel::Summary, || {
            built = true;
            Event::Counter {
                name: "never",
                delta: 1,
            }
        });
        assert!(!built, "disabled emit must not construct the event");
        // An Off spec yields no sink even through the constructors that
        // normally attach one.
        assert!(Telemetry::with_memory(TraceLevel::Off).memory().is_none());
        assert!(Telemetry::from_spec(&TraceSpec::default())
            .memory()
            .is_none());
    }

    #[test]
    fn merge_worker_attributes_parsed_lines_and_skips_garbage() {
        let tel = Telemetry::with_memory(TraceLevel::Full);
        let lines = vec![
            event_json(&Event::FrameBatch {
                backend: "socket",
                frames: 2,
                bytes: 128,
            }),
            "not json at all".to_string(),
            event_json(&Event::Counter {
                name: "worker_events_dropped",
                delta: 5,
            }),
        ];
        tel.merge_worker(3, &lines);
        let snap = tel.memory().expect("memory handle").snapshot();
        let agg = &snap.workers[&3];
        assert_eq!(
            (agg.events, agg.frame_batches, agg.frame_bytes),
            (2, 1, 128)
        );
        assert_eq!(agg.events_dropped, 5, "the worker's overflow count arrives");
        // Worker traffic stays out of the orchestrator's transport view.
        assert!(snap.transports.is_empty());
        // A sink-less handle ignores merges without panicking.
        Telemetry::off().merge_worker(0, &lines);
    }

    #[test]
    fn memory_handles_capture_emitted_events() {
        let tel = Telemetry::with_memory(TraceLevel::Summary);
        tel.emit(TraceLevel::Summary, || Event::Counter {
            name: "widgets",
            delta: 3,
        });
        tel.emit(TraceLevel::Full, || Event::Counter {
            name: "widgets",
            delta: 100, // above the level: dropped
        });
        let mem = tel.memory().expect("memory handle");
        assert_eq!(mem.counter("widgets"), 3);
    }
}
