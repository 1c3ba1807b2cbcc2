//! `cc-report`: unified bench telemetry collation.
//!
//! Runs one instrumented clique + service workload per transport backend
//! under a full-level in-memory telemetry capture, then writes
//! `BENCH_telemetry.json` at the workspace root: a schema-versioned record
//! holding per-phase wall-clock, per-round link-skew histograms, engine and
//! executor aggregates, and service cache/coalescing gauges — with every
//! existing `BENCH_*.json` artifact spliced in verbatim, so one file tells
//! the whole performance story.
//!
//! Run after `cargo build --release` (the socket and tcp backends exec the
//! `cc-clique-node` worker binary): `cargo run --release -p cc-bench --bin
//! cc-report`.
//!
//! `cc-report --replay <capture.jsonl>` skips the workloads entirely:
//! it parses an existing [`cc_telemetry::JsonlSink`] capture back into a
//! fresh in-memory aggregate and prints the human [`RoundTimeline`] —
//! offline rendering for traces recorded on another machine or an earlier
//! run.

use cc_clique::{Clique, CliqueConfig, ExecutorKind, TransportKind};
use cc_graph::{generators, oracle};
use cc_service::{Query, Service, ServiceConfig, ServiceMode};
use cc_telemetry::{
    self as telemetry, event_from_json, MemorySink, MemorySnapshot, RoundTimeline, Telemetry,
    TraceLevel,
};
use std::fmt::Write as _;

/// Bumped whenever a field is renamed, retyped, or removed (additions are
/// compatible). CI greps the artifact for this exact version.
///
/// v2: distributed capture — per-backend `workers` columns (per-process
/// event attribution), `critical_path` table (per-epoch closer / straggler
/// skew), and the `worker_events_total` counter join the v1 fields.
const SCHEMA_VERSION: u32 = 2;

const N: usize = 16;
const SEED: u64 = 2015;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 2 && args[1] == "--replay" {
        let Some(path) = args.get(2) else {
            eprintln!("usage: cc-report --replay <capture.jsonl>");
            std::process::exit(2);
        };
        replay(path);
        return;
    }

    // The capture must exist before any instrumented layer runs; failing
    // that, `CC_TRACE` from the environment would decide the level and the
    // report could come up empty.
    telemetry::install(Telemetry::with_memory(TraceLevel::Full))
        .expect("cc-report must install telemetry before any workload");
    let mem = telemetry::global()
        .memory()
        .expect("with_memory aggregates in memory");

    let backends: [(&str, TransportKind); 4] = [
        ("inmemory", TransportKind::InMemory),
        ("socket", TransportKind::Socket { workers: 2 }),
        (
            "tcp",
            TransportKind::Tcp {
                workers: 2,
                resident: false,
                addr: None,
            },
        ),
        (
            "tcp-peer",
            TransportKind::Tcp {
                workers: 2,
                resident: true,
                addr: None,
            },
        ),
    ];

    let mut sections = String::new();
    for (label, transport) in backends {
        mem.reset();
        run_workloads(transport);
        let snap = mem.snapshot();
        if !sections.is_empty() {
            sections.push_str(",\n");
        }
        let _ = write!(sections, "    \"{label}\": {}", backend_json(&snap));
        let wire = label.split('-').next().unwrap_or(label);
        println!(
            "captured {label}: {} phases, {} transport rounds, {} gauges, \
             {} worker events from {} workers",
            snap.phases.len(),
            snap.transports.get(wire).map_or(0, |t| t.rounds),
            snap.gauges.len(),
            snap.workers.values().map(|w| w.events).sum::<u64>(),
            snap.workers.len()
        );
    }

    let collated = collate_existing_artifacts();
    let json = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"note\": \"Unified telemetry \
         capture: per backend, a phased clique workload (triangles + exact APSP, n = {N}) \
         and a duplicate-heavy service batch, traced at CC_TRACE=full into the in-memory \
         aggregator. wall/step/barrier figures are nanoseconds; link_hist_pow2[i] counts \
         per-round links carrying [2^i, 2^(i+1)) words; workers holds per-process event \
         attribution merged from the multi-process backends' wire snapshots; critical_path \
         lists, per barrier epoch, the worker that closed it last and its skew over the \
         median lane; collated embeds the standalone BENCH_*.json artifacts \
         verbatim.\",\n  \"backends\": {{\n{sections}\n  }},\n  \
         \"collated\": {collated}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    std::fs::write(path, &json).expect("write BENCH_telemetry.json");
    println!("wrote {path}");
}

/// The instrumented workload one backend runs: two named clique phases
/// (exercising engine rounds, executor dispatch, and per-round link loads)
/// plus a service batch with duplicates (exercising coalescing, the result
/// cache, and the warm pool gauges).
fn run_workloads(transport: TransportKind) {
    let g = generators::gnp(N, 0.35, SEED);
    let weighted = generators::weighted_gnp(N, 0.3, 9, true, SEED ^ 0xfeed);
    let cfg = CliqueConfig {
        executor: ExecutorKind::Parallel { threads: 2 },
        exec_cutover: Some(2),
        transport,
        ..CliqueConfig::default()
    };

    let mut clique = Clique::with_config(N, cfg.clone());
    let triangles = clique.phase("report.triangles", |c| {
        cc_subgraph::count_triangles_program(c, &g)
    });
    assert_eq!(triangles, oracle::count_triangles(&g), "report run corrupt");
    let tables = clique.phase("report.apsp", |c| cc_apsp::apsp_exact(c, &weighted));
    assert_eq!(tables.dist.n(), N);

    let mut svc = Service::new(ServiceConfig {
        clique: cfg,
        mode: ServiceMode::Batch { instances: 2 },
        ..ServiceConfig::default()
    });
    let gid = svc.register(g);
    for q in [
        Query::TriangleCount,
        Query::TriangleCount,
        Query::ApspTable,
        Query::Distance { s: 0, t: N - 1 },
    ] {
        let _ = svc.submit(gid, q);
    }
    svc.drain();
    // A second pure-hit batch so the hit-rate gauge reflects warm serving.
    let _ = svc.query(gid, Query::TriangleCount);
}

/// One backend's capture as a JSON object (hand-rolled: the workspace has
/// no serde, by design).
fn backend_json(snap: &MemorySnapshot) -> String {
    let mut phases = String::new();
    for (name, p) in &snap.phases {
        if !phases.is_empty() {
            phases.push_str(", ");
        }
        let _ = write!(
            phases,
            "{}: {{\"runs\": {}, \"rounds\": {}, \"words\": {}, \"wall_ns\": {}}}",
            json_string(name),
            p.runs,
            p.rounds,
            p.words,
            p.wall_ns
        );
    }

    let mut transports = String::new();
    for (backend, t) in &snap.transports {
        if !transports.is_empty() {
            transports.push_str(", ");
        }
        let hist: Vec<String> = t.hist.buckets.iter().map(u64::to_string).collect();
        let mean_skew = if t.rounds > 0 {
            t.skew_sum / t.rounds as f64
        } else {
            0.0
        };
        let _ = write!(
            transports,
            "\"{backend}\": {{\"rounds\": {}, \"words\": {}, \"max_link_words\": {}, \
             \"max_round_skew\": {:.4}, \"mean_round_skew\": {:.4}, \"barrier_ns\": {}, \
             \"link_hist_pow2\": [{}], \"frame_batches\": {}, \"frame_bytes\": {}}}",
            t.rounds,
            t.words,
            t.max_link,
            t.max_skew,
            mean_skew,
            t.barrier_ns,
            hist.join(", "),
            t.frame_batches,
            t.frame_bytes
        );
    }

    let mut gauges = String::new();
    for (name, value) in &snap.gauges {
        if !gauges.is_empty() {
            gauges.push_str(", ");
        }
        let _ = write!(gauges, "\"{name}\": {value:.6}");
    }
    let mut counters = String::new();
    for (name, value) in &snap.counters {
        if !counters.is_empty() {
            counters.push_str(", ");
        }
        let _ = write!(counters, "\"{name}\": {value}");
    }

    // Distributed-capture columns (schema v2): one object per worker
    // process, with the busy/idle split derived from its barrier lanes.
    let busy_idle = snap.worker_busy_idle();
    let mut workers = String::new();
    for (id, w) in &snap.workers {
        if !workers.is_empty() {
            workers.push_str(", ");
        }
        let (busy, idle) = busy_idle.get(id).copied().unwrap_or((0, 0));
        let _ = write!(
            workers,
            "\"{id}\": {{\"events\": {}, \"frame_batches\": {}, \"frame_bytes\": {}, \
             \"resident_rounds\": {}, \"peer_bytes\": {}, \"kernel_decisions\": {}, \
             \"config_warnings\": {}, \"busy_ns\": {busy}, \"idle_ns\": {idle}}}",
            w.events,
            w.frame_batches,
            w.frame_bytes,
            w.resident_rounds,
            w.peer_bytes,
            w.kernel_decisions,
            w.config_warnings
        );
    }
    let worker_events_total: u64 = snap.workers.values().map(|w| w.events).sum();

    // Per-epoch critical path: which worker closed each barrier last, and
    // how far ahead of the median lane it ran.
    let mut critical_path = String::new();
    for p in snap.critical_path() {
        if !critical_path.is_empty() {
            critical_path.push_str(", ");
        }
        let skew = if p.median_ns > 0 {
            p.max_ns as f64 / p.median_ns as f64
        } else {
            1.0
        };
        let lanes: Vec<String> = p
            .lanes
            .iter()
            .map(|(w, ns)| format!("[{w}, {ns}]"))
            .collect();
        let _ = write!(
            critical_path,
            "{{\"backend\": \"{}\", \"epoch\": {}, \"closer\": {}, \"max_ns\": {}, \
             \"median_ns\": {}, \"skew\": {:.4}, \"lanes\": [{}]}}",
            p.backend,
            p.epoch,
            p.closer,
            p.max_ns,
            p.median_ns,
            skew,
            lanes.join(", ")
        );
    }

    let e = &snap.engine;
    let d = &snap.dispatch;
    format!(
        "{{\n      \"phases\": {{{phases}}},\n      \"engine\": {{\"barriers\": {}, \
         \"step_ns\": {}, \"barrier_ns\": {}, \"rounds\": {}, \"words\": {}}},\n      \
         \"executor\": {{\"inline\": {}, \"dispatched\": {}, \"pieces\": {}}},\n      \
         \"transport\": {{{transports}}},\n      \"workers\": {{{workers}}},\n      \
         \"worker_events_total\": {worker_events_total},\n      \
         \"critical_path\": [{critical_path}],\n      \"gauges\": {{{gauges}}},\n      \
         \"counters\": {{{counters}}}\n    }}",
        e.barriers, e.step_ns, e.barrier_ns, e.rounds, e.words, d.inline, d.dispatched, d.pieces
    )
}

/// Offline timeline rendering: parses a `JsonlSink` capture line by line
/// (skipping anything `event_from_json` rejects, counting it) into a fresh
/// in-memory aggregate, then prints the same [`RoundTimeline`] a live
/// traced run would show.
fn replay(path: &str) {
    let contents = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cc-report --replay: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let sink = MemorySink::new();
    let (mut parsed, mut skipped) = (0u64, 0u64);
    for line in contents.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match event_from_json(line) {
            Some(event) => {
                use cc_telemetry::TelemetrySink as _;
                sink.record(&event);
                parsed += 1;
            }
            None => skipped += 1,
        }
    }
    print!("{}", RoundTimeline::from_snapshot(&sink.snapshot()));
    println!("replayed {parsed} events from {path} ({skipped} unparsable lines skipped)");
}

/// Embeds every standalone `BENCH_*.json` at the workspace root verbatim
/// (each is a complete JSON document, so splicing preserves validity);
/// absent artifacts are listed rather than silently dropped.
fn collate_existing_artifacts() -> String {
    const ARTIFACTS: [&str; 6] = [
        "kernel",
        "netsim",
        "runtime",
        "service",
        "sparse",
        "transport",
    ];
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let mut body = String::new();
    let mut missing = Vec::new();
    for name in ARTIFACTS {
        match std::fs::read_to_string(format!("{root}BENCH_{name}.json")) {
            Ok(contents) => {
                if !body.is_empty() {
                    body.push_str(",\n");
                }
                let _ = write!(body, "    \"{name}\": {}", contents.trim_end());
            }
            Err(_) => missing.push(format!("\"{name}\"")),
        }
    }
    if !body.is_empty() {
        body.push_str(",\n");
    }
    format!("{{\n{body}    \"missing\": [{}]\n  }}", missing.join(", "))
}

/// Minimal JSON string quoting for phase names (ASCII identifiers with
/// dots in practice; escapes cover the general case anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
