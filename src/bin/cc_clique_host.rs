//! The algorithm-aware worker process of the process fabric: as
//! `cc-clique-node`, with every facade-level [`WireProgram`] registered, so
//! program-resident sessions can ship real algorithm state machines (not
//! just the runtime builtins).
//!
//! Usage: `cc-clique-host <endpoint> <worker>` with `<endpoint>` the
//! orchestrator's `unix://<path>` or `tcp://<host>:<port>`.
//!
//! The TCP orchestrator spawns this binary automatically when it sits next
//! to the test/bench executable; for multi-host runs, start the
//! orchestrating process with
//! `CC_TCP_EXTERN=1 CC_TRANSPORT=tcp-peer:<w>:<host>:<port>` and launch one
//! `cc-clique-host` per worker index against the printed endpoint (see the
//! facade's "Transport layer" docs).
//!
//! [`WireProgram`]: cc_runtime::WireProgram

use std::process::exit;

/// Every wire-encodable program the facade ships, on top of the runtime
/// builtins. New resident algorithms register here.
fn registry() -> cc_runtime::ResidentRegistry {
    let mut reg = cc_runtime::ResidentRegistry::with_builtins();
    reg.register::<cc_subgraph::TriangleProgram>();
    reg
}

fn main() {
    let name = env!("CARGO_BIN_NAME");
    let args: Vec<String> = std::env::args().collect();
    let worker = match args.as_slice() {
        [_, _, worker] => worker.parse::<u32>().ok(),
        _ => None,
    };
    let Some(worker) = worker else {
        eprintln!("usage: {name} unix://<path>|tcp://<host>:<port> <worker>");
        exit(2);
    };
    if let Err(e) = cc_transport::worker_main(&args[1], worker, registry()) {
        eprintln!("{name} worker {worker}: {e}");
        exit(1);
    }
}
