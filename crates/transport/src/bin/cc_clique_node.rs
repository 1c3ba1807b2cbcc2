//! The worker process of the process fabric: simulates a contiguous shard of
//! clique nodes on behalf of an orchestrator (`cc_transport::StreamTransport`),
//! speaking length-prefixed frames.
//!
//! Usage: `cc-clique-node <endpoint> <worker>` with `<endpoint>` the
//! orchestrator's `unix://<path>` or `tcp://<host>:<port>`; the shard
//! assignment, trace level and peer routing table arrive over the wire.
//! Only the builtin registry programs are decodable here; algorithm programs
//! need the facade's `cc-clique-host` binary.

use std::process::exit;

fn registry() -> cc_runtime::ResidentRegistry {
    cc_runtime::ResidentRegistry::with_builtins()
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
