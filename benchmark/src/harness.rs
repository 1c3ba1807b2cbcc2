//! The closed loop: one client, one operation in flight, a fixed timed
//! window cut into blocks — plus the process-level readings (`/proc`) a run
//! reports beside its timings.

use crate::stats::{median, relative_spread};
use crate::workloads::{self, Counters, Instance};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The window is cut into this many blocks, and the headline numbers come
/// from the quietest one. On a shared host, interference arrives in bursts
/// of seconds and only ever adds time; the median over the whole window
/// moved by 35 % between identical runs, the quietest block's median by a
/// third of that.
pub const BLOCKS: usize = 5;
/// Before the window, operations run untimed until both are reached: a
/// process that has just started runs its first seconds measurably slower.
const WARMUP_MIN_OPS: usize = 3;
const WARMUP_MIN_TIME: Duration = Duration::from_secs(2);
/// Everything one timed window observed.
pub struct Window {
    /// Timed span of every operation, in milliseconds, in order.
    pub spans_ms: Vec<f64>,
    /// Operations completed per second of wall-clock, per block.
    pub block_rates: Vec<f64>,
    /// Median span per block: how far the run's own blocks disagree.
    pub block_p50_ms: Vec<f64>,
    pub attempted: u64,
    /// Wrong answer, model costs off the reference, or a panic.
    pub failed: u64,
    /// Simulated rounds and words of the first operation (every later one
    /// must charge the same, or it fails).
    pub model: (u64, u64),
    pub wall: Duration,
    /// Orchestrator CPU time (user + system) spent inside the window.
    pub cpu_ms: f64,
    /// Instance counters at the window's start and end.
    pub counters: (Counters, Counters),
}

impl Window {
    /// Median timed span of the quietest block (the one whose median is
    /// lowest).
    pub fn op_ms_p50(&self) -> f64 {
        self.block_p50_ms.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Throughput of the quietest block (the one whose rate is highest).
    pub fn ops_per_s(&self) -> f64 {
        self.block_rates.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Median timed span over every operation of the window, disturbed
    /// blocks included.
    pub fn op_ms_p50_all(&self) -> f64 {
        median(&self.spans_ms)
    }

    pub fn block_rate_spread(&self) -> f64 {
        relative_spread(&self.block_rates)
    }
}

/// Runs untimed operations until the instance and the process are warm.
pub fn warm_up(instance: &mut dyn Instance) {
    let start = Instant::now();
    let mut ops = 0;
    while ops < WARMUP_MIN_OPS || start.elapsed() < WARMUP_MIN_TIME {
        instance.op();
        ops += 1;
    }
}

/// One sample of `setup_s`: builds an instance of the workload (inputs,
/// oracle, fabric or service, warm-up operations) and times that; tearing
/// it down again is outside the timing.
pub fn timed_set_up(name: &str, seed: u64) -> f64 {
    let start = Instant::now();
    let instance = workloads::build(name, seed, false);
    let seconds = start.elapsed().as_secs_f64();
    drop(instance);
    seconds
}

/// Runs operations back to back for `window`, in [`BLOCKS`] blocks. A block
/// closes at the first operation that completes after its deadline, so each
/// rate is whole operations over the wall-clock they actually took.
/// `before_block` runs ahead of every block, outside the measured time (the
/// untraced pass times one set-up there, so `setup_s` samples the whole run
/// and not only its cold first second).
pub fn measure(
    instance: &mut dyn Instance,
    window: Duration,
    before_block: &mut dyn FnMut(),
) -> Window {
    let counters_start = instance.counters();
    let mut w = Window {
        spans_ms: Vec::new(),
        block_rates: Vec::with_capacity(BLOCKS),
        block_p50_ms: Vec::with_capacity(BLOCKS),
        attempted: 0,
        failed: 0,
        model: (0, 0),
        wall: Duration::ZERO,
        cpu_ms: 0.0,
        counters: (counters_start, counters_start),
    };
    'blocks: for block in 1..=BLOCKS {
        before_block();
        let deadline = window.mul_f64(block as f64 / BLOCKS as f64);
        let (block_start, cpu_start) = (Instant::now(), cpu_ms());
        let first = w.spans_ms.len();
        loop {
            w.attempted += 1;
            // A panicking operation (a dead worker, a broken invariant)
            // counts as failed; the instance cannot be trusted afterwards,
            // so the window ends there.
            let Ok(op) = catch_unwind(AssertUnwindSafe(|| instance.op())) else {
                w.failed += 1;
                break 'blocks;
            };
            if w.spans_ms.is_empty() {
                w.model = (op.rounds, op.words);
            }
            if !op.correct || (op.rounds, op.words) != w.model {
                w.failed += 1;
            }
            w.spans_ms.push(op.span.as_secs_f64() * 1e3);
            if w.wall + block_start.elapsed() >= deadline {
                break;
            }
        }
        let elapsed = block_start.elapsed();
        let done = &w.spans_ms[first..];
        w.block_rates
            .push(done.len() as f64 / elapsed.as_secs_f64());
        w.block_p50_ms.push(median(done));
        w.wall += elapsed;
        w.cpu_ms += cpu_ms() - cpu_start;
    }
    w.counters.1 = instance.counters();
    w
}

/// Peak resident set of this process (`VmHWM`), in MB. Worker processes of
/// the multi-process fabrics are separate processes and are not included.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in milliseconds
/// (`/proc/self/stat`, fields 14 and 15, at the usual 100 ticks a second).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) * 10.0,
        _ => f64::NAN,
    }
}

/// The 1-minute load average: how busy the host was around the run.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::OpResult;

    /// An instance whose operations take a fixed time and fail on request.
    struct Fake {
        calls: u64,
        fail_on: Option<u64>,
        panic_on: Option<u64>,
    }

    impl Instance for Fake {
        fn op(&mut self) -> OpResult {
            self.calls += 1;
            assert!(Some(self.calls) != self.panic_on, "fake panic");
            std::thread::sleep(Duration::from_millis(2));
            OpResult {
                span: Duration::from_millis(2),
                correct: Some(self.calls) != self.fail_on,
                rounds: 7,
                words: 70,
            }
        }
        fn counters(&self) -> Counters {
            Counters::default()
        }
    }

    #[test]
    fn window_is_cut_into_blocks_and_counts_failures() {
        let mut fake = Fake {
            calls: 0,
            fail_on: Some(3),
            panic_on: None,
        };
        let mut hooks = 0;
        let w = measure(&mut fake, Duration::from_millis(100), &mut || hooks += 1);
        assert_eq!(hooks, BLOCKS, "the hook runs ahead of every block");
        assert_eq!(w.block_rates.len(), BLOCKS);
        assert_eq!(w.attempted, w.spans_ms.len() as u64);
        assert_eq!(w.failed, 1);
        assert_eq!(w.model, (7, 70));
        assert!(w.wall >= Duration::from_millis(100));
        // ~2 ms operations: a few hundred per second, never more than 500.
        assert!(
            w.ops_per_s() > 50.0 && w.ops_per_s() <= 500.0,
            "{}",
            w.ops_per_s()
        );
        assert_eq!(w.op_ms_p50(), 2.0);
        assert_eq!(w.op_ms_p50_all(), 2.0);
    }

    #[test]
    fn headline_numbers_come_from_the_quietest_block() {
        let w = Window {
            spans_ms: vec![],
            block_rates: vec![20.0, 26.1, 17.0, 25.9, 19.5],
            block_p50_ms: vec![49.7, 37.8, 58.3, 38.3, 53.2],
            attempted: 0,
            failed: 0,
            model: (0, 0),
            wall: Duration::ZERO,
            cpu_ms: 0.0,
            counters: (Counters::default(), Counters::default()),
        };
        assert_eq!(w.op_ms_p50(), 37.8);
        assert_eq!(w.ops_per_s(), 26.1);
    }

    #[test]
    fn a_panicking_operation_fails_and_ends_the_window() {
        let mut fake = Fake {
            calls: 0,
            fail_on: None,
            panic_on: Some(4),
        };
        let w = measure(&mut fake, Duration::from_millis(100), &mut || {});
        assert_eq!((w.attempted, w.failed), (4, 1));
        assert_eq!(w.spans_ms.len(), 3);
    }

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
        assert!(loadavg() >= 0.0);
    }
}
