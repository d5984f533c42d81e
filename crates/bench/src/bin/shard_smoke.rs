//! CI `shard` tier: a fast (<60s) end-to-end exercise of the sharded
//! fleet — a 2-shard job farm over the partitioned tuple-space fabric,
//! then the same farm under tracing with the merged per-shard rings
//! required to audit clean.
//!
//! This is deliberately *not* a benchmark: no gates on timings, only on
//! behavior (conservation of jobs/acks, and no lost wake-up, leaked
//! waiter, or post-cancel wake anywhere in the fleet-wide trace).  The
//! scaling gates live in `bench_all` full mode.

use sting::core::audit::FindingKind;
use sting::prelude::*;
use sting_bench::shapes;

fn main() {
    const SHARDS: usize = 2;
    const JOBS: usize = 400;
    const WORKERS: usize = 16;

    // Untraced farm: the workload itself asserts conservation (every job
    // consumed exactly once, every ack collected, space drained).
    let fleet = shapes::shard_fleet(SHARDS, 4, false);
    let ts = ShardedSpace::new(&fleet);
    let start = std::time::Instant::now();
    shapes::shard_farm_workload(&fleet, &ts, JOBS, WORKERS);
    println!(
        "shard_smoke: {SHARDS}-shard farm, {JOBS} jobs / {WORKERS} workers: {:?}",
        start.elapsed()
    );
    fleet.shutdown();

    // Traced farm: merge the per-shard rings by Lamport clock and audit.
    let fleet = shapes::shard_fleet(SHARDS, 4, true);
    let ts = ShardedSpace::new(&fleet);
    shapes::shard_farm_workload(&fleet, &ts, JOBS, WORKERS);
    let report = fleet.trace_audit();
    let bad: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FindingKind::WaiterLeak | FindingKind::LostWakeup | FindingKind::WakeAfterCancel
            )
        })
        .collect();
    fleet.shutdown();
    if !bad.is_empty() {
        eprintln!(
            "shard_smoke: merged {SHARDS}-shard audit found {} wake/waiter violations:",
            bad.len()
        );
        for f in &bad {
            eprintln!("  {f:?}");
        }
        std::process::exit(1);
    }
    println!(
        "shard_smoke: merged {SHARDS}-shard audit clean ({} findings total, none wake/waiter)",
        report.findings.len()
    );
}
