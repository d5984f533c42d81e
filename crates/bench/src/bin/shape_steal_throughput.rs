//! Shape experiment E2 addendum (§3.3): locked vs lock-free dispatch.
//!
//! The paper argues that keeping a VP's evaluating-thread queue local and
//! lock-free beats serializing every scheduler operation on a lock.  This
//! bench measures exactly that boundary in our scheduler: a migrating FIFO
//! is run once as the shipped `LocalQueue`, whose queue the substrate
//! keeps on the Chase–Lev deque tier, and once as a user-written
//! `PolicyManager` that keeps its own `VecDeque` under the policy lock
//! (`shapes::manager_kept_fifo`), over 1, 2 and 4 VPs.
//!
//! The workload piles short yielding threads onto VP 0, so every other VP
//! is a thief: each yield is one enqueue + one dequeue, and each steal is
//! the victim-side hand-off the two tiers implement differently (a
//! lock-free `Deque::steal` CAS vs `try_lock` + queue scan).  The VM
//! builder and hammer live in [`sting_bench::shapes`] so the unified
//! runner (`bench_all`) measures the same code.
//!
//! Run with: `cargo run --release -p sting-bench --bin shape_steal_throughput`
//!
//! Flight-recorder artifacts land in `$STING_TRACE_DIR` (default
//! `target/traces`) as `shape_steal_throughput-<config>.json`.

use std::time::Instant;
use sting_bench::shapes::{self, steal_dispatches, steal_hammer, steal_vm};

const THREADS: i64 = 256;
const YIELDS: i64 = 64;

fn run(vps: usize, locked: bool) -> f64 {
    let (tier, policy): (_, fn() -> _) = if locked {
        ("locked", shapes::manager_kept_fifo)
    } else {
        ("lock-free", shapes::migrating_fifo)
    };
    let vm = steal_vm(vps, true, policy);
    assert_eq!(
        vm.vp(0).unwrap().lock_free_queue(),
        !locked,
        "tier selection must match the configuration"
    );
    steal_hammer(&vm, THREADS, YIELDS); // warm-up: stacks pooled, workers awake
    let start = Instant::now();
    let sum = steal_hammer(&vm, THREADS, YIELDS);
    let t = start.elapsed();
    assert_eq!(sum, (0..THREADS).sum::<i64>());
    let per_op_ns = t.as_nanos() as f64 / steal_dispatches(THREADS, YIELDS);
    let s = vm.counters().snapshot();
    let config = format!("{vps}vp-{tier}");
    println!(
        "{:<16} {:>10.2?}  {:>8.0} ns/dispatch  switches={:<7} migrations={}",
        config, t, per_op_ns, s.context_switches, s.migrations
    );
    if let Err(e) = sting_bench::export_trace(&vm, "shape_steal_throughput", &config) {
        eprintln!("trace export failed for {config}: {e}");
    }
    vm.shutdown();
    per_op_ns
}

fn main() {
    println!(
        "E2 addendum — locked vs lock-free dispatch ({THREADS} threads x {YIELDS} yields, all forked on VP 0)\n"
    );
    let mut rows = Vec::new();
    for vps in [1usize, 2, 4] {
        let locked = run(vps, true);
        let lock_free = run(vps, false);
        rows.push((vps, locked, lock_free));
    }
    println!("\nsummary (ns/dispatch, lower is better):");
    println!(
        "{:>4} {:>12} {:>12} {:>10}",
        "vps", "locked", "lock-free", "speedup"
    );
    for (vps, locked, lock_free) in rows {
        println!(
            "{vps:>4} {locked:>12.0} {lock_free:>12.0} {:>9.2}x",
            locked / lock_free
        );
    }
    println!(
        "\nPaper's claim (§3.3): a lock-free local evaluating-thread queue\n\
         removes scheduler serialization; the gap should widen with VPs as\n\
         thieves contend on the victim's queue."
    );
}
