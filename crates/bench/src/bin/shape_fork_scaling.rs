//! Shape experiment E8: what a second virtual processor does to the cost
//! of a thread.
//!
//! The paper's cost model is that thread state is "cached on VPs and
//! recycled for immediate reuse" and that VPs meet only when one steals
//! from another.  If that holds, two trees pinned to two VPs finish in the
//! time of one, and a migrating tree is no slower on two VPs than on one.
//! The rows are the eager depth-10 tree of the `fork_tree` benchmark (2047
//! threads, per-VP LIFO): two trees on one VP, two pinned trees on two VPs
//! (no stealing), one migrating tree on two VPs, and the lazy variant —
//! then a world driven for ten seconds, which must end with (nearly) empty
//! ready queues and flat memory.
//!
//! Run with: `cargo run --release -p sting-bench --bin shape_fork_scaling`

use std::time::Duration;
use sting_bench::shapes::{fork_tree_cost, fork_vm, fork_world_residue, second_core_speedup};

const DEPTH: u32 = 10;
const REPS: u64 = 200;

/// Prints one row; returns its (median, best) ns per tree.
fn row(name: &str, vps: usize, migrating: bool, trees: usize, lazy: bool) -> (f64, f64) {
    let vm = fork_vm(vps, migrating);
    let reps = if trees > 1 { REPS / 8 } else { REPS };
    let d = fork_tree_cost(&vm, reps, trees, DEPTH, lazy);
    let c = vm.counters().snapshot();
    vm.shutdown();
    println!(
        "{name:<20} {:>9.0} ns/tree p50 {:>9.0} min   {:>6.0} ns/thread   steals={} tcbs={} migrations={} wakes={}",
        d.p50(),
        d.min(),
        d.p50() / f64::from((1u32 << (DEPTH + 1)) - 1),
        c.steals,
        c.tcbs_allocated,
        c.migrations,
        c.worker_wakes
    );
    (d.p50(), d.min())
}

fn main() {
    println!("E8 — fork scaling (eager depth-{DEPTH} tree, per-VP LIFO, {REPS} reps)");
    println!(
        "this box runs two compute-bound OS threads {:.2}x as fast as one after the other\n",
        second_core_speedup()
    );
    // Sixteen trees per VP per rep: long enough for the OS to spread the
    // workers over its cores.
    let one = row("fork:1vp", 1, false, 32, false);
    let pinned = row("fork:2vp-pinned", 2, false, 32, false);
    let migrating = row("fork:2vp-migrating", 2, true, 1, false);
    row("fork:lazy", 2, true, 1, true);
    println!(
        "\ntwo pinned VPs vs one VP: {:.2}x the time per tree at the median, {:.2}x at best (share-nothing: 0.5x)",
        pinned.0 / one.0,
        pinned.1 / one.1
    );
    println!(
        "migrating 2-VP tree vs one VP: {:.2}x at the median, {:.2}x at best",
        migrating.0 / one.0,
        migrating.1 / one.1
    );
    let residue = fork_world_residue(Duration::from_secs(10), DEPTH);
    println!(
        "10 s world: {} trees, {} ready-queue entries left, resident memory {:+.2} MB over the last {:.1} s ({})",
        residue.trees,
        residue.queued,
        residue.grown as f64 / 1e6,
        residue.over.as_secs_f64(),
        if residue.bounded() { "bounded" } else { "GROWING" }
    );
}
