//! Shape experiment E4 (§4.2.2, after Tucker & Gupta): sometimes
//! preemption is best disabled.  The paper's setting is master/slave
//! programs with heavy synchronization: preempting a worker at the wrong
//! moment stalls everyone who depends on it.
//!
//! The sharpest observable instance on a single processor is a preemption
//! that lands *inside a critical section*: the lock holder loses the VP
//! while every other worker burns its active-spin budget, yields, blocks
//! and reschedules.  Wrapping the section in `without-preemption`
//! eliminates those convoys.  The workload and VM builder live in
//! [`sting_bench::shapes`] so the unified runner (`bench_all`) measures
//! the same code.
//!
//! Run with: `cargo run --release -p sting-bench --bin shape_preemption`

use std::time::Instant;
use sting_bench::shapes::{preemption_run, preemption_vm};

fn main() {
    let workers = 4;
    let rounds = 150;
    println!(
        "E4 — preemption inside critical sections ({workers} workers × {rounds} rounds, 500 µs slices)\n"
    );
    for (name, shield) in [
        ("preemption enabled ", false),
        ("without-preemption  ", true),
    ] {
        let vm = preemption_vm(true);
        let start = Instant::now();
        preemption_run(&vm, workers, rounds, shield);
        let t = start.elapsed();
        let s = vm.counters().snapshot();
        println!(
            "{name} {t:>10.2?}   preemptions={:<6} blocks={:<6} yields={:<6} switches={}",
            s.preemptions, s.blocks, s.yields, s.context_switches
        );
        if let Err(e) = sting_bench::export_trace(&vm, "shape_preemption", name) {
            eprintln!("trace export failed for {name}: {e}");
        }
        vm.shutdown();
    }
    println!(
        "\nA preemption inside the critical section parks the lock holder behind\n\
         every contender, each of which must spin, yield and block before the\n\
         holder resumes — the convoys show up as extra blocks and context\n\
         switches.  without-preemption (the paper's recommendation) avoids them."
    );
}
