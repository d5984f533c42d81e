//! The `scheme_mix` cost budget (EXPERIMENTS.md E10): what each of the
//! benchmark's six programs makes the Scheme machine do, and what that
//! costs, as a Markdown table.
//!
//! ```text
//! cargo run --release -p sting-bench --bin scheme_budget [-- DIR [REPS]]
//! ```
//!
//! `DIR` holds the programs (default `benchmark/programs`).  Each rep is
//! the benchmark's op: a fresh `Interp` on a 2-VP machine, one program.
//! The counts come from [`Globals::activity`] and repeat exactly for the
//! programs that fork no threads; the times are this box's, medians over
//! `REPS` (default 30).  The floor prices every bytecode at
//! [`FLOOR_NS_PER_BYTECODE`] and every thread at [`FLOOR_US_PER_THREAD`].
//!
//! [`Globals::activity`]: sting::scheme::global::Globals::activity

use std::process::ExitCode;
use std::time::Instant;
use sting::prelude::*;
use sting_bench::Dist;

/// What one dispatch costs a switch-threaded stack machine that keeps its
/// values in registers: the suite's cheapest instruction pair (`Global` +
/// `Pop`, `scheme:global-ref-ns` in `bench_all`) comes to about twice this.
const FLOOR_NS_PER_BYTECODE: f64 = 2.0;

/// A native `fork` + `join` on this substrate (`tc.fork_ns` + `tc.touch_ns`
/// in the repository benchmark, rounded up), plus a recycled heap.
const FLOOR_US_PER_THREAD: f64 = 1.0;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| "benchmark/programs".into());
    let reps: usize = args.next().and_then(|r| r.parse().ok()).unwrap_or(30);
    let mut programs: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "scm"))
            .collect(),
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    programs.sort();

    let vm = VmBuilder::new().vps(2).name("scheme-budget").build();
    println!("| program | bytecodes | threads | words allocated | slow global refs | `interp_new` µs | eval µs | ns / bytecode | `interp_new` share | floor µs | eval / floor |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for path in &programs {
        let source = std::fs::read_to_string(path).expect("program source");
        let forms = sting::scheme::reader::read_all(&source).map_or(0, |f| f.len()) as u64;
        let (mut new_ns, mut eval_ns) = (Vec::new(), Vec::new());
        let mut activity = Default::default();
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let interp = Interp::new(vm.clone());
            let made = Instant::now();
            let prelude = interp.globals().activity();
            interp.eval(&source).expect("program runs");
            eval_ns.push(made.elapsed().as_nanos() as f64);
            new_ns.push((made - start).as_nanos() as f64);
            let after = interp.globals().activity();
            activity = (
                after.instructions - prelude.instructions,
                // One machine per top-level form; the rest are threads.
                after.machines - prelude.machines - forms,
                after.words_allocated - prelude.words_allocated,
                after.slow_reads - prelude.slow_reads,
            );
        }
        let (bytecodes, threads, words, slow) = activity;
        let new_us = Dist::from_samples(new_ns).p50() / 1e3;
        let eval_us = Dist::from_samples(eval_ns).p50() / 1e3;
        let floor_us =
            bytecodes as f64 * FLOOR_NS_PER_BYTECODE / 1e3 + threads as f64 * FLOOR_US_PER_THREAD;
        println!(
            "| {} | {bytecodes} | {threads} | {words} | {slow} | {new_us:.0} | {eval_us:.0} | {:.1} | {:.1} % | {floor_us:.0} | {:.1}x |",
            path.file_stem().unwrap_or_default().to_string_lossy(),
            eval_us * 1e3 / bytecodes as f64,
            100.0 * new_us / (new_us + eval_us),
            eval_us / floor_us,
        );
    }
    vm.shutdown();
    ExitCode::SUCCESS
}
