//! The `scheme_mix` cost budget (EXPERIMENTS.md E10): what each of the
//! benchmark's six programs makes the Scheme machine do, and what that
//! costs, as a Markdown table.
//!
//! ```text
//! cargo run --release -p sting-bench --bin scheme_budget [-- DIR [REPS]]
//! ```
//!
//! `DIR` holds the programs (default the repository's `benchmark/programs`,
//! whatever the working directory).  Each rep is
//! the benchmark's op: a fresh `Interp` on a 2-VP machine, one program.
//! The counts come from [`Globals::activity`] and repeat exactly for the
//! programs that fork no threads; the times are this box's, medians over
//! `REPS` (default 30).  The floor prices every bytecode at
//! [`FLOOR_NS_PER_BYTECODE`] and every thread at [`FLOOR_US_PER_THREAD`].
//! Allocations are the Rust heap's, counted over the whole process (the
//! program's threads run on the machine's workers), median per op.
//!
//! [`Globals::activity`]: sting::scheme::global::Globals::activity

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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

/// Rust-heap allocations made by any thread of the process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct ProcessCountingAllocator;

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for ProcessCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new) }
    }
}

#[global_allocator]
static ALLOCATOR: ProcessCountingAllocator = ProcessCountingAllocator;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .unwrap_or_else(|| sting_bench::PROGRAMS_DIR.into());
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
    println!("| program | bytecodes | threads | words allocated | allocations | slow global refs | `interp_new` µs | eval µs | ns / bytecode | `interp_new` share | floor µs | eval / floor |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for path in &programs {
        let source = std::fs::read_to_string(path).expect("program source");
        let forms = sting::scheme::reader::read_all(&source).map_or(0, |f| f.len()) as u64;
        let (mut new_ns, mut eval_ns, mut allocs) = (Vec::new(), Vec::new(), Vec::new());
        let mut activity = Default::default();
        for _ in 0..reps.max(1) {
            let allocs_before = ALLOCATIONS.load(Relaxed);
            let start = Instant::now();
            let interp = Interp::new(vm.clone());
            let made = Instant::now();
            let prelude = interp.globals().activity();
            interp.eval(&source).expect("program runs");
            eval_ns.push(made.elapsed().as_nanos() as f64);
            allocs.push((ALLOCATIONS.load(Relaxed) - allocs_before) as f64);
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
        let allocs = Dist::from_samples(allocs).p50();
        let floor_us =
            bytecodes as f64 * FLOOR_NS_PER_BYTECODE / 1e3 + threads as f64 * FLOOR_US_PER_THREAD;
        println!(
            "| {} | {bytecodes} | {threads} | {words} | {allocs:.0} | {slow} | {new_us:.0} | {eval_us:.0} | {:.1} | {:.1} % | {floor_us:.0} | {:.1}x |",
            path.file_stem().unwrap_or_default().to_string_lossy(),
            eval_us * 1e3 / bytecodes as f64,
            100.0 * new_us / (new_us + eval_us),
            eval_us / floor_us,
        );
    }
    vm.shutdown();
    ExitCode::SUCCESS
}
