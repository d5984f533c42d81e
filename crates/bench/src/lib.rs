//! The paper's evaluation, run by `bench_all`: the Figure 6 harness here,
//! the shape experiments in [`shapes`] and the Scheme machine's paths in
//! [`scheme`].
//!
//! The paper's baseline timings (Figure 6) were taken on an 8-processor
//! Silicon Graphics MIPS R3000 (~25 MHz) with a single LIFO queue; ours
//! run wherever you run them.  Absolute values are therefore incomparable
//! — what must reproduce is the *shape*: the ordering of operation costs
//! and their rough ratios (see EXPERIMENTS.md).

use std::sync::Arc;
use sting::prelude::*;

pub mod dist;
pub mod json;
pub mod report;
pub mod scheme;
pub mod server;
pub mod shapes;

pub use dist::{time_per_iter, time_runs, Dist};

/// The repository benchmark's Scheme programs, found from this crate's
/// directory, so a binary reads them from any working directory.
pub const PROGRAMS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/programs");

/// The paper's Figure 6, verbatim (microseconds on the 1992 testbed).
pub const PAPER_FIGURE6: &[(&str, f64)] = &[
    ("Thread Creation", 8.9),
    ("Thread Fork and Value", 44.9),
    ("Scheduling a Thread", 18.9),
    ("Synchronous Context Switch", 3.77),
    ("Stealing", 7.7),
    ("Thread Block and Resume", 27.9),
    ("Tuple-Space", 170.0),
    ("Speculative Fork (2 threads)", 68.9),
    ("Barrier Synchronization (2 threads)", 144.8),
];

/// Builds the measurement VM: one VP, one processor, a single LIFO queue —
/// the configuration Figure 6's caption describes ("derived using a single
/// LIFO queue").
pub fn figure6_vm() -> Arc<Vm> {
    VmBuilder::new()
        .vps(1)
        .processors(1)
        .policy(|_| policies::local_lifo().boxed())
        .name("figure6")
        .build()
}

thread_local! {
    /// Calls into the Rust allocator made on this OS thread.
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The system allocator, counting calls per OS thread (a thread-local
/// increment each) for the count gates.  A binary opts in with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`.
pub struct CountingAllocator;

// SAFETY: every method forwards to `System` unchanged.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: as for `dealloc`, and the caller upholds the rest.
        unsafe { std::alloc::System.realloc(ptr, layout, new) }
    }
}

/// Allocator calls counted on the calling OS thread so far (always 0 in a
/// binary whose global allocator is not a [`CountingAllocator`]).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(std::cell::Cell::get)
}

/// Runs `f` on a STING thread of `vm` and returns its result.
pub fn on_thread<R, F>(vm: &Arc<Vm>, f: F) -> R
where
    F: FnOnce(&Cx) -> R + Send + 'static,
    R: Send + 'static,
{
    let slot: Arc<std::sync::Mutex<Option<R>>> = Arc::new(std::sync::Mutex::new(None));
    let s2 = slot.clone();
    let t = vm.fork(move |cx| {
        *s2.lock().expect("bench slot") = Some(f(cx));
        0i64
    });
    t.join_blocking().expect("bench thread determined");
    let mut g = slot.lock().expect("bench slot");
    g.take().expect("bench thread stored its result")
}

/// One measured row of the Figure 6 reproduction.
#[derive(Debug, Clone)]
pub struct Row {
    /// Operation name (matches [`PAPER_FIGURE6`]).
    pub name: &'static str,
    /// Paper's timing in microseconds.
    pub paper_us: f64,
    /// Distribution of per-iteration costs, in nanoseconds.
    pub dist: Dist,
}

impl Row {
    /// Headline measurement in microseconds (the median — robust to the
    /// scheduling hiccups that skew means on shared machines).
    pub fn measured_us(&self) -> f64 {
        self.dist.p50() / 1e3
    }
}

/// Measures all nine Figure 6 operations; `iters` scales runtime.
pub fn measure_figure6(iters: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut push = |name: &'static str, d: Dist| {
        let paper_us = PAPER_FIGURE6
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known row")
            .1;
        rows.push(Row {
            name,
            paper_us,
            dist: d,
        });
        eprintln!("  measured: {name}");
    };

    // 1. Thread Creation: a thread object with no dynamic state.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            let mut keep = Vec::with_capacity(iters as usize);
            let d = time_per_iter(iters, || {
                keep.push(cx.delayed(|_| 0i64));
            });
            drop(keep);
            d
        });
        push("Thread Creation", d);
        vm.shutdown();
    }

    // 2. Thread Fork and Value: fork the null procedure and wait.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            time_per_iter(iters.min(20_000), || {
                let t = cx.fork(|_| 0i64);
                let _ = cx.wait(&t);
            })
        });
        push("Thread Fork and Value", d);
        vm.shutdown();
    }

    // 3. Scheduling a Thread: insert a delayed thread into the ready queue.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            let n = iters.min(20_000);
            let ts: Vec<_> = (0..n)
                .map(|_| {
                    // Unstealable so nothing short-circuits the queue path.
                    ThreadBuilder::new(&cx.vm())
                        .stealable(false)
                        .delayed(|_| 0i64)
                })
                .collect();
            let vp = cx.current_vp().index();
            let mut i = 0;
            let d = time_per_iter(n, || {
                sting::core::tc::thread_run(&ts[i], vp).expect("schedule");
                i += 1;
            });
            for t in &ts {
                let _ = cx.wait(t);
            }
            d
        });
        push("Scheduling a Thread", d);
        vm.shutdown();
    }

    // 4. Synchronous Context Switch: yield with immediate resumption.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            time_per_iter(iters, || {
                cx.yield_now();
            })
        });
        push("Synchronous Context Switch", d);
        vm.shutdown();
    }

    // 5. Stealing: touch a claimable null thread (runs on our TCB).
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            let n = iters.min(50_000);
            let ts: Vec<_> = (0..n).map(|_| cx.delayed(|_| 0i64)).collect();
            let mut i = 0;
            time_per_iter(n, || {
                let _ = cx.touch(&ts[i]);
                i += 1;
            })
        });
        push("Stealing", d);
        vm.shutdown();
    }

    // 6. Thread Block and Resume: strict ping-pong — each side blocks
    // after waking the other, so one iteration is exactly two block+resume
    // pairs; we report the per-pair cost.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            let n = iters.min(20_000);
            let me = cx.current_thread();
            let partner = cx.fork(move |cx2| {
                // Handshake: tell the driver we are running, then enter the
                // ping-pong.  (Blocking — never yield-spinning — matters
                // under LIFO, where a yielder starves fresh threads.)
                sting::core::tc::unblock(&me);
                for _ in 0..n {
                    cx2.block(None);
                    sting::core::tc::unblock(&me);
                }
                0i64
            });
            cx.block(None); // until the partner is up
            let d = time_per_iter(n, || {
                sting::core::tc::unblock(&partner);
                cx.block(None);
            });
            let _ = cx.wait(&partner);
            d.scale(0.5)
        });
        push("Thread Block and Resume", d);
        vm.shutdown();
    }

    // 7. Tuple-Space: create, insert, remove a singleton tuple.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |_cx| {
            let n = iters.min(50_000);
            time_per_iter(n, || {
                let ts = TupleSpace::new();
                ts.put(vec![Value::Int(1)]);
                let _ = ts.get(&Template::any(1));
            })
        });
        push("Tuple-Space", d);
        vm.shutdown();
    }

    // 8. Speculative Fork (2 threads): wait-for-one over two null threads.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            let n = iters.min(10_000);
            time_per_iter(n, || {
                let a = cx.fork(|_| 0i64);
                let b = cx.fork(|_| 0i64);
                let _ = wait_for_one(&[a, b]);
            })
        });
        push("Speculative Fork (2 threads)", d);
        vm.shutdown();
    }

    // 9. Barrier Synchronization (2 threads): wait-for-all over two nulls.
    {
        let vm = figure6_vm();
        let d = on_thread(&vm, move |cx| {
            let n = iters.min(10_000);
            time_per_iter(n, || {
                let a = cx.fork(|_| 0i64);
                let b = cx.fork(|_| 0i64);
                let _ = wait_for_all(&[a, b]);
            })
        });
        push("Barrier Synchronization (2 threads)", d);
        vm.shutdown();
    }

    rows
}

/// Renders the Figure 6 comparison table — median with min/p99 spread,
/// plus shape ratios normalized to the cheapest common operation (context
/// switch).
pub fn render_figure6(rows: &[Row]) -> String {
    use std::fmt::Write;
    let paper_base = rows
        .iter()
        .find(|r| r.name == "Synchronous Context Switch")
        .map(|r| r.paper_us)
        .unwrap_or(1.0);
    let ours_base = rows
        .iter()
        .find(|r| r.name == "Synchronous Context Switch")
        .map(|r| r.measured_us())
        .unwrap_or(1.0);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<38} {:>11} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "Case", "paper (µs)", "p50 (µs)", "min", "p99", "paper ×sw", "ours ×sw"
    );
    let _ = writeln!(s, "{}", "-".repeat(101));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<38} {:>11.2} {:>10.3} {:>9.3} {:>9.3} {:>10.1} {:>9.1}",
            r.name,
            r.paper_us,
            r.measured_us(),
            r.dist.min() / 1e3,
            r.dist.p99() / 1e3,
            r.paper_us / paper_base,
            r.measured_us() / ours_base
        );
    }
    s
}

/// Evaluates the Figure 6 structural checks on a set of measured rows.
///
/// Checks whose name begins with `info:` are report-only: they record how
/// the paper's full cost chain fares on modern hardware but do not gate
/// (thread creation is far cheaper relative to blocking than it was on a
/// 25 MHz R3000, so the paper's `creation+scheduling < block/resume` link
/// does not reproduce — see EXPERIMENTS.md). Everything else must pass on
/// a healthy build.
pub fn figure6_checks(rows: &[Row]) -> Vec<report::Check> {
    let p50 = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.dist.p50())
            .unwrap_or(f64::NAN)
    };
    let ctx = p50("Synchronous Context Switch");
    let steal = p50("Stealing");
    let create = p50("Thread Creation");
    let sched = p50("Scheduling a Thread");
    let block = p50("Thread Block and Resume");
    let fork = p50("Thread Fork and Value");
    let tuple = p50("Tuple-Space");
    let mut checks = Vec::new();
    let mut check = |name: &str, pass: bool, lhs: f64, rhs: f64| {
        checks.push(report::Check {
            name: name.to_string(),
            pass,
            detail: format!("{:.0} ns vs {:.0} ns", lhs, rhs),
        });
    };
    // Gates: orderings with enough headroom to hold on any sane build.
    // A steal absorbs a thread with one claim, a call and a determination
    // on the thread's state word, while a switch goes through the
    // scheduler and back: the steal avoiding the switch is §4.1.1's point,
    // so it must cost less (about half, release or debug; the paper's
    // testbed had it at twice a switch).
    check("stealing<ctx-switch", steal < ctx, steal, ctx);
    check("ctx-switch<block-resume", ctx < block, ctx, block);
    check(
        "stealing<creation+scheduling",
        steal < create + sched,
        steal,
        create + sched,
    );
    check("block-resume<fork-value", block < fork, block, fork);
    check("ctx-switch<tuple-space", ctx < tuple, ctx, tuple);
    // Report-only: the paper's remaining chain link.
    check(
        "info:creation+scheduling<block-resume",
        create + sched < block,
        create + sched,
        block,
    );
    checks
}

/// Whether every gating (non-`info:`) check passed.
pub fn figure6_gates_pass(checks: &[report::Check]) -> bool {
    checks
        .iter()
        .filter(|c| !c.name.starts_with("info:"))
        .all(|c| c.pass)
}
