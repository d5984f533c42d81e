//! The `scheme` suite: what the Scheme machine's hot paths cost, and two
//! gates that count instead of timing.
//!
//! The timed rows run a counted loop with and without the thing being
//! priced in its body and divide the difference, so the loop's own calls
//! and the evaluation's set-up cancel.  The gates hold on a throttled box
//! because they compare counts the program makes of itself: words and
//! native slots a heap hands out, calls into the Rust allocator.

use crate::dist::Dist;
use crate::report::Check;
use std::sync::Arc;
use std::time::Instant;
use sting::areas::Val;
use sting::prelude::*;
use sting::scheme::machine::Machine;
use sting::scheme::{prims, SchemeError};

const DEFINITIONS: &str = "
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (two a b) a)
(define (one) 1)
(define (spin-calls n)
  (let loop ((i 0)) (if (< i n) (begin (two i i) (loop (+ i 1))) i)))";

/// A one-VP machine and an interpreter with the suite's definitions.
fn interp() -> (Arc<Vm>, Interp) {
    let vm = VmBuilder::new().vps(1).processors(1).build();
    let interp = Interp::new(vm.clone());
    interp.eval(DEFINITIONS).expect("suite definitions");
    (vm, interp)
}

fn timed_ns(interp: &Interp, src: &str) -> f64 {
    let start = Instant::now();
    interp.eval(src).expect("suite program");
    start.elapsed().as_nanos() as f64
}

/// Nanoseconds one copy of `body` adds to an iteration of a counted loop,
/// `copies` of it against none, over `reps` paired runs of `n` iterations.
fn body_cost(interp: &Interp, body: &str, copies: usize, n: u64, reps: u64) -> Dist {
    let program =
        |body: &str| format!("(let loop ((i 0)) (if (< i {n}) (begin {body} (loop (+ i 1))) i))");
    let (with, without) = (program(&body.repeat(copies)), program(""));
    let samples = (0..reps.max(1))
        .map(|_| {
            let extra = timed_ns(interp, &with) - timed_ns(interp, &without);
            extra.max(0.0) / (n as f64 * copies as f64)
        })
        .collect();
    Dist::from_samples(samples)
}

/// The timed rows, `(name, unit, distribution)`.
pub fn rows(smoke: bool, reps: u64) -> Vec<(&'static str, &'static str, Dist)> {
    let (vm, interp) = interp();
    let n = if smoke { 20_000 } else { 200_000 };
    let forks = if smoke { 500 } else { 5_000 };
    let runs = |scale: f64, f: &dyn Fn() -> f64| {
        Dist::from_samples((0..reps.max(1)).map(|_| f() / scale).collect())
    };
    let rows = vec![
        (
            "fib20-ms",
            "ms/run",
            runs(1e6, &|| timed_ns(&interp, "(fib 20)")),
        ),
        // A reference to a prelude procedure and the `Pop` that discards it.
        (
            "global-ref-ns",
            "ns/ref",
            body_cost(&interp, "list-sort ", 8, n, reps),
        ),
        (
            "closure-call-ns",
            "ns/call",
            body_cost(&interp, "(two i i) ", 4, n, reps),
        ),
        (
            "prim-call-ns",
            "ns/call",
            body_cost(&interp, "(+ i 1) ", 4, n, reps),
        ),
        (
            "fork-thread-us",
            "us/thread",
            runs(1e3 * forks as f64, &|| {
                let body = "(thread-wait (fork-thread one))";
                let src = format!(
                    "(let loop ((i 0)) (if (< i {forks}) (begin {body} (loop (+ i 1))) i))"
                );
                timed_ns(&interp, &src)
            }),
        ),
        (
            "interp-new-us",
            "us/interp",
            runs(1e3, &|| {
                let start = Instant::now();
                let fresh = Interp::new(vm.clone());
                let t = start.elapsed().as_nanos() as f64;
                drop(fresh);
                t
            }),
        ),
    ];
    vm.shutdown();
    rows
}

/// `(%allocations)`: allocator calls on this worker so far.
fn prim_allocations(_m: &mut Machine, _argc: usize) -> Result<Val, SchemeError> {
    Ok(Val::Int(crate::allocations() as i64))
}

/// `(%heap-probe)`: `words-allocated * 2^20 + native-table-length` of the
/// calling thread's heap, as one integer so that reading it allocates
/// nothing.
fn prim_heap_probe(m: &mut Machine, _argc: usize) -> Result<Val, SchemeError> {
    let words = m.heap.stats().words_allocated as i64;
    Ok(Val::Int((words << 20) | m.heap.native_slots() as i64))
}

/// The two count gates.  Call before any other interpreter exists in the
/// process: the probes are extension primitives, and an interpreter binds
/// the extensions registered when it was made.
pub fn gates() -> Vec<Check> {
    prims::register_extension("%allocations", 0, Some(0), prim_allocations);
    prims::register_extension("%heap-probe", 0, Some(0), prim_heap_probe);
    let (vm, interp) = interp();

    // References in a straight line, so that nothing but references runs
    // between two probes: one to a primitive and one to a prelude
    // procedure, then fifty thousand of each.
    const REFS: usize = 50_000;
    interp
        .eval(&format!(
            "(define (refs-once) + list-sort 0)
             (define (refs-many) {} 0)",
            "+ list-sort ".repeat(REFS)
        ))
        .expect("reference programs");
    let probes = interp
        .eval(
            // One form, so one machine: its first references, which do
            // allocate, happen before the first probe.
            "(begin
               (refs-once) (refs-many) (%heap-probe)
               (let* ((a (begin (refs-once) (%heap-probe)))
                      (b (begin (refs-many) (%heap-probe)))
                      (c (begin (refs-once) (%heap-probe))))
                 (list (- b a) (- c b))))",
        )
        .expect("reference probe");
    let grown: Vec<i64> = probes.list_iter().filter_map(Value::as_int).collect();
    let refs = Check {
        name: "scheme:global-ref-does-not-allocate".to_string(),
        pass: grown.len() == 2 && grown[0] == grown[1] && grown[0] & 0xF_FFFF == 0,
        detail: format!(
            "a call making {} references grew the heap by {:?} words and the native table by {:?} slots; a call making 2 grew them by {:?} and {:?} (gate: equal, and no slots)",
            2 * REFS,
            grown.first().map(|g| g >> 20),
            grown.first().map(|g| g & 0xF_FFFF),
            grown.get(1).map(|g| g >> 20),
            grown.get(1).map(|g| g & 0xF_FFFF),
        ),
    };

    // 10 000 two-argument closure calls (and as many loop iterations, each
    // a closure call and two primitive calls of its own), unpreempted so
    // the scheduler, which shares the worker, stays out of the count.  A
    // scavenge that promotes may still grow the old area's vector, at
    // points fixed by the heap's age and rarer as it doubles: five heaps
    // are aged by different numbers of calls first, and the least of the
    // five windows is the machine's own count.
    let mallocs = (1..=5)
        .filter_map(|age| {
            let program = format!(
                "(begin
                   (spin-calls {})
                   (without-preemption
                     (lambda ()
                       (let ((before (%allocations)))
                         (spin-calls 10000)
                         (let ((after (%allocations))) (- after before))))))",
                age * 50_000
            );
            interp.eval(&program).expect("call probe").as_int()
        })
        .min();
    let calls = Check {
        name: "scheme:call-does-not-malloc".to_string(),
        pass: mallocs == Some(0),
        detail: format!(
            "{mallocs:?} Rust-heap allocations on the worker across 10 000 two-argument closure calls in a counted loop (gate: 0)"
        ),
    };
    vm.shutdown();
    vec![refs, calls]
}
