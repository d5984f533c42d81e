//! The `scheme` suite: what the Scheme machine's hot paths cost, and six
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

/// `(%export-allocations v)`: allocator calls made on this worker by
/// converting `v` as a thread's result is converted on its way out.
fn prim_export_allocations(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let v = m.arg(argc, 0);
    let before = crate::allocations();
    let out = m.to_value(v)?;
    let made = crate::allocations() - before;
    drop(out);
    Ok(Val::Int(made as i64))
}

/// The six count gates.  Call before any other interpreter exists in the
/// process: the probes are extension primitives, and an interpreter binds
/// the extensions registered when it was made.
pub fn gates() -> Vec<Check> {
    prims::register_extension("%allocations", 0, Some(0), prim_allocations);
    prims::register_extension("%heap-probe", 0, Some(0), prim_heap_probe);
    prims::register_extension("%export-allocations", 1, Some(1), prim_export_allocations);
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
    let captured = captured_refs_gate(&interp);
    let returned = returned_list_gate(&interp);
    let mut checks = vec![refs, calls, captured, returned];
    checks.extend(fib_gates(&vm));
    vm.shutdown();
    checks
}

/// The benchmark's `fib` program (`scheme_mix`, EXPERIMENTS.md E10).
const FIB: &str = include_str!("../../../benchmark/programs/fib.scm");

/// Bytecodes `FIB` executes when a call of a global is one instruction.
/// `fib(20)` makes 21 891 calls: the 10 945 that recurse each name six
/// globals in call position (`<`, `+`, `fib` twice and `-` twice), the
/// 10 946 leaves one (`<`), and the top-level `(fib 20)` one more.  With
/// the callee pushed by a `Global` of its own the program ran 295 530
/// bytecodes; 295 530 − 6 × 10 945 − 10 946 − 1 = 218 913.
const FIB_BYTECODES: u64 = 218_913;

/// Heap words `FIB` may allocate: 1 % of the 65 679 it took while each
/// of its 21 891 calls built a three-word frame in the heap.
const FIB_HEAP_WORDS: u64 = 657;

/// `FIB` in a fresh interpreter, as one op of the benchmark runs it: the
/// bytecodes it executes and the heap words it allocates, both exact.
fn fib_gates(vm: &Arc<Vm>) -> Vec<Check> {
    let interp = Interp::new(vm.clone());
    let before = interp.globals().activity();
    interp.eval(FIB).expect("fib program");
    let after = interp.globals().activity();
    let bytecodes = after.instructions - before.instructions;
    let words = after.words_allocated - before.words_allocated;
    vec![
        Check {
            name: format!("scheme:fib-heap-words<={FIB_HEAP_WORDS}"),
            pass: words <= FIB_HEAP_WORDS,
            detail: format!(
                "fib.scm allocated {words} heap words (gate: <= {FIB_HEAP_WORDS}, 1 % of 65 679)"
            ),
        },
        Check {
            name: format!("scheme:fib-bytecodes<={FIB_BYTECODES}"),
            pass: bytecodes <= FIB_BYTECODES,
            detail: format!(
                "fib.scm executed {bytecodes} bytecodes (gate: <= {FIB_BYTECODES}, one instruction per call of a global)"
            ),
        },
    ]
}

/// A forked thread references a mutex and a fixnum its thunk captured,
/// fifty thousand times each in a straight line, unpreempted: the
/// references grow neither its native table nor the Rust heap.
fn captured_refs_gate(interp: &Interp) -> Check {
    const REFS: usize = 50_000;
    let probes = interp
        .eval(&format!(
            "(let ((m (make-mutex)) (k 7))
               (thread-wait
                 (fork-thread
                   (lambda ()
                     (let ((refs-once (lambda () m k 0))
                           (refs-many (lambda () {} 0)))
                       (refs-once) (refs-many) (%allocations) (%heap-probe)
                       (without-preemption
                         (lambda ()
                           (let* ((h0 (%heap-probe)) (a0 (%allocations)))
                             (refs-many)
                             (let* ((a1 (%allocations)) (h1 (%heap-probe)))
                               (list (- a1 a0) h0 h1))))))))))",
            "m k ".repeat(REFS)
        ))
        .expect("captured-reference probe");
    let got: Vec<i64> = probes.list_iter().filter_map(Value::as_int).collect();
    let (allocs, slots) = match got[..] {
        [allocs, h0, h1] => (Some(allocs), Some((h1 & 0xF_FFFF) - (h0 & 0xF_FFFF))),
        _ => (None, None),
    };
    Check {
        name: "scheme:captured-ref-does-not-allocate".to_string(),
        pass: allocs == Some(0) && slots == Some(0),
        detail: format!(
            "a forked thread making {} references to a captured mutex and a captured fixnum grew its native table by {slots:?} slots and made {allocs:?} Rust-heap allocations (gate: 0 and 0)",
            2 * REFS
        ),
    }
}

/// A thread touches a 1 000-element list another thread returned, conses
/// one cell onto it, and converts the result as its own return would: the
/// conversion allocates a constant number of times, not once per cell.
fn returned_list_gate(interp: &Interp) -> Check {
    let made = interp
        .eval(
            "(let ((src (fork-thread (lambda () (iota 1000)))))
               (thread-wait
                 (fork-thread
                   (lambda () (%export-allocations (cons 0 (touch src)))))))",
        )
        .expect("returned-list probe")
        .as_int();
    Check {
        name: "scheme:returned-list-shares-its-tail".to_string(),
        pass: made.is_some_and(|n| n <= 4),
        detail: format!(
            "converting a received 1 000-element list with one cell consed on made {made:?} Rust-heap allocations (gate: <= 4)"
        ),
    }
}
