//! Pins every scheduler count of one deterministic run on one VP, and ties
//! the flight recorder and the latency histograms to those counts: the
//! same run, recorded, must show one `Fork` per thread created, one
//! `Determine` per determination, one `Unblock` per wake-up and one
//! `Migrate` per migration; sampled at period 1, one dispatch latency per
//! context switch and one wake latency per wake-up.

use std::sync::{Arc, Mutex};
use sting_core::trace::EventKind;
use sting_core::{tc, CounterSnapshot, Cx, HistogramSnapshot, Thread, ThreadState, Vm};
use sting_value::Value;

/// Threads a tree of `depth` levels forks below its root.
fn tree_size(depth: u32) -> u64 {
    (1 << (depth + 1)) - 2
}

/// A binary tree of threads, each touching its two children: scheduled
/// children when `eager`, delayed ones otherwise.  Returns the leaf count.
fn tree(cx: &Cx, depth: u32, eager: bool) -> i64 {
    if depth == 0 {
        return 1;
    }
    let child = move |cx: &Cx| tree(cx, depth - 1, eager);
    let (l, r) = if eager {
        (cx.fork(child), cx.fork(child))
    } else {
        (cx.delayed(child), cx.delayed(child))
    };
    let leaves = |t: &Arc<Thread>| cx.touch(t).unwrap().as_int().unwrap();
    leaves(&l) + leaves(&r)
}

/// Waits until `t` has parked in `state`: on one VP the caller yields so
/// the parking thread can run.
fn yield_until(cx: &Cx, t: &Arc<Thread>, state: ThreadState) {
    while t.state() != state {
        cx.yield_now();
    }
}

const DEPTH: u32 = 4;
const YIELDS: u64 = 50;
const ROUNDS: u64 = 10;

/// The run: an eager and a lazy tree, a yield loop, a block/wake
/// ping-pong, a suspend/resume and a thread that raises.  Returns the
/// counts and the dispatch/wake histograms it moved, measured from inside
/// its root thread so the host's fork and join stay outside the window.
fn pinned_run(vm: &Arc<Vm>) -> (CounterSnapshot, HistogramSnapshot, HistogramSnapshot) {
    let probe = vm.clone();
    let pinned = Arc::new(Mutex::new(None));
    let out = pinned.clone();
    vm.run(move |cx| {
        let before = (probe.counters().snapshot(), probe.metrics().snapshot());
        let leaves = 1i64 << DEPTH;
        assert_eq!(tree(cx, DEPTH, true), leaves);
        assert_eq!(tree(cx, DEPTH, false), leaves);
        for _ in 0..YIELDS {
            cx.yield_now();
        }
        // Ping-pong: each side blocks until the other wakes it.
        let me = cx.current_thread();
        let partner = cx.fork(move |cx| {
            for _ in 0..ROUNDS {
                yield_until(cx, &me, ThreadState::Blocked);
                tc::unblock(&me);
                cx.block(None);
            }
            0i64
        });
        for _ in 0..ROUNDS {
            cx.block(None);
            yield_until(cx, &partner, ThreadState::Blocked);
            tc::unblock(&partner);
        }
        cx.wait(&partner).unwrap();
        // Suspend and resume.
        let sleeper = cx.fork(|cx| {
            cx.suspend(None);
            0i64
        });
        yield_until(cx, &sleeper, ThreadState::Suspended);
        tc::unblock(&sleeper);
        cx.wait(&sleeper).unwrap();
        // A thread that raises.
        let raiser = cx.fork(|cx| -> i64 { cx.raise(Value::sym("boom")) });
        assert!(cx.wait(&raiser).is_err());
        let after = (probe.counters().snapshot(), probe.metrics().snapshot());
        *out.lock().unwrap() = Some((
            after.0.since(&before.0),
            delta(&after.1.dispatch, &before.1.dispatch),
            delta(&after.1.wake, &before.1.wake),
        ));
        0i64
    })
    .unwrap();
    let counts = pinned.lock().unwrap().take();
    counts.expect("the root recorded its counts")
}

/// Observations recorded between two cumulative snapshots.
fn delta(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: later.count - earlier.count,
        ..HistogramSnapshot::default()
    }
}

fn one_vp(trace: bool) -> Arc<Vm> {
    Vm::builder()
        .vps(1)
        .processors(1)
        .trace(trace)
        .trace_capacity(1 << 14)
        .metrics_sample(1)
        .build()
}

/// The counts the run above must move, field by field.
fn expected() -> CounterSnapshot {
    let trees = tree_size(DEPTH);
    CounterSnapshot {
        // Both trees, the ping-pong partner, the sleeper and the raiser.
        threads_created: 2 * trees + 3,
        // Those three run on TCBs of their own; every tree thread is
        // absorbed by the toucher.
        tcbs_allocated: 3,
        stacks_recycled: 2,
        steals: 2 * trees,
        // The root resumes after each of its yields and parks; the partner
        // at its start and after each of its parks; the sleeper twice; the
        // raiser once.
        context_switches: (YIELDS + 1 + ROUNDS + 3) + (1 + ROUNDS) + 2 + 1,
        // The yield loop, and one yield while the sleeper has not parked.
        yields: YIELDS + 1,
        preemptions: 0,
        // Each side of the ping-pong parks once a round, and the root once
        // more in each of its three waits.
        blocks: 2 * ROUNDS + 3,
        // Every park is woken.
        wakeups: 2 * ROUNDS + 3 + 1,
        suspends: 1,
        migrations: 0,
        handoffs: 0,
        routed_ops: 0,
        worker_wakes: 0,
        determinations: 2 * trees + 3,
        exceptions: 1,
        io_wakes: 0,
        io_registrations: 0,
    }
}

#[test]
fn one_vp_run_moves_every_count_as_pinned() {
    for trace in [false, true] {
        let vm = one_vp(trace);
        let (counts, _, _) = pinned_run(&vm);
        assert_eq!(counts, expected(), "trace={trace}");
        vm.shutdown();
    }
}

#[test]
fn events_and_latencies_match_their_counts() {
    let vm = one_vp(true);
    let (counts, dispatch, wake) = pinned_run(&vm);
    assert_eq!(
        dispatch.count, counts.context_switches,
        "dispatch latencies"
    );
    assert_eq!(wake.count, counts.wakeups, "wake latencies");
    vm.shutdown();
    // Over the whole run, host fork and join included.
    let total = vm.counters().snapshot();
    let events = vm.tracer().snapshot();
    assert!(!vm.tracer().truncated());
    let seen = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(seen(EventKind::Fork), total.threads_created);
    assert_eq!(seen(EventKind::Determine), total.determinations);
    assert_eq!(seen(EventKind::Unblock), total.wakeups);
    assert_eq!(seen(EventKind::Migrate), total.migrations);
    assert_eq!(seen(EventKind::Steal), total.steals);
    assert!(vm.trace_audit().is_clean(), "{}", vm.trace_audit());
}
