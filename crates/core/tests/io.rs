//! Offload lifecycle regressions: terminate-mid-offload, completion after
//! VM shutdown, and pool-growth under pressure.  Companion to the unit
//! tests in `src/io.rs` (panic propagation, deadline) — these run with
//! tracing on and assert a clean audit, in the style of
//! `crates/sync/tests/cancel.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};
use sting_core::state::ThreadState;
use sting_core::vm::Vm;
use sting_core::{io, tc, VmBuilder};
use sting_value::Value;

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn finish(vm: &Arc<Vm>) {
    let report = vm.trace_audit();
    assert!(report.is_clean(), "audit found violations:\n{report}");
    vm.shutdown();
}

/// A latch the pool workers (plain OS threads) can block on until the
/// test decides to release them.
struct Gate {
    open: StdMutex<bool>,
    cv: StdCondvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Terminating a thread parked in `offload` unwinds it cleanly, and the
/// worker's completion wake-up dies against the cancelled episode instead
/// of `unblock`ing a recycled TCB (the pre-PR-4 bare-spin `offload` had no
/// cancellation story at all).
#[test]
fn terminate_mid_offload_leaves_no_dangling_wake() {
    let vm = VmBuilder::new()
        .vps(1)
        .trace(true)
        .trace_capacity(1 << 14)
        .build();
    let gate = Gate::new();
    let started = Arc::new(AtomicUsize::new(0));
    let victim = {
        let gate = gate.clone();
        let started = started.clone();
        vm.fork(move |_cx| {
            io::offload(move || {
                started.fetch_add(1, Ordering::SeqCst);
                gate.wait();
                7i64
            })
        })
    };
    wait_until("job to start on the worker", || {
        started.load(Ordering::SeqCst) == 1
    });
    wait_until("caller to park", || victim.state() == ThreadState::Blocked);
    tc::thread_terminate(&victim, Value::sym("killed")).unwrap();
    assert_eq!(victim.join_blocking(), Ok(Value::sym("killed")));
    // Now let the job complete: its wake-up must fail the episode's claim
    // CAS (audited as clean below — a delivered wake would be
    // WakeAfterCancel, a leaked registration WaiterLeak).
    gate.open();
    // Fresh offloads after the terminate still work on the same pool.
    let after = vm.fork(|_cx| io::offload(|| 5i64));
    assert_eq!(after.join_blocking().unwrap().as_int(), Some(5));
    // Give the completion wake a moment to land before auditing.
    std::thread::sleep(Duration::from_millis(20));
    finish(&vm);
}

/// A job still in flight when `Vm::shutdown` runs completes on the worker
/// *after* the VM's threads are gone; its wake-up must evaporate rather
/// than `tc::unblock` into a dead VM (the old process-global pool's
/// lifetime bug).  Shutdown joins the worker, so returning at all is the
/// assertion; debug builds re-audit the trace during `shutdown`.
#[test]
fn offload_completing_during_shutdown_is_harmless() {
    let vm = VmBuilder::new()
        .vps(1)
        .trace(true)
        .trace_capacity(1 << 14)
        .build();
    let started = Arc::new(AtomicUsize::new(0));
    let s = started.clone();
    let _t = vm.fork(move |_cx| {
        io::offload(move || {
            s.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(100));
            1i64
        })
    });
    wait_until("job to start on the worker", || {
        started.load(Ordering::SeqCst) == 1
    });
    // Caller is parked (or about to park); the drain unwinds it, then the
    // pool join waits out the sleeping job, whose completion finds only a
    // finished episode.
    vm.shutdown();
}

/// More concurrent offloads than twice the pool cap: all complete, and a
/// full complement of deliberately-stuck jobs never head-of-line blocks a
/// quick one (the old pool's `Mutex<Receiver>` serialized pickup across
/// `recv()`, and its fixed worker count had no headroom to grow).
#[test]
fn stress_offloads_past_pool_cap_without_head_of_line_stall() {
    const CAP: usize = 4;
    let vm = VmBuilder::new()
        .vps(1)
        .io_workers(CAP * 2)
        .trace(true)
        .trace_capacity(1 << 16)
        .build();

    // Phase 1: occupy CAP workers with jobs that hold until released.
    let gate = Gate::new();
    let stuck_started = Arc::new(AtomicUsize::new(0));
    let stuck: Vec<_> = (0..CAP)
        .map(|_| {
            let gate = gate.clone();
            let started = stuck_started.clone();
            vm.fork(move |_cx| {
                io::offload(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                    1i64
                })
            })
        })
        .collect();
    wait_until("all stuck jobs to occupy workers", || {
        stuck_started.load(Ordering::SeqCst) == CAP
    });

    // Phase 2: with every started worker busy, quick offloads must still
    // get picked up (pool grows) — bounded wait, while the gate is shut.
    let quick: Vec<_> = (0..CAP as i64)
        .map(|i| {
            vm.fork(move |_cx| {
                io::offload_deadline(move || i * 10, Instant::now() + Duration::from_secs(10))
                    .expect("quick offload head-of-line stalled behind stuck jobs")
            })
        })
        .collect();
    for (i, t) in quick.into_iter().enumerate() {
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(i as i64 * 10));
    }

    gate.open();
    for t in stuck {
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(1));
    }

    // Phase 3: a plain >2×-cap wave on the now-warm pool.
    let wave: Vec<_> = (0..(CAP * 2 + 1) as i64)
        .map(|i| vm.fork(move |_cx| io::offload(move || i * i)))
        .collect();
    let sum: i64 = wave
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(sum, (0..(CAP * 2 + 1) as i64).map(|i| i * i).sum());
    finish(&vm);
}
