//! Behavioural tests for the STING substrate: thread lifecycle, stealing,
//! preemption, policies, groups, genealogy, timers and migration.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::policies::{self, GlobalQueue};
use sting_core::{
    tc, CoreError, PhysicalMachine, StateRequest, ThreadBuilder, ThreadState, Topology, Vm,
    VmBuilder,
};
use sting_value::Value;

fn vm1() -> Arc<Vm> {
    VmBuilder::new().vps(1).build()
}

fn vm(n: usize) -> Arc<Vm> {
    VmBuilder::new().vps(n).build()
}

#[test]
fn fork_and_join() {
    let vm = vm1();
    let t = vm.fork(|_cx| 41i64 + 1);
    assert_eq!(t.join_blocking(), Ok(Value::Int(42)));
    assert!(t.is_determined());
    assert_eq!(t.state(), ThreadState::Determined);
    vm.shutdown();
}

#[test]
fn fork_many_and_join_all() {
    let vm = vm(2);
    let threads: Vec<_> = (0..200i64).map(|i| vm.fork(move |_cx| i * i)).collect();
    for (i, t) in threads.iter().enumerate() {
        let i = i as i64;
        assert_eq!(t.join_blocking(), Ok(Value::Int(i * i)));
    }
    vm.shutdown();
}

#[test]
fn nested_forks_with_wait() {
    let vm = vm(2);
    let r = vm.run(|cx| {
        let ts: Vec<_> = (0..10i64).map(|i| cx.fork(move |_| i)).collect();
        ts.iter()
            .map(|t| cx.wait(t).unwrap().as_int().unwrap())
            .sum::<i64>()
    });
    assert_eq!(r, Ok(Value::Int(45)));
    vm.shutdown();
}

#[test]
fn deep_fork_chain() {
    // Each thread forks the next; depth beyond any single stack.
    let vm = vm1();
    fn chain(cx: &sting_core::Cx, n: i64) -> i64 {
        if n == 0 {
            0
        } else {
            let t = cx.fork(move |cx| chain(cx, n - 1));
            1 + cx.wait(&t).unwrap().as_int().unwrap()
        }
    }
    let r = vm.run(|cx| chain(cx, 300));
    assert_eq!(r, Ok(Value::Int(300)));
    vm.shutdown();
}

#[test]
fn delayed_thread_never_runs_unless_demanded() {
    let vm = vm1();
    let ran = Arc::new(AtomicBool::new(false));
    let r = ran.clone();
    let t = vm.delayed(move |_cx| {
        r.store(true, Ordering::SeqCst);
        1i64
    });
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(t.state(), ThreadState::Delayed);
    assert!(!ran.load(Ordering::SeqCst));
    // Demand it.
    tc::thread_run(&t, 0).unwrap();
    assert_eq!(t.join_blocking(), Ok(Value::Int(1)));
    assert!(ran.load(Ordering::SeqCst));
    vm.shutdown();
}

#[test]
fn touch_steals_delayed_thread() {
    let vm = vm1();
    let before = vm.counters().snapshot();
    let r = vm.run(|cx| {
        let lazy = cx.delayed(|_cx| 7i64);
        // Stealing runs the thunk on our own TCB: no context switch.
        let v = cx.touch(&lazy).unwrap().as_int().unwrap();
        assert_eq!(lazy.state(), ThreadState::Determined);
        v
    });
    assert_eq!(r, Ok(Value::Int(7)));
    let delta = vm.counters().snapshot().since(&before);
    assert_eq!(delta.steals, 1);
    // Only the toucher got a TCB.
    assert_eq!(delta.tcbs_allocated, 1);
    vm.shutdown();
}

#[test]
fn touch_does_not_steal_unstealable() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let lazy = ThreadBuilder::new(&cx.vm())
            .stealable(false)
            .delayed(|_cx| 9i64);
        assert!(!lazy.is_stealable());
        // Not stealable and delayed: demand by scheduling, then wait.
        tc::thread_run(&lazy, 0).unwrap();
        cx.wait(&lazy).unwrap().as_int().unwrap()
    });
    assert_eq!(r, Ok(Value::Int(9)));
    assert_eq!(vm.counters().snapshot().steals, 0);
    vm.shutdown();
}

#[test]
fn touch_falls_back_to_wait_on_evaluating() {
    let vm = vm(1);
    let r = vm.run(|cx| {
        let t = cx.fork(|cx| {
            cx.yield_now();
            5i64
        });
        // Give it a chance to start evaluating; then touch must block.
        cx.yield_now();
        cx.touch(&t).unwrap().as_int().unwrap()
    });
    assert_eq!(r, Ok(Value::Int(5)));
    vm.shutdown();
}

#[test]
fn steal_of_scheduled_thread_prevents_double_run() {
    let vm = vm1();
    let runs = Arc::new(AtomicUsize::new(0));
    let runs2 = runs.clone();
    let r = vm.run(move |cx| {
        let t = cx.fork(move |_cx| {
            runs2.fetch_add(1, Ordering::SeqCst);
            1i64
        });
        // The fork is scheduled but we haven't yielded, so it cannot have
        // started: touching steals it.
        let v = cx.touch(&t).unwrap().as_int().unwrap();
        cx.yield_now(); // let the queue drain; the stale entry must be skipped
        v
    });
    assert_eq!(r, Ok(Value::Int(1)));
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(runs.load(Ordering::SeqCst), 1, "thunk ran exactly once");
    vm.shutdown();
}

#[test]
fn exception_crosses_thread_boundary() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let t = cx.fork(|cx| -> i64 { cx.raise(Value::sym("boom")) });
        match cx.wait(&t) {
            Err(e) => {
                assert_eq!(e, Value::sym("boom"));
                1i64
            }
            Ok(_) => 0i64,
        }
    });
    assert_eq!(r, Ok(Value::Int(1)));
    assert_eq!(vm.counters().snapshot().exceptions, 1);
    vm.shutdown();
}

#[test]
fn rust_panic_becomes_exception_result() {
    let vm = vm1();
    let t = vm.fork(|_cx| -> i64 { panic!("native failure") });
    let err = t.join_blocking().unwrap_err();
    assert!(err.to_string().contains("native failure"));
    vm.shutdown();
}

#[test]
fn terminate_scheduled_thread() {
    let vm = vm1();
    // Keep the VP busy so the victim stays queued.
    let gate = Arc::new(AtomicBool::new(false));
    let g = gate.clone();
    let _busy = vm.fork(move |cx| {
        while !g.load(Ordering::SeqCst) {
            cx.yield_now();
        }
        0i64
    });
    let victim = vm.fork(|_cx| 1i64);
    // Terminate while delayed/scheduled.
    tc::thread_terminate(&victim, Value::sym("killed")).unwrap();
    assert_eq!(victim.join_blocking(), Ok(Value::sym("killed")));
    gate.store(true, Ordering::SeqCst);
    vm.shutdown();
}

#[test]
fn terminate_evaluating_thread_runs_destructors() {
    let vm = vm1();
    struct Marker(Arc<AtomicBool>);
    impl Drop for Marker {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(AtomicBool::new(false));
    let d = dropped.clone();
    let spinner = vm.fork(move |cx| -> i64 {
        let _m = Marker(d);
        loop {
            cx.checkpoint();
            cx.yield_now();
        }
    });
    // Let it start.
    std::thread::sleep(Duration::from_millis(20));
    tc::thread_terminate(&spinner, Value::Int(99)).unwrap();
    assert_eq!(spinner.join_blocking(), Ok(Value::Int(99)));
    assert!(
        dropped.load(Ordering::SeqCst),
        "destructor ran on terminate"
    );
    vm.shutdown();
}

#[test]
fn terminating_determined_thread_fails() {
    let vm = vm1();
    let t = vm.fork(|_cx| 1i64);
    t.join_blocking().unwrap();
    let err = tc::thread_terminate(&t, Value::Unit).unwrap_err();
    assert!(matches!(err, CoreError::InvalidTransition { .. }));
    vm.shutdown();
}

#[test]
fn suspend_with_quantum_resumes_automatically() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let start = std::time::Instant::now();
        cx.sleep(Duration::from_millis(20));
        i64::from(start.elapsed() >= Duration::from_millis(15))
    });
    assert_eq!(r, Ok(Value::Int(1)));
    vm.shutdown();
}

#[test]
fn suspend_indefinitely_until_thread_run() {
    let vm = vm1();
    let t = vm.fork(|cx| {
        cx.suspend(None);
        123i64
    });
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(t.state(), ThreadState::Suspended);
    tc::thread_run(&t, 0).unwrap();
    assert_eq!(t.join_blocking(), Ok(Value::Int(123)));
    vm.shutdown();
}

#[test]
fn block_and_unblock_via_thread_run() {
    let vm = vm1();
    let t = vm.fork(|cx| {
        cx.block(Some(Value::sym("test-blocker")));
        7i64
    });
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(t.state(), ThreadState::Blocked);
    assert_eq!(t.blocker(), Some(Value::sym("test-blocker")));
    tc::thread_run(&t, 0).unwrap();
    assert_eq!(t.join_blocking(), Ok(Value::Int(7)));
    vm.shutdown();
}

#[test]
fn thread_run_rejects_bad_states() {
    let vm = vm1();
    let t = vm.fork(|_cx| 0i64);
    t.join_blocking().unwrap();
    assert!(matches!(
        tc::thread_run(&t, 0),
        Err(CoreError::InvalidTransition { .. })
    ));
    let d = vm.delayed(|_cx| 0i64);
    assert!(matches!(
        tc::thread_run(&d, 17),
        Err(CoreError::VpOutOfRange { .. })
    ));
    vm.shutdown();
}

#[test]
fn block_request_applied_at_next_controller_entry() {
    let vm = vm1();
    let progressed = Arc::new(AtomicUsize::new(0));
    let p = progressed.clone();
    let t = vm.fork(move |cx| {
        for _ in 0..1_000_000 {
            p.fetch_add(1, Ordering::SeqCst);
            cx.checkpoint();
            cx.yield_now();
        }
        1i64
    });
    std::thread::sleep(Duration::from_millis(10));
    t.request(StateRequest::Block).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(t.state(), ThreadState::Blocked);
    let at_block = progressed.load(Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(
        progressed.load(Ordering::SeqCst),
        at_block,
        "no progress while blocked"
    );
    tc::thread_run(&t, 0).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        progressed.load(Ordering::SeqCst) > at_block,
        "progress after resume"
    );
    tc::thread_terminate(&t, Value::Int(0)).unwrap();
    t.join_blocking().unwrap();
    vm.shutdown();
}

#[test]
fn preemption_interleaves_non_yielding_threads() {
    // Two spinning threads on one VP, neither yields voluntarily; a
    // checkpoint past the thread's 500 µs slice must interleave them.
    let vm = vm1();
    let a = Arc::new(AtomicUsize::new(0));
    let b = Arc::new(AtomicUsize::new(0));
    let (a2, b2) = (a.clone(), b.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let (s1, s2) = (stop.clone(), stop.clone());
    let t1 = vm.fork(move |cx| {
        while !s1.load(Ordering::SeqCst) {
            a2.fetch_add(1, Ordering::SeqCst);
            cx.checkpoint();
        }
        0i64
    });
    let t2 = vm.fork(move |cx| {
        while !s2.load(Ordering::SeqCst) {
            b2.fetch_add(1, Ordering::SeqCst);
            cx.checkpoint();
        }
        0i64
    });
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    t1.join_blocking().unwrap();
    t2.join_blocking().unwrap();
    assert!(a.load(Ordering::SeqCst) > 0, "thread 1 ran");
    assert!(
        b.load(Ordering::SeqCst) > 0,
        "thread 2 ran (preemption works)"
    );
    assert!(vm.counters().snapshot().preemptions > 0);
    vm.shutdown();
}

#[test]
fn without_preemption_defers_preemption() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let mut deferred_worked = true;
        cx.without_preemption(|| {
            // Spin through several 500 µs slices; checkpoints must not
            // switch us out (there is nobody else, but the preempt counter
            // must stay untouched by us).
            let start = std::time::Instant::now();
            while start.elapsed() < Duration::from_millis(2) {
                cx.checkpoint();
            }
            deferred_worked = true;
        });
        i64::from(deferred_worked)
    });
    assert_eq!(r, Ok(Value::Int(1)));
    vm.shutdown();
}

#[test]
fn yield_round_robins_same_vp() {
    // Oldest-first within a band: the default FIFO, and both priority
    // orders, which keep the two equal-priority threads in one band.
    for order in [
        policies::local_fifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        yield_round_robins_under(order);
    }
}

fn yield_round_robins_under(order: fn() -> policies::LocalQueue) {
    let vm = VmBuilder::new()
        .vps(1)
        .policy(move |_| order().boxed())
        .build();
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let gate = Arc::new(AtomicBool::new(false));
    let mk = |tag: i64, log: Arc<parking_lot::Mutex<Vec<i64>>>, gate: Arc<AtomicBool>| {
        move |cx: &sting_core::Cx| {
            // Wait for both threads to be forked before logging starts.
            while !gate.load(Ordering::SeqCst) {
                cx.yield_now();
            }
            for _ in 0..3 {
                log.lock().push(tag);
                cx.yield_now();
            }
            tag
        }
    };
    let t1 = vm.fork(mk(1, log.clone(), gate.clone()));
    let t2 = vm.fork(mk(2, log.clone(), gate.clone()));
    std::thread::sleep(Duration::from_millis(20));
    gate.store(true, Ordering::SeqCst);
    t1.join_blocking().unwrap();
    t2.join_blocking().unwrap();
    let l = log.lock().clone();
    // FIFO + yields must interleave strictly (either thread may start).
    assert!(
        l == vec![1, 2, 1, 2, 1, 2] || l == vec![2, 1, 2, 1, 2, 1],
        "expected strict alternation, got {l:?}"
    );
    vm.shutdown();
}

#[test]
fn priorities_respected_by_priority_policy() {
    let vm = VmBuilder::new()
        .vps(1)
        .policy(|_| policies::priority_high().boxed())
        .build();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    // One thread on the only VP queues all three forks before it yields,
    // so none of them runs before all are queued.
    let o = order.clone();
    let spawner = vm.fork(move |cx| {
        let ts: Vec<_> = [(1, "low"), (5, "high"), (3, "mid")]
            .into_iter()
            .map(|(prio, tag)| {
                let o = o.clone();
                ThreadBuilder::new(&cx.vm())
                    .priority(prio)
                    .spawn(move |_cx| {
                        o.lock().push(tag);
                        0i64
                    })
                    .unwrap()
            })
            .collect();
        cx.yield_now();
        for t in ts {
            cx.wait(&t).unwrap();
        }
        0i64
    });
    spawner.join_blocking().unwrap();
    assert_eq!(order.lock().clone(), vec!["high", "mid", "low"]);
    vm.shutdown();
}

#[test]
fn different_vps_can_run_different_policies() {
    let vm = VmBuilder::new()
        .vps(2)
        .policy(|i| {
            if i == 0 {
                policies::local_fifo().boxed()
            } else {
                policies::local_lifo().boxed()
            }
        })
        .build();
    assert_eq!(vm.vp(0).unwrap().policy_name(), "local-fifo");
    assert_eq!(vm.vp(1).unwrap().policy_name(), "local-lifo");
    let a = vm.fork_on(0, |_cx| 1i64).unwrap();
    let b = vm.fork_on(1, |_cx| 2i64).unwrap();
    assert_eq!(a.join_blocking(), Ok(Value::Int(1)));
    assert_eq!(b.join_blocking(), Ok(Value::Int(2)));
    vm.shutdown();
}

#[test]
fn global_queue_shares_work_across_vps() {
    let q = GlobalQueue::fifo();
    let vm = VmBuilder::new()
        .vps(4)
        .processors(2)
        .policy(move |_| q.policy())
        .build();
    for vp in vm.vps() {
        assert!(
            !vp.lock_free_queue(),
            "a global queue is kept by its manager, under the policy lock"
        );
    }
    let ts: Vec<_> = (0..50i64).map(|i| vm.fork(move |_cx| i)).collect();
    let sum: i64 = ts
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(sum, 49 * 50 / 2);
    vm.shutdown();
}

#[test]
fn global_queue_dispatches_in_its_declared_order() {
    let q = GlobalQueue::fifo();
    let vm = VmBuilder::new().vps(1).policy(move |_| q.policy()).build();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    // Occupy the VP so all forks enqueue before any runs.
    let gate = Arc::new(AtomicBool::new(false));
    let g = gate.clone();
    let blocker = vm.fork(move |cx| {
        while !g.load(Ordering::SeqCst) {
            cx.yield_now();
        }
        0i64
    });
    std::thread::sleep(Duration::from_millis(10));
    let ts: Vec<_> = (1..=3i64)
        .map(|tag| {
            let o = order.clone();
            vm.fork(move |_cx| {
                o.lock().push(tag);
                tag
            })
        })
        .collect();
    gate.store(true, Ordering::SeqCst);
    blocker.join_blocking().unwrap();
    for t in ts {
        t.join_blocking().unwrap();
    }
    assert_eq!(order.lock().clone(), vec![1, 2, 3], "global-fifo");
    vm.shutdown();
}

#[test]
fn migration_moves_work_to_idle_vps() {
    let vm = VmBuilder::new()
        .vps(2)
        .processors(2)
        .policy(|_| policies::local_fifo().migrating(true).boxed())
        .build();
    // Pile everything on VP 0; VP 1 must pull via migration.
    let ts: Vec<_> = (0..40i64)
        .map(|i| {
            vm.fork_on(0, move |cx| {
                cx.yield_now();
                i
            })
            .unwrap()
        })
        .collect();
    for t in ts {
        t.join_blocking().unwrap();
    }
    vm.shutdown();
}

/// Reproduction: a fork onto the forking VP is offered to an idle sibling
/// at once.  A thread spins long enough for VP 1's worker to park, forks a
/// child onto its own VP 0 and keeps spinning; the child must run on VP 1
/// within 100 ms.  When an owner push did not signal, the sibling found
/// nothing until the spinner gave up (5 s): no clock wakes an idle worker.
#[test]
fn fork_on_a_busy_vp_wakes_the_idle_sibling() {
    let vm = VmBuilder::new()
        .vps(2)
        .processors(2)
        .policy(|_| policies::local_fifo().migrating(true).boxed())
        .build();
    let waited_us = vm
        .fork_on(0, |cx| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(20) {
                std::hint::spin_loop();
            }
            let here = cx.current_vp().index();
            let ran = Arc::new(AtomicBool::new(false));
            let flag = ran.clone();
            let forked = Instant::now();
            let child = cx
                .fork_on(here, move |cx| {
                    flag.store(true, Ordering::Release);
                    cx.current_vp().index() as i64
                })
                .unwrap();
            while !ran.load(Ordering::Acquire) && forked.elapsed() < Duration::from_secs(5) {
                std::hint::spin_loop();
            }
            let waited = forked.elapsed().as_micros() as i64;
            let ran_on = cx.wait(&child).unwrap().as_int().unwrap();
            assert_ne!(ran_on as usize, here, "the child ran on the forking VP");
            waited
        })
        .unwrap()
        .join_blocking()
        .unwrap()
        .as_int()
        .unwrap();
    assert!(
        waited_us < 100_000,
        "the idle sibling took {waited_us} µs to run the child"
    );
    vm.shutdown();
}

#[test]
fn groups_collect_and_kill() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let vmref = cx.vm();
        let group = vmref.root_group().subgroup(Some("workers".into()));
        let mut spinners = Vec::new();
        for _ in 0..5 {
            let t = ThreadBuilder::new(&vmref)
                .group(group.clone())
                .spawn(|cx: &sting_core::Cx| -> i64 {
                    loop {
                        cx.yield_now();
                    }
                })
                .unwrap();
            spinners.push(t);
        }
        cx.yield_now();
        assert_eq!(group.len(), 5);
        group.terminate_all(Value::sym("group-killed"));
        for t in &spinners {
            assert_eq!(cx.wait(t), Ok(Value::sym("group-killed")));
        }
        1i64
    });
    assert_eq!(r, Ok(Value::Int(1)));
    vm.shutdown();
}

#[test]
fn children_inherit_group_and_genealogy() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let me = cx.current_thread();
        let child = cx.fork(|cx| {
            let grandchild = cx.fork(|_cx| 0i64);
            cx.wait(&grandchild).unwrap();
            0i64
        });
        cx.wait(&child).unwrap();
        let kids = me.children();
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].id(), child.id());
        assert!(std::sync::Arc::ptr_eq(child.group(), me.group()));
        let tree = sting_core::ThreadGroup::genealogy(&me);
        assert!(tree.lines().count() >= 2);
        1i64
    });
    assert_eq!(r, Ok(Value::Int(1)));
    vm.shutdown();
}

#[test]
fn two_vms_share_one_physical_machine() {
    let machine = PhysicalMachine::new(1);
    let vm_a = VmBuilder::new().vps(1).machine(machine.clone()).build();
    let vm_b = VmBuilder::new().vps(1).machine(machine.clone()).build();
    let a = vm_a.fork(|_cx| 1i64);
    let b = vm_b.fork(|_cx| 2i64);
    assert_eq!(a.join_blocking(), Ok(Value::Int(1)));
    assert_eq!(b.join_blocking(), Ok(Value::Int(2)));
    vm_a.shutdown();
    // vm_b still works after vm_a is gone.
    let b2 = vm_b.fork(|_cx| 3i64);
    assert_eq!(b2.join_blocking(), Ok(Value::Int(3)));
    vm_b.shutdown();
    let _ = b;
}

/// A VM moved to another machine wakes *that* machine's workers: work
/// enqueued from outside is dispatched at once (no clock would wake the
/// new machine's idle worker later), and the old machine is let go.
#[test]
fn reattached_vm_wakes_its_new_machine() {
    let a = PhysicalMachine::new(1);
    let b = PhysicalMachine::new(1);
    let vm = VmBuilder::new().vps(1).machine(a.clone()).build();
    assert_eq!(vm.fork(|_cx| 1i64).join_blocking(), Ok(Value::Int(1)));
    a.detach(&vm);
    assert_eq!(
        Arc::strong_count(&a),
        1,
        "detached VM still pins its machine"
    );
    b.attach(&vm);
    // Let b's worker finish the pass `attach` woke it for and park.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    assert_eq!(vm.fork(|_cx| 2i64).join_blocking(), Ok(Value::Int(2)));
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "fork waited {waited:?}: the wake went to the wrong machine"
    );
    vm.shutdown();
}

#[test]
fn shutdown_completes_stragglers_with_exception() {
    let vm = vm1();
    let blocked = vm.fork(|cx| {
        cx.block(None);
        0i64
    });
    let delayed = vm.delayed(|_cx| 0i64);
    std::thread::sleep(Duration::from_millis(30));
    vm.shutdown();
    assert_eq!(blocked.join_blocking(), Err(Value::sym("vm-shutdown")));
    assert_eq!(delayed.join_blocking(), Err(Value::sym("vm-shutdown")));
}

#[test]
fn stack_recycling_counts() {
    let vm = vm1();
    for _ in 0..20 {
        vm.fork(|_cx| 0i64).join_blocking().unwrap();
    }
    let snap = vm.counters().snapshot();
    assert!(
        snap.stacks_recycled >= 10,
        "expected stack reuse, got {}",
        snap.stacks_recycled
    );
    vm.shutdown();
}

#[test]
fn current_thread_identity_during_steal() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let outer_id = cx.current_thread().id();
        let lazy = cx.delayed(move |cx| {
            // Inside the stolen thunk, current-thread is the stolen thread.
            i64::from(cx.current_thread().id() != outer_id)
        });
        let lazy_id = lazy.id();
        assert_ne!(lazy_id, outer_id);
        let v = cx.touch(&lazy).unwrap().as_int().unwrap();
        // Identity restored after the steal.
        assert_eq!(cx.current_thread().id(), outer_id);
        v
    });
    assert_eq!(r, Ok(Value::Int(1)));
    vm.shutdown();
}

#[test]
fn wait_from_plain_os_thread_falls_back_to_join() {
    let vm = vm1();
    let t = vm.fork(|_cx| 11i64);
    // tc::wait off-thread should not panic.
    assert_eq!(tc::wait(&t), Ok(Value::Int(11)));
    vm.shutdown();
}

/// Reproduction: `join_blocking` called on a STING thread parks that
/// thread, not its VP's OS worker.  On a one-VP machine a thread forks a
/// child onto its own VP and joins it with `join_blocking`; the child can
/// only run if the worker is free to dispatch it.  When the join slept the
/// worker in a condvar, the child never ran and the host's wait timed out.
#[test]
fn join_blocking_on_a_sting_thread_parks_only_that_thread() {
    let vm = vm1();
    let outer = vm.fork(|cx| {
        let child = cx.fork(|_| 5i64);
        child.join_blocking().unwrap().as_int().unwrap() + 1
    });
    let Some(joined) = outer.join_blocking_timeout(Duration::from_secs(5)) else {
        // The worker is asleep for good: leak the machine rather than hang
        // in `shutdown`.
        std::mem::forget(vm);
        panic!("the child never ran: join_blocking slept the VP's worker");
    };
    assert_eq!(joined, Ok(Value::Int(6)));
    vm.shutdown();
}

#[test]
fn topology_addressing_with_vps() {
    let vm = vm(4);
    let topo = Topology::ring(vm.vp_count());
    let r = vm.run(move |cx| {
        let here = cx.current_vp().index();
        let right = topo.right(here).unwrap();
        let t = cx
            .fork_on(right, |cx| cx.current_vp().index() as i64)
            .unwrap();
        cx.wait(&t).unwrap().as_int().unwrap()
    });
    let got = r.unwrap().as_int().unwrap();
    assert!((got as usize) < vm.vp_count());
    vm.shutdown();
}

#[test]
fn counters_track_lifecycle() {
    let vm = vm1();
    let before = vm.counters().snapshot();
    let t = vm.fork(|cx| {
        cx.yield_now();
        0i64
    });
    t.join_blocking().unwrap();
    let d = vm.counters().snapshot().since(&before);
    assert_eq!(d.threads_created, 1);
    assert_eq!(d.tcbs_allocated, 1);
    assert_eq!(d.determinations, 1);
    assert!(d.yields >= 1);
    assert!(d.context_switches >= 2);
    vm.shutdown();
}

#[test]
fn thread_raise_into_evaluating_thread() {
    let vm = vm1();
    let spinner = vm.fork(|cx| -> i64 {
        loop {
            cx.checkpoint();
            cx.yield_now();
        }
    });
    std::thread::sleep(Duration::from_millis(20));
    tc::thread_raise(&spinner, Value::sym("interrupted")).unwrap();
    assert_eq!(spinner.join_blocking(), Err(Value::sym("interrupted")));
    vm.shutdown();
}

#[test]
fn thread_raise_into_passive_thread() {
    let vm = vm1();
    let d = vm.delayed(|_cx| 0i64);
    tc::thread_raise(&d, Value::sym("never-ran")).unwrap();
    assert_eq!(d.join_blocking(), Err(Value::sym("never-ran")));
    vm.shutdown();
}

#[test]
fn io_offload_from_nested_thread() {
    let vm = vm1();
    let r = vm.run(|cx| {
        let t = cx.fork(|_cx| sting_core::io::offload(|| 7i64));
        cx.wait(&t).unwrap().as_int().unwrap()
    });
    assert_eq!(r, Ok(Value::Int(7)));
    vm.shutdown();
}

#[test]
fn tcb_migration_when_enabled() {
    // With migrate_tcbs, even evaluating (parked-between-quanta) threads
    // move to idle VPs; the counter proves migration happened.
    let vm = VmBuilder::new()
        .vps(2)
        .processors(1)
        .policy(|_| {
            sting_core::policies::local_fifo()
                .migrating(true)
                .migrate_tcbs(true)
                .boxed()
        })
        .build();
    // Pile yieldy threads onto VP 0 only.  They spin-yield until released,
    // so VP 0's queue stays populated and VP 1's idle probes are guaranteed
    // to find something to pull.  (A fixed yield count is not enough: the
    // worker drains each fork as fast as this thread creates it, so the
    // victim queue can be empty at every probe and the migrations counter —
    // which counts only *committed* hand-offs — would legitimately stay 0.)
    let gate = Arc::new(AtomicBool::new(false));
    let ts: Vec<_> = (0..20)
        .map(|i| {
            let gate = gate.clone();
            vm.fork_on(0, move |cx| {
                while !gate.load(Ordering::Acquire) {
                    cx.yield_now();
                }
                i as i64
            })
            .unwrap()
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while vm.counters().snapshot().migrations == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle VP 1 should have pulled TCBs from VP 0"
        );
        std::thread::yield_now();
    }
    gate.store(true, Ordering::Release);
    for t in ts {
        t.join_blocking().unwrap();
    }
    vm.shutdown();
}

#[test]
fn touch_demands_unstealable_delayed_thread() {
    // Touch is the demand: even with stealing forbidden, touching a
    // delayed thread must schedule it rather than wait forever.
    let vm = vm1();
    let r = vm.run(|cx| {
        let lazy = ThreadBuilder::new(&cx.vm())
            .stealable(false)
            .delayed(|_| 64i64);
        cx.touch(&lazy).unwrap().as_int().unwrap()
    });
    assert_eq!(r, Ok(Value::Int(64)));
    assert_eq!(vm.counters().snapshot().steals, 0);
    vm.shutdown();
}

/// The calling OS thread's kernel task id, read from `/proc/thread-self`.
fn task_id() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("procfs is mounted");
    let name = link.file_name().expect("self/task/<tid>");
    name.to_string_lossy().into_owned()
}

/// `voluntary_ctxt_switches` of task `tid` of this process.
fn voluntary_switches(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has voluntary_ctxt_switches")
}

/// Every task of this process whose name starts with `prefix`.
fn tasks_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| {
            let tid = e.ok()?.file_name().to_string_lossy().into_owned();
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with(prefix).then_some(tid)
        })
        .collect()
}

/// Reproduction: an idle machine sleeps.  A 2-worker VM with nothing to
/// run and no timer pending wakes its workers at most twice in 200 ms
/// between them, and no thread wakes on a clock for it.  (Other tests
/// share this process, so its own workers are found by running a thread
/// on each; a clock thread of any machine would show by name.)
#[test]
fn an_idle_machine_sleeps() {
    let vm = VmBuilder::new()
        .vps(2)
        .processors(2)
        .policy(|_| policies::local_fifo().boxed())
        .build();
    let mut tasks: Vec<String> = (0..2)
        .map(|vp| {
            let t = vm
                .fork_on(vp, |_| task_id().parse::<i64>().unwrap())
                .unwrap();
            t.join_blocking().unwrap().as_int().unwrap().to_string()
        })
        .collect();
    tasks.sort();
    tasks.dedup();
    assert_eq!(tasks.len(), 2, "each VP runs on a worker of its own");
    // Ticking threads, of any machine alive in this process.
    let clocks = tasks_named("sting-timekeep");
    tasks.extend(clocks.iter().cloned());
    std::thread::sleep(Duration::from_millis(50));
    let before: u64 = tasks.iter().map(|t| voluntary_switches(t)).sum();
    std::thread::sleep(Duration::from_millis(200));
    let after: u64 = tasks.iter().map(|t| voluntary_switches(t)).sum();
    assert!(
        after - before <= 2,
        "an idle machine woke {} times in 200 ms",
        after - before
    );
    assert!(clocks.is_empty(), "clock threads exist: {clocks:?}");
    vm.shutdown();
}

/// No tick fires a timer: with the only worker of a 1-VP VM parked (no
/// reactor, so in `park_timeout`), a 20 ms sleep resumes at its deadline.
/// The bound tests that it fires at all, not its precision.
#[test]
fn sleep_resumes_while_the_only_worker_parks() {
    let vm = vm1();
    let slept = vm.fork(|cx| {
        let start = Instant::now();
        cx.sleep(Duration::from_millis(20));
        start.elapsed().as_micros() as i64
    });
    let slept = tc::wait_timeout(&slept, Duration::from_secs(5)).expect("the sleeper never woke");
    let slept = Duration::from_micros(slept.unwrap().as_int().unwrap() as u64);
    assert!(slept >= Duration::from_millis(20), "woke early: {slept:?}");
    assert!(slept < Duration::from_millis(500), "woke late: {slept:?}");
    vm.shutdown();
}

/// A timer armed from a host thread on a suspended thread, earlier than
/// every deadline pending, wakes the idle worker that sized its park by
/// the old earliest deadline (10 s here): the thread resumes at once.
#[test]
fn a_host_timer_that_lowers_the_earliest_deadline_wakes_the_worker() {
    let vm = vm1();
    let t = vm.fork(|cx| {
        cx.sleep(Duration::from_secs(10));
        1i64
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while t.state() != ThreadState::Suspended {
        assert!(Instant::now() < deadline, "the sleeper never suspended");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the worker finish its pass and park by the 10 s deadline.
    std::thread::sleep(Duration::from_millis(20));
    let armed = Instant::now();
    vm.timers()
        .add(armed + Duration::from_millis(20), t.clone());
    let woke = tc::wait_timeout(&t, Duration::from_secs(5));
    assert_eq!(woke, Some(Ok(Value::Int(1))), "the sleeper never woke");
    let waited = armed.elapsed();
    assert!(
        waited >= Duration::from_millis(20),
        "woke early: {waited:?}"
    );
    assert!(waited < Duration::from_millis(500), "woke late: {waited:?}");
    vm.shutdown();
}
