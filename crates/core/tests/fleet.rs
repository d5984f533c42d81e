//! Fleet integration: cross-shard calls and handoffs over the fabric,
//! fleet-wide merged trace audit, and the terminate-while-migrating
//! churn (a thread cancelled mid-handoff must leave both shards clean).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::audit::FindingKind;
use sting_core::fleet::Fleet;
use sting_core::tc;
use sting_core::trace::EventKind;
use sting_core::wait::Waiter;
use sting_value::Value;

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// A routed `Fabric::call` runs on the destination shard and the receiver
/// witnesses the sender's clock (the destination's clock jumps past it).
#[test]
fn fabric_call_runs_on_destination_shard() {
    let fleet = Fleet::builder().shards(2).trace(true).build();
    let fabric = fleet.fabric().unwrap().clone();
    let ran_on = Arc::new(AtomicU64::new(u64::MAX));
    let flag = ran_on.clone();
    fabric.call(
        fleet.shard(0),
        1,
        Box::new(move |vm| flag.store(vm.shard_id() as u64, Ordering::Release)),
    );
    assert!(
        wait_until(Duration::from_secs(5), || ran_on.load(Ordering::Acquire)
            == 1),
        "routed call never ran on shard 1"
    );
    // Local calls are inline: no inbox, immediate effect.
    let inline = Arc::new(AtomicU64::new(0));
    let flag = inline.clone();
    fabric.call(
        fleet.shard(0),
        0,
        Box::new(move |vm| flag.store(vm.shard_id() as u64 + 7, Ordering::Release)),
    );
    assert_eq!(inline.load(Ordering::Acquire), 7);
    fleet.shutdown();
}

/// Reproduction: every shard of a `vps_per_shard(1)` fleet has VP index 0,
/// and the machine used to hand VPs to workers by that index — so both
/// shards shared worker 0, worker 1 served nobody, and a thread that spins
/// without a checkpoint on one shard kept the other from ever running.
/// Now any worker runs any VP whose owner word it wins, so the free worker
/// runs shard 1, and the flag is seen in microseconds.
#[test]
fn single_vp_shards_run_on_separate_workers() {
    let fleet = Fleet::builder()
        .shards(2)
        .vps_per_shard(1)
        .processors(2)
        .build();
    let flag = Arc::new(AtomicBool::new(false));
    let spinner = {
        let flag = flag.clone();
        fleet.shard(0).fork(move |_cx| {
            let t0 = Instant::now();
            while !flag.load(Ordering::Acquire) {
                if t0.elapsed() > Duration::from_secs(5) {
                    return -1;
                }
                std::hint::spin_loop();
            }
            t0.elapsed().as_micros() as i64
        })
    };
    let setter = fleet.shard(1).fork(move |_cx| {
        flag.store(true, Ordering::Release);
        0i64
    });
    let waited_us = spinner.join_blocking().unwrap().as_int().unwrap();
    assert!(
        waited_us >= 0,
        "shard 1 never ran while shard 0 spun: both VPs share one worker"
    );
    assert_eq!(setter.join_blocking(), Ok(Value::Int(0)));
    fleet.shutdown();
}

/// Reproduction: a thread on shard 0 that parks for the reply to a call
/// routed through shard 1 is always woken.  The reply is mail to shard 0,
/// and mail to a single-VP shard whose VP is held wakes nobody: the owner
/// pumps it next.  The owner whose slice ran dry (the caller parked) must
/// look at its inbox once more after giving the VP back, or the mail
/// sits there while every worker sleeps.
#[test]
fn a_parked_caller_on_a_single_vp_shard_gets_its_routed_reply() {
    let fleet = Fleet::builder().shards(2).processors(2).build();
    let fabric = fleet.fabric().expect("two shards have a fabric").clone();
    let home = fleet.shard(0).clone();
    let done = Arc::new(AtomicU64::new(0));
    let caller = {
        let done = done.clone();
        fleet.shard(0).fork(move |_cx| {
            for i in 0..20_000 {
                let waiter = Waiter::current();
                let (fabric2, reply) = (fabric.clone(), waiter.clone());
                fabric.call(
                    &home,
                    1,
                    Box::new(move |there| {
                        fabric2.call(
                            there,
                            0,
                            Box::new(move |_| {
                                reply.wake();
                            }),
                        );
                    }),
                );
                waiter.park(&Value::sym("reply"));
                done.store(i, Ordering::Relaxed);
            }
            0i64
        })
    };
    assert!(
        wait_until(Duration::from_secs(10), || caller.is_determined()),
        "the caller stalled after {} round trips",
        done.load(Ordering::Relaxed)
    );
    fleet.shutdown();
}

/// Reproduction: an idle fleet sleeps.  A shard that found nothing used to
/// post a work request that woke its victim, which found nothing and asked
/// back: two idle shards kept a core busy between them (a 4-shard fleet,
/// two).  Left alone for a second, an idle fleet now wakes no worker.
#[test]
fn idle_fleets_leave_their_workers_parked() {
    for shards in [2, 4] {
        let fleet = Fleet::builder().shards(shards).processors(2).build();
        let wakes = || -> u64 {
            fleet
                .shards()
                .iter()
                .map(|vm| vm.counters().snapshot().worker_wakes)
                .sum()
        };
        std::thread::sleep(Duration::from_millis(50));
        let before = wakes();
        std::thread::sleep(Duration::from_secs(1));
        let woken = wakes() - before;
        assert!(
            woken <= 10,
            "an idle {shards}-shard fleet woke its workers {woken} times in a second"
        );
        fleet.shutdown();
    }
}

/// Work forked onto one shard spreads to the idle sibling via the
/// fabric's handoff protocol, thread ids stay fleet-unique, and the
/// merged fleet-wide replay audits clean (acceptance criterion).
#[test]
fn two_shard_fleet_hands_off_work_and_audits_clean() {
    let fleet = Fleet::builder()
        .shards(2)
        .trace(true)
        .trace_capacity(1 << 15)
        .build();
    let mut handoffs = 0usize;
    for _round in 0..50 {
        // Pile a batch onto shard 0; shard 1 has nothing and must ask.
        let threads: Vec<_> = (0..32i64)
            .map(|i| {
                fleet
                    .shard(0)
                    .fork_on(0, move |cx| {
                        let mut acc = i as u64;
                        for _ in 0..500 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                            std::hint::black_box(acc);
                        }
                        cx.checkpoint();
                        i
                    })
                    .unwrap()
            })
            .collect();
        let sum: i64 = threads
            .iter()
            .map(|t| t.join_blocking().unwrap().as_int().unwrap())
            .sum();
        assert_eq!(sum, (0..32i64).sum::<i64>());
        handoffs = fleet
            .shards()
            .iter()
            .map(|vm| vm.counters().snapshot().handoffs as usize)
            .sum();
        if handoffs > 0 {
            break;
        }
    }
    assert!(handoffs > 0, "idle shard never received a handoff");
    let events = fleet.merged_snapshot();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Handoff),
        "no Handoff event in the merged stream"
    );
    // The merged stream is in (lc, ts) order.
    assert!(events
        .windows(2)
        .all(|w| (w[0].lc, w[0].ts_ns) <= (w[1].lc, w[1].ts_ns)));
    let report = fleet.trace_audit();
    assert!(!fleet.truncated(), "grow trace_capacity: ring wrapped");
    assert!(report.is_clean(), "fleet-wide audit:\n{report}");
    fleet.shutdown();
}

/// Satellite: terminate-while-migrating.  Threads are cancelled while
/// batches bounce between shards; afterwards every thread is determined
/// and neither shard shows a WaiterLeak, LostWakeup, or WakeAfterCancel
/// in the merged replay (the per-shard debug shutdown audits also run).
#[test]
fn terminate_mid_handoff_leaves_both_shards_clean() {
    let fleet = Fleet::builder()
        .shards(2)
        .trace(true)
        .trace_capacity(1 << 15)
        .build();
    let stop = Arc::new(AtomicBool::new(false));
    for _round in 0..20 {
        let threads: Vec<_> = (0..16i64)
            .map(|i| {
                let stop = stop.clone();
                fleet
                    .shard(0)
                    .fork_on(0, move |cx| {
                        while !stop.load(Ordering::Relaxed) {
                            cx.checkpoint();
                            std::thread::yield_now();
                        }
                        i
                    })
                    .unwrap()
            })
            .collect();
        // Cancel every other thread while handoffs are in flight; the
        // rest run to completion once `stop` flips.
        for t in threads.iter().step_by(2) {
            tc::thread_terminate(t, Value::sym("killed")).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for t in &threads {
            let _ = t.join_blocking();
            assert!(t.is_determined());
        }
        stop.store(false, Ordering::Relaxed);
    }
    let report = fleet.trace_audit();
    for f in &report.findings {
        assert!(
            !matches!(
                f.kind,
                FindingKind::WaiterLeak | FindingKind::LostWakeup | FindingKind::WakeAfterCancel
            ),
            "terminate-mid-handoff violation:\n{report}"
        );
    }
    // Shutdown runs each shard's debug audit (panics on hard findings).
    fleet.shutdown();
}

/// Thread ids never collide across shards: the fleet shares one id source.
#[test]
fn thread_ids_are_fleet_unique() {
    let fleet = Fleet::builder().shards(4).build();
    let mut seen = std::collections::BTreeSet::new();
    for vm in fleet.shards() {
        for _ in 0..8 {
            let t = vm.fork(|_| 0i64);
            assert!(seen.insert(t.id().0), "duplicate thread id across shards");
            t.join_blocking().unwrap();
        }
    }
    fleet.shutdown();
}

/// Mail to a shard of two VPs is applied one message at a time, in posting
/// order, though both VPs pump it: a thread on shard 0 posts numbered
/// calls to shard 1, and each call appends its number to a log.
#[test]
fn fabric_calls_keep_posting_order_on_a_multi_vp_shard() {
    const CALLS: u64 = 20_000;
    let fleet = Fleet::builder()
        .shards(2)
        .vps_per_shard(2)
        .processors(2)
        .build();
    let fabric = fleet.fabric().unwrap().clone();
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let poster = {
        let (home, log) = (fleet.shard(0).clone(), log.clone());
        fleet.shard(0).fork(move |cx| {
            for i in 0..CALLS {
                let log = log.clone();
                fabric.call(
                    &home,
                    1,
                    Box::new(move |vm| {
                        assert_eq!(vm.shard_id(), 1);
                        log.lock().unwrap().push(i);
                    }),
                );
                if i % 64 == 0 {
                    cx.checkpoint();
                }
            }
            0i64
        })
    };
    assert_eq!(poster.join_blocking(), Ok(Value::Int(0)));
    assert!(
        wait_until(Duration::from_secs(10), || log.lock().unwrap().len()
            == CALLS as usize),
        "{} of {CALLS} calls ran",
        log.lock().unwrap().len()
    );
    let log = log.lock().unwrap();
    let misplaced = log.iter().zip(0..).find(|&(&got, want)| got != want);
    assert_eq!(misplaced, None, "a call ran out of posting order");
    drop(log);
    fleet.shutdown();
}
