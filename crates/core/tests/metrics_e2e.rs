//! End-to-end tests for the scheduler latency metrics: real VMs, real
//! threads, sampling period 1 so every eligible event is stamped.

use std::sync::Arc;
use sting_core::{tc, Vm, VmBuilder};

fn metered_vm(vps: usize) -> Arc<Vm> {
    VmBuilder::new().vps(vps).metrics_sample(1).build()
}

#[test]
fn dispatch_histogram_fills_from_yields() {
    let vm = metered_vm(1);
    vm.run(|cx| {
        for _ in 0..200 {
            cx.yield_now();
        }
        0i64
    })
    .unwrap();
    let snap = vm.metrics().snapshot();
    // Every yield re-enqueues the thread and dispatches it again; with
    // period 1 each round trip must produce one dispatch sample.
    assert!(
        snap.dispatch.count >= 200,
        "expected >=200 dispatch samples, got {}",
        snap.dispatch.count
    );
    assert!(snap.dispatch.min >= 1, "latencies are clamped to >=1 ns");
    assert!(snap.dispatch.p50() >= snap.dispatch.min);
    assert!(snap.dispatch.p99() <= snap.dispatch.max);
    vm.shutdown();
}

#[test]
fn wake_histogram_fills_from_block_resume() {
    let vm = metered_vm(1);
    let rounds = 50u64;
    vm.run(move |cx| {
        let me = cx.current_thread();
        let partner = cx.fork(move |cx2| {
            tc::unblock(&me);
            for _ in 0..rounds {
                cx2.block(None);
                tc::unblock(&me);
            }
            0i64
        });
        cx.block(None);
        for _ in 0..rounds {
            tc::unblock(&partner);
            cx.block(None);
        }
        let _ = cx.wait(&partner);
        0i64
    })
    .unwrap();
    let snap = vm.metrics().snapshot();
    assert!(
        snap.wake.count >= rounds,
        "expected >={rounds} block->wake samples, got {}",
        snap.wake.count
    );
    assert!(
        snap.wake.sum >= snap.wake.count,
        "sum aggregates >=1 ns samples"
    );
    vm.shutdown();
}

#[test]
fn per_vp_snapshots_merge_into_totals() {
    let vm = metered_vm(2);
    let ts: Vec<_> = (0..20)
        .map(|_| {
            vm.fork(|cx| {
                for _ in 0..20 {
                    cx.yield_now();
                }
                0i64
            })
        })
        .collect();
    for t in ts {
        t.join_blocking().unwrap();
    }
    let snap = vm.metrics().snapshot();
    let per_vp_total: u64 = snap.per_vp.iter().map(|v| v.dispatch.count).sum();
    assert_eq!(
        per_vp_total, snap.dispatch.count,
        "merged dispatch count must equal the sum of per-VP counts"
    );
    assert_eq!(snap.per_vp.len(), 2);
    vm.shutdown();
}

#[test]
fn disabled_metrics_record_nothing() {
    let vm = VmBuilder::new().vps(1).metrics_sample(1).build();
    vm.metrics().set_enabled(false);
    vm.run(|cx| {
        for _ in 0..100 {
            cx.yield_now();
        }
        0i64
    })
    .unwrap();
    let snap = vm.metrics().snapshot();
    assert_eq!(snap.dispatch.count, 0);
    assert_eq!(snap.wake.count, 0);
    assert_eq!(snap.steal.count, 0);
    vm.shutdown();
}

#[test]
fn stacks_recycled_counter_matches_pool_stats() {
    // The counter must agree with the pools' own recycled-hit tallies —
    // it used to count pool occupancy instead of actual recycling hits.
    let vm = metered_vm(1);
    // Sequential threads: each one's stack returns to the pool before the
    // next is born, so recycling must actually occur.
    for _ in 0..30 {
        vm.fork(|_| 0i64).join_blocking().unwrap();
    }
    let counted = vm.counters().snapshot().stacks_recycled;
    let pool_recycled: u64 = (0..vm.vp_count())
        .map(|i| vm.vp(i).expect("vp exists").stack_pool_stats().1)
        .sum();
    assert_eq!(
        counted, pool_recycled,
        "stacks_recycled counter must reconcile with the stack pools' hit counts"
    );
    assert!(pool_recycled > 0, "sequential threads must recycle stacks");
    vm.shutdown();
}
