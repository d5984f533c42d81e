//! Property tests over random scheduling scenarios: whatever the policy,
//! priorities and yield pattern, every thread determines exactly once with
//! its own value, and the counters stay consistent.

use proptest::prelude::*;
use sting_core::policies::{self, GlobalQueue};
use sting_core::{PolicyManager, VmBuilder};

fn policy(pick: usize) -> Box<dyn PolicyManager> {
    match pick {
        0 => policies::local_fifo().boxed(),
        1 => policies::local_lifo().boxed(),
        2 => policies::local_fifo().migrating(true).boxed(),
        3 => policies::priority_high().boxed(),
        _ => policies::priority_low().migrating(true).boxed(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_thread_determines_once(
        pick in 0usize..5,
        vps in 1usize..4,
        specs in prop::collection::vec((0u8..3, -5i32..5, 1u64..50), 1..40),
    ) {
        let vm = VmBuilder::new()
            .vps(vps)
            .policy(move |_| policy(pick))
            .build();
        let before = vm.counters().snapshot();
        let threads: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, &(kind, prio, work))| {
                let expect = i as i64;
                let t = match kind {
                    // Plain compute.
                    0 => vm.fork(move |_cx| {
                        let mut x = 0u64;
                        for k in 0..work * 100 {
                            x = x.wrapping_add(k);
                        }
                        std::hint::black_box(x);
                        expect
                    }),
                    // Yields along the way.
                    1 => vm.fork(move |cx| {
                        for _ in 0..(work % 5) {
                            cx.yield_now();
                        }
                        expect
                    }),
                    // Forks a child and waits on it.
                    _ => vm.fork(move |cx| {
                        let c = cx.fork(move |_| expect * 1000);
                        cx.wait(&c).unwrap().as_int().unwrap() / 1000
                    }),
                };
                t.set_priority(prio);
                t
            })
            .collect();
        for (i, t) in threads.iter().enumerate() {
            let r = t.join_blocking();
            prop_assert_eq!(r.unwrap().as_int(), Some(i as i64));
            prop_assert!(t.is_determined());
        }
        let d = vm.counters().snapshot().since(&before);
        // Thread accounting: every spec thread, plus one child per kind-2.
        let children = specs.iter().filter(|s| s.0 >= 2).count() as u64;
        prop_assert_eq!(d.threads_created, specs.len() as u64 + children);
        prop_assert_eq!(d.determinations, specs.len() as u64 + children);
        vm.shutdown();
    }

    #[test]
    fn global_queue_conserves_threads(n in 1usize..60) {
        let q = GlobalQueue::fifo();
        let vm = VmBuilder::new().vps(2).policy(move |_| q.policy()).build();
        let ts: Vec<_> = (0..n).map(|i| vm.fork(move |_| i as i64)).collect();
        let sum: i64 = ts.iter().map(|t| t.join_blocking().unwrap().as_int().unwrap()).sum();
        prop_assert_eq!(sum, (0..n as i64).sum());
        vm.shutdown();
    }

    #[test]
    fn touch_and_wait_agree(n in 1usize..30, steal_mask in prop::collection::vec(any::<bool>(), 30)) {
        let vm = VmBuilder::new().vps(1).build();
        let r = {
            let steal_mask = steal_mask.clone();
            vm.run(move |cx| {
                let ts: Vec<_> = (0..n).map(|i| cx.delayed(move |_| i as i64 * 3)).collect();
                let mut total = 0;
                for (i, t) in ts.iter().enumerate() {
                    let v = if steal_mask[i] { cx.touch(t) } else {
                        let _ = sting_core::tc::thread_run(t, 0);
                        cx.wait(t)
                    };
                    total += v.unwrap().as_int().unwrap();
                }
                total
            })
        };
        prop_assert_eq!(r.unwrap().as_int(), Some((0..n as i64).map(|i| i * 3).sum()));
        vm.shutdown();
    }
}
