//! The paper's Section 4 paradigms, end to end, with the substrate
//! behaviours they depend on asserted through counters: result
//! parallelism (stealing), master/slave (blocking + preemption),
//! speculative and barrier synchronization.

use std::sync::Arc;
use sting::core::policies;
use sting::prelude::*;

/// Figure 3's prime finder, used by several tests.
fn primes_futures(vm: &Arc<Vm>, limit: i64) -> Vec<i64> {
    let r = vm.run(move |cx| {
        let mut primes = Future::spawn(cx, |_| Value::list([Value::Int(2)]));
        let mut i = 3i64;
        while i <= limit {
            let prev = primes.clone();
            primes = Future::delay(&cx.vm(), move |cx| {
                let mut j = 3i64;
                while j * j <= i {
                    if i % j == 0 {
                        return prev.force(cx);
                    }
                    j += 2;
                }
                Value::cons(Value::Int(i), prev.force(cx))
            });
            i += 2;
        }
        primes.force(cx)
    });
    r.unwrap()
        .list_iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

#[test]
fn result_parallelism_is_correct_under_every_local_order() {
    let expect: Vec<i64> = vec![
        97, 89, 83, 79, 73, 71, 67, 61, 59, 53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11, 7, 5,
        3, 2,
    ];
    for factory in [
        policies::local_lifo as fn() -> policies::LocalQueue,
        policies::local_fifo as fn() -> policies::LocalQueue,
        policies::priority_high as fn() -> policies::LocalQueue,
        policies::priority_low as fn() -> policies::LocalQueue,
    ] {
        let vm = VmBuilder::new()
            .vps(1)
            .policy(move |_| factory().boxed())
            .build();
        assert_eq!(primes_futures(&vm, 100), expect);
        vm.shutdown();
    }
}

#[test]
fn lifo_steals_more_than_fifo() {
    // §4.1.1: "a LIFO scheduling policy will cause processes computing
    // large primes to be run first. Stealing will occur much more
    // frequently here."
    let count_steals = |factory: fn() -> policies::LocalQueue| {
        let vm = VmBuilder::new()
            .vps(1)
            .policy(move |_| factory().boxed())
            .build();
        primes_futures(&vm, 400);
        let s = vm.counters().snapshot();
        vm.shutdown();
        (s.steals, s.tcbs_allocated, s.blocks)
    };
    let (lifo_steals, lifo_tcbs, _) = count_steals(policies::local_lifo);
    let (fifo_steals, fifo_tcbs, _) = count_steals(policies::local_fifo);
    assert!(
        lifo_steals > fifo_steals,
        "LIFO steals ({lifo_steals}) must exceed FIFO steals ({fifo_steals})"
    );
    assert!(
        lifo_tcbs <= fifo_tcbs,
        "stealing throttles TCB allocation: LIFO {lifo_tcbs} vs FIFO {fifo_tcbs}"
    );
}

#[test]
fn master_slave_with_bounded_workers() {
    let vm = VmBuilder::new().vps(2).build();
    let ts = TupleSpace::new();
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let ts = ts.clone();
            vm.fork(move |cx| {
                let mut n = 0i64;
                loop {
                    let b = ts.get(&Template::new(vec![lit(Value::sym("w")), formal()]));
                    let x = b[0].as_int().unwrap();
                    if x < 0 {
                        return n;
                    }
                    ts.put(vec![Value::sym("r"), Value::Int(x), Value::Int(x + 1)]);
                    n += 1;
                    cx.checkpoint();
                }
            })
        })
        .collect();
    for x in 0..60i64 {
        ts.put(vec![Value::sym("w"), Value::Int(x)]);
    }
    let mut total = 0i64;
    for x in 0..60i64 {
        let b = ts.get(&Template::new(vec![lit(Value::sym("r")), lit(x), formal()]));
        total += b[0].as_int().unwrap();
    }
    assert_eq!(total, (1..=60i64).sum());
    for _ in 0..3 {
        ts.put(vec![Value::sym("w"), Value::Int(-1)]);
    }
    let processed: i64 = workers
        .into_iter()
        .map(|w| w.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(processed, 60);
    vm.shutdown();
}

#[test]
fn speculative_or_parallelism_reclaims_losers() {
    let vm = VmBuilder::new().vps(1).build();
    let r = vm.run(|cx| {
        let before = cx.vm().counters().snapshot();
        let losers: Vec<_> = (0..3)
            .map(|_| {
                cx.fork(|cx| -> i64 {
                    loop {
                        cx.yield_now();
                    }
                })
            })
            .collect();
        let winner = cx.fork(|_| 7i64);
        let mut group = losers.clone();
        group.push(winner);
        let (idx, result) = race(&group);
        assert_eq!(idx, 3);
        // Losers all determine (reclaimed).
        for l in &losers {
            let r = cx.wait(l);
            assert_eq!(r, Ok(Value::sym("speculation-lost")));
        }
        let after = cx.vm().counters().snapshot().since(&before);
        assert_eq!(after.determinations, 4);
        result.unwrap().as_int().unwrap()
    });
    assert_eq!(r.unwrap().as_int(), Some(7));
    vm.shutdown();
}

#[test]
fn barrier_phases_with_preemption_disabled() {
    // §4.2.2: fine-grained barrier phases benefit from disabling
    // preemption; here we just assert without_preemption preserves
    // correctness under barrier load.
    let vm = VmBuilder::new().vps(1).build();
    let barrier = Barrier::new(3);
    let ts: Vec<_> = (0..3)
        .map(|_| {
            let b = barrier.clone();
            vm.fork(move |cx| {
                let mut acc = 0i64;
                for _ in 0..20 {
                    cx.without_preemption(|| {
                        acc += 1;
                    });
                    b.arrive();
                }
                acc
            })
        })
        .collect();
    for t in ts {
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(20));
    }
    assert_eq!(barrier.generation(), 20);
    vm.shutdown();
}

#[test]
fn dataflow_with_ivars() {
    // I-structure style dataflow (reference [3]): a diamond dependency.
    let vm = VmBuilder::new().vps(2).build();
    let a = IVar::new();
    let b = IVar::new();
    let c = IVar::new();
    let (a1, b1) = (a.clone(), b.clone());
    vm.fork(move |_| {
        b1.put(Value::Int(a1.get().as_int().unwrap() * 2)).unwrap();
        0i64
    });
    let (a2, c1) = (a.clone(), c.clone());
    vm.fork(move |_| {
        c1.put(Value::Int(a2.get().as_int().unwrap() + 5)).unwrap();
        0i64
    });
    let (b2, c2) = (b.clone(), c.clone());
    let sink = vm.fork(move |_| b2.get().as_int().unwrap() + c2.get().as_int().unwrap());
    a.put(Value::Int(10)).unwrap();
    assert_eq!(sink.join_blocking().unwrap().as_int(), Some(35));
    vm.shutdown();
}

#[test]
fn systolic_neighbours_on_a_ring() {
    // §3.2: self-relative VP addressing for systolic programs.  A token
    // circulates the ring once, each node adding its index; the driver
    // collects the final token from node 3's outbox (= node 0's inbox).
    let vm = VmBuilder::new()
        .vps(4)
        .policy(|_| policies::local_fifo().boxed())
        .build();
    let topo = Topology::ring(4);
    let ch: Vec<Channel> = (0..4).map(|_| Channel::unbounded()).collect();
    let nodes: Vec<_> = (0..4usize)
        .map(|k| {
            let inbox = ch[k].clone();
            let outbox = ch[topo.right(k).unwrap()].clone();
            vm.fork_on(k, move |_| {
                let v = inbox.recv().unwrap().as_int().unwrap();
                outbox.send(Value::Int(v + k as i64)).unwrap();
                v
            })
            .unwrap()
        })
        .collect();
    ch[0].send(Value::Int(0)).unwrap();
    let seen: Vec<i64> = nodes
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .collect();
    // Node k saw the partial sum 0+1+…+(k-1).
    assert_eq!(seen, vec![0, 0, 1, 3]);
    // The completed token comes back around to node 0's channel.
    let final_token = ch[0].recv().unwrap().as_int().unwrap();
    assert_eq!(final_token, 6); // 0 + 1 + 2 + 3
    vm.shutdown();
}
