//! Stress and integration tests for the lock-free scheduler fast path:
//! the Chase–Lev deque, the banded `MultiDeque` and the MPSC injector in
//! `sting_core::deque`, and the wiring that puts every `LocalQueue` order
//! on them (see DESIGN.md, "Scheduler fast path").

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sting_core::deque::{Deque, Injector, MultiDeque, Steal, BANDS};
use sting_core::trace::EventKind;
use sting_core::{policies, VmBuilder};

/// One owner pushes (and occasionally pops) 100k distinct items while
/// several thieves hammer `steal`; afterwards every item must have been
/// claimed by exactly one side — nothing lost, nothing duplicated.
#[test]
fn stress_multi_thief_no_lost_or_duplicated_items() {
    const ITEMS: u64 = 100_000;
    const THIEVES: usize = 3;
    let deque: Arc<Deque<u64>> = Arc::new(Deque::with_capacity(8)); // force growth under fire
    let done = Arc::new(AtomicBool::new(false));

    let thieves: Vec<_> = (0..THIEVES)
        .map(|_| {
            let deque = deque.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match deque.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && deque.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                got
            })
        })
        .collect();

    let mut owner_got = Vec::new();
    for i in 0..ITEMS {
        deque.push(i);
        // Interleave owner pops so the bottom-end races the steals,
        // including the contended single-item CAS.
        if i % 3 == 0 {
            if let Some(v) = deque.pop() {
                owner_got.push(v);
            }
        }
    }
    done.store(true, Ordering::Release);

    let mut seen = vec![false; ITEMS as usize];
    let mut claim = |v: u64| {
        assert!(!seen[v as usize], "item {v} claimed twice");
        seen[v as usize] = true;
    };
    for v in owner_got {
        claim(v);
    }
    for t in thieves {
        for v in t.join().unwrap() {
            claim(v);
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    assert_eq!(missing, 0, "{missing} items lost");
}

/// The single-item race: owner and thieves fight over a deque that never
/// holds more than one item.  Exactly one side must win each round.
#[test]
fn stress_last_item_owner_vs_thief_race() {
    const ROUNDS: u64 = 50_000;
    let deque: Arc<Deque<u64>> = Arc::new(Deque::new());
    let done = Arc::new(AtomicBool::new(false));
    let stolen = Arc::new(AtomicUsize::new(0));

    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let deque = deque.clone();
            let done = done.clone();
            let stolen = stolen.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if matches!(deque.steal(), Steal::Success(_)) {
                        stolen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    let mut popped = 0usize;
    for i in 0..ROUNDS {
        deque.push(i);
        if deque.pop().is_some() {
            popped += 1;
        }
    }
    // Anything neither popped nor yet stolen is still queued; drain it.
    let mut residue = 0usize;
    while deque.steal_retrying().is_some() {
        residue += 1;
    }
    done.store(true, Ordering::Release);
    for t in thieves {
        t.join().unwrap();
    }
    let total = popped + residue + stolen.load(Ordering::Relaxed);
    assert_eq!(
        total as u64, ROUNDS,
        "every round's item claimed exactly once"
    );
}

/// Wrap the tiny ring thousands of times while thieves race: the masked
/// indices must never alias a live slot (the ABA hazard is resolved by the
/// monotonically increasing `top` CAS).
#[test]
fn stress_wraparound_with_concurrent_thieves() {
    const BATCHES: u64 = 20_000;
    let deque: Arc<Deque<u64>> = Arc::new(Deque::with_capacity(4));
    let done = Arc::new(AtomicBool::new(false));
    let thief = {
        let deque = deque.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut got = Vec::new();
            while !(done.load(Ordering::Acquire) && deque.is_empty()) {
                if let Steal::Success(v) = deque.steal() {
                    got.push(v);
                }
            }
            got
        })
    };
    let mut owner_got = Vec::new();
    let mut next = 0u64;
    for _ in 0..BATCHES {
        for _ in 0..3 {
            deque.push(next);
            next += 1;
        }
        for _ in 0..3 {
            if let Some(v) = deque.pop() {
                owner_got.push(v);
            }
        }
    }
    done.store(true, Ordering::Release);
    let mut all = owner_got;
    all.extend(thief.join().unwrap());
    all.sort_unstable();
    let expected: Vec<u64> = (0..next).collect();
    assert_eq!(all, expected, "wraparound lost or duplicated items");
}

/// Concurrent producers on the injector: every pushed item is drained
/// exactly once, and each producer's items come out in its push order.
#[test]
fn stress_injector_multi_producer() {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 25_000;
    let q: Arc<Injector<u64>> = Arc::new(Injector::new());
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..PER {
                    q.push(p * PER + i);
                }
            })
        })
        .collect();
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while got.len() < (PRODUCERS * PER) as usize {
        got.extend(q.drain());
        assert!(Instant::now() < deadline, "injector drain stalled");
    }
    for p in producers {
        p.join().unwrap();
    }
    assert!(q.is_empty());
    // Exactly-once delivery…
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..PRODUCERS * PER).collect::<Vec<_>>());
    // …and per-producer FIFO within the drained stream.
    let mut last = vec![None::<u64>; PRODUCERS as usize];
    for v in got {
        let p = (v / PER) as usize;
        assert!(
            last[p].is_none_or(|prev| prev < v),
            "producer {p} reordered"
        );
        last[p] = Some(v);
    }
}

/// A migrating FIFO policy on 4 VPs rides the deque tier, and the
/// migrations that spread its work are the lock-free `Deque::steal` path —
/// witnessed by the flight recorder's `Migrate` events.
///
/// VP 0's owner is wedged in a non-yielding spinner, so the fresh threads
/// piled onto VP 0 can *only* complete by being stolen by VPs 1–3: their
/// determination proves the lock-free migration path end to end.
#[test]
fn four_vp_migration_rides_the_lock_free_tier() {
    const WORKERS: i64 = 32;
    let vm = VmBuilder::new()
        .vps(4)
        .processors(4)
        .policy(|_| policies::local_fifo().migrating(true).boxed())
        .trace(true)
        .build();
    for vp in vm.vps() {
        assert!(
            vp.lock_free_queue(),
            "migrating FIFO must opt into the deque tier"
        );
    }
    let gate = Arc::new(AtomicBool::new(false));
    // The spinner may itself be stolen before it first runs, so let it
    // report which VP it actually wedged and pile the workers there.
    let wedged = Arc::new(AtomicUsize::new(usize::MAX));
    let g = gate.clone();
    let w = wedged.clone();
    let spinner = vm.fork(move |cx| {
        w.store(cx.current_vp().index(), Ordering::Release);
        // Never yields: this VP dispatches nothing until the gate opens.
        while !g.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        0i64
    });
    let spin_deadline = Instant::now() + Duration::from_secs(30);
    while wedged.load(Ordering::Acquire) == usize::MAX {
        assert!(Instant::now() < spin_deadline, "spinner never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    let victim = wedged.load(Ordering::Acquire);
    let workers: Vec<_> = (0..WORKERS)
        .map(|i| vm.fork_on(victim, move |_| i).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    for t in &workers {
        while !t.is_determined() {
            assert!(
                Instant::now() < deadline,
                "worker stuck: idle VPs failed to steal from the wedged VP 0"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    gate.store(true, Ordering::Release);
    spinner.join_blocking().unwrap();
    let sum: i64 = workers
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(sum, (0..WORKERS).sum::<i64>());
    let migrations = vm.counters().snapshot().migrations;
    assert!(
        migrations >= WORKERS as u64,
        "every worker must have migrated off wedged VP {victim} (migrations={migrations})"
    );
    let events = vm.tracer().snapshot();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Migrate),
        "migrations must be trace-recorded from the lock-free path"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::Enqueue)
            && events.iter().any(|e| e.kind == EventKind::Dispatch),
        "enqueue/dispatch events must still flow from the fast path"
    );
    vm.shutdown();
}

/// Every `LocalQueue` order is kept by the substrate on the banded deque
/// tier, and is fully functional there.
#[test]
fn every_local_queue_order_rides_the_deque_tier() {
    for order in [
        policies::local_fifo,
        policies::local_lifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        let vm = VmBuilder::new()
            .vps(1)
            .processors(1)
            .policy(move |_| order().boxed())
            .build();
        let vp = vm.vp(0).unwrap();
        assert!(
            vp.lock_free_queue(),
            "{} must opt into the banded deque tier",
            vp.policy_name()
        );
        let v = vm.run(|cx| {
            let t = cx.fork(|_| 21i64);
            cx.wait(&t).unwrap().as_int().unwrap() * 2
        });
        assert_eq!(v.unwrap().as_int(), Some(42));
        vm.shutdown();
    }
}

/// 4 bands × 4 thieves over one `MultiDeque`: every item is claimed by
/// exactly one side, no matter which band it sat in or how the occupancy
/// bits churned.
#[test]
fn stress_multi_band_exactly_once_across_thieves() {
    const ITEMS: u64 = 80_000;
    const THIEVES: usize = 4;
    let md: Arc<MultiDeque<u64>> = Arc::new(MultiDeque::with_capacity(8));
    let done = Arc::new(AtomicBool::new(false));

    let thieves: Vec<_> = (0..THIEVES)
        .map(|_| {
            let md = md.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match md.steal(false) {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && md.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                got
            })
        })
        .collect();

    let mut owner_got = Vec::new();
    for i in 0..ITEMS {
        md.push((i % BANDS as u64) as usize, i);
        // Owner pops race the thieves across all bands (alternate the
        // within-band discipline to cover both ends).
        if i % 3 == 0 {
            if let Some(v) = md.pop(i % 2 == 0) {
                owner_got.push(v);
            }
        }
    }
    done.store(true, Ordering::Release);

    let mut seen = vec![false; ITEMS as usize];
    let mut claim = |v: u64| {
        assert!(!seen[v as usize], "item {v} claimed twice");
        seen[v as usize] = true;
    };
    for v in owner_got {
        claim(v);
    }
    for t in thieves {
        for v in t.join().unwrap() {
            claim(v);
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    assert_eq!(missing, 0, "{missing} items lost across bands");
}

/// Band starvation order: with all bands populated, a quiesced drain
/// serves bands strictly highest-first — the low band moves only once
/// every higher band is empty — and FIFO within each band.
#[test]
fn low_band_drains_only_after_high_bands_empty() {
    let md: MultiDeque<u64> = MultiDeque::new();
    // Interleave pushes so every band fills while others are non-empty.
    const PER_BAND: u64 = 25;
    for i in 0..PER_BAND {
        for band in 0..BANDS as u64 {
            md.push(band as usize, band * PER_BAND + i);
        }
    }
    let mut out = Vec::new();
    while let Some(v) = md.pop(true) {
        out.push(v);
    }
    assert_eq!(out.len(), (PER_BAND as usize) * BANDS);
    let bands: Vec<u64> = out.iter().map(|v| v / PER_BAND).collect();
    assert!(
        bands.windows(2).all(|w| w[0] >= w[1]),
        "a lower band was served while a higher one still held items: {bands:?}"
    );
    // FIFO within each band.
    for band in 0..BANDS as u64 {
        let in_band: Vec<u64> = out
            .iter()
            .copied()
            .filter(|v| v / PER_BAND == band)
            .collect();
        let expected: Vec<u64> = (band * PER_BAND..(band + 1) * PER_BAND).collect();
        assert_eq!(in_band, expected, "band {band} reordered");
    }
    assert!(md.is_empty());
}

/// A `WaitList::wake_all` sweep publishes all woken threads with one
/// batched injector CAS; on a single VP that dispatches oldest-first
/// within a band they must then run in their wake (registration) order —
/// the batched wake's FIFO-within-band property, observed end to end
/// through thread joins.  The priority orders put the equal-priority
/// waiters in one band: the bottom one for `priority_high`, the top one
/// for `priority_low`.
#[test]
fn batched_wake_preserves_fifo_order_within_band() {
    for order in [
        policies::local_fifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        batched_wake_runs_in_wake_order(order);
    }
}

fn batched_wake_runs_in_wake_order(order: fn() -> policies::LocalQueue) {
    const WAITERS: i64 = 8;
    let vm = VmBuilder::new()
        .vps(1)
        .processors(1)
        .policy(move |_| order().boxed())
        .build();
    let release = Arc::new(AtomicBool::new(false));
    let order: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let r = release.clone();
    // The gate cooperatively spins so the waiters get dispatched, then
    // completes; its determination wakes every joiner in one sweep.
    let gate = vm.fork(move |cx| {
        while !r.load(Ordering::Acquire) {
            cx.yield_now();
        }
        0i64
    });
    let waiters: Vec<_> = (0..WAITERS)
        .map(|i| {
            let g = gate.clone();
            let order = order.clone();
            vm.fork(move |cx| {
                cx.wait(&g).unwrap();
                order.lock().unwrap().push(i);
                i
            })
        })
        .collect();
    // Let every waiter park on the gate's wait list (in fork order, since
    // the single FIFO VP dispatches them in order).
    let deadline = Instant::now() + Duration::from_secs(30);
    while vm.counters().snapshot().blocks < WAITERS as u64 {
        assert!(Instant::now() < deadline, "waiters never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(true, Ordering::Release);
    for w in &waiters {
        w.join_blocking().unwrap();
    }
    gate.join_blocking().unwrap();
    let got = order.lock().unwrap().clone();
    assert_eq!(
        got,
        (0..WAITERS).collect::<Vec<_>>(),
        "batched wake must preserve FIFO order within the band"
    );
    vm.shutdown();
}

/// `len`/`is_empty` under concurrent push/steal: the relaxed snapshots may
/// lag, but `len` must never exceed the number of pushes issued, and once
/// the deque quiesces both must be exact.
#[test]
fn stress_len_is_empty_under_concurrent_push_steal() {
    const ITEMS: u64 = 20_000;
    let deque: Arc<Deque<u64>> = Arc::new(Deque::with_capacity(4));
    let pushes = Arc::new(AtomicUsize::new(0));
    let claimed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));

    // Thieves claim until told to stop (they do NOT drain, so a remainder
    // is left for the quiescent exactness check).
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let (d, c, stop) = (deque.clone(), claimed.clone(), done.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match d.steal() {
                        Steal::Success(_) => {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();
    // A sampler validating the snapshot upper bound while the race runs:
    // a push is counted before it lands, so any `len` read afterwards can
    // never exceed the count read after it.
    let sampler = {
        let (d, p, stop) = (deque.clone(), pushes.clone(), done.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let len = d.len();
                let issued = p.load(Ordering::Relaxed);
                assert!(len <= issued, "len {len} exceeds {issued} pushes issued");
                // No two-read consistency assertion here: any second read
                // of `len`/`is_empty` races with the producer, so reads
                // can only be compared once the deque has quiesced (below).
                let _ = d.is_empty();
            }
        })
    };

    for i in 0..ITEMS {
        pushes.fetch_add(1, Ordering::Relaxed);
        deque.push(i);
        if i % 5 == 0 && deque.pop().is_some() {
            claimed.fetch_add(1, Ordering::Relaxed);
        }
    }
    done.store(true, Ordering::Release);
    for t in thieves {
        t.join().unwrap();
    }
    sampler.join().unwrap();

    // Quiesced: the snapshots are exact.
    let remainder = ITEMS - claimed.load(Ordering::Relaxed) as u64;
    assert_eq!(deque.len() as u64, remainder);
    assert_eq!(deque.is_empty(), remainder == 0);
    let mut drained = 0u64;
    while deque.steal_retrying().is_some() {
        drained += 1;
    }
    assert_eq!(drained, remainder);
    assert!(deque.is_empty());
    assert_eq!(deque.len(), 0);
}
