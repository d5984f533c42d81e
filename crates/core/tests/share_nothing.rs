//! The share-nothing thread fast path, from outside: per-VP state that must
//! still add up (counter lanes, thread-id blocks, registries sharded by
//! registering VP), the self-cleaning ready queue (dead entries cost
//! neither budget, idleness nor migrations), and the gated join wake-up.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use sting_core::audit::FindingKind;
use sting_core::deque::BANDS;
use sting_core::{policies, tc, Cx, Fleet, Thread, ThreadBuilder, ThreadGroup, ThreadState, Vm};
use sting_core::{CounterSnapshot, VmBuilder};
use sting_value::Value;

const LONG: Duration = Duration::from_secs(20);

/// A 2-VP machine whose threads stay on the VP they were forked on.
fn pinned_vm() -> Arc<Vm> {
    VmBuilder::new()
        .vps(2)
        .processors(2)
        .policy(|_| policies::local_lifo().boxed())
        .build()
}

fn fork_touch(cx: &Cx, n: usize) {
    for i in 0..n {
        let t = cx.fork(move |_| i as i64);
        assert_eq!(cx.touch(&t).unwrap().as_int(), Some(i as i64));
    }
}

fn sum(lanes: &[CounterSnapshot]) -> CounterSnapshot {
    lanes
        .iter()
        .fold(CounterSnapshot::default(), |acc, l| acc.plus(l))
}

#[test]
fn counter_lanes_sum_to_the_snapshot_and_stay_monotone() {
    const FORKS: usize = 20_000;
    let vm = pinned_vm();
    let workers: Vec<_> = (0..2)
        .map(|vp| vm.fork_on(vp, |cx| fork_touch(cx, FORKS)).unwrap())
        .collect();
    // Snapshots taken while both VPs count: `since` must never see a field
    // go backwards (it asserts so itself in debug builds).
    let mut last = vm.counters().snapshot();
    while workers.iter().any(|w| !w.is_determined()) {
        let now = vm.counters().snapshot();
        let delta = now.since(&last);
        assert!(now.threads_created >= last.threads_created);
        assert_eq!(
            delta.threads_created,
            now.threads_created - last.threads_created
        );
        last = now;
    }
    for w in &workers {
        w.join_blocking_timeout(LONG).unwrap().unwrap();
    }
    let lanes = vm.counters().lane_snapshots();
    assert_eq!(lanes.len(), 3, "one lane per VP plus the external lane");
    assert_eq!(sum(&lanes), vm.counters().snapshot());
    // Each VP counted its own forks, steals and determinations; the host's
    // two forks landed on the external lane.
    for lane in &lanes[..2] {
        assert_eq!(lane.threads_created, FORKS as u64);
        assert_eq!(lane.steals, FORKS as u64);
        assert_eq!(lane.determinations, FORKS as u64 + 1);
    }
    assert_eq!(lanes[2].threads_created, 2);
    vm.shutdown();
}

/// Forks `n` delayed threads and returns their ids.
fn ids_of_forks(cx: &Cx, n: usize) -> Vec<u64> {
    (0..n).map(|_| cx.delayed(|_| 0i64).id().0).collect()
}

fn assert_all_distinct(ids: impl IntoIterator<Item = u64>, expected: usize) {
    let set: HashSet<u64> = ids.into_iter().collect();
    assert_eq!(set.len(), expected, "a thread id was handed out twice");
    assert!(!set.contains(&0), "id 0 means \"no thread\" in traces");
}

#[test]
fn concurrent_forks_on_two_vps_never_share_a_thread_id() {
    const FORKS: usize = 100_000;
    let vm = pinned_vm();
    let ids: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
    let workers: Vec<_> = (0..2)
        .map(|vp| {
            let ids = ids.clone();
            vm.fork_on(vp, move |cx| {
                let mine = ids_of_forks(cx, FORKS);
                ids.lock().unwrap().extend(mine);
            })
            .unwrap()
        })
        .collect();
    // The host forks too, on the external lane, while the VPs do.
    let host: Vec<u64> = (0..1000).map(|_| vm.delayed(|_| 0i64).id().0).collect();
    for w in &workers {
        w.join_blocking_timeout(LONG).unwrap().unwrap();
    }
    let all = ids.lock().unwrap().clone();
    let workers = workers.iter().map(|w| w.id().0);
    assert_all_distinct(all.into_iter().chain(host).chain(workers), 2 * FORKS + 1002);
    vm.shutdown();
}

#[test]
fn two_fleet_shards_never_share_a_thread_id() {
    const FORKS: usize = 100_000;
    let fleet = Fleet::builder().shards(2).vps_per_shard(1).build();
    let ids: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
    let workers: Vec<_> = (0..2)
        .map(|shard| {
            let ids = ids.clone();
            fleet.shard(shard).fork(move |cx| {
                let mine = ids_of_forks(cx, FORKS);
                ids.lock().unwrap().extend(mine);
            })
        })
        .collect();
    for w in &workers {
        w.join_blocking_timeout(LONG).unwrap().unwrap();
    }
    let all = ids.lock().unwrap().clone();
    assert_all_distinct(all, 2 * FORKS);
    fleet.shutdown();
}

/// Two parents in `group`, one per VP, each holding `kids` delayed
/// children and then spinning at checkpoints until released.
fn family(
    vm: &Arc<Vm>,
    group: &Arc<ThreadGroup>,
    kids: usize,
    release: &Arc<AtomicBool>,
) -> Vec<Arc<Thread>> {
    let ready = Arc::new(AtomicUsize::new(0));
    let parents: Vec<_> = (0..2)
        .map(|vp| {
            let (ready, release) = (ready.clone(), release.clone());
            ThreadBuilder::new(vm)
                .group(group.clone())
                .on_vp(vp)
                .spawn(move |cx| {
                    let held: Vec<_> = (0..kids).map(|_| cx.delayed(|_| 1i64)).collect();
                    ready.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        cx.checkpoint();
                        cx.yield_now();
                    }
                    held.len() as i64
                })
                .unwrap()
        })
        .collect();
    let deadline = Instant::now() + LONG;
    while ready.load(Ordering::SeqCst) < 2 {
        assert!(Instant::now() < deadline, "parents never got going");
        std::thread::yield_now();
    }
    parents
}

#[test]
fn registries_see_threads_registered_from_every_vp() {
    const KIDS: usize = 10;
    let vm = pinned_vm();
    let group = ThreadGroup::root(Some("family".into()));
    let release = Arc::new(AtomicBool::new(false));
    let parents = family(&vm, &group, KIDS, &release);
    let lanes = vm.counters().lane_snapshots();
    assert!(
        lanes[0].threads_created >= KIDS as u64 && lanes[1].threads_created >= KIDS as u64,
        "the two parents must have forked on different VPs: {lanes:?}"
    );

    // Genealogy, group membership and the machine registry all list every
    // child, whichever VP registered it.
    for p in &parents {
        let kids = p.children();
        assert_eq!(kids.len(), KIDS);
        assert!(kids.iter().all(|k| Arc::ptr_eq(k.group(), &group)));
        assert!(kids
            .iter()
            .all(|k| k.parent().is_some_and(|q| Arc::ptr_eq(&q, p))));
    }
    let members: HashSet<u64> = group.threads().iter().map(|t| t.id().0).collect();
    assert_eq!(members.len(), 2 * KIDS + 2);
    let machine: HashSet<u64> = vm.threads().iter().map(|t| t.id().0).collect();
    assert!(members.is_subset(&machine));

    // Suspension and resumption reach the running members on both VPs …
    group.suspend_all(None);
    let deadline = Instant::now() + LONG;
    while parents.iter().any(|p| p.state() != ThreadState::Suspended) {
        assert!(Instant::now() < deadline, "a parent never suspended");
        std::thread::yield_now();
    }
    // (Resuming a delayed member schedules it, so a child may run to its
    // own value before the kill below reaches it.)
    group.resume_all();
    // … and kill-group determines all twenty-two.
    group.terminate_all(Value::sym("killed"));
    for t in group.threads() {
        let r = t
            .join_blocking_timeout(LONG)
            .expect("member must determine");
        let is_parent = parents.iter().any(|p| Arc::ptr_eq(p, &t));
        assert!(
            r == Ok(Value::sym("killed")) || (!is_parent && r == Ok(Value::from(1i64))),
            "{r:?}"
        );
    }
    vm.shutdown();
}

/// The machine's registry is derived from its lanes' group lanes, so a
/// thread forked into a subgroup — from a VP lane or from the host's
/// external lane — is listed by the machine as well as by its group.
#[test]
fn a_subgroup_fork_is_listed_by_the_machine_and_by_its_group() {
    let vm = pinned_vm();
    let sub = vm.root_group().subgroup(Some("sub".into()));
    let from_host = ThreadBuilder::new(&vm).group(sub.clone()).delayed(|_| 1i64);
    let s2 = sub.clone();
    let from_vp = vm
        .run(move |cx| {
            ThreadBuilder::new(&cx.vm())
                .group(s2)
                .delayed(|_| 2i64)
                .to_value()
        })
        .unwrap()
        .native_as::<Thread>()
        .expect("a thread");
    let ids = |ts: Vec<Arc<Thread>>| ts.iter().map(|t| t.id().0).collect::<HashSet<u64>>();
    let (machine, group) = (ids(vm.threads()), ids(sub.threads()));
    for t in [&from_host, &from_vp] {
        assert!(
            machine.contains(&t.id().0),
            "{} missing from Vm::threads",
            t.id()
        );
        assert!(
            group.contains(&t.id().0),
            "{} missing from its group",
            t.id()
        );
        assert!(Arc::ptr_eq(t.group(), &sub));
    }
    assert_eq!(group.len(), 2);
    vm.shutdown();
}

/// Forks on both VPs while the host lists the machine's threads: a
/// thread is registered in one place, so no listing holds it twice.
#[test]
fn the_machine_registry_racing_forks_on_both_vps_lists_no_thread_twice() {
    let vm = pinned_vm();
    let stop = Arc::new(AtomicBool::new(false));
    let forkers: Vec<_> = (0..2)
        .map(|vp| {
            let stop = stop.clone();
            vm.fork_on(vp, move |cx| {
                let mut held = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    // Keep some alive, drop others, and switch groups now
                    // and then so lanes open and close under the readers.
                    held.push(if held.len() % 8 == 0 {
                        let sub = cx.vm().root_group().subgroup(None);
                        ThreadBuilder::new(&cx.vm()).group(sub).delayed(|_| 0i64)
                    } else {
                        cx.delayed(|_| 0i64)
                    });
                    if held.len() > 64 {
                        held.drain(..32);
                    }
                    cx.yield_now();
                }
                held.len() as i64
            })
            .unwrap()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_millis(300);
    let mut listings = 0;
    while Instant::now() < deadline {
        let ids: Vec<u64> = vm.threads().iter().map(|t| t.id().0).collect();
        let distinct: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "a thread listed twice");
        listings += 1;
    }
    stop.store(true, Ordering::SeqCst);
    for f in forkers {
        assert!(f.join_blocking_timeout(LONG).expect("forker stops").is_ok());
    }
    assert!(listings > 0);
    vm.shutdown();
}

/// Once every member of a group has determined and been dropped, the
/// machine lists nothing: the group lanes it derives its registry from
/// hold their members weakly.
#[test]
fn the_machine_registry_empties_when_a_groups_members_die() {
    let vm = pinned_vm();
    let group = ThreadGroup::root(Some("short-lived".into()));
    let kids: Vec<_> = (0..2)
        .map(|vp| {
            let g = group.clone();
            ThreadBuilder::new(&vm)
                .group(group.clone())
                .on_vp(vp)
                .spawn(move |cx| {
                    let inner: Vec<_> = (0..8)
                        .map(|i| {
                            ThreadBuilder::new(&cx.vm())
                                .group(g.clone())
                                .spawn(move |_| i)
                                .unwrap()
                        })
                        .collect();
                    inner
                        .iter()
                        .map(|t| cx.wait(t).unwrap().as_int().unwrap())
                        .sum::<i64>()
                })
                .unwrap()
        })
        .collect();
    for k in &kids {
        assert_eq!(k.join_blocking().unwrap().as_int(), Some(28));
    }
    drop(kids);
    // A worker lets go of the last thread it ran just after determining it.
    let deadline = Instant::now() + LONG;
    while !vm.threads().is_empty() {
        assert!(Instant::now() < deadline, "{:?} still listed", vm.threads());
        std::thread::yield_now();
    }
    assert!(group.threads().is_empty());
    vm.shutdown();
}

/// A delayed thread of a non-root group that nobody ever demands is still
/// found, and determined, by the shutdown drain.
#[test]
fn shutdown_determines_a_never_demanded_thread_of_a_subgroup() {
    let vm = pinned_vm();
    let sub = vm.root_group().subgroup(None);
    let from_host = ThreadBuilder::new(&vm).group(sub.clone()).delayed(|_| 1i64);
    let s2 = sub.clone();
    let from_vp = vm
        .run(move |cx| {
            ThreadBuilder::new(&cx.vm())
                .group(s2)
                .delayed(|_| 2i64)
                .to_value()
        })
        .unwrap()
        .native_as::<Thread>()
        .expect("a thread");
    vm.shutdown();
    for t in [from_host, from_vp] {
        assert_eq!(
            t.join_blocking_timeout(LONG)
                .expect("drain must determine it"),
            Err(Value::sym("vm-shutdown"))
        );
    }
}

/// A passive thread raced by a terminate and a touch: the two meet on the
/// thread's state word, so exactly one wins it.  The thunk runs if and only
/// if the result is not the terminate value, and each thread determines
/// once.
#[test]
fn a_passive_thread_raced_by_terminate_and_touch_determines_once() {
    const N: usize = 10_000;
    let vm = VmBuilder::new().vps(1).processors(1).build();
    let ran: Arc<Vec<AtomicBool>> = Arc::new((0..N).map(|_| AtomicBool::new(false)).collect());
    let threads: Arc<Vec<Arc<Thread>>> = Arc::new(
        (0..N)
            .map(|i| {
                let ran = ran.clone();
                vm.delayed(move |_| {
                    ran[i].store(true, Ordering::SeqCst);
                    i as i64
                })
            })
            .collect(),
    );
    let before = vm.counters().snapshot();
    // The two sides walk the threads in lockstep, so every pair races.
    let (touched, killed) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let step = |mine: &AtomicUsize, theirs: &AtomicUsize, i: usize| {
        mine.store(i + 1, Ordering::SeqCst);
        while theirs.load(Ordering::SeqCst) < i + 1 {
            std::thread::yield_now();
        }
    };
    let toucher = {
        let (ts, touched, killed) = (threads.clone(), touched.clone(), killed.clone());
        vm.fork(move |cx| {
            for (i, t) in ts.iter().enumerate() {
                step(&touched, &killed, i);
                let _ = cx.touch(t);
            }
            0i64
        })
    };
    for (i, t) in threads.iter().enumerate() {
        step(&killed, &touched, i);
        let _ = tc::thread_terminate(t, Value::sym("killed"));
    }
    let done = toucher
        .join_blocking_timeout(LONG)
        .expect("toucher finishes");
    assert_eq!(done, Ok(Value::from(0i64)));
    let counted = vm.counters().snapshot().since(&before);
    for (i, t) in threads.iter().enumerate() {
        let r = t.result().expect("determined");
        let terminated = r == Ok(Value::sym("killed"));
        assert_eq!(
            ran[i].load(Ordering::SeqCst),
            !terminated,
            "thread {i}: result {r:?}"
        );
        if !terminated {
            assert_eq!(r.unwrap().as_int(), Some(i as i64));
        }
    }
    // One determination per raced thread, plus the toucher's own.
    assert_eq!(counted.determinations, N as u64 + 1);
    vm.shutdown();
}

#[test]
fn shutdown_drain_completes_passive_threads_from_every_lane() {
    let vm = pinned_vm();
    let group = ThreadGroup::root(None);
    let release = Arc::new(AtomicBool::new(false));
    let parents = family(&vm, &group, 5, &release);
    let mut passive: Vec<Arc<Thread>> = parents.iter().flat_map(|p| p.children()).collect();
    passive.extend((0..5).map(|_| vm.delayed(|_| 2i64)));
    assert_eq!(passive.len(), 15);
    vm.shutdown();
    for t in passive.iter().chain(&parents) {
        assert_eq!(
            t.join_blocking_timeout(LONG)
                .expect("drain must determine it"),
            Err(Value::sym("vm-shutdown"))
        );
    }
}

#[test]
fn an_os_joiner_racing_the_determination_is_always_woken() {
    let vm = VmBuilder::new().vps(2).build();
    // Join straight after the fork: the thread determines on a worker
    // while the host is somewhere between its state check and its sleep.
    for i in 0..2000i64 {
        let t = vm.fork(move |_| i);
        let r = t.join_blocking_timeout(LONG).expect("joiner left asleep");
        assert_eq!(r.unwrap().as_int(), Some(i));
    }
    // And with the determiner on a second OS thread, released together
    // with the joiner: whichever takes the thread's lock first, the joiner
    // must come back.
    for _ in 0..1000 {
        let t = vm.delayed(|_| 0i64);
        let barrier = Arc::new(Barrier::new(2));
        let (t2, b2) = (t.clone(), barrier.clone());
        let killer = std::thread::spawn(move || {
            b2.wait();
            tc::thread_terminate(&t2, Value::from(7i64)).unwrap();
        });
        barrier.wait();
        let r = t.join_blocking_timeout(LONG).expect("joiner left asleep");
        assert_eq!(r.unwrap().as_int(), Some(7));
        killer.join().unwrap();
    }
    vm.shutdown();
}

#[test]
fn a_terminate_racing_the_dispatch_never_takes_the_worker_down() {
    let vm = VmBuilder::new().vps(2).processors(2).build();
    // Some of these land after the worker claimed the thread and before
    // its first instruction: the request must become the thread's result.
    for _ in 0..5000 {
        let t = vm.fork(|_| 0i64);
        let _ = tc::thread_terminate(&t, Value::from(9i64));
        let r = t.join_blocking_timeout(LONG).expect("must determine");
        assert!(matches!(r.unwrap().as_int(), Some(0 | 9)));
    }
    // Both workers still dispatch.
    for vp in 0..2 {
        let t = vm.fork_on(vp, |_| 1i64).unwrap();
        assert!(t.join_blocking_timeout(LONG).is_some(), "vp {vp} is wedged");
    }
    vm.shutdown();
}

#[test]
fn dead_entries_cost_neither_slice_budget_nor_idleness() {
    // Oldest-first orders: the owner has to get through every dead entry
    // before it reaches the marker forked after them.  Equal priorities
    // share a band — the bottom one under `priority_high`, the top one
    // under `priority_low`.
    for order in [
        policies::local_fifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        dead_entries_are_free_under(order);
    }
}

fn dead_entries_are_free_under(order: fn() -> policies::LocalQueue) {
    const DEAD: usize = 25_000;
    let vm = VmBuilder::new()
        .vps(1)
        .policy(move |_| order().boxed())
        .build();
    let waited = vm
        .run(|cx| {
            for _ in 0..DEAD {
                let t = cx.fork(|_| 0i64);
                // Terminated while queued: the entry stays, dead.
                tc::thread_terminate(&t, Value::Unit).unwrap();
            }
            assert!(cx.current_vp().queue_len() >= DEAD);
            let forked = Instant::now();
            let marker = cx.fork(move |_| forked.elapsed().as_micros() as i64);
            cx.wait(&marker).unwrap()
        })
        .unwrap()
        .as_int()
        .unwrap();
    // A discard is well under a microsecond in a release build; a slice
    // that charged them to its budget parked a 500 us tick per sixteen,
    // 780 ms in all.  The bound leaves a debug build on a busy box room.
    assert!(
        waited < 100_000,
        "the marker waited {waited} us behind {DEAD} dead entries"
    );
    assert!(vm.vp(0).unwrap().queue_len() <= 1);
    vm.shutdown();
}

#[test]
fn thieves_drop_dead_entries_without_counting_migrations() {
    const DEAD: usize = 5_000;
    let vm = VmBuilder::new()
        .vps(2)
        .processors(2)
        // Everything forks onto the forker's own VP: only stealing moves it.
        .policy(|_| policies::local_fifo().migrating(true).boxed())
        .build();
    // Keep VP 1 busy while VP 0 makes the husks, so no child is stolen
    // live in the instant between its fork and its termination.
    let (sibling_busy, husks_made) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (busy, made) = (sibling_busy.clone(), husks_made.clone());
    let sibling = vm
        .fork_on(1, move |_| {
            busy.store(true, Ordering::SeqCst);
            while !made.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    while !sibling_busy.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let release = Arc::new(AtomicBool::new(false));
    let (r2, made) = (release.clone(), husks_made.clone());
    let holder = vm
        .fork_on(0, move |cx| {
            for _ in 0..DEAD {
                let t = cx.fork(|_| 0i64);
                tc::thread_terminate(&t, Value::Unit).unwrap();
            }
            made.store(true, Ordering::SeqCst);
            // Keep VP 0 busy so only its idle sibling can reach the queue.
            while !r2.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    sibling.join_blocking_timeout(LONG).unwrap().unwrap();
    // The sibling, idle now, raids VP 0 and finds nothing but husks.
    let deadline = Instant::now() + LONG;
    let queued = || vm.vps().iter().map(|vp| vp.queue_len()).sum::<usize>();
    while queued() > 0 || vm.counters().snapshot().determinations < DEAD as u64 {
        assert!(
            Instant::now() < deadline,
            "dead entries were never reaped:\n{}",
            vm.dump()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(true, Ordering::SeqCst);
    holder.join_blocking_timeout(LONG).unwrap().unwrap();
    // The husks must not count.
    let migrations = vm.counters().snapshot().migrations as usize;
    assert!(
        migrations < DEAD / 10,
        "{migrations} migrations counted for {DEAD} dead entries"
    );
    vm.shutdown();
}

/// A depth-`depth` result-parallel tree whose nodes yield now and then, so
/// touches find their targets in every state: still queued (absorbed),
/// stolen by the other VP, running, parked.
fn unruly_tree(cx: &Cx, depth: u32, salt: u64) -> i64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = (salt.wrapping_mul(2) + 1, salt.wrapping_mul(2) + 2);
    let l = cx.fork(move |cx| unruly_tree(cx, depth - 1, a));
    if salt.is_multiple_of(5) {
        cx.yield_now();
    }
    let r = cx.fork(move |cx| unruly_tree(cx, depth - 1, b));
    if salt.is_multiple_of(7) {
        cx.yield_now();
    }
    let (first, second) = if salt.is_multiple_of(3) {
        (&r, &l)
    } else {
        (&l, &r)
    };
    cx.touch(first).unwrap().as_int().unwrap() + cx.touch(second).unwrap().as_int().unwrap()
}

/// Pop-on-join inside a running machine, on every band layout: 2 000
/// children of mixed priorities, each touched right after its fork (the
/// toucher takes the newest entry of the child's band with it) or after a
/// sibling's (the buried entry dies, and is reaped by the next touch in
/// its band or discarded when the owner reaches it).  The ready queue must
/// not grow with what was absorbed: a band holds a dead entry or two at
/// most.
#[test]
fn touchers_take_entries_with_them_from_every_band() {
    for order in [
        policies::local_fifo,
        policies::local_lifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        let vm = VmBuilder::new()
            .vps(1)
            .policy(move |_| order().boxed())
            .build();
        let name = vm.vp(0).unwrap().policy_name();
        let total = vm
            .run(|cx| {
                let vm = cx.vm();
                // Priorities 0, 1024, 2048, 3072: four bands under
                // `priority_low`, the bottom and the top one under
                // `priority_high`, one under FIFO and LIFO.
                let child = |i: i64| {
                    ThreadBuilder::new(&vm)
                        .priority((i % 4) as i32 * 1024)
                        .on_vp(0)
                        .spawn(move |_| i)
                        .unwrap()
                };
                let mut total = 0;
                for i in 0..1_000 {
                    let t = child(i);
                    total += cx.touch(&t).unwrap().as_int().unwrap();
                    // The older sibling first: its entry is buried.
                    let (a, b) = (child(i), child(i + 1));
                    total += cx.touch(&a).unwrap().as_int().unwrap();
                    total += cx.touch(&b).unwrap().as_int().unwrap();
                    let queued = cx.current_vp().queue_len();
                    assert!(queued <= 2 * BANDS, "{queued} entries after {i} rounds");
                }
                total
            })
            .unwrap();
        assert_eq!(total.as_int(), Some(3 * 999 * 1_000 / 2 + 1_000), "{name}");
        // (A child the root was preempted in front of runs on its own.)
        let steals = vm.counters().snapshot().steals;
        assert!(steals > 2_000, "{name}: {steals} of 3000 children absorbed");
        let deadline = Instant::now() + LONG;
        while vm.vp(0).unwrap().queue_len() > 0 {
            assert!(Instant::now() < deadline, "{name}: entries left behind");
            std::thread::sleep(Duration::from_millis(1));
        }
        vm.shutdown();
    }
}

#[test]
fn a_two_vp_fork_tree_storm_passes_the_trace_audit() {
    for order in [
        policies::local_lifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        a_fork_tree_storm_audits_clean_under(order);
    }
}

fn a_fork_tree_storm_audits_clean_under(order: fn() -> policies::LocalQueue) {
    let vm = VmBuilder::new()
        .vps(2)
        .processors(2)
        .policy(move |_| order().migrating(true).boxed())
        .trace(true)
        .trace_capacity(1 << 19)
        .build();
    for round in 0..12 {
        let got = vm.run(move |cx| unruly_tree(cx, 8, round)).unwrap();
        assert_eq!(got.as_int(), Some(1 << 8));
    }
    // Once the workers have been through their queues, nothing is left of
    // the finished trees: every entry was taken by its toucher, run, or
    // discarded dead.
    let deadline = Instant::now() + LONG;
    while vm.vps().iter().map(|vp| vp.queue_len()).sum::<usize>() > 0 {
        assert!(
            Instant::now() < deadline,
            "entries left behind:\n{}",
            vm.dump()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    vm.shutdown();
    let report = vm.trace_audit();
    assert!(
        !report.truncated,
        "grow the rings: the audit skipped checks"
    );
    let bad: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FindingKind::DoubleDispatch
                    | FindingKind::StealWithoutEnqueue
                    | FindingKind::LostWakeup
            )
        })
        .collect();
    assert!(bad.is_empty(), "{report}");
}
