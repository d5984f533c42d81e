//! Debug-build hit counters for the operations the share-nothing fast path
//! must not perform.
//!
//! DESIGN.md ("Scheduler fast path", ownership table) claims that a thread
//! forked by a parent born on the same VP, absorbed by `touch` and
//! determined there upgrades no `Weak`, takes no lock but its group lane's
//! member list — not the VM lane's fork state, not the thread's own, not
//! the policy manager's, none shared with another VP — and issues no
//! `futex_wake` (it has no OS waiter to unpark).  Each such site calls
//! [`hit`]; a test brackets the path with [`hits`] on the worker running
//! it and asserts the difference is zero.  Release builds compile the
//! calls away.

/// The slow-path operations that are counted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe {
    /// `Thread::vm` / `Vp::vm`: a `Weak<Vm>` upgrade (a read-modify-write
    /// on the machine's reference count, which every VP shares).
    WeakUpgrade,
    /// A group registry other than the caller's own lane's was locked, or
    /// a group-wide lock was taken.
    SharedRegistryLock,
    /// An OS thread waiting in the blocking protocol or on a join node
    /// was unparked (`std::thread::unpark`: a `futex_wake` system call).
    FutexWake,
    /// A thread's own lock (`Thread::core`): a blocked thread's TCB, a
    /// queued request, a waiter.
    ThreadLock,
    /// A VP's policy lock (`Vp::pm`).
    PolicyLock,
    /// A VM lane's fork state (`LaneState` in `vm.rs`): its cache of the
    /// group lanes it registers threads in.
    LaneLock,
}

#[cfg(debug_assertions)]
const PROBES: usize = 6;

#[cfg(debug_assertions)]
thread_local! {
    static HITS: [std::cell::Cell<u64>; PROBES] =
        const { [const { std::cell::Cell::new(0) }; PROBES] };
}

/// Counts one `probe` hit on the calling OS thread (debug builds only).
#[inline]
pub(crate) fn hit(probe: Probe) {
    #[cfg(debug_assertions)]
    HITS.with(|h| h[probe as usize].set(h[probe as usize].get() + 1));
    #[cfg(not(debug_assertions))]
    let _ = probe;
}

/// This OS thread's hit counts so far, indexed by [`Probe`] discriminant.
#[cfg(all(test, debug_assertions))]
pub(crate) fn hits() -> [u64; PROBES] {
    HITS.with(|h| std::array::from_fn(|i| h[i].get()))
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::{policies, VmBuilder};

    /// The acceptance test behind the DESIGN.md ownership table: with
    /// tracing off, threads forked, absorbed by `touch` and determined on
    /// one VP hit none of the probes — eager (queued, then taken back off
    /// the queue by the toucher) or delayed.  In particular neither the
    /// thread's lock nor the policy lock is taken.  Children the VP
    /// dispatches from its queue stay off them too: see [`link`].
    ///
    /// The hits are counted per OS thread, and a VP runs on whichever
    /// worker takes it, so the test pins VP 1 to one worker: a spinner
    /// holds VP 0's worker (no checkpoint, so no preemption) until both
    /// counts are in, or for 10 s at most.  The other worker runs every slice of VP 1 and passes
    /// VP 0 by, its owner word held, without touching its policy lock.
    #[test]
    fn fork_touch_determine_on_one_vp_stays_off_every_slow_path() {
        use std::sync::atomic::{AtomicU8, Ordering};
        let vm = VmBuilder::new()
            .vps(2)
            .processors(2)
            .policy(|_| policies::local_lifo().boxed())
            .build();
        // 0: not yet spinning, 1: spinning, 2: done.
        let spin = std::sync::Arc::new(AtomicU8::new(0));
        let spinner = {
            let spin = spin.clone();
            vm.fork_on(0, move |_| {
                spin.store(1, Ordering::Release);
                let t0 = std::time::Instant::now();
                while spin.load(Ordering::Acquire) != 2 && t0.elapsed().as_secs() < 10 {
                    std::hint::spin_loop();
                }
                0i64
            })
        };
        while spin.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        // The host forks the worker on the external lane; the measured
        // forks come from a child it forks on VP 1, the way a thread tree
        // grows below its root.
        let worker = vm.fork_on(1, move |cx| {
            let forker = cx.delayed(move |cx| measured_forks(cx, tx));
            cx.touch(&forker).unwrap()
        });
        let absorbed = rx.recv().unwrap();
        let dispatched = rx.recv().unwrap();
        spin.store(2, Ordering::Release);
        spinner.unwrap().join_blocking().unwrap();
        assert_eq!(absorbed, [0; PROBES], "absorbed: a probe fired");
        assert_eq!(dispatched, [0; PROBES], "dispatched: a probe fired");
        worker.unwrap().join_blocking().unwrap();
        vm.shutdown();
    }

    /// Sends the hits of 200 rounds of fork and touch, eager and delayed,
    /// then runs [`link`]'s chain, which sends its own.
    fn measured_forks(cx: &crate::Cx, tx: std::sync::mpsc::Sender<[u64; PROBES]>) -> i64 {
        let round = |n: i64| {
            for i in 0..n {
                let eager = cx.fork(move |_| i);
                let lazy = cx.delayed(move |_| i);
                assert_eq!(cx.touch(&eager).unwrap().as_int(), Some(i));
                assert_eq!(cx.touch(&lazy).unwrap().as_int(), Some(i));
            }
        };
        // Warm up: the first fork on a lane opens its group lane.
        round(1);
        let before = hits();
        round(200);
        let after = hits();
        assert_eq!(cx.current_vp().queue_len(), 0);
        tx.send(since(before, after)).unwrap();
        link(cx, 0, None, tx)
    }

    /// Links in [`link`]'s chain: one to warm up, then the measured ones.
    const LINKS: u32 = 201;

    /// Link `k` of a chain on one non-migrating LIFO VP: forks link
    /// `k + 1`, yields and returns.  The yield re-dispatches the parent
    /// (LIFO puts it above its child), and once it returns the VP
    /// dispatches the child from its queue.  Nothing touches or joins a
    /// link, so the last one sends the hits the measured links took.
    fn link(
        cx: &crate::Cx,
        k: u32,
        start: Option<[u64; PROBES]>,
        done: std::sync::mpsc::Sender<[u64; PROBES]>,
    ) -> i64 {
        let start = start.or((k == 1).then(hits));
        if k == LINKS {
            assert_eq!(cx.current_vp().queue_len(), 0);
            done.send(since(start.unwrap(), hits())).unwrap();
            return 0;
        }
        cx.fork(move |cx| link(cx, k + 1, start, done));
        cx.yield_now();
        0
    }

    fn since(before: [u64; PROBES], after: [u64; PROBES]) -> [u64; PROBES] {
        std::array::from_fn(|i| after[i] - before[i])
    }

    fn fired(before: [u64; PROBES], after: [u64; PROBES], probe: Probe) -> bool {
        after[probe as usize] > before[probe as usize]
    }

    #[test]
    fn the_probes_do_fire_off_the_fast_path() {
        let vm = VmBuilder::new().vps(1).build();
        let before = hits();
        let t = vm.fork(|_| 0i64); // host fork: the external lane
        let joined = t.join_blocking(); // an OS joiner: unparked, if it slept
        assert!(joined.is_ok());
        assert!(fired(before, hits(), Probe::SharedRegistryLock));

        // Waking an OS waiter unparks it.
        let os_waiter = crate::wait::Waiter::current();
        let before = hits();
        assert!(os_waiter.wake());
        assert!(fired(before, hits(), Probe::FutexWake));
        assert!(os_waiter.retire());

        // A blocked thread's wake takes its lock.
        let sleeper = vm.fork(|cx| {
            cx.block(None);
            1i64
        });
        while sleeper.state() != crate::ThreadState::Blocked {
            std::thread::yield_now();
        }
        let before = hits();
        crate::tc::unblock(&sleeper);
        assert!(fired(before, hits(), Probe::ThreadLock));
        assert_eq!(sleeper.join_blocking().unwrap().as_int(), Some(1));
        vm.shutdown();

        // A fork on a VP whose manager keeps its own queue asks it where
        // to go, under the policy lock.
        let q = policies::GlobalQueue::fifo();
        let vm = VmBuilder::new().vps(1).policy(move |_| q.policy()).build();
        let forker = vm.fork(|cx| {
            let before = hits();
            let child = cx.fork(|_| 2i64);
            let fired = fired(before, hits(), Probe::PolicyLock);
            assert_eq!(cx.touch(&child).unwrap().as_int(), Some(2));
            i64::from(fired)
        });
        assert_eq!(forker.join_blocking().unwrap().as_int(), Some(1));
        vm.shutdown();
    }
}
