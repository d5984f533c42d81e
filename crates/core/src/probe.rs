//! Debug-build hit counters for the operations the share-nothing fast path
//! must not perform.
//!
//! DESIGN.md ("Scheduler fast path", ownership table) claims that a thread
//! forked, absorbed by `touch` and determined on one VP upgrades no `Weak`,
//! takes no lock but its forking lane's registry locks — not the thread's
//! own, not the policy manager's, none shared with another VP — and issues
//! no `futex_wake` (it has no OS waiter to unpark).  Each such site calls [`hit`]; a test brackets the path
//! with [`hits`] on the worker running it and asserts the difference is
//! zero.  Release builds compile the calls away.

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
}

#[cfg(debug_assertions)]
const PROBES: usize = 5;

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
    /// thread's lock nor the policy lock is taken.
    #[test]
    fn fork_touch_determine_on_one_vp_stays_off_every_slow_path() {
        let vm = VmBuilder::new()
            .vps(2)
            .policy(|_| policies::local_lifo().boxed())
            .build();
        let worker = vm.fork_on(1, |cx| {
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
            i64::from(before == after)
        });
        let clean = worker.unwrap().join_blocking().unwrap();
        assert_eq!(clean.as_int(), Some(1), "a slow-path probe fired");
        vm.shutdown();
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
