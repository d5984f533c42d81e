//! The virtual machine's timers: wake-ups for `thread-suspend` with a
//! quantum argument, [`Cx::sleep`](crate::tc::Cx::sleep), and the deadlines
//! of timed blocking operations ([`Waiter::park_until`]).
//!
//! No clock thread fires them.  The earliest deadline is kept in one word
//! beside the ordered map of entries.  A machine worker's pass reads that
//! word and fires what is due; a worker about to park reads it to sleep no
//! later than the earliest deadline of the attached VMs (`park_timeout`,
//! or the poller's `epoll_wait` timeout).  An add that lowers the word
//! wakes one idle worker the way a signal does — publish, fence, read the
//! idle word — so a worker that announced itself idle either
//! sizes its park by the new deadline or is woken
//! (`crates/core/tests/model_park.rs` checks the pair).
//!
//! Every entry is **cancellable**: [`Timers::add`] and
//! `Timers::add_wait_deadline` (crate-internal) return a [`TimerId`]
//! carrying the entry's key, which the sleeper cancels when it is woken
//! early (terminate/unblock before the deadline); the entry leaves the map
//! at once, so it neither fires a spurious wake-up nor pins its
//! `Arc<Thread>` until the deadline.
//!
//! [`Waiter::park_until`]: crate::wait::Waiter::park_until

use crate::thread::Thread;
use crate::vm::Vm;
use crate::wait::WaitNode;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// The earliest-deadline word while nothing is pending.
pub(crate) const NONE: u64 = u64::MAX;

/// `at` in nanoseconds on the substrate's clock, whose zero is its first
/// reading in the process (earlier instants read 0).  Timer deadlines and
/// slice deadlines are kept in this unit, so one atomic word holds each.
pub(crate) fn nanos(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// The time left until `deadline` (a [`nanos`] reading); `None` for
/// [`NONE`], zero once it has passed.
pub(crate) fn until(deadline: u64) -> Option<Duration> {
    (deadline != NONE).then(|| Duration::from_nanos(deadline.saturating_sub(nanos(Instant::now()))))
}

/// Handle for cancelling a pending timer entry: the entry's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    when: Instant,
    seq: u64,
}

/// What a due timer entry asks the machine to do.
pub(crate) enum Due {
    /// Resume a suspended/sleeping thread (spurious if it already woke —
    /// the thread re-checks, but early wake-ups cancel the entry so this
    /// stays rare).
    Resume(Arc<Thread>),
    /// A timed park's deadline: mark the wait episode timed out (the CAS
    /// fails harmlessly if a waker or cancellation got there first) and
    /// wake the thread so it observes the outcome.
    WaitDeadline {
        thread: Arc<Thread>,
        node: Arc<WaitNode>,
        gen: u64,
    },
}

#[derive(Default)]
struct Inner {
    /// Pending entries by deadline; the sequence number breaks ties in
    /// arrival order and is never reused.
    map: BTreeMap<(Instant, u64), Due>,
    next_seq: u64,
}

/// A VM's pending, cancellable thread wake-ups, in deadline order.
pub struct Timers {
    inner: Mutex<Inner>,
    /// The earliest pending deadline ([`nanos`]), or [`NONE`].  Written
    /// only under `inner`; read without it by every pass and every park.
    earliest: AtomicU64,
    /// The VM whose idle worker an add that lowers `earliest` wakes.
    vm: Weak<Vm>,
}

impl std::fmt::Debug for Timers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Timers({} pending)", self.len())
    }
}

impl Timers {
    /// The timers of `vm` (of no VM, for `Weak::new()`).
    pub(crate) fn for_vm(vm: Weak<Vm>) -> Timers {
        Timers {
            inner: Mutex::new(Inner::default()),
            earliest: AtomicU64::new(NONE),
            vm,
        }
    }

    /// Schedules `thread` to be woken at `when`.  Cancel with the returned
    /// id if the thread is woken early.
    pub fn add(&self, when: Instant, thread: Arc<Thread>) -> TimerId {
        self.insert(when, Due::Resume(thread))
    }

    /// Schedules the deadline of a timed park: at `when`, episode `gen` of
    /// `node` is marked timed out and `thread` is woken.  The parking code
    /// cancels the entry when it wakes before the deadline.
    pub(crate) fn add_wait_deadline(
        &self,
        when: Instant,
        thread: Arc<Thread>,
        node: Arc<WaitNode>,
        gen: u64,
    ) -> TimerId {
        self.insert(when, Due::WaitDeadline { thread, node, gen })
    }

    fn insert(&self, when: Instant, due: Due) -> TimerId {
        let mut inner = self.inner.lock();
        let id = TimerId {
            when,
            seq: inner.next_seq,
        };
        inner.next_seq += 1;
        inner.map.insert((id.when, id.seq), due);
        let at = nanos(when);
        let lowered = at < self.earliest.load(Ordering::Relaxed);
        if lowered {
            self.earliest.store(at, Ordering::Release);
        }
        drop(inner);
        if lowered {
            if let Some(vm) = self.vm.upgrade() {
                vm.machine.signal_deadline();
            }
        }
        id
    }

    /// Cancels a pending entry.  Returns `false` if it already fired (or
    /// was already cancelled); sequence numbers are never reused, so a
    /// stale id can never cancel someone else's entry.
    pub fn cancel(&self, id: TimerId) -> bool {
        let mut inner = self.inner.lock();
        let removed = inner.map.remove(&(id.when, id.seq)).is_some();
        self.republish(&inner);
        removed
    }

    /// Removes and returns the actions of every entry whose deadline is at
    /// or before `now`.
    pub(crate) fn take_due(&self, now: Instant) -> Vec<Due> {
        let mut inner = self.inner.lock();
        let mut due = Vec::new();
        while let Some(entry) = inner.map.first_entry() {
            if entry.key().0 > now {
                break;
            }
            due.push(entry.remove());
        }
        self.republish(&inner);
        due
    }

    /// Points `earliest` at the map's first entry, writing only on change
    /// so the readers' line stays shared.  A raised word wakes nobody: a
    /// worker that sized its park by the old one wakes early and re-parks.
    fn republish(&self, inner: &Inner) {
        let first = inner
            .map
            .keys()
            .next()
            .map_or(NONE, |&(when, _)| nanos(when));
        if first != self.earliest.load(Ordering::Relaxed) {
            self.earliest.store(first, Ordering::Release);
        }
    }

    /// The earliest pending deadline ([`nanos`]), or [`NONE`]; no lock.
    pub(crate) fn earliest(&self) -> u64 {
        self.earliest.load(Ordering::Acquire)
    }

    /// Number of pending wake-ups.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether no wake-ups are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(sting_check)))]
mod tests {
    use super::*;
    use crate::VmBuilder;

    #[test]
    fn cancel_removes_from_live_and_due() {
        let vm = VmBuilder::new().vps(1).build();
        let t = vm.delayed(|_| 0i64);
        let timers = Timers::for_vm(Weak::new());
        let far = Instant::now() + Duration::from_secs(3600);
        let id = timers.add(far, t.clone());
        assert_eq!(timers.len(), 1);
        assert_eq!(timers.earliest(), nanos(far));
        assert!(timers.cancel(id));
        assert!(!timers.cancel(id), "double cancel reports already-gone");
        assert_eq!(timers.len(), 0);
        assert_eq!(timers.earliest(), NONE);
        assert!(timers.take_due(far + Duration::from_secs(1)).is_empty());
        vm.shutdown();
    }

    #[test]
    fn early_wake_churn_leaves_nothing_behind() {
        // A churn of sleepers all "woken early" (cancelled before their
        // deadline): each cancel takes its entry out of the map at once.
        let vm = VmBuilder::new().vps(1).build();
        let t = vm.delayed(|_| 0i64);
        let timers = Timers::for_vm(Weak::new());
        let far = Instant::now() + Duration::from_secs(3600);
        let keep = timers.add(far, t.clone());
        for _ in 0..10_000 {
            let id = timers.add(far, t.clone());
            assert!(timers.cancel(id));
            assert_eq!(timers.len(), 1);
        }
        assert!(timers.cancel(keep));
        assert_eq!(timers.earliest(), NONE);
        vm.shutdown();
    }

    #[test]
    fn earliest_follows_the_first_entry() {
        let vm = VmBuilder::new().vps(1).build();
        let t = vm.delayed(|_| 0i64);
        let timers = Timers::for_vm(Weak::new());
        let soon = Instant::now() + Duration::from_secs(10);
        let later = soon + Duration::from_secs(10);
        let first = timers.add(soon, t.clone());
        let _tie = timers.add(soon, t.clone());
        let _keep = timers.add(later, t.clone());
        timers.cancel(first);
        assert_eq!(timers.earliest(), nanos(soon), "the tie stays first");
        assert_eq!(timers.take_due(soon).len(), 1);
        assert_eq!(timers.earliest(), nanos(later));
        vm.shutdown();
    }
}
