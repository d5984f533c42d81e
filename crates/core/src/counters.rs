//! Substrate event counters.
//!
//! The shape experiments in the evaluation (stealing vs. context switching,
//! policy comparisons, preemption effects) are driven by these counters, so
//! they are first-class rather than a debug afterthought.  All counters are
//! relaxed atomics: they are statistics, not synchronization.
//!
//! The counters are **sharded by lane**: one cache-line-padded
//! `CounterShard` per virtual processor plus one for everything that
//! happens off any VP (host forks, host timer adds, the I/O driver).  An
//! event is counted on the lane of the VP it happened on, so the
//! fork/touch/determine path only ever writes a line its own VP owns, and
//! [`Counters::snapshot`] sums the lanes.  Each lane is monotone and a
//! snapshot reads every lane once, so a later snapshot is field-wise `>=`
//! an earlier one by the same observer even while other VPs keep counting.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($(#[$doc:meta] $name:ident),+ $(,)?) => {
        /// One lane's share of a virtual machine's [`Counters`].
        #[derive(Debug, Default)]
        pub(crate) struct CounterShard {
            $(#[$doc] pub(crate) $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`Counters`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $(#[$doc] pub $name: u64,)+
        }

        impl CounterShard {
            /// Copies this lane's current values.
            fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl CounterSnapshot {
            /// Per-field sum `self + other`.
            pub fn plus(&self, other: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name + other.$name,)+
                }
            }

            /// Per-field difference `self - earlier` (saturating).
            ///
            /// Counters are monotonic, so a field that went backwards means
            /// an attribution bug (an event counted on the wrong side of a
            /// snapshot, or a miscounted source); debug builds assert on it
            /// so the shutdown audit catches it, while release builds keep
            /// the forgiving saturating behaviour (delta 0).
            pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                $(debug_assert!(
                    self.$name >= earlier.$name,
                    concat!("counter `", stringify!($name), "` went backwards: {} -> {}"),
                    earlier.$name,
                    self.$name,
                );)+
                CounterSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }
        }
    };
}

/// Monotonic event counters for one virtual machine, one shard per VP plus
/// an external lane (see the module docs).
#[derive(Debug)]
pub struct Counters {
    lanes: Box<[CachePadded<CounterShard>]>,
}

impl Counters {
    /// Counters for a machine of `vps` virtual processors.
    pub(crate) fn new(vps: usize) -> Counters {
        Counters {
            lanes: (0..=vps).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The lane events on `vp` count on; `None` (or an index this machine
    /// does not have, as when a thread of another machine forks here) is
    /// the external lane.  Lanes are a locality device only: every bump is
    /// an atomic add, so a shared lane stays exact.
    pub(crate) fn lane(&self, vp: Option<usize>) -> &CounterShard {
        crate::pad::lane_of(&self.lanes, vp)
    }

    /// Copies the current values, summed over the lanes.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.lane_snapshots()
            .iter()
            .fold(CounterSnapshot::default(), |sum, lane| sum.plus(lane))
    }

    /// Copies each lane's current values: one entry per VP, in index
    /// order, then the external lane.
    pub fn lane_snapshots(&self) -> Vec<CounterSnapshot> {
        self.lanes.iter().map(|lane| lane.snapshot()).collect()
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

counters! {
    /// Thread objects created (fork-thread + create-thread).
    threads_created,
    /// Thread control blocks allocated (a TCB means a stack + fiber).
    tcbs_allocated,
    /// TCB stacks satisfied from a VP's recycling pool.
    stacks_recycled,
    /// Delayed/scheduled thunks absorbed by a toucher (thread stealing).
    steals,
    /// Context switches into a thread (fiber resumes).
    context_switches,
    /// Voluntary yields (yield-processor).
    yields,
    /// Preemption-induced yields.
    preemptions,
    /// Threads that parked blocked.
    blocks,
    /// Blocked/suspended threads made runnable again.
    wakeups,
    /// Threads that parked suspended.
    suspends,
    /// Threads migrated between virtual processors.
    migrations,
    /// Threads handed off to another VM shard over the fleet fabric.
    handoffs,
    /// Tuple-space operations routed to a remote shard partition.
    routed_ops,
    /// Parked machine workers unparked by a signal, on the signalling lane.
    worker_wakes,
    /// Threads that reached the determined state.
    determinations,
    /// Threads determined by an uncaught exception.
    exceptions,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let c = Counters::new(2);
        c.lane(Some(0)).steals.fetch_add(3, Ordering::Relaxed);
        c.lane(None).blocks.fetch_add(1, Ordering::Relaxed);
        let a = c.snapshot();
        // A VP index past the machine's own lands on the external lane.
        c.lane(Some(1)).steals.fetch_add(1, Ordering::Relaxed);
        c.lane(Some(9)).steals.fetch_add(1, Ordering::Relaxed);
        let b = c.snapshot();
        let lanes = c.lane_snapshots();
        assert_eq!(
            lanes.iter().map(|l| l.steals).collect::<Vec<_>>(),
            [3, 1, 1]
        );
        let d = b.since(&a);
        assert_eq!(d.steals, 2);
        assert_eq!(d.blocks, 0);
        assert_eq!(b.steals, 5);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "went backwards")]
    fn since_asserts_monotonicity_in_debug() {
        let c = Counters::new(1);
        c.lane(None).wakeups.fetch_add(4, Ordering::Relaxed);
        let later = c.snapshot();
        c.lane(None).wakeups.fetch_sub(1, Ordering::Relaxed);
        let earlier_but_higher = later;
        let _ = c.snapshot().since(&earlier_but_higher);
    }
}
