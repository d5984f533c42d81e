//! Substrate event counters: each stats lane's counter shard (see
//! [`crate::stats`]) and the [`Counters`] view that sums the lanes.
//!
//! The shape experiments in the evaluation (stealing vs. context switching,
//! policy comparisons, preemption effects) are driven by these counters, so
//! they are first-class rather than a debug afterthought.  All counters are
//! relaxed atomics: they are statistics, not synchronization.

use crate::trace::EventKind;
use crate::vm::Vm;
use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed monotone count: statistics, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct Count(AtomicU64);

impl Count {
    #[inline]
    pub(crate) fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

macro_rules! counters {
    ($(#[$doc:meta] $name:ident),+ $(,)?) => {
        /// One lane's counts.
        #[derive(Debug, Default)]
        pub(crate) struct CounterShard {
            $(#[$doc] pub(crate) $name: Count,)+
        }

        /// A point-in-time copy of a machine's counters (see [`Counters`]).
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $(#[$doc] pub $name: u64,)+
        }

        impl CounterShard {
            pub(crate) fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.0.load(Ordering::Relaxed),)+
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
    /// Parked I/O waiters woken by readiness dispatch.
    io_wakes,
    /// Registrations and deregistrations asked of the I/O reactor.
    io_registrations,
}

impl CounterShard {
    /// Bumps the count event `kind` with payload `a` implies, if any.
    #[inline]
    pub(crate) fn count(&self, kind: EventKind, a: u32) {
        let count = match kind {
            EventKind::Fork => &self.threads_created,
            EventKind::Dispatch => &self.context_switches,
            EventKind::Switch if a == 0 => &self.yields,
            EventKind::Switch if a == 1 => &self.preemptions,
            EventKind::Steal => &self.steals,
            EventKind::Unblock => &self.wakeups,
            EventKind::Migrate => &self.migrations,
            EventKind::Handoff => &self.handoffs,
            EventKind::IoReady => &self.io_wakes,
            EventKind::Determine => {
                self.determinations.bump();
                if a == 0 {
                    return;
                }
                &self.exceptions
            }
            _ => return,
        };
        count.bump();
    }
}

/// A read view of a machine's counters (see [`crate::stats`]).
#[derive(Debug, Clone, Copy)]
pub struct Counters<'a>(pub(crate) &'a Vm);

impl Counters<'_> {
    /// Copies the current values, summed over the lanes.  Each lane is
    /// monotone and read once, so a later snapshot is field-wise `>=` an
    /// earlier one by the same observer even while other VPs keep counting.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.lane_snapshots()
            .iter()
            .fold(CounterSnapshot::default(), |sum, lane| sum.plus(lane))
    }

    /// Copies each lane's current values: one entry per VP, in index
    /// order, then the external lane.
    pub fn lane_snapshots(&self) -> Vec<CounterSnapshot> {
        self.0.lanes_stats().map(|l| l.counts.snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmBuilder;

    #[test]
    fn snapshot_and_since() {
        let vm = VmBuilder::new().vps(2).processors(1).build();
        for _ in 0..3 {
            vm.counts(Some(0)).steals.bump();
        }
        vm.counts(None).blocks.bump();
        let a = vm.counters().snapshot();
        // A VP index past the machine's own lands on the external lane.
        vm.counts(Some(1)).steals.bump();
        vm.counts(Some(9)).steals.bump();
        let b = vm.counters().snapshot();
        let lanes = vm.counters().lane_snapshots();
        assert_eq!(
            lanes.iter().map(|l| l.steals).collect::<Vec<_>>(),
            [3, 1, 1]
        );
        let d = b.since(&a);
        assert_eq!(d.steals, 2);
        assert_eq!(d.blocks, 0);
        assert_eq!(b.steals, 5);
        vm.shutdown();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "went backwards")]
    fn since_asserts_monotonicity_in_debug() {
        let later = CounterSnapshot {
            wakeups: 3,
            ..CounterSnapshot::default()
        };
        let earlier_but_higher = CounterSnapshot {
            wakeups: 4,
            ..CounterSnapshot::default()
        };
        let _ = later.since(&earlier_but_higher);
    }
}
