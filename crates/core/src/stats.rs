//! One stats lane per virtual processor: a machine's counters, latency
//! histograms and flight recorder, in one table.
//!
//! Every VP of a [`Vm`] — plus one *external* lane for everything that
//! happens off any of its VPs (host forks, timer sweeps, the I/O poller, a
//! worker between dispatches) — owns one cache-line-padded lane of the
//! machine, the same block that carries the lane's fork state.  Its
//! statistics, a `LaneStats`, are
//!
//! * a **counter shard**: relaxed monotone counts, summed over the lanes by
//!   [`Counters::snapshot`] — the shape experiments of the evaluation are
//!   driven by these, so they are first-class;
//! * **latency histograms** — dispatch, steal, block→wake and GC pause
//!   (see [`crate::metrics`]) — with their racy sampling ticks;
//! * an **event ring**, the scheduler flight recorder (see
//!   [`crate::trace`]).
//!
//! An event is counted and recorded on the lane of the VP it happened on,
//! so the fork/touch/determine path only writes a line its own VP owns.
//!
//! ## One entry point
//!
//! A scheduler event is noted once: its hook calls [`Vm::note`] with the
//! [`EventKind`], and that call bumps the counter the kind implies, takes
//! or consumes the thread's latency stamp, and records the event when
//! tracing is on.  Counts that have no event — TCBs, recycled stacks,
//! worker wakes, routed operations, I/O registrations — are plain bumps on
//! the same lane (`Vm::counts`).
//!
//! One enable word says whether latency stamping and recording are on, and
//! one epoch times both stamps and events.  With both off, a hook costs its
//! counter bump and one relaxed load.
//!
//! Two stamps stay at program points of their own, on the same lanes:
//! a park's stamp is taken at its commit, under the thread's lock, so the
//! waker that takes the parked TCB under that lock sees it
//! (`Vm::note_park`); and a migration's clock starts before the item it
//! moves is known (`Vm::steal_begin`).  The hook of an `Enqueue` runs
//! before the item becomes visible, because the trace audit orders every
//! steal after its enqueue.
//!
//! ## Sampling
//!
//! Latency stamping is sampled: each lane keeps a racy tick per latency
//! (relaxed load + store — a lost increment only shifts the sampling
//! phase) and only every `sample_period`-th event reads the clock.
//! Histogram counts are therefore sampled counts; the distribution's shape
//! is unbiased for latencies uncorrelated with the sampling phase.
//!
//! [`Counters`], [`Metrics`] and [`Tracer`] — defined beside the types
//! they read, in [`crate::counters`], [`crate::metrics`] and
//! [`crate::trace`] — are read views over the table.

use crate::counters::CounterShard;
use crate::metrics::Histogram;
use crate::pad::CachePadded;
use crate::thread::Thread;
use crate::trace::{EventKind, Ring};
use crate::vm::Vm;
use crate::{Counters, Metrics, Tracer};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// One lane's statistics (see the module docs).
pub(crate) struct LaneStats {
    pub(crate) counts: CounterShard,
    /// Sampling ticks, one per stamped latency so a burst of one kind does
    /// not starve sampling of another.
    dispatch_tick: AtomicU64,
    steal_tick: AtomicU64,
    wake_tick: AtomicU64,
    /// Start of this VP's sampled migration attempt in progress, 0 when
    /// the attempt is not sampled.
    steal_at: AtomicU64,
    pub(crate) dispatch: Histogram,
    pub(crate) steal: Histogram,
    pub(crate) wake: Histogram,
    pub(crate) gc_pause: Histogram,
    pub(crate) ring: Ring,
}

impl LaneStats {
    /// A lane whose ring holds `capacity` events.
    pub(crate) fn new(capacity: usize) -> LaneStats {
        LaneStats {
            counts: CounterShard::default(),
            dispatch_tick: AtomicU64::new(0),
            steal_tick: AtomicU64::new(0),
            wake_tick: AtomicU64::new(0),
            steal_at: AtomicU64::new(0),
            dispatch: Histogram::default(),
            steal: Histogram::default(),
            wake: Histogram::default(),
            gc_pause: Histogram::default(),
            ring: Ring::new(capacity.max(2)),
        }
    }
}

/// Enable-word bit: latency stamping is on.
pub(crate) const STAMP: u8 = 1;
/// Enable-word bit: the flight recorder is on.
pub(crate) const RECORD: u8 = 2;

/// The words every lane of a machine shares.
pub(crate) struct Stats {
    /// [`STAMP`] | [`RECORD`].
    on: AtomicU8,
    /// `sample_period - 1` for a power-of-two period; an event is stamped
    /// when `tick & sample_mask == 0`.
    sample_mask: u64,
    epoch: Instant,
    /// Lamport logical clock: bumped on every record, advanced past a
    /// remote peer's clock by [`Tracer::witness`] when a cross-shard
    /// message is received.  Padded: every record writes it while tracing
    /// is on.
    clock: CachePadded<AtomicU64>,
}

impl Stats {
    /// Stamping on, recording as `trace` says; `sample_period` is rounded
    /// up to a power of two.
    pub(crate) fn new(trace: bool, sample_period: u64) -> Stats {
        Stats {
            on: AtomicU8::new(STAMP | if trace { RECORD } else { 0 }),
            sample_mask: sample_period.max(1).next_power_of_two() - 1,
            epoch: Instant::now(),
            clock: CachePadded(AtomicU64::new(0)),
        }
    }

    /// The enable word.
    #[inline]
    pub(crate) fn on(&self) -> u8 {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns enable-word `bit` on or off.
    pub(crate) fn set(&self, bit: u8, on: bool) {
        if on {
            self.on.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.on.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// The effective sampling period, a power of two.
    pub(crate) fn sample_period(&self) -> u64 {
        self.sample_mask + 1
    }

    /// The Lamport clock's current value.
    pub(crate) fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the Lamport clock to `seen` if it is behind.
    pub(crate) fn witness(&self, seen: u64) {
        self.clock.fetch_max(seen, Ordering::Relaxed);
    }

    /// Nanoseconds since the epoch.
    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// [`Stats::now`], never 0: 0 is the "unstamped" sentinel.
    #[inline]
    fn stamp(&self) -> u64 {
        self.now().max(1)
    }

    /// Advances a sampling tick; `true` when this event is chosen.
    #[inline]
    fn sampled(&self, tick: &AtomicU64) -> bool {
        // Racy on purpose: a lost increment under contention only shifts
        // the sampling phase, and `fetch_add` on a shared line is exactly
        // the cost this layer must not impose.
        let t = tick.load(Ordering::Relaxed).wrapping_add(1);
        tick.store(t, Ordering::Relaxed);
        t & self.sample_mask == 0
    }

    /// Records the latency since the stamp in `at` into `into` and clears
    /// the stamp, if there is one.
    #[inline]
    fn consume(&self, at: &AtomicU64, into: &Histogram) {
        let stamped = at.load(Ordering::Relaxed);
        if stamped != 0 {
            at.store(0, Ordering::Relaxed);
            into.record(self.stamp().saturating_sub(stamped));
        }
    }

    /// The latency part of noting `kind` about `thread` on `lane`.
    #[inline]
    fn time(&self, lane: &LaneStats, kind: EventKind, thread: &Thread) {
        match kind {
            EventKind::Enqueue if self.sampled(&lane.dispatch_tick) => {
                thread.enqueued_at_ns.store(self.stamp(), Ordering::Relaxed);
            }
            EventKind::Dispatch => self.consume(&thread.enqueued_at_ns, &lane.dispatch),
            EventKind::Unblock => self.consume(&thread.blocked_at_ns, &lane.wake),
            EventKind::Migrate => self.consume(&lane.steal_at, &lane.steal),
            _ => {}
        }
    }
}

impl Vm {
    /// Notes scheduler event `kind` about `thread` on `lane` (a VP index of
    /// this machine, or `None` for the external lane): bumps the counter
    /// the kind implies, takes or consumes the thread's latency stamp, and
    /// records the event with payload `a`, `b` (see [`EventKind`]) when
    /// tracing is on.  The one entry point every hook reports through.
    /// Always inlined, so a hook's constant kind folds the dispatch on it
    /// away.
    #[inline(always)]
    pub fn note(&self, lane: Option<usize>, kind: EventKind, thread: &Thread, a: u32, b: u32) {
        self.note_on(lane, kind, thread.id().0, Some(thread), a, b);
    }

    /// [`Vm::note`] for an event that names a thread only by id (0 or
    /// `u64::MAX` for none), so takes no latency stamp.
    #[inline(always)]
    pub(crate) fn note_id(&self, lane: Option<usize>, kind: EventKind, id: u64, a: u32, b: u32) {
        self.note_on(lane, kind, id, None, a, b);
    }

    #[inline(always)]
    fn note_on(
        &self,
        lane: Option<usize>,
        kind: EventKind,
        id: u64,
        thread: Option<&Thread>,
        a: u32,
        b: u32,
    ) {
        let (ix, stats) = self.lane_stats(lane);
        stats.counts.count(kind, a);
        let shared = self.stats();
        let on = shared.on();
        if let Some(thread) = thread.filter(|_| on & STAMP != 0) {
            shared.time(stats, kind, thread);
        }
        if on & RECORD != 0 {
            let ts = shared.now();
            let lc = shared.clock.fetch_add(1, Ordering::Relaxed) + 1;
            stats.ring.record(ts, ix as u32, kind, id, a, b, lc);
        }
    }

    /// `lane`'s counts, for the counts that have no event.
    #[inline]
    pub(crate) fn counts(&self, lane: Option<usize>) -> &CounterShard {
        &self.lane_stats(lane).1.counts
    }

    /// A committed park of `thread` on VP `vp`: counts the block or
    /// suspension and, on a sampled subset, stamps the park for the
    /// wake-up's [`EventKind::Unblock`] to consume.  Runs under the
    /// thread's lock, which the waker takes before it can take the parked
    /// TCB, so a stamped park is always visible to its wake.
    #[inline]
    pub(crate) fn note_park(&self, vp: usize, thread: &Thread, suspended: bool) {
        let lane = self.lane_stats(Some(vp)).1;
        let counts = &lane.counts;
        let parks = if suspended {
            &counts.suspends
        } else {
            &counts.blocks
        };
        parks.bump();
        let shared = self.stats();
        if shared.on() & STAMP != 0 && shared.sampled(&lane.wake_tick) {
            thread
                .blocked_at_ns
                .store(shared.stamp(), Ordering::Relaxed);
        }
    }

    /// VP `thief` starts a migration attempt: on a sampled subset its
    /// clock starts, for the [`EventKind::Migrate`] that commits the
    /// attempt to stop.
    #[inline]
    pub(crate) fn steal_begin(&self, thief: usize) {
        let lane = self.lane_stats(Some(thief)).1;
        let shared = self.stats();
        let at = if shared.on() & STAMP != 0 && shared.sampled(&lane.steal_tick) {
            shared.stamp()
        } else {
            0
        };
        lane.steal_at.store(at, Ordering::Relaxed);
    }

    /// The machine's counters, summed over its lanes.
    pub fn counters(&self) -> Counters<'_> {
        Counters(self)
    }

    /// The machine's latency histograms: dispatch, steal, block→wake and
    /// GC pause (see [`crate::metrics`]).
    pub fn metrics(&self) -> Metrics<'_> {
        Metrics(self)
    }

    /// The scheduler flight recorder.  [`Tracer::set_enabled`] starts and
    /// stops recording at run time; [`VmBuilder::trace`](crate::VmBuilder::trace)
    /// records from the first instruction.
    pub fn tracer(&self) -> Tracer<'_> {
        Tracer(self)
    }
}
