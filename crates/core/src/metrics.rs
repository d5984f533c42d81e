//! Low-overhead latency metrics: per-VP log2-bucketed histograms.
//!
//! The paper's evaluation is a claim about *operation latencies* — how long
//! a thread waits between becoming ready and running, what a steal costs,
//! how quickly a wake-up turns back into execution.  Mean-only timings hide
//! exactly the tail behaviour a substrate must guarantee, so the substrate
//! records distributions, not averages:
//!
//! * **dispatch latency** — ready-enqueue → start of execution,
//! * **steal latency** — duration of a successful migration
//!   ([`crate::vp::Vp::try_offer_migration`]), recorded on the thief,
//! * **block→wake latency** — park commit → the wake-up that re-enqueues
//!   the parked TCB,
//! * **GC scavenge pauses** — forwarded from `sting_areas` heaps by the
//!   embedding (the areas crate stands below the substrate and keeps its
//!   own pause buckets; see `HeapStats`).
//!
//! ## Overhead discipline
//!
//! The fast path of the scheduler runs in hundreds of nanoseconds, so the
//! instrumentation must cost almost nothing when idle and very little when
//! active:
//!
//! * Each histogram bucket is a relaxed [`AtomicU64`]; recording is two
//!   relaxed RMWs plus min/max updates — no locks anywhere.
//! * Latency *stamping* is **sampled**: each VP keeps a racy tick counter
//!   (relaxed load + store — losing an increment under contention merely
//!   shifts the sampling phase) and only every `sample_period`-th event
//!   takes an [`Instant`] timestamp.  Unsampled events pay one relaxed
//!   load on the consume side.
//! * The whole layer sits behind an `enabled` flag
//!   ([`Metrics::set_enabled`]); disabled, every hook is a single relaxed
//!   load and a branch.
//!
//! Recorded values are therefore a *sample* of the underlying population
//! (1-in-`sample_period` events); counts are sampled counts, while the
//! distribution shape (min/mean/percentiles) is unbiased for latencies
//! uncorrelated with the sampling phase.

use crate::pad::CachePadded;
use crate::thread::Thread;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 buckets per histogram.  Bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 covers `[0, 2)`), so 64 buckets
/// span every representable `u64` latency.
pub const BUCKETS: usize = 64;

/// Default sampling period: one in this many eligible scheduler events is
/// stamped.  Chosen so the instrumentation stays within a ~2% budget on
/// the dispatch fast path (hundreds of nanoseconds per decision): the
/// unsampled path is two relaxed loads and a store, and the two clock
/// reads a stamped event pays amortize to well under a nanosecond per
/// dispatch at this period.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 64;

/// Returns the bucket index for a latency of `ns` nanoseconds.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Returns the `[low, high)` nanosecond bounds of bucket `i`
/// (`high` saturates at `u64::MAX` for the last bucket).
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index out of range");
    let low = if i == 0 { 0 } else { 1u64 << i };
    let high = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
    (low, high)
}

/// A lock-free log2-bucketed latency histogram.
///
/// All fields are relaxed atomics: the histogram is statistics, not
/// synchronization.  A [`Histogram::snapshot`] taken while writers are
/// recording is internally consistent in one direction: `record` bumps the
/// bucket *before* the count, and `snapshot` reads the count *before* the
/// buckets, so a snapshot's bucket total is always `>=` its count.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        // Everything before the count, which publishes it (Release, paired
        // with the snapshot's Acquire): see the snapshot-consistency note
        // above.  A snapshot that counts this observation also sees its
        // bucket and extremes — in particular `min <= max` once `count > 0`.
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Copies the current values.  Safe (and racy, in the documented
    /// direction) while writers are active.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Count before everything else: see the snapshot-consistency note
        // above.
        let count = self.count.load(Ordering::Acquire);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` covers
    /// [`bucket_bounds`]`(i)` nanoseconds.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies, in nanoseconds.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merges `other` into `self` (bucket-wise sum, min/max union).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum += other.sum;
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
    }

    /// Returns the merge of an iterator of snapshots.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a HistogramSnapshot>) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Mean latency in nanoseconds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds from the
    /// bucket midpoints, clamped to the observed `[min, max]` (so a
    /// single-valued distribution reports that exact value).  Returns 0
    /// when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Nearest-rank on the bucketed CDF.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let (low, high) = bucket_bounds(i);
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50) in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// Per-VP histograms plus the VP's private sampling tick counters.
#[derive(Debug, Default)]
struct VpMetrics {
    dispatch: Histogram,
    steal: Histogram,
    wake: Histogram,
    /// Racy sampling counters (relaxed load + store).  One per event kind
    /// so a burst of one kind does not starve sampling of another.
    dispatch_tick: AtomicU64,
    steal_tick: AtomicU64,
    wake_tick: AtomicU64,
}

/// Latency histograms for the three paper-level scheduler latencies plus
/// GC scavenge pauses.
///
/// One `Metrics` lives in each [`crate::Vm`]; reach it via
/// [`Vm::metrics`](crate::Vm::metrics).  See the [module docs](self) for
/// the sampling/overhead discipline.
#[derive(Debug)]
pub struct Metrics {
    enabled: AtomicBool,
    /// `sample_period - 1` for a power-of-two period; an event is stamped
    /// when `tick & sample_mask == 0`.
    sample_mask: u64,
    base: Instant,
    /// Padded: a VP's histograms and sampling ticks are written on every
    /// sampled event, and must not share a line with a sibling's — or with
    /// the read-only words above, which every hook loads first.
    vps: Vec<CachePadded<VpMetrics>>,
    gc_pause: CachePadded<Histogram>,
}

impl Metrics {
    /// Creates metrics for `vp_count` VPs.  `sample_period` is rounded up
    /// to a power of two; `enabled` gates all stamping at runtime.
    pub(crate) fn new(vp_count: usize, enabled: bool, sample_period: u64) -> Metrics {
        Metrics {
            enabled: AtomicBool::new(enabled),
            sample_mask: sample_period.max(1).next_power_of_two() - 1,
            base: Instant::now(),
            vps: (0..vp_count).map(|_| CachePadded::default()).collect(),
            gc_pause: CachePadded::default(),
        }
    }

    /// Whether latency stamping is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns latency stamping on or off at runtime.  Already-stamped
    /// events still record when consumed.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The effective sampling period (power of two): one in this many
    /// eligible events is stamped.
    pub fn sample_period(&self) -> u64 {
        self.sample_mask + 1
    }

    /// Nanoseconds since this VM's metrics epoch (never 0: 0 is the
    /// "unstamped" sentinel in thread stamp slots).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        (self.base.elapsed().as_nanos() as u64).max(1)
    }

    /// Advances a sampling tick; returns `true` when this event is chosen.
    #[inline]
    fn sample(&self, tick: &AtomicU64) -> bool {
        // Racy on purpose: a lost increment under contention only shifts
        // the sampling phase, and `fetch_add` on a shared line is exactly
        // the cost this layer must not impose.
        let t = tick.load(Ordering::Relaxed).wrapping_add(1);
        tick.store(t, Ordering::Relaxed);
        t & self.sample_mask == 0
    }

    /// Hook: `thread` was pushed onto `vp`'s ready queue.  Stamps the
    /// enqueue time on a sampled subset.
    #[inline]
    pub(crate) fn stamp_enqueue(&self, vp: usize, thread: &Thread) {
        if !self.is_enabled() {
            return;
        }
        if let Some(m) = self.vps.get(vp) {
            if self.sample(&m.dispatch_tick) {
                thread
                    .enqueued_at_ns
                    .store(self.now_ns(), Ordering::Relaxed);
            }
        }
    }

    /// Hook: `vp` is about to run `thread`.  Consumes a pending enqueue
    /// stamp and records the dispatch latency.
    #[inline]
    pub(crate) fn note_dispatch(&self, vp: usize, thread: &Thread) {
        if !self.is_enabled() {
            return;
        }
        let stamped = thread.enqueued_at_ns.load(Ordering::Relaxed);
        if stamped == 0 {
            return;
        }
        thread.enqueued_at_ns.store(0, Ordering::Relaxed);
        if let Some(m) = self.vps.get(vp) {
            m.dispatch.record(self.now_ns().saturating_sub(stamped));
        }
    }

    /// Hook: VP `thief` starts a migration attempt.  Returns a start stamp
    /// when this attempt is sampled.
    #[inline]
    pub(crate) fn steal_begin(&self, thief: usize) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let m = self.vps.get(thief)?;
        self.sample(&m.steal_tick).then(|| self.now_ns())
    }

    /// Hook: the sampled migration attempt that began at `t0` succeeded.
    #[inline]
    pub(crate) fn note_steal(&self, thief: usize, t0: u64) {
        if let Some(m) = self.vps.get(thief) {
            m.steal.record(self.now_ns().saturating_sub(t0));
        }
    }

    /// Hook: `thread` committed a park on `vp`.  Stamps the block time on
    /// a sampled subset.
    #[inline]
    pub(crate) fn stamp_block(&self, vp: usize, thread: &Thread) {
        if !self.is_enabled() {
            return;
        }
        if let Some(m) = self.vps.get(vp) {
            if self.sample(&m.wake_tick) {
                thread.blocked_at_ns.store(self.now_ns(), Ordering::Relaxed);
            }
        }
    }

    /// Hook: `thread`'s parked TCB is being re-enqueued on `vp`.  Consumes
    /// a pending block stamp and records the block→wake latency.
    #[inline]
    pub(crate) fn note_wake(&self, vp: usize, thread: &Thread) {
        if !self.is_enabled() {
            return;
        }
        let stamped = thread.blocked_at_ns.load(Ordering::Relaxed);
        if stamped == 0 {
            return;
        }
        thread.blocked_at_ns.store(0, Ordering::Relaxed);
        if let Some(m) = self.vps.get(vp) {
            m.wake.record(self.now_ns().saturating_sub(stamped));
        }
    }

    /// Records one GC scavenge pause of `ns` nanoseconds.  Pauses are rare
    /// relative to scheduler events, so they are recorded unsampled.
    pub fn record_gc_pause(&self, ns: u64) {
        if self.is_enabled() {
            self.gc_pause.record(ns);
        }
    }

    /// Snapshots every histogram, merged across VPs (per-VP views
    /// included).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let per_vp: Vec<VpMetricsSnapshot> = self
            .vps
            .iter()
            .map(|m| VpMetricsSnapshot {
                dispatch: m.dispatch.snapshot(),
                steal: m.steal.snapshot(),
                wake: m.wake.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            dispatch: HistogramSnapshot::merged(per_vp.iter().map(|v| &v.dispatch)),
            steal: HistogramSnapshot::merged(per_vp.iter().map(|v| &v.steal)),
            wake: HistogramSnapshot::merged(per_vp.iter().map(|v| &v.wake)),
            gc_pause: self.gc_pause.snapshot(),
            sample_period: self.sample_period(),
            per_vp,
        }
    }
}

/// One VP's slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct VpMetricsSnapshot {
    /// Ready-enqueue → run latency.
    pub dispatch: HistogramSnapshot,
    /// Successful-migration duration (recorded on the thief).
    pub steal: HistogramSnapshot,
    /// Park commit → wake re-enqueue latency.
    pub wake: HistogramSnapshot,
}

/// A point-in-time copy of a VM's [`Metrics`], merged across VPs.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Ready-enqueue → run latency, all VPs.
    pub dispatch: HistogramSnapshot,
    /// Successful-migration duration, all thieves.
    pub steal: HistogramSnapshot,
    /// Park commit → wake re-enqueue latency, all VPs.
    pub wake: HistogramSnapshot,
    /// GC scavenge pauses forwarded by the embedding.
    pub gc_pause: HistogramSnapshot,
    /// Sampling period the latencies were collected under.
    pub sample_period: u64,
    /// Per-VP views of the three scheduler histograms.
    pub per_vp: Vec<VpMetricsSnapshot>,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "latency (ns, 1-in-{} sampled):", self.sample_period)?;
        for (name, h) in [
            ("dispatch", &self.dispatch),
            ("steal", &self.steal),
            ("block-wake", &self.wake),
            ("gc-pause", &self.gc_pause),
        ] {
            writeln!(
                f,
                "  {name:<10} n={:<8} min={:<8} mean={:<10.0} p50={:<8} p99={:<8} max={}",
                h.count,
                h.min,
                h.mean(),
                h.p50(),
                h.p99(),
                h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_bounds(0), (0, 2));
        assert_eq!(bucket_bounds(10), (1024, 2048));
        assert_eq!(bucket_bounds(63), (1u64 << 63, u64::MAX));
        // Every value maps into the bucket whose bounds contain it.
        for ns in [0u64, 1, 2, 7, 100, 4096, 1 << 40] {
            let (low, high) = bucket_bounds(bucket_index(ns));
            assert!(low <= ns && ns < high, "{ns} not in [{low}, {high})");
        }
    }

    #[test]
    fn record_and_stats() {
        let h = Histogram::default();
        for ns in [100u64, 100, 100, 100] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 400);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 100);
        // Single-valued distribution: percentiles clamp to the exact value.
        assert_eq!(s.p50(), 100);
        assert_eq!(s.p99(), 100);
        assert!((s.mean() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50(), s.p99()), (0, 0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentile_orders_buckets() {
        let h = Histogram::default();
        for _ in 0..98 {
            h.record(10);
        }
        h.record(1 << 20);
        h.record(1 << 20);
        let s = h.snapshot();
        assert!(s.p50() < 16, "p50 {} should sit in the low bucket", s.p50());
        assert!(
            s.p99() >= 1 << 20,
            "p99 {} should reach the outlier",
            s.p99()
        );
        assert_eq!(s.percentile(0.0), s.min);
        assert_eq!(s.percentile(1.0).max(s.max), s.max);
    }

    #[test]
    fn merge_combines() {
        let a = {
            let h = Histogram::default();
            h.record(8);
            h.record(16);
            h.snapshot()
        };
        let b = {
            let h = Histogram::default();
            h.record(1 << 30);
            h.snapshot()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 8 + 16 + (1 << 30));
        assert_eq!(m.min, 8);
        assert_eq!(m.max, 1 << 30);
        // Merging an empty snapshot is the identity.
        let mut id = m;
        id.merge(&HistogramSnapshot::default());
        assert_eq!(id, m);
        let mut id2 = HistogramSnapshot::default();
        id2.merge(&m);
        assert_eq!(id2, m);
    }

    #[test]
    fn snapshot_vs_concurrent_record() {
        let h = std::sync::Arc::new(Histogram::default());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let h = h.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.record((i + 1) * 97 + (n % 1000));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for _ in 0..200 {
            let s = h.snapshot();
            let bucket_total: u64 = s.buckets.iter().sum();
            // record() bumps the bucket before the count and snapshot()
            // reads the count first, so this holds under concurrency.
            assert!(
                bucket_total >= s.count,
                "bucket total {bucket_total} < count {}",
                s.count
            );
            if s.count > 0 {
                assert!(s.min <= s.max);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let final_snapshot = h.snapshot();
        assert_eq!(final_snapshot.count, written);
        assert_eq!(final_snapshot.buckets.iter().sum::<u64>(), written);
    }

    #[test]
    fn sampling_period_rounds_to_power_of_two() {
        let m = Metrics::new(1, true, 10);
        assert_eq!(m.sample_period(), 16);
        let m = Metrics::new(1, true, 1);
        assert_eq!(m.sample_period(), 1);
        let m = Metrics::new(1, true, 0);
        assert_eq!(m.sample_period(), 1);
    }
}
