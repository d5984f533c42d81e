//! Measurement machinery shared by every workload: the seeded generator,
//! the closed-loop driver, per-op records and the statistics over them,
//! and the `/proc` readers for CPU time and memory.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use sting::core::{CounterSnapshot, HistogramSnapshot, Vm};

/// An op that takes longer than this counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

/// Generated inputs per load thread; the loop cycles through them, so the
/// hash of the whole sequence covers every input a run can see.
pub const INPUTS_PER_THREAD: usize = 1 << 14;

/// Length of the slices a timed window is cut into.
const SLICE_NS: u64 = 1_000_000_000;

/// VM workers and load threads: `min(2, nproc)`.
pub fn parallelism() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Nanoseconds since the first call; one origin for every thread so span
/// and op timestamps compare across threads.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `len` flags in blocks of `block`, exactly one set per block at a seeded
/// position: the share of flagged inputs is the same on every seed and in
/// every stretch of a run, only the order differs.
pub fn one_in_each_block(rng: &mut Rng, len: usize, block: u64) -> Vec<bool> {
    let mut flags = Vec::with_capacity(len + block as usize);
    while flags.len() < len {
        let chosen = rng.below(block);
        flags.extend((0..block).map(|i| i == chosen));
    }
    flags
}

/// FNV-1a over 64-bit words: the hash of a generated input sequence.
pub fn input_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// One op as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Workload-defined flavour (eager/lazy, local/routed, small/large,
    /// program index).
    pub kind: u8,
    /// The result was the expected one and arrived within [`OP_DEADLINE`].
    pub ok: bool,
    /// Time between the load thread's previous op returning and this one
    /// starting; more than a moment means the generator was descheduled.
    pub gap_ns: u64,
}

impl OpRecord {
    pub fn new(start_ns: u64, end_ns: u64, kind: u8, verified: bool) -> OpRecord {
        let in_time = end_ns - start_ns <= OP_DEADLINE.as_nanos() as u64;
        OpRecord {
            start_ns,
            end_ns,
            kind,
            ok: verified && in_time,
            gap_ns: 0,
        }
    }

    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// When a load loop stops issuing ops: after a fixed count (warm-up) or at
/// a deadline on the [`now_ns`] clock (timed windows).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(usize),
    At(u64),
}

impl Stop {
    pub fn after(window: Duration) -> Stop {
        Stop::At(now_ns() + window.as_nanos() as u64)
    }

    pub fn reached(&self, issued: usize, now: u64) -> bool {
        match *self {
            Stop::Count(n) => issued >= n,
            Stop::At(t) => now >= t,
        }
    }
}

/// Ops the load generators have completed since the process started.
static OPS_DONE: AtomicU64 = AtomicU64::new(0);

/// Counts `n` more completed ops; every load loop reports here, so that a
/// window can tell when a fixed amount of work has been done.
pub fn note_ops_done(n: usize) {
    OPS_DONE.fetch_add(n as u64, Relaxed);
}

/// Closed loop on host threads: each of `threads` load threads issues its
/// next batch only after the previous one returned.  `op(thread, i, out)`
/// performs the ops numbered from `i` on that thread and pushes one record
/// per op; a batch is one op except where a thread drives several
/// connections at once.
pub fn closed_loop<F>(threads: usize, stop: Stop, op: F) -> Vec<OpRecord>
where
    F: Fn(usize, usize, &mut Vec<OpRecord>) + Sync,
{
    let op = &op;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut records: Vec<OpRecord> = Vec::with_capacity(1 << 16);
                    loop {
                        let now = now_ns();
                        let issued = records.len();
                        if stop.reached(issued, now) {
                            break;
                        }
                        let gap_ns = records.last().map_or(0, |r| now.saturating_sub(r.end_ns));
                        op(t, issued, &mut records);
                        if let Some(first) = records.get_mut(issued) {
                            first.gap_ns = gap_ns;
                        }
                        note_ops_done(records.len() - issued);
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &mut [u64]) -> f64 {
    quantile(samples, 0.5)
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

pub fn median_f64(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// The highest percentile, up to p99, that still has ten samples beyond
/// it; returns `(q, value)`.
pub fn tail(samples: &mut [u64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let q = (1.0 - 10.0 / n).clamp(0.5, 0.99);
    (q, quantile(samples, q))
}

/// One second of a timed window.
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// On the [`now_ns`] clock.
    end_ns: u64,
    /// Process CPU seconds at `end_ns`.
    cpu_s: f64,
}

/// What one slice of a window measured.
#[derive(Debug, Clone, Copy)]
pub struct SliceRates {
    pub ops_per_s: f64,
    pub latency_p50_ns: f64,
    pub cpu_us_per_op: f64,
}

/// Median over slices of one of their rates.  A slice median shrugs off
/// the seconds in which something else on the box ran; a whole-window mean
/// does not.
pub fn median_of(slices: &[SliceRates], rate: impl Fn(&SliceRates) -> f64) -> f64 {
    median_f64(&mut slices.iter().map(rate).collect::<Vec<_>>())
}

/// What one timed window measured.
#[derive(Debug, Clone)]
pub struct Window {
    pub records: Vec<OpRecord>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Highest value `gauge` returned at a slice boundary.
    pub gauge_peak: usize,
    /// `VmHWM` in KiB when the window's `rss_after_ops`-th op completed;
    /// `None` if the window ended first.
    pub rss_kb_after_ops: Option<u64>,
    start_ns: u64,
    start_cpu_s: f64,
    slices: Vec<Slice>,
}

impl Window {
    /// Runs `body` (which drives the load and returns every op record) and
    /// brackets it with the wall and CPU clocks.  A sampler thread polls
    /// every 5 ms: once a second it cuts a slice (clock, CPU time) and reads
    /// `gauge`, and when `rss_after_ops` ops have completed it reads the
    /// peak resident set, once.
    pub fn measure(
        gauge: impl Fn() -> usize + Sync,
        rss_after_ops: u64,
        body: impl FnOnce() -> Vec<OpRecord>,
    ) -> Window {
        let done = AtomicBool::new(false);
        let (start_ns, start_cpu_s) = (now_ns(), process_cpu_s());
        let ops_before = OPS_DONE.load(Relaxed);
        let (records, (slices, gauge_peak, rss_kb_after_ops)) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let (mut slices, mut peak, mut rss_kb) = (Vec::new(), gauge(), None);
                let mut next = start_ns + SLICE_NS;
                while !done.load(Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                    if rss_kb.is_none() && OPS_DONE.load(Relaxed) - ops_before >= rss_after_ops {
                        rss_kb = Some(status_kb("VmHWM"));
                    }
                    let now = now_ns();
                    if now >= next {
                        slices.push(Slice {
                            end_ns: now,
                            cpu_s: process_cpu_s(),
                        });
                        peak = peak.max(gauge());
                        next += SLICE_NS;
                    }
                }
                // What is left of the window is a slice too, unless it is
                // a sliver whose rates would be mostly rounding.
                let now = now_ns();
                if slices.is_empty() || now + SLICE_NS - next >= SLICE_NS / 4 {
                    slices.push(Slice {
                        end_ns: now,
                        cpu_s: process_cpu_s(),
                    });
                }
                (slices, peak, rss_kb)
            });
            let records = body();
            done.store(true, Relaxed);
            (records, sampler.join().expect("the sampler only reads"))
        });
        Window {
            records,
            wall_s: (now_ns() - start_ns) as f64 / 1e9,
            cpu_s: process_cpu_s() - start_cpu_s,
            gauge_peak,
            rss_kb_after_ops,
            start_ns,
            start_cpu_s,
            slices,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    pub fn completed(&self) -> u64 {
        self.attempted() - self.failed()
    }

    /// Per slice: verified ops per second, median op latency in ns, and CPU
    /// microseconds per verified op.  Slices in which nothing completed
    /// (an op longer than a slice) are skipped.
    pub fn per_slice(&self) -> Vec<SliceRates> {
        let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); self.slices.len()];
        for r in self.records.iter().filter(|r| r.ok) {
            let at = self.slices.partition_point(|s| s.end_ns < r.end_ns);
            if let Some(slice) = by_slice.get_mut(at) {
                slice.push(r.latency_ns());
            }
        }
        let (mut from_ns, mut from_cpu_s) = (self.start_ns, self.start_cpu_s);
        let mut out = Vec::with_capacity(self.slices.len());
        for (slice, latencies) in self.slices.iter().zip(&mut by_slice) {
            let ops = latencies.len() as f64;
            if ops > 0.0 {
                out.push(SliceRates {
                    ops_per_s: ops * 1e9 / (slice.end_ns - from_ns) as f64,
                    latency_p50_ns: median(latencies),
                    cpu_us_per_op: (slice.cpu_s - from_cpu_s) * 1e6 / ops,
                });
            }
            (from_ns, from_cpu_s) = (slice.end_ns, slice.cpu_s);
        }
        out
    }

    /// Median over the window's slices of verified ops per second.
    pub fn ops_per_s(&self) -> f64 {
        median_of(&self.per_slice(), |s| s.ops_per_s)
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.records.iter().map(OpRecord::latency_ns).collect()
    }

    /// Share of ops whose load thread sat descheduled for more than a
    /// millisecond before issuing them.
    pub fn generator_late_share(&self) -> f64 {
        let late = self.records.iter().filter(|r| r.gap_ns > 1_000_000).count();
        ratio(late as f64, self.records.len() as f64)
    }

    pub fn latencies_of_kind_ns(&self, kind: u8) -> Vec<u64> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(OpRecord::latency_ns)
            .collect()
    }
}

/// Process user+system CPU seconds so far, from `/proc/self/stat`.  The
/// kernel reports clock ticks at the fixed user-visible rate of 100 Hz.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) as f64 / 100.0
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The soft limit on open files (`ulimit -n`), from `/proc/self/limits`;
/// unreadable or `unlimited` reads as no limit.
pub fn nofile_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(u64::MAX)
}

/// Counters and latency histograms summed over the VMs of a world, so a
/// fleet and a single VM report through one shape.
#[derive(Debug, Clone, Default)]
pub struct Substrate {
    pub counters: CounterSnapshot,
    pub dispatch: HistogramSnapshot,
    pub wake: HistogramSnapshot,
    pub gc_pause: HistogramSnapshot,
    pub io_syscalls: u64,
    pub io_wakes: u64,
}

impl Substrate {
    pub fn read<'a>(vms: impl IntoIterator<Item = &'a std::sync::Arc<Vm>>) -> Substrate {
        let mut out = Substrate::default();
        for vm in vms {
            let c = vm.counters().snapshot();
            let t = &mut out.counters;
            t.threads_created += c.threads_created;
            t.tcbs_allocated += c.tcbs_allocated;
            t.stacks_recycled += c.stacks_recycled;
            t.steals += c.steals;
            t.context_switches += c.context_switches;
            t.preemptions += c.preemptions;
            t.blocks += c.blocks;
            t.wakeups += c.wakeups;
            t.migrations += c.migrations;
            t.handoffs += c.handoffs;
            t.routed_ops += c.routed_ops;
            t.determinations += c.determinations;
            let m = vm.metrics().snapshot();
            out.dispatch.merge(&m.dispatch);
            out.wake.merge(&m.wake);
            out.gc_pause.merge(&m.gc_pause);
            let io = vm.io_driver().stats();
            out.io_syscalls += io.syscalls;
            out.io_wakes += io.wakes;
        }
        out
    }

    /// The activity between `earlier` and `self`.
    pub fn since(&self, earlier: &Substrate) -> Substrate {
        Substrate {
            counters: self.counters.since(&earlier.counters),
            dispatch: hist_since(&self.dispatch, &earlier.dispatch),
            wake: hist_since(&self.wake, &earlier.wake),
            gc_pause: hist_since(&self.gc_pause, &earlier.gc_pause),
            io_syscalls: self.io_syscalls - earlier.io_syscalls,
            io_wakes: self.io_wakes - earlier.io_wakes,
        }
    }
}

/// Bucket-wise difference of two cumulative histogram snapshots.  The
/// extremes of the interval are not recoverable, so they are left open
/// and percentiles read bucket midpoints.
fn hist_since(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for (i, b) in out.buckets.iter_mut().enumerate() {
        *b = later.buckets[i].saturating_sub(earlier.buckets[i]);
    }
    out.count = out.buckets.iter().sum();
    out.sum = later.sum.saturating_sub(earlier.sum);
    out.max = u64::MAX;
    out
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
