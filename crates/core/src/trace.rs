//! The scheduler flight recorder: per-VP event tracing.
//!
//! Every virtual processor owns a fixed-capacity ring of timestamped
//! [`TraceEvent`]s; the hot scheduler paths record into it through the
//! [`trace_event!`](crate::trace_event) macro, which compiles down to one relaxed atomic load
//! when tracing is disabled.  A final ring collects events recorded off any
//! VP (e.g. forks from the host thread).
//!
//! Recording is lock-free: a writer claims a slot with a `fetch_add` ticket
//! on the ring head, fills the slot's fields, and publishes the ticket into
//! the slot's sequence word with `Release` ordering.  Readers
//! ([`Tracer::snapshot`]) accept a slot only when its sequence matches the
//! ticket the head implies, so a half-written or since-overwritten slot is
//! skipped rather than surfaced torn.  When the ring wraps, the oldest
//! events are overwritten — the recorder keeps the most recent window,
//! which is what post-mortem debugging wants.
//!
//! Two exporters render a snapshot: [`chrome_json`] emits the
//! `chrome://tracing` / Perfetto JSON array format (VPs appear as rows,
//! thread dispatch/switch pairs as spans, everything else as instant
//! events), and [`text_dump`] renders a human-readable log.

// Under `--cfg sting_check` the atomics are the model checker's shims, so
// the ring's publish protocol is explored against the production source
// (see crates/core/tests/model.rs).
#[cfg(not(sting_check))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
#[cfg(sting_check)]
use sting_check::atomic::{AtomicBool, AtomicU64, Ordering};

/// What happened.  The discriminants are stable u8s because events are
/// packed into atomic words in the ring slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A thread object was created (fork / spawn).
    Fork = 0,
    /// A thread was handed to a policy manager queue; payload `a` is the
    /// [`EnqueueState`](crate::pm::EnqueueState) discriminant, `b` the
    /// chosen VP.
    Enqueue = 1,
    /// A VP picked a thread and is about to run it; payload `a` is 1 when
    /// the dispatch resumed a parked TCB, 0 for a fresh thunk.
    Dispatch = 2,
    /// The running thread left the VP; payload `a` is the disposition
    /// (0 yield, 1 preempted-yield, 2 blocked, 3 suspended, 4 returned).
    Switch = 3,
    /// A delayed thread's thunk was absorbed by a toucher (thread
    /// stealing, §4.1.1 of the paper); payload `a` is the steal depth.
    Steal = 4,
    /// The running thread blocked; payload `a` identifies the blocker kind.
    Block = 5,
    /// A blocked thread became runnable again.
    Unblock = 6,
    /// The running thread was suspended.
    Suspend = 7,
    /// A suspended thread was resumed.
    Resume = 8,
    /// A checkpoint preempted the running thread: its slice deadline had
    /// passed.
    Preempt = 9,
    /// A thread migrated between VPs; payload `a` is the victim VP,
    /// `b` the thief VP.
    Migrate = 10,
    /// A thread reached a final value (or exception); payload `a` is 1 for
    /// an exceptional determination.
    Determine = 11,
    /// An asynchronous state request was honoured; payload `a` is the
    /// request discriminant.
    StateRequest = 12,
    /// A timed park's deadline fired before a wake-up: the wait episode
    /// was consumed as a timeout.  Payload `b` is the episode generation
    /// (low 32 bits).
    BlockTimeout = 13,
    /// A blocked thread's wait episode was cancelled; payload `a` is the
    /// origin (0 terminate/raise request, 1 park unwind, 2 leaked at
    /// determine — a protocol violation the audit flags), `b` the episode
    /// generation (low 32 bits).
    WaiterCancelled = 14,
    /// A thread registered with the I/O reactor and is parking on fd
    /// readiness; payload `a` is the fd, `b` the interest mask (see
    /// [`crate::reactor`]).
    IoWait = 15,
    /// The reactor driver delivered fd readiness as a claimed wake-up;
    /// payload `a` is the fd, `b` the readiness mask.
    IoReady = 16,
    /// The running thread acquired a mutex; payload `a` is the mutex id.
    /// Together with [`EventKind::LockRelease`] this reconstructs each
    /// thread's lock-nesting order, which the audit cross-checks against
    /// the static analyzer's lock-order graph.
    LockAcquire = 17,
    /// The running thread released a mutex; payload `a` is the mutex id.
    LockRelease = 18,
    /// A ready thread was handed off between VM shards over the fleet
    /// mailbox fabric; payload `a` is the source shard, `b` the
    /// destination shard.  Recorded on the source shard at the moment the
    /// item leaves its queues; the destination's own [`EventKind::Enqueue`]
    /// re-publishes it, so the audit treats a handoff as consuming one
    /// pending enqueue (like a dispatch) rather than as a steal.
    Handoff = 19,
    /// The I/O driver's reactor backend failed fatally (`Reactor::wait`
    /// errored); payload `a` is the raw errno.  Recorded once, as the
    /// driver loop exits and drains its registry — every parked I/O
    /// thread is spuriously woken rather than left hanging.
    IoError = 20,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            0 => Fork,
            1 => Enqueue,
            2 => Dispatch,
            3 => Switch,
            4 => Steal,
            5 => Block,
            6 => Unblock,
            7 => Suspend,
            8 => Resume,
            9 => Preempt,
            10 => Migrate,
            11 => Determine,
            12 => StateRequest,
            13 => BlockTimeout,
            14 => WaiterCancelled,
            15 => IoWait,
            16 => IoReady,
            17 => LockAcquire,
            18 => LockRelease,
            19 => Handoff,
            20 => IoError,
            _ => return None,
        })
    }

    /// Short lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            Fork => "fork",
            Enqueue => "enqueue",
            Dispatch => "dispatch",
            Switch => "switch",
            Steal => "steal",
            Block => "block",
            Unblock => "unblock",
            Suspend => "suspend",
            Resume => "resume",
            Preempt => "preempt",
            Migrate => "migrate",
            Determine => "determine",
            StateRequest => "state-request",
            BlockTimeout => "block-timeout",
            WaiterCancelled => "waiter-cancelled",
            IoWait => "io-wait",
            IoReady => "io-ready",
            LockAcquire => "lock-acquire",
            LockRelease => "lock-release",
            Handoff => "handoff",
            IoError => "io-error",
        }
    }
}

/// One recorded scheduler event, as read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer was created.
    pub ts_ns: u64,
    /// Ring (VP index, or [`Tracer::external_lane`] for off-VP events) the
    /// event was recorded on.
    pub vp: u32,
    /// What happened.
    pub kind: EventKind,
    /// The thread involved (`ThreadId.0`), 0 when not applicable.
    pub thread: u64,
    /// Event-specific payload (see [`EventKind`] docs).
    pub a: u32,
    /// Second event-specific payload word.
    pub b: u32,
    /// Lamport logical clock at the moment of recording.  Within one
    /// tracer the clock is a strictly increasing counter; across tracers
    /// it is advanced by [`Tracer::witness`] whenever a cross-shard
    /// message arrives, so causally related events on different shards
    /// always compare in cause-before-effect order.  Merged snapshots
    /// sort by `(lc, ts_ns)`, which makes the ordering stable under
    /// per-shard clock drift.
    pub lc: u64,
}

/// One ring slot: a sequence word plus the packed event fields.
///
/// `seq` holds `ticket + 1` of the event occupying the slot (0 = never
/// written).  It is stored `Release` *after* the payload words, so a reader
/// that observes the expected sequence with `Acquire` sees a fully written
/// event of the expected generation.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    /// kind (low 8 bits) | vp (next 24 bits) | reserved.
    meta: AtomicU64,
    thread: AtomicU64,
    /// a (low 32 bits) | b (high 32 bits).
    aux: AtomicU64,
    /// Lamport clock value.
    lc: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            thread: AtomicU64::new(0),
            aux: AtomicU64::new(0),
            lc: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity multi-writer ring of events.
struct Ring {
    /// Total events ever recorded here; slot index is `ticket % capacity`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(&self, ts_ns: u64, vp: u32, kind: EventKind, thread: u64, a: u32, b: u32, lc: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Invalidate the slot first so a concurrent reader can't match the
        // *previous* generation against half-new payload words.
        slot.seq.store(0, Ordering::Release);
        // The payload stores are Release and the reader's payload loads are
        // Acquire: a reader that observes any new-generation payload word is
        // then guaranteed to also observe the seq=0 invalidation (or the new
        // ticket) on its re-check, so a mixed-generation record can never
        // validate.  With Relaxed payload accesses the re-check could read
        // the *old* seq value even after reading new payload words — a torn
        // record accepted as valid (exhibited by the sting-check seqlock
        // litmus test; see crates/check/tests/litmus.rs).
        slot.ts.store(ts_ns, Ordering::Release);
        slot.meta
            .store(kind as u64 | ((vp as u64) << 8), Ordering::Release);
        slot.thread.store(thread, Ordering::Release);
        slot.aux
            .store(a as u64 | ((b as u64) << 32), Ordering::Release);
        slot.lc.store(lc, Ordering::Release);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Copies out every event still resident, oldest first.  Slots being
    /// concurrently rewritten are skipped.
    fn drain_into(&self, out: &mut Vec<TraceEvent>, lane: u32) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        for ticket in start..head {
            let slot = &self.slots[(ticket % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue; // torn or already overwritten
            }
            // Acquire pairs with the Release payload stores in `record`: if
            // any word here came from a newer generation, the writer's
            // seq=0 invalidation is forced into view for the re-check below.
            let ts = slot.ts.load(Ordering::Acquire);
            let meta = slot.meta.load(Ordering::Acquire);
            let thread = slot.thread.load(Ordering::Acquire);
            let aux = slot.aux.load(Ordering::Acquire);
            let lc = slot.lc.load(Ordering::Acquire);
            // Re-check the sequence: if it changed, a writer lapped us and
            // the words above may mix generations.
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue;
            }
            let Some(kind) = EventKind::from_u8((meta & 0xff) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                ts_ns: ts,
                vp: lane,
                kind,
                thread,
                a: (aux & 0xffff_ffff) as u32,
                b: (aux >> 32) as u32,
                lc,
            });
        }
    }

    fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn truncated(&self) -> bool {
        self.head.load(Ordering::Relaxed) > self.slots.len() as u64
    }
}

/// Default per-VP ring capacity (events), chosen so a trace of a busy VP
/// covers a few scheduling quanta without growing unbounded.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

/// The per-VM flight recorder: one ring per VP plus an external lane.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    rings: Box<[Ring]>,
    /// Lamport logical clock: bumped on every record, advanced past a
    /// remote peer's clock by [`Tracer::witness`] when a cross-shard
    /// message is received.
    clock: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("lanes", &self.rings.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer with `vps + 1` lanes of `capacity` events each
    /// (the extra lane collects events recorded off any VP).
    pub fn new(vps: usize, capacity: usize, enabled: bool) -> Tracer {
        let capacity = capacity.max(2);
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            rings: (0..=vps).map(|_| Ring::new(capacity)).collect(),
            clock: AtomicU64::new(0),
        }
    }

    /// Whether recording is on.  This is the only cost tracing adds to the
    /// scheduler hot paths while disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.  Events already recorded are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Lane index used for events recorded outside any VP.
    pub fn external_lane(&self) -> u32 {
        (self.rings.len() - 1) as u32
    }

    /// Records an event on `vp`'s lane (or the external lane when `None`).
    ///
    /// Callers normally go through [`trace_event!`](crate::trace_event), which checks
    /// [`Tracer::is_enabled`] first; `record` itself rechecks so direct
    /// calls stay correct.
    pub fn record(&self, vp: Option<usize>, kind: EventKind, thread: u64, a: u32, b: u32) {
        if !self.is_enabled() {
            return;
        }
        let lane = match vp {
            Some(i) if i < self.rings.len() - 1 => i,
            _ => self.rings.len() - 1,
        };
        let ts = self.epoch.elapsed().as_nanos() as u64;
        let lc = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.rings[lane].record(ts, lane as u32, kind, thread, a, b, lc);
    }

    /// Current Lamport clock value.  A cross-shard sender reads this after
    /// recording its send-side event and ships the value with the message.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the clock past a remote peer's value (`max(local, seen)`),
    /// so every event the receiver records after draining the message is
    /// logically later than everything the sender recorded before posting
    /// it.  The merge sort in [`crate::fleet::Fleet::merged_snapshot`]
    /// depends on exactly this invariant.
    pub fn witness(&self, seen: u64) {
        let mut cur = self.clock.load(Ordering::Relaxed);
        while cur < seen {
            match self
                .clock
                .compare_exchange_weak(cur, seen, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Total events recorded since creation (including any the rings have
    /// since overwritten).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(Ring::recorded).sum()
    }

    /// Whether any lane has wrapped, i.e. a [`Tracer::snapshot`] is missing
    /// the oldest events.  Trace consumers that reason about event *absence*
    /// (notably [`audit`](crate::audit)) should soften their conclusions
    /// when this is true.
    pub fn truncated(&self) -> bool {
        self.rings.iter().any(Ring::truncated)
    }

    /// Copies out all resident events, merged across lanes and sorted by
    /// logical clock (timestamp as the tiebreaker).  Safe to call while
    /// the VM is running (a best-effort snapshot) or after it drains
    /// (exact).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (lane, ring) in self.rings.iter().enumerate() {
            ring.drain_into(&mut out, lane as u32);
        }
        sort_events(&mut out);
        out
    }

    /// Number of lanes (VP rings plus the external lane).
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }
}

/// Sorts events into merge-stable replay order: Lamport clock first (the
/// cross-shard causal order), timestamp as the within-clock tiebreaker.
/// Fleet-wide merges concatenate per-shard snapshots and re-sort with this
/// same key, so a merged trace and a single-shard trace replay under
/// identical rules.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.lc, e.ts_ns));
}

/// Renders events in the `chrome://tracing` JSON array format (also
/// readable by Perfetto's legacy loader).
///
/// Each VP lane becomes a `tid` row under one `pid`; [`EventKind::Dispatch`]
/// / [`EventKind::Switch`] pairs become duration (`B`/`E`) spans named after
/// the thread, everything else becomes an instant (`i`) event carrying its
/// payload in `args`.
pub fn chrome_json(vm_name: &str, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push('[');
    // Process + lane metadata so the viewer shows names instead of ids.
    push_json_event(
        &mut out,
        &format!(
            r#"{{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{{"name":"sting vm {}"}}}}"#,
            escape_json(vm_name)
        ),
    );
    let lanes: std::collections::BTreeSet<u32> = events.iter().map(|e| e.vp).collect();
    let external = lanes.iter().max().copied().unwrap_or(0);
    for lane in &lanes {
        let label = if !events.is_empty() && *lane == external && lanes.len() > 1 {
            "external".to_string()
        } else {
            format!("vp {lane}")
        };
        push_json_event(
            &mut out,
            &format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{lane},"args":{{"name":"{label}"}}}}"#
            ),
        );
    }
    for e in events {
        let us = e.ts_ns as f64 / 1000.0;
        let frag = match e.kind {
            EventKind::Dispatch => format!(
                r#"{{"name":"run t{}","cat":"sched","ph":"B","ts":{us:.3},"pid":1,"tid":{},"args":{{"thread":{},"parked":{}}}}}"#,
                e.thread, e.vp, e.thread, e.a
            ),
            EventKind::Switch => format!(
                r#"{{"name":"run t{}","cat":"sched","ph":"E","ts":{us:.3},"pid":1,"tid":{},"args":{{"thread":{},"disposition":"{}"}}}}"#,
                e.thread,
                e.vp,
                e.thread,
                switch_disposition(e.a)
            ),
            _ => format!(
                r#"{{"name":"{} t{}","cat":"sched","ph":"i","s":"t","ts":{us:.3},"pid":1,"tid":{},"args":{{"thread":{},"a":{},"b":{}}}}}"#,
                e.kind.name(),
                e.thread,
                e.vp,
                e.thread,
                e.a,
                e.b
            ),
        };
        push_json_event(&mut out, &frag);
    }
    out.push(']');
    out
}

/// Renders events as a human-readable log, one line per event.
pub fn text_dump(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for e in events {
        let us = e.ts_ns / 1000;
        let detail = match e.kind {
            EventKind::Switch => format!(" ({})", switch_disposition(e.a)),
            EventKind::Migrate => format!(" (vp{} -> vp{})", e.a, e.b),
            EventKind::Handoff => format!(" (shard{} -> shard{})", e.a, e.b),
            EventKind::Steal => format!(" (depth {})", e.a),
            EventKind::Enqueue => format!(" (state {}, vp {})", e.a, e.b),
            EventKind::BlockTimeout => format!(" (gen {})", e.b),
            EventKind::WaiterCancelled => format!(" ({}, gen {})", cancel_origin(e.a), e.b),
            EventKind::IoError => format!(" (errno {})", e.a),
            EventKind::IoWait | EventKind::IoReady => {
                format!(" (fd {}, mask {:#b})", e.a, e.b)
            }
            EventKind::Unblock if e.b != 0 => format!(" (vp {}, claimed gen {})", e.a, e.b),
            EventKind::LockAcquire | EventKind::LockRelease => format!(" (mutex {})", e.a),
            _ if e.a != 0 || e.b != 0 => format!(" (a={}, b={})", e.a, e.b),
            _ => String::new(),
        };
        out.push_str(&format!(
            "[{:>10}us vp{:<2}] {:<13} t{}{}\n",
            us,
            e.vp,
            e.kind.name(),
            e.thread,
            detail
        ));
    }
    out
}

fn cancel_origin(a: u32) -> &'static str {
    match a {
        0 => "state request",
        1 => "park unwind",
        2 => "leaked at determine",
        _ => "unknown",
    }
}

fn switch_disposition(a: u32) -> &'static str {
    match a {
        0 => "yielded",
        1 => "preempted",
        2 => "blocked",
        3 => "suspended",
        4 => "returned",
        _ => "unknown",
    }
}

fn push_json_event(out: &mut String, frag: &str) {
    if out.len() > 1 {
        out.push(',');
        out.push('\n');
    }
    out.push_str(frag);
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Records a scheduler event through a [`Tracer`], costing one relaxed
/// atomic load when tracing is disabled.
///
/// The first operand is any expression yielding `&Tracer`; the second is
/// the recording VP (`Option<usize>`); then the [`EventKind`], the thread
/// id (`u64`), and optionally the two payload words.
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $vp:expr, $kind:expr, $thread:expr) => {
        $crate::trace_event!($tracer, $vp, $kind, $thread, 0, 0)
    };
    ($tracer:expr, $vp:expr, $kind:expr, $thread:expr, $a:expr) => {
        $crate::trace_event!($tracer, $vp, $kind, $thread, $a, 0)
    };
    ($tracer:expr, $vp:expr, $kind:expr, $thread:expr, $a:expr, $b:expr) => {{
        let tracer: &$crate::trace::Tracer = $tracer;
        if tracer.is_enabled() {
            tracer.record($vp, $kind, $thread, $a as u32, $b as u32);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let t = Tracer::new(2, 64, true);
        t.record(Some(0), EventKind::Fork, 1, 0, 0);
        t.record(Some(1), EventKind::Dispatch, 1, 0, 0);
        t.record(None, EventKind::Determine, 1, 0, 0);
        let events = t.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(events.iter().filter(|e| e.vp == 2).count(), 1); // external lane
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(1, 64, false);
        t.record(Some(0), EventKind::Fork, 1, 0, 0);
        trace_event!(&t, Some(0), EventKind::Steal, 7, 3);
        assert_eq!(t.recorded(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let t = Tracer::new(1, 16, true);
        for i in 0..100u64 {
            t.record(Some(0), EventKind::Enqueue, i, 0, 0);
        }
        let events = t.snapshot();
        assert_eq!(events.len(), 16);
        let ids: Vec<u64> = events.iter().map(|e| e.thread).collect();
        assert_eq!(ids, (84..100).collect::<Vec<u64>>());
        assert_eq!(t.recorded(), 100);
    }

    #[test]
    fn payload_words_round_trip() {
        let t = Tracer::new(4, 64, true);
        t.record(Some(3), EventKind::Migrate, 42, 3, 1);
        let events = t.snapshot();
        assert_eq!(
            events,
            vec![TraceEvent {
                ts_ns: events[0].ts_ns,
                vp: 3,
                kind: EventKind::Migrate,
                thread: 42,
                a: 3,
                b: 1,
                lc: 1,
            }]
        );
    }

    #[test]
    fn lamport_clock_is_strictly_increasing_and_witnessable() {
        let a = Tracer::new(1, 64, true);
        let b = Tracer::new(1, 64, true);
        a.record(Some(0), EventKind::Fork, 1, 0, 0);
        a.record(Some(0), EventKind::Enqueue, 1, 0, 0);
        // Simulate a cross-shard message: b witnesses a's clock, so b's
        // next event sorts after everything a recorded before the send.
        b.witness(a.clock());
        b.record(Some(0), EventKind::Enqueue, 1, 0, 0);
        let ea = a.snapshot();
        let eb = b.snapshot();
        assert_eq!(ea.iter().map(|e| e.lc).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(eb[0].lc, 3);
        // A stale witness never moves the clock backwards.
        a.witness(0);
        assert_eq!(a.clock(), 2);
        // Merged order is cause-before-effect regardless of wall clocks.
        let mut merged = [ea, eb].concat();
        sort_events(&mut merged);
        assert_eq!(merged.last().unwrap().lc, 3);
    }

    #[test]
    fn out_of_range_vp_goes_to_external_lane() {
        let t = Tracer::new(2, 64, true);
        t.record(Some(99), EventKind::Fork, 1, 0, 0);
        assert_eq!(t.snapshot()[0].vp, t.external_lane());
    }

    #[test]
    fn chrome_export_shape() {
        let t = Tracer::new(1, 64, true);
        t.record(Some(0), EventKind::Dispatch, 5, 0, 0);
        t.record(Some(0), EventKind::Steal, 6, 2, 0);
        t.record(Some(0), EventKind::Switch, 5, 4, 0);
        let json = chrome_json("test", &t.snapshot());
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""name":"steal t6""#));
    }

    #[test]
    fn text_dump_mentions_each_event() {
        let t = Tracer::new(1, 64, true);
        t.record(Some(0), EventKind::Migrate, 9, 0, 1);
        let dump = text_dump(&t.snapshot());
        assert!(dump.contains("migrate"));
        assert!(dump.contains("t9"));
        assert!(dump.contains("vp0 -> vp1"));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = std::sync::Arc::new(Tracer::new(1, 128, true));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    t.record(Some(0), EventKind::Enqueue, w * 10_000 + i, 0, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.recorded(), 4000);
        // Every surfaced event must be coherent (valid kind, sane id).
        for e in t.snapshot() {
            assert_eq!(e.kind, EventKind::Enqueue);
            assert!(e.thread % 10_000 < 1000);
        }
    }
}
