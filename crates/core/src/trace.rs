//! The scheduler flight recorder: one event ring per stats lane.
//!
//! Every lane of a machine (see [`crate::stats`]) owns a fixed-capacity
//! [`Ring`] of timestamped [`TraceEvent`]s; [`Vm::note`](crate::Vm::note)
//! records into the lane's ring when tracing is on, and
//! [`Tracer::snapshot`](crate::Tracer::snapshot) reads every ring back.
//!
//! Recording is lock-free: a writer claims a slot with a `fetch_add` ticket
//! on the ring head, fills the slot's fields, and publishes the ticket into
//! the slot's sequence word with `Release` ordering.  Readers accept a slot
//! only when its sequence matches the ticket the head implies, so a
//! half-written or since-overwritten slot is skipped rather than surfaced
//! torn.  When the ring wraps, the oldest events are overwritten — the
//! recorder keeps the most recent window, which is what post-mortem
//! debugging wants.
//!
//! Two exporters render a snapshot: [`chrome_json`] emits the
//! `chrome://tracing` / Perfetto JSON array format (VPs appear as rows,
//! thread dispatch/switch pairs as spans, everything else as instant
//! events), and [`text_dump`] renders a human-readable log.

// Under `--cfg sting_check` the atomics are the model checker's shims, so
// the ring's publish protocol is explored against the production source
// (see crates/core/tests/model.rs).
#[cfg(not(sting_check))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(sting_check)]
use sting_check::atomic::{AtomicU64, Ordering};

use crate::stats::RECORD;
use crate::vm::Vm;

/// What happened.  The discriminants are stable u8s because events are
/// packed into atomic words in the ring slots.  Each kind is recorded by
/// the substrate; a block or a suspension shows as the [`EventKind::Switch`]
/// that parks the thread (disposition 2 or 3) and its wake-up as an
/// [`EventKind::Unblock`].
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
    /// A blocked or suspended thread became runnable again; payload `a` is
    /// the VP it goes to, `b` the wait-episode generation its wake-up
    /// claimed (low 32 bits; 0 for a plain wake-up).
    Unblock = 6,
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
    /// The I/O driver's reactor backend failed fatally (`Reactor::poll`
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
            6 => Unblock,
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
            Unblock => "unblock",
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
    /// Nanoseconds since the machine's stats epoch.
    pub ts_ns: u64,
    /// Lane the event was recorded on: a VP index, or the last lane for
    /// events off any VP (the external lane).
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
    /// machine the clock is a strictly increasing counter; across machines
    /// it is advanced by [`Tracer::witness`](crate::Tracer::witness) whenever a cross-shard
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

/// A fixed-capacity multi-writer ring of events: one lane's flight
/// recorder.
pub struct Ring {
    /// Total events ever recorded here; slot index is `ticket % capacity`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    /// A ring of `capacity` slots.
    pub fn new(capacity: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    /// Records one event, overwriting the oldest once the ring is full.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        ts_ns: u64,
        vp: u32,
        kind: EventKind,
        thread: u64,
        a: u32,
        b: u32,
        lc: u64,
    ) {
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

    /// Copies out every event still resident, oldest first, as recorded
    /// on `lane`.  Slots being concurrently rewritten are skipped.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>, lane: u32) {
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

    /// Events recorded since creation, overwritten ones included.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Whether the ring has wrapped: its oldest events are gone.
    pub fn truncated(&self) -> bool {
        self.head.load(Ordering::Relaxed) > self.slots.len() as u64
    }
}

/// Default per-VP ring capacity (events), chosen so a trace of a busy VP
/// covers a few scheduling quanta without growing unbounded.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

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

/// A read view of a machine's flight recorder: one event ring per lane
/// (see [`crate::trace`]).
#[derive(Debug, Clone, Copy)]
pub struct Tracer<'a>(pub(crate) &'a Vm);

impl Tracer<'_> {
    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.stats().on() & RECORD != 0
    }

    /// Turns recording on or off.  Events already recorded are kept.
    pub fn set_enabled(&self, on: bool) {
        self.0.stats().set(RECORD, on);
    }

    /// Current Lamport clock value.  A cross-shard sender reads this after
    /// recording its send-side event and ships the value with the message.
    pub fn clock(&self) -> u64 {
        self.0.stats().clock()
    }

    /// Advances the clock past a remote peer's value (`max(local, seen)`),
    /// so every event the receiver records after draining the message is
    /// logically later than everything the sender recorded before posting
    /// it.  The merge sort in [`crate::fleet::Fleet::merged_snapshot`]
    /// depends on exactly this invariant.
    pub fn witness(&self, seen: u64) {
        self.0.stats().witness(seen);
    }

    /// Total events recorded since creation (including any the rings have
    /// since overwritten).
    pub fn recorded(&self) -> u64 {
        self.0.lanes_stats().map(|l| l.ring.recorded()).sum()
    }

    /// Whether any lane has wrapped, i.e. a [`Tracer::snapshot`] is missing
    /// the oldest events.  Trace consumers that reason about event *absence*
    /// (notably [`audit`](crate::audit)) should soften their conclusions
    /// when this is true.
    pub fn truncated(&self) -> bool {
        self.0.lanes_stats().any(|l| l.ring.truncated())
    }

    /// Copies out all resident events, merged across lanes and sorted by
    /// logical clock (timestamp as the tiebreaker).  Safe to call while
    /// the VM is running (a best-effort snapshot) or after it drains
    /// (exact).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (lane, stats) in self.0.lanes_stats().enumerate() {
            stats.ring.drain_into(&mut out, lane as u32);
        }
        sort_events(&mut out);
        out
    }

    /// Number of lanes: one per VP, then the external lane.
    pub fn lanes(&self) -> usize {
        self.0.vp_count() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(ring: &Ring) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        ring.drain_into(&mut out, 0);
        out
    }

    fn event(kind: EventKind, thread: u64, a: u32, b: u32) -> TraceEvent {
        TraceEvent {
            ts_ns: 1_000,
            vp: 0,
            kind,
            thread,
            a,
            b,
            lc: 1,
        }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = Ring::new(64);
        ring.record(10, 0, EventKind::Fork, 1, 0, 0, 1);
        ring.record(20, 0, EventKind::Dispatch, 1, 0, 0, 2);
        ring.record(30, 0, EventKind::Determine, 1, 0, 0, 3);
        let events = drained(&ring);
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(!ring.truncated());
    }

    fn vm(vps: usize, trace: bool) -> std::sync::Arc<Vm> {
        crate::VmBuilder::new()
            .vps(vps)
            .processors(1)
            .trace(trace)
            .build()
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds a VM")]
    fn disabled_tracer_records_nothing() {
        let vm = vm(1, false);
        let before = vm.counters().snapshot();
        vm.note_id(Some(0), EventKind::Steal, 7, 3, 0);
        assert_eq!(vm.tracer().recorded(), 0);
        assert!(vm.tracer().snapshot().is_empty());
        // The note still counted.
        assert_eq!(vm.counters().snapshot().since(&before).steals, 1);
        vm.shutdown();
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds a VM")]
    fn out_of_range_vp_goes_to_external_lane() {
        let vm = vm(2, true);
        vm.note_id(Some(99), EventKind::IoError, u64::MAX, 0, 0);
        let events = vm.tracer().snapshot();
        let e = events.iter().find(|e| e.kind == EventKind::IoError);
        assert_eq!(e.unwrap().vp as usize, vm.tracer().lanes() - 1);
        vm.shutdown();
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds a VM")]
    fn lamport_clock_is_strictly_increasing_and_witnessable() {
        let (a, b) = (vm(1, true), vm(1, true));
        let kind = EventKind::StateRequest;
        a.note_id(None, kind, 1, 0, 0);
        a.note_id(None, kind, 1, 0, 0);
        // Simulate a cross-shard message: b witnesses a's clock, so b's
        // next event sorts after everything a recorded before the send.
        b.tracer().witness(a.tracer().clock());
        b.note_id(None, kind, 1, 0, 0);
        let (ea, eb) = (a.tracer().snapshot(), b.tracer().snapshot());
        assert_eq!(ea.iter().map(|e| e.lc).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(eb[0].lc, 3);
        // A stale witness never moves the clock backwards.
        a.tracer().witness(0);
        assert_eq!(a.tracer().clock(), 2);
        // Merged order is cause-before-effect regardless of wall clocks.
        let mut merged = [ea, eb].concat();
        sort_events(&mut merged);
        assert_eq!(merged.last().unwrap().lc, 3);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let ring = Ring::new(16);
        for i in 0..100u64 {
            ring.record(i, 0, EventKind::Enqueue, i, 0, 0, i + 1);
        }
        let events = drained(&ring);
        assert_eq!(events.len(), 16);
        let ids: Vec<u64> = events.iter().map(|e| e.thread).collect();
        assert_eq!(ids, (84..100).collect::<Vec<u64>>());
        assert_eq!(ring.recorded(), 100);
        assert!(ring.truncated());
    }

    #[test]
    fn payload_words_round_trip() {
        let ring = Ring::new(64);
        ring.record(5, 3, EventKind::Migrate, 42, 3, 1, 7);
        let mut events = Vec::new();
        ring.drain_into(&mut events, 3);
        assert_eq!(
            events,
            vec![TraceEvent {
                ts_ns: 5,
                vp: 3,
                kind: EventKind::Migrate,
                thread: 42,
                a: 3,
                b: 1,
                lc: 7,
            }]
        );
    }

    #[test]
    fn sort_is_by_clock_then_time() {
        let mut events = vec![
            TraceEvent {
                lc: 3,
                ..event(EventKind::Fork, 1, 0, 0)
            },
            TraceEvent {
                lc: 2,
                ts_ns: 9_000,
                ..event(EventKind::Fork, 2, 0, 0)
            },
            TraceEvent {
                lc: 2,
                ..event(EventKind::Fork, 3, 0, 0)
            },
        ];
        sort_events(&mut events);
        let ids: Vec<u64> = events.iter().map(|e| e.thread).collect();
        assert_eq!(ids, [3, 2, 1]);
    }

    #[test]
    fn chrome_export_shape() {
        let events = [
            event(EventKind::Dispatch, 5, 0, 0),
            event(EventKind::Steal, 6, 2, 0),
            event(EventKind::Switch, 5, 4, 0),
        ];
        let json = chrome_json("test", &events);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""name":"steal t6""#));
    }

    #[test]
    fn text_dump_mentions_each_event() {
        let dump = text_dump(&[event(EventKind::Migrate, 9, 0, 1)]);
        assert!(dump.contains("migrate"));
        assert!(dump.contains("t9"));
        assert!(dump.contains("vp0 -> vp1"));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let ring = std::sync::Arc::new(Ring::new(128));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let ring = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    ring.record(i, 0, EventKind::Enqueue, w * 10_000 + i, 0, 0, i + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 4000);
        // Every surfaced event must be coherent (valid kind, sane id).
        for e in drained(&ring) {
            assert_eq!(e.kind, EventKind::Enqueue);
            assert!(e.thread % 10_000 < 1000);
        }
    }
}
