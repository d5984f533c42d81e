//! Trace invariant linter: replays a flight-recorder event stream (see
//! [`crate::trace`]) and flags scheduler protocol violations.
//!
//! The scheduler's correctness argument (DESIGN.md, "Scheduler fast path")
//! reduces to a handful of linear-time-checkable invariants over the event
//! stream: a TCB runs on at most one VP at a time, determination is final,
//! work is stolen only after it was published, and published work is
//! eventually dispatched.  [`audit`] checks all four over a
//! [`Tracer::snapshot`](crate::trace::Tracer::snapshot); [`Vm::trace_audit`](crate::vm::Vm::trace_audit)
//! wires it to a live machine, and debug builds run it automatically at
//! [`Vm::shutdown`](crate::vm::Vm::shutdown).
//!
//! The replay keeps a vector clock per thread — its last-observed event
//! index on every tracer lane — which each [`Finding`] carries so a report
//! pinpoints *which* cross-lane ordering went wrong, not just which thread.
//!
//! ## Multi-ring (fleet) input
//!
//! The stream need not come from a single tracer: a fleet merge
//! concatenates every shard's rings (lanes remapped to stay disjoint,
//! see [`Fleet::merged_snapshot`](crate::fleet::Fleet::merged_snapshot))
//! and re-sorts by [`sort_events`](crate::trace::sort_events) order —
//! Lamport clock first, timestamp as tiebreaker.  The per-thread checks
//! stay sound on such interleaved input because (a) thread ids are unique
//! fleet-wide, (b) each shard's clock is strictly increasing so within-lane
//! order survives the merge, and (c) the mailbox fabric witnesses the
//! sender's clock before the receiver records, so one thread's events
//! order cause-before-effect even across a shard handoff.  Lane indices
//! are taken as opaque: the replay sizes its clocks from the maximum lane
//! present rather than assuming one process's dense `0..=vps` lane set.
//!
//! ## Soundness under partial traces
//!
//! Rings overwrite their oldest events when full, and tracing can be
//! enabled mid-run, so the stream may be a suffix of history.  Checks that
//! would misfire on a missing prefix are gated: per-lane rings drop oldest
//! first and a dispatch and its matching switch share a lane, so
//! [double dispatch](FindingKind::DoubleDispatch) and
//! [dispatch-after-determine](FindingKind::DispatchAfterDetermine) stay
//! sound, while [steal-without-enqueue](FindingKind::StealWithoutEnqueue)
//! and [lost wakeups](FindingKind::LostWakeup) are reported only for
//! threads whose `Fork` is in the stream and only when no ring was lapped.

use crate::trace::{EventKind, TraceEvent};
use std::collections::HashMap;
use std::fmt;

/// A scheduler invariant violation found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant broke.
    pub kind: FindingKind,
    /// The thread involved.
    pub thread: u64,
    /// Timestamp (ns since tracer epoch) of the offending event, or of the
    /// last relevant event for end-of-stream findings.
    pub ts_ns: u64,
    /// The thread's vector clock when flagged: for each tracer lane, how
    /// many events on that lane preceded the violation.
    pub clock: Vec<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] thread {} at {}ns: {} (lane clock {:?})",
            self.kind, self.thread, self.ts_ns, self.detail, self.clock
        )
    }
}

/// The invariant classes [`audit`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A thread was dispatched while already dispatched — two `Dispatch`
    /// events with no intervening `Switch` (yield/preempt/block/suspend/
    /// return).  One TCB running on two VPs corrupts its stack.
    DoubleDispatch,
    /// A thread was dispatched after its `Determine` event.  Determination
    /// is final (paper §2.2); the TCB was already recycled.
    DispatchAfterDetermine,
    /// A `Migrate` (deque steal) of a thread with no prior unconsumed
    /// `Enqueue`: the thief claimed work that was never published.
    StealWithoutEnqueue,
    /// A thread was enqueued but neither dispatched nor determined by the
    /// end of the stream: the wake-up was lost.  Only meaningful for a
    /// quiesced machine (e.g. after [`Vm::shutdown`](crate::vm::Vm::shutdown)
    /// drains, which determines everything still queued).
    LostWakeup,
    /// A claimed wake-up (`Unblock` carrying an episode generation) was
    /// delivered for a wait episode that had already been cancelled or
    /// timed out: the claim CAS was bypassed, so a structure woke a
    /// deregistered waiter.  Presence-based (a cancel followed by a
    /// claimed wake on the same generation), so it needs no truncation
    /// gating.
    WakeAfterCancel,
    /// A wait episode was still armed when its thread determined
    /// (`WaiterCancelled` with origin "leaked at determine"): some park
    /// path failed to deregister, so a structure may still count — or try
    /// to wake — a recycled thread.
    WaiterLeak,
    /// Two (or more) mutexes were acquired in a cyclic order across
    /// threads: the per-thread acquire-order graph rebuilt from
    /// `LockAcquire`/`LockRelease` events contains a cycle.  The observed
    /// run survived by luck of interleaving, but an adversarial schedule
    /// deadlocks.  Presence-based, so it needs no truncation gating: a
    /// missing prefix can only hide held locks and under-report edges,
    /// never fabricate one.
    LockOrderInversion,
}

/// The outcome of [`audit`]: the findings plus how much evidence they rest
/// on.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Invariant violations, in stream order.
    pub findings: Vec<Finding>,
    /// Number of events replayed.
    pub events: usize,
    /// Whether a ring had overwritten events (checks needing a complete
    /// history were skipped; see module docs).
    pub truncated: bool,
}

impl AuditReport {
    /// Whether the replay found no violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace audit: {} finding(s) over {} event(s){}",
            self.findings.len(),
            self.events,
            if self.truncated {
                " (truncated history: absence checks skipped)"
            } else {
                ""
            }
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Per-thread replay state.
#[derive(Default)]
struct ThreadAudit {
    /// `Fork` observed — the stream covers this thread's whole lifetime.
    forked: bool,
    /// Timestamp of the `Dispatch` that put it on a VP, while it is there.
    running_since: Option<u64>,
    /// Enqueues published but not yet consumed by a dispatch.
    pending_enqueues: u64,
    /// Target VP and timestamp of the most recent pending enqueue.
    last_enqueue: Option<(u32, u64)>,
    determined_at: Option<u64>,
    /// Wait-episode generations (low 32 bits) seen cancelled or timed
    /// out; a later claimed wake-up on one of them is a violation.
    dead_episodes: std::collections::HashSet<u32>,
    /// Mutex ids this thread currently holds (acquire order preserved).
    held_locks: Vec<u32>,
    /// Lane vector clock: events seen per lane up to this thread's last
    /// involvement.
    clock: Vec<u64>,
}

/// Replays `events` (which must be in [`sort_events`](crate::trace::sort_events)
/// order — Lamport clock then timestamp, as [`Tracer::snapshot`](crate::trace::Tracer::snapshot)
/// and fleet merges return them) and checks every [`FindingKind`]
/// invariant.  `truncated` is whether any ring was lapped (see
/// [`Tracer::truncated`](crate::trace::Tracer::truncated)); for merged
/// multi-shard input, pass the OR across every shard's tracer.  It gates
/// the checks that reason about event *absence*.
pub fn audit(events: &[TraceEvent], truncated: bool) -> AuditReport {
    let lanes = events.iter().map(|e| e.vp as usize + 1).max().unwrap_or(1);
    let mut lane_clock = vec![0u64; lanes];
    let mut threads: HashMap<u64, ThreadAudit> = HashMap::new();
    let mut findings = Vec::new();
    // Acquire-order edges: (held, acquired) -> first observation.
    let mut lock_edges: std::collections::BTreeMap<(u32, u32), (u64, u64, Vec<u64>)> =
        std::collections::BTreeMap::new();

    for e in events {
        lane_clock[e.vp as usize] += 1;
        if e.thread == 0 {
            continue; // Events that name no thread.
        }
        let st = threads.entry(e.thread).or_default();
        if st.clock.len() < lanes {
            st.clock.resize(lanes, 0);
        }
        st.clock.clone_from_slice(&lane_clock);
        match e.kind {
            EventKind::Fork => st.forked = true,
            EventKind::Enqueue => {
                st.pending_enqueues += 1;
                st.last_enqueue = Some((e.b, e.ts_ns));
            }
            EventKind::Dispatch => {
                if let Some(det_ts) = st.determined_at {
                    findings.push(Finding {
                        kind: FindingKind::DispatchAfterDetermine,
                        thread: e.thread,
                        ts_ns: e.ts_ns,
                        clock: st.clock.clone(),
                        detail: format!("dispatched on vp {} but determined at {det_ts}ns", e.vp),
                    });
                }
                if let Some(since) = st.running_since {
                    findings.push(Finding {
                        kind: FindingKind::DoubleDispatch,
                        thread: e.thread,
                        ts_ns: e.ts_ns,
                        clock: st.clock.clone(),
                        detail: format!(
                            "dispatched on vp {} while still dispatched since {since}ns \
                             (no intervening switch)",
                            e.vp
                        ),
                    });
                }
                st.running_since = Some(e.ts_ns);
                st.pending_enqueues = st.pending_enqueues.saturating_sub(1);
            }
            EventKind::Switch => st.running_since = None,
            EventKind::Migrate => {
                // A deque steal moves a published item between VPs; the
                // pending enqueue travels with it, so the count is not
                // consumed here.
                if st.pending_enqueues == 0 && st.forked && !truncated {
                    findings.push(Finding {
                        kind: FindingKind::StealWithoutEnqueue,
                        thread: e.thread,
                        ts_ns: e.ts_ns,
                        clock: st.clock.clone(),
                        detail: format!(
                            "stolen from vp {} by vp {} with no unconsumed enqueue",
                            e.a, e.b
                        ),
                    });
                }
            }
            EventKind::Determine => st.determined_at = Some(e.ts_ns),
            EventKind::Unblock => {
                // `b != 0` marks a *claimed* wake-up (generations start at
                // 1): a waker won the claim CAS on episode `b`.  The CAS
                // is mutually exclusive with cancellation/timeout on the
                // same generation, so seeing both is a protocol breach.
                if e.b != 0 && st.dead_episodes.contains(&e.b) {
                    findings.push(Finding {
                        kind: FindingKind::WakeAfterCancel,
                        thread: e.thread,
                        ts_ns: e.ts_ns,
                        clock: st.clock.clone(),
                        detail: format!(
                            "claimed wake-up for wait episode gen {} after it was \
                             cancelled or timed out",
                            e.b
                        ),
                    });
                }
            }
            EventKind::BlockTimeout => {
                st.dead_episodes.insert(e.b);
            }
            EventKind::WaiterCancelled => {
                st.dead_episodes.insert(e.b);
                if e.a == 2 {
                    findings.push(Finding {
                        kind: FindingKind::WaiterLeak,
                        thread: e.thread,
                        ts_ns: e.ts_ns,
                        clock: st.clock.clone(),
                        detail: format!(
                            "wait episode gen {} was still registered when the \
                             thread determined",
                            e.b
                        ),
                    });
                }
            }
            EventKind::LockAcquire => {
                for &held in &st.held_locks {
                    if held != e.a {
                        lock_edges
                            .entry((held, e.a))
                            .or_insert_with(|| (e.thread, e.ts_ns, st.clock.clone()));
                    }
                }
                st.held_locks.push(e.a);
            }
            EventKind::LockRelease => {
                if let Some(pos) = st.held_locks.iter().rposition(|&id| id == e.a) {
                    st.held_locks.remove(pos);
                }
            }
            EventKind::Handoff => {
                // A cross-shard handoff consumes the source shard's
                // pending enqueue — the item left that shard's queues for
                // the mailbox — and the destination re-publishes it with
                // its own Enqueue before dispatching.  Without consuming
                // here, every handoff would read as one enqueue too many
                // and surface as a phantom LostWakeup at end of stream.
                if st.pending_enqueues == 0 && st.forked && !truncated {
                    findings.push(Finding {
                        kind: FindingKind::StealWithoutEnqueue,
                        thread: e.thread,
                        ts_ns: e.ts_ns,
                        clock: st.clock.clone(),
                        detail: format!(
                            "handed off from shard {} to shard {} with no unconsumed enqueue",
                            e.a, e.b
                        ),
                    });
                }
                st.pending_enqueues = st.pending_enqueues.saturating_sub(1);
            }
            EventKind::Steal
            | EventKind::Preempt
            | EventKind::StateRequest
            | EventKind::IoWait
            | EventKind::IoReady
            | EventKind::IoError => {}
        }
    }

    if !truncated {
        let mut lost: Vec<(u64, &ThreadAudit)> = threads
            .iter()
            .filter(|(_, st)| st.pending_enqueues > 0 && st.determined_at.is_none() && st.forked)
            .map(|(id, st)| (*id, st))
            .collect();
        lost.sort_by_key(|(_, st)| st.last_enqueue);
        for (thread, st) in lost {
            let (vp, ts) = st.last_enqueue.unwrap_or_default();
            findings.push(Finding {
                kind: FindingKind::LostWakeup,
                thread,
                ts_ns: ts,
                clock: st.clock.clone(),
                detail: format!(
                    "enqueued onto vp {vp} but never dispatched or determined \
                     ({} enqueue(s) outstanding)",
                    st.pending_enqueues
                ),
            });
        }
    }

    // Lock-order inversion: cycles in the observed acquire-order graph.
    // Presence-based, so it runs even on truncated histories.
    let mut succ: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for &(h, a) in lock_edges.keys() {
        succ.entry(h).or_default().push(a);
    }
    let reaches = |from: u32, to: u32| -> bool {
        let mut seen = std::collections::BTreeSet::new();
        let mut work = vec![from];
        while let Some(n) = work.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = succ.get(&n) {
                    work.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut in_cycle: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut components: Vec<Vec<u32>> = Vec::new();
    for &node in succ.keys() {
        if in_cycle.contains(&node)
            || !succ
                .get(&node)
                .is_some_and(|s| s.iter().any(|&n| reaches(n, node)))
        {
            continue;
        }
        // All mutexes mutually reachable with `node` form one component.
        let comp: Vec<u32> = succ
            .keys()
            .copied()
            .filter(|&m| reaches(node, m) && reaches(m, node))
            .collect();
        in_cycle.extend(comp.iter().copied());
        components.push(comp);
    }
    for comp in components {
        // Cite the earliest edge inside the component as the witness.
        let witness = lock_edges
            .iter()
            .filter(|((h, a), _)| comp.contains(h) && comp.contains(a))
            .min_by_key(|(_, (_, ts, _))| *ts);
        let (&(h, a), &(thread, ts_ns, ref clock)) =
            witness.expect("a cycle component has at least one internal edge");
        let mutexes = comp
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        findings.push(Finding {
            kind: FindingKind::LockOrderInversion,
            thread,
            ts_ns,
            clock: clock.clone(),
            detail: format!(
                "mutexes {{{mutexes}}} were acquired in inconsistent orders across \
                 threads (first witnessed: thread {thread} acquired mutex {a} while \
                 holding mutex {h})"
            ),
        });
    }

    AuditReport {
        findings,
        events: events.len(),
        truncated,
    }
}
