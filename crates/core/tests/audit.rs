//! Tests for the trace invariant linter (`sting_core::audit`): synthetic
//! event streams seeded with each violation class must be flagged, and a
//! real steal-heavy multi-VP run must audit clean.

use sting_core::audit::{audit, FindingKind};
use sting_core::trace::{EventKind, TraceEvent};
use sting_core::{policies, VmBuilder};

/// Shorthand for building synthetic streams: timestamps advance with the
/// slice index so the stream is sorted the way `Tracer::snapshot` sorts.
fn ev(ts: u64, vp: u32, kind: EventKind, thread: u64, a: u32, b: u32) -> TraceEvent {
    TraceEvent {
        ts_ns: ts * 100,
        vp,
        kind,
        thread,
        a,
        b,
        lc: ts,
    }
}

#[test]
fn clean_synthetic_lifecycle_has_no_findings() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        ev(2, 0, EventKind::Enqueue, 7, 0, 0),
        ev(3, 0, EventKind::Dispatch, 7, 0, 0),
        ev(4, 0, EventKind::Switch, 7, 0, 0), // yields
        ev(5, 0, EventKind::Enqueue, 7, 1, 0),
        ev(6, 0, EventKind::Dispatch, 7, 1, 0),
        ev(7, 0, EventKind::Switch, 7, 4, 0), // returns
        ev(8, 0, EventKind::Determine, 7, 0, 0),
    ];
    let report = audit(&events, false);
    assert!(report.is_clean(), "unexpected findings: {report}");
    assert_eq!(report.events, 8);
}

/// A seeded double dispatch — two `Dispatch` events with no intervening
/// `Switch` — must be flagged (acceptance criterion for `Vm::trace_audit`).
#[test]
fn seeded_double_dispatch_is_flagged() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        ev(2, 0, EventKind::Enqueue, 7, 0, 0),
        ev(3, 0, EventKind::Dispatch, 7, 0, 0),
        ev(4, 1, EventKind::Dispatch, 7, 1, 0), // still running on vp 0!
        ev(5, 0, EventKind::Switch, 7, 4, 0),
        ev(6, 1, EventKind::Switch, 7, 4, 0),
        ev(7, 0, EventKind::Determine, 7, 0, 0),
    ];
    let report = audit(&events, false);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::DoubleDispatch)
        .expect("double dispatch flagged");
    assert_eq!(f.thread, 7);
    assert_eq!(f.ts_ns, 400);
    // The vector clock pinpoints how far each lane had advanced.
    assert_eq!(f.clock, [3, 1]);
}

#[test]
fn dispatch_after_determine_is_flagged() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        ev(2, 0, EventKind::Enqueue, 7, 0, 0),
        ev(3, 0, EventKind::Dispatch, 7, 0, 0),
        ev(4, 0, EventKind::Switch, 7, 4, 0),
        ev(5, 0, EventKind::Determine, 7, 0, 0),
        ev(6, 0, EventKind::Enqueue, 7, 0, 0),
        ev(7, 0, EventKind::Dispatch, 7, 1, 0), // the TCB is gone
        ev(8, 0, EventKind::Switch, 7, 0, 0),
    ];
    let report = audit(&events, false);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == FindingKind::DispatchAfterDetermine && f.thread == 7));
}

#[test]
fn steal_without_enqueue_is_flagged() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        // Migrate with no unconsumed Enqueue: the thief claimed
        // unpublished work.
        ev(2, 1, EventKind::Migrate, 7, 0, 1),
        ev(3, 1, EventKind::Dispatch, 7, 0, 0),
        ev(4, 1, EventKind::Switch, 7, 4, 0),
        ev(5, 1, EventKind::Determine, 7, 0, 0),
    ];
    let report = audit(&events, false);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == FindingKind::StealWithoutEnqueue && f.thread == 7));
    // A matching enqueue first makes the same stream clean.
    let mut fixed = events.to_vec();
    fixed.insert(1, ev(1, 0, EventKind::Enqueue, 7, 0, 0));
    assert!(audit(&fixed, false).is_clean());
}

#[test]
fn lost_wakeup_is_flagged_only_with_complete_history() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        ev(2, 0, EventKind::Enqueue, 7, 0, 3),
        // ... and then nothing: never dispatched, never determined.
    ];
    let report = audit(&events, false);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::LostWakeup)
        .expect("lost wakeup flagged");
    assert_eq!(f.thread, 7);
    assert!(f.detail.contains("vp 3"), "detail: {}", f.detail);
    // With a lapped ring the missing dispatch may simply be missing from
    // the stream, so the check must stand down.
    let truncated = audit(&events, true);
    assert!(truncated.truncated);
    assert!(truncated.is_clean(), "{truncated}");
}

/// Threads whose `Fork` predates the recording (tracing enabled mid-run)
/// are exempt from the absence checks — their enqueues may have been
/// recorded without the dispatch that consumed them, or vice versa.
#[test]
fn unforked_threads_are_exempt_from_absence_checks() {
    let events = [
        ev(1, 0, EventKind::Enqueue, 7, 0, 0),
        ev(2, 1, EventKind::Migrate, 9, 0, 1), // enqueue predates recording
    ];
    assert!(audit(&events, false).is_clean());
}

/// Acceptance criterion: a real 4-VP steal-heavy run audits clean.  This
/// is the same shape as the migration stress in `tests/deque.rs` — work
/// forked onto one VP, spread by lock-free steals — plus blocking traffic
/// (`wait`) so enqueue/dispatch/switch/unblock all appear in the stream.
#[test]
fn clean_four_vp_steal_heavy_run_audits_clean() {
    let vm = VmBuilder::new()
        .vps(4)
        .processors(4)
        .policy(|_| policies::local_fifo().migrating(true).boxed())
        .trace(true)
        .build();
    let threads: Vec<_> = (0..64i64)
        .map(|i| {
            let target = (i % 2) as usize; // pile onto two VPs so the others must steal
            vm.fork_on(target, move |cx| {
                let inner = cx.fork(move |_| i);
                i + cx.wait(&inner).unwrap().as_int().unwrap()
            })
            .unwrap()
        })
        .collect();
    let sum: i64 = threads
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(sum, 2 * (0..64i64).sum::<i64>());
    vm.shutdown();
    let report = vm.trace_audit();
    assert!(
        !report.truncated,
        "ring wrapped; grow trace_capacity so the audit sees everything"
    );
    assert!(
        report.events > 64,
        "expected a busy stream, got {} events",
        report.events
    );
    let migrated = vm.counters().snapshot().migrations;
    assert!(
        report.is_clean(),
        "audit of a clean run (migrations={migrated}):\n{report}"
    );
}

/// A claimed wake-up (`Unblock` with a nonzero episode generation) after
/// that generation was cancelled must be flagged: the claim CAS and the
/// cancel CAS are mutually exclusive, so both appearing is a protocol
/// breach.  Presence-based, so it fires even on a truncated stream.
#[test]
fn wake_after_cancel_is_flagged() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        ev(2, 0, EventKind::Enqueue, 7, 0, 0),
        ev(3, 0, EventKind::Dispatch, 7, 0, 0),
        ev(5, 0, EventKind::Switch, 7, 2, 0),
        // Episode gen 3 cancelled by a state request...
        ev(6, 1, EventKind::WaiterCancelled, 7, 0, 3),
        // ...yet a structure still delivers a claimed wake for gen 3.
        ev(7, 1, EventKind::Unblock, 7, 0, 3),
    ];
    let report = audit(&events, true);
    assert_eq!(report.findings.len(), 1, "unexpected report: {report}");
    assert_eq!(report.findings[0].kind, FindingKind::WakeAfterCancel);
    assert_eq!(report.findings[0].thread, 7);
}

/// The same claimed wake-up after the episode *timed out* is the same
/// violation (the timeout CAS consumed the episode first).
#[test]
fn wake_after_timeout_is_flagged() {
    let events = [
        ev(1, 0, EventKind::BlockTimeout, 7, 0, 5),
        ev(2, 0, EventKind::Unblock, 7, 0, 5),
    ];
    let report = audit(&events, true);
    assert_eq!(report.findings.len(), 1, "unexpected report: {report}");
    assert_eq!(report.findings[0].kind, FindingKind::WakeAfterCancel);
}

/// Unclaimed wake-ups (`Unblock` with generation 0: resumes, join
/// completions) and claimed wakes on *other* generations are not flagged.
#[test]
fn unrelated_wakes_are_not_flagged() {
    let events = [
        ev(1, 0, EventKind::WaiterCancelled, 7, 1, 3),
        ev(2, 0, EventKind::Unblock, 7, 0, 0), // unclaimed: fine
        ev(3, 0, EventKind::Unblock, 7, 0, 4), // a later episode: fine
    ];
    let report = audit(&events, true);
    assert!(report.is_clean(), "unexpected findings: {report}");
}

/// An episode still registered when its thread determines (the
/// `WaiterCancelled` leak-check origin emitted by `Thread::complete`)
/// must be flagged as a waiter leak.
#[test]
fn waiter_leak_at_determine_is_flagged() {
    let events = [
        ev(1, 0, EventKind::Fork, 7, 0, 0),
        ev(2, 0, EventKind::Determine, 7, 0, 0),
        // Origin 2 = "leaked at determine".
        ev(3, 0, EventKind::WaiterCancelled, 7, 2, 6),
    ];
    let report = audit(&events, true);
    assert_eq!(report.findings.len(), 1, "unexpected report: {report}");
    assert_eq!(report.findings[0].kind, FindingKind::WaiterLeak);
    assert_eq!(report.findings[0].thread, 7);
}

/// Cancellations with the benign origins (state request, park unwind) are
/// clean on their own — only origin 2 is a leak.
#[test]
fn benign_cancel_origins_are_not_leaks() {
    let events = [
        ev(1, 0, EventKind::WaiterCancelled, 7, 0, 1),
        ev(2, 0, EventKind::WaiterCancelled, 7, 1, 2),
    ];
    let report = audit(&events, true);
    assert!(report.is_clean(), "unexpected findings: {report}");
}
