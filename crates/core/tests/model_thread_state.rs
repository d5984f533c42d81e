//! Model-checked scenarios over the *production* thread state word —
//! `sting_core::state::StateWord`, the one atomic word on which a thread is
//! scheduled, claimed and determined, and on which waiters tell the
//! determiner that it must take the thread's lock.
//!
//! Compiles only under `RUSTFLAGS="--cfg sting_check"` (`./ci.sh check`),
//! which switches the word onto the sting-check shim atomics (and exports
//! it) so every interleaving and weak-memory load result is explored.  The
//! lock-protected half of the slow path (the join-node list) is plain
//! mutual exclusion and is not modelled: what is checked is that every
//! decision it depends on is made by one RMW on the word.  An OS thread
//! joins by registering a join node like a STING thread, so
//! `determine_against_add_wait_node_completes_every_node` covers both.  The expect-failure mutation weakens the determination's RMW to a
//! load and a store, in a test-local copy, since weakening the production
//! source would require patching it.

#![cfg(sting_check)]

use std::sync::Arc;
use sting_check::atomic::Ordering;
use sting_check::{model, model_expect_failure, thread};
use sting_core::state::{StateWord, DETERMINING, STATE, WAITERS};
use sting_core::ThreadState;

/// A determination as the production code makes it: win, then publish.
/// `Some(flags seen)` for the winner.
fn determine(word: &StateWord, passive: bool) -> Option<u64> {
    word.begin_determine(passive)?;
    Some(word.finish_determine())
}

/// Two claims (a dispatch and a steal) race for one scheduled thread's
/// thunk: exactly one wins it.
#[test]
fn claim_against_claim_runs_the_thunk_once() {
    let explored = model(|| {
        let w = Arc::new(StateWord::new(ThreadState::Scheduled));
        let w2 = w.clone();
        let thief = thread::spawn(move || w2.claim(ThreadState::Stolen));
        let dispatched = w.claim(ThreadState::Evaluating);
        let stolen = thief.join();
        assert!(
            dispatched ^ stolen,
            "{dispatched} / {stolen}: not one winner"
        );
        let expect = if stolen {
            ThreadState::Stolen
        } else {
            ThreadState::Evaluating
        };
        assert_eq!(w.state(), expect);
    });
    assert!(explored.executions > 1);
}

/// A touch's claim races a passive terminate (or raise): exactly one of
/// them owns the thunk — the claimer runs it or the terminator discards it.
#[test]
fn claim_against_passive_terminate_owns_the_thunk_once() {
    model(|| {
        let w = Arc::new(StateWord::new(ThreadState::Delayed));
        let w2 = w.clone();
        let toucher = thread::spawn(move || w2.claim(ThreadState::Stolen));
        let terminated = determine(&w, true).is_some();
        let claimed = toucher.join();
        assert!(
            claimed ^ terminated,
            "claimed {claimed}, terminated {terminated}"
        );
        if terminated {
            assert_eq!(w.state(), ThreadState::Determined);
        }
    });
}

/// `thread-run`'s schedule races a passive terminate: the terminate always
/// wins (the thread has no TCB either way), and a schedule that comes after
/// it must fail, or a determined thread would be queued.
#[test]
fn schedule_against_terminate_never_queues_a_determined_thread() {
    model(|| {
        let w = Arc::new(StateWord::new(ThreadState::Delayed));
        let w2 = w.clone();
        let runner = thread::spawn(move || w2.schedule());
        let found = w
            .begin_determine(true)
            .expect("a passive thread is terminated");
        w.finish_determine();
        let scheduled = runner.join();
        // The schedule succeeded iff the terminate found it already done.
        assert_eq!(scheduled, found == ThreadState::Scheduled);
        assert!(
            !w.claim(ThreadState::Evaluating),
            "claimed after determination"
        );
    });
}

/// Two determinations race (a thread's own completion and a shutdown
/// drain, say): exactly one publishes a result.
#[test]
fn determine_against_determine_publishes_once() {
    model(|| {
        let w = Arc::new(StateWord::new(ThreadState::Stolen));
        let w2 = w.clone();
        let drain = thread::spawn(move || determine(&w2, false).is_some());
        let own = determine(&w, false).is_some();
        assert!(own ^ drain.join(), "not exactly one published result");
        assert_eq!(w.state(), ThreadState::Determined);
    });
}

/// The determination races a waiter registering a join node (`wait`,
/// `join_blocking`, `block_on_group`, from a STING or an OS thread):
/// either the registration lands first and the determiner sees the flag —
/// so it takes the lock and completes the node — or the registration sees
/// `Determined` and is refused, and the waiter reads the result itself.
fn determine_against_add_wait_node(determine: fn(&StateWord) -> Option<u64>) {
    let w = Arc::new(StateWord::new(ThreadState::Evaluating));
    let w2 = w.clone();
    let waiter = thread::spawn(move || w2.set_unless_determined(WAITERS));
    let seen = determine(&w).expect("the only determiner") & WAITERS != 0;
    let registered = waiter.join();
    assert!(
        !registered || seen,
        "missed join node: registered, but the determination never saw it"
    );
    assert!(!seen || registered, "a flag nobody set");
}

#[test]
fn determine_against_add_wait_node_completes_every_node() {
    model(|| determine_against_add_wait_node(|w| determine(w, false)));
}

/// The determination's publish weakened to a load and a store: a flag set
/// between the two is overwritten.
fn determine_racy(w: &StateWord) -> Option<u64> {
    w.begin_determine(false)?;
    let raw = w.raw();
    let cur = raw.load(Ordering::Acquire);
    let published = cur & !(STATE | DETERMINING) | ThreadState::Determined as u64;
    raw.store(published, Ordering::Release);
    Some(cur & !(STATE | DETERMINING))
}

/// Expect-failure mutation: with the publish split into a load and a
/// store, the checker finds the registration that slips between them — a
/// join node nobody completes.
#[test]
fn a_load_then_store_determination_misses_a_join_node() {
    let report = model_expect_failure(|| determine_against_add_wait_node(determine_racy));
    assert!(
        report.contains("missed join node"),
        "unexpected report:\n{report}"
    );
}
