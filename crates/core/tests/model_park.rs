//! Model-checked scenarios over the *production* park/wake handshake —
//! `sting_core::machine::IdleWorkers`, the one word per machine holding
//! the idle-worker mask and the count of searching workers, and beside it
//! the word naming the worker that holds the poller role (the idle worker
//! blocked in the reactor mux, woken by a kick rather than an unpark) —
//! and of a timer add that lowers a VM's earliest deadline, which wakes an
//! idle worker through the same word.
//!
//! Compiles only under `RUSTFLAGS="--cfg sting_check"` (`./ci.sh check`),
//! which switches the word onto the sting-check shim atomics (and exports
//! the type) so every interleaving and weak-memory load result is
//! explored.  A model worker "parks" by reporting that it would; the real
//! one then sleeps until a claimer unparks it, so a worker that parks
//! unclaimed with work queued is a lost wake.  The expect-failure mutation
//! proving the signaller's SeqCst ordering is load-bearing uses a
//! mini-handshake (the pattern of `model_fleet.rs`), since weakening the
//! production source would require patching it.

#![cfg(sting_check)]

use std::sync::Arc;
use sting_check::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use sting_check::{model, model_expect_failure, thread};
use sting_core::machine::IdleWorkers;

/// Every worker bit: `claim_one`'s candidates for a chained wake.
const ANY: u64 = u64::MAX;

/// The going-to-sleep half of the worker loop: announce, look at the queue
/// once more (the second pass), then retract or park.  `true` if it parks.
fn goes_idle(idle: &IdleWorkers, worker: usize, queue: &AtomicUsize) -> bool {
    idle.announce(worker);
    if queue.load(Ordering::Acquire) != 0 {
        idle.retract(worker);
        return false;
    }
    true
}

/// An enqueue racing a worker that is going idle loses no wake: the
/// pusher publishes, reads the idle mask after its fence and claims the
/// VP's worker if it sees it idle.  Either the worker's second look finds
/// the item, or the pusher claimed it.
#[test]
fn enqueue_racing_a_worker_going_idle_loses_no_wake() {
    let explored = model(|| {
        let idle = Arc::new(IdleWorkers::default());
        let queue = Arc::new(AtomicUsize::new(0));
        let (i2, q2) = (idle.clone(), queue.clone());
        let pusher = thread::spawn(move || {
            q2.store(1, Ordering::Release);
            i2.idle_after_publish() != 0 && i2.claim_worker(0) != 0
        });
        let parked = goes_idle(&idle, 0, &queue);
        let woke = pusher.join();
        assert!(
            !parked || woke,
            "the worker parked with work queued and nobody claimed it"
        );
        assert!(!idle.is_idle(0), "a claimed or retracted worker still idle");
    });
    assert!(explored.executions > 1);
}

/// Two signallers offering work to idle siblings wake one worker between
/// them: the first claim makes a searcher, and a searcher suppresses
/// further claims.
#[test]
fn two_signallers_wake_at_most_one_worker() {
    model(|| {
        let idle = Arc::new(IdleWorkers::default());
        idle.announce(0);
        idle.announce(1);
        let signal = || {
            let idle = idle.clone();
            thread::spawn(move || idle.claim_one(ANY))
        };
        let (a, b) = (signal(), signal());
        let woken = a.join().count_ones() + b.join().count_ones();
        assert_eq!(woken, 1, "two signallers woke {woken} workers");
    });
}

/// A searching worker that finds work wakes a successor: a signal that
/// the search suppressed is not lost, because the last searcher to find
/// work passes the wake on.  Exactly one of the two claims worker 1.
#[test]
fn searching_worker_that_finds_work_wakes_a_successor() {
    model(|| {
        let idle = Arc::new(IdleWorkers::default());
        idle.announce(0);
        idle.announce(1);
        assert_eq!(idle.claim_worker(0), 1, "worker 0 is idle");
        let i2 = idle.clone();
        let signaller = thread::spawn(move || i2.claim_one(ANY));
        // Worker 0 dispatches its first thread: it stops searching and,
        // as the last searcher, claims a successor.
        let successor = if idle.end_search() {
            idle.claim_one(ANY)
        } else {
            0
        };
        let by_signal = signaller.join();
        assert_eq!(successor | by_signal, 0b10, "the suppressed wake was lost");
        assert_eq!(successor & by_signal, 0, "worker 1 was claimed twice");
    });
}

/// The handshake in miniature: one worker bit, one queue word, and the
/// pusher's publish and idle read at ordering `ord`.  `SeqCst` is the
/// production ordering (there: a Release publish and a SeqCst fence before
/// a Relaxed read); `Relaxed` lets the pusher read a stale mask while the
/// worker reads a stale queue.
fn mini_handshake(ord: Ordering) {
    let idle = Arc::new(AtomicUsize::new(0));
    let queue = Arc::new(AtomicUsize::new(0));
    let (i2, q2) = (idle.clone(), queue.clone());
    let pusher = thread::spawn(move || {
        q2.store(1, ord);
        i2.load(ord) != 0 && i2.swap(0, Ordering::AcqRel) != 0
    });
    idle.fetch_or(1, Ordering::SeqCst);
    fence(Ordering::SeqCst);
    let parked = queue.load(Ordering::Relaxed) == 0;
    if !parked {
        idle.store(0, Ordering::Relaxed);
    }
    let woke = pusher.join();
    assert!(
        !parked || woke,
        "lost wake: the worker parked on a queued item"
    );
}

/// The production ordering admits no lost wake.
#[test]
fn mini_handshake_seqcst_is_sound() {
    model(|| mini_handshake(Ordering::SeqCst));
}

/// Expect-failure mutation: with the pusher's publish and idle read
/// weakened to `Relaxed`, the checker finds the lost wake — proof the
/// SeqCst ordering in `IdleWorkers::idle_after_publish` is load-bearing.
#[test]
fn mini_handshake_relaxed_loses_a_wake() {
    let report = model_expect_failure(|| mini_handshake(Ordering::Relaxed));
    assert!(report.contains("lost wake"), "unexpected report:\n{report}");
}

/// A claimer's wake for worker 0, as `MachineShared::unpark` delivers it:
/// a kick if the claim took the poller, an unpark otherwise.
fn claim_and_wake(idle: &IdleWorkers, kick: &AtomicUsize, unparked: &AtomicUsize) -> bool {
    let claimed = idle.claim_worker(0);
    if claimed == 0 {
        return false;
    }
    if idle.poller_among(claimed) == Some(0) {
        kick.store(1, Ordering::Release);
    } else {
        unparked.store(1, Ordering::Release);
    }
    true
}

/// Becoming the poller against a claim loses no wake: worker 0 announces
/// itself, takes the poller role and would block in the mux, while a
/// signaller claims it.  Either the signaller sees the role and kicks, or
/// the worker's re-read sees the claim and never blocks — the mux wait
/// cannot start with its kick undelivered.
#[test]
fn becoming_the_poller_against_a_claim_loses_no_wake() {
    let explored = model(|| {
        let idle = Arc::new(IdleWorkers::default());
        let kick = Arc::new(AtomicUsize::new(0));
        let unparked = Arc::new(AtomicUsize::new(0));
        idle.announce(0);
        let signaller = {
            let (idle, kick, unparked) = (idle.clone(), kick.clone(), unparked.clone());
            thread::spawn(move || claim_and_wake(&idle, &kick, &unparked))
        };
        let polls = idle.become_poller(0);
        let claimed = signaller.join();
        assert!(claimed, "worker 0 was idle");
        assert!(
            !polls || kick.load(Ordering::Acquire) == 1,
            "lost wake: the poller blocks in the mux, claimed and never kicked"
        );
        assert!(
            polls || unparked.load(Ordering::Acquire) + kick.load(Ordering::Acquire) >= 1,
            "the claim delivered nothing"
        );
    });
    assert!(explored.executions > 1);
}

/// The poller's side of a kick, with a busy sibling's non-blocking look at
/// the reactors racing it.  The poller re-reads its idle bit, then waits:
/// a pending kick ends the wait (and is drained), otherwise it blocks.
/// Blocking while claimed with no kick left pending is a lost wake — the
/// kick that was written for it is the only thing that could end it.
/// `sibling_drains` is the mutation: the sibling's look drains the kick.
fn poller_against_a_busy_sibling(sibling_drains: bool) {
    let idle = Arc::new(IdleWorkers::default());
    let kick = Arc::new(AtomicUsize::new(0));
    let unparked = Arc::new(AtomicUsize::new(0));
    idle.announce(0);
    assert!(idle.become_poller(0), "the announced worker takes the role");
    let signaller = {
        let (idle, kick, unparked) = (idle.clone(), kick.clone(), unparked.clone());
        thread::spawn(move || claim_and_wake(&idle, &kick, &unparked))
    };
    let sibling = {
        let kick = kick.clone();
        thread::spawn(move || {
            // Production: the sibling's pass polls the VMs' reactors, never
            // the machine's kick.
            if sibling_drains {
                kick.swap(0, Ordering::AcqRel);
            }
        })
    };
    // The poller's loop, one round: re-read, then wait.
    let mut blocked = false;
    if idle.is_idle(0) && kick.swap(0, Ordering::AcqRel) == 0 {
        blocked = true;
    }
    signaller.join();
    sibling.join();
    // A kick still pending ends a wait that started before it arrived.
    let stranded = blocked && !idle.is_idle(0) && kick.load(Ordering::Acquire) == 0;
    assert!(
        !stranded,
        "lost wake: the poller blocked with its claim's kick drained"
    );
}

/// Only the blocking poller consumes a kick: with the sibling's look
/// leaving the kick alone, no interleaving strands the poller.
#[test]
fn only_the_blocking_poller_consumes_a_kick() {
    model(|| poller_against_a_busy_sibling(false));
}

/// Expect-failure mutation: a non-blocking look that drains the kick
/// strands the poller it was written for — the checker must report it.
#[test]
fn a_non_blocking_look_that_drains_the_kick_loses_a_wake() {
    let report = model_expect_failure(|| poller_against_a_busy_sibling(true));
    assert!(report.contains("lost wake"), "unexpected report:\n{report}");
}

/// The earliest deadline a worker would sleep to before the add, and the
/// one the add publishes.
const LATE: u64 = 10_000;
const SOON: u64 = 20;

/// A timer add that lowers the earliest deadline, racing a worker going
/// idle.  The add publishes the lower deadline (`Timers::insert`, a
/// Release store under the timers' lock), then reads the idle word after
/// its fence and claims an idle driver (`Attachment::signal_deadline`).
/// The worker announces itself, then its second pass reads the deadline
/// it will park to.  Parking to the old deadline unclaimed sleeps past the
/// new one.  `read_first` is the mutation: the worker sizes its park
/// before it announces.
fn deadline_against_a_worker_going_idle(read_first: bool) {
    let idle = Arc::new(IdleWorkers::default());
    let earliest = Arc::new(AtomicU64::new(LATE));
    let adder = {
        let (idle, earliest) = (idle.clone(), earliest.clone());
        thread::spawn(move || {
            earliest.store(SOON, Ordering::Release);
            idle.idle_after_publish() & 1 != 0 && idle.claim_first(1) != 0
        })
    };
    let wake_at = if read_first {
        let d = earliest.load(Ordering::Acquire);
        idle.announce(0);
        d
    } else {
        idle.announce(0);
        earliest.load(Ordering::Acquire)
    };
    let claimed = adder.join();
    assert!(
        wake_at == SOON || claimed,
        "lost deadline: the worker parks until {wake_at}, unclaimed"
    );
}

/// Sizing the park after the announcement loses no deadline: either the
/// worker reads the lowered deadline, or the add sees it idle and claims it.
#[test]
fn a_lowered_deadline_racing_a_worker_going_idle_is_not_lost() {
    let explored = model(|| deadline_against_a_worker_going_idle(false));
    assert!(explored.executions > 1);
}

/// Expect-failure mutation: a worker that reads the deadline before it
/// announces can miss the add's publication while the add misses its
/// announcement — the checker must report it.
#[test]
fn sizing_the_park_before_the_announcement_loses_a_deadline() {
    let report = model_expect_failure(|| deadline_against_a_worker_going_idle(true));
    assert!(
        report.contains("lost deadline"),
        "unexpected report:\n{report}"
    );
}
