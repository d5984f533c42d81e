//! Model-checked scenarios over the *production* blocking protocol —
//! `sting_core::wait::ClaimState`, the generation-tagged claim token at
//! the heart of every park/wake/cancel race.
//!
//! This test crate only compiles under `RUSTFLAGS="--cfg sting_check"`
//! (`./ci.sh check`), which switches `wait.rs` onto the sting-check shim
//! atomics so every interleaving and weak-memory load result is explored.
//! The mutation tests proving these scenarios have teeth — the claim CAS
//! weakened to a load+store, the claim's Release half dropped — live in
//! `crates/check/tests/litmus.rs` (`claim_token_*`), since weakening the
//! production source would require patching it.
#![cfg(sting_check)]

use std::sync::Arc;
use sting_check::atomic::{AtomicU64, Ordering};
use sting_check::{model, model_bounded, thread};
use sting_core::wait::{ClaimState, Finish, WakeReason};

/// Two concurrent wakers race to claim one armed episode: exactly one
/// `claim` may succeed (wake-ups are one-shot tokens), and the owner's
/// `finish` must observe the claim.
#[test]
fn two_wakers_claim_exactly_once() {
    let explored = model(|| {
        let st = Arc::new(ClaimState::new());
        let gen = st.arm();
        let (a, b) = (st.clone(), st.clone());
        let w1 = thread::spawn(move || a.claim(gen));
        let w2 = thread::spawn(move || b.claim(gen));
        let (c1, c2) = (w1.join(), w2.join());
        assert!(
            c1 ^ c2,
            "one armed episode absorbed {} claims",
            usize::from(c1) + usize::from(c2)
        );
        assert_eq!(st.finish(gen), Finish::Claimed);
    });
    assert!(explored.executions > 1);
}

/// A waker's `claim` races the owner's cancellation (`cancel_current`, the
/// terminate-while-blocked path): the two CASes target the same packed
/// word, so exactly one side wins and `finish` reports the winner.
#[test]
fn claim_and_cancel_are_exclusive() {
    model(|| {
        let st = Arc::new(ClaimState::new());
        let gen = st.arm();
        let waker = st.clone();
        let t = thread::spawn(move || waker.claim(gen));
        let cancelled = st.cancel_current().is_some();
        let claimed = t.join();
        assert!(
            claimed ^ cancelled,
            "claim and cancel both {} on one episode",
            if claimed { "succeeded" } else { "failed" }
        );
        let fin = st.finish(gen);
        match (claimed, cancelled) {
            (true, false) => assert_eq!(fin, Finish::Claimed),
            (false, true) => assert_eq!(fin, Finish::Cancelled),
            _ => unreachable!(),
        }
    });
}

/// A waker's `claim` races the timers' `timeout` on the same
/// generation: mutually exclusive, and the non-consuming
/// `snapshot_reason` agrees with the consuming `finish`.
#[test]
fn claim_and_timeout_are_exclusive() {
    model(|| {
        let st = Arc::new(ClaimState::new());
        let gen = st.arm();
        let timer = st.clone();
        let t = thread::spawn(move || timer.timeout(gen));
        let claimed = st.claim(gen);
        let timed_out = t.join();
        assert!(claimed ^ timed_out, "claim and timeout must be exclusive");
        if timed_out {
            assert_eq!(st.snapshot_reason(), WakeReason::TimedOut);
            assert_eq!(st.finish(gen), Finish::TimedOut);
        } else {
            assert_eq!(st.finish(gen), Finish::Claimed);
        }
    });
}

/// A waker holding a stale handle (the previous episode's generation)
/// races the owner re-arming and being woken on the *new* episode: the
/// stale claim must never succeed — this is the ABA guard that makes
/// handle clones safe to leave behind in wait lists.
#[test]
fn stale_generation_never_claims() {
    model_bounded(3, || {
        let st = Arc::new(ClaimState::new());
        let old = st.arm();
        assert_eq!(st.finish(old), Finish::Spurious);
        let stale = st.clone();
        let t = thread::spawn(move || stale.claim(old));
        let fresh = st.arm();
        let fresh_claimed = st.claim(fresh);
        assert!(!t.join(), "a finished episode's generation was re-claimed");
        assert!(fresh_claimed);
        assert_eq!(st.finish(fresh), Finish::Claimed);
    });
}

/// The claim CAS is the *only* synchronization between a waker and the
/// condition it signalled: data written before `claim` (Release) must be
/// visible after the owner's `finish` observes `Claimed` (Acquire), even
/// with Relaxed data accesses.
#[test]
fn claim_release_pairs_with_finish_acquire() {
    model(|| {
        let st = Arc::new(ClaimState::new());
        let data = Arc::new(AtomicU64::new(0));
        let gen = st.arm();
        let (st2, data2) = (st.clone(), data.clone());
        let t = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            st2.claim(gen)
        });
        if st.finish(gen) == Finish::Claimed {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "claimed wake-up delivered without its payload"
            );
        }
        t.join();
    });
}
