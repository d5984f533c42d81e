//! Litmus tests for the model checker itself: classic weak-memory shapes
//! that must (or must not) be observable, plus mutation tests proving the
//! checker catches protocols whose required orderings were weakened.

use std::sync::Arc;
use sting_check::atomic::{fence, AtomicUsize, Ordering};
use sting_check::{
    model, model_bounded, model_bounded_expect_failure, model_expect_failure, thread,
};

/// Store buffering with SeqCst: `r0 == 0 && r1 == 0` must be impossible.
#[test]
fn store_buffer_seqcst_forbids_both_zero() {
    let explored = model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r0 = x.load(Ordering::SeqCst);
        let r1 = t.join();
        assert!(
            r0 == 1 || r1 == 1,
            "SC store buffering produced r0 == r1 == 0"
        );
    });
    // Sanity: the explorer actually branched.
    assert!(explored.executions > 1);
}

/// The same shape with Relaxed everywhere: the checker must find the
/// both-zero outcome (this is the checker-has-teeth baseline).
#[test]
fn store_buffer_relaxed_observes_both_zero() {
    let report = model_expect_failure(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let r0 = x.load(Ordering::Relaxed);
        let r1 = t.join();
        assert!(r0 == 1 || r1 == 1, "observed r0 == r1 == 0");
    });
    assert!(report.contains("observed r0 == r1 == 0"));
}

/// Store buffering with relaxed accesses but SeqCst fences between store
/// and load: both-zero is again impossible (validates fence modeling — this
/// is exactly the `Deque::pop`/`steal` fence pattern).
#[test]
fn store_buffer_seqcst_fences_forbid_both_zero() {
    model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let r0 = x.load(Ordering::Relaxed);
        let r1 = t.join();
        assert!(
            r0 == 1 || r1 == 1,
            "fenced store buffering produced r0 == r1 == 0"
        );
    });
}

/// Message passing, the release/acquire contract: the payload written
/// before a Release flag store must be visible after an Acquire flag load.
#[test]
fn message_passing_release_acquire() {
    model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (data2, flag2) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            flag2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join();
    });
}

/// Message passing with a Relaxed flag: the reader may see the flag but a
/// stale payload.  The checker must find it.
#[test]
fn message_passing_relaxed_flag_fails() {
    let report = model_expect_failure(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (data2, flag2) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            flag2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join();
    });
    assert!(report.contains("stale payload"));
}

/// Coherence: a single location is still sequentially consistent per
/// location — after reading 2 a thread may never read 1 again, even fully
/// relaxed.
#[test]
fn per_location_coherence_holds() {
    model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = x.clone();
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            x2.store(2, Ordering::Relaxed);
        });
        let a = x.load(Ordering::Relaxed);
        let b = x.load(Ordering::Relaxed);
        assert!(b >= a, "read-read coherence violated: {a} then {b}");
        t.join();
    });
}

/// Read-read coherence must also hold across a release/acquire edge
/// (CoRR over happens-before): if the writer-side thread read the newer
/// value before releasing, the acquirer may not read the older one.
#[test]
fn coherence_transfers_across_acquire() {
    model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (x2, flag2) = (x.clone(), flag.clone());
        let t = thread::spawn(move || {
            x2.store(7, Ordering::Relaxed);
            flag2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            // x = 7 happens-before the release, so it is forced here...
            assert_eq!(x.load(Ordering::Relaxed), 7);
            // ...and stays forced for later reads.
            assert_eq!(x.load(Ordering::Relaxed), 7);
        }
        t.join();
    });
}

/// Exactly-once CAS claiming: two threads race a compare-exchange; exactly
/// one must win regardless of schedule.
#[test]
fn cas_claim_is_exactly_once() {
    model(|| {
        let slot = Arc::new(AtomicUsize::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let (slot2, wins2) = (slot.clone(), wins.clone());
        let t = thread::spawn(move || {
            if slot2
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                wins2.fetch_add(1, Ordering::Relaxed);
            }
        });
        if slot
            .compare_exchange(0, 2, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            wins.fetch_add(1, Ordering::Relaxed);
        }
        t.join();
        assert_eq!(wins.load(Ordering::Relaxed), 1, "CAS won twice or never");
    });
}

/// A mini seqlock with the *weakened* (Relaxed payload) protocol the trace
/// ring used before this PR: the checker must exhibit a torn read that the
/// seq-word re-check fails to reject.  This is the mutation test backing
/// the trace.rs Release/Acquire upgrade.
#[test]
fn seqlock_relaxed_payload_admits_torn_read() {
    let report = model_expect_failure(|| seqlock_scenario(Ordering::Relaxed, Ordering::Relaxed));
    assert!(report.contains("torn read"), "unexpected report:\n{report}");
}

/// The fixed protocol — payload stores Release, payload loads Acquire —
/// survives exhaustive exploration of the same scenario.
#[test]
fn seqlock_release_acquire_payload_is_sound() {
    model(|| seqlock_scenario(Ordering::Release, Ordering::Acquire));
}

/// The Chase–Lev owner/thief core with production orderings (pop's bottom
/// stores Release, SeqCst fences both sides) survives exhaustive
/// (preemption-bounded) exploration: every claim returns a published value
/// and nothing is claimed twice.
#[test]
fn mini_deque_production_orderings_sound() {
    model_bounded(3, || mini_deque_pop_steal(Ordering::Release, true));
}

/// Weakening pop's `bottom` store to Relaxed — sound under pre-C++20
/// release sequences (Lê et al., PPoPP 2013), unsound since P0982 — lets a
/// thief acquire the decremented `bottom` with no synchronization and claim
/// a slot whose write it never observed.  This is the mutation test backing
/// the Release upgrade in `sting_core::deque::Deque::pop`.
#[test]
fn mini_deque_relaxed_bottom_store_claims_unpublished() {
    let report = model_bounded_expect_failure(3, || mini_deque_pop_steal(Ordering::Relaxed, true));
    assert!(
        report.contains("unpublished"),
        "unexpected report:\n{report}"
    );
}

/// Dropping the owner-side SeqCst fence in pop lets the owner read a stale
/// `top`, skip the last-item CAS, and claim an item a thief also claims.
#[test]
fn mini_deque_missing_pop_fence_is_unsound() {
    let report = model_bounded_expect_failure(3, || mini_deque_pop_steal(Ordering::Release, false));
    assert!(
        report.contains("claimed twice") || report.contains("unpublished"),
        "unexpected report:\n{report}"
    );
}

/// The Chase–Lev protocol in miniature: a two-slot ring, `top`/`bottom`
/// counters, an owner that pushes 41 and 42 then pops once, and a thief
/// that attempts two steals.  The thief is spawned before the pushes so all
/// ordering must come from the protocol, none from spawn happens-before.
/// Mirrors `sting_core::deque` with `pop_bottom_ord` on pop's bottom
/// decrement and `owner_fence` controlling pop's SeqCst fence.
fn mini_deque_pop_steal(pop_bottom_ord: Ordering, owner_fence: bool) {
    let top = Arc::new(AtomicUsize::new(0));
    let bottom = Arc::new(AtomicUsize::new(0));
    let slots = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let (top2, bottom2, slots2) = (top.clone(), bottom.clone(), slots.clone());
    let thief = thread::spawn(move || {
        let mut claims = Vec::new();
        for _ in 0..2 {
            let t = top2.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = bottom2.load(Ordering::Acquire);
            if t >= b {
                continue;
            }
            let v = slots2[t % 2].load(Ordering::Relaxed);
            if top2
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                claims.push(v);
            }
        }
        claims
    });
    let mut claims = Vec::new();
    // push 41; push 42: publish the slot, then Release the new bottom.
    slots[0].store(41, Ordering::Relaxed);
    bottom.store(1, Ordering::Release);
    slots[1].store(42, Ordering::Relaxed);
    bottom.store(2, Ordering::Release);
    // pop: decrement bottom, fence, read top, claim (CAS iff last item).
    let b = bottom.load(Ordering::Relaxed) - 1;
    bottom.store(b, pop_bottom_ord);
    if owner_fence {
        fence(Ordering::SeqCst);
    }
    let t = top.load(Ordering::Relaxed);
    if t > b {
        bottom.store(b + 1, Ordering::Release);
    } else {
        let v = slots[b % 2].load(Ordering::Relaxed);
        let won = t != b
            || top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
        if t == b {
            bottom.store(b + 1, Ordering::Release);
        }
        if won {
            claims.push(v);
        }
    }
    claims.extend(thief.join());
    for &v in &claims {
        assert!(v == 41 || v == 42, "claimed an unpublished slot ({v})");
    }
    let total = claims.len();
    claims.sort_unstable();
    claims.dedup();
    assert_eq!(claims.len(), total, "an item was claimed twice");
}

/// Pop-on-join's conditional pop (`sting_core::deque::Deque::pop_if`) peeks
/// the bottom slot and, on a match, runs the ordinary pop protocol: sound.
#[test]
fn mini_deque_pop_if_through_the_pop_protocol_is_sound() {
    model(|| mini_deque_pop_if(true));
}

/// The mutation: treating the peek itself as the claim — lower `bottom`,
/// take the word, no fence, no last-item CAS.  A thief that read the old
/// `bottom` wins its CAS on `top` and the entry is claimed twice (in
/// production: an `Arc` dropped twice).
#[test]
fn mini_deque_pop_if_trusting_its_peek_claims_twice() {
    let report = model_expect_failure(|| mini_deque_pop_if(false));
    assert!(
        report.contains("claimed twice"),
        "unexpected report:\n{report}"
    );
}

/// One entry (41), an owner taking it back by identity and a thief
/// attempting one steal.  With `through_protocol` the owner's match is
/// followed by the production pop; without, the peek is the claim.
fn mini_deque_pop_if(through_protocol: bool) {
    let top = Arc::new(AtomicUsize::new(0));
    let bottom = Arc::new(AtomicUsize::new(0));
    let slot = Arc::new(AtomicUsize::new(0));
    let (top2, bottom2, slot2) = (top.clone(), bottom.clone(), slot.clone());
    let thief = thread::spawn(move || {
        let t = top2.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = bottom2.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        let v = slot2.load(Ordering::Relaxed);
        top2.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
            .then_some(v)
    });
    slot.store(41, Ordering::Relaxed);
    bottom.store(1, Ordering::Release);
    // pop_if: peek the bottom word (a plain load, nothing claimed) …
    let b = bottom.load(Ordering::Relaxed) - 1;
    let mut claims = Vec::new();
    if slot.load(Ordering::Relaxed) == 41 {
        bottom.store(b, Ordering::Release);
        if through_protocol {
            // … then the production pop: fence, read top, CAS the last item.
            fence(Ordering::SeqCst);
            let t = top.load(Ordering::Relaxed);
            let won = t <= b
                && (t != b
                    || top
                        .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok());
            if t >= b {
                bottom.store(b + 1, Ordering::Release);
            }
            if won {
                claims.push(slot.load(Ordering::Relaxed));
            }
        } else {
            claims.push(41);
        }
    }
    claims.extend(thief.join());
    assert!(claims.len() <= 1, "the entry was claimed twice");
    assert!(
        claims.iter().all(|&v| v == 41),
        "claimed an unpublished slot"
    );
}

/// One writer re-publishing a two-word record guarded by a seq word
/// (0 = busy, n = generation), one snapshotting reader; the reader accepts
/// a record only if the seq word is the same non-zero generation before and
/// after reading the payload.  With `store_ord`/`load_ord` on the payload
/// words this is exactly the trace ring's slot protocol in miniature.
fn seqlock_scenario(store_ord: Ordering, load_ord: Ordering) {
    let seq = Arc::new(AtomicUsize::new(1));
    let lo = Arc::new(AtomicUsize::new(10));
    let hi = Arc::new(AtomicUsize::new(10));
    let (seq2, lo2, hi2) = (seq.clone(), lo.clone(), hi.clone());
    let writer = thread::spawn(move || {
        // Generation 2: publish the record (20, 20).
        seq2.store(0, Ordering::Release);
        lo2.store(20, store_ord);
        hi2.store(20, store_ord);
        seq2.store(2, Ordering::Release);
    });
    let s1 = seq.load(Ordering::Acquire);
    if s1 != 0 {
        let a = lo.load(load_ord);
        let b = hi.load(load_ord);
        let s2 = seq.load(Ordering::Acquire);
        if s1 == s2 {
            // Accepted as a consistent record: both words must belong to
            // the same generation.
            assert_eq!(a, b, "torn read accepted as valid (seq {s1})");
        }
    }
    writer.join();
}

// --- claim-token mutations (wait.rs ClaimState) -------------------------
//
// Mini-transliterations of the blocking protocol's claim token: one packed
// word holding `gen << 3 | phase` (ARMED = 1, CLAIMED = 2), consumed by a
// compare-exchange from ARMED to CLAIMED.  The production protocol is
// model-checked directly in `crates/core/tests/model_wait.rs`; these
// mutations prove those scenarios have teeth by weakening the claim and
// showing the checker catch the resulting double wake-up / lost payload.

const CLAIM_ARMED: usize = 1;
const CLAIM_CLAIMED: usize = 2;

fn claim_pack(gen: usize, phase: usize) -> usize {
    (gen << 3) | phase
}

/// The production shape: claim is a single AcqRel CAS, so two racing
/// wakers consume one armed episode exactly once.
#[test]
fn claim_token_cas_is_exactly_once() {
    let explored = model(|| {
        let state = Arc::new(AtomicUsize::new(claim_pack(1, CLAIM_ARMED)));
        let s2 = state.clone();
        let cas = |s: &AtomicUsize| {
            s.compare_exchange(
                claim_pack(1, CLAIM_ARMED),
                claim_pack(1, CLAIM_CLAIMED),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        };
        let t = thread::spawn(move || cas(&s2));
        let mine = cas(&state);
        let theirs = t.join();
        assert!(mine ^ theirs, "claim CAS must succeed exactly once");
    });
    assert!(explored.executions > 1);
}

/// MUTATION: the claim weakened to a load-check-then-store.  Two wakers
/// can both observe ARMED before either stores CLAIMED, so both believe
/// they own the wake-up — the double-wake the CAS exists to prevent.
#[test]
fn claim_token_load_store_double_claims() {
    let report = model_bounded_expect_failure(4, || {
        let state = Arc::new(AtomicUsize::new(claim_pack(1, CLAIM_ARMED)));
        let s2 = state.clone();
        let broken_claim = |s: &AtomicUsize| {
            if s.load(Ordering::Acquire) == claim_pack(1, CLAIM_ARMED) {
                s.store(claim_pack(1, CLAIM_CLAIMED), Ordering::Release);
                true
            } else {
                false
            }
        };
        let t = thread::spawn(move || broken_claim(&s2));
        let mine = broken_claim(&state);
        let theirs = t.join();
        assert!(mine ^ theirs, "claim must succeed exactly once");
    });
    assert!(
        report.contains("exactly once"),
        "load+store claim must double-claim; got:\n{report}"
    );
}

/// MUTATION: the claim CAS's Release half dropped (Acquire success
/// ordering).  The condition written before the claim is no longer
/// published to the owner whose `finish` observes CLAIMED, so a wake-up
/// can arrive without its payload.
#[test]
fn claim_token_relaxed_claim_loses_payload() {
    let report = model_expect_failure(|| {
        let state = Arc::new(AtomicUsize::new(claim_pack(1, CLAIM_ARMED)));
        let data = Arc::new(AtomicUsize::new(0));
        let (s2, d2) = (state.clone(), data.clone());
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            let _ = s2.compare_exchange(
                claim_pack(1, CLAIM_ARMED),
                claim_pack(1, CLAIM_CLAIMED),
                Ordering::Acquire, // MUTATION: production uses AcqRel.
                Ordering::Relaxed,
            );
        });
        // The owner's finish: an Acquire read observing CLAIMED.
        if state.load(Ordering::Acquire) == claim_pack(1, CLAIM_CLAIMED) {
            assert_eq!(data.load(Ordering::Relaxed), 42, "payload lost");
        }
        t.join();
    });
    assert!(
        report.contains("payload lost"),
        "dropping the claim's Release half must lose the payload; got:\n{report}"
    );
}

/// The multi-level deque's occupancy-bit protocol
/// (`sting_core::deque::MultiDeque`), transliterated: `slot` stands for a
/// band's contents, bit 0 of `occ` for that band's occupancy bit.
/// Publishing is contents-store then `fetch_or(Release)`; clearing is
/// `fetch_and(AcqRel)`, re-check the contents, `fetch_or(Release)` back
/// if the re-check sees any.  RMWs on `occ` serialize, so a clear racing
/// a publish always lands before or after it in `occ`'s modification
/// order — and the publish's **Release** (acquired by the clear's RMW) is
/// what makes the racing push's contents visible to the re-check.
/// Invariant: once both sides quiesce, contents present ⇒ bit set, else
/// `pop`'s bitmask scan would never look at the band again.
fn banded_bitmask_scenario(publish_ord: Ordering) {
    let slot = Arc::new(AtomicUsize::new(0));
    let occ = Arc::new(AtomicUsize::new(0));
    let (slot2, occ2) = (slot.clone(), occ.clone());
    let owner = thread::spawn(move || {
        slot2.store(42, Ordering::Relaxed);
        occ2.fetch_or(1, publish_ord);
    });
    let (slot3, occ3) = (slot.clone(), occ.clone());
    let clearer = thread::spawn(move || {
        // clear_if_empty: clear the bit, then re-check the band.
        occ3.fetch_and(!1, Ordering::AcqRel);
        if slot3.load(Ordering::Relaxed) != 0 {
            occ3.fetch_or(1, Ordering::Release);
        }
    });
    owner.join();
    clearer.join();
    if slot.load(Ordering::Relaxed) != 0 {
        assert!(
            occ.load(Ordering::Relaxed) & 1 != 0,
            "occupancy bit stranded the item"
        );
    }
}

/// The production orderings: a Release publish is always seen by the
/// clearer's re-check, so no interleaving strands an item behind a
/// cleared bit.
#[test]
fn banded_bitmask_release_publish_never_strands() {
    let explored = model(|| banded_bitmask_scenario(Ordering::Release));
    assert!(explored.executions > 1);
}

/// MUTATION: the publish `fetch_or` weakened to Relaxed.  The clearer's
/// RMW still serializes after the publish in `occ`'s modification order,
/// but acquires nothing — its re-check can read the band as empty, skip
/// the re-set, and strand the item behind a cleared bit.
#[test]
fn banded_bitmask_relaxed_publish_strands_item() {
    let report = model_expect_failure(|| banded_bitmask_scenario(Ordering::Relaxed));
    assert!(
        report.contains("occupancy bit stranded the item"),
        "dropping the publish Release must strand an item; got:\n{report}"
    );
}
