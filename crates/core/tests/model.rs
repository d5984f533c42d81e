//! Model-checked scenarios over the *production* `sting_core::deque` and
//! `sting_core::trace` sources.
//!
//! This test crate only compiles under `RUSTFLAGS="--cfg sting_check"`
//! (`./ci.sh check`), which switches those modules onto the sting-check
//! shim atomics so every interleaving and weak-memory load result is
//! explored.  The mutation tests proving each scenario has teeth — the same
//! protocol with a required ordering weakened, shown failing — live in
//! `crates/check/tests/litmus.rs` (mini-deque and seqlock litmus tests),
//! since weakening the production source would require patching it; the
//! owner hand-off's mutation is here, on a stand-in for the owner word.
#![cfg(sting_check)]

use std::sync::Arc;
use sting_check::atomic::{AtomicBool, Ordering};
use sting_check::{model, model_bounded, model_bounded_expect_failure, thread};
use sting_core::deque::{Deque, Injector, MultiDeque, OwnerWord, Steal, Tagged, BANDS};
use sting_core::trace::{EventKind, Ring, TraceEvent};

/// The pop/steal last-item race (deque.rs `pop`, `t == b` arm): with one
/// item and one thief, exactly one side may claim it — every interleaving,
/// every weak load result.
#[test]
fn deque_last_item_claimed_exactly_once() {
    let explored = model(|| {
        let d = Arc::new(Deque::with_capacity(2));
        d.push(1u64);
        let d2 = d.clone();
        let thief = thread::spawn(move || match d2.steal() {
            Steal::Success(v) => Some(v),
            Steal::Empty | Steal::Retry => None,
        });
        let popped = d.pop();
        let stolen = thief.join();
        let claims = usize::from(popped.is_some()) + usize::from(stolen.is_some());
        assert_eq!(claims, 1, "last item claimed {claims} times");
        assert_eq!(popped.or(stolen), Some(1));
    });
    assert!(explored.executions > 1);
}

/// Two items, a popping owner and a stealing thief: no item is lost and no
/// item is dispatched twice.  The thief is spawned *before* the pushes so
/// it shares no happens-before edge with them — every ordering the owner
/// side relies on must come from the deque protocol itself.  This is the
/// scenario that exposes the pre-PR `Relaxed` bottom store in `pop`: under
/// C++20 release sequences a thief acquiring that store got no
/// synchronization and could claim a slot whose contents it never saw.
#[test]
fn deque_pop_steal_no_loss_no_dup() {
    model_bounded(3, || {
        let d = Arc::new(Deque::with_capacity(2));
        let d2 = d.clone();
        let thief = thread::spawn(move || d2.steal_retrying());
        d.push(1u64);
        d.push(2u64);
        let mut claimed = Vec::new();
        claimed.extend(d.pop());
        claimed.extend(d.pop());
        claimed.extend(thief.join());
        // Once both sides quiesce, drain the leftovers: between the claims
        // and the remainder, each item appears exactly once.
        while let Some(v) = d.pop() {
            claimed.push(v);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, [1, 2], "lost or duplicated an item: {claimed:?}");
    });
}

/// `steal_tagged` staleness re-validation (deque.rs `steal_inner`,
/// `tagged_only` arm): while the owner replaces an untagged item with a
/// tagged one, a tag-only thief must never claim the untagged item, and the
/// tagged item must still be dispatched exactly once.
#[test]
fn deque_steal_tagged_never_claims_untagged() {
    model_bounded(3, || {
        let d = Arc::new(Deque::with_capacity(2));
        d.push(Tagged(1u64, false));
        let d2 = d.clone();
        let thief = thread::spawn(move || loop {
            match d2.steal_tagged() {
                Steal::Success(Tagged(v, tag)) => return Some((v, tag)),
                Steal::Empty => return None,
                Steal::Retry => {}
            }
        });
        // The untagged item is invisible to the tag-only thief: pop always
        // gets it.
        assert_eq!(
            d.pop(),
            Some(Tagged(1, false)),
            "tag-only thief claimed an untagged item"
        );
        d.push(Tagged(2u64, true));
        let stolen = thief.join();
        let popped = d.pop();
        match stolen {
            Some(v) => {
                assert_eq!(v, (2, true), "thief claimed the untagged item");
                assert_eq!(popped, None, "tagged item dispatched twice");
            }
            None => assert_eq!(popped, Some(Tagged(2, true)), "tagged item lost"),
        }
    });
}

/// Thin tagged slots: an `Arc` goes into its slot as the raw pointer, tag
/// bit beside it, and whichever side claims the slot turns the word back
/// into the `Arc` — exactly once, with the tag it was pushed with.  A word
/// converted twice would double-free, one never converted would leak;
/// either shows in the reference counts.
#[test]
fn deque_thin_slots_hand_each_arc_over_exactly_once() {
    model_bounded(3, || {
        let (a, b) = (Arc::new(1u64), Arc::new(2u64));
        let d = Arc::new(Deque::with_capacity(2));
        let d2 = d.clone();
        let thief = thread::spawn(move || d2.steal_retrying());
        d.push(Tagged(a.clone(), true));
        d.push(Tagged(b.clone(), false));
        let mut claimed = Vec::new();
        claimed.extend(d.pop());
        claimed.extend(thief.join());
        while let Some(item) = d.pop() {
            claimed.push(item);
        }
        let mut seen: Vec<(u64, bool)> = claimed.iter().map(|Tagged(x, tag)| (**x, *tag)).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            [(1, true), (2, false)],
            "lost, duplicated or retagged"
        );
        drop(claimed);
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
    });
}

/// Pop-on-join, first half (deque.rs `pop_if`): the owner's conditional
/// pop of the entry it just absorbed races a thief on the *last* item.
/// The peek claims nothing — the pop protocol that follows does — so
/// exactly one side ends up with the entry, under every interleaving and
/// weak load result.  (The mutation that trusts the peek is shown failing
/// in `crates/check/tests/litmus.rs`, `mini_deque_pop_if_*`.)
#[test]
fn deque_pop_if_vs_thief_on_the_last_item_exactly_once() {
    let explored = model(|| {
        let entry = Arc::new(7u64);
        let word = Arc::as_ptr(&entry) as usize;
        let d = Arc::new(Deque::with_capacity(2));
        d.push(entry.clone());
        let d2 = d.clone();
        let thief = thread::spawn(move || match d2.steal() {
            Steal::Success(v) => Some(v),
            Steal::Empty | Steal::Retry => None,
        });
        let taken = d.pop_if(|w| w == word);
        let stolen = thief.join();
        let claims = usize::from(taken.is_some()) + usize::from(stolen.is_some());
        assert_eq!(claims, 1, "the absorbed entry was claimed {claims} times");
        drop((taken, stolen));
        // Empty now: whatever the slot still shows, nothing comes back.
        assert!(d.pop_if(|_| true).is_none(), "popped a stale slot");
        assert_eq!(Arc::strong_count(&entry), 1);
    });
    assert!(explored.executions > 1);
}

/// Pop-on-join, second half (vp.rs `FastQueue::reap_dead`) against a
/// tag-only thief: the owner pops tagged entries off the bottom, drops the
/// dead one (2), puts the live one (1) back and stops, while the thief
/// works the top.  Each entry is claimed exactly once — reaped, stolen, or
/// left for the final drain — and the owner never sees an entry twice.
#[test]
fn deque_reap_vs_steal_tagged_claims_each_entry_once() {
    model_bounded(3, || {
        let d = Arc::new(Deque::with_capacity(2));
        d.push(Tagged(1u64, true));
        d.push(Tagged(2u64, true));
        let d2 = d.clone();
        let thief = thread::spawn(move || loop {
            match d2.steal_tagged() {
                Steal::Success(Tagged(v, _)) => return Some(v),
                Steal::Empty => return None,
                Steal::Retry => {}
            }
        });
        let mut claimed = Vec::new();
        while let Some(Tagged(v, tag)) = d.pop_if(|word| word & 1 == 1) {
            if v == 1 {
                d.push(Tagged(v, tag)); // live: back where it was
                break;
            }
            claimed.push(v); // dead: reaped
        }
        claimed.extend(thief.join());
        while let Some(Tagged(v, _)) = d.pop() {
            claimed.push(v);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, [1, 2], "reap lost or duplicated an entry");
    });
}

/// Push racing a thief across a buffer growth (capacity 2, third push
/// doubles the buffer): the thief may hold the retired buffer mid-steal,
/// yet every item is still dispatched exactly once.
#[test]
fn deque_push_vs_steal_across_grow() {
    model_bounded(2, || {
        let d = Arc::new(Deque::with_capacity(2));
        let d2 = d.clone();
        let thief = thread::spawn(move || d2.steal_retrying());
        d.push(1u64);
        d.push(2u64);
        d.push(3u64); // grows 2 -> 4, retiring the buffer mid-race
        let mut claimed = Vec::new();
        claimed.extend(thief.join());
        while let Some(v) = d.pop() {
            claimed.push(v);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, [1, 2, 3], "lost or duplicated an item across grow");
    });
}

/// Injector MPSC ordering: two producers racing `push` against a concurrent
/// `drain`.  Nothing is lost or duplicated, and a drain never reorders one
/// producer's submissions (arrival order is restored per drain).
#[test]
fn injector_mpsc_no_loss_no_dup() {
    model_bounded(2, || {
        let q = Arc::new(Injector::new());
        let (qa, qb) = (q.clone(), q.clone());
        let pa = thread::spawn(move || qa.push(1u64));
        let pb = thread::spawn(move || qb.push(2u64));
        // Rescue drain racing the producers (the idle-VP rescue path).
        let mut claimed = q.drain();
        pa.join();
        pb.join();
        claimed.extend(q.drain());
        let mut sorted = claimed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2], "injector lost or duplicated an item");
        assert!(q.is_empty());
    });
}

/// A single producer's submissions come back out in arrival order even when
/// a drain races the pushes: any drain observes a *prefix* of the pushes,
/// never a later item without an earlier one.
#[test]
fn injector_drain_preserves_arrival_order() {
    model_bounded(3, || {
        let q = Arc::new(Injector::new());
        let q2 = q.clone();
        let producer = thread::spawn(move || {
            q2.push(1u64);
            q2.push(2u64);
        });
        let first = q.drain();
        assert!(
            first.is_empty() || first == [1] || first == [1, 2],
            "drain saw a non-prefix: {first:?}"
        );
        producer.join();
        let mut all = first;
        all.extend(q.drain());
        assert_eq!(all, [1, 2], "arrival order lost");
    });
}

/// Two bands, an owner pushing into both while a thief steals: every item
/// is claimed exactly once no matter how the occupancy bits interleave
/// with the per-band Chase–Lev protocols.  The thief is spawned before
/// the pushes, so the only happens-before edges are the ones the deque
/// and bitmask protocols provide.
#[test]
fn multi_deque_two_band_exactly_once() {
    model_bounded(2, || {
        let md = Arc::new(MultiDeque::with_capacity(2));
        let md2 = md.clone();
        let thief = thread::spawn(move || match md2.steal(false) {
            Steal::Success(v) => Some(v),
            Steal::Empty | Steal::Retry => None,
        });
        md.push(0, 10u64);
        md.push(1, 11u64);
        let stolen = thief.join();
        // Quiesced drain (the thief has joined, so pop's bitmask re-check
        // loop sees coherent values and terminates).
        let mut claimed: Vec<u64> = stolen.into_iter().collect();
        while let Some(v) = md.pop(false) {
            claimed.push(v);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, [10, 11], "lost or duplicated across bands");
    });
}

/// The band-bitmask protocol's core obligation: a thief's
/// `clear_if_empty` (fetch_and, then re-check, then fetch_or) racing an
/// owner push to the same band must never leave the band's occupancy bit
/// cleared while an item sits in the band — `pop` trusts the bitmask, so
/// a stranded item would be invisible forever.  The dropped-Release
/// mutation for this scenario lives in `crates/check/tests/litmus.rs`
/// (`banded_bitmask_*`).
#[test]
fn multi_deque_occupancy_never_strands_an_item() {
    model_bounded(2, || {
        let md = Arc::new(MultiDeque::with_capacity(2));
        // Seed band 1 so the thief's steal drains it and runs the
        // clear-then-recheck against the owner's racing second push.
        md.push(1, 1u64);
        let md2 = md.clone();
        let thief = thread::spawn(move || {
            let a = match md2.steal(false) {
                Steal::Success(v) => Some(v),
                Steal::Empty | Steal::Retry => None,
            };
            let b = match md2.steal(false) {
                Steal::Success(v) => Some(v),
                Steal::Empty | Steal::Retry => None,
            };
            (a, b)
        });
        md.push(1, 2u64);
        let (a, b) = thief.join();
        let mut claimed: Vec<u64> = [a, b].into_iter().flatten().collect();
        while let Some(v) = md.pop(true) {
            claimed.push(v);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, [1, 2], "occupancy bit stranded an item");
        assert!(md.is_empty());
        assert_eq!(
            md.occupancy_bits() & ((1 << BANDS) - 1),
            0,
            "quiesced empty deque must have no occupancy bits set"
        );
    });
}

/// `Injector::push_batch` publishes its whole batch — here the
/// scheduler's `(band, item)` pairs — with one CAS: a concurrent drain
/// sees either none of the batch or all of it, in order — never a partial
/// or reordered slice.  This is the batched-wake atomicity the
/// barrier/broadcast sweeps rely on.
#[test]
fn injector_batch_publishes_atomically() {
    model_bounded(2, || {
        let q = Arc::new(Injector::new());
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.push_batch([(0usize, 1u64), (1usize, 2u64)]));
        let first = q.drain();
        assert!(
            first.is_empty() || first == [(0, 1), (1, 2)],
            "partial batch visible: {first:?}"
        );
        producer.join();
        let mut all = first;
        all.extend(q.drain());
        assert_eq!(all, [(0, 1), (1, 2)], "batch lost or reordered");
    });
}

/// The trace ring's ticket/seq publish protocol: a reader snapshotting
/// while a writer laps a capacity-2 ring must never surface a torn record
/// as valid.  Records are self-checking — every word carries the same tag.
#[test]
fn trace_ring_reader_never_surfaces_torn_record() {
    fn drained(ring: &Ring) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        ring.drain_into(&mut out, 0);
        out
    }
    model_bounded(3, || {
        // One lane's ring of capacity 2, so the third record wraps and
        // overwrites mid-snapshot.
        let ring = Arc::new(Ring::new(2));
        let r2 = ring.clone();
        let writer = thread::spawn(move || {
            for i in 1..=3u64 {
                r2.record(i, 0, EventKind::Fork, i, i as u32, i as u32, i);
            }
        });
        for e in drained(&ring) {
            assert_eq!(e.kind, EventKind::Fork);
            assert!(
                e.thread == e.a as u64 && e.a == e.b && (1..=3).contains(&e.a),
                "torn record surfaced as valid: {e:?}"
            );
        }
        writer.join();
        // After the writer finishes the newest records are all resident.
        let final_threads: Vec<u64> = drained(&ring).iter().map(|e| e.thread).collect();
        assert!(ring.truncated(), "a lapped ring must report truncation");
        for e in drained(&ring) {
            assert!(
                e.thread == e.a as u64 && e.a == e.b && (1..=3).contains(&e.a),
                "torn record surfaced as valid: {e:?}"
            );
        }
        assert!(
            final_threads.contains(&3),
            "newest record missing from quiescent snapshot: {final_threads:?}"
        );
    });
}

/// Who may run a deque's owner operations: the production [`OwnerWord`],
/// or a stand-in whose give-back is weakened.
trait Owner: Send + Sync + 'static {
    fn take(&self) -> bool;
    fn give_back(&self);
}

impl Owner for OwnerWord {
    fn take(&self) -> bool {
        self.try_take()
    }

    fn give_back(&self) {
        OwnerWord::give_back(self);
    }
}

/// The mutation: an owner word given back with a Relaxed store, which
/// hands the next owner nothing the last one did.
#[derive(Default)]
struct RelaxedOwner(AtomicBool);

impl Owner for RelaxedOwner {
    fn take(&self) -> bool {
        !self.0.load(Ordering::Relaxed) && !self.0.swap(true, Ordering::Acquire)
    }

    fn give_back(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// The owner hand-off (`OwnerWord`, and `Vp::run_slice` around it): two
/// workers take a VP's owner word in turn, and each runs owner pushes and
/// pops on the production `Deque` while it holds it — the second folds a
/// remote submitter's `Injector` push in first, as a VP's pop does — while
/// a thief steals.  Every thread is spawned before any push, so what the
/// second owner knows of the first one's `bottom` comes only through the
/// word.  No item is lost or dispatched twice.
fn owner_hand_off(word: impl Owner) {
    let word = Arc::new(word);
    let d = Arc::new(Deque::with_capacity(4));
    let injector = Arc::new(Injector::new());
    assert!(word.take(), "worker A holds the word first");
    let thief = {
        let d = d.clone();
        thread::spawn(move || match d.steal() {
            Steal::Success(v) => Some(v),
            Steal::Empty | Steal::Retry => None,
        })
    };
    let submitter = {
        let injector = injector.clone();
        thread::spawn(move || injector.push(3u64))
    };
    let worker_b = {
        let (word, d, injector) = (word.clone(), d.clone(), injector.clone());
        thread::spawn(move || {
            let mut ran = Vec::new();
            if word.take() {
                for v in injector.take_all() {
                    d.push(v);
                }
                ran.extend(d.pop());
                word.give_back();
            }
            ran
        })
    };
    d.push(1u64);
    d.push(2u64);
    let mut claimed: Vec<u64> = d.pop().into_iter().collect();
    word.give_back();
    claimed.extend(worker_b.join());
    claimed.extend(thief.join());
    submitter.join();
    // Quiesced: whatever is left is drained once.
    claimed.extend(injector.take_all());
    while let Some(v) = d.pop() {
        claimed.push(v);
    }
    claimed.sort_unstable();
    assert_eq!(
        claimed,
        [1, 2, 3],
        "lost or duplicated an item: {claimed:?}"
    );
}

/// The production hand-off: a take that follows a give-back sees the
/// deque as the last owner left it.
#[test]
fn owner_hand_off_loses_and_duplicates_nothing() {
    model_bounded(2, || owner_hand_off(OwnerWord::default()));
}

/// Expect-failure mutation: with the give-back Relaxed, the second owner
/// can run on a stale `bottom` — the checker must report the lost or
/// duplicated item, or the deque's own assertion that a pop claimed a slot
/// twice or before its write.
#[test]
fn owner_hand_off_with_a_relaxed_give_back_loses_an_item() {
    let report = model_bounded_expect_failure(2, || owner_hand_off(RelaxedOwner::default()));
    assert!(
        report.contains("lost or duplicated") || report.contains("double claim"),
        "unexpected report:\n{report}"
    );
}
