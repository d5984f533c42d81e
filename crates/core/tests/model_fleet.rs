//! Model-checked scenarios over the *production* shard inbox
//! (`sting_core::fleet::Inbox`) — the MPSC injector plus consumer claim
//! that every TCB handoff and routed call to a shard crosses.
//!
//! Compiles only under `RUSTFLAGS="--cfg sting_check"` (`./ci.sh check`),
//! which switches the injector and the claim onto the sting-check shim
//! atomics (and exports the type) so every interleaving and weak-memory
//! load result is explored.  The expect-failure mutation removes the
//! claim by draining the production `deque::Injector` directly, which is
//! what the inbox is without it.
//!
//! A push compares node pointers, so a node that a drain freed and the
//! next push got back at the same address would let a stale
//! compare-and-swap succeed (harmlessly: the new node is the head it
//! expected).  Whether the allocator hands an address back depends on its
//! own state, which the checker neither records nor replays, so a replay
//! could take another branch than the run it repeats.  This binary's
//! allocator therefore holds every free back until [`QUARANTINE`] later
//! frees: no address comes back within one execution.

#![cfg(sting_check)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::{Arc, Mutex};
use sting_check::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use sting_check::{model, model_bounded, model_bounded_expect_failure, thread};
use sting_core::deque::Injector;
use sting_core::fleet::Inbox;

/// Frees held back before the system allocator sees them.
const QUARANTINE: usize = 4096;

/// The held frees, `(address, size, align)`, and the slot the next one
/// takes.
static HELD: Mutex<(usize, [(usize, usize, usize); QUARANTINE])> =
    Mutex::new((0, [(0, 0, 0); QUARANTINE]));

/// The system allocator, with each free held back (see the module docs).
struct Quarantined;

// SAFETY: every block comes from `System` and goes back to it with the
// layout it was allocated with, only later.
unsafe impl GlobalAlloc for Quarantined {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (addr, size, align) = {
            let mut held = HELD.lock().unwrap_or_else(|e| e.into_inner());
            let slot = held.0;
            held.0 = (slot + 1) % QUARANTINE;
            std::mem::replace(
                &mut held.1[slot],
                (ptr as usize, layout.size(), layout.align()),
            )
        };
        if addr != 0 {
            // SAFETY: the entry was a live `System` block and its layout.
            unsafe {
                System.dealloc(
                    addr as *mut u8,
                    Layout::from_size_align_unchecked(size, align),
                )
            };
        }
    }
}

#[global_allocator]
static ALLOCATOR: Quarantined = Quarantined;

/// What the scenarios need of a shard's mail: posting, and a drain that
/// applies what it takes.
trait Mail: Send + Sync + 'static {
    fn post(&self, v: u64);
    fn deliver(&self, apply: &mut dyn FnMut(u64));
}

impl Mail for Inbox<u64> {
    fn post(&self, v: u64) {
        self.push(v);
    }
    fn deliver(&self, apply: &mut dyn FnMut(u64)) {
        self.drain(apply);
    }
}

/// The inbox without its claim: every drain applies what it took, so two
/// VPs of one shard can apply at once.
impl Mail for Injector<u64> {
    fn post(&self, v: u64) {
        self.push(v);
    }
    fn deliver(&self, apply: &mut dyn FnMut(u64)) {
        self.take_all().for_each(apply);
    }
}

/// The order messages were applied in: each application takes the next
/// slot with one read-modify-write, so slot order is application order.
struct Log {
    len: AtomicUsize,
    slots: [AtomicU64; 4],
}

impl Log {
    fn new() -> Log {
        Log {
            len: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn apply(&self, v: u64) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        self.slots[i].store(v, Ordering::Relaxed);
    }

    /// The log, read after every writer was joined.
    fn read(&self) -> Vec<u64> {
        let len = self.len.load(Ordering::Relaxed);
        self.slots[..len]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }
}

/// Two producers post two messages each (`1, 2` from the main thread,
/// `11, 12` from another) while two consumers — two VPs of the
/// destination shard — drain; a last drain after everyone is joined
/// collects the rest.  Every message is applied exactly once, and each
/// producer's messages in its posting order.
fn two_producers_two_consumers<M: Mail>(mail: M) {
    let mail = Arc::new(mail);
    let log = Arc::new(Log::new());
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let (mail, log) = (mail.clone(), log.clone());
            thread::spawn(move || mail.deliver(&mut |v| log.apply(v)))
        })
        .collect();
    let producer = {
        let mail = mail.clone();
        thread::spawn(move || {
            mail.post(11);
            mail.post(12);
        })
    };
    mail.post(1);
    mail.post(2);
    producer.join();
    for c in consumers {
        c.join();
    }
    mail.deliver(&mut |v| log.apply(v));
    let got = log.read();
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, [1, 2, 11, 12], "lost or duplicated: {got:?}");
    for first in [1, 11] {
        let mine: Vec<u64> = got
            .iter()
            .copied()
            .filter(|v| v / 10 == first / 10)
            .collect();
        assert_eq!(
            mine,
            [first, first + 1],
            "applied out of posting order: {got:?}"
        );
    }
}

/// The production inbox: two producers race two consumers that contend
/// for the claim, and nothing is lost, duplicated or reordered.
#[test]
fn inbox_two_producers_two_consumers_exactly_once_in_order() {
    model_bounded(2, || two_producers_two_consumers(Inbox::default()));
}

/// Expect-failure mutation: without the claim, a consumer applies a later
/// message while the one that took the earlier has yet to apply it.
#[test]
fn inbox_without_its_claim_applies_out_of_order() {
    let report = model_bounded_expect_failure(2, || two_producers_two_consumers(Injector::new()));
    assert!(
        report.contains("applied out of posting order"),
        "unexpected report:\n{report}"
    );
}

/// No lost remote wake: the producer posts, then raises the wake signal
/// (standing in for `Vm::signal_work`).  Any consumer that observes the
/// signal must also observe the message — the injector's Release publish
/// happens-before the signal's Release/Acquire edge.
#[test]
fn inbox_wake_signal_implies_message_visible() {
    model(|| {
        let inbox: Arc<Inbox<u64>> = Arc::new(Inbox::default());
        let signal = Arc::new(AtomicBool::new(false));
        let (i2, s2) = (inbox.clone(), signal.clone());
        let producer = thread::spawn(move || {
            i2.push(7);
            s2.store(true, Ordering::Release);
        });
        if signal.load(Ordering::Acquire) {
            let mut got: Vec<u64> = Vec::new();
            inbox.drain(|v| got.push(v));
            assert_eq!(got, [7], "woken consumer found an empty inbox");
        }
        producer.join();
    });
}
