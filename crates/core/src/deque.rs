//! Lock-free scheduler queues: a Chase–Lev work-stealing deque, the banded
//! multi-level deque every substrate-kept ready queue is, and an MPSC
//! submission stack.
//!
//! This module is the *mechanism* half of the two-tier scheduler described
//! in DESIGN.md ("Scheduler fast path").  The paper's §3.3 observes that a
//! policy manager may keep "the queue of evaluating threads locally" so
//! that accessing it "requires no locking", while policy decisions —
//! where a fork goes, which victim an idle VP raids — stay in the
//! replaceable [`PolicyManager`](crate::pm::PolicyManager).  The
//! [`Deque`] here is that lock-free local queue: the VP that owns it
//! pushes and pops without a compare-and-swap on the common path, and
//! idle sibling VPs [`steal`](Deque::steal) from the opposite end with
//! one CAS per item.
//!
//! Three structures cooperate per VP:
//!
//! * [`Deque`] — the Chase–Lev deque \[Chase & Lev, SPAA 2005\], with the
//!   memory orderings of Lê et al., *Correct and Efficient Work-Stealing
//!   for Weak Memory Models* (PPoPP 2013).  Only the worker holding the
//!   VP's [`OwnerWord`] (the *owner*) may call [`push`](Deque::push) and
//!   [`pop`](Deque::pop); any thread may [`steal`](Deque::steal).
//! * [`MultiDeque`] — a small fixed array of [`BANDS`] Chase–Lev deques
//!   indexed by priority band, plus one `AtomicUsize` of occupancy bits so
//!   pop and steal find the highest non-empty band in O(1) without locks.
//!   Priority and deadline policies spread their items over the bands;
//!   FIFO and LIFO policies keep everything in band 0 of the same
//!   structure.
//! * [`Injector`] — a Treiber-stack MPSC queue for *remote* submissions
//!   (forks from host threads, cross-VP wake-ups, due timers).  Any
//!   thread may [`push`](Injector::push); the owner periodically
//!   [`take_all`](Injector::take_all)s it into the deque, which restores
//!   arrival order and makes the items stealable.  [`Injector::push_batch`]
//!   publishes *n* items with **one** CAS — the batched wake-up path
//!   (`wake_all`, barrier release) uses it to amortize the slow path.
//!   The scheduler's injector carries `(band, item)` pairs, classified
//!   once at submission, so the owner's drain can fold each item into the
//!   right [`MultiDeque`] band and the thief-side rescue can prefer the
//!   highest band in the backlog.
//!
//! ## The occupancy-bit protocol
//!
//! Band `b`'s bit is set with `fetch_or` **after** the item is pushed
//! (Release, so a scanner that Acquires the word also sees the push), and
//! cleared with `fetch_and` only when a scan observed the band empty —
//! followed by a re-check that re-sets the bit if an item raced in.  When
//! clears can race pushes, the two RMWs serialize on the occupancy word,
//! so the re-check always sees the racing push (the `fetch_or`'s Release
//! is what carries it; the model-checker mutation in
//! `crates/check/tests/litmus.rs` shows a Relaxed publish stranding an
//! item behind a cleared bit).  A set bit for an empty band is harmless
//! (one wasted probe); a clear bit for a non-empty band would be a lost
//! item, and the protocol above makes that window close on the very next
//! scan.
//!
//! [`MultiDeque`] keeps **every occupancy write on the owner**: `push`
//! publishes, `pop` clears, and thieves treat the word as a read-only
//! hint (a stale set bit costs a thief two loads to skip; [`Deque`]'s own
//! top/bottom protocol re-validates every claim).  Single-writer
//! occupancy buys the fast path its cheapest possible shape — a push
//! whose band bit is already set (the steady state of a busy queue) skips
//! the RMW entirely, because no concurrent clear can invalidate the
//! owner's read of its own last write.  The clear itself still runs the
//! full clear/re-check protocol above, so the structure stays correct if
//! a future caller ever clears from a second thread.
//!
//! ## Thin tagged slots
//!
//! A slot holds one machine word, produced by the item's [`Slot`]
//! encoding, so a torn read of a slot is impossible and the ABA question
//! reduces to the monotonically increasing `top` counter, which a 64-bit
//! process cannot wrap.  The scheduler's items are already pointers — a
//! fresh thread is an `Arc<Thread>`, a parked TCB the pointer to its
//! record — and go into the slot as they are, so no push allocates.
//! Buffers retired by
//! [`Deque::push`] growth are kept alive until the deque drops, so a thief
//! holding a stale buffer pointer reads stale *data* (discarded when its
//! CAS fails), never freed memory.
//!
//! The low bit of each word is a **tag** chosen by the encoding, readable
//! by a thief *without claiming the item* ([`Deque::steal_tagged`]).  The
//! scheduler tags fresh (never-run) threads so a policy that forbids TCB
//! migration can decline a parked item with two loads instead of a
//! steal-inspect-put-back round trip.
//!
//! ## Pop-on-join
//!
//! A toucher that absorbs a scheduled thread (§4.1 stealing) leaves that
//! thread's ready-queue entry dead.  [`Deque::pop_if`] lets the owner take
//! an entry back *by identity*: it peeks the bottom word — a plain load, no
//! claim, so the predicate must not dereference it — and runs the ordinary
//! [`pop`](Deque::pop) protocol only on a match.  The scheduler uses it to
//! remove the absorbed thread's entry at the touch, and to reap entries
//! that died underneath it once the inline run returns (DESIGN.md,
//! "Scheduler fast path", has the argument that queue length stays bounded
//! by live work).

use crate::pad::CachePadded;
use parking_lot::Mutex;
use std::ptr;
use std::sync::Arc;

// Under `--cfg sting_check` the atomics are the model checker's shims, so
// `ci.sh check` explores this exact production source (see
// crates/core/tests/model.rs); in normal builds they are std's.
#[cfg(not(sting_check))]
use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
#[cfg(sting_check)]
use sting_check::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};

/// An item that fits in one deque slot: a non-zero machine word whose low
/// bit is the item's *tag*.
///
/// Pointer-shaped items implement this by handing over their raw pointer
/// (`Arc<T>`, `Box<T>`), leaving the tag clear; the scheduler's
/// [`RunItem`](crate::pm::RunItem) sets it on fresh threads.  Plain
/// integers — the items of this module's own tests — have no spare bit and
/// ride in a `Box`.
pub trait Slot: Sized {
    /// Gives up ownership of `self` as one non-zero word.  The low bit is
    /// the tag [`Deque::steal_tagged`] tests.
    fn into_word(self) -> usize;

    /// Takes ownership back.
    ///
    /// # Safety
    ///
    /// `word` must have come from [`Slot::into_word`] of the same type and
    /// must be converted back at most once.
    unsafe fn from_word(word: usize) -> Self;
}

impl<T> Slot for Arc<T> {
    fn into_word(self) -> usize {
        const { assert!(std::mem::align_of::<T>() >= 2, "low bit must be free") };
        Arc::into_raw(self) as usize
    }

    unsafe fn from_word(word: usize) -> Arc<T> {
        // SAFETY: per the trait contract, `word` is an unconsumed
        // `Arc::into_raw` pointer.
        unsafe { Arc::from_raw(word as *const T) }
    }
}

impl<T> Slot for Box<T> {
    fn into_word(self) -> usize {
        const { assert!(std::mem::align_of::<T>() >= 2, "low bit must be free") };
        Box::into_raw(self) as usize
    }

    unsafe fn from_word(word: usize) -> Box<T> {
        // SAFETY: per the trait contract, `word` is an unconsumed
        // `Box::into_raw` pointer.
        unsafe { Box::from_raw(word as *mut T) }
    }
}

/// Test fixture: `item` with a caller-chosen tag bit (see
/// [`Deque::steal_tagged`]); the inner encoding must leave the low bit
/// clear, as `Arc`, `Box` and the boxed `u64` do.  Compiled only for
/// this module's unit tests and the `--cfg sting_check` models.
#[cfg(any(test, sting_check))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged<S>(pub S, pub bool);

#[cfg(any(test, sting_check))]
impl<S: Slot> Slot for Tagged<S> {
    fn into_word(self) -> usize {
        let word = self.0.into_word();
        debug_assert_eq!(word & 1, 0, "inner encoding already uses the tag bit");
        word | usize::from(self.1)
    }

    unsafe fn from_word(word: usize) -> Tagged<S> {
        // SAFETY: `word & !1` is the inner item's word (trait contract).
        Tagged(unsafe { S::from_word(word & !1) }, word & 1 == 1)
    }
}

/// The item type of this module's tests and of `tests/deque.rs`, which
/// exercise the structures on their own, away from the scheduler.
impl Slot for u64 {
    fn into_word(self) -> usize {
        Box::new(self).into_word()
    }

    unsafe fn from_word(word: usize) -> u64 {
        // SAFETY: the word is this impl's `Box` (trait contract).
        unsafe { *Box::<u64>::from_word(word) }
    }
}

/// Outcome of one [`Deque::steal`] attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Another thief (or the owner, taking the last item) won the race;
    /// the caller may retry.
    Retry,
    /// One item was removed from the top (oldest end) of the deque.
    Success(T),
}

/// A growable ring of item words.  Slots are atomic so stale reads by
/// thieves racing a wrap-around are defined behaviour (the value is used
/// only after winning the `top` CAS, which a lapped thief loses).
struct Buffer {
    mask: usize,
    slots: Box<[AtomicUsize]>,
}

impl Buffer {
    fn alloc(capacity: usize) -> *mut Buffer {
        debug_assert!(capacity.is_power_of_two());
        Box::into_raw(Box::new(Buffer {
            mask: capacity - 1,
            slots: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
        }))
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn get(&self, index: isize) -> usize {
        self.slots[index as usize & self.mask].load(Ordering::Relaxed)
    }

    fn put(&self, index: isize, word: usize) {
        self.slots[index as usize & self.mask].store(word, Ordering::Relaxed);
    }
}

/// A Chase–Lev work-stealing deque.
///
/// The *owner* — by contract, one thread at a time (the holder of an
/// [`OwnerWord`]; a VP's slice holds the VP's) — pushes
/// and pops at the **bottom**; *thieves* on any thread steal at the **top**
/// (the oldest item).  Owner operations are wait-free except when the
/// single remaining item must be raced against thieves; steals are
/// lock-free (one CAS per item).
///
/// Calling `push`/`pop` from two threads concurrently is memory-safe (all
/// slot traffic is atomic) but can *lose or duplicate dispatch of items*;
/// it is a logic error, not UB.
#[derive(Debug)]
pub struct Deque<T: Slot> {
    /// Steal end; monotonically increasing, never decremented.  Thieves
    /// CAS it, so it gets a line of its own: an owner that only pushes and
    /// pops (`bottom`, below) never takes a miss for a steal elsewhere.
    top: CachePadded<AtomicIsize>,
    /// Owner end; `bottom - top` is the queue length.
    bottom: CachePadded<AtomicIsize>,
    buffer: AtomicPtr<Buffer>,
    /// Buffers replaced by growth, kept until drop so racing thieves never
    /// read freed memory.  Touched only on growth (owner) and drop.
    retired: Mutex<Vec<*mut Buffer>>,
    _items: std::marker::PhantomData<T>,
}

// SAFETY: items are owned uniquely by whichever side removes them; all
// shared state is atomic.
unsafe impl<T: Slot + Send> Send for Deque<T> {}
// SAFETY: as above — the Chase–Lev protocol hands each item to exactly one
// claimant, and the buffer pointer is only retired, never freed, while shared.
unsafe impl<T: Slot + Send> Sync for Deque<T> {}

/// Initial buffer capacity (items); grows by doubling when full.
const INITIAL_CAPACITY: usize = 64;

impl<T: Slot> Default for Deque<T> {
    fn default() -> Deque<T> {
        Deque::new()
    }
}

impl<T: Slot> Deque<T> {
    /// Creates an empty deque with the default initial capacity.
    pub fn new() -> Deque<T> {
        Deque::with_capacity(INITIAL_CAPACITY)
    }

    /// Creates an empty deque whose first buffer holds `capacity` items
    /// (rounded up to a power of two).  Small capacities are useful in
    /// tests to force growth and ring wrap-around.
    pub fn with_capacity(capacity: usize) -> Deque<T> {
        let capacity = capacity.next_power_of_two().max(2);
        Deque {
            top: CachePadded(AtomicIsize::new(0)),
            bottom: CachePadded(AtomicIsize::new(0)),
            buffer: AtomicPtr::new(Buffer::alloc(capacity)),
            retired: Mutex::new(Vec::new()),
            _items: std::marker::PhantomData,
        }
    }

    /// Number of items currently queued (a relaxed snapshot).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// Whether the deque is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `item` at the bottom.  **Owner only.**  Wait-free (amortized:
    /// a full buffer is doubled, retiring the old one).  The slot holds the
    /// item's [`Slot`] word, tag bit included, so thieves can read the tag
    /// without claiming the item; see [`Deque::steal_tagged`].
    pub fn push(&self, item: T) {
        let word = item.into_word();
        debug_assert_ne!(word, 0, "a slot word must be non-zero");
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        // SAFETY: the buffer pointer is always valid; old buffers are
        // retired, not freed.
        let mut buffer = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        if b - t >= buffer.capacity() as isize {
            self.grow(t, b);
            // SAFETY: buffer valid (see above); grow just stored it.
            buffer = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        }
        buffer.put(b, word);
        // Publish the slot before the new bottom: a thief that Acquires
        // `bottom` must see the item.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Removes the item at the bottom — the *newest*, LIFO order.  **Owner
    /// only.**  Wait-free except when one item remains, which is raced
    /// against thieves with a single CAS on `top`.
    pub fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buffer = self.buffer.load(Ordering::Relaxed);
        // Release, not Relaxed: since C++20 weakened release sequences
        // (P0982), a thief that Acquires *this* store would otherwise get no
        // synchronization at all — it could observe `bottom > top` through a
        // stale mix and claim a slot whose contents it never saw published.
        // Every owner-side `bottom` store therefore carries the slots it
        // promises.  (Found by the sting-check model, which implements the
        // post-C++20 rules; Lê et al.'s Relaxed store leans on the pre-C++20
        // same-thread release-sequence clause.)
        self.bottom.store(b, Ordering::Release);
        // The SeqCst fence orders our `bottom` store against our `top`
        // load: either a concurrent thief sees the decremented bottom and
        // keeps its hands off the last item, or we see its incremented top
        // and go through the CAS.  (This is the owner/thief race the
        // DESIGN.md fast-path section walks through.)
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty; restore the canonical empty state (Release for
            // the same P0982 reason as the decrement above).
            self.bottom.store(b + 1, Ordering::Release);
            return None;
        }
        // SAFETY: buffer valid (see push); the slot at `b` was written by
        // a previous push on this same (owner) thread.
        let word = unsafe { (*buffer).get(b) };
        if t == b {
            // Last item: win it against thieves or concede it.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Release);
            if !won {
                return None;
            }
        }
        debug_assert_ne!(
            word, 0,
            "pop claimed an empty slot (double claim or unpublished write)"
        );
        #[cfg(debug_assertions)]
        // Poison the claimed slot: a second claim of the same slot now trips
        // the zero assertions instead of double-freeing the item.  Safe
        // because no thief can win a CAS for this index anymore (either
        // b > t, so no thief can reach it, or the CAS above succeeded), and
        // a re-push overwrites the slot first.
        // SAFETY: buffer valid (see push).
        unsafe {
            (*buffer).put(b, 0);
        }
        // SAFETY: restoring `bottom` (or winning the last-item CAS) gave the
        // owner unique claim to slot `b`; no other path converts this word.
        Some(unsafe { T::from_word(word) })
    }

    /// [`Deque::pop`], but only if `matches` accepts the bottom word — the
    /// owner-side conditional pop of pop-on-join (see the module docs).
    /// **Owner only.**
    ///
    /// The word is peeked with a plain load before anything is claimed, so
    /// `matches` may compare it (with a pointer it holds, or its tag bit)
    /// but must not dereference it: a thief may be claiming and freeing the
    /// same item, and on an empty deque the slot is stale.  Only the owner
    /// writes slots and `bottom`, so when the pop that follows returns an
    /// item it is the one whose word was shown.
    pub fn pop_if(&self, matches: impl FnOnce(usize) -> bool) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed);
        // SAFETY: buffer valid (see push).
        let word = unsafe { (*self.buffer.load(Ordering::Relaxed)).get(b - 1) };
        if word != 0 && matches(word) {
            self.pop()
        } else {
            None
        }
    }

    /// Attempts to remove the item at the top — the *oldest*, FIFO order.
    /// Safe from any thread; lock-free.  A [`Steal::Retry`] means the CAS
    /// was lost to a concurrent remover, not that the deque is empty.
    pub fn steal(&self) -> Steal<T> {
        self.steal_inner(false)
    }

    /// [`Deque::steal`] that declines — returning [`Steal::Empty`] without
    /// disturbing the queue — when the top item's tag bit (the low bit of
    /// its [`Slot`] word) is clear.
    pub fn steal_tagged(&self) -> Steal<T> {
        self.steal_inner(true)
    }

    fn steal_inner(&self, tagged_only: bool) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Order the `top` load before the `bottom` load, pairing with the
        // fence in `pop` (see DESIGN.md for the full argument).
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Read the slot BEFORE claiming it: after the CAS the owner may
        // recycle the slot for a new push.  SAFETY: buffer valid (see
        // push); a stale buffer from a concurrent growth is still
        // allocated (retired list) and the CAS below fails if the item
        // moved on.
        let buffer = unsafe { &*self.buffer.load(Ordering::Acquire) };
        let word = buffer.get(t);
        if tagged_only && word & 1 == 0 {
            // The label is only trustworthy if the slot still holds the
            // item we measured; a stale read is caught by the same check a
            // successful steal relies on.
            if self.top.load(Ordering::SeqCst) == t {
                return Steal::Empty;
            }
            return Steal::Retry;
        }
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        debug_assert_ne!(
            word, 0,
            "steal claimed an empty slot (double claim or unpublished write)"
        );
        // SAFETY: the CAS on `top` grants unique ownership of slot `t`, so
        // this is the only place that converts this word back.
        Steal::Success(unsafe { T::from_word(word) })
    }

    /// [`Deque::steal`], retried until it yields an item or observes the
    /// deque empty.
    pub fn steal_retrying(&self) -> Option<T> {
        loop {
            match self.steal() {
                Steal::Success(item) => return Some(item),
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        }
    }

    /// Doubles the buffer, copying the live window `t..b`.  Owner only
    /// (called from [`Deque::push`]).
    fn grow(&self, t: isize, b: isize) {
        let old_ptr = self.buffer.load(Ordering::Relaxed);
        // SAFETY: buffer valid (see push).
        let old = unsafe { &*old_ptr };
        let new_ptr = Buffer::alloc(old.capacity() * 2);
        // SAFETY: freshly allocated above, not yet shared.
        let new = unsafe { &*new_ptr };
        for i in t..b {
            new.put(i, old.get(i));
        }
        // Release: a thief Acquiring the new pointer sees the copied slots.
        self.buffer.store(new_ptr, Ordering::Release);
        self.retired.lock().push(old_ptr);
    }
}

impl<T: Slot> Drop for Deque<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent owner or thieves remain.
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buffer_ptr = *self.buffer.get_mut();
        // SAFETY: exclusive access; every live word in t..b was produced by
        // push and not yet reclaimed.
        unsafe {
            let buffer = &*buffer_ptr;
            for i in t..b {
                drop(T::from_word(buffer.get(i)));
            }
            drop(Box::from_raw(buffer_ptr));
            for retired in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(retired));
            }
        }
    }
}

/// The right to a deque's owner-only operations ([`Deque::push`],
/// [`Deque::pop`], [`Deque::pop_if`]): whichever thread holds the word.
///
/// Any thread may take it, so the owner can change between two owner
/// operations.  Taking it (an Acquire swap) synchronizes with the last
/// give-back (a Release store): the new owner sees `bottom` and the slots
/// as the last owner left them.  A VP's word is held for one slice at a
/// time, by whichever machine worker took it ([`crate::vp`]).
#[derive(Debug, Default)]
pub struct OwnerWord(AtomicBool);

impl OwnerWord {
    /// Whether some thread holds the word (a plain load).
    pub fn is_taken(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Takes the word if nobody holds it.  A held word is only read, so a
    /// thread passing it by does not pull its line away from the holder.
    pub fn try_take(&self) -> bool {
        !self.is_taken() && !self.0.swap(true, Ordering::Acquire)
    }

    /// Gives the word back; the next taker sees what this owner did.
    pub fn give_back(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Number of priority bands in the multi-level deque tier.
///
/// Small and fixed on purpose: the occupancy word needs one bit per band,
/// the scan is a handful of loads, and the shipped policies quantize
/// priorities (and deadlines) into this many urgency classes — see
/// [`BandMap`](crate::pm::BandMap).
pub const BANDS: usize = 4;

/// A lock-free **multi-level** work-stealing deque: [`BANDS`] Chase–Lev
/// deques indexed by priority band (higher band = more urgent), plus an
/// O(1) non-empty-band bitmask so [`pop`](MultiDeque::pop) and
/// [`steal`](MultiDeque::steal) scan highest-band-first without locks.
///
/// The owner/thief contract is the [`Deque`] one, band by band: one owner
/// pushes and pops, any thread steals.  The occupancy word is
/// single-writer: the owner publishes a band's bit after pushing into it
/// (Release — see the module docs for why that ordering is load-bearing)
/// and retires a bit when a pop scan finds the band empty, with a
/// re-check that re-sets the bit if an item is still present.  Thieves
/// only read the word, so a stale set bit costs them two loads, never a
/// cache-line invalidation.
#[derive(Debug)]
pub struct MultiDeque<T: Slot> {
    /// Bit `b` set ⇒ band `b` *may* be non-empty.  The invariant the
    /// protocol maintains is one-sided: a non-empty band always has its
    /// bit set once its push has returned; a set bit may be stale.
    /// Written only by the owner, and only when a bit actually changes, so
    /// thieves scanning it share the line read-only in steady state.
    occupancy: AtomicUsize,
    bands: [Deque<T>; BANDS],
}

impl<T: Slot> Default for MultiDeque<T> {
    fn default() -> MultiDeque<T> {
        MultiDeque::new()
    }
}

impl<T: Slot> MultiDeque<T> {
    /// Creates an empty multi-level deque with default per-band capacity.
    pub fn new() -> MultiDeque<T> {
        MultiDeque::with_capacity(INITIAL_CAPACITY)
    }

    /// Creates an empty multi-level deque whose bands each start with
    /// `capacity` slots (rounded up to a power of two).
    pub fn with_capacity(capacity: usize) -> MultiDeque<T> {
        MultiDeque {
            occupancy: AtomicUsize::new(0),
            bands: std::array::from_fn(|_| Deque::with_capacity(capacity)),
        }
    }

    /// Total number of items queued across all bands (a relaxed snapshot).
    pub fn len(&self) -> usize {
        self.bands.iter().map(Deque::len).sum()
    }

    /// Whether every band is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items in one band (a relaxed snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `band >= BANDS`.
    pub fn band_len(&self, band: usize) -> usize {
        self.bands[band].len()
    }

    /// Snapshot of the occupancy bitmask (bit `b` = band `b` may be
    /// non-empty).  Exposed for tests and the model-checker scenarios that
    /// assert the no-stranded-item invariant.
    pub fn occupancy_bits(&self) -> usize {
        self.occupancy.load(Ordering::Acquire)
    }

    /// Appends `item` to `band`.  **Owner only.**  Publishes the band's
    /// occupancy bit after the push (Release), so any scanner that sees
    /// the bit also sees the item.
    ///
    /// # Panics
    ///
    /// Panics if `band >= BANDS`.
    pub fn push(&self, band: usize, item: T) {
        self.bands[band].push(item);
        // Occupancy is single-writer (this owner), so reading our own last
        // write is exact, and a busy band — bit already set — publishes
        // with no RMW at all.  When the bit does need setting, Release
        // pairs with the Acquire occupancy load in scans, so a scanner
        // that sees the bit also sees the push.  (Were clears concurrent,
        // the publish would have to be unconditional: the clear-side
        // re-check only sees a racing push through the RMW serialization
        // on this word — the litmus pair `banded_bitmask_*` in
        // crates/check/tests/litmus.rs model-checks exactly that protocol,
        // including the Relaxed-publish mutation stranding an item.)
        if self.occupancy.load(Ordering::Relaxed) & (1 << band) == 0 {
            self.occupancy.fetch_or(1 << band, Ordering::Release);
        }
    }

    /// Removes the most urgent item: scans set occupancy bits highest
    /// band first, popping from the band's hot end (`fifo == false`, the
    /// wait-free LIFO pop) or its cold end (`fifo == true`, oldest-first
    /// via the steal CAS).  **Owner only.**
    pub fn pop(&self, fifo: bool) -> Option<T> {
        loop {
            let occ = self.occupancy.load(Ordering::Acquire);
            let band = highest_band(occ)?;
            let item = if fifo {
                self.bands[band].steal_retrying()
            } else {
                self.bands[band].pop()
            };
            match item {
                Some(item) => return Some(item),
                // The bit was stale; retire it and rescan the rest.
                None => self.clear_if_empty(band),
            }
        }
    }

    /// [`Deque::pop_if`] on `band`'s bottom.  **Owner only.**  Leaves the
    /// occupancy word alone: a bit gone stale is retired by the next
    /// [`pop`](MultiDeque::pop) scan, like any other.
    ///
    /// # Panics
    ///
    /// Panics if `band >= BANDS`.
    pub fn pop_if(&self, band: usize, matches: impl FnOnce(usize) -> bool) -> Option<T> {
        self.bands[band].pop_if(matches)
    }

    /// Attempts to steal the most urgent item.  Safe from any thread;
    /// lock-free.  With `tagged_only`, a band whose oldest item is
    /// untagged is *skipped* (not disturbed) and the scan falls through to
    /// lower bands — a parked high-band item never blocks the theft of
    /// fresh lower-band work, and with tags allowed the high band always
    /// wins.  [`Steal::Retry`] means some band's CAS was lost to a
    /// concurrent remover.
    pub fn steal(&self, tagged_only: bool) -> Steal<T> {
        let occ = self.occupancy.load(Ordering::Acquire);
        let mut contended = false;
        for band in (0..BANDS).rev() {
            if occ & (1 << band) == 0 {
                continue;
            }
            let attempt = if tagged_only {
                self.bands[band].steal_tagged()
            } else {
                self.bands[band].steal()
            };
            match attempt {
                Steal::Success(item) => return Steal::Success(item),
                Steal::Retry => contended = true,
                // A stale bit (or a tag decline) just falls through to the
                // next band.  Thieves never write the occupancy word —
                // that is what lets the owner's push skip the publish RMW
                // when its bit is already set (see `push`); the
                // owner retires stale bits on its next pop scan.
                Steal::Empty => {}
            }
        }
        if contended {
            Steal::Retry
        } else {
            Steal::Empty
        }
    }

    /// [`MultiDeque::steal`], retried until it yields an item or observes
    /// every band empty.
    pub fn steal_retrying(&self, tagged_only: bool) -> Option<T> {
        loop {
            match self.steal(tagged_only) {
                Steal::Success(item) => return Some(item),
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        }
    }

    /// Clears `band`'s occupancy bit, then re-checks the band and re-sets
    /// the bit if an item is present after all.  Only the owner calls this
    /// (from [`MultiDeque::pop`]), so the re-check cannot race a push; it
    /// is kept because it is what makes the clear protocol safe even for
    /// a concurrent clearer — the `fetch_and`/`fetch_or` pair serialize
    /// against an unconditional publishing `fetch_or`, so a re-check is
    /// guaranteed to see any push whose bit the clear clobbered (the
    /// `banded_bitmask_*` litmus scenarios model-check that version).
    fn clear_if_empty(&self, band: usize) {
        self.occupancy.fetch_and(!(1 << band), Ordering::AcqRel);
        if !self.bands[band].is_empty() {
            self.occupancy.fetch_or(1 << band, Ordering::Release);
        }
    }
}

/// Index of the highest set bit among the low [`BANDS`] bits, if any.
fn highest_band(occ: usize) -> Option<usize> {
    let occ = occ & ((1 << BANDS) - 1);
    if occ == 0 {
        None
    } else {
        Some(usize::BITS as usize - 1 - occ.leading_zeros() as usize)
    }
}

/// A lock-free multi-producer submission queue (Treiber stack, reversed on
/// drain so items come out oldest-first).
///
/// Any thread may [`push`](Injector::push); [`drain`](Injector::drain)
/// atomically takes the whole backlog, so concurrent drains never yield the
/// same item twice.
#[derive(Debug)]
pub struct Injector<T> {
    head: AtomicPtr<Node<T>>,
    len: AtomicUsize,
}

struct Node<T> {
    item: T,
    next: *mut Node<T>,
}

// SAFETY: nodes are owned by the stack between push and drain; all shared
// state is atomic.
unsafe impl<T: Send> Send for Injector<T> {}
// SAFETY: as above — every cross-thread handoff goes through the atomic
// head, which transfers node ownership wholesale.
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Default for Injector<T> {
    fn default() -> Injector<T> {
        Injector::new()
    }
}

impl<T> Injector<T> {
    /// Creates an empty injector.
    pub fn new() -> Injector<T> {
        Injector {
            head: AtomicPtr::new(ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of items currently queued (a relaxed snapshot).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the injector is observed empty.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed).is_null()
    }

    /// Appends `item`.  Lock-free; callable from any thread.
    pub fn push(&self, item: T) {
        let node = Box::into_raw(Box::new(Node {
            item,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is ours until the CAS publishes it.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends a whole batch with **one** CAS: the items are linked into a
    /// private chain first, then the chain head is published atomically.
    /// A subsequent [`drain`](Injector::drain) yields the batch in its
    /// original order, exactly as if each item had been
    /// [`push`](Injector::push)ed individually with no interleaving.
    ///
    /// This is the batched wake-up fast path: a `wake_all` / barrier
    /// release that makes *n* threads runnable pays one atomic publish
    /// (plus one machine signal) instead of *n* of each.
    pub fn push_batch(&self, items: impl IntoIterator<Item = T>) {
        // Link the batch back-to-front so the *last* item sits nearest the
        // stack head: drain reverses the chain, restoring batch order.
        let mut first: *mut Node<T> = ptr::null_mut();
        let mut last: *mut Node<T> = ptr::null_mut();
        let mut count = 0usize;
        for item in items {
            let node = Box::into_raw(Box::new(Node { item, next: first }));
            if first.is_null() {
                last = node;
            }
            first = node;
            count += 1;
        }
        if first.is_null() {
            return;
        }
        // `first` is the newest item (future stack head), `last` the
        // oldest; `last.next` splices onto the current head.
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: the chain is ours until the CAS publishes it.
            unsafe { (*last).next = head };
            match self
                .head
                .compare_exchange_weak(head, first, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        self.len.fetch_add(count, Ordering::Relaxed);
    }

    /// Atomically takes the whole backlog, oldest first, as an iterator
    /// that frees each node as it hands its item over: the owner folds a
    /// backlog into its deque without collecting it anywhere.  The chain is
    /// reversed in place (stack order → arrival order) before the first
    /// item comes out; items the iterator does not reach are dropped with
    /// it.
    pub fn take_all(&self) -> Drain<T> {
        if self.head.load(Ordering::Relaxed).is_null() {
            return Drain {
                head: ptr::null_mut(),
            };
        }
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        let mut oldest_first: *mut Node<T> = ptr::null_mut();
        let mut count = 0usize;
        while !node.is_null() {
            // SAFETY: the swap above made this chain exclusively ours.
            unsafe {
                let next = (*node).next;
                (*node).next = oldest_first;
                oldest_first = node;
                node = next;
            }
            count += 1;
        }
        self.len.fetch_sub(count, Ordering::Relaxed);
        Drain { head: oldest_first }
    }

    /// The newest node, as a word: a test's witness that the backlog was
    /// left where it was.
    #[cfg(test)]
    pub(crate) fn head_word(&self) -> usize {
        self.head.load(Ordering::Relaxed) as usize
    }

    /// [`Injector::take_all`], collected.
    pub fn drain(&self) -> Vec<T> {
        self.take_all().collect()
    }

    /// Takes the item `rank` rates highest — the oldest of equals — and
    /// puts the rest back in their order with one CAS, on the nodes they
    /// already have; an item rated `None` is never taken.  Returns the item
    /// and whether anything was put back.  Items pushed meanwhile stay
    /// ahead of the ones put back, as after a [`drain`](Injector::drain)
    /// and a [`push_batch`](Injector::push_batch).
    pub fn take_best(&self, rank: impl Fn(&T) -> Option<usize>) -> (Option<T>, bool) {
        if self.head.load(Ordering::Relaxed).is_null() {
            return (None, false);
        }
        let mut head = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        // Walk newest first, so a tie goes to the later (older) node.
        let (mut best, mut best_prev, mut best_rank): (*mut Node<T>, *mut Node<T>, usize) =
            (ptr::null_mut(), ptr::null_mut(), 0);
        let (mut prev, mut node) = (ptr::null_mut::<Node<T>>(), head);
        while !node.is_null() {
            // SAFETY: the swap above made this chain exclusively ours.
            let (r, next) = unsafe { (rank(&(*node).item), (*node).next) };
            if let Some(r) = r.filter(|&r| best.is_null() || r >= best_rank) {
                (best, best_prev, best_rank) = (node, prev, r);
            }
            (prev, node) = (node, next);
        }
        let mut tail = prev;
        let taken = (!best.is_null()).then(|| {
            // SAFETY: `best` and `best_prev` are nodes of our chain; `best`
            // is unlinked before its box is taken back.
            unsafe {
                let next = (*best).next;
                if best_prev.is_null() {
                    head = next;
                } else {
                    (*best_prev).next = next;
                }
                if tail == best {
                    tail = best_prev;
                }
                self.len.fetch_sub(1, Ordering::Relaxed);
                Box::from_raw(best).item
            }
        });
        if head.is_null() {
            return (taken, false);
        }
        let mut current = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: the rest of the chain is ours until the CAS publishes
            // it; `tail` is its oldest node.
            unsafe { (*tail).next = current };
            match self.head.compare_exchange_weak(
                current,
                head,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (taken, true),
                Err(now) => current = now,
            }
        }
    }
}

/// The backlog an [`Injector::take_all`] took, oldest first.
pub struct Drain<T> {
    head: *mut Node<T>,
}

impl<T> Iterator for Drain<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.head.is_null() {
            return None;
        }
        // SAFETY: the chain was taken whole by `take_all`; each node is
        // unlinked here exactly once.
        let node = unsafe { Box::from_raw(self.head) };
        self.head = node.next;
        Some(node.item)
    }
}

impl<T> Drop for Drain<T> {
    fn drop(&mut self) {
        self.for_each(drop);
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        drop(self.take_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_push_pop_is_lifo() {
        let d = Deque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn steal_takes_oldest() {
        let d = Deque::new();
        d.push(1);
        d.push(2);
        assert!(matches!(d.steal(), Steal::Success(1)));
        assert_eq!(d.pop(), Some(2));
        assert!(matches!(d.steal(), Steal::Empty));
    }

    #[test]
    fn growth_preserves_items() {
        let d = Deque::with_capacity(2);
        for i in 0..100 {
            d.push(i);
        }
        let mut stolen = Vec::new();
        while let Some(v) = d.steal_retrying() {
            stolen.push(v);
        }
        assert_eq!(stolen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ring_reuse_after_wraparound() {
        // bottom/top advance far past the capacity; the masked ring must
        // keep items straight through thousands of reuse cycles.
        let d = Deque::with_capacity(4);
        let mut next = 0u64;
        for _ in 0..10_000 {
            for _ in 0..3 {
                d.push(next);
                next += 1;
            }
            assert!(matches!(d.steal(), Steal::Success(_)));
            assert!(d.pop().is_some());
            assert!(d.pop().is_some());
        }
        assert!(d.is_empty());
    }

    #[test]
    fn steal_tagged_declines_untagged_top() {
        let d = Deque::new();
        d.push(Tagged(1u64, false));
        d.push(Tagged(2, true));
        // Top (oldest) is untagged: a tag-only thief must leave it alone.
        assert!(matches!(d.steal_tagged(), Steal::Empty));
        assert_eq!(d.len(), 2);
        // An unrestricted thief takes it, tag or not …
        assert!(matches!(d.steal(), Steal::Success(Tagged(1, false))));
        // … exposing the tagged item to the tag-only thief.
        assert!(matches!(d.steal_tagged(), Steal::Success(Tagged(2, true))));
        assert!(matches!(d.steal_tagged(), Steal::Empty));
        // Tags are invisible to the owner's pop.
        d.push(Tagged(3, true));
        d.push(Tagged(4, false));
        assert_eq!(d.pop(), Some(Tagged(4, false)));
        assert_eq!(d.pop(), Some(Tagged(3, true)));
    }

    #[test]
    fn pop_if_takes_the_bottom_only_on_a_match() {
        let d = Deque::new();
        let (a, b) = (Arc::new(1u64), Arc::new(2u64));
        d.push(a.clone());
        d.push(b.clone());
        let is = |x: &Arc<u64>| {
            let p = Arc::as_ptr(x) as usize;
            move |word| word == p
        };
        // `a` is buried under `b`: no match, nothing moves.
        assert!(d.pop_if(is(&a)).is_none());
        assert_eq!(d.len(), 2);
        assert!(Arc::ptr_eq(&d.pop_if(is(&b)).unwrap(), &b));
        assert!(Arc::ptr_eq(&d.pop_if(is(&a)).unwrap(), &a));
        // Empty: whatever the slot still holds, nothing comes back.
        assert!(d.pop_if(|_| true).is_none());
        assert!(d.is_empty());
        d.push(b.clone());
        assert!(matches!(d.steal(), Steal::Success(_)));
        assert!(d.pop_if(|_| true).is_none(), "a stolen slot is stale");
        assert_eq!(Arc::strong_count(&a), 1);
        assert_eq!(Arc::strong_count(&b), 1);
    }

    #[test]
    fn pop_empty_restores_state() {
        let d: Deque<u64> = Deque::new();
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None);
        d.push(7);
        assert_eq!(d.pop(), Some(7));
    }

    #[test]
    fn dropping_nonempty_deque_drops_items() {
        let counted = std::sync::Arc::new(0u64);
        let d = Deque::new();
        for _ in 0..10 {
            d.push(counted.clone());
        }
        assert_eq!(std::sync::Arc::strong_count(&counted), 11);
        drop(d);
        assert_eq!(std::sync::Arc::strong_count(&counted), 1);
    }

    #[test]
    fn injector_drains_in_arrival_order() {
        let q = Injector::new();
        for i in 0..10 {
            q.push(i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.drain(), (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.drain(), Vec::<i32>::new());
    }

    #[test]
    fn injector_push_batch_is_one_publish_in_order() {
        let q = Injector::new();
        q.push(0);
        q.push_batch([1, 2, 3]);
        q.push(4);
        q.push_batch(Vec::<i32>::new()); // empty batch: no-op
        assert_eq!(q.len(), 5);
        assert_eq!(q.drain(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multi_deque_pop_serves_highest_band_first() {
        let md = MultiDeque::new();
        md.push(0, 10u64);
        md.push(2, 30);
        md.push(1, 20);
        md.push(2, 31);
        assert_eq!(md.len(), 4);
        // FIFO within band, highest band first.
        assert_eq!(md.pop(true), Some(30));
        assert_eq!(md.pop(true), Some(31));
        assert_eq!(md.pop(true), Some(20));
        assert_eq!(md.pop(true), Some(10));
        assert_eq!(md.pop(true), None);
        assert!(md.is_empty());
        // A failed full scan retires every stale occupancy bit.
        assert_eq!(md.occupancy_bits() & ((1 << BANDS) - 1), 0);
    }

    #[test]
    fn multi_deque_lifo_pop_within_band() {
        let md = MultiDeque::new();
        md.push(1, 1u64);
        md.push(1, 2);
        md.push(3, 9);
        assert_eq!(md.pop(false), Some(9));
        assert_eq!(md.pop(false), Some(2));
        assert_eq!(md.pop(false), Some(1));
        assert_eq!(md.pop(false), None);
    }

    #[test]
    fn multi_deque_steal_prefers_high_band_and_skips_untagged() {
        let md = MultiDeque::new();
        md.push(0, Tagged(1u64, true));
        md.push(3, Tagged(2, false)); // high band, parked (untagged)
                                      // Tag-only thief: the parked high-band item is skipped, the fresh
                                      // low-band one is taken — no band blocks the scan.
        assert_eq!(md.steal_retrying(true), Some(Tagged(1, true)));
        assert_eq!(md.steal_retrying(true), None);
        assert_eq!(md.band_len(3), 1);
        // An unrestricted thief takes the high-band item.
        assert_eq!(md.steal_retrying(false), Some(Tagged(2, false)));
        assert_eq!(md.steal_retrying(false), None);
    }

    #[test]
    fn multi_deque_occupancy_covers_nonempty_bands() {
        let md = MultiDeque::new();
        for band in 0..BANDS {
            md.push(band, band as u64);
            assert!(
                md.occupancy_bits() & (1 << band) != 0,
                "push must publish band {band}'s bit"
            );
        }
        for _ in 0..BANDS {
            md.pop(true);
        }
        // Quiesced and empty: every bit retires after one scan.
        assert_eq!(md.pop(true), None);
        for band in 0..BANDS {
            assert!(
                md.band_len(band) == 0,
                "band {band} must be empty after drain"
            );
        }
    }

    #[test]
    fn injector_mixed_band_batch_keeps_arrival_order() {
        let q = Injector::new();
        q.push((0, 'a'));
        q.push_batch([(3, 'b'), (1, 'c'), (3, 'd')]);
        q.push((2, 'e'));
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.drain(),
            vec![(0, 'a'), (3, 'b'), (1, 'c'), (3, 'd'), (2, 'e')]
        );
        assert!(q.is_empty());
    }
}
