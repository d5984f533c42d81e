//! The substrate's blocking protocol: generation-tagged wait episodes with
//! a claim token, deadline parking, and prompt cancellation.
//!
//! The paper "imposes no a priori synchronization protocol" (§4): every
//! library builds its own blocking discipline out of `thread-block` /
//! wake-up primitives.  What those disciplines share — *register a waiter,
//! re-check the condition, park; a waker consumes exactly one waiter* — is
//! promoted here into a substrate service so mutexes, channels, streams,
//! ivars, barriers, thread joins and tuple-space readers all park through
//! one verified mechanism (see DESIGN.md, "Blocking protocol").
//!
//! ## The claim token
//!
//! Each thread owns one [`WaitNode`] for its whole lifetime.  A blocking
//! attempt *arms* the node, producing a fresh generation number; the pair
//! (node, generation) is an **episode**, handed to structures as a
//! [`Waiter`] handle.  Waking is a single compare-and-swap on the node's
//! packed `generation << 3 | phase` word from `Armed(g)` to `Claimed(g)`:
//!
//! * at most one waker wins — a wake-up is consumed **exactly once**;
//! * a stale handle (earlier generation, or an episode already finished,
//!   timed out or cancelled) fails the CAS and the waker moves on to the
//!   next registered waiter, so a dead entry can never absorb a wake-up
//!   meant for a live one (the `wake_one` lost-wakeup hazard);
//! * timeout ([`Timers`](crate::timers::Timers) firing) and cancellation
//!   (`thread-terminate` / `thread-raise` on a blocked thread) race wakers
//!   through the same CAS, so every episode has exactly one outcome.
//!
//! The owner closes an episode with `finish`, which reports that outcome
//! as a [`WakeReason`] and returns the node to `Idle` for the next arm.
//!
//! Like [`deque`](crate::deque), the claim word's atomics switch to the
//! [`sting_check`] shims under `--cfg sting_check`, so the park/wake/
//! cancel race is explored by the model checker against this exact source
//! (`crates/core/tests/model_wait.rs`).
//!
//! [`sting_check`]: https://example.com/sting

use crate::thread::Thread;
use crate::timers::TimerId;
use crate::tls;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::Instant;
use sting_value::Value;

// Under `--cfg sting_check` the claim word is the model checker's shim
// atomic, so `ci.sh check` explores this exact production source (see
// crates/core/tests/model_wait.rs); in normal builds it is std's.
#[cfg(not(sting_check))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(sting_check)]
use sting_check::atomic::{AtomicU64, Ordering};

/// Why a park ended.  Returned by [`Waiter::park_until`] and
/// [`crate::tc::block_current`] so callers distinguish a (possibly
/// spurious) wake-up from a deadline or a cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// A waker consumed this episode (or the wake-up was spurious); the
    /// caller must re-check its condition.
    Woken,
    /// The episode's deadline fired first.
    TimedOut,
    /// The episode was cancelled — the thread is being terminated or has
    /// an exception pending.
    Cancelled,
}

/// Error type for the timed variants of blocking operations (`Err` means
/// the deadline passed before the operation completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut;

impl std::fmt::Display for TimedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("timed out")
    }
}

impl std::error::Error for TimedOut {}

/// How an episode ended, as observed by [`ClaimState::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finish {
    /// Nothing consumed the episode: the wake-up (if any) was spurious.
    Spurious,
    /// A waker claimed the episode: a real wake-up was spent on it.
    Claimed,
    /// The episode was cancelled (termination / raised exception).
    Cancelled,
    /// The episode's deadline timer fired.
    TimedOut,
}

const IDLE: u64 = 0;
const ARMED: u64 = 1;
const CLAIMED: u64 = 2;
const CANCELLED: u64 = 3;
const TIMED_OUT: u64 = 4;
const PHASE_MASK: u64 = 0b111;
const GEN_SHIFT: u32 = 3;

const fn pack(gen: u64, phase: u64) -> u64 {
    (gen << GEN_SHIFT) | phase
}
const fn phase_of(word: u64) -> u64 {
    word & PHASE_MASK
}
const fn gen_of(word: u64) -> u64 {
    word >> GEN_SHIFT
}

/// The claim token at the heart of the protocol: one atomic word packing
/// `generation << 3 | phase`.
///
/// Phases: `Idle` (no episode), `Armed` (owner may park; wakers may
/// claim), and the three terminal phases `Claimed`, `Cancelled`,
/// `TimedOut`.  Only the owning thread arms and finishes; any thread may
/// attempt the `Armed(g) → terminal(g)` transitions, and the CAS
/// guarantees exactly one of them wins per episode.
///
/// The generation is bumped on every arm, so handles from earlier
/// episodes fail all CASes — the ABA door is closed without any
/// deregistration traffic.
#[derive(Debug)]
pub struct ClaimState {
    word: AtomicU64,
}

impl Default for ClaimState {
    fn default() -> ClaimState {
        ClaimState::new()
    }
}

impl ClaimState {
    /// A fresh, idle claim word (generation 0).
    pub fn new() -> ClaimState {
        ClaimState {
            word: AtomicU64::new(pack(0, IDLE)),
        }
    }

    /// Starts a new episode and returns its generation.  Owner-only: the
    /// store is plain (not a CAS) because no other thread ever writes the
    /// word while it is not `Armed`.
    pub fn arm(&self) -> u64 {
        let cur = self.word.load(Ordering::Relaxed);
        debug_assert_ne!(
            phase_of(cur),
            ARMED,
            "armed a new wait episode while the previous one is still armed"
        );
        let gen = gen_of(cur) + 1;
        self.word.store(pack(gen, ARMED), Ordering::Release);
        gen
    }

    /// Consumes episode `gen` as a wake-up.  `true` iff this call won the
    /// race (against other wakers, timeout and cancellation).
    pub fn claim(&self, gen: u64) -> bool {
        self.word
            .compare_exchange(
                pack(gen, ARMED),
                pack(gen, CLAIMED),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Marks episode `gen` as timed out.  `true` iff the deadline won.
    pub fn timeout(&self, gen: u64) -> bool {
        self.word
            .compare_exchange(
                pack(gen, ARMED),
                pack(gen, TIMED_OUT),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Cancels episode `gen`.  `true` iff the cancellation won.
    pub fn cancel(&self, gen: u64) -> bool {
        self.word
            .compare_exchange(
                pack(gen, ARMED),
                pack(gen, CANCELLED),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Cancels whatever episode is currently armed, if any, returning its
    /// generation.  Used by `thread-terminate`/`thread-raise` on a blocked
    /// thread, which do not know the generation.
    pub fn cancel_current(&self) -> Option<u64> {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            if phase_of(cur) != ARMED {
                return None;
            }
            let gen = gen_of(cur);
            match self.word.compare_exchange(
                cur,
                pack(gen, CANCELLED),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(gen),
                Err(c) => cur = c,
            }
        }
    }

    /// Whether episode `gen` is still armed (not yet consumed).
    pub fn is_armed(&self, gen: u64) -> bool {
        self.word.load(Ordering::Acquire) == pack(gen, ARMED)
    }

    /// Closes episode `gen` and reports how it ended, returning the word
    /// to `Idle`.  Owner-only.  If the episode is still armed, nothing
    /// consumed it and the wake-up (if any) was spurious.
    pub fn finish(&self, gen: u64) -> Finish {
        if self
            .word
            .compare_exchange(
                pack(gen, ARMED),
                pack(gen, IDLE),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return Finish::Spurious;
        }
        let cur = self.word.load(Ordering::Acquire);
        debug_assert_eq!(
            gen_of(cur),
            gen,
            "finish() on a generation that is not the current episode"
        );
        let finish = match phase_of(cur) {
            CLAIMED => Finish::Claimed,
            CANCELLED => Finish::Cancelled,
            TIMED_OUT => Finish::TimedOut,
            _ => Finish::Spurious,
        };
        self.word.store(pack(gen, IDLE), Ordering::Release);
        finish
    }

    /// Non-consuming snapshot of the current phase as a [`WakeReason`]
    /// (`Claimed`/`Armed`/`Idle` map to `Woken`).  Used by
    /// [`crate::tc::block_current`] to report why the thread resumed; the
    /// episode owner's `finish` remains the authoritative consumer.
    pub fn snapshot_reason(&self) -> WakeReason {
        match phase_of(self.word.load(Ordering::Acquire)) {
            TIMED_OUT => WakeReason::TimedOut,
            CANCELLED => WakeReason::Cancelled,
            _ => WakeReason::Woken,
        }
    }
}

/// Who sleeps on a [`WaitNode`], and so how a waker rouses them.
enum Parker {
    /// A STING thread: park the green thread via
    /// [`block_current`](crate::tc::block_current); wakers
    /// [`unblock`](crate::thread::Thread) it.  Weak, because the node is
    /// owned by the thread itself (a strong edge would leak the cycle).
    Green(Weak<Thread>),
    /// A plain OS thread (e.g. `main`): it parks on `std::thread::park`,
    /// the primitive the machine's workers sleep on, and wakers
    /// [`unpark_os`] it.  The claim word is the wake token and the park
    /// token covers a wake that lands before the sleep.
    Os(std::thread::Thread),
}

/// Wakes an OS thread parked in the blocking protocol (a `futex_wake`).
pub(crate) fn unpark_os(thread: &std::thread::Thread) {
    crate::probe::hit(crate::probe::Probe::FutexWake);
    thread.unpark();
}

/// One thread's parking spot: a [`ClaimState`] plus the means to wake the
/// owner.  STING threads embed one node for their whole lifetime
/// (generations distinguish episodes); OS threads get a fresh node per
/// blocking call.
pub struct WaitNode {
    state: ClaimState,
    parker: Parker,
}

impl std::fmt::Debug for WaitNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitNode")
            .field("state", &self.state)
            .field(
                "parker",
                &match self.parker {
                    Parker::Green(_) => "green",
                    Parker::Os(_) => "os",
                },
            )
            .finish()
    }
}

impl WaitNode {
    /// The node embedded in a [`Thread`] at construction.
    pub(crate) fn green(thread: Weak<Thread>) -> WaitNode {
        WaitNode {
            state: ClaimState::new(),
            parker: Parker::Green(thread),
        }
    }

    fn os() -> WaitNode {
        WaitNode {
            state: ClaimState::new(),
            parker: Parker::Os(std::thread::current()),
        }
    }

    /// The node's claim word.
    pub fn state(&self) -> &ClaimState {
        &self.state
    }
}

/// A handle to one wait episode: the unit synchronization structures
/// register and wake.
///
/// Clones are cheap and share the episode; once the episode ends (wake,
/// timeout, cancellation, or the owner finishing it), every clone is
/// *dead* — [`Waiter::wake`] on it fails the claim CAS and returns
/// `false`, and [`WaitList`] skips and eventually prunes it.  Structures
/// therefore never need to chase down registrations: deregistration is
/// O(1) by construction.
#[derive(Clone)]
pub struct Waiter {
    node: Arc<WaitNode>,
    gen: u64,
}

impl std::fmt::Debug for Waiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waiter")
            .field("gen", &self.gen)
            .field("live", &self.is_live())
            .finish()
    }
}

impl Waiter {
    /// Arms a new episode for the calling thread and returns its handle.
    ///
    /// On a STING thread this arms the **TCB owner**'s node — during a
    /// steal the stealer, not the stolen thread, is what parks (see
    /// [`crate::tc::current_owner`]).  On a plain OS thread a fresh node
    /// naming the calling OS thread is created.
    pub fn current() -> Waiter {
        match tls::with(|cur| cur.map(|c| c.shared.thread.wait_node().clone())) {
            Some(node) => {
                let gen = node.state.arm();
                Waiter { node, gen }
            }
            None => {
                let node = Arc::new(WaitNode::os());
                let gen = node.state.arm();
                Waiter { node, gen }
            }
        }
    }

    /// Consumes the episode as a wake-up and makes its owner runnable.
    ///
    /// Returns `false` — without waking anyone — if the episode was
    /// already consumed (woken, timed out, cancelled or finished): the
    /// caller should spend its wake-up on the next waiter instead.
    pub fn wake(&self) -> bool {
        self.wake_id().is_some()
    }

    /// [`Waiter::wake`], returning — when it woke someone — the id of the
    /// green thread it woke, or 0 for an OS-thread waiter.
    pub(crate) fn wake_id(&self) -> Option<u64> {
        if !self.node.state.claim(self.gen) {
            return None;
        }
        Some(match &self.node.parker {
            Parker::Green(weak) => weak.upgrade().map_or(0, |thread| {
                thread.unblock_claimed(self.gen);
                thread.id().0
            }),
            Parker::Os(thread) => {
                unpark_os(thread);
                0
            }
        })
    }

    /// [`Waiter::wake`], but a woken green thread's ready-queue publication
    /// is deferred into `batch` instead of enqueued immediately, so a sweep
    /// over many waiters (broadcast, barrier release) publishes them all
    /// with one injector CAS at [`WakeBatch::publish`].  The claim, state
    /// transition and Unblock trace still happen here, synchronously — only
    /// the queue insertion is deferred.  OS-thread waiters are unparked
    /// immediately (there is no queue to batch).
    pub fn wake_into(&self, batch: &mut WakeBatch) -> bool {
        if !self.node.state.claim(self.gen) {
            return false;
        }
        match &self.node.parker {
            Parker::Green(weak) => {
                if let Some(thread) = weak.upgrade() {
                    thread.unblock_deferred(self.gen, batch);
                }
            }
            Parker::Os(thread) => unpark_os(thread),
        }
        true
    }

    /// Whether the episode is still armed (registered and not yet
    /// consumed).  [`WaitList::len`] counts only live entries.
    pub fn is_live(&self) -> bool {
        self.node.state.is_armed(self.gen)
    }

    /// Parks until the episode is consumed; see [`Waiter::park_until`].
    pub fn park(&self, blocker: &Value) -> WakeReason {
        self.park_until(blocker, None)
    }

    /// Parks the calling thread until the episode is consumed or
    /// `deadline` passes.
    ///
    /// The episode is finished on return: the handle (and every clone of
    /// it) is dead afterwards, and the caller must arm a fresh one (or use
    /// [`block_until_deadline`], which does) to block again.  Green
    /// threads route the deadline through the machine's
    /// [`Timers`](crate::timers::Timers) wheel; the timer entry is
    /// cancelled on early wake-up so no tombstone fires a spurious wake.
    /// OS threads sleep once in `std::thread::park[_timeout]`.  Either may
    /// return early (`Woken` with nothing consumed): the caller re-checks
    /// its condition.  If the park unwinds (thread termination, raised
    /// exception, VM drain), a drop guard cancels the episode and its
    /// timer so no structure ever wakes or counts the dead waiter.
    pub fn park_until(&self, blocker: &Value, deadline: Option<Instant>) -> WakeReason {
        match &self.node.parker {
            Parker::Green(_) => self.park_green(blocker, deadline),
            Parker::Os(_) => self.park_os(deadline),
        }
    }

    fn park_green(&self, blocker: &Value, deadline: Option<Instant>) -> WakeReason {
        let thread = crate::tc::current_owner().expect("green waiter parked off its thread");
        debug_assert!(
            Arc::ptr_eq(thread.wait_node(), &self.node),
            "a green Waiter may only be parked by the thread that armed it"
        );
        let timer = match (deadline, thread.vm()) {
            (Some(when), Some(vm)) => Some(vm.timers().add_wait_deadline(
                when,
                thread.clone(),
                self.node.clone(),
                self.gen,
            )),
            _ => None,
        };
        let mut guard = ParkGuard {
            node: &self.node,
            gen: self.gen,
            thread: &thread,
            timer,
            done: false,
        };
        let _ = crate::tc::block_current(Some(blocker.clone()));
        guard.done = true;
        let timer = guard.timer.take();
        drop(guard);
        if let (Some(id), Some(vm)) = (timer, thread.vm()) {
            vm.timers().cancel(id);
        }
        self.close()
    }

    /// One `park` or `park_timeout`: a waker that claimed the episode
    /// before the sleep left the park token set, so the sleep returns at
    /// once.  The deadline is claimed here, against any waker.
    fn park_os(&self, deadline: Option<Instant>) -> WakeReason {
        if self.node.state.is_armed(self.gen) {
            match deadline {
                None => std::thread::park(),
                Some(d) => {
                    std::thread::park_timeout(d.saturating_duration_since(Instant::now()));
                    if Instant::now() >= d {
                        let _ = self.node.state.timeout(self.gen);
                    }
                }
            }
        }
        self.close()
    }

    /// Finishes the episode and says how it ended.
    fn close(&self) -> WakeReason {
        match self.node.state.finish(self.gen) {
            Finish::Spurious | Finish::Claimed => WakeReason::Woken,
            Finish::TimedOut => WakeReason::TimedOut,
            Finish::Cancelled => WakeReason::Cancelled,
        }
    }

    /// Finishes the episode without parking.  Returns `true` iff a waker
    /// had already claimed it — a real wake-up was spent on this handle,
    /// which callers that abandon a registered episode (timeout paths,
    /// tuple-space self-service) must re-donate by re-checking their
    /// condition or waking a peer, or the wake-up is lost.
    pub fn retire(&self) -> bool {
        matches!(self.node.state.finish(self.gen), Finish::Claimed)
    }

    pub(crate) fn same_episode(&self, other: &Waiter) -> bool {
        Arc::ptr_eq(&self.node, &other.node) && self.gen == other.gen
    }
}

/// Cancels the episode (and its deadline timer) if the park unwinds:
/// `thread-terminate` / `thread-raise` panic out of
/// [`block_current`](crate::tc::block_current)'s request application, and
/// [`Vm::shutdown`](crate::vm::Vm::shutdown) force-unwinds parked fibers.
struct ParkGuard<'a> {
    node: &'a Arc<WaitNode>,
    gen: u64,
    thread: &'a Arc<Thread>,
    timer: Option<TimerId>,
    done: bool,
}

impl Drop for ParkGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let vm = self.thread.vm();
        if let (Some(id), Some(vm)) = (self.timer.take(), vm.as_ref()) {
            vm.timers().cancel(id);
        }
        if self.node.state.cancel(self.gen) {
            if let Some(vm) = &vm {
                // Origin 1: a park unwind.
                let cancelled = crate::trace::EventKind::WaiterCancelled;
                vm.note(tls::lane_in(vm), cancelled, self.thread, 1, self.gen as u32);
            }
        }
    }
}

/// Wake-ups a [`WakeBatch`] holds in place before it spills to the heap.
const WAKES_INLINE: usize = 4;

/// One collected wake-up: the woken TCB and the VM and VP it goes to.
type Wake = (Arc<crate::vm::Vm>, usize, crate::tcb::Tcb);

/// A set of woken-but-not-yet-enqueued threads, collected across a
/// wait-list sweep and published to the ready queues in bulk.
///
/// Waking `n` threads one at a time costs `n` injector CASes and `n`
/// machine signals; a batch groups the TCBs by destination VP and
/// publishes each group with **one** CAS
/// ([`Injector::push_batch`](crate::deque::Injector)) and one
/// signal.  Arrival order is preserved, so FIFO-within-band dispatch of
/// the woken set matches the wake order.
///
/// The first few wake-ups are held in place and the groups are walked,
/// not collected, so a sweep that claims a handful of waiters allocates
/// nothing of its own; one claiming exactly one publishes through the
/// ordinary single enqueue.
///
/// Dropping an unpublished batch publishes it — a woken TCB can never be
/// lost to an early return or unwind.
#[derive(Default)]
pub struct WakeBatch {
    /// The first wake-ups, in wake order; `None` once published.
    inline: [Option<Wake>; WAKES_INLINE],
    /// Wake-ups past the inline ones, in wake order.
    spilled: Vec<Option<Wake>>,
    /// Wake-ups collected and not yet published.
    pending: usize,
}

impl std::fmt::Debug for WakeBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WakeBatch({} pending)", self.len())
    }
}

impl WakeBatch {
    /// An empty batch.
    pub fn new() -> WakeBatch {
        WakeBatch::default()
    }

    /// How many wake-ups are pending publication.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no wake-up is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    pub(crate) fn add(&mut self, vm: Arc<crate::vm::Vm>, vp: usize, tcb: crate::tcb::Tcb) {
        match self.inline.get_mut(self.pending) {
            Some(slot) => *slot = Some((vm, vp, tcb)),
            None => self.spilled.push(Some((vm, vp, tcb))),
        }
        self.pending += 1;
    }

    /// Publishes every collected wake-up to its VP's ready queue, one
    /// batched enqueue per destination VP.  Returns how many were
    /// published.
    pub fn publish(mut self) -> usize {
        self.flush()
    }

    /// The slots, in wake order.
    fn slots(&mut self) -> impl Iterator<Item = &mut Option<Wake>> {
        self.inline.iter_mut().chain(self.spilled.iter_mut())
    }

    fn flush(&mut self) -> usize {
        let published = std::mem::take(&mut self.pending);
        if published == 1 {
            // Single wake: the plain enqueue path, no batching machinery.
            if let Some((vm, vp, tcb)) = self.inline[0].take() {
                vm.enqueue_parked(tcb, vp, crate::pm::EnqueueState::Unblocked);
            }
            return 1;
        }
        // One group per destination, in the order destinations first
        // appear, each in wake order.
        loop {
            let Some((vm, vp, tcb)) = self.slots().find_map(Option::take) else {
                break;
            };
            let rest = self
                .slots()
                .filter_map(|slot| slot.take_if(|(v, p, _)| *p == vp && Arc::ptr_eq(v, &vm)))
                .map(|(_, _, tcb)| tcb);
            vm.enqueue_parked_batch(
                std::iter::once(tcb).chain(rest),
                vp,
                crate::pm::EnqueueState::Unblocked,
            );
        }
        self.spilled.clear();
        published
    }
}

impl Drop for WakeBatch {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An ordered collection of registered [`Waiter`]s — the wait queue every
/// blocking structure embeds (under its own lock).
///
/// Dead entries (consumed, timed-out, cancelled or superseded episodes)
/// are skipped by [`wake_one`](WaitList::wake_one) via the failing claim
/// CAS and pruned amortized on [`push`](WaitList::push), so explicit
/// [`remove`](WaitList::remove) is optional and O(1).
#[derive(Default)]
pub struct WaitList {
    entries: VecDeque<Waiter>,
    sweep_at: usize,
}

impl std::fmt::Debug for WaitList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WaitList({} live)", self.len())
    }
}

impl WaitList {
    /// An empty wait list.
    pub fn new() -> WaitList {
        WaitList {
            entries: VecDeque::new(),
            sweep_at: 8,
        }
    }

    /// Registers a waiter at the back of the queue.
    ///
    /// Dead entries are swept when the list doubles past the previous
    /// sweep's survivors, keeping registration O(1) amortized even if no
    /// one ever calls [`remove`](WaitList::remove).
    pub fn push(&mut self, w: Waiter) {
        if self.entries.len() >= self.sweep_at.max(8) {
            self.entries.retain(Waiter::is_live);
            self.sweep_at = (self.entries.len() * 2).max(8);
        }
        self.entries.push_back(w);
    }

    /// Wakes the frontmost *live* waiter, skipping (and discarding) dead
    /// entries.  Returns `false` if no live waiter was found — the
    /// wake-up was not consumed and the caller keeps its resource
    /// available for the next arrival.
    pub fn wake_one(&mut self) -> bool {
        while let Some(w) = self.entries.pop_front() {
            if w.wake() {
                return true;
            }
        }
        false
    }

    /// Wakes every live waiter, emptying the list.  Returns how many
    /// wake-ups were actually delivered.
    ///
    /// The woken green threads are published to their ready queues in
    /// bulk through a [`WakeBatch`] — one injector CAS and one machine
    /// signal per destination VP, however many waiters the sweep claims.
    pub fn wake_all(&mut self) -> usize {
        let mut batch = WakeBatch::new();
        let mut woken = 0;
        for w in self.entries.drain(..) {
            if w.wake_into(&mut batch) {
                woken += 1;
            }
        }
        batch.publish();
        woken
    }

    /// Deregisters `w` in O(1) amortized time: the entry is physically
    /// removed only if it sits at the back (the common register-then-
    /// immediately-succeed case); otherwise it is left in place, where its
    /// finished episode makes it dead — unclaimable by
    /// [`wake_one`](WaitList::wake_one), uncounted by
    /// [`len`](WaitList::len), and swept by a later
    /// [`push`](WaitList::push).
    pub fn remove(&mut self, w: &Waiter) {
        if self.entries.back().is_some_and(|b| b.same_episode(w)) {
            self.entries.pop_back();
        }
    }

    /// The number of **live** registered waiters.  A thread terminated or
    /// timed out while blocked stops counting immediately, even before
    /// its entry is physically swept.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|w| w.is_live()).count()
    }

    /// Whether no live waiter is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of entries physically held, live or dead — the memory
    /// the list pins, as opposed to the waiters it will wake
    /// ([`len`](WaitList::len)).
    pub fn registered(&self) -> usize {
        self.entries.len()
    }
}

/// Blocks the current thread until `try_register` succeeds.
///
/// `try_register` is called with a freshly armed [`Waiter`]; it must
/// either perform the operation and return `Some` (registering nothing),
/// or register the waiter with the structure(s) it is waiting on — under
/// the structure's lock, *after* re-checking the condition — and return
/// `None`.  Wake-ups can be spurious; the closure simply runs again.
///
/// Callable from plain OS threads too: they park on `std::thread::park`.
pub fn block_until<T>(blocker: &Value, mut try_register: impl FnMut(&Waiter) -> Option<T>) -> T {
    loop {
        // A `None` without a deadline means the episode was cancelled; if
        // the cancellation did not unwind the thread (it normally does),
        // re-arming and blocking again is the only sound continuation.
        if let Some(v) = block_until_deadline(blocker, None, &mut try_register) {
            return v;
        }
    }
}

/// [`block_until`] with an optional deadline: returns `None` if the
/// deadline passes (or the thread is cancelled) before `try_register`
/// succeeds.
///
/// On the abandon path a wake-up already spent on this waiter is
/// re-donated by re-running `try_register` once, so a timeout racing a
/// wake never loses the wake-up.
pub fn block_until_deadline<T>(
    blocker: &Value,
    deadline: Option<Instant>,
    mut try_register: impl FnMut(&Waiter) -> Option<T>,
) -> Option<T> {
    loop {
        let w = Waiter::current();
        if let Some(v) = try_register(&w) {
            let _ = w.retire();
            return Some(v);
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                if w.retire() {
                    // A waker picked us between registration and abandon;
                    // consume the wake-up (the condition it signalled is
                    // ours to take) rather than lose it.
                    if let Some(v) = try_register(&w) {
                        return Some(v);
                    }
                }
                return None;
            }
        }
        match w.park_until(blocker, deadline) {
            WakeReason::Woken => {}
            WakeReason::TimedOut | WakeReason::Cancelled => return None,
        }
    }
}

#[cfg(all(test, not(sting_check)))]
mod tests {
    use super::*;
    use std::time::Duration;

    fn os_waiter() -> Waiter {
        assert!(!tls::on_thread());
        Waiter::current()
    }

    #[test]
    fn os_waiter_park_wake_round_trip() {
        let w = os_waiter();
        let peer = w.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            assert!(peer.wake());
        });
        assert_eq!(w.park(&Value::sym("test")), WakeReason::Woken);
        h.join().unwrap();
    }

    #[test]
    fn wake_is_a_one_shot_token() {
        let w = os_waiter();
        assert!(w.wake());
        assert!(!w.wake(), "a second wake must not be absorbed");
        // The pending claim is consumed without sleeping.
        assert_eq!(w.park(&Value::sym("test")), WakeReason::Woken);
    }

    #[test]
    fn park_until_times_out() {
        let w = os_waiter();
        let reason = w.park_until(
            &Value::sym("test"),
            Some(Instant::now() + Duration::from_millis(5)),
        );
        assert_eq!(reason, WakeReason::TimedOut);
        assert!(!w.wake(), "a timed-out episode is not claimable");
    }

    #[test]
    fn cancelled_episode_rejects_wakes() {
        let w = os_waiter();
        assert_eq!(w.node.state().cancel_current(), Some(w.gen));
        assert!(!w.wake());
        assert_eq!(w.park(&Value::sym("test")), WakeReason::Cancelled);
    }

    #[test]
    fn stale_generation_never_claims() {
        let w = os_waiter();
        let stale = w.clone();
        let _ = w.retire();
        let next = Waiter {
            node: w.node.clone(),
            gen: w.node.state().arm(),
        };
        assert!(!stale.wake(), "finished episode must not claim");
        assert!(next.wake(), "current episode still wakeable");
    }

    #[test]
    fn wake_one_skips_dead_entries() {
        let dead = os_waiter();
        let _ = dead.retire();
        let live = os_waiter();
        let mut list = WaitList::new();
        list.push(dead);
        list.push(live.clone());
        assert_eq!(list.len(), 1);
        assert!(list.wake_one(), "wake must fall through to the live entry");
        assert!(!live.is_live(), "the live waiter consumed the wake");
        assert!(!list.wake_one());
    }

    #[test]
    fn wake_all_drains_the_list() {
        let ws: Vec<Waiter> = (0..4).map(|_| os_waiter()).collect();
        let mut list = WaitList::new();
        for w in &ws {
            list.push(w.clone());
        }
        assert_eq!(list.wake_all(), 4);
        assert!(list.is_empty());
        assert!(ws.iter().all(|w| !w.is_live()));
    }

    #[test]
    fn wake_one_is_fifo() {
        let a = os_waiter();
        let b = os_waiter();
        let mut list = WaitList::new();
        list.push(a.clone());
        list.push(b.clone());
        assert!(list.wake_one());
        assert!(!a.is_live(), "first registered is first woken");
        assert!(b.is_live());
    }

    #[test]
    fn remove_pops_the_back_and_kills_elsewhere() {
        let a = os_waiter();
        let b = os_waiter();
        let mut list = WaitList::new();
        list.push(a.clone());
        list.push(b.clone());
        list.remove(&b); // back: physically removed
        assert_eq!(list.len(), 1);
        let _ = a.retire(); // middle: dies in place
        assert_eq!(list.len(), 0);
        assert!(!list.wake_one());
    }

    #[test]
    fn push_prunes_dead_entries() {
        let mut list = WaitList::new();
        for _ in 0..64 {
            let w = os_waiter();
            list.push(w.clone());
            let _ = w.retire();
        }
        assert!(
            list.entries.len() <= 17,
            "dead entries must be swept amortized (got {})",
            list.entries.len()
        );
    }
}
