//! First-class threads.
//!
//! A [`Thread`] is the paper's passive thread object: a thunk, a state word,
//! waiters, genealogy and scheduling hints.  It is deliberately small — the
//! expensive dynamic context (stack, machine state) lives in a
//! `Tcb` (see [`crate::tcb`]) that exists only while the thread is evaluating
//! and is recycled when it determines.
//!
//! Threads are manipulated through `Arc<Thread>` and may be stored in data
//! structures, returned from procedures and outlive their creators — they
//! are bona fide data objects (they also convert to
//! [`sting_value::Value`] via [`Thread::to_value`]).
//!
//! A fork allocates one block, the `Arc`'s: the record keeps a body of at
//! most three words with word alignment in place (every closure that
//! captures a few numbers or handles, and a boxed [`Thunk`]), and only a
//! larger body adds a box.  The thread registry holds each record weakly
//! (see [`crate::group`]), and a fork drops the dead entries it finds at
//! its lane's newest end, so in fork-join order a thread's block goes back
//! to the allocator at the next fork after its last handle drops.
//!
//! A fork writes only what the forking VP owns: the new record, and the
//! count and member list of its lane's group lane.  The record names its
//! parent by id, not by a `Weak`, and reaches its machine through its
//! group lane, which holds the forking VM lane's handle on it; a child
//! forked on its parent's lane into its parent's group takes its parent's
//! group lane without locking the VM lane's fork state.  So a fork moves
//! one reference count, its group lane's, and none on its parent or on a
//! handle on the machine; freeing the record moves the same one back.

use crate::error::CoreError;
use crate::group::{GroupLane, ThreadGroup};
use crate::state::{StateRequest, StateWord, ThreadState, REQUESTS, WAITERS};
use crate::tc::Cx;
use crate::tcb::Tcb;
use crate::tls;
use crate::vm::{Vm, VmAnchor};
use parking_lot::{Mutex, MutexGuard};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use sting_value::{static_sym, Value};

/// The unit of a thread's [quantum](Thread::quantum): a thread with
/// quantum `q` runs `q × QUANTUM` from its first checkpoint in a slice
/// before a checkpoint preempts it.  A policy value, not a machine clock:
/// nothing ticks, the running thread compares the clock against its slice
/// deadline at its own checkpoints.
pub const QUANTUM: Duration = Duration::from_micros(500);

/// The code a thread runs: a nullary procedure over the thread context.
pub type Thunk = Box<dyn FnOnce(&Cx) -> Value + Send + 'static>;

/// A thread body that produces a [`ThreadResult`] directly: `Err` is an
/// exception value, delivered to waiters without unwinding.  Language
/// runtimes use this so raised exceptions cross threads without panics.
pub type TryThunk = Box<dyn FnOnce(&Cx) -> ThreadResult + Send + 'static>;

/// A thread's final outcome: `Ok` is the value of its thunk (or the value
/// supplied to `thread-terminate`); `Err` is an uncaught exception value.
pub type ThreadResult = Result<Value, Value>;

/// The words a [`Body`] keeps a closure in.
type Slot = MaybeUninit<[usize; 3]>;

/// A thread's code as its record holds it: a closure of at most three
/// words with word alignment lives in place, so a fork allocates only the
/// record; a larger one lives in a box whose pointer takes the place.
/// Either way it runs, or is dropped unrun, exactly once.
pub(crate) struct Body {
    slot: Slot,
    vtable: &'static BodyVtable,
    /// The closure is `Send`, not `Sync`.
    _send: PhantomData<TryThunk>,
}

/// How to run or drop the closure type a [`Body`]'s slot holds.
struct BodyVtable {
    call: unsafe fn(*mut Slot, &Cx) -> ThreadResult,
    drop: unsafe fn(*mut Slot),
}

/// Moves the `F` out of `slot` and runs it.
///
/// # Safety
///
/// `slot` holds a live `F`, which the caller gives up.
unsafe fn call_body<F: FnOnce(&Cx) -> ThreadResult>(slot: *mut Slot, cx: &Cx) -> ThreadResult {
    // SAFETY: per the contract, an `F` is there and nobody reads it again.
    let f = unsafe { slot.cast::<F>().read() };
    f(cx)
}

/// Drops the `F` in `slot`.
///
/// # Safety
///
/// `slot` holds a live `F`, which the caller gives up.
unsafe fn drop_body<F>(slot: *mut Slot) {
    // SAFETY: per the contract.
    unsafe { slot.cast::<F>().drop_in_place() }
}

impl Body {
    /// Whether an `F` fits the slot's size and alignment.
    const fn fits<F>() -> bool {
        size_of::<F>() <= size_of::<Slot>() && align_of::<F>() <= align_of::<Slot>()
    }

    pub(crate) fn new<F>(f: F) -> Body
    where
        F: FnOnce(&Cx) -> ThreadResult + Send + 'static,
    {
        if Body::fits::<F>() {
            Body::in_place(f)
        } else {
            Body::in_place(Box::new(f))
        }
    }

    fn in_place<F>(f: F) -> Body
    where
        F: FnOnce(&Cx) -> ThreadResult + Send + 'static,
    {
        assert!(Body::fits::<F>());
        let mut slot = Slot::uninit();
        // SAFETY: the assertion above: an `F` fits the slot.
        unsafe { slot.as_mut_ptr().cast::<F>().write(f) };
        Body {
            slot,
            vtable: const {
                &BodyVtable {
                    call: call_body::<F>,
                    drop: drop_body::<F>,
                }
            },
            _send: PhantomData,
        }
    }

    /// Runs the closure, consuming it.
    pub(crate) fn run(self, cx: &Cx) -> ThreadResult {
        let mut body = ManuallyDrop::new(self);
        // SAFETY: the slot holds the vtable's closure type, and `body` is
        // never dropped, so nothing touches the slot after this.
        unsafe { (body.vtable.call)(&mut body.slot, cx) }
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        // SAFETY: a body not yet run still holds its closure.
        unsafe { (self.vtable.drop)(&mut self.slot) }
    }
}

/// Unique thread identifier within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A node linking a waiting thread to one of the threads it waits on.
///
/// This is the paper's *thread barrier* (TB) record from Figure 5: the
/// waiter's wait-count is decremented whenever a watched thread determines;
/// at zero the waiter is rescheduled.  `wait-for-one` uses a count of 1
/// over n nodes, `wait-for-all` a count of n.
///
/// The waiter is whoever creates the node: a STING thread, woken by
/// `unblock`, or a plain OS thread (`main`, a test, an I/O pool worker),
/// woken by `std::thread::unpark`.  Either way the wake-up may be spurious
/// from the waiter's own wait episode, and the waiter re-checks.
///
/// (Not to be confused with [`crate::wait::WaitNode`], the blocking
/// protocol's parking spot — a `JoinNode` only counts determinations.)
#[derive(Debug)]
pub struct JoinNode {
    waiter: Sleeper,
    remaining: AtomicUsize,
}

/// Who a [`JoinNode`] wakes.
#[derive(Debug)]
enum Sleeper {
    /// The TCB owner of the calling STING thread (the stealer, during a
    /// steal; see [`crate::tc::current_owner`]).
    Green(Arc<Thread>),
    /// A plain OS thread.
    Os(std::thread::Thread),
}

impl JoinNode {
    /// Creates a node that will wake the calling thread after `count`
    /// completions.
    pub fn current(count: usize) -> Arc<JoinNode> {
        let waiter = match crate::tc::current_owner() {
            Some(thread) => Sleeper::Green(thread),
            None => Sleeper::Os(std::thread::current()),
        };
        Arc::new(JoinNode {
            waiter,
            remaining: AtomicUsize::new(count),
        })
    }

    /// Records one completion; wakes the waiter when the count hits zero.
    /// Completions beyond the count are ignored (a group may contain more
    /// threads than the count requires).
    pub fn complete_one(&self) {
        if self.count_down() {
            match &self.waiter {
                Sleeper::Green(thread) => thread.unblock(),
                Sleeper::Os(thread) => crate::wait::unpark_os(thread),
            }
        }
    }

    /// Records one completion without waking anyone: the waiter counting
    /// a thread it found determined.  `true` if it was the last one.
    pub(crate) fn count_down(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            == Ok(1)
    }

    /// Remaining completions before the waiter wakes.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Deactivates the node: later completions are ignored and never wake
    /// the (abandoning or dying) waiter.  Used by the timed/cancellable
    /// join paths so watched threads never count a dead waiter.
    pub fn cancel(&self) {
        self.remaining.swap(0, Ordering::AcqRel);
    }
}

/// The slow-path half of a thread, under its lock: what only a blocked
/// thread, a queued request or a waiter needs.  The fork → touch →
/// determine path never takes it (see [`crate::state`], "The state word").
pub(crate) struct ThreadCore {
    pub(crate) parked: Option<Tcb>,
    wake_pending: bool,
    requests: Vec<StateRequest>,
    waiters: Vec<Arc<JoinNode>>,
    /// Next `waiters` length at which satisfied nodes are swept (amortized
    /// pruning, see [`Thread::add_wait_node`]).
    waiters_sweep_at: usize,
    /// The condition this thread is blocked on (paper's `blocker`); purely
    /// informational, for debugging and group listings.
    pub(crate) blocker: Option<Value>,
}

/// The two cells the state word arbitrates.  `body` is taken by the one
/// party that wins it on the word — a claim, or a determination that found
/// the thread still claimable — and `result` is written once, by the
/// winner of [`StateWord::begin_determine`], before
/// [`StateWord::finish_determine`] publishes it.
struct Cells {
    body: UnsafeCell<Option<Body>>,
    result: UnsafeCell<Option<ThreadResult>>,
}

// SAFETY: every access to `body` happens on the one thread that won it
// on the state word, or in `Drop`; `result` is written by the one winner
// of a determination and read only after an Acquire load of the word has
// seen the Release that published it, after which nothing writes it.  The
// body is `Send` and the result `Send + Sync`, so handing either across
// threads that way is sound.
unsafe impl Sync for Cells {}

const _: fn() = || {
    fn shared_safely<T: Send + Sync>() {}
    shared_safely::<ThreadResult>();
};

/// A first-class lightweight thread.
///
/// Create threads with [`crate::vm::Vm::fork`], [`crate::vm::Vm::delayed`],
/// the [`ThreadBuilder`](crate::builder::ThreadBuilder), or from inside a
/// running thread with [`crate::tc`] operations.
pub struct Thread {
    id: ThreadId,
    name: Option<String>,
    state: StateWord,
    cells: Cells,
    stealable: AtomicBool,
    priority: AtomicI32,
    quantum: AtomicU32,
    /// Taken only through [`Thread::core`].
    core: Mutex<ThreadCore>,
    /// The thread's group, held through the lane it was forked on (see
    /// [`GroupLane`]), and its machine until a handoff re-homes it: the
    /// group lane holds the handle of the VM lane that opened it.
    group: Arc<GroupLane>,
    /// The parent's id, or 0 for none (ids start at 1): a name, not a
    /// reference, so a fork counts nothing on its parent.  Genealogy
    /// queries find the parent by id in the registry.
    parent: ThreadId,
    /// The shard a cross-shard handoff re-homed the thread to; `None`
    /// until one does, while the thread's machine is its group lane's.
    /// Written only by [`Thread::rehome`], while the thread is quiescent
    /// (owned by exactly one inbox, neither queued nor running).  Only the
    /// slow paths lock it ([`Thread::vm`]): code running on the thread's
    /// own machine compares [`Thread::belongs_to`] and uses the machine it
    /// already has.
    vm: Mutex<Option<VmAnchor>>,
    /// Identity of the owning VM — the target of `vm`, or of the group
    /// lane's handle while `vm` is empty — readable without the lock, for
    /// [`Thread::belongs_to`]; compared, never dereferenced.  Set at birth
    /// and otherwise written only under `vm`'s lock, together with it, so
    /// the fast paths that ask "is this thread mine?" never lock.
    vm_ptr: AtomicPtr<Vm>,
    /// VP the thread last ran on (or was scheduled on); wake-ups go here.
    pub(crate) home_vp: AtomicUsize,
    /// Latency stamp: nanoseconds since the machine's stats epoch at the
    /// last *sampled* ready-enqueue, 0 when unstamped (see
    /// [`crate::stats`]).  Written by the enqueuer, consumed (reset to 0)
    /// by the dispatching VP.
    pub(crate) enqueued_at_ns: AtomicU64,
    /// Latency stamp: time of the last *sampled* park commit, 0 when
    /// unstamped.  Written under `core` by the parking VP, consumed by the
    /// waker.
    pub(crate) blocked_at_ns: AtomicU64,
    /// The thread's parking spot for the blocking protocol: one node for
    /// the thread's whole lifetime, episodes distinguished by generation
    /// (see [`crate::wait`]).  Allocated at the first park — most threads
    /// run to their value without ever blocking.
    wait_node: OnceLock<Arc<crate::wait::WaitNode>>,
}

// The record is a fork's one allocation, so its size is a fork's cost: 336
// bytes, of which the body takes 32 (a boxed thunk's pointer took 16).  The
// model checker's atomics are larger, so its builds are not held to it.
#[cfg(all(target_pointer_width = "64", not(sting_check)))]
const _: () = assert!(size_of::<Thread>() == 336, "the thread record changed size");

/// Everything [`Thread::new`] needs that the spawn path resolved from the
/// forking context.
pub(crate) struct Birth {
    pub(crate) id: ThreadId,
    pub(crate) group: Arc<GroupLane>,
    pub(crate) parent: Option<ThreadId>,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("state", &self.state())
            .finish()
    }
}

impl Thread {
    /// Builds the passive thread object, delayed.  Registration (machine
    /// and group registries, counters, the Fork trace) is the spawn path's
    /// job: see `Vm::spawn_with`.
    pub(crate) fn new(
        birth: Birth,
        body: Body,
        name: Option<String>,
        stealable: bool,
        priority: i32,
        quantum: u32,
    ) -> Arc<Thread> {
        Arc::new(Thread {
            id: birth.id,
            name,
            state: StateWord::new(ThreadState::Delayed),
            cells: Cells {
                body: UnsafeCell::new(Some(body)),
                result: UnsafeCell::new(None),
            },
            stealable: AtomicBool::new(stealable),
            priority: AtomicI32::new(priority),
            quantum: AtomicU32::new(quantum),
            core: Mutex::new(ThreadCore {
                parked: None,
                wake_pending: false,
                requests: Vec::new(),
                waiters: Vec::new(),
                waiters_sweep_at: 32,
                blocker: None,
            }),
            vm_ptr: AtomicPtr::new(birth.group.anchor().as_ptr().cast_mut()),
            vm: Mutex::new(None),
            group: birth.group,
            parent: birth.parent.unwrap_or(ThreadId(0)),
            home_vp: AtomicUsize::new(0),
            enqueued_at_ns: AtomicU64::new(0),
            blocked_at_ns: AtomicU64::new(0),
            wait_node: OnceLock::new(),
        })
    }

    /// The thread's process-unique id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Optional debug name.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Current observable state (a racy snapshot, as in the paper).
    pub fn state(&self) -> ThreadState {
        self.state.state()
    }

    /// The thread's lock, for the slow paths only: a parked TCB, queued
    /// requests, join nodes, the blocker.
    pub(crate) fn core(&self) -> MutexGuard<'_, ThreadCore> {
        crate::probe::hit(crate::probe::Probe::ThreadLock);
        self.core.lock()
    }

    /// `Delayed → Scheduled`, one RMW on the state word; `false` if the
    /// thread was no longer delayed (run, stolen or terminated meanwhile).
    pub(crate) fn schedule(&self) -> bool {
        self.state.schedule()
    }

    /// Atomically claims a delayed/scheduled thread for execution or
    /// stealing, moving it to `next`.  Returns the body on success.
    pub(crate) fn claim(&self, next: ThreadState) -> Option<Body> {
        if !self.state.claim(next) {
            return None;
        }
        // SAFETY: winning the claim on the state word makes this the only
        // party that ever touches the body cell (see `Cells`).
        let body = unsafe { (*self.cells.body.get()).take() };
        Some(body.expect("a claimable thread has its body"))
    }

    /// Whether this thread has determined (its result is available).
    pub fn is_determined(&self) -> bool {
        self.state().is_determined()
    }

    /// The thread's result, if determined.
    pub fn result(&self) -> Option<ThreadResult> {
        if !self.is_determined() {
            return None;
        }
        // SAFETY: the Acquire load above saw `Determined`, published after
        // the one write of the cell; nothing writes it again.
        unsafe { (*self.cells.result.get()).clone() }
    }

    /// Whether a toucher may absorb this thread's thunk (see
    /// [`crate::tc::touch`]).
    pub fn is_stealable(&self) -> bool {
        self.stealable.load(Ordering::Acquire)
    }

    /// Allows or forbids stealing of this thread ("users can parametrize
    /// thread state to inform the TC if a thread can steal or not").
    pub fn set_stealable(&self, stealable: bool) {
        self.stealable.store(stealable, Ordering::Release);
    }

    /// Scheduling priority hint, interpreted by the policy manager.
    pub fn priority(&self) -> i32 {
        self.priority.load(Ordering::Acquire)
    }

    /// Sets the scheduling priority hint.
    pub fn set_priority(&self, priority: i32) {
        self.priority.store(priority, Ordering::Release);
    }

    /// Quantum granted per scheduling slice, in units of [`QUANTUM`]
    /// (500 µs).
    pub fn quantum(&self) -> u32 {
        self.quantum.load(Ordering::Acquire)
    }

    /// Sets the per-slice quantum, in units of [`QUANTUM`] (500 µs;
    /// minimum 1): a checkpoint preempts the thread once `units` ×
    /// 500 µs have passed since its first checkpoint in the slice.
    pub fn set_quantum(&self, units: u32) {
        self.quantum.store(units.max(1), Ordering::Release);
    }

    /// The thread group this thread belongs to.
    pub fn group(&self) -> &Arc<ThreadGroup> {
        self.group.group()
    }

    pub(crate) fn group_lane(&self) -> &Arc<GroupLane> {
        &self.group
    }

    /// The thread's parent, if still alive (genealogy).
    ///
    /// Found by id in the machine's thread registry (every shard's, in a
    /// fleet), as [`Thread::children`] are: a monitoring query pays for
    /// the scan so that a fork does not pay for a reference.
    pub fn parent(&self) -> Option<Arc<Thread>> {
        let parent = self.parent_id()?;
        self.registry().into_iter().find(|t| t.id() == parent)
    }

    /// The thread's live children (genealogy), whichever VP forked them.
    ///
    /// Derived from the machine's thread registry (every shard's, in a
    /// fleet) rather than kept per parent: a monitoring query pays for the
    /// scan so that a fork does not pay for a list.
    pub fn children(&self) -> Vec<Arc<Thread>> {
        let mut all = self.registry();
        all.retain(|t| t.parent == self.id);
        all
    }

    /// Every live thread of this thread's machine — of every shard, in a
    /// fleet: one scan of the registry.  A walk over many threads (see
    /// [`ThreadGroup::genealogy`]) takes it once and sorts it by
    /// [`Thread::parent_id`], rather than call [`Thread::children`] per
    /// node.
    pub(crate) fn registry(&self) -> Vec<Arc<Thread>> {
        let Some(vm) = self.vm() else {
            return Vec::new();
        };
        match vm.fabric() {
            Some(fabric) => (0..fabric.shard_count())
                .filter_map(|i| fabric.shard_vm(i))
                .flat_map(|shard| shard.threads())
                .collect(),
            None => vm.threads(),
        }
    }

    /// The id of the thread's parent, alive or not; `None` for a thread
    /// forked with no parent on its machine.
    pub(crate) fn parent_id(&self) -> Option<ThreadId> {
        Some(self.parent).filter(|p| p.0 != 0)
    }

    /// The condition value this thread is blocked on, if any.
    pub fn blocker(&self) -> Option<Value> {
        self.core().blocker.clone()
    }

    /// Wraps this thread as a substrate [`Value`] (threads are data).
    pub fn to_value(self: &Arc<Thread>) -> Value {
        Value::native("thread", self.clone())
    }

    /// The thread's blocking-protocol parking node (see [`crate::wait`]),
    /// created on first use.
    pub(crate) fn wait_node(self: &Arc<Thread>) -> &Arc<crate::wait::WaitNode> {
        self.wait_node
            .get_or_init(|| Arc::new(crate::wait::WaitNode::green(Arc::downgrade(self))))
    }

    /// Cancels whatever wait episode is armed, returning its generation;
    /// a thread that never parked has none.
    fn cancel_wait_episode(&self) -> Option<u64> {
        self.wait_node.get()?.state().cancel_current()
    }

    /// Registers `node` to be completed when this thread determines.
    ///
    /// Returns `false` (without registering) if the thread has already
    /// determined; the caller should then count the completion itself.
    pub fn add_wait_node(&self, node: &Arc<JoinNode>) -> bool {
        if self.is_determined() {
            return false;
        }
        let mut core = self.core();
        // The flag goes on the word before the node goes on the list, both
        // under the lock: a determination that sees the flag takes the lock
        // after us and finds the node; one that the flag misses has
        // published `Determined`, and the RMW refuses.
        if !self.state.set_unless_determined(WAITERS) {
            false
        } else {
            // Amortized sweep of satisfied nodes: a waiter woken through
            // *another* watched thread (wait-for-one) leaves its node here
            // with `remaining == 0`; on a long-lived thread those would
            // otherwise accumulate until it determines.  Sweeping only when
            // the list doubles past the previous sweep's survivors keeps
            // registration O(1) amortized.
            if core.waiters.len() >= core.waiters_sweep_at {
                core.waiters.retain(|w| w.remaining() > 0);
                core.waiters_sweep_at = (core.waiters.len() * 2).max(32);
            }
            core.waiters.push(node.clone());
            true
        }
    }

    /// Blocks the caller until this thread determines: [`crate::tc::wait`]
    /// for a caller that holds the thread by reference.
    ///
    /// This is how code outside the virtual machine (e.g. `main`) joins a
    /// thread: the OS thread parks on a join node until the determination
    /// unparks it.  Called on a STING thread it parks only that thread,
    /// never its VP's OS worker.
    pub fn join_blocking(&self) -> ThreadResult {
        crate::tc::join(self, static_sym!("join"), None)
            .expect("a join without a deadline determines")
    }

    /// Like [`Thread::join_blocking`] with a timeout; `None` on timeout.
    pub fn join_blocking_timeout(&self, timeout: Duration) -> Option<ThreadResult> {
        let deadline = std::time::Instant::now() + timeout;
        crate::tc::join(self, static_sym!("join"), Some(deadline))
    }

    /// Waits for this thread to determine, for at most `timeout`; `None`
    /// on timeout.  On a STING thread this parks only the green thread
    /// (with the deadline routed through the VM's timers, see
    /// [`crate::tc::wait_timeout`]); on a plain OS thread it parks that
    /// thread.
    pub fn wait_timeout(self: &Arc<Thread>, timeout: Duration) -> Option<ThreadResult> {
        crate::tc::wait_timeout(self, timeout)
    }

    /// Records an asynchronous state-change request (the paper's
    /// `thread-block` / `thread-suspend` / `thread-terminate` applied to
    /// *another* thread).  Evaluating targets honour it at their next
    /// thread-controller entry; passive targets are transitioned directly.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidTransition`] if the target's current state does
    /// not admit the request.
    pub fn request(self: &Arc<Thread>, request: StateRequest) -> Result<(), CoreError> {
        // A passive thread is determined right here: it has no TCB whose
        // owner must cooperate.  Winning it on the state word beats every
        // claim, so the thunk is discarded, never run.
        let passive = match &request {
            StateRequest::Terminate(v) => Some(Ok(v)),
            StateRequest::Raise(v) => Some(Err(v)),
            _ => None,
        };
        if let Some(outcome) = passive {
            if let Some(state) = self.state.begin_determine(true) {
                let result = outcome.cloned().map_err(Value::clone);
                self.determine(state, result);
                return Ok(());
            }
        }
        let mut core = self.core();
        let state = self.state();
        if !state.can_request(&request) {
            return Err(CoreError::InvalidTransition {
                detail: "request not permitted in the target's current state",
            });
        }
        match (&request, state) {
            (StateRequest::Resume, ThreadState::Delayed) => {
                drop(core);
                let vm = self.vm().ok_or(CoreError::Shutdown)?;
                let vp = self.home_vp.load(Ordering::Relaxed) % vm.vp_count();
                vm.schedule_fresh(self, vp)
            }
            (StateRequest::Resume, ThreadState::Blocked | ThreadState::Suspended) => {
                drop(core);
                self.unblock();
                Ok(())
            }
            // Requests against an evaluating (or parked) thread are queued
            // and applied by the thread itself; parked targets are woken so
            // they notice promptly.  (A lethal request whose passive
            // determination above lost to another determiner lands here
            // too, on a thread that will never run: it is moot.)
            _ => {
                let lethal = passive.is_some();
                core.requests.push(request);
                self.state.set_unless_determined(REQUESTS);
                let parked = state.has_tcb() && state != ThreadState::Evaluating;
                drop(core);
                if lethal {
                    // The target will unwind at its next controller entry:
                    // cancel its wait episode *now* so no structure spends
                    // a wake-up on (or counts) the dying waiter.
                    if let Some(gen) = self.cancel_wait_episode() {
                        if let Some(vm) = self.vm() {
                            // Origin 0: a state request.
                            let cancelled = crate::trace::EventKind::WaiterCancelled;
                            vm.note(tls::lane_in(&vm), cancelled, self, 0, gen as u32);
                        }
                    }
                }
                if parked {
                    self.unblock();
                }
                Ok(())
            }
        }
    }

    /// Makes a blocked/suspended thread runnable again (or records a
    /// pending wake-up if it has not finished parking yet).  Idempotent;
    /// spurious wake-ups are allowed and synchronization structures must
    /// re-check their condition.
    pub(crate) fn unblock(self: &Arc<Thread>) {
        self.unblock_inner(0);
    }

    /// [`Thread::unblock`] for a wake-up that consumed wait episode `gen`
    /// via the claim token ([`crate::wait::Waiter::wake`]).  The trace
    /// event carries the generation (its low 32 bits; generations start at
    /// 1, so `b != 0` distinguishes claimed wake-ups from plain ones) for
    /// the audit's wake-after-cancel check.
    pub(crate) fn unblock_claimed(self: &Arc<Thread>, gen: u64) {
        self.unblock_inner(gen as u32);
    }

    fn unblock_inner(self: &Arc<Thread>, claimed_gen: u32) {
        if let Some(tcb) = self.take_parked_tcb() {
            self.with_vm(|vm, lane| {
                let vp = self.note_unblock(vm, lane, claimed_gen);
                vm.enqueue_parked(tcb, vp, crate::pm::EnqueueState::Unblocked);
            });
        }
    }

    /// [`Thread::unblock_claimed`], but the ready-queue publication is
    /// deferred into `batch` (see [`crate::wait::WakeBatch`]).  The state
    /// transition, wake-up counter and Unblock trace all happen here; only
    /// the enqueue waits for the batch to publish.
    pub(crate) fn unblock_deferred(
        self: &Arc<Thread>,
        gen: u64,
        batch: &mut crate::wait::WakeBatch,
    ) {
        if let Some(tcb) = self.take_parked_tcb() {
            self.with_vm(|vm, lane| {
                let vp = self.note_unblock(vm, lane, gen as u32);
                batch.add(vm.clone(), vp, tcb);
            });
        }
    }

    /// Runs `f` with this thread's machine and the caller's lane on it
    /// (`None` off that machine).  A caller running on the thread's own
    /// machine — the common case for wakes, steals and determinations —
    /// lends the machine it already has; anyone else pays for
    /// [`Thread::vm`].  `None` if the machine is gone.
    fn with_vm<R>(&self, f: impl FnOnce(&Arc<Vm>, Option<usize>) -> R) -> Option<R> {
        let mut f = Some(f);
        let at_home = tls::with(|cur| {
            let c = cur.filter(|c| self.belongs_to(c.vm))?;
            Some((f.take()?)(c.vm, Some(c.vp.index())))
        });
        if at_home.is_some() {
            return at_home;
        }
        let vm = self.vm()?;
        Some((f.take()?)(&vm, None))
    }

    /// Claims the parked TCB if this thread is blocked/suspended with one,
    /// transitioning it to `Evaluating`; records a pending wake-up
    /// otherwise.
    fn take_parked_tcb(&self) -> Option<Tcb> {
        let mut core = self.core();
        match self.state() {
            ThreadState::Blocked | ThreadState::Suspended => match core.parked.take() {
                Some(tcb) => {
                    core.blocker = None;
                    self.state.unpark();
                    Some(tcb)
                }
                None => {
                    // Raced with the parking VP: it will see the flag.
                    core.wake_pending = true;
                    None
                }
            },
            ThreadState::Evaluating => {
                // Woken before it even parked.
                core.wake_pending = true;
                None
            }
            _ => None,
        }
    }

    /// Notes the wake-up of a taken TCB on `lane` (see
    /// [`crate::trace::EventKind::Unblock`]).  Returns the destination VP.
    fn note_unblock(&self, vm: &Vm, lane: Option<usize>, claimed_gen: u32) -> usize {
        let vp = self.home_vp.load(Ordering::Relaxed) % vm.vp_count();
        let unblock = crate::trace::EventKind::Unblock;
        vm.note(lane, unblock, self, vp as u32, claimed_gen);
        vp
    }

    /// Finalizes the thread with `result`: sets `Determined`, publishes the
    /// value, and wakes every waiter (the paper's `wakeup-waiters`).  The
    /// first determination wins; later ones are ignored.
    pub(crate) fn complete(self: &Arc<Thread>, result: ThreadResult) {
        if let Some(state) = self.state.begin_determine(false) {
            self.determine(state, result);
        }
    }

    /// Finishes a determination this caller won on the state word, from
    /// `state`, looking the machine up for its counters and trace.
    fn determine(self: &Arc<Thread>, state: ThreadState, result: ThreadResult) {
        let mut result = Some(result);
        self.with_vm(|vm, lane| {
            self.publish(state, Some(vm), lane, result.take().expect("taken once"));
        });
        if let Some(result) = result {
            self.publish(state, None, None, result);
        }
    }

    /// [`Thread::complete`] for a caller that already holds the thread's
    /// machine (`None` once it is gone) and knows which `lane` it runs on:
    /// the determination then touches no shared reference count and counts
    /// on the caller's own lane.
    pub(crate) fn complete_on(
        self: &Arc<Thread>,
        vm: Option<&Vm>,
        lane: Option<usize>,
        result: ThreadResult,
    ) {
        if let Some(state) = self.state.begin_determine(false) {
            self.publish(state, vm, lane, result);
        }
    }

    /// The rest of a determination whose winner found the thread in
    /// `state`: discards a thunk nobody claimed, writes the result, flips
    /// the word to `Determined`, and takes the lock only if a flag says
    /// that someone is waiting.
    fn publish(
        self: &Arc<Thread>,
        state: ThreadState,
        vm: Option<&Vm>,
        lane: Option<usize>,
        result: ThreadResult,
    ) {
        // Dropped at the end, once nobody waits on this determination.
        let _discarded = state.is_claimable().then(|| {
            // SAFETY: a determination that found the thread claimable owns
            // the body cell: no claim can win after it (see `Cells`).
            unsafe { (*self.cells.body.get()).take() }
        });
        // A wait episode still armed at determination is a protocol leak:
        // every park path (normal return, unwind guard, request
        // cancellation) must have closed it.  Kill it so no structure can
        // wake a recycled thread, and trace it for the audit's
        // waiter-leak invariant.
        if let Some(gen) = self.cancel_wait_episode() {
            if let Some(vm) = vm {
                // Origin 2: leaked at determine.
                let cancelled = crate::trace::EventKind::WaiterCancelled;
                vm.note(lane, cancelled, self, 2, gen as u32);
            }
        }
        let failed = result.is_err();
        // SAFETY: this caller won `begin_determine`, so it is the one
        // writer of the result cell, and nobody reads it before the
        // Release in `finish_determine` below publishes it.
        unsafe { *self.cells.result.get() = Some(result) };
        let waiting = self.state.finish_determine();
        if let Some(vm) = vm {
            let determine = crate::trace::EventKind::Determine;
            vm.note(lane, determine, self, u32::from(failed), 0);
        }
        if waiting & WAITERS == 0 {
            return;
        }
        // Someone registered before the flip: the lock orders us after
        // their registration (see `add_wait_node`).
        let waiters = std::mem::take(&mut self.core().waiters);
        for w in waiters {
            w.complete_one();
        }
    }

    /// The owning machine, if it is still alive: the shard a handoff
    /// re-homed the thread to, else its group lane's.  The slow path:
    /// takes the thread's re-home lock and a reference on the machine.
    pub(crate) fn vm(&self) -> Option<Arc<Vm>> {
        crate::probe::hit(crate::probe::Probe::WeakUpgrade);
        let rehomed = self.vm.lock();
        let anchor = rehomed.as_ref().unwrap_or(self.group.anchor());
        debug_assert_eq!(anchor.as_ptr(), self.vm_ptr.load(Ordering::Relaxed));
        anchor.upgrade()
    }

    /// Whether this thread belongs to `vm` (same shard).
    pub(crate) fn belongs_to(&self, vm: &Arc<Vm>) -> bool {
        std::ptr::eq(self.vm_ptr.load(Ordering::Acquire), Arc::as_ptr(vm))
    }

    /// Re-points the thread at a new owning shard, `vm`, whose VP `vp`
    /// receives it: the handle it keeps is that VP's lane's, and `vp`
    /// becomes its wake target.  Caller must hold the only reference to
    /// the thread's run state (a handed-off `RunItem`): the thread is
    /// neither queued, running, nor parked on the source shard when this
    /// runs, so readers racing `vm()` see either shard coherently and both
    /// are valid wake targets during the handoff.
    pub(crate) fn rehome(&self, vm: &Arc<Vm>, vp: usize) {
        let mut rehomed = self.vm.lock();
        *rehomed = Some(vm.anchor(Some(vp)));
        self.vm_ptr
            .store(Arc::as_ptr(vm).cast_mut(), Ordering::Release);
        self.home_vp.store(vp, Ordering::Relaxed);
    }

    /// Drains pending asynchronous requests (called by the owning thread at
    /// thread-controller entries).  Locks only when the word says one is
    /// queued; a request queued concurrently is seen at the next entry.
    pub(crate) fn take_requests(&self) -> Vec<StateRequest> {
        if !self.state.has(REQUESTS) {
            return Vec::new();
        }
        let mut core = self.core();
        self.state.clear(REQUESTS);
        std::mem::take(&mut core.requests)
    }

    /// Parks `tcb` as this thread's, moving it from `Evaluating` to `to`
    /// (`Blocked` or `Suspended`) — unless a wake-up raced ahead of the
    /// park, in which case the TCB comes back to be re-queued.  `parked`
    /// runs under the lock once the TCB is parked.
    pub(crate) fn park(&self, tcb: Tcb, to: ThreadState, parked: impl FnOnce()) -> Option<Tcb> {
        let mut core = self.core();
        if core.wake_pending {
            core.wake_pending = false;
            return Some(tcb);
        }
        self.state.park(to);
        core.parked = Some(tcb);
        parked();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::VmBuilder;
    use std::sync::atomic::AtomicBool;

    /// Counts its drops on a count the test holds.
    struct DropCount(Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The first word of the body's slot: where a boxed closure's pointer
    /// sits.
    fn first_word<T>(body: &Body) -> *const T {
        // SAFETY: every body initializes at least the first word.
        unsafe { body.slot.as_ptr().cast::<*const T>().read() }
    }

    #[test]
    fn body_of_three_words_runs_in_place() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let words = [0x5117_0001usize, 0x5117_0002, 0x5117_0003];
        let body = Body::new(move |_cx| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Int(words.iter().sum::<usize>() as i64))
        });
        // SAFETY: a three-word closure fills the slot.
        let mut held = unsafe { body.slot.assume_init() };
        held.sort_unstable();
        assert_eq!(held, words, "the captures sit in the slot");
        let sum = words.iter().sum::<usize>() as i64;
        assert_eq!(body.run(&Cx::new()), Ok(Value::Int(sum)));
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn body_of_four_words_is_boxed() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let words = [0x5117_0001usize, 0x5117_0002, 0x5117_0003, 0x5117_0004];
        let body = Body::new(move |_cx| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Int(words.iter().sum::<usize>() as i64))
        });
        // SAFETY: a boxed body's first word points at its closure, four
        // words of captures.
        let mut boxed = unsafe { *first_word::<[usize; 4]>(&body) };
        boxed.sort_unstable();
        assert_eq!(boxed, words, "the captures sit behind the first word");
        let sum = words.iter().sum::<usize>() as i64;
        assert_eq!(body.run(&Cx::new()), Ok(Value::Int(sum)));
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn body_aligned_past_a_word_is_boxed() {
        #[repr(align(16))]
        struct Wide(i64);
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let wide = Wide(16);
        let body = Body::new(move |_cx| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            let wide = wide;
            Ok(Value::Int(wide.0))
        });
        let boxed = first_word::<Wide>(&body);
        assert_eq!(boxed as usize % 16, 0, "the box keeps the alignment");
        // SAFETY: a boxed body's first word points at its closure, whose
        // one capture is the `Wide`.
        assert_eq!(unsafe { (*boxed).0 }, 16);
        assert_eq!(body.run(&Cx::new()), Ok(Value::Int(16)));
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn body_dropped_unrun_drops_its_captures_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let small = DropCount(drops.clone());
        let large = (DropCount(drops.clone()), [0usize; 4]);
        drop(Body::new(move |_cx| {
            let _small = small;
            Ok(Value::Int(0))
        }));
        drop(Body::new(move |_cx| {
            let _large = large;
            Ok(Value::Int(0))
        }));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn body_that_runs_drops_its_captures_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let small = DropCount(drops.clone());
        let large = (DropCount(drops.clone()), [0usize; 4]);
        let cx = Cx::new();
        let ran = Body::new(move |_cx| {
            let _small = small;
            Ok(Value::Int(1))
        })
        .run(&cx);
        assert_eq!(ran, Ok(Value::Int(1)));
        let ran = Body::new(move |_cx| {
            let _large = large;
            Ok(Value::Int(2))
        })
        .run(&cx);
        assert_eq!(ran, Ok(Value::Int(2)));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    /// A thread that never runs drops its body's captures exactly once,
    /// whoever discards it: the last handle of a delayed thread, a
    /// terminate before the claim, or the shutdown drain.
    #[test]
    fn unrun_threads_drop_their_captures_once() {
        let vm = VmBuilder::new().vps(1).build();
        let drops = Arc::new(AtomicUsize::new(0));
        let runs = Arc::new(AtomicUsize::new(0));
        let body = || {
            let (probe, runs) = (DropCount(drops.clone()), runs.clone());
            move |_cx: &Cx| {
                let _probe = probe;
                runs.fetch_add(1, Ordering::SeqCst);
                0i64
            }
        };

        drop(vm.delayed(body()));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped unclaimed");

        let t = vm.delayed(body());
        t.request(StateRequest::Terminate(Value::Int(7))).unwrap();
        assert_eq!(t.result(), Some(Ok(Value::Int(7))));
        assert_eq!(drops.load(Ordering::SeqCst), 2, "terminated");
        drop(t);
        assert_eq!(drops.load(Ordering::SeqCst), 2, "terminated, then freed");

        // The one VP's worker holds its slice until shutdown stops the
        // machine, so the queued thread and the delayed one are drained
        // before any claim.
        let started = Arc::new(AtomicBool::new(false));
        let spinner = {
            let started = started.clone();
            vm.fork(move |cx| {
                let vm = cx.vm();
                started.store(true, Ordering::SeqCst);
                while !vm.is_stopped() {
                    std::hint::spin_loop();
                }
                0i64
            })
        };
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let queued = vm.fork_on(0, body()).unwrap();
        let delayed = vm.delayed(body());
        vm.shutdown();
        let shutdown = Some(Err(Value::sym("vm-shutdown")));
        assert_eq!(queued.result(), shutdown);
        assert_eq!(delayed.result(), shutdown);
        assert_eq!(drops.load(Ordering::SeqCst), 4, "drained");
        drop((queued, delayed, spinner));
        assert_eq!(drops.load(Ordering::SeqCst), 4, "drained, then freed");
        assert_eq!(runs.load(Ordering::SeqCst), 0);
    }

    /// A body kept in place that raises, or returns `Err`, determines its
    /// thread with `Err`, dispatched or stolen.
    #[test]
    fn in_place_body_that_raises_determines_with_err() {
        let vm = VmBuilder::new().vps(1).build();
        let raised = vm.fork(|cx| -> i64 { cx.raise(Value::sym("boom")) });
        assert_eq!(raised.join_blocking(), Err(Value::sym("boom")));
        let failed = vm.fork_try(|_cx| Err::<i64, _>(Value::sym("bust")));
        assert_eq!(failed.join_blocking(), Err(Value::sym("bust")));
        let stolen = vm.run(|cx| {
            let child = cx.fork(|cx| -> i64 { cx.raise(Value::sym("deep")) });
            let seen = cx.touch(&child);
            (seen == Err(Value::sym("deep")) && child.result() == Some(seen)) as i64
        });
        assert_eq!(stolen, Ok(Value::Int(1)));
        vm.shutdown();
    }
}
