//! The thread controller: synchronous state transitions on the current
//! thread.
//!
//! These are the paper's TC operations (Section 3.1):
//!
//! | paper                      | here                                    |
//! |----------------------------|-----------------------------------------|
//! | `(fork-thread expr vp)`    | [`Cx::fork_on`] / [`Vm::fork_on`]       |
//! | `(create-thread expr)`     | [`Cx::delayed`] / [`Vm::delayed`]       |
//! | `(thread-run thread vp)`   | [`thread_run`]                          |
//! | `(thread-wait thread)`     | [`wait`]                                |
//! | `(thread-value thread)`    | [`touch`] (with stealing) / [`wait`]    |
//! | `(thread-block thread)`    | [`thread_block`]                        |
//! | `(thread-suspend thread)`  | [`thread_suspend`]                      |
//! | `(thread-terminate t v)`   | [`thread_terminate`]                    |
//! | `(yield-processor)`        | [`yield_now`]                           |
//! | `(current-thread)`         | [`current_thread`]                      |
//! | `(current-vp)`             | [`current_vp`]                          |
//!
//! Operations on *other* threads only record requests (see
//! [`Thread::request`]); operations on the current thread take effect
//! immediately.  A thread also enters the controller on preemption — in
//! this implementation, whenever it calls [`checkpoint`], which the Scheme
//! virtual machine does automatically every few instructions.
//!
//! Scheduling is split in two: a fork goes on the forking VP when the
//! substrate keeps its ready queue — the lock-free [`deque`](crate::deque)
//! tier, every shipped per-VP policy — and otherwise wherever the VP's
//! [`PolicyManager`](crate::pm::PolicyManager) says
//! ([`PolicyManager::choose_vp`](crate::pm::PolicyManager::choose_vp),
//! under the policy lock), whose own queue then takes the item (see
//! [`PolicyManager::queue_kind`](crate::pm::PolicyManager::queue_kind) and
//! DESIGN.md, "Scheduler fast path").
//!
//! [`Vm::fork_on`]: crate::vm::Vm::fork_on
//! [`Vm::delayed`]: crate::vm::Vm::delayed

use crate::counters::Counters;
use crate::error::CoreError;
use crate::state::{StateRequest, ThreadState};
use crate::tcb::{Disposition, ThreadSuspender, Wakeup};
use crate::thread::{JoinNode, Thread, ThreadResult, Thunk, TryThunk};
use crate::tls;
use crate::vm::Vm;
use crate::vp::Vp;
use crate::wait::{Waiter, WakeReason};
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_value::Value;

/// Panic payload carrying a `thread-terminate` request through the stack of
/// the terminating thread; converted to the thread's result at its entry
/// frame.
pub(crate) struct TerminatePayload(pub Value);

/// Panic payload for a raised (Scheme-level) exception; converted to an
/// `Err` result at the thread entry frame if no handler catches it.
pub(crate) struct ExceptionPayload(pub Value);

/// Capability token proving the caller is running on a STING thread.
///
/// Thunks receive `&Cx`; its methods are infallible versions of the free
/// functions in this module.  `Cx` is `!Send`, so it cannot leak to OS
/// threads that are not running a STING thread.
pub struct Cx {
    _not_send: PhantomData<*mut ()>,
}

impl std::fmt::Debug for Cx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Cx")
    }
}

impl Cx {
    pub(crate) fn new() -> Cx {
        Cx {
            _not_send: PhantomData,
        }
    }

    /// Obtains the capability token if the caller is running on a STING
    /// thread (language runtimes use this to reach the controller from
    /// primitive implementations).
    pub fn current() -> Option<Cx> {
        tls::on_thread().then(Cx::new)
    }

    /// The thread whose code is currently executing (the stolen thread
    /// during a steal).
    pub fn current_thread(&self) -> Arc<Thread> {
        current_thread().expect("Cx exists off-thread")
    }

    /// The virtual processor this thread is running on.
    pub fn current_vp(&self) -> Arc<Vp> {
        current_vp().expect("Cx exists off-thread")
    }

    /// The virtual machine.
    pub fn vm(&self) -> Arc<Vm> {
        current_vm().expect("Cx exists off-thread")
    }

    /// Relinquishes the VP; the thread goes back to its policy manager's
    /// ready queue (`yield-processor`).
    pub fn yield_now(&self) {
        yield_now().expect("Cx exists off-thread");
    }

    /// Polls for preemption and asynchronous state-change requests; called
    /// automatically by the Scheme VM, manually from long-running native
    /// code.
    pub fn checkpoint(&self) {
        checkpoint();
    }

    /// Forks `thunk` on this machine in `state`, placed by the current VP
    /// ([`Vp::fork_target`], `pm-allocate-vp`) when it is to be scheduled.
    /// Everything is reached through the borrowed scheduler context: no
    /// reference count is touched on the way.
    fn spawn(&self, thunk: TryThunk, state: ThreadState) -> Arc<Thread> {
        tls::with(|cur| {
            let cur = cur.expect("Cx exists off-thread");
            let vp =
                (state == ThreadState::Scheduled).then(|| cur.vp.fork_target() % cur.vm.vp_count());
            cur.vm.spawn_with(thunk, state, vp, None)
        })
    }

    /// Forks `f` as a new thread scheduled on the current VP — or, when
    /// its policy manager keeps its own queue, on the VP that manager
    /// chooses (`pm-allocate-vp`).
    pub fn fork<F, V>(&self, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        self.spawn(erase(f), ThreadState::Scheduled)
    }

    /// Like [`Cx::fork`] for bodies that produce a `Result`: an `Err`
    /// becomes the thread's exception outcome without unwinding.
    pub fn fork_try<F, V>(&self, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> Result<V, Value> + Send + 'static,
        V: Into<Value>,
    {
        self.spawn(erase_try(f), ThreadState::Scheduled)
    }

    /// Like [`Cx::fork_on`] for `Result`-producing bodies.
    ///
    /// # Errors
    ///
    /// [`CoreError::VpOutOfRange`] if `vp` is not a valid index.
    pub fn fork_on_try<F, V>(&self, vp: usize, f: F) -> Result<Arc<Thread>, CoreError>
    where
        F: FnOnce(&Cx) -> Result<V, Value> + Send + 'static,
        V: Into<Value>,
    {
        tls::with(|cur| {
            let vm = cur.expect("Cx exists off-thread").vm;
            if vp >= vm.vp_count() {
                return Err(CoreError::VpOutOfRange {
                    index: vp,
                    len: vm.vp_count(),
                });
            }
            Ok(vm.spawn_with(erase_try(f), ThreadState::Scheduled, Some(vp), None))
        })
    }

    /// Like [`Cx::delayed`] for `Result`-producing bodies.
    pub fn delayed_try<F, V>(&self, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> Result<V, Value> + Send + 'static,
        V: Into<Value>,
    {
        self.spawn(erase_try(f), ThreadState::Delayed)
    }

    /// Forks `f` on virtual processor `vp` (`fork-thread expr vp`).
    ///
    /// # Errors
    ///
    /// [`CoreError::VpOutOfRange`] if `vp` is not a valid index.
    pub fn fork_on<F, V>(&self, vp: usize, f: F) -> Result<Arc<Thread>, CoreError>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        tls::with(|cur| cur.expect("Cx exists off-thread").vm.fork_on(vp, f))
    }

    /// Creates a delayed thread: it runs only if demanded with [`touch`] /
    /// [`thread_run`] (`create-thread`).
    pub fn delayed<F, V>(&self, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        self.spawn(erase(f), ThreadState::Delayed)
    }

    /// Blocks until `thread` determines and returns its result
    /// (`thread-wait` + `thread-value`, without stealing).
    pub fn wait(&self, thread: &Arc<Thread>) -> ThreadResult {
        wait(thread)
    }

    /// Like [`Cx::wait`] with a timeout; `None` if `thread` has not
    /// determined within `timeout`.
    pub fn wait_timeout(&self, thread: &Arc<Thread>, timeout: Duration) -> Option<ThreadResult> {
        wait_timeout(thread, timeout)
    }

    /// Demands `thread`'s value, absorbing its thunk into this thread's TCB
    /// when legal (`touch` with the stealing optimization of §4.1.1).
    pub fn touch(&self, thread: &Arc<Thread>) -> ThreadResult {
        touch(thread)
    }

    /// Blocks the current thread; some other thread must hold an
    /// `Arc<Thread>` to it and resume it later.  `blocker` describes what
    /// we are blocked on (visible via [`Thread::blocker`]).
    ///
    /// Wake-ups can be spurious: callers must re-check their condition.
    /// The returned [`WakeReason`] reports why the thread resumed (a
    /// timed park's deadline, a cancellation that did not unwind, or a
    /// plain wake-up).
    pub fn block(&self, blocker: Option<Value>) -> WakeReason {
        block_current(blocker).expect("Cx exists off-thread")
    }

    /// Suspends the current thread; with `Some(d)` it resumes automatically
    /// after roughly `d` (`thread-suspend`).
    pub fn suspend(&self, duration: Option<Duration>) {
        suspend_current(duration).expect("Cx exists off-thread");
    }

    /// Sleeps for roughly `d` without occupying the VP.
    pub fn sleep(&self, d: Duration) {
        self.suspend(Some(d));
    }

    /// Raises an exception on the current thread.  If nothing catches it,
    /// the thread determines with `Err(value)` and waiters observe the
    /// exception (exception handling crosses thread boundaries).
    pub fn raise(&self, value: Value) -> ! {
        panic::panic_any(ExceptionPayload(value))
    }

    /// Terminates the current thread with `value` as its result.
    pub fn terminate(&self, value: Value) -> ! {
        panic::panic_any(TerminatePayload(value))
    }

    /// Runs `f` with preemption disabled (`without-preemption`); nests.
    /// A preemption arriving meanwhile is honoured right after `f`.
    pub fn without_preemption<R>(&self, f: impl FnOnce() -> R) -> R {
        // Owned, not borrowed: `f` may switch fibers, and the TCB is the
        // same one wherever the thread resumes.
        let shared = tls::with(|cur| cur.expect("Cx exists off-thread").shared.clone());
        shared.preempt_disabled.fetch_add(1, Ordering::Relaxed);
        let r = f();
        shared.preempt_disabled.fetch_sub(1, Ordering::Relaxed);
        checkpoint();
        r
    }

    /// Sets the current thread's priority and informs the policy manager
    /// (`pm-priority`).
    pub fn set_priority(&self, priority: i32) {
        tls::with(|cur| {
            let cur = cur.expect("Cx exists off-thread");
            cur.shared.thread.set_priority(priority);
            cur.vp.pm().set_priority(cur.vp, priority);
        });
    }

    /// Sets the current thread's quantum, in units of
    /// [`QUANTUM`](crate::thread::QUANTUM) (500 µs), and informs the policy
    /// manager (`pm-quantum`).
    pub fn set_quantum(&self, units: u32) {
        tls::with(|cur| {
            let cur = cur.expect("Cx exists off-thread");
            cur.shared.thread.set_quantum(units);
            cur.vp.pm().set_quantum(cur.vp, units);
        });
    }
}

pub(crate) fn erase<F, V>(f: F) -> TryThunk
where
    F: FnOnce(&Cx) -> V + Send + 'static,
    V: Into<Value>,
{
    Box::new(move |cx| Ok(f(cx).into()))
}

pub(crate) fn erase_try<F, V>(f: F) -> TryThunk
where
    F: FnOnce(&Cx) -> Result<V, Value> + Send + 'static,
    V: Into<Value>,
{
    Box::new(move |cx| f(cx).map(Into::into))
}

/// Boxes a plain [`Thunk`] as a [`TryThunk`].
pub(crate) fn lift(thunk: Thunk) -> TryThunk {
    Box::new(move |cx| Ok(thunk(cx)))
}

/// The body run by every thread fiber: applies early requests, runs the
/// thunk, and maps unwinds to results.
pub(crate) fn thread_main(thunk: TryThunk) -> ThreadResult {
    let cx = Cx::new();
    // The early requests are applied inside the unwind boundary: a
    // terminate or raise that lands between the dispatch and the first
    // instruction must become the thread's result like any later one, not
    // unwind through the fiber into the worker driving it.
    map_unwind(panic::catch_unwind(AssertUnwindSafe(move || {
        apply_requests();
        thunk(&cx)
    })))
}

/// Converts a caught unwind into a thread result, re-raising forced
/// unwinds (fiber cancellation) which must propagate.
pub(crate) fn map_unwind(r: Result<ThreadResult, Box<dyn std::any::Any + Send>>) -> ThreadResult {
    match r {
        Ok(v) => v,
        Err(p) => {
            if p.is::<sting_context::ForcedUnwind>() {
                panic::resume_unwind(p);
            } else if let Some(t) = p.downcast_ref::<TerminatePayload>() {
                Ok(t.0.clone())
            } else if let Some(e) = p.downcast_ref::<ExceptionPayload>() {
                Err(e.0.clone())
            } else if let Some(s) = p.downcast_ref::<&str>() {
                Err(Value::from(format!("panic: {s}")))
            } else if let Some(s) = p.downcast_ref::<String>() {
                Err(Value::from(format!("panic: {s}")))
            } else {
                Err(Value::from("panic: (opaque payload)"))
            }
        }
    }
}

/// Whether the calling OS thread is currently executing a STING thread.
pub fn on_thread() -> bool {
    tls::on_thread()
}

/// Installs (once per process) a panic hook that stays silent for the
/// substrate's internal control-flow payloads — thread termination,
/// raised Scheme exceptions, fiber cancellation — which are panics only as
/// an unwinding mechanism, never bugs.  Real panics still print.
pub(crate) fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<TerminatePayload>()
                || p.is::<ExceptionPayload>()
                || p.is::<sting_context::ForcedUnwind>()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// The currently executing thread (`current-thread`), if on one.
pub fn current_thread() -> Option<Arc<Thread>> {
    tls::with(|cur| cur.map(|c| c.shared.identity(Arc::clone)))
}

/// The thread owning the current TCB.  During a steal this is the
/// *stealer*, not the stolen thread ([`current_thread`]) — blocking parks
/// the TCB owner, so synchronization structures must register **this**
/// thread as their waiter and later [`unblock`] it.
pub fn current_owner() -> Option<Arc<Thread>> {
    tls::with(|cur| cur.map(|c| c.shared.thread.clone()))
}

/// The current virtual processor (`current-vp`), if on a thread.
pub fn current_vp() -> Option<Arc<Vp>> {
    tls::with(|cur| cur.map(|c| c.vp.clone()))
}

/// The VM (shard) driving the calling thread, if on one.
pub fn current_vm() -> Option<Arc<crate::vm::Vm>> {
    tls::with(|cur| cur.map(|c| c.vm.clone()))
}

/// The shard index of the VM driving the calling thread (`0` on a
/// standalone VM), if on a thread.  See [`crate::fleet`].
pub fn current_shard() -> Option<usize> {
    tls::with(|cur| cur.map(|c| c.vm.shard_id()))
}

/// Switches back to the scheduler with `disposition`; returns on resume.
pub(crate) fn switch_out(disposition: Disposition) -> Wakeup {
    let sus = tls::with(|cur| {
        cur.expect("switch_out called off-thread")
            .shared
            .suspender
            .load(Ordering::Acquire)
    }) as *mut ThreadSuspender;
    debug_assert!(!sus.is_null(), "suspender not registered");
    // SAFETY: the suspender lives on this fiber's stack for the fiber's
    // whole lifetime, and only the fiber's own code (us) dereferences it.
    let wake = unsafe { (*sus).suspend(disposition) };
    apply_requests();
    wake
}

/// Applies asynchronous state-change requests queued against the TCB's
/// owning thread (the paper's "requested state transitions ... take place
/// only when the target thread next makes a TC call").
pub(crate) fn apply_requests() {
    // The common case — nothing requested — stays inside the borrowed
    // context: one lock on the thread's own line, nothing cloned.
    let pending = tls::with(|cur| {
        let cur = cur?;
        let requests = cur.shared.thread.take_requests();
        (!requests.is_empty()).then(|| (cur.shared.thread.clone(), requests))
    });
    let Some((thread, requests)) = pending else {
        return;
    };
    for req in requests {
        if let Some(vm) = thread.vm() {
            let code = match &req {
                StateRequest::Terminate(_) => 0,
                StateRequest::Raise(_) => 1,
                StateRequest::Block => 2,
                StateRequest::Suspend(_) => 3,
                StateRequest::Resume => 4,
            };
            crate::trace_event!(
                vm.tracer(),
                tls::lane(),
                crate::trace::EventKind::StateRequest,
                thread.id().0,
                code
            );
        }
        match req {
            StateRequest::Terminate(v) => panic::panic_any(TerminatePayload(v)),
            StateRequest::Raise(v) => panic::panic_any(ExceptionPayload(v)),
            StateRequest::Block => {
                switch_out(Disposition::Blocked);
            }
            StateRequest::Suspend(d) => {
                let _timer = resume_timer(d, &thread);
                switch_out(Disposition::Suspended);
            }
            StateRequest::Resume => {}
        }
    }
}

/// Preemption/request poll point.  No-op off-thread.  Long-running native
/// code should call this periodically; the Scheme VM does it per bytecode
/// window.  The thread is preempted once its slice deadline has passed
/// (see [`Thread::quantum`]), unless preemption is disabled — then at the
/// first checkpoint after it is enabled again.
pub fn checkpoint() {
    if tls::with(|cur| cur.is_some_and(|c| c.vm.is_stopped())) {
        panic::panic_any(ExceptionPayload(Value::sym("vm-shutdown")));
    }
    apply_requests();
    // Decide under the borrow, switch outside it: the scheduler re-borrows
    // the slot the moment this fiber yields.
    let preempt = tls::with(|cur| {
        let Some(cur) = cur else { return false };
        let preempt =
            cur.shared.slice_spent() && cur.shared.preempt_disabled.load(Ordering::Relaxed) == 0;
        if preempt {
            crate::trace_event!(
                cur.vm.tracer(),
                Some(cur.vp.index()),
                crate::trace::EventKind::Preempt,
                cur.shared.thread.id().0
            );
        }
        preempt
    });
    if preempt {
        switch_out(Disposition::Yielded { preempted: true });
    }
}

/// Yields the VP to the next ready thread (`yield-processor`).
///
/// # Errors
///
/// [`CoreError::NotOnThread`] when called from a non-STING OS thread.
pub fn yield_now() -> Result<(), CoreError> {
    if !tls::on_thread() {
        return Err(CoreError::NotOnThread);
    }
    switch_out(Disposition::Yielded { preempted: false });
    Ok(())
}

/// Blocks the current thread until something unblocks it; see
/// [`Cx::block`].
///
/// The returned [`WakeReason`] is a non-consuming snapshot of the
/// thread's current wait episode (if any); timed parks
/// ([`Waiter::park_until`]) consume the episode themselves and remain the
/// authoritative source.  Plain wake-ups report `Woken` and may be
/// spurious: callers must re-check their condition.
///
/// # Errors
///
/// [`CoreError::NotOnThread`] when called from a non-STING OS thread.
pub fn block_current(blocker: Option<Value>) -> Result<WakeReason, CoreError> {
    let thread = current_owner().ok_or(CoreError::NotOnThread)?;
    thread.core().blocker = blocker;
    switch_out(Disposition::Blocked);
    Ok(thread.wait_node().state().snapshot_reason())
}

/// Arms the wheel to resume the current thread after `duration`, returning
/// a guard that cancels the entry when the sleep ends — normally *or* by
/// unwinding — so a thread woken early leaves no tombstone to fire a
/// spurious wake-up later.
fn resume_timer(duration: Option<Duration>, thread: &Arc<Thread>) -> Option<ResumeTimerGuard> {
    let (d, vm) = (duration?, thread.vm()?);
    let id = vm.timers().add(Instant::now() + d, thread.clone());
    Some(ResumeTimerGuard { vm, id })
}

struct ResumeTimerGuard {
    vm: Arc<Vm>,
    id: crate::timers::TimerId,
}

impl Drop for ResumeTimerGuard {
    fn drop(&mut self) {
        self.vm.timers().cancel(self.id);
    }
}

/// Suspends the current thread, optionally auto-resuming after `duration`;
/// see [`Cx::suspend`].
///
/// # Errors
///
/// [`CoreError::NotOnThread`] when called from a non-STING OS thread.
pub fn suspend_current(duration: Option<Duration>) -> Result<(), CoreError> {
    let thread = current_owner().ok_or(CoreError::NotOnThread)?;
    let _timer = resume_timer(duration, &thread);
    switch_out(Disposition::Suspended);
    Ok(())
}

/// Blocks until `thread` determines, returning its result.  On a STING
/// thread this parks only the green thread; a plain OS thread parks itself
/// until the determination unparks it.
pub fn wait(thread: &Arc<Thread>) -> ThreadResult {
    join(thread, &thread.to_value(), None).expect("only a deadline ends a wait")
}

/// [`wait`] with a timeout: `None` if `thread` has not determined within
/// `timeout`.  The watched thread never counts the abandoned waiter — the
/// join node is deactivated on every exit path.
pub fn wait_timeout(thread: &Arc<Thread>, timeout: Duration) -> Option<ThreadResult> {
    wait_deadline(thread, Some(Instant::now() + timeout))
}

/// [`wait`] with an optional absolute deadline; `None` on timeout.
pub fn wait_deadline(thread: &Arc<Thread>, deadline: Option<Instant>) -> Option<ThreadResult> {
    join(thread, &thread.to_value(), deadline)
}

/// [`wait_deadline`] for a caller that holds the thread by reference
/// ([`Thread::join_blocking`]).
pub(crate) fn join(
    thread: &Thread,
    blocker: &Value,
    deadline: Option<Instant>,
) -> Option<ThreadResult> {
    if thread.is_determined() || wait_group(1, [thread], blocker, deadline) {
        thread.result()
    } else {
        None
    }
}

/// Blocks the caller until `count` of `threads` have determined (the
/// paper's `block-on-group`, Figure 5), or until `deadline`; `false` on
/// timeout.  The one wait loop: [`wait`], [`Thread::join_blocking`] and
/// `sting_sync`'s group waits all come here, from a STING thread or a
/// plain OS thread alike.  One join node counts the determinations and
/// wakes the caller — a STING thread with `unblock`, an OS thread with
/// `unpark` — and `blocker` is what a parked STING thread is listed as
/// blocked on.
pub fn wait_group<'a>(
    count: usize,
    threads: impl IntoIterator<Item = &'a Thread>,
    blocker: &Value,
    deadline: Option<Instant>,
) -> bool {
    // Registered once for the whole wait: a spurious wake-up re-blocks on
    // the same node rather than append another to each watched thread.
    // The guard deactivates it on *every* exit (done, timeout, unwind), so
    // no watched thread counts into or wakes a departed waiter.
    let node = JoinNode::current(count);
    let _guard = JoinGuard { node: &node };
    for t in threads {
        if !t.add_wait_node(&node) {
            // Already determined: count it without waking ourselves.
            node.count_down();
        }
    }
    loop {
        if node.remaining() == 0 {
            return true;
        }
        // Park one wait episode.  Determinations wake us through the join
        // node (spurious from the episode's view), the deadline through
        // the VM's timers or the OS park's timeout.
        let w = Waiter::current();
        if node.remaining() == 0 {
            // Completed between the check above and arming: the wake-up
            // may already have been spent before we parked.
            let _ = w.retire();
            return true;
        }
        match w.park_until(blocker, deadline) {
            WakeReason::TimedOut => return node.remaining() == 0,
            // A cancellation normally unwinds the thread; if it did not,
            // only a deadline ends the wait.
            WakeReason::Cancelled if deadline.is_some() => return node.remaining() == 0,
            WakeReason::Woken | WakeReason::Cancelled => {}
        }
    }
}

/// Deactivates a join node however the wait ends.
struct JoinGuard<'a> {
    node: &'a Arc<JoinNode>,
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        self.node.cancel();
    }
}

/// How deep steals may nest on one TCB before `touch` falls back to
/// scheduling + blocking.  Each nested steal consumes machine stack on the
/// stealer's TCB; unbounded chains (e.g. a long dependency chain of
/// delayed futures) would overflow it.
pub const MAX_STEAL_DEPTH: u32 = 32;

/// Demands `thread`'s value with the stealing optimization: a delayed or
/// scheduled stealable thread is run directly on the caller's TCB as a
/// procedure call, avoiding a context switch and a TCB allocation
/// (§4.1.1).  Otherwise equivalent to [`wait`].  Steals nest at most
/// [`MAX_STEAL_DEPTH`] deep; beyond that the target is scheduled and
/// waited on instead (semantically equivalent, bounded stack).
pub fn touch(thread: &Arc<Thread>) -> ThreadResult {
    loop {
        let state = thread.state();
        if state == ThreadState::Determined {
            return thread.result().expect("determined");
        }
        // How deep steals already nest on this TCB, if we are on one.
        let depth = tls::with(|cur| cur.map(|c| c.shared.steal_depth.load(Ordering::Relaxed)));
        if let Some(depth) = depth.filter(|_| state.is_claimable() && thread.is_stealable()) {
            if depth < MAX_STEAL_DEPTH {
                if let Some(thunk) = thread.claim(ThreadState::Stolen) {
                    return run_stolen(thread, thunk, state == ThreadState::Scheduled);
                }
                // Lost the race; re-inspect the new state.
                continue;
            }
            // Too deep: hand the thread to the scheduler and park below.
        }
        // Touch *is* the demand: a delayed thread that cannot be stolen
        // must still be scheduled, or the wait would never end ("a delayed
        // thread will never be run unless the value of the thread is
        // explicitly demanded").
        if state == ThreadState::Delayed && !demand_via_scheduler(thread) {
            continue;
        }
        return wait(thread);
    }
}

/// Hands a delayed thread to the scheduler on the toucher's VP so a
/// subsequent [`wait`] terminates.  Returns `true` when it is safe to wait:
/// either the schedule succeeded or nothing ever will run the thread (VM
/// shutdown), in which case the thread is determined here so the waiter
/// observes termination.  Returns `false` when the thread changed state
/// under us (someone else ran, stole or terminated it) — the touch loop
/// must re-inspect rather than park on a discarded demand, which could
/// otherwise leave the toucher blocked forever.
fn demand_via_scheduler(thread: &Arc<Thread>) -> bool {
    let vp = tls::lane().unwrap_or(0);
    match thread_run(thread, vp) {
        Ok(()) => true,
        Err(CoreError::Shutdown) => {
            thread.complete(Err(Value::sym("vm-shutdown")));
            true
        }
        Err(_) => false,
    }
}

/// Runs a stolen thunk on the current TCB under the stolen thread's
/// identity, determining the stolen thread with the outcome.
///
/// `queued` says the thread was scheduled, not delayed: it has a
/// ready-queue entry somewhere, which the steal has just made dead.  The
/// toucher takes that entry with it when it can (pop-on-join; see
/// [`Vp::take_entry`] and [`Vp::reap_dead_entries`]), so that ready queues
/// hold live work, not the husks of absorbed threads.
fn run_stolen(thread: &Arc<Thread>, thunk: TryThunk, queued: bool) -> ThreadResult {
    // This frame is the stolen thread's link in the TCB's identity stack:
    // `thread` stays borrowed, so alive, until the link is undone below.
    let outer = tls::with(|cur| {
        let cur = cur.expect("stealing requires a thread");
        if queued {
            cur.vp.take_entry(thread);
        }
        let depth = cur.shared.steal_depth.load(Ordering::Relaxed);
        note_steal(thread, cur, depth);
        // Only the thread running on this TCB moves the depth.
        cur.shared.steal_depth.store(depth + 1, Ordering::Relaxed);
        // SAFETY: we run on this TCB's fiber, `thread` is borrowed for the
        // whole call, and the pop below runs before we return or unwind
        // (`catch_unwind` holds every unwind until then).
        unsafe { cur.shared.push_identity(thread) }
    });
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let cx = Cx::new();
        thunk(&cx)
    }));
    // The thunk may have blocked and resumed on another VP: look again.
    tls::with(|cur| {
        let cur = cur.expect("stealing requires a thread");
        // SAFETY: the same TCB's fiber, and `outer` is what the push
        // returned.
        unsafe { cur.shared.pop_identity(outer) };
        let depth = cur.shared.steal_depth.load(Ordering::Relaxed);
        cur.shared.steal_depth.store(depth - 1, Ordering::Relaxed);
        if queued {
            cur.vp.reap_dead_entries(thread);
        }
    });
    match outcome {
        Ok(r) => {
            thread.complete(r.clone());
            r
        }
        Err(p) => {
            if let Some(e) = p.downcast_ref::<ExceptionPayload>() {
                // The stolen computation raised: the stolen thread sees the
                // exception, and it propagates into the toucher as a result.
                thread.complete(Err(e.0.clone()));
                Err(e.0.clone())
            } else {
                // Termination/cancellation of the *stealer* sweeps away the
                // stolen thread too (it runs on the stealer's TCB).
                thread.complete(Err(Value::sym("stealer-unwound")));
                panic::resume_unwind(p);
            }
        }
    }
}

/// Counts and traces the steal of `thread` on its own machine: the
/// toucher's, nearly always, in which case nothing is looked up.
fn note_steal(thread: &Thread, cur: tls::Current<'_>, depth: u32) {
    let foreign;
    let (vm, lane) = if thread.belongs_to(cur.vm) {
        (&**cur.vm, Some(cur.vp.index()))
    } else {
        foreign = thread.vm();
        match &foreign {
            Some(vm) => (&**vm, None),
            None => return,
        }
    };
    Counters::bump(&vm.counters().lane(lane).steals);
    crate::trace_event!(
        vm.tracer(),
        Some(cur.vp.index()),
        crate::trace::EventKind::Steal,
        thread.id().0,
        depth
    );
}

/// Wakes `thread` if it is blocked or suspended; otherwise records a
/// pending wake-up so a park that is racing with this call is skipped.
/// Idempotent; the woken thread must re-check its condition (wake-ups can
/// be spurious).  This is the hook synchronization structures use to build
/// their own blocking protocols ("the application completely controls the
/// condition under which blocked threads may be resumed").
pub fn unblock(thread: &Arc<Thread>) {
    thread.unblock();
}

/// Inserts a delayed thread into `vp`'s ready queue, or resumes a blocked
/// or suspended one (`thread-run thread vp`).
///
/// # Errors
///
/// [`CoreError::InvalidTransition`] if `thread` is scheduled, evaluating or
/// determined; [`CoreError::VpOutOfRange`] for a bad VP index.
pub fn thread_run(thread: &Arc<Thread>, vp: usize) -> Result<(), CoreError> {
    let vm = thread.vm().ok_or(CoreError::Shutdown)?;
    if vp >= vm.vp_count() {
        return Err(CoreError::VpOutOfRange {
            index: vp,
            len: vm.vp_count(),
        });
    }
    match thread.state() {
        ThreadState::Delayed => vm.schedule_fresh(thread, vp),
        ThreadState::Blocked | ThreadState::Suspended => {
            thread.home_vp.store(vp, Ordering::Relaxed);
            thread.unblock();
            Ok(())
        }
        _ => Err(CoreError::InvalidTransition {
            detail: "thread-run requires a delayed, blocked or suspended thread",
        }),
    }
}

/// Whether `thread` owns the TCB the caller is running on.
fn is_current_owner(thread: &Arc<Thread>) -> bool {
    tls::with(|cur| cur.is_some_and(|c| Arc::ptr_eq(&c.shared.thread, thread)))
}

/// Requests `thread` to block (`thread-block`).  Evaluating targets honour
/// it at their next controller entry.
///
/// # Errors
///
/// [`CoreError::InvalidTransition`] if the target state forbids blocking.
pub fn thread_block(thread: &Arc<Thread>) -> Result<(), CoreError> {
    if is_current_owner(thread) {
        return block_current(None).map(|_| ());
    }
    thread.request(StateRequest::Block)
}

/// Requests `thread` to suspend, optionally auto-resuming after `quantum`
/// (`thread-suspend`).
///
/// # Errors
///
/// [`CoreError::InvalidTransition`] if the target state forbids suspension.
pub fn thread_suspend(thread: &Arc<Thread>, quantum: Option<Duration>) -> Result<(), CoreError> {
    if is_current_owner(thread) {
        return suspend_current(quantum);
    }
    thread.request(StateRequest::Suspend(quantum))
}

/// Raises an exception in `thread` (`thread-raise!`): the target unwinds
/// at its next controller entry and determines with `Err(value)` —
/// exception handling across thread boundaries (§2, program model).
///
/// # Errors
///
/// [`CoreError::InvalidTransition`] if the target has already determined
/// or was stolen.
pub fn thread_raise(thread: &Arc<Thread>, value: Value) -> Result<(), CoreError> {
    if is_current_owner(thread) {
        panic::panic_any(ExceptionPayload(value));
    }
    thread.request(StateRequest::Raise(value))
}

/// Requests `thread` to terminate with `value` as its result
/// (`thread-terminate`).  Passive targets determine immediately; evaluating
/// targets unwind (running destructors) at their next controller entry.
///
/// # Errors
///
/// [`CoreError::InvalidTransition`] if the target has already determined or
/// was stolen.
pub fn thread_terminate(thread: &Arc<Thread>, value: Value) -> Result<(), CoreError> {
    if is_current_owner(thread) {
        panic::panic_any(TerminatePayload(value));
    }
    thread.request(StateRequest::Terminate(value))
}
