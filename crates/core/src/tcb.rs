//! Thread control blocks: the dynamic context of an evaluating thread.
//!
//! A [`Tcb`] pairs a stackful fiber (the thread's machine stack and saved
//! registers) with the shared dynamic-state record (`TcbShared`) that the
//! paper keeps in the TCB: the current VP, the slice deadline, preemption
//! bits and the identity stack used by thread stealing.  TCBs move by value
//! between the VP run loop, policy-manager ready queues and the `parked`
//! slot of a blocked thread; `TcbShared` is the part that stays reachable
//! from TLS while the thread runs.

use crate::thread::{Thread, ThreadResult, QUANTUM};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use sting_context::fiber::{Fiber, Suspender};

/// Message delivered to a thread when its fiber is resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wakeup {
    /// Normal scheduling; the thread should continue (and re-check any
    /// condition it blocked on).
    Run,
}

/// Why a thread re-entered the thread controller (fiber yield payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Re-enqueue me (yield-processor or preemption).
    Yielded {
        /// Whether the yield was forced by preemption.
        preempted: bool,
    },
    /// Park me; somebody holds my `Arc<Thread>` and will unblock me.
    Blocked,
    /// Park me as suspended (timer or explicit `thread-run` resumes me).
    Suspended,
}

pub(crate) type ThreadFiber = Fiber<Wakeup, Disposition, ThreadResult>;
pub(crate) type ThreadSuspender = Suspender<Wakeup, Disposition, ThreadResult>;

/// The dynamic thread state shared between the running thread (via TLS) and
/// the scheduler that owns the fiber.
pub(crate) struct TcbShared {
    /// The thread this TCB currently executes.
    pub(crate) thread: Arc<Thread>,
    /// Raw pointer to the fiber's `Suspender`, valid while the fiber is
    /// alive; written once at fiber entry.
    pub(crate) suspender: AtomicUsize,
    /// Index of the VP currently (or last) running this TCB.
    pub(crate) vp_index: AtomicUsize,
    /// Nesting depth of `without-preemption` sections.
    pub(crate) preempt_disabled: AtomicU32,
    /// When the current slice ends ([`crate::timers::nanos`]).  Dispatch
    /// zeroes it and the thread's first checkpoint stamps it, so a thread
    /// that never checkpoints never reads the clock.  A deadline passed
    /// while preemption is disabled stays passed: the paper's "subsequent
    /// preemption should not be ignored" needs no bit of its own.
    pub(crate) slice_end: AtomicU64,
    /// Nesting depth of in-progress steals on this TCB; bounded so chains
    /// of stolen thunks cannot overflow the machine stack.
    pub(crate) steal_depth: AtomicU32,
    /// Top of the identity stack of in-progress steals: the stolen thread
    /// whose thunk is running on this TCB, or null when none is and
    /// `current-thread` is `thread` itself.  The stack's links are the
    /// steal frames (`tc::run_stolen`): each keeps the top it replaced and
    /// its stolen `Arc` borrowed until it puts that top back.  Owner-only:
    /// only code running on this TCB's fiber reads or writes it, so a
    /// relaxed atomic (no lock, no reference count) is enough.
    identity: AtomicPtr<Arc<Thread>>,
}

impl TcbShared {
    pub(crate) fn new(thread: Arc<Thread>, vp_index: usize) -> Arc<TcbShared> {
        Arc::new(TcbShared {
            identity: AtomicPtr::new(std::ptr::null_mut()),
            thread,
            suspender: AtomicUsize::new(0),
            vp_index: AtomicUsize::new(vp_index),
            preempt_disabled: AtomicU32::new(0),
            slice_end: AtomicU64::new(0),
            steal_depth: AtomicU32::new(0),
        })
    }

    /// Runs `f` on the thread whose code is currently executing on this
    /// TCB (the stolen thread during a steal, otherwise the TCB's owner).
    /// Owner-only, like the stack itself.
    pub(crate) fn identity<R>(&self, f: impl FnOnce(&Arc<Thread>) -> R) -> R {
        let top = self.identity.load(Ordering::Relaxed);
        if top.is_null() {
            f(&self.thread)
        } else {
            // SAFETY: a non-null top was installed by a steal frame that
            // is still running below us on this fiber (it restores the
            // previous top before it returns or unwinds), and that frame
            // keeps the pointee borrowed; `f` cannot make the reference
            // outlive this call.
            f(unsafe { &*top })
        }
    }

    /// Pushes `thread` on the identity stack, returning the top it
    /// replaces, which the caller hands back to
    /// [`TcbShared::pop_identity`].
    ///
    /// # Safety
    ///
    /// Owner-only, and `thread` must stay borrowed until the matching
    /// `pop_identity` — which must come before the caller returns or
    /// unwinds.
    pub(crate) unsafe fn push_identity(&self, thread: &Arc<Thread>) -> *mut Arc<Thread> {
        let outer = self.identity.load(Ordering::Relaxed);
        self.identity
            .store(std::ptr::from_ref(thread).cast_mut(), Ordering::Relaxed);
        outer
    }

    /// Pops the identity stack back to `outer`.
    ///
    /// # Safety
    ///
    /// Owner-only, with `outer` the value the matching
    /// [`TcbShared::push_identity`] returned.
    pub(crate) unsafe fn pop_identity(&self, outer: *mut Arc<Thread>) {
        self.identity.store(outer, Ordering::Relaxed);
    }

    /// Whether the current slice is spent: its deadline has passed.  The
    /// first call after a dispatch starts it, `quantum` × [`QUANTUM`] long.
    pub(crate) fn slice_spent(&self) -> bool {
        let now = crate::timers::nanos(std::time::Instant::now());
        let end = self.slice_end.load(Ordering::Relaxed);
        if end == 0 {
            let slice = QUANTUM.as_nanos() as u64 * u64::from(self.thread.quantum());
            self.slice_end.store(now + slice, Ordering::Relaxed);
        }
        end != 0 && now >= end
    }
}

impl std::fmt::Debug for TcbShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcbShared")
            .field("thread", &self.thread.id())
            .field("vp_index", &self.vp_index.load(Ordering::Relaxed))
            .finish()
    }
}

/// A thread control block: the fiber plus its shared dynamic state.
///
/// Opaque to policy managers (they move TCBs through ready queues without
/// inspecting them); the scheduler resumes the fiber.
pub struct Tcb {
    pub(crate) fiber: ThreadFiber,
    pub(crate) shared: Arc<TcbShared>,
}

impl Tcb {
    /// The thread that owns this TCB.
    pub fn thread(&self) -> &Arc<Thread> {
        &self.shared.thread
    }
}

impl std::fmt::Debug for Tcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcb")
            .field("thread", &self.shared.thread.id())
            .field("done", &self.fiber.is_done())
            .finish()
    }
}
