//! Thread-local plumbing: the scheduler context of the calling OS thread.
//!
//! A worker installs the machine and VP it is driving once per slice
//! ([`enter_slice`]) and the TCB it is running once per dispatch
//! ([`set_thread`]); thread-controller operations in [`crate::tc`] reach
//! all three through the *borrowing* accessor [`with`].  Nothing on the
//! fork/touch/determine path clones an `Arc` out of here, so no reference
//! count shared between VPs is touched per call (DESIGN.md, "Scheduler
//! fast path", ownership table).

use crate::tcb::TcbShared;
use crate::vm::Vm;
use crate::vp::Vp;
use std::cell::RefCell;
use std::sync::Arc;

struct Installed {
    vm: Arc<Vm>,
    vp: Arc<Vp>,
    /// The running thread's TCB; `None` between dispatches, when the
    /// worker itself (the thread controller) is executing.
    shared: Option<Arc<TcbShared>>,
}

/// What a STING thread sees of its scheduler: borrowed, valid for the
/// duration of one [`with`] call.
#[derive(Clone, Copy)]
pub(crate) struct Current<'a> {
    pub(crate) vm: &'a Arc<Vm>,
    pub(crate) vp: &'a Arc<Vp>,
    pub(crate) shared: &'a Arc<TcbShared>,
}

thread_local! {
    static INSTALLED: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling OS thread's slot.  Never inlined: the caller
/// may be a green thread that switches fibers between two calls and
/// resumes on another OS worker, and an inlined access lets the compiler
/// compute the slot's address once per caller and reuse the old worker's
/// after the switch.  Out of line, the address is computed on every call,
/// on the worker that uses it.
#[inline(never)]
fn on_slot<R>(f: impl FnOnce(&RefCell<Option<Installed>>) -> R) -> R {
    INSTALLED.with(f)
}

/// Installs the machine and the VP whose slice this worker runs, until the
/// returned guard drops (scheduler side, once per slice).
pub(crate) fn enter_slice(vm: Arc<Vm>, vp: Arc<Vp>) -> SliceGuard {
    on_slot(|c| {
        *c.borrow_mut() = Some(Installed {
            vm,
            vp,
            shared: None,
        });
    });
    SliceGuard(())
}

/// Uninstalls the slice context on drop.
pub(crate) struct SliceGuard(());

impl Drop for SliceGuard {
    fn drop(&mut self) {
        // Take first, drop after: releasing the last `Arc<Vm>` runs the
        // machine's teardown, which may look at this slot.
        let installed = on_slot(|c| c.borrow_mut().take());
        drop(installed);
    }
}

/// Marks `shared` as the TCB running on this worker (scheduler side, just
/// before resuming its fiber).
pub(crate) fn set_thread(shared: Arc<TcbShared>) {
    on_slot(|c| {
        c.borrow_mut()
            .as_mut()
            .expect("a fiber is resumed only inside a slice")
            .shared = Some(shared);
    });
}

/// Clears the running TCB (scheduler side, after the fiber yields).
pub(crate) fn clear_thread() {
    let shared = on_slot(|c| c.borrow_mut().as_mut().and_then(|i| i.shared.take()));
    drop(shared);
}

/// Runs `f` with the scheduler context of the calling STING thread, or
/// `None` when the caller is not one (a host thread, or a worker between
/// dispatches).
///
/// `f` runs under a shared borrow of the slot, so it may nest further
/// `with` calls but must not switch fibers: the scheduler re-borrows the
/// slot mutably the moment the fiber yields.
pub(crate) fn with<R>(f: impl FnOnce(Option<Current<'_>>) -> R) -> R {
    on_slot(|c| {
        let slot = c.borrow();
        f(slot.as_ref().and_then(|i| {
            Some(Current {
                vm: &i.vm,
                vp: &i.vp,
                shared: i.shared.as_ref()?,
            })
        }))
    })
}

/// The index of the VP of `vm` the calling STING thread runs on — the lane
/// of `vm` its events are noted on; `None` off `vm`'s VPs.
pub(crate) fn lane_in(vm: &crate::vm::Vm) -> Option<usize> {
    with(|cur| {
        cur.filter(|c| std::ptr::eq(Arc::as_ptr(c.vm), vm))
            .map(|c| c.vp.index())
    })
}

/// Whether the calling OS thread is currently running a STING thread on
/// `vp` (by identity — VP indices collide across VMs).
pub(crate) fn is_current_vp(vp: &Vp) -> bool {
    with(|cur| cur.is_some_and(|c| std::ptr::eq(Arc::as_ptr(c.vp), vp)))
}

/// Whether the calling OS thread is currently executing a STING thread.
pub(crate) fn on_thread() -> bool {
    with(|cur| cur.is_some())
}
