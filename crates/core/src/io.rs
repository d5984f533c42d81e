//! Non-blocking I/O support: offloading blocking calls off the VPs.
//!
//! "STING permits … non-blocking I/O": a thread that must make a blocking
//! operating-system call should not stall its virtual processor — every
//! other thread on that VP would stall with it.  Calls the kernel can
//! express as fd *readiness* go through the reactor ([`crate::reactor`] /
//! [`crate::net`]); [`offload`] is the fallback for everything else (DNS
//! lookups, file I/O, third-party blocking APIs): it runs the closure on a
//! per-VM pool of plain OS threads and parks only the calling STING
//! thread.  The VP keeps running other threads, and the caller is
//! rescheduled with the result when the call completes (the paper's
//! "non-blocking I/O calls with call-back", the continuation being the
//! parked thread itself).
//!
//! ## Protocol
//!
//! The caller parks through a standard generation-numbered wait episode
//! ([`crate::wait`]), so an offload composes with the rest of the blocking
//! protocol: terminating the caller mid-offload unwinds it cleanly, and
//! the worker's completion wake-up then fails the episode's claim CAS
//! instead of `unblock`ing a recycled TCB.  A panicking closure is caught
//! on the worker (which survives), stored in the result slot as a poison
//! value, and resumed on the **caller's** stack.  The pool belongs to the
//! [`Vm`](crate::Vm): it starts empty, grows on demand while jobs are
//! queued and nobody is idle — up to
//! [`VmBuilder::io_workers`](crate::builder::VmBuilder::io_workers) — and
//! is joined at [`Vm::shutdown`](crate::vm::Vm::shutdown).

use crate::tc;
use crate::wait::{self, TimedOut, WaitList, Waiter};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use sting_value::static_sym;

/// Default cap on I/O pool workers per VM (see
/// [`VmBuilder::io_workers`](crate::builder::VmBuilder::io_workers)).
pub const DEFAULT_IO_WORKERS: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The per-VM blocking-call worker pool.
///
/// A single queue beside a [`WaitList`] of idle workers (not a channel):
/// each idle worker parks on its own wait episode, like any other OS
/// waiter, and dequeues independently, so one slow job never
/// head-of-line blocks pickup of the next — the defect the old global
/// pool's `Mutex<Receiver>` around `recv()` had.
pub(crate) struct IoPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    state: Mutex<PoolState>,
    cap: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    idle: WaitList,
    workers: usize,
    stop: bool,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl IoPool {
    pub(crate) fn new(cap: usize) -> IoPool {
        IoPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    idle: WaitList::new(),
                    workers: 0,
                    stop: false,
                    handles: Vec::new(),
                }),
                cap: cap.max(1),
            }),
        }
    }

    /// Queues `job`, growing the pool by one worker when every existing
    /// worker is busy and the cap allows.  Returns the job back if the
    /// pool has stopped (VM shutdown) — the caller runs it inline.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let mut s = self.inner.state.lock();
        if s.stop {
            return Err(job);
        }
        s.queue.push_back(job);
        if !s.idle.wake_one() && s.workers < self.inner.cap {
            s.workers += 1;
            let name = format!("sting-io-{}", s.workers);
            let inner = self.inner.clone();
            match std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(inner))
            {
                Ok(h) => s.handles.push(h),
                Err(_) => s.workers -= 1, // spawn failed; existing workers will get to it
            }
        }
        Ok(())
    }

    /// Stops the pool and joins the workers.  Queued-but-unstarted jobs
    /// are dropped: their callers were already unwound by the VM drain (or
    /// will run the job inline after the rejected submit), so running them
    /// would only delay shutdown.  In-flight jobs finish first.  Safe to
    /// call twice; never joins from a pool worker itself.
    pub(crate) fn stop(&self) {
        let handles = {
            let mut s = self.inner.state.lock();
            s.halt();
            std::mem::take(&mut s.handles)
        };
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }

    #[cfg(test)]
    fn workers(&self) -> usize {
        self.inner.state.lock().workers
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Non-joining stop for the deferred-shutdown path: workers hold
        // only the inner Arc and exit once woken.
        self.inner.state.lock().halt();
    }
}

impl PoolState {
    /// Stops the pool: drops the queued jobs and wakes every idle worker
    /// to see `stop`.
    fn halt(&mut self) {
        self.stop = true;
        self.queue.clear();
        self.idle.wake_all();
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let job = wait::block_until(static_sym!("io-idle"), |w| {
            let mut s = inner.state.lock();
            if s.stop {
                return Some(None);
            }
            let job = s.queue.pop_front();
            if job.is_none() {
                s.idle.push(w.clone());
            }
            job.map(Some)
        });
        let Some(job) = job else { return };
        // Belt and braces: offload jobs catch their own unwind to capture
        // the payload, but no job whatsoever may take the worker down.
        let _ = panic::catch_unwind(AssertUnwindSafe(job));
    }
}

/// The caller↔worker rendezvous: the worker stores the closure's outcome
/// (value or panic payload) and wakes whatever episode is registered.
struct OffloadSlot<R> {
    outcome: Option<std::thread::Result<R>>,
    waiter: Option<Waiter>,
}

/// Boxes `f` with its completion protocol and queues it; on a stopped
/// pool the job runs inline on the caller (the subsequent wait then
/// completes without parking).
fn submit_offload<R, F>(pool: &IoPool, f: F) -> Arc<Mutex<OffloadSlot<R>>>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let slot = Arc::new(Mutex::new(OffloadSlot {
        outcome: None,
        waiter: None,
    }));
    let slot2 = slot.clone();
    let job: Job = Box::new(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        let waiter = {
            let mut s = slot2.lock();
            s.outcome = Some(outcome);
            s.waiter.take()
        };
        // A dead episode (caller terminated or timed out) fails the claim
        // CAS here and the wake-up is simply dropped — never an `unblock`
        // against a recycled TCB or a dead VM.
        if let Some(w) = waiter {
            w.wake();
        }
    });
    if let Err(job) = pool.submit(job) {
        job();
    }
    slot
}

/// Completes the wait for an offload: checks the slot, else registers the
/// episode.  Used under [`wait::block_until`]'s registration lock-step.
fn check_or_register<R>(
    slot: &Arc<Mutex<OffloadSlot<R>>>,
    w: &Waiter,
) -> Option<std::thread::Result<R>> {
    let mut s = slot.lock();
    if let Some(out) = s.outcome.take() {
        return Some(out);
    }
    s.waiter = Some(w.clone());
    None
}

fn finish<R>(outcome: std::thread::Result<R>) -> R {
    match outcome {
        Ok(r) => r,
        // Poison value: the closure panicked on the worker; the panic
        // continues on the caller's stack, as if the call were inline.
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Runs `f` (a potentially blocking call) on the VM's I/O worker pool,
/// parking only the calling STING thread; the virtual processor stays
/// available for other threads.  Called from a plain OS thread, it just
/// runs `f` inline.  If `f` panics, the panic is re-raised here, on the
/// caller's stack, and the pool worker survives.
///
/// ```
/// use sting_core::{io, VmBuilder};
///
/// let vm = VmBuilder::new().vps(1).build();
/// let t = vm.fork(|_cx| {
///     io::offload(|| 6 * 7) // imagine a blocking read here
/// });
/// assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
/// vm.shutdown();
/// ```
pub fn offload<R, F>(f: F) -> R
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let Some(vm) = tc::current_owner().and_then(|me| me.vm()) else {
        return f();
    };
    let slot = submit_offload(vm.io_pool(), f);
    finish(wait::block_until(static_sym!("io-offload"), |w| {
        check_or_register(&slot, w)
    }))
}

/// [`offload`] with a deadline, consistent with every other timed blocking
/// op in the substrate (`wait_deadline`, `offload` being to `offload_deadline`
/// what [`tc::block_current`] is to a timed park).
///
/// On [`TimedOut`] the closure **keeps running** on the worker — there is
/// no cancelling an OS call in flight — but its result is discarded and
/// its completion wake-up dies against the already-finished episode.  A
/// panic that completes *before* the deadline still propagates here.
///
/// ```
/// use sting_core::{io, VmBuilder};
/// use std::time::{Duration, Instant};
///
/// let vm = VmBuilder::new().vps(1).build();
/// let t = vm.fork(|_cx| {
///     let slow = io::offload_deadline(
///         || {
///             std::thread::sleep(Duration::from_millis(200));
///             1i64
///         },
///         Instant::now() + Duration::from_millis(10),
///     );
///     assert!(slow.is_err());
///     i64::from(io::offload_deadline(|| 7i64, Instant::now() + Duration::from_secs(5)).unwrap())
/// });
/// assert_eq!(t.join_blocking().unwrap().as_int(), Some(7));
/// vm.shutdown();
/// ```
///
/// # Errors
///
/// [`TimedOut`] if the deadline passed before the closure completed.
pub fn offload_deadline<R, F>(f: F, deadline: Instant) -> Result<R, TimedOut>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let Some(vm) = tc::current_owner().and_then(|me| me.vm()) else {
        return Ok(f());
    };
    let slot = submit_offload(vm.io_pool(), f);
    match wait::block_until_deadline(static_sym!("io-offload"), Some(deadline), |w| {
        check_or_register(&slot, w)
    }) {
        Some(outcome) => Ok(finish(outcome)),
        None => Err(TimedOut),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn offload_returns_value() {
        let vm = VmBuilder::new().vps(1).build();
        let t = vm.fork(|_cx| offload(|| 21i64 * 2));
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
        vm.shutdown();
    }

    #[test]
    fn vp_keeps_running_other_threads_during_offload() {
        let vm = VmBuilder::new().vps(1).processors(1).build();
        let progressed = Arc::new(AtomicUsize::new(0));
        let p = progressed.clone();
        // One thread blocks in "I/O" for 100ms...
        let io_thread = vm.fork(|_cx| {
            offload(|| {
                std::thread::sleep(Duration::from_millis(100));
                1i64
            })
        });
        // ...while a sibling on the same (only) VP keeps making progress.
        let spinner = vm.fork(move |cx| {
            for _ in 0..1000 {
                p.fetch_add(1, Ordering::SeqCst);
                cx.yield_now();
            }
            0i64
        });
        spinner.join_blocking().unwrap();
        let before_io_done = progressed.load(Ordering::SeqCst);
        assert_eq!(before_io_done, 1000, "VP was never stalled by the I/O");
        assert_eq!(io_thread.join_blocking().unwrap().as_int(), Some(1));
        vm.shutdown();
    }

    #[test]
    fn offload_off_thread_runs_inline() {
        assert_eq!(offload(|| 5), 5);
    }

    #[test]
    fn many_concurrent_offloads() {
        let vm = VmBuilder::new().vps(1).build();
        let ts: Vec<_> = (0..16i64)
            .map(|i| vm.fork(move |_cx| offload(move || i * i)))
            .collect();
        let sum: i64 = ts
            .iter()
            .map(|t| t.join_blocking().unwrap().as_int().unwrap())
            .sum();
        assert_eq!(sum, (0..16i64).map(|i| i * i).sum());
        vm.shutdown();
    }

    /// Regression, both halves of the panic bug: the panic payload lands
    /// on the *caller's* stack, and the worker that ran the panicking job
    /// survives to serve later offloads (pool capped at one worker, so a
    /// dead worker would hang the follow-up).
    #[test]
    fn offload_panic_propagates_and_worker_survives() {
        let vm = VmBuilder::new().vps(1).io_workers(1).build();
        let t = vm.fork(|_cx| {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                offload(|| -> i64 { panic!("io boom") })
            }));
            let payload = caught.expect_err("offload panic must resurface at the call site");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"io boom"));
            // Same worker, next job: the pool must still be alive.  A
            // deadline bounds the failure mode (hang → test failure).
            offload_deadline(|| 40i64 + 2, Instant::now() + Duration::from_secs(10)).unwrap()
        });
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
        assert_eq!(vm.io_pool().workers(), 1);
        vm.shutdown();
    }

    #[test]
    fn offload_deadline_times_out_and_discards_result() {
        let vm = VmBuilder::new().vps(1).build();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let t = vm.fork(move |_cx| {
            let out = offload_deadline(
                move || {
                    std::thread::sleep(Duration::from_millis(80));
                    r.fetch_add(1, Ordering::SeqCst);
                    9i64
                },
                Instant::now() + Duration::from_millis(5),
            );
            assert_eq!(out, Err(TimedOut));
            3i64
        });
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(3));
        // The job still ran to completion on the worker; its result and
        // wake-up died against the finished episode (audited at shutdown).
        while ran.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        vm.shutdown();
    }

    #[test]
    fn pool_grows_to_cap_and_not_past() {
        let vm = VmBuilder::new().vps(1).io_workers(3).build();
        let ts: Vec<_> = (0..9)
            .map(|_| {
                vm.fork(|_cx| {
                    offload(|| {
                        std::thread::sleep(Duration::from_millis(30));
                        1i64
                    })
                })
            })
            .collect();
        for t in ts {
            assert_eq!(t.join_blocking().unwrap().as_int(), Some(1));
        }
        assert_eq!(vm.io_pool().workers(), 3);
        vm.shutdown();
    }
}
