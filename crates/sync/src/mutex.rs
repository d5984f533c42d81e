//! Mutexes with active/passive spinning (§4.2.1).
//!
//! `(make-mutex active passive)`: on contention the acquirer first spins
//! *actively* (retaining its VP) `active` times, then spins *passively*
//! (yielding the VP and retrying when rescheduled) `passive` times, and
//! finally blocks on the mutex.  `release` wakes **all** blocked threads
//! ("all threads blocked on this mutex are restored onto some ready
//! queue"), which then re-contend.
//!
//! [`Mutex::with`] is the paper's `with-mutex`: the lock is released even
//! if the body raises, via an RAII [`MutexGuard`].

use crate::wait::{block_until_deadline, TimedOut, WaitList, Waiter};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::tc;
use sting_core::trace::EventKind;
use sting_value::{static_sym, Value};

/// Process-wide mutex id source; ids appear as the payload of
/// `lock-acquire` / `lock-release` trace events.  Starts at 1 so id 0
/// never appears (trace payloads use 0 for "not applicable").
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

struct Inner {
    id: u32,
    locked: AtomicBool,
    waiters: parking_lot::Mutex<WaitList>,
}

/// A STING mutex (no protected data — pair it with the structures it
/// guards, as Scheme code does).  Cheap to clone; clones share the lock.
#[derive(Clone)]
pub struct Mutex {
    inner: Arc<Inner>,
    active_spins: u32,
    passive_spins: u32,
}

impl std::fmt::Debug for Mutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("locked", &self.inner.locked.load(Ordering::Relaxed))
            .field("active_spins", &self.active_spins)
            .field("passive_spins", &self.passive_spins)
            .finish()
    }
}

impl Default for Mutex {
    fn default() -> Mutex {
        Mutex::new(64, 4)
    }
}

impl Mutex {
    /// `(make-mutex active passive)`.
    pub fn new(active_spins: u32, passive_spins: u32) -> Mutex {
        Mutex {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                locked: AtomicBool::new(false),
                waiters: parking_lot::Mutex::new(WaitList::new()),
            }),
            active_spins,
            passive_spins,
        }
    }

    /// The mutex's process-unique id, as recorded in `lock-acquire` /
    /// `lock-release` trace events.
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// Records a lock event on the flight recorder when the caller is a
    /// STING thread and tracing is on.
    fn trace(&self, kind: EventKind) {
        if let Some(cx) = tc::Cx::current() {
            let vp = cx.current_vp().index();
            let vm = cx.vm();
            sting_core::trace_event!(
                vm.tracer(),
                Some(vp),
                kind,
                cx.current_thread().id().0,
                self.inner.id
            );
        }
    }

    /// Builds the guard for a just-won lock, recording the acquisition.
    fn won(&self) -> MutexGuard {
        self.trace(EventKind::LockAcquire);
        MutexGuard {
            mutex: self.clone(),
        }
    }

    fn try_lock_raw(&self) -> bool {
        !self.inner.locked.swap(true, Ordering::Acquire)
    }

    /// Attempts to acquire without waiting.
    pub fn try_acquire(&self) -> Option<MutexGuard> {
        self.try_lock_raw().then(|| self.won())
    }

    /// Acquires the mutex (`mutex-acquire`): active spin, then passive
    /// spin, then block.
    pub fn acquire(&self) -> MutexGuard {
        self.acquire_deadline(None)
            .expect("acquire without a deadline cannot time out")
    }

    /// [`Mutex::acquire`] with a timeout (`(mutex-acquire m ms)`).
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if the lock was not acquired within `timeout`.
    pub fn acquire_timeout(&self, timeout: Duration) -> Result<MutexGuard, TimedOut> {
        self.acquire_deadline(Some(Instant::now() + timeout))
            .ok_or(TimedOut)
    }

    fn acquire_deadline(&self, deadline: Option<Instant>) -> Option<MutexGuard> {
        // Phase 1: active spinning — keep the VP.
        for _ in 0..self.active_spins {
            if self.try_lock_raw() {
                return Some(self.won());
            }
            std::hint::spin_loop();
        }
        // Phase 2: passive spinning — yield the VP between attempts.
        for _ in 0..self.passive_spins {
            if self.try_lock_raw() {
                return Some(self.won());
            }
            if tc::yield_now().is_err() {
                // Off-thread caller: no VP to yield.
                std::thread::yield_now();
            }
        }
        // Phase 3: block on the mutex.
        block_until_deadline(static_sym!("mutex"), deadline, |w: &Waiter| {
            if self.try_lock_raw() {
                return Some(self.won());
            }
            let mut waiters = self.inner.waiters.lock();
            // Re-check under the waiter lock so a release that raced with
            // us cannot strand us (it wakes everyone registered).
            if self.try_lock_raw() {
                return Some(self.won());
            }
            waiters.push(w.clone());
            None
        })
    }

    /// `with-mutex`: runs `body` holding the lock; the lock is released on
    /// normal return, on a raised exception and on thread termination.
    pub fn with<R>(&self, body: impl FnOnce() -> R) -> R {
        let _guard = self.acquire();
        body()
    }

    /// Acquires without producing a guard: for language bindings whose
    /// `mutex-acquire` / `mutex-release` are separate operations (the
    /// paper's interface).  Pair with [`Mutex::release`]; prefer
    /// [`Mutex::acquire`]/[`Mutex::with`] from Rust.
    pub fn acquire_manual(&self) {
        std::mem::forget(self.acquire());
    }

    /// Releases a manually acquired mutex (`mutex-release`), waking all
    /// blocked acquirers.
    pub fn release(&self) {
        self.release_raw();
    }

    /// Whether the mutex is currently held.
    pub fn is_locked(&self) -> bool {
        self.inner.locked.load(Ordering::Relaxed)
    }

    /// Number of threads blocked (not spinning) on the mutex.
    pub fn blocked(&self) -> usize {
        self.inner.waiters.lock().len()
    }

    fn release_raw(&self) {
        self.trace(EventKind::LockRelease);
        self.inner.locked.store(false, Ordering::Release);
        self.inner.waiters.lock().wake_all();
    }

    /// Wraps the mutex as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("mutex", Arc::new(self.clone()))
    }

    /// Recovers a mutex from a value.
    pub fn from_value(v: &Value) -> Option<Mutex> {
        v.native_as::<Mutex>().map(|m| (*m).clone())
    }
}

/// Holds the mutex; releasing (waking all blocked acquirers) on drop.
#[must_use = "dropping the guard releases the mutex immediately"]
pub struct MutexGuard {
    mutex: Mutex,
}

impl std::fmt::Debug for MutexGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MutexGuard")
    }
}

impl Drop for MutexGuard {
    fn drop(&mut self) {
        self.mutex.release_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use sting_core::VmBuilder;

    #[test]
    fn uncontended_acquire_release() {
        let m = Mutex::new(4, 1);
        assert!(!m.is_locked());
        {
            let _g = m.acquire();
            assert!(m.is_locked());
            assert!(m.try_acquire().is_none());
        }
        assert!(!m.is_locked());
        assert!(m.try_acquire().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let vm = VmBuilder::new().vps(2).processors(2).build();
        let m = Mutex::new(16, 2);
        let counter = Arc::new(AtomicUsize::new(0));
        let in_section = Arc::new(AtomicUsize::new(0));
        let mut ts = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            let c = counter.clone();
            let s = in_section.clone();
            ts.push(vm.fork(move |cx| {
                for _ in 0..100 {
                    m.with(|| {
                        assert_eq!(s.fetch_add(1, Ordering::SeqCst), 0, "exclusive");
                        c.fetch_add(1, Ordering::SeqCst);
                        s.fetch_sub(1, Ordering::SeqCst);
                    });
                    cx.checkpoint();
                }
                0i64
            }));
        }
        for t in ts {
            t.join_blocking().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 800);
        vm.shutdown();
    }

    #[test]
    fn with_releases_on_exception() {
        let vm = VmBuilder::new().vps(1).build();
        let m = Mutex::default();
        let m2 = m.clone();
        let t = vm.fork(move |cx| -> i64 { m2.with(|| cx.raise(Value::sym("oops"))) });
        assert_eq!(t.join_blocking(), Err(Value::sym("oops")));
        assert!(!m.is_locked(), "with-mutex released on exception");
        vm.shutdown();
    }

    #[test]
    fn blocked_acquirers_wake_on_release() {
        let vm = VmBuilder::new().vps(1).build();
        // No spinning: go straight to blocking.
        let m = Mutex::new(0, 0);
        let g = m.acquire(); // held by the OS thread
        let m2 = m.clone();
        let t = vm.fork(move |_cx| {
            let _g = m2.acquire();
            42i64
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!t.is_determined());
        drop(g);
        assert_eq!(t.join_blocking(), Ok(Value::Int(42)));
        vm.shutdown();
    }

    #[test]
    fn value_round_trip() {
        let m = Mutex::default();
        let v = m.to_value();
        let m2 = Mutex::from_value(&v).unwrap();
        let _g = m2.acquire();
        assert!(m.is_locked(), "clones share the lock");
    }
}
