//! Counting semaphores (one of the paper's tuple-space specializations,
//! exposed directly).

use crate::wait::{block_until, block_until_deadline, TimedOut, WaitList, Waiter};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_value::{static_sym, Value};

struct Inner {
    permits: usize,
    waiters: WaitList,
}

/// A counting semaphore; clones share the count.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Semaphore({} permits)", self.permits())
    }
}

impl Semaphore {
    /// Creates a semaphore holding `permits`.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            inner: Arc::new(Mutex::new(Inner {
                permits,
                waiters: WaitList::new(),
            })),
        }
    }

    /// Current permit count.
    pub fn permits(&self) -> usize {
        self.inner.lock().permits
    }

    /// Takes one permit, blocking while none are available.
    pub fn acquire(&self) {
        block_until(static_sym!("semaphore"), |w: &Waiter| self.check(w));
    }

    /// [`Semaphore::acquire`] with a timeout.
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if no permit was taken within `timeout`.
    pub fn acquire_timeout(&self, timeout: Duration) -> Result<(), TimedOut> {
        block_until_deadline(
            static_sym!("semaphore"),
            Some(Instant::now() + timeout),
            |w: &Waiter| self.check(w),
        )
        .ok_or(TimedOut)
    }

    fn check(&self, w: &Waiter) -> Option<()> {
        let mut g = self.inner.lock();
        if g.permits > 0 {
            g.permits -= 1;
            Some(())
        } else {
            g.waiters.push(w.clone());
            None
        }
    }

    /// Number of (live) threads blocked on the semaphore.
    pub fn blocked(&self) -> usize {
        self.inner.lock().waiters.len()
    }

    /// Takes a permit without blocking; `false` if none were available.
    pub fn try_acquire(&self) -> bool {
        let mut g = self.inner.lock();
        if g.permits > 0 {
            g.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Returns one permit and wakes a blocked acquirer.
    pub fn release(&self) {
        let mut g = self.inner.lock();
        g.permits += 1;
        g.waiters.wake_one();
    }

    /// Runs `body` holding a permit (released on unwind too).
    pub fn with<R>(&self, body: impl FnOnce() -> R) -> R {
        struct Permit<'a>(&'a Semaphore);
        impl Drop for Permit<'_> {
            fn drop(&mut self) {
                self.0.release();
            }
        }
        self.acquire();
        let _p = Permit(self);
        body()
    }

    /// Wraps the semaphore as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("semaphore", Arc::new(self.clone()))
    }

    /// Recovers a semaphore from a value.
    pub fn from_value(v: &Value) -> Option<Semaphore> {
        v.native_as::<Semaphore>().map(|s| (*s).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sting_core::VmBuilder;

    #[test]
    fn permits_bound_concurrency() {
        let vm = VmBuilder::new().vps(1).build();
        let sem = Semaphore::new(2);
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut ts = Vec::new();
        for _ in 0..6 {
            let sem = sem.clone();
            let inside = inside.clone();
            let peak = peak.clone();
            ts.push(vm.fork(move |cx| {
                sem.with(|| {
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    cx.yield_now();
                    inside.fetch_sub(1, Ordering::SeqCst);
                });
                0i64
            }));
        }
        for t in ts {
            t.join_blocking().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "at most 2 inside");
        assert_eq!(sem.permits(), 2);
        vm.shutdown();
    }

    #[test]
    fn try_acquire_does_not_block() {
        let sem = Semaphore::new(1);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
    }

    #[test]
    fn release_wakes_blocked() {
        let vm = VmBuilder::new().vps(1).build();
        let sem = Semaphore::new(0);
        let s2 = sem.clone();
        let t = vm.fork(move |_cx| {
            s2.acquire();
            1i64
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_determined());
        sem.release();
        assert_eq!(t.join_blocking(), Ok(Value::Int(1)));
        vm.shutdown();
    }
}
