//! A reusable rendezvous barrier for phased master/slave computations
//! (§4.2.2's barrier-synchronization discussion).

use crate::wait::{block_until_deadline, TimedOut, WaitList, Waiter};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_value::{static_sym, Value};

struct Inner {
    parties: usize,
    arrived: usize,
    generation: u64,
    waiters: WaitList,
}

/// A cyclic barrier: each [`Barrier::arrive`] blocks until `parties`
/// threads have arrived, then all proceed and the barrier resets.
#[derive(Clone)]
pub struct Barrier {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        write!(f, "Barrier({}/{} arrived)", g.arrived, g.parties)
    }
}

impl Barrier {
    /// Creates a barrier for `parties` threads (minimum 1).
    pub fn new(parties: usize) -> Barrier {
        Barrier {
            inner: Arc::new(Mutex::new(Inner {
                parties: parties.max(1),
                arrived: 0,
                generation: 0,
                waiters: WaitList::new(),
            })),
        }
    }

    /// Arrives at the barrier; blocks until all parties arrive.  Returns
    /// `true` for exactly one arrival per cycle (the "leader").
    pub fn arrive(&self) -> bool {
        self.arrive_deadline(None)
            .expect("arrive without a deadline cannot time out")
    }

    /// [`Barrier::arrive`] with a timeout.  On timeout the arrival is
    /// withdrawn, so the cycle is not left waiting on a departed party —
    /// unless the cycle completed while the waiter was abandoning, which
    /// counts as a (non-leader) success.
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if the cycle did not complete within `timeout`.
    pub fn arrive_timeout(&self, timeout: Duration) -> Result<bool, TimedOut> {
        self.arrive_deadline(Some(Instant::now() + timeout))
            .ok_or(TimedOut)
    }

    fn arrive_deadline(&self, deadline: Option<Instant>) -> Option<bool> {
        let gen = {
            let mut g = self.inner.lock();
            g.arrived += 1;
            if g.arrived == g.parties {
                g.arrived = 0;
                g.generation += 1;
                g.waiters.wake_all();
                return Some(true);
            }
            g.generation
        };
        // Withdraw the arrival if this party departs without completing
        // the cycle — by timeout below, or by unwinding (termination or a
        // raised exception while blocked).
        struct Arrival<'a> {
            barrier: &'a Barrier,
            gen: u64,
            armed: bool,
        }
        impl Drop for Arrival<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let mut g = self.barrier.inner.lock();
                    if g.generation == self.gen {
                        g.arrived -= 1;
                    }
                }
            }
        }
        let mut arrival = Arrival {
            barrier: self,
            gen,
            armed: true,
        };
        let done = block_until_deadline(static_sym!("barrier"), deadline, |w: &Waiter| {
            let mut g = self.inner.lock();
            if g.generation != gen {
                Some(())
            } else {
                g.waiters.push(w.clone());
                None
            }
        });
        arrival.armed = false;
        match done {
            Some(()) => Some(false),
            None => {
                let mut g = self.inner.lock();
                if g.generation != gen {
                    // The cycle fired while we were abandoning.
                    Some(false)
                } else {
                    g.arrived -= 1;
                    None
                }
            }
        }
    }

    /// Parties arrived in the current (incomplete) cycle.
    pub fn arrived(&self) -> usize {
        self.inner.lock().arrived
    }

    /// Number of (live) threads blocked in [`Barrier::arrive`].
    pub fn blocked(&self) -> usize {
        self.inner.lock().waiters.len()
    }

    /// Number of parties the barrier waits for.
    pub fn parties(&self) -> usize {
        self.inner.lock().parties
    }

    /// Completed cycles.
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Wraps the barrier as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("barrier", Arc::new(self.clone()))
    }

    /// Recovers a barrier from a value.
    pub fn from_value(v: &Value) -> Option<Barrier> {
        v.native_as::<Barrier>().map(|b| (*b).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sting_core::VmBuilder;

    #[test]
    fn phases_stay_aligned() {
        let vm = VmBuilder::new().vps(1).build();
        let barrier = Barrier::new(4);
        let phase_counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
        let mut ts = Vec::new();
        for _ in 0..4 {
            let b = barrier.clone();
            let pc = phase_counts.clone();
            ts.push(vm.fork(move |_cx| {
                for phase in 0..3 {
                    pc[phase].fetch_add(1, Ordering::SeqCst);
                    b.arrive();
                    // After the barrier, everyone finished this phase.
                    assert_eq!(pc[phase].load(Ordering::SeqCst), 4);
                }
                0i64
            }));
        }
        for t in ts {
            t.join_blocking().unwrap();
        }
        assert_eq!(barrier.generation(), 3);
        vm.shutdown();
    }

    #[test]
    fn exactly_one_leader_per_cycle() {
        let vm = VmBuilder::new().vps(1).build();
        let barrier = Barrier::new(3);
        let leaders = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..3)
            .map(|_| {
                let b = barrier.clone();
                let l = leaders.clone();
                vm.fork(move |_cx| {
                    if b.arrive() {
                        l.fetch_add(1, Ordering::SeqCst);
                    }
                    0i64
                })
            })
            .collect();
        for t in ts {
            t.join_blocking().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        vm.shutdown();
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = Barrier::new(1);
        assert!(b.arrive());
        assert!(b.arrive());
        assert_eq!(b.generation(), 2);
    }
}
