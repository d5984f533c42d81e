//! Speculative and barrier synchronization over thread groups (§4.3,
//! Figure 5).
//!
//! [`block_on_group`] is the paper's common mechanism: the caller blocks
//! until `count` of the given threads have determined, using one
//! [`JoinNode`](sting_core::JoinNode) (the paper's *thread barrier*
//! record) chained from each watched thread ([`tc::wait_group`]).
//! `wait-for-one` is `count = 1` (OR-parallelism); `wait-for-all` is
//! `count = n` (AND-parallelism / barrier).

use crate::wait::TimedOut;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::tc;
use sting_core::thread::{Thread, ThreadResult};
use sting_value::{static_sym, Value};

/// Blocks the calling thread until at least `count` of `threads` have
/// determined (Figure 5's `block-on-group`).
///
/// Threads already determined count immediately.  Callable from a plain OS
/// thread too: the join node then unparks it.
///
/// # Panics
///
/// Panics if `count > threads.len()` (the wait could never finish).
pub fn block_on_group(count: usize, threads: &[Arc<Thread>]) {
    let done = block_on_group_deadline(count, threads, None);
    debug_assert!(done, "a deadline-free group wait cannot time out");
}

/// [`block_on_group`] with a timeout.
///
/// # Errors
///
/// [`TimedOut`] if fewer than `count` threads determined within `timeout`.
///
/// # Panics
///
/// Panics if `count > threads.len()` (the wait could never finish).
pub fn block_on_group_timeout(
    count: usize,
    threads: &[Arc<Thread>],
    timeout: Duration,
) -> Result<(), TimedOut> {
    if block_on_group_deadline(count, threads, Some(Instant::now() + timeout)) {
        Ok(())
    } else {
        Err(TimedOut)
    }
}

fn block_on_group_deadline(
    count: usize,
    threads: &[Arc<Thread>],
    deadline: Option<Instant>,
) -> bool {
    assert!(
        count <= threads.len(),
        "block_on_group: count {count} exceeds group size {}",
        threads.len()
    );
    if count == 0 {
        return true;
    }
    tc::wait_group(
        count,
        threads.iter().map(AsRef::as_ref),
        static_sym!("block-on-group"),
        deadline,
    )
}

/// Waits until one of `threads` determines and returns its index and
/// result (`wait-for-one` without the terminate step — OR-parallelism).
pub fn wait_for_one(threads: &[Arc<Thread>]) -> (usize, ThreadResult) {
    block_on_group(1, threads);
    let (i, t) = threads
        .iter()
        .enumerate()
        .find(|(_, t)| t.is_determined())
        .expect("block_on_group(1) guarantees a determined thread");
    (i, t.result().expect("determined"))
}

/// `wait-for-one` as the paper defines it: returns the first result and
/// **terminates** every other thread in the group (speculative losers are
/// reclaimed).
pub fn race(threads: &[Arc<Thread>]) -> (usize, ThreadResult) {
    let (winner, result) = wait_for_one(threads);
    for (i, t) in threads.iter().enumerate() {
        if i != winner {
            let _ = tc::thread_terminate(t, Value::sym("speculation-lost"));
        }
    }
    (winner, result)
}

/// Waits until **all** of `threads` determine and returns their results in
/// order (`wait-for-all` — AND-parallelism / barrier synchronization).
pub fn wait_for_all(threads: &[Arc<Thread>]) -> Vec<ThreadResult> {
    block_on_group(threads.len(), threads);
    threads
        .iter()
        .map(|t| t.result().expect("determined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use sting_core::{ThreadState, VmBuilder};

    #[test]
    fn wait_for_all_is_a_barrier() {
        let vm = VmBuilder::new().vps(1).build();
        let r = vm.run(|cx| {
            let ts: Vec<_> = (0..5i64).map(|i| cx.fork(move |_| i * 10)).collect();
            let results = wait_for_all(&ts);
            results
                .into_iter()
                .map(|r| r.unwrap().as_int().unwrap())
                .sum::<i64>()
        });
        assert_eq!(r.unwrap().as_int(), Some(100));
        vm.shutdown();
    }

    #[test]
    fn wait_for_one_returns_first() {
        let vm = VmBuilder::new().vps(1).build();
        let r = vm.run(|cx| {
            let slow = cx.fork(|cx| {
                cx.sleep(Duration::from_millis(200));
                1i64
            });
            let fast = cx.fork(|_| 2i64);
            let (idx, result) = wait_for_one(&[slow, fast]);
            assert_eq!(idx, 1);
            result.unwrap().as_int().unwrap()
        });
        assert_eq!(r.unwrap().as_int(), Some(2));
        vm.shutdown();
    }

    #[test]
    fn race_terminates_losers() {
        let vm = VmBuilder::new().vps(1).build();
        let r = vm.run(|cx| {
            let loser = cx.fork(|cx| -> i64 {
                loop {
                    cx.yield_now();
                }
            });
            let winner = cx.fork(|_| 7i64);
            let group = [loser.clone(), winner];
            let (idx, result) = race(&group);
            assert_eq!(idx, 1);
            // The loser must eventually determine with the loss marker.
            assert_eq!(cx.wait(&loser), Ok(Value::sym("speculation-lost")));
            result.unwrap().as_int().unwrap()
        });
        assert_eq!(r.unwrap().as_int(), Some(7));
        vm.shutdown();
    }

    #[test]
    fn already_determined_threads_count() {
        let vm = VmBuilder::new().vps(1).build();
        let r = vm.run(|cx| {
            let t = cx.fork(|_| 1i64);
            cx.wait(&t).unwrap();
            assert_eq!(t.state(), ThreadState::Determined);
            // Must return immediately.
            block_on_group(1, std::slice::from_ref(&t));
            wait_for_all(std::slice::from_ref(&t));
            1i64
        });
        assert_eq!(r.unwrap().as_int(), Some(1));
        vm.shutdown();
    }

    #[test]
    fn block_on_group_from_os_thread() {
        let vm = VmBuilder::new().vps(1).build();
        let ts: Vec<_> = (0..3i64).map(|i| vm.fork(move |_| i)).collect();
        block_on_group(3, &ts);
        assert!(ts.iter().all(|t| t.is_determined()));
        vm.shutdown();
    }

    #[test]
    #[should_panic(expected = "exceeds group size")]
    fn count_larger_than_group_panics() {
        let vm = VmBuilder::new().vps(1).build();
        let t = vm.fork(|_| 0i64);
        block_on_group(2, &[t]);
    }

    #[test]
    fn partial_count_wait() {
        let vm = VmBuilder::new().vps(1).build();
        let r = vm.run(|cx| {
            let fast: Vec<_> = (0..3i64).map(|i| cx.fork(move |_| i)).collect();
            let slow = cx.fork(|cx| {
                cx.sleep(Duration::from_millis(300));
                99i64
            });
            let mut group = fast.clone();
            group.push(slow.clone());
            // Wait for any 3 of the 4.
            block_on_group(3, &group);
            let done = group.iter().filter(|t| t.is_determined()).count();
            assert!(done >= 3);
            assert!(!slow.is_determined(), "slow thread still running");
            let _ = tc::thread_terminate(&slow, Value::Int(0));
            1i64
        });
        assert_eq!(r.unwrap().as_int(), Some(1));
        vm.shutdown();
    }
}
