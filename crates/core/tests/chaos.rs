//! Chaos test: a storm of asynchronous state-change requests (block,
//! suspend, resume, raise, terminate) against a pool of running threads.
//! Whatever the interleaving, the machine must stay consistent: every
//! thread eventually determines exactly once, and the VM shuts down clean.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::{tc, StateRequest, ThreadState, Vm, VmBuilder};
use sting_value::Value;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn run_storm(vm: &Arc<Vm>, seed: u64, victims: usize, requests: usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let pool: Vec<_> = (0..victims)
        .map(|i| {
            let stop = stop.clone();
            vm.fork(move |cx| {
                let mut n = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    n = n.wrapping_add(i as u64);
                    cx.checkpoint();
                    if n.is_multiple_of(7) {
                        cx.yield_now();
                    }
                }
                n as i64
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    let mut rng = seed | 1;
    // Block/Suspend requests each victim accepted: it parks at most once
    // per entry, which bounds the resumes quiescing may have to send it.
    let mut parks = vec![0usize; pool.len()];
    for _ in 0..requests {
        let i = (xorshift(&mut rng) as usize) % pool.len();
        let t = &pool[i];
        // Random request; transition errors are expected and fine — the
        // invariant under test is "never a wedge, never a double result".
        let _ = match xorshift(&mut rng) % 5 {
            0 => t.request(StateRequest::Block).inspect(|()| parks[i] += 1),
            1 => t
                .request(StateRequest::Suspend(Some(Duration::from_micros(
                    xorshift(&mut rng) % 500,
                ))))
                .inspect(|()| parks[i] += 1),
            2 => t.request(StateRequest::Resume),
            3 => tc::thread_raise(t, Value::sym("chaos-raise")).map(|_| ()),
            _ => {
                // Occasionally yield the storm itself.
                std::thread::yield_now();
                Ok(())
            }
        };
        if xorshift(&mut rng).is_multiple_of(13) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    // Quiesce: resume everything still parked, then stop the survivors.
    for t in &pool {
        let _ = t.request(StateRequest::Resume);
    }
    stop.store(true, Ordering::SeqCst);
    for (t, parks) in pool.iter().zip(parks) {
        // Threads raised at may have determined with the chaos exception;
        // both outcomes are legal.  What is not legal is hanging.
        //
        // A victim that was evaluating during the sweep above rejected its
        // Resume and may only now, at its next checkpoint, honour Blocks
        // and Suspends the storm queued: it is parked because it was asked
        // to be, and needs one Resume per such park.  Nothing else is
        // forgiven: a Resume is sent only to a parked victim, an accepted
        // one makes it evaluating again (so is never repeated for the same
        // park), and a victim that then fails to determine still hangs
        // the join.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut late = 0;
        let r = loop {
            if let Some(r) = t.join_blocking_timeout(Duration::from_millis(20)) {
                break r;
            }
            assert!(Instant::now() < deadline, "thread must determine, not hang");
            if matches!(t.state(), ThreadState::Blocked | ThreadState::Suspended)
                && t.request(StateRequest::Resume).is_ok()
            {
                late += 1;
                assert!(
                    late <= parks,
                    "parked {late} times after the storm, which queued only {parks} parks"
                );
            }
        };
        match r {
            Ok(v) => assert!(v.as_int().is_some(), "normal exit carries the count: {v}"),
            Err(e) => assert_eq!(e, Value::sym("chaos-raise")),
        }
        assert_eq!(t.state(), ThreadState::Determined);
    }
}

#[test]
fn request_storm_single_vp() {
    let vm = VmBuilder::new().vps(1).build();
    run_storm(&vm, 0xDEADBEEF, 6, 400);
    vm.shutdown();
}

#[test]
fn request_storm_multi_vp() {
    let vm = VmBuilder::new().vps(3).processors(2).build();
    run_storm(&vm, 0x12345678, 10, 600);
    vm.shutdown();
}

#[test]
fn request_storm_different_seeds() {
    let vm = VmBuilder::new().vps(2).build();
    for seed in [1u64, 42, 0xABCDEF, 999_999_937] {
        run_storm(&vm, seed, 4, 150);
    }
    vm.shutdown();
}
