//! Plain OS threads as waiters: they park on `std::thread::park` inside the
//! same protocols STING threads block in (join nodes, wait lists), and
//! every wake-up, timeout and re-registration goes through the same claim
//! token.

use std::time::{Duration, Instant};
use sting_core::VmBuilder;
use sting_sync::{wait_for_one, Channel, TimedOut};
use sting_value::Value;

/// `wait_for_one` from an OS thread returns the thread that determined,
/// while the other is still blocked: the group's join node unparks the
/// caller, it does not join the first thread of the group.
#[test]
fn wait_for_one_from_an_os_thread_returns_the_first_to_determine() {
    let vm = VmBuilder::new().vps(1).build();
    let gate = Channel::unbounded();
    let g = gate.clone();
    let slow = vm.fork(move |_| g.recv().and_then(|v| v.as_int()).unwrap_or(-1));
    let fast = vm.fork(|_| 2i64);
    let (idx, result) = wait_for_one(&[slow.clone(), fast]);
    assert_eq!(idx, 1);
    assert_eq!(result, Ok(Value::Int(2)));
    assert!(!slow.is_determined(), "slow is fed only after the wait");
    gate.send(Value::Int(1)).unwrap();
    assert_eq!(slow.join_blocking(), Ok(Value::Int(1)));
    vm.shutdown();
}

/// Two OS threads ping-pong over two channels, each `recv` an unpark
/// handshake; then a timed `recv` on an empty channel times out, and the
/// abandoned registration does not absorb the next send.
#[test]
fn os_threads_ping_pong_then_time_out_without_losing_a_send() {
    const ROUNDS: i64 = 100_000;
    let (ping, pong) = (Channel::unbounded(), Channel::unbounded());
    let (ping2, pong2) = (ping.clone(), pong.clone());
    let echo = std::thread::spawn(move || {
        while let Some(v) = ping2.recv() {
            pong2.send(v).unwrap();
        }
    });
    for i in 0..ROUNDS {
        ping.send(Value::Int(i)).unwrap();
        assert_eq!(pong.recv(), Some(Value::Int(i)));
    }
    ping.close();
    echo.join().unwrap();

    let t0 = Instant::now();
    assert_eq!(pong.recv_timeout(Duration::from_millis(20)), Err(TimedOut));
    assert!(t0.elapsed() >= Duration::from_millis(20));
    let pong2 = pong.clone();
    let receiver = std::thread::spawn(move || pong2.recv());
    pong.send(Value::Int(ROUNDS)).unwrap();
    assert_eq!(receiver.join().unwrap(), Some(Value::Int(ROUNDS)));
}
