//! Reactor-backed TCP on STING threads: blocking a thread in
//! `accept`/`read`/`write` parks only that thread, deadlines work, and a
//! terminate delivered while parked on fd readiness unwinds cleanly (the
//! registration is torn down, the pending readiness dies against the
//! finished episode).  Every test runs with tracing and asserts a clean
//! audit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::net::{TcpListener, TcpStream, LOCALHOST};
use sting_core::state::ThreadState;
use sting_core::vm::Vm;
use sting_core::{tc, ThreadBuilder, VmBuilder};
use sting_value::Value;

fn traced_vm() -> Arc<Vm> {
    VmBuilder::new()
        .vps(1)
        .trace(true)
        .trace_capacity(1 << 16)
        .build()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn finish(vm: &Arc<Vm>) {
    let report = vm.trace_audit();
    assert!(report.is_clean(), "audit found violations:\n{report}");
    vm.shutdown();
}

/// Server and client are both STING threads on the same single VP: each
/// park on readiness must release the VP to the other side, or the
/// round-trip deadlocks.
#[test]
fn sting_threads_echo_round_trip_on_one_vp() {
    let vm = traced_vm();
    let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
    let port = listener.local_port().unwrap();
    let server = vm.fork(move |_cx| {
        let s = listener.accept().unwrap();
        let mut buf = [0u8; 32];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            s.write_all(&buf[..n]).unwrap();
        }
        1i64
    });
    let client = vm.fork(move |_cx| {
        let c = TcpStream::connect(LOCALHOST, port).unwrap();
        for i in 0..8u8 {
            let msg = [i; 5];
            c.write_all(&msg).unwrap();
            let mut buf = [0u8; 5];
            let mut got = 0;
            while got < buf.len() {
                let n = c.read(&mut buf[got..]).unwrap();
                assert_ne!(n, 0, "peer hung up early");
                got += n;
            }
            assert_eq!(buf, msg);
        }
        c.shutdown_write();
        1i64
    });
    assert_eq!(client.join_blocking().unwrap().as_int(), Some(1));
    assert_eq!(server.join_blocking().unwrap().as_int(), Some(1));
    // The driver started the epoll backend, did real kernel work, and
    // delivered real wakes — the counters behind `(vm-io-stats)`.
    let stats = vm.io_driver().stats();
    assert_eq!(stats.backend, "epoll");
    assert!(stats.syscalls > 0, "backend made no syscalls? {stats:?}");
    assert!(stats.wakes > 0, "driver delivered no wakes? {stats:?}");
    finish(&vm);
}

/// The trailing-deadline variants on STING threads: an `accept` with no
/// client and a `read` with no data both time out through the same timed
/// wait episode as every other blocking op.
#[test]
fn accept_and_read_deadlines_time_out_on_sting_threads() {
    let vm = traced_vm();
    let t = vm.fork(|_cx| {
        let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
        let port = listener.local_port().unwrap();
        let start = Instant::now();
        let r = listener.accept_deadline(start + Duration::from_millis(30));
        assert!(r.unwrap_err().is_timeout());
        assert!(start.elapsed() >= Duration::from_millis(25));

        let c = TcpStream::connect(LOCALHOST, port).unwrap();
        let s = listener.accept().unwrap();
        let mut buf = [0u8; 8];
        assert!(s
            .read_deadline(&mut buf, Instant::now() + Duration::from_millis(20))
            .unwrap_err()
            .is_timeout());
        // And after the timeout the stream still delivers.
        c.write_all(b"late").unwrap();
        let n = s
            .read_deadline(&mut buf, Instant::now() + Duration::from_secs(2))
            .unwrap();
        assert_eq!(&buf[..n], b"late");
        1i64
    });
    assert_eq!(t.join_blocking().unwrap().as_int(), Some(1));
    finish(&vm);
}

/// Terminating a thread parked in `accept` unwinds it: the drop guard
/// deregisters its readiness slot, and a connection arriving afterwards
/// wakes nobody stale (clean audit) while a fresh acceptor still works.
#[test]
fn terminate_thread_blocked_in_accept() {
    let vm = traced_vm();
    let listener = Arc::new(TcpListener::bind(LOCALHOST, 0).unwrap());
    let port = listener.local_port().unwrap();
    let victim = {
        let listener = listener.clone();
        vm.fork(move |_cx| {
            let _ = listener.accept();
            1i64
        })
    };
    wait_until("victim to park in accept", || {
        victim.state() == ThreadState::Blocked
    });
    tc::thread_terminate(&victim, Value::sym("killed")).unwrap();
    assert_eq!(victim.join_blocking(), Ok(Value::sym("killed")));
    // The listener must still be usable from a fresh thread.
    let acceptor = {
        let listener = listener.clone();
        vm.fork(move |_cx| {
            let s = listener.accept().unwrap();
            let mut b = [0u8; 4];
            let n = s.read(&mut b).unwrap();
            i64::from(b[..n] == *b"ping")
        })
    };
    let client = TcpStream::connect(LOCALHOST, port).unwrap();
    client.write_all(b"ping").unwrap();
    assert_eq!(acceptor.join_blocking().unwrap().as_int(), Some(1));
    finish(&vm);
}

/// A small fleet of connection threads under policy-managed priorities
/// (the echo-server shape): every connection is a first-class STING
/// thread, all multiplexed on one VP with 32 KiB stacks.
#[test]
fn connection_per_thread_fleet_under_priorities() {
    const CONNS: usize = 32;
    let vm = VmBuilder::new()
        .vps(1)
        .stack_size(32 * 1024)
        .trace(true)
        .trace_capacity(1 << 16)
        .build();
    let listener = Arc::new(TcpListener::bind(LOCALHOST, 0).unwrap());
    let port = listener.local_port().unwrap();
    let served = Arc::new(AtomicUsize::new(0));

    let acceptor = {
        let listener = listener.clone();
        let vm2 = vm.clone();
        let served = served.clone();
        vm.fork(move |_cx| {
            for i in 0..CONNS {
                let s = listener.accept().unwrap();
                let served = served.clone();
                // Alternate priorities: the policy manager orders the
                // ready connection threads, not the reactor.
                ThreadBuilder::new(&vm2)
                    .name(&format!("conn-{i}"))
                    .priority((i % 3) as i32)
                    .spawn(move |_cx| {
                        let mut buf = [0u8; 16];
                        loop {
                            let n = s.read(&mut buf).unwrap();
                            if n == 0 {
                                break;
                            }
                            s.write_all(&buf[..n]).unwrap();
                        }
                        served.fetch_add(1, Ordering::SeqCst);
                        0i64
                    })
                    .unwrap();
            }
            0i64
        })
    };

    let clients: Vec<_> = (0..CONNS)
        .map(|i| {
            vm.fork(move |_cx| {
                let c = TcpStream::connect(LOCALHOST, port).unwrap();
                let msg = [i as u8; 8];
                c.write_all(&msg).unwrap();
                let mut buf = [0u8; 8];
                let mut got = 0;
                while got < buf.len() {
                    let n = c.read(&mut buf[got..]).unwrap();
                    assert_ne!(n, 0);
                    got += n;
                }
                assert_eq!(buf, msg);
                c.shutdown_write();
                1i64
            })
        })
        .collect();

    for c in clients {
        assert_eq!(c.join_blocking().unwrap().as_int(), Some(1));
    }
    acceptor.join_blocking().unwrap();
    wait_until("all connection threads to finish", || {
        served.load(Ordering::SeqCst) == CONNS
    });
    finish(&vm);
}
