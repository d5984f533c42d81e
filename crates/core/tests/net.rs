//! Reactor-backed TCP on STING threads: blocking a thread in
//! `accept`/`read`/`write` parks only that thread, deadlines work, and a
//! terminate delivered while parked on fd readiness unwinds cleanly (the
//! registration is torn down, the pending readiness dies against the
//! finished episode).  Every test runs with tracing and asserts a clean
//! audit.

use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::net::{TcpListener, TcpStream, LOCALHOST};
use sting_core::reactor::{IoSource, Reactor, ReadyEvent, READ};
use sting_core::state::ThreadState;
use sting_core::sys::{self, RawFd};
use sting_core::vm::Vm;
use sting_core::wait::WakeReason;
use sting_core::{policies, tc, Fleet, ThreadBuilder, VmBuilder};
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

/// A VM whose workers have nothing to fall back on: no clock ticks, so
/// a wake-up that is lost shows as a stall until the test gives up, not
/// as microseconds.
fn tickless_vm(vps: usize) -> Arc<Vm> {
    VmBuilder::new().vps(vps).processors(vps).build()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Every worker idle — one of them the poller, blocked in the machine's
/// mux — and a STING reader parked on its socket: a write from a host
/// thread reaches the reader through the mux, promptly.
#[test]
fn idle_poller_wakes_a_parked_reader_promptly() {
    let vm = tickless_vm(2);
    let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
    let port = listener.local_port().unwrap();
    let server = vm.fork(move |_cx| {
        let s = listener.accept().unwrap();
        let mut buf = [0u8; 16];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                return 1i64;
            }
            s.write_all(&buf[..n]).unwrap();
        }
    });
    let mut client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    client.set_nodelay(true).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut rtts = Vec::new();
    for _ in 0..7 {
        // Let every worker go idle and the reader park.
        std::thread::sleep(Duration::from_millis(30));
        let start = Instant::now();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        client.read_exact(&mut buf).unwrap();
        rtts.push(start.elapsed());
        assert!(start.elapsed() < Duration::from_secs(1), "{rtts:?}");
    }
    assert!(median(rtts.clone()) < Duration::from_millis(50), "{rtts:?}");
    drop(client);
    assert_eq!(server.join_blocking().unwrap().as_int(), Some(1));
    vm.shutdown();
}

/// A wake addressed to the poller's VP kicks the poller out of the mux,
/// while the sibling worker spins through passes, each polling the
/// reactor without blocking.  The sibling's look must not drain the
/// kick meant for the poller.  Nothing migrates, so worker 1 never idles
/// and the poller is worker 0.
#[test]
fn wake_to_the_pollers_vp_lands_while_a_sibling_busy_polls() {
    let vm = VmBuilder::new()
        .vps(2)
        .processors(2)
        .policy(|_| policies::local_fifo().boxed())
        .build();
    let spin = Arc::new(AtomicBool::new(true));
    let sibling = {
        let spin = spin.clone();
        vm.fork_on(1, move |cx| {
            while spin.load(Ordering::Relaxed) {
                cx.yield_now();
            }
            0i64
        })
        .unwrap()
    };
    // A parked reader starts the reactor; idle worker 0 takes the role.
    let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
    let port = listener.local_port().unwrap();
    let reader = vm
        .fork_on(0, move |_cx| {
            let s = listener.accept().unwrap();
            let mut buf = [0u8; 4];
            s.read(&mut buf).unwrap() as i64
        })
        .unwrap();
    let mut client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    let mut waits = Vec::new();
    for _ in 0..7 {
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        let t = vm.fork_on(0, |_cx| 1i64).unwrap();
        let done = t.join_blocking_timeout(Duration::from_secs(1));
        waits.push(start.elapsed());
        assert_eq!(done, Some(Ok(Value::from(1i64))), "{waits:?}");
    }
    assert!(
        median(waits.clone()) < Duration::from_millis(50),
        "{waits:?}"
    );
    spin.store(false, Ordering::Relaxed);
    sibling.join_blocking().unwrap();
    client.write_all(b"done").unwrap();
    assert_eq!(reader.join_blocking().unwrap().as_int(), Some(4));
    vm.shutdown();
}

/// A registered stream closes and the next accepted stream reuses its fd
/// number: the new stream starts unregistered (the old one deregistered
/// before its close), registers afresh, and its reader wakes.  Other
/// tests open fds concurrently, so the scenario repeats until the number
/// is reused.
#[test]
fn a_reused_fd_number_starts_with_a_fresh_registration() {
    let vm = traced_vm();
    let listener = Arc::new(TcpListener::bind(LOCALHOST, 0).unwrap());
    let port = listener.local_port().unwrap();
    const ATTEMPTS: usize = 20;
    // Per attempt: the first stream closed, then the second one read.
    let closed = Arc::new(AtomicUsize::new(0));
    let served = Arc::new(AtomicUsize::new(0));
    let server = {
        let (listener, closed, served) = (listener.clone(), closed.clone(), served.clone());
        vm.fork(move |_cx| {
            for attempt in 1..=ATTEMPTS {
                let first = listener.accept().unwrap();
                let mut buf = [0u8; 4];
                // Registers `first`: nothing to read, so the wait times out.
                let r = first.read_deadline(&mut buf, Instant::now() + Duration::from_millis(10));
                assert!(r.unwrap_err().is_timeout());
                let number = format!("{first:?}");
                drop(first);
                closed.store(attempt, Ordering::SeqCst);
                let second = listener.accept().unwrap();
                let reused = format!("{second:?}") == number;
                let n = second.read(&mut buf).unwrap();
                assert_eq!(&buf[..n], b"new!");
                served.store(attempt, Ordering::SeqCst);
                if reused {
                    return 1i64;
                }
            }
            0i64
        })
    };
    for attempt in 1..=ATTEMPTS {
        // Both clients connect first: a socket opened here after the close
        // would take the freed number itself.
        let _first = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let mut second = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        wait_until("the first stream to close", || {
            closed.load(Ordering::SeqCst) == attempt
        });
        std::thread::sleep(Duration::from_millis(20));
        second.write_all(b"new!").unwrap();
        wait_until("the new stream's reader to wake", || {
            served.load(Ordering::SeqCst) == attempt
        });
        if server.is_determined() {
            break;
        }
    }
    assert_eq!(
        server.join_blocking().unwrap().as_int(),
        Some(1),
        "the fd number was never reused"
    );
    finish(&vm);
}

/// A scripted reactor for the register-then-wait race: it records each
/// registration and hands out only what the test injects.
#[derive(Default)]
struct Scripted {
    registered: Mutex<Vec<(RawFd, u64)>>,
    queue: Mutex<Vec<ReadyEvent>>,
}

impl Reactor for Scripted {
    fn register(&self, fd: RawFd, token: u64) -> sys::Result<()> {
        self.registered.lock().push((fd, token));
        Ok(())
    }

    fn forget(&self, _fd: RawFd) {}

    fn poll(&self, out: &mut Vec<ReadyEvent>) -> sys::Result<()> {
        out.append(&mut self.queue.lock());
        Ok(())
    }
}

/// The edge of data that arrives between a read's `EAGAIN` and the
/// reader storing its waiter is not lost: dispatch finds nobody waiting
/// and keeps the edge, and the wait that follows returns at once instead
/// of parking.  No driver thread exists to race: the test polls.
#[test]
fn an_edge_between_eagain_and_registration_is_not_lost() {
    let vm = VmBuilder::new().vps(1).build();
    let reactor = Arc::new(Scripted::default());
    vm.io_driver().install_reactor(reactor.clone());
    let (a, b) = sys::socketpair_stream().unwrap();
    let source = IoSource::new(b);
    let blocker = Value::sym("io-read");
    // The first wait registers the source (and times out at once).
    let r = source.wait_ready(vm.io_driver(), false, &blocker, Some(Instant::now()));
    assert_eq!(r, Ok(WakeReason::TimedOut));
    let token = reactor.registered.lock()[0].1;
    // EAGAIN; then the edge lands before the reader registers its waiter.
    let mut buf = [0u8; 4];
    assert_eq!(sys::read(b, &mut buf), Err(sys::Errno(sys::EAGAIN)));
    sys::write(a, b"x").unwrap();
    reactor.queue.lock().push(ReadyEvent { token, mask: READ });
    vm.io_driver().poll();
    // The wait finds the edge and does not park.
    let start = Instant::now();
    let r = source.wait_ready(
        vm.io_driver(),
        false,
        &blocker,
        Some(start + Duration::from_secs(5)),
    );
    assert_eq!(r, Ok(WakeReason::Woken));
    assert!(start.elapsed() < Duration::from_secs(1));
    assert_eq!(sys::read(b, &mut buf), Ok(1));
    assert_eq!(reactor.registered.lock().len(), 1, "registered once");
    drop(source);
    let _ = sys::close(a);
    vm.shutdown();
}

/// Two single-VP shards on one machine, each with its own reactor: the
/// poller's mux holds both, so either shard's listener accepts promptly
/// while every worker idles.
#[test]
fn both_shards_of_a_fleet_accept_through_one_mux() {
    let fleet = Fleet::builder()
        .shards(2)
        .vps_per_shard(1)
        .processors(2)
        .build();
    for round in 0..3 {
        // Each acceptor parks in its shard's reactor (the first round
        // starts them), then every worker goes idle.
        let acceptors: Vec<_> = (0..2)
            .map(|shard| {
                let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
                let port = listener.local_port().unwrap();
                let t = fleet.shard(shard).fork(move |_cx| {
                    let s = listener.accept().unwrap();
                    let mut buf = [0u8; 2];
                    s.read(&mut buf).unwrap() as i64
                });
                (t, port)
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        for (shard, (t, port)) in acceptors.into_iter().enumerate() {
            let start = Instant::now();
            let mut c = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
            c.write_all(b"hi").unwrap();
            let got = t.join_blocking_timeout(Duration::from_secs(1));
            assert_eq!(
                got,
                Some(Ok(Value::from(2i64))),
                "shard {shard} round {round}: no accept within 1 s"
            );
            assert!(start.elapsed() < Duration::from_millis(500));
        }
    }
    fleet.shutdown();
}

/// No tick fires a read deadline: on a 1-VP VM whose reactor has started,
/// the only worker blocks in the poller's `epoll_wait` while a read waits
/// on a silent socket, and the wait's timeout ends it at the deadline.
/// The bound tests that it fires at all, not its precision.
#[test]
fn read_deadline_times_out_while_the_only_worker_polls() {
    let vm = VmBuilder::new().vps(1).processors(1).build();
    let t = vm.fork(|_cx| {
        let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
        let _client = TcpStream::connect(LOCALHOST, listener.local_port().unwrap()).unwrap();
        let server = listener.accept().unwrap();
        let mut buf = [0u8; 8];
        let start = Instant::now();
        let r = server.read_deadline(&mut buf, start + Duration::from_millis(30));
        assert!(r.unwrap_err().is_timeout());
        start.elapsed().as_micros() as i64
    });
    let waited = tc::wait_timeout(&t, Duration::from_secs(5)).expect("the read never timed out");
    let waited = Duration::from_micros(waited.unwrap().as_int().unwrap() as u64);
    assert!(
        waited >= Duration::from_millis(30),
        "timed out early: {waited:?}"
    );
    assert!(
        waited < Duration::from_millis(500),
        "timed out late: {waited:?}"
    );
    vm.shutdown();
}
