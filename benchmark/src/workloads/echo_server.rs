//! `echo_server`: connection-per-thread echo on a 2-VP VM.  Op = a client
//! writes N bytes and reads N back; the bytes are compared.
//!
//! Why: the only workload where `reactor`, `uring`, `net`, `timers` and
//! `sys` work.  Scheduler queues are nearly empty, so a `deque` change
//! should not move it.  N is 64 B (90 %) or 16 KiB (10 %) by seed, which
//! separates per-wake cost from per-byte cost.  Every server read carries a
//! deadline 5 s out, so each wake arms and cancels a timer, and set-up
//! leaves 1 000 idle connections held open (parked threads, armed
//! deadlines) beside the hot ones.  The clients are two blocking `std::net`
//! threads in this process, each driving 16 hot connections: it writes one
//! request on each, then reads the 16 replies, so every connection has one
//! echo outstanding.  (With one connection per client the server's workers
//! park between requests, and throughput on a 2-core box swung 18k-32k
//! ops/s from run to run with where the OS placed five threads; with work
//! queued it is CPU-bound and repeats within a few percent.)  Traffic
//! crosses loopback.

use super::{Config, World};
use crate::harness::{
    closed_loop, input_hash, median, nofile_limit, now_ns, one_in_each_block, parallelism,
    status_kb, OpRecord, Rng, Stop, Window, INPUTS_PER_THREAD, OP_DEADLINE,
};
use crate::metrics::Metrics;
use crate::spans::{Name, Span, Spans, ROOT};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sting::core::net::{TcpListener, LOCALHOST};
use sting::prelude::*;

const IDLE_CONNECTIONS: usize = 1_000;
/// Descriptors the full set-up needs with room to spare: two per held
/// connection plus the process's own.
const WANTED_NOFILE: u64 = 4_096;
const SMALL: usize = 64;
const LARGE: usize = 16 * 1024;
/// Hot connections per client thread.
const DEPTH: usize = 16;
const WARMUP_OPS_PER_CLIENT: usize = 8_000;
/// Connects allowed ahead of the acceptor, well inside the listen backlog.
const CONNECT_WINDOW: usize = 64;
const SERVER_READ_DEADLINE: Duration = Duration::from_secs(5);

/// A traced window spans one echo in this many.
const SPAN_ONE_IN: usize = 8;

const KIND_SMALL: u8 = 0;
const KIND_LARGE: u8 = 1;

pub struct EchoServer {
    vm: Arc<Vm>,
    /// Per client thread: its hot connections.
    hot: Vec<Mutex<Vec<std::net::TcpStream>>>,
    idle: Vec<std::net::TcpStream>,
    /// Server connection threads still running.
    serving: Arc<AtomicUsize>,
    /// Per client thread, per op: payload length.
    sizes: Vec<Vec<usize>>,
    /// Payload bytes; op `i` sends a slice starting at `i % 251`, so
    /// successive payloads differ and a stale echo cannot pass.
    pattern: Vec<u8>,
    spans: Option<Arc<Spans>>,
    connect_accept_us: f64,
    rss_kb_per_conn: f64,
}

/// Echoes until the peer closes.  A read that meets its deadline re-arms:
/// an idle connection stays open, as a keep-alive server would hold it.
fn serve(stream: &sting::core::net::TcpStream) {
    let mut buf = vec![0u8; 4096];
    loop {
        match stream.read_deadline(&mut buf, Instant::now() + SERVER_READ_DEADLINE) {
            Ok(0) => return,
            Ok(n) => {
                if stream.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e) if e.is_timeout() => {}
            Err(_) => return,
        }
    }
}

impl EchoServer {
    fn connect(
        port: u16,
        n: usize,
        accepted: &AtomicUsize,
    ) -> Result<Vec<std::net::TcpStream>, String> {
        let before = accepted.load(SeqCst);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let s = std::net::TcpStream::connect(("127.0.0.1", port))
                .map_err(|e| format!("echo_server: connect: {e}"))?;
            s.set_nodelay(true)
                .and_then(|()| s.set_read_timeout(Some(OP_DEADLINE)))
                .and_then(|()| s.set_write_timeout(Some(OP_DEADLINE)))
                .map_err(|e| format!("echo_server: socket options: {e}"))?;
            out.push(s);
            while i + 1 > accepted.load(SeqCst) - before + CONNECT_WINDOW {
                std::thread::yield_now();
            }
        }
        let deadline = Instant::now() + OP_DEADLINE;
        while accepted.load(SeqCst) - before < n {
            if Instant::now() > deadline {
                return Err("echo_server: the acceptor fell behind the connects".into());
            }
            std::thread::yield_now();
        }
        Ok(out)
    }

    /// One batch of a client: a request on each of its connections, then
    /// the replies in the same order.  Op `i + j` runs on connection `j`.
    fn batch(&self, c: usize, i: usize, spans: Option<&Spans>, out: &mut Vec<OpRecord>) {
        let mut conns = self.hot[c].lock().expect("one client per connection set");
        let mut buf = [0u8; LARGE];
        let payload = |op: usize| {
            let len = self.sizes[c][op % self.sizes[c].len()];
            &self.pattern[op % 251..][..len]
        };
        let mut sent = [(0u64, 0u64, false); DEPTH];
        for (j, conn) in conns.iter_mut().enumerate() {
            let start = now_ns();
            let wrote = conn.write_all(payload(i + j)).is_ok();
            sent[j] = (start, now_ns(), wrote);
        }
        for (j, conn) in conns.iter_mut().enumerate() {
            let (start, written, wrote) = sent[j];
            let expected = payload(i + j);
            let reading = now_ns();
            let echoed = &mut buf[..expected.len()];
            let ok = wrote && conn.read_exact(echoed).is_ok() && echoed == expected;
            if let Some(spans) = spans.filter(|_| (i + j).is_multiple_of(SPAN_ONE_IN)) {
                let op = (c as u64) << 48 | (i + j) as u64;
                let id = spans.open();
                spans.close_at(spans.open(), Name::SockWrite, start, written, id, op);
                spans.record(Name::SockRead, reading, id, op);
                spans.close(id, Name::Op, start, ROOT, op);
            }
            let kind = if expected.len() == LARGE {
                KIND_LARGE
            } else {
                KIND_SMALL
            };
            out.push(OpRecord::new(start, now_ns(), kind, ok));
        }
    }
}

impl World for EchoServer {
    const RSS_AFTER_OPS: u64 = 100_000;

    fn build(config: &Config) -> Result<EchoServer, String> {
        let clients = parallelism();
        let sizes: Vec<Vec<usize>> = (0..clients)
            .map(|c| {
                let mut rng = Rng::new(config.seed, c as u64);
                one_in_each_block(&mut rng, INPUTS_PER_THREAD, 10)
                    .into_iter()
                    .map(|large| if large { LARGE } else { SMALL })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(config.seed, 0xEC40);
        let pattern = (0..LARGE + 251).map(|_| rng.next_u64() as u8).collect();

        let limit = nofile_limit();
        let idle_target = if limit < WANTED_NOFILE {
            let scaled = (limit.saturating_sub(64) / 2) as usize;
            eprintln!(
                "warning: echo_server: `ulimit -n` is {limit} (< {WANTED_NOFILE}); \
                 holding {scaled} idle connections instead of {IDLE_CONNECTIONS}"
            );
            scaled.min(IDLE_CONNECTIONS)
        } else {
            IDLE_CONNECTIONS
        };

        let vm = VmBuilder::new()
            .vps(parallelism())
            .stack_size(64 * 1024)
            .name("echo-server")
            .build();
        let listener =
            TcpListener::bind(LOCALHOST, 0).map_err(|e| format!("echo_server: bind: {e}"))?;
        let port = listener
            .local_port()
            .map_err(|e| format!("echo_server: local port: {e}"))?;
        let accepted = Arc::new(AtomicUsize::new(0));
        let serving = Arc::new(AtomicUsize::new(0));
        {
            let (vm2, accepted, serving) = (vm.clone(), accepted.clone(), serving.clone());
            vm.fork(move |_cx| {
                while let Ok(stream) = listener.accept() {
                    serving.fetch_add(1, SeqCst);
                    accepted.fetch_add(1, SeqCst);
                    let serving = serving.clone();
                    vm2.fork(move |_cx| {
                        serve(&stream);
                        serving.fetch_sub(1, SeqCst);
                    });
                }
            });
        }

        let rss_before = status_kb("VmRSS");
        let t0 = Instant::now();
        let idle = EchoServer::connect(port, idle_target, &accepted)?;
        let connect_accept_us = t0.elapsed().as_secs_f64() * 1e6 / idle_target.max(1) as f64;
        let rss_kb_per_conn =
            status_kb("VmRSS").saturating_sub(rss_before) as f64 / idle_target.max(1) as f64;
        let hot = (0..clients)
            .map(|_| EchoServer::connect(port, DEPTH, &accepted).map(Mutex::new))
            .collect::<Result<_, _>>()?;

        let world = EchoServer {
            vm,
            hot,
            idle,
            serving,
            sizes,
            pattern,
            spans: config.spans.clone(),
            connect_accept_us,
            rss_kb_per_conn,
        };
        let warm = world.run(Stop::Count(WARMUP_OPS_PER_CLIENT), false);
        if warm.iter().any(|r| !r.ok) {
            return Err("echo_server: a warm-up echo came back wrong or late".into());
        }
        Ok(world)
    }

    fn input_hash(&self) -> u64 {
        input_hash(
            self.sizes
                .iter()
                .flatten()
                .map(|&n| n as u64)
                .chain(self.pattern.iter().map(|&b| u64::from(b))),
        )
    }

    fn vms(&self) -> Vec<Arc<Vm>> {
        vec![self.vm.clone()]
    }

    fn run(&self, stop: Stop, traced: bool) -> Vec<OpRecord> {
        let spans = self.spans.as_deref().filter(|_| traced);
        closed_loop(self.hot.len(), stop, |c, i, out| {
            self.batch(c, i, spans, out)
        })
    }

    fn spanned_one_in(&self) -> u64 {
        SPAN_ONE_IN as u64
    }

    fn setup_metrics(&self, out: &mut Metrics) {
        let n = self.idle.len() as u64;
        out.set("net.connect_accept_us", self.connect_accept_us, n);
        out.set("net.rss_kb_per_conn", self.rss_kb_per_conn, n);
    }

    fn traced_metrics(&self, traced: &Window, _spans: &[Option<Span>], out: &mut Metrics) {
        let mut small = traced.latencies_of_kind_ns(KIND_SMALL);
        out.set(
            "net.rtt_small_p50_us",
            median(&mut small) / 1e3,
            small.len() as u64,
        );
        let mut large = traced.latencies_of_kind_ns(KIND_LARGE);
        out.set(
            "net.rtt_large_p50_us",
            median(&mut large) / 1e3,
            large.len() as u64,
        );
        // Bytes moved both ways by large echoes over the time spent in them.
        let bytes = (2 * LARGE * large.len()) as f64;
        let busy_s = large.iter().sum::<u64>() as f64 / 1e9;
        out.set(
            "net.large_mb_per_s",
            crate::harness::ratio(bytes / 1e6, busy_s),
            large.len() as u64,
        );
    }

    /// Closing the clients ends every connection thread with an EOF; all of
    /// them must have gone before the VM stops.
    fn teardown(self) -> Result<(), String> {
        drop(self.hot);
        drop(self.idle);
        let deadline = Instant::now() + 2 * OP_DEADLINE;
        while self.serving.load(SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let left = self.serving.load(SeqCst);
        self.vm.shutdown();
        if left == 0 {
            Ok(())
        } else {
            Err(format!(
                "echo_server: {left} connection threads outlived their clients"
            ))
        }
    }
}
