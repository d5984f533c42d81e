//! Echo-server benchmark: connection-per-thread scalability and
//! block→wake latency under socket load.
//!
//! The server side is the substrate: every accepted connection is a
//! first-class STING thread parked on fd readiness through the reactor,
//! so the row of interest is the wake histogram — park commit → wake
//! re-enqueue — while thousands of connection threads are held open.
//! The client side is a **subprocess** (this binary re-executed with a
//! hidden `--echo-client` mode, plain `std::net` blocking sockets): the
//! full tier holds 10 000 connections, and with both ends in one process
//! the fd budget would be the thing under test instead of the substrate.
//!
//! Rows (suite `server`, each suffixed with the reactor backend label
//! `-epoll`, the name committed baselines know them by):
//! * `connections-held-epoll` — peak concurrently-open connection
//!   threads.
//! * `block-wake-epoll` — the VM's wake histogram (ns), sampled 1:1.
//! * `echo-rtt-epoll` — client-observed round-trip (ns), the end-to-end
//!   check that the latency the substrate reports is the latency a peer
//!   sees.
//! * `syscalls-per-wake-epoll` — reactor kernel round-trips divided by
//!   delivered wakes, snapshotted under load.
//!
//! And one count gate, `server:epoll-ctl-per-wake==0`: in steady state
//! registrations equal sockets, not wakes.

use crate::report::{BenchRow, Check};
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting::core::net::{TcpListener, LOCALHOST};
use sting::core::HistogramSnapshot;
use sting::prelude::*;

/// Knobs for one server-bench run.
pub struct ServerScale {
    /// Connections to hold open concurrently.
    pub conns: usize,
    /// Total echo round-trips performed across all connections.
    pub echoes: usize,
    /// Virtual processors for the server VM.
    pub vps: usize,
    /// OS threads the client subprocess drives its sockets with.
    pub client_threads: usize,
}

impl ServerScale {
    /// The acceptance-criteria tier: ≥10k connection threads on ≤4 VPs.
    pub fn full() -> ServerScale {
        ServerScale {
            conns: 10_000,
            echoes: 20_000,
            vps: 4,
            client_threads: 16,
        }
    }

    /// The CI tier: same shape, well under a minute.
    pub fn smoke() -> ServerScale {
        ServerScale {
            conns: 256,
            echoes: 2_000,
            vps: 2,
            client_threads: 4,
        }
    }
}

fn row_from_hist(name: &str, h: &HistogramSnapshot) -> BenchRow {
    BenchRow {
        suite: "server".to_string(),
        name: name.to_string(),
        unit: "ns".to_string(),
        samples: h.count,
        min: h.min as f64,
        mean: h.mean(),
        p50: h.p50() as f64,
        p99: h.p99() as f64,
        paper_us: None,
    }
}

/// Runs the echo-server benchmark; returns its rows and checks.
///
/// # Errors
///
/// A human-readable description when the server cannot bind, the client
/// subprocess cannot start, or either side misbehaves.
pub fn run(scale: &ServerScale) -> Result<(Vec<BenchRow>, Vec<Check>), String> {
    let vm = VmBuilder::new()
        .vps(scale.vps)
        .stack_size(32 * 1024)
        .metrics_sample(1)
        .name("echo-bench")
        .build();

    let listener = Arc::new(TcpListener::bind(LOCALHOST, 0).map_err(|e| format!("bind: {e}"))?);
    let port = listener.local_port().map_err(|e| format!("port: {e}"))?;

    let active = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let conns = scale.conns;
    let acceptor = {
        let listener = listener.clone();
        let vm2 = vm.clone();
        let (active, peak) = (active.clone(), peak.clone());
        vm.fork(move |_cx| {
            for _ in 0..conns {
                let s = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => break,
                };
                let was = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(was, Ordering::SeqCst);
                let active = active.clone();
                ThreadBuilder::new(&vm2)
                    .spawn(move |_cx| {
                        let mut buf = [0u8; 256];
                        loop {
                            let n = match s.read(&mut buf) {
                                Ok(0) | Err(_) => break,
                                Ok(n) => n,
                            };
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                        active.fetch_sub(1, Ordering::SeqCst);
                        0i64
                    })
                    .map_err(|e| e.to_string())
                    .unwrap();
            }
            0i64
        })
    };

    // The client is this same binary re-executed: blocking std sockets in
    // their own process, their own fd table.  It reports RTT on stdout
    // *while still holding every connection*, then waits for stdin EOF —
    // so the wake histogram is snapshotted under full load, before the
    // mass of end-of-stream wake-ups from the teardown lands in it.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--echo-client",
            &port.to_string(),
            &scale.conns.to_string(),
            &scale.client_threads.to_string(),
            &scale.echoes.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn client: {e}"))?;

    let mut rtt_line = None;
    {
        use std::io::BufRead;
        let stdout = child.stdout.take().ok_or("client stdout missing")?;
        for line in std::io::BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("client stdout: {e}"))?;
            if let Some(rest) = line.strip_prefix("rtt ") {
                rtt_line = Some(rest.to_string());
                break;
            }
        }
    }
    let Some(rtt_line) = rtt_line else {
        let _ = child.kill();
        let _ = child.wait();
        vm.shutdown();
        return Err("client exited without reporting rtt".to_string());
    };

    // Snapshot under load: every connection still held, echoes done.
    let wake = vm.metrics().snapshot().wake;
    let io = vm.io_driver().stats();
    let registrations = vm.io_driver().registrations();
    let held = peak.load(Ordering::SeqCst);

    // Release the client (stdin EOF) and let the teardown drain.
    drop(child.stdin.take());
    let status = child.wait().map_err(|e| format!("client: {e}"))?;
    if !status.success() {
        vm.shutdown();
        return Err(format!("client failed ({status})"));
    }

    // Client gone → every connection thread sees EOF and drains.
    let deadline = Instant::now() + Duration::from_secs(60);
    while active.load(Ordering::SeqCst) > 0 || !acceptor.is_determined() {
        if Instant::now() > deadline {
            vm.shutdown();
            return Err("connection threads did not drain after client exit".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut rows = Vec::new();
    let mut checks = Vec::new();

    rows.push(BenchRow {
        suite: "server".to_string(),
        name: "connections-held-epoll".to_string(),
        unit: "connections".to_string(),
        samples: 1,
        min: held as f64,
        mean: held as f64,
        p50: held as f64,
        p99: held as f64,
        paper_us: None,
    });
    checks.push(Check {
        name: format!("server:holds>={conns}-connection-threads-epoll"),
        pass: held >= conns,
        detail: format!(
            "peak {held} concurrent connection threads on {} vps",
            scale.vps
        ),
    });

    rows.push(row_from_hist("block-wake-epoll", &wake));

    // Reactor kernel round-trips per delivered wake, under load.  One
    // number per run, but with 1:1 metrics sampling it is an exact count,
    // not an estimate.
    let per_wake = io.syscalls as f64 / (io.wakes.max(1)) as f64;
    rows.push(BenchRow {
        suite: "server".to_string(),
        name: "syscalls-per-wake-epoll".to_string(),
        unit: "syscalls/wake".to_string(),
        samples: io.wakes,
        min: per_wake,
        mean: per_wake,
        p50: per_wake,
        p99: per_wake,
        paper_us: None,
    });
    // A count, so enforced on any box: each socket registers with the
    // reactor once, at its first wait, and no wake re-arms anything.  No
    // socket has closed yet, so every `epoll_ctl` so far is a registration,
    // and there may be at most one per accepted connection plus the
    // listener.
    let sockets = held as u64 + 1;
    let beyond = registrations.saturating_sub(sockets);
    checks.push(Check {
        name: "server:epoll-ctl-per-wake==0".to_string(),
        pass: beyond == 0,
        detail: format!(
            "{registrations} epoll_ctl calls for {sockets} sockets over {} wakes: {:.4} a wake beyond one a socket",
            io.wakes,
            beyond as f64 / io.wakes.max(1) as f64
        ),
    });

    // Client-observed RTT, reported on its stdout as
    // `rtt <count> <min> <mean> <p50> <p99>` (ns).
    let parts: Vec<_> = rtt_line.split_whitespace().collect();
    if parts.len() == 5 {
        rows.push(BenchRow {
            suite: "server".to_string(),
            name: "echo-rtt-epoll".to_string(),
            unit: "ns".to_string(),
            samples: parts[0].parse().unwrap_or(0),
            min: parts[1].parse().unwrap_or(0.0),
            mean: parts[2].parse().unwrap_or(0.0),
            p50: parts[3].parse().unwrap_or(0.0),
            p99: parts[4].parse().unwrap_or(0.0),
            paper_us: None,
        });
    }

    vm.shutdown();
    Ok((rows, checks))
}

/// The hidden client mode: `<binary> --echo-client PORT CONNS THREADS
/// ECHOES`.  Opens `CONNS` blocking loopback sockets across `THREADS` OS
/// threads and holds them all; once every connection is up, each thread
/// hammers **one** hot socket back-to-back for its share of `ECHOES` (so
/// the server's wake histogram measures wake-up under load, not the idle
/// time a round-robin would insert between a connection's turns).  RTT
/// stats go to stdout while everything is still held; the process then
/// waits for stdin EOF before closing — the parent snapshots its
/// histograms in that window.
pub fn echo_client_main(args: &[String]) -> Result<(), String> {
    let parse = |i: usize, what: &str| -> Result<usize, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or(format!("--echo-client: bad {what}"))
    };
    let port = parse(0, "port")? as u16;
    let conns = parse(1, "conns")?.max(1);
    let threads = parse(2, "threads")?.clamp(1, conns);
    let echoes = parse(3, "echoes")?;

    let all_up = Arc::new(std::sync::Barrier::new(threads));
    let (tx, rx) = std::sync::mpsc::channel();
    for t in 0..threads {
        let my_conns = conns / threads + usize::from(t < conns % threads);
        let my_echoes = echoes / threads + usize::from(t < echoes % threads);
        let all_up = all_up.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let work = move || -> Result<(Vec<u64>, Vec<std::net::TcpStream>), String> {
                let mut socks = Vec::with_capacity(my_conns);
                for _ in 0..my_conns {
                    let s = std::net::TcpStream::connect(("127.0.0.1", port))
                        .map_err(|e| format!("connect: {e}"))?;
                    s.set_nodelay(true).ok();
                    socks.push(s);
                }
                all_up.wait();
                let mut samples = Vec::with_capacity(my_echoes);
                let msg = [0x5au8; 64];
                let mut buf = [0u8; 64];
                let hot = &mut socks[0];
                for _ in 0..my_echoes {
                    let start = Instant::now();
                    hot.write_all(&msg).map_err(|e| format!("write: {e}"))?;
                    hot.read_exact(&mut buf).map_err(|e| format!("read: {e}"))?;
                    samples.push(start.elapsed().as_nanos() as u64);
                }
                Ok((samples, socks))
            };
            let _ = tx.send(work());
        });
    }
    drop(tx);

    let mut samples = Vec::new();
    let mut held = Vec::new(); // keeps every socket open until we exit
    for r in rx {
        let (s, socks) = r?;
        samples.extend(s);
        held.extend(socks);
    }
    samples.sort_unstable();
    let pct = |q: f64| -> u64 {
        if samples.is_empty() {
            0
        } else {
            samples[((q * (samples.len() - 1) as f64) as usize).min(samples.len() - 1)]
        }
    };
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    };
    // stdout is block-buffered when piped — flush, or the parent waits
    // on a line we never sent.
    println!(
        "rtt {} {} {:.0} {} {}",
        samples.len(),
        samples.first().copied().unwrap_or(0),
        mean,
        pct(0.50),
        pct(0.99)
    );
    std::io::stdout().flush().map_err(|e| format!("{e}"))?;

    // Hold all connections until the parent hangs up stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(held);
    Ok(())
}
