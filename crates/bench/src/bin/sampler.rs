//! A SIGPROF sampling profiler for the thread and I/O paths: runs one shape
//! for a while under `setitimer(ITIMER_PROF)`, walks the frame-pointer
//! chain of every sample, and prints where the time goes — self and
//! inclusive shares by function, symbolized with `addr2line`, and shares by
//! layer — beside the shape's cost per operation (EXPERIMENTS.md E8,
//! "Per-thread budget", and E12).
//!
//! ```text
//! RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/fp \
//!     cargo build --release -p sting-bench --bin sampler
//! ./target/fp/release/sampler [SHAPE] [--seconds S] [--hz HZ] [--top N]
//! ```
//!
//! Without the frame-pointer `RUSTFLAGS` the walk stops a frame or two up
//! and only the self shares mean anything; a target directory of its own
//! keeps the flag out of the normal build.  Frames of code built without
//! frame pointers (the C library, the allocator) end the walk early; a
//! sample is read through a pipe, so a bad pointer costs the sample its
//! tail, never the process.
//!
//! Shapes (default `eager-1vp`):
//!
//! * `eager-1vp` — E8's tree: eager, depth 10, per-VP LIFO, one VP.
//! * `lazy-1vp` — the same tree of delayed threads.
//! * `eager-2vp` — one eager tree at a time on two migrating VPs, as the
//!   `fork_tree` benchmark runs it.
//! * `echo` — the `echo_server` benchmark's loop in one process: a 2-VP VM
//!   with a STING thread per connection, each read carrying a 5 s
//!   deadline, beside idle connections held open, and two client OS
//!   threads each keeping a 64-byte echo in flight on 16 connections.  The
//!   samples cover the whole process, so the loopback clients' own kernel
//!   time is in the budget too.
//!
//! Linux on x86-64 only (the interrupted registers are read from the
//! signal's `ucontext`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting::core::net::{TcpListener, LOCALHOST};
use sting::prelude::*;
use sting_bench::shapes;

/// Counts allocations per OS thread, for the allocations-per-thread line.
#[global_allocator]
static ALLOCATOR: sting_bench::CountingAllocator = sting_bench::CountingAllocator;

/// The tree depth of every shape: the `fork_tree` benchmark's.
const DEPTH: u32 = 10;
/// Frames kept per sample, the interrupted one included.
const FRAMES: usize = 48;
/// Samples kept; later ones are counted as dropped.
const SAMPLES: usize = 1 << 15;

/// Sample `i` occupies `RING[i * FRAMES ..][.. FRAMES]`: its depth, then
/// its program counters, innermost first.
static RING: [AtomicUsize; SAMPLES * FRAMES] = [const { AtomicUsize::new(0) }; SAMPLES * FRAMES];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);
/// Held while a handler reads through the pipe, which has one reader.
static BUSY: AtomicBool = AtomicBool::new(false);
static PIPE: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::ffi::c_void;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const SIG_IGN: usize = 1;
    const O_NONBLOCK: i32 = 0o4000;
    /// `uc_mcontext.gregs` in glibc's x86-64 `ucontext_t`, and the
    /// registers' indices in it.
    const GREGS_OFFSET: usize = 40;
    const REG_RBP: usize = 10;
    const REG_RIP: usize = 16;

    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut c_void, n: usize) -> isize;
        fn write(fd: i32, buf: *const c_void, n: usize) -> isize;
        fn __errno_location() -> *mut i32;
    }

    pub type Handler = extern "C" fn(i32, *mut c_void, *mut c_void);

    /// Installs `handler` for SIGPROF (`None`: ignore it from now on).
    pub fn handle_sigprof(handler: Option<Handler>) -> bool {
        let act = SigAction {
            handler: handler.map_or(SIG_IGN, |h| h as usize),
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` is a valid glibc `struct sigaction`.
        unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) == 0 }
    }

    /// Fires SIGPROF every `period_us` of CPU time the process spends (0
    /// stops it).
    pub fn profile_timer(period_us: i64) -> bool {
        let tv = || TimeVal {
            sec: period_us / 1_000_000,
            usec: period_us % 1_000_000,
        };
        let t = ITimerVal {
            interval: tv(),
            value: tv(),
        };
        // SAFETY: `t` is a valid `struct itimerval`.
        unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) == 0 }
    }

    /// A non-blocking pipe's `(read, write)` ends: a handler never waits
    /// on it.
    pub fn make_pipe() -> Option<(i32, i32)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` has room for the two descriptors.
        (unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK) } == 0).then_some((fds[0], fds[1]))
    }

    /// The interrupted `(rip, rbp)` from a SA_SIGINFO handler's context.
    ///
    /// # Safety
    ///
    /// `ctx` must be the third argument the kernel passed the handler.
    pub unsafe fn registers(ctx: *mut c_void) -> (usize, usize) {
        // SAFETY: per the contract, `ctx` points at a `ucontext_t`, whose
        // general registers are `u64`s at `GREGS_OFFSET`.
        unsafe {
            let gregs = ctx.cast::<u8>().add(GREGS_OFFSET).cast::<usize>();
            (*gregs.add(REG_RIP), *gregs.add(REG_RBP))
        }
    }

    /// Reads the two words at `addr` by bouncing them through the pipe, so
    /// an unmapped `addr` fails with `EFAULT` instead of faulting.  Keeps
    /// `errno` as the interrupted code left it.
    pub fn read_words(pipe: (i32, i32), addr: usize) -> Option<[usize; 2]> {
        let mut out = [0usize; 2];
        // SAFETY: `write` only reads `addr` (and reports a bad one); `read`
        // fills `out`, which has room for 16 bytes; errno is this thread's.
        unsafe {
            let errno = *__errno_location();
            let ok = write(pipe.1, addr as *const c_void, 16) == 16
                && read(pipe.0, out.as_mut_ptr().cast(), 16) == 16;
            *__errno_location() = errno;
            ok.then_some(out)
        }
    }
}

/// The SIGPROF handler: the interrupted PC, then the return addresses up
/// the frame-pointer chain, into the next free ring slot.  Async-signal
/// safe: atomics, `read` and `write` only.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
extern "C" fn on_sigprof(_sig: i32, _info: *mut std::ffi::c_void, ctx: *mut std::ffi::c_void) {
    if BUSY.swap(true, Ordering::Acquire) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
    if slot >= SAMPLES {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        BUSY.store(false, Ordering::Release);
        return;
    }
    let pipe = (
        PIPE[0].load(Ordering::Relaxed) as i32,
        PIPE[1].load(Ordering::Relaxed) as i32,
    );
    let base = slot * FRAMES;
    // SAFETY: the kernel passed `ctx` to this SA_SIGINFO handler.
    let (pc, mut fp) = unsafe { sys::registers(ctx) };
    RING[base + 1].store(pc, Ordering::Relaxed);
    let mut depth = 1;
    while depth + 1 < FRAMES && fp != 0 && fp % 8 == 0 {
        let Some([next, ret]) = sys::read_words(pipe, fp) else {
            break;
        };
        if ret == 0 {
            break;
        }
        // A return address points past its call; step back into it.
        RING[base + 1 + depth].store(ret - 1, Ordering::Relaxed);
        depth += 1;
        // Callers' frames lie above; a chain that does not climb, or leaps,
        // has left the frame pointers behind.
        if next <= fp || next - fp > 1 << 20 {
            break;
        }
        fp = next;
    }
    RING[base].store(depth, Ordering::Relaxed);
    BUSY.store(false, Ordering::Release);
}

struct Args {
    shape: String,
    seconds: f64,
    hz: i64,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        shape: "eager-1vp".to_string(),
        seconds: 10.0,
        hz: 997,
        top: 25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("{e}"))?
            }
            "--hz" => args.hz = value("--hz")?.parse().map_err(|e| format!("{e}"))?,
            "--top" => args.top = value("--top")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => return Err(
                "usage: sampler [eager-1vp|lazy-1vp|eager-2vp|echo] [--seconds S] [--hz HZ] [--top N]"
                    .to_string(),
            ),
            shape if !shape.starts_with('-') => args.shape = shape.to_string(),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Hot connections per echo client thread, each with one echo in flight.
const ECHO_DEPTH: usize = 16;
/// Echo client threads.
const ECHO_CLIENTS: usize = 2;
/// Idle connections held open beside the hot ones.
const ECHO_IDLE: usize = 256;
/// Bytes an echo carries.
const ECHO_BYTES: usize = 64;

/// What a shape runs, and on which machine.
enum Shape {
    /// Fork trees, eager or lazy.
    Tree { vm: Arc<Vm>, lazy: bool },
    /// Echoes: per client thread, its hot connections; and the idle ones.
    Echo {
        vm: Arc<Vm>,
        hot: Vec<Vec<std::net::TcpStream>>,
        idle: Vec<std::net::TcpStream>,
    },
}

fn shape(name: &str) -> Option<Shape> {
    let tree = |vm, lazy| Some(Shape::Tree { vm, lazy });
    match name {
        "eager-1vp" => tree(shapes::fork_vm(1, false), false),
        "lazy-1vp" => tree(shapes::fork_vm(1, false), true),
        "eager-2vp" => tree(shapes::fork_vm(2, true), false),
        "echo" => Some(echo_shape()),
        _ => None,
    }
}

/// Serves each connection on a STING thread of a 2-VP VM and connects
/// the clients' sockets to it.
fn echo_shape() -> Shape {
    let vm = VmBuilder::new()
        .vps(2)
        .stack_size(64 * 1024)
        .name("echo-sampler")
        .build();
    let listener = TcpListener::bind(LOCALHOST, 0).expect("bind a loopback port");
    let port = listener.local_port().expect("the bound port");
    let server = vm.clone();
    vm.fork(move |_cx| {
        while let Ok(stream) = listener.accept() {
            server.fork(move |_cx| {
                let mut buf = [0u8; 4096];
                loop {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    match stream.read_deadline(&mut buf, deadline) {
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
            });
        }
    });
    let connect = || {
        let s = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.set_nodelay(true).expect("TCP_NODELAY");
        s
    };
    let idle = (0..ECHO_IDLE).map(|_| connect()).collect();
    let hot = (0..ECHO_CLIENTS)
        .map(|_| (0..ECHO_DEPTH).map(|_| connect()).collect())
        .collect();
    Shape::Echo { vm, hot, idle }
}

/// One client batch: a request on each connection, then the replies in
/// the same order.  Returns the echoes done.
fn echo_batch(conns: &mut [std::net::TcpStream]) -> u64 {
    let request = [0x5au8; ECHO_BYTES];
    let mut reply = [0u8; ECHO_BYTES];
    for c in conns.iter_mut() {
        c.write_all(&request).expect("echo request");
    }
    for c in conns.iter_mut() {
        c.read_exact(&mut reply).expect("echo reply");
        assert_eq!(reply, request, "the echo came back changed");
    }
    conns.len() as u64
}

impl Shape {
    fn vm(&self) -> &Arc<Vm> {
        match self {
            Shape::Tree { vm, .. } | Shape::Echo { vm, .. } => vm,
        }
    }

    /// Runs the shape for `time`; returns the operations done (trees or
    /// echoes).
    fn run(&mut self, time: Duration) -> u64 {
        let start = Instant::now();
        match self {
            Shape::Tree { vm, lazy } => {
                let mut trees = 0;
                while start.elapsed() < time {
                    shapes::fork_trees(vm, 1, DEPTH, *lazy);
                    trees += 1;
                }
                trees
            }
            Shape::Echo { hot, .. } => std::thread::scope(|scope| {
                let clients: Vec<_> = hot
                    .iter_mut()
                    .map(|conns| {
                        scope.spawn(move || {
                            let mut echoes = 0;
                            while start.elapsed() < time {
                                echoes += echo_batch(conns);
                            }
                            echoes
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().expect("client")).sum()
            }),
        }
    }

    /// Closes the clients' sockets, so every connection thread sees its
    /// EOF, and stops the machine.
    fn finish(self) {
        let vm = match self {
            Shape::Tree { vm, .. } => vm,
            Shape::Echo { vm, hot, idle } => {
                drop((hot, idle));
                std::thread::sleep(Duration::from_millis(100));
                vm
            }
        };
        vm.shutdown();
    }
}

/// The layer a sample's time belongs to, from its frames, innermost
/// first: the first frame naming a layer decides (the syscall trap and its
/// return check name none: the `sys` call above them does), and a `sys`
/// read or write counts as the reactor's when the reactor issued it (its
/// kick).  The C library and the standard library carry no frame
/// pointers, so a sample in them names no caller: those are the clients'
/// socket calls and every futex.
fn layer_of(frames: &[&str]) -> &'static str {
    for (i, f) in frames.iter().enumerate() {
        if f.contains("sting_core::sys::syscall") || f.contains("sting_core::sys::ret") {
            continue;
        }
        if f.contains("sting_core::sys::read") || f.contains("sting_core::sys::write") {
            let caller = frames.get(i + 1).copied().unwrap_or("");
            return if caller.contains("sting_core::reactor") {
                "reactor"
            } else {
                "kernel tcp (server)"
            };
        }
        let layer = [
            ("sting_core::sys::epoll", "reactor"),
            ("sting_core::sys::accept", "kernel tcp (server)"),
            ("std::net", "kernel tcp (client)"),
            ("sting_core::timers", "timers"),
            ("sting_core::wait", "wait"),
            ("sting_core::reactor", "reactor"),
            ("sting_core::net", "net"),
            ("sampler::echo", "client"),
            ("sting_core::", "scheduler"),
            ("sting_context", "scheduler"),
        ]
        .iter()
        .find(|(needle, _)| f.contains(needle));
        if let Some((_, layer)) = layer {
            return layer;
        }
    }
    match frames.first() {
        Some(f) if f.contains("libc") => "libc (client sockets, futexes)",
        _ => "other",
    }
}

/// A mapping of this process: its address range, the file offset it
/// starts at, and the file.
struct Mapping {
    start: usize,
    end: usize,
    offset: usize,
    path: String,
}

fn mappings() -> Vec<Mapping> {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    maps.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (range, _perms, offset) = (f.next()?, f.next()?, f.next()?);
            let path = f.nth(2).unwrap_or("").to_string();
            let (start, end) = range.split_once('-')?;
            Some(Mapping {
                start: usize::from_str_radix(start, 16).ok()?,
                end: usize::from_str_radix(end, 16).ok()?,
                offset: usize::from_str_radix(offset, 16).ok()?,
                path,
            })
        })
        .collect()
}

/// Function names for `pcs`, innermost inlined frame first, through one
/// `addr2line` over this executable; PCs elsewhere are named after the
/// file they are mapped from.
fn symbolize(pcs: &[usize]) -> HashMap<usize, Vec<String>> {
    let maps = mappings();
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.canonicalize().ok());
    let is_exe = |m: &Mapping| exe.as_deref() == Some(std::path::Path::new(&m.path));
    // A position-independent executable's addresses are relative to where
    // its first byte is mapped.
    let base = maps
        .iter()
        .filter(|m| is_exe(m) && m.offset == 0)
        .map(|m| m.start)
        .min()
        .unwrap_or(0);
    let mut names: HashMap<usize, Vec<String>> = HashMap::new();
    let mut ours: Vec<(usize, usize)> = Vec::new(); // (pc, file address)
    for &pc in pcs {
        match maps.iter().find(|m| (m.start..m.end).contains(&pc)) {
            Some(m) if is_exe(m) => ours.push((pc, pc - base)),
            Some(m) => {
                let file = m.path.rsplit('/').next().unwrap_or("?");
                names.insert(pc, vec![format!("[{file}]")]);
            }
            None => {
                names.insert(pc, vec!["[unmapped]".to_string()]);
            }
        }
    }
    let Some(exe) = exe else { return names };
    let child = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e"])
        .arg(&exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn();
    let Ok(mut child) = child else {
        eprintln!("sampler: addr2line not found; printing addresses");
        for (pc, addr) in ours {
            names.insert(pc, vec![format!("{addr:#x}")]);
        }
        return names;
    };
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input: String = ours.iter().map(|(_, a)| format!("{a:#x}\n")).collect();
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let by_addr: HashMap<usize, usize> = ours.iter().map(|&(pc, a)| (a, pc)).collect();
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    // After each address line come (function, file:line) pairs, innermost
    // inlined frame first.
    let (mut current, mut line_no) = (None, 0);
    for line in stdout.lines().map_while(Result::ok) {
        if let Some(hex) = line.strip_prefix("0x") {
            current = usize::from_str_radix(hex, 16)
                .ok()
                .and_then(|a| by_addr.get(&a).copied());
            line_no = 0;
            continue;
        }
        if let (Some(pc), true) = (current, line_no % 2 == 0) {
            names.entry(pc).or_default().push(trim_hash(&line));
        }
        line_no += 1;
    }
    let _ = writer.join();
    let _ = child.wait();
    names
}

/// `path::to::fn::h0123456789abcdef` → `path::to::fn`.
fn trim_hash(name: &str) -> String {
    match name.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head.to_string()
        }
        _ => name.to_string(),
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(mut shape) = shape(&args.shape) else {
        eprintln!("unknown shape `{}` (try --help)", args.shape);
        return ExitCode::from(2);
    };
    let Some((r, w)) = sys::make_pipe() else {
        eprintln!("sampler: pipe failed");
        return ExitCode::from(2);
    };
    PIPE[0].store(r as usize, Ordering::Relaxed);
    PIPE[1].store(w as usize, Ordering::Relaxed);

    shape.run(Duration::from_millis(200)); // warm-up: stacks pooled, reactor up
    let before = shape.vm().counters().snapshot();
    if !sys::handle_sigprof(Some(on_sigprof)) || !sys::profile_timer(1_000_000 / args.hz.max(1)) {
        eprintln!("sampler: cannot arm SIGPROF");
        return ExitCode::from(2);
    }
    let start = Instant::now();
    let ops = shape.run(Duration::from_secs_f64(args.seconds));
    let wall = start.elapsed();
    sys::profile_timer(0);
    sys::handle_sigprof(None);
    let threads = shape
        .vm()
        .counters()
        .snapshot()
        .since(&before)
        .threads_created;
    let allocs =
        (args.shape == "eager-1vp").then(|| shapes::tree_allocs_per_thread(shape.vm(), DEPTH));
    let echo = matches!(shape, Shape::Echo { .. });
    shape.finish();

    let taken = TAKEN.load(Ordering::Relaxed).min(SAMPLES);
    let stacks: Vec<Vec<usize>> = (0..taken)
        .map(|s| {
            let base = s * FRAMES;
            let depth = RING[base].load(Ordering::Relaxed).min(FRAMES - 1);
            (1..=depth)
                .map(|f| RING[base + f].load(Ordering::Relaxed))
                .collect()
        })
        .filter(|s: &Vec<usize>| !s.is_empty())
        .collect();
    let mut pcs: Vec<usize> = stacks.iter().flatten().copied().collect();
    pcs.sort_unstable();
    pcs.dedup();
    let names = symbolize(&pcs);
    let unknown = vec!["[unknown]".to_string()];
    let mut self_count: HashMap<&str, usize> = HashMap::new();
    let mut incl_count: HashMap<&str, usize> = HashMap::new();
    let mut layer_count: HashMap<&str, usize> = HashMap::new();
    for stack in &stacks {
        let frames: Vec<&str> = stack
            .iter()
            .flat_map(|pc| names.get(pc).unwrap_or(&unknown).iter().map(String::as_str))
            .collect();
        *layer_count.entry(layer_of(&frames)).or_default() += 1;
        let leaf = names.get(&stack[0]).unwrap_or(&unknown);
        *self_count.entry(leaf[0].as_str()).or_default() += 1;
        let mut seen: Vec<&str> = stack
            .iter()
            .flat_map(|pc| names.get(pc).unwrap_or(&unknown).iter().map(String::as_str))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        for name in seen {
            *incl_count.entry(name).or_default() += 1;
        }
    }

    if echo {
        println!(
            "shape echo: {ops} echoes in {:.1} s — {:.0} ns per echo (wall, sampled)",
            wall.as_secs_f64(),
            wall.as_nanos() as f64 / ops.max(1) as f64
        );
    } else {
        let per_thread_ns = wall.as_nanos() as f64 / threads.max(1) as f64;
        println!(
            "shape {}: {ops} trees, {threads} threads in {:.1} s — {per_thread_ns:.0} ns per thread (wall, sampled)",
            args.shape,
            wall.as_secs_f64()
        );
    }
    if let Some(a) = allocs {
        println!("allocations per forked thread (one tree, counted on its worker): {a:.2}");
    }
    println!(
        "{} samples at {} Hz of CPU time ({} dropped)",
        stacks.len(),
        args.hz,
        DROPPED.load(Ordering::Relaxed)
    );
    let total = stacks.len().max(1) as f64;
    let share = |counts: &HashMap<&str, usize>, name: &str| {
        100.0 * counts.get(name).copied().unwrap_or(0) as f64 / total
    };
    for (title, order) in [("by self", &self_count), ("by inclusive", &incl_count)] {
        let mut rows: Vec<(&str, usize)> = order.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!("\n| {title} | self % | incl % | function |");
        println!("|---:|---:|---:|---|");
        for (rank, (name, _)) in rows.iter().take(args.top).enumerate() {
            println!(
                "| {} | {:.1} | {:.1} | `{name}` |",
                rank + 1,
                share(&self_count, name),
                share(&incl_count, name)
            );
        }
    }
    let mut layers: Vec<(&str, usize)> = layer_count.into_iter().collect();
    layers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\n| layer | share % |");
    println!("|---|---:|");
    for (layer, n) in layers {
        println!("| {layer} | {:.1} |", 100.0 * n as f64 / total);
    }
    ExitCode::SUCCESS
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() -> ExitCode {
    eprintln!("sampler: Linux on x86-64 only");
    ExitCode::from(2)
}
