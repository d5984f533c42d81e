//! Raw Linux system calls for the I/O substrate — no `libc`.
//!
//! The build is offline and dependency-free, so the reactor
//! ([`crate::reactor`]) and socket wrappers ([`crate::net`]) sit on this
//! small module instead of a C library: each call is the bare x86-64
//! `syscall` instruction behind a typed Rust signature, in the same spirit
//! as the raw context switch in `sting-context` (`crates/context/src/raw.rs`).
//!
//! Only what the substrate needs is bound: TCP sockets (`socket`/`bind`/
//! `listen`/`accept4`/`connect`), byte transfer (`read`/`write`), the epoll
//! readiness family (`epoll_create1`/`epoll_ctl`/`epoll_wait`) the reactor
//! runs on, an `eventfd` for waking it, `ppoll` as the degraded path for
//! plain OS threads, and `socketpair` for deterministic unit tests.
//!
//! Errors are the kernel's `-errno` convention surfaced as [`Errno`];
//! nothing in here retries or blocks on behalf of the caller — policy
//! (EINTR loops, EAGAIN parking) lives a layer up.

use core::arch::asm;

/// A raw file descriptor.  Ownership/close discipline lives in
/// [`crate::net`]; this layer just moves integers.
pub type RawFd = i32;

/// A kernel error number (positive, e.g. `Errno(11)` for `EAGAIN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Errno(pub i32);

impl Errno {
    /// Symbolic name for the errnos the substrate actually branches on.
    pub fn name(self) -> &'static str {
        match self.0 {
            2 => "ENOENT",
            4 => "EINTR",
            9 => "EBADF",
            11 => "EAGAIN",
            13 => "EACCES",
            17 => "EEXIST",
            22 => "EINVAL",
            24 => "EMFILE",
            32 => "EPIPE",
            98 => "EADDRINUSE",
            104 => "ECONNRESET",
            107 => "ENOTCONN",
            110 => "ETIMEDOUT",
            111 => "ECONNREFUSED",
            115 => "EINPROGRESS",
            _ => "E?",
        }
    }
}

impl core::fmt::Display for Errno {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} (errno {})", self.name(), self.0)
    }
}

impl std::error::Error for Errno {}

/// Result alias for raw calls.
pub type Result<T> = core::result::Result<T, Errno>;

/// The signal was delivered mid-call; callers that can, retry.
pub const EINTR: i32 = 4;
/// The descriptor is not open (or not valid for the call).
pub const EBADF: i32 = 9;
/// Operation would block on a non-blocking fd — park on readiness instead.
pub const EAGAIN: i32 = 11;
/// Non-blocking `connect` is underway; readiness reports completion.
pub const EINPROGRESS: i32 = 115;
/// The socket is already connected — a retried `connect` reports success
/// this way.
pub const EISCONN: i32 = 106;
/// A previous `connect` is still in progress — keep waiting.
pub const EALREADY: i32 = 114;
/// The endpoint is shut down — also what a registration against a
/// stopped reactor driver reports, so parked I/O can never outlive its VM.
pub const ESHUTDOWN: i32 = 108;

// x86-64 Linux syscall numbers (arch/x86/entry/syscalls/syscall_64.tbl).
const SYS_READ: usize = 0;
const SYS_WRITE: usize = 1;
const SYS_CLOSE: usize = 3;
const SYS_SOCKET: usize = 41;
const SYS_CONNECT: usize = 42;
const SYS_SHUTDOWN: usize = 48;
const SYS_BIND: usize = 49;
const SYS_LISTEN: usize = 50;
const SYS_GETSOCKNAME: usize = 51;
const SYS_SOCKETPAIR: usize = 53;
const SYS_SETSOCKOPT: usize = 54;
const SYS_EPOLL_WAIT: usize = 232;
const SYS_EPOLL_CTL: usize = 233;
const SYS_PPOLL: usize = 271;
const SYS_ACCEPT4: usize = 288;
const SYS_EVENTFD2: usize = 290;
const SYS_EPOLL_CREATE1: usize = 291;

const AF_INET: usize = 2;
const AF_UNIX: usize = 1;
const SOCK_STREAM: usize = 1;
/// `O_NONBLOCK` folded into the socket type (also `EFD_NONBLOCK`).
const SOCK_NONBLOCK: usize = 0o4000;
/// `O_CLOEXEC` folded into the socket type (also `EFD_CLOEXEC`).
const SOCK_CLOEXEC: usize = 0o2000000;
const SOL_SOCKET: usize = 1;
const SO_REUSEADDR: usize = 2;
const SOL_TCP: usize = 6;
const TCP_NODELAY: usize = 1;
/// `shutdown(2)` how-argument: close the write half.
pub const SHUT_WR: usize = 1;
/// `shutdown(2)` how-argument: close both halves.
pub const SHUT_RDWR: usize = 2;

/// epoll interest/readiness bit: readable.
pub const EPOLLIN: u32 = 0x001;
/// epoll interest/readiness bit: writable.
pub const EPOLLOUT: u32 = 0x004;
/// epoll readiness bit: error condition (always reported).
pub const EPOLLERR: u32 = 0x008;
/// epoll readiness bit: hang-up (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// epoll interest/readiness bit: the peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// epoll interest bit: report each readiness *change* once (edge
/// triggered) instead of the readiness state on every wait.
pub const EPOLLET: u32 = 1 << 31;
/// `epoll_ctl` op: add an fd to the interest set.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: remove an fd from the interest set.
pub const EPOLL_CTL_DEL: i32 = 2;

/// `poll(2)`/`ppoll(2)` event bit: readable.
pub const POLLIN: i16 = 0x001;
/// `poll(2)`/`ppoll(2)` event bit: writable.
pub const POLLOUT: i16 = 0x004;
/// `poll(2)` revents bit: error condition (always reported).
pub const POLLERR: i16 = 0x008;
/// `poll(2)` revents bit: hang-up (always reported).
pub const POLLHUP: i16 = 0x010;

/// One `epoll_wait` result slot, kernel layout (packed on x86-64).
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLLIN` | `EPOLLOUT` | `EPOLLERR` | `EPOLLHUP`).
    pub events: u32,
    /// The registration's user word.
    pub data: u64,
}

impl EpollEvent {
    /// An empty slot for pre-sizing wait buffers.
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

/// IPv4 socket address, kernel layout.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    /// Big-endian.
    port: u16,
    /// Big-endian.
    addr: u32,
    zero: [u8; 8],
}

impl SockAddrIn {
    fn new(addr: u32, port: u16) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET as u16,
            port: port.to_be(),
            addr: addr.to_be(),
            zero: [0; 8],
        }
    }
}

/// `struct timespec` for `ppoll`.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct pollfd` for `ppoll`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

// The raw trap.  System V syscall convention: number in rax, arguments in
// rdi/rsi/rdx/r10/r8/r9, result (or -errno) back in rax; rcx and r11 are
// clobbered by the instruction itself.

/// # Safety
/// The caller must uphold the kernel contract for syscall `n`: every
/// pointer argument valid for the access the call performs, for its full
/// length, for the duration of the call.
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: per the function contract; the asm declares every register
    // the instruction reads or clobbers, and memory is left as a default
    // clobber so buffer writes by the kernel are visible.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

/// # Safety
/// See [`syscall6`].
unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    // SAFETY: forwarded contract; unused argument registers are ignored by
    // the kernel for calls of lower arity.
    unsafe { syscall6(n, a1, a2, a3, a4, 0, 0) }
}

/// # Safety
/// See [`syscall6`].
unsafe fn syscall3(n: usize, a1: usize, a2: usize, a3: usize) -> isize {
    // SAFETY: forwarded contract.
    unsafe { syscall6(n, a1, a2, a3, 0, 0, 0) }
}

fn ret(r: isize) -> Result<usize> {
    if (-4095..0).contains(&r) {
        Err(Errno(-r as i32))
    } else {
        Ok(r as usize)
    }
}

/// Creates a non-blocking, close-on-exec TCP socket.
pub fn socket_tcp() -> Result<RawFd> {
    // SAFETY: no pointer arguments.
    let r = unsafe {
        syscall3(
            SYS_SOCKET,
            AF_INET,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    };
    ret(r).map(|fd| fd as RawFd)
}

/// Binds `fd` to an IPv4 address (`addr` host order, e.g. `0x7f000001` for
/// loopback) and `port` (host order; 0 asks the kernel for an ephemeral
/// port — read it back with [`local_port`]).
pub fn bind_ipv4(fd: RawFd, addr: u32, port: u16) -> Result<()> {
    let sa = SockAddrIn::new(addr, port);
    // SAFETY: `sa` is a live, correctly-laid-out sockaddr_in for the
    // duration of the call; its exact size is passed.
    let r = unsafe {
        syscall3(
            SYS_BIND,
            fd as usize,
            &sa as *const SockAddrIn as usize,
            core::mem::size_of::<SockAddrIn>(),
        )
    };
    ret(r).map(|_| ())
}

/// Marks `fd` as a passive socket with the given accept backlog.
pub fn listen(fd: RawFd, backlog: i32) -> Result<()> {
    // SAFETY: no pointer arguments.
    let r = unsafe { syscall3(SYS_LISTEN, fd as usize, backlog as usize, 0) };
    ret(r).map(|_| ())
}

/// Accepts one connection; the returned fd is non-blocking and
/// close-on-exec.  `EAGAIN` means no connection is pending.
pub fn accept4(fd: RawFd) -> Result<RawFd> {
    // SAFETY: null addr/addrlen is the documented "don't care" form.
    let r = unsafe { syscall4(SYS_ACCEPT4, fd as usize, 0, 0, SOCK_NONBLOCK | SOCK_CLOEXEC) };
    ret(r).map(|fd| fd as RawFd)
}

/// Starts a connect to an IPv4 address/port (host order).  On a
/// non-blocking socket this typically fails with `EINPROGRESS`; wait for
/// writability, then the socket is connected (or carries an error).
pub fn connect_ipv4(fd: RawFd, addr: u32, port: u16) -> Result<()> {
    let sa = SockAddrIn::new(addr, port);
    // SAFETY: `sa` is a live sockaddr_in for the duration of the call.
    let r = unsafe {
        syscall3(
            SYS_CONNECT,
            fd as usize,
            &sa as *const SockAddrIn as usize,
            core::mem::size_of::<SockAddrIn>(),
        )
    };
    ret(r).map(|_| ())
}

/// Returns the locally-bound port of an IPv4 socket (host order).
pub fn local_port(fd: RawFd) -> Result<u16> {
    let mut sa = SockAddrIn::new(0, 0);
    let mut len: u32 = core::mem::size_of::<SockAddrIn>() as u32;
    // SAFETY: `sa` and `len` are live and writable for the call; the kernel
    // writes at most `len` bytes of address.
    let r = unsafe {
        syscall3(
            SYS_GETSOCKNAME,
            fd as usize,
            &mut sa as *mut SockAddrIn as usize,
            &mut len as *mut u32 as usize,
        )
    };
    ret(r).map(|_| u16::from_be(sa.port))
}

/// Sets `SO_REUSEADDR` so rebinding a just-closed listener port works.
pub fn set_reuseaddr(fd: RawFd) -> Result<()> {
    let one: i32 = 1;
    // SAFETY: `one` is live for the call; its exact size is passed.
    let r = unsafe {
        syscall6(
            SYS_SETSOCKOPT,
            fd as usize,
            SOL_SOCKET,
            SO_REUSEADDR,
            &one as *const i32 as usize,
            core::mem::size_of::<i32>(),
            0,
        )
    };
    ret(r).map(|_| ())
}

/// Sets `TCP_NODELAY`, disabling Nagle batching — echo-style workloads
/// measure per-message latency and must not wait out the coalesce timer.
pub fn set_nodelay(fd: RawFd) -> Result<()> {
    let one: i32 = 1;
    // SAFETY: `one` is live for the call; its exact size is passed.
    let r = unsafe {
        syscall6(
            SYS_SETSOCKOPT,
            fd as usize,
            SOL_TCP,
            TCP_NODELAY,
            &one as *const i32 as usize,
            core::mem::size_of::<i32>(),
            0,
        )
    };
    ret(r).map(|_| ())
}

/// Reads into `buf`; `Ok(0)` is end-of-stream, `EAGAIN` means park.
pub fn read(fd: RawFd, buf: &mut [u8]) -> Result<usize> {
    // SAFETY: `buf` is a live writable slice; its exact length bounds the
    // kernel's write.
    let r = unsafe { syscall3(SYS_READ, fd as usize, buf.as_mut_ptr() as usize, buf.len()) };
    ret(r)
}

/// Writes from `buf`; may be short, `EAGAIN` means park for writability.
pub fn write(fd: RawFd, buf: &[u8]) -> Result<usize> {
    // SAFETY: `buf` is a live readable slice; its exact length bounds the
    // kernel's read.
    let r = unsafe { syscall3(SYS_WRITE, fd as usize, buf.as_ptr() as usize, buf.len()) };
    ret(r)
}

/// Closes `fd`.  Closing also drops the fd from any epoll interest sets.
pub fn close(fd: RawFd) -> Result<()> {
    // SAFETY: no pointer arguments.
    let r = unsafe { syscall3(SYS_CLOSE, fd as usize, 0, 0) };
    ret(r).map(|_| ())
}

/// Half-closes a socket (`how` = e.g. [`SHUT_WR`] to send EOF).
pub fn shutdown(fd: RawFd, how: usize) -> Result<()> {
    // SAFETY: no pointer arguments.
    let r = unsafe { syscall3(SYS_SHUTDOWN, fd as usize, how, 0) };
    ret(r).map(|_| ())
}

/// Creates an epoll instance (close-on-exec).
pub fn epoll_create1() -> Result<RawFd> {
    // SAFETY: no pointer arguments.
    let r = unsafe { syscall3(SYS_EPOLL_CREATE1, SOCK_CLOEXEC, 0, 0) };
    ret(r).map(|fd| fd as RawFd)
}

/// Adds/modifies/deletes `fd` in `epfd`'s interest set.  `events` is an
/// `EPOLL*` bit set, `data` the user word echoed back in [`EpollEvent`].
pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> Result<()> {
    let ev = EpollEvent { events, data };
    // SAFETY: `ev` is live for the call (ignored for DEL, where Linux ≥
    // 2.6.9 permits a valid-or-null pointer; passing valid is always fine).
    let r = unsafe {
        syscall4(
            SYS_EPOLL_CTL,
            epfd as usize,
            op as usize,
            fd as usize,
            &ev as *const EpollEvent as usize,
        )
    };
    ret(r).map(|_| ())
}

/// Waits for readiness on `epfd`, filling `events`.  `timeout_ms` < 0
/// blocks indefinitely.  Returns the number of slots filled; `EINTR` is
/// swallowed here (reported as zero events) because every caller treats
/// it as a spurious wake-up anyway.
pub fn epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> Result<usize> {
    // SAFETY: `events` is a live writable slice; its length bounds the
    // kernel's write of result slots.
    let r = unsafe {
        syscall4(
            SYS_EPOLL_WAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
        )
    };
    match ret(r) {
        Err(Errno(EINTR)) => Ok(0),
        other => other,
    }
}

/// Creates a non-blocking eventfd, used to kick the reactor out of
/// [`epoll_wait`] (write a count to it; reading drains it).
pub fn eventfd() -> Result<RawFd> {
    // SAFETY: no pointer arguments.
    let r = unsafe { syscall3(SYS_EVENTFD2, 0, SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    ret(r).map(|fd| fd as RawFd)
}

/// Creates a connected pair of non-blocking Unix stream sockets — the
/// deterministic fixture for reactor unit tests (readiness is fully under
/// the test's control, no ports or timing involved).
pub fn socketpair_stream() -> Result<(RawFd, RawFd)> {
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a live writable 2-slot array, exactly what the call
    // writes.
    let r = unsafe {
        syscall4(
            SYS_SOCKETPAIR,
            AF_UNIX,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            fds.as_mut_ptr() as usize,
        )
    };
    ret(r).map(|_| (fds[0], fds[1]))
}

/// Blocks the calling **OS** thread until `fd` is ready for `events`
/// (`POLLIN`/`POLLOUT`) or `timeout_ms` elapses (< 0 = forever).  Returns
/// the revents bits (0 on timeout).  This is the degraded path for calls
/// arriving off any STING thread, where there is no VP to keep busy.
pub fn poll_one(fd: RawFd, events: i16, timeout_ms: i32) -> Result<i16> {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        sec: (timeout_ms.max(0) / 1000) as i64,
        nsec: (timeout_ms.max(0) % 1000) as i64 * 1_000_000,
    };
    let ts_ptr = if timeout_ms < 0 {
        0
    } else {
        &ts as *const Timespec as usize
    };
    // SAFETY: `pfd` is live and writable, `ts` (when passed) live and
    // readable, sigmask null = keep the current mask.
    let r = unsafe { syscall4(SYS_PPOLL, &mut pfd as *mut PollFd as usize, 1, ts_ptr, 0) };
    match ret(r) {
        Ok(_) => Ok(pfd.revents),
        Err(Errno(EINTR)) => Ok(0),
        Err(e) => Err(e),
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "sting-core's sys module binds raw x86-64 Linux syscalls only; port the \
     syscall numbers and trap sequence in sys.rs to this platform"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socketpair_round_trip() {
        let (a, b) = socketpair_stream().unwrap();
        assert_eq!(write(a, b"ping").unwrap(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(read(b, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        // Nothing more to read: non-blocking read reports EAGAIN.
        assert_eq!(read(b, &mut buf), Err(Errno(EAGAIN)));
        close(a).unwrap();
        // Peer close reads as EOF.
        assert_eq!(read(b, &mut buf).unwrap(), 0);
        close(b).unwrap();
    }

    #[test]
    fn epoll_sees_readiness() {
        let (a, b) = socketpair_stream().unwrap();
        let ep = epoll_create1().unwrap();
        epoll_ctl(ep, EPOLL_CTL_ADD, b, EPOLLIN | EPOLLET, 7).unwrap();
        // Not yet readable.
        let mut evs = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll_wait(ep, &mut evs, 0).unwrap(), 0);
        write(a, b"x").unwrap();
        assert_eq!(epoll_wait(ep, &mut evs, 1000).unwrap(), 1);
        let (events, data) = (evs[0].events, evs[0].data);
        assert_ne!(events & EPOLLIN, 0);
        assert_eq!(data, 7);
        // Edge triggered: the unread byte is not reported again...
        assert_eq!(epoll_wait(ep, &mut evs, 0).unwrap(), 0);
        // ...but the next arrival is, with no re-registration.
        write(a, b"y").unwrap();
        assert_eq!(epoll_wait(ep, &mut evs, 1000).unwrap(), 1);
        let data = evs[0].data;
        assert_eq!(data, 7);
        for fd in [a, b, ep] {
            close(fd).unwrap();
        }
    }

    #[test]
    fn eventfd_wakes_epoll() {
        let ef = eventfd().unwrap();
        let ep = epoll_create1().unwrap();
        epoll_ctl(ep, EPOLL_CTL_ADD, ef, EPOLLIN, 1).unwrap();
        write(ef, &1u64.to_ne_bytes()).unwrap();
        let mut evs = [EpollEvent::zeroed(); 1];
        assert_eq!(epoll_wait(ep, &mut evs, 1000).unwrap(), 1);
        // Drain so the level-triggered registration goes quiet.
        let mut count = [0u8; 8];
        read(ef, &mut count).unwrap();
        assert_eq!(epoll_wait(ep, &mut evs, 0).unwrap(), 0);
        close(ef).unwrap();
        close(ep).unwrap();
    }

    #[test]
    fn tcp_listen_accept_connect() {
        let l = socket_tcp().unwrap();
        set_reuseaddr(l).unwrap();
        bind_ipv4(l, 0x7f00_0001, 0).unwrap();
        listen(l, 16).unwrap();
        let port = local_port(l).unwrap();
        assert_ne!(port, 0);

        let c = socket_tcp().unwrap();
        match connect_ipv4(c, 0x7f00_0001, port) {
            Ok(()) => {}
            Err(Errno(EINPROGRESS)) => {
                assert_ne!(poll_one(c, POLLOUT, 2000).unwrap() & POLLOUT, 0);
            }
            Err(e) => panic!("connect failed: {e}"),
        }
        // Loopback connect completes promptly; poll for the accept side.
        assert_ne!(poll_one(l, POLLIN, 2000).unwrap() & POLLIN, 0);
        let s = accept4(l).unwrap();
        write(c, b"hello").unwrap();
        poll_one(s, POLLIN, 2000).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(read(s, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        for fd in [s, c, l] {
            close(fd).unwrap();
        }
    }

    #[test]
    fn errno_names() {
        assert_eq!(Errno(EAGAIN).name(), "EAGAIN");
        assert_eq!(format!("{}", Errno(111)), "ECONNREFUSED (errno 111)");
    }
}
