//! Non-blocking TCP for STING threads: sockets that block only the caller.
//!
//! [`TcpListener`] and [`TcpStream`] wrap the raw non-blocking sockets
//! from [`crate::sys`] with the substrate's blocking protocol: every
//! `accept`/`connect`/`read`/`write` attempts the syscall, and on `EAGAIN`
//! parks the calling STING thread on the socket's readiness
//! ([`crate::reactor::IoSource`], registered with the VM's reactor at the
//! first `EAGAIN` and never again) — the virtual processor carries on
//! running other threads, and the kernel's readiness edge wakes exactly
//! this thread through its generation-numbered wait episode.
//! Each operation has the trailing-`deadline` variant the rest of the
//! substrate's blocking ops have, and terminating a thread parked in one
//! unwinds it cleanly (the pending readiness then dies against the
//! finished episode).
//!
//! Called from a plain OS thread (no VP to protect), the same operations
//! degrade to a per-call `ppoll` — correct, just without the
//! thread-multiplexing benefit.
//!
//! The address type is deliberately minimal (IPv4 quad + port): the
//! substrate is a concurrency testbed, not a sockets library, and
//! loopback benchmarking needs nothing more.  Share a stream across
//! threads with an `Arc`; one reader and one writer may operate
//! concurrently, but two concurrent readers (or writers) displace each
//! other's readiness registration and make no progress guarantee.

use crate::reactor::IoSource;
use crate::sys;
use crate::tls;
use std::fmt;
use std::time::Instant;
use sting_value::{static_sym, Value};

/// Why a socket operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The operation's deadline passed before it could complete.
    TimedOut,
    /// The kernel refused with this errno.
    Os(sys::Errno),
}

impl NetError {
    /// Whether this is the deadline outcome.
    pub fn is_timeout(&self) -> bool {
        matches!(self, NetError::TimedOut)
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::TimedOut => write!(f, "operation timed out"),
            NetError::Os(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<sys::Errno> for NetError {
    fn from(e: sys::Errno) -> NetError {
        NetError::Os(e)
    }
}

/// Parks until `source` is (probably) ready for the given direction, or
/// the deadline passes.  On a STING thread this goes through the reactor
/// (the VM's, at the first wait) and blocks only the thread; on a plain OS
/// thread it degrades to `ppoll`.  Spurious returns are fine — the caller
/// always retries the non-blocking syscall, which is what decides.
fn await_ready(
    source: &IoSource,
    write: bool,
    blocker: &Value,
    deadline: Option<Instant>,
) -> Result<(), NetError> {
    if tls::on_thread() {
        let reason = match source.driver() {
            Some(driver) => source.wait_ready(driver, write, blocker, deadline)?,
            None => {
                let driver = tls::with(|cur| cur.map(|c| c.vm.io_driver().clone()))
                    .expect("on a STING thread");
                source.wait_ready(&driver, write, blocker, deadline)?
            }
        };
        match reason {
            crate::wait::WakeReason::TimedOut => Err(NetError::TimedOut),
            // Woken: readiness (or a spurious/displaced wake) — retry.
            // Cancelled without an unwind is a defensive corner; treat it
            // as spurious and let the retry (or the pending terminate
            // request at the next park) settle it.
            _ => Ok(()),
        }
    } else {
        let timeout_ms = match deadline {
            None => -1,
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(i32::MAX as u128) as i32,
        };
        let want = if write { sys::POLLOUT } else { sys::POLLIN };
        sys::poll_one(source.fd(), want, timeout_ms)?;
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(NetError::TimedOut);
        }
        Ok(())
    }
}

/// A passive TCP socket whose [`accept`](TcpListener::accept) blocks only
/// the calling STING thread.
pub struct TcpListener {
    source: IoSource,
}

impl TcpListener {
    /// Binds to `addr:port` (`port` 0 = kernel-chosen, see
    /// [`TcpListener::local_port`]) and starts listening.
    ///
    /// # Errors
    ///
    /// The raw errno for an unbindable address (in use, privileged port).
    pub fn bind(addr: [u8; 4], port: u16) -> Result<TcpListener, NetError> {
        let source = IoSource::new(sys::socket_tcp()?); // closes on early error-return
        let fd = source.fd();
        sys::set_reuseaddr(fd)?;
        sys::bind_ipv4(fd, u32::from_be_bytes(addr), port)?;
        sys::listen(fd, 1024)?;
        Ok(TcpListener { source })
    }

    /// The locally-bound port (what the kernel picked for port 0).
    ///
    /// # Errors
    ///
    /// The raw errno (only for a defunct socket).
    pub fn local_port(&self) -> Result<u16, NetError> {
        Ok(sys::local_port(self.source.fd())?)
    }

    /// Accepts one connection, blocking only the calling STING thread.
    ///
    /// # Errors
    ///
    /// The raw errno (e.g. fd exhaustion).
    pub fn accept(&self) -> Result<TcpStream, NetError> {
        self.accept_inner(None)
    }

    /// [`TcpListener::accept`] that gives up at `deadline`.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] at the deadline, else the raw errno.
    pub fn accept_deadline(&self, deadline: Instant) -> Result<TcpStream, NetError> {
        self.accept_inner(Some(deadline))
    }

    fn accept_inner(&self, deadline: Option<Instant>) -> Result<TcpStream, NetError> {
        let blocker = static_sym!("tcp-accept");
        loop {
            match sys::accept4(self.source.fd()) {
                Ok(fd) => {
                    // Echo-style workloads measure per-message latency;
                    // never let Nagle sit on a reply.
                    let _ = sys::set_nodelay(fd);
                    return Ok(TcpStream {
                        source: IoSource::new(fd),
                    });
                }
                Err(sys::Errno(sys::EAGAIN)) => {
                    await_ready(&self.source, false, blocker, deadline)?;
                }
                Err(sys::Errno(sys::EINTR)) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpListener")
            .field("fd", &self.source.fd())
            .finish()
    }
}

/// A connected TCP socket whose reads and writes block only the calling
/// STING thread (see the module docs for the sharing discipline).
pub struct TcpStream {
    source: IoSource,
}

impl TcpStream {
    /// Connects to `addr:port`, blocking only the calling STING thread.
    ///
    /// # Errors
    ///
    /// The raw errno (e.g. `ECONNREFUSED`).
    pub fn connect(addr: [u8; 4], port: u16) -> Result<TcpStream, NetError> {
        TcpStream::connect_inner(addr, port, None)
    }

    /// [`TcpStream::connect`] that gives up at `deadline`.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] at the deadline, else the raw errno.
    pub fn connect_deadline(
        addr: [u8; 4],
        port: u16,
        deadline: Instant,
    ) -> Result<TcpStream, NetError> {
        TcpStream::connect_inner(addr, port, Some(deadline))
    }

    fn connect_inner(
        addr: [u8; 4],
        port: u16,
        deadline: Option<Instant>,
    ) -> Result<TcpStream, NetError> {
        let stream = TcpStream {
            source: IoSource::new(sys::socket_tcp()?), // closes on early error-return
        };
        let fd = stream.source.fd();
        let addr = u32::from_be_bytes(addr);
        let blocker = static_sym!("tcp-connect");
        // A retried connect() doubles as the completion check: once the
        // socket connects it reports EISCONN, and a hard failure surfaces
        // as its errno — no getsockopt(SO_ERROR) binding needed.
        loop {
            match sys::connect_ipv4(fd, addr, port) {
                Ok(()) | Err(sys::Errno(sys::EISCONN)) => break,
                Err(sys::Errno(sys::EINPROGRESS)) | Err(sys::Errno(sys::EALREADY)) => {
                    await_ready(&stream.source, true, blocker, deadline)?;
                }
                Err(sys::Errno(sys::EINTR)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let _ = sys::set_nodelay(fd);
        Ok(stream)
    }

    /// Reads into `buf`, blocking only the calling STING thread.
    /// `Ok(0)` is end-of-stream.
    ///
    /// # Errors
    ///
    /// The raw errno (e.g. `ECONNRESET`).
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        self.read_inner(buf, None)
    }

    /// [`TcpStream::read`] that gives up at `deadline`.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] at the deadline, else the raw errno.
    pub fn read_deadline(&self, buf: &mut [u8], deadline: Instant) -> Result<usize, NetError> {
        self.read_inner(buf, Some(deadline))
    }

    fn read_inner(&self, buf: &mut [u8], deadline: Option<Instant>) -> Result<usize, NetError> {
        let blocker = static_sym!("tcp-read");
        loop {
            match sys::read(self.source.fd(), buf) {
                Ok(n) => return Ok(n),
                Err(sys::Errno(sys::EAGAIN)) => {
                    await_ready(&self.source, false, blocker, deadline)?;
                }
                Err(sys::Errno(sys::EINTR)) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Writes some of `buf` (possibly a short count), blocking only the
    /// calling STING thread.
    ///
    /// # Errors
    ///
    /// The raw errno (e.g. `EPIPE`).
    pub fn write(&self, buf: &[u8]) -> Result<usize, NetError> {
        self.write_inner(buf, None)
    }

    /// Writes all of `buf`, blocking only the calling STING thread.
    ///
    /// # Errors
    ///
    /// The raw errno; a partial write followed by a hard error reports
    /// the error.
    pub fn write_all(&self, buf: &[u8]) -> Result<(), NetError> {
        self.write_all_inner(buf, None)
    }

    /// [`TcpStream::write_all`] that gives up at `deadline`.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] at the deadline (some bytes may already be
    /// out), else the raw errno.
    pub fn write_all_deadline(&self, buf: &[u8], deadline: Instant) -> Result<(), NetError> {
        self.write_all_inner(buf, Some(deadline))
    }

    fn write_inner(&self, buf: &[u8], deadline: Option<Instant>) -> Result<usize, NetError> {
        let blocker = static_sym!("tcp-write");
        loop {
            match sys::write(self.source.fd(), buf) {
                Ok(n) => return Ok(n),
                Err(sys::Errno(sys::EAGAIN)) => {
                    await_ready(&self.source, true, blocker, deadline)?;
                }
                Err(sys::Errno(sys::EINTR)) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn write_all_inner(&self, mut buf: &[u8], deadline: Option<Instant>) -> Result<(), NetError> {
        while !buf.is_empty() {
            let n = self.write_inner(buf, deadline)?;
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Sends EOF to the peer (half-close of the write side); reads still
    /// work.
    pub fn shutdown_write(&self) {
        let _ = sys::shutdown(self.source.fd(), sys::SHUT_WR);
    }

    /// Shuts down both directions now — an explicit close for handles
    /// whose drop is deferred (e.g. garbage-collected language bindings).
    /// The fd itself still closes when the handle drops.
    pub fn close(&self) {
        let _ = sys::shutdown(self.source.fd(), sys::SHUT_RDWR);
    }
}

impl fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpStream")
            .field("fd", &self.source.fd())
            .finish()
    }
}

/// Loopback, for tests and benches.
pub const LOCALHOST: [u8; 4] = [127, 0, 0, 1];

#[cfg(all(test, not(sting_check)))]
mod tests {
    use super::*;
    use std::time::Duration;

    // These run on plain OS threads (the ppoll degradation path); the
    // STING-thread paths are covered by crates/core/tests/net.rs with
    // tracing and a shutdown audit.

    #[test]
    fn os_thread_echo_round_trip() {
        let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
        let port = listener.local_port().unwrap();
        let h = std::thread::spawn(move || {
            let s = listener.accept().unwrap();
            let mut buf = [0u8; 16];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let c = TcpStream::connect(LOCALHOST, port).unwrap();
        c.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        h.join().unwrap();
    }

    #[test]
    fn accept_deadline_times_out() {
        let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
        let start = Instant::now();
        let r = listener.accept_deadline(start + Duration::from_millis(30));
        assert_eq!(r.unwrap_err(), NetError::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn read_deadline_times_out_then_delivers() {
        let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
        let port = listener.local_port().unwrap();
        let c = TcpStream::connect(LOCALHOST, port).unwrap();
        let s = listener.accept().unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            s.read_deadline(&mut buf, Instant::now() + Duration::from_millis(20))
                .unwrap_err(),
            NetError::TimedOut
        );
        c.write_all(b"late").unwrap();
        let n = s
            .read_deadline(&mut buf, Instant::now() + Duration::from_secs(2))
            .unwrap();
        assert_eq!(&buf[..n], b"late");
    }

    #[test]
    fn eof_reads_as_zero() {
        let listener = TcpListener::bind(LOCALHOST, 0).unwrap();
        let port = listener.local_port().unwrap();
        let c = TcpStream::connect(LOCALHOST, port).unwrap();
        let s = listener.accept().unwrap();
        c.shutdown_write();
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn connect_refused_reports_errno() {
        // Bind-then-drop gives a port that is very likely unbound.
        let port = {
            let l = TcpListener::bind(LOCALHOST, 0).unwrap();
            l.local_port().unwrap()
        };
        match TcpStream::connect(LOCALHOST, port) {
            Err(NetError::Os(e)) => assert_eq!(e.name(), "ECONNREFUSED"),
            other => panic!("expected refusal, got {other:?}"),
        }
    }
}
