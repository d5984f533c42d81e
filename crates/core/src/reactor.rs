//! Readiness-driven I/O: the reactor and its driver.
//!
//! The paper's substrate promises "non-blocking I/O calls with call-back"
//! (§2.3): a thread making an OS call blocks **itself**, never its virtual
//! processor.  This module supplies the mechanism for calls the kernel can
//! express as *readiness* — sockets, pipes, anything pollable:
//!
//! * [`Reactor`] — the customization point: readiness registration plus a
//!   timed wait.  The substrate ships [`EpollReactor`], a Linux epoll
//!   backend on the raw syscalls in [`crate::sys`] (one-shot
//!   registrations, an `eventfd` for cross-thread kicks).
//! * [`IoDriver`] — one per [`Vm`], the "reactor VP": a dedicated driver
//!   loop that sits in [`Reactor::wait`] and converts each readiness event
//!   into a wake-up of the STING thread parked on that fd.
//!
//! The integration with the scheduler is deliberately thin: a thread that
//! hits `EAGAIN` parks through the **same generation-numbered wait
//! episode** ([`crate::wait::Waiter`]) as every other blocking operation.
//! The driver holds nothing but `Waiter` clones, so cancellation and
//! timeouts need no deregistration round-trip — a terminated or timed-out
//! thread's episode is dead, the driver's [`Waiter::wake`] fails the claim
//! CAS, and the stale registry slot is pruned by the next event or the
//! waiter's own exit guard.  This mirrors *Minimising virtual machine
//! support for concurrency* (PAPERS.md): the kernel-facing mechanism is one
//! loop and one wake primitive; all policy stays in library code.
//!
//! Wake-ups ride the ordinary unblock path (`Waiter::wake` →
//! `Thread::unblock_claimed` → home-VP enqueue → machine signal), so the
//! [block→wake latency histograms](crate::metrics) measure reactor wakes
//! with no extra plumbing — the server benchmark rows in `sting-bench`
//! read them directly.

use crate::sys::{self, RawFd};
use crate::tls;
use crate::trace::EventKind;
use crate::vm::Vm;
use crate::wait::{Waiter, WakeReason};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;
use sting_value::Value;

/// Interest/readiness bit: the fd is (or should be watched for) readable.
pub const READ: u8 = 0b001;
/// Interest/readiness bit: the fd is (or should be watched for) writable.
pub const WRITE: u8 = 0b010;
/// Readiness bit: error or hang-up — delivered to *every* waiter on the
/// fd, so the subsequent syscall retry surfaces the real errno/EOF.
pub const ERROR: u8 = 0b100;

/// One readiness event out of [`Reactor::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The user word given at [`Reactor::arm`] time.
    pub token: u64,
    /// [`READ`] | [`WRITE`] | [`ERROR`] bits.
    pub mask: u8,
}

/// A source of fd readiness: registration plus a timed wait.
///
/// Registrations are **one-shot**: after an event for an fd is delivered,
/// the fd is disarmed until the next [`Reactor::arm`].  One-shot semantics
/// map 1:1 onto wait episodes (arm ↔ park, event ↔ wake) and make a
/// level-triggered backend safe against event storms for data nobody has
/// consumed yet.
pub trait Reactor: Send + Sync + 'static {
    /// Arms (or re-arms) `fd` for the interests in `mask` ([`READ`] |
    /// [`WRITE`]), tagging the eventual event with `token`.
    fn arm(&self, fd: RawFd, mask: u8, token: u64) -> sys::Result<()>;

    /// Drops `fd` from the interest set entirely (best effort — closing
    /// an fd implicitly forgets it).
    fn forget(&self, fd: RawFd);

    /// Blocks up to `timeout_ms` (< 0 = forever) for events, appending
    /// them to `out`.  Returns spuriously empty on interrupts and
    /// [`Reactor::notify`] kicks.
    fn wait(&self, out: &mut Vec<ReadyEvent>, timeout_ms: i32) -> sys::Result<()>;

    /// Kicks a concurrent [`Reactor::wait`] awake from any thread.
    fn notify(&self);

    /// Cumulative kernel round-trips this backend has made (arms, waits,
    /// kicks — the per-backend cost model the `server/syscalls-per-wake`
    /// benchmark rows divide down).  Backends that do not count return 0.
    fn syscalls(&self) -> u64 {
        0
    }
}

/// The Linux backend: an epoll instance plus an eventfd for [`Reactor::notify`].
pub struct EpollReactor {
    ep: RawFd,
    wake: RawFd,
    syscalls: std::sync::atomic::AtomicU64,
}

/// Token reserved for the internal eventfd registration.
const WAKE_TOKEN: u64 = u64::MAX;

impl EpollReactor {
    /// Creates the epoll instance and its wake-up eventfd.
    pub fn new() -> sys::Result<EpollReactor> {
        let ep = sys::epoll_create1()?;
        let wake = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                let _ = sys::close(ep);
                return Err(e);
            }
        };
        // Level-triggered and permanent: a pending notify keeps wait()
        // returning until drained.
        if let Err(e) = sys::epoll_ctl(ep, sys::EPOLL_CTL_ADD, wake, sys::EPOLLIN, WAKE_TOKEN) {
            let _ = sys::close(wake);
            let _ = sys::close(ep);
            return Err(e);
        }
        Ok(EpollReactor {
            ep,
            wake,
            syscalls: std::sync::atomic::AtomicU64::new(0),
        })
    }

    fn count(&self, n: u64) {
        self.syscalls.fetch_add(n, Ordering::Relaxed);
    }
}

impl Reactor for EpollReactor {
    fn arm(&self, fd: RawFd, mask: u8, token: u64) -> sys::Result<()> {
        let mut events = sys::EPOLLONESHOT;
        if mask & READ != 0 {
            events |= sys::EPOLLIN;
        }
        if mask & WRITE != 0 {
            events |= sys::EPOLLOUT;
        }
        self.count(1);
        match sys::epoll_ctl(self.ep, sys::EPOLL_CTL_ADD, fd, events, token) {
            Err(sys::Errno(sys::EEXIST)) => {
                self.count(1);
                sys::epoll_ctl(self.ep, sys::EPOLL_CTL_MOD, fd, events, token)
            }
            other => other,
        }
    }

    fn forget(&self, fd: RawFd) {
        self.count(1);
        let _ = sys::epoll_ctl(self.ep, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, out: &mut Vec<ReadyEvent>, timeout_ms: i32) -> sys::Result<()> {
        let mut buf = [sys::EpollEvent::zeroed(); 64];
        self.count(1);
        let n = sys::epoll_wait(self.ep, &mut buf, timeout_ms)?;
        for ev in &buf[..n] {
            let (bits, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                // Drain the eventfd so the level-triggered registration
                // goes quiet until the next notify.
                let mut count = [0u8; 8];
                self.count(1);
                let _ = sys::read(self.wake, &mut count);
                continue;
            }
            let mut mask = 0u8;
            if bits & sys::EPOLLIN != 0 {
                mask |= READ;
            }
            if bits & sys::EPOLLOUT != 0 {
                mask |= WRITE;
            }
            if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                mask |= ERROR;
            }
            out.push(ReadyEvent { token, mask });
        }
        Ok(())
    }

    fn notify(&self) {
        self.count(1);
        let _ = sys::write(self.wake, &1u64.to_ne_bytes());
    }

    fn syscalls(&self) -> u64 {
        self.syscalls.load(Ordering::Relaxed)
    }
}

impl Drop for EpollReactor {
    fn drop(&mut self) {
        let _ = sys::close(self.wake);
        let _ = sys::close(self.ep);
    }
}

/// At most one waiter per direction per fd; the registry's whole job is
/// mapping an event back to the episode(s) to wake.
#[derive(Default)]
struct FdWaiters {
    read: Option<(u64, Waiter)>,
    write: Option<(u64, Waiter)>,
}

impl FdWaiters {
    fn mask(&self) -> u8 {
        (if self.read.is_some() { READ } else { 0 })
            | (if self.write.is_some() { WRITE } else { 0 })
    }
}

/// Waiter registry: plain data guarded by one lock, no clever atomics —
/// the blocking protocol's claim CAS (inside [`Waiter::wake`]) is the only
/// lock-free piece, and it is already model-checked in `wait.rs`.
#[derive(Default)]
struct Registry {
    fds: HashMap<RawFd, FdWaiters>,
    next_id: u64,
    /// Set (under the lock) when the driver can no longer deliver events —
    /// shutdown, or a fatal reactor error.  Checked by every registration
    /// so a `wait_ready` racing the shutdown drain fails fast instead of
    /// parking forever against a dead reactor.
    stopped: bool,
}

impl Registry {
    /// Registers `w` for one direction on `fd`; returns the registration
    /// id, the displaced waiter (a concurrent same-direction waiter loses
    /// its slot and must be spuriously woken so it can re-register) and
    /// the interest mask the fd should now be armed with.
    fn register(&mut self, fd: RawFd, write: bool, w: Waiter) -> (u64, Option<Waiter>, u8) {
        self.next_id += 1;
        let id = self.next_id;
        let entry = self.fds.entry(fd).or_default();
        let slot = if write {
            &mut entry.write
        } else {
            &mut entry.read
        };
        let displaced = slot.replace((id, w)).map(|(_, old)| old);
        let mask = entry.mask();
        (id, displaced, mask)
    }

    /// Removes registration `id` if it still owns its slot (the driver may
    /// have consumed it already).  Returns `true` if the fd has no
    /// remaining waiters.
    fn deregister(&mut self, fd: RawFd, write: bool, id: u64) -> bool {
        let Some(entry) = self.fds.get_mut(&fd) else {
            return true;
        };
        let slot = if write {
            &mut entry.write
        } else {
            &mut entry.read
        };
        if slot.as_ref().is_some_and(|(sid, _)| *sid == id) {
            *slot = None;
        }
        if entry.mask() == 0 {
            self.fds.remove(&fd);
            true
        } else {
            false
        }
    }

    /// Consumes the waiters an event for (`fd`, `mask`) should wake, and
    /// returns the interest mask to re-arm for waiters that remain (the
    /// one-shot registration was just consumed on their behalf).
    fn take_ready(&mut self, fd: RawFd, mask: u8) -> (Vec<Waiter>, u8) {
        let mut woken = Vec::new();
        let Some(entry) = self.fds.get_mut(&fd) else {
            return (woken, 0);
        };
        if mask & (READ | ERROR) != 0 {
            if let Some((_, w)) = entry.read.take() {
                woken.push(w);
            }
        }
        if mask & (WRITE | ERROR) != 0 {
            if let Some((_, w)) = entry.write.take() {
                woken.push(w);
            }
        }
        let remaining = entry.mask();
        if remaining == 0 {
            self.fds.remove(&fd);
        }
        (woken, remaining)
    }
}

/// The per-VM reactor driver ("reactor VP"): owns the [`Reactor`], the
/// waiter registry and the driver OS thread, created lazily on first use
/// and joined at [`Vm::shutdown`].
///
/// The driver is an OS thread rather than a green thread for the same
/// reason the timekeeper is: it spends its life blocked in the kernel
/// ([`Reactor::wait`]), exactly what virtual processors must never do.
/// Everything it does on an event is one claim CAS plus one ready-queue
/// push — scheduling stays with the policy manager of the woken thread's
/// home VP.
pub struct IoDriver {
    reactor: Mutex<Option<Arc<dyn Reactor>>>,
    registry: Mutex<Registry>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    stop: AtomicBool,
    /// Backend label ("epoll", or "custom" for an installed test
    /// reactor), for [`IoDriver::stats`].
    label: OnceLock<&'static str>,
    /// Successful waiter wake-ups delivered by dispatch — the denominator
    /// of the syscalls-per-wake benchmark rows.
    wakes: std::sync::atomic::AtomicU64,
    /// For trace events; set once by [`Vm::create`](crate::vm::Vm).
    vm: OnceLock<Weak<Vm>>,
}

/// A snapshot of [`IoDriver`] counters, surfaced to Scheme as
/// `(vm-io-stats)` and to the benchmark harness for the
/// `server/syscalls-per-wake` rows.
#[derive(Debug, Clone, Copy)]
pub struct IoStats {
    /// Backend label: "epoll", or "custom" for an installed test reactor
    /// ("unstarted" before first use).
    pub backend: &'static str,
    /// Kernel round-trips the reactor backend has made so far.
    pub syscalls: u64,
    /// Parked I/O threads successfully woken by readiness dispatch.
    pub wakes: u64,
}

impl IoDriver {
    pub(crate) fn new() -> IoDriver {
        IoDriver {
            reactor: Mutex::new(None),
            registry: Mutex::new(Registry::default()),
            handle: Mutex::new(None),
            stop: AtomicBool::new(false),
            label: OnceLock::new(),
            wakes: std::sync::atomic::AtomicU64::new(0),
            vm: OnceLock::new(),
        }
    }

    /// Current counters: backend label, backend syscalls, wakes
    /// delivered.
    pub fn stats(&self) -> IoStats {
        let syscalls = self.reactor.lock().as_ref().map_or(0, |r| r.syscalls());
        IoStats {
            backend: self.label.get().copied().unwrap_or("unstarted"),
            syscalls,
            wakes: self.wakes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bind_vm(&self, vm: &Weak<Vm>) {
        let _ = self.vm.set(vm.clone());
    }

    /// Replaces the backend before first use (a test hook and the
    /// customization point for alternative [`Reactor`]s).  No-op once the
    /// driver has started.
    pub fn install_reactor(&self, reactor: Arc<dyn Reactor>) {
        let mut g = self.reactor.lock();
        if g.is_none() {
            *g = Some(reactor);
            let _ = self.label.set("custom");
        }
    }

    fn shared_reactor(&self) -> sys::Result<Arc<dyn Reactor>> {
        let mut g = self.reactor.lock();
        if let Some(r) = &*g {
            return Ok(r.clone());
        }
        let r: Arc<dyn Reactor> = Arc::new(EpollReactor::new()?);
        let _ = self.label.set("epoll");
        *g = Some(r.clone());
        Ok(r)
    }

    fn ensure_started(self: &Arc<IoDriver>, reactor: &Arc<dyn Reactor>) {
        let mut h = self.handle.lock();
        if h.is_some() || self.stop.load(Ordering::Acquire) {
            return;
        }
        let driver = self.clone();
        let reactor = reactor.clone();
        *h = std::thread::Builder::new()
            .name("sting-reactor".to_string())
            .spawn(move || driver.drive(reactor))
            .ok();
    }

    fn drive(self: Arc<IoDriver>, reactor: Arc<dyn Reactor>) {
        let mut events = Vec::with_capacity(64);
        while !self.stop.load(Ordering::Acquire) {
            events.clear();
            // The timeout is a liveness backstop; notify() provides the
            // prompt path for shutdown.
            match reactor.wait(&mut events, 250) {
                Ok(()) => {}
                // A signal mid-wait is not a reactor failure.
                Err(sys::Errno(sys::EINTR)) => continue,
                Err(sys::Errno(errno)) => {
                    // The reactor is dead.  Surface the errno, then fall
                    // through to the drain below — every parked waiter
                    // gets a spurious wake rather than hanging until VM
                    // shutdown, and later registrations fail fast.
                    if let Some(vm) = self.vm.get().and_then(Weak::upgrade) {
                        crate::trace_event!(
                            vm.tracer(),
                            None,
                            EventKind::IoError,
                            u64::MAX,
                            errno as u32,
                            0
                        );
                    }
                    break;
                }
            }
            for ev in events.drain(..) {
                self.dispatch(&reactor, ev.token as i64 as RawFd, ev.mask);
            }
        }
        // Loop exit — requested stop or reactor failure.  Either way no
        // further events will be delivered, so nothing may stay parked and
        // nothing new may register.
        self.drain_and_wake();
    }

    /// Marks the registry stopped and spuriously wakes every registered
    /// waiter.  Shared by [`IoDriver::stop`] and the driver loop's error
    /// exit; idempotent.
    fn drain_and_wake(&self) {
        let fds: Vec<FdWaiters> = {
            let mut reg = self.registry.lock();
            reg.stopped = true;
            reg.fds.drain().map(|(_, e)| e).collect()
        };
        for entry in fds {
            for (_, w) in [entry.read, entry.write].into_iter().flatten() {
                w.wake();
            }
        }
    }

    fn dispatch(&self, reactor: &Arc<dyn Reactor>, fd: RawFd, mask: u8) {
        let woken = {
            let mut reg = self.registry.lock();
            let (woken, remaining) = reg.take_ready(fd, mask);
            // Re-arm for the direction still waited on (the one-shot fired
            // for both) while *holding* the registry lock: a concurrent
            // `wait_ready` for the other direction serializes against this
            // critical section, so its register + arm cannot be clobbered
            // by a stale re-arm computed from the pre-registration mask.
            if remaining != 0 {
                let _ = reactor.arm(fd, remaining, fd as u64);
            }
            woken
        };
        for w in woken {
            let thread = w.thread_id();
            if w.wake() {
                self.wakes.fetch_add(1, Ordering::Relaxed);
                if let Some(vm) = self.vm.get().and_then(Weak::upgrade) {
                    crate::trace_event!(
                        vm.tracer(),
                        None,
                        EventKind::IoReady,
                        thread,
                        fd as u32,
                        mask as u32
                    );
                }
            }
        }
    }

    /// Parks the calling thread until `fd` is ready for the given
    /// direction (`write` = writability), the `deadline` passes, or the
    /// thread is cancelled.  Spurious returns are possible (e.g. a
    /// displaced registration or readiness consumed by a peer); callers
    /// retry the non-blocking syscall, which is what decides.
    ///
    /// On a STING thread this blocks only the thread — the VP carries on.
    /// The park rides a standard wait episode, so termination while
    /// parked unwinds cleanly and a late readiness event fails the claim
    /// CAS instead of waking a recycled TCB.
    ///
    /// # Errors
    ///
    /// Registration failures (e.g. the fd is closed or the process is out
    /// of fds for the epoll instance) surface as the raw errno, and a
    /// driver that has stopped — VM shutdown, or a dead reactor — reports
    /// [`ESHUTDOWN`](sys::ESHUTDOWN) so callers fail fast instead of
    /// parking against a reactor that will never deliver.
    pub fn wait_ready(
        self: &Arc<IoDriver>,
        fd: RawFd,
        write: bool,
        blocker: &Value,
        deadline: Option<Instant>,
    ) -> sys::Result<WakeReason> {
        let reactor = self.shared_reactor()?;
        self.ensure_started(&reactor);
        let w = Waiter::current();
        // Register *and* arm under one registry-lock hold: the armed
        // interest always matches the registry contents, so neither a
        // dispatch re-arm nor a concurrent registration for the other
        // direction can clobber this one (they serialize on the lock).
        // The stop check rides the same hold — after the shutdown drain
        // has flushed the registry (which set `stopped` under this lock),
        // no registration can slip in behind it.
        let (id, displaced, armed) = {
            let mut reg = self.registry.lock();
            if reg.stopped {
                drop(reg);
                let _ = w.retire();
                return Err(sys::Errno(sys::ESHUTDOWN));
            }
            let (id, displaced, mask) = reg.register(fd, write, w.clone());
            (id, displaced, reactor.arm(fd, mask, fd as u64))
        };
        if let Some(old) = displaced {
            old.wake();
        }
        if let Err(e) = armed {
            self.registry.lock().deregister(fd, write, id);
            let _ = w.retire();
            return Err(e);
        }
        // From here on every exit — wake, timeout, terminate-unwind — must
        // clear the registration; a drop guard covers them all.
        let guard = Deregister {
            driver: self,
            fd,
            write,
            id,
        };
        if let Some(vm) = self.vm.get().and_then(Weak::upgrade) {
            crate::trace_event!(
                vm.tracer(),
                tls::lane(),
                EventKind::IoWait,
                w.thread_id(),
                fd as u32,
                if write { WRITE } else { READ } as u32
            );
        }
        let reason = w.park_until(blocker, deadline);
        drop(guard);
        Ok(reason)
    }

    /// Stops the driver loop and joins its thread; any still-registered
    /// waiters get a spurious wake so nothing stays parked against a dead
    /// reactor.  Idempotent.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let reactor = self.reactor.lock().clone();
        if let Some(r) = &reactor {
            r.notify();
        }
        let handle = self.handle.lock().take();
        if let Some(h) = handle {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        // The driver loop drains on exit too, but a driver that was never
        // started (or is stopping itself) still needs the sweep — and the
        // `stopped` mark that makes late registrations fail fast.
        self.drain_and_wake();
    }
}

impl Drop for IoDriver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(r) = &*self.reactor.lock() {
            r.notify();
        }
        // The driver thread holds an Arc to this driver, so by the time
        // Drop runs the thread has already exited; nothing to join.
    }
}

/// Clears a [`Registry`] slot on every exit path of
/// [`IoDriver::wait_ready`], including a terminate-request unwind out of
/// the park.
struct Deregister<'a> {
    driver: &'a IoDriver,
    fd: RawFd,
    write: bool,
    id: u64,
}

impl Drop for Deregister<'_> {
    fn drop(&mut self) {
        self.driver
            .registry
            .lock()
            .deregister(self.fd, self.write, self.id);
    }
}

#[cfg(all(test, not(sting_check)))]
mod tests {
    use super::*;

    fn os_waiter() -> Waiter {
        Waiter::current()
    }

    #[test]
    fn registry_register_take_rearm() {
        let mut reg = Registry::default();
        let (_, none, mask) = reg.register(5, false, os_waiter());
        assert!(none.is_none());
        assert_eq!(mask, READ);
        let (_, none, mask) = reg.register(5, true, os_waiter());
        assert!(none.is_none());
        assert_eq!(mask, READ | WRITE);

        // A read-only event wakes the reader and asks for a WRITE re-arm.
        let (woken, remaining) = reg.take_ready(5, READ);
        assert_eq!(woken.len(), 1);
        assert_eq!(remaining, WRITE);

        // An error event flushes everyone.
        let (woken, remaining) = reg.take_ready(5, ERROR);
        assert_eq!(woken.len(), 1);
        assert_eq!(remaining, 0);
        assert!(reg.fds.is_empty());
    }

    #[test]
    fn registry_displaces_same_direction_waiter() {
        let mut reg = Registry::default();
        let first = os_waiter();
        let (_, none, _) = reg.register(9, false, first.clone());
        assert!(none.is_none());
        let (_, displaced, _) = reg.register(9, false, os_waiter());
        // The loser comes back out so the caller can spuriously wake it.
        assert!(displaced.is_some_and(|w| w.wake()));
        assert_eq!(first.park(&Value::sym("io")), WakeReason::Woken);
    }

    #[test]
    fn registry_deregister_is_id_checked() {
        let mut reg = Registry::default();
        let (id1, _, _) = reg.register(3, false, os_waiter());
        // The driver consumed the slot and a new waiter moved in.
        let _ = reg.take_ready(3, READ);
        let (_id2, _, _) = reg.register(3, false, os_waiter());
        // The stale guard must not clobber the new registration.
        assert!(!reg.deregister(3, false, id1));
        assert_eq!(reg.fds[&3].mask(), READ);
    }

    /// A scripted reactor: readiness is injected by the test, so driver
    /// behaviour is deterministic — no real fds, no timing.
    struct ScriptedReactor {
        armed: Mutex<Vec<(RawFd, u8, u64)>>,
        queue: Mutex<Vec<ReadyEvent>>,
        kicked: std::sync::Condvar,
        lock: std::sync::Mutex<()>,
        /// Interleaving control: arms whose interest mask equals
        /// `Gate::block_mask` park until [`ScriptedReactor::open_gate`] —
        /// lets a test hold the driver mid-dispatch, in its re-arm call,
        /// and script what races against it.
        gate: std::sync::Mutex<Gate>,
        gate_cv: std::sync::Condvar,
    }

    #[derive(Default)]
    struct Gate {
        block_mask: Option<u8>,
        entered: bool,
    }

    impl ScriptedReactor {
        fn new() -> Arc<ScriptedReactor> {
            Arc::new(ScriptedReactor {
                armed: Mutex::new(Vec::new()),
                queue: Mutex::new(Vec::new()),
                kicked: std::sync::Condvar::new(),
                lock: std::sync::Mutex::new(()),
                gate: std::sync::Mutex::new(Gate::default()),
                gate_cv: std::sync::Condvar::new(),
            })
        }

        fn inject(&self, ev: ReadyEvent) {
            self.queue.lock().push(ev);
            self.notify();
        }

        /// Arms with exactly this interest mask will park at the gate.
        fn close_gate(&self, mask: u8) {
            let mut g = self.gate.lock().unwrap();
            g.block_mask = Some(mask);
            g.entered = false;
        }

        /// Blocks until some arm call has parked at the closed gate.
        fn await_gate(&self) {
            let mut g = self.gate.lock().unwrap();
            while !g.entered {
                g = self.gate_cv.wait(g).unwrap();
            }
        }

        /// Releases every arm parked at the gate.
        fn open_gate(&self) {
            let mut g = self.gate.lock().unwrap();
            g.block_mask = None;
            self.gate_cv.notify_all();
        }
    }

    impl Reactor for ScriptedReactor {
        fn arm(&self, fd: RawFd, mask: u8, token: u64) -> sys::Result<()> {
            {
                let mut g = self.gate.lock().unwrap();
                if g.block_mask == Some(mask) {
                    g.entered = true;
                    self.gate_cv.notify_all();
                    while g.block_mask == Some(mask) {
                        g = self.gate_cv.wait(g).unwrap();
                    }
                }
            }
            self.armed.lock().push((fd, mask, token));
            Ok(())
        }

        fn forget(&self, _fd: RawFd) {}

        fn wait(&self, out: &mut Vec<ReadyEvent>, timeout_ms: i32) -> sys::Result<()> {
            let mut q = self.queue.lock();
            if q.is_empty() {
                drop(q);
                let g = self.lock.lock().unwrap();
                let _ = self.kicked.wait_timeout(
                    g,
                    std::time::Duration::from_millis(timeout_ms.max(0) as u64),
                );
                q = self.queue.lock();
            }
            out.append(&mut q);
            Ok(())
        }

        fn notify(&self) {
            let _g = self.lock.lock().unwrap();
            self.kicked.notify_all();
        }
    }

    #[test]
    fn driver_wakes_on_injected_readiness() {
        let driver = Arc::new(IoDriver::new());
        let reactor = ScriptedReactor::new();
        driver.install_reactor(reactor.clone());

        let d2 = driver.clone();
        let r2 = reactor.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            r2.inject(ReadyEvent {
                token: 7,
                mask: READ,
            });
            let _ = d2; // keep the driver alive from the injector side too
        });
        let reason = driver
            .wait_ready(7, false, &Value::sym("io-read"), None)
            .unwrap();
        assert_eq!(reason, WakeReason::Woken);
        h.join().unwrap();
        // The registration was armed read-side with the fd as token.
        assert!(reactor
            .armed
            .lock()
            .iter()
            .any(|&(fd, m, tok)| { fd == 7 && m & READ != 0 && tok == 7 }));
        driver.stop();
    }

    #[test]
    fn driver_timeout_leaves_registry_clean() {
        let driver = Arc::new(IoDriver::new());
        driver.install_reactor(ScriptedReactor::new());
        let deadline = Instant::now() + std::time::Duration::from_millis(30);
        let reason = driver
            .wait_ready(11, true, &Value::sym("io-write"), Some(deadline))
            .unwrap();
        assert_eq!(reason, WakeReason::TimedOut);
        assert!(driver.registry.lock().fds.is_empty());
        driver.stop();
    }

    /// Regression: `dispatch` used to re-arm the `remaining` interest
    /// *after* releasing the registry lock, so a `wait_ready` for the
    /// other direction could register + arm in that window and have its
    /// interest clobbered by the driver's stale re-arm — the new waiter
    /// parked until a spurious wake.  The gate holds the driver inside its
    /// re-arm call to force exactly that interleaving; with the re-arm
    /// under the lock, the late reader serializes behind it and the last
    /// armed interest must include READ.
    #[test]
    fn dispatch_rearm_cannot_clobber_concurrent_registration() {
        let driver = Arc::new(IoDriver::new());
        let reactor = ScriptedReactor::new();
        driver.install_reactor(reactor.clone());

        // A writer parks; the driver arms (5, WRITE).
        let d = driver.clone();
        let writer =
            std::thread::spawn(move || d.wait_ready(5, true, &Value::sym("io-write"), None));
        while !reactor
            .armed
            .lock()
            .iter()
            .any(|&(fd, m, _)| fd == 5 && m == WRITE)
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Deliver READ readiness: nobody waits on READ, so dispatch wakes
        // no one and re-arms the remaining WRITE interest — where the
        // closed gate catches it, mid-dispatch.
        reactor.close_gate(WRITE);
        reactor.inject(ReadyEvent {
            token: 5,
            mask: READ,
        });
        reactor.await_gate();
        // While the driver is held in its re-arm, a reader arrives.  Its
        // READ|WRITE arm passes the WRITE-only gate; the fix makes it
        // queue on the registry lock instead of racing.
        let d = driver.clone();
        let reader =
            std::thread::spawn(move || d.wait_ready(5, false, &Value::sym("io-read"), None));
        std::thread::sleep(std::time::Duration::from_millis(50));
        reactor.open_gate();
        while !reactor
            .armed
            .lock()
            .iter()
            .any(|&(fd, m, _)| fd == 5 && m == READ | WRITE)
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let armed = reactor.armed.lock();
            let last = armed.iter().rev().find(|&&(fd, _, _)| fd == 5).unwrap();
            assert_ne!(
                last.1 & READ,
                0,
                "reader interest clobbered by stale re-arm: {:?}",
                *armed
            );
        }
        reactor.inject(ReadyEvent {
            token: 5,
            mask: READ | WRITE,
        });
        assert_eq!(reader.join().unwrap().unwrap(), WakeReason::Woken);
        assert_eq!(writer.join().unwrap().unwrap(), WakeReason::Woken);
        driver.stop();
    }

    /// Regression: a `wait_ready` racing `stop()` could register *after*
    /// the shutdown drain flushed the registry and park forever against a
    /// dead reactor (`ensure_started` silently no-ops once the stop flag
    /// is set).  Registration now checks the stop mark under the registry
    /// lock and fails fast.
    #[test]
    fn wait_ready_after_stop_fails_fast() {
        let driver = Arc::new(IoDriver::new());
        driver.install_reactor(ScriptedReactor::new());
        driver.stop();
        let err = driver
            .wait_ready(13, false, &Value::sym("io-read"), None)
            .unwrap_err();
        assert_eq!(err.0, sys::ESHUTDOWN);
        assert!(driver.registry.lock().fds.is_empty());
    }

    /// A reactor that dies on the first kick: `wait` blocks until some
    /// `arm`/`notify` arrives, then reports EBADF — modelling the backend
    /// failing underneath a running driver.
    struct DyingReactor {
        kicked: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl Reactor for DyingReactor {
        fn arm(&self, _fd: RawFd, _mask: u8, _token: u64) -> sys::Result<()> {
            self.notify();
            Ok(())
        }

        fn forget(&self, _fd: RawFd) {}

        fn wait(&self, _out: &mut Vec<ReadyEvent>, timeout_ms: i32) -> sys::Result<()> {
            let mut k = self.kicked.lock().unwrap();
            while !*k {
                let (g, t) = self
                    .cv
                    .wait_timeout(
                        k,
                        std::time::Duration::from_millis(timeout_ms.max(1) as u64),
                    )
                    .unwrap();
                k = g;
                if t.timed_out() {
                    break;
                }
            }
            if *k {
                Err(sys::Errno(9)) // EBADF
            } else {
                Ok(())
            }
        }

        fn notify(&self) {
            *self.kicked.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    /// Regression: `drive()` used to break out of its loop on a
    /// `reactor.wait` error without waking registered waiters — every
    /// parked I/O thread hung until VM shutdown.  The driver now drains
    /// the registry on loop exit, so the parked waiter below gets its
    /// spurious wake, and later registrations fail fast.
    #[test]
    fn reactor_failure_wakes_parked_waiters() {
        let driver = Arc::new(IoDriver::new());
        driver.install_reactor(Arc::new(DyingReactor {
            kicked: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }));
        // The arm kicks the driver, the driver's wait dies, the drain
        // wakes us: this returns (spuriously) instead of hanging.
        let reason = driver
            .wait_ready(21, false, &Value::sym("io-read"), None)
            .unwrap();
        assert_eq!(reason, WakeReason::Woken);
        // The failed driver marked itself stopped before waking anyone.
        let err = driver
            .wait_ready(21, false, &Value::sym("io-read"), None)
            .unwrap_err();
        assert_eq!(err.0, sys::ESHUTDOWN);
        driver.stop();
    }

    #[test]
    fn epoll_reactor_round_trip() {
        let reactor = EpollReactor::new().unwrap();
        let (a, b) = sys::socketpair_stream().unwrap();
        reactor.arm(b, READ, 42).unwrap();
        let mut out = Vec::new();
        reactor.wait(&mut out, 0).unwrap();
        assert!(out.is_empty());
        sys::write(a, b"hi").unwrap();
        reactor.wait(&mut out, 1000).unwrap();
        assert_eq!(
            out,
            vec![ReadyEvent {
                token: 42,
                mask: READ,
            }]
        );
        // notify() interrupts a wait with no fd events.
        out.clear();
        reactor.notify();
        reactor.wait(&mut out, 1000).unwrap();
        assert!(out.is_empty());
        for fd in [a, b] {
            let _ = sys::close(fd);
        }
    }

    /// More ready fds than the 64-slot `epoll_wait` buffer: one wait must
    /// stop at the buffer's edge, and the rest must arrive over the next
    /// waits, each fd exactly once.  320 registrations (160 fds armed
    /// twice, so half the arms take the EEXIST → MOD path).
    #[test]
    fn epoll_burst_outruns_the_wait_buffer() {
        let reactor = EpollReactor::new().unwrap();
        let pairs: Vec<_> = (0..160)
            .map(|_| sys::socketpair_stream().unwrap())
            .collect();
        for _ in 0..2 {
            for &(_, b) in &pairs {
                reactor.arm(b, READ, b as u64).unwrap();
            }
        }
        for &(a, _) in &pairs {
            sys::write(a, b"x").unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut waits = 0;
        let mut out = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while seen.len() < pairs.len() && Instant::now() < deadline {
            out.clear();
            reactor.wait(&mut out, 100).unwrap();
            assert!(out.len() <= 64, "one wait returned {} events", out.len());
            waits += usize::from(!out.is_empty());
            for ev in &out {
                assert_ne!(ev.mask & READ, 0);
                assert!(
                    seen.insert(ev.token),
                    "one-shot fd {} fired twice",
                    ev.token
                );
            }
        }
        assert_eq!(seen.len(), pairs.len(), "every armed fd must report in");
        assert!(waits >= 3, "160 events fit in {waits} waits of 64");
        for (a, b) in pairs {
            let _ = sys::close(a);
            let _ = sys::close(b);
        }
    }
}
