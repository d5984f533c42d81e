//! Readiness-driven I/O: the reactor, the sources it watches, the per-VM
//! driver, and the mux the machine's poller waits on.
//!
//! The paper's substrate promises "non-blocking I/O calls with call-back"
//! (§2.3): a thread making an OS call blocks **itself**, never its virtual
//! processor.  This module supplies the mechanism for calls the kernel can
//! express as *readiness* — sockets, pipes, anything pollable:
//!
//! * [`Reactor`] — the customization point: register a source once, forget
//!   it before it closes, poll for events.  The substrate ships
//!   [`EpollReactor`], a Linux epoll backend on the raw syscalls in
//!   [`crate::sys`] (one edge-triggered registration per fd).
//! * [`IoSource`] — one per socket: the fd, registered at its first
//!   `EAGAIN`, with a readiness byte and one [`Waiter`] slot per direction.
//! * [`IoDriver`] — one per [`Vm`]: owns the reactor and the sources
//!   registered with it, and turns each event into a wake-up.  It has no
//!   thread of its own; the machine's workers run it
//!   ([`crate::machine`], "Parking and waking").  A busy worker polls the
//!   reactor of every attached VM, without blocking, once a pass.  A worker
//!   about to park becomes the machine's one *poller* instead and blocks in
//!   `epoll_wait` on a mux holding every attached VM's reactor and the
//!   machine's kick eventfd.
//!
//! **The readiness protocol.**  A source registers once, for both
//! directions, edge-triggered.  An edge is remembered in the source's
//! readiness byte until a wait takes it: a wait that finds its direction's
//! edge pending clears it and returns at once (the caller retries the
//! syscall, which is what decides); otherwise it stores its episode in the
//! direction's slot and parks.  Dispatch sets the edge bits and wakes the
//! slot's waiter under the source's lock, and clears a bit only when the
//! wake's claim CAS succeeds — so an edge that lands between the caller's
//! `EAGAIN` and its registration is still there for it, and a dead episode
//! (timed out, terminated) never eats an edge.  A source deregisters before
//! its fd closes, and every event carries a generation-tagged token, so a
//! reused fd number inherits neither a registration nor a late event.
//!
//! Wake-ups ride the ordinary unblock path (`Waiter::wake` →
//! `Thread::unblock_claimed` → home-VP enqueue → machine signal), so the
//! [block→wake latency histograms](crate::metrics) measure reactor wakes
//! with no extra plumbing.  *Minimising virtual machine support for
//! concurrency* (PAPERS.md) argues the same economy: one kernel-facing
//! loop, run by the VM's own processors, and one wake primitive.

use crate::counters::CounterSnapshot;
use crate::sys::{self, RawFd};
use crate::tls;
use crate::trace::EventKind;
use crate::vm::Vm;
use crate::wait::{Waiter, WakeReason};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};
use sting_value::Value;

/// Readiness bit: the fd is readable (or its peer hung up).
pub const READ: u8 = 0b001;
/// Readiness bit: the fd is writable.
pub const WRITE: u8 = 0b010;
/// Readiness bit: error or hang-up — an edge for *both* directions, so
/// each waiter's retried syscall surfaces the real errno or EOF.
pub const ERROR: u8 = 0b100;

/// One readiness event out of [`Reactor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The user word given at [`Reactor::register`] time.
    pub token: u64,
    /// [`READ`] | [`WRITE`] | [`ERROR`] bits.
    pub mask: u8,
}

/// A source of fd readiness: one registration per fd, and a poll.
///
/// Registrations are **edge-triggered and permanent**: an fd is registered
/// once, at its first `EAGAIN`, for both directions, and each readiness
/// *change* is reported once.  The [`IoSource`] remembers an edge nobody
/// was waiting for, so no re-arm is ever needed.
pub trait Reactor: Send + Sync + 'static {
    /// Adds `fd` to the interest set for as long as it stays open: readable,
    /// writable, error and hang-up edges, each event tagged with `token`.
    fn register(&self, fd: RawFd, token: u64) -> sys::Result<()>;

    /// Drops `fd` from the interest set.  Called before the fd closes, so
    /// a later fd with the same number starts unregistered.
    fn forget(&self, fd: RawFd);

    /// Appends the events ready now to `out`, without blocking.  Nobody
    /// waits on a reactor itself: a blocking wait goes through its
    /// [`Reactor::pollable_fd`], in the machine's poller mux.
    fn poll(&self, out: &mut Vec<ReadyEvent>) -> sys::Result<()>;

    /// An fd that polls readable while events are pending, so the
    /// machine's poller can wait on this reactor beside others.  `None`
    /// (the default): only busy workers and [`IoDriver::poll`] look at it.
    fn pollable_fd(&self) -> Option<RawFd> {
        None
    }

    /// Cumulative kernel round-trips this backend has made (registrations
    /// and polls — the cost model the `server/syscalls-per-wake`
    /// benchmark rows divide down).  Backends that do not count return 0.
    fn syscalls(&self) -> u64 {
        0
    }
}

/// The Linux backend: an epoll instance.
pub struct EpollReactor {
    ep: RawFd,
    syscalls: AtomicU64,
}

impl EpollReactor {
    /// Creates the epoll instance.
    pub fn new() -> sys::Result<EpollReactor> {
        Ok(EpollReactor {
            ep: sys::epoll_create1()?,
            syscalls: AtomicU64::new(0),
        })
    }

    fn count(&self, n: u64) {
        self.syscalls.fetch_add(n, Ordering::Relaxed);
    }
}

impl Reactor for EpollReactor {
    fn register(&self, fd: RawFd, token: u64) -> sys::Result<()> {
        self.count(1);
        let events = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        sys::epoll_ctl(self.ep, sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn forget(&self, fd: RawFd) {
        self.count(1);
        let _ = sys::epoll_ctl(self.ep, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn poll(&self, out: &mut Vec<ReadyEvent>) -> sys::Result<()> {
        let mut buf = [sys::EpollEvent::zeroed(); 64];
        self.count(1);
        let n = sys::epoll_wait(self.ep, &mut buf, 0)?;
        for ev in &buf[..n] {
            let (bits, token) = (ev.events, ev.data);
            let mut mask = 0u8;
            if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
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

    fn pollable_fd(&self) -> Option<RawFd> {
        Some(self.ep)
    }

    fn syscalls(&self) -> u64 {
        self.syscalls.load(Ordering::Relaxed)
    }
}

impl Drop for EpollReactor {
    fn drop(&mut self) {
        let _ = sys::close(self.ep);
    }
}

/// What a registered source shares with the driver that dispatches to it.
struct Readiness {
    /// `generation << 32 | fd`: the tag this registration's events carry.
    token: u64,
    slots: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    /// Edges seen and not yet handed to a live waiter ([`READ`] | [`WRITE`]).
    ready: u8,
    read: Option<Waiter>,
    write: Option<Waiter>,
}

impl Slots {
    fn slot(&mut self, write: bool) -> &mut Option<Waiter> {
        if write {
            &mut self.write
        } else {
            &mut self.read
        }
    }
}

/// A pollable fd and its reactor registration: what [`crate::net`]'s
/// sockets hold.  The source owns the fd: dropping it deregisters the fd,
/// then closes it.
///
/// One reader and one writer may wait concurrently; a second waiter in
/// the same direction displaces the first with a spurious wake.
pub struct IoSource {
    fd: RawFd,
    /// Made at the first wait, with the driver of the waiting thread's VM.
    reg: OnceLock<sys::Result<Registration>>,
}

struct Registration {
    driver: Arc<IoDriver>,
    readiness: Arc<Readiness>,
}

impl IoSource {
    /// Takes ownership of `fd`, a non-blocking pollable descriptor.
    pub fn new(fd: RawFd) -> IoSource {
        IoSource {
            fd,
            reg: OnceLock::new(),
        }
    }

    /// The descriptor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// The driver this source registered with, once it has.
    pub fn driver(&self) -> Option<&Arc<IoDriver>> {
        self.reg.get()?.as_ref().ok().map(|r| &r.driver)
    }

    /// Parks the calling thread until the fd is (probably) ready in the
    /// given direction (`write` = writability), the `deadline` passes, or
    /// the thread is cancelled.  Spurious returns are possible (an edge
    /// already consumed by the last syscall, a displaced waiter); callers
    /// retry the non-blocking syscall, which is what decides.
    ///
    /// The first wait registers the fd with `driver`; later waits use that
    /// registration whichever driver they name.  On a STING thread this
    /// blocks only the thread — the VP carries on.  The park rides a
    /// standard wait episode, so termination while parked unwinds cleanly
    /// and a late event fails the claim CAS instead of waking a recycled
    /// TCB.
    ///
    /// # Errors
    ///
    /// A failed registration surfaces as the raw errno, and a driver that
    /// has stopped — VM shutdown, or a dead reactor — reports
    /// [`ESHUTDOWN`](sys::ESHUTDOWN) so callers fail fast instead of
    /// parking against a reactor that will never deliver.
    pub fn wait_ready(
        &self,
        driver: &Arc<IoDriver>,
        write: bool,
        blocker: &Value,
        deadline: Option<Instant>,
    ) -> sys::Result<WakeReason> {
        let reg = self
            .reg
            .get_or_init(|| driver.register(self.fd))
            .as_ref()
            .map_err(|e| *e)?;
        reg.driver
            .wait_on(&reg.readiness, self.fd, write, blocker, deadline)
    }
}

impl Drop for IoSource {
    fn drop(&mut self) {
        if let Some(Ok(reg)) = self.reg.get() {
            reg.driver.deregister(self.fd, &reg.readiness);
        }
        let _ = sys::close(self.fd);
    }
}

impl std::fmt::Debug for IoSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoSource").field("fd", &self.fd).finish()
    }
}

/// The registered sources, indexed by fd.
#[derive(Default)]
struct Sources {
    by_fd: Vec<Option<Arc<Readiness>>>,
    generation: u64,
}

thread_local! {
    /// One event buffer per OS thread that polls, reused across polls.
    static EVENTS: Cell<Vec<ReadyEvent>> = const { Cell::new(Vec::new()) };
}

/// The per-VM reactor driver: owns the [`Reactor`] and the sources
/// registered with it, and turns readiness events into wake-ups.  The
/// reactor is built on first use; the driver has no thread — the machine's
/// workers call [`IoDriver::poll`] (see the module docs).
pub struct IoDriver {
    reactor: OnceLock<Arc<dyn Reactor>>,
    /// Serializes building (or installing) the reactor, starting the
    /// driver and stopping it.
    starting: Mutex<()>,
    /// Started and not stopped: the one check a worker's pass makes.
    live: AtomicBool,
    /// Set once, under the `sources` write lock, when the driver can no
    /// longer deliver events — shutdown, or a fatal reactor error.
    stopped: AtomicBool,
    sources: RwLock<Sources>,
    /// The machine mux the reactor sits in, if any.
    mux: Mutex<Option<Arc<PollerMux>>>,
    /// Backend label ("epoll", or "custom" for an installed test
    /// reactor), for [`IoDriver::stats`].
    label: OnceLock<&'static str>,
    /// For its counts, trace events and the machine link; set once by
    /// [`Vm::create`](crate::vm::Vm).  The driver counts its wake-ups and
    /// interest-set changes on the machine's stats lanes.
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
            reactor: OnceLock::new(),
            starting: Mutex::new(()),
            live: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            sources: RwLock::new(Sources::default()),
            mux: Mutex::new(None),
            label: OnceLock::new(),
            vm: OnceLock::new(),
        }
    }

    /// Current counters: backend label, backend syscalls, wakes
    /// delivered.
    pub fn stats(&self) -> IoStats {
        IoStats {
            backend: self.label.get().copied().unwrap_or("unstarted"),
            syscalls: self.reactor.get().map_or(0, |r| r.syscalls()),
            wakes: self.counted().io_wakes,
        }
    }

    /// Interest-set changes the driver has asked of its reactor: one
    /// registration per source at its first wait, one deregistration as
    /// it closes — never one per wake.
    pub fn registrations(&self) -> u64 {
        self.counted().io_registrations
    }

    /// The machine's counters (all zero once it is gone).
    fn counted(&self) -> CounterSnapshot {
        let vm = self.vm.get().and_then(Weak::upgrade);
        vm.map(|vm| vm.counters().snapshot()).unwrap_or_default()
    }

    /// Counts one interest-set change on the caller's lane.
    fn count_registration(&self) {
        if let Some(vm) = self.vm.get().and_then(Weak::upgrade) {
            vm.counts(tls::lane_in(&vm)).io_registrations.bump();
        }
    }

    pub(crate) fn bind_vm(&self, vm: &Weak<Vm>) {
        let _ = self.vm.set(vm.clone());
    }

    /// Replaces the backend before first use (a test hook and the
    /// customization point for alternative [`Reactor`]s).  No-op once a
    /// reactor exists.
    pub fn install_reactor(&self, reactor: Arc<dyn Reactor>) {
        let _g = self.starting.lock();
        if self.reactor.set(reactor).is_ok() {
            let _ = self.label.set("custom");
        }
    }

    /// Whether a worker's pass should poll this driver.
    pub(crate) fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }

    /// The reactor's pollable fd, once there is a reactor.
    pub(crate) fn pollable_fd(&self) -> Option<RawFd> {
        self.reactor.get()?.pollable_fd()
    }

    /// Builds the reactor if none was installed, marks the driver live and
    /// puts the reactor in its machine's poller mux.
    fn start(self: &Arc<IoDriver>) -> sys::Result<&Arc<dyn Reactor>> {
        if !self.live.load(Ordering::Acquire) {
            let _g = self.starting.lock();
            if self.stopped.load(Ordering::Acquire) {
                return Err(sys::Errno(sys::ESHUTDOWN));
            }
            if !self.live.load(Ordering::Relaxed) {
                if self.reactor.get().is_none() {
                    let r: Arc<dyn Reactor> = Arc::new(EpollReactor::new()?);
                    let _ = self.label.set("epoll");
                    let _ = self.reactor.set(r);
                }
                self.live.store(true, Ordering::Release);
                if let Some(vm) = self.vm.get().and_then(Weak::upgrade) {
                    if let Err(e) = vm.machine.sync_reactor(self) {
                        self.live.store(false, Ordering::Release);
                        return Err(e);
                    }
                }
            }
        }
        Ok(self.reactor.get().expect("a live driver has a reactor"))
    }

    /// Moves the reactor into `to` (`None`: out of every mux).  A driver
    /// that is not live sits in none.  Called under the VM's attachment
    /// lock, so attach, detach and start apply in one order.
    pub(crate) fn remux(self: &Arc<IoDriver>, to: Option<&Arc<PollerMux>>) -> sys::Result<()> {
        let mut cur = self.mux.lock();
        let Some(fd) = self.pollable_fd() else {
            return Ok(());
        };
        let to = to.filter(|_| self.is_live());
        if let (Some(a), Some(b)) = (cur.as_ref(), to) {
            if Arc::ptr_eq(a, b) {
                return Ok(());
            }
        }
        if let Some(old) = cur.take() {
            old.remove(fd);
        }
        if let Some(new) = to {
            new.add(fd, self)?;
            *cur = Some(new.clone());
        }
        Ok(())
    }

    /// Takes the reactor out of its mux while its fd is still open.
    fn leave_mux(&self) {
        let old = self.mux.lock().take();
        if let (Some(old), Some(fd)) = (old, self.pollable_fd()) {
            old.remove(fd);
        }
    }

    fn register(self: &Arc<IoDriver>, fd: RawFd) -> sys::Result<Registration> {
        let reactor = self.start()?;
        let slot = usize::try_from(fd).map_err(|_| sys::Errno(sys::EBADF))?;
        let readiness = {
            let mut sources = self.sources.write();
            if self.stopped.load(Ordering::Relaxed) {
                return Err(sys::Errno(sys::ESHUTDOWN));
            }
            sources.generation += 1;
            let readiness = Arc::new(Readiness {
                token: sources.generation << 32 | u64::from(fd as u32),
                slots: Mutex::new(Slots::default()),
            });
            if sources.by_fd.len() <= slot {
                sources.by_fd.resize(slot + 1, None);
            }
            sources.by_fd[slot] = Some(readiness.clone());
            readiness
        };
        self.count_registration();
        if let Err(e) = reactor.register(fd, readiness.token) {
            self.unlist(slot, &readiness);
            return Err(e);
        }
        Ok(Registration {
            driver: self.clone(),
            readiness,
        })
    }

    fn deregister(&self, fd: RawFd, readiness: &Arc<Readiness>) {
        self.unlist(fd as usize, readiness);
        if let Some(reactor) = self.reactor.get() {
            self.count_registration();
            reactor.forget(fd);
        }
    }

    fn unlist(&self, slot: usize, readiness: &Arc<Readiness>) {
        let mut sources = self.sources.write();
        if let Some(entry) = sources.by_fd.get_mut(slot) {
            if entry.as_ref().is_some_and(|r| Arc::ptr_eq(r, readiness)) {
                *entry = None;
            }
        }
    }

    /// Takes whatever events the reactor has ready, without blocking, and
    /// wakes their waiters; returns how many it woke.  The machine's
    /// workers call this every pass and after the poller's wait; tests
    /// driving a scripted reactor call it themselves.  A driver that has
    /// not started, or has stopped, returns at once.
    pub fn poll(&self) -> usize {
        if !self.is_live() {
            return 0;
        }
        let Some(reactor) = self.reactor.get() else {
            return 0;
        };
        let mut events = EVENTS.take();
        let result = reactor.poll(&mut events);
        let mut woken = 0;
        if !events.is_empty() {
            let vm = self.vm.get().and_then(Weak::upgrade);
            for ev in events.drain(..) {
                woken += self.dispatch(ev, vm.as_deref());
            }
        }
        EVENTS.set(events);
        match result {
            Ok(()) | Err(sys::Errno(sys::EINTR)) => {}
            Err(sys::Errno(errno)) => {
                // The reactor is dead: surface the errno, then stop — every
                // parked waiter gets a spurious wake rather than hanging
                // until VM shutdown, and later registrations fail fast.
                if let Some(vm) = self.vm.get().and_then(Weak::upgrade) {
                    vm.note_id(None, EventKind::IoError, u64::MAX, errno as u32, 0);
                }
                self.stop();
            }
        }
        woken
    }

    /// Records the edges of one event on its source and wakes the waiters
    /// they are for.  Returns the wakes delivered.
    fn dispatch(&self, ev: ReadyEvent, vm: Option<&Vm>) -> usize {
        let fd = ev.token as u32;
        let readiness = {
            let sources = self.sources.read();
            match sources.by_fd.get(fd as usize) {
                Some(Some(r)) if r.token == ev.token => r.clone(),
                // A source forgotten since: the fd may be another's now.
                _ => return 0,
            }
        };
        let edges = if ev.mask & ERROR != 0 {
            READ | WRITE
        } else {
            ev.mask & (READ | WRITE)
        };
        let mut woken = 0;
        let mut slots = readiness.slots.lock();
        slots.ready |= edges;
        for (bit, write) in [(READ, false), (WRITE, true)] {
            if edges & bit == 0 {
                continue;
            }
            let Some(w) = slots.slot(write).take() else {
                continue;
            };
            // A dead episode fails the claim and leaves the edge pending.
            if let Some(id) = w.wake_id() {
                slots.ready &= !bit;
                woken += 1;
                if let Some(vm) = vm {
                    let lane = tls::lane_in(vm);
                    vm.note_id(lane, EventKind::IoReady, id, fd, ev.mask.into());
                }
            }
        }
        woken
    }

    /// One wait on a registered source (see [`IoSource::wait_ready`]).
    fn wait_on(
        &self,
        readiness: &Readiness,
        fd: RawFd,
        write: bool,
        blocker: &Value,
        deadline: Option<Instant>,
    ) -> sys::Result<WakeReason> {
        let w = Waiter::current();
        let bit = if write { WRITE } else { READ };
        let displaced = {
            let mut slots = readiness.slots.lock();
            // Checked under the source's lock: `stop` sets the mark before
            // it sweeps the slots, so a waiter stored here is either swept
            // or sees the mark.
            if self.stopped.load(Ordering::Acquire) {
                drop(slots);
                let _ = w.retire();
                return Err(sys::Errno(sys::ESHUTDOWN));
            }
            if slots.ready & bit != 0 {
                slots.ready &= !bit;
                drop(slots);
                let _ = w.retire();
                return Ok(WakeReason::Woken);
            }
            slots.slot(write).replace(w.clone())
        };
        if let Some(old) = displaced {
            old.wake();
        }
        tls::with(|cur| {
            if let Some(c) = cur {
                let (lane, thread) = (Some(c.vp.index()), &c.shared.thread);
                c.vm.note(lane, EventKind::IoWait, thread, fd as u32, bit.into());
            }
        });
        // A park that ends any way but a wake — timeout, cancellation, an
        // unwind — leaves its dead episode in the slot; take it back out.
        let mut guard = Unslot {
            readiness,
            write,
            waiter: &w,
            armed: true,
        };
        let reason = w.park_until(blocker, deadline);
        guard.armed = reason != WakeReason::Woken;
        drop(guard);
        Ok(reason)
    }

    /// Stops the driver: later registrations and waits fail fast, every
    /// parked waiter gets a spurious wake, and the reactor leaves its
    /// machine's mux.  Idempotent.
    pub(crate) fn stop(&self) {
        let _g = self.starting.lock();
        let listed: Vec<Arc<Readiness>> = {
            let sources = self.sources.write();
            self.stopped.store(true, Ordering::Release);
            sources.by_fd.iter().flatten().cloned().collect()
        };
        self.live.store(false, Ordering::Release);
        self.leave_mux();
        for readiness in listed {
            let parked = {
                let mut slots = readiness.slots.lock();
                [slots.read.take(), slots.write.take()]
            };
            for w in parked.into_iter().flatten() {
                w.wake();
            }
        }
    }
}

impl Drop for IoDriver {
    fn drop(&mut self) {
        self.leave_mux();
    }
}

/// Clears a source's slot of its own dead episode on every exit of
/// [`IoDriver::wait_on`] but a wake, an unwind out of the park included.
struct Unslot<'a> {
    readiness: &'a Readiness,
    write: bool,
    waiter: &'a Waiter,
    armed: bool,
}

impl Drop for Unslot<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut slots = self.readiness.slots.lock();
        let slot = slots.slot(self.write);
        if slot.as_ref().is_some_and(|w| w.same_episode(self.waiter)) {
            *slot = None;
        }
    }
}

/// The machine's poller mux: one epoll instance holding every attached
/// VM's reactor fd (level-triggered, so it stays readable while that
/// reactor has events pending) and the machine's kick eventfd.  Only the
/// worker holding the poller role waits on it, and only that wait drains
/// the kick: a look that drained it without blocking would strand the
/// poller it was written for.
pub(crate) struct PollerMux {
    ep: RawFd,
    kick: RawFd,
    members: Mutex<Vec<(RawFd, Weak<IoDriver>)>>,
}

/// The mux's token for its kick eventfd; members are keyed by their fds.
const KICK_TOKEN: u64 = u64::MAX;

impl PollerMux {
    /// An epoll instance with a fresh kick eventfd, registered
    /// level-triggered: a pending kick keeps every wait returning until the
    /// poller drains it.
    pub(crate) fn new() -> sys::Result<PollerMux> {
        let ep = sys::epoll_create1()?;
        let kick = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                let _ = sys::close(ep);
                return Err(e);
            }
        };
        // From here on, dropping the mux closes both.
        let mux = PollerMux {
            ep,
            kick,
            members: Mutex::new(Vec::new()),
        };
        sys::epoll_ctl(ep, sys::EPOLL_CTL_ADD, kick, sys::EPOLLIN, KICK_TOKEN)?;
        Ok(mux)
    }

    fn add(&self, fd: RawFd, driver: &Arc<IoDriver>) -> sys::Result<()> {
        let mut members = self.members.lock();
        sys::epoll_ctl(self.ep, sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, fd as u64)?;
        members.push((fd, Arc::downgrade(driver)));
        Ok(())
    }

    fn remove(&self, fd: RawFd) {
        let mut members = self.members.lock();
        members.retain(|&(member, _)| member != fd);
        let _ = sys::epoll_ctl(self.ep, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Ends the poller's wait, from any thread.
    pub(crate) fn kick(&self) {
        let _ = sys::write(self.kick, &1u64.to_ne_bytes());
    }

    /// The poller's wait: blocks until a member reactor has events, the
    /// kick is written or `timeout` (rounded up to whole milliseconds, so
    /// never short of it) passes; drains the kick, and pushes the drivers
    /// whose reactors have events onto `fired` (empty after a kick or a
    /// timeout).
    pub(crate) fn wait(
        &self,
        fired: &mut Vec<Arc<IoDriver>>,
        timeout: Option<Duration>,
    ) -> sys::Result<()> {
        let ms = timeout.map_or(-1, |t| {
            t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
        });
        let mut buf = [sys::EpollEvent::zeroed(); 16];
        let n = sys::epoll_wait(self.ep, &mut buf, ms)?;
        for ev in &buf[..n] {
            let token = ev.data;
            if token == KICK_TOKEN {
                let mut count = [0u8; 8];
                let _ = sys::read(self.kick, &mut count);
                continue;
            }
            let members = self.members.lock();
            let member = members.iter().find(|&&(fd, _)| fd as u64 == token);
            if let Some(driver) = member.and_then(|(_, d)| d.upgrade()) {
                fired.push(driver);
            }
        }
        Ok(())
    }
}

impl Drop for PollerMux {
    fn drop(&mut self) {
        let _ = sys::close(self.kick);
        let _ = sys::close(self.ep);
    }
}

#[cfg(all(test, not(sting_check)))]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A scripted reactor: readiness is injected by the test, so driver
    /// behaviour is deterministic — no real fds, no timing.
    #[derive(Default)]
    struct ScriptedReactor {
        registered: Mutex<Vec<(RawFd, u64)>>,
        queue: Mutex<Vec<ReadyEvent>>,
    }

    impl ScriptedReactor {
        fn token(&self, fd: RawFd) -> u64 {
            let registered = self.registered.lock();
            registered
                .iter()
                .rev()
                .find(|r| r.0 == fd)
                .expect("registered")
                .1
        }

        fn inject(&self, fd: RawFd, mask: u8) {
            let token = self.token(fd);
            self.queue.lock().push(ReadyEvent { token, mask });
        }
    }

    impl Reactor for ScriptedReactor {
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

    fn scripted() -> (Arc<IoDriver>, Arc<ScriptedReactor>) {
        let driver = Arc::new(IoDriver::new());
        let reactor = Arc::new(ScriptedReactor::default());
        driver.install_reactor(reactor.clone());
        (driver, reactor)
    }

    /// Registers `source` by a first wait whose deadline has already
    /// passed.
    fn register(driver: &Arc<IoDriver>, source: &IoSource) {
        let r = source.wait_ready(driver, false, &Value::sym("io-read"), Some(Instant::now()));
        assert_eq!(r, Ok(WakeReason::TimedOut));
    }

    /// Polls `driver` from a helper thread until it delivers a wake.
    fn poll_until_woken(driver: &Arc<IoDriver>) -> std::thread::JoinHandle<()> {
        let driver = driver.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            while driver.poll() == 0 {
                assert!(Instant::now() < deadline, "nobody was woken");
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    }

    #[test]
    fn driver_wakes_on_injected_readiness() {
        let (driver, reactor) = scripted();
        // The driver counts on its machine's stats lanes.
        let vm = crate::VmBuilder::new().vps(1).build();
        driver.bind_vm(&Arc::downgrade(&vm));
        let source = IoSource::new(sys::eventfd().unwrap());
        register(&driver, &source);
        let fd = source.fd();
        // The source registered once, for both directions, with a
        // generation-tagged token.
        assert_eq!(reactor.token(fd) as u32, fd as u32);
        assert_ne!(reactor.token(fd) >> 32, 0);

        let injector = {
            let reactor = reactor.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                reactor.inject(fd, READ);
            })
        };
        let poller = poll_until_woken(&driver);
        let reason = source
            .wait_ready(&driver, false, &Value::sym("io-read"), None)
            .unwrap();
        assert_eq!(reason, WakeReason::Woken);
        injector.join().unwrap();
        poller.join().unwrap();
        assert_eq!(reactor.registered.lock().len(), 1, "one registration");
        assert_eq!(driver.stats().wakes, 1);
        driver.stop();
        vm.shutdown();
    }

    #[test]
    fn driver_timeout_leaves_registry_clean() {
        let (driver, _reactor) = scripted();
        let source = IoSource::new(sys::eventfd().unwrap());
        let deadline = Instant::now() + Duration::from_millis(30);
        let reason = source
            .wait_ready(&driver, true, &Value::sym("io-write"), Some(deadline))
            .unwrap();
        assert_eq!(reason, WakeReason::TimedOut);
        let reg = source.reg.get().unwrap().as_ref().unwrap();
        let slots = reg.readiness.slots.lock();
        assert!(slots.write.is_none() && slots.read.is_none());
        drop(slots);
        driver.stop();
    }

    /// A second same-direction waiter takes the slot and wakes the first
    /// spuriously, so it can retry (and re-register) instead of hanging.
    #[test]
    fn source_displaces_same_direction_waiter() {
        let (driver, reactor) = scripted();
        let source = Arc::new(IoSource::new(sys::eventfd().unwrap()));
        register(&driver, &source);
        let first = {
            let (driver, source) = (driver.clone(), source.clone());
            std::thread::spawn(move || source.wait_ready(&driver, false, &Value::sym("a"), None))
        };
        let reg = source.reg.get().unwrap().as_ref().unwrap();
        while reg.readiness.slots.lock().read.is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = {
            let (driver, source) = (driver.clone(), source.clone());
            std::thread::spawn(move || source.wait_ready(&driver, false, &Value::sym("b"), None))
        };
        assert_eq!(first.join().unwrap(), Ok(WakeReason::Woken));
        reactor.inject(source.fd(), READ);
        let poller = poll_until_woken(&driver);
        assert_eq!(second.join().unwrap(), Ok(WakeReason::Woken));
        poller.join().unwrap();
        driver.stop();
    }

    /// A dead episode never eats an edge: an event dispatched to a waiter
    /// that timed out (its slot not yet cleared) stays pending for the
    /// next wait, which returns without parking.
    #[test]
    fn dead_episode_leaves_the_edge_pending() {
        let (driver, reactor) = scripted();
        let source = IoSource::new(sys::eventfd().unwrap());
        register(&driver, &source);
        let reg = source.reg.get().unwrap().as_ref().unwrap();
        // Plant a finished episode in the read slot, as a timed-out waiter
        // whose guard has not yet run would leave it.
        let dead = Waiter::current();
        assert!(!dead.retire());
        reg.readiness.slots.lock().read = Some(dead);
        reactor.inject(source.fd(), READ);
        assert_eq!(driver.poll(), 0, "the dead episode took no wake");
        let start = Instant::now();
        let reason = source.wait_ready(
            &driver,
            false,
            &Value::sym("io-read"),
            Some(start + Duration::from_secs(5)),
        );
        assert_eq!(reason, Ok(WakeReason::Woken));
        assert!(start.elapsed() < Duration::from_secs(1));
        driver.stop();
    }

    /// Events carrying an old generation's token — a source closed and its
    /// fd number registered again — reach nobody.
    #[test]
    fn stale_token_reaches_nobody() {
        let (driver, reactor) = scripted();
        let fd = sys::eventfd().unwrap();
        let first = IoSource::new(fd);
        register(&driver, &first);
        let stale = reactor.token(fd);
        // Forget the registration without closing the fd, so the next
        // source gets the same number.
        let reg = first.reg.get().unwrap().as_ref().unwrap();
        driver.deregister(fd, &reg.readiness);
        std::mem::forget(first);
        let second = IoSource::new(fd);
        register(&driver, &second);
        assert_ne!(reactor.token(fd), stale);
        reactor.queue.lock().push(ReadyEvent {
            token: stale,
            mask: READ,
        });
        assert_eq!(driver.poll(), 0);
        let reg = second.reg.get().unwrap().as_ref().unwrap();
        assert_eq!(reg.readiness.slots.lock().ready, 0, "stale edge recorded");
        driver.stop();
    }

    /// A wait racing `stop()` must not park against a stopped driver:
    /// registration and every later wait fail fast with `ESHUTDOWN`.
    #[test]
    fn wait_ready_after_stop_fails_fast() {
        let (driver, _reactor) = scripted();
        let registered = IoSource::new(sys::eventfd().unwrap());
        register(&driver, &registered);
        driver.stop();
        let err = registered
            .wait_ready(&driver, false, &Value::sym("io-read"), None)
            .unwrap_err();
        assert_eq!(err.0, sys::ESHUTDOWN);
        let fresh = IoSource::new(sys::eventfd().unwrap());
        let err = fresh
            .wait_ready(&driver, false, &Value::sym("io-read"), None)
            .unwrap_err();
        assert_eq!(err.0, sys::ESHUTDOWN);
    }

    /// A reactor whose `wait` fails with EBADF — the backend dying
    /// underneath a running driver.
    struct DyingReactor;

    impl Reactor for DyingReactor {
        fn register(&self, _fd: RawFd, _token: u64) -> sys::Result<()> {
            Ok(())
        }

        fn forget(&self, _fd: RawFd) {}

        fn poll(&self, _out: &mut Vec<ReadyEvent>) -> sys::Result<()> {
            Err(sys::Errno(sys::EBADF))
        }
    }

    /// A reactor error must not strand parked waiters: the poll that meets
    /// it stops the driver, which wakes everyone, and later registrations
    /// fail fast.
    #[test]
    fn reactor_failure_wakes_parked_waiters() {
        let driver = Arc::new(IoDriver::new());
        driver.install_reactor(Arc::new(DyingReactor));
        let source = Arc::new(IoSource::new(sys::eventfd().unwrap()));
        register(&driver, &source);
        let parked = {
            let (driver, source) = (driver.clone(), source.clone());
            std::thread::spawn(move || source.wait_ready(&driver, false, &Value::sym("r"), None))
        };
        let reg = source.reg.get().unwrap().as_ref().unwrap();
        while reg.readiness.slots.lock().read.is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(driver.poll(), 0);
        assert_eq!(parked.join().unwrap(), Ok(WakeReason::Woken));
        let err = source
            .wait_ready(&driver, false, &Value::sym("io-read"), None)
            .unwrap_err();
        assert_eq!(err.0, sys::ESHUTDOWN);
    }

    /// Polls `reactor` into `out` until it reports something, for a second
    /// at most: an edge the kernel has not delivered yet is not missed.
    fn poll_for_an_edge(reactor: &EpollReactor, out: &mut Vec<ReadyEvent>) {
        let deadline = Instant::now() + Duration::from_secs(1);
        reactor.poll(out).unwrap();
        while out.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            reactor.poll(out).unwrap();
        }
    }

    #[test]
    fn epoll_reactor_round_trip() {
        let reactor = EpollReactor::new().unwrap();
        let (a, b) = sys::socketpair_stream().unwrap();
        reactor.register(b, 42).unwrap();
        // Registration reports the current state once: writable.
        let mut out = Vec::new();
        reactor.poll(&mut out).unwrap();
        assert_eq!(
            out,
            vec![ReadyEvent {
                token: 42,
                mask: WRITE,
            }]
        );
        out.clear();
        reactor.poll(&mut out).unwrap();
        assert!(out.is_empty(), "an edge is reported once");
        sys::write(a, b"hi").unwrap();
        poll_for_an_edge(&reactor, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].token, out[0].mask & READ), (42, READ));
        // The peer hanging up is a read edge (EOF for the retried read).
        out.clear();
        sys::close(a).unwrap();
        poll_for_an_edge(&reactor, &mut out);
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].mask & (READ | ERROR), 0);
        reactor.forget(b);
        let _ = sys::close(b);
    }

    /// More ready fds than the 64-slot `epoll_wait` buffer: one poll must
    /// stop at the buffer's edge, and the rest must arrive over the next
    /// polls, each fd's edge exactly once.
    #[test]
    fn epoll_burst_outruns_the_wait_buffer() {
        let reactor = EpollReactor::new().unwrap();
        let pairs: Vec<_> = (0..160)
            .map(|_| sys::socketpair_stream().unwrap())
            .collect();
        for &(a, _) in &pairs {
            sys::write(a, b"x").unwrap();
        }
        for &(_, b) in &pairs {
            reactor.register(b, b as u64).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut polls = 0;
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.len() < pairs.len() && Instant::now() < deadline {
            out.clear();
            reactor.poll(&mut out).unwrap();
            assert!(out.len() <= 64, "one poll returned {} events", out.len());
            polls += usize::from(!out.is_empty());
            for ev in &out {
                assert_ne!(ev.mask & READ, 0);
                assert!(seen.insert(ev.token), "fd {} reported twice", ev.token);
            }
        }
        assert_eq!(
            seen.len(),
            pairs.len(),
            "every registered fd must report in"
        );
        assert!(polls >= 3, "160 events fit in {polls} polls of 64");
        for (a, b) in pairs {
            let _ = sys::close(a);
            let _ = sys::close(b);
        }
    }

    /// The poller mux reports a member reactor with events pending, and a
    /// kick ends its wait with nothing fired.
    #[test]
    fn mux_reports_member_reactors_and_kicks() {
        let mux = PollerMux::new().unwrap();
        let driver = Arc::new(IoDriver::new());
        let source = IoSource::new(sys::eventfd().unwrap());
        register(&driver, &source);
        driver.remux(Some(&Arc::new(mux))).unwrap();
        let mux = driver.mux.lock().clone().unwrap();
        let mut fired = Vec::new();
        // The eventfd registered writable, so the reactor has an event.
        mux.wait(&mut fired, None).unwrap();
        assert_eq!(fired.len(), 1);
        assert!(Arc::ptr_eq(&fired[0], &driver));
        fired.clear();
        driver.poll();
        mux.kick();
        mux.wait(&mut fired, None).unwrap();
        assert!(fired.is_empty(), "a kick fires no reactor");
        let (t0, timeout) = (Instant::now(), Duration::from_micros(1_500));
        mux.wait(&mut fired, Some(timeout)).unwrap();
        assert!(fired.is_empty() && t0.elapsed() >= timeout, "rounded up");
        driver.stop();
        assert!(
            driver.mux.lock().is_none(),
            "a stopped driver leaves the mux"
        );
    }
}
