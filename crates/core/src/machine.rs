//! The physical machine: OS worker threads multiplexing virtual processors.
//!
//! "Virtual processors are multiplexed on physical processors in the same
//! way that threads are multiplexed on virtual processors."  A
//! [`PhysicalMachine`] owns `n` worker OS threads (the physical processors)
//! and no other thread: no clock ticks for it.  Several virtual machines
//! may be attached to one physical machine (they are held weakly —
//! dropping a `Vm` detaches it).  No VP belongs to a worker: each VP has an
//! owner word ([`crate::deque::OwnerWord`]), and a worker's pass offers
//! every VP of every attached VM, running one slice of each whose word it
//! wins.  Each worker starts its pass at a different VP (worker `w` of `p`
//! at `w/p` of the way along the VMs' VPs in attach order), so while there
//! are as many VPs as workers each VP keeps the worker it had; a worker
//! stuck in one VP's slice leaves every other VP to the rest.
//!
//! ## Parking and waking
//!
//! A worker with nothing to run parks on its own `std::thread::park`, with
//! no shared lock, until the earliest timer deadline of the attached VMs
//! (no timeout while none is pending).  One atomic word per machine
//! (`IdleWorkers`) holds a mask of the parked workers and a count of the
//! workers that were woken and are still looking for work (*searching*).
//!
//! * **Going to sleep.**  A worker whose pass finds nothing announces
//!   itself idle (a SeqCst RMW on the word) and runs its pass once more —
//!   which also tries to steal.  It parks only if that pass finds nothing.
//! * **Signalling.**  Whoever queues work from outside the VP's slice
//!   publishes it, fences (SeqCst) and reads the word, and *claims* one
//!   idle worker — its bit cleared, the searching count raised — and
//!   unparks it, unless a worker is searching already: a searcher will
//!   find the work.  Either the read sees an announcement or the
//!   announcing worker's second pass sees the work, so no wake is lost
//!   (`crates/core/tests/model_park.rs` checks the pair).  Nobody idle:
//!   one fence and one load, no syscall.  Work no other VP may take, on a
//!   VP whose word is held, wakes nobody: its owner pops it next.  A slice
//!   that ran its queue dry gives the word back, fences and looks at the
//!   queue and the shard's inbox once more, so a submission or mail
//!   that saw the word held is not left behind (the same Dekker pair,
//!   checked there too).
//! * **Stealing.**  An owner push on a stealable queue claims one idle
//!   worker the same way, to steal it through another VP of the VM.  The
//!   push reads the word without the fence, so it can miss a worker that is
//!   announcing itself idle.  Nothing offers that work again: while the
//!   owner keeps running other threads, what it pushed stays on its VP and
//!   the idle worker sleeps — the work is stranded until the owner reaches
//!   it, not merely a steal late.  `fork_on_a_busy_vp_wakes_the_idle_sibling`
//!   (`crates/core/tests/substrate.rs`) reproduces it: it times out in a
//!   few runs in a hundred.
//! * **Chaining.**  A searching worker that finds work and was the last
//!   searcher claims one more idle worker, so a burst of work spreads one
//!   wake at a time instead of as a herd.
//! * **Polling.**  The workers run the VMs' reactors ([`crate::reactor`]);
//!   there is no reactor thread.  A pass polls, without blocking, the live
//!   reactor of every attached VM.  Once some VM on the machine has
//!   started its reactor, the machine has a *poller mux*: one epoll
//!   instance holding every attached VM's reactor and a kick eventfd.  A
//!   worker about to park takes the *poller* role if nobody holds it and
//!   blocks in the mux instead of `std::thread::park`; an I/O event ends
//!   that park as a claim does, and the poller polls the reactors that
//!   fired before it looks for work.  A claimer that finds the worker it
//!   claimed holding the role *kicks* it (writes the eventfd) instead of
//!   unparking it.  Taking the role (a SeqCst store, then a re-read of the
//!   idle word) against a claim (an RMW on the word, then a SeqCst read of
//!   the role) is the same Dekker pair as announcing against publishing,
//!   and only the poller's blocking wait drains the kick: a non-blocking
//!   look that drained it would strand the poller the kick was for (both
//!   checked in `model_park.rs`).
//! * **Timers.**  A pass fires the due timers of every attached VM
//!   ([`crate::timers`]).  The second pass also reads, after the
//!   announcement, the earliest deadline of the attached VMs, and the park
//!   ends there: a `park_timeout`, or the poller's `epoll_wait` timeout
//!   rounded up to whole milliseconds.  A timer add that lowers a VM's
//!   earliest deadline publishes it, fences and reads the idle word like a
//!   signal, and claims one idle worker, so no deadline is slept past (the
//!   pair is checked in `model_park.rs`).
//!
//! Preemption needs no clock thread either: a running thread's slice
//! deadline is checked at its own checkpoints ([`crate::tc::checkpoint`]).

use crate::pad::CachePadded;
use crate::reactor::{IoDriver, PollerMux};
use crate::sys;
use crate::vm::Vm;
use crate::vp::Vp;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;
use std::time::Duration;

#[cfg(sting_check)]
pub use idle::IdleWorkers;
#[cfg(not(sting_check))]
use idle::IdleWorkers;
use idle::MAX_WORKERS;

/// The idle-worker word.  Under `--cfg sting_check` its atomics are the
/// model checker's shims and the type is exported, so `ci.sh check`
/// explores this exact source (`crates/core/tests/model_park.rs`).
mod idle {
    #[cfg(not(sting_check))]
    use std::sync::atomic::{fence, AtomicU64, Ordering};
    #[cfg(sting_check)]
    use sting_check::atomic::{fence, AtomicU64, Ordering};

    /// The most workers one machine tracks: a mask bit each, with the
    /// searching count in the bits above them.
    pub const MAX_WORKERS: usize = 56;
    const SEARCHING: u64 = 1 << MAX_WORKERS;
    const IDLE: u64 = SEARCHING - 1;

    const fn bit(worker: usize) -> u64 {
        1 << worker
    }

    /// The lowest bit of `mask`.
    const fn first(mask: u64) -> u64 {
        mask & mask.wrapping_neg()
    }

    /// A machine's idle-worker mask and searching count, in one word (see
    /// the module docs, "Parking and waking"), and which idle worker holds
    /// the poller role.  A worker is *claimed* when a signaller clears its
    /// bit and counts it as searching in one CAS; the claimer then unparks
    /// it, or kicks it if it is the poller.
    #[derive(Debug, Default)]
    pub struct IdleWorkers {
        word: AtomicU64,
        /// The poller's index plus one; 0 while nobody holds the role.
        poller: AtomicU64,
    }

    impl IdleWorkers {
        /// Worker `w` found nothing and is about to park.  The fence orders
        /// the caller's next look for work after the announcement.
        pub fn announce(&self, w: usize) {
            self.word.fetch_or(bit(w), Ordering::SeqCst);
            fence(Ordering::SeqCst);
        }

        /// Worker `w` found work after announcing.  `true` if it withdrew
        /// its own announcement; `false` if a signaller claimed it first,
        /// which makes it a searcher.
        pub fn retract(&self, w: usize) -> bool {
            self.word.fetch_and(!bit(w), Ordering::AcqRel) & bit(w) != 0
        }

        /// Whether `w` is announced and not yet claimed.
        pub fn is_idle(&self, w: usize) -> bool {
            self.word.load(Ordering::Acquire) & bit(w) != 0
        }

        /// The idle mask as a signaller that has just published work reads
        /// it.  The SeqCst fence pairs with [`IdleWorkers::announce`]:
        /// either this read sees a worker's announcement, or that worker's
        /// next look sees the work.
        pub fn idle_after_publish(&self) -> u64 {
            fence(Ordering::SeqCst);
            self.word.load(Ordering::Relaxed) & IDLE
        }

        /// Claims the first idle worker, unless a worker is searching
        /// already.  Like every claim, returns the mask of the workers the
        /// caller must unpark.
        pub fn claim_one(&self) -> u64 {
            self.claim(|cur| if cur >= SEARCHING { 0 } else { first(cur) })
        }

        /// Claims every idle worker.
        pub fn claim_all(&self) -> u64 {
            self.claim(|cur| cur)
        }

        /// Claims the idle workers `pick` chooses from the current word:
        /// clears their bits and counts each as searching, in one CAS.
        fn claim(&self, pick: impl Fn(u64) -> u64) -> u64 {
            let mut cur = self.word.load(Ordering::Relaxed);
            loop {
                let claimed = pick(cur) & cur & IDLE;
                if claimed == 0 {
                    return 0;
                }
                let next = (cur & !claimed) + u64::from(claimed.count_ones()) * SEARCHING;
                match self
                    .word
                    .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Relaxed)
                {
                    Ok(_) => return claimed,
                    Err(now) => cur = now,
                }
            }
        }

        /// A searching worker stops searching; `true` if it was the last.
        pub fn end_search(&self) -> bool {
            let before = self.word.fetch_sub(SEARCHING, Ordering::AcqRel);
            debug_assert!(before >= SEARCHING, "a search ended that never began");
            before >> MAX_WORKERS == 1
        }

        /// Announced worker `w` takes the poller role, if nobody holds it.
        /// `true` if it did and is still unclaimed, so it may block in the
        /// mux.  The store and the fence before the re-read pair with
        /// [`IdleWorkers::poller_among`]: either that read sees the role,
        /// or this one sees the claim (and the role is handed back).
        pub fn become_poller(&self, w: usize) -> bool {
            let me = w as u64 + 1;
            if self
                .poller
                .compare_exchange(0, me, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                return false;
            }
            fence(Ordering::SeqCst);
            if self.word.load(Ordering::Relaxed) & bit(w) != 0 {
                return true;
            }
            self.poller.store(0, Ordering::Release);
            false
        }

        /// The poller leaves the role.
        pub fn step_down(&self) {
            self.poller.store(0, Ordering::Release);
        }

        /// The poller, if the claim that returned `claimed` took it: the
        /// claimer must kick that worker rather than unpark it.
        pub fn poller_among(&self, claimed: u64) -> Option<usize> {
            fence(Ordering::SeqCst);
            match self.poller.load(Ordering::Relaxed) {
                0 => None,
                p => {
                    let w = (p - 1) as usize;
                    (claimed & bit(w) != 0).then_some(w)
                }
            }
        }
    }
}

/// Who queued the work a signal announces ([`Vm::signal_work`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Queued {
    /// The VP's owner, mid-slice, on a stealable queue: it will run the
    /// work itself, so only an idle worker that could steal it is worth
    /// waking.
    ByOwner,
    /// Anyone else.  An idle worker is woken to run the VP — unless the
    /// VP's word is held and the work is not `stealable`: then the owner
    /// sees it at its next pop, or at the look after its slice runs dry.
    Remotely {
        /// Whether another VP of the VM may run the work.
        stealable: bool,
    },
}

struct MachineShared {
    /// The attached VMs, in attach order.
    vms: RwLock<Vec<Weak<Vm>>>,
    stop: AtomicBool,
    idle: CachePadded<IdleWorkers>,
    /// Each worker's thread, registered by the worker before it first
    /// announces itself idle.
    workers: Box<[OnceLock<Thread>]>,
    /// The poller's mux, built when the first VM reactor on this machine
    /// starts.
    mux: OnceLock<sys::Result<Arc<PollerMux>>>,
}

/// A set of physical processors (OS threads) driving virtual machines.
pub struct PhysicalMachine {
    shared: Arc<MachineShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A VM's handle on the machine that drives it ([`Vm::machine`]).
///
/// [`PhysicalMachine::attach`] replaces it and `detach` clears it, so the
/// machine [`Vm::signal_work`] wakes is always the attached one; and a
/// signal — there is one per enqueue — finds it with a single load: no
/// lock taken, no reference counted.
pub(crate) struct Attachment {
    /// The attached machine's wake state; null while detached.  Points into
    /// `held.links`.
    signalled: AtomicPtr<MachineShared>,
    held: Mutex<Held>,
}

#[derive(Default)]
struct Held {
    /// The attached machine: a VM keeps its machine alive (`VmBuilder`
    /// makes one per VM by default).
    machine: Option<Arc<PhysicalMachine>>,
    /// The wake state of every machine `signalled` has pointed at, once
    /// each.  A signaller that loaded the pointer just before a re-attach
    /// must still find it there, so these are released only with the VM.
    /// (They hold no workers: those stop when the `PhysicalMachine` drops.)
    links: Vec<Arc<MachineShared>>,
}

impl Attachment {
    pub(crate) fn new() -> Attachment {
        Attachment {
            signalled: AtomicPtr::new(std::ptr::null_mut()),
            held: Mutex::new(Held::default()),
        }
    }

    /// Points the VM at `machine`.  Returns the machine it displaces, for
    /// the caller to drop outside the lock: the last reference to a machine
    /// joins workers that may be signalling this very VM.
    fn attach(&self, machine: &Arc<PhysicalMachine>) -> Option<Arc<PhysicalMachine>> {
        let mut held = self.held.lock();
        let shared = &machine.shared;
        if !held.links.iter().any(|l| Arc::ptr_eq(l, shared)) {
            held.links.push(shared.clone());
        }
        self.signalled
            .store(Arc::as_ptr(shared).cast_mut(), Ordering::Release);
        held.machine.replace(machine.clone())
    }

    /// Clears the handle if it is `machine`'s; returns what it held.
    fn detach(&self, machine: &PhysicalMachine) -> Option<Arc<PhysicalMachine>> {
        let mut held = self.held.lock();
        if !held
            .machine
            .as_ref()
            .is_some_and(|m| std::ptr::eq(Arc::as_ptr(m), machine))
        {
            return None;
        }
        self.signalled
            .store(std::ptr::null_mut(), Ordering::Release);
        held.machine.take()
    }

    /// Puts `driver`'s reactor in the poller mux of the machine the VM is
    /// attached to, or out of every mux while it is detached.  Under the
    /// attachment lock, so a start racing an attach lands in the machine
    /// the attach leaves in place.
    pub(crate) fn sync_reactor(&self, driver: &Arc<IoDriver>) -> sys::Result<()> {
        let held = self.held.lock();
        if driver.pollable_fd().is_none() {
            return Ok(());
        }
        let mux = match &held.machine {
            Some(machine) => Some(machine.shared.mux()?),
            None => None,
        };
        driver.remux(mux)
    }

    /// The attached machine's wake state, if any.
    fn signalled(&self) -> Option<&MachineShared> {
        let shared = self.signalled.load(Ordering::Acquire);
        // SAFETY: a non-null `signalled` points at an entry of
        // `held.links`, and entries are never removed while `self` lives.
        unsafe { shared.as_ref() }
    }

    /// Tells the attached machine, if any, that work was queued on `vp`,
    /// a VP of this VM.  `true` if a worker was unparked.
    pub(crate) fn signal_work(&self, vp: &Vp, queued: Queued) -> bool {
        self.signalled()
            .is_some_and(|shared| shared.signal(vp, queued))
    }

    /// Tells the attached machine, if any, that this VM's earliest timer
    /// deadline was lowered: one idle worker is claimed, to park again no
    /// later than the new deadline.
    pub(crate) fn signal_deadline(&self) {
        if let Some(shared) = self.signalled() {
            if shared.idle.idle_after_publish() != 0 {
                shared.unpark(shared.idle.claim_one());
            }
        }
    }
}

impl MachineShared {
    /// Wakes whom work queued on `vp` needs (see [`Queued`]).  `true` if a
    /// worker was unparked.
    fn signal(&self, vp: &Vp, queued: Queued) -> bool {
        if let Queued::Remotely { stealable } = queued {
            // The owner-word read is ordered by the same fence as the idle
            // read; it pairs with the one after a slice runs dry.
            if self.idle.idle_after_publish() == 0 || !stealable && vp.is_owned() {
                return false;
            }
        }
        self.unpark(self.idle.claim_one())
    }

    /// Unparks every idle worker, for work that appeared without an
    /// enqueue (a VM attached with its queues already full).
    fn wake_idle(&self) {
        if self.idle.idle_after_publish() != 0 {
            self.unpark(self.idle.claim_all());
        }
    }

    /// The poller's mux, built on first use.
    fn mux(&self) -> sys::Result<&Arc<PollerMux>> {
        self.mux
            .get_or_init(|| PollerMux::new().map(Arc::new))
            .as_ref()
            .map_err(|e| *e)
    }

    /// Wakes the workers a claim returned — kicking the poller, unparking
    /// the rest; `true` if there were any.
    ///
    /// An unpark is followed by a yield of the caller's OS thread: on a
    /// busy box the woken worker is often queued behind the caller, and
    /// would otherwise run only at the end of the caller's time slice —
    /// after the caller has absorbed the work it was woken for and parked
    /// itself, to be woken back in turn (E8, "No tick").
    fn unpark(&self, claimed: u64) -> bool {
        if claimed == 0 {
            return false;
        }
        let poller = self.idle.poller_among(claimed);
        let mut rest = claimed;
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            if poller == Some(w) {
                if let Some(Ok(mux)) = self.mux.get() {
                    mux.kick();
                }
            } else if let Some(thread) = self.workers[w].get() {
                thread.unpark();
                std::thread::yield_now();
            }
            rest &= rest - 1;
        }
        true
    }

    /// Offers every VP of every attached VM once, starting at worker
    /// `index`'s own place (module docs), and runs a slice of each VP whose
    /// owner word it wins; `true` if any ran a thread.  `searching`: the
    /// worker was claimed and has not yet found work.  Fires every attached
    /// VM's due timers and polls its reactor first, so what they wake runs
    /// this pass, and leaves in `wake_at` the earliest deadline left
    /// ([`crate::timers::nanos`]).
    fn pass(
        &self,
        index: usize,
        vms: &mut Vec<Arc<Vm>>,
        searching: &mut bool,
        wake_at: &mut u64,
    ) -> bool {
        vms.extend(self.vms.read().iter().filter_map(Weak::upgrade));
        let mut total = 0;
        for vm in vms.iter() {
            total += vm.vp_count();
            if !vm.is_stopped() {
                vm.process_timers();
                vm.io_driver().poll();
            }
        }
        let flat = || {
            vms.iter()
                .flat_map(|vm| vm.vps().iter().enumerate().map(move |(i, vp)| (vm, i, vp)))
        };
        let start = index * total / self.workers.len();
        let mut did_work = false;
        for (vm, i, vp) in flat().skip(start).chain(flat().take(start)) {
            if vp.is_owned() {
                continue;
            }
            vm.active_slices.fetch_add(1, Ordering::AcqRel);
            if !vm.is_stopped() {
                did_work |= vp.run_slice(vm, SLICE_BUDGET, || {
                    self.found_work(searching, vm, i);
                });
            }
            vm.active_slices.fetch_sub(1, Ordering::AcqRel);
        }
        *wake_at = vms
            .iter()
            .filter(|vm| !vm.is_stopped())
            .map(|vm| vm.timers().earliest())
            .min()
            .unwrap_or(crate::timers::NONE);
        // Drop the strong refs before parking so a detached VM's teardown
        // is never pinned by an idle worker.
        vms.clear();
        did_work
    }

    /// A worker is about to dispatch a thread of VP `vp` of `vm`.  A
    /// searcher stops searching there, and the last one to stop wakes a
    /// successor to look for more, as the signal that woke it would have.
    fn found_work(&self, searching: &mut bool, vm: &Vm, vp: usize) {
        if std::mem::take(searching) && self.idle.end_search() && self.unpark(self.idle.claim_one())
        {
            vm.counts(Some(vp)).worker_wakes.bump();
        }
    }

    /// Parks announced worker `index` until a signaller claims it, the
    /// machine stops, timer deadline `wake_at` passes, or — if it takes the
    /// poller role — a reactor in the mux has events, which it then polls.
    /// `true` if it comes back a searcher (claimed), `false` if it withdrew
    /// its announcement itself.
    fn park(&self, index: usize, fired: &mut Vec<Arc<IoDriver>>, wake_at: u64) -> bool {
        if let Some(Ok(mux)) = self.mux.get() {
            if self.idle.become_poller(index) {
                let mut searching = None;
                while searching.is_none() {
                    let left = crate::timers::until(wake_at);
                    if self.stop.load(Ordering::Acquire) || !self.idle.is_idle(index) {
                        searching = Some(true);
                    } else if !fired.is_empty() || left == Some(Duration::ZERO) {
                        searching = Some(!self.idle.retract(index));
                    } else if mux.wait(fired, left).is_err() {
                        break;
                    }
                }
                self.idle.step_down();
                for driver in fired.drain(..) {
                    driver.poll();
                }
                if let Some(searching) = searching {
                    return searching;
                }
            }
        }
        while self.idle.is_idle(index) && !self.stop.load(Ordering::Acquire) {
            match crate::timers::until(wake_at) {
                None => std::thread::park(),
                Some(Duration::ZERO) => return !self.idle.retract(index),
                Some(left) => std::thread::park_timeout(left),
            }
        }
        true
    }
}

impl std::fmt::Debug for PhysicalMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalMachine")
            .field("processors", &self.processors())
            .finish()
    }
}

/// How many threads one VP slice may run before the worker rotates to the
/// next VP; keeps one busy VP from starving its siblings on a worker.
const SLICE_BUDGET: usize = 16;

impl PhysicalMachine {
    /// Creates a machine with `processors` workers.  A machine has at least
    /// one worker and at most 56 (one bit each in its idle word); VPs
    /// beyond that are multiplexed over the workers it has.
    pub fn new(processors: usize) -> Arc<PhysicalMachine> {
        crate::tc::install_quiet_panic_hook();
        let processors = processors.clamp(1, MAX_WORKERS);
        let shared = Arc::new(MachineShared {
            vms: RwLock::new(Vec::new()),
            stop: AtomicBool::new(false),
            idle: CachePadded(IdleWorkers::default()),
            workers: (0..processors).map(|_| OnceLock::new()).collect(),
            mux: OnceLock::new(),
        });
        let workers = (0..processors)
            .map(|i| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sting-pp-{i}"))
                    .spawn(move || worker_loop(&s, i))
                    .expect("spawn physical processor")
            })
            .collect();
        Arc::new(PhysicalMachine {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Number of physical processors (workers).
    pub fn processors(&self) -> usize {
        self.shared.workers.len()
    }

    /// Attaches `vm` so its VPs are driven by this machine's workers.
    pub fn attach(self: &Arc<PhysicalMachine>, vm: &Arc<Vm>) {
        // The latest attachment is the one `Vm::signal_work` wakes; a VM
        // attached to two machines at once is still driven by the earlier
        // one, but only when that machine's workers wake for other reasons.
        {
            let mut vms = self.shared.vms.write();
            let me = Arc::downgrade(vm);
            vms.retain(|a| a.strong_count() > 0 && !a.ptr_eq(&me));
            vms.push(me);
        }
        drop(vm.machine.attach(self));
        // A VM whose reactor has started brings it into this poller's mux
        // (best effort: a busy worker's pass polls it regardless).
        let _ = vm.machine.sync_reactor(vm.io_driver());
        self.shared.wake_idle();
    }

    /// Detaches `vm`; its threads stop being scheduled.
    pub fn detach(&self, vm: &Arc<Vm>) {
        let target = Arc::downgrade(vm);
        self.shared.vms.write().retain(|a| !a.ptr_eq(&target));
        // Stop being the machine `vm` wakes (and stop being pinned by it).
        drop(vm.machine.detach(self));
        let _ = vm.machine.sync_reactor(vm.io_driver());
    }

    /// Stops all workers and joins them.  Called automatically on drop.
    ///
    /// If the last reference to the machine is dropped *by one of its own
    /// workers* (possible when a worker holds the final `Arc<Vm>`), that
    /// worker cannot join itself; it is detached instead and exits on its
    /// own once the stop flag is visible.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let me = std::thread::current().id();
        let mut workers = self.workers.lock();
        // Unpark every worker: one between reading `stop` and parking keeps
        // the token and returns from its park.
        // The poller, if any, is kicked: a kick stays pending until drained.
        for w in workers.iter() {
            w.thread().unpark();
        }
        if let Some(Ok(mux)) = self.shared.mux.get() {
            mux.kick();
        }
        for w in workers.drain(..) {
            if w.thread().id() == me {
                continue;
            }
            let _ = w.join();
        }
    }
}

impl Drop for PhysicalMachine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &MachineShared, index: usize) {
    // Registered before the first announcement, so a claimer always finds
    // the thread it must unpark.
    let _ = shared.workers[index].set(std::thread::current());
    // Reused across passes: re-collecting the attachment list every pass
    // costs an allocation per pass per worker, and a fleet multiplies the
    // pass frequency by its shard count.
    let mut vms = Vec::new();
    // The reactors that fired during a park as the poller.
    let mut fired = Vec::new();
    // Claimed by a signaller and not yet found work.
    let mut searching = false;
    // The earliest timer deadline the last pass left.
    let mut wake_at = crate::timers::NONE;
    while !shared.stop.load(Ordering::Acquire) {
        if shared.pass(index, &mut vms, &mut searching, &mut wake_at) {
            continue;
        }
        if std::mem::take(&mut searching) {
            shared.idle.end_search();
        }
        shared.idle.announce(index);
        // Read after the announcement, `wake_at` misses no lowered
        // deadline whose add did not see this worker idle.
        if shared.pass(index, &mut vms, &mut searching, &mut wake_at) {
            // Claimed while looking: a searcher, whose next dispatch ends
            // the search.
            searching = !shared.idle.retract(index);
        } else {
            searching = shared.park(index, &mut fired, wake_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::Fleet;
    use crate::vm::Vm;
    use crate::{policies, VmBuilder};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A worker stuck in one VP's slice strands no other VP.  A native
    /// spinner on `spin`'s VP 0 holds its worker without a checkpoint until
    /// a flag is set (5 s at most); a thread forked onto `set`'s VP `vp`
    /// sets it, and must run on the other worker well within that.
    fn a_busy_worker_strands_no_other_vp(spin: &Arc<Vm>, set: &Arc<Vm>, vp: usize) {
        let flag = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicBool::new(false));
        let spinner = {
            let (flag, spinning) = (flag.clone(), spinning.clone());
            spin.fork_on(0, move |_cx| {
                spinning.store(true, Ordering::Release);
                let t0 = Instant::now();
                while !flag.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(5) {
                    std::hint::spin_loop();
                }
                0i64
            })
        };
        while !spinning.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        let setter = set.fork_on(vp, move |_cx| {
            flag.store(true, Ordering::Release);
            0i64
        });
        spinner.unwrap().join_blocking().unwrap();
        let waited = t0.elapsed();
        setter.unwrap().join_blocking().unwrap();
        assert!(
            waited < Duration::from_secs(1),
            "the setter waited {waited:?} behind the spinning worker"
        );
    }

    #[test]
    fn a_busy_worker_strands_no_other_vp_of_a_vm_or_of_a_fleet() {
        let vm = VmBuilder::new()
            .vps(4)
            .processors(2)
            .policy(|_| policies::local_fifo().boxed())
            .build();
        a_busy_worker_strands_no_other_vp(&vm, &vm, 2);
        vm.shutdown();

        let fleet = Fleet::builder()
            .shards(4)
            .vps_per_shard(1)
            .processors(2)
            .policy(|_, _| policies::local_fifo().boxed())
            .build();
        a_busy_worker_strands_no_other_vp(fleet.shard(0), fleet.shard(2), 0);
        fleet.shutdown();
    }
}
