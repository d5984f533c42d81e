//! Virtual machines: a set of virtual processors closed over shared state.
//!
//! A [`Vm`] owns its VPs, its timers, event counters and a root thread
//! group.  Multiple VMs can execute on one
//! [`crate::machine::PhysicalMachine`] — the machine holds
//! the VMs weakly and multiplexes their VPs over its worker OS threads.

use crate::builder::{SpawnOpts, VmConfig};
use crate::counters::Counters;
use crate::error::CoreError;
use crate::group::{GroupLane, ThreadGroup};
use crate::io::IoPool;
use crate::machine::{Attachment, Queued};
use crate::metrics::Metrics;
use crate::pad::CachePadded;
use crate::pm::{EnqueueState, RunItem};
use crate::probe::{self, Probe};
use crate::reactor::IoDriver;
use crate::state::ThreadState;
use crate::tc::{self, Cx};
use crate::thread::{Birth, Thread, ThreadId, ThreadResult, Thunk, TryThunk};
use crate::timers::Timers;
use crate::tls;
use crate::trace::{self, Tracer};
use crate::vp::Vp;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use sting_value::Value;

/// A counted, cache-line-padded handle on a machine: what a [`Thread`]
/// holds instead of a `Weak<Vm>` of its own.  Each lane has one, so
/// creating and freeing threads moves a reference count that only the
/// forking VP writes, never the machine's.
pub(crate) type VmAnchor = Arc<CachePadded<Weak<Vm>>>;

/// The state one lane — a VP, or the external lane for everything off any
/// VP — writes when it forks a thread.  Padded, so no two lanes share a
/// line (see DESIGN.md, "Scheduler fast path", ownership table).
struct Lane {
    anchor: VmAnchor,
    /// Thread-id cursor, `next_id << TID_SHIFT | ids_left`, refilled a
    /// block at a time from [`Vm::next_tid`].
    tids: AtomicU64,
    state: Mutex<LaneState>,
}

#[derive(Default)]
struct LaneState {
    /// The group lane this lane last forked into: consecutive forks into
    /// one group (the overwhelmingly common case) share it.
    group: Option<Arc<GroupLane>>,
    /// This lane's group lane in every group it has live members in, by
    /// group id, so forks that alternate between groups go back to the
    /// lane they had: a group never has more than one live lane per VM
    /// lane.  Weak — the members keep their group lane alive, not this
    /// map — and swept when it doubles.  This is also the machine's thread
    /// registry: every live thread forked on this lane is a member of one
    /// of these group lanes, and of no other lane's (see [`Vm::threads`]).
    groups: HashMap<u64, Weak<GroupLane>>,
    groups_prune_at: usize,
}

impl LaneState {
    /// This lane's handle on `group`: the cached one, else the one its
    /// live members still hold, else a newly opened one.
    fn group_lane(&mut self, group: &Arc<ThreadGroup>) -> Arc<GroupLane> {
        if let Some(cached) = &self.group {
            if Arc::ptr_eq(cached.group(), group) {
                return cached.clone();
            }
        }
        let lane = match self.groups.get(&group.id()).and_then(Weak::upgrade) {
            Some(lane) => lane,
            None => {
                probe::hit(Probe::SharedRegistryLock);
                if self.groups.len() >= self.groups_prune_at.max(16) {
                    self.groups.retain(|_, w| w.strong_count() > 0);
                    self.groups_prune_at = self.groups.len() * 2;
                }
                let lane = group.open_lane();
                self.groups.insert(group.id(), Arc::downgrade(&lane));
                lane
            }
        };
        self.group.insert(lane).clone()
    }
}

/// Thread ids are drawn from the shared source in blocks of this many.
const TID_BLOCK: u64 = 1 << TID_SHIFT;
const TID_SHIFT: u32 = 10;

/// A virtual machine: virtual processors plus the state they share.
///
/// Build one with [`Vm::builder`](crate::builder::VmBuilder).
///
/// The fields every VP reads on its hot paths (`vps`, `stop`, the tracer
/// and metrics enable flags, the fabric and machine handles) are written
/// only at construction or shutdown; everything written while the machine
/// runs is either per lane (`counters`, `lanes`) or padded onto lines of
/// its own, so reading the former never misses because of the latter.
pub struct Vm {
    name: String,
    vps: Vec<Arc<Vp>>,
    counters: Counters,
    metrics: Metrics,
    tracer: Tracer,
    root_group: Arc<ThreadGroup>,
    io_pool: IoPool,
    io_driver: Arc<IoDriver>,
    stop: AtomicBool,
    /// Thread-id source.  Shared across every shard of a fleet so ids are
    /// unique fleet-wide (merged traces must never conflate two threads).
    next_tid: Arc<AtomicU64>,
    /// This VM's index within its fleet (0 for a standalone VM).
    shard: usize,
    /// Cross-shard fabric, installed once by [`crate::fleet::Fleet`].
    /// Standalone VMs never set it, so the hot-path check is a single
    /// acquire load that stays `None`.
    fabric: OnceLock<Arc<crate::fleet::Fabric>>,
    /// The machine whose workers drive this VM — the one it was attached
    /// to last ([`PhysicalMachine::attach`](crate::machine::PhysicalMachine::attach); cleared by `detach`):
    /// [`Vm::signal_work`] wakes its workers.
    pub(crate) machine: Attachment,
    /// One per VP, then the external lane.
    lanes: Box<[CachePadded<Lane>]>,
    timers: CachePadded<Timers>,
    next_fork_vp: CachePadded<AtomicUsize>,
    /// Number of VP slices currently executing on machine workers; used to
    /// quiesce before draining at shutdown.
    pub(crate) active_slices: CachePadded<AtomicUsize>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("name", &self.name)
            .field("vps", &self.vps.len())
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

impl Vm {
    /// Starts building a virtual machine.
    pub fn builder() -> crate::builder::VmBuilder {
        crate::builder::VmBuilder::new()
    }

    pub(crate) fn create(
        policies: Vec<Box<dyn crate::pm::PolicyManager>>,
        config: VmConfig,
    ) -> Arc<Vm> {
        let vp_count = policies.len();
        Arc::new_cyclic(|weak: &Weak<Vm>| {
            let vps = policies
                .into_iter()
                .enumerate()
                .map(|(i, pm)| Arc::new(Vp::new(i, weak.clone(), pm, config.stack_size)))
                .collect();
            let io_driver = Arc::new(IoDriver::new());
            io_driver.bind_vm(weak);
            Vm {
                name: config.name,
                vps,
                counters: Counters::new(vp_count),
                metrics: Metrics::new(vp_count, config.metrics, config.metrics_sample),
                tracer: Tracer::new(vp_count, config.trace_capacity, config.trace),
                root_group: ThreadGroup::root(Some("root".to_string())),
                io_pool: IoPool::new(config.io_workers),
                io_driver,
                stop: AtomicBool::new(false),
                next_tid: config
                    .tid_source
                    .unwrap_or_else(|| Arc::new(AtomicU64::new(1))),
                shard: config.shard,
                fabric: OnceLock::new(),
                machine: Attachment::new(),
                lanes: (0..=vp_count)
                    .map(|_| {
                        CachePadded(Lane {
                            anchor: Arc::new(CachePadded(weak.clone())),
                            tids: AtomicU64::new(0),
                            state: Mutex::new(LaneState::default()),
                        })
                    })
                    .collect(),
                timers: CachePadded(Timers::for_vm(weak.clone())),
                next_fork_vp: CachePadded(AtomicUsize::new(0)),
                active_slices: CachePadded(AtomicUsize::new(0)),
            }
        })
    }

    /// The machine's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of virtual processors.
    pub fn vp_count(&self) -> usize {
        self.vps.len()
    }

    /// The virtual processors (enumerable, as in the paper).
    pub fn vps(&self) -> &[Arc<Vp>] {
        &self.vps
    }

    /// The `index`-th virtual processor.
    ///
    /// # Errors
    ///
    /// [`CoreError::VpOutOfRange`] if `index >= vp_count()`.
    pub fn vp(&self, index: usize) -> Result<&Arc<Vp>, CoreError> {
        self.vps.get(index).ok_or(CoreError::VpOutOfRange {
            index,
            len: self.vps.len(),
        })
    }

    /// Substrate event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Latency metrics: per-VP dispatch/steal/wake histograms plus GC
    /// pauses (see [`crate::metrics`]).  Snapshot with
    /// [`Metrics::snapshot`]; toggle stamping with
    /// [`Metrics::set_enabled`] or the
    /// [`VmBuilder`](crate::builder::VmBuilder) metrics knobs.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The timers (suspensions with a quantum, sleeps, timed waits).
    pub fn timers(&self) -> &Timers {
        &self.timers
    }

    /// The blocking-call worker pool (see [`crate::io::offload`]).
    pub(crate) fn io_pool(&self) -> &IoPool {
        &self.io_pool
    }

    /// The reactor driver parking STING threads on fd readiness (see
    /// [`crate::reactor`] and [`crate::net`]).  Its reactor is built at
    /// the first socket wait, polled by the machine's workers, and stopped
    /// at [`Vm::shutdown`].
    pub fn io_driver(&self) -> &Arc<IoDriver> {
        &self.io_driver
    }

    /// The scheduler flight recorder.  Use
    /// [`Tracer::set_enabled`] to start/stop recording at runtime, or the
    /// [`VmBuilder`](crate::builder::VmBuilder) trace knobs to record from
    /// the first instruction.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Exports the recorded scheduler events as `chrome://tracing` JSON
    /// (load the string via a `.json` file in `chrome://tracing` or
    /// Perfetto).  Safe to call while the VM is running; the snapshot is
    /// then best-effort.
    pub fn trace_export(&self) -> String {
        trace::chrome_json(&self.name, &self.tracer.snapshot())
    }

    /// Renders the recorded scheduler events as a human-readable log.
    pub fn trace_dump(&self) -> String {
        trace::text_dump(&self.tracer.snapshot())
    }

    /// Replays the recorded scheduler events through the invariant linter
    /// (see [`crate::audit`]): double dispatches, dispatches after
    /// determination, steals of unpublished work, lost wakeups.
    ///
    /// The lost-wakeup check reasons about what *never* happened, so call
    /// this on a quiesced machine (after [`Vm::shutdown`]) for a
    /// trustworthy report; debug builds do so automatically at shutdown.
    pub fn trace_audit(&self) -> crate::audit::AuditReport {
        crate::audit::audit(&self.tracer.snapshot(), self.tracer.truncated())
    }

    /// The root thread group; threads forked from outside the VM land here.
    pub fn root_group(&self) -> &Arc<ThreadGroup> {
        &self.root_group
    }

    /// All live threads created on this VM, whichever VP (or host thread)
    /// forked them: the members of every lane's group lanes, merged.  A
    /// thread is registered once, in the group lane of the lane that forked
    /// it, so nothing is listed twice.
    pub fn threads(&self) -> Vec<Arc<Thread>> {
        let mut all = Vec::new();
        for lane in self.lanes.iter() {
            let groups: Vec<Arc<GroupLane>> = lane
                .state
                .lock()
                .groups
                .values()
                .filter_map(Weak::upgrade)
                .collect();
            for group in groups {
                group.extend_live(&mut all);
            }
        }
        all
    }

    /// Whether [`Vm::shutdown`] has been initiated.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The lane of `vp`, or the external lane.
    fn lane(&self, vp: Option<usize>) -> &Lane {
        crate::pad::lane_of(&self.lanes, vp)
    }

    /// A handle on this machine counted on `vp`'s lane (see [`VmAnchor`]).
    pub(crate) fn anchor(&self, vp: Option<usize>) -> VmAnchor {
        self.lane(vp).anchor.clone()
    }

    /// Draws the next thread id for `lane`: from the lane's current block,
    /// or from a fresh block of [`TID_BLOCK`] when that is used up, so the
    /// shared source is written once per block rather than once per thread.
    /// A compare-and-swap rather than an add because the external lane has
    /// many writers, and one that loses a refill race simply wastes a block.
    fn next_thread_id(&self, lane: &Lane) -> ThreadId {
        let mut cur = lane.tids.load(Ordering::Relaxed);
        loop {
            let (next, left) = (cur >> TID_SHIFT, cur & (TID_BLOCK - 1));
            let (id, then) = if left == 0 {
                let base = self.next_tid.fetch_add(TID_BLOCK, Ordering::Relaxed);
                (base, (base + 1) << TID_SHIFT | (TID_BLOCK - 1))
            } else {
                (next, (next + 1) << TID_SHIFT | (left - 1))
            };
            match lane
                .tids
                .compare_exchange(cur, then, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return ThreadId(id),
                Err(now) => cur = now,
            }
        }
    }

    /// This VM's shard index within its fleet (0 when standalone).
    pub fn shard_id(&self) -> usize {
        self.shard
    }

    /// The cross-shard fabric, if this VM is part of a [`crate::fleet::Fleet`].
    pub(crate) fn fabric(&self) -> Option<&Arc<crate::fleet::Fabric>> {
        self.fabric.get()
    }

    /// Installs the fleet fabric.  Called once per shard by the fleet
    /// builder, before any cross-shard traffic exists.
    pub(crate) fn install_fabric(&self, fabric: Arc<crate::fleet::Fabric>) {
        if self.fabric.set(fabric).is_err() {
            panic!("fabric installed twice on shard {}", self.shard);
        }
    }

    /// Forks `f` as a scheduled thread on a VP chosen round-robin.
    pub fn fork<F, V>(self: &Arc<Vm>, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        let vp = self.next_fork_vp.fetch_add(1, Ordering::Relaxed) % self.vp_count();
        self.spawn_with(tc::erase(f), ThreadState::Scheduled, Some(vp), None)
    }

    /// Forks `f` on virtual processor `vp` (`fork-thread expr vp`).
    ///
    /// # Errors
    ///
    /// [`CoreError::VpOutOfRange`] for a bad index.
    pub fn fork_on<F, V>(self: &Arc<Vm>, vp: usize, f: F) -> Result<Arc<Thread>, CoreError>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        if vp >= self.vp_count() {
            return Err(CoreError::VpOutOfRange {
                index: vp,
                len: self.vp_count(),
            });
        }
        Ok(self.spawn_with(tc::erase(f), ThreadState::Scheduled, Some(vp), None))
    }

    /// Forks a pre-boxed thunk (for libraries that traffic in [`Thunk`]s,
    /// e.g. tuple-space `spawn`); equivalent to [`Vm::fork`].
    pub fn fork_thunk(self: &Arc<Vm>, thunk: Thunk) -> Arc<Thread> {
        let vp = self.next_fork_vp.fetch_add(1, Ordering::Relaxed) % self.vp_count();
        self.spawn_with(tc::lift(thunk), ThreadState::Scheduled, Some(vp), None)
    }

    /// Forks a `Result`-producing body: `Err` becomes the thread's
    /// exception outcome without unwinding.
    pub fn fork_try<F, V>(self: &Arc<Vm>, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> Result<V, Value> + Send + 'static,
        V: Into<Value>,
    {
        let vp = self.next_fork_vp.fetch_add(1, Ordering::Relaxed) % self.vp_count();
        self.spawn_with(tc::erase_try(f), ThreadState::Scheduled, Some(vp), None)
    }

    /// Creates a delayed `Result`-producing thread.
    pub fn delayed_try<F, V>(self: &Arc<Vm>, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> Result<V, Value> + Send + 'static,
        V: Into<Value>,
    {
        self.spawn_with(tc::erase_try(f), ThreadState::Delayed, None, None)
    }

    /// Creates a delayed thread (`create-thread`): it runs only when
    /// demanded by [`tc::touch`], [`tc::wait`]ed on after a
    /// [`tc::thread_run`], or stolen.
    pub fn delayed<F, V>(self: &Arc<Vm>, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        self.spawn_with(tc::erase(f), ThreadState::Delayed, None, None)
    }

    /// Forks `f` and blocks the calling OS thread until it determines.
    /// The usual entry point from `main`.
    pub fn run<F, V>(self: &Arc<Vm>, f: F) -> ThreadResult
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        let t = self.fork(f);
        t.join_blocking()
    }

    pub(crate) fn spawn_with(
        self: &Arc<Vm>,
        thunk: TryThunk,
        state: ThreadState,
        vp: Option<usize>,
        opts: Option<SpawnOpts>,
    ) -> Arc<Thread> {
        let opts = opts.unwrap_or_default();
        let t = tls::with(|cur| {
            // The forking VP's lane, if it is one of ours; a host thread or
            // a thread of another machine forks on the external lane.
            let lane_ix = cur
                .filter(|c| Arc::ptr_eq(c.vm, self))
                .map(|c| c.vp.index());
            let lane = self.lane(lane_ix);
            if lane_ix.is_none() {
                probe::hit(Probe::SharedRegistryLock);
            }
            let birth = |parent: Option<&Arc<Thread>>| {
                let parent = parent.filter(|p| p.belongs_to(self));
                let group = opts
                    .group
                    .as_ref()
                    .or_else(|| parent.map(|p| p.group()))
                    .unwrap_or(&self.root_group);
                Birth {
                    id: self.next_thread_id(lane),
                    anchor: lane.anchor.clone(),
                    group: lane.state.lock().group_lane(group),
                    parent: parent.map(Arc::downgrade).unwrap_or_default(),
                }
            };
            // Genealogy: the thread whose code is executing (the stolen
            // thread during a steal) is the parent, if it lives here.
            let birth = match cur {
                Some(c) => c.shared.identity(|me| birth(Some(me))),
                None => birth(None),
            };
            // Always created delayed; schedule_fresh flips to Scheduled
            // below so the state change and the enqueue stay consistent.
            let t = Thread::new(
                birth,
                thunk,
                opts.name,
                opts.stealable,
                opts.priority,
                opts.quantum,
            );
            // The one registration: group membership, from which the
            // machine's registry is derived too.
            t.group_lane().add(&t);
            Counters::bump(&self.counters.lane(lane_ix).threads_created);
            crate::trace_event!(
                self.tracer(),
                cur.map(|c| c.vp.index()),
                crate::trace::EventKind::Fork,
                t.id().0
            );
            t
        });
        if state == ThreadState::Scheduled {
            let vp = vp.unwrap_or(0) % self.vp_count();
            match self.schedule_fresh(&t, vp) {
                // Registered, so visible to a group's terminate before
                // this: a thread already determined needs no queue entry.
                Ok(()) | Err(CoreError::InvalidTransition { .. }) => {}
                Err(e) => panic!("fresh thread schedules: {e}"),
            }
        }
        t
    }

    /// Moves a delayed thread to `Scheduled` and enqueues it on `vp`.
    pub(crate) fn schedule_fresh(
        self: &Arc<Vm>,
        thread: &Arc<Thread>,
        vp: usize,
    ) -> Result<(), CoreError> {
        if self.is_stopped() {
            return Err(CoreError::Shutdown);
        }
        let target = self.vp(vp)?;
        if !thread.schedule() {
            return Err(CoreError::InvalidTransition {
                detail: "only a delayed thread can be scheduled",
            });
        }
        thread.home_vp.store(vp, Ordering::Relaxed);
        target.enqueue(self, RunItem::Fresh(thread.clone()), EnqueueState::New);
        Ok(())
    }

    /// Enqueues a woken TCB on `vp`.
    pub(crate) fn enqueue_parked(&self, tcb: crate::tcb::Tcb, vp: usize, state: EnqueueState) {
        let vp = vp % self.vp_count();
        self.vps[vp].enqueue(self, RunItem::Parked(tcb), state);
    }

    /// Enqueues many woken TCBs on `vp` in one batched publication (see
    /// [`WakeBatch`](crate::wait::WakeBatch)).
    pub(crate) fn enqueue_parked_batch(
        &self,
        tcbs: impl IntoIterator<Item = crate::tcb::Tcb>,
        vp: usize,
        state: EnqueueState,
    ) {
        let vp = vp % self.vp_count();
        self.vps[vp].enqueue_batch(self, tcbs.into_iter().map(RunItem::Parked), state);
    }

    /// Tells the machine that work was queued on VP `vp` (see [`Queued`]),
    /// counting the wake-up on the signalling lane if it unparked a worker.
    pub(crate) fn signal_work(&self, vp: usize, queued: Queued) {
        if self.machine.signal_work(vp, queued) {
            Counters::bump(&self.counters.lane(tls::lane()).worker_wakes);
        }
    }

    /// Drains due timers, waking suspended threads and expiring timed
    /// parks.  Called by machine workers, once a pass.
    pub(crate) fn process_timers(self: &Arc<Vm>) {
        // Fast path: one load, no clock read while nothing is pending and
        // no lock until something is due — workers sweep every attached VM
        // each pass, so a fleet would otherwise pay both per shard per pass.
        if crate::timers::until(self.timers.earliest()) != Some(std::time::Duration::ZERO) {
            return;
        }
        let due = self.timers.take_due(std::time::Instant::now());
        for entry in due {
            match entry {
                crate::timers::Due::Resume(t) => t.unblock(),
                crate::timers::Due::WaitDeadline { thread, node, gen } => {
                    // The CAS loses (and the wake-up is skipped) if a waker
                    // or a cancellation consumed the episode first.
                    if node.state().timeout(gen) {
                        crate::trace_event!(
                            self.tracer(),
                            tls::lane(),
                            crate::trace::EventKind::BlockTimeout,
                            thread.id().0,
                            0,
                            gen as u32
                        );
                        thread.unblock();
                    }
                }
            }
        }
    }

    /// Renders a human-readable snapshot of the machine: every live
    /// thread with its state, name and blocker, plus per-VP queue depths
    /// and the counters — the monitoring view of a "robust programming
    /// environment" (paper §1).
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "vm {:?} ({} vps, stopped={})",
            self.name,
            self.vp_count(),
            self.is_stopped()
        );
        for vp in &self.vps {
            let _ = writeln!(
                s,
                "  vp {}: policy={} queued={}",
                vp.index(),
                vp.policy_name(),
                vp.queue_len()
            );
        }
        let mut threads = self.threads();
        threads.sort_by_key(|t| t.id());
        for t in threads {
            let blocker = t.blocker().map(|b| format!(" on {b}")).unwrap_or_default();
            let _ = writeln!(
                s,
                "  {} [{:?}]{} name={} group={}",
                t.id(),
                t.state(),
                blocker,
                t.name().unwrap_or("-"),
                t.group().id()
            );
        }
        let c = self.counters.snapshot();
        let _ = writeln!(
            s,
            "  counters: threads={} tcbs={} steals={} switches={} blocks={} preemptions={}",
            c.threads_created,
            c.tcbs_allocated,
            c.steals,
            c.context_switches,
            c.blocks,
            c.preemptions
        );
        s
    }

    /// Stops the machine: no further threads run.  Undetermined threads are
    /// completed with the exception value `vm-shutdown` so joiners observe
    /// termination rather than hanging.
    ///
    /// Call from outside the VM (e.g. `main`).  If called from one of the
    /// VM's own threads, the drain is deferred to [`Vm`]'s drop.
    pub fn shutdown(self: &Arc<Vm>) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if tls::on_thread() {
            // Deferred: we are running on one of our own fibers.
            return;
        }
        // Quiesce: wait for in-flight VP slices to finish.
        while self.active_slices.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        self.drain();
        // Tear down the I/O subsystem after the drain: every thread parked
        // on a reactor wait or an offload has already been unwound (its
        // episode cancelled by the park-guard), so late readiness events
        // and completing pool jobs find dead episodes and their wake-ups
        // fail the claim CAS harmlessly.  Joining here — before the audit
        // — also keeps the trace quiet once it is linted.
        self.io_driver.stop();
        self.io_pool.stop();
        // Debug builds lint the flight recording now that the machine has
        // quiesced (the drain determines everything still queued, so a
        // clean run must produce zero findings).  Blocking-protocol
        // violations are hard failures: a wake-up delivered to a cancelled
        // episode or an episode leaked past determination means the claim
        // token was bypassed.
        #[cfg(debug_assertions)]
        if self.tracer.is_enabled() {
            let report = self.trace_audit();
            if !report.is_clean() {
                eprintln!("sting-core: scheduler {report}");
                if report.findings.iter().any(|f| {
                    matches!(
                        f.kind,
                        crate::audit::FindingKind::WakeAfterCancel
                            | crate::audit::FindingKind::WaiterLeak
                    )
                }) {
                    panic!("sting-core: blocking-protocol audit failed at shutdown: {report}");
                }
            }
        }
    }

    /// Completes every undetermined thread with a `vm-shutdown` exception,
    /// unwinding parked fibers so destructors run.
    pub(crate) fn drain(self: &Arc<Vm>) {
        let shutdown_err: ThreadResult = Err(Value::sym("vm-shutdown"));
        // Empty the ready queues first (both tiers).  Completing an item
        // can wake joiners whose re-enqueues land back on a queue we just
        // emptied, so loop until a full pass finds nothing.
        for vp in &self.vps {
            loop {
                let items = vp.drain_ready();
                if items.is_empty() {
                    break;
                }
                for item in items {
                    match item {
                        RunItem::Fresh(t) => t.complete(shutdown_err.clone()),
                        RunItem::Parked(tcb) => {
                            let t = tcb.thread().clone();
                            drop(tcb); // force-unwinds the fiber
                            t.complete(shutdown_err.clone());
                        }
                    }
                }
            }
        }
        // Sweep threads parked outside any queue (blocked/suspended) and
        // passive threads nobody will ever demand.
        for t in self.threads() {
            if t.is_determined() {
                continue;
            }
            let parked = t.core().parked.take();
            drop(parked);
            t.complete(shutdown_err.clone());
        }
    }
}

impl Drop for Vm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Remaining parked TCBs unwind as their threads drop.
    }
}
