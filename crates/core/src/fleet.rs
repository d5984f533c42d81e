//! Sharded virtual machines: a [`Fleet`] of cooperating [`Vm`]s joined by
//! a cross-shard message fabric.
//!
//! The paper's §3.2 virtual-machine abstraction deliberately hides
//! physical topology so one substrate can span several memory domains.  A
//! `Fleet` realises that: it owns N VM **shards** — each a complete [`Vm`]
//! with its own VPs, policy managers, reactor, and flight-recorder rings —
//! multiplexed onto one shared [`PhysicalMachine`].  Shards exchange work
//! over one inbox per shard (the [`Fabric`]): any shard posts to it, and
//! the owning shard's VPs apply what it holds in posting order.
//!
//! ```text
//!   shard 0 ──┐
//!   shard 2 ──┼── push ──▶ inbox[1] ── pump ──▶ shard 1
//!   shard 3 ──┘
//! ```
//!
//! Two message kinds flow through the inboxes:
//!
//! * **`Handoff`** — a ready [`RunItem`] migrating between shards.  The
//!   victim pops it with the thief-side steal protocol (cold end of its
//!   own deque), re-homes nothing itself; the *receiver* re-points the
//!   thread's owning VM and home VP before enqueueing, so a wake-up racing
//!   the handoff targets whichever shard currently owns the thread.  Wait
//!   episodes live in the thread's [`WaitNode`](crate::wait::WaitNode) and
//!   cross shards untouched — generations are preserved.
//! * **`Call`** — a boxed closure run on the destination shard's VP.
//!   `sting-tuple` routes remote tuple-space partition operations this
//!   way without `sting-core` knowing anything about tuples.
//!
//! An idle shard asks a sibling for work (the cross-shard extension of
//! the §4.1.1 steal protocol) without a message: it sets its flag in
//! `want_work[requester · n + victim]`, and the victim's next pump
//! answers every set flag in its column with a handoff.
//!
//! ## Trace merging
//!
//! Every shard stamps its flight-recorder events with a per-shard Lamport
//! clock ([`Tracer::clock`](crate::trace::Tracer::clock)).  Each fabric message carries the sender's
//! clock reading; the receiver [`Tracer::witness`](crate::trace::Tracer::witness)es it before recording,
//! so any event causally after a handoff sorts after it.
//! [`Fleet::merged_snapshot`] remaps each shard's recorder lanes into one
//! disjoint lane space and merge-sorts by `(lc, ts_ns)`, giving
//! [`Fleet::trace_audit`] a single fleet-wide replay that the
//! [`audit`](crate::audit) linter can check with the same rules as a
//! single-shard stream.
//!
//! ## Zero cost when unsharded
//!
//! [`Fleet::single`] wraps one standalone [`Vm`] with **no fabric
//! installed**: what the fabric costs such a VM is one Acquire load of
//! its empty fabric slot per VP slice.

use crate::machine::{PhysicalMachine, Queued};
use crate::pm::{EnqueueState, PolicyManager, RunItem};
use crate::policies;
use crate::thread::ThreadResult;
use crate::topology::Topology;
use crate::trace::{sort_events, EventKind, TraceEvent};
use crate::vm::Vm;
use crate::vp::Vp;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use sting_value::Value;

#[cfg(sting_check)]
pub use inbox::Inbox;
#[cfg(not(sting_check))]
use inbox::Inbox;

/// A shard's inbox.  Under `--cfg sting_check` its claim is the model
/// checker's shim and the type is exported, so `ci.sh check` explores
/// this exact source (`crates/core/tests/model_fleet.rs`).
mod inbox {
    use crate::deque::Injector;
    #[cfg(not(sting_check))]
    use std::sync::atomic::{AtomicBool, Ordering};
    #[cfg(sting_check)]
    use sting_check::atomic::{AtomicBool, Ordering};

    /// The messages to one shard: an MPSC [`Injector`] that any thread
    /// pushes to, and a try-only consumer claim.  A shard has several VPs
    /// and each drains the inbox at its slices; the claim lets one at a
    /// time apply messages, so they are applied one after another in
    /// posting order.  A VP that loses the claim skips the drain: the
    /// holder takes everything posted before it lets go.
    pub struct Inbox<T> {
        queue: Injector<T>,
        claim: AtomicBool,
    }

    impl<T> Default for Inbox<T> {
        fn default() -> Inbox<T> {
            Inbox {
                queue: Injector::new(),
                claim: AtomicBool::new(false),
            }
        }
    }

    impl<T> Inbox<T> {
        /// Whether the inbox looks empty (a cheap look before claiming).
        pub fn is_empty(&self) -> bool {
            self.queue.is_empty()
        }

        /// Posts `value`.  Lock-free; callable from any thread.
        pub fn push(&self, value: T) {
            self.queue.push(value);
        }

        /// Applies every posted message, oldest first, to `f`, until the
        /// inbox is empty.  Returns how many were applied: 0 if another
        /// VP holds the claim.
        pub fn drain(&self, mut f: impl FnMut(T)) -> usize {
            if self.claim.swap(true, Ordering::Acquire) {
                return 0;
            }
            let mut applied = 0;
            loop {
                let before = applied;
                for value in self.queue.take_all() {
                    f(value);
                    applied += 1;
                }
                if applied == before {
                    break;
                }
            }
            // Release: the next holder's messages are applied after these.
            self.claim.store(false, Ordering::Release);
            applied
        }
    }
}

/// A closure routed to another shard, run on that shard's VP.
type RoutedCall = Box<dyn FnOnce(&Arc<Vm>) + Send>;

/// A message crossing the shard fabric.
enum FabricMsg {
    /// A ready thread (or parked TCB) migrating to the destination shard.
    Handoff(RunItem),
    /// Run this closure on the destination shard (routed tuple-space
    /// partition operations, remote administrative work).
    Call {
        /// The closure to run on the destination shard.
        f: RoutedCall,
        /// Whether the shutdown sweep must still run the closure.  State
        /// transfers (routed tuple deposits) set this — dropping one
        /// would silently lose the tuple; reply-side closures clear it,
        /// since their waiters were already completed by the home
        /// shard's drain.
        apply_at_shutdown: bool,
    },
}

/// A fabric message plus the sender's Lamport-clock reading at send time;
/// the receiver witnesses `lc` before acting so causally-later events sort
/// later in the merged trace.
struct Stamped {
    lc: u64,
    msg: FabricMsg,
}

/// The cross-shard interconnect: one inbox per shard plus the
/// work-request flags.  One `Fabric` is shared by every shard of a
/// [`Fleet`] (standalone VMs have none).
pub struct Fabric {
    /// Shard VMs, weakly — the [`Fleet`] holds the strong references, and
    /// each `Vm` holds an `Arc<Fabric>`, so strong back-references here
    /// would leak the whole fleet.
    shards: Vec<Weak<Vm>>,
    /// `inboxes[to]` carries every message to shard `to`.
    inboxes: Vec<Inbox<Stamped>>,
    /// `want_work[requester * n + victim]`: `requester` is idle and asks
    /// `victim` for work.
    want_work: Vec<AtomicBool>,
    /// Per-shard round-robin cursor over steal victims.
    next_victim: Vec<AtomicUsize>,
}

impl Fabric {
    fn new(shards: Vec<Weak<Vm>>) -> Fabric {
        let n = shards.len();
        Fabric {
            shards,
            inboxes: (0..n).map(|_| Inbox::default()).collect(),
            want_work: (0..n * n).map(|_| AtomicBool::new(false)).collect(),
            next_victim: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Number of shards on this fabric.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `index`'s VM, if the fleet is still alive.
    pub fn shard_vm(&self, index: usize) -> Option<Arc<Vm>> {
        self.shards.get(index).and_then(Weak::upgrade)
    }

    /// The shard the calling STING thread runs on, iff its VM is a shard
    /// of *this* fabric (by pointer identity, not just a shard index — a
    /// thread of some other fleet must not masquerade as local).  Borrows
    /// the scheduler context: no reference count is touched.
    pub fn current_shard(&self) -> Option<usize> {
        crate::tls::with(|cur| {
            let vm = cur?.vm;
            let shard = vm.shard_id();
            self.shards
                .get(shard)
                .filter(|w| std::ptr::eq(w.as_ptr(), Arc::as_ptr(vm)))
                .map(|_| shard)
        })
    }

    /// Runs `f` on shard `to`.  If the caller is already on that shard the
    /// call is inline (the local fast path costs nothing); otherwise it is
    /// posted to the shard's inbox, stamped with the sender's clock, and
    /// the destination machine is signalled.
    ///
    /// A call still in an inbox when the fleet shuts down is **dropped**
    /// by the sweep — correct for reply-side closures, whose waiters the
    /// home shard's drain already completed.  Calls that transfer state
    /// the fabric must not lose go through [`Fabric::call_durable`].
    pub fn call(&self, from: &Arc<Vm>, to: usize, f: RoutedCall) {
        self.post_call(from, to, f, false);
    }

    /// [`Fabric::call`], but the closure is still applied by the shutdown
    /// sweep if it is in flight when the fleet stops: routed tuple-space
    /// deposits use this so a `put` posted just before shutdown is never
    /// silently lost.
    pub fn call_durable(&self, from: &Arc<Vm>, to: usize, f: RoutedCall) {
        self.post_call(from, to, f, true);
    }

    fn post_call(&self, from: &Arc<Vm>, to: usize, f: RoutedCall, apply_at_shutdown: bool) {
        if from.shard_id() == to {
            f(from);
            return;
        }
        from.counts(crate::tls::lane_in(from)).routed_ops.bump();
        self.post(
            from,
            to,
            FabricMsg::Call {
                f,
                apply_at_shutdown,
            },
        );
    }

    /// Stamps `msg` with `from`'s clock, pushes it to shard `to`'s inbox,
    /// and wakes the shard: every VP of it drains the inbox at its next
    /// slice, so an idle worker is woken to run VP 0, or, while VP 0
    /// runs, another VP of the shard if it has one.
    fn post(&self, from: &Vm, to: usize, msg: FabricMsg) {
        let lc = from.tracer().clock();
        self.inboxes[to].push(Stamped { lc, msg });
        if let Some(dest) = self.shard_vm(to) {
            let stealable = dest.vp_count() > 1;
            dest.signal_work(0, Queued::Remotely { stealable });
        }
    }

    /// Whether this shard has mail: a message in its inbox, or a sibling's
    /// work request to answer.  A request counts so that the dry-slice
    /// look in `Vp::run_slice` runs one more slice, which answers it
    /// while the shard is idle, rather than leaving it set until work
    /// arrives.
    pub(crate) fn has_mail(&self, vm: &Vm) -> bool {
        let (me, n) = (vm.shard_id(), self.shards.len());
        !self.inboxes[me].is_empty()
            || (0..n).any(|r| r != me && self.want_work[r * n + me].load(Ordering::Relaxed))
    }

    /// Answers siblings' work requests, then drains this shard's inbox:
    /// enqueues handed-off work and runs routed calls.  Called once per VP
    /// slice (under the VP's [`OwnerWord`](crate::deque::OwnerWord)).
    pub(crate) fn pump(&self, vm: &Arc<Vm>, vp: &Arc<Vp>) {
        if vm.is_stopped() {
            return;
        }
        let (me, n) = (vm.shard_id(), self.shards.len());
        // Requests first, so a thread handed in below is not handed
        // straight back.
        for requester in (0..n).filter(|&r| r != me) {
            let asked = &self.want_work[requester * n + me];
            if asked.load(Ordering::Relaxed) && asked.swap(false, Ordering::Relaxed) {
                if let Some(item) = vp.surrender_for_fleet() {
                    self.post_handoff(vm, vp, item, requester);
                }
            }
        }
        let inbox = &self.inboxes[me];
        if inbox.is_empty() {
            return;
        }
        inbox.drain(|stamped| {
            vm.tracer().witness(stamped.lc);
            match stamped.msg {
                FabricMsg::Handoff(item) => {
                    // Receiver-side re-home: the item is quiescent (owned
                    // solely by this drain), so both the owning VM and the
                    // wake target flip together before the thread becomes
                    // runnable here.
                    let thread = item.thread().clone();
                    thread.rehome(vm);
                    thread.home_vp.store(vp.index(), Ordering::Relaxed);
                    vp.enqueue(vm, item, EnqueueState::Migrated);
                }
                FabricMsg::Call { f, .. } => f(vm),
            }
        });
    }

    /// Posts `item` to shard `dest`, recording the [`EventKind::Handoff`]
    /// on the source lane first so the merged audit sees the source
    /// shard's enqueue consumed before the destination's re-publish.
    fn post_handoff(&self, vm: &Arc<Vm>, vp: &Arc<Vp>, item: RunItem, dest: usize) {
        let (from, to) = (vm.shard_id() as u32, dest as u32);
        vm.note(
            Some(vp.index()),
            EventKind::Handoff,
            item.thread(),
            from,
            to,
        );
        self.post(vm, dest, FabricMsg::Handoff(item));
    }

    /// An idle shard asks the next victim (round-robin) for work by
    /// setting its flag; the victim's next pump answers it.
    ///
    /// The request does not wake the victim: an idle victim has nothing to
    /// give, and a busy one pumps at its next slice.  (When requests did
    /// wake it, two idle shards asked each other back and forth forever.)
    /// An idle requester hears of new work through the machine's chained
    /// wake: a worker woken for work that finds some wakes one more, which
    /// asks again.
    pub(crate) fn request_work(&self, vm: &Vm) {
        let n = self.shards.len();
        if n < 2 || vm.is_stopped() {
            return;
        }
        let me = vm.shard_id();
        let v = self.next_victim[me].fetch_add(1, Ordering::Relaxed) % (n - 1);
        let victim = if v >= me { v + 1 } else { v };
        self.want_work[me * n + victim].store(true, Ordering::Relaxed);
    }

    /// Shutdown sweep: empties every inbox, completing in-flight
    /// handed-off threads with the same `vm-shutdown` error
    /// [`Vm::drain`](crate::vm::Vm) uses, **applying** durable calls
    /// (routed deposits — dropping one would lose its tuple), and
    /// dropping plain calls (their waiters were already completed by
    /// their home shard's drain).
    fn sweep(&self) {
        let shutdown_err: ThreadResult = Err(Value::sym("vm-shutdown"));
        for (to, inbox) in self.inboxes.iter().enumerate() {
            // The destination shard owns the state a durable call mutates.
            let dest = self.shard_vm(to);
            inbox.drain(|stamped| match stamped.msg {
                FabricMsg::Handoff(item) => match item {
                    RunItem::Fresh(t) => t.complete(shutdown_err.clone()),
                    RunItem::Parked(tcb) => {
                        let t = tcb.thread().clone();
                        drop(tcb); // force-unwinds the fiber
                        if !t.is_determined() {
                            t.complete(shutdown_err.clone());
                        }
                    }
                },
                FabricMsg::Call {
                    f,
                    apply_at_shutdown: true,
                } => {
                    // The shard VM is stopped but the shared structures
                    // the closure touches are intact; a wake it attempts
                    // lands on an already-cancelled episode and is a
                    // harmless no-op.
                    if let Some(vm) = &dest {
                        f(vm);
                    }
                }
                FabricMsg::Call {
                    apply_at_shutdown: false,
                    ..
                } => {}
            });
        }
    }
}

/// A set of cooperating VM shards sharing one [`PhysicalMachine`] and a
/// cross-shard [`Fabric`].  Build one with [`Fleet::builder`], or wrap an
/// existing standalone VM with [`Fleet::single`] (zero fabric, zero cost).
pub struct Fleet {
    shards: Vec<Arc<Vm>>,
    fabric: Option<Arc<Fabric>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Fleet {
    /// Starts building a multi-shard fleet.
    pub fn builder() -> FleetBuilder {
        FleetBuilder::new()
    }

    /// Wraps one standalone VM as a single-shard fleet.  No fabric is
    /// installed, so the VM's hot paths are the standalone ones plus one
    /// Acquire load of its empty fabric slot per VP slice.
    pub fn single(vm: Arc<Vm>) -> Fleet {
        Fleet {
            shards: vec![vm],
            fabric: None,
        }
    }

    /// The shard VMs, in shard-index order.
    pub fn shards(&self) -> &[Arc<Vm>] {
        &self.shards
    }

    /// Shard `index`'s VM (panics if out of range).
    pub fn shard(&self, index: usize) -> &Arc<Vm> {
        &self.shards[index]
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet has no shards (never true for built fleets).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The cross-shard fabric (`None` for [`Fleet::single`]).
    pub fn fabric(&self) -> Option<&Arc<Fabric>> {
        self.fabric.as_ref()
    }

    /// Routes a key hash to its owning shard (the tuple-space partition
    /// map and any other sharded structure use the same rule).
    pub fn shard_for_hash(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// The fleet's two-level topology: shard-local VP rings linked
    /// across shards (see [`Topology::sharded`]).
    pub fn topology(&self) -> Topology {
        let vps = self.shards.first().map_or(0, |vm| vm.vp_count());
        Topology::sharded(self.shards.len(), vps)
    }

    /// One fleet-wide trace: every shard's rings, lanes remapped into a
    /// disjoint global lane space (shard 0's lanes first, then shard 1's,
    /// …), merge-sorted by `(lc, ts_ns)` — the Lamport order the inbox
    /// witnesses make consistent with cross-shard causality.
    pub fn merged_snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        let mut lane_base = 0u32;
        for vm in &self.shards {
            let lanes = vm.tracer().lanes() as u32;
            for mut e in vm.tracer().snapshot() {
                e.vp += lane_base;
                out.push(e);
            }
            lane_base += lanes;
        }
        sort_events(&mut out);
        out
    }

    /// Whether any shard's recorder wrapped (the merged stream is then
    /// incomplete and absence-based audit checks stand down).
    pub fn truncated(&self) -> bool {
        self.shards.iter().any(|vm| vm.tracer().truncated())
    }

    /// Runs the [`audit`](crate::audit) linter over the merged fleet-wide
    /// stream — one replay covering every shard, with handoffs stitched by
    /// the Lamport clock.
    pub fn trace_audit(&self) -> crate::audit::AuditReport {
        crate::audit::audit(&self.merged_snapshot(), self.truncated())
    }

    /// Shuts every shard down (completing live threads with the
    /// `vm-shutdown` error), then sweeps the fabric for in-flight
    /// handoffs so no thread is left undetermined in an inbox.
    pub fn shutdown(&self) {
        for vm in &self.shards {
            vm.shutdown();
        }
        if let Some(fabric) = &self.fabric {
            fabric.sweep();
        }
    }
}

/// Builds a [`Fleet`]: N identical shards on one shared machine.
pub struct FleetBuilder {
    name: String,
    shards: usize,
    vps_per_shard: usize,
    policy: Arc<dyn Fn(usize, usize) -> Box<dyn PolicyManager> + Send + Sync>,
    processors: Option<usize>,
    trace: bool,
    trace_capacity: Option<usize>,
}

impl std::fmt::Debug for FleetBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBuilder")
            .field("shards", &self.shards)
            .field("vps_per_shard", &self.vps_per_shard)
            .finish()
    }
}

impl Default for FleetBuilder {
    fn default() -> FleetBuilder {
        FleetBuilder::new()
    }
}

impl FleetBuilder {
    /// Defaults: 2 shards × 1 VP, migrating FIFO policy on the lock-free
    /// tier (cross-shard handoffs need a stealable queue).
    pub fn new() -> FleetBuilder {
        FleetBuilder {
            name: "fleet".to_string(),
            shards: 2,
            vps_per_shard: 1,
            policy: Arc::new(|_, _| policies::local_fifo().migrating(true).boxed()),
            processors: None,
            trace: false,
            trace_capacity: None,
        }
    }

    /// Fleet name; shards are named `{name}/s{index}`.
    pub fn name(mut self, name: &str) -> FleetBuilder {
        self.name = name.to_string();
        self
    }

    /// Number of shards (at least 1).
    pub fn shards(mut self, shards: usize) -> FleetBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Virtual processors per shard.
    pub fn vps_per_shard(mut self, vps: usize) -> FleetBuilder {
        self.vps_per_shard = vps.max(1);
        self
    }

    /// Policy factory, called with `(shard, vp)` for every VP.
    pub fn policy(
        mut self,
        f: impl Fn(usize, usize) -> Box<dyn PolicyManager> + Send + Sync + 'static,
    ) -> FleetBuilder {
        self.policy = Arc::new(f);
        self
    }

    /// Worker OS threads on the shared machine (default: one per CPU,
    /// capped at the fleet's total VP count).
    pub fn processors(mut self, processors: usize) -> FleetBuilder {
        self.processors = Some(processors.max(1));
        self
    }

    /// Enables the flight recorder on every shard.
    pub fn trace(mut self, on: bool) -> FleetBuilder {
        self.trace = on;
        self
    }

    /// Per-lane recorder capacity (see [`crate::trace::DEFAULT_CAPACITY`]).
    pub fn trace_capacity(mut self, events: usize) -> FleetBuilder {
        self.trace_capacity = Some(events);
        self
    }

    /// Builds the shards on one shared machine, installs the fabric, and
    /// returns the running fleet.
    pub fn build(self) -> Fleet {
        let total_vps = self.shards * self.vps_per_shard;
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let machine = PhysicalMachine::new(self.processors.unwrap_or(cpus.min(total_vps)).max(1));
        // One thread-id source for the whole fleet: merged traces rely on
        // fleet-unique ids to never conflate threads from two shards.
        let tid_source = Arc::new(AtomicU64::new(1));
        let shards: Vec<Arc<Vm>> = (0..self.shards)
            .map(|s| {
                let policy = self.policy.clone();
                let mut vb = Vm::builder()
                    .name(&format!("{}/s{s}", self.name))
                    .vps(self.vps_per_shard)
                    .machine(machine.clone())
                    .shard_identity(s, tid_source.clone())
                    .policy(move |vp| policy(s, vp))
                    .trace(self.trace);
                if let Some(cap) = self.trace_capacity {
                    vb = vb.trace_capacity(cap);
                }
                vb.build()
            })
            .collect();
        if self.shards > 1 {
            let fabric = Arc::new(Fabric::new(shards.iter().map(Arc::downgrade).collect()));
            for vm in &shards {
                vm.install_fabric(fabric.clone());
            }
            Fleet {
                shards,
                fabric: Some(fabric),
            }
        } else {
            // A 1-shard fleet is a standalone VM: no fabric, no new cost.
            Fleet {
                shards,
                fabric: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_delivers_in_order() {
        let inbox: Inbox<u64> = Inbox::default();
        assert!(inbox.is_empty());
        for i in 0..5 {
            inbox.push(i);
        }
        let mut got = Vec::new();
        assert_eq!(inbox.drain(|v| got.push(v)), 5);
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert!(inbox.is_empty());
    }

    /// A message posted while the holder applies an earlier one is applied
    /// by the same drain, after it; a drain that loses the claim applies
    /// nothing.
    #[test]
    fn inbox_drain_applies_what_arrives_meanwhile_in_order() {
        let inbox = Inbox::default();
        let inbox = &inbox;
        inbox.push(0u64);
        let mut got = Vec::new();
        let applied = inbox.drain(|v| {
            if v == 0 {
                inbox.push(1);
                assert_eq!(inbox.drain(|_| unreachable!()), 0);
            }
            got.push(v);
        });
        assert_eq!(applied, 2);
        assert_eq!(got, [0, 1]);
    }

    /// An in-flight durable call (a routed deposit) survives shutdown —
    /// the sweep applies it — while a plain call is dropped.
    #[test]
    fn shutdown_sweep_applies_durable_calls_and_drops_plain_ones() {
        use std::sync::atomic::AtomicBool;
        let fleet = Fleet::builder().shards(2).build();
        let fabric = fleet.fabric().unwrap().clone();
        // Stop the shards first: pump no longer drains, so both calls
        // are still sitting in the inbox when the sweep runs.
        for vm in fleet.shards() {
            vm.shutdown();
        }
        let durable = Arc::new(AtomicBool::new(false));
        let flag = durable.clone();
        fabric.call_durable(
            fleet.shard(0),
            1,
            Box::new(move |_vm| flag.store(true, Ordering::Release)),
        );
        let plain = Arc::new(AtomicBool::new(false));
        let flag = plain.clone();
        fabric.call(
            fleet.shard(0),
            1,
            Box::new(move |_vm| flag.store(true, Ordering::Release)),
        );
        fleet.shutdown();
        assert!(
            durable.load(Ordering::Acquire),
            "the sweep must apply in-flight durable calls"
        );
        assert!(
            !plain.load(Ordering::Acquire),
            "plain calls are dropped at shutdown"
        );
    }

    #[test]
    fn single_fleet_has_no_fabric() {
        let vm = Vm::builder().vps(1).processors(1).build();
        let fleet = Fleet::single(vm.clone());
        assert_eq!(fleet.len(), 1);
        assert!(fleet.fabric().is_none());
        assert!(vm.fabric().is_none());
        let t = fleet.shard(0).fork(|_| 42i64);
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
        fleet.shutdown();
    }

    #[test]
    fn builder_shapes_the_fleet() {
        let fleet = Fleet::builder()
            .name("t")
            .shards(3)
            .vps_per_shard(2)
            .processors(1)
            .build();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.topology(), Topology::sharded(3, 2));
        assert_eq!(fleet.shard(1).shard_id(), 1);
        assert_eq!(fleet.shard(2).name(), "t/s2");
        assert!(fleet.fabric().is_some());
        assert_eq!(fleet.fabric().unwrap().shard_count(), 3);
        // The routing rule covers every shard.
        let hit: std::collections::BTreeSet<usize> =
            (0..64u64).map(|h| fleet.shard_for_hash(h)).collect();
        assert_eq!(hit.len(), 3);
        fleet.shutdown();
    }
}
