//! Sharded virtual machines: a [`Fleet`] of cooperating [`Vm`]s joined by
//! a cross-shard message fabric.
//!
//! The paper's §3.2 virtual-machine abstraction deliberately hides
//! physical topology so one substrate can span several memory domains.  A
//! `Fleet` realises that: it owns N VM **shards** — each a complete [`Vm`]
//! with its own VPs, policy managers, reactor, and flight-recorder rings —
//! multiplexed onto one shared [`PhysicalMachine`].  Shards exchange work
//! and requests over a matrix of per-shard-pair SPSC [`Mailbox`]es (the
//! [`Fabric`]):
//!
//! ```text
//!   shard 0  ── mailbox[0→1] ──▶  shard 1
//!      ▲  ◀── mailbox[1→0] ──┘      │
//!      │                            ▼
//!   mailbox[2→0] ...           mailbox[1→2] ...
//! ```
//!
//! Three message kinds flow over the fabric:
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
//! * **`WorkRequest`** — an idle shard asking a sibling for work
//!   (cross-shard extension of the §4.1.1 steal protocol); deduplicated
//!   per (requester, victim) pair so an idle shard posts at most one
//!   outstanding request per victim.
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
//! installed**: the only new cost on the hot paths is one acquire load per
//! VP slice (the `Vm`'s empty fabric slot), which the bench gate holds
//! within noise of the pre-fleet baseline.

use crate::machine::{PhysicalMachine, Queued};
use crate::pm::{EnqueueState, PolicyManager, RunItem};
use crate::policies;
use crate::thread::ThreadResult;
use crate::topology::Topology;
use crate::trace::{sort_events, EventKind, TraceEvent};
use crate::vm::Vm;
use crate::vp::Vp;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use sting_value::Value;

mod mailbox {
    //! The per-shard-pair mailbox: a bounded SPSC ring with claim flags
    //! that serialize the (possibly several) VPs on each side.
    //!
    //! Protocol — the classic single-producer/single-consumer ring:
    //! the producer writes the slot, *then* publishes it with a `Release`
    //! store of `tail`; the consumer `Acquire`-loads `tail`, so every slot
    //! write it observes is fully initialised.  The `Release` on the tail
    //! store is load-bearing: `crates/core/tests/model_fleet.rs`
    //! model-checks the production ring for exactly-once in-order delivery
    //! and proves (by an expect-failure mutation with a `Relaxed` publish)
    //! that weakening it loses messages.

    // Under `--cfg sting_check` the atomics are the model checker's shims,
    // so `./ci.sh check` explores the ring protocol exhaustively.
    use std::cell::UnsafeCell;
    #[cfg(not(sting_check))]
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    #[cfg(sting_check)]
    use sting_check::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A bounded SPSC ring carrying cross-shard messages.
    ///
    /// "Single producer" is the *source shard* and "single consumer" the
    /// *destination shard*; because a shard has several VPs, each side is
    /// serialized by a claim flag (`prod`/`cons`).  The producer claim is
    /// a short spin (the holder only writes one slot — it never blocks or
    /// allocates while claimed); the consumer claim is try-only, so a VP
    /// that loses it simply skips the drain and a sibling does the work.
    ///
    /// A full ring overflows into a mutex-protected side queue rather than
    /// blocking: with shards multiplexed on one worker, a producer spinning
    /// for ring space could be holding the very OS thread the consumer
    /// needs.  While spilled messages wait, every later push joins them in
    /// the side queue and `drain` empties the ring before taking it, so
    /// delivery stays FIFO across a spill.  The overflow path is never
    /// taken by the model tests and is compiled out under `sting_check`.
    pub struct Mailbox<T> {
        mask: usize,
        slots: Box<[UnsafeCell<Option<T>>]>,
        /// Next slot to consume; written only by the consumer.
        head: AtomicUsize,
        /// Next free slot / publish count; written only by the producer.
        tail: AtomicUsize,
        /// Producer-side claim serializing same-shard VPs.
        prod: AtomicBool,
        /// Consumer-side claim serializing same-shard VPs.
        cons: AtomicBool,
        #[cfg(not(sting_check))]
        overflow: parking_lot::Mutex<std::collections::VecDeque<T>>,
        /// Whether `overflow` holds spilled messages.  While set, `push`
        /// routes *every* message through the overflow queue — a newer
        /// message slotted into freed ring space would otherwise be
        /// drained (ring first) ahead of older spilled ones, breaking the
        /// FIFO contract.  Set by the producer and cleared by the
        /// consumer, each under the `overflow` mutex.
        #[cfg(not(sting_check))]
        spilled: AtomicBool,
    }

    // SAFETY: the ring hands each `T` from exactly one thread to exactly
    // one other; the claim flags plus the head/tail protocol make the
    // slot accesses data-race-free (model-checked in model_fleet.rs).
    unsafe impl<T: Send> Sync for Mailbox<T> {}
    // SAFETY: moving the whole mailbox moves only owned slots; `T: Send`
    // is required, so the contained messages may change threads with it.
    unsafe impl<T: Send> Send for Mailbox<T> {}

    impl<T> Mailbox<T> {
        /// An empty mailbox holding up to `capacity` (rounded up to a
        /// power of two) messages in the lock-free ring.
        pub fn new(capacity: usize) -> Mailbox<T> {
            let cap = capacity.next_power_of_two().max(2);
            Mailbox {
                mask: cap - 1,
                slots: (0..cap).map(|_| UnsafeCell::new(None)).collect(),
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
                prod: AtomicBool::new(false),
                cons: AtomicBool::new(false),
                #[cfg(not(sting_check))]
                overflow: parking_lot::Mutex::new(std::collections::VecDeque::new()),
                #[cfg(not(sting_check))]
                spilled: AtomicBool::new(false),
            }
        }

        /// Whether both the ring and the overflow queue look empty (a
        /// cheap pre-check before claiming the consumer role).
        pub fn is_empty(&self) -> bool {
            if self.head.load(Ordering::Acquire) != self.tail.load(Ordering::Acquire) {
                return false;
            }
            #[cfg(not(sting_check))]
            if !self.overflow.lock().is_empty() {
                return false;
            }
            true
        }

        /// Delivers `value` to the consumer side.  Never blocks and never
        /// drops: a full ring spills to the overflow queue, and while
        /// spilled messages wait, later pushes follow them there so
        /// arrival order survives the spill.
        pub fn push(&self, value: T) {
            // Claim the producer role.  Contention is only between VPs of
            // the same shard and the critical section is a handful of
            // stores, so a spin is bounded and short.
            while self.prod.swap(true, Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let tail = self.tail.load(Ordering::Relaxed);
            let head = self.head.load(Ordering::Acquire);
            // A stale `spilled` read is safe in both directions: producers
            // are serialized by `prod` (Release/Acquire), so a set flag is
            // always visible, and racing the consumer's clear at worst
            // routes one more message through the overflow queue — still
            // in order, since the queue it joins was (or just was) the
            // tail of the line.
            #[cfg(not(sting_check))]
            let to_ring =
                tail.wrapping_sub(head) <= self.mask && !self.spilled.load(Ordering::Relaxed);
            #[cfg(sting_check)]
            let to_ring = tail.wrapping_sub(head) <= self.mask;
            if to_ring {
                // SAFETY: slot `tail` is unpublished (only this claimed
                // producer writes it; the consumer reads slots only below
                // the published tail).
                unsafe { *self.slots[tail & self.mask].get() = Some(value) };
                // The publish: everything written above becomes visible
                // to the consumer's Acquire load of `tail`.
                self.tail.store(tail.wrapping_add(1), Ordering::Release);
            } else {
                #[cfg(not(sting_check))]
                {
                    let mut overflow = self.overflow.lock();
                    overflow.push_back(value);
                    self.spilled.store(true, Ordering::Relaxed);
                }
                #[cfg(sting_check)]
                panic!("mailbox ring overflow under model check");
            }
            self.prod.store(false, Ordering::Release);
        }

        /// Drains every currently-published message, in arrival order,
        /// into `f`.  Returns how many were delivered.  If another VP of
        /// the destination shard holds the consumer claim, returns 0 — the
        /// holder will see the messages.
        pub fn drain(&self, mut f: impl FnMut(T)) -> usize {
            // Try-claim the consumer role; a sibling VP already draining
            // will deliver anything we would have seen.
            if self.cons.swap(true, Ordering::Acquire) {
                return 0;
            }
            let mut n = 0;
            let mut head = self.head.load(Ordering::Relaxed);
            // Exhaust the ring (re-reading `tail`) before touching the
            // overflow queue: everything spilled is newer than everything
            // in the ring (while `spilled` is set no push lands in the
            // ring), so ring-then-overflow is arrival order only if the
            // ring is empty when the overflow is taken.
            loop {
                let tail = self.tail.load(Ordering::Acquire);
                if head == tail {
                    break;
                }
                while head != tail {
                    // SAFETY: `head` is published (< tail) and only this
                    // claimed consumer takes from it.
                    let v = unsafe { (*self.slots[head & self.mask].get()).take() };
                    head = head.wrapping_add(1);
                    // Release so the producer's Acquire of `head` sees the
                    // slot vacated before it reuses it.
                    self.head.store(head, Ordering::Release);
                    if let Some(v) = v {
                        f(v);
                        n += 1;
                    }
                }
            }
            #[cfg(not(sting_check))]
            {
                // Take and clear under one lock hold so a producer that
                // sees `spilled` unset also sees the queue empty.
                let spilled = {
                    let mut overflow = self.overflow.lock();
                    self.spilled.store(false, Ordering::Relaxed);
                    std::mem::take(&mut *overflow)
                };
                for v in spilled {
                    f(v);
                    n += 1;
                }
            }
            self.cons.store(false, Ordering::Release);
            n
        }
    }
}

pub use mailbox::Mailbox;

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
    /// The shard `from` is idle and asks the destination for work.
    WorkRequest {
        /// Requesting (idle) shard.
        from: usize,
    },
}

/// A fabric message plus the sender's Lamport-clock reading at send time;
/// the receiver witnesses `lc` before acting so causally-later events sort
/// later in the merged trace.
struct Stamped {
    lc: u64,
    msg: FabricMsg,
}

/// How mail wakes its destination shard `dest`: every VP of the shard
/// drains the mailboxes at its next slice, so an idle worker is woken to
/// run VP 0, or, while VP 0 runs, another VP of the shard if it has one.
fn shard_mail(dest: &Vm) -> Queued {
    Queued::Remotely {
        stealable: dest.vp_count() > 1,
    }
}

/// The cross-shard interconnect: an N×N matrix of [`Mailbox`]es plus the
/// steal-request dedup flags.  One `Fabric` is shared by every shard of a
/// [`Fleet`] (standalone VMs have none).
pub struct Fabric {
    /// Shard VMs, weakly — the [`Fleet`] holds the strong references, and
    /// each `Vm` holds an `Arc<Fabric>`, so strong back-references here
    /// would leak the whole fleet.
    shards: Vec<Weak<Vm>>,
    /// `boxes[from * n + to]` carries messages from shard `from` to `to`.
    boxes: Vec<Mailbox<Stamped>>,
    /// `want_work[requester * n + victim]`: a work request from
    /// `requester` is already in flight to `victim`.
    want_work: Vec<std::sync::atomic::AtomicBool>,
    /// Per-shard round-robin cursor over steal victims.
    next_victim: Vec<AtomicUsize>,
}

impl Fabric {
    fn new(shards: Vec<Weak<Vm>>) -> Fabric {
        let n = shards.len();
        Fabric {
            shards,
            boxes: (0..n * n).map(|_| Mailbox::new(MAILBOX_CAPACITY)).collect(),
            want_work: (0..n * n)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
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
    /// posted over the mailbox, stamped with the sender's clock, and the
    /// destination machine is signalled.
    ///
    /// A call still in a mailbox when the fleet shuts down is **dropped**
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
        let me = from.shard_id();
        if me == to {
            f(from);
            return;
        }
        from.counts(crate::tls::lane_in(from)).routed_ops.bump();
        let lc = from.tracer().clock();
        self.boxes[me * self.shards.len() + to].push(Stamped {
            lc,
            msg: FabricMsg::Call {
                f,
                apply_at_shutdown,
            },
        });
        if let Some(dest) = self.shard_vm(to) {
            dest.signal_work(0, shard_mail(&dest));
        }
    }

    /// Whether any of this shard's inbound mailboxes holds a message.
    pub(crate) fn has_mail(&self, vm: &Vm) -> bool {
        let (me, n) = (vm.shard_id(), self.shards.len());
        (0..n).any(|from| from != me && !self.boxes[from * n + me].is_empty())
    }

    /// Drains this shard's inbound mailboxes: enqueues handed-off work,
    /// runs routed calls, and serves siblings' work requests.  Called once
    /// per VP slice (under the VP's [`OwnerWord`](crate::deque::OwnerWord));
    /// returns whether anything was delivered.
    pub(crate) fn pump(&self, vm: &Arc<Vm>, vp: &Arc<Vp>) -> bool {
        if vm.is_stopped() {
            return false;
        }
        let me = vm.shard_id();
        let n = self.shards.len();
        let mut delivered = false;
        for from in 0..n {
            if from == me {
                continue;
            }
            let mbx = &self.boxes[from * n + me];
            if mbx.is_empty() {
                continue;
            }
            mbx.drain(|stamped| {
                vm.tracer().witness(stamped.lc);
                match stamped.msg {
                    FabricMsg::Handoff(item) => {
                        // Receiver-side re-home: the item is quiescent
                        // (owned solely by this drain), so both the owning
                        // VM and the wake target flip together before the
                        // thread becomes runnable here.
                        let thread = item.thread().clone();
                        thread.rehome(vm);
                        thread.home_vp.store(vp.index(), Ordering::Relaxed);
                        vp.enqueue(vm, item, EnqueueState::Migrated);
                        delivered = true;
                    }
                    FabricMsg::Call { f, .. } => {
                        f(vm);
                        delivered = true;
                    }
                    FabricMsg::WorkRequest { from: requester } => {
                        self.want_work[requester * n + me]
                            .store(false, std::sync::atomic::Ordering::Release);
                        if let Some(item) = vp.surrender_for_fleet() {
                            self.post_handoff(vm, vp, item, requester);
                        }
                    }
                }
            });
        }
        delivered
    }

    /// Posts `item` to shard `dest`, recording the [`EventKind::Handoff`]
    /// on the source lane first so the merged audit sees the source
    /// shard's enqueue consumed before the destination's re-publish.
    fn post_handoff(&self, vm: &Arc<Vm>, vp: &Arc<Vp>, item: RunItem, dest: usize) {
        let me = vm.shard_id();
        let (from, to) = (me as u32, dest as u32);
        vm.note(
            Some(vp.index()),
            EventKind::Handoff,
            item.thread(),
            from,
            to,
        );
        let lc = vm.tracer().clock();
        self.boxes[me * self.shards.len() + dest].push(Stamped {
            lc,
            msg: FabricMsg::Handoff(item),
        });
        if let Some(dvm) = self.shard_vm(dest) {
            dvm.signal_work(0, shard_mail(&dvm));
        }
    }

    /// An idle shard asks the next victim (round-robin) for work; at most
    /// one request per (requester, victim) pair is ever in flight.
    ///
    /// The request does not wake the victim: an idle victim has nothing to
    /// give, and a busy one drains its mailbox at its next slice.  (When
    /// requests did wake it, two idle shards asked each other back and
    /// forth forever.)  An idle requester hears of new work through the
    /// machine's chained wake: a worker woken for work that finds some
    /// wakes one more, which asks again.
    pub(crate) fn request_work(&self, vm: &Arc<Vm>) {
        let n = self.shards.len();
        if n < 2 || vm.is_stopped() {
            return;
        }
        let me = vm.shard_id();
        let victim = {
            let v = self.next_victim[me].fetch_add(1, Ordering::Relaxed) % (n - 1);
            if v >= me {
                v + 1
            } else {
                v
            }
        };
        if self.want_work[me * n + victim]
            .compare_exchange(
                false,
                true,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        let lc = vm.tracer().clock();
        self.boxes[me * n + victim].push(Stamped {
            lc,
            msg: FabricMsg::WorkRequest { from: me },
        });
    }

    /// Shutdown sweep: empties every mailbox, completing in-flight
    /// handed-off threads with the same `vm-shutdown` error
    /// [`Vm::drain`](crate::vm::Vm) uses, **applying** durable calls
    /// (routed deposits — dropping one would lose its tuple), and
    /// dropping plain calls (their waiters were already completed by
    /// their home shard's drain).
    fn sweep(&self) {
        let n = self.shards.len();
        let shutdown_err: ThreadResult = Err(Value::sym("vm-shutdown"));
        for (idx, mbx) in self.boxes.iter().enumerate() {
            // `boxes[from * n + to]`: the destination shard owns the
            // state a durable call mutates.
            let dest = self.shard_vm(idx % n);
            mbx.drain(|stamped| match stamped.msg {
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
                }
                | FabricMsg::WorkRequest { .. } => {}
            });
        }
    }
}

/// Ring capacity per shard-pair mailbox; beyond this, messages spill to
/// the mutex-protected overflow queue (never dropped, never blocking).
const MAILBOX_CAPACITY: usize = 256;

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
    /// installed, so the VM's hot paths are byte-for-byte the standalone
    /// ones — the bench gate (`shard/*-1shard` vs the pre-fleet baseline)
    /// enforces this stays true.
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
    /// …), merge-sorted by `(lc, ts_ns)` — the Lamport order the mailbox
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
    /// handoffs so no thread is left undetermined in a mailbox.
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
    fn mailbox_delivers_in_order() {
        let m: Mailbox<u64> = Mailbox::new(8);
        assert!(m.is_empty());
        for i in 0..5 {
            m.push(i);
        }
        let mut got = Vec::new();
        assert_eq!(m.drain(|v| got.push(v)), 5);
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert!(m.is_empty());
    }

    #[test]
    fn mailbox_overflow_spills_without_loss() {
        let m: Mailbox<u64> = Mailbox::new(2);
        for i in 0..10 {
            m.push(i);
        }
        let mut got = Vec::new();
        m.drain(|v| got.push(v));
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// Pushes racing a drain while older messages sit spilled must not
    /// jump the queue through freed ring slots: the reentrant pushes here
    /// land while the consumer has already vacated ring space, which the
    /// pre-fix code let the *next* spill overtake.
    #[test]
    fn mailbox_stays_fifo_across_an_overflow_spill() {
        let m = Mailbox::new(4);
        let m = &m;
        for i in 0..5u64 {
            m.push(i); // 0..=3 fill the ring, 4 spills
        }
        let got = std::cell::RefCell::new(Vec::new());
        m.drain(|v: u64| {
            if v == 0 {
                // Concurrent producer: ring slots are free again, but 4
                // is still spilled — these must be delivered after it.
                for i in 5..9 {
                    m.push(i);
                }
            }
            got.borrow_mut().push(v);
        });
        m.push(9); // spill drained: back to the ring
        m.drain(|v| got.borrow_mut().push(v));
        assert_eq!(got.into_inner(), (0..10).collect::<Vec<_>>());
    }

    /// An in-flight durable call (a routed deposit) survives shutdown —
    /// the sweep applies it — while a plain call is dropped.
    #[test]
    fn shutdown_sweep_applies_durable_calls_and_drops_plain_ones() {
        use std::sync::atomic::AtomicBool;
        let fleet = Fleet::builder().shards(2).build();
        let fabric = fleet.fabric().unwrap().clone();
        // Stop the shards first: pump no longer drains, so both calls
        // are still sitting in the mailbox when the sweep runs.
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
