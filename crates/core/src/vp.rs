//! Virtual processors.
//!
//! A [`Vp`] is the paper's first-class virtual processor: it is closed over
//! a thread controller (the `run_slice` state machine,
//! identical for all VPs) and a [`PolicyManager`] (replaceable per VP).
//! VPs also own the TCB/stack recycling pool, so thread dynamic state is
//! "cached on VPs and recycled for immediate reuse".
//!
//! VPs are multiplexed on physical processors
//! ([`crate::machine::PhysicalMachine`] worker OS threads) the same way
//! threads are multiplexed on VPs.
//!
//! ## Who keeps the ready queue
//!
//! The paper's §3.3 lets a policy manager keep "the queue of evaluating
//! threads locally", so that no lock guards it.  A VP's ready queue is
//! kept by one of two parties, chosen at construction from
//! [`PolicyManager::queue_kind`]:
//!
//! * **The substrate** (every [`LocalQueue`](crate::policies::LocalQueue)
//!   order: FIFO, LIFO, priority, deadline): a lock-free banded
//!   [`MultiDeque`] the owning worker pushes and pops without locks, plus
//!   an [`Injector`] for submissions from other threads.  Items are
//!   banded once at enqueue time by the policy's
//!   [`BandMap`](crate::pm::BandMap) — FIFO and LIFO put everything in
//!   band 0; pop and steal serve the highest non-empty band first (one
//!   atomic bitmask read), FIFO or LIFO within a band.  Idle sibling VPs
//!   steal from a band's cold end with one CAS.  Forks stay on the forking
//!   VP; the policy manager is consulted only for the idle hook
//!   (`vp_idle`) and hints, and no longer sees per-item traffic.
//! * **The manager** ([`GlobalQueue`](crate::policies::GlobalQueue) and
//!   user-written policies): every operation goes through the policy
//!   manager's own queue under the VP's policy lock — the fully general
//!   path.
//!
//! See DESIGN.md, "Scheduler fast path", for the memory-ordering argument
//! and the paper-operation-to-tier mapping.

use crate::deque::{Injector, MultiDeque, OwnerWord, Steal};
use crate::machine::Queued;
use crate::pad::CachePadded;
use crate::pm::{DequeCaps, EnqueueState, PolicyManager, QueueKind, RunItem};
use crate::probe::{self, Probe};
use crate::tc;
use crate::tcb::{Disposition, Tcb, ThreadFiber, Wakeup};
use crate::thread::{Body, Thread};
use crate::tls;
use crate::trace::EventKind;
use crate::vm::Vm;
use parking_lot::Mutex;
use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, Weak};
use sting_context::fiber::FiberResult;
use sting_context::{Fiber, StackPool};

/// Stacks a VP keeps for recycling once their threads determine.
const STACK_POOL_CAPACITY: usize = 64;

/// The substrate-kept ready queue of a VP (see DESIGN.md, "Scheduler fast
/// path").  Present iff the VP's policy opted in via
/// [`PolicyManager::queue_kind`].
///
/// The [`MultiDeque`] is owner-operated: only the worker running this VP's
/// slice (the holder of its [`OwnerWord`]) pushes and pops it.  Every other thread — host
/// forks, cross-VP wake-ups, due timers — submits through the
/// [`Injector`]; the owner folds the injector into the deque at each
/// dequeue, which restores arrival order within each band and makes the
/// items stealable.  An item's band is computed exactly once, at
/// submission, from the policy's [`BandMap`](crate::pm::BandMap), and
/// travels through the injector beside the item.
///
/// Every policy runs this one path.  A FIFO or LIFO policy is the banded
/// queue with every item in band 0: its push reads the occupancy word and
/// finds band 0's bit set, its pop reads the word and goes to band 0, and
/// the word is written only when the queue goes from empty to non-empty
/// or back.
struct FastQueue {
    caps: DequeCaps,
    deque: MultiDeque<RunItem>,
    /// Padded: remote submitters write its head, and the owner's every
    /// dequeue reads it — it must not drag `caps` or a buffer pointer along.
    injector: CachePadded<Injector<(usize, RunItem)>>,
}

impl FastQueue {
    fn new(caps: DequeCaps) -> FastQueue {
        FastQueue {
            caps,
            deque: MultiDeque::new(),
            injector: CachePadded(Injector::new()),
        }
    }

    /// The band a thread of this priority dispatches from, per the
    /// policy's declared map.
    fn band_of(&self, thread: &Thread) -> usize {
        self.caps.bands.band(thread.priority())
    }

    /// Items queued, submitted ones included (a relaxed snapshot).
    fn len(&self) -> usize {
        self.deque.len() + self.injector.len()
    }

    /// Owner-side push.  A fresh thread's slot word carries the tag bit
    /// (see [`RunItem`]'s `Slot` encoding), so thieves of a
    /// no-TCB-migration policy can decline parked items without claiming
    /// them (see [`MultiDeque::steal`]).
    fn push(&self, item: RunItem) {
        self.deque.push(self.band_of(item.thread()), item);
    }

    /// Submission from any thread but the owner: one CAS.
    fn inject(&self, item: RunItem) {
        self.injector.push((self.band_of(item.thread()), item));
    }

    /// [`FastQueue::inject`] for many items, still one CAS
    /// ([`Injector::push_batch`]); arrival order is kept within each band.
    fn inject_batch(&self, items: impl Iterator<Item = RunItem>) {
        self.injector
            .push_batch(items.map(|it| (self.band_of(it.thread()), it)));
    }

    /// Owner-side dequeue: fold in remote submissions, then take from the
    /// highest non-empty band, at the end the policy's discipline
    /// dictates.
    fn pop(&self) -> Option<RunItem> {
        for (band, item) in self.injector.take_all() {
            self.deque.push(band, item);
        }
        self.deque.pop(self.caps.fifo)
    }

    /// Pop-on-join, first half: removes `thread`'s entry if it is the
    /// newest of its band — where the entry of a thread touched right
    /// after its fork sits.  **Owner only.**
    fn take_entry(&self, thread: &Arc<Thread>) {
        let entry = RunItem::fresh_word(thread);
        drop(
            self.deque
                .pop_if(self.band_of(thread), |word| word == entry),
        );
    }

    /// Pop-on-join, second half: drops the fresh entries at the bottom of
    /// `thread`'s band whose threads were absorbed while they were buried
    /// (each is claimed through the pop protocol before it is looked at),
    /// stopping at the first live one.  **Owner only.**
    fn reap_dead(&self, thread: &Thread) {
        let band = self.band_of(thread);
        while let Some(item) = self.deque.pop_if(band, |word| word & 1 == 1) {
            if !item.is_dead() {
                self.deque.push(band, item);
                break;
            }
        }
    }

    /// Thief-side: gives up one item that can still run, if the policy
    /// lets work leave this VP at all — from the cold (oldest) end of the
    /// highest band holding something eligible.  When TCBs must stay home
    /// only a fresh-tagged top item may be taken; the tag check needs no
    /// claim, so declining a parked item leaves the queue untouched and
    /// the scan moves on to the next lower band.  Entries whose thread a
    /// toucher has absorbed are dropped on the way — they are garbage, not
    /// work.  `None` when the deque is observed empty, holds nothing
    /// eligible, or a claim is contended.
    fn surrender(&self) -> Option<RunItem> {
        if !self.caps.steal {
            return None;
        }
        loop {
            match self.deque.steal(!self.caps.steal_tcbs) {
                Steal::Success(item) if item.is_dead() => {}
                Steal::Success(item) => return Some(item),
                Steal::Empty | Steal::Retry => return None,
            }
        }
    }

    /// Thief-side rescue, for when [`FastQueue::surrender`] gave nothing:
    /// remote submissions may be backed up in the injector while the owner
    /// is stuck in a long quantum, never folding them in.  Takes the
    /// highest-band eligible item (oldest within its band — the order the
    /// owner would dispatch) and puts the rest back in one CAS, on the
    /// nodes they already have ([`Injector::take_best`]).  Declines, like
    /// `surrender`, when the policy keeps its work home.
    fn rescue(&self, vm: &Vm, index: usize) -> Option<RunItem> {
        if !self.caps.steal {
            return None;
        }
        // A parked TCB may outrank a fresh thread only where TCBs migrate.
        let (chosen, requeued) = self.injector.take_best(|(band, it)| {
            ((self.caps.steal_tcbs || it.is_fresh()) && !it.is_dead()).then_some(*band)
        });
        if requeued {
            // The original submission signals were consumed; re-arm so the
            // put-back work is not stranded.
            vm.signal_work(index, Queued::Remotely { stealable: true });
        }
        chosen.map(|(_, it)| it)
    }

    /// Everything queued, submitted or not.  Thief-side, so safe from any
    /// thread; every owner push has published its band's occupancy bit by
    /// the time it returns, so the steal scan misses nothing.
    fn drain(&self) -> impl Iterator<Item = RunItem> + '_ {
        let submitted = self.injector.take_all().map(|(_, it)| it);
        submitted.chain(std::iter::from_fn(|| self.deque.steal_retrying(false)))
    }
}

/// Holds a VP's owner word for the duration of one slice.
struct OwnerGuard<'a>(&'a OwnerWord);

impl<'a> OwnerGuard<'a> {
    fn take(word: &'a OwnerWord) -> Option<OwnerGuard<'a>> {
        // Built only on success: a guard's drop gives the word back.
        word.try_take().then(|| OwnerGuard(word))
    }
}

impl Drop for OwnerGuard<'_> {
    fn drop(&mut self) {
        self.0.give_back();
    }
}

/// The part of a VP its slice's worker writes: kept on lines of its own so
/// that thieves reading the rest of the [`Vp`] (its index, its queue's
/// capabilities and buffers) never wait on the owner's lock traffic.
struct Owned {
    pm: Mutex<Box<dyn PolicyManager>>,
    stack_pool: Mutex<StackPool>,
}

/// A first-class virtual processor.
pub struct Vp {
    index: usize,
    vm: Weak<Vm>,
    /// Substrate-kept ready queue; `None` when the policy manager keeps
    /// its own.
    fast: Option<FastQueue>,
    /// The only tie between this VP and a machine worker: whichever worker
    /// takes it runs the VP's next slice.  Every worker's pass reads it, so
    /// it has a line of its own, away from the owner's locks.
    owner: CachePadded<OwnerWord>,
    owned: CachePadded<Owned>,
}

impl std::fmt::Debug for Vp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vp")
            .field("index", &self.index)
            .field("policy", &self.policy_name())
            .finish()
    }
}

impl Vp {
    pub(crate) fn new(
        index: usize,
        vm: Weak<Vm>,
        pm: Box<dyn PolicyManager>,
        stack_size: usize,
    ) -> Vp {
        let fast = match pm.queue_kind() {
            QueueKind::Deque(caps) => Some(FastQueue::new(caps)),
            QueueKind::Policy => None,
        };
        Vp {
            index,
            vm,
            fast,
            owner: CachePadded(OwnerWord::default()),
            owned: CachePadded(Owned {
                pm: Mutex::new(pm),
                stack_pool: Mutex::new(StackPool::new(stack_size, STACK_POOL_CAPACITY)),
            }),
        }
    }

    /// The VP's policy manager, under its lock.
    pub(crate) fn pm(&self) -> parking_lot::MutexGuard<'_, Box<dyn PolicyManager>> {
        probe::hit(Probe::PolicyLock);
        self.owned.pm.lock()
    }

    /// Where a thread forked on this VP is first scheduled
    /// (`pm-allocate-vp`): here, on the deque tier, without asking the
    /// manager; the manager's [`PolicyManager::choose_vp`], under the
    /// policy lock, on the policy tier.
    pub(crate) fn fork_target(&self) -> usize {
        match self.fast {
            Some(_) => self.index,
            None => self.pm().choose_vp(self),
        }
    }

    /// This VP's index within its virtual machine (VPs are enumerable, so
    /// programs can map work onto specific processors).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The owning virtual machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine has been dropped.
    pub fn vm(&self) -> Arc<Vm> {
        probe::hit(Probe::WeakUpgrade);
        self.vm.upgrade().expect("virtual machine dropped")
    }

    /// Name of the installed scheduling policy.
    pub fn policy_name(&self) -> &'static str {
        self.pm().name()
    }

    /// Number of items in this VP's ready set.
    pub fn queue_len(&self) -> usize {
        match &self.fast {
            Some(fq) => fq.len(),
            None => self.pm().len(),
        }
    }

    /// Whether a worker is running a slice of this VP (a plain load).
    pub(crate) fn is_owned(&self) -> bool {
        self.owner.is_taken()
    }

    /// Whether the substrate keeps this VP's ready queue, on the lock-free
    /// deque tier, rather than its policy manager, under the policy lock
    /// (see [`PolicyManager::queue_kind`]).
    pub fn lock_free_queue(&self) -> bool {
        self.fast.is_some()
    }

    /// This VP's stack-pool statistics: `(stacks handed out, hand-outs
    /// satisfied from the recycling cache)`.  The second component is the
    /// pool's own ground truth for the VM-level `stacks_recycled` counter.
    pub fn stack_pool_stats(&self) -> (u64, u64) {
        self.owned.stack_pool.lock().stats()
    }

    /// Victim side of thread migration: surrenders an item to `thief`, or
    /// declines.  Returns `None` on contention, when the policy declines,
    /// or when asked to migrate to itself.
    ///
    /// On the deque tier this is one lock-free [`MultiDeque::steal`] from
    /// the cold (oldest) end of the highest non-empty band — no lock is
    /// taken on the victim at all; a lost CAS race counts as contention.
    /// When the policy forbids TCB migration, a parked item at a band's
    /// top is declined *without claiming it*, and the scan falls through
    /// to lower bands.  A deque that yields nothing sends the thief to the
    /// victim's injector, where submissions wait for an owner that may be
    /// deep in a long quantum.  On the policy tier the manager's
    /// [`PolicyManager::offer_migration`] is asked under `try_lock`, so
    /// concurrent idle VPs never deadlock on each other's policy locks.
    ///
    /// Entries whose thread a toucher has already absorbed are dropped on
    /// the way, on either tier: they are garbage, and nothing migrates.
    ///
    /// On success the surrendered thread's home VP is re-pointed at the
    /// thief — it has irrevocably left this VP's queue, and any wake-up
    /// racing with the hand-off should target where it is about to run.
    /// The migrations counter is bumped only at that commit point, never
    /// for declined, dead or self-directed offers.
    pub fn try_offer_migration(self: &Arc<Vp>, thief: &Vp) -> Option<RunItem> {
        if self.index == thief.index() {
            return None;
        }
        let vm = self.vm.upgrade()?;
        // Steal latency covers the whole successful offer (queue CAS or
        // policy consultation + hand-off bookkeeping), timed on the thief.
        vm.steal_begin(thief.index());
        let item = match &self.fast {
            Some(fq) => fq.surrender().or_else(|| fq.rescue(&vm, self.index))?,
            None => {
                let mut pm = self.owned.pm.try_lock()?;
                pm.offer_migration(self).filter(|item| !item.is_dead())?
            }
        };
        let thread = item.thread();
        thread.home_vp.store(thief.index(), Ordering::Relaxed);
        let (migrate, from, to) = (EventKind::Migrate, self.index as u32, thief.index() as u32);
        vm.note(Some(thief.index()), migrate, thread, from, to);
        Some(item)
    }

    /// Enqueues `item` on this VP's ready queue and signals the machine.
    /// `vm` is this VP's machine, which every caller already holds.
    ///
    /// Deque tier: if the calling OS thread is running a thread on this VP
    /// (detected via the scheduler TLS — by identity, since VP indices
    /// collide across VMs), the item goes straight onto the deque; any
    /// other thread submits through the injector.  Policy tier: the
    /// manager's [`PolicyManager::enqueue_thread`] under the policy lock.
    pub(crate) fn enqueue(&self, vm: &Vm, item: RunItem, state: EnqueueState) {
        let owner = self.fast.is_some() && tls::is_current_vp(self);
        self.enqueue_from(vm, item, state, owner);
    }

    /// [`Vp::enqueue`] with the owner role already decided.  `owner` may
    /// only be `true` on the worker currently holding this VP's
    /// [`OwnerWord`] (the TC run loop passes it for re-enqueues that
    /// happen after the running TCB is cleared from the TLS slot).
    fn enqueue_from(&self, vm: &Vm, item: RunItem, state: EnqueueState, owner: bool) {
        // Note the enqueue *before* the item becomes visible: the instant
        // the push lands, a thief may steal it and record its Migrate, and
        // the trace audit (see [`crate::audit`]) relies on every steal
        // being preceded by its enqueue in timestamp order.
        self.note_enqueue(vm, item.thread(), state, owner);
        let owner_push = if let Some(fq) = &self.fast {
            if owner {
                fq.push(item);
            } else {
                fq.inject(item);
            }
            owner
        } else {
            self.pm().enqueue_thread(self, item, state);
            false
        };
        // An owner push needs no wake-up for its own sake: the pusher *is*
        // the consumer and is mid-slice.  On a stealable queue it offers
        // the item to an idle worker, which costs one load when nobody is
        // parked.  Everything else may target a sleeping worker.
        let stealable = self.stealable(vm);
        if !owner_push {
            vm.signal_work(self.index, Queued::Remotely { stealable });
        } else if stealable {
            vm.signal_work(self.index, Queued::ByOwner);
        }
    }

    /// Notes the enqueue of `thread` onto this VP: on this VP's own lane
    /// for an owner push, else on the caller's.
    fn note_enqueue(&self, vm: &Vm, thread: &Thread, state: EnqueueState, owner: bool) {
        let lane = if owner {
            Some(self.index)
        } else {
            tls::lane_in(vm)
        };
        vm.note(
            lane,
            EventKind::Enqueue,
            thread,
            state as u32,
            self.index as u32,
        );
    }

    /// Whether another VP of `vm` may run what is queued here: there is
    /// one, and the deque tier's steal capability, or, on the policy tier,
    /// whatever the manager's own queue and idle hook allow.
    fn stealable(&self, vm: &Vm) -> bool {
        vm.vp_count() > 1 && self.fast.as_ref().is_none_or(|fq| fq.caps.steal)
    }

    /// Enqueues many items at once — the batched-wake fast path used by
    /// [`WaitList::wake_all`](crate::wait::WaitList) sweeps (broadcast,
    /// barrier release).  Deque tier: a thread running on this VP pushes
    /// the items straight onto the deque, as [`Vp::enqueue`] does one;
    /// any other caller publishes them with a *single* injector CAS
    /// ([`Injector::push_batch`]), preserving arrival order within each
    /// band.  Policy tier: one policy-lock acquisition covers the whole
    /// batch.  Either way the machine is signalled once, not `n` times.
    ///
    /// Every item's Enqueue is traced *before* the item becomes visible,
    /// for the same audit-ordering reason as [`Vp::enqueue_from`]; an
    /// injected batch is linked privately and published after its last
    /// trace.
    pub(crate) fn enqueue_batch(
        &self,
        vm: &Vm,
        items: impl IntoIterator<Item = RunItem>,
        state: EnqueueState,
    ) {
        let mut count = 0usize;
        let owner = self.fast.is_some() && tls::is_current_vp(self);
        let traced = items.into_iter().inspect(|item| {
            count += 1;
            self.note_enqueue(vm, item.thread(), state, owner);
        });
        match &self.fast {
            Some(fq) if owner => traced.for_each(|item| fq.push(item)),
            Some(fq) => fq.inject_batch(traced),
            None => {
                let mut pm = self.pm();
                for item in traced {
                    pm.enqueue_thread(self, item, state);
                }
            }
        }
        if count == 0 {
            return;
        }
        // Signalled as `enqueue_from` signals one item.
        let stealable = self.stealable(vm);
        if !owner {
            vm.signal_work(self.index, Queued::Remotely { stealable });
        } else if stealable {
            vm.signal_work(self.index, Queued::ByOwner);
        }
    }

    /// Pop-on-join, called by a toucher on this VP that has just claimed
    /// `thread` to run it inline: takes the thread's ready-queue entry with
    /// it if that entry is the newest one (see [`FastQueue::take_entry`]).
    /// Policy-tier queues keep their dead entries until dispatch.
    ///
    /// The caller must be a thread running on this VP — which makes it
    /// the deque's owner for the duration of the call.
    pub(crate) fn take_entry(&self, thread: &Arc<Thread>) {
        debug_assert!(tls::is_current_vp(self));
        if let Some(fq) = &self.fast {
            fq.take_entry(thread);
        }
    }

    /// Pop-on-join, after the inline run of `thread` returned on this VP:
    /// reaps the entries that died buried under it (see
    /// [`FastQueue::reap_dead`]).  Same caller contract as
    /// [`Vp::take_entry`].
    pub(crate) fn reap_dead_entries(&self, thread: &Thread) {
        debug_assert!(tls::is_current_vp(self));
        if let Some(fq) = &self.fast {
            fq.reap_dead(thread);
        }
    }

    /// Returns the next item to run, consulting the fast tier first and
    /// falling back to the policy's idle hook (work migration).
    fn next_item(&self) -> Option<RunItem> {
        if let Some(fq) = &self.fast {
            if let Some(item) = fq.pop() {
                return Some(item);
            }
            // Empty: the *policy* still decides whether and where to go
            // raiding (`pm-vp-idle`); the lock is uncontended here because
            // routine traffic no longer takes it.
            self.pm().vp_idle(self)
        } else {
            let mut pm = self.pm();
            pm.get_next_thread(self).or_else(|| pm.vp_idle(self))
        }
    }

    /// Runs up to `budget` threads on this VP, on behalf of its machine
    /// `vm`, if the calling worker wins the VP's [`OwnerWord`].  Returns
    /// `true` if any thread was run.  Called by physical-processor workers,
    /// which learn through `found` — called once, just before the slice's
    /// first dispatch — that the slice has work.
    ///
    /// Entries whose thread was absorbed by a toucher (or terminated)
    /// while queued are discarded as they surface: they cost no budget,
    /// and the slice goes on to whatever lies beneath them.
    pub(crate) fn run_slice(
        self: &Arc<Vp>,
        vm: &Arc<Vm>,
        budget: usize,
        found: impl FnOnce(),
    ) -> bool {
        // Another worker is running this VP: leave it to that one.
        let Some(owner) = OwnerGuard::take(&self.owner) else {
            return false;
        };
        // The borrowed scheduler context: every thread-controller call a
        // thread of this slice makes finds its machine and VP here.
        let slice = tls::enter_slice(vm.clone(), self.clone());
        // Cross-shard fabric: drain inbound handoffs/calls once per slice
        // and, when the slice ends empty-handed, ask a sibling shard for
        // work.  Standalone VMs pay one acquire load for the `None`.
        let fabric = vm.fabric();
        if let Some(fabric) = fabric {
            fabric.pump(vm, self);
        }
        let mut found = Some(found);
        let mut ran = 0;
        while ran < budget && !vm.is_stopped() {
            let Some(item) = self.next_item() else { break };
            let tcb = match item {
                RunItem::Fresh(thread) => {
                    // Revalidate: the thread may have been stolen or
                    // terminated while sitting in the ready queue.
                    let Some(body) = thread.claim(crate::state::ThreadState::Evaluating) else {
                        continue;
                    };
                    vm.note(Some(self.index), EventKind::Dispatch, &thread, 0, 0);
                    self.make_tcb(vm, thread, body)
                }
                RunItem::Parked(tcb) => {
                    // A determined thread's TCB is recycled at its final
                    // switch and must never reappear in a ready queue; a
                    // dispatch here would resume a dead fiber.
                    debug_assert!(
                        !tcb.thread().is_determined(),
                        "dispatching a determined thread's TCB (thread {:?})",
                        tcb.thread().id()
                    );
                    vm.note(Some(self.index), EventKind::Dispatch, tcb.thread(), 1, 0);
                    tcb
                }
            };
            if let Some(found) = found.take() {
                found();
            }
            self.run_tcb(vm, tcb);
            ran += 1;
        }
        if ran == 0 {
            if let Some(fabric) = fabric {
                fabric.request_work(vm);
            }
        }
        drop(slice);
        drop(owner);
        if ran < budget && !vm.is_stopped() && !self.stealable(vm) {
            // The queue ran dry.  A submission or cross-shard mail that saw
            // the word held woke nobody, counting on the owner's next pop or
            // pump; this look stands in for them.  The fence pairs with the
            // signaller's (`Queued`).
            fence(Ordering::SeqCst);
            if self.queue_len() != 0 || fabric.is_some_and(|f| f.has_mail(vm)) {
                vm.signal_work(self.index, Queued::Remotely { stealable: false });
            }
        }
        ran > 0
    }

    /// Pops one migratable item from this VP's own ready queue for a
    /// cross-shard handoff (see [`crate::fleet`]).  Uses the thief-side
    /// steal protocol on the VP's own deque — claiming from the cold end,
    /// exactly the item an in-shard thief would take, so the owner/thief
    /// CASes arbitrate correctly even though the caller is the owning
    /// worker.  Policy-tier VPs never surrender.
    pub(crate) fn surrender_for_fleet(&self) -> Option<RunItem> {
        self.fast.as_ref()?.surrender()
    }

    /// Empties both queue tiers, returning everything that was ready.
    /// Used by [`Vm::drain`](crate::vm::Vm) at shutdown, after the machine
    /// has quiesced.
    pub(crate) fn drain_ready(&self) -> Vec<RunItem> {
        let mut out: Vec<RunItem> = self.fast.iter().flat_map(FastQueue::drain).collect();
        let mut pm = self.pm();
        while let Some(item) = pm.get_next_thread(self) {
            out.push(item);
        }
        out
    }

    /// Allocates a TCB (stack from the recycling pool + fiber) for a
    /// freshly claimed thread.
    fn make_tcb(&self, vm: &Vm, thread: Arc<Thread>, body: Body) -> Tcb {
        let counts = vm.counts(Some(self.index));
        let stack = {
            let mut pool = self.owned.stack_pool.lock();
            // Count *hand-outs the pool satisfied from its cache*, not pool
            // occupancy before the take: the pool's own hit statistic is
            // the ground truth (see the reconciliation test).
            let recycled_before = pool.stats().1;
            let stack = pool.take();
            if pool.stats().1 > recycled_before {
                counts.stacks_recycled.bump();
            }
            stack
        };
        counts.tcbs_allocated.bump();
        let fiber: ThreadFiber = Fiber::new(stack, move |sus, first: Wakeup| {
            debug_assert_eq!(first, Wakeup::Run);
            // The run loop installed this TCB before resuming it.
            tls::with(|cur| {
                cur.expect("a fiber starts under its TCB")
                    .shared
                    .suspender
                    .store(sus as *mut _ as usize, Ordering::Release)
            });
            tc::thread_main(body)
        });
        Tcb::new(thread, self.index, fiber)
    }

    /// Context-switches into `tcb` (its dispatch counted the switch) and
    /// handles its next disposition.
    fn run_tcb(&self, vm: &Vm, mut tcb: Tcb) {
        let shared = tcb.shared.clone();
        shared.vp_index.store(self.index, Ordering::Relaxed);
        shared.thread.home_vp.store(self.index, Ordering::Relaxed);
        shared.slice_end.store(0, Ordering::Relaxed);
        tls::set_thread(shared.clone());
        let outcome = tcb.fiber().resume(Wakeup::Run);
        tls::clear_thread();
        let thread = &shared.thread;
        let disposition_code = match &outcome {
            FiberResult::Yield(Disposition::Yielded { preempted: false }) => 0,
            FiberResult::Yield(Disposition::Yielded { preempted: true }) => 1,
            FiberResult::Yield(Disposition::Blocked) => 2,
            FiberResult::Yield(Disposition::Suspended) => 3,
            FiberResult::Return(_) => 4,
        };
        vm.note(
            Some(self.index),
            EventKind::Switch,
            thread,
            disposition_code,
            0,
        );
        match outcome {
            FiberResult::Yield(Disposition::Yielded { preempted }) => {
                let state = if preempted {
                    EnqueueState::Preempted
                } else {
                    EnqueueState::Yielded
                };
                // Owner push: run_tcb only runs under this VP's slice (and
                // its owner word); no thread is running, so the role is
                // passed explicitly.
                self.enqueue_from(vm, RunItem::Parked(tcb), state, true);
            }
            FiberResult::Yield(d @ (Disposition::Blocked | Disposition::Suspended)) => {
                let suspended = d == Disposition::Suspended;
                let to = if suspended {
                    crate::state::ThreadState::Suspended
                } else {
                    crate::state::ThreadState::Blocked
                };
                // A wake-up that raced ahead of the park hands the TCB back.
                // Noted under the thread's lock, so its wake sees the stamp.
                let requeue = thread.park(tcb, to, || vm.note_park(self.index, thread, suspended));
                if let Some(tcb) = requeue {
                    self.enqueue_from(vm, RunItem::Parked(tcb), EnqueueState::Unblocked, true);
                }
            }
            FiberResult::Return(result) => {
                let stack = tcb.into_stack();
                self.owned.stack_pool.lock().put(stack);
                // The worker is the determiner: it holds the machine and
                // knows its lane, so nothing is looked up.
                thread.complete_on(Some(vm), Some(self.index), result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::BandMap;
    use crate::VmBuilder;
    use sting_context::Stack;

    /// The queue of a policy whose threads may migrate but whose TCBs stay
    /// home.
    fn tcbs_stay_home() -> FastQueue {
        FastQueue::new(DequeCaps {
            fifo: false,
            steal: true,
            steal_tcbs: false,
            bands: BandMap::Single,
        })
    }

    /// A parked TCB of `thread` whose fiber is dropped unstarted.
    fn parked(thread: &Arc<Thread>) -> RunItem {
        let fiber: ThreadFiber =
            Fiber::new(Stack::new(16 * 1024), |_, _| unreachable!("never resumed"));
        RunItem::Parked(Tcb::new(thread.clone(), 0, fiber))
    }

    /// A thief of a policy that keeps TCBs home, facing a backlog of
    /// parked TCBs alone, takes nothing and puts the backlog back as it
    /// was — the same nodes, newest first.  A fresh thread behind them is
    /// taken, and the TCBs put back.
    #[test]
    fn a_thief_facing_only_parked_tcbs_puts_them_back_on_their_nodes() {
        let vm = VmBuilder::new().vps(1).build();
        let fresh = vm.delayed(|_cx| 0i64);
        let fq = tcbs_stay_home();
        fq.inject(parked(&fresh));
        fq.inject(parked(&fresh));
        let head = fq.injector.head_word();
        assert!(fq.rescue(&vm, 0).is_none());
        assert_eq!((fq.injector.head_word(), fq.injector.len()), (head, 2));

        fq.inject(RunItem::Fresh(fresh.clone()));
        let taken = fq.rescue(&vm, 0);
        assert!(matches!(taken, Some(RunItem::Fresh(t)) if Arc::ptr_eq(&t, &fresh)));
        assert_eq!((fq.injector.head_word(), fq.injector.len()), (head, 2));
        assert!(fq.rescue(&vm, 0).is_none());
        assert!(fq.drain().all(|item| !item.is_fresh()));
        vm.shutdown();
    }
}
