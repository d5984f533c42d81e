//! The policy manager interface.
//!
//! The thread controller "defines a thread state transition procedure, but
//! does not define a priori scheduling or migration policies" — those live
//! in a [`PolicyManager`], one per virtual processor, entirely replaceable
//! by applications.  The trait mirrors the paper's six-procedure interface:
//!
//! | paper                  | here                                   |
//! |------------------------|----------------------------------------|
//! | `pm-get-next-thread`   | [`PolicyManager::get_next_thread`]     |
//! | `pm-enqueue-thread`    | [`PolicyManager::enqueue_thread`]      |
//! | `pm-priority`          | [`PolicyManager::set_priority`]        |
//! | `pm-quantum`           | [`PolicyManager::set_quantum`]         |
//! | `pm-allocate-vp`       | [`PolicyManager::choose_vp`]           |
//! | `pm-vp-idle`           | [`PolicyManager::vp_idle`]             |
//!
//! `get_next_thread` returns either a fresh thread (no TCB — "a new TCB
//! must be allocated for it") or a parked TCB ("its associated thread is
//! evaluating"), exactly the distinction the paper draws.  Migration is
//! two-sided: an idle VP's `vp_idle` may pull work that a victim VP's
//! [`PolicyManager::offer_migration`] is willing to give up.

use crate::tcb::Tcb;
use crate::thread::Thread;
use crate::vp::Vp;
use std::sync::Arc;

/// A unit of runnable work handed between the scheduler and a policy
/// manager.
#[derive(Debug)]
pub enum RunItem {
    /// A thread that has not started evaluating; the VP that picks it up
    /// allocates a TCB for it.
    Fresh(Arc<Thread>),
    /// A thread mid-evaluation (between quanta, or just woken); resuming it
    /// is a context switch onto its existing TCB.
    Parked(Tcb),
}

/// How a [`RunItem`] sits in a [`Deque`](crate::deque::Deque) slot: a fresh
/// thread as its raw `Arc` pointer with the tag bit set — no allocation,
/// and the tag is what lets a thief of a no-TCB-migration policy decline a
/// parked item without claiming it — a parked TCB as a `Box`, tag clear.
impl crate::deque::Slot for RunItem {
    fn into_word(self) -> usize {
        match self {
            RunItem::Fresh(t) => t.into_word() | 1,
            RunItem::Parked(tcb) => Box::new(tcb).into_word(),
        }
    }

    unsafe fn from_word(word: usize) -> RunItem {
        // SAFETY: the tag bit records which arm of `into_word` produced
        // `word`; the rest is that arm's unconsumed pointer.
        unsafe {
            if word & 1 == 1 {
                RunItem::Fresh(Arc::from_word(word & !1))
            } else {
                RunItem::Parked(*Box::from_word(word))
            }
        }
    }
}

impl RunItem {
    /// The slot word of `thread`'s fresh entry, for comparing against a
    /// peeked slot (see [`Deque::pop_if`](crate::deque::Deque::pop_if)).
    pub(crate) fn fresh_word(thread: &Arc<Thread>) -> usize {
        Arc::as_ptr(thread) as usize | 1
    }

    /// The thread this item will run.
    pub fn thread(&self) -> &Arc<Thread> {
        match self {
            RunItem::Fresh(t) => t,
            RunItem::Parked(tcb) => tcb.thread(),
        }
    }

    /// Scheduling priority of the underlying thread at this moment.
    pub fn priority(&self) -> i32 {
        self.thread().priority()
    }

    /// Whether this is a fresh (never-run) thread.
    pub fn is_fresh(&self) -> bool {
        matches!(self, RunItem::Fresh(_))
    }

    /// Whether this is the entry of a fresh thread that has since been
    /// claimed some other way — absorbed by a toucher, or terminated while
    /// queued.  Such an entry is garbage: whoever holds it drops it.
    pub(crate) fn is_dead(&self) -> bool {
        matches!(self, RunItem::Fresh(t) if !t.state().is_claimable())
    }
}

/// How a thread's [`priority`](crate::thread::Thread::priority) maps onto
/// the [`BANDS`](crate::deque::BANDS) bands of the multi-level deque tier
/// (higher band = dispatched first).
///
/// The map is declared once in [`DequeCaps`] and applied lock-free at
/// every enqueue, so the policy manager never sees per-item traffic.
///
/// # Examples
///
/// ```
/// use sting_core::deque::BANDS;
/// use sting_core::pm::BandMap;
///
/// // FIFO/LIFO policies ignore priorities: everything is band 0.
/// assert_eq!(BandMap::Single.band(7), 0);
///
/// // Speculative scheduling: higher priority value, higher band.
/// assert_eq!(BandMap::PriorityHigh.band(-5), 0);
/// assert_eq!(BandMap::PriorityHigh.band(2), 2);
/// assert_eq!(BandMap::PriorityHigh.band(100), BANDS - 1);
///
/// // EDF: priorities are deadlines, quantized 1024-ticks-per-band;
/// // an overdue deadline is maximally urgent.
/// assert_eq!(BandMap::Deadline.band(-3), BANDS - 1);
/// assert_eq!(BandMap::Deadline.band(500), BANDS - 1);
/// assert_eq!(BandMap::Deadline.band(1500), BANDS - 2);
/// assert_eq!(BandMap::Deadline.band(1 << 20), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandMap {
    /// Every item lands in band 0, whatever its priority — the
    /// single-level discipline FIFO and LIFO policies use (the default).
    #[default]
    Single,
    /// Higher priority value ⇒ higher band, clamped into `0..BANDS`
    /// (speculative scheduling: favour promising tasks).
    PriorityHigh,
    /// Priorities are deadlines: *lower* value ⇒ higher band, quantized
    /// so each band covers a [`DEADLINE_BAND_SPAN`]-wide window and
    /// everything at or past the last window shares band 0.  With
    /// priority = deadline this is earliest-deadline-first, banded.
    Deadline,
}

/// Width of one [`BandMap::Deadline`] quantization window, in priority
/// units (deadlines `0..SPAN` are maximally urgent, `SPAN..2*SPAN` one
/// band lower, and so on).
pub const DEADLINE_BAND_SPAN: i32 = 1024;

impl BandMap {
    /// The band for an item of the given priority; always `< BANDS`.
    pub fn band(&self, priority: i32) -> usize {
        let top = crate::deque::BANDS - 1;
        match self {
            BandMap::Single => 0,
            BandMap::PriorityHigh => priority.clamp(0, top as i32) as usize,
            BandMap::Deadline => {
                let window = (priority.max(0) / DEADLINE_BAND_SPAN) as usize;
                top - window.min(top)
            }
        }
    }
}

/// What a deque-tier VP may do with its
/// [`MultiDeque`](crate::deque::MultiDeque), as declared by
/// [`PolicyManager::queue_kind`].
///
/// # Examples
///
/// The shipped policies translate their builder switches into caps; a
/// custom policy can hand back its own:
///
/// ```
/// use sting_core::pm::{BandMap, DequeCaps, PolicyManager, QueueKind};
/// use sting_core::policies;
///
/// // A migrating FIFO queue: single band, oldest-first, fresh-only steals.
/// let kind = policies::local_fifo().migrating(true).queue_kind();
/// assert_eq!(
///     kind,
///     QueueKind::Deque(DequeCaps {
///         fifo: true,
///         steal: true,
///         steal_tcbs: false,
///         bands: BandMap::Single,
///     })
/// );
///
/// // A priority queue rides the banded tier, FIFO within each band.
/// let QueueKind::Deque(caps) = policies::priority_high().queue_kind() else {
///     panic!("priority policies ride the deque tier");
/// };
/// assert_eq!(caps.bands, BandMap::PriorityHigh);
/// assert!(caps.fifo);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeCaps {
    /// Owner dequeues oldest-first (FIFO, via a top-end CAS) instead of
    /// newest-first (LIFO, the wait-free bottom-end pop).  Applies within
    /// each band; bands themselves are always served highest-first.
    pub fifo: bool,
    /// Sibling VPs may steal from this queue when idle.
    pub steal: bool,
    /// Thieves may take parked TCBs, not just fresh threads.
    pub steal_tcbs: bool,
    /// How priorities map onto the multi-level deque's bands.
    pub bands: BandMap,
}

/// Who keeps a VP's ready queue (see DESIGN.md, "Scheduler fast path").
///
/// Policies whose dispatch order is expressible as *bands served
/// highest-first, FIFO or LIFO within a band* — the shipped FIFO, LIFO,
/// priority and deadline policies all are, via [`BandMap`] — hand the
/// queue to the substrate, which keeps it on the VP's lock-free
/// [`MultiDeque`](crate::deque::MultiDeque); everything else (global
/// queues, custom orders) keeps its own queue and is called under the
/// VP's policy lock, the fully general [`PolicyManager`] path.  The choice
/// is made once, when the [`crate::vp::Vp`] is constructed.
///
/// # Examples
///
/// ```
/// use sting_core::policies::{self, GlobalQueue};
/// use sting_core::VmBuilder;
///
/// // Every `LocalQueue` order is kept by the substrate …
/// let vm = VmBuilder::new()
///     .vps(1)
///     .policy(|_| policies::priority_high().boxed())
///     .build();
/// assert!(vm.vp(0).unwrap().lock_free_queue());
/// vm.shutdown();
///
/// // … and a queue shared by every VP is kept by its manager.
/// let q = GlobalQueue::fifo();
/// let vm = VmBuilder::new().vps(1).policy(move |_| q.policy()).build();
/// assert!(!vm.vp(0).unwrap().lock_free_queue());
/// vm.shutdown();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The manager keeps the queue: every enqueue/dequeue goes through it
    /// under the VP's policy lock (the fully general path; the default).
    Policy,
    /// The substrate keeps the queue on the per-VP banded Chase–Lev
    /// deques, and forks stay on the forking VP; the policy manager is
    /// consulted only for the idle hook and hints.
    Deque(DequeCaps),
}

/// The state in which a thread is handed to
/// [`PolicyManager::enqueue_thread`] (the paper's `state` argument to
/// `pm-enqueue-thread`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnqueueState {
    /// Newly forked, or a delayed thread demanded via `thread-run`.
    New,
    /// Voluntarily yielded (`yield-processor`).
    Yielded,
    /// Preempted at quantum expiry.
    Preempted,
    /// Woken from a block (the paper's kernel-/user-block re-entry).
    Unblocked,
    /// Resumed from suspension (timer expiry or explicit `thread-run`).
    Resumed,
    /// Migrated in from another VP.
    Migrated,
}

/// A scheduling and migration policy for one virtual processor.
///
/// Implementations are ordinary user code; see [`crate::policies`] for the
/// ones shipped with the substrate and the classification (locality,
/// granularity, structure, serialization) they cover.  The thread
/// controller is the only caller — "user applications need not be aware of
/// the policy/thread manager interface".
///
/// # Examples
///
/// A complete (if spartan) custom policy is a stack and three methods;
/// everything else has workable defaults:
///
/// ```
/// use sting_core::pm::{EnqueueState, PolicyManager, RunItem};
/// use sting_core::vp::Vp;
/// use sting_core::VmBuilder;
///
/// #[derive(Default)]
/// struct Stack(Vec<RunItem>);
///
/// impl PolicyManager for Stack {
///     fn get_next_thread(&mut self, _vp: &Vp) -> Option<RunItem> {
///         self.0.pop()
///     }
///     fn enqueue_thread(&mut self, _vp: &Vp, item: RunItem, _state: EnqueueState) {
///         self.0.push(item);
///     }
///     fn len(&self) -> usize {
///         self.0.len()
///     }
///     fn name(&self) -> &'static str {
///         "toy-stack"
///     }
/// }
///
/// let vm = VmBuilder::new()
///     .vps(1)
///     .policy(|_| Box::new(Stack::default()))
///     .build();
/// assert_eq!(vm.vp(0).unwrap().policy_name(), "toy-stack");
/// let t = vm.fork(|_| 6i64 * 7);
/// assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
/// vm.shutdown();
/// ```
pub trait PolicyManager: Send {
    /// Returns the next item to run on `vp`, or `None` if the VP has no
    /// local work.
    fn get_next_thread(&mut self, vp: &Vp) -> Option<RunItem>;

    /// Accepts `item` into the ready set of `vp`; `state` says why the item
    /// is being enqueued so priorities can differ per cause.
    fn enqueue_thread(&mut self, vp: &Vp, item: RunItem, state: EnqueueState);

    /// Priority hint for the currently running thread (`pm-priority`).
    fn set_priority(&mut self, _vp: &Vp, _priority: i32) {}

    /// Quantum hint for the currently running thread (`pm-quantum`).
    fn set_quantum(&mut self, _vp: &Vp, _quantum: u32) {}

    /// Chooses the VP on which a thread forked on `vp` should first run
    /// (`pm-allocate-vp` / initial load balancing).  Defaults to `vp`
    /// itself.  Consulted only for a manager that keeps its own queue
    /// ([`QueueKind::Policy`]): a VP whose queue the substrate keeps places
    /// its forks on itself without taking the policy lock.
    fn choose_vp(&mut self, vp: &Vp) -> usize {
        vp.index()
    }

    /// Called when `vp` found no local work; may produce migrated work
    /// (e.g. by pulling from sibling VPs via [`Vp::try_offer_migration`]),
    /// perform bookkeeping, or return `None` to let the processor move on.
    fn vp_idle(&mut self, _vp: &Vp) -> Option<RunItem> {
        None
    }

    /// Victim side of migration: surrender an item this VP is willing to
    /// lose, if any.  Policies that forbid migration keep the default.
    fn offer_migration(&mut self, _vp: &Vp) -> Option<RunItem> {
        None
    }

    /// Declares who keeps this policy's ready queue.  Consulted once, when
    /// the VP is built; the default is the manager itself, called under
    /// the policy lock, so a policy that says nothing keeps full control.
    ///
    /// A policy that returns [`QueueKind::Deque`] gives up per-item
    /// control: `get_next_thread`, `enqueue_thread`, `offer_migration`
    /// and `choose_vp` are no longer called for routine traffic (only
    /// `vp_idle` fallbacks and the hint methods still are).
    fn queue_kind(&self) -> QueueKind {
        QueueKind::Policy
    }

    /// Number of items currently queued (for introspection and tests).
    fn len(&self) -> usize;

    /// Whether the ready set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short policy name for diagnostics.
    fn name(&self) -> &'static str;
}
