//! Policy managers shipped with the substrate.
//!
//! Section 3.3 classifies scheduling policies along four dimensions —
//! *locality* (per-VP vs. global queues), *granularity* (are TCBs and fresh
//! threads distinguished?), *structure* (FIFO / LIFO / priority / realtime)
//! and *serialization* (what is locked).  The two types here cover the
//! whole space the paper discusses:
//!
//! * [`LocalQueue`] — a per-VP queue in any [`QueueOrder`], optionally
//!   migrating (idle VPs pull from siblings; only fresh threads move unless
//!   [`LocalQueue::migrate_tcbs`] is enabled — the paper's example of keeping
//!   the evaluating-thread queue lock-free while the scheduled queue is a
//!   migration target).
//! * [`GlobalQueue`] — one queue shared by every VP of the machine (the
//!   master/slave configuration: workers "rarely block", so the contention
//!   cost buys perfect load sharing).
//!
//! Priority orders double as the realtime structure: with
//! [`QueueOrder::PriorityLow`] and priorities set to deadlines, the queue
//! is earliest-deadline-first.
//!
//! The *serialization* dimension is decided by
//! [`PolicyManager::queue_kind`].  A [`LocalQueue`] holds no queue: it
//! declares an order, and the substrate keeps the items on the VP's
//! lock-free banded [`MultiDeque`](crate::deque::MultiDeque) — FIFO and
//! LIFO in band 0, priority and deadline orders spread over the bands by a
//! [`BandMap`].  [`GlobalQueue`] keeps its own queue, as user-written
//! policies do, and is called under the VP's policy lock.  See DESIGN.md,
//! "Scheduler fast path".
//!
//! All of these are ordinary implementations of
//! [`crate::pm::PolicyManager`] — applications are free to
//! write their own (see `tests/custom_policy.rs` in the repository).

use crate::pm::{BandMap, DequeCaps, EnqueueState, PolicyManager, QueueKind, RunItem};
use crate::vp::Vp;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Queue discipline for a policy manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOrder {
    /// First-in first-out (fair; round-robin under preemption).
    Fifo,
    /// Last-in first-out (depth-first; best for tree-structured
    /// result-parallel programs — and it maximizes stealing, §4.1.1).
    Lifo,
    /// Highest [`priority`](crate::thread::Thread::priority) first
    /// (speculative scheduling: favour promising tasks).
    PriorityHigh,
    /// Lowest priority value first (with priority = deadline this is EDF,
    /// the realtime structure).
    PriorityLow,
}

/// A per-VP ready queue (the *local* locality class).
///
/// A `LocalQueue` is a declaration — dispatch order, and whether work may
/// leave for idle siblings and which — that
/// [`PolicyManager::queue_kind`] hands to the VP; the items themselves
/// live on the VP's lock-free deque tier, so `get_next_thread` and
/// `enqueue_thread` are never called.
///
/// It holds no items of its own, so it cannot serve as the inner queue of
/// a user-written manager: a wrapper that delegates to a `LocalQueue`
/// while keeping the default [`QueueKind::Policy`] panics on its first
/// enqueue.  Forward `queue_kind` too, or keep a queue in the wrapper (see
/// `tests/custom_policy.rs`).
#[derive(Debug)]
pub struct LocalQueue {
    order: QueueOrder,
    migrating: bool,
    migrate_tcbs: bool,
}

impl LocalQueue {
    /// Creates a local queue with the given discipline.
    pub fn new(order: QueueOrder) -> LocalQueue {
        LocalQueue {
            order,
            migrating: false,
            migrate_tcbs: false,
        }
    }

    /// Enables pulling work from sibling VPs when idle, and offering work
    /// to idle siblings.  Forks still go on the forking VP (as on every
    /// substrate-kept queue); only an idle sibling's steal moves them.
    pub fn migrating(mut self, yes: bool) -> LocalQueue {
        self.migrating = yes;
        self
    }

    /// Allows parked TCBs (evaluating threads) to migrate, not just fresh
    /// threads.  Costs locality; see the policy shape experiment.
    pub fn migrate_tcbs(mut self, yes: bool) -> LocalQueue {
        self.migrate_tcbs = yes;
        self
    }

    /// Boxes the policy for [`VmBuilder::policy`](crate::builder::VmBuilder::policy).
    pub fn boxed(self) -> Box<dyn PolicyManager> {
        Box::new(self)
    }
}

impl PolicyManager for LocalQueue {
    fn get_next_thread(&mut self, _vp: &Vp) -> Option<RunItem> {
        None
    }

    fn enqueue_thread(&mut self, _vp: &Vp, _item: RunItem, _state: EnqueueState) {
        unreachable!("a LocalQueue's items are kept by the VP's deque tier");
    }

    fn vp_idle(&mut self, vp: &Vp) -> Option<RunItem> {
        if !self.migrating {
            return None;
        }
        let vm = vp.vm();
        let me = vp.index();
        let n = vm.vp_count();
        for d in 1..n {
            let victim = &vm.vps()[(me + d) % n];
            if let Some(item) = victim.try_offer_migration(vp) {
                return Some(item);
            }
        }
        None
    }

    fn queue_kind(&self) -> QueueKind {
        QueueKind::Deque(DequeCaps {
            // Priority orders dispatch FIFO within a band.
            fifo: self.order != QueueOrder::Lifo,
            steal: self.migrating,
            steal_tcbs: self.migrate_tcbs,
            bands: match self.order {
                QueueOrder::Fifo | QueueOrder::Lifo => BandMap::Single,
                QueueOrder::PriorityHigh => BandMap::PriorityHigh,
                QueueOrder::PriorityLow => BandMap::Deadline,
            },
        })
    }

    fn len(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        match (self.order, self.migrating) {
            (QueueOrder::Fifo, false) => "local-fifo",
            (QueueOrder::Fifo, true) => "migrating-fifo",
            (QueueOrder::Lifo, false) => "local-lifo",
            (QueueOrder::Lifo, true) => "migrating-lifo",
            (QueueOrder::PriorityHigh, _) => "priority-high",
            (QueueOrder::PriorityLow, _) => "priority-low",
        }
    }
}

/// A queue shared by all VPs of a machine (the *global* locality class),
/// oldest-first.  The manager keeps the queue itself, so its VPs run on
/// the policy tier.
///
/// Clone one handle per VP via [`GlobalQueue::policy`]:
///
/// ```
/// use sting_core::policies::GlobalQueue;
/// use sting_core::VmBuilder;
///
/// let q = GlobalQueue::fifo();
/// let vm = VmBuilder::new()
///     .vps(2)
///     .policy(move |_vp| q.policy())
///     .build();
/// assert_eq!(vm.vp(0).unwrap().policy_name(), "global-fifo");
/// assert!(!vm.vp(0).unwrap().lock_free_queue());
/// vm.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct GlobalQueue {
    queue: Arc<Mutex<VecDeque<RunItem>>>,
    next_place: Arc<AtomicUsize>,
}

impl GlobalQueue {
    /// Creates the shared queue, dispatching oldest-first; clone the
    /// handle into each VP's policy.
    pub fn fifo() -> GlobalQueue {
        GlobalQueue {
            queue: Arc::default(),
            next_place: Arc::default(),
        }
    }

    /// A boxed per-VP policy backed by this shared queue.
    pub fn policy(&self) -> Box<dyn PolicyManager> {
        Box::new(self.clone())
    }
}

impl PolicyManager for GlobalQueue {
    fn get_next_thread(&mut self, _vp: &Vp) -> Option<RunItem> {
        self.queue.lock().pop_front()
    }

    fn enqueue_thread(&mut self, _vp: &Vp, item: RunItem, _state: EnqueueState) {
        self.queue.lock().push_back(item);
    }

    fn choose_vp(&mut self, vp: &Vp) -> usize {
        // Spread forks: any VP will pull from the shared queue anyway, but
        // the wake-up target matters for locality.
        let n = vp.vm().vp_count().max(1);
        self.next_place.fetch_add(1, Ordering::Relaxed) % n
    }

    fn len(&self) -> usize {
        self.queue.lock().len()
    }

    fn name(&self) -> &'static str {
        "global-fifo"
    }
}

/// A per-VP FIFO queue (fair round-robin under preemption).
pub fn local_fifo() -> LocalQueue {
    LocalQueue::new(QueueOrder::Fifo)
}

/// A per-VP LIFO queue (depth-first; maximizes stealing).
pub fn local_lifo() -> LocalQueue {
    LocalQueue::new(QueueOrder::Lifo)
}

/// A per-VP highest-priority-first queue (speculative scheduling).
///
/// Rides the lock-free banded deque tier: priorities are clamped into
/// [`BANDS`](crate::deque::BANDS) bands ([`BandMap::PriorityHigh`]) and
/// the highest non-empty band is dispatched first, FIFO within a band.
///
/// ```
/// use sting_core::policies;
/// use sting_core::{ThreadBuilder, VmBuilder};
///
/// let vm = VmBuilder::new()
///     .vps(1)
///     .policy(|_| policies::priority_high().boxed())
///     .build();
/// assert!(vm.vp(0).unwrap().lock_free_queue());
///
/// // Priority 3 lands in the top band; band 0 work waits behind it.
/// let hi = ThreadBuilder::new(&vm).priority(3).spawn(|_| 9i64).unwrap();
/// assert_eq!(hi.join_blocking().unwrap().as_int(), Some(9));
/// vm.shutdown();
/// ```
pub fn priority_high() -> LocalQueue {
    LocalQueue::new(QueueOrder::PriorityHigh)
}

/// A per-VP lowest-value-first queue (EDF when priority = deadline).
///
/// Also rides the banded deque tier: deadlines are quantized into bands
/// [`DEADLINE_BAND_SPAN`](crate::pm::DEADLINE_BAND_SPAN) wide
/// ([`BandMap::Deadline`]), so the nearest-deadline window is dispatched
/// first and overdue work is maximally urgent.
///
/// ```
/// use sting_core::pm::BandMap;
/// use sting_core::policies;
/// use sting_core::{ThreadBuilder, VmBuilder};
///
/// let vm = VmBuilder::new()
///     .vps(1)
///     .policy(|_| policies::priority_low().boxed())
///     .build();
/// assert_eq!(vm.vp(0).unwrap().policy_name(), "priority-low");
///
/// // priority = deadline: a due-now task lands in the top band …
/// assert_eq!(BandMap::Deadline.band(0), sting_core::deque::BANDS - 1);
/// // … and a far-future one in the bottom band.
/// assert_eq!(BandMap::Deadline.band(1 << 20), 0);
///
/// let soon = ThreadBuilder::new(&vm).priority(10).spawn(|_| 1i64).unwrap();
/// assert_eq!(soon.join_blocking().unwrap().as_int(), Some(1));
/// vm.shutdown();
/// ```
pub fn priority_low() -> LocalQueue {
    LocalQueue::new(QueueOrder::PriorityLow)
}
