//! First-class tuple spaces.
//!
//! A [`TupleSpace`] is "an abstraction of a synchronizing
//! content-addressable memory".  Unlike C.Linda's single anonymous tuple
//! space, spaces here are denotable objects: they convert to substrate
//! values, can be stored in tuples, and may form an *inheritance
//! hierarchy* — a read that misses in a space continues in its parent.
//!
//! Operations (names follow the paper/Linda):
//!
//! * [`TupleSpace::put`] (`out`) — deposit a passive tuple.
//! * [`TupleSpace::get`] (`in`/the paper's `get`) — blocking removal.
//! * [`TupleSpace::rd`] — blocking read without removal.
//! * [`TupleSpace::spawn`] — deposit an *active* tuple whose fields are
//!   live threads; matching demands (and may steal) their values.

use crate::bindings::Bindings;
use crate::hashed::HashedRep;
use crate::rep::{
    demand, CellRep, CountRep, ListOrder, ListRep, Outcome, Probe, SpaceRep, Stored, VectorRep,
};
use crate::template::Template;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use sting_core::tc::Cx;
use sting_core::vm::Vm;
use sting_sync::WakeReason;
use sting_value::Value;

/// Representation choice for a tuple space (see [`crate::specialize`] for
/// choosing one from a usage pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// General associative storage with `buckets` hash bins.
    Hashed {
        /// Number of hash bins (1 = the global-lock configuration).
        buckets: usize,
    },
    /// FIFO queue.
    Queue,
    /// LIFO stack.
    Stack,
    /// Unordered collection.
    Bag,
    /// Unordered collection without duplicates.
    Set,
    /// Single mutable slot; deposits replace.
    SharedVar,
    /// Counter of empty tuples.
    Semaphore,
    /// Indexed `[index value]` storage with per-slot synchronization.
    Vector,
}

impl Default for SpaceKind {
    fn default() -> SpaceKind {
        SpaceKind::Hashed { buckets: 64 }
    }
}

struct SpaceInner {
    rep: Box<dyn SpaceRep>,
    parent: Option<TupleSpace>,
}

/// A first-class tuple space; clones share the space.
#[derive(Clone)]
pub struct TupleSpace {
    inner: Arc<SpaceInner>,
}

impl std::fmt::Debug for TupleSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleSpace")
            .field("rep", &self.inner.rep.name())
            .field("len", &self.len())
            .finish()
    }
}

impl Default for TupleSpace {
    fn default() -> TupleSpace {
        TupleSpace::new()
    }
}

impl TupleSpace {
    /// A general associative tuple space (64 hash bins).
    pub fn new() -> TupleSpace {
        TupleSpace::with_kind(SpaceKind::default())
    }

    /// A tuple space with an explicit representation.
    pub fn with_kind(kind: SpaceKind) -> TupleSpace {
        TupleSpace::build(kind, None)
    }

    /// A tuple space whose representation is chosen by analysis of its
    /// usage pattern (the paper's type-inference-driven specialization;
    /// see [`crate::specialize`] for the rules).
    pub fn specialized(ops: &[crate::specialize::OpSketch]) -> TupleSpace {
        TupleSpace::with_kind(crate::specialize::infer(ops))
    }

    /// A tuple space inheriting from `parent`: reads that miss here
    /// continue (and block on) the parent chain; deposits stay local.
    pub fn with_parent(kind: SpaceKind, parent: &TupleSpace) -> TupleSpace {
        TupleSpace::build(kind, Some(parent.clone()))
    }

    fn build(kind: SpaceKind, parent: Option<TupleSpace>) -> TupleSpace {
        let rep: Box<dyn SpaceRep> = match kind {
            SpaceKind::Hashed { buckets } => Box::new(HashedRep::new(buckets)),
            SpaceKind::Queue => Box::new(ListRep::new(ListOrder::Fifo, false)),
            SpaceKind::Stack => Box::new(ListRep::new(ListOrder::Lifo, false)),
            SpaceKind::Bag => Box::new(ListRep::new(ListOrder::Unordered, false)),
            SpaceKind::Set => Box::new(ListRep::new(ListOrder::Unordered, true)),
            SpaceKind::SharedVar => Box::new(CellRep::new()),
            SpaceKind::Semaphore => Box::new(CountRep::new(0)),
            SpaceKind::Vector => Box::new(VectorRep::new()),
        };
        TupleSpace {
            inner: Arc::new(SpaceInner { rep, parent }),
        }
    }

    /// The representation's name (e.g. `"hashed(64)"`, `"queue"`).
    pub fn rep_name(&self) -> String {
        self.inner.rep.name()
    }

    /// Tuples stored locally (excluding parents).
    pub fn len(&self) -> usize {
        self.inner.rep.len()
    }

    /// Whether the local space holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deposits a passive tuple (`out` / the paper's `put`).
    pub fn put(&self, fields: Vec<Value>) {
        self.inner.rep.deposit(Stored::new(fields));
    }

    /// Deposits an *active* tuple: each thunk is forked as a stealable
    /// thread, and the tuple's fields are those live threads (the paper's
    /// `spawn TS [E1 E2]`).  Matching against the tuple demands the
    /// threads' values — stealing claimable ones onto the matcher's TCB.
    pub fn spawn(&self, cx: &Cx, thunks: Vec<sting_core::Thunk>) {
        let fields: Vec<Value> = thunks
            .into_iter()
            .map(|thunk| cx.vm().fork_thunk(thunk).to_value())
            .collect();
        self.put(fields);
    }

    /// Like [`TupleSpace::spawn`] from outside the machine.
    pub fn spawn_on_vm(&self, vm: &Arc<Vm>, thunks: Vec<sting_core::Thunk>) {
        let fields: Vec<Value> = thunks
            .into_iter()
            .map(|thunk| vm.fork_thunk(thunk).to_value())
            .collect();
        self.put(fields);
    }

    /// Non-blocking removal: bindings of the first matching tuple, if any.
    pub fn try_get(&self, template: &Template) -> Option<Bindings> {
        self.try_op(template, true)
    }

    /// Non-blocking read.
    pub fn try_rd(&self, template: &Template) -> Option<Bindings> {
        self.try_op(template, false)
    }

    /// Blocking removal (`in`): waits until a matching tuple is deposited.
    pub fn get(&self, template: &Template) -> Bindings {
        self.blocking_op(template, true)
    }

    /// Blocking read (`rd`): like [`TupleSpace::get`] without removal.
    pub fn rd(&self, template: &Template) -> Bindings {
        self.blocking_op(template, false)
    }

    /// [`TupleSpace::get`] with a timeout: `None` if no matching tuple
    /// was deposited within `timeout`.
    pub fn get_timeout(&self, template: &Template, timeout: Duration) -> Option<Bindings> {
        self.blocking_op_deadline(template, true, Some(Instant::now() + timeout))
    }

    /// [`TupleSpace::rd`] with a timeout: `None` if no matching tuple was
    /// deposited within `timeout`.
    pub fn rd_timeout(&self, template: &Template, timeout: Duration) -> Option<Bindings> {
        self.blocking_op_deadline(template, false, Some(Instant::now() + timeout))
    }

    /// Number of live readers blocked on the local space (parents not
    /// counted).
    pub fn blocked(&self) -> usize {
        self.inner.rep.waiting()
    }

    /// Number of reader registrations the local space holds, live or dead
    /// (parents not counted).  It stays within a small constant of
    /// [`TupleSpace::blocked`] however many readers have come and gone; a
    /// count that grows with traffic is a leak.
    pub fn registered(&self) -> usize {
        self.inner.rep.registered()
    }

    /// Atomically removes a matching tuple, applies `f` to its bindings,
    /// and deposits `f`'s result — the paper's
    /// `(get TS [?x] (put TS [(+ x 1)]))` idiom packaged as a helper.
    pub fn update(&self, template: &Template, f: impl FnOnce(Bindings) -> Vec<Value>) {
        let bindings = self.get(template);
        self.put(f(bindings));
    }

    /// This space, then its parents, nearest first.
    fn chain(&self) -> impl Iterator<Item = &TupleSpace> {
        std::iter::successors(Some(self), |s| s.inner.parent.as_ref())
    }

    /// Carries `probe` down the chain until a space hits.
    fn probe_chain(&self, probe: &mut Probe<'_>) {
        for space in self.chain() {
            space.inner.rep.probe(probe);
            if probe.is_hit() {
                return;
            }
        }
    }

    fn try_op(&self, template: &Template, remove: bool) -> Option<Bindings> {
        try_probe(template, remove, |p| self.probe_chain(p))
    }

    fn blocking_op(&self, template: &Template, remove: bool) -> Bindings {
        loop {
            // `None` without a deadline means the wait episode was
            // cancelled without unwinding this frame; re-arm and retry.
            if let Some(b) = self.blocking_op_deadline(template, remove, None) {
                return b;
            }
        }
    }

    fn blocking_op_deadline(
        &self,
        template: &Template,
        remove: bool,
        deadline: Option<Instant>,
    ) -> Option<Bindings> {
        let rewake = || self.chain().for_each(|s| s.inner.rep.rewake_one());
        blocking_probe(template, remove, deadline, |p| self.probe_chain(p), rewake)
    }

    /// Wraps the space as a substrate value (spaces are first-class).
    pub fn to_value(&self) -> Value {
        Value::native("tuple-space", Arc::new(self.clone()))
    }

    /// Recovers a space from a value.
    pub fn from_value(v: &Value) -> Option<TupleSpace> {
        v.native_as::<TupleSpace>().map(|s| (*s).clone())
    }
}

/// What a thread parked in a tuple-space read shows as its blocker.
/// Interned once: interning takes a process-wide lock, and a park is on
/// every blocked reader's path.
pub(crate) fn blocker() -> &'static Value {
    static BLOCKER: OnceLock<Value> = OnceLock::new();
    BLOCKER.get_or_init(|| Value::sym("tuple-space"))
}

/// The non-blocking protocol over whatever locations `probe_all` consults:
/// probe; if only a demand can settle a candidate, demand it (outside
/// every lock — this is where a "non-blocking" read may still wait for a
/// thread field) and probe again.
pub(crate) fn try_probe(
    template: &Template,
    remove: bool,
    probe_all: impl Fn(&mut Probe<'_>),
) -> Option<Bindings> {
    loop {
        let mut probe = Probe::new(template, remove);
        probe_all(&mut probe);
        let Outcome { hit, pending, .. } = probe.finish();
        if hit.is_some() || pending.is_empty() {
            return hit;
        }
        demand(template, &pending);
    }
}

/// The blocking protocol over whatever locations `probe_all` consults.
/// Each location either hits or registers the caller's wait episode under
/// its own lock, so one pass suffices: a deposit that lands anywhere after
/// its location was probed finds the registration and wakes the episode,
/// which makes the park return at once.
///
/// An episode that was registered but is not parked on (a later location
/// hit, a candidate is pending, the deadline has passed) is retired; if a
/// deposit had already spent its wake-up on it, `rewake` passes that
/// wake-up on.  `None` means timed out or cancelled.
pub(crate) fn blocking_probe(
    template: &Template,
    remove: bool,
    deadline: Option<Instant>,
    probe_all: impl Fn(&mut Probe<'_>),
    rewake: impl Fn(),
) -> Option<Bindings> {
    loop {
        let mut probe = Probe::blocking(template, remove);
        probe_all(&mut probe);
        let Outcome {
            hit,
            pending,
            registered,
        } = probe.finish();
        if hit.is_some() || !pending.is_empty() {
            if registered.is_some_and(|w| w.retire()) {
                rewake();
            }
            if hit.is_some() {
                return hit;
            }
            // Only now, with no episode armed: the demand may itself park.
            demand(template, &pending);
            continue;
        }
        let waiter = registered.expect("a blocking probe that misses registers its episode");
        if deadline.is_some_and(|d| Instant::now() >= d) {
            if waiter.retire() {
                rewake();
            }
            return None;
        }
        match waiter.park_until(blocker(), deadline) {
            WakeReason::Woken => {}
            WakeReason::TimedOut | WakeReason::Cancelled => return None,
        }
    }
}
