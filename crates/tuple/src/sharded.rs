//! Partitioned tuple spaces over a VM fleet.
//!
//! A [`ShardedSpace`] splits one logical tuple space into `S` partitions,
//! one per shard of a [`Fleet`], each a [`HashedRep`].  Tuples and
//! templates route to a partition by the same `(arity, field₀)` key the
//! representation indexes by — the partition and the in-partition bin
//! are disjoint bit ranges of one hash (see [`crate::hashed`]), so
//! routing never disagrees with matching and a partition reaches all of
//! its bins.
//!
//! A literal-keyed template has **one owner**: its tuples, its probes and
//! its blocked readers all live in one partition.  (The one exception is
//! the rare thread-headed tuple, which is keyed by arity alone: while the
//! space-wide count says such tuples are resident, probes also look at the
//! arity-only chain of the partition that owns it, and its deposit sweeps
//! the readers of every partition.)
//!
//! Operations run in one of three tiers:
//!
//! * **Local fast path** — the caller runs on the shard that owns the
//!   template's partition (or outside any fleet shard entirely).  The op
//!   is the plain [`TupleSpace`](crate::TupleSpace) protocol on the
//!   partition: no mailbox, no extra allocation.
//! * **Routed tier** — the caller runs on a shard of the fleet and the
//!   owner is a *different* shard.  Deposits ship to the owner as a
//!   fire-and-forget [`Fabric::call_durable`] (applied even by the
//!   shutdown sweep, so a routed `put` is never lost — though the putting
//!   shard's own *non-blocking* probes may miss it until the owner applies
//!   it; see [`ShardedSpace::put`]); blocking reads ship a
//!   *probe-or-register* closure to the owner (template + reply cell +
//!   the caller's wait episode) so the match, the waiter registration and
//!   the wake all execute with owner-shard locality, and the caller parks
//!   until the owner's reply or a matching deposit wakes it across the
//!   fabric.
//! * **Wild slow path** — the template has no literal first field, so
//!   every partition (including the caller's own) is a candidate.  The op
//!   degrades to the shared-memory protocol over all partitions: correct,
//!   and documented as the tier to avoid in hot loops.
//!
//! Partition data structures are ordinary shared memory, so the routed
//! tier is a *locality* optimization, not a correctness requirement —
//! which is what lets the wild tier and off-fleet callers fall back to
//! direct access.
//!
//! ## Conservation under abandonment
//!
//! A routed `get` removes a tuple on the owner shard while the requester
//! may concurrently time out or be terminated.  The reply cell arbitrates:
//! the owner only removes while the cell is `Waiting`, and a requester
//! that gives up flips the cell to `Abandoned` first (both under the cell
//! mutex), so a removed tuple always has exactly one taker and an
//! abandoned request never strands a removal — the
//! `routed_timeout_conserves_deposits` test drives this race.

use crate::hashed::{hash_key, partition_of, HashedRep};
use crate::rep::{key_of, Outcome, Probe, SpaceRep, Stored, StoredTuple};
use crate::space::{blocker, blocking_probe, try_probe};
use crate::template::Template;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::fleet::{Fabric, Fleet};
use sting_core::tc;
use sting_core::wait::WakeBatch;
use sting_sync::{Waiter, WakeReason};
use sting_value::Value;

/// Reply cell for one routed blocking attempt (see module docs on
/// conservation: `Filled` and `Abandoned` are mutually exclusive
/// outcomes decided under the mutex).
enum Reply {
    /// The requester is parked (or about to park) on this attempt.
    Waiting,
    /// The owner matched and (for `get`) removed a tuple; the bindings
    /// belong to the requester.
    Filled(Vec<Value>),
    /// The requester timed out, was cancelled, or retried; the owner
    /// must leave the partition untouched.
    Abandoned,
}

struct ShardedInner {
    /// One partition per shard; index = owning shard.
    partitions: Vec<HashedRep>,
    /// Thread-headed tuples resident in any partition (the partitions
    /// count into it).
    thread_headed: Arc<AtomicUsize>,
    /// `None` for single-shard fleets: every op is the local fast path.
    fabric: Option<Arc<Fabric>>,
}

/// A tuple space partitioned across the shards of a [`Fleet`]; clones
/// share the space.
#[derive(Clone)]
pub struct ShardedSpace {
    inner: Arc<ShardedInner>,
}

impl std::fmt::Debug for ShardedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSpace")
            .field("partitions", &self.inner.partitions.len())
            .field("len", &self.len())
            .finish()
    }
}

impl ShardedSpace {
    /// A sharded space over `fleet`, one 64-bucket hashed partition per
    /// shard.  A single-shard fleet yields a space whose every operation
    /// takes the local fast path.
    pub fn new(fleet: &Fleet) -> ShardedSpace {
        ShardedSpace::with_buckets(fleet, 64)
    }

    /// Like [`ShardedSpace::new`] with an explicit per-partition bucket
    /// count.
    pub fn with_buckets(fleet: &Fleet, buckets: usize) -> ShardedSpace {
        let thread_headed = Arc::new(AtomicUsize::new(0));
        ShardedSpace {
            inner: Arc::new(ShardedInner {
                partitions: (0..fleet.len())
                    .map(|_| HashedRep::sharing(buckets, thread_headed.clone()))
                    .collect(),
                thread_headed,
                fabric: fleet.fabric().cloned(),
            }),
        }
    }

    /// Number of partitions (= shards of the owning fleet).
    pub fn partitions(&self) -> usize {
        self.inner.partitions.len()
    }

    /// Tuples stored across all partitions.
    pub fn len(&self) -> usize {
        self.inner.partitions.iter().map(SpaceRep::len).sum()
    }

    /// Whether no partition holds a tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tuples stored in one partition (test/diagnostic visibility into
    /// where routing placed a deposit).
    pub fn partition_len(&self, index: usize) -> usize {
        self.inner.partitions[index].len()
    }

    /// Live readers blocked across all partitions.
    pub fn blocked(&self) -> usize {
        self.inner.partitions.iter().map(SpaceRep::waiting).sum()
    }

    /// Reader registrations held across all partitions, live or dead —
    /// see [`TupleSpace::registered`](crate::TupleSpace::registered).
    pub fn registered(&self) -> usize {
        self.inner.partitions.iter().map(SpaceRep::registered).sum()
    }

    /// The partition a tuple deposits into.  Mirrors the hashed rep's
    /// key rule: a live-thread first field could evaluate to anything,
    /// so such tuples route by arity alone.
    pub fn partition_of_tuple(&self, fields: &[Value]) -> usize {
        partition_of(key_of(fields), self.partitions())
    }

    /// The partitions a template must consult: the one that owns its
    /// literal key — plus, only while thread-headed tuples are resident,
    /// the one that owns the arity-only key they live under.  `None` means
    /// no usable key — every partition is a candidate (the wild slow
    /// path).
    pub fn partitions_of_template(&self, t: &Template) -> Option<Vec<usize>> {
        let owner = self.owner(t)?;
        let mut out = vec![owner];
        out.extend(self.thread_headed_owner(t).filter(|&p| p != owner));
        Some(out)
    }

    /// The partition that owns a literal-keyed template.
    fn owner(&self, t: &Template) -> Option<usize> {
        t.key().map(|key| partition_of(key, self.partitions()))
    }

    /// The partition holding thread-headed tuples of `t`'s arity, while
    /// any thread-headed tuple is resident in the space.
    fn thread_headed_owner(&self, t: &Template) -> Option<usize> {
        (self.inner.thread_headed.load(Ordering::SeqCst) > 0)
            .then(|| partition_of(hash_key(t.arity(), None), self.partitions()))
    }

    /// The calling shard, iff the current thread runs on a VM that is a
    /// shard of *this* space's fleet.
    fn local_shard(&self) -> Option<usize> {
        self.inner.fabric.as_ref()?.current_shard()
    }

    /// Deposits a passive tuple into its partition.  Cross-shard deposits
    /// ship to the owner (fire-and-forget) so the match scan and any
    /// wake-ups run with owner-shard locality.
    ///
    /// A routed deposit is therefore *asynchronous*: until the owner
    /// applies it, the putting thread's own immediately-following
    /// [`try_get`](ShardedSpace::try_get) / [`try_rd`](ShardedSpace::try_rd)
    /// / [`len`](ShardedSpace::len) can miss the tuple — there is no
    /// cross-shard read-your-writes for non-blocking probes.  Blocking
    /// reads are unaffected (a same-thread `get` after a `put` queues its
    /// owner closure behind the deposit in the same FIFO mailbox; reads
    /// from elsewhere park until the deposit lands and wakes them).  The
    /// deposit itself is never lost: one still in flight at fleet
    /// shutdown is applied by the fabric's shutdown sweep
    /// ([`Fabric::call_durable`]).
    pub fn put(&self, fields: Vec<Value>) {
        let tuple = Stored::new(fields);
        let dest = partition_of(tuple.key(), self.partitions());
        match (self.inner.fabric.as_ref(), self.local_shard()) {
            (Some(fabric), Some(me)) if me != dest => {
                let space = self.clone();
                let vm = tc::current_vm().expect("local_shard implies a current VM");
                fabric.call_durable(&vm, dest, Box::new(move |_vm| space.deposit(dest, tuple)));
            }
            _ => self.deposit(dest, tuple),
        }
    }

    fn deposit(&self, dest: usize, tuple: StoredTuple) {
        let sweep = tuple.is_thread_headed().then(|| tuple.clone());
        self.inner.partitions[dest].deposit(tuple);
        // The partition swept its own readers; a thread-headed tuple is
        // also owed to the readers of its arity everywhere else.
        if let Some(tuple) = sweep {
            let mut batch = WakeBatch::new();
            for (p, part) in self.inner.partitions.iter().enumerate() {
                if p != dest {
                    part.wake_readers_of(&tuple, &mut batch);
                }
            }
            batch.publish();
        }
    }

    /// Non-blocking removal from the template's partition.  May miss a
    /// tuple whose routed deposit is still in flight — see
    /// [`ShardedSpace::put`].
    pub fn try_get(&self, template: &Template) -> Option<Vec<Value>> {
        self.try_parts(template, true)
    }

    /// Non-blocking read from the template's partition.  May miss a tuple
    /// whose routed deposit is still in flight — see
    /// [`ShardedSpace::put`].
    pub fn try_rd(&self, template: &Template) -> Option<Vec<Value>> {
        self.try_parts(template, false)
    }

    /// Blocking removal (`in`); see the module docs for which tier runs.
    pub fn get(&self, template: &Template) -> Vec<Value> {
        self.blocking_op(template, true)
    }

    /// Blocking read (`rd`).
    pub fn rd(&self, template: &Template) -> Vec<Value> {
        self.blocking_op(template, false)
    }

    /// [`ShardedSpace::get`] with a timeout.
    pub fn get_timeout(&self, template: &Template, timeout: Duration) -> Option<Vec<Value>> {
        self.blocking_op_deadline(template, true, Some(Instant::now() + timeout))
    }

    /// [`ShardedSpace::rd`] with a timeout.
    pub fn rd_timeout(&self, template: &Template, timeout: Duration) -> Option<Vec<Value>> {
        self.blocking_op_deadline(template, false, Some(Instant::now() + timeout))
    }

    /// Carries `probe` through the partitions its template must consult:
    /// the owner alone for a literal key (one bin lock, one chain), every
    /// partition for a wild template.
    fn probe_parts(&self, probe: &mut Probe<'_>) {
        let parts = &self.inner.partitions;
        let Some(owner) = self.owner(probe.template()) else {
            for part in parts {
                part.probe(probe);
                if probe.is_hit() {
                    return;
                }
            }
            return;
        };
        // The owner looks at its own arity-only chain itself.
        parts[owner].probe(probe);
        if !probe.is_hit() {
            if let Some(other) = self.thread_headed_owner(probe.template()) {
                if other != owner {
                    parts[other].probe_thread_headed(probe);
                }
            }
        }
    }

    fn try_parts(&self, template: &Template, remove: bool) -> Option<Vec<Value>> {
        try_probe(template, remove, |p| self.probe_parts(p))
    }

    fn blocking_op(&self, template: &Template, remove: bool) -> Vec<Value> {
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
    ) -> Option<Vec<Value>> {
        if let (Some(fabric), Some(owner)) = (self.inner.fabric.as_ref(), self.owner(template)) {
            if self.local_shard().is_some_and(|me| me != owner) {
                return self.routed_blocking(fabric, owner, template, remove, deadline);
            }
        }
        // The local and wild tiers: the unsharded protocol over the
        // template's partitions.  Hashed partitions wake every plausible
        // reader per deposit, so no wake-up is ever owed onwards.
        blocking_probe(template, remove, deadline, |p| self.probe_parts(p), || {})
    }

    /// The routed tier: the template's owner is a remote shard, so the
    /// match, the waiter registration and the removal run on the owner
    /// inside a fabric call while the requester parks on the shipped wait
    /// episode.  Per attempt: one direct probe (the shared memory is
    /// coherent; the hop buys locality, not safety), then one
    /// probe-or-register closure on the owner.  The reply cell settles
    /// who owns a removed tuple — the owner fills it only while the
    /// requester is still waiting, and an abandoning requester flips it
    /// first, both under the mutex (see module docs on conservation).
    fn routed_blocking(
        &self,
        fabric: &Fabric,
        owner: usize,
        template: &Template,
        remove: bool,
        deadline: Option<Instant>,
    ) -> Option<Vec<Value>> {
        loop {
            if let Some(b) = self.try_parts(template, remove) {
                return Some(b);
            }
            let w = Waiter::current();
            let reply = Arc::new(Mutex::new(Reply::Waiting));
            let vm = tc::current_vm().expect("routed tier implies a current VM");
            let call = {
                let (space, template) = (self.clone(), template.clone());
                let (w, reply) = (w.clone(), reply.clone());
                move |_vm: &_| {
                    let mut cell = reply.lock();
                    if !matches!(*cell, Reply::Waiting) {
                        return; // abandoned before the owner got to it
                    }
                    // Hit, or registered under the chain's lock: a deposit
                    // on this owner from here on wakes the requester
                    // across the fabric.
                    let mut probe = Probe::on_behalf_of(&template, remove, w.clone());
                    space.probe_parts(&mut probe);
                    let Outcome { hit, pending, .. } = probe.finish();
                    let settled = hit.is_some() || !pending.is_empty();
                    if let Some(b) = hit {
                        *cell = Reply::Filled(b);
                    }
                    drop(cell);
                    // Answered — or a candidate needs a thread demanded,
                    // which only the requester, on its own stack, may do:
                    // either way it must run.  (A failed claim means a
                    // deposit or the deadline got there first.)
                    if settled {
                        w.wake();
                    }
                }
            };
            fabric.call(&vm, owner, Box::new(call));
            let reason = w.park_until(blocker(), deadline);
            // Whatever ended the park: a filled reply is our answer, and
            // anything else abandons this attempt so a late-running owner
            // closure cannot strand a removal.
            let filled = {
                let mut cell = reply.lock();
                match std::mem::replace(&mut *cell, Reply::Abandoned) {
                    Reply::Filled(b) => Some(b),
                    _ => None,
                }
            };
            if let Some(b) = filled {
                return Some(b);
            }
            match reason {
                // A deposit (or a pending candidate) woke us: retry — the
                // direct probe will see it.
                WakeReason::Woken => {}
                WakeReason::TimedOut | WakeReason::Cancelled => return None,
            }
        }
    }

    /// Wraps the space as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("sharded-tuple-space", Arc::new(self.clone()))
    }

    /// Recovers a space from a value.
    pub fn from_value(v: &Value) -> Option<ShardedSpace> {
        v.native_as::<ShardedSpace>().map(|s| (*s).clone())
    }
}
