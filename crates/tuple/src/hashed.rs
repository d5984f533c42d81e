//! The general associative representation: the paper's dual hash tables,
//! as a keyed index.
//!
//! A tuple's **key** is the 64-bit hash of `(arity, field₀)`, computed
//! once — at deposit for a tuple ([`Stored::new`](crate::rep::Stored)), at
//! construction for a template ([`Template::new`]) — by a cheap word mixer.
//! Independent bit ranges of the key choose where the tuple lives:
//!
//! | bits    | choose                                                     |
//! |---------|------------------------------------------------------------|
//! | 40–55   | the partition of a [`ShardedSpace`](crate::ShardedSpace)   |
//! | 24–39   | the **bin** — the lock stripe ("a mutex with every hash bin") |
//! | 0–23, 57–63 | the slot and tag of the bin's chain map (whole key compared) |
//!
//! so a partition reaches all of its bins and a bin's chain map all of its
//! slots.  Inside a bin, the passive tuples (the paper's H_P) and the
//! blocked readers (H_B) of one key hang off one **chain**, oldest first:
//! a probe never visits a tuple of another key, and a deposit never
//! considers a reader of another key.  Construct with `buckets = 1` for
//! the global-lock strawman the shape experiment compares against — one
//! stripe, the same chains.
//!
//! ## One key, one place
//!
//! A template whose first field is a literal probes, and registers its
//! blocked reader, in exactly one bin and one chain.  Two kinds of tuple
//! and reader have no such key and pay for it themselves:
//!
//! * a **thread-headed tuple** (`spawn`): its first field could evaluate
//!   to anything, so it is keyed by arity alone.  Its deposit sweeps the
//!   readers of its arity in every bin, and literal-keyed probes look at
//!   the arity-only chain only while [`HashedRep`]'s count of resident
//!   thread-headed tuples is non-zero;
//! * a **wild reader** (first field a formal): it visits every bin, and
//!   registers in a per-space list that deposits consult only while a
//!   count says it is non-empty.
//!
//! Both gates close the same way.  The side that publishes (the sweeping
//! deposit, the registering wild reader) bumps its count *before* taking
//! any bin lock; the other side reads the count *after* releasing the bin
//! lock it shares with the publisher.  Whichever takes that bin lock
//! second sees the other's work — the registration to wake, or the count
//! and the tuple.

use crate::rep::cost::{self, Cost};
use crate::rep::{Probe, SpaceRep, Stored, StoredTuple, Visit};
use crate::template::Template;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use sting_core::wait::WakeBatch;
use sting_sync::Waiter;
use sting_value::Value;

const BIN_SHIFT: u32 = 24;
const PARTITION_SHIFT: u32 = 40;
const RANGE_MASK: u64 = 0xFFFF;

/// The word mixer behind [`hash_key`]: multiply-rotate per word, a
/// finalizer that spreads every input bit over the whole key.  Not
/// collision-resistant against crafted keys; a collision costs a longer
/// chain, never a wrong match (every visit compares the fields).
#[derive(Default)]
struct Mixer(u64);

impl Mixer {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Mixer {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
    fn finish(&self) -> u64 {
        // The 64-bit finalizer of MurmurHash3.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only: while set, [`hash_key`] ignores field₀, so every key of
    /// one arity shares a chain on this OS thread.
    pub(crate) static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The index key of `(arity, field₀)`; `None` for the arity-only key of
/// thread-headed tuples.  Shared by the in-rep bins and the cross-shard
/// partition map ([`crate::sharded`]), which read different bits of it.
pub(crate) fn hash_key(arity: usize, f0: Option<&Value>) -> u64 {
    cost::note(Cost::Hash);
    #[cfg(test)]
    let f0 = f0.filter(|_| !COLLIDE.get());
    let mut h = Mixer::default();
    h.write_usize(arity);
    if let Some(v) = f0 {
        v.hash(&mut h);
    }
    h.finish()
}

/// The partition of `key` among `partitions` (see the module table).
pub(crate) fn partition_of(key: u64, partitions: usize) -> usize {
    ((key >> PARTITION_SHIFT & RANGE_MASK) % partitions as u64) as usize
}

fn bin_of(key: u64, bins: usize) -> usize {
    ((key >> BIN_SHIFT & RANGE_MASK) % bins as u64) as usize
}

/// The chain maps are keyed by an already-mixed key: use it as the hash.
#[derive(Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("chain keys are hashed as one u64");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

struct Blocked {
    template: Template,
    waiter: Waiter,
}

/// Registers `reader`, first dropping dead entries if the list would
/// otherwise have to grow; returns how many were dropped.
fn push_pruning(readers: &mut Vec<Blocked>, reader: Blocked) -> usize {
    let before = readers.len();
    if before > 0 && before == readers.capacity() {
        readers.retain(|r| r.waiter.is_live());
    }
    readers.push(reader);
    before - (readers.len() - 1)
}

/// Claims (and drops) the readers `tuple` could satisfy, and drops dead
/// ones; returns how many entries went.  The woken threads are published
/// by the caller's `batch`, after it has released its lock.
fn wake_matching(readers: &mut Vec<Blocked>, tuple: &[Value], batch: &mut WakeBatch) -> usize {
    let before = readers.len();
    readers.retain(|r| {
        if r.template.may_match(tuple) {
            r.waiter.wake_into(batch);
            false
        } else {
            r.waiter.is_live()
        }
    });
    before - readers.len()
}

/// The tuples and blocked readers of one key, oldest first.
#[derive(Default)]
struct Chain {
    tuples: VecDeque<StoredTuple>,
    readers: Vec<Blocked>,
}

impl Chain {
    fn is_empty(&self) -> bool {
        self.tuples.is_empty() && self.readers.is_empty()
    }

    /// Shows `probe` the chain's tuples, oldest first; returns the one it
    /// took, unlinked.
    fn scan(&mut self, probe: &mut Probe<'_>) -> Option<StoredTuple> {
        let mut taken = None;
        for (i, tuple) in self.tuples.iter().enumerate() {
            match probe.visit(tuple) {
                Visit::Next => {}
                Visit::Stop => break,
                Visit::Take => {
                    taken = Some(i);
                    break;
                }
            }
        }
        self.tuples.remove(taken?)
    }
}

/// One lock stripe: the chains whose keys select this bin.
#[derive(Default)]
struct Bin {
    chains: HashMap<u64, Chain, BuildHasherDefault<KeyIsHash>>,
    /// Reader entries across the bin's chains, live or dead.
    registered: usize,
}

/// A bin on a cache line of its own, so two VPs working different bins do
/// not write one line.
#[repr(align(64))]
struct Stripe(Mutex<Bin>);

/// The fully associative representation (see module docs).
pub struct HashedRep {
    bins: Box<[Stripe]>,
    /// Readers whose template has no literal first field.
    wild: Mutex<Vec<Blocked>>,
    /// `wild.len()`, readable without the lock: deposits skip the wild
    /// list while it is zero.
    wild_registered: AtomicUsize,
    /// Tuples stored, so `len` locks nothing.
    len: AtomicUsize,
    /// Thread-headed tuples resident in this space — shared by the
    /// partitions of a sharded space, since such a tuple is visible to
    /// probes of every partition.
    thread_headed: Arc<AtomicUsize>,
}

impl HashedRep {
    /// Creates a representation with `buckets` bins (minimum 1).
    pub fn new(buckets: usize) -> HashedRep {
        HashedRep::sharing(buckets, Arc::default())
    }

    /// One partition of a sharded space: like [`HashedRep::new`], counting
    /// resident thread-headed tuples in the space-wide `thread_headed`.
    pub(crate) fn sharing(buckets: usize, thread_headed: Arc<AtomicUsize>) -> HashedRep {
        HashedRep {
            bins: (0..buckets.max(1))
                .map(|_| Stripe(Mutex::default()))
                .collect(),
            wild: Mutex::default(),
            wild_registered: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            thread_headed,
        }
    }

    fn lock_bin(&self, key: u64) -> MutexGuard<'_, Bin> {
        self.lock_stripe(&self.bins[bin_of(key, self.bins.len())])
    }

    fn lock_stripe<'a>(&self, stripe: &'a Stripe) -> MutexGuard<'a, Bin> {
        cost::note(Cost::BinLock);
        stripe.0.lock()
    }

    fn lock_wild(&self) -> MutexGuard<'_, Vec<Blocked>> {
        cost::note(Cost::BinLock);
        self.wild.lock()
    }

    /// Bookkeeping for a tuple a probe unlinked.
    fn unlinked(&self, tuple: &Stored) {
        self.len.fetch_sub(1, Ordering::Relaxed);
        if tuple.is_thread_headed() {
            self.thread_headed.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn blocked(probe: &Probe<'_>, waiter: Waiter) -> Blocked {
        Blocked {
            template: probe.template().clone(),
            waiter,
        }
    }

    /// Probes the chain of `key` — one bin lock, one chain — and, when
    /// `register` is set and the chain has no hit, registers the probe's
    /// reader there under the same lock.
    fn probe_chain(&self, key: u64, probe: &mut Probe<'_>, register: bool) {
        let mut bin = self.lock_bin(key);
        let Bin { chains, registered } = &mut *bin;
        if let Some(chain) = chains.get_mut(&key) {
            if let Some(tuple) = chain.scan(probe) {
                self.unlinked(&tuple);
                if chain.is_empty() {
                    chains.remove(&key);
                }
                return;
            }
        }
        if !register {
            return;
        }
        if let Some(waiter) = probe.waiter() {
            let readers = &mut chains.entry(key).or_default().readers;
            *registered += 1;
            *registered -= push_pruning(readers, HashedRep::blocked(probe, waiter));
        }
    }

    /// Probes the arity-only chain, where thread-headed tuples live.
    /// Never registers: a reader is woken for such a tuple by the sweep
    /// its deposit makes ([`HashedRep::wake_readers_of`]).
    pub(crate) fn probe_thread_headed(&self, probe: &mut Probe<'_>) {
        self.probe_chain(hash_key(probe.template().arity(), None), probe, false);
    }

    /// Probes every chain of every bin, one bin lock at a time.
    fn probe_every_bin(&self, probe: &mut Probe<'_>) {
        for stripe in self.bins.iter() {
            let mut bin = self.lock_stripe(stripe);
            let mut emptied = None;
            for (key, chain) in &mut bin.chains {
                if let Some(tuple) = chain.scan(probe) {
                    self.unlinked(&tuple);
                    if chain.is_empty() {
                        emptied = Some(*key);
                    }
                }
                if probe.is_hit() {
                    break;
                }
            }
            if let Some(key) = emptied {
                bin.chains.remove(&key);
            }
            if probe.is_hit() {
                return;
            }
        }
    }

    /// Wakes every registered reader `tuple` could satisfy, in every bin
    /// and the wild list: what a thread-headed deposit owes the readers no
    /// key leads it to.
    pub(crate) fn wake_readers_of(&self, tuple: &[Value], batch: &mut WakeBatch) {
        for stripe in self.bins.iter() {
            let mut bin = self.lock_stripe(stripe);
            if bin.registered == 0 {
                continue;
            }
            let Bin { chains, registered } = &mut *bin;
            chains.retain(|_, chain| {
                *registered -= wake_matching(&mut chain.readers, tuple, batch);
                !chain.is_empty()
            });
        }
        self.wake_wild(tuple, batch);
    }

    fn wake_wild(&self, tuple: &[Value], batch: &mut WakeBatch) {
        if self.wild_registered.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut wild = self.lock_wild();
        wake_matching(&mut wild, tuple, batch);
        self.wild_registered.store(wild.len(), Ordering::SeqCst);
    }
}

impl SpaceRep for HashedRep {
    fn name(&self) -> String {
        format!("hashed({})", self.bins.len())
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn deposit(&self, tuple: StoredTuple) {
        let thread_headed = tuple.is_thread_headed();
        if thread_headed {
            self.thread_headed.fetch_add(1, Ordering::SeqCst);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        let mut batch = WakeBatch::new();
        {
            let key = tuple.key();
            let mut bin = self.lock_bin(key);
            let Bin { chains, registered } = &mut *bin;
            let chain = chains.entry(key).or_default();
            *registered -= wake_matching(&mut chain.readers, &tuple, &mut batch);
            chain.tuples.push_back(tuple.clone());
        }
        if thread_headed {
            self.wake_readers_of(&tuple, &mut batch);
        } else {
            self.wake_wild(&tuple, &mut batch);
        }
        batch.publish();
    }

    fn probe(&self, probe: &mut Probe<'_>) {
        match probe.template().key() {
            Some(key) => {
                self.probe_chain(key, probe, true);
                if !probe.is_hit() && self.thread_headed.load(Ordering::SeqCst) > 0 {
                    self.probe_thread_headed(probe);
                }
            }
            None => {
                // Register before the first bin is read: the probe-or-
                // register of one chain has no counterpart over all bins.
                if let Some(waiter) = probe.waiter() {
                    let mut wild = self.lock_wild();
                    push_pruning(&mut wild, HashedRep::blocked(probe, waiter));
                    self.wild_registered.store(wild.len(), Ordering::SeqCst);
                }
                self.probe_every_bin(probe);
            }
        }
    }

    fn waiting(&self) -> usize {
        let live = |readers: &[Blocked]| readers.iter().filter(|r| r.waiter.is_live()).count();
        let in_bins: usize = self
            .bins
            .iter()
            .map(|s| {
                s.0.lock()
                    .chains
                    .values()
                    .map(|c| live(&c.readers))
                    .sum::<usize>()
            })
            .sum();
        in_bins + live(&self.wild.lock())
    }

    fn registered(&self) -> usize {
        let in_bins: usize = self.bins.iter().map(|s| s.0.lock().registered).sum();
        in_bins + self.wild_registered.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{formal, lit};
    use crate::{SpaceKind, TupleSpace};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts this OS thread's heap allocations, for the cost test below.
    struct CountingAllocator;

    // SAFETY: every request is forwarded unchanged to the system
    // allocator; the only addition is a thread-local counter that neither
    // allocates nor has a destructor.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's contract is `System::alloc`'s.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc` above.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    fn ints(items: &[i64]) -> Vec<Value> {
        items.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn key_ranges_are_independent() {
        // Keys that share a partition still spread over every bin, and
        // keys that share a bin over both partitions.
        let keys: Vec<u64> = (0..4096i64)
            .map(|k| hash_key(3, Some(&Value::Int(k))))
            .collect();
        let mut bins_of_partition_0 = [false; 64];
        let mut partitions_of_bin_0 = [false; 2];
        for &k in &keys {
            if partition_of(k, 2) == 0 {
                bins_of_partition_0[bin_of(k, 64)] = true;
            }
            if bin_of(k, 64) == 0 {
                partitions_of_bin_0[partition_of(k, 2)] = true;
            }
        }
        assert!(bins_of_partition_0.iter().all(|&hit| hit));
        assert!(partitions_of_bin_0.iter().all(|&hit| hit));
        assert_ne!(hash_key(3, None), hash_key(3, Some(&Value::Unit)));
        assert_ne!(
            hash_key(2, Some(&Value::Int(1))),
            hash_key(3, Some(&Value::Int(1)))
        );
    }

    /// Two keys forced into one chain never cross-match: the chain narrows
    /// the search, the fields decide.
    #[test]
    fn colliding_keys_never_cross_match() {
        COLLIDE.set(true);
        let ts = TupleSpace::with_kind(SpaceKind::Hashed { buckets: 64 });
        ts.put(ints(&[1, 10]));
        ts.put(ints(&[2, 20]));
        ts.put(ints(&[1, 11]));
        let (ones, twos, threes) = (
            Template::new(vec![lit(1), formal()]),
            Template::new(vec![lit(2), formal()]),
            Template::new(vec![lit(3), formal()]),
        );
        assert_eq!(ones.key(), twos.key(), "the override makes them collide");
        assert_eq!(ts.try_rd(&threes), None);
        assert_eq!(ts.try_get(&twos), Some(ints(&[20])));
        assert_eq!(ts.try_get(&twos), None, "a `1` tuple is not a `2` tuple");
        assert_eq!(ts.try_get(&ones), Some(ints(&[10])));
        assert_eq!(ts.try_get(&ones), Some(ints(&[11])));
        assert!(ts.is_empty());
        COLLIDE.set(false);
    }

    /// The acceptance test behind DESIGN.md's cost claim: beside 10 000
    /// bystanders, a literal-keyed hit visits only its own chain, takes
    /// one bin lock, hashes nothing (the template carries its key) and
    /// allocates nothing but the bindings.
    #[cfg(debug_assertions)]
    #[test]
    fn a_keyed_hit_costs_one_lock_and_its_own_chain() {
        let ts = TupleSpace::new();
        for b in 0..10_000i64 {
            ts.put(ints(&[1_000_000 + b, b, b * 7]));
        }
        ts.put(ints(&[1, 0, 42]));
        let jobs = Template::new(vec![lit(2), formal(), formal()]);
        let config = Template::new(vec![lit(1), lit(0), formal()]);
        let cost_of = |op: &dyn Fn() -> Option<Vec<Value>>| {
            let (before, allocations) = (cost::noted(), ALLOCATIONS.get());
            let bindings = op().expect("the tuple is there");
            let (after, allocations) = (cost::noted(), ALLOCATIONS.get() - allocations);
            drop(bindings);
            let spent: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            (spent, allocations)
        };
        let (visit, lock, hash) = (
            Cost::Visit as usize,
            Cost::BinLock as usize,
            Cost::Hash as usize,
        );
        // The benchmark probe's shape: put + try_get, then try_rd.
        for i in 0..3 {
            ts.put(ints(&[2, i, 0]));
            let (spent, allocations) = cost_of(&|| ts.try_get(&jobs));
            assert!(spent[visit] <= 2, "try_get visited {} tuples", spent[visit]);
            assert_eq!((spent[lock], spent[hash]), (1, 0), "try_get");
            assert_eq!(allocations, 1, "try_get allocates its bindings only");
        }
        let (spent, allocations) = cost_of(&|| ts.try_rd(&config));
        assert_eq!(
            (spent[visit], spent[lock], spent[hash]),
            (1, 1, 0),
            "try_rd"
        );
        assert_eq!(allocations, 1, "try_rd allocates its bindings only");
        // A blocking get that finds its tuple is the same probe: it never
        // arms a wait episode, let alone registers one.
        ts.put(ints(&[2, 9, 0]));
        let (spent, allocations) = cost_of(&|| Some(ts.get(&jobs)));
        assert_eq!((spent[visit], spent[lock], spent[hash]), (1, 1, 0), "get");
        assert_eq!(allocations, 1, "get allocates its bindings only");
        assert_eq!(ts.registered(), 0);
        assert_eq!(ts.len(), 10_001);
    }
}
