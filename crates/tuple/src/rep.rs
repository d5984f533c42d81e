//! Tuple-space representations.
//!
//! "Tuple-spaces can be specialized as synchronized vectors, queues, sets,
//! shared variables, semaphores, or bags; the operations permitted on
//! tuple-spaces remain invariant over their representation."  Every
//! representation implements [`SpaceRep`]; the general associative
//! representation (the paper's dual hash tables) lives in
//! [`crate::hashed`].
//!
//! ## Locking discipline
//!
//! A representation has one read entry point, [`SpaceRep::probe`], and it
//! does everything under the representation's lock in one critical
//! section: visit the stored tuples the template could match, fully match
//! each ([`Probe::visit`]), unlink the first hit if the probe removes, and
//! — for a blocking probe that found nothing — register the reader
//! ([`Probe::waiter`]) before the lock is released, so no deposit can slip
//! between the miss and the registration.
//!
//! What may run under that lock: comparing and cloning values, and reading
//! the result of a thread field that has *determined*.  What may not:
//! *demanding* a thread field that has not — a demand may run the thread's
//! thunk on the caller's stack or park the caller, and either while
//! holding a lock would wedge every VP that needs it.  A visit that
//! reaches such a field puts the tuple aside as *pending*; the caller
//! demands it after the lock is dropped (`demand`) and probes again, by
//! which time the field is settled and the match runs under the lock like
//! any other.

use crate::hashed::hash_key;
use crate::template::{is_thread, Ready, Template};
use parking_lot::Mutex;
use std::sync::Arc;
use sting_sync::{WaitList, Waiter};
use sting_value::Value;

/// A deposited tuple: its fields plus what the index needs of them,
/// worked out once at deposit.
#[derive(Debug)]
pub struct Stored {
    fields: Vec<Value>,
    key: u64,
    has_threads: bool,
}

/// A stored tuple, shared between the index and pending probes.
pub type StoredTuple = Arc<Stored>;

/// The index key of a tuple with these fields.  A live-thread first field
/// could evaluate to anything, so such a tuple is keyed by arity alone.
pub(crate) fn key_of(fields: &[Value]) -> u64 {
    hash_key(fields.len(), fields.first().filter(|v| !is_thread(v)))
}

impl Stored {
    /// Wraps `fields` for deposit: hashes the `(arity, field₀)` key and
    /// notes whether any field is a live thread.
    pub fn new(fields: Vec<Value>) -> StoredTuple {
        Arc::new(Stored {
            key: key_of(&fields),
            has_threads: fields.iter().any(is_thread),
            fields,
        })
    }

    /// The index key: the hash of `(arity, field₀)`, or of the arity alone
    /// for a thread-headed tuple.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether the first field is a live thread (an active tuple from
    /// `spawn`), which no literal key can find.
    pub fn is_thread_headed(&self) -> bool {
        self.has_threads && self.fields.first().is_some_and(is_thread)
    }
}

impl std::ops::Deref for Stored {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.fields
    }
}

/// What a representation does after showing a tuple to [`Probe::visit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Not this one: show the next tuple.
    Next,
    /// A hit the probe removes: unlink this tuple and stop.
    Take,
    /// A hit the probe only reads: stop.
    Stop,
}

/// The wait episode of a probe.
enum Episode {
    /// A non-blocking probe: nothing ever registers.
    Never,
    /// A blocking probe that has not had to register yet; the episode is
    /// armed only when a location misses.
    Unarmed,
    Armed(Waiter),
}

/// One attempt to match a template, carried through every location
/// (representation, parent space, partition) the attempt consults.
pub struct Probe<'a> {
    template: &'a Template,
    remove: bool,
    episode: Episode,
    hit: Option<Vec<Value>>,
    pending: Vec<StoredTuple>,
}

impl<'a> Probe<'a> {
    /// A non-blocking probe.
    pub fn new(template: &'a Template, remove: bool) -> Probe<'a> {
        Probe::with_episode(template, remove, Episode::Never)
    }

    /// A blocking probe: a location that misses registers the caller's
    /// wait episode, armed at the first miss.
    pub fn blocking(template: &'a Template, remove: bool) -> Probe<'a> {
        Probe::with_episode(template, remove, Episode::Unarmed)
    }

    /// A blocking probe run on behalf of a thread that is already parked
    /// (or about to park) on `waiter`.
    pub fn on_behalf_of(template: &'a Template, remove: bool, waiter: Waiter) -> Probe<'a> {
        Probe::with_episode(template, remove, Episode::Armed(waiter))
    }

    fn with_episode(template: &'a Template, remove: bool, episode: Episode) -> Probe<'a> {
        Probe {
            template,
            remove,
            episode,
            hit: None,
            pending: Vec::new(),
        }
    }

    /// The template being matched.
    pub fn template(&self) -> &'a Template {
        self.template
    }

    /// Whether a location has already produced the hit; later locations
    /// need not be consulted.
    pub fn is_hit(&self) -> bool {
        self.hit.is_some()
    }

    /// Shows the probe one stored tuple.  Called by representations under
    /// their lock (see the module docs for why that is sound).
    pub fn visit(&mut self, tuple: &StoredTuple) -> Visit {
        cost::note(cost::Cost::Visit);
        match self.template.match_ready(tuple, tuple.has_threads) {
            Ready::Hit(bindings) => {
                self.hit = Some(bindings);
                if self.remove {
                    Visit::Take
                } else {
                    Visit::Stop
                }
            }
            Ready::Miss => Visit::Next,
            Ready::Pending => {
                self.pending.push(tuple.clone());
                Visit::Next
            }
        }
    }

    /// The episode to register when a location's visits end without a hit:
    /// `None` for a non-blocking probe, and once anything is pending (the
    /// caller will demand and probe again rather than park).
    pub fn waiter(&mut self) -> Option<Waiter> {
        if self.hit.is_some() || !self.pending.is_empty() {
            return None;
        }
        if matches!(self.episode, Episode::Unarmed) {
            self.episode = Episode::Armed(Waiter::current());
        }
        match &self.episode {
            Episode::Armed(w) => Some(w.clone()),
            Episode::Never | Episode::Unarmed => None,
        }
    }

    /// Ends the attempt.
    pub(crate) fn finish(self) -> Outcome {
        let registered = match self.episode {
            Episode::Armed(w) => Some(w),
            Episode::Never | Episode::Unarmed => None,
        };
        Outcome {
            hit: self.hit,
            pending: self.pending,
            registered,
        }
    }
}

/// How a [`Probe`] ended.
pub(crate) struct Outcome {
    /// The bindings of the matched (and, for a removal, unlinked) tuple.
    pub(crate) hit: Option<Vec<Value>>,
    /// Tuples whose match needs a thread demanded first; meaningful only
    /// without a hit.
    pub(crate) pending: Vec<StoredTuple>,
    /// The episode, if any location armed or registered it.
    pub(crate) registered: Option<Waiter>,
}

/// Demands the thread fields the pending tuples' matches are waiting on —
/// in field order and only as far as each match needs, as the paper's
/// matching procedure does — stopping at the first tuple that matches.
/// Runs outside every lock; the caller probes again afterwards.
pub(crate) fn demand(template: &Template, pending: &[StoredTuple]) {
    for tuple in pending {
        if template.match_tuple(tuple).is_some() {
            return;
        }
    }
}

/// Debug-build counts of what one tuple-space call cost, per OS thread;
/// release builds compile the calls away.
pub(crate) mod cost {
    /// The costs counted.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Cost {
        /// A stored tuple was shown to a probe.
        Visit,
        /// A hashed-index bin (or the wild list) was locked.
        BinLock,
        /// An `(arity, field₀)` key was hashed.
        Hash,
    }

    #[cfg(debug_assertions)]
    thread_local! {
        static COSTS: [std::cell::Cell<u64>; 3] = const { [const { std::cell::Cell::new(0) }; 3] };
    }

    /// Counts one `cost` on the calling OS thread (debug builds only).
    #[inline]
    pub(crate) fn note(cost: Cost) {
        #[cfg(debug_assertions)]
        COSTS.with(|c| c[cost as usize].set(c[cost as usize].get() + 1));
        #[cfg(not(debug_assertions))]
        let _ = cost;
    }

    /// This OS thread's counts so far, indexed by [`Cost`] discriminant.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn noted() -> [u64; 3] {
        COSTS.with(|c| [c[0].get(), c[1].get(), c[2].get()])
    }
}

/// Interface every tuple-space representation implements.
pub trait SpaceRep: Send + Sync {
    /// Representation name (diagnostics; `"queue"`, `"hashed(64)"`, …).
    fn name(&self) -> String;

    /// Number of tuples currently stored.
    fn len(&self) -> usize;

    /// Whether the representation holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deposits a tuple and wakes plausibly-matching blocked readers.
    ///
    /// # Panics
    ///
    /// Specialized representations panic when the tuple violates their
    /// shape contract (e.g. a non-`[index value]` tuple in a vector) —
    /// the specialization was chosen by analysis and a violation is a
    /// program error, as in the paper's typed tuple-spaces.
    fn deposit(&self, tuple: StoredTuple);

    /// The one read entry point.  In one critical section: shows `probe`
    /// the stored tuples its template could match, in the
    /// representation's preferred order, until [`Probe::visit`] says
    /// [`Visit::Take`] (unlink that tuple) or [`Visit::Stop`]; and if the
    /// visits end otherwise, registers [`Probe::waiter`] (when it yields
    /// one) to be woken by a matching deposit.  See the module docs.
    fn probe(&self, probe: &mut Probe<'_>);

    /// Wakes one live blocked reader, if any: the space re-donates a
    /// wake-up an episode claimed but did not need (it was served from
    /// another location, or timed out, after a deposit had spent its
    /// wake-up on it).  Only a representation that spends exactly one
    /// wake-up per deposit (the semaphore) owes anything; one whose
    /// deposit wakes every plausible reader has nothing to pass on.
    fn rewake_one(&self) {}

    /// Number of live blocked readers (cancelled and woken episodes do
    /// not count).
    fn waiting(&self) -> usize;

    /// Number of reader registrations physically held, live or dead: the
    /// gauge that shows a registration leak ([`SpaceRep::waiting`] cannot,
    /// it counts live episodes only).
    fn registered(&self) -> usize;
}

/// Shows `probe` each candidate in turn; `Some(i)` is the index of the one
/// the probe takes.
fn first_taken<'t>(
    probe: &mut Probe<'_>,
    candidates: impl Iterator<Item = (usize, &'t StoredTuple)>,
) -> Option<usize> {
    for (i, tuple) in candidates {
        match probe.visit(tuple) {
            Visit::Next => {}
            Visit::Take => return Some(i),
            Visit::Stop => return None,
        }
    }
    None
}

/// Element order of a [`ListRep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListOrder {
    /// Oldest first (queue).
    Fifo,
    /// Newest first (stack).
    Lifo,
    /// Unspecified (bag / set).
    Unordered,
}

/// A list-shaped representation: queue, stack, bag or set.
pub struct ListRep {
    order: ListOrder,
    /// Sets reject duplicate tuples on deposit.
    dedup: bool,
    state: Mutex<(Vec<StoredTuple>, WaitList)>,
}

impl ListRep {
    /// Creates a list representation.
    pub fn new(order: ListOrder, dedup: bool) -> ListRep {
        ListRep {
            order,
            dedup,
            state: Mutex::new((Vec::new(), WaitList::new())),
        }
    }
}

impl SpaceRep for ListRep {
    fn name(&self) -> String {
        match (self.order, self.dedup) {
            (ListOrder::Fifo, _) => "queue".to_string(),
            (ListOrder::Lifo, _) => "stack".to_string(),
            (ListOrder::Unordered, true) => "set".to_string(),
            (ListOrder::Unordered, false) => "bag".to_string(),
        }
    }

    fn len(&self) -> usize {
        self.state.lock().0.len()
    }

    fn deposit(&self, tuple: StoredTuple) {
        let mut g = self.state.lock();
        if self.dedup && g.0.iter().any(|t| t[..] == tuple[..]) {
            return;
        }
        g.0.push(tuple);
        g.1.wake_all();
    }

    fn probe(&self, probe: &mut Probe<'_>) {
        let mut g = self.state.lock();
        let (tuples, readers) = &mut *g;
        let oldest_first = tuples.iter().enumerate();
        let taken = if self.order == ListOrder::Lifo {
            first_taken(probe, oldest_first.rev())
        } else {
            first_taken(probe, oldest_first)
        };
        if let Some(i) = taken {
            tuples.remove(i);
        }
        if let Some(w) = probe.waiter() {
            readers.push(w);
        }
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }

    fn registered(&self) -> usize {
        self.state.lock().1.registered()
    }
}

/// A shared variable: holds at most one tuple; deposits replace it.
pub struct CellRep {
    state: Mutex<(Option<StoredTuple>, WaitList)>,
}

impl CellRep {
    /// Creates an empty shared variable.
    pub fn new() -> CellRep {
        CellRep {
            state: Mutex::new((None, WaitList::new())),
        }
    }
}

impl Default for CellRep {
    fn default() -> CellRep {
        CellRep::new()
    }
}

impl SpaceRep for CellRep {
    fn name(&self) -> String {
        "shared-variable".to_string()
    }

    fn len(&self) -> usize {
        usize::from(self.state.lock().0.is_some())
    }

    fn deposit(&self, tuple: StoredTuple) {
        let mut g = self.state.lock();
        g.0 = Some(tuple);
        g.1.wake_all();
    }

    fn probe(&self, probe: &mut Probe<'_>) {
        let mut g = self.state.lock();
        let (slot, readers) = &mut *g;
        if first_taken(probe, slot.iter().map(|t| (0, t))).is_some() {
            *slot = None;
        }
        if let Some(w) = probe.waiter() {
            readers.push(w);
        }
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }

    fn registered(&self) -> usize {
        self.state.lock().1.registered()
    }
}

/// A semaphore: counts empty (arity-0) tuples.
pub struct CountRep {
    state: Mutex<(usize, WaitList)>,
    empty: StoredTuple,
}

impl CountRep {
    /// Creates a semaphore representation holding `initial` signals.
    pub fn new(initial: usize) -> CountRep {
        CountRep {
            state: Mutex::new((initial, WaitList::new())),
            empty: Stored::new(Vec::new()),
        }
    }
}

impl SpaceRep for CountRep {
    fn name(&self) -> String {
        "semaphore".to_string()
    }

    fn len(&self) -> usize {
        self.state.lock().0
    }

    fn deposit(&self, tuple: StoredTuple) {
        assert!(
            tuple.is_empty(),
            "semaphore tuple-space holds only empty tuples; got arity {}",
            tuple.len()
        );
        let mut g = self.state.lock();
        g.0 += 1;
        g.1.wake_one();
    }

    fn probe(&self, probe: &mut Probe<'_>) {
        let mut g = self.state.lock();
        let (count, readers) = &mut *g;
        // Every signal is the same empty tuple; a template of another
        // arity misses it like any other mismatch.
        if *count > 0 && probe.visit(&self.empty) == Visit::Take {
            *count -= 1;
        }
        if let Some(w) = probe.waiter() {
            readers.push(w);
        }
    }

    fn rewake_one(&self) {
        self.state.lock().1.wake_one();
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }

    fn registered(&self) -> usize {
        self.state.lock().1.registered()
    }
}

/// A synchronized vector: tuples are `[index value]`; reads of an unset
/// index block until it is written (I-structure semantics per slot).
pub struct VectorRep {
    state: Mutex<(Vec<Option<StoredTuple>>, WaitList)>,
}

impl VectorRep {
    /// Creates an empty synchronized vector (grows on demand).
    pub fn new() -> VectorRep {
        VectorRep {
            state: Mutex::new((Vec::new(), WaitList::new())),
        }
    }

    fn index_of(tuple: &[Value]) -> usize {
        assert!(
            tuple.len() == 2,
            "vector tuple-space holds [index value] pairs; got arity {}",
            tuple.len()
        );
        let i = tuple[0]
            .as_int()
            .expect("vector tuple-space index must be an integer");
        usize::try_from(i).expect("vector tuple-space index must be non-negative")
    }
}

impl Default for VectorRep {
    fn default() -> VectorRep {
        VectorRep::new()
    }
}

impl SpaceRep for VectorRep {
    fn name(&self) -> String {
        "vector".to_string()
    }

    fn len(&self) -> usize {
        self.state.lock().0.iter().flatten().count()
    }

    fn deposit(&self, tuple: StoredTuple) {
        let i = VectorRep::index_of(&tuple);
        let mut g = self.state.lock();
        if g.0.len() <= i {
            g.0.resize(i + 1, None);
        }
        g.0[i] = Some(tuple);
        g.1.wake_all();
    }

    fn probe(&self, probe: &mut Probe<'_>) {
        let mut g = self.state.lock();
        let (slots, readers) = &mut *g;
        // Indexed lookup when the template pins the index, a scan
        // otherwise.
        let pinned = match probe.template().hash_key() {
            Some((0, v)) => v.as_int().and_then(|i| usize::try_from(i).ok()),
            _ => None,
        };
        let taken = match pinned {
            Some(i) => {
                let slot = slots.get(i).and_then(Option::as_ref);
                first_taken(probe, slot.map(|t| (i, t)).into_iter())
            }
            None => {
                let set = slots.iter().enumerate();
                first_taken(probe, set.filter_map(|(i, s)| Some((i, s.as_ref()?))))
            }
        };
        if let Some(i) = taken {
            slots[i] = None;
        }
        if let Some(w) = probe.waiter() {
            readers.push(w);
        }
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }

    fn registered(&self) -> usize {
        self.state.lock().1.registered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{formal, lit, Template};
    use sting_value::Value;

    fn tup(items: &[i64]) -> StoredTuple {
        Stored::new(items.iter().map(|&i| Value::Int(i)).collect())
    }

    fn probe(rep: &dyn SpaceRep, template: &Template, remove: bool) -> Option<Vec<Value>> {
        let mut p = Probe::new(template, remove);
        rep.probe(&mut p);
        p.finish().hit
    }

    #[test]
    fn list_rep_orders() {
        let fifo = ListRep::new(ListOrder::Fifo, false);
        let lifo = ListRep::new(ListOrder::Lifo, false);
        for i in 0..3 {
            fifo.deposit(tup(&[i]));
            lifo.deposit(tup(&[i]));
        }
        let t = Template::any(1);
        let first = |rep: &ListRep| probe(rep, &t, false).unwrap()[0].clone();
        assert_eq!(first(&fifo), Value::Int(0), "fifo oldest first");
        assert_eq!(first(&lifo), Value::Int(2), "lifo newest first");
    }

    #[test]
    fn set_rep_dedups_but_bag_does_not() {
        let set = ListRep::new(ListOrder::Unordered, true);
        let bag = ListRep::new(ListOrder::Unordered, false);
        for _ in 0..3 {
            set.deposit(tup(&[7]));
            bag.deposit(tup(&[7]));
        }
        assert_eq!(set.len(), 1);
        assert_eq!(bag.len(), 3);
    }

    #[test]
    fn a_removing_probe_unlinks_exactly_its_hit() {
        let rep = ListRep::new(ListOrder::Fifo, false);
        rep.deposit(tup(&[1, 10]));
        rep.deposit(tup(&[2, 20]));
        rep.deposit(tup(&[1, 30]));
        let ones = Template::new(vec![lit(1), formal()]);
        assert_eq!(probe(&rep, &ones, false), Some(vec![Value::Int(10)]));
        assert_eq!(rep.len(), 3, "a reading probe removes nothing");
        assert_eq!(probe(&rep, &ones, true), Some(vec![Value::Int(10)]));
        assert_eq!(probe(&rep, &ones, true), Some(vec![Value::Int(30)]));
        assert_eq!(probe(&rep, &ones, true), None);
        assert_eq!(rep.len(), 1, "the bystander stays");
    }

    #[test]
    fn only_a_blocking_probe_that_misses_registers() {
        let rep = ListRep::new(ListOrder::Fifo, false);
        rep.deposit(tup(&[1]));
        let (one, two) = (Template::new(vec![lit(1)]), Template::new(vec![lit(2)]));
        assert_eq!(probe(&rep, &two, true), None);
        assert_eq!(rep.registered(), 0, "a non-blocking miss registers nothing");
        let mut hit = Probe::blocking(&one, true);
        rep.probe(&mut hit);
        let hit = hit.finish();
        assert!(hit.hit.is_some() && hit.registered.is_none());
        assert_eq!(rep.registered(), 0, "a hit never arms the episode");
        let mut miss = Probe::blocking(&two, true);
        rep.probe(&mut miss);
        let miss = miss.finish();
        assert!(miss.hit.is_none());
        assert_eq!((rep.registered(), rep.waiting()), (1, 1));
        assert!(!miss.registered.expect("registered under the lock").retire());
        assert_eq!((rep.registered(), rep.waiting()), (1, 0));
    }

    #[test]
    fn cell_rep_replaces() {
        let cell = CellRep::new();
        cell.deposit(tup(&[1]));
        cell.deposit(tup(&[2]));
        assert_eq!(cell.len(), 1);
        let t = Template::any(1);
        assert_eq!(probe(&cell, &t, false), Some(vec![Value::Int(2)]));
    }

    #[test]
    fn count_rep_counts() {
        let sem = CountRep::new(1);
        assert_eq!(sem.len(), 1);
        sem.deposit(Stored::new(Vec::new()));
        assert_eq!(sem.len(), 2);
        let t = Template::any(0);
        assert_eq!(probe(&sem, &t, false), Some(Vec::new()));
        assert_eq!(sem.len(), 2, "a read leaves the count");
        assert!(probe(&sem, &Template::any(1), true).is_none(), "arity");
        assert!(probe(&sem, &t, true).is_some());
        assert!(probe(&sem, &t, true).is_some());
        assert!(probe(&sem, &t, true).is_none(), "empty semaphore");
    }

    #[test]
    #[should_panic(expected = "semaphore tuple-space holds only empty tuples")]
    fn count_rep_rejects_nonempty() {
        CountRep::new(0).deposit(tup(&[1]));
    }

    #[test]
    fn vector_rep_indexes_and_replaces() {
        let v = VectorRep::new();
        v.deposit(tup(&[2, 20]));
        v.deposit(tup(&[0, 0]));
        v.deposit(tup(&[2, 99])); // replaces index 2
        assert_eq!(v.len(), 2);
        let t = Template::new(vec![lit(2), formal()]);
        assert_eq!(probe(&v, &t, false), Some(vec![Value::Int(99)]));
        let unset = Template::new(vec![lit(7), formal()]);
        assert_eq!(probe(&v, &unset, false), None);
        assert_eq!(probe(&v, &Template::any(2), true).map(|b| b.len()), Some(2));
        assert_eq!(v.len(), 1);
    }

    #[test]
    #[should_panic(expected = "vector tuple-space holds [index value] pairs")]
    fn vector_rep_rejects_bad_arity() {
        VectorRep::new().deposit(tup(&[1, 2, 3]));
    }
}
