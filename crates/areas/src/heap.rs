//! Per-thread storage areas with generational scavenging collection.
//!
//! Each STING thread "allocates data on a stack and heap that it manages
//! exclusively... threads garbage collect their state independently of one
//! another; no global synchronization is necessary in order for a thread to
//! initiate a garbage collection."  A [`Heap`] is one thread's area set:
//!
//! * a **young** generation collected by Cheney-style copying scavenges
//!   (Ungar's generation scavenging, the paper's reference [32]);
//! * an **old** generation receiving objects that survive
//!   [`PROMOTE_AGE`] scavenges, collected rarely by a full copying pass;
//! * a **remembered set** fed by the write barrier on old-object mutation,
//!   so minor collections never scan the old area;
//! * a **native table** pinning substrate values (threads, tuple spaces,
//!   strings from outside) referenced from the heap;
//! * an **entry table** ([`Heap::export`]) giving out stable indices for
//!   objects referenced from *outside* the area — the inter-area reference
//!   mechanism (Bishop's areas, the paper's reference [4]): external
//!   holders keep an [`EntryId`]; collections update the table in place.
//!
//! Collection happens only inside [`Heap::alloc_raw`]-family calls, which
//! take the mutator's roots as a [`RootSet`] callback.

use crate::word::{Gc, Space, Val, Word};
use sting_value::Value;

/// Scavenges an object survives before promotion to the old generation.
pub const PROMOTE_AGE: u8 = 2;

/// Kinds of heap objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    /// A cons cell: `[car, cdr]`.
    Pair,
    /// A mutable vector of values.
    Vector,
    /// A mutable string (one char per word; simple over compact).
    Str,
    /// A closure: `[code-id, capture...]`.
    Closure,
    /// A single mutable cell (assignment-converted variable).
    Cell,
    /// A boxed float.
    FloatBox,
    /// An environment frame: `[parent, v0, v1, …]`.  Distinguished from
    /// `Vector` so language runtimes can give frames special conversion
    /// semantics (shared mutable state across threads).
    Frame,
}

impl ObjKind {
    #[inline]
    fn from_u8(b: u8) -> ObjKind {
        match b {
            0 => ObjKind::Pair,
            1 => ObjKind::Vector,
            2 => ObjKind::Str,
            3 => ObjKind::Closure,
            4 => ObjKind::Cell,
            5 => ObjKind::FloatBox,
            6 => ObjKind::Frame,
            k => unreachable!("bad object kind {k}"),
        }
    }
}

const FORWARD_TAG: u64 = 0xFF;

#[inline]
fn header(kind: ObjKind, len: usize, age: u8) -> u64 {
    (kind as u64) | ((len as u64) << 8) | ((age as u64) << 48)
}

#[inline]
fn header_kind(h: u64) -> ObjKind {
    ObjKind::from_u8((h & 0xFF) as u8)
}

#[inline]
fn header_len(h: u64) -> usize {
    ((h >> 8) & 0xFFFF_FFFF) as usize
}

fn header_age(h: u64) -> u8 {
    ((h >> 48) & 0xFF) as u8
}

fn is_forward(h: u64) -> bool {
    (h & 0xFF) == FORWARD_TAG
}

fn forward_header(to: Word) -> u64 {
    (to.0 << 8) | FORWARD_TAG
}

fn forward_target(h: u64) -> Word {
    Word(h >> 8)
}

/// The mutator's roots: called with a tracer that must visit **every**
/// live heap word the mutator holds (stacks, registers, frames).  The
/// tracer may rewrite each word (objects move).
pub trait RootSet {
    /// Visit every root word.
    fn trace(&mut self, visit: &mut dyn FnMut(&mut Word));
}

/// A `RootSet` over a slice of words (handy in tests and simple clients).
impl RootSet for Vec<Word> {
    fn trace(&mut self, visit: &mut dyn FnMut(&mut Word)) {
        for w in self.iter_mut() {
            visit(w);
        }
    }
}

/// No roots at all (allocation-only clients).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRoots;

impl RootSet for NoRoots {
    fn trace(&mut self, _visit: &mut dyn FnMut(&mut Word)) {}
}

/// A stable index for an object exported to other areas (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(u32);

/// Allocation and collection statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Words allocated over the heap's lifetime.
    pub words_allocated: u64,
    /// Minor (young-generation) collections.
    pub minor_collections: u64,
    /// Major (full) collections.
    pub major_collections: u64,
    /// Words copied by scavenges.
    pub words_copied: u64,
    /// Objects promoted to the old generation.
    pub promotions: u64,
    /// Total nanoseconds spent in minor collections.
    pub minor_pause_ns: u64,
    /// Total nanoseconds spent in major collections (a major triggered at
    /// the end of a minor is counted here, not in the minor's pause).
    pub major_pause_ns: u64,
    /// Longest single collection pause, in nanoseconds.
    pub max_pause_ns: u64,
    /// Duration of the most recent collection pause, in nanoseconds.
    pub last_pause_ns: u64,
}

/// Number of log2 pause buckets kept per heap (bucket `i` counts pauses in
/// `[2^i, 2^(i+1))` ns; bucket 0 covers `[0, 2)`).  Matches the substrate's
/// `sting_core::metrics` bucketing so embeddings can merge the two without
/// re-binning — the areas crate stands below the substrate and must not
/// depend on it.
pub const PAUSE_BUCKETS: usize = 64;

/// Pending pauses retained for the embedding to drain
/// ([`Heap::take_pending_pauses`]); beyond this, individual samples are
/// dropped (the scalar stats and buckets still record them).
const MAX_PENDING_PAUSES: usize = 128;

fn pause_bucket(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Configuration for a [`Heap`].
#[derive(Debug, Clone, Copy)]
pub struct HeapConfig {
    /// Young-generation semispace size in words.
    pub young_words: usize,
    /// Old-generation size (in words) that triggers a major collection.
    pub old_trigger_words: usize,
}

impl Default for HeapConfig {
    fn default() -> HeapConfig {
        HeapConfig {
            young_words: 64 * 1024,
            old_trigger_words: 1024 * 1024,
        }
    }
}

/// Nurseries kept per OS worker, at most this many.  The paper caches the
/// storage of dead threads on the VP that ran them and hands it to the
/// next thread; this is that rule applied to young generations, as
/// `sting_context::StackPool` applies it to stacks.  Only default-sized
/// nurseries are kept, so the bound is 4 MiB a worker.
const POOLED_NURSERIES: usize = 8;

thread_local! {
    static NURSERIES: std::cell::RefCell<Vec<Vec<u64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn default_young_words() -> usize {
    HeapConfig::default().young_words
}

/// A recycled semispace of `words` capacity, when `words` is the default
/// size and this worker has one.
// Never inlined: the caller may be a green thread that resumes on another
// OS worker, and the slot address must be computed on the worker that uses
// it.
#[inline(never)]
fn pooled_nursery(words: usize) -> Option<Vec<u64>> {
    if words != default_young_words() {
        return None;
    }
    NURSERIES.try_with(|p| p.borrow_mut().pop()).ok().flatten()
}

/// What a heap with no recycled nursery to take starts with: most threads
/// die long before they fill a nursery, so a new one is small and grows
/// (by the vector's doubling, to exactly the default size) only under a
/// thread that keeps allocating.  The collector's trigger is unaffected.
const FIRST_NURSERY_WORDS: usize = 4 * 1024;

/// Hands a semispace back to this worker's pool (dropped when it is not
/// default-sized, the pool is full, or the worker is exiting).
#[inline(never)]
fn put_nursery(mut space: Vec<u64>) {
    if space.capacity() != default_young_words() {
        return;
    }
    space.clear();
    let _ = NURSERIES.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOLED_NURSERIES {
            p.push(space);
        }
    });
}

/// One thread's storage areas.  Not `Sync`: areas are thread-exclusive by
/// design (that is the point).
pub struct Heap {
    young: Vec<u64>,
    old: Vec<u64>,
    /// Old-space slot indices that may hold young references.
    remembered: Vec<usize>,
    natives: Vec<Option<Value>>,
    native_free: Vec<u32>,
    entries: Vec<Option<Word>>,
    entry_free: Vec<u32>,
    config: HeapConfig,
    stats: HeapStats,
    pause_buckets: [u64; PAUSE_BUCKETS],
    pending_pauses: Vec<u64>,
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("young_used", &self.young.len())
            .field("old_used", &self.old.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Heap {
    fn default() -> Heap {
        Heap::new(HeapConfig::default())
    }
}

impl Drop for Heap {
    /// A dying heap leaves its nursery to the next one on this worker.
    fn drop(&mut self) {
        put_nursery(std::mem::take(&mut self.young));
    }
}

impl Heap {
    /// Creates a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Heap {
        Heap {
            young: pooled_nursery(config.young_words)
                .unwrap_or_else(|| Vec::with_capacity(config.young_words.min(FIRST_NURSERY_WORDS))),
            old: Vec::new(),
            remembered: Vec::new(),
            natives: Vec::new(),
            native_free: Vec::new(),
            entries: Vec::new(),
            entry_free: Vec::new(),
            config,
            stats: HeapStats::default(),
            pause_buckets: [0; PAUSE_BUCKETS],
            pending_pauses: Vec::new(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Per-bucket pause counts (log2 ns buckets, see [`PAUSE_BUCKETS`]).
    pub fn pause_buckets(&self) -> &[u64; PAUSE_BUCKETS] {
        &self.pause_buckets
    }

    /// Whether [`Heap::take_pending_pauses`] would return samples.
    #[inline]
    pub fn has_pending_pauses(&self) -> bool {
        !self.pending_pauses.is_empty()
    }

    /// Drains the individual pause samples recorded since the last drain
    /// (bounded; overflow samples are dropped from this list but still
    /// counted in [`Heap::stats`] and [`Heap::pause_buckets`]).  Embeddings
    /// forward these to VM-level metrics.  The list keeps its buffer, so a
    /// heap that collects often does not allocate to say so.
    pub fn take_pending_pauses(&mut self) -> std::vec::Drain<'_, u64> {
        self.pending_pauses.drain(..)
    }

    fn record_pause(&mut self, ns: u64, major: bool) {
        if major {
            self.stats.major_pause_ns += ns;
        } else {
            self.stats.minor_pause_ns += ns;
        }
        self.stats.max_pause_ns = self.stats.max_pause_ns.max(ns);
        self.stats.last_pause_ns = ns;
        self.pause_buckets[pause_bucket(ns)] += 1;
        if self.pending_pauses.len() < MAX_PENDING_PAUSES {
            self.pending_pauses.push(ns);
        }
    }

    /// Words used in the young generation.
    pub fn young_used(&self) -> usize {
        self.young.len()
    }

    /// Words used in the old generation.
    pub fn old_used(&self) -> usize {
        self.old.len()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates an object whose payload is `payload`.  The payload words
    /// are traced as roots if this allocation triggers a collection, so
    /// references inside them stay valid.
    fn alloc_raw(&mut self, kind: ObjKind, payload: &mut [Word], roots: &mut dyn RootSet) -> Gc {
        let need = payload.len() + 1;
        self.reserve(
            need,
            &mut ScratchRoots {
                inner: roots,
                extra: payload,
            },
        );
        let off = self.young.len();
        self.young.push(header(kind, payload.len(), 0));
        self.young.extend(payload.iter().map(|w| w.0));
        self.stats.words_allocated += need as u64;
        Gc::new(Space::Young, off)
    }

    /// Whether `words` more words fit in the nursery without a collection.
    #[inline]
    pub fn has_room(&self, words: usize) -> bool {
        self.young.len() + words <= self.config.young_words
    }

    /// Makes room for `words` more words, collecting if the nursery is
    /// full; the `*_reserved` allocators that follow cannot collect, so
    /// the mutator may hand them values read straight from its roots.
    #[inline]
    pub fn reserve(&mut self, words: usize, roots: &mut dyn RootSet) {
        if !self.has_room(words) {
            self.make_room(words, roots);
        }
    }

    #[cold]
    fn make_room(&mut self, words: usize, roots: &mut dyn RootSet) {
        self.collect_minor(roots);
        if !self.has_room(words) {
            // A single object larger than the nursery: grow the nursery
            // (rare; keeps the API total).
            self.config.young_words = (self.young.len() + words) * 2;
        }
    }

    /// The most words an object of `slots` values can take: its header,
    /// its slots, and a two-word box for every slot that holds a float.
    #[inline]
    pub const fn object_words(slots: usize) -> usize {
        1 + 3 * slots
    }

    /// Writes an object whose payload is `parts` concatenated, boxing
    /// floats behind it.  Never collects: the caller reserved
    /// [`Heap::object_words`] for it.
    #[inline]
    fn write_object(&mut self, kind: ObjKind, parts: [&[Val]; 2]) -> Gc {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        debug_assert!(
            self.has_room(Heap::object_words(len)),
            "allocation not reserved"
        );
        let off = self.young.len();
        self.young.push(header(kind, len, 0));
        let mut floats = 0;
        for v in parts.iter().flat_map(|p| p.iter()) {
            // A float's slot is patched below, once its box has an address.
            self.young.push(match v {
                Val::Float(_) => {
                    floats += 1;
                    0
                }
                v => v.encode().0,
            });
        }
        if floats > 0 {
            for (i, v) in parts.iter().flat_map(|p| p.iter()).enumerate() {
                if let Val::Float(f) = v {
                    let boxed = Gc::new(Space::Young, self.young.len());
                    self.young.push(header(ObjKind::FloatBox, 1, 0));
                    self.young.push(f.to_bits());
                    self.young[off + 1 + i] = boxed.word().0;
                }
            }
        }
        self.stats.words_allocated += (len + 1 + 2 * floats) as u64;
        Gc::new(Space::Young, off)
    }

    /// Allocates an object `[head?, items…]`.  `items` is rooted (and
    /// updated) across the one collection this may trigger.
    fn alloc_vals(
        &mut self,
        kind: ObjKind,
        head: Option<Val>,
        items: &mut [Val],
        roots: &mut dyn RootSet,
    ) -> Gc {
        let slots = items.len() + usize::from(head.is_some());
        self.reserve(
            Heap::object_words(slots),
            &mut ValScratchRoots {
                inner: roots,
                vals: items,
            },
        );
        self.write_object(kind, [head.as_slice(), items])
    }

    #[inline]
    fn words(&self, space: Space) -> &[u64] {
        match space {
            Space::Young => &self.young,
            Space::Old => &self.old,
        }
    }

    fn words_mut(&mut self, space: Space) -> &mut Vec<u64> {
        match space {
            Space::Young => &mut self.young,
            Space::Old => &mut self.old,
        }
    }

    /// Boxes `v` into a heap word, allocating for floats.
    fn encode_val(&mut self, v: Val, roots: &mut dyn RootSet) -> Word {
        match v {
            Val::Float(f) => self.box_float(f, roots).word(),
            other => other.encode(),
        }
    }

    /// Allocates a boxed float.
    pub fn box_float(&mut self, f: f64, roots: &mut dyn RootSet) -> Gc {
        let mut payload = [Word(f.to_bits())];
        self.alloc_raw(ObjKind::FloatBox, &mut payload, roots)
    }

    /// Reads a heap word back as a value, unboxing floats.
    // Always inlined: returned through memory, a `Val` is written in pieces
    // and read back whole, and that load stalls on every variable reference.
    #[inline(always)]
    fn decode_word(&self, w: Word) -> Val {
        let v = Val::decode(w);
        if let Val::Obj(gc) = v {
            if self.kind(gc) == ObjKind::FloatBox {
                return Val::Float(f64::from_bits(self.payload_word(gc, 0).0));
            }
        }
        v
    }

    /// Allocates a cons cell.
    pub fn cons(&mut self, car: Val, cdr: Val, roots: &mut dyn RootSet) -> Gc {
        self.alloc_vals(ObjKind::Pair, None, &mut [car, cdr], roots)
    }

    /// Allocates a vector filled with `fill`.
    pub fn make_vector(&mut self, len: usize, fill: Val, roots: &mut dyn RootSet) -> Gc {
        let w = self.encode_val(fill, roots);
        let mut payload = vec![w; len];
        self.alloc_raw(ObjKind::Vector, &mut payload, roots)
    }

    /// Allocates a vector from explicit elements.  `items` is rooted (and
    /// updated) across any collection this triggers.
    pub fn make_vector_from(&mut self, items: &mut [Val], roots: &mut dyn RootSet) -> Gc {
        self.alloc_vals(ObjKind::Vector, None, items, roots)
    }

    /// Allocates an environment frame (`[parent, v0, …]`); like a vector
    /// but with [`ObjKind::Frame`].
    pub fn make_frame_from(&mut self, items: &mut [Val], roots: &mut dyn RootSet) -> Gc {
        self.alloc_vals(ObjKind::Frame, None, items, roots)
    }

    /// Allocates the environment frame of a call, `[parent, args…]`,
    /// without collecting, so `args` may be the mutator's own operand
    /// stack.  The caller has reserved [`Heap::object_words`] of
    /// `args.len() + 1` slots.
    #[inline]
    pub fn make_frame_reserved(&mut self, parent: Val, args: &[Val]) -> Gc {
        self.write_object(ObjKind::Frame, [&[parent], args])
    }

    /// Allocates a string.
    pub fn make_string(&mut self, s: &str, roots: &mut dyn RootSet) -> Gc {
        let mut words: Vec<Word> = s.chars().map(|c| Val::Char(c).encode()).collect();
        self.alloc_raw(ObjKind::Str, &mut words, roots)
    }

    /// Allocates a closure over `code_id` and captured values.  `captures`
    /// is rooted (and updated) across any collection this triggers.
    pub fn make_closure(
        &mut self,
        code_id: u32,
        captures: &mut [Val],
        roots: &mut dyn RootSet,
    ) -> Gc {
        let code = Val::Int(i64::from(code_id));
        self.alloc_vals(ObjKind::Closure, Some(code), captures, roots)
    }

    /// Allocates a mutable cell.
    pub fn make_cell(&mut self, init: Val, roots: &mut dyn RootSet) -> Gc {
        let mut payload = [self.encode_val(init, roots)];
        self.alloc_raw(ObjKind::Cell, &mut payload, roots)
    }

    /// Pins a substrate value and returns its native slot.
    pub fn intern_native(&mut self, v: Value) -> Val {
        let idx = match self.native_free.pop() {
            Some(i) => {
                self.natives[i as usize] = Some(v);
                i
            }
            None => {
                self.natives.push(Some(v));
                (self.natives.len() - 1) as u32
            }
        };
        Val::Native(idx)
    }

    /// Reads a native slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was pruned (only happens if the mutator kept a
    /// `Val::Native` outside any traced root across a major collection).
    #[inline]
    pub fn native(&self, idx: u32) -> &Value {
        self.natives[idx as usize]
            .as_ref()
            .expect("native slot pruned while still referenced")
    }

    /// Length of the native table, live and free slots together: what a
    /// mutator that interns the same value over and over makes grow.
    pub fn native_slots(&self) -> usize {
        self.natives.len()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The kind of a heap object.
    #[inline]
    pub fn kind(&self, gc: Gc) -> ObjKind {
        let h = self.words(gc.space())[gc.offset()];
        debug_assert!(!is_forward(h), "access through stale reference");
        header_kind(h)
    }

    /// Payload length in words.
    #[inline]
    pub fn len(&self, gc: Gc) -> usize {
        header_len(self.words(gc.space())[gc.offset()])
    }

    #[inline]
    fn payload_word(&self, gc: Gc, i: usize) -> Word {
        debug_assert!(i < self.len(gc), "payload index out of range");
        Word(self.words(gc.space())[gc.offset() + 1 + i])
    }

    fn set_payload_word(&mut self, gc: Gc, i: usize, w: Word) {
        debug_assert!(i < self.len(gc), "payload index out of range");
        let space = gc.space();
        let slot = gc.offset() + 1 + i;
        self.words_mut(space)[slot] = w.0;
        // Write barrier: an old object now possibly references a young one.
        if space == Space::Old && Val::word_is_ref(w) {
            self.remembered.push(slot);
        }
    }

    /// Reads field `i` of an object.
    #[inline]
    pub fn field(&self, gc: Gc, i: usize) -> Val {
        self.decode_word(self.payload_word(gc, i))
    }

    /// Writes field `i` of an object (with write barrier).
    pub fn set_field(&mut self, gc: Gc, i: usize, v: Val, roots: &mut dyn RootSet) {
        let mut scratch = [gc.word()];
        let w = {
            let mut both = ScratchRoots {
                inner: roots,
                extra: &mut scratch,
            };
            self.encode_val(v, &mut both)
        };
        let gc = Gc(scratch[0]);
        self.set_payload_word(gc, i, w);
    }

    /// `car` of a pair.
    #[inline]
    pub fn car(&self, pair: Gc) -> Val {
        debug_assert_eq!(self.kind(pair), ObjKind::Pair);
        self.field(pair, 0)
    }

    /// `cdr` of a pair.
    #[inline]
    pub fn cdr(&self, pair: Gc) -> Val {
        debug_assert_eq!(self.kind(pair), ObjKind::Pair);
        self.field(pair, 1)
    }

    /// `set-car!`.
    pub fn set_car(&mut self, pair: Gc, v: Val, roots: &mut dyn RootSet) {
        self.set_field(pair, 0, v, roots);
    }

    /// `set-cdr!`.
    pub fn set_cdr(&mut self, pair: Gc, v: Val, roots: &mut dyn RootSet) {
        self.set_field(pair, 1, v, roots);
    }

    /// Closure code id.
    #[inline]
    pub fn closure_code(&self, clo: Gc) -> u32 {
        debug_assert_eq!(self.kind(clo), ObjKind::Closure);
        match self.field(clo, 0) {
            Val::Int(i) => i as u32,
            v => unreachable!("closure code slot held {v:?}"),
        }
    }

    /// Number of captured values in a closure.
    pub fn closure_captures(&self, clo: Gc) -> usize {
        self.len(clo) - 1
    }

    /// Reads a captured value.
    #[inline]
    pub fn closure_capture(&self, clo: Gc, i: usize) -> Val {
        self.field(clo, i + 1)
    }

    /// Extracts a string object.
    pub fn string_value(&self, s: Gc) -> String {
        debug_assert_eq!(self.kind(s), ObjKind::Str);
        (0..self.len(s))
            .map(|i| match self.field(s, i) {
                Val::Char(c) => c,
                v => unreachable!("string slot held {v:?}"),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Collection
    // ------------------------------------------------------------------

    /// Forces a minor collection (normally triggered by allocation).
    pub fn collect_minor(&mut self, roots: &mut dyn RootSet) {
        let pause_start = std::time::Instant::now();
        self.stats.minor_collections += 1;
        // A heap that collects has outlived the small nursery it may have
        // started with: its to-space is full-sized.
        let mut to = pooled_nursery(self.config.young_words)
            .unwrap_or_else(|| Vec::with_capacity(self.config.young_words));
        let old_scan_start = self.old.len();

        // Evacuate roots.
        let mut young = std::mem::take(&mut self.young);
        {
            let mut evac = Evacuator {
                from: &mut young,
                to: &mut to,
                old: &mut self.old,
                stats: &mut self.stats,
                promote_all: false,
            };
            roots.trace(&mut |w| evac.evacuate(w));
            // Entry-table slots are roots (inter-area references).
            for slot in self.entries.iter_mut().flatten() {
                evac.evacuate(slot);
            }
            // Remembered old slots are roots into the young generation;
            // the set keeps those that still point young (and its buffer).
            self.remembered.retain(|&slot| {
                let mut w = Word(evac.old[slot]);
                if !Val::word_is_ref(w) {
                    return false;
                }
                evac.evacuate(&mut w);
                evac.old[slot] = w.0;
                Gc(w).space() == Space::Young
            });
            // Cheney scans: to-space and the old-space extension.
            evac.scan(old_scan_start, &mut self.remembered);
        }
        self.young = to;
        put_nursery(young);

        // The minor's pause ends here; a triggered major times itself, so
        // its cost is never double-counted under the minor.
        self.record_pause(pause_start.elapsed().as_nanos() as u64, false);

        if self.old.len() > self.config.old_trigger_words {
            self.collect_major(roots);
        }
    }

    /// Forces a major (full) collection: everything live moves to a fresh
    /// old area, the young area empties, and unreferenced native slots are
    /// pruned.
    pub fn collect_major(&mut self, roots: &mut dyn RootSet) {
        let pause_start = std::time::Instant::now();
        self.stats.major_collections += 1;
        let mut young = std::mem::take(&mut self.young);
        let mut from_old = std::mem::take(&mut self.old);
        let mut new_old: Vec<u64> = Vec::with_capacity(from_old.len());
        self.remembered.clear();
        {
            let mut evac = MajorEvacuator {
                young: &mut young,
                from_old: &mut from_old,
                to: &mut new_old,
                stats: &mut self.stats,
            };
            roots.trace(&mut |w| evac.evacuate(w));
            for slot in self.entries.iter_mut().flatten() {
                evac.evacuate(slot);
            }
            evac.scan();
        }
        self.old = new_old;
        young.clear();
        self.young = young;
        self.prune_natives(roots);
        self.record_pause(pause_start.elapsed().as_nanos() as u64, true);
    }

    /// Frees native slots not referenced from any live word.  Spaces are
    /// walked object by object so headers are never misread as values.
    fn prune_natives(&mut self, roots: &mut dyn RootSet) {
        let mut live = vec![false; self.natives.len()];
        let mark = |w: &Word, live: &mut Vec<bool>| {
            if let Val::Native(i) = Val::decode(*w) {
                if let Some(slot) = live.get_mut(i as usize) {
                    *slot = true;
                }
            }
        };
        roots.trace(&mut |w| mark(w, &mut live));
        for slot in self.entries.iter().flatten() {
            mark(slot, &mut live);
        }
        let scan = |words: &[u64], live: &mut Vec<bool>| {
            let mut i = 0;
            while i < words.len() {
                let len = header_len(words[i]);
                for k in 0..len {
                    mark(&Word(words[i + 1 + k]), live);
                }
                i += len + 1;
            }
        };
        scan(&self.old, &mut live);
        scan(&self.young, &mut live);
        self.native_free.clear();
        for (i, is_live) in live.iter().enumerate() {
            if !is_live && self.natives[i].is_some() {
                self.natives[i] = None;
            }
            if self.natives[i].is_none() {
                self.native_free.push(i as u32);
            }
        }
    }

    // ------------------------------------------------------------------
    // Entry table (inter-area references)
    // ------------------------------------------------------------------

    /// Exports `gc` for use from outside the area; the returned id stays
    /// valid across collections.
    pub fn export(&mut self, gc: Gc) -> EntryId {
        match self.entry_free.pop() {
            Some(i) => {
                self.entries[i as usize] = Some(gc.word());
                EntryId(i)
            }
            None => {
                self.entries.push(Some(gc.word()));
                EntryId((self.entries.len() - 1) as u32)
            }
        }
    }

    /// Resolves an exported object to its current location.
    ///
    /// # Panics
    ///
    /// Panics if the entry was released.
    pub fn resolve(&self, id: EntryId) -> Gc {
        Gc(self.entries[id.0 as usize].expect("entry released"))
    }

    /// Releases an exported entry, letting the object die.
    pub fn release(&mut self, id: EntryId) {
        self.entries[id.0 as usize] = None;
        self.entry_free.push(id.0);
    }

    /// Live exported entries.
    pub fn exported(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// Roots = caller roots + a scratch array of words (intermediate values
/// that must survive a collection inside a multi-step allocation).
struct ScratchRoots<'a> {
    inner: &'a mut dyn RootSet,
    extra: &'a mut [Word],
}

impl RootSet for ScratchRoots<'_> {
    fn trace(&mut self, visit: &mut dyn FnMut(&mut Word)) {
        self.inner.trace(visit);
        for w in self.extra.iter_mut() {
            visit(w);
        }
    }
}

/// Roots = caller roots + a scratch slice of mutator values (which may
/// contain references that must survive and be updated).
struct ValScratchRoots<'a> {
    inner: &'a mut dyn RootSet,
    vals: &'a mut [Val],
}

impl RootSet for ValScratchRoots<'_> {
    fn trace(&mut self, visit: &mut dyn FnMut(&mut Word)) {
        self.inner.trace(visit);
        for v in self.vals.iter_mut() {
            v.trace(visit);
        }
    }
}

/// Minor-collection evacuator (young → to-space or old).
struct Evacuator<'a> {
    from: &'a mut Vec<u64>,
    to: &'a mut Vec<u64>,
    old: &'a mut Vec<u64>,
    stats: &'a mut HeapStats,
    promote_all: bool,
}

impl Evacuator<'_> {
    fn evacuate(&mut self, w: &mut Word) {
        if !Val::word_is_ref(*w) {
            return;
        }
        let gc = Gc(*w);
        if gc.space() != Space::Young {
            return; // old objects do not move in a minor collection
        }
        let off = gc.offset();
        let h = self.from[off];
        if is_forward(h) {
            *w = forward_target(h);
            return;
        }
        let len = header_len(h);
        let age = header_age(h);
        let promote = self.promote_all || age >= PROMOTE_AGE;
        let new_gc = if promote {
            let new_off = self.old.len();
            self.old.push(header(header_kind(h), len, age));
            self.old
                .extend_from_slice(&self.from[off + 1..off + 1 + len]);
            self.stats.promotions += 1;
            Gc::new(Space::Old, new_off)
        } else {
            let new_off = self.to.len();
            self.to
                .push(header(header_kind(h), len, age.saturating_add(1)));
            self.to
                .extend_from_slice(&self.from[off + 1..off + 1 + len]);
            Gc::new(Space::Young, new_off)
        };
        self.stats.words_copied += (len + 1) as u64;
        self.from[off] = forward_header(new_gc.word());
        *w = new_gc.word();
    }

    /// Cheney scan over to-space and the freshly promoted old-space tail.
    fn scan(&mut self, old_scan_start: usize, remembered: &mut Vec<usize>) {
        let mut to_i = 0;
        let mut old_i = old_scan_start;
        loop {
            let mut progressed = false;
            while to_i < self.to.len() {
                progressed = true;
                let h = self.to[to_i];
                let len = header_len(h);
                for k in 0..len {
                    let mut w = Word(self.to[to_i + 1 + k]);
                    if Val::word_is_ref(w) {
                        self.evacuate(&mut w);
                        self.to[to_i + 1 + k] = w.0;
                    }
                }
                to_i += len + 1;
            }
            while old_i < self.old.len() {
                progressed = true;
                let h = self.old[old_i];
                let len = header_len(h);
                for k in 0..len {
                    let mut w = Word(self.old[old_i + 1 + k]);
                    if Val::word_is_ref(w) {
                        self.evacuate(&mut w);
                        self.old[old_i + 1 + k] = w.0;
                        // A promoted object can still point young.
                        if Val::word_is_ref(Word(self.old[old_i + 1 + k]))
                            && Gc(Word(self.old[old_i + 1 + k])).space() == Space::Young
                        {
                            remembered.push(old_i + 1 + k);
                        }
                    }
                }
                old_i += len + 1;
            }
            if !progressed {
                break;
            }
            if to_i >= self.to.len() && old_i >= self.old.len() {
                break;
            }
        }
    }
}

/// Major-collection evacuator (young + old → fresh old).
struct MajorEvacuator<'a> {
    young: &'a mut Vec<u64>,
    from_old: &'a mut Vec<u64>,
    to: &'a mut Vec<u64>,
    stats: &'a mut HeapStats,
}

impl MajorEvacuator<'_> {
    fn evacuate(&mut self, w: &mut Word) {
        if !Val::word_is_ref(*w) {
            return;
        }
        let gc = Gc(*w);
        let from: &mut Vec<u64> = match gc.space() {
            Space::Young => self.young,
            Space::Old => self.from_old,
        };
        let off = gc.offset();
        let h = from[off];
        if is_forward(h) {
            *w = forward_target(h);
            return;
        }
        let len = header_len(h);
        let new_off = self.to.len();
        self.to.push(header(header_kind(h), len, PROMOTE_AGE));
        for k in 0..len {
            let word = from[off + 1 + k];
            self.to.push(word);
        }
        self.stats.words_copied += (len + 1) as u64;
        from[off] = forward_header(Gc::new(Space::Old, new_off).word());
        *w = Gc::new(Space::Old, new_off).word();
    }

    fn scan(&mut self) {
        let mut i = 0;
        while i < self.to.len() {
            let h = self.to[i];
            let len = header_len(h);
            for k in 0..len {
                let mut w = Word(self.to[i + 1 + k]);
                if Val::word_is_ref(w) {
                    self.evacuate(&mut w);
                    self.to[i + 1 + k] = w.0;
                }
            }
            i += len + 1;
        }
    }
}
