//! The bytecode machine: one per STING thread.
//!
//! A [`Machine`] owns a per-thread [`Heap`] (the paper's storage model —
//! independent collection, no global synchronization), a value stack and a
//! frame stack.  It polls the thread controller every
//! [`CHECKPOINT_WINDOW`] instructions, which is how Scheme threads are
//! preempted: the whole machine lives on the green thread's stack, so a
//! context switch (or a block inside a primitive) needs no special
//! machinery.
//!
//! Closures are heap objects `[code-id, env]`.  Where a call's frame lives
//! depends on its code's `captures` flag
//! ([`CodeObject`](crate::bytecode::CodeObject)).  A procedure whose body
//! makes no closure keeps its frame on the operand stack: the arguments,
//! left where the caller pushed them, are its slots, and `Return` slides
//! the result down over them.  No other frame, and so no other thread, can
//! ever reach such a frame.  Only a frame that a `Closure` op may capture
//! is built in the heap, as a vector `[parent, v0, v1, …]` copied from the
//! operand stack straight into the nursery, so a closure's environment is
//! always a chain of heap (or exported) frames.  Nothing on the call path
//! touches the Rust allocator.
//!
//! A call whose operator is a global is one instruction, `CallGlobal`: the
//! callee is read as `Global` reads it and is never pushed.  When the
//! callee is one of the primitives `prims::inline` knows (`+`, `<`,
//! `car`, `null?` …) and the arguments are of the common type, the loop
//! answers without the primitive table.  Every other case goes through the
//! generic call: a float, an overflow, a wrong type or arity, or a global
//! rebound away from its primitive.  So each answer and each error message
//! is the table's.
//!
//! A reference to a global goes through the machine's `GlobalRef` for
//! that program slot: the binding cell, found once, and — for bindings
//! that hold no mutable data — the value already converted into this
//! heap, valid while the cell's version stands (DESIGN.md, "The
//! binding-cell rule").

use crate::bytecode::{Op, Program};
use crate::convert::{self, SharedFrame};
use crate::error::SchemeError;
use crate::global::{Binding, Globals};
use crate::prims;
use crate::sexp::Span;
use std::collections::HashMap;
use std::sync::Arc;
use sting_areas::{Gc, Heap, HeapConfig, ObjKind, RootSet, Val, Word};
use sting_core::tc::{self, Cx};
use sting_value::Value;

/// Instructions executed between thread-controller polls.
pub const CHECKPOINT_WINDOW: u32 = 256;

/// Where a call was made from — code object and instruction index — so a
/// failed call can cite its source position without every call paying to
/// look one up.  `None` for calls made by primitives.
type CallSite = Option<(u32, usize)>;

/// Diagnostic suffix citing a source position, or empty when unknown.
fn at_span(span: Span) -> String {
    if span.is_none() {
        String::new()
    } else {
        format!(" (at {span})")
    }
}

/// A frame of an environment chain, as [`Machine::env_at`] finds it.
enum EnvRef<'a> {
    /// A frame of this heap, either kind.
    Heap(Gc),
    /// A frame with an assigned slot, shared between threads.
    Shared(&'a SharedFrame),
    /// A frame with no assigned slot, as it was exported, `[parent, v0,
    /// …]`: reached through a shared frame, or imported as it is because
    /// a slot holds data or a procedure ([`convert`]'s module doc).
    Fixed(&'a [Value]),
}

/// What a machine remembers about one global slot of its program.
struct GlobalRef {
    binding: Arc<Binding>,
    /// The binding's version when `val` was converted, or [`UNCACHED`].
    seen: u64,
    /// The binding's value in this machine's heap.  Kept only for values
    /// whose conversion copies no mutable data, so that serving the same
    /// `Val` again differs from converting again in one way only: `eq?` on
    /// two references to one procedure now answers `#t`.
    val: Val,
}

/// A `seen` no binding ever reaches: the slot is resolved, but its value
/// is converted on every reference (mutable data, or not bound yet).
const UNCACHED: u64 = u64::MAX;

/// Whether references to a global holding `v` may share one converted
/// copy.  Pairs, vectors and strings are mutable once in a heap, and a
/// reference to a global holding one has always yielded a private copy.
fn cacheable(v: &Value) -> bool {
    !matches!(v, Value::Pair(_) | Value::Vector(_) | Value::Str(_))
}

/// A call frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) code: u32,
    /// Where to resume.  Current for suspended frames only: the running
    /// frame's instruction pointer lives in a local of `execute`.
    pub(crate) ip: usize,
    /// The environment: `Val::Obj` of a frame vector, `Val::Native` of a
    /// [`SharedFrame`], or `Val::Nil` at top level.  A stack frame (code
    /// that [`captures`](crate::bytecode::CodeObject::captures) nothing)
    /// keeps its own slots on the operand stack, and this is the
    /// environment its closure captured: its parent.
    pub(crate) env: Val,
    /// Where the frame begins on the operand stack: its slots, for a stack
    /// frame; for any other, the place its result goes.
    pub(crate) base: usize,
}

/// The per-thread Scheme machine.
pub struct Machine {
    /// The thread's private heap.
    pub heap: Heap,
    pub(crate) stack: Vec<Val>,
    pub(crate) frames: Vec<Frame>,
    /// The compiled-program snapshot this machine executes.
    pub program: Arc<Program>,
    /// Shared global bindings (substrate values).
    pub globals: Arc<Globals>,
    /// Per-thread fluid (dynamic) bindings, inherited across forks.
    pub fluids: HashMap<u64, Value>,
    /// Per program slot, filled in on first reference.
    global_refs: Vec<Option<GlobalRef>>,
    fuel: u32,
    /// Checkpoint windows used up so far.
    windows: u64,
    /// Re-entrant `apply` depth (primitives calling closures); bounded so
    /// deeply nested `map`/`%try` chains cannot overflow the green stack.
    apply_depth: u32,
}

impl Drop for Machine {
    /// Reports what this machine did to the environment's activity counters
    /// ([`Globals::activity`]).
    fn drop(&mut self) {
        let instructions =
            self.windows * u64::from(CHECKPOINT_WINDOW) + u64::from(CHECKPOINT_WINDOW - self.fuel);
        self.globals
            .count_machine(instructions, self.heap.stats().words_allocated);
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("stack", &self.stack.len())
            .field("frames", &self.frames.len())
            .finish()
    }
}

struct MachineRoots<'a> {
    stack: &'a mut Vec<Val>,
    frames: &'a mut Vec<Frame>,
    global_refs: &'a mut Vec<Option<GlobalRef>>,
    extra: &'a mut [Val],
}

impl RootSet for MachineRoots<'_> {
    /// Every `Val` the machine holds, native slots included: a native is
    /// often live nowhere else (a primitive waiting on the operand stack
    /// for its arguments, a shared frame that is some call's environment,
    /// a cached global), and the visit is what spares it from pruning.
    fn trace(&mut self, visit: &mut dyn FnMut(&mut Word)) {
        let stack = self.stack.iter_mut();
        let envs = self.frames.iter_mut().map(|f| &mut f.env);
        let globals = self.global_refs.iter_mut().flatten().map(|r| &mut r.val);
        for v in stack
            .chain(envs)
            .chain(globals)
            .chain(self.extra.iter_mut())
        {
            v.trace(visit);
        }
    }
}

/// Runs `f` with the machine's heap and a root set covering the machine.
/// Usage: `with_heap!(machine, heap, roots, { heap.cons(a, b, roots) })`.
macro_rules! with_heap {
    ($m:expr, $extra:expr, |$heap:ident, $roots:ident| $body:expr) => {{
        let m: &mut Machine = $m;
        let out = {
            let mut roots_owner = MachineRoots {
                stack: &mut m.stack,
                frames: &mut m.frames,
                global_refs: &mut m.global_refs,
                extra: $extra,
            };
            let $heap = &mut m.heap;
            let $roots = &mut roots_owner;
            $body
        };
        m.forward_gc_pauses();
        out
    }};
}

impl Machine {
    /// Creates a machine over a program snapshot and shared globals.
    pub fn new(program: Arc<Program>, globals: Arc<Globals>) -> Machine {
        Machine::with_heap_config(program, globals, HeapConfig::default())
    }

    /// Creates a machine with an explicit heap configuration (small
    /// nurseries exercise the collector; see the GC integration tests).
    pub fn with_heap_config(
        program: Arc<Program>,
        globals: Arc<Globals>,
        config: HeapConfig,
    ) -> Machine {
        Machine {
            heap: Heap::new(config),
            stack: Vec::with_capacity(256),
            frames: Vec::with_capacity(64),
            program,
            globals,
            fluids: HashMap::new(),
            global_refs: Vec::new(),
            fuel: CHECKPOINT_WINDOW,
            windows: 0,
            apply_depth: 0,
        }
    }

    /// Forwards GC pauses recorded by the heap to the owning VM's latency
    /// metrics ([`sting_core::metrics`]).  Cheap when no collection
    /// happened (one branch); machines running outside a STING thread keep
    /// the pauses in their [`Heap`] stats only.
    fn forward_gc_pauses(&mut self) {
        if !self.heap.has_pending_pauses() {
            return;
        }
        let pauses = self.heap.take_pending_pauses();
        if let Some(cx) = sting_core::Cx::current() {
            let vm = cx.vm();
            for ns in pauses {
                vm.metrics().record_gc_pause(ns);
            }
        }
    }

    /// Pushes a value onto the operand stack (extension primitives use
    /// this with [`Machine::list_from_stack`] to build list results).
    pub fn push(&mut self, v: Val) {
        self.stack.push(v);
    }

    pub(crate) fn pop(&mut self) -> Val {
        self.stack.pop().expect("value stack underflow")
    }

    pub(crate) fn popn(&mut self, n: usize) {
        let len = self.stack.len();
        self.stack.truncate(len - n);
    }

    /// Argument `i` of the current primitive call (0-based); the args are
    /// the top `argc` stack slots.
    pub fn arg(&self, argc: usize, i: usize) -> Val {
        self.stack[self.stack.len() - argc + i]
    }

    /// Allocates a cons cell with machine roots.
    pub(crate) fn cons(&mut self, car: Val, cdr: Val) -> Val {
        let mut extra = [car, cdr];
        let gc = with_heap!(self, &mut extra, |heap, roots| {
            // car/cdr are traced through `extra`; re-read after any GC.
            heap.cons(roots.extra[0], roots.extra[1], roots)
        });
        Val::Obj(gc)
    }

    /// Pops the top `n` stack values and builds a proper list of them (the
    /// first-pushed value becomes the first element).  Items on the stack
    /// are GC roots, so this is safe under collection.
    pub fn list_from_stack(&mut self, n: usize) -> Val {
        let mut acc = Val::Nil;
        for _ in 0..n {
            let car = self.pop();
            acc = self.cons(car, acc);
        }
        acc
    }

    /// Allocates a string object.
    pub fn string(&mut self, s: &str) -> Val {
        let gc = with_heap!(self, &mut [], |heap, roots| heap.make_string(s, roots));
        Val::Obj(gc)
    }

    /// Allocates a vector from values (the heap roots `items` internally).
    pub(crate) fn vector(&mut self, items: &[Val]) -> Val {
        let mut items: Vec<Val> = items.to_vec();
        let gc = with_heap!(self, &mut [], |heap, roots| {
            heap.make_vector_from(&mut items, roots)
        });
        Val::Obj(gc)
    }

    /// Allocates a closure over `code` capturing `env`.
    pub(crate) fn closure(&mut self, code: u32, env: Val) -> Val {
        let mut captures = [env];
        let gc = with_heap!(self, &mut [], |heap, roots| {
            heap.make_closure(code, &mut captures, roots)
        });
        Val::Obj(gc)
    }

    /// Makes room for `words` in the nursery, collecting if need be, and
    /// returns `keep` as the collection left it (the `*_reserved`
    /// allocators that follow cannot collect).
    pub(crate) fn reserve(&mut self, words: usize, keep: Val) -> Val {
        if self.heap.has_room(words) {
            return keep;
        }
        let mut extra = [keep];
        with_heap!(self, &mut extra, |heap, roots| heap.reserve(words, roots));
        extra[0]
    }

    /// Writes field `i` of heap object `gc` (with machine roots).
    pub(crate) fn set_field_rooted(&mut self, gc: sting_areas::Gc, i: usize, v: Val) {
        with_heap!(self, &mut [], |heap, roots| heap.set_field(gc, i, v, roots));
    }

    /// Allocates a vector of `n` copies of `fill`.
    pub(crate) fn make_vector_fill(&mut self, n: usize, fill: Val) -> Val {
        let gc = with_heap!(self, &mut [], |heap, roots| heap
            .make_vector(n, fill, roots));
        Val::Obj(gc)
    }

    /// Interns a substrate value into the native table.  A primitive's
    /// slot is keyed with its id + 1, which is how a call recognises it.
    pub(crate) fn native(&mut self, v: Value) -> Val {
        let key = v
            .native_ref::<prims::Prim>()
            .map_or(0, |p| u32::from(p.id) + 1);
        self.heap.intern_native_keyed(v, key)
    }

    /// [`Machine::native`] for a value borrowed: cloned only if it is not
    /// pinned here already.
    pub(crate) fn native_ref(&mut self, v: &Value) -> Val {
        match self.heap.native_slot_of(v) {
            Some(slot) => slot,
            None => self.native(v.clone()),
        }
    }

    /// Converts a heap value to a substrate value (for crossing threads).
    ///
    /// # Errors
    ///
    /// [`SchemeError::Raised`] on cyclic data.
    pub fn to_value(&self, v: Val) -> Result<Value, SchemeError> {
        convert::heap_to_value(&self.heap, v)
    }

    /// Converts a substrate value into this machine's heap.
    pub fn from_value(&mut self, v: &Value) -> Val {
        convert::value_to_heap(self, v)
    }

    /// Applies a closure (or primitive) to arguments, running the machine
    /// until it returns.  Re-entrant: primitives use this for `map`,
    /// `apply`, `%try` and tuple-space spawns.
    ///
    /// # Errors
    ///
    /// Propagates raised exceptions and runtime errors.
    pub fn apply(&mut self, f: Val, args: &[Val]) -> Result<Val, SchemeError> {
        if self.apply_depth >= 200 {
            return Err(SchemeError::runtime(
                "too much recursion through primitives (map/apply/try nesting)",
            ));
        }
        self.apply_depth += 1;
        let r = self.apply_inner(f, args);
        self.apply_depth -= 1;
        r
    }

    fn apply_inner(&mut self, f: Val, args: &[Val]) -> Result<Val, SchemeError> {
        let stack_base = self.stack.len();
        let frame_base = self.frames.len();
        let result = (|| {
            for &a in args {
                self.push(a);
            }
            if self.begin_call(f, args.len(), 0, false, None)? {
                let floor = self.frames.len();
                self.execute(floor)
            } else {
                // Primitive: result already pushed.
                Ok(self.pop())
            }
        })();
        if result.is_err() {
            // Unwind anything the failed call left behind so the caller's
            // stack discipline (and GC rooting) stays intact.
            self.frames.truncate(frame_base);
            self.stack.truncate(stack_base);
        }
        result
    }

    /// Runs top-level code object `code` to completion.
    ///
    /// # Errors
    ///
    /// Propagates raised exceptions and runtime errors.
    pub fn run_toplevel(&mut self, code: u32) -> Result<Val, SchemeError> {
        self.frames.push(Frame {
            code,
            ip: 0,
            env: Val::Nil,
            base: self.stack.len(),
        });
        let floor = self.frames.len();
        let result = self.execute(floor);
        if result.is_err() {
            self.frames.truncate(floor - 1);
            self.stack.clear();
        }
        result
    }

    fn site_span(&self, site: CallSite) -> Span {
        site.map_or(Span::NONE, |(code, ip)| {
            self.program.codes[code as usize].span_at(ip)
        })
    }

    /// Starts a call of `f` with the top `argc` stack values, above
    /// `below` more (the callee's own slot, or none).  Returns `true` if a
    /// frame was entered (closure call); `false` if a primitive ran and its
    /// result replaced the arguments and the slots below them.  `site` is
    /// where the call was made from, for diagnostics.
    fn begin_call(
        &mut self,
        f: Val,
        argc: usize,
        below: usize,
        tail: bool,
        site: CallSite,
    ) -> Result<bool, SchemeError> {
        match f {
            Val::Obj(gc) if self.heap.kind(gc) == ObjKind::Closure => {
                self.enter_closure(gc, argc, below, tail, site)?;
                Ok(true)
            }
            Val::Native(slot) => {
                // A primitive's slot carries its id (`Machine::native`).
                let Some(id) = self.heap.native_key(slot).checked_sub(1) else {
                    return Err(SchemeError::runtime(format!(
                        "not a procedure: {}{}",
                        self.heap.native(slot),
                        at_span(self.site_span(site))
                    )));
                };
                let result = prims::dispatch(self, id as u16, argc)?;
                self.popn(argc + below);
                self.push(result);
                Ok(false)
            }
            other => Err(SchemeError::runtime(format!(
                "not a procedure: {}{}",
                crate::print::display_val(self, other),
                at_span(self.site_span(site))
            ))),
        }
    }

    /// Enters closure `clo` (see [`Machine::begin_call`]).  Its frame is
    /// the arguments themselves, moved down to the frame's base, unless its
    /// code captures the frame: then `[parent, a0 …, rest?]` goes to the
    /// heap.  A tail call's frame takes the base of the frame it replaces.
    fn enter_closure(
        &mut self,
        clo: Gc,
        argc: usize,
        below: usize,
        tail: bool,
        site: CallSite,
    ) -> Result<(), SchemeError> {
        let code_id = self.heap.closure_code(clo);
        if code_id as usize >= self.program.codes.len() {
            self.reload_program();
        }
        let code = &self.program.codes[code_id as usize];
        let (arity, rest) = (code.arity as usize, code.rest);
        let (assigns, on_stack) = (code.assigns, !code.captures);
        if argc < arity || (!rest && argc > arity) {
            return Err(SchemeError::runtime(format!(
                "arity mismatch calling {}: expected {}{}, got {argc}{}",
                code.name
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "#<lambda>".into()),
                arity,
                if rest { "+" } else { "" },
                at_span(self.site_span(site)),
            )));
        }
        let nargs = arity + usize::from(rest);
        // A heap frame is written from the stack into room reserved first:
        // a collection happens before anything is read, or not at all.
        let need = if on_stack {
            0
        } else {
            Heap::object_words(nargs + 1)
        };
        let clo = if rest || !self.heap.has_room(need) {
            self.rest_and_room(clo, rest.then(|| argc - arity), need)
        } else {
            clo
        };
        let parent = self.heap.closure_capture(clo, 0);
        let args = self.stack.len() - nargs;
        let base = if tail {
            self.frames.last().expect("tail call inside a frame").base
        } else {
            args - below
        };
        let env = if on_stack {
            if base != args {
                self.stack.copy_within(args.., base);
                self.stack.truncate(base + nargs);
            }
            parent
        } else {
            let env = self
                .heap
                .make_frame_reserved(assigns, parent, &self.stack[args..]);
            self.stack.truncate(base);
            Val::Obj(env)
        };
        let frame = Frame {
            code: code_id,
            ip: 0,
            env,
            base,
        };
        if tail {
            *self.frames.last_mut().expect("tail call inside a frame") = frame;
        } else {
            self.frames.push(frame);
        }
        Ok(())
    }

    /// Conses the top `rest` stack values into a list and pushes it, then
    /// makes room for `need` words: the slow part of entering closure
    /// `clo`.  The callee need not be on the stack, so it rides in `keep`,
    /// a root, across the collections on the way; returns it as they left
    /// it.
    #[cold]
    fn rest_and_room(&mut self, clo: Gc, rest: Option<usize>, need: usize) -> Gc {
        let mut keep = [Val::Obj(clo), Val::Nil, Val::Unit];
        if let Some(n) = rest {
            for _ in 0..n {
                keep[2] = self.pop();
                let cell = with_heap!(self, &mut keep, |heap, roots| {
                    heap.cons(roots.extra[2], roots.extra[1], roots)
                });
                keep[1] = Val::Obj(cell);
            }
            self.push(keep[1]);
        }
        if !self.heap.has_room(need) {
            with_heap!(self, &mut keep, |heap, roots| heap.reserve(need, roots));
        }
        let Val::Obj(clo) = keep[0] else {
            unreachable!("the callee stays a closure across a collection")
        };
        clo
    }

    /// The result of the call of `f` with the top `argc` stack values,
    /// when `f` is a primitive [`prims::inline`] runs without the table.
    #[inline(always)]
    fn inline_call(&self, f: Val, argc: usize) -> Option<Val> {
        let Val::Native(slot) = f else {
            return None;
        };
        let id = self.heap.native_key(slot).checked_sub(1)?;
        prims::inline(self, id as u16, argc)
    }

    /// Trades this machine's program snapshot for the interpreter's newest.
    /// A thread that outlives the form that forked it can be handed, through
    /// a global, a closure some later form compiled; snapshots only grow,
    /// so every code id, constant and slot the machine already holds means
    /// in the new one what it meant in the old.
    #[cold]
    fn reload_program(&mut self) {
        self.program = self.globals.program().lock().clone();
    }

    /// This machine's memory of global `slot`, resolved to the slot's
    /// binding cell.  The table is sized when a slot past its end is asked
    /// for: on first use, and after [`Machine::reload_program`] brought
    /// code that names globals the old snapshot had no slot for.
    fn global_ref(&mut self, slot: usize) -> &mut GlobalRef {
        if slot >= self.global_refs.len() {
            let slots = self.program.global_names.len();
            self.global_refs.resize_with(slots, || None);
        }
        let (globals, name) = (&self.globals, self.program.global_names[slot]);
        self.global_refs[slot].get_or_insert_with(|| GlobalRef {
            binding: globals.binding(name),
            seen: UNCACHED,
            val: Val::Unit,
        })
    }

    /// The slow path of a global reference: the slot's first, the first
    /// after the binding was written, or any to a binding that holds
    /// mutable data.  Converts the value, and keeps the conversion when
    /// [`cacheable`].  `None` when the name is unbound.
    fn global_ref_slow(&mut self, slot: usize) -> Option<Val> {
        self.globals.count_slow_read();
        let r = self.global_ref(slot);
        // Forgotten before its successor is converted, so a collection on
        // the way does not keep the stale value alive.
        (r.seen, r.val) = (UNCACHED, Val::Unit);
        let (value, version) = r.binding.read()?;
        let cache = cacheable(&value);
        // A runtime object is pinned as read, without a second clone.
        let val = match value.as_native() {
            Some(h) if h.tag() != convert::CLOSURE_TAG => self.native(value),
            _ => self.from_value(&value),
        };
        if cache {
            let r = self.global_ref(slot);
            (r.seen, r.val) = (version, val);
        }
        Some(val)
    }

    /// Writes global `slot`.  Only that binding's version moves, so only
    /// references to it leave the fast path, here and in other threads.
    fn global_set(&mut self, slot: usize, v: Val) -> Result<(), SchemeError> {
        let value = self.to_value(v)?;
        let r = self.global_ref(slot);
        let version = r.binding.write(value);
        // An immediate is its own conversion, so the writer's next
        // reference need not go and fetch it; anything else is converted
        // back on that reference, as it would be in any other thread.
        (r.seen, r.val) = match v {
            Val::Obj(_) | Val::Native(_) => (UNCACHED, Val::Unit),
            immediate => (version, immediate),
        };
        Ok(())
    }

    /// The running frame's environment (`Val::Nil` at top level).
    fn env(&self) -> Val {
        self.frames.last().expect("frame stack underflow").env
    }

    /// Core dispatch loop: runs until the frame stack drops below `floor`.
    ///
    /// The running frame's code, instruction pointer and base are locals,
    /// and so is its environment when that is a frame of this heap
    /// (`frame`; a top-level or shared environment is fetched with
    /// [`Machine::env`] where it is wanted).  `self.frames` always has the
    /// running frame's `code`, `env` and `base` right — the collector reads
    /// and moves `env` there — so `frame` is re-read after anything that
    /// can allocate; `ip` is written back only when the frame is suspended
    /// by a call.
    ///
    /// In a stack frame (`on_stack`) a `Local` or `SetLocal` of depth 0 is
    /// slot `base + idx` of the operand stack, and one of depth `d > 0` is
    /// depth `d - 1` of `frame`, the environment the closure captured.
    fn execute(&mut self, floor: usize) -> Result<Val, SchemeError> {
        let mut program = Arc::clone(&self.program);
        let (mut code, mut ip, mut base): (u32, usize, usize);
        let (mut on_stack, mut frame): (bool, Option<Gc>);
        let mut ops: &[Op];
        // Field by field, and `env` through a match: a `Frame` copied whole
        // would read back sixteen bytes of `Val` that `begin_call` has just
        // written as a tag and a payload, and wait for both stores.
        macro_rules! reload_frame {
            () => {
                frame = match self.env() {
                    Val::Obj(frame) => Some(frame),
                    _ => None,
                }
            };
        }
        // Makes the frame on top of `self.frames` the running one.
        macro_rules! enter_top_frame {
            () => {{
                let top = self.frames.last().expect("frame stack underflow");
                (code, ip, base) = (top.code, top.ip, top.base);
                if code as usize >= program.codes.len() {
                    // `begin_call` met code newer than the snapshot.
                    program = Arc::clone(&self.program);
                }
                let c = &program.codes[code as usize];
                (ops, on_stack) = (&c.ops, !c.captures);
                reload_frame!();
            }};
        }
        // Returns `v` from the running frame: everything from its base up
        // is dead, and `v` takes the base's place.
        macro_rules! return_value {
            ($v:expr) => {{
                let v = $v;
                self.frames.pop();
                self.stack.truncate(base);
                if self.frames.len() < floor {
                    return Ok(v);
                }
                self.push(v);
                enter_top_frame!();
            }};
        }
        // Calls `f` with the top `argc` stack values and `below` slots
        // under them: inline for a primitive `prims::inline` runs, else
        // through `begin_call`.
        macro_rules! call {
            ($f:expr, $argc:expr, $below:expr, $tail:expr) => {{
                let (f, argc) = ($f, $argc as usize);
                if let Some(v) = self.inline_call(f, argc) {
                    if $tail {
                        return_value!(v);
                    } else {
                        self.popn(argc + $below);
                        self.push(v);
                    }
                } else {
                    if !$tail {
                        self.frames.last_mut().expect("frame").ip = ip;
                    }
                    if self.begin_call(f, argc, $below, $tail, Some((code, ip - 1)))? {
                        enter_top_frame!();
                    } else if $tail {
                        // A primitive in tail position: its result is the
                        // frame's return value.
                        let v = self.pop();
                        return_value!(v);
                    } else {
                        reload_frame!();
                    }
                }
            }};
        }
        // The value of global `slot` when the binding moved since this
        // machine last converted it (or was never converted).
        macro_rules! global_slow {
            ($slot:expr) => {{
                let slot = $slot;
                let Some(v) = self.global_ref_slow(slot) else {
                    let name = program.global_names[slot];
                    let span = program.codes[code as usize].span_at(ip - 1);
                    return Err(SchemeError::runtime(format!(
                        "unbound variable: {name}{}",
                        at_span(span)
                    )));
                };
                reload_frame!();
                v
            }};
        }
        enter_top_frame!();
        loop {
            self.fuel -= 1;
            if self.fuel == 0 {
                self.fuel = CHECKPOINT_WINDOW;
                self.windows += 1;
                tc::checkpoint();
            }
            let op = ops[ip];
            ip += 1;
            match op {
                Op::Const(k) => {
                    let hv = self.from_value(&program.constants[k as usize]);
                    self.push(hv);
                    reload_frame!();
                }
                Op::Int(i) => self.push(Val::Int(i64::from(i))),
                Op::True => self.push(Val::Bool(true)),
                Op::False => self.push(Val::Bool(false)),
                Op::Nil => self.push(Val::Nil),
                Op::Unit => self.push(Val::Unit),
                // (`Local` and `Global` push inside each arm: a `Val` merged
                // from two arms goes through a stack temporary, written in
                // pieces and read back whole, which stalls the load.)
                Op::Local(0, idx) if on_stack => {
                    let v = self.stack[base + idx as usize];
                    self.push(v);
                }
                Op::Local(depth, idx) => {
                    let depth = depth - u16::from(on_stack);
                    match self.heap_frame(frame, depth) {
                        Some(frame) => {
                            let v = self.heap.field(frame, idx as usize + 1);
                            self.push(v);
                        }
                        None => {
                            let v = self.shared_local_ref(self.env(), depth, idx)?;
                            self.push(v);
                            reload_frame!();
                        }
                    }
                }
                Op::SetLocal(0, idx) if on_stack => {
                    let v = self.pop();
                    self.stack[base + idx as usize] = v;
                    self.push(Val::Unit);
                }
                Op::SetLocal(depth, idx) => {
                    let v = self.pop();
                    self.local_set(self.env(), depth - u16::from(on_stack), idx, v)?;
                    reload_frame!();
                    self.push(Val::Unit);
                }
                Op::Global(slot) => match self.global_refs.get(slot as usize) {
                    Some(Some(r)) if r.binding.version() == r.seen => self.stack.push(r.val),
                    _ => {
                        let v = global_slow!(slot as usize);
                        self.push(v);
                    }
                },
                Op::SetGlobal(slot) => {
                    let v = self.pop();
                    self.global_set(slot as usize, v)?;
                    self.push(Val::Unit);
                }
                Op::Closure(code_id) => {
                    let v = self.closure(code_id, self.env());
                    self.push(v);
                    reload_frame!();
                }
                Op::Call(n) => {
                    let f = self.stack[self.stack.len() - n as usize - 1];
                    call!(f, n, 1, false);
                }
                Op::TailCall(n) => {
                    let f = self.stack[self.stack.len() - n as usize - 1];
                    call!(f, n, 1, true);
                }
                // The callee as `Global` reads it.
                Op::CallGlobal(slot, n) | Op::TailCallGlobal(slot, n) => {
                    let f = match self.global_refs.get(slot as usize) {
                        Some(Some(r)) if r.binding.version() == r.seen => r.val,
                        _ => global_slow!(slot as usize),
                    };
                    if matches!(op, Op::CallGlobal(..)) {
                        call!(f, n, 0, false);
                    } else {
                        call!(f, n, 0, true);
                    }
                }
                // The body left its value on top of the stack.
                Op::Return => {
                    let v = self.pop();
                    return_value!(v);
                }
                Op::Jump(d) => ip = (ip as i64 + i64::from(d)) as usize,
                Op::JumpIfFalse(d) => {
                    if self.pop().is_false() {
                        ip = (ip as i64 + i64::from(d)) as usize;
                    }
                }
                Op::Pop => {
                    self.pop();
                }
            }
        }
    }

    /// The frame `depth` levels up from `frame`, when the chain that far is
    /// made of this heap's own frames (the common case; `None` sends the
    /// caller down the [`SharedFrame`] path).
    #[inline]
    fn heap_frame(&self, frame: Option<Gc>, depth: u16) -> Option<Gc> {
        let mut frame = frame?;
        for _ in 0..depth {
            let Val::Obj(parent) = self.heap.field(frame, 0) else {
                return None;
            };
            frame = parent;
        }
        Some(frame)
    }

    /// Resolves the frame `depth` levels up the environment chain.  A
    /// frame is a heap object (either frame kind), or, above a closure
    /// converted across a thread or top-level boundary, a frame as it was
    /// exported: one with an assigned slot ([`SharedFrame`]) or a fixed
    /// one not copied into the heap.  Nothing is cloned on the way.
    fn env_at(&self, env: Val, depth: u16) -> Result<EnvRef<'_>, SchemeError> {
        let short = || SchemeError::Vm("environment chain too short".into());
        fn exported(v: &Value) -> Option<EnvRef<'_>> {
            match v {
                Value::Vector(items) => Some(EnvRef::Fixed(items)),
                other => other.native_ref::<SharedFrame>().map(EnvRef::Shared),
            }
        }
        let mut cur = match env {
            Val::Obj(gc) => EnvRef::Heap(gc),
            Val::Native(slot) => exported(self.heap.native(slot)).ok_or_else(short)?,
            _ => return Err(short()),
        };
        for _ in 0..depth {
            cur = match cur {
                EnvRef::Heap(gc) => match self.heap.field(gc, 0) {
                    Val::Obj(g) => EnvRef::Heap(g),
                    Val::Native(slot) => exported(self.heap.native(slot)).ok_or_else(short)?,
                    _ => return Err(short()),
                },
                EnvRef::Shared(sf) => exported(&sf.parent).ok_or_else(short)?,
                EnvRef::Fixed(items) => exported(&items[0]).ok_or_else(short)?,
            };
        }
        Ok(cur)
    }

    /// A local variable reached through at least one exported frame.  An
    /// immediate, or a runtime object already pinned here, is read in
    /// place; anything else is cloned out and converted, a fresh copy at
    /// each reference.
    fn shared_local_ref(&mut self, env: Val, depth: u16, idx: u16) -> Result<Val, SchemeError> {
        let range = || SchemeError::Vm("frame slot out of range".into());
        let in_place =
            |heap: &Heap, v: &Value| convert::immediate(v).or_else(|| heap.native_slot_of(v));
        let v = match self.env_at(env, depth)? {
            EnvRef::Heap(frame) => return Ok(self.heap.field(frame, idx as usize + 1)),
            EnvRef::Shared(sf) => {
                let slots = sf.slots.read();
                let v = slots.get(idx as usize).ok_or_else(range)?;
                match in_place(&self.heap, v) {
                    Some(val) => return Ok(val),
                    None => v.clone(),
                }
            }
            EnvRef::Fixed(items) => {
                let v = items.get(idx as usize + 1).ok_or_else(range)?;
                match in_place(&self.heap, v) {
                    Some(val) => return Ok(val),
                    None => v.clone(),
                }
            }
        };
        Ok(self.from_value(&v))
    }

    fn local_set(&mut self, env: Val, depth: u16, idx: u16, v: Val) -> Result<(), SchemeError> {
        match self.env_at(env, depth)? {
            EnvRef::Heap(frame) => {
                debug_assert_eq!(
                    self.heap.kind(frame),
                    ObjKind::Frame,
                    "set! of a fixed frame"
                );
                let mut extra = [v, Val::Obj(frame)];
                with_heap!(self, &mut extra, |heap, roots| {
                    let value = roots.extra[0];
                    let Val::Obj(frame) = roots.extra[1] else {
                        unreachable!()
                    };
                    heap.set_field(frame, idx as usize + 1, value, roots);
                });
                Ok(())
            }
            EnvRef::Shared(sf) => {
                let sv = self.to_value(v)?;
                let mut slots = sf.slots.write();
                let slot = slots
                    .get_mut(idx as usize)
                    .ok_or_else(|| SchemeError::Vm("frame slot out of range".into()))?;
                *slot = sv;
                Ok(())
            }
            EnvRef::Fixed(_) => Err(SchemeError::Vm("set! of a fixed frame".into())),
        }
    }

    /// Runs a thread body: applies `thunk_value` (a converted closure) and
    /// converts the result back to a substrate value.  This is what
    /// `fork-thread` schedules.
    ///
    /// # Errors
    ///
    /// Propagates raised exceptions.
    pub fn run_thunk_value(&mut self, thunk: &Value) -> Result<Value, SchemeError> {
        let f = self.from_value(thunk);
        let result = self.apply(f, &[])?;
        self.to_value(result)
    }
}

/// Forks a Scheme thunk (already converted to a substrate value) as a new
/// STING thread with its own machine; used by `fork-thread` and friends.
pub fn fork_thunk_value(
    cx: &Cx,
    program: Arc<Program>,
    globals: Arc<Globals>,
    fluids: HashMap<u64, Value>,
    thunk: Value,
) -> std::sync::Arc<sting_core::Thread> {
    cx.fork_try(move |cx2| run_thunk_in_fresh_machine(cx2, program, globals, fluids, &thunk))
}

/// Creates a delayed Scheme thread from a converted thunk.
pub fn delay_thunk_value(
    cx: &Cx,
    program: Arc<Program>,
    globals: Arc<Globals>,
    fluids: HashMap<u64, Value>,
    thunk: Value,
) -> std::sync::Arc<sting_core::Thread> {
    cx.delayed_try(move |cx2| run_thunk_in_fresh_machine(cx2, program, globals, fluids, &thunk))
}

/// Body shared by forked/delayed Scheme threads; an uncaught raise
/// becomes the thread's exception outcome.
pub fn run_thunk_in_fresh_machine(
    _cx: &Cx,
    program: Arc<Program>,
    globals: Arc<Globals>,
    fluids: HashMap<u64, Value>,
    thunk: &Value,
) -> Result<Value, Value> {
    let mut m = Machine::new(program, globals);
    m.fluids = fluids;
    match m.run_thunk_value(thunk) {
        Ok(v) => Ok(v),
        Err(SchemeError::Raised(v)) => Err(v),
        Err(other) => Err(Value::from(other.to_string())),
    }
}
