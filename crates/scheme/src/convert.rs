//! Conversion between heap values and substrate values.
//!
//! Values cross thread boundaries (thread results, tuple fields, global
//! bindings) as immutable substrate [`Value`]s — the copy-on-share
//! discipline that keeps each thread's areas independently collectable
//! (see DESIGN.md).  Each crossing pays once:
//!
//! * **Import** ([`value_to_heap`]) copies a value into the heap by bump
//!   allocation, walking it by reference.  The pairs and vectors it makes
//!   are marked, and the copy is recorded as a copy of the value
//!   ([`Heap::record_import`]).
//! * **Export** ([`heap_to_value`]) copies out of the heap, except that an
//!   object whose import record stands is handed out as the value it was
//!   copied from: a list a thread received and returns with one cell
//!   consed on costs one cell, not the list.  A store into any imported
//!   object, or a collection, drops the records, so a changed copy is
//!   copied out as it is now.
//! * Closures convert structurally: code id plus the environment chain.
//!   A frame no code assigns to ([`ObjKind::FixedFrame`]) exports as a
//!   `Value::Vector` `[parent, v0, …]` — in a closure's environment, a
//!   vector is such a frame.  If its slots hold only immediates and
//!   runtime objects, it imports as a heap frame again, once per import
//!   however many closures share it.  A frame with an assigned slot
//!   exports as a [`SharedFrame`], one per export, that every thread
//!   running a closure over it reads and writes through.
//! * A captured variable read through an exported frame — a shared one,
//!   or a fixed one holding data or a procedure, which is pinned as it
//!   is — converts at each reference: a captured list is a fresh copy
//!   each time, whichever kind of frame holds it.  Only an immediate or a
//!   runtime object, which convert alike every time, is read in place.
//!
//! List spines convert iteratively, so long lists do not consume Rust
//! stack.

use crate::error::SchemeError;
use crate::machine::Machine;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use sting_areas::{EntryId, Gc, Heap, ObjKind, Val};
use sting_value::{Symbol, Value};

/// A closure lifted out of a heap: code id + converted environment.
#[derive(Debug)]
pub struct ClosureValue {
    /// Code object index in the program snapshot.
    pub code: u32,
    /// Converted environment chain: `Value::Nil`, a `Value::Vector`
    /// `[parent, v0, …]` for a frame no code assigns to, or an
    /// [`FRAME_TAG`] native holding a [`SharedFrame`].
    pub env: Value,
}

/// Tag used for closure native handles.
pub const CLOSURE_TAG: &str = "scheme-closure";

/// Tag used for shared environment frames.
pub const FRAME_TAG: &str = "env-frame";

/// An environment frame with an assigned slot, lifted out of a heap and
/// *shared*: every closure converted from the same frame (in one
/// conversion pass) references the same slots, and mutation through any
/// copy is visible to all — this is what makes top-level closures with
/// captured state (`make-counter`) behave like the paper's shared-heap
/// Scheme.
#[derive(Debug)]
pub struct SharedFrame {
    /// Parent frame, converted as [`ClosureValue::env`] is.
    pub parent: Value,
    /// The frame's variable slots.
    pub slots: RwLock<Vec<Value>>,
}

/// Cells an import makes per nursery reservation.
const CELLS_PER_RESERVE: usize = 256;

/// Converts a heap value to a substrate value.
///
/// # Errors
///
/// Raises on cyclic data (the immutable substrate representation cannot
/// express cycles).
pub fn heap_to_value(heap: &Heap, v: Val) -> Result<Value, SchemeError> {
    let mut path: Vec<u64> = Vec::new();
    let mut frames: HashMap<u64, Value> = HashMap::new();
    go_out(heap, v, &mut path, &mut frames)
}

fn cyclic() -> SchemeError {
    SchemeError::runtime("cannot transfer cyclic data between threads")
}

/// Converts `v`.  `path` holds the objects whose parts are being converted
/// (a list's cells only while their car is); `frames` the frames converted
/// so far, by heap word.
fn go_out(
    heap: &Heap,
    v: Val,
    path: &mut Vec<u64>,
    frames: &mut HashMap<u64, Value>,
) -> Result<Value, SchemeError> {
    let gc = match v {
        Val::Int(i) => return Ok(Value::Int(i)),
        Val::Float(f) => return Ok(Value::Float(f)),
        Val::Bool(b) => return Ok(Value::Bool(b)),
        Val::Char(c) => return Ok(Value::Char(c)),
        Val::Sym(s) => return Ok(Value::Sym(Symbol::from_index(s))),
        Val::Nil => return Ok(Value::Nil),
        Val::Unit | Val::Undef | Val::Eof => return Ok(Value::Unit),
        Val::Native(slot) => return Ok(heap.native(slot).clone()),
        Val::Obj(gc) => gc,
    };
    if let Some(v) = heap.imported_value(gc) {
        return Ok(v.clone());
    }
    let key = gc.word().0;
    // Frames are memoized (and may legitimately be self-referential
    // through closures in their slots): check the memo before the cycle
    // detector.
    if let Some(v) = frames.get(&key) {
        return Ok(v.clone());
    }
    let kind = heap.kind(gc);
    if path.contains(&key) {
        // A fixed frame reached from inside its own slots (a vector in one
        // holds a closure over it) crosses as a shared frame, which can.
        return match kind {
            ObjKind::FixedFrame => shared_frame(heap, gc, path, frames),
            _ => Err(cyclic()),
        };
    }
    if kind == ObjKind::Pair {
        return list_out(heap, gc, path, frames);
    }
    path.push(key);
    let out = match kind {
        ObjKind::Pair => unreachable!("lists convert in list_out"),
        ObjKind::Vector => {
            let len = heap.len(gc);
            let mut items = Vec::with_capacity(len);
            for i in 0..len {
                items.push(go_out(heap, heap.field(gc, i), path, frames)?);
            }
            Value::Vector(items.into())
        }
        ObjKind::Str => Value::from(heap.string_value(gc)),
        ObjKind::Cell => go_out(heap, heap.field(gc, 0), path, frames)?,
        ObjKind::FloatBox => match heap.field(gc, 0) {
            Val::Float(f) => Value::Float(f),
            _ => Value::Float(0.0),
        },
        ObjKind::Closure => {
            let code = heap.closure_code(gc);
            let env = go_out(heap, heap.closure_capture(gc, 0), path, frames)?;
            Value::native(CLOSURE_TAG, Arc::new(ClosureValue { code, env }))
        }
        ObjKind::Frame => {
            // Memoized empty first, so that closures in the slots that
            // capture this same frame share it.
            let fv = shared_frame(heap, gc, path, frames)?;
            let slots = frame_slots(heap, gc, path, frames)?;
            *shared_slots(&fv).write() = slots;
            fv
        }
        ObjKind::FixedFrame => {
            let parent = go_out(heap, heap.field(gc, 0), path, frames)?;
            let slots = frame_slots(heap, gc, path, frames)?;
            match frames.get(&key) {
                // Its slots came back to it: it became a shared frame.
                Some(fv) => {
                    *shared_slots(fv).write() = slots;
                    fv.clone()
                }
                None => {
                    let items: Arc<[Value]> = std::iter::once(parent).chain(slots).collect();
                    let fv = Value::Vector(items);
                    frames.insert(key, fv.clone());
                    fv
                }
            }
        }
    };
    path.pop();
    Ok(out)
}

/// A frame's slots, converted.
fn frame_slots(
    heap: &Heap,
    gc: Gc,
    path: &mut Vec<u64>,
    frames: &mut HashMap<u64, Value>,
) -> Result<Vec<Value>, SchemeError> {
    (1..heap.len(gc))
        .map(|i| go_out(heap, heap.field(gc, i), path, frames))
        .collect()
}

/// A [`SharedFrame`] for heap frame `gc`, its parent converted and its
/// slots empty, memoized in `frames`.
fn shared_frame(
    heap: &Heap,
    gc: Gc,
    path: &mut Vec<u64>,
    frames: &mut HashMap<u64, Value>,
) -> Result<Value, SchemeError> {
    // Parent chains are acyclic.
    let parent = go_out(heap, heap.field(gc, 0), path, frames)?;
    let fv = Value::native(
        FRAME_TAG,
        Arc::new(SharedFrame {
            parent,
            slots: RwLock::new(Vec::new()),
        }),
    );
    frames.insert(gc.word().0, fv.clone());
    Ok(fv)
}

fn shared_slots(fv: &Value) -> &RwLock<Vec<Value>> {
    &fv.native_ref::<SharedFrame>()
        .expect("a memoized shared frame")
        .slots
}

/// Converts the list whose first cell is `first`.  The spine is walked
/// iteratively, a second pointer at half speed catching a cycle in it; a
/// car that is an object converts with its cell on `path`.  A cell an
/// import recorded ends the walk: the rest is the value it came from.
fn list_out(
    heap: &Heap,
    first: Gc,
    path: &mut Vec<u64>,
    frames: &mut HashMap<u64, Value>,
) -> Result<Value, SchemeError> {
    let mut cars: Vec<Value> = Vec::new();
    let (mut cell, mut slow) = (first, first);
    let tail = loop {
        let car = heap.car(cell);
        cars.push(if let Val::Obj(_) = car {
            let key = cell.word().0;
            if path.contains(&key) {
                return Err(cyclic());
            }
            path.push(key);
            let v = go_out(heap, car, path, frames)?;
            path.pop();
            v
        } else {
            go_out(heap, car, path, frames)?
        });
        match heap.cdr(cell) {
            Val::Obj(next) if heap.kind(next) == ObjKind::Pair => {
                if let Some(rest) = heap.imported_value(next) {
                    break rest.clone();
                }
                cell = next;
                if cars.len().is_multiple_of(2) {
                    let Val::Obj(s) = heap.cdr(slow) else {
                        unreachable!("the slow pointer trails the walk")
                    };
                    slow = s;
                }
                if cell == slow {
                    return Err(cyclic());
                }
            }
            other => break go_out(heap, other, path, frames)?,
        }
    };
    Ok(cars
        .into_iter()
        .rev()
        .fold(tail, |acc, car| Value::cons(car, acc)))
}

/// Converts a substrate value into the machine's heap.  (Substrate values
/// are acyclic by construction, so this is total.)  When `v` is a pair or
/// a vector, the heap records the copy as a copy of `v`.
pub fn value_to_heap(m: &mut Machine, v: &Value) -> Val {
    if let Some(imm) = immediate(v) {
        return imm;
    }
    let epoch = m.heap.import_epoch();
    let mut frames = Vec::new();
    let out = go_in(m, v, &mut frames);
    for (_, entry) in frames {
        m.heap.release(entry);
    }
    if let (Val::Obj(gc), Value::Pair(_) | Value::Vector(_)) = (out, v) {
        m.heap.record_import(epoch, gc, v.clone());
    }
    out
}

/// The fixed frames an import has made, by the address of the value each
/// came from, held in the heap's entry table so that collections move
/// them.
type FramesIn = Vec<(usize, EntryId)>;

/// `v` as a `Val`, when it is one without allocating.
#[inline]
pub(crate) fn immediate(v: &Value) -> Option<Val> {
    Some(match v {
        Value::Unit => Val::Unit,
        Value::Bool(b) => Val::Bool(*b),
        Value::Int(i) => Val::Int(*i),
        Value::Float(f) => Val::Float(*f),
        Value::Char(c) => Val::Char(*c),
        Value::Sym(s) => Val::Sym(s.index()),
        Value::Nil => Val::Nil,
        _ => return None,
    })
}

fn go_in(m: &mut Machine, v: &Value, frames: &mut FramesIn) -> Val {
    match v {
        Value::Str(s) => m.string(s),
        Value::Pair(_) => list_in(m, v, frames),
        Value::Vector(items) => {
            let start = m.stack.len();
            for item in items.iter() {
                let hv = go_in(m, item, frames);
                m.push(hv);
            }
            m.reserve(Heap::object_words(items.len()), Val::Nil);
            let gc = m.heap.make_vector_reserved(&m.stack[start..]);
            m.heap.mark_imported(gc);
            m.stack.truncate(start);
            Val::Obj(gc)
        }
        Value::Native(h) => match h.downcast_ref::<ClosureValue>() {
            Some(clo) => {
                let env = env_in(m, &clo.env, frames);
                m.closure(clo.code, env)
            }
            None => m.native_ref(v),
        },
        other => immediate(other).expect("every other value is an immediate"),
    }
}

/// Imports a list: its cars onto the operand stack, then its cells last
/// to first, many to a nursery reservation.
fn list_in(m: &mut Machine, v: &Value, frames: &mut FramesIn) -> Val {
    let start = m.stack.len();
    let mut cur = v;
    while let Value::Pair(p) = cur {
        let car = go_in(m, &p.0, frames);
        m.push(car);
        cur = &p.1;
    }
    let mut acc = go_in(m, cur, frames);
    while m.stack.len() > start {
        let cells = (m.stack.len() - start).min(CELLS_PER_RESERVE);
        acc = m.reserve(Heap::object_words(2) * cells, acc);
        for _ in 0..cells {
            let car = m.pop();
            let gc = m.heap.cons_reserved(car, acc);
            m.heap.mark_imported(gc);
            acc = Val::Obj(gc);
        }
    }
    acc
}

/// Whether `v`, imported once, reads the same as imported at every
/// reference: an immediate or a runtime object, not a procedure or data.
fn imports_alike(v: &Value) -> bool {
    match v {
        Value::Native(h) => h.tag() != CLOSURE_TAG,
        other => immediate(other).is_some(),
    }
}

/// Imports an environment chain (see [`ClosureValue::env`]).  A fixed
/// frame whose slots all import alike is copied into the heap; any other
/// stays the exported vector, pinned, and its slots are converted at each
/// reference, as a shared frame's are.
fn env_in(m: &mut Machine, env: &Value, frames: &mut FramesIn) -> Val {
    let Value::Vector(items) = env else {
        return match env {
            Value::Nil => Val::Nil,
            shared => m.native_ref(shared),
        };
    };
    if !items[1..].iter().all(imports_alike) {
        return m.native(env.clone());
    }
    let id = items.as_ptr() as usize;
    if let Some(&(_, entry)) = frames.iter().find(|(f, _)| *f == id) {
        return Val::Obj(m.heap.resolve(entry));
    }
    let start = m.stack.len();
    let parent = env_in(m, &items[0], frames);
    m.push(parent);
    for item in &items[1..] {
        let hv = go_in(m, item, frames);
        m.push(hv);
    }
    m.reserve(Heap::object_words(items.len()), Val::Nil);
    let gc = m
        .heap
        .make_frame_reserved(false, m.stack[start], &m.stack[start + 1..]);
    m.stack.truncate(start);
    frames.push((id, m.heap.export(gc)));
    Val::Obj(gc)
}
