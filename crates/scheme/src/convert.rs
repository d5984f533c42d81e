//! Conversion between heap values and substrate values.
//!
//! Values cross thread boundaries (thread results, tuple fields, global
//! bindings) as immutable substrate [`Value`]s — the copy-on-share
//! discipline that keeps each thread's areas independently collectable
//! (see DESIGN.md).  Closures convert structurally: code id plus the
//! converted environment chain.  List spines convert iteratively, so long
//! lists do not consume Rust stack.

use crate::error::SchemeError;
use crate::machine::Machine;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use sting_areas::{ObjKind, Val};
use sting_value::{Symbol, Value};

/// A closure lifted out of a heap: code id + converted environment.
#[derive(Debug)]
pub struct ClosureValue {
    /// Code object index in the program snapshot.
    pub code: u32,
    /// Converted environment chain (`Value::Nil` or an [`FRAME_TAG`] native
    /// holding a [`SharedFrame`]).
    pub env: Value,
}

/// Tag used for closure native handles.
pub const CLOSURE_TAG: &str = "scheme-closure";

/// Tag used for shared environment frames.
pub const FRAME_TAG: &str = "env-frame";

/// An environment frame lifted out of a heap and *shared*: every closure
/// converted from the same frame (in one conversion pass) references the
/// same slots, and mutation through any copy is visible to all — this is
/// what makes top-level closures with captured state (`make-counter`)
/// behave like the paper's shared-heap Scheme.
#[derive(Debug)]
pub struct SharedFrame {
    /// Parent frame (`Value::Nil` or another `env-frame` native).
    pub parent: Value,
    /// The frame's variable slots.
    pub slots: RwLock<Vec<Value>>,
}

/// Converts a heap value to a substrate value.
///
/// # Errors
///
/// Raises on cyclic data (the immutable substrate representation cannot
/// express cycles).
pub fn heap_to_value(m: &mut Machine, v: Val) -> Result<Value, SchemeError> {
    let mut path: Vec<u64> = Vec::new();
    let mut frames: HashMap<u64, Value> = HashMap::new();
    go_out(m, v, &mut path, &mut frames)
}

fn cyclic() -> SchemeError {
    SchemeError::runtime("cannot transfer cyclic data between threads")
}

fn go_out(
    m: &mut Machine,
    v: Val,
    path: &mut Vec<u64>,
    frames: &mut HashMap<u64, Value>,
) -> Result<Value, SchemeError> {
    Ok(match v {
        Val::Int(i) => Value::Int(i),
        Val::Float(f) => Value::Float(f),
        Val::Bool(b) => Value::Bool(b),
        Val::Char(c) => Value::Char(c),
        Val::Sym(s) => Value::Sym(Symbol::from_index(s)),
        Val::Nil => Value::Nil,
        Val::Unit | Val::Undef | Val::Eof => Value::Unit,
        Val::Native(slot) => m.heap.native(slot).clone(),
        Val::Obj(gc) => {
            let key = gc.word().0;
            // Frames are memoized (and may legitimately be self-referential
            // through closures in their slots): check the memo before the
            // cycle detector.
            if let Some(v) = frames.get(&key) {
                return Ok(v.clone());
            }
            if path.contains(&key) {
                return Err(cyclic());
            }
            path.push(key);
            let out = match m.heap.kind(gc) {
                ObjKind::Pair => {
                    // Walk the spine iteratively; recurse only on cars.
                    let mut spine: Vec<u64> = Vec::new();
                    let mut cars: Vec<Value> = Vec::new();
                    let mut cur = Val::Obj(gc);
                    let tail = loop {
                        match cur {
                            Val::Obj(g) if m.heap.kind(g) == ObjKind::Pair => {
                                if spine.contains(&g.word().0)
                                    || path.contains(&g.word().0) && g != gc
                                {
                                    return Err(cyclic());
                                }
                                spine.push(g.word().0);
                                let car = m.heap.car(g);
                                path.extend(&spine);
                                let cv = go_out(m, car, path, frames)?;
                                path.truncate(path.len() - spine.len());
                                cars.push(cv);
                                cur = m.heap.cdr(g);
                            }
                            other => break go_out(m, other, path, frames)?,
                        }
                    };
                    let mut acc = tail;
                    for c in cars.into_iter().rev() {
                        acc = Value::cons(c, acc);
                    }
                    acc
                }
                ObjKind::Vector => {
                    let len = m.heap.len(gc);
                    let mut items = Vec::with_capacity(len);
                    for i in 0..len {
                        let f = m.heap.field(gc, i);
                        items.push(go_out(m, f, path, frames)?);
                    }
                    Value::Vector(items.into())
                }
                ObjKind::Str => Value::from(m.heap.string_value(gc)),
                ObjKind::Cell => {
                    let inner = m.heap.field(gc, 0);
                    go_out(m, inner, path, frames)?
                }
                ObjKind::FloatBox => match m.heap.field(gc, 0) {
                    Val::Float(f) => Value::Float(f),
                    _ => Value::Float(0.0),
                },
                ObjKind::Closure => {
                    let code = m.heap.closure_code(gc);
                    let env = m.heap.closure_capture(gc, 0);
                    let env_v = go_out(m, env, path, frames)?;
                    Value::native(CLOSURE_TAG, Arc::new(ClosureValue { code, env: env_v }))
                }
                ObjKind::Frame => {
                    if let Some(v) = frames.get(&key) {
                        let out = v.clone();
                        path.pop();
                        return Ok(out);
                    }
                    // Parent chains are acyclic: convert the parent first,
                    // then memoize the (empty) frame so closures stored in
                    // the slots that capture this same frame share it.
                    let parent = go_out(m, m.heap.field(gc, 0), path, frames)?;
                    let shared = Arc::new(SharedFrame {
                        parent,
                        slots: RwLock::new(Vec::new()),
                    });
                    let fv = Value::native(FRAME_TAG, shared.clone());
                    frames.insert(key, fv.clone());
                    let len = m.heap.len(gc);
                    let mut slots = Vec::with_capacity(len.saturating_sub(1));
                    for i in 1..len {
                        let f = m.heap.field(gc, i);
                        slots.push(go_out(m, f, path, frames)?);
                    }
                    *shared.slots.write() = slots;
                    fv
                }
            };
            path.pop();
            out
        }
    })
}

/// Converts a substrate value into the machine's heap.  (Substrate values
/// are acyclic by construction, so this is total.)
pub fn value_to_heap(m: &mut Machine, v: &Value) -> Val {
    match v {
        Value::Unit => Val::Unit,
        Value::Bool(b) => Val::Bool(*b),
        Value::Int(i) => Val::Int(*i),
        Value::Float(f) => Val::Float(*f),
        Value::Char(c) => Val::Char(*c),
        Value::Sym(s) => Val::Sym(s.index()),
        Value::Nil => Val::Nil,
        Value::Str(s) => m.string(s),
        Value::Pair(_) => {
            // Iterative spine conversion, rooting intermediates on the
            // machine stack.
            let mut count = 0usize;
            let mut cur = v.clone();
            loop {
                match cur {
                    Value::Pair(p) => {
                        let hv = value_to_heap(m, &p.0);
                        m.push(hv);
                        count += 1;
                        cur = p.1.clone();
                    }
                    other => {
                        let t = value_to_heap(m, &other);
                        m.push(t);
                        break;
                    }
                }
            }
            let mut acc = m.pop();
            for _ in 0..count {
                let car = m.pop();
                acc = m.cons(car, acc);
            }
            acc
        }
        Value::Vector(items) => {
            let n = items.len();
            for item in items.iter() {
                let hv = value_to_heap(m, item);
                m.push(hv);
            }
            let start = m.stack.len() - n;
            let vals: Vec<Val> = m.stack[start..].to_vec();
            let out = m.vector(&vals);
            m.popn(n);
            out
        }
        Value::Native(h) => {
            if h.tag() == CLOSURE_TAG {
                let clo = h.downcast_ref::<ClosureValue>().expect("closure tag");
                let env = value_to_heap(m, &clo.env);
                m.closure(clo.code, env)
            } else {
                m.native(v.clone())
            }
        }
    }
}
