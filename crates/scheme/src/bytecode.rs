//! Compiled code representation.
//!
//! A [`Program`] is an append-only pool of [`CodeObject`]s, constants and
//! global slots.  Each top-level evaluation extends a copy of the program
//! and produces a new immutable `Arc<Program>` snapshot; threads hold the
//! snapshot they were created against, so compilation never interferes
//! with running code.  Code objects are shared between snapshots (and
//! between interpreters, which all start from one compiled prelude), so
//! the copy is a vector of pointers, not of instruction streams.

use crate::sexp::Span;
use std::collections::HashMap;
use std::sync::Arc;
use sting_value::{Symbol, Value};

/// One bytecode instruction.  Jump offsets are relative to the *next*
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant `k` (index into [`Program::constants`]).
    Const(u32),
    /// Push a small integer without a constant-table entry.
    Int(i32),
    /// Push `#t` / `#f` / `()` / unspecified.
    True,
    /// Push `#f`.
    False,
    /// Push the empty list.
    Nil,
    /// Push the unspecified value.
    Unit,
    /// Push local variable: `depth` frames up, slot `idx`.
    Local(u16, u16),
    /// Pop into local variable; pushes the unspecified value.
    SetLocal(u16, u16),
    /// Push global slot.
    Global(u32),
    /// Pop into global slot; pushes the unspecified value.
    SetGlobal(u32),
    /// Push a closure over code object `c`, capturing the current frame.
    Closure(u32),
    /// Call with `n` arguments (stack: `… f a1 … an`).
    Call(u8),
    /// Tail call with `n` arguments (current frame is replaced).
    TailCall(u8),
    /// Call global slot `s` with `n` arguments (stack: `… a1 … an`): the
    /// callee is read as [`Op::Global`] reads it, and never pushed.
    CallGlobal(u32, u8),
    /// [`Op::CallGlobal`] in tail position.
    TailCallGlobal(u32, u8),
    /// Return the top of stack from the current frame.
    Return,
    /// Unconditional relative jump.
    Jump(i32),
    /// Pop; jump if the popped value is `#f`.
    JumpIfFalse(i32),
    /// Pop and discard.
    Pop,
}

/// A compiled procedure body.
#[derive(Debug, Clone)]
pub struct CodeObject {
    /// Instructions.
    pub ops: Vec<Op>,
    /// Number of fixed parameters.
    pub arity: u8,
    /// Whether extra arguments are collected into a rest list.
    pub rest: bool,
    /// Whether a `set!` (this body's or an inner lambda's) assigns a slot
    /// of the frame a call of this code makes.  A frame nothing assigns is
    /// made an [`ObjKind::FixedFrame`](sting_areas::ObjKind::FixedFrame).
    pub assigns: bool,
    /// Whether the ops contain a [`Op::Closure`], which captures the frame
    /// a call of this code makes.  A frame nothing captures stays on the
    /// operand stack; only the others are built in the heap.
    pub captures: bool,
    /// Diagnostic name.
    pub name: Option<Symbol>,
    /// Source position per instruction (parallel to `ops`; the span of the
    /// innermost enclosing surface form, [`Span::NONE`] when unknown).
    pub spans: Vec<Span>,
    /// Source position of the defining `lambda`/`define` form.
    pub span: Span,
}

impl CodeObject {
    /// The source span of instruction `ip`, falling back to the code
    /// object's definition span.
    pub fn span_at(&self, ip: usize) -> Span {
        self.spans
            .get(ip)
            .copied()
            .unwrap_or(Span::NONE)
            .or(self.span)
    }
}

/// An immutable snapshot of compiled code, constants and global names.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Code objects; closures reference them by index.
    pub codes: Vec<Arc<CodeObject>>,
    /// Literal constants (substrate values; converted into each thread's
    /// heap on demand).
    pub constants: Vec<Value>,
    /// Global slot names, in slot order.
    pub global_names: Vec<Symbol>,
    /// `global_names` inverted, so compiling a reference is one lookup.
    global_slots: HashMap<Symbol, u32>,
}

impl Program {
    /// Index of (or new slot for) global `name`.
    pub fn global_slot(&mut self, name: Symbol) -> u32 {
        *self.global_slots.entry(name).or_insert_with(|| {
            self.global_names.push(name);
            (self.global_names.len() - 1) as u32
        })
    }

    /// Adds a constant, deduplicating exact matches.
    pub fn add_constant(&mut self, v: Value) -> u32 {
        match self.constants.iter().position(|c| *c == v) {
            Some(i) => i as u32,
            None => {
                self.constants.push(v);
                (self.constants.len() - 1) as u32
            }
        }
    }

    /// Adds a code object, returning its index.
    pub fn add_code(&mut self, code: CodeObject) -> u32 {
        self.codes.push(Arc::new(code));
        (self.codes.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_slots_are_stable() {
        let mut p = Program::default();
        let a = p.global_slot(Symbol::intern("a"));
        let b = p.global_slot(Symbol::intern("b"));
        assert_ne!(a, b);
        assert_eq!(p.global_slot(Symbol::intern("a")), a);
    }

    #[test]
    fn constants_dedup() {
        let mut p = Program::default();
        let k1 = p.add_constant(Value::from(5));
        let k2 = p.add_constant(Value::from(5));
        let k3 = p.add_constant(Value::from("x"));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }
}
