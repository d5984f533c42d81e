//! The compiler: core forms → bytecode with lexical addressing and proper
//! tail calls.

use crate::bytecode::{CodeObject, Op, Program};
use crate::error::SchemeError;
use crate::expand::Core;
use crate::sexp::{Sexp, Span};
use sting_value::{Symbol, Value};

/// Compile-time lexical environment: a stack of frames of variable names,
/// each with whether any `set!` compiled so far assigns one of its slots.
#[derive(Debug, Clone, Default)]
struct CEnv {
    frames: Vec<Vec<Symbol>>,
    assigned: Vec<bool>,
}

impl CEnv {
    fn lookup(&self, name: Symbol) -> Option<(u16, u16)> {
        for (depth, frame) in self.frames.iter().rev().enumerate() {
            if let Some(idx) = frame.iter().position(|s| *s == name) {
                return Some((depth as u16, idx as u16));
            }
        }
        None
    }

    fn push(&mut self, vars: Vec<Symbol>) {
        self.frames.push(vars);
        self.assigned.push(false);
    }

    /// Pops the innermost frame, saying whether any of its slots is
    /// assigned.
    fn pop(&mut self) -> bool {
        self.frames.pop();
        self.assigned.pop().unwrap_or(false)
    }

    /// Notes a `set!` of the slot `depth` frames up.
    fn assign(&mut self, depth: u16) {
        let frame = self.assigned.len() - 1 - depth as usize;
        self.assigned[frame] = true;
    }
}

/// Compiles a top-level core form into a zero-argument code object added
/// to `program`; returns its index.
///
/// # Errors
///
/// [`SchemeError::Compile`] on malformed programs (e.g. `define` nested
/// under an expression).
pub fn compile_top(core: &Core, program: &mut Program) -> Result<u32, SchemeError> {
    let mut c = Compiler {
        program,
        env: CEnv::default(),
        ops: Vec::new(),
        spans: Vec::new(),
        cur_span: Span::NONE,
    };
    match core {
        Core::Define(name, value) => {
            c.expr(value, false)?;
            let slot = c.program.global_slot(*name);
            c.emit(Op::SetGlobal(slot));
        }
        other => c.expr(other, false)?,
    }
    c.emit(Op::Return);
    let ops = c.ops;
    let spans = c.spans;
    Ok(program.add_code(CodeObject {
        ops,
        arity: 0,
        rest: false,
        assigns: false,
        name: None,
        spans,
        span: Span::NONE,
    }))
}

struct Compiler<'a> {
    program: &'a mut Program,
    env: CEnv,
    ops: Vec<Op>,
    /// Source span per emitted op, parallel to `ops`.
    spans: Vec<Span>,
    /// Span of the innermost enclosing surface form being compiled.
    cur_span: Span,
}

impl Compiler<'_> {
    fn err(msg: impl Into<String>) -> SchemeError {
        SchemeError::Compile(msg.into())
    }

    fn emit(&mut self, op: Op) {
        self.ops.push(op);
        self.spans.push(self.cur_span);
    }

    fn expr(&mut self, e: &Core, tail: bool) -> Result<(), SchemeError> {
        match e {
            Core::Quote(d) => self.constant(d),
            Core::Var(name) => {
                match self.env.lookup(*name) {
                    Some((depth, idx)) => self.emit(Op::Local(depth, idx)),
                    None => {
                        let slot = self.program.global_slot(*name);
                        self.emit(Op::Global(slot));
                    }
                }
                Ok(())
            }
            Core::Set(name, value) => {
                self.expr(value, false)?;
                match self.env.lookup(*name) {
                    Some((depth, idx)) => {
                        self.env.assign(depth);
                        self.emit(Op::SetLocal(depth, idx));
                    }
                    None => {
                        let slot = self.program.global_slot(*name);
                        self.emit(Op::SetGlobal(slot));
                    }
                }
                Ok(())
            }
            Core::If(cond, then, els) => {
                self.expr(cond, false)?;
                let jf = self.ops.len();
                self.emit(Op::JumpIfFalse(0));
                self.expr(then, tail)?;
                let jend = self.ops.len();
                self.emit(Op::Jump(0));
                let else_start = self.ops.len();
                self.ops[jf] = Op::JumpIfFalse((else_start - jf - 1) as i32);
                self.expr(els, tail)?;
                let end = self.ops.len();
                self.ops[jend] = Op::Jump((end - jend - 1) as i32);
                Ok(())
            }
            Core::Begin(body) => {
                for (i, b) in body.iter().enumerate() {
                    let last = i + 1 == body.len();
                    self.expr(b, tail && last)?;
                    if !last {
                        self.emit(Op::Pop);
                    }
                }
                Ok(())
            }
            Core::Lambda {
                params,
                rest,
                body,
                name,
                span,
            } => {
                let code = self.lambda(params, *rest, body, *name, *span)?;
                self.emit(Op::Closure(code));
                Ok(())
            }
            Core::Call(f, args, span) => {
                let call_span = span.or(self.cur_span);
                let saved = self.cur_span;
                self.cur_span = call_span;
                self.expr(f, false)?;
                for a in args {
                    self.expr(a, false)?;
                }
                let n = u8::try_from(args.len())
                    .map_err(|_| Self::err("too many arguments (max 255)"))?;
                self.cur_span = call_span;
                self.emit(if tail { Op::TailCall(n) } else { Op::Call(n) });
                self.cur_span = saved;
                Ok(())
            }
            Core::Try { body, var, handler } => {
                // (%try (lambda () body) (lambda (var) handler...))
                let try_sym = self.program.global_slot(Symbol::intern("%try"));
                self.emit(Op::Global(try_sym));
                let body_code =
                    self.lambda(&[], None, std::slice::from_ref(body), None, self.cur_span)?;
                self.emit(Op::Closure(body_code));
                let handler_code = self.lambda(&[*var], None, handler, None, self.cur_span)?;
                self.emit(Op::Closure(handler_code));
                self.emit(if tail { Op::TailCall(2) } else { Op::Call(2) });
                Ok(())
            }
            Core::Define(..) => Err(Self::err(
                "define is only allowed at top level or at the start of a body",
            )),
        }
    }

    fn lambda(
        &mut self,
        params: &[Symbol],
        rest: Option<Symbol>,
        body: &[Core],
        name: Option<Symbol>,
        span: Span,
    ) -> Result<u32, SchemeError> {
        let mut frame: Vec<Symbol> = params.to_vec();
        if let Some(r) = rest {
            frame.push(r);
        }
        let arity =
            u8::try_from(params.len()).map_err(|_| Self::err("too many parameters (max 255)"))?;
        self.env.push(frame);
        let saved_ops = std::mem::take(&mut self.ops);
        let saved_spans = std::mem::take(&mut self.spans);
        let saved_cur = std::mem::replace(&mut self.cur_span, span);
        let result = (|| -> Result<(), SchemeError> {
            if body.is_empty() {
                return Err(Self::err("empty lambda body"));
            }
            for (i, b) in body.iter().enumerate() {
                let last = i + 1 == body.len();
                self.expr(b, last)?;
                if !last {
                    self.emit(Op::Pop);
                }
            }
            self.emit(Op::Return);
            Ok(())
        })();
        let ops = std::mem::replace(&mut self.ops, saved_ops);
        let spans = std::mem::replace(&mut self.spans, saved_spans);
        self.cur_span = saved_cur;
        let assigns = self.env.pop();
        result?;
        Ok(self.program.add_code(CodeObject {
            ops,
            arity,
            rest: rest.is_some(),
            assigns,
            name,
            spans,
            span,
        }))
    }

    fn constant(&mut self, d: &Sexp) -> Result<(), SchemeError> {
        match d {
            Sexp::Bool(true) => self.emit(Op::True),
            Sexp::Bool(false) => self.emit(Op::False),
            Sexp::Int(i) if i32::try_from(*i).is_ok() => {
                self.emit(Op::Int(*i as i32));
            }
            Sexp::List(items, None, _) if items.is_empty() => self.emit(Op::Nil),
            other => {
                let v = sexp_to_value(other)?;
                let k = self.program.add_constant(v);
                self.emit(Op::Const(k));
            }
        }
        Ok(())
    }
}

/// Converts a quoted datum to a substrate constant value.
///
/// # Errors
///
/// [`SchemeError::Compile`] if the datum cannot be a constant.
pub fn sexp_to_value(d: &Sexp) -> Result<Value, SchemeError> {
    Ok(match d {
        Sexp::Int(i) => Value::Int(*i),
        Sexp::Float(f) => Value::Float(*f),
        Sexp::Bool(b) => Value::Bool(*b),
        Sexp::Char(c) => Value::Char(*c),
        Sexp::Str(s) => Value::from(s.as_str()),
        Sexp::Sym(s) => Value::Sym(*s),
        Sexp::List(items, tail, _) => {
            let mut v = match tail {
                Some(t) => sexp_to_value(t)?,
                None => Value::Nil,
            };
            for item in items.iter().rev() {
                v = Value::cons(sexp_to_value(item)?, v);
            }
            v
        }
        Sexp::Vector(items) => Value::Vector(
            items
                .iter()
                .map(sexp_to_value)
                .collect::<Result<Vec<_>, _>>()?
                .into(),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand_top;
    use crate::reader::read_one;

    fn compile(src: &str) -> (Program, u32) {
        let mut p = Program::default();
        let core = expand_top(&read_one(src).unwrap()).unwrap();
        let id = compile_top(&core, &mut p).unwrap();
        (p, id)
    }

    #[test]
    fn small_int_inline() {
        let (p, id) = compile("42");
        assert_eq!(p.codes[id as usize].ops, vec![Op::Int(42), Op::Return]);
        assert!(p.constants.is_empty());
    }

    #[test]
    fn lambda_compiles_to_code_object() {
        let (p, id) = compile("(lambda (x) x)");
        // Top-level: Closure + Return; the body is its own code object.
        let top = &p.codes[id as usize];
        assert!(matches!(top.ops[0], Op::Closure(_)));
        let Op::Closure(body) = top.ops[0] else {
            panic!()
        };
        let body = &p.codes[body as usize];
        assert_eq!(body.arity, 1);
        assert!(!body.rest);
        assert_eq!(body.ops, vec![Op::Local(0, 0), Op::Return]);
    }

    #[test]
    fn tail_calls_marked() {
        let (p, _) = compile("(define (loop n) (loop n))");
        let body = p
            .codes
            .iter()
            .find(|c| c.name == Some(Symbol::intern("loop")))
            .unwrap();
        assert!(
            body.ops.iter().any(|op| matches!(op, Op::TailCall(1))),
            "self call in tail position must be a TailCall: {:?}",
            body.ops
        );
    }

    #[test]
    fn non_tail_calls_are_calls() {
        let (p, _) = compile("(define (f n) (+ 1 (f n)))");
        let body = p
            .codes
            .iter()
            .find(|c| c.name == Some(Symbol::intern("f")))
            .unwrap();
        assert!(body.ops.iter().any(|op| matches!(op, Op::Call(1))));
    }

    #[test]
    fn if_branches_jump() {
        let (p, id) = compile("(if #t 1 2)");
        let ops = &p.codes[id as usize].ops;
        assert!(ops.iter().any(|op| matches!(op, Op::JumpIfFalse(_))));
        assert!(ops.iter().any(|op| matches!(op, Op::Jump(_))));
    }

    #[test]
    fn globals_resolved_by_slot() {
        let (p, id) = compile("(set! x 5)");
        let ops = &p.codes[id as usize].ops;
        let slot = p
            .global_names
            .iter()
            .position(|s| *s == Symbol::intern("x"))
            .unwrap() as u32;
        assert!(ops.contains(&Op::SetGlobal(slot)));
    }

    #[test]
    fn let_locals_addressed() {
        let (p, _) = compile("(let ((a 1) (b 2)) b)");
        // The lambda body should reference Local(0,1) = b.
        assert!(p.codes.iter().any(|c| c.ops.contains(&Op::Local(0, 1))));
    }

    fn assigns(p: &Program, name: &str) -> bool {
        p.codes
            .iter()
            .find(|c| c.name == Some(Symbol::intern(name)))
            .unwrap()
            .assigns
    }

    #[test]
    fn a_frame_is_assigned_only_by_a_set_of_its_own_slots() {
        let (p, _) = compile("(define (plain a) (lambda () a))");
        assert!(!assigns(&p, "plain"));
        let (p, _) = compile("(define (counter n) (lambda () (set! n (+ n 1)) n))");
        assert!(assigns(&p, "counter"), "a set! from an inner lambda counts");
        let (p, _) = compile("(define (outer a) (define (inner b) (set! b 1) b) (inner a))");
        assert!(assigns(&p, "inner"));
        assert!(!assigns(&p, "outer"), "the set! is of inner's own slot");
        let (p, _) =
            compile("(define (looping n) (let loop ((i 0)) (if (< i n) (loop (+ i 1)) i)))");
        assert!(
            !assigns(&p, "looping"),
            "named let assigns a frame of its own"
        );
    }

    #[test]
    fn nested_lambda_addresses_outer_frame() {
        let (p, _) = compile("(lambda (x) (lambda (y) x))");
        assert!(p.codes.iter().any(|c| c.ops.contains(&Op::Local(1, 0))));
    }
}
