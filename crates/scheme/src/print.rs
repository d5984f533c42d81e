//! Printing heap values (`display` / `write`).

use crate::machine::Machine;
use sting_areas::{ObjKind, Val};
use sting_value::Symbol;

/// Renders `v` in `display` style (strings unquoted).
pub fn display_val(m: &Machine, v: Val) -> String {
    render(m, v, false, 0)
}

/// Renders `v` in `write` style (strings quoted).
pub fn write_val(m: &Machine, v: Val) -> String {
    render(m, v, true, 0)
}

fn render(m: &Machine, v: Val, quote: bool, depth: usize) -> String {
    if depth > 64 {
        return "…".to_string();
    }
    match v {
        Val::Int(i) => i.to_string(),
        Val::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                f.to_string()
            }
        }
        Val::Bool(true) => "#t".to_string(),
        Val::Bool(false) => "#f".to_string(),
        Val::Char(' ') => "#\\space".to_string(),
        Val::Char('\n') => "#\\newline".to_string(),
        Val::Char(c) => format!("#\\{c}"),
        Val::Sym(s) => Symbol::from_index(s).to_string(),
        Val::Nil => "()".to_string(),
        Val::Unit => "#!unspecified".to_string(),
        Val::Undef => "#!undefined".to_string(),
        Val::Eof => "#!eof".to_string(),
        Val::Native(slot) => m.heap.native(slot).to_string(),
        Val::Obj(gc) => match m.heap.kind(gc) {
            ObjKind::Str => {
                let s = m.heap.string_value(gc);
                if quote {
                    format!("{s:?}")
                } else {
                    s
                }
            }
            ObjKind::Pair => {
                let mut out = String::from("(");
                let mut cur = v;
                let mut first = true;
                let mut steps = 0;
                loop {
                    match cur {
                        Val::Obj(g) if m.heap.kind(g) == ObjKind::Pair => {
                            if !first {
                                out.push(' ');
                            }
                            first = false;
                            steps += 1;
                            if steps > 1000 {
                                out.push('…');
                                break;
                            }
                            out.push_str(&render(m, m.heap.car(g), quote, depth + 1));
                            cur = m.heap.cdr(g);
                        }
                        Val::Nil => break,
                        other => {
                            out.push_str(" . ");
                            out.push_str(&render(m, other, quote, depth + 1));
                            break;
                        }
                    }
                }
                out.push(')');
                out
            }
            ObjKind::Vector => {
                let mut out = String::from("#(");
                for i in 0..m.heap.len(gc) {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&render(m, m.heap.field(gc, i), quote, depth + 1));
                }
                out.push(')');
                out
            }
            ObjKind::Closure => {
                let code = m.heap.closure_code(gc) as usize;
                let name = m
                    .program
                    .codes
                    .get(code)
                    .and_then(|c| c.name)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "lambda".to_string());
                format!("#<procedure {name}>")
            }
            ObjKind::Cell => format!(
                "#<cell {}>",
                render(m, m.heap.field(gc, 0), quote, depth + 1)
            ),
            ObjKind::FloatBox => render(m, m.heap.field(gc, 0), quote, depth),
            ObjKind::Frame | ObjKind::FixedFrame => "#<environment>".to_string(),
        },
    }
}
