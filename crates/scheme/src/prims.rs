//! Primitive procedures.
//!
//! Primitives are substrate values (`Value::native("prim", …)`) installed
//! into the global environment by [`install`]; the machine dispatches them
//! through an internal table.  Concurrency primitives live in
//! [`crate::concurrency`] but register through the same table.

use crate::concurrency;
use crate::error::SchemeError;
use crate::machine::Machine;
use crate::print;
use std::sync::{Arc, OnceLock};
use sting_areas::{ObjKind, Val, FIXNUM_MAX, FIXNUM_MIN};
use sting_value::{Symbol, Value};

/// A primitive reference (the payload of a `"prim"` native handle).
#[derive(Debug)]
pub struct Prim {
    /// Index into the primitive table.
    pub id: u16,
}

pub(crate) type PrimFn = fn(&mut Machine, usize) -> Result<Val, SchemeError>;

pub(crate) struct Def {
    pub name: &'static str,
    pub min: usize,
    pub max: Option<usize>,
    pub f: PrimFn,
}

/// Raises a Scheme runtime error.
pub(crate) fn rerr(msg: impl Into<String>) -> SchemeError {
    SchemeError::runtime(msg)
}

// ---------------------------------------------------------------------
// Argument helpers
// ---------------------------------------------------------------------

pub(crate) fn want_int(m: &Machine, argc: usize, i: usize, who: &str) -> Result<i64, SchemeError> {
    match m.arg(argc, i) {
        Val::Int(n) => Ok(n),
        v => Err(rerr(format!(
            "{who}: expected integer, got {}",
            print::display_val(m, v)
        ))),
    }
}

pub(crate) fn want_sym(
    m: &Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<Symbol, SchemeError> {
    match m.arg(argc, i) {
        Val::Sym(s) => Ok(Symbol::from_index(s)),
        v => Err(rerr(format!(
            "{who}: expected symbol, got {}",
            print::display_val(m, v)
        ))),
    }
}

pub(crate) fn want_string(
    m: &Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<String, SchemeError> {
    match m.arg(argc, i) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Str => Ok(m.heap.string_value(gc)),
        v => Err(rerr(format!(
            "{who}: expected string, got {}",
            print::display_val(m, v)
        ))),
    }
}

/// Reads a proper list argument into a `Vec<Val>`.
pub(crate) fn want_list(
    m: &Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<Vec<Val>, SchemeError> {
    let mut out = Vec::new();
    let mut cur = m.arg(argc, i);
    loop {
        match cur {
            Val::Nil => return Ok(out),
            Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
                out.push(m.heap.car(gc));
                cur = m.heap.cdr(gc);
            }
            _ => return Err(rerr(format!("{who}: expected a proper list"))),
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) enum Num {
    I(i64),
    F(f64),
}

pub(crate) fn want_num(m: &Machine, argc: usize, i: usize, who: &str) -> Result<Num, SchemeError> {
    match m.arg(argc, i) {
        Val::Int(n) => Ok(Num::I(n)),
        Val::Float(f) => Ok(Num::F(f)),
        v => Err(rerr(format!(
            "{who}: expected number, got {}",
            print::display_val(m, v)
        ))),
    }
}

impl Num {
    fn to_val(self) -> Val {
        match self {
            Num::I(i) => Val::Int(i),
            Num::F(f) => Val::Float(f),
        }
    }
    fn as_f64(self) -> f64 {
        match self {
            Num::I(i) => i as f64,
            Num::F(f) => f,
        }
    }
}

/// Numeric order: two fixnums compare exactly, as `i64`; a float on
/// either side compares both as `f64`, so NaN is unordered.
impl PartialOrd for Num {
    fn partial_cmp(&self, other: &Num) -> Option<std::cmp::Ordering> {
        match (*self, *other) {
            (Num::I(x), Num::I(y)) => Some(x.cmp(&y)),
            (x, y) => x.as_f64().partial_cmp(&y.as_f64()),
        }
    }
}

impl PartialEq for Num {
    fn eq(&self, other: &Num) -> bool {
        self.partial_cmp(other) == Some(std::cmp::Ordering::Equal)
    }
}

// ---------------------------------------------------------------------
// Equality
// ---------------------------------------------------------------------

/// `eqv?`: identity for objects, value equality for immediates.
pub(crate) fn eqv(_m: &Machine, a: Val, b: Val) -> bool {
    match (a, b) {
        (Val::Obj(x), Val::Obj(y)) => x == y,
        (Val::Float(x), Val::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// `equal?`: structural equality.
pub(crate) fn equal(m: &Machine, a: Val, b: Val) -> bool {
    equal_d(m, a, b, 0)
}

fn equal_d(m: &Machine, a: Val, b: Val, depth: usize) -> bool {
    if depth > 10_000 {
        return false;
    }
    match (a, b) {
        (Val::Obj(x), Val::Obj(y)) => {
            if x == y {
                return true;
            }
            let (ka, kb) = (m.heap.kind(x), m.heap.kind(y));
            if ka != kb {
                return false;
            }
            match ka {
                ObjKind::Pair => {
                    equal_d(m, m.heap.car(x), m.heap.car(y), depth + 1)
                        && equal_d(m, m.heap.cdr(x), m.heap.cdr(y), depth + 1)
                }
                ObjKind::Vector => {
                    m.heap.len(x) == m.heap.len(y)
                        && (0..m.heap.len(x))
                            .all(|i| equal_d(m, m.heap.field(x, i), m.heap.field(y, i), depth + 1))
                }
                ObjKind::Str => m.heap.string_value(x) == m.heap.string_value(y),
                _ => false,
            }
        }
        _ => eqv(m, a, b),
    }
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

macro_rules! arith_fold {
    ($name:literal, $m:expr, $argc:expr, $init:expr, $int_op:expr, $f_op:expr) => {{
        let m = $m;
        let argc = $argc;
        let mut acc = want_num(m, argc, 0, $name)?;
        for i in 1..argc {
            let b = want_num(m, argc, i, $name)?;
            acc = match (acc, b) {
                (Num::I(x), Num::I(y)) => $int_op(x, y)
                    .map(Num::I)
                    .ok_or_else(|| rerr(concat!($name, ": overflow")))?,
                (x, y) => Num::F($f_op(x.as_f64(), y.as_f64())),
            };
        }
        Ok(acc.to_val())
    }};
}

fn prim_add(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    if argc == 0 {
        return Ok(Val::Int(0));
    }
    arith_fold!(
        "+",
        m,
        argc,
        0,
        |x: i64, y: i64| x.checked_add(y),
        |x, y| x + y
    )
}

fn prim_sub(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    if argc == 1 {
        return Ok(match want_num(m, argc, 0, "-")? {
            Num::I(i) => Val::Int(-i),
            Num::F(f) => Val::Float(-f),
        });
    }
    arith_fold!(
        "-",
        m,
        argc,
        0,
        |x: i64, y: i64| x.checked_sub(y),
        |x, y| x - y
    )
}

fn prim_mul(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    if argc == 0 {
        return Ok(Val::Int(1));
    }
    arith_fold!(
        "*",
        m,
        argc,
        0,
        |x: i64, y: i64| x.checked_mul(y),
        |x, y| x * y
    )
}

fn prim_div(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let mut acc = want_num(m, argc, 0, "/")?.as_f64();
    if argc == 1 {
        if acc == 0.0 {
            return Err(rerr("/: division by zero"));
        }
        return Ok(Val::Float(1.0 / acc));
    }
    for i in 1..argc {
        let b = want_num(m, argc, i, "/")?.as_f64();
        if b == 0.0 {
            return Err(rerr("/: division by zero"));
        }
        acc /= b;
    }
    // Return an integer when exact.
    if acc.fract() == 0.0 && acc.abs() < 9e15 {
        Ok(Val::Int(acc as i64))
    } else {
        Ok(Val::Float(acc))
    }
}

fn prim_quotient(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let a = want_int(m, argc, 0, "quotient")?;
    let b = want_int(m, argc, 1, "quotient")?;
    if b == 0 {
        return Err(rerr("quotient: division by zero"));
    }
    Ok(Val::Int(a / b))
}

fn prim_remainder(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let a = want_int(m, argc, 0, "remainder")?;
    let b = want_int(m, argc, 1, "remainder")?;
    if b == 0 {
        return Err(rerr("remainder: division by zero"));
    }
    Ok(Val::Int(a % b))
}

macro_rules! cmp_chain {
    ($name:literal, $op:tt) => {
        |m: &mut Machine, argc: usize| -> Result<Val, SchemeError> {
            for i in 0..argc - 1 {
                let a = want_num(m, argc, i, $name)?;
                let b = want_num(m, argc, i + 1, $name)?;
                // Negated on purpose: NaN compares false against anything,
                // so the chain correctly yields #f (R7RS semantics).
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(a $op b) {
                    return Ok(Val::Bool(false));
                }
            }
            Ok(Val::Bool(true))
        }
    };
}

fn prim_display(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let mut out = String::new();
    for i in 0..argc {
        out.push_str(&print::display_val(m, m.arg(argc, i)));
    }
    print!("{out}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    Ok(Val::Unit)
}

fn prim_error(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let mut parts = vec![Value::sym("error")];
    for i in 0..argc {
        let v = m.arg(argc, i);
        parts.push(m.to_value(v)?);
    }
    Err(SchemeError::Raised(Value::list(parts)))
}

fn prim_raise(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let v = m.arg(argc, 0);
    let sv = m.to_value(v)?;
    Err(SchemeError::Raised(sv))
}

fn prim_try(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let body = m.arg(argc, 0);
    let handler = m.arg(argc, 1);
    // Root the handler across the body run.
    m.push(handler);
    let r = m.apply(body, &[]);
    let handler = m.pop();
    match r {
        Ok(v) => Ok(v),
        Err(SchemeError::Raised(exn)) => {
            let hv = m.from_value(&exn);
            m.apply(handler, &[hv])
        }
        Err(other) => Err(other),
    }
}

fn prim_apply(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let f = m.arg(argc, 0);
    let mut args: Vec<Val> = (1..argc - 1).map(|i| m.arg(argc, i)).collect();
    args.extend(want_list(m, argc, argc - 1, "apply")?);
    m.apply(f, &args)
}

fn prim_map(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    // `f` and the lists live on the machine stack at fixed positions below
    // `base`, so they are GC roots; re-read them every iteration because
    // collections move objects.
    let base = m.stack.len();
    let fpos = base - argc;
    let n = (1..argc)
        .map(|i| want_list(m, argc, i, "map").map(|l| l.len()))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .min()
        .unwrap_or(0);
    let mut args = vec![Val::Unit; argc - 1];
    for _ in 0..n {
        for (i, arg) in args.iter_mut().enumerate() {
            *arg = next_of_list_stack(m, fpos + 1 + i)?;
        }
        let v = m.apply(m.stack[fpos], &args)?;
        m.push(v); // keep results rooted
    }
    Ok(m.list_from_stack(n))
}

/// Takes the head off the list in absolute stack slot `pos`, leaving its
/// tail there: `map` and `for-each` walk their list arguments in their own
/// argument slots, which are roots and which the caller discards.
fn next_of_list_stack(m: &mut Machine, pos: usize) -> Result<Val, SchemeError> {
    match m.stack[pos] {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
            m.stack[pos] = m.heap.cdr(gc);
            Ok(m.heap.car(gc))
        }
        _ => Err(rerr("map: list too short")),
    }
}

fn prim_for_each(m: &mut Machine, argc: usize) -> Result<Val, SchemeError> {
    let fpos = m.stack.len() - argc;
    let n = want_list(m, argc, 1, "for-each")?.len();
    for _ in 0..n {
        let x = next_of_list_stack(m, fpos + 1)?;
        m.apply(m.stack[fpos], &[x])?;
    }
    Ok(Val::Unit)
}

/// Monotonic milliseconds since an arbitrary epoch (for benchmarks).
fn prim_runtime_ms(_m: &mut Machine, _argc: usize) -> Result<Val, SchemeError> {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    Ok(Val::Int(start.elapsed().as_millis() as i64))
}

fn prim_gensym(m: &mut Machine, _argc: usize) -> Result<Val, SchemeError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let s = Symbol::intern(&format!("%g{n}"));
    let _ = m;
    Ok(Val::Sym(s.index()))
}

fn defs() -> Vec<Def> {
    let mut v: Vec<Def> = Vec::new();
    macro_rules! def {
        ($name:literal, $min:expr, $max:expr, $f:expr) => {
            v.push(Def {
                name: $name,
                min: $min,
                max: $max,
                f: $f,
            });
        };
    }

    // Numbers.
    def!("+", 0, None, prim_add);
    def!("-", 1, None, prim_sub);
    def!("*", 0, None, prim_mul);
    def!("/", 1, None, prim_div);
    def!("quotient", 2, Some(2), prim_quotient);
    def!("remainder", 2, Some(2), prim_remainder);
    def!("modulo", 2, Some(2), |m, a| {
        let x = want_int(m, a, 0, "modulo")?;
        let y = want_int(m, a, 1, "modulo")?;
        if y == 0 {
            return Err(rerr("modulo: division by zero"));
        }
        // Result takes the sign of the divisor (R7RS floor-remainder).
        let r = x.rem_euclid(y.abs());
        Ok(Val::Int(if y < 0 && r != 0 { r + y } else { r }))
    });
    def!("=", 2, None, cmp_chain!("=", ==));
    def!("<", 2, None, cmp_chain!("<", <));
    def!(">", 2, None, cmp_chain!(">", >));
    def!("<=", 2, None, cmp_chain!("<=", <=));
    def!(">=", 2, None, cmp_chain!(">=", >=));
    def!("zero?", 1, Some(1), |m, a| Ok(Val::Bool(
        want_num(m, a, 0, "zero?")?.as_f64() == 0.0
    )));
    def!("positive?", 1, Some(1), |m, a| Ok(Val::Bool(
        want_num(m, a, 0, "positive?")?.as_f64() > 0.0
    )));
    def!("negative?", 1, Some(1), |m, a| Ok(Val::Bool(
        want_num(m, a, 0, "negative?")?.as_f64() < 0.0
    )));
    def!("even?", 1, Some(1), |m, a| Ok(Val::Bool(
        want_int(m, a, 0, "even?")? % 2 == 0
    )));
    def!("odd?", 1, Some(1), |m, a| Ok(Val::Bool(
        want_int(m, a, 0, "odd?")? % 2 != 0
    )));
    def!("abs", 1, Some(1), |m, a| Ok(
        match want_num(m, a, 0, "abs")? {
            Num::I(i) => Val::Int(i.abs()),
            Num::F(f) => Val::Float(f.abs()),
        }
    ));
    def!("min", 1, None, |m, a| {
        let mut best = want_num(m, a, 0, "min")?;
        for i in 1..a {
            let x = want_num(m, a, i, "min")?;
            if x < best {
                best = x;
            }
        }
        Ok(best.to_val())
    });
    def!("max", 1, None, |m, a| {
        let mut best = want_num(m, a, 0, "max")?;
        for i in 1..a {
            let x = want_num(m, a, i, "max")?;
            if x > best {
                best = x;
            }
        }
        Ok(best.to_val())
    });
    def!("1+", 1, Some(1), |m, a| Ok(Val::Int(
        want_int(m, a, 0, "1+")?
            .checked_add(1)
            .ok_or_else(|| rerr("1+: overflow"))?
    )));
    def!("1-", 1, Some(1), |m, a| Ok(Val::Int(
        want_int(m, a, 0, "1-")?
            .checked_sub(1)
            .ok_or_else(|| rerr("1-: overflow"))?
    )));
    def!("sqrt", 1, Some(1), |m, a| Ok(Val::Float(
        want_num(m, a, 0, "sqrt")?.as_f64().sqrt()
    )));
    def!("expt", 2, Some(2), |m, a| {
        match (want_num(m, a, 0, "expt")?, want_num(m, a, 1, "expt")?) {
            (Num::I(b), Num::I(e)) if (0..=62).contains(&e) => Ok(Val::Int(
                b.checked_pow(e as u32)
                    .ok_or_else(|| rerr("expt: overflow"))?,
            )),
            (b, e) => Ok(Val::Float(b.as_f64().powf(e.as_f64()))),
        }
    });
    def!("floor", 1, Some(1), |m, a| Ok(
        match want_num(m, a, 0, "floor")? {
            Num::I(i) => Val::Int(i),
            Num::F(f) => Val::Int(f.floor() as i64),
        }
    ));
    def!("number?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0),
        Val::Int(_) | Val::Float(_)
    ))));
    def!("integer?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0),
        Val::Int(_)
    ))));
    def!("number->string", 1, Some(1), |m, a| {
        let s = print::display_val(m, m.arg(a, 0));
        Ok(m.string(&s))
    });
    def!("string->number", 1, Some(1), |m, a| {
        let s = want_string(m, a, 0, "string->number")?;
        if let Ok(i) = s.parse::<i64>() {
            Ok(Val::Int(i))
        } else if let Ok(f) = s.parse::<f64>() {
            Ok(Val::Float(f))
        } else {
            Ok(Val::Bool(false))
        }
    });
    def!("random", 1, Some(1), |m, a| {
        // xorshift over a per-call seed; deterministic enough for demos.
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEED: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);
        let n = want_int(m, a, 0, "random")?;
        if n <= 0 {
            return Err(rerr("random: bound must be positive"));
        }
        let mut x = SEED.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        Ok(Val::Int((x % n as u64) as i64))
    });

    // Predicates / equality.
    def!("not", 1, Some(1), |m, a| Ok(Val::Bool(
        m.arg(a, 0).is_false()
    )));
    def!("eq?", 2, Some(2), |m, a| Ok(Val::Bool(eqv(
        m,
        m.arg(a, 0),
        m.arg(a, 1)
    ))));
    def!("eqv?", 2, Some(2), |m, a| Ok(Val::Bool(eqv(
        m,
        m.arg(a, 0),
        m.arg(a, 1)
    ))));
    def!("equal?", 2, Some(2), |m, a| Ok(Val::Bool(equal(
        m,
        m.arg(a, 0),
        m.arg(a, 1)
    ))));
    def!("boolean?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0),
        Val::Bool(_)
    ))));
    def!("symbol?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0),
        Val::Sym(_)
    ))));
    def!("char?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0),
        Val::Char(_)
    ))));
    def!("null?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0),
        Val::Nil
    ))));
    def!("pair?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0), Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair
    ))));
    def!("string?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0), Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Str
    ))));
    def!("vector?", 1, Some(1), |m, a| Ok(Val::Bool(matches!(
        m.arg(a, 0), Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Vector
    ))));
    def!("procedure?", 1, Some(1), |m, a| Ok(Val::Bool(
        match m.arg(a, 0) {
            Val::Obj(gc) => m.heap.kind(gc) == ObjKind::Closure,
            Val::Native(slot) => m.heap.native(slot).native_ref::<Prim>().is_some(),
            _ => false,
        }
    )));

    // Pairs and lists.
    def!("cons", 2, Some(2), |m, a| Ok(
        m.cons(m.arg(a, 0), m.arg(a, 1))
    ));
    def!("car", 1, Some(1), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => Ok(m.heap.car(gc)),
        v => Err(rerr(format!(
            "car: expected pair, got {}",
            print::display_val(m, v)
        ))),
    });
    def!("cdr", 1, Some(1), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => Ok(m.heap.cdr(gc)),
        v => Err(rerr(format!(
            "cdr: expected pair, got {}",
            print::display_val(m, v)
        ))),
    });
    def!("set-car!", 2, Some(2), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
            m.set_field_rooted(gc, 0, m.arg(a, 1));
            Ok(Val::Unit)
        }
        _ => Err(rerr("set-car!: expected pair")),
    });
    def!("set-cdr!", 2, Some(2), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
            m.set_field_rooted(gc, 1, m.arg(a, 1));
            Ok(Val::Unit)
        }
        _ => Err(rerr("set-cdr!: expected pair")),
    });
    def!("caar", 1, Some(1), |m, a| cxr(m, a, &[0, 0]));
    def!("cadr", 1, Some(1), |m, a| cxr(m, a, &[1, 0]));
    def!("cdar", 1, Some(1), |m, a| cxr(m, a, &[0, 1]));
    def!("cddr", 1, Some(1), |m, a| cxr(m, a, &[1, 1]));
    def!("caddr", 1, Some(1), |m, a| cxr(m, a, &[1, 1, 0]));
    def!("list", 0, None, |m, a| {
        // Args are already on the stack in order.
        let items: Vec<Val> = (0..a).map(|i| m.arg(a, i)).collect();
        for &it in &items {
            m.push(it);
        }
        Ok(m.list_from_stack(a))
    });
    def!("length", 1, Some(1), |m, a| {
        Ok(Val::Int(want_list(m, a, 0, "length")?.len() as i64))
    });
    def!("append", 0, None, |m, a| {
        let mut all: Vec<Val> = Vec::new();
        for i in 0..a.saturating_sub(1) {
            all.extend(want_list(m, a, i, "append")?);
        }
        // Last argument may be improper; append shares it.
        let tail = if a > 0 { m.arg(a, a - 1) } else { Val::Nil };
        for &it in &all {
            m.push(it);
        }
        m.push(tail);
        let tail = m.pop();
        let mut acc = tail;
        for _ in 0..all.len() {
            let car = m.pop();
            acc = m.cons(car, acc);
        }
        Ok(acc)
    });
    def!("reverse", 1, Some(1), |m, a| {
        let items = want_list(m, a, 0, "reverse")?;
        for &it in items.iter().rev() {
            m.push(it);
        }
        Ok(m.list_from_stack(items.len()))
    });
    def!("list-ref", 2, Some(2), |m, a| {
        let items = want_list(m, a, 0, "list-ref")?;
        let i = want_int(m, a, 1, "list-ref")? as usize;
        items
            .get(i)
            .copied()
            .ok_or_else(|| rerr("list-ref: index out of range"))
    });
    def!("list-tail", 2, Some(2), |m, a| {
        let mut cur = m.arg(a, 0);
        let k = want_int(m, a, 1, "list-tail")?;
        for _ in 0..k {
            match cur {
                Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => cur = m.heap.cdr(gc),
                _ => return Err(rerr("list-tail: list too short")),
            }
        }
        Ok(cur)
    });
    def!("memq", 2, Some(2), |m, a| mem_like(m, a, false));
    def!("memv", 2, Some(2), |m, a| mem_like(m, a, false));
    def!("member", 2, Some(2), |m, a| mem_like(m, a, true));
    def!("assq", 2, Some(2), |m, a| assoc_like(m, a, false));
    def!("assv", 2, Some(2), |m, a| assoc_like(m, a, false));
    def!("assoc", 2, Some(2), |m, a| assoc_like(m, a, true));
    def!("map", 2, None, prim_map);
    def!("for-each", 2, Some(2), prim_for_each);
    def!("apply", 2, None, prim_apply);
    def!("filter", 2, Some(2), |m, a| {
        let items = want_list(m, a, 1, "filter")?;
        let n = items.len();
        let fpos = m.stack.len() - a;
        let base = m.stack.len();
        for &it in &items {
            m.push(it); // root the elements; GC updates these slots
        }
        let mut kept = 0;
        for k in 0..n {
            let f = m.stack[fpos];
            let x = m.stack[base + k];
            let keep = m.apply(f, &[x])?;
            if keep.is_truthy() {
                let x = m.stack[base + k];
                m.push(x);
                kept += 1;
            }
        }
        let result = m.list_from_stack(kept);
        m.popn(n);
        Ok(result)
    });

    // Vectors.
    def!("make-vector", 1, Some(2), |m, a| {
        let n = want_int(m, a, 0, "make-vector")? as usize;
        let fill = if a > 1 { m.arg(a, 1) } else { Val::Int(0) };
        Ok(m.make_vector_fill(n, fill))
    });
    def!("vector", 0, None, |m, a| {
        let items: Vec<Val> = (0..a).map(|i| m.arg(a, i)).collect();
        Ok(m.vector(&items))
    });
    def!("vector-length", 1, Some(1), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Vector => Ok(Val::Int(m.heap.len(gc) as i64)),
        _ => Err(rerr("vector-length: expected vector")),
    });
    def!("vector-ref", 2, Some(2), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Vector => {
            let i = want_int(m, a, 1, "vector-ref")? as usize;
            if i >= m.heap.len(gc) {
                return Err(rerr("vector-ref: index out of range"));
            }
            Ok(m.heap.field(gc, i))
        }
        _ => Err(rerr("vector-ref: expected vector")),
    });
    def!("vector-set!", 3, Some(3), |m, a| match m.arg(a, 0) {
        Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Vector => {
            let i = want_int(m, a, 1, "vector-set!")? as usize;
            if i >= m.heap.len(gc) {
                return Err(rerr("vector-set!: index out of range"));
            }
            m.set_field_rooted(gc, i, m.arg(a, 2));
            Ok(Val::Unit)
        }
        _ => Err(rerr("vector-set!: expected vector")),
    });
    def!("vector->list", 1, Some(1), |m, a| {
        // Use an absolute stack position: pushes below shift arg offsets.
        let pos = m.stack.len() - a;
        match m.stack[pos] {
            Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Vector => {
                let n = m.heap.len(gc);
                for i in 0..n {
                    let x = match m.stack[pos] {
                        Val::Obj(g) => m.heap.field(g, i),
                        _ => unreachable!("rooted slot stays a vector"),
                    };
                    m.push(x);
                }
                Ok(m.list_from_stack(n))
            }
            _ => Err(rerr("vector->list: expected vector")),
        }
    });
    def!("list->vector", 1, Some(1), |m, a| {
        let items = want_list(m, a, 0, "list->vector")?;
        Ok(m.vector(&items))
    });

    // Strings and chars.
    def!("string-length", 1, Some(1), |m, a| {
        Ok(Val::Int(
            want_string(m, a, 0, "string-length")?.chars().count() as i64,
        ))
    });
    def!("string-append", 0, None, |m, a| {
        let mut s = String::new();
        for i in 0..a {
            s.push_str(&want_string(m, a, i, "string-append")?);
        }
        Ok(m.string(&s))
    });
    def!("substring", 3, Some(3), |m, a| {
        let s = want_string(m, a, 0, "substring")?;
        let start = want_int(m, a, 1, "substring")? as usize;
        let end = want_int(m, a, 2, "substring")? as usize;
        let chars: Vec<char> = s.chars().collect();
        if start > end || end > chars.len() {
            return Err(rerr("substring: bad range"));
        }
        let out: String = chars[start..end].iter().collect();
        Ok(m.string(&out))
    });
    def!("string=?", 2, Some(2), |m, a| Ok(Val::Bool(
        want_string(m, a, 0, "string=?")? == want_string(m, a, 1, "string=?")?
    )));
    def!("string<?", 2, Some(2), |m, a| Ok(Val::Bool(
        want_string(m, a, 0, "string<?")? < want_string(m, a, 1, "string<?")?
    )));
    def!("string-ref", 2, Some(2), |m, a| {
        let s = want_string(m, a, 0, "string-ref")?;
        let i = want_int(m, a, 1, "string-ref")? as usize;
        s.chars()
            .nth(i)
            .map(Val::Char)
            .ok_or_else(|| rerr("string-ref: out of range"))
    });
    def!("string->symbol", 1, Some(1), |m, a| {
        let s = want_string(m, a, 0, "string->symbol")?;
        Ok(Val::Sym(Symbol::intern(&s).index()))
    });
    def!("symbol->string", 1, Some(1), |m, a| {
        let s = want_sym(m, a, 0, "symbol->string")?;
        Ok(m.string(&s.as_str()))
    });
    def!("char->integer", 1, Some(1), |m, a| match m.arg(a, 0) {
        Val::Char(c) => Ok(Val::Int(c as i64)),
        _ => Err(rerr("char->integer: expected char")),
    });
    def!("integer->char", 1, Some(1), |m, a| {
        let i = want_int(m, a, 0, "integer->char")?;
        u32::try_from(i)
            .ok()
            .and_then(char::from_u32)
            .map(Val::Char)
            .ok_or_else(|| rerr("integer->char: bad code point"))
    });

    // IO and misc.
    def!("display", 0, None, prim_display);
    def!("write", 1, Some(1), |m, a| {
        print!("{}", print::write_val(m, m.arg(a, 0)));
        Ok(Val::Unit)
    });
    def!("newline", 0, Some(0), |_m, _a| {
        println!();
        Ok(Val::Unit)
    });
    def!("error", 1, None, prim_error);
    def!("raise", 1, Some(1), prim_raise);
    def!("%try", 2, Some(2), prim_try);
    def!("gensym", 0, Some(0), prim_gensym);
    def!("runtime-ms", 0, Some(0), prim_runtime_ms);
    def!("void", 0, None, |_m, _a| Ok(Val::Unit));

    // Concurrency (defined in concurrency.rs).
    concurrency::add_defs(&mut v);
    v
}

fn cxr(m: &mut Machine, argc: usize, path: &[usize]) -> Result<Val, SchemeError> {
    let mut v = m.arg(argc, 0);
    for &p in path {
        match v {
            Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
                v = m.heap.field(gc, p);
            }
            _ => return Err(rerr("c..r: expected pair")),
        }
    }
    Ok(v)
}

fn mem_like(m: &mut Machine, argc: usize, structural: bool) -> Result<Val, SchemeError> {
    let x = m.arg(argc, 0);
    let mut cur = m.arg(argc, 1);
    loop {
        match cur {
            Val::Nil => return Ok(Val::Bool(false)),
            Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
                let c = m.heap.car(gc);
                let hit = if structural {
                    equal(m, x, c)
                } else {
                    eqv(m, x, c)
                };
                if hit {
                    return Ok(cur);
                }
                cur = m.heap.cdr(gc);
            }
            _ => return Err(rerr("member: expected a proper list")),
        }
    }
}

fn assoc_like(m: &mut Machine, argc: usize, structural: bool) -> Result<Val, SchemeError> {
    let x = m.arg(argc, 0);
    let mut cur = m.arg(argc, 1);
    loop {
        match cur {
            Val::Nil => return Ok(Val::Bool(false)),
            Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair => {
                let entry = m.heap.car(gc);
                if let Val::Obj(e) = entry {
                    if m.heap.kind(e) == ObjKind::Pair {
                        let k = m.heap.car(e);
                        let hit = if structural {
                            equal(m, x, k)
                        } else {
                            eqv(m, x, k)
                        };
                        if hit {
                            return Ok(entry);
                        }
                    }
                }
                cur = m.heap.cdr(gc);
            }
            _ => return Err(rerr("assoc: expected an association list")),
        }
    }
}

/// The signature of an extension primitive: `argc` arguments sit on the
/// top of the machine's operand stack (read them with [`Machine::arg`]).
pub type ExtPrimFn = fn(&mut Machine, usize) -> Result<Val, SchemeError>;

/// An extension primitive registered by a crate layered above
/// `sting-scheme` (e.g. the static analyzer, which depends on this crate
/// and therefore cannot be a built-in).
struct ExtDef {
    name: &'static str,
    min: usize,
    max: Option<usize>,
    f: ExtPrimFn,
}

static EXTENSIONS: parking_lot::Mutex<Vec<ExtDef>> = parking_lot::Mutex::new(Vec::new());

/// Registers an extension primitive process-wide.  Re-registering a name
/// replaces the previous definition.  Register before creating an
/// [`Interp`](crate::Interp) — interpreters created earlier keep their
/// existing global bindings.
pub fn register_extension(name: &'static str, min: usize, max: Option<usize>, f: ExtPrimFn) {
    let mut exts = EXTENSIONS.lock();
    match exts.iter_mut().find(|d| d.name == name) {
        Some(d) => {
            d.min = min;
            d.max = max;
            d.f = f;
        }
        None => exts.push(ExtDef { name, min, max, f }),
    }
}

/// The built-in table, built once per process; a primitive's id is its
/// position here (extension ids follow on, see [`install`]).
fn table() -> &'static [Def] {
    static TABLE: OnceLock<Vec<Def>> = OnceLock::new();
    TABLE.get_or_init(defs)
}

fn prim_value(id: usize) -> Value {
    Value::native("prim", Arc::new(Prim { id: id as u16 }))
}

/// The names of every registered primitive (built-ins, the concurrency
/// table and extensions).  The static analyzer uses this to resolve
/// global references in programs compiled without a live interpreter.
pub fn names() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = table().iter().map(|d| d.name).collect();
    v.extend(EXTENSIONS.lock().iter().map(|d| d.name));
    v
}

/// Installs every primitive into `globals`.  Extension primitives get ids
/// above the built-in table; their table position is their registration
/// order, which never shrinks, so ids stay valid.
pub fn install(globals: &crate::global::Globals) {
    // The built-ins' names and handles are the same for every interpreter.
    static BUILTINS: OnceLock<Vec<(Symbol, Value)>> = OnceLock::new();
    let builtins = BUILTINS.get_or_init(|| {
        let named = |(i, d): (usize, &Def)| (Symbol::intern(d.name), prim_value(i));
        table().iter().enumerate().map(named).collect()
    });
    for (name, prim) in builtins {
        globals.set(*name, prim.clone());
    }
    for (i, d) in EXTENSIONS.lock().iter().enumerate() {
        globals.set(Symbol::intern(d.name), prim_value(builtins.len() + i));
    }
}

/// Whether `argc` arguments suit a primitive taking `min..=max`.
#[inline]
fn arity_ok(min: usize, max: Option<usize>, argc: usize) -> bool {
    argc >= min && max.is_none_or(|mx| argc <= mx)
}

#[cold]
fn arity_error(name: &str, min: usize, max: Option<usize>, argc: usize) -> SchemeError {
    rerr(format!(
        "{name}: expected {min}{} arguments, got {argc}",
        match max {
            Some(mx) if mx == min => String::new(),
            Some(mx) => format!("..{mx}"),
            None => "+".to_string(),
        }
    ))
}

/// Table ids of the primitives [`inline`] runs (the `inline_ids` test
/// holds them to the table's names).
mod id {
    pub const ADD: u16 = 0;
    pub const SUB: u16 = 1;
    pub const NUM_EQ: u16 = 7;
    pub const LT: u16 = 8;
    pub const GT: u16 = 9;
    pub const LE: u16 = 10;
    pub const GE: u16 = 11;
    pub const ZERO: u16 = 12;
    pub const NOT: u16 = 30;
    pub const EQ: u16 = 31;
    pub const NULL: u16 = 37;
    pub const PAIR: u16 = 38;
    pub const CAR: u16 = 43;
    pub const CDR: u16 = 44;
}

/// A fixnum result, or `None` outside the fixnum range.
fn fixnum(i: Option<i64>) -> Option<Val> {
    i.filter(|i| (FIXNUM_MIN..=FIXNUM_MAX).contains(i))
        .map(Val::Int)
}

/// What primitive `id` returns for the top `argc` stack values, when the
/// machine can answer without the table:
/// - two fixnums for `+`, `-` (a result inside the fixnum range), `=`,
///   `<`, `>`, `<=` and `>=`;
/// - one fixnum for `zero?`, a pair for `car` and `cdr`;
/// - any argument for `not`, `null?` and `pair?`, any two for `eq?`.
///
/// `None` leaves the call to [`dispatch`], so an overflow, a float, a wrong
/// type or a wrong arity gets the table's answer and its error message.
#[inline(always)]
pub(crate) fn inline(m: &Machine, id: u16, argc: usize) -> Option<Val> {
    let top = m.stack.len();
    match argc {
        1 => {
            let a = m.stack[top - 1];
            let pair = matches!(a, Val::Obj(gc) if m.heap.kind(gc) == ObjKind::Pair);
            Some(match (id, a) {
                (id::CAR, Val::Obj(gc)) if pair => m.heap.car(gc),
                (id::CDR, Val::Obj(gc)) if pair => m.heap.cdr(gc),
                (id::NULL, _) => Val::Bool(matches!(a, Val::Nil)),
                (id::PAIR, _) => Val::Bool(pair),
                (id::NOT, _) => Val::Bool(a.is_false()),
                (id::ZERO, Val::Int(i)) => Val::Bool(i == 0),
                _ => return None,
            })
        }
        2 => {
            let (a, b) = (m.stack[top - 2], m.stack[top - 1]);
            if id == id::EQ {
                return Some(Val::Bool(eqv(m, a, b)));
            }
            let (Val::Int(x), Val::Int(y)) = (a, b) else {
                return None;
            };
            Some(match id {
                id::ADD => fixnum(x.checked_add(y))?,
                id::SUB => fixnum(x.checked_sub(y))?,
                id::NUM_EQ => Val::Bool(x == y),
                id::LT => Val::Bool(x < y),
                id::GT => Val::Bool(x > y),
                id::LE => Val::Bool(x <= y),
                id::GE => Val::Bool(x >= y),
                _ => return None,
            })
        }
        _ => None,
    }
}

/// Dispatches a call of primitive `id`; arguments are the top `argc` stack
/// values (left in place — the dispatcher pops them after this returns).
pub(crate) fn dispatch(m: &mut Machine, id: u16, argc: usize) -> Result<Val, SchemeError> {
    let table = table();
    match table.get(id as usize) {
        Some(d) if arity_ok(d.min, d.max, argc) => (d.f)(m, argc),
        Some(d) => Err(arity_error(d.name, d.min, d.max, argc)),
        None => {
            // Extension ids live past the built-in table.  Copy the
            // definition out so the registry lock is not held while
            // the primitive runs (it may recursively dispatch).
            let ext = {
                let exts = EXTENSIONS.lock();
                exts.get(id as usize - table.len())
                    .map(|d| (d.name, d.min, d.max, d.f))
            };
            let Some((name, min, max, f)) = ext else {
                return Err(rerr(format!("unknown primitive id {id}")));
            };
            if !arity_ok(min, max, argc) {
                return Err(arity_error(name, min, max, argc));
            }
            f(m, argc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_ids() {
        let names = [
            (id::ADD, "+"),
            (id::SUB, "-"),
            (id::NUM_EQ, "="),
            (id::LT, "<"),
            (id::GT, ">"),
            (id::LE, "<="),
            (id::GE, ">="),
            (id::ZERO, "zero?"),
            (id::NOT, "not"),
            (id::EQ, "eq?"),
            (id::NULL, "null?"),
            (id::PAIR, "pair?"),
            (id::CAR, "car"),
            (id::CDR, "cdr"),
        ];
        for (id, name) in names {
            assert_eq!(table()[id as usize].name, name, "id {id}");
        }
    }
}
