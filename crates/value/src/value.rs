//! The substrate's dynamic value representation.

use crate::Symbol;
use std::any::Any;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An opaque, reference-counted handle to a runtime object (thread,
/// tuple-space, mutex, stream…) travelling through the substrate as data.
///
/// Handles compare by identity (pointer equality) — two handles are equal
/// exactly when they designate the same runtime object, mirroring Scheme
/// `eq?` on such objects.
#[derive(Clone)]
pub struct NativeHandle {
    tag: &'static str,
    object: Arc<dyn Any + Send + Sync>,
}

impl NativeHandle {
    /// Wraps `object` with a human-readable type `tag` (e.g. `"thread"`).
    pub fn new<T: Any + Send + Sync>(tag: &'static str, object: Arc<T>) -> NativeHandle {
        NativeHandle { tag, object }
    }

    /// The type tag supplied at construction.
    pub fn tag(&self) -> &'static str {
        self.tag
    }

    /// Downcasts to the concrete runtime type.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.object.clone().downcast::<T>().ok()
    }

    /// Borrows the concrete runtime object: [`NativeHandle::downcast`]
    /// without the reference-count round trip, for callers that only look.
    #[inline]
    pub fn downcast_ref<T: Any + Send + Sync>(&self) -> Option<&T> {
        (*self.object).downcast_ref::<T>()
    }

    /// Identity of the underlying object (stable while it is alive).
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.object) as *const () as usize
    }
}

impl PartialEq for NativeHandle {
    fn eq(&self, other: &NativeHandle) -> bool {
        Arc::ptr_eq(&self.object, &other.object)
    }
}
impl Eq for NativeHandle {}

impl Hash for NativeHandle {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

impl fmt::Debug for NativeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#<{} {:x}>", self.tag, self.id())
    }
}

/// Discriminant of a [`Value`], for cheap dispatch and error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ValueKind {
    Unit,
    Bool,
    Int,
    Float,
    Char,
    Sym,
    Str,
    Nil,
    Pair,
    Vector,
    Native,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Unit => "unit",
            ValueKind::Bool => "bool",
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Char => "char",
            ValueKind::Sym => "symbol",
            ValueKind::Str => "string",
            ValueKind::Nil => "nil",
            ValueKind::Pair => "pair",
            ValueKind::Vector => "vector",
            ValueKind::Native => "native",
        };
        f.write_str(s)
    }
}

/// A dynamic substrate value.
///
/// Structured variants share via [`Arc`] and are immutable, so `clone` is
/// O(1) and values move freely between threads.  Floats compare and hash by
/// bit pattern so `Value` can be [`Eq`] + [`Hash`] (tuple-space templates
/// hash on field values).
#[derive(Clone, Default)]
pub enum Value {
    /// The unspecified value (Scheme's unspecified / Rust's `()`).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (fixnum).
    Int(i64),
    /// A 64-bit float (flonum); equality/hash use the bit pattern.
    Float(f64),
    /// A character.
    Char(char),
    /// An interned symbol.
    Sym(Symbol),
    /// An immutable string.
    Str(Arc<str>),
    /// The empty list.
    Nil,
    /// An immutable pair (car, cdr).
    Pair(Arc<(Value, Value)>),
    /// An immutable vector.
    Vector(Arc<[Value]>),
    /// A first-class runtime object (thread, tuple-space, …).
    Native(NativeHandle),
}

impl Value {
    /// The value's kind.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Unit => ValueKind::Unit,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Char(_) => ValueKind::Char,
            Value::Sym(_) => ValueKind::Sym,
            Value::Str(_) => ValueKind::Str,
            Value::Nil => ValueKind::Nil,
            Value::Pair(_) => ValueKind::Pair,
            Value::Vector(_) => ValueKind::Vector,
            Value::Native(_) => ValueKind::Native,
        }
    }

    /// Interns `name` and wraps it as a symbol value.
    pub fn sym(name: &str) -> Value {
        Value::Sym(Symbol::intern(name))
    }

    /// Builds a cons cell.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Arc::new((car, cdr)))
    }

    /// Builds a proper list from an iterator.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value
    where
        I::IntoIter: DoubleEndedIterator,
    {
        let mut v = Value::Nil;
        for item in items.into_iter().rev() {
            v = Value::cons(item, v);
        }
        v
    }

    /// Builds a vector value.
    pub fn vector<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Vector(items.into_iter().collect())
    }

    /// Wraps a runtime object as a native handle value.
    pub fn native<T: Any + Send + Sync>(tag: &'static str, object: Arc<T>) -> Value {
        Value::Native(NativeHandle::new(tag, object))
    }

    /// Scheme truthiness: everything except `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// The `car` of a pair.
    pub fn car(&self) -> Option<&Value> {
        match self {
            Value::Pair(p) => Some(&p.0),
            _ => None,
        }
    }

    /// The `cdr` of a pair.
    pub fn cdr(&self) -> Option<&Value> {
        match self {
            Value::Pair(p) => Some(&p.1),
            _ => None,
        }
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload, accepting `Int` via widening.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Symbol payload, if this is a `Sym`.
    pub fn as_sym(&self) -> Option<Symbol> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// Native handle, if this is a `Native`.
    #[inline]
    pub fn as_native(&self) -> Option<&NativeHandle> {
        match self {
            Value::Native(h) => Some(h),
            _ => None,
        }
    }

    /// Downcasts a native handle value to its runtime type.
    pub fn native_as<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.as_native().and_then(NativeHandle::downcast)
    }

    /// Borrows a native handle value as its runtime type.
    #[inline]
    pub fn native_ref<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.as_native().and_then(NativeHandle::downcast_ref)
    }

    /// Iterates over the elements of a proper list (stops at a non-pair
    /// tail, so improper lists yield their leading elements).
    pub fn list_iter(&self) -> ListIter<'_> {
        ListIter { cur: self }
    }

    /// Length of a proper list, or `None` for improper lists/non-lists.
    pub fn list_len(&self) -> Option<usize> {
        let mut n = 0;
        let mut cur = self;
        loop {
            match cur {
                Value::Nil => return Some(n),
                Value::Pair(p) => {
                    n += 1;
                    cur = &p.1;
                }
                _ => return None,
            }
        }
    }
}

/// Iterator over the elements of a list value; see [`Value::list_iter`].
#[derive(Debug, Clone)]
pub struct ListIter<'a> {
    cur: &'a Value,
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match self.cur {
            Value::Pair(p) => {
                self.cur = &p.1;
                Some(&p.0)
            }
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) | (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Pair(a), Value::Pair(b)) => Arc::ptr_eq(a, b) || **a == **b,
            (Value::Vector(a), Value::Vector(b)) => {
                std::ptr::eq(a.as_ptr(), b.as_ptr()) || **a == **b
            }
            (Value::Native(a), Value::Native(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Unit | Value::Nil => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Char(c) => c.hash(state),
            Value::Sym(s) => s.hash(state),
            Value::Str(s) => s.hash(state),
            Value::Pair(p) => {
                p.0.hash(state);
                p.1.hash(state);
            }
            Value::Vector(v) => {
                for x in v.iter() {
                    x.hash(state);
                }
            }
            Value::Native(h) => h.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "#!unspecified"),
            Value::Bool(true) => write!(f, "#t"),
            Value::Bool(false) => write!(f, "#f"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Char(c) => match c {
                ' ' => write!(f, "#\\space"),
                '\n' => write!(f, "#\\newline"),
                '\t' => write!(f, "#\\tab"),
                c => write!(f, "#\\{c}"),
            },
            Value::Sym(s) => write!(f, "{s}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Nil => write!(f, "()"),
            Value::Pair(_) => {
                write!(f, "(")?;
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        Value::Pair(p) => {
                            if !first {
                                write!(f, " ")?;
                            }
                            first = false;
                            write!(f, "{}", p.0)?;
                            cur = &p.1;
                        }
                        Value::Nil => break,
                        other => {
                            write!(f, " . {other}")?;
                            break;
                        }
                    }
                }
                write!(f, ")")
            }
            Value::Vector(v) => {
                write!(f, "#(")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Value::Native(h) => write!(f, "{h:?}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<()> for Value {
    fn from((): ()) -> Value {
        Value::Unit
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}
impl From<char> for Value {
    fn from(c: char) -> Value {
        Value::Char(c)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Arc::from(s.as_str()))
    }
}
impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value::Sym(s)
    }
}

impl FromIterator<Value> for Value {
    /// Collects into a proper list.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::list(iter.into_iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(42).to_string(), "42");
        assert_eq!(Value::from(true).to_string(), "#t");
        assert_eq!(Value::from(false).to_string(), "#f");
        assert_eq!(Value::from(2.5).to_string(), "2.5");
        assert_eq!(Value::from(2.0).to_string(), "2.0");
        assert_eq!(Value::from('x').to_string(), "#\\x");
        assert_eq!(Value::from(' ').to_string(), "#\\space");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Nil.to_string(), "()");
        assert_eq!(
            Value::list([1.into(), 2.into(), 3.into()]).to_string(),
            "(1 2 3)"
        );
        assert_eq!(Value::cons(1.into(), 2.into()).to_string(), "(1 . 2)");
        assert_eq!(
            Value::vector([Value::sym("a"), 2.into()]).to_string(),
            "#(a 2)"
        );
    }

    #[test]
    fn list_iteration_and_len() {
        let l = Value::list((0..5).map(Value::from));
        let items: Vec<i64> = l.list_iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
        assert_eq!(l.list_len(), Some(5));
        assert_eq!(Value::Nil.list_len(), Some(0));
        assert_eq!(Value::cons(1.into(), 2.into()).list_len(), None);
        assert_eq!(Value::from(7).list_len(), None);
    }

    #[test]
    fn structural_equality() {
        let a = Value::list([1.into(), Value::from("x"), Value::sym("s")]);
        let b = Value::list([1.into(), Value::from("x"), Value::sym("s")]);
        assert_eq!(a, b);
        assert_ne!(a, Value::list([1.into()]));
        assert_ne!(Value::from(1), Value::from(1.0));
    }

    #[test]
    fn float_bits_semantics() {
        assert_eq!(Value::from(f64::NAN), Value::from(f64::NAN));
        assert_ne!(Value::from(0.0), Value::from(-0.0));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::list([1.into(), 2.into()]));
        assert!(set.contains(&Value::list([1.into(), 2.into()])));
        assert!(!set.contains(&Value::list([1.into(), 3.into()])));
    }

    #[test]
    fn native_handle_identity() {
        let obj = Arc::new(5u32);
        let a = Value::native("box", obj.clone());
        let b = Value::native("box", obj);
        let c = Value::native("box", Arc::new(5u32));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.native_as::<u32>().as_deref(), Some(&5));
        assert!(a.native_as::<i64>().is_none());
        assert_eq!(a.as_native().unwrap().tag(), "box");
    }

    #[test]
    fn truthiness() {
        assert!(Value::from(0).is_truthy());
        assert!(Value::Nil.is_truthy());
        assert!(Value::Unit.is_truthy());
        assert!(!Value::from(false).is_truthy());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32).as_int(), Some(3));
        assert_eq!(Value::from(3usize).as_int(), Some(3));
        assert_eq!(Value::from(3).as_f64(), Some(3.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::sym("q").as_sym(), Some(Symbol::intern("q")));
        let collected: Value = (0..3).map(Value::from).collect();
        assert_eq!(collected, Value::list([0.into(), 1.into(), 2.into()]));
    }

    #[test]
    fn improper_list_iteration_stops_at_tail() {
        let l = Value::cons(1.into(), Value::cons(2.into(), 3.into()));
        let items: Vec<i64> = l.list_iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(items, vec![1, 2]);
        assert_eq!(l.to_string(), "(1 2 . 3)");
    }
}
