//! Tagged machine words: the in-heap value representation.
//!
//! Everything stored inside an area is a 64-bit [`Word`] whose low three
//! bits carry the tag:
//!
//! | tag | payload (high 61 bits)       | meaning                        |
//! |-----|------------------------------|--------------------------------|
//! | 0   | signed integer               | fixnum                         |
//! | 1   | word offset                  | reference into the young area  |
//! | 2   | word offset                  | reference into the old area    |
//! | 3   | symbol index                 | interned symbol                |
//! | 4   | slot index                   | native (substrate value) slot  |
//! | 5   | sub-tagged immediate         | bool/char/nil/unit/undef/eof   |
//!
//! Floats do not fit beside a tag, so they are boxed
//! ([`ObjKind::FloatBox`](crate::heap::ObjKind)); the mutator-facing
//! [`Val`] type keeps them unboxed and the heap boxes on store.

/// A tagged 64-bit heap word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word(pub u64);

const TAG_BITS: u64 = 3;
const TAG_MASK: u64 = 0b111;

pub(crate) const TAG_FIX: u64 = 0;
pub(crate) const TAG_YOUNG: u64 = 1;
pub(crate) const TAG_OLD: u64 = 2;
pub(crate) const TAG_SYM: u64 = 3;
pub(crate) const TAG_NATIVE: u64 = 4;
pub(crate) const TAG_IMM: u64 = 5;

const IMM_FALSE: u64 = 0;
const IMM_TRUE: u64 = 1;
const IMM_NIL: u64 = 2;
const IMM_UNIT: u64 = 3;
const IMM_UNDEF: u64 = 4;
const IMM_EOF: u64 = 5;
const IMM_CHAR: u64 = 6;

/// Which area a reference points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// The nursery (from-space of the young generation).
    Young,
    /// The tenured area.
    Old,
}

/// An opaque reference to a heap object.  Only valid against the heap that
/// produced it, and only until that heap's next collection **unless** it
/// was re-read from a traced root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gc(pub(crate) Word);

impl Gc {
    /// Which area this reference currently points into.
    #[inline]
    pub fn space(self) -> Space {
        match self.0 .0 & TAG_MASK {
            TAG_YOUNG => Space::Young,
            TAG_OLD => Space::Old,
            t => unreachable!("non-reference word tag {t} in Gc"),
        }
    }

    #[inline]
    pub(crate) fn offset(self) -> usize {
        (self.0 .0 >> TAG_BITS) as usize
    }

    #[inline]
    pub(crate) fn new(space: Space, offset: usize) -> Gc {
        let tag = match space {
            Space::Young => TAG_YOUNG,
            Space::Old => TAG_OLD,
        };
        Gc(Word(((offset as u64) << TAG_BITS) | tag))
    }

    /// The raw word (for storing into roots).
    #[inline]
    pub fn word(self) -> Word {
        self.0
    }

    /// Reconstructs a reference from a root word; `None` if the word is
    /// not a reference (it was an immediate).
    #[inline]
    pub fn from_word(w: Word) -> Option<Gc> {
        if Val::word_is_ref(w) {
            Some(Gc(w))
        } else {
            None
        }
    }
}

/// A mutator-level value: what the computation language reads and writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Fixnum (61-bit range; construction panics outside it).
    Int(i64),
    /// Unboxed float (boxed transparently when stored in the heap).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Character.
    Char(char),
    /// Interned symbol index (the interner lives above this crate).
    Sym(u32),
    /// The empty list.
    Nil,
    /// The unspecified value.
    Unit,
    /// An undefined (uninitialized) marker.
    Undef,
    /// End-of-file object.
    Eof,
    /// Reference to a heap object.
    Obj(Gc),
    /// Index into the heap's native side table (substrate values).
    Native(u32),
}

/// Range limit of fixnums (61 bits signed).
pub const FIXNUM_MAX: i64 = (1 << 60) - 1;
/// Lower range limit of fixnums.
pub const FIXNUM_MIN: i64 = -(1 << 60);

impl Val {
    /// Whether this value is `#f` (everything else is truthy in Scheme).
    #[inline]
    pub fn is_false(self) -> bool {
        matches!(self, Val::Bool(false))
    }

    /// Scheme truthiness.
    #[inline]
    pub fn is_truthy(self) -> bool {
        !self.is_false()
    }

    /// Encodes into a heap word.
    ///
    /// # Panics
    ///
    /// Panics on `Val::Float` (floats must be boxed by the heap first) and
    /// on fixnums outside the 61-bit range.
    #[inline]
    pub(crate) fn encode(self) -> Word {
        match self {
            Val::Int(i) => {
                assert!(
                    (FIXNUM_MIN..=FIXNUM_MAX).contains(&i),
                    "fixnum out of range: {i}"
                );
                Word(((i as u64) << TAG_BITS) | TAG_FIX)
            }
            Val::Float(_) => panic!("floats must be boxed before storing in the heap"),
            Val::Bool(false) => Word((IMM_FALSE << (TAG_BITS + 3)) | TAG_IMM),
            Val::Bool(true) => Word((IMM_TRUE << (TAG_BITS + 3)) | TAG_IMM),
            Val::Char(c) => Word(((c as u64) << 16) | (IMM_CHAR << (TAG_BITS + 3)) | TAG_IMM),
            Val::Sym(s) => Word(((s as u64) << TAG_BITS) | TAG_SYM),
            Val::Nil => Word((IMM_NIL << (TAG_BITS + 3)) | TAG_IMM),
            Val::Unit => Word((IMM_UNIT << (TAG_BITS + 3)) | TAG_IMM),
            Val::Undef => Word((IMM_UNDEF << (TAG_BITS + 3)) | TAG_IMM),
            Val::Eof => Word((IMM_EOF << (TAG_BITS + 3)) | TAG_IMM),
            Val::Obj(gc) => gc.0,
            Val::Native(i) => Word(((i as u64) << TAG_BITS) | TAG_NATIVE),
        }
    }

    /// Decodes a heap word (never produces `Val::Float`; float boxes decode
    /// as `Val::Obj` and the heap unwraps them).
    #[inline(always)]
    pub(crate) fn decode(w: Word) -> Val {
        match w.0 & TAG_MASK {
            TAG_FIX => Val::Int((w.0 as i64) >> TAG_BITS),
            TAG_YOUNG | TAG_OLD => Val::Obj(Gc(w)),
            TAG_SYM => Val::Sym((w.0 >> TAG_BITS) as u32),
            TAG_NATIVE => Val::Native((w.0 >> TAG_BITS) as u32),
            TAG_IMM => {
                let sub = (w.0 >> (TAG_BITS + 3)) & 0b111_1111;
                match sub {
                    IMM_FALSE => Val::Bool(false),
                    IMM_TRUE => Val::Bool(true),
                    IMM_NIL => Val::Nil,
                    IMM_UNIT => Val::Unit,
                    IMM_UNDEF => Val::Undef,
                    IMM_EOF => Val::Eof,
                    _ => {
                        // Characters use a wider layout: sub-tag in bits
                        // 6..13, code point in bits 16+.
                        let code = (w.0 >> 16) as u32;
                        Val::Char(char::from_u32(code).expect("valid char in heap word"))
                    }
                }
            }
            t => unreachable!("invalid word tag {t}"),
        }
    }

    /// Presents this value to a root tracer.  A reference is visited and
    /// rewritten (objects move); a native slot is visited too, because that
    /// visit is what keeps the slot alive across a major collection's
    /// native pruning; every other immediate is skipped.
    #[inline]
    pub fn trace(&mut self, visit: &mut dyn FnMut(&mut Word)) {
        match *self {
            Val::Obj(gc) => {
                let mut w = gc.word();
                visit(&mut w);
                *self = Val::Obj(Gc::from_word(w).expect("tracer preserves reference-ness"));
            }
            Val::Native(_) => visit(&mut self.encode()),
            _ => {}
        }
    }

    /// Whether a raw word is a heap reference (used by the scavenger).
    #[inline]
    pub(crate) fn word_is_ref(w: Word) -> bool {
        matches!(w.0 & TAG_MASK, TAG_YOUNG | TAG_OLD)
    }
}

impl From<i64> for Val {
    fn from(i: i64) -> Val {
        Val::Int(i)
    }
}
impl From<bool> for Val {
    fn from(b: bool) -> Val {
        Val::Bool(b)
    }
}
impl From<f64> for Val {
    fn from(f: f64) -> Val {
        Val::Float(f)
    }
}
impl From<char> for Val {
    fn from(c: char) -> Val {
        Val::Char(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediates_round_trip() {
        for v in [
            Val::Int(0),
            Val::Int(42),
            Val::Int(-42),
            Val::Int(FIXNUM_MAX),
            Val::Int(FIXNUM_MIN),
            Val::Bool(true),
            Val::Bool(false),
            Val::Char('a'),
            Val::Char('λ'),
            Val::Char('\0'),
            Val::Sym(0),
            Val::Sym(123_456),
            Val::Nil,
            Val::Unit,
            Val::Undef,
            Val::Eof,
            Val::Native(7),
        ] {
            assert_eq!(Val::decode(v.encode()), v, "{v:?}");
        }
    }

    #[test]
    fn refs_round_trip() {
        for (space, off) in [(Space::Young, 0), (Space::Young, 99), (Space::Old, 12345)] {
            let gc = Gc::new(space, off);
            assert_eq!(gc.space(), space);
            assert_eq!(gc.offset(), off);
            assert_eq!(Val::decode(gc.word()), Val::Obj(gc));
            assert!(Val::word_is_ref(gc.word()));
        }
        assert!(!Val::word_is_ref(Val::Int(5).encode()));
        assert!(!Val::word_is_ref(Val::Nil.encode()));
    }

    #[test]
    #[should_panic(expected = "fixnum out of range")]
    fn oversized_fixnum_panics() {
        let _ = Val::Int(FIXNUM_MAX + 1).encode();
    }

    #[test]
    #[should_panic(expected = "floats must be boxed")]
    fn raw_float_encode_panics() {
        let _ = Val::Float(1.0).encode();
    }

    #[test]
    fn truthiness() {
        assert!(Val::Nil.is_truthy());
        assert!(Val::Int(0).is_truthy());
        assert!(!Val::Bool(false).is_truthy());
        assert!(Val::Bool(false).is_false());
    }
}
