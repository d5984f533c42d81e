//! The reader: text → s-expressions.

use crate::error::SchemeError;
use crate::sexp::{Sexp, Span};
use sting_areas::{FIXNUM_MAX, FIXNUM_MIN};

struct Reader<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Byte offset of the start of the current line, for column tracking.
    line_start: usize,
}

/// Reads every datum in `src`.
///
/// # Errors
///
/// [`SchemeError::Read`] on malformed input (unbalanced parentheses, bad
/// literals, stray dots).
pub fn read_all(src: &str) -> Result<Vec<Sexp>, SchemeError> {
    let mut r = Reader {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
    };
    let mut out = Vec::new();
    loop {
        r.skip_ws();
        if r.at_end() {
            return Ok(out);
        }
        out.push(r.datum()?);
    }
}

/// Reads exactly one datum.
///
/// # Errors
///
/// [`SchemeError::Read`] on malformed input or trailing junk.
pub fn read_one(src: &str) -> Result<Sexp, SchemeError> {
    let all = read_all(src)?;
    match all.len() {
        1 => Ok(all.into_iter().next().expect("len checked")),
        0 => Err(SchemeError::Read("empty input".to_string())),
        n => Err(SchemeError::Read(format!("expected one datum, found {n}"))),
    }
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> SchemeError {
        SchemeError::Read(format!("line {}: {}", self.line, msg))
    }

    /// The position of the *next* byte, 1-based.
    fn here(&self) -> Span {
        Span::at(self.line as u32, (self.pos - self.line_start + 1) as u32)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'#') if self.src.get(self.pos + 1) == Some(&b'|') => {
                    // Block comment, nestable.
                    self.pos += 2;
                    let mut depth = 1;
                    while depth > 0 {
                        match self.bump() {
                            None => return,
                            Some(b'|') if self.peek() == Some(b'#') => {
                                self.bump();
                                depth -= 1;
                            }
                            Some(b'#') if self.peek() == Some(b'|') => {
                                self.bump();
                                depth += 1;
                            }
                            _ => {}
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn datum(&mut self) -> Result<Sexp, SchemeError> {
        self.skip_ws();
        let Some(b) = self.peek() else {
            return Err(self.err("unexpected end of input"));
        };
        let span = self.here();
        match b {
            b'(' | b'[' => {
                self.bump();
                self.list(if b == b'(' { b')' } else { b']' }, span)
            }
            b')' | b']' => Err(self.err("unexpected close parenthesis")),
            b'\'' => {
                self.bump();
                Ok(Sexp::list_at(vec![Sexp::sym("quote"), self.datum()?], span))
            }
            b'`' => {
                self.bump();
                Ok(Sexp::list_at(
                    vec![Sexp::sym("quasiquote"), self.datum()?],
                    span,
                ))
            }
            b',' => {
                self.bump();
                if self.peek() == Some(b'@') {
                    self.bump();
                    Ok(Sexp::list_at(
                        vec![Sexp::sym("unquote-splicing"), self.datum()?],
                        span,
                    ))
                } else {
                    Ok(Sexp::list_at(
                        vec![Sexp::sym("unquote"), self.datum()?],
                        span,
                    ))
                }
            }
            b'"' => self.string(),
            b'#' => self.hash(),
            _ => self.atom(),
        }
    }

    fn list(&mut self, close: u8, span: Span) -> Result<Sexp, SchemeError> {
        let mut items = Vec::new();
        let tail = None;
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err("unterminated list")),
                Some(b) if b == close => {
                    self.bump();
                    return Ok(Sexp::List(items, tail.map(Box::new), span));
                }
                Some(b')') | Some(b']') => return Err(self.err("mismatched close parenthesis")),
                Some(b'.') if self.is_lone_dot() => {
                    if items.is_empty() {
                        return Err(self.err("dot at start of list"));
                    }
                    self.bump();
                    let t = self.datum()?;
                    self.skip_ws();
                    if self.peek() != Some(close) {
                        return Err(self.err("more than one datum after dot"));
                    }
                    self.bump();
                    // Normalize (a . (b c)) to (a b c).
                    return Ok(match t {
                        Sexp::List(mut more, t2, _) => {
                            items.append(&mut more);
                            Sexp::List(items, t2, span)
                        }
                        other => Sexp::List(items, Some(Box::new(other)), span),
                    });
                }
                _ => {
                    let _ = tail;
                    items.push(self.datum()?);
                }
            }
        }
    }

    fn is_lone_dot(&self) -> bool {
        self.src.get(self.pos) == Some(&b'.')
            && self
                .src
                .get(self.pos + 1)
                .is_none_or(|b| b.is_ascii_whitespace() || *b == b')' || *b == b']')
    }

    fn string(&mut self) -> Result<Sexp, SchemeError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Sexp::Str(s)),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'"') => s.push('"'),
                    Some(b'0') => s.push('\0'),
                    other => {
                        return Err(self.err(&format!("bad string escape {other:?}")));
                    }
                },
                Some(b) => {
                    // Collect the full UTF-8 sequence.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    for _ in 1..width {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.src[start..start + width])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn hash(&mut self) -> Result<Sexp, SchemeError> {
        self.bump(); // '#'
        match self.peek() {
            Some(b't') => {
                self.bump();
                Ok(Sexp::Bool(true))
            }
            Some(b'f') => {
                self.bump();
                Ok(Sexp::Bool(false))
            }
            Some(b'(') => {
                let span = self.here();
                self.bump();
                match self.list(b')', span)? {
                    Sexp::List(items, None, _) => Ok(Sexp::Vector(items)),
                    _ => Err(self.err("dotted vector literal")),
                }
            }
            Some(b'\\') => {
                self.bump();
                let token = self.atom_text();
                if token.is_empty() {
                    // A literal punctuation character like #\( or #\space.
                    return match self.bump() {
                        Some(b) => Ok(Sexp::Char(b as char)),
                        None => Err(self.err("unterminated character literal")),
                    };
                }
                match token.as_str() {
                    "space" => Ok(Sexp::Char(' ')),
                    "newline" => Ok(Sexp::Char('\n')),
                    "tab" => Ok(Sexp::Char('\t')),
                    t => {
                        let mut chars = t.chars();
                        match (chars.next(), chars.next()) {
                            (Some(c), None) => Ok(Sexp::Char(c)),
                            _ => Err(self.err(&format!("unknown character literal #\\{t}"))),
                        }
                    }
                }
            }
            other => Err(self.err(&format!("unknown # syntax {other:?}"))),
        }
    }

    fn atom_text(&mut self) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace()
                || matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';' | b'\'')
            {
                break;
            }
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn atom(&mut self) -> Result<Sexp, SchemeError> {
        let span = self.here();
        let t = self.atom_text();
        if t.is_empty() {
            return Err(self.err("empty token"));
        }
        let digits = t.strip_prefix(['+', '-']).unwrap_or(&t);
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return match t.parse::<i64>() {
                Ok(i) if (FIXNUM_MIN..=FIXNUM_MAX).contains(&i) => Ok(Sexp::Int(i)),
                _ => Err(SchemeError::Read(format!(
                    "{span}: integer {t} is outside the fixnum range"
                ))),
            };
        }
        // Floats must contain a digit (so `.`, `...`, `+`, `-` stay symbols).
        if t.bytes().any(|b| b.is_ascii_digit()) {
            if let Ok(f) = t.parse::<f64>() {
                return Ok(Sexp::Float(f));
            }
        }
        Ok(Sexp::sym(&t))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(src: &str) -> String {
        read_one(src).unwrap().to_string()
    }

    #[test]
    fn atoms() {
        assert_eq!(rt("42"), "42");
        assert_eq!(rt("-17"), "-17");
        assert_eq!(rt("2.5"), "2.5");
        assert_eq!(rt("#t"), "#t");
        assert_eq!(rt("#f"), "#f");
        assert_eq!(rt("#\\a"), "#\\a");
        assert_eq!(rt("#\\space"), "#\\space");
        assert_eq!(rt("foo-bar"), "foo-bar");
        assert_eq!(rt("+"), "+");
        assert_eq!(rt("\"hi\\nthere\""), "\"hi\\nthere\"");
    }

    #[test]
    fn lists_and_vectors() {
        assert_eq!(rt("(1 2 3)"), "(1 2 3)");
        assert_eq!(rt("( a ( b c ) )"), "(a (b c))");
        assert_eq!(rt("(a . b)"), "(a . b)");
        assert_eq!(rt("(a b . c)"), "(a b . c)");
        assert_eq!(rt("(a . (b c))"), "(a b c)");
        assert_eq!(rt("#(1 2)"), "#(1 2)");
        assert_eq!(rt("[a b]"), "(a b)");
        assert_eq!(rt("()"), "()");
    }

    #[test]
    fn quote_family() {
        assert_eq!(rt("'x"), "(quote x)");
        assert_eq!(rt("`x"), "(quasiquote x)");
        assert_eq!(rt(",x"), "(unquote x)");
        assert_eq!(rt(",@x"), "(unquote-splicing x)");
        assert_eq!(rt("'(1 2)"), "(quote (1 2))");
    }

    #[test]
    fn comments() {
        let all = read_all("1 ; comment\n2 #| block #| nested |# |# 3").unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn errors() {
        assert!(read_one("(").is_err());
        assert!(read_one(")").is_err());
        assert!(read_one("\"abc").is_err());
        assert!(read_one("(. x)").is_err());
        assert!(read_one("(a . b c)").is_err());
        assert!(read_one("1 2").is_err());
        assert!(read_one("").is_err());
    }

    #[test]
    fn unicode_strings() {
        assert_eq!(read_one("\"λx\"").unwrap(), Sexp::Str("λx".to_string()));
    }

    #[test]
    fn list_spans() {
        let all = read_all("(a b)\n  (c (d))").unwrap();
        assert_eq!(all[0].span(), Span::at(1, 1));
        assert_eq!(all[1].span(), Span::at(2, 3));
        let Sexp::List(items, None, _) = &all[1] else {
            panic!("expected a list");
        };
        assert_eq!(items[1].span(), Span::at(2, 6));
        // Quote sugar carries the quote mark's position.
        assert_eq!(read_one("\n'x").unwrap().span(), Span::at(2, 1));
    }

    #[test]
    fn dots_and_signs_are_symbols() {
        assert_eq!(rt("..."), "...");
        assert_eq!(rt("-"), "-");
        assert_eq!(rt("1+"), "1+");
    }
}
