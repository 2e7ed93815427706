//! A small self-contained JSON value type with a writer and a
//! recursive-descent parser.
//!
//! The score database serializes itself through this module. Only what
//! [`TangoDb`](crate::db::TangoDb) needs is implemented: the six JSON
//! value kinds, pretty printing, and a strict parser — but nothing here
//! is database-specific, so other persistence can reuse it.
//!
//! Numbers are `f64`. Non-finite values have no JSON representation and
//! are written as `null`; the score database reads `null` back as NaN
//! wherever it expects a number.
//!
//! The parser recurses once per nesting level, so it rejects documents
//! nested deeper than 128 arrays or objects with a [`ParseError`]
//! rather than overflowing the stack on hostile input.

/// Deepest array/object nesting [`Value::parse`] accepts. The deepest
/// document the workspace writes nests under 10.
const MAX_DEPTH: usize = 128;

/// A parsed or buildable JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Insertion order is preserved (and is the order keys
    /// are written back out).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A number, mapping non-finite floats to `null` (JSON has no NaN
    /// or infinity literals).
    #[must_use]
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    }

    /// An object member by key (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the on-disk format of the score database.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is the shortest round-trip form, which
                    // is valid JSON (integers print without a dot).
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (one value plus whitespace).
    ///
    /// # Errors
    /// A human-readable description with a byte offset on malformed
    /// input, including nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What the parser expected or rejected.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bytes.get(self.pos) {
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let ch = if (0xd800..0xdc00).contains(&code) {
                                self.expect_literal("\\u")?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("non-hex digits in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'-') {
                let _ = self.eat(b'+');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-3.5", "767", "1e-3"] {
            let v = Value::parse(text).expect("scalar parses");
            let back = Value::parse(v.render().trim()).expect("rendered form parses");
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t unicode é 猫 \u{1}";
        let v = Value::Str(s.to_owned());
        let parsed = Value::parse(&v.render()).expect("escaped string parses");
        assert_eq!(parsed.as_str(), Some(s));
        // Explicit escape forms, including a surrogate pair.
        let v = Value::parse(r#""é猛😀\/""#).expect("unicode escapes");
        assert_eq!(v.as_str(), Some("é猛😀/"));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Obj(vec![
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
            (
                "mixed".into(),
                Value::Arr(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::num(2.25),
                    Value::Str("x".into()),
                    Value::Obj(vec![("k".into(), Value::num(1.0))]),
                ]),
            ),
        ]);
        let text = v.render();
        let back = Value::parse(&text).expect("nested document parses");
        assert_eq!(v, back);
        assert_eq!(
            back.get("mixed")
                .and_then(|m| m.as_arr())
                .map(<[Value]>::len),
            Some(5)
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::num(f64::NAN), Value::Null);
        assert_eq!(Value::num(f64::INFINITY), Value::Null);
        assert_eq!(Value::num(1.5), Value::Num(1.5));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{a: 1}",
            "[1] trailing",
        ] {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_limit = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(Value::parse(&at_limit).is_ok(), "{open} x {MAX_DEPTH}");
            let over = format!(
                "{}0{}",
                open.repeat(MAX_DEPTH + 1),
                close.repeat(MAX_DEPTH + 1)
            );
            let err = Value::parse(&over).expect_err("one level too deep");
            assert!(err.message.contains("nesting"), "{err}");
            // Hostile input gets the same error, not a stack overflow.
            let err = Value::parse(&open.repeat(200_000)).expect_err("hostile nesting");
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn integers_print_exactly() {
        assert_eq!(Value::Num(767.0).render().trim(), "767");
        assert_eq!(Value::Num(0.5).render().trim(), "0.5");
    }
}
