//! The workspace's JSON: a [`Value`] tree, an insertion-ordered [`Map`],
//! the [`json!`](crate::json::json) literal macro, a parser ([`from_str`])
//! and two printers ([`to_string`], [`to_string_pretty`]).
//!
//! It is in-tree because the workspace has no crates.io dependencies
//! (DESIGN §5) and because the printed bytes are an interface: manifests,
//! CZML and every pinned golden depend on them. The format guarantees:
//!
//! * object keys print in insertion order (a re-inserted key keeps its slot);
//! * [`to_string_pretty`] indents two spaces per level, one element per
//!   line, `"key": value`, `[]`/`{}` for empty containers, no trailing
//!   newline; [`to_string`] emits no whitespace at all;
//! * integers print as themselves; a float with no fractional part and a
//!   magnitude below 1e15 prints with one decimal (`1.0`), any other float
//!   in Rust's shortest round-trip form; NaN and ±inf print as `null`;
//! * strings escape `"` `\` `\n` `\r` `\t`, other control characters as
//!   `\u00xx`, and nothing else (non-ASCII text is emitted as UTF-8);
//! * whatever the printers emit, [`from_str`] reads back to an equal tree.
//!
//! The parser takes outside input (`run_experiment --spec`), so it is
//! strict (RFC 8259 grammar, no lone surrogates, no trailing characters)
//! and bounded: containers nested deeper than 128 levels are an error, not
//! a stack overflow.

use std::fmt;

/// Deepest container nesting [`from_str`] accepts.
const MAX_DEPTH: usize = 128;

/// JSON number: non-negative integer, negative integer, or float.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Float.
    F(f64),
}

impl Number {
    fn as_f64(self) -> f64 {
        match self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }
}

/// Same-variant numbers compare exactly; mixed variants by `f64` value, so
/// `1e15` (printed without a fraction, parsed as an integer) still equals
/// the float it came from.
impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Number::U(a), Number::U(b)) => a == b,
            (Number::I(a), Number::I(b)) => a == b,
            (a, b) => a.as_f64() == b.as_f64(),
        }
    }
}

/// Insertion-ordered string→value map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Insert, replacing (in place) any existing entry for `key`.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Look up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Remove and return the entry for `key`, keeping the others' order.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(at).1)
    }

    /// (key, value) pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Map),
}

impl Value {
    /// Object field lookup (None on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Bool payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as f64 (any number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Integer payload as u64 (non-negative integers only, never floats).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(u)) => Some(*u),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object payload.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object payload.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Remove and return what sits at a dot-separated object path
    /// (`"perf.engine.routing"`); `None`, and nothing removed, when any
    /// step is missing or not an object.
    pub fn remove_path(&mut self, path: &str) -> Option<Value> {
        let mut keys = path.split('.');
        let leaf = keys.next_back()?;
        let mut at = self;
        for key in keys {
            at = at.as_object_mut()?.get_mut(key)?;
        }
        at.as_object_mut()?.remove(leaf)
    }
}

static NULL: Value = Value::Null;

/// `value["key"]`: the field, or `null` on a miss or a non-object.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`: the element, or `null` out of range or on a non-array.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

// ---- comparisons with plain Rust values (`assert_eq!(doc["n"], 3)`) ----

macro_rules! impl_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
    )*};
}
impl_eq_num!(f64, i32);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

// ---- conversions ----

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::U(v as u64))
            }
        }
    )*};
}
impl_from_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                match u64::try_from(v) {
                    Ok(u) => Value::Number(Number::U(u)),
                    Err(_) => Value::Number(Number::I(v as i64)),
                }
            }
        }
    )*};
}
impl_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F(v))
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::F(v as f64))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// What [`json!`](crate::json::json) does with an interpolated expression:
/// convert a copy, so `json!({ "name": self.name })` never moves out of a
/// borrow.
#[doc(hidden)]
pub fn to_value<T: Clone + Into<Value>>(v: &T) -> Value {
    v.clone().into()
}

/// Build a [`Value`] from a JSON literal with Rust expressions spliced in
/// (by reference) wherever a value may stand; keys are string literals or
/// parenthesised expressions. A tt-muncher: array elements accumulate in
/// `[..]`, object key tokens in `(..)` until the `:`.
#[doc(hidden)]
#[macro_export]
macro_rules! __json {
    (null) => { $crate::json::Value::Null };
    ([]) => { $crate::json::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::json::Value::Array($crate::__json!(@array [] $($tt)+)) };
    ({}) => { $crate::json::Value::Object($crate::json::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::json::Map::new();
        $crate::__json!(@object object () ($($tt)+));
        $crate::json::Value::Object(object)
    }};

    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::__json!(@array [$($elems,)* $crate::__json!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::__json!(@array [$($elems,)* $crate::__json!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::__json!(@array [$($elems,)* $crate::__json!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::__json!(@array [$($elems,)* $crate::__json!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::__json!(@array [$($elems,)* $crate::__json!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::__json!(@array [$($elems,)*] $($rest)*)
    };

    (@object $object:ident () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::__json!(@object $object () ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*)) => {
        $crate::__json!(@object $object [$($key)+] ($crate::__json!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*)) => {
        $crate::__json!(@object $object [$($key)+] ($crate::__json!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*)) => {
        $crate::__json!(@object $object [$($key)+] ($crate::__json!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*)) => {
        $crate::__json!(@object $object [$($key)+] ($crate::__json!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr)) => {
        $crate::__json!(@object $object [$($key)+] ($crate::__json!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*)) => {
        $crate::__json!(@object $object ($($key)* $tt) ($($rest)*));
    };

    ($other:expr) => { $crate::json::to_value(&$other) };
}
#[doc(inline)]
pub use crate::__json as json;

// ---- printing ----

/// Append `s` as a JSON string literal, quotes included: the one escaper
/// behind both printers and the spec writer.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

fn write_number(out: &mut String, n: Number) {
    use fmt::Write;
    let _ = match n {
        Number::U(u) => write!(out, "{u}"),
        Number::I(i) => write!(out, "{i}"),
        Number::F(f) if !f.is_finite() => write!(out, "null"),
        Number::F(f) if f.fract() == 0.0 && f.abs() < 1e15 => write!(out, "{f:.1}"),
        Number::F(f) => write!(out, "{f}"),
    };
}

/// Line break and indentation before an element at `depth`; nothing in
/// compact mode (`None`).
fn break_line(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Print `v` at `depth` levels of pretty indentation, or compactly.
fn write_value(out: &mut String, v: &Value, depth: Option<usize>) {
    let inner = depth.map(|d| d + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_str(out, s),
        Value::Array(a) => {
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                break_line(out, inner);
                write_value(out, e, inner);
            }
            if !a.is_empty() {
                break_line(out, depth);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                break_line(out, inner);
                write_str(out, k);
                out.push_str(if depth.is_some() { ": " } else { ":" });
                write_value(out, e, inner);
            }
            if !m.entries.is_empty() {
                break_line(out, depth);
            }
            out.push('}');
        }
    }
}

/// Pretty-print with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(0));
    out
}

/// Compact single-line serialization.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None);
    out
}

// ---- parsing ----

/// Parse failure: what was wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: &'static str,
    at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}
impl std::error::Error for Error {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &'static str) -> Result<T, Error> {
        Err(Error { msg, at: self.pos })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(w.as_bytes());
        if found {
            self.pos += w.len();
        }
        found
    }

    fn eat_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.parse_container(b']', |p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut map = Map::new();
                self.parse_container(b'}', |p| {
                    p.skip_ws();
                    let key = p.parse_string()?;
                    p.skip_ws();
                    if !p.eat_word(":") {
                        return p.err("expected ':'");
                    }
                    map.insert(key, p.parse_value()?);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// The shared shape of `[..]` and `{..}`: open bracket (at `pos`),
    /// comma-separated `element`s, `close`; depth-limited.
    fn parse_container(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return self.err("nesting deeper than 128 levels");
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                element(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or a closing bracket"),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        if self.peek() != Some(b'"') {
            return self.err("expected a string");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run between them is whole chars.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.parse_escape()?),
                Some(_) => return self.err("unescaped control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// One escape sequence, `pos` on its backslash.
    fn parse_escape(&mut self) -> Result<char, Error> {
        self.pos += 1;
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut cp = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&cp) && self.eat_word("\\u") {
                    let lo = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.err("lone surrogate in \\u escape");
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                }
                match char::from_u32(cp) {
                    Some(c) => c,
                    None => return self.err("lone surrogate in \\u escape"),
                }
            }
            _ => return self.err("bad escape"),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        // All-hex-digits first: `from_str_radix` alone would take a sign.
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        match hex.and_then(|h| u32::from_str_radix(h, 16).ok()) {
            Some(cp) => {
                self.pos += 4;
                Ok(cp)
            }
            None => self.err("bad \\u escape"),
        }
    }

    /// RFC 8259 number. An integer literal becomes the exact `u64`/`i64`
    /// when it fits and the nearest `f64` when it does not.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat_word("-");
        let int_digits = self.eat_digits();
        let leading_zero = self.text.as_bytes()[self.pos - int_digits..].starts_with(b"0");
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return self.err("bad number");
        }
        let mut float = false;
        if self.eat_word(".") {
            float = true;
            if self.eat_digits() == 0 {
                return self.err("bad number");
            }
        }
        if self.eat_word("e") || self.eat_word("E") {
            float = true;
            let _ = self.eat_word("+") || self.eat_word("-");
            if self.eat_digits() == 0 {
                return self.err("bad number");
            }
        }
        let text = &self.text[start..self.pos];
        let exact = match (float, negative) {
            (true, _) => None,
            (false, false) => text.parse().ok().map(Number::U),
            (false, true) => text.parse().ok().map(Number::I),
        };
        match exact.or_else(|| text.parse().ok().map(Number::F)) {
            Some(n) => Ok(Value::Number(n)),
            None => self.err("bad number"),
        }
    }
}

/// Parse one JSON document.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// A random tree whose leaves lean on the printer's and parser's edge
    /// cases: control and astral-plane characters, the integer extremes,
    /// integral floats on both sides of the 1e15 format switch, empty
    /// containers.
    fn random_value(rng: &mut DetRng, depth: usize) -> Value {
        const CHARS: [char; 12] = [
            'a',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            'é',
            '\u{1F6F0}',
            '\u{10FFFF}',
        ];
        const NUMBERS: [Number; 12] = [
            Number::U(0),
            Number::U(u64::MAX),
            Number::I(-1),
            Number::I(i64::MIN),
            Number::F(1.0),
            Number::F(-0.0),
            Number::F(999_999_999_999_999.0),
            Number::F(1e15),
            Number::F(-1e18),
            Number::F(1.8446744073709552e19),
            Number::F(1e300),
            Number::F(5e-324),
        ];
        let leaves_only = depth == 0;
        match rng.next_below(if leaves_only { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_below(2) == 0),
            2 => Value::Number(NUMBERS[rng.next_below(12) as usize]),
            3 => loop {
                let f = f64::from_bits(rng.next_u64());
                if f.is_finite() {
                    break Value::from(f);
                }
            },
            4 => random_string(rng, &CHARS).into(),
            5 => (0..rng.next_below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect::<Vec<_>>()
                .into(),
            _ => {
                let mut map = Map::new();
                for _ in 0..rng.next_below(4) {
                    map.insert(random_string(rng, &CHARS), random_value(rng, depth - 1));
                }
                Value::Object(map)
            }
        }
    }

    fn random_string(rng: &mut DetRng, chars: &[char]) -> String {
        (0..rng.next_below(6)).map(|_| chars[rng.next_below(chars.len() as u64) as usize]).collect()
    }

    #[test]
    fn printed_trees_parse_back_equal() {
        for seed in 0..500 {
            let v = random_value(&mut DetRng::new(seed), 4);
            for text in [to_string_pretty(&v), to_string(&v)] {
                assert_eq!(from_str(&text).as_ref(), Ok(&v), "seed {seed}: {text}");
            }
        }
    }

    /// The bytes the goldens and the benchmark's pinned outputs depend on.
    #[test]
    fn manifest_shaped_document_prints_to_pinned_bytes() {
        let name = String::from("rtt.dat");
        let warnings: Vec<Value> = Vec::new();
        let doc = json!({
            "experiment": "fig\t\"03\"",
            "artifacts": [
                { "name": name, "bytes": 1234u64, "fnv64": format!("{:016x}", 0xabcu64) },
            ],
            "warnings": warnings,
            "perf": {
                "events": 1500,
                "rate": 1500.0,
                "fraction": 0.25,
                "big": 1e15,
                "delta": -3,
                "nan": f64::NAN,
                "engine": {},
            },
            "status": null,
            "flags": [true, false, [], [1, [2.5]]],
        });
        assert_eq!(name, "rtt.dat", "interpolation borrows");
        let pretty = r#"{
  "experiment": "fig\t\"03\"",
  "artifacts": [
    {
      "name": "rtt.dat",
      "bytes": 1234,
      "fnv64": "0000000000000abc"
    }
  ],
  "warnings": [],
  "perf": {
    "events": 1500,
    "rate": 1500.0,
    "fraction": 0.25,
    "big": 1000000000000000,
    "delta": -3,
    "nan": null,
    "engine": {}
  },
  "status": null,
  "flags": [
    true,
    false,
    [],
    [
      1,
      [
        2.5
      ]
    ]
  ]
}"#;
        assert_eq!(to_string_pretty(&doc), pretty);
        let compact = concat!(
            r#"{"experiment":"fig\t\"03\"","artifacts":[{"name":"rtt.dat","bytes":1234,"#,
            r#""fnv64":"0000000000000abc"}],"warnings":[],"perf":{"events":1500,"rate":1500.0,"#,
            r#""fraction":0.25,"big":1000000000000000,"delta":-3,"nan":null,"engine":{}},"#,
            r#""status":null,"flags":[true,false,[],[1,[2.5]]]}"#,
        );
        assert_eq!(to_string(&doc), compact);
    }

    #[test]
    fn strings_escape_only_what_json_requires() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c/\n\r\t\u{0}\u{1f}é\u{1F6F0}");
        assert_eq!(out, "\"a\\\"b\\\\c/\\n\\r\\t\\u0000\\u001fé\u{1F6F0}\"");
        let back = from_str(r#""\u00e9 \ud83d\udef0 \/ \b\f""#).unwrap();
        assert_eq!(back, "é \u{1F6F0} / \u{8}\u{c}");
    }

    #[test]
    fn reinserted_key_keeps_its_slot() {
        let mut v = json!({ "a": 1, "b": 2 });
        v.as_object_mut().unwrap().insert("a".into(), Value::from(3));
        assert_eq!(to_string(&v), r#"{"a":3,"b":2}"#);
        assert_eq!(from_str(r#"{"a":1,"b":2,"a":3}"#), Ok(v));
    }

    #[test]
    fn malformed_input_is_an_error_with_a_position() {
        for (text, msg) in [
            ("", "expected a JSON value at byte 0"),
            ("nul", "expected a JSON value at byte 0"),
            ("{} x", "trailing characters at byte 3"),
            ("[1,]", "expected a JSON value at byte 3"),
            ("[1 2]", "expected ',' or a closing bracket at byte 3"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{a: 1}", "expected a string at byte 1"),
            ("\"abc", "unterminated string at byte 4"),
            ("\"a\nb\"", "unescaped control character in string at byte 2"),
            ("\"\\x\"", "bad escape at byte 3"),
            ("\"\\u12\"", "bad \\u escape at byte 3"),
            ("\"\\u12", "bad \\u escape at byte 3"),
            ("\"\\u+123\"", "bad \\u escape at byte 3"),
            ("\"\\ud83d\"", "lone surrogate in \\u escape at byte 7"),
            ("\"\\ud83d\\u0041\"", "lone surrogate in \\u escape at byte 13"),
            ("\"\\udef0\"", "lone surrogate in \\u escape at byte 7"),
            ("-", "bad number at byte 1"),
            ("01", "bad number at byte 2"),
            ("1.", "bad number at byte 2"),
            (".5", "expected a JSON value at byte 0"),
            ("1e", "bad number at byte 2"),
            ("+1", "expected a JSON value at byte 0"),
            ("1-2", "trailing characters at byte 1"),
        ] {
            let e = from_str(text).expect_err(text);
            assert_eq!(e.to_string(), msg, "input {text:?}");
        }
    }

    #[test]
    fn nesting_is_limited_not_a_stack_overflow() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        let e = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.to_string(), "nesting deeper than 128 levels at byte 128");
        assert!(from_str(&"[".repeat(100_000)).is_err());
        assert!(from_str(&"{\"k\":".repeat(100_000)).is_err());
        // Depth is what is open at once, not how many containers there are.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(from_str(&wide).is_ok());
    }

    #[test]
    fn integer_literals_are_exact_or_fall_back_to_float() {
        let num = |text: &str| match from_str(text) {
            Ok(Value::Number(n)) => n,
            other => panic!("{text}: {other:?}"),
        };
        assert!(matches!(num("18446744073709551615"), Number::U(u64::MAX)));
        assert!(matches!(num("-9223372036854775808"), Number::I(i64::MIN)));
        assert!(matches!(num("18446744073709551616"), Number::F(f) if f == 18446744073709551616.0));
        assert!(matches!(num("-9223372036854775809"), Number::F(f) if f == -9223372036854775809.0));
        assert!(matches!(num("1e2"), Number::F(f) if f == 100.0));
        assert_eq!(from_str("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(from_str("7").unwrap().as_u64(), Some(7));
        assert_eq!(from_str("7.0").unwrap().as_u64(), None);
        assert_eq!(from_str("-7").unwrap().as_f64(), Some(-7.0));
    }

    #[test]
    fn remove_path_walks_objects_only() {
        let mut v =
            json!({ "perf": { "events": 5, "engine": { "routing": { "n": 1 }, "epochs": 2 } } });
        assert_eq!(v.remove_path("perf.engine.routing"), Some(json!({ "n": 1 })));
        assert_eq!(v.remove_path("perf.engine.routing"), None);
        assert_eq!(v.remove_path("perf.events.deeper"), None);
        assert_eq!(v.remove_path("missing.engine"), None);
        assert_eq!(v, json!({ "perf": { "events": 5, "engine": { "epochs": 2 } } }));
        assert_eq!(v.remove_path("perf"), Some(json!({ "events": 5, "engine": { "epochs": 2 } })));
        assert_eq!(v, json!({}));
    }

    #[test]
    fn index_and_accessors_miss_to_null_or_none() {
        let v = json!({ "a": [1, "x", { "b": true }] });
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], "x");
        assert_eq!(v["a"][2]["b"].as_bool(), Some(true));
        assert_eq!(v["a"][9], Value::Null);
        assert_eq!(v["nope"]["deeper"], Value::Null);
        assert_eq!(v.get("a").and_then(Value::as_array).map(Vec::len), Some(3));
        assert_eq!(v["a"].as_str(), None);
    }
}
