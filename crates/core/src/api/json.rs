//! A minimal JSON tree, and the one codec every serialized type of the
//! workspace goes through, with no external dependencies (the build
//! environment has no crates.io access, so serde is not an option).
//!
//! The subset is deliberately small — objects, arrays, strings, finite
//! numbers, booleans and `null` — but the implementation is a complete
//! reader/writer for that subset: everything [`JsonValue::render`] emits,
//! [`JsonValue::parse`] accepts, and numbers round-trip exactly. Integer
//! literals are kept on a dedicated [`JsonValue::Int`] path so counters
//! beyond 2⁵³ (pair counts at metro-1M volumes) never round through an
//! `f64`; other finite doubles go through Rust's shortest round-trip float
//! formatting.
//!
//! Types travel through the [`Json`] trait. Flat structs implement it with
//! [`json_struct!`](crate::json_struct) from one field list kept beside
//! the struct's declaration; irregular shapes implement it by hand on the
//! shared [`field`] / [`field_or`] readers.

/// One JSON value.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (stored as `f64`; non-finite values render as
    /// `null`).
    Num(f64),
    /// An integer, kept exact at any magnitude an `i128` holds — the
    /// lossless path for `u64` counters, which silently round above 2⁵³
    /// when squeezed through [`JsonValue::Num`].
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Insertion order is preserved (and significant for
    /// equality, matching the deterministic rendering).
    Obj(Vec<(String, JsonValue)>),
}

/// Exact cross-representation equality: an `f64` equals an `i128` iff it is
/// a finite integer in `i128` range with the same value. Integer-valued
/// doubles in range convert exactly, so the comparison is lossless — e.g.
/// `Num(2⁵³)` equals `Int(2⁵³)` but not `Int(2⁵³ + 1)`.
fn num_eq_int(f: f64, i: i128) -> bool {
    f.is_finite()
        && f.fract() == 0.0
        && (-(2f64.powi(127))..2f64.powi(127)).contains(&f)
        && f as i128 == i
}

impl PartialEq for JsonValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (JsonValue::Null, JsonValue::Null) => true,
            (JsonValue::Bool(a), JsonValue::Bool(b)) => a == b,
            (JsonValue::Num(a), JsonValue::Num(b)) => a == b,
            (JsonValue::Int(a), JsonValue::Int(b)) => a == b,
            // A re-parsed integer literal comes back as `Int` even when it
            // was rendered from an integer-valued `Num`; the two compare
            // equal exactly when the values are identical.
            (JsonValue::Num(f), JsonValue::Int(i)) | (JsonValue::Int(i), JsonValue::Num(f)) => {
                num_eq_int(*f, *i)
            }
            (JsonValue::Str(a), JsonValue::Str(b)) => a == b,
            (JsonValue::Arr(a), JsonValue::Arr(b)) => a == b,
            (JsonValue::Obj(a), JsonValue::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl JsonValue {
    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one. Integers beyond 2⁵³
    /// convert with rounding — use [`JsonValue::as_u64`] where exactness
    /// matters.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects fractional and
    /// out-of-range numbers). `Int` values are exact at any magnitude;
    /// integer-valued `Num`s are accepted for compatibility.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 2f64.powi(64) => {
                Some(*v as u64)
            }
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (rejects fractional numbers).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => render_number(*v, out),
            JsonValue::Int(i) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{i}");
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Integers render verbatim (exact below 2⁵³); other finite doubles use
/// Rust's shortest round-trip formatting, which `str::parse::<f64>` maps
/// back to the identical bits. Non-finite values degrade to `null`.
fn render_number(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // C0 controls must be escaped per the JSON grammar; DEL and the
            // C1 block are escaped too so arbitrary scenario names never put
            // raw control bytes on a JSONL line, and U+2028/U+2029 because
            // line-oriented (and JavaScript-adjacent) consumers treat them
            // as terminators. Everything else — non-ASCII included — is
            // emitted verbatim as UTF-8.
            c if (c as u32) < 0x20
                || (0x7F..=0x9F).contains(&(c as u32))
                || c == '\u{2028}'
                || c == '\u{2029}' =>
            {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected '{token}' at byte {pos}"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Standard serializers emit non-BMP characters as a
                        // UTF-16 surrogate pair of \u escapes.
                        if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u".as_slice()) {
                                return Err("lone high surrogate in \\u escape".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate in \\u escape".into());
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u escape {code:04x}"))?,
                        );
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (the input is a &str, so the
                // byte sequence is valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Reads the four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|e| format!("invalid \\u escape {hex}: {e}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a value at byte {start}"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Pure integer literals (optional sign, digits only) take the lossless
    // path: counters beyond 2⁵³ must not round through an f64. Literals
    // overflowing an i128 fall through to the float path below.
    let digits = text.strip_prefix('-').unwrap_or(text);
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(JsonValue::Int(i));
        }
    }
    let value = text
        .parse::<f64>()
        .map_err(|e| format!("invalid number at byte {start}: {e}"))?;
    // Overflowing literals (1e999) parse to ±inf, which would violate the
    // finite-Num invariant and break round-tripping (inf renders as null).
    if !value.is_finite() {
        return Err(format!("number at byte {start} overflows an f64"));
    }
    Ok(JsonValue::Num(value))
}

/// A type with one JSON shape: [`Json::to_value`] renders it and
/// [`Json::from_value`] reads back exactly what was rendered.
///
/// Unsigned integers always render as [`JsonValue::Int`], so every count is
/// exact at any magnitude; narrower types read back through `try_from` and
/// reject values outside their range.
pub trait Json: Sized {
    /// The value as a JSON tree.
    fn to_value(&self) -> JsonValue;
    /// Reads a value back from a tree written by [`Json::to_value`].
    fn from_value(v: &JsonValue) -> Result<Self, String>;
}

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn to_value(&self) -> JsonValue {
                // Lossless: every unsigned type up to 64 bits fits an i128.
                JsonValue::Int(*self as i128)
            }
            fn from_value(v: &JsonValue) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| concat!("expected a ", stringify!($t)).to_string())
            }
        }
    )*};
}
unsigned_json!(u64, usize, u32);

impl Json for f64 {
    fn to_value(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
    fn from_value(v: &JsonValue) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl Json for bool {
    fn to_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn from_value(v: &JsonValue) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a bool".to_string())
    }
}

impl Json for String {
    fn to_value(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn from_value(v: &JsonValue) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

/// A raw tree travels as itself (engine-defined report payloads).
impl Json for JsonValue {
    fn to_value(&self) -> JsonValue {
        self.clone()
    }
    fn from_value(v: &JsonValue) -> Result<Self, String> {
        Ok(v.clone())
    }
}

/// `None` renders as `null`.
impl<T: Json> Json for Option<T> {
    fn to_value(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::to_value)
    }
    fn from_value(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::to_value).collect())
    }
    fn from_value(v: &JsonValue) -> Result<Self, String> {
        v.as_arr()
            .ok_or_else(|| "expected an array".to_string())?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// Reads the value under `key` of object `v`; the key must be present.
pub fn field<T: Json>(v: &JsonValue, key: &str) -> Result<T, String> {
    let value = v.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
    T::from_value(value).map_err(|e| format!("field '{key}': {e}"))
}

/// Reads the value under `key` of object `v`, or `default` when the key is
/// absent. A key that is present must still hold a valid value.
pub fn field_or<T: Json>(v: &JsonValue, key: &str, default: T) -> Result<T, String> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => field(v, key),
    }
}

/// Implements [`Json`] for a flat struct from one field list, written
/// beside the struct's declaration in declaration order — the key order of
/// the rendered object.
///
/// * `json_struct!(Name { a, b: "key", c = 0 })`: every key is required,
///   except that an absent `c` reads as `0`; field `b` travels under the
///   key `"key"`.
/// * `json_struct!(Name: Default { a, b } skip { c })`: an absent key takes
///   its value from `Name::default()`; the fields after `skip` do not travel
///   and always read back as the default.
///
/// Either form builds one struct literal that names every field, so a
/// field left out of the list is a compile error.
#[macro_export]
macro_rules! json_struct {
    (@key $f:ident) => {
        stringify!($f)
    };
    (@key $f:ident $key:literal) => {
        $key
    };
    (@read $v:ident, $key:expr) => {
        $crate::api::json::field($v, $key)
    };
    (@read $v:ident, $key:expr, $default:expr) => {
        $crate::api::json::field_or($v, $key, $default)
    };
    ($ty:ident { $($f:ident $(: $key:literal)? $(= $default:expr)?),* $(,)? }) => {
        impl $crate::api::json::Json for $ty {
            fn to_value(&self) -> $crate::api::json::JsonValue {
                $crate::api::json::JsonValue::Obj(vec![$((
                    $crate::json_struct!(@key $f $($key)?).to_string(),
                    $crate::api::json::Json::to_value(&self.$f),
                )),*])
            }
            fn from_value(v: &$crate::api::json::JsonValue) -> Result<Self, String> {
                Ok($ty {$(
                    $f: $crate::json_struct!(
                        @read v, $crate::json_struct!(@key $f $($key)?) $(, $default)?
                    )?,
                )*})
            }
        }
    };
    ($ty:ident: Default { $($f:ident),* $(,)? } $(skip { $($skip:ident),* $(,)? })?) => {
        impl $crate::api::json::Json for $ty {
            fn to_value(&self) -> $crate::api::json::JsonValue {
                $crate::api::json::JsonValue::Obj(vec![$((
                    stringify!($f).to_string(),
                    $crate::api::json::Json::to_value(&self.$f),
                )),*])
            }
            fn from_value(v: &$crate::api::json::JsonValue) -> Result<Self, String> {
                let d = <$ty as Default>::default();
                Ok($ty {
                    $($f: $crate::api::json::field_or(v, stringify!($f), d.$f)?,)*
                    $($($skip: d.$skip,)*)?
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", JsonValue::Null),
            ("true", JsonValue::Bool(true)),
            ("false", JsonValue::Bool(false)),
            ("42", JsonValue::Num(42.0)),
            ("-7", JsonValue::Num(-7.0)),
            ("\"hi\"", JsonValue::Str("hi".into())),
        ] {
            assert_eq!(JsonValue::parse(text).unwrap(), value);
            assert_eq!(value.render(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.5e-9, 123456.789, f64::MAX, 5e-324, -0.333333333333] {
            let rendered = JsonValue::Num(v).render();
            let parsed = JsonValue::parse(&rendered).unwrap();
            assert_eq!(parsed.as_f64(), Some(v), "via {rendered}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = JsonValue::obj(vec![
            ("name", JsonValue::Str("a \"quoted\"\nname".into())),
            (
                "items",
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Null]),
            ),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("empty_arr", JsonValue::Arr(vec![])),
        ]);
        let text = value.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
    }

    #[test]
    fn accessors() {
        let value = JsonValue::obj(vec![
            ("n", JsonValue::Num(3.0)),
            ("s", JsonValue::Str("x".into())),
            ("b", JsonValue::Bool(true)),
            ("a", JsonValue::Arr(vec![JsonValue::Num(0.5)])),
        ]);
        assert_eq!(value.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(value.get("n").and_then(JsonValue::as_usize), Some(3));
        assert_eq!(value.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(value.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            value.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(1)
        );
        assert!(value.get("missing").is_none());
        assert_eq!(JsonValue::Num(0.5).as_u64(), None, "fractional is not u64");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let parsed = JsonValue::parse("  { \"a\" : [ 1 , 2 ] }\n").unwrap();
        assert_eq!(
            parsed,
            JsonValue::obj(vec![(
                "a",
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])
            )])
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        let parsed = JsonValue::parse("\"\\u00e9\\u0041\"").unwrap();
        assert_eq!(parsed.as_str(), Some("éA"));
        // Control characters render as escapes and round-trip.
        let v = JsonValue::Str("\u{1}".into());
        assert_eq!(v.render(), "\"\\u0001\"");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        // Non-BMP characters arrive from standard serializers as UTF-16
        // surrogate pairs.
        let parsed = JsonValue::parse("\"\\ud83d\\ude00!\"").unwrap();
        assert_eq!(parsed.as_str(), Some("😀!"));
        assert!(JsonValue::parse("\"\\ud83d\"").is_err(), "lone surrogate");
        assert!(
            JsonValue::parse("\"\\ud83d\\u0041\"").is_err(),
            "bad low surrogate"
        );
    }

    #[test]
    fn control_and_separator_characters_stay_escaped_on_one_line() {
        // DEL, a C1 control, and the Unicode line/paragraph separators all
        // render as \u escapes — a serialized report is always exactly one
        // JSONL-safe line, whatever the scenario name contains.
        let v = JsonValue::Str("a\u{7f}b\u{85}c\u{2028}d\u{2029}e\nf".into());
        let rendered = v.render();
        assert_eq!(rendered, "\"a\\u007fb\\u0085c\\u2028d\\u2029e\\nf\"");
        assert!(!rendered.contains('\u{2028}') && !rendered.contains('\u{2029}'));
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
        // Non-ASCII text is emitted verbatim and round-trips.
        let name = JsonValue::Str("métro-北京-🜂".into());
        assert_eq!(name.render(), "\"métro-北京-🜂\"");
        assert_eq!(JsonValue::parse(&name.render()).unwrap(), name);
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        assert!(JsonValue::parse("1e999").is_err());
        assert!(JsonValue::parse("-1e999").is_err());
        // The largest finite double still parses.
        assert!(JsonValue::parse("1.7976931348623157e308").is_ok());
    }

    #[test]
    fn integers_beyond_2_53_round_trip_losslessly() {
        // 2⁵³ + 1 is the first integer an f64 cannot represent: the old
        // Num-only path silently rounded it to 2⁵³. The Int path must keep
        // every u64 counter exact, u64::MAX included.
        for v in [(1u64 << 53) + 1, (1u64 << 53) + 3, u64::MAX - 1, u64::MAX] {
            let rendered = JsonValue::Int(v as i128).render();
            assert_eq!(rendered, v.to_string(), "integers render verbatim");
            let parsed = JsonValue::parse(&rendered).unwrap();
            assert_eq!(parsed.as_u64(), Some(v), "via {rendered}");
            assert_eq!(parsed, JsonValue::Int(v as i128));
        }
        // Negative integers take the same path.
        let parsed = JsonValue::parse("-9007199254740993").unwrap();
        assert_eq!(parsed, JsonValue::Int(-((1i128 << 53) + 1)));
        assert_eq!(parsed.render(), "-9007199254740993");
    }

    #[test]
    fn num_int_cross_equality_is_exact() {
        // Equal values compare equal across representations...
        assert_eq!(JsonValue::Num(42.0), JsonValue::Int(42));
        assert_eq!(JsonValue::Num(-7.0), JsonValue::Int(-7));
        assert_eq!(JsonValue::Num(9007199254740992.0), JsonValue::Int(1 << 53));
        // ...but a rounded double never equals the integer it rounded from.
        assert_ne!(
            JsonValue::Num((1u64 << 53) as f64),
            JsonValue::Int((1 << 53) + 1)
        );
        assert_ne!(JsonValue::Num(0.5), JsonValue::Int(0));
        assert_ne!(JsonValue::Num(f64::NAN), JsonValue::Int(0));
        // An f64 at or beyond 2¹²⁷ is out of i128 range entirely.
        assert_ne!(JsonValue::Num(2f64.powi(127)), JsonValue::Int(i128::MAX));
        assert_eq!(JsonValue::Num(-(2f64.powi(127))), JsonValue::Int(i128::MIN));
    }

    #[test]
    fn codec_integers_are_exact_and_range_checked() {
        for v in [0, (1u64 << 53) + 1, u64::MAX] {
            let text = v.to_value().render();
            assert_eq!(text, v.to_string());
            assert_eq!(u64::from_value(&JsonValue::parse(&text).unwrap()), Ok(v));
        }
        let too_big = JsonValue::Int(1 << 32);
        assert!(u32::from_value(&too_big).is_err());
        assert_eq!(u64::from_value(&too_big), Ok(1 << 32));
        assert!(u64::from_value(&JsonValue::Int(-1)).is_err());
        assert!(usize::from_value(&JsonValue::Num(0.5)).is_err());
        // Absent keys take the default; present ones must be valid.
        let v = JsonValue::parse(r#"{"n":null,"s":"x"}"#).unwrap();
        assert_eq!(field_or(&v, "missing", 7u32), Ok(7));
        assert_eq!(field::<Option<u32>>(&v, "n"), Ok(None));
        assert!(field_or(&v, "s", 7u32).is_err());
        assert!(field::<String>(&v, "missing").is_err());
    }

    #[test]
    fn int_literals_overflowing_i128_degrade_to_float() {
        // 2¹²⁸ doesn't fit an i128; the literal still parses, via f64.
        let parsed = JsonValue::parse("340282366920938463463374607431768211456").unwrap();
        assert_eq!(parsed.as_f64(), Some(2f64.powi(128)));
        assert!(matches!(parsed, JsonValue::Num(_)));
    }
}
