//! The workspace's JSON reader and writer, std-only: a strict parser
//! into a [`Value`] tree (integers exact, nesting capped at
//! [`MAX_DEPTH`]), a compact or pretty [`Writer`] that keeps call order,
//! and a codec ([`ToJson`] / [`FromJson`], derived per type with
//! [`json_codec!`](crate::json_codec)).
//!
//! The codec follows serde's conventions, so files written by earlier
//! serde-based builds still load: `None` is `null`, tuples are arrays,
//! enums are externally tagged, `Duration` is `{"secs","nanos"}`, floats
//! print in shortest round-trip form and non-finite ones as `null`.

use crate::event::escape_json;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::time::Duration;

/// Deepest array/object nesting [`parse`] accepts. The deepest documents
/// the workspace writes (`explore --out` dumps) nest 9
/// levels, 11 with a TDMA-arbitrated bus from a custom library; the cap
/// keeps the recursive parser, the decoder and the tree's drop far from
/// any thread's stack limit.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written with a fraction or an exponent (or an integer
    /// literal too large for [`Value::Int`]).
    Number(f64),
    /// A number written as a bare integer, kept exact.
    Int(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps key iteration deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The number as an integer, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "float",
            Value::Int(_) => "integer",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Why a document did not parse or decode: the byte offset of a syntax
/// error, or the `Type.field` path to a missing or wrong-typed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// What went wrong, and where.
    pub message: String,
}

impl Error {
    fn mismatch(expected: &str, found: &Value) -> Self {
        Error {
            message: format!("expected {expected}, found {}", found.kind()),
        }
    }

    /// Prefixes the error with the place it occurred.
    fn within(self, place: &str) -> Self {
        Error {
            message: format!("{place}: {}", self.message),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Parses `input` as one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// An [`Error`] for malformed JSON and for nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> Error {
        Error {
            message: format!("JSON parse error at byte {}: {message}", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(|p| {
                let mut map = BTreeMap::new();
                p.members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.members(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Parses the comma-separated members of the container opening at
    /// the current byte, through its `close` bracket.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte;
            // it ends at an ASCII byte, so it is whole UTF-8.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escape = self.text.as_bytes().get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    });
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The scalar of a `\uXXXX` escape whose `\u` is consumed, joining a
    /// surrogate pair. A lone surrogate decodes as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            let high_end = self.pos;
            self.pos += 2;
            match self.hex4()? {
                low @ 0xDC00..=0xDFFF => code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                _ => self.pos = high_end,
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A bare integer literal becomes an exact [`Value::Int`]; anything
    /// else (fraction, exponent, beyond `i128`) a [`Value::Number`].
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Some(n) = text
            .bytes()
            .all(|b| b == b'-' || b.is_ascii_digit())
            .then(|| text.parse::<i128>().ok())
            .flatten()
        {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// Writer and codec
// ---------------------------------------------------------------------------

/// Prints JSON text in call order, compact or pretty (2-space indent,
/// `": "` after keys). Open a container with [`Writer::begin_object`] /
/// [`Writer::begin_array`] and start each member with [`Writer::key`] /
/// [`Writer::element`]; empty containers print as `{}` / `[]`.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no members yet.
    empty: bool,
}

impl Writer {
    /// Writes a literal token: a number, `true`, `false` or `null`.
    pub fn raw(&mut self, token: impl fmt::Display) {
        write!(self.out, "{token}").expect("writing to a String cannot fail");
    }

    /// Writes a string literal.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        self.out.push_str(&escape_json(s));
        self.out.push('"');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts the member `key`; write its value next.
    pub fn key(&mut self, key: &str) {
        self.element();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts the next array element; write it next.
    pub fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.depth));
        }
    }
}

/// A type that writes itself as one JSON value.
pub trait ToJson {
    /// Writes `self` to `w`.
    fn write_json(&self, w: &mut Writer);
}

/// A type that decodes itself from a parsed JSON value.
pub trait FromJson: Sized {
    /// Decodes `value`.
    ///
    /// # Errors
    ///
    /// An [`Error`] naming the type and field whose value is missing
    /// or has the wrong shape.
    fn from_json(value: &Value) -> Result<Self, Error>;

    /// The value of a missing object field; `None` makes it an error.
    fn absent() -> Option<Self> {
        None
    }
}

fn write_with<T: ToJson + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer {
        out: String::new(),
        pretty,
        depth: 0,
        empty: false,
    };
    value.write_json(&mut w);
    w.out
}

/// Compact JSON text for `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    write_with(value, false)
}

/// Pretty (2-space indented) JSON text for `value`.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    write_with(value, true)
}

/// Parses and decodes one document.
///
/// # Errors
///
/// An [`Error`] for malformed JSON or a value that does not fit `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

macro_rules! scalar_codec {
    ($($t:ty => $write:ident, |$v:ident| $decode:expr;)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.$write(self);
            }
        }

        impl FromJson for $t {
            fn from_json($v: &Value) -> Result<Self, Error> {
                $decode
            }
        }
    )*};
}

macro_rules! integer_codec {
    ($($t:ty),*) => {
        scalar_codec! {$(
            $t => raw, |value| match value {
                Value::Int(n) => <$t>::try_from(*n).map_err(|_| Error {
                    message: format!("integer {n} out of range for {}", stringify!($t)),
                }),
                other => Err(Error::mismatch("integer", other)),
            };
        )*}
    };
}

integer_codec!(u32, u64, usize);

scalar_codec! {
    bool => raw, |value| match value {
        Value::Bool(b) => Ok(*b),
        other => Err(Error::mismatch("bool", other)),
    };
    String => str, |value| value
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| Error::mismatch("string", value));
}

impl ToJson for f64 {
    /// Shortest round-trip form (`1.0`, `1e-7`); `null` when not finite.
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            w.raw(format_args!("{self:?}"));
        } else {
            w.raw("null");
        }
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::mismatch("number", value))
    }
}

impl ToJson for char {
    fn write_json(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl FromJson for char {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let mut chars = value.as_str().unwrap_or_default().chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::mismatch("a one-character string", value)),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(inner) => inner.write_json(w),
            None => w.raw("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::mismatch("array", value))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        w.element();
        self.0.write_json(w);
        w.element();
        self.1.write_json(w);
        w.end_array();
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let [a, b] = elements(value, "(A, B)", 2)? else {
            unreachable!("elements checked the length")
        };
        Ok((A::from_json(a)?, B::from_json(b)?))
    }
}

/// `Duration`'s wire form.
struct SecsNanos {
    secs: u64,
    nanos: u32,
}
crate::json_codec! { struct SecsNanos { secs, nanos } }

impl ToJson for Duration {
    fn write_json(&self, w: &mut Writer) {
        let (secs, nanos) = (self.as_secs(), self.subsec_nanos());
        SecsNanos { secs, nanos }.write_json(w);
    }
}

impl FromJson for Duration {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let SecsNanos { secs, nanos } = SecsNanos::from_json(value)?;
        Ok(Duration::new(secs, nanos))
    }
}

// Helpers for `json_codec!` expansions.

/// The object `value` must be to decode as `ty`.
#[doc(hidden)]
pub fn object_of<'a>(value: &'a Value, ty: &str) -> Result<&'a BTreeMap<String, Value>, Error> {
    match value {
        Value::Object(map) => Ok(map),
        other => Err(Error::mismatch("object", other).within(ty)),
    }
}

/// The `arity` elements of the array `value` must be to decode as `ty`.
#[doc(hidden)]
pub fn elements<'a>(value: &'a Value, ty: &str, arity: usize) -> Result<&'a [Value], Error> {
    match value.as_array() {
        Some(items) if items.len() == arity => Ok(items),
        _ => Err(Error::mismatch(&format!("array of {arity}"), value).within(ty)),
    }
}

/// Decodes field `name` of a `ty` object. A missing key decodes through
/// `default` when given, else through [`FromJson::absent`].
#[doc(hidden)]
pub fn field<T: FromJson>(
    map: &BTreeMap<String, Value>,
    ty: &str,
    name: &str,
    default: Option<fn() -> T>,
) -> Result<T, Error> {
    match map.get(name) {
        Some(value) => T::from_json(value).map_err(|e| e.within(&format!("{ty}.{name}"))),
        None => default
            .map(|f| f())
            .or_else(T::absent)
            .ok_or_else(|| Error {
                message: format!("{ty}: missing field `{name}`"),
            }),
    }
}

/// Decodes `value` as `T`, naming `place` on failure.
#[doc(hidden)]
pub fn inner<T: FromJson>(value: &Value, place: &str) -> Result<T, Error> {
    T::from_json(value).map_err(|e| e.within(place))
}

/// Splits an externally tagged enum value of type `ty` into its tag and
/// payload: a bare string is a unit variant (payload `null`), a one-key
/// object any other variant.
#[doc(hidden)]
pub fn variant_of<'a>(value: &'a Value, ty: &str) -> Result<(&'a str, &'a Value), Error> {
    match value {
        Value::String(tag) => Ok((tag, &Value::Null)),
        Value::Object(map) if map.len() == 1 => {
            let (tag, payload) = map.iter().next().expect("one entry");
            Ok((tag, payload))
        }
        other => Err(Error::mismatch("enum variant", other).within(ty)),
    }
}

/// Implements [`ToJson`](crate::json::ToJson) and [`FromJson`](crate::json::FromJson)
/// for a named-field struct, a newtype struct or an enum, listing its
/// fields and variants by name. Invoke it next to the type, so private
/// fields stay private.
///
/// * A struct is an object in field order. A field marked `#[default]`
///   decodes as `Default::default()` when its key is missing.
/// * A newtype struct is its inner value.
/// * An enum is externally tagged: a unit variant is its name as a
///   string; a newtype variant is `{"Name": inner}`, a tuple variant
///   `{"Name": [a, b]}` and a struct variant `{"Name": {fields}}`. Tuple
///   and newtype variants name one binding per element.
///
/// ```
/// use mce_obs::json;
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u32);
/// mce_obs::json_codec! { struct Id(u32) }
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Ring(Id),
///     Line(u32, u32),
///     Box { w: u32, h: u32 },
/// }
/// mce_obs::json_codec! { enum Shape { Dot, Ring(id), Line(from, to), Box { w, h } } }
///
/// #[derive(Debug, PartialEq)]
/// struct Scene {
///     shapes: Vec<Shape>,
///     label: Option<String>,
///     tags: Vec<String>,
/// }
/// mce_obs::json_codec! { struct Scene { shapes, label, #[default] tags } }
///
/// let scene = Scene {
///     shapes: vec![Shape::Dot, Shape::Ring(Id(7)), Shape::Line(1, 2), Shape::Box { w: 2, h: 3 }],
///     label: None,
///     tags: Vec::new(),
/// };
/// let text = r#"{"shapes":["Dot",{"Ring":7},{"Line":[1,2]},{"Box":{"w":2,"h":3}}],"label":null,"tags":[]}"#;
/// assert_eq!(json::to_string(&scene), text);
/// assert_eq!(json::from_str::<Scene>(text).unwrap(), scene);
/// // Missing `Option` and `#[default]` fields decode; unknown keys are ignored.
/// let sparse: Scene = json::from_str(r#"{"shapes":[],"extra":1}"#).unwrap();
/// assert_eq!(sparse.label, None);
/// let err = json::from_str::<Scene>(r#"{"shapes":[{"Box":{"w":1}}]}"#).unwrap_err();
/// assert_eq!(err.to_string(), "Scene.shapes: Shape::Box: missing field `h`");
/// ```
#[macro_export]
macro_rules! json_codec {
    (struct $name:ident { $( $(#[$default:ident])? $field:ident ),* $(,)? } $(;)?) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.begin_object();
                $(
                    w.key(stringify!($field));
                    $crate::json::ToJson::write_json(&self.$field, w);
                )*
                w.end_object();
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(
                value: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::Error> {
                let map = $crate::json::object_of(value, stringify!($name))?;
                let place = stringify!($name);
                Ok($name {
                    $( $field: $crate::json_codec!(@field map, place, $field $(#[$default])?), )*
                })
            }
        }
    };
    (struct $name:ident($inner:ty) $(;)?) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                $crate::json::ToJson::write_json(&self.0, w);
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(
                value: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::Error> {
                $crate::json::inner::<$inner>(value, stringify!($name)).map($name)
            }
        }
    };
    (enum $name:ident {
        $( $variant:ident $( ( $($arg:ident),+ ) )? $( { $($vfield:ident),* $(,)? } )? ),* $(,)?
    } $(;)?) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                match self {$(
                    $name::$variant $( ( $($arg),+ ) )? $( { $($vfield),* } )? => {
                        $crate::json_codec!(@enc w, $variant $(($($arg),+))? $({ $($vfield),* })?)
                    }
                )*}
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(
                value: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::Error> {
                let (tag, payload) = $crate::json::variant_of(value, stringify!($name))?;
                $(
                    if tag == stringify!($variant) {
                        let place = concat!(stringify!($name), "::", stringify!($variant));
                        return $crate::json_codec!(
                            @dec payload, place, $name::$variant $(($($arg),+))? $({ $($vfield),* })?
                        );
                    }
                )*
                Err($crate::json::Error {
                    message: format!("{}: unknown variant `{tag}`", stringify!($name)),
                })
            }
        }
    };

    (@field $map:ident, $place:ident, $field:ident) => {
        $crate::json::field($map, $place, stringify!($field), None)?
    };
    (@field $map:ident, $place:ident, $field:ident #[default]) => {
        $crate::json::field($map, $place, stringify!($field), Some(::std::default::Default::default))?
    };

    (@enc $w:ident, $variant:ident) => {
        $w.str(stringify!($variant))
    };
    (@enc $w:ident, $variant:ident ($arg:ident)) => {{
        $w.begin_object();
        $w.key(stringify!($variant));
        $crate::json::ToJson::write_json($arg, $w);
        $w.end_object();
    }};
    (@enc $w:ident, $variant:ident ($($arg:ident),+)) => {{
        $w.begin_object();
        $w.key(stringify!($variant));
        $w.begin_array();
        $( $w.element(); $crate::json::ToJson::write_json($arg, $w); )+
        $w.end_array();
        $w.end_object();
    }};
    (@enc $w:ident, $variant:ident { $($field:ident),* }) => {{
        $w.begin_object();
        $w.key(stringify!($variant));
        $w.begin_object();
        $( $w.key(stringify!($field)); $crate::json::ToJson::write_json($field, $w); )*
        $w.end_object();
        $w.end_object();
    }};

    (@dec $payload:ident, $place:ident, $($path:ident)::+) => {
        Ok($($path)::+)
    };
    (@dec $payload:ident, $place:ident, $($path:ident)::+ ($arg:ident)) => {
        $crate::json::inner($payload, $place).map($($path)::+)
    };
    (@dec $payload:ident, $place:ident, $($path:ident)::+ ($($arg:ident),+)) => {{
        let arity = [$(stringify!($arg)),+].len();
        let mut items = $crate::json::elements($payload, $place, arity)?.iter();
        Ok($($path)::+($({
            let $arg = items.next().expect("arity checked");
            $crate::json::inner($arg, $place)?
        }),+))
    }};
    (@dec $payload:ident, $place:ident, $($path:ident)::+ { $($field:ident),* }) => {{
        let map = $crate::json::object_of($payload, $place)?;
        Ok($($path)::+ { $( $field: $crate::json::field(map, $place, stringify!($field), None)?, )* })
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Value::Int(42));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            Value::String("a\nb".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},null],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&Value::Object(BTreeMap::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "[1 2]",
            "\"\u{1}\"",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\\ud83d\\ude00\\ud800\"").unwrap(),
            Value::String("Aé😀\u{fffd}".to_owned())
        );
    }

    #[test]
    fn as_u64_accepts_only_whole_numbers() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn integers_survive_exactly_to_u64_max() {
        for n in [(1u64 << 53) + 1, u64::MAX] {
            assert_eq!(to_string(&n), n.to_string());
            assert_eq!(from_str::<u64>(&n.to_string()), Ok(n));
        }
        assert_eq!(
            parse(&i64::MIN.to_string()),
            Ok(Value::Int(i64::MIN.into()))
        );
        let err = from_str::<u32>("4294967296").unwrap_err();
        assert_eq!(err.message, "integer 4294967296 out of range for u32");
        assert!(from_str::<u64>("1.0").is_err(), "a float is not an integer");
        assert_eq!(from_str::<f64>("3"), Ok(3.0));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.message,
            "JSON parse error at byte 128: nesting deeper than 128 levels"
        );
        // Far past the cap — the shape that used to overflow the stack.
        assert!(parse(&"{\"a\":[".repeat(50_000)).is_err());
    }

    #[test]
    fn writer_prints_compact_and_pretty_forms() {
        let v = (vec![Some(1.0), None, Some(f64::NAN)], Duration::new(3, 4));
        assert_eq!(to_string(&v), r#"[[1.0,null,null],{"secs":3,"nanos":4}]"#);
        let pretty = "[\n  [\n    1.0,\n    null,\n    null\n  ],\n  {\n    \"secs\": 3,\n    \"nanos\": 4\n  }\n]";
        assert_eq!(to_string_pretty(&v), pretty);
        assert_eq!(
            from_str(pretty),
            Ok((vec![Some(1.0), None, None], Duration::new(3, 4)))
        );
        assert_eq!(to_string_pretty(&Vec::<u32>::new()), "[]");
        assert_eq!(
            to_string(&(1e-7, "q\"\u{8}".to_owned())),
            r#"[1e-7,"q\"\u0008"]"#
        );
        assert_eq!(from_str::<char>("\"é\""), Ok('é'));
        assert!(from_str::<char>("\"ab\"").is_err());
    }
}
