//! Minimal JSON support shared by the whole workspace: a writer with the
//! workspace's canonical formatting conventions, a small recursive-descent
//! parser (for `qm-serve` request bodies), and the versioned `qm-api/v1`
//! report envelope every serialisable report renders into.
//!
//! The workspace deliberately has no external dependencies, so this is
//! not a general-purpose JSON library — it is the *one* place the
//! hand-rolled escaping and float-formatting rules live, replacing the
//! per-crate copies that used to drift (`qm-verify` escaped `\n`
//! specially, `qm-bench` did not; wall-clock floats were formatted with
//! `{:.3}` in some emitters and free-form in others).
//!
//! Both directions allocate per document rather than per member, since
//! a finished job's reply carries thousands of small objects (its
//! `channel_high_water` marks). [`JsonBuf`] escapes strings and formats
//! integers straight into its one buffer. [`parse`] builds each object
//! and array in one allocation of its exact size, from member stacks
//! shared by the whole document, and reads plain integers without a
//! float parser.
//!
//! [`parse`] takes untrusted input (`qm-serve` request bodies of up to
//! 1 MiB), so its cost is linear in the input: the cursor scans each
//! input byte once, and a string is decoded run by run, each run of
//! plain bytes between escapes validated and copied as one slice. It
//! accepts the RFC 8259 grammar: no leading zeros, no bare `.` or
//! exponent, and no raw control characters inside strings.
//!
//! # The `qm-api/v1` envelope
//!
//! Every report type with a stable wire format serialises as
//!
//! ```json
//! {"schema":"qm-api/v1","kind":"<kind>","data":{…}}
//! ```
//!
//! built through [`Envelope`]. The envelope is versioned as a whole:
//! adding a field to some `data` body is backwards-compatible and keeps
//! `qm-api/v1`; renaming, removing or retyping one requires `qm-api/v2`.
//! `docs/API.md` specifies each body; golden-file tests in `qm-bench`
//! pin the exact bytes.

/// The versioned envelope schema identifier every report serialises
/// under.
pub const API_SCHEMA: &str = "qm-api/v1";

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Append `s` to `out` escaped for a JSON string literal: quotes,
/// backslash and control characters (as `\u00xx`); everything else
/// passes through verbatim, run by run.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Append the decimal digits of `v` to `out`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        // `v % 10` is a single digit.
        #[allow(clippy::cast_possible_truncation)]
        let d = (v % 10) as u8;
        digits[at] = b'0' + d;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Escape `s` for inclusion in a JSON string literal (quotes, backslash
/// and control characters; everything else passes through verbatim).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// The workspace's canonical rendering of wall-clock-derived floats:
/// three decimal places, no exponent (`0.000`, `12.345`). Every
/// `*_wall_ms` / `speedup` / `points_per_sec` field in every emitter
/// goes through this, so the formatting cannot drift between files.
#[must_use]
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// A JSON writer: a thin, allocation-conscious builder over a `String`
/// that handles commas and nesting so callers only state structure.
///
/// ```
/// use qm_core::json::JsonBuf;
///
/// let mut j = JsonBuf::new();
/// j.begin_obj();
/// j.str_field("name", "matmul");
/// j.u64_field("cycles", 1234);
/// j.bool_field("correct", true);
/// j.end_obj();
/// assert_eq!(j.finish(), r#"{"name":"matmul","cycles":1234,"correct":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// Whether the current aggregate already has a member (one flag per
    /// open nesting level).
    has_member: Vec<bool>,
}

impl JsonBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The rendered text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn comma(&mut self) {
        if let Some(has) = self.has_member.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Open an object value (`{`).
    pub fn begin_obj(&mut self) {
        self.comma();
        self.out.push('{');
        self.has_member.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.has_member.pop();
        self.out.push('}');
    }

    /// Open an array value (`[`).
    pub fn begin_arr(&mut self) {
        self.comma();
        self.out.push('[');
        self.has_member.push(false);
    }

    /// Close the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.has_member.pop();
        self.out.push(']');
    }

    /// Write a member key; the next value written becomes its value.
    pub fn key(&mut self, k: &str) {
        self.comma();
        self.out.push('"');
        escape_into(&mut self.out, k);
        self.out.push_str("\":");
        // The value that follows must not emit its own comma.
        if let Some(has) = self.has_member.last_mut() {
            *has = false;
        }
    }

    /// Write a raw, pre-rendered JSON value (trusted — not escaped).
    pub fn raw(&mut self, v: &str) {
        self.comma();
        self.out.push_str(v);
    }

    /// Write a string value.
    pub fn str_val(&mut self, v: &str) {
        self.comma();
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
    }

    /// Write an unsigned integer value.
    pub fn u64_val(&mut self, v: u64) {
        self.comma();
        push_u64(&mut self.out, v);
    }

    /// Write a signed integer value.
    pub fn i64_val(&mut self, v: i64) {
        self.comma();
        if v < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
    }

    /// Write a boolean value.
    pub fn bool_val(&mut self, v: bool) {
        self.comma();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write a `null` value.
    pub fn null_val(&mut self) {
        self.comma();
        self.out.push_str("null");
    }

    /// `key: "string"` member.
    pub fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str_val(v);
    }

    /// `key: u64` member.
    pub fn u64_field(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64_val(v);
    }

    /// `key: i64` member.
    pub fn i64_field(&mut self, k: &str, v: i64) {
        self.key(k);
        self.i64_val(v);
    }

    /// `key: bool` member.
    pub fn bool_field(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool_val(v);
    }
}

/// Builder for one `qm-api/v1` envelope: opens the envelope and the
/// `data` object, hands the buffer to the caller for the body, and
/// closes both.
///
/// ```
/// use qm_core::json::Envelope;
///
/// let json = Envelope::render("state_digest", |j| {
///     j.str_field("digest", "0x00000000075bcd15");
/// });
/// assert_eq!(
///     json,
///     r#"{"schema":"qm-api/v1","kind":"state_digest","data":{"digest":"0x00000000075bcd15"}}"#
/// );
/// ```
pub struct Envelope;

impl Envelope {
    /// Render a complete envelope of `kind` whose `data` body is written
    /// by `body`.
    #[must_use]
    pub fn render(kind: &str, body: impl FnOnce(&mut JsonBuf)) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.str_field("schema", API_SCHEMA);
        j.str_field("kind", kind);
        j.key("data");
        j.begin_obj();
        body(&mut j);
        j.end_obj();
        j.end_obj();
        j.finish()
    }
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

/// A parsed JSON value ([`parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; the grammar this workspace accepts
    /// never needs more than 53 bits of integer precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(JsonObject),
}

impl JsonValue {
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// The members of a JSON object, in document order.
///
/// A key that appears more than once reads as its last member, as in a
/// map that each later member overwrites. Two objects are equal when
/// they read the same keys as equal values, whatever their member order.
#[derive(Clone, Default)]
pub struct JsonObject {
    members: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// The value of `key`'s last member.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Remove every member named `key`; the value of the last one.
    pub fn remove(&mut self, key: &str) -> Option<JsonValue> {
        let last = self.members.iter().rposition(|(k, _)| k == key)?;
        let (_, value) = self.members.remove(last);
        self.members.retain(|(k, _)| k != key);
        Some(value)
    }

    /// Every member, duplicates included, in document order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (&str, &JsonValue)> {
        self.members.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The members [`get`](Self::get) can answer with, sorted by key.
    fn by_key(&self) -> Vec<(&str, &JsonValue)> {
        // Reversed, a stable sort puts each key's last member first.
        let mut members: Vec<_> = self.iter().rev().collect();
        members.sort_by_key(|&(k, _)| k);
        members.dedup_by_key(|&mut (k, _)| k);
        members
    }
}

impl PartialEq for JsonObject {
    fn eq(&self, other: &Self) -> bool {
        self.by_key() == other.by_key()
    }
}

impl std::fmt::Debug for JsonObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Parse error: a message and the byte offset it was raised at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// [`JsonError`] with the offending byte offset. Inputs deeper than 64
/// nesting levels are rejected (hostile-input guard, in the same spirit
/// as the snapshot decoder's length checks).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    Parser::new(text).document()
}

const MAX_DEPTH: usize = 64;

/// Most integer digits read without the float parser: every 19-digit
/// number fits a `u64`.
const MAX_FAST_DIGITS: usize = 19;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Members of the objects still open, innermost last; a closing
    /// object takes its own off the top in one exact allocation.
    members: Vec<(String, JsonValue)>,
    /// Items of the arrays still open, the same way.
    items: Vec<JsonValue>,
    /// Decode strings, objects and numbers with the `*_oracle` routines.
    #[cfg(test)]
    oracle: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            members: Vec::new(),
            items: Vec::new(),
            #[cfg(test)]
            oracle: false,
        }
    }

    fn document(mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        #[cfg(test)]
        if self.oracle {
            return self.object_oracle();
        }
        self.eat(b'{')?;
        self.depth += 1;
        let base = self.members.len();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let val = self.value()?;
                self.members.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(JsonValue::Obj(JsonObject { members: self.members.split_off(base) }))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        self.depth += 1;
        let base = self.items.len();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                let item = self.value()?;
                self.items.push(item);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(JsonValue::Arr(self.items.split_off(base)))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.oracle {
            return self.string_oracle();
        }
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. It starts and ends on char boundaries
            // (the input is a &str and the stop bytes are ASCII), so it
            // is valid UTF-8.
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let run = std::str::from_utf8(&rest[..len]).map_err(|_| self.err("bad utf-8"))?;
            self.pos += len;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(run.to_owned());
                    }
                    out.push_str(run);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(run);
                    out.push(self.unescape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decode the escape sequence whose backslash is at the cursor.
    fn unescape(&mut self) -> Result<char, JsonError> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                // Exactly four hex digits: no sign, no shorter form.
                let cp = hex
                    .iter()
                    .try_fold(0, |cp, &b| Some((cp << 4) | char::from(b).to_digit(16)?))
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogates are not paired; this parser only needs the
                // BMP subset our own writer emits.
                char::from_u32(cp).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Skip one or more digits.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(format!("expected a digit {what}")));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A plain
    /// integer of up to [`MAX_FAST_DIGITS`] digits is accumulated in a
    /// `u64`, whose conversion to `f64` rounds exactly as the float
    /// parser would; anything else goes to the float parser.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in a number"));
            }
        } else {
            self.digits("in a number")?;
        }
        let int_digits = &self.bytes[int_start..self.pos];
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("after '.'")?;
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("in an exponent")?;
            integral = false;
        }
        #[cfg(test)]
        let integral = integral && !self.oracle;
        if integral && int_digits.len() <= MAX_FAST_DIGITS {
            let magnitude = int_digits.iter().fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
            #[allow(clippy::cast_precision_loss)]
            let magnitude = magnitude as f64;
            return Ok(JsonValue::Num(if negative { -magnitude } else { magnitude }));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError { message: format!("bad number {text:?}"), at: start })
    }

    /// The object routine this parser had before objects kept document
    /// order: members go into a `BTreeMap`, a later duplicate replacing
    /// an earlier one. Kept as the differential tests' oracle.
    #[cfg(test)]
    fn object_oracle(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut map = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(JsonObject { members: map.into_iter().collect() }));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(JsonObject { members: map.into_iter().collect() }));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// The string routine this parser had before it decoded runs in one
    /// piece: it re-validates the rest of the document for every
    /// character, and takes `\u` digits through `u32::from_str_radix`
    /// (which also accepts `+041`). Kept as the differential tests'
    /// oracle.
    #[cfg(test)]
    fn string_oracle(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired; this parser only
                            // needs the BMP subset our own writer emits.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    if c < ' ' {
                        return Err(self.err("control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check, Gen};
    use std::fmt::Write as _;

    fn parse_oracle(text: &str) -> Result<JsonValue, JsonError> {
        Parser { oracle: true, ..Parser::new(text) }.document()
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn f3_is_three_decimals() {
        assert_eq!(f3(0.0), "0.000");
        assert_eq!(f3(12.3456), "12.346");
    }

    #[test]
    fn writer_nests_and_commas() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("a");
        j.begin_arr();
        j.u64_val(1);
        j.u64_val(2);
        j.begin_obj();
        j.str_field("k", "v");
        j.end_obj();
        j.end_arr();
        j.bool_field("ok", false);
        j.key("none");
        j.null_val();
        j.end_obj();
        assert_eq!(j.finish(), r#"{"a":[1,2,{"k":"v"}],"ok":false,"none":null}"#);
    }

    #[test]
    fn envelope_shape_is_pinned() {
        let json = Envelope::render("x", |j| j.u64_field("n", 7));
        assert_eq!(json, r#"{"schema":"qm-api/v1","kind":"x","data":{"n":7}}"#);
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.str_field("name", "say \"hi\"\n");
        j.i64_field("neg", -3);
        j.key("arr");
        j.begin_arr();
        j.u64_val(1);
        j.bool_val(true);
        j.null_val();
        j.end_arr();
        j.end_obj();
        let v = parse(&j.finish()).expect("parses");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("say \"hi\"\n"));
        assert_eq!(v.get("neg"), Some(&JsonValue::Num(-3.0)));
        assert_eq!(
            v.get("arr"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Bool(true),
                JsonValue::Null
            ]))
        );
    }

    #[test]
    fn parser_rejects_malformed_inputs() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "{} trailing", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth guard.
        let deep = "[".repeat(65) + &"]".repeat(65);
        assert!(parse(&deep).is_err(), "65 levels deep should fail");
        let ok = "[".repeat(63) + &"]".repeat(63);
        assert!(parse(&ok).is_ok(), "63 levels is fine");
    }

    #[test]
    fn numbers_parse_as_u64_when_integral() {
        let v = parse("{\"n\": 18446744073709551615}").unwrap();
        // 2^64-1 is not exactly representable; what matters is that
        // ordinary counters survive.
        let v2 = parse("{\"n\": 123456789}").unwrap();
        assert_eq!(v2.get("n").and_then(JsonValue::as_u64), Some(123_456_789));
        assert!(v.get("n").is_some());
        assert_eq!(parse("-1.5").unwrap().as_u64(), None);
    }

    fn str_val(s: &str) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::Str(s.to_string()))
    }

    fn err(message: &str, at: usize) -> Result<JsonValue, JsonError> {
        Err(JsonError { message: message.to_string(), at })
    }

    #[test]
    fn strings_decode_runs_and_escapes() {
        assert_eq!(parse(r#""""#), str_val(""));
        assert_eq!(parse(r#""a\"b\\c\/d\n\t\r\b\f""#), str_val("a\"b\\c/d\n\t\r\u{8}\u{c}"));
        assert_eq!(parse("\"é€😀\\u00e9x\""), str_val("é€😀éx"));
        assert_eq!(parse("\"\u{7f}\""), str_val("\u{7f}"), "DEL is not a control character");
        assert_eq!(parse(r#""\ud83d""#), str_val("\u{fffd}"), "lone surrogate");
        assert_eq!(parse(r#""abc"#), err("unterminated string", 4));
        assert_eq!(parse(r#""ab\"#), err("bad escape", 4));
        assert_eq!(parse(r#""ab\x""#), err("bad escape", 4));
        assert_eq!(parse(r#""ab\u12"#), err("truncated \\u escape", 4));
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        assert_eq!(parse("01"), err("leading zero in a number", 1));
        assert_eq!(parse("00"), err("leading zero in a number", 1));
        assert_eq!(parse("-01"), err("leading zero in a number", 2));
        assert_eq!(parse("[01]"), err("leading zero in a number", 2));
        assert_eq!(parse("1."), err("expected a digit after '.'", 2));
        assert_eq!(parse("1.e3"), err("expected a digit after '.'", 2));
        assert_eq!(parse("-"), err("expected a digit in a number", 1));
        assert_eq!(parse("-x"), err("expected a digit in a number", 1));
        assert_eq!(parse("1e"), err("expected a digit in an exponent", 2));
        assert_eq!(parse("1e+"), err("expected a digit in an exponent", 3));
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.5e3", -1500.0),
            ("1E-2", 0.01),
            ("2e+2", 200.0),
            ("9999999999999999999", 9_999_999_999_999_999_999.0),
            ("-9223372036854775808", -9_223_372_036_854_775_808.0),
            ("18446744073709551616", 18_446_744_073_709_551_616.0),
        ] {
            assert_eq!(parse(text), Ok(JsonValue::Num(want)), "{text}");
        }
    }

    #[test]
    fn strings_reject_raw_control_characters() {
        assert_eq!(parse("\"a\nb\""), err("control character in string", 2));
        assert_eq!(parse("\"a\tb\""), err("control character in string", 2));
        assert_eq!(parse("\"\u{0}\""), err("control character in string", 1));
        assert_eq!(parse("\"\\n\u{1f}\""), err("control character in string", 3));
        assert_eq!(parse_oracle("\"a\nb\""), err("control character in string", 2));
    }

    #[test]
    fn objects_keep_document_order_and_read_the_last_duplicate() {
        let Ok(JsonValue::Obj(mut obj)) = parse(r#"{"b":1,"a":2,"b":3}"#) else { panic!() };
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(obj.get("b"), Some(&JsonValue::Num(3.0)));
        assert_eq!(format!("{obj:?}"), r#"{"b": Num(1.0), "a": Num(2.0), "b": Num(3.0)}"#);
        assert_eq!(parse(r#"{"a":2,"b":3}"#), Ok(JsonValue::Obj(obj.clone())), "order is ignored");
        assert_ne!(parse(r#"{"a":2,"b":1}"#), Ok(JsonValue::Obj(obj.clone())));
        assert_ne!(parse(r#"{"a":2}"#), Ok(JsonValue::Obj(obj.clone())));
        assert_eq!(obj.remove("b"), Some(JsonValue::Num(3.0)));
        assert_eq!(obj.get("b"), None, "every duplicate goes");
        assert_eq!(obj.remove("b"), None);
        assert_eq!(JsonValue::Obj(obj).get("a"), Some(&JsonValue::Num(2.0)));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00E9\u20ac""#), str_val("Aé€"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, "\"\\u0é\""] {
            assert_eq!(parse(bad), err("bad \\u escape", 2), "{bad}");
        }
        // `u32::from_str_radix` let the old routine read a sign.
        assert_eq!(parse_oracle(r#""\u+041""#), str_val("A"));
    }

    /// Append a JSON string literal built to exercise the string
    /// decoder: plain runs, 2–4-byte UTF-8, every escape, `\u` with good
    /// and bad digits (never a `+`, which only the oracle accepts) and
    /// bad escapes (drawn with weight `bad`). It grows to at least
    /// `min_len` bytes.
    fn gen_string(g: &mut Gen, min_len: usize, bad: u32, out: &mut String) {
        const MULTIBYTE: [char; 10] =
            ['é', 'ß', '\u{7ff}', '\u{800}', '€', '\u{ffff}', '😀', '𝄞', '\u{10000}', '\u{10ffff}'];
        const NOT_HEX: [char; 8] = ['g', 'G', ' ', '-', '"', '\\', 'é', '€'];
        out.push('"');
        let start = out.len();
        let pieces = g.range(0..8);
        let mut n = 0;
        while n < pieces || out.len() - start < min_len {
            n += 1;
            match g.weighted(&[6, 3, 3, 2, bad, 1, bad]) {
                0 => {
                    let len = g.range(0..24);
                    out.extend(
                        (0..len)
                            .map(|_| char::from(g.range(b' '..=b'~')))
                            .filter(|&c| c != '"' && c != '\\'),
                    );
                }
                1 => out.push(*g.pick(&MULTIBYTE)),
                2 => out.push_str(
                    g.pick::<&str>(&[r#"\""#, r"\\", r"\/", r"\n", r"\t", r"\r", r"\b", r"\f"]),
                ),
                3 => {
                    let cp = g.range(0..=u16::MAX as u32);
                    out.push_str(&if g.below(2) == 0 {
                        format!("\\u{cp:04x}")
                    } else {
                        format!("\\u{cp:04X}")
                    });
                }
                4 => {
                    out.push_str("\\u");
                    let at = g.below(4);
                    for i in 0..4 {
                        if i == at {
                            out.push(*g.pick(&NOT_HEX));
                        } else {
                            out.push(*g.pick(&['0', '9', 'a', 'F']));
                        }
                    }
                }
                5 => out.push(*g.pick(&['\n', '\t', '\u{1}', '\u{7f}'])),
                _ => {
                    out.push('\\');
                    out.push(*g.pick(&['x', 'U', '0', 'é', ' ']));
                }
            }
        }
        out.push('"');
    }

    fn gen_value(g: &mut Gen, depth: u32, bad: u32, out: &mut String) {
        let ws = |g: &mut Gen, out: &mut String| {
            out.push_str(g.pick::<&str>(&["", "", " ", "\n\t", "\r\n  "]));
        };
        ws(g, out);
        let kinds = if depth == 0 { 3 } else { 6 };
        match g.below(kinds) {
            0 => gen_string(g, 0, bad, out),
            1 => out.push_str(g.pick::<&str>(&[
                "0",
                "-0",
                "-7",
                "123456789",
                "9007199254740993",
                "9999999999999999999",
                "-9223372036854775808",
                "123456789012345678901234",
                "1.5e3",
                "-0.25",
                "1E+2",
                "1e999",
                "true",
                "false",
                "null",
            ])),
            2 if bad > 0 && g.below(4) == 0 => {
                out.push_str(g.pick::<&str>(&["01", "-", "1.", "1.e3", "1e", "-01", "2e+"]));
            }
            2 => {
                // Up to 20 digits: either side of the integer fast path.
                let digits = g.range(1..=20u32);
                let n = g.range(0u64..) % 10u64.checked_pow(digits).unwrap_or(u64::MAX);
                let sign = if g.below(2) == 0 { "-" } else { "" };
                out.push_str(&format!("{sign}{n}"));
            }
            3 => {
                out.push('[');
                for i in 0..g.range(0..5) {
                    if i > 0 {
                        out.push(',');
                    }
                    gen_value(g, depth - 1, bad, out);
                }
                out.push(']');
            }
            4 => {
                out.push('{');
                for i in 0..g.range(0..5) {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(g, out);
                    if g.below(3) == 0 {
                        // A small key set, so that keys repeat.
                        out.push_str(g.pick::<&str>(&["\"a\"", "\"b\""]));
                    } else {
                        gen_string(g, 0, bad, out);
                    }
                    ws(g, out);
                    out.push(':');
                    gen_value(g, depth - 1, bad, out);
                }
                out.push('}');
            }
            _ => {
                // Deep enough, now and then, to trip the depth guard.
                let levels = g.range(1..=70);
                out.push_str(&"[".repeat(levels));
                gen_value(g, 0, bad, out);
                out.push_str(&"]".repeat(levels));
            }
        }
        ws(g, out);
    }

    /// A generated document, sometimes with a string of tens of KiB,
    /// and sometimes cut, extended or spliced at a char boundary so the
    /// parsers also have to agree on errors.
    fn gen_document(g: &mut Gen) -> String {
        let mut doc = String::new();
        let bad = u32::from(g.below(4) == 0);
        let long = g.below(3) == 0;
        if long {
            doc.push('[');
        }
        gen_value(g, 4, bad, &mut doc);
        if long {
            doc.push(',');
            let min_len = g.range(8_192..40_960);
            gen_string(g, min_len, bad, &mut doc);
            doc.push(']');
        }
        let mut at = g.range(0..=doc.len());
        while !doc.is_char_boundary(at) {
            at -= 1;
        }
        match g.below(8) {
            0 => doc.truncate(at),
            1 => doc.insert(at, *g.pick(&['"', '\\', ',', ']', '}', ':', 'u', '9', 'é'])),
            2 => {
                let tail = doc[at..].to_string();
                doc.push_str(&tail);
            }
            _ => {}
        }
        doc
    }

    #[test]
    fn parser_agrees_with_the_per_character_oracle() {
        check(96, |g| {
            let doc = gen_document(g);
            let (got, want) = (parse(&doc), parse_oracle(&doc));
            let head: String = doc.chars().take(200).collect();
            assert_eq!(got, want, "{} bytes, starting {head:?}", doc.len());
        });
    }

    /// The writer this module had before [`JsonBuf`] escaped and
    /// formatted in place: every key and string goes through a fresh
    /// [`escape_oracle`] `String` and every scalar through `write!`.
    /// Kept as the writer property's oracle.
    #[derive(Default)]
    struct OracleBuf {
        out: String,
        has_member: Vec<bool>,
    }

    fn escape_oracle(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    impl OracleBuf {
        fn comma(&mut self) {
            if let Some(has) = self.has_member.last_mut() {
                if *has {
                    self.out.push(',');
                }
                *has = true;
            }
        }

        fn begin(&mut self, open: char) {
            self.comma();
            self.out.push(open);
            self.has_member.push(false);
        }

        fn end(&mut self, close: char) {
            self.has_member.pop();
            self.out.push(close);
        }

        fn key(&mut self, k: &str) {
            self.comma();
            let _ = write!(self.out, "\"{}\":", escape_oracle(k));
            if let Some(has) = self.has_member.last_mut() {
                *has = false;
            }
        }

        fn str_val(&mut self, v: &str) {
            self.comma();
            let _ = write!(self.out, "\"{}\"", escape_oracle(v));
        }

        fn scalar(&mut self, v: impl std::fmt::Display) {
            self.comma();
            let _ = write!(self.out, "{v}");
        }
    }

    /// Text for keys and strings: quotes, backslashes, every control
    /// character, DEL and 2–4-byte UTF-8 among plain ASCII.
    fn gen_text(g: &mut Gen) -> String {
        const SPECIAL: [char; 8] = ['"', '\\', '\u{7f}', 'é', '€', '😀', '\u{10ffff}', '/'];
        (0..g.range(0..12))
            .map(|_| match g.below(3) {
                0 => char::from(g.range(0u8..0x20)),
                1 => *g.pick(&SPECIAL),
                _ => char::from(g.range(b' '..=b'~')),
            })
            .collect()
    }

    fn gen_u64(g: &mut Gen) -> u64 {
        match g.below(4) {
            0 => *g.pick(&[0, 1, 9, 10, u64::MAX, u64::MAX - 1, 1 << 53, i64::MAX as u64]),
            1 => g.range(0u64..1000),
            _ => g.range(0u64..) >> g.range(0..64u32),
        }
    }

    fn gen_i64(g: &mut Gen) -> i64 {
        match g.below(3) {
            0 => *g.pick(&[0, -1, 1, i64::MIN, i64::MIN + 1, i64::MAX]),
            _ => gen_u64(g) as i64,
        }
    }

    /// Write one generated value to both writers.
    fn write_both(g: &mut Gen, depth: u32, new: &mut JsonBuf, old: &mut OracleBuf) {
        match g.below(if depth == 0 { 6 } else { 8 }) {
            0 => {
                let s = gen_text(g);
                new.str_val(&s);
                old.str_val(&s);
            }
            1 => {
                let v = gen_u64(g);
                new.u64_val(v);
                old.scalar(v);
            }
            2 => {
                let v = gen_i64(g);
                new.i64_val(v);
                old.scalar(v);
            }
            3 => {
                let v = g.below(2) == 0;
                new.bool_val(v);
                old.scalar(v);
            }
            4 => {
                new.null_val();
                old.scalar("null");
            }
            5 => {
                let v = f64::from(g.range(0u32..)) / 64.0;
                new.raw(&f3(v));
                old.comma();
                old.out.push_str(&f3(v));
            }
            6 => {
                new.begin_arr();
                old.begin('[');
                for _ in 0..g.range(0..5) {
                    write_both(g, depth - 1, new, old);
                }
                new.end_arr();
                old.end(']');
            }
            _ => {
                new.begin_obj();
                old.begin('{');
                for _ in 0..g.range(0..5) {
                    let k = gen_text(g);
                    new.key(&k);
                    old.key(&k);
                    write_both(g, depth - 1, new, old);
                }
                new.end_obj();
                old.end('}');
            }
        }
    }

    #[test]
    fn writer_matches_the_write_and_escape_oracle() {
        check(512, |g| {
            let (mut new, mut old) = (JsonBuf::new(), OracleBuf::default());
            write_both(g, 4, &mut new, &mut old);
            let text = new.finish();
            assert_eq!(text, old.out);
            assert!(parse(&text).is_ok(), "the writer's output parses: {text:?}");
        });
    }
}
