//! Minimal hand-rolled JSON: the `sweepd` wire protocol's codec, and the
//! reader the tests validate the trace and metrics exports with.
//!
//! The workspace is offline and serde-free by policy, and the protocol only
//! needs flat objects, arrays, strings, booleans, and unsigned integers — so
//! this is a small recursive-descent parser plus a writer, not a general
//! JSON library. Numbers are kept as raw text and parsed on demand, which
//! keeps round-trips lossless without dragging floats into a protocol that
//! only carries cycle counts. The parser accepts exactly the JSON grammar
//! (strict numbers, no raw control bytes in strings), bounds nesting, and
//! runs in time linear in the input: its input arrives from a socket.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the protocol never relies on key order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser::new(src);
        let v = p.value()?;
        p.end()?;
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize (compact, single line — the protocol is line-delimited).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// A number value from a `u64`.
    pub fn num(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from field pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Append `s` as a quoted JSON string.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Containers may nest this deep and no deeper: the parser recurses per
/// level, and a request line of a million `[` must come back as an error,
/// not as a stack overflow in a handler thread.
const MAX_DEPTH: usize = 128;

/// The recursive-descent parser behind [`Json::parse`]. Crate-visible so a
/// caller that knows the shape it expects ([`Parser::object_with`],
/// [`Parser::u64`]) can decode it in place instead of through a tree.
pub(crate) struct Parser<'a> {
    src: &'a str,
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Parser { src, i: 0, depth: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    /// Only whitespace may remain.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i != self.src.len() {
            return Err(format!("trailing garbage at byte {}", self.i));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// Any value, as a tree. Leading whitespace is skipped.
    pub(crate) fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => self.array(),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object_with(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Ok(Json::Num(self.number_text()?.to_string()))
            }
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// An unsigned integer, without the intermediate [`Json::Num`].
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let at = self.i;
        self.number_text()?.parse().map_err(|_| format!("expected a u64 at byte {at}"))
    }

    fn digits(&mut self) -> bool {
        let from = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i > from
    }

    /// One number by the JSON grammar (`-? int frac? exp?`), as source text.
    fn number_text(&mut self) -> Result<&'a str, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let int_from = self.i;
        let mut ok = self.digits() && (self.bytes()[int_from] != b'0' || self.i == int_from + 1);
        if ok && self.peek() == Some(b'.') {
            self.i += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            ok = self.digits();
        }
        if !ok {
            return Err(format!("bad number at byte {start}"));
        }
        // Sign, digits, '.', 'e': ASCII by construction.
        Ok(&self.src[start..self.i])
    }

    /// One string. Everything between two `"`/`\` bytes is taken as a whole
    /// run (a slice of the source, already UTF-8; one copy per run, so cost is
    /// linear in the input), and a string with no escape at all is borrowed,
    /// not copied.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.i;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.i += 1;
            }
            // Both ends sit next to an ASCII byte, so this is a char boundary.
            let run = &self.src[start..self.i];
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = self.escape()?;
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(c);
                }
                Some(c) => {
                    return Err(format!("raw control byte {c:#04x} in string at byte {}", self.i))
                }
            }
        }
    }

    /// The character an escape stands for; `self.i` is just past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self.bytes().get(self.i + 1..self.i + 5).ok_or("truncated \\u escape")?;
                let mut code = 0u32;
                for &h in hex {
                    code = code * 16 + (h as char).to_digit(16).ok_or("bad \\u escape")?;
                }
                self.i += 4;
                // Surrogate pairs are not needed by this protocol; map them
                // to the replacement character.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            _ => return Err(format!("bad escape at byte {}", self.i)),
        };
        self.i += 1;
        Ok(c)
    }

    fn nest(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.nest()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => break,
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    /// One object, handing each key to `field` with the parser standing at
    /// that key's value; `field` must consume exactly the value. The tree
    /// builder and the result-line decoder are both callers, so there is one
    /// object grammar.
    pub(crate) fn object_with(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'{')?;
        self.nest()?;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                field(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => break,
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_engine::Rng;

    #[test]
    fn round_trips_protocol_shapes() {
        let v = Json::obj([
            ("op", Json::str("sweep")),
            ("cells", Json::Arr(vec![Json::obj([("lat", Json::num(128))])])),
            ("stream", Json::Bool(true)),
            ("nothing", Json::Null),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'), "must stay line-delimited: {line}");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(
            back.get("cells").and_then(Json::as_arr).unwrap()[0].get("lat").and_then(Json::as_u64),
            Some(128)
        );
        assert_eq!(back.get("stream").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("nothing"), Some(&Json::Null));
        assert_eq!(back.get("absent"), None);
    }

    #[test]
    fn escapes_survive_round_trip() {
        let nasty = "quote\" back\\slash \nnewline \ttab \u{1} low";
        let line = Json::str(nasty).to_line();
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_are_lossless_text() {
        // u64::MAX survives (an f64 round-trip would not preserve it).
        let raw = u64::MAX.to_string();
        let v = Json::parse(&raw).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_line(), raw);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "01",
            "-",
            "1.",
            "1e",
            "1e+",
            ".5",
            "+1",
            "\"raw\ttab\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        for good in ["0", "-0", "10", "1.5", "-1.25e-3", "2E+9", "\"\\u00e9\\/\\b\\f\""] {
            assert!(Json::parse(good).is_ok(), "{good:?} must parse");
        }
        assert_eq!(Json::parse("2.5e1").unwrap().as_f64(), Some(25.0));
        assert_eq!(Json::parse("\"\\u00e9\\/\"").unwrap().as_str(), Some("é/"));
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(1 << 20);
        assert!(Json::parse(&deep).unwrap_err().contains("nested deeper"));
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok(), "the bound itself is allowed");
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
        // Siblings do not accumulate depth.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH));
        assert!(Json::parse(&wide).is_ok());
    }

    /// Parse cost must be per byte, not per byte squared: 2 MB of strings —
    /// one long one with multi-byte characters and an escape every few
    /// bytes, then many short keys and values — in a generous wall bound.
    /// (Re-validating the rest of the input once per character, as this
    /// parser used to, makes that 2·10¹² byte visits: hours.)
    #[test]
    fn two_megabytes_of_strings_parse_in_linear_time() {
        let long = "päper \\n \"quoted\" ✓ ".repeat(40_000);
        let mut fields = vec![("long".to_string(), Json::str(long.as_str()))];
        for i in 0..40_000 {
            fields.push((format!("tile{}.vpu.stat{i}", i % 16), Json::str(format!("value {i}"))));
        }
        let v = Json::Obj(fields);
        let line = v.to_line();
        assert!(line.len() > 2 << 20, "{} bytes", line.len());
        let t = std::time::Instant::now();
        let back = Json::parse(&line).unwrap();
        let took = t.elapsed();
        assert!(back == v, "a 2 MB line must round-trip");
        assert!(took < std::time::Duration::from_secs(10), "2 MB took {took:?}");
    }

    fn random_string(rng: &mut Rng) -> String {
        const ALPHABET: [&str; 16] = [
            "a", "Z", "0", " ", ".", "\"", "\\", "/", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é",
            "✓", "𝄞",
        ];
        (0..rng.below(12)).map(|_| ALPHABET[rng.index(ALPHABET.len())]).collect()
    }

    fn random_tree(rng: &mut Rng, depth: u32) -> Json {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => {
                Json::num(if rng.chance(0.1) { u64::MAX } else { rng.next_u64() >> rng.below(64) })
            }
            3 => Json::str(random_string(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| random_tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_trees_round_trip() {
        let mut rng = Rng::new(0x1503);
        for case in 0..2000 {
            let v = random_tree(&mut rng, 4);
            let line = v.to_line();
            assert!(!line.contains('\n'), "case {case} must stay line-delimited: {line}");
            assert_eq!(Json::parse(&line).as_ref(), Ok(&v), "case {case}: {line}");
        }
        // What the writer never emits but a peer may send: \u for any
        // character, an escaped solidus, empty strings as keys and values.
        let v = Json::parse(r#"{"":"","\u0041\u00e9\u2713":"\/\u0000"}"#).unwrap();
        assert_eq!(v.get("").and_then(Json::as_str), Some(""));
        assert_eq!(v.get("Aé✓").and_then(Json::as_str), Some("/\u{0}"));
        assert_eq!(Json::parse(&v.to_line()), Ok(v));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
