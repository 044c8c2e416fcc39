//! JSON in and out through the workspace's `serde_json` stand-in, whose
//! `Value` is neither `Serialize` nor `Deserialize` itself: [`Doc`] is
//! the one-field wrapper that is.

pub use serde_json::Value;

struct Doc(Value);

impl serde::Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Doc {
    fn from_value(v: &Value) -> Result<Doc, serde::Error> {
        Ok(Doc(v.clone()))
    }
}

/// Parses JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Doc>(text)
        .map(|d| d.0)
        .map_err(|e| format!("{e:?}"))
}

/// Compact JSON text.
pub fn render(v: Value) -> String {
    serde_json::to_string(&Doc(v)).expect("the stand-in writer is infallible")
}

/// A JSON number (non-finite values become 0).
pub fn num(v: f64) -> Value {
    let v = if v.is_finite() { v } else { 0.0 };
    Value::Number(serde_json::Number::from_f64(v).expect("finite"))
}

/// A JSON unsigned integer.
pub fn uint(v: u64) -> Value {
    Value::Number(serde_json::Number::from_u64(v))
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A JSON object from `(key, value)` pairs, order kept.
pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// What a well-formed JSON document is at the top level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// An array.
    Array,
    /// An object, with its top-level keys (unescaped only as far as the
    /// benchmark's own checks need: keys with escapes keep them).
    Object(Vec<String>),
    /// A string, number, boolean or null.
    Scalar,
}

/// Checks that `text` is one well-formed JSON document, in time linear in
/// its length, and says what it is at the top level. The response checks
/// use this rather than [`parse`]: the stand-in parser re-validates the
/// whole remaining input as UTF-8 for every character of a string, which
/// is quadratic and takes about a second on a 170 KB `/metrics.json`.
pub fn shape(text: &str) -> Result<Shape, &'static str> {
    let mut s = Scanner {
        bytes: text.as_bytes(),
        pos: 0,
    };
    s.ws();
    let top = s.value(0)?;
    s.ws();
    if s.pos != s.bytes.len() {
        return Err("trailing characters");
    }
    Ok(top)
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: u32) -> Result<Shape, &'static str> {
        if depth > 128 {
            return Err("nesting too deep");
        }
        match self.bytes.get(self.pos) {
            Some(b'"') => self.string().map(|_| Shape::Scalar),
            Some(b'[') => {
                self.pos += 1;
                self.ws();
                if self.eat(b']') {
                    return Ok(Shape::Array);
                }
                loop {
                    self.ws();
                    self.value(depth + 1)?;
                    self.ws();
                    if self.eat(b']') {
                        return Ok(Shape::Array);
                    }
                    if !self.eat(b',') {
                        return Err("expected , or ]");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut keys = Vec::new();
                self.ws();
                if self.eat(b'}') {
                    return Ok(Shape::Object(keys));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if depth == 0 {
                        keys.push(key.to_string());
                    }
                    self.ws();
                    if !self.eat(b':') {
                        return Err("expected :");
                    }
                    self.ws();
                    self.value(depth + 1)?;
                    self.ws();
                    if self.eat(b'}') {
                        return Ok(Shape::Object(keys));
                    }
                    if !self.eat(b',') {
                        return Err("expected , or }");
                    }
                }
            }
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|n| n.parse::<f64>().ok())
                    .map(|_| Shape::Scalar)
                    .ok_or("bad number")
            }
            _ => Err("unexpected character"),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<Shape, &'static str> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(Shape::Scalar)
        } else {
            Err("bad literal")
        }
    }

    /// Skips a string; returns its raw contents (input is a `&str`, so
    /// cutting at the ASCII quotes keeps it valid UTF-8).
    fn string(&mut self) -> Result<&str, &'static str> {
        if !self.eat(b'"') {
            return Err("expected a string");
        }
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string"),
                Some(b'"') => {
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "string is not UTF-8")?;
                    self.pos += 1;
                    return Ok(raw);
                }
                Some(b'\\') => self.pos += 2,
                Some(c) if *c < 0x20 => return Err("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accepts_what_the_routes_send() {
        assert_eq!(shape("[]"), Ok(Shape::Array));
        assert_eq!(
            shape(" [ {\"a\":[1,2,{\"b\":null}]} , \"x\" ] "),
            Ok(Shape::Array)
        );
        assert_eq!(
            shape("{\"columns\":[\"n\"],\"rows\":[[5.5e-1]],\"s\":\"a\\\"b\"}"),
            Ok(Shape::Object(vec![
                "columns".into(),
                "rows".into(),
                "s".into()
            ]))
        );
        assert_eq!(shape("-1.5e3"), Ok(Shape::Scalar));
        assert_eq!(shape("\"é\""), Ok(Shape::Scalar));
    }

    #[test]
    fn shape_rejects_malformed_documents() {
        for bad in [
            "",
            "[",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1] 2",
            "{a:1}",
            "\"open",
            "tru",
            "1.2.3",
            "[\"a\nb\"]",
        ] {
            assert!(shape(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shape_is_linear_on_a_large_body() {
        let item = "{\"k\":\"vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv\",\"n\":12345.678},";
        let body = format!("[{}{}]", item.repeat(20_000), "0");
        let t0 = std::time::Instant::now();
        assert_eq!(shape(&body), Ok(Shape::Array));
        assert!(t0.elapsed().as_millis() < 500, "{:?}", t0.elapsed());
    }

    #[test]
    fn parse_and_render_round_trip() {
        let v = parse("{\"a\":[1,2.5,\"x\"],\"b\":true}").expect("parses");
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(parse(&render(v.clone())), Ok(v));
    }
}
