//! A strict recursive-descent JSON parser — the independent oracle the
//! telemetry-export test reads `coach-telemetry`'s Chrome-trace and JSONL
//! output back with (no JSON crate resolves offline).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Look up a dotted path (`"args.shard"`).
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            let Json::Obj(fields) = cur else { return None };
            cur = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)?;
        }
        Some(cur)
    }

    /// The value at `path` as a number.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value at `path` as a bool.
    pub fn bool(&self, path: &str) -> Option<bool> {
        match self.get(path)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value at `path` as a string.
    pub fn str(&self, path: &str) -> Option<&str> {
        match self.get(path)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(format!("unsupported escape \\{}", other as char));
                        }
                    });
                }
                Some(&b) => {
                    self.pos += 1;
                    out.push(b as char);
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_json() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2.5, -3e2]}, "s": "x\ny", "t": true, "n": null}"#)
            .unwrap();
        assert!(doc.num("a.b").is_none(), "an array is not a number");
        assert_eq!(
            doc.get("a.b"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
            ]))
        );
        assert_eq!(doc.str("s"), Some("x\ny"));
        assert_eq!(doc.bool("t"), Some(true));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
