//! The generator's side of the wire: a keep-alive HTTP/1.1 client and a
//! small JSON reader for the node's replies.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One keep-alive connection to the node.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A response: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request("GET", path, b"")
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.request("POST", path, body)
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: node\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "node hung up"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut hline = String::new();
            if self.reader.read_line(&mut hline)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let trimmed = hline.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// The value of the first `"key":"…"` string field in `body`. The node's
/// replies put every field the window checks at the top level, ahead of
/// any nested object that reuses the name.
pub fn field_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag)? + tag.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

/// The value of the first `"key":<unsigned integer>` field in `body`.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let digits = body[start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(&body[start..], |end| &body[start..start + end]);
    digits.parse().ok()
}

/// A parsed JSON value (the subset the node emits: no escapes beyond `\"`
/// and `\\`, numbers as written).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn arr(&self, key: &str) -> Option<&[Json]> {
        match self.get(key)? {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.eat("}") {
                    return Some(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return None;
                    }
                    let v = self.value()?;
                    m.insert(k, v);
                    self.ws();
                    if self.eat("}") {
                        return Some(Json::Obj(m));
                    }
                    if !self.eat(",") {
                        return None;
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Some(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Some(Json::Arr(a));
                    }
                    if !self.eat(",") {
                        return None;
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.eat("true").then_some(Json::Bool(true)),
            b'f' => self.eat("false").then_some(Json::Bool(false)),
            b'n' => self.eat("null").then_some(Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                (self.i > start)
                    .then(|| Json::Num(String::from_utf8_lossy(&self.s[start..self.i]).into()))
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat("\"") {
            return None;
        }
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => other,
                    });
                }
                _ => out.push(c),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_node_shaped_objects() {
        let j = Json::parse(r#"{"a":1,"b":"x","c":[{"d":true}],"e":null}"#).expect("json");
        assert_eq!(j.u64("a"), Some(1));
        assert_eq!(j.str("b"), Some("x"));
        assert_eq!(j.arr("c").expect("arr")[0].bool("d"), Some(true));
        assert_eq!(j.get("e"), Some(&Json::Null));
        assert!(Json::parse(r#"{"a":1"#).is_none());
        assert!(Json::parse(r#"{"a":1} trailing"#).is_none());
    }

    #[test]
    fn field_scanners_take_the_first_occurrence() {
        let body = r#"{"height":12,"hash":"ab","header":{"hash":"cd"}}"#;
        assert_eq!(field_u64(body, "height"), Some(12));
        assert_eq!(field_str(body, "hash"), Some("ab"));
        assert_eq!(field_u64(body, "missing"), None);
    }
}
