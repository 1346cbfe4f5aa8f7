//! A minimal keep-alive HTTP/1.1 client. It never reconnects on its own: a
//! transport error is reported to the caller, which counts it as a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response; `body` is reused across requests.
#[derive(Default)]
pub struct Resp {
    pub status: u16,
    pub etag: Option<u64>,
    pub location: Option<String>,
    pub body: Vec<u8>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    req: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            req: Vec::with_capacity(1024),
        })
    }

    pub fn get(&mut self, path_and_query: &str, out: &mut Resp) -> io::Result<()> {
        self.send("GET", path_and_query, None, None, out)
    }

    /// Send one request and read its whole response into `out`.
    pub fn send(
        &mut self,
        method: &str,
        path_and_query: &str,
        if_match: Option<u64>,
        body: Option<&[u8]>,
        out: &mut Resp,
    ) -> io::Result<()> {
        request_bytes(&mut self.req, method, path_and_query, if_match, body);
        self.stream.write_all(&self.req)?;
        self.read_response(out)
    }

    fn read_response(&mut self, out: &mut Resp) -> io::Result<()> {
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        out.status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        out.etag = None;
        out.location = None;
        let mut len = 0usize;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else { continue };
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                len = v.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if k.eq_ignore_ascii_case("etag") {
                out.etag = v.trim_start_matches("W/").trim_matches('"').parse().ok();
            } else if k.eq_ignore_ascii_case("location") {
                out.location = Some(v.to_string());
            }
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        out.body.clear();
        out.body.extend_from_slice(&self.buf[head_end..head_end + len]);
        Ok(())
    }

    fn fill(&mut self) -> io::Result<()> {
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        let n = self.stream.read(&mut self.buf[old..]);
        let n = match n {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(old);
                return Err(e);
            }
        };
        self.buf.truncate(old + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}

/// The exact bytes the client sends for one request.
pub fn request_bytes(
    out: &mut Vec<u8>,
    method: &str,
    path_and_query: &str,
    if_match: Option<u64>,
    body: Option<&[u8]>,
) {
    out.clear();
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path_and_query.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ofmf\r\n");
    if let Some(tag) = if_match {
        out.extend_from_slice(format!("If-Match: W/\"{tag}\"\r\n").as_bytes());
    }
    if let Some(b) = body {
        out.extend_from_slice(format!("Content-Type: application/json\r\nContent-Length: {}\r\n", b.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    if let Some(b) = body {
        out.extend_from_slice(b);
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The top-level `@odata.id` of a JSON object body, found by a scan that
/// skips nested objects and arrays (a member link is not the body's id).
pub fn top_level_odata_id(body: &[u8]) -> Option<&str> {
    const KEY: &[u8] = b"\"@odata.id\"";
    let mut depth = 0usize;
    let mut i = 0;
    while i < body.len() {
        match body[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            b'"' => {
                if depth == 1 && body[i..].starts_with(KEY) {
                    let mut j = i + KEY.len();
                    while j < body.len() && matches!(body[j], b' ' | b':') {
                        j += 1;
                    }
                    let start = j.checked_add(1).filter(|_| body.get(j) == Some(&b'"'))?;
                    let end = start + body[start..].iter().position(|&b| b == b'"')?;
                    return std::str::from_utf8(&body[start..end]).ok();
                }
                // Skip the string, honouring escapes.
                i += 1;
                while i < body.len() && body[i] != b'"' {
                    if body[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_only_the_top_level_id() {
        let body =
            br#"{"Members":[{"@odata.id":"/redfish/v1/Systems/a"}],"Name":"x\"{","@odata.id":"/redfish/v1/Systems"}"#;
        assert_eq!(top_level_odata_id(body), Some("/redfish/v1/Systems"));
        assert_eq!(top_level_odata_id(br#"{"Links":{"@odata.id":"/x"}}"#), None);
    }
}
