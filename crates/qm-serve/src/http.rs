//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the `qm-api/v1` surface (`POST`/`GET`, JSON bodies, close-delimited
//! responses), with hard caps on header and body size so a misbehaving
//! client cannot balloon server memory.
//!
//! This is deliberately not a general HTTP implementation: no keep-alive,
//! no chunked transfer, no multipart. Every connection carries exactly
//! one request and one `Connection: close` response, which keeps the
//! handler pool trivially fair and the framing code small enough to
//! audit.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line plus all header lines, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, in bytes (OCCAM sources are small).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Most body bytes reserved before any arrive; a longer body grows its
/// buffer as it is read.
const BODY_CHUNK_BYTES: usize = 1024;

/// One parsed request: method, path and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Framing-level failure while reading a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header.
    Malformed(&'static str),
    /// Head or body exceeded its size cap.
    TooLarge(&'static str),
    /// The socket failed mid-read.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

fn read_line_capped(r: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => return Err(HttpError::Malformed("connection closed mid-line")),
            _ => {
                if *budget == 0 {
                    return Err(HttpError::TooLarge("head"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header"))
}

/// Read one request from `r`. Only `Content-Length` bodies are
/// understood; every other header is ignored.
///
/// # Errors
///
/// [`HttpError`] on malformed framing, size-cap violations or socket
/// failures.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line_capped(r, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?.to_string();
    let target = parts.next().ok_or(HttpError::Malformed("no request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    if parts.next().is_none() {
        return Err(HttpError::Malformed("no HTTP version"));
    }

    let mut content_length: usize = 0;
    loop {
        let line = read_line_capped(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without colon"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("unparseable content-length"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    // Grow the body with the bytes that arrive, not with the length the
    // head promises: a short head must not buy a large allocation.
    let mut body = Vec::with_capacity(content_length.min(BODY_CHUNK_BYTES));
    let read = r.take(content_length as u64).read_to_end(&mut body);
    if read.is_err() || body.len() < content_length {
        return Err(HttpError::Malformed("body shorter than declared"));
    }
    Ok(Request { method, path, body })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a one-shot JSON response and flush. The connection is meant to
/// be dropped afterwards (`Connection: close`).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(w: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len(),
    )?;
    w.flush()
}

/// Blocking single-request client: send `method path` with `body` to
/// `addr`, return `(status, body)`. Shared by the smoke binary, the
/// integration tests and anyone scripting against a local server
/// without curl.
///
/// # Errors
///
/// [`HttpError`] on connect/framing failures or a malformed response.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), HttpError> {
    let stream = TcpStream::connect(addr)?;
    let mut out = io::BufWriter::new(stream.try_clone()?);
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    out.flush()?;

    let mut r = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line_capped(&mut r, &mut budget)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("bad status line"))?;
    loop {
        if read_line_capped(&mut r, &mut budget)?.is_empty() {
            break;
        }
    }
    let mut body = String::new();
    r.read_to_string(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn strips_query_string_and_tolerates_missing_body() {
        let raw = b"GET /v1/health?verbose=1 HTTP/1.1\r\n\r\n";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.path, "/v1/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw =
            format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = read_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err, HttpError::TooLarge("body"));
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn response_framing_is_parseable() {
        let mut buf = Vec::new();
        write_response(&mut buf, 202, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        assert!(text.contains("Content-Length: 11\r\n"));
    }
}
