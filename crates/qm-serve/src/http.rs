//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the `qm-api/v1` surface (`POST`/`GET`, JSON bodies with
//! `Content-Length`), with hard caps on header and body size so a
//! misbehaving client cannot balloon server memory.
//!
//! This is deliberately not a general HTTP implementation: no chunked
//! transfer, no multipart. A connection is persistent: it carries one
//! request after another, each answered with a `Content-Length`
//! response written in one piece, until the client sends
//! `Connection: close` or speaks HTTP/1.0, or a request fails to frame
//! (which still gets its `400` or `413`). The caps apply to each
//! request. How long a connection may sit idle, and how long a request
//! may take to arrive, is the server's business (`server.rs`).
//!
//! One parser reads every head, request or response, from a byte
//! slice: [`parse_request`] takes the bytes that have arrived so far
//! and reports a request only once all of it is in, so the server can
//! keep a half-arrived request and go on to another connection.
//! [`read_request`] is its blocking form over a `BufRead`.
//!
//! [`request`] is the matching client: one request, one answer, over a
//! connection it keeps open for the calling thread's next request to
//! the same address.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line plus all header lines, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, in bytes (OCCAM sources are small).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Most bytes one socket read takes; a buffer grows by the bytes that
/// arrive, not by the length a head promises.
const READ_CHUNK: usize = 8 * 1024;

/// One parsed request: method, path, raw body bytes and whether the
/// connection closes after its response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// The client sent `Connection: close` or is not HTTP/1.1, so the
    /// connection ends with this request's response.
    pub close: bool,
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

/// A message head: its start line, the headers this module acts on and
/// its length in bytes, blank line included.
struct Head<'a> {
    start: &'a str,
    content_length: Option<usize>,
    /// `Connection` lists `close`.
    close: bool,
    len: usize,
}

/// Parse the head at the start of `buf`, request or response alike:
/// `Ok(None)` while its blank line has not arrived. Each line ends at
/// `\n`, a `\r` before it dropped; the head may take `MAX_HEAD_BYTES`.
fn parse_head(buf: &[u8]) -> Result<Option<Head<'_>>, HttpError> {
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let mut head = Head { start: "", content_length: None, close: false, len: 0 };
    let mut at = 0;
    loop {
        let Some(end) = window[at..].iter().position(|&b| b == b'\n') else {
            return if buf.len() >= MAX_HEAD_BYTES {
                Err(HttpError::TooLarge("head"))
            } else {
                Ok(None)
            };
        };
        let line = &window[at..at + end];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let line =
            std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header"))?;
        let first = at == 0;
        at += end + 1;
        if first {
            head.start = line;
            continue;
        }
        if line.is_empty() {
            head.len = at;
            return Ok(Some(head));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without colon"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("unparseable content-length"))?;
            head.content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") {
            head.close |= value.split(',').any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
}

/// Parse the request at the start of `buf`: the request and the bytes
/// it took, or `Ok(None)` while it has not arrived whole. Only
/// `Content-Length` bodies are understood; of the other headers only
/// `Connection` is read. The caps are checked as soon as the bytes
/// that break them are in, so a client cannot make the server buffer
/// past them.
///
/// # Errors
///
/// [`HttpError`] on malformed framing or size-cap violations.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head) = parse_head(buf)? else { return Ok(None) };
    let mut parts = head.start.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?;
    let target = parts.next().ok_or(HttpError::Malformed("no request target"))?;
    let path = target.split('?').next().unwrap_or(target);
    let version = parts.next().ok_or(HttpError::Malformed("no HTTP version"))?;
    let length = head.content_length.unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    let Some(body) = buf.get(head.len..head.len + length) else { return Ok(None) };
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.to_vec(),
        close: head.close || version != "HTTP/1.1",
    };
    Ok(Some((request, head.len + length)))
}

/// Read one request from `r`, leaving whatever follows it unread: the
/// blocking form of [`parse_request`].
///
/// # Errors
///
/// [`HttpError`] on malformed framing, size-cap violations, socket
/// failures or input that ends mid-request.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut buf = Vec::new();
    loop {
        let more = r.fill_buf()?;
        if more.is_empty() {
            return Err(HttpError::Malformed("connection closed mid-request"));
        }
        let (seen, took) = (buf.len(), more.len());
        buf.extend_from_slice(more);
        if let Some((request, used)) = parse_request(&buf)? {
            r.consume(used - seen);
            return Ok(request);
        }
        r.consume(took);
    }
}

/// Append what one read of `r` returns to `buf`, at most `READ_CHUNK`
/// bytes; `Ok(0)` is the end of the stream.
pub(crate) fn read_some(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<usize> {
    let len = buf.len();
    buf.resize(len + READ_CHUNK, 0);
    let read = r.read(&mut buf[len..]);
    buf.truncate(len + read.as_ref().map_or(0, |&n| n));
    read
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

/// Write a JSON response, head and body, in one write. With `close` it
/// carries `Connection: close`, and the connection is meant to be
/// dropped afterwards.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(w: &mut impl Write, status: u16, body: &str, close: bool) -> io::Result<()> {
    let mut out = Vec::with_capacity(body.len() + 128);
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n",
        status_text(status),
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    )?;
    out.extend_from_slice(body.as_bytes());
    w.write_all(&out)?;
    w.flush()
}

thread_local! {
    /// The calling thread's idle client connection and the address it
    /// is open to.
    static IDLE: RefCell<Option<(String, TcpStream)>> = const { RefCell::new(None) };
}

/// Blocking client: send `method path` with `body` to `addr`, return
/// `(status, body)`. Shared by the smoke binary, the integration tests
/// and anyone scripting against a local server without curl.
///
/// The connection stays open for the calling thread's next request to
/// the same address; a thread keeps at most one idle connection. When a
/// reused connection fails before any byte of the response arrives (the
/// server may have closed it while it sat idle), the request is sent
/// once more on a new connection. It is never resent once its response
/// has begun, so a `POST` is not applied twice.
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
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    let idle = IDLE.with(|idle| idle.borrow_mut().take()).filter(|(to, _)| to == addr);
    let reused = idle.is_some();
    let mut conn = match idle {
        Some((_, conn)) => conn,
        None => connect(addr)?,
    };
    let mut answer = exchange(&mut conn, message.as_bytes());
    if reused && matches!(answer, Err((true, _))) {
        conn = connect(addr)?;
        answer = exchange(&mut conn, message.as_bytes());
    }
    let (status, body, reusable) = answer.map_err(|(_, e)| e)?;
    if reusable {
        IDLE.with(|idle| *idle.borrow_mut() = Some((addr.to_string(), conn)));
    }
    Ok((status, body))
}

fn connect(addr: &str) -> Result<TcpStream, HttpError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send `message` on `conn` and read the response: status, body and
/// whether the connection can carry another request. An error comes
/// with whether it struck before any byte of the response arrived.
fn exchange(
    conn: &mut TcpStream,
    message: &[u8],
) -> Result<(u16, String, bool), (bool, HttpError)> {
    conn.write_all(message).map_err(|e| (true, HttpError::from(e)))?;
    let mut buf = Vec::new();
    loop {
        match read_some(conn, &mut buf) {
            Ok(0) if buf.is_empty() => {
                return Err((true, HttpError::Malformed("connection closed before the response")))
            }
            Ok(0) => return Err((false, HttpError::Malformed("connection closed mid-response"))),
            Ok(_) => {}
            Err(e) => return Err((buf.is_empty(), e.into())),
        }
        if let Some((status, body, close, used)) = parse_response(&buf).map_err(|e| (false, e))? {
            // Bytes past the response mean the connection is out of step.
            return Ok((status, body, !close && used == buf.len()));
        }
    }
}

/// Parse the response at the start of `buf`: status, body, whether the
/// server closes the connection, and the bytes it took; `Ok(None)`
/// while it has not arrived whole.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, String, bool, usize)>, HttpError> {
    let Some(head) = parse_head(buf)? else { return Ok(None) };
    let status: u16 = head
        .start
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("bad status line"))?;
    let length = head.content_length.ok_or(HttpError::Malformed("no content-length"))?;
    let end = head.len.saturating_add(length);
    let Some(body) = buf.get(head.len..end) else { return Ok(None) };
    let body =
        String::from_utf8(body.to_vec()).map_err(|_| HttpError::Malformed("non-UTF-8 response"))?;
    Ok(Some((status, body, head.close, end)))
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
    fn one_reader_carries_requests_back_to_back() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}\
                    GET /v1/health HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n";
        let mut r = Cursor::new(&raw[..]);
        let first = read_request(&mut r).unwrap();
        assert_eq!(
            (first.path.as_str(), &first.body[..], first.close),
            ("/v1/jobs", &b"{}"[..], false)
        );
        let second = read_request(&mut r).unwrap();
        assert_eq!((second.path.as_str(), second.close), ("/v1/health", true));
    }

    #[test]
    fn a_request_parses_once_all_of_it_is_in() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET";
        let whole = raw.len() - 3;
        for end in 0..whole {
            assert_eq!(parse_request(&raw[..end]), Ok(None), "{end} bytes");
        }
        for end in whole..=raw.len() {
            let (req, used) = parse_request(&raw[..end]).unwrap().unwrap();
            assert_eq!((&req.body[..], used), (&b"abcd"[..], whole));
        }
    }

    #[test]
    fn caps_hold_before_the_request_is_whole() {
        let mut head = b"GET / HTTP/1.1\r\nX: ".to_vec();
        head.resize(MAX_HEAD_BYTES - 1, b'a');
        assert_eq!(parse_request(&head), Ok(None));
        head.push(b'a');
        assert_eq!(parse_request(&head), Err(HttpError::TooLarge("head")));
        let declared = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse_request(declared.as_bytes()), Err(HttpError::TooLarge("body")));
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nno colon"),
            Ok(None),
            "a line is judged once it ends"
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nno colon\r\n"),
            Err(HttpError::Malformed("header without colon"))
        );
    }

    #[test]
    fn http_1_0_and_connection_close_end_the_connection() {
        for (raw, close) in [
            (&b"GET / HTTP/1.1\r\n\r\n"[..], false),
            (b"GET / HTTP/1.1\r\nconnection: Close\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", true),
        ] {
            assert_eq!(read_request(&mut Cursor::new(raw)).unwrap().close, close, "{raw:?}");
        }
    }

    #[test]
    fn response_framing_is_parseable() {
        for close in [false, true] {
            let mut buf = Vec::new();
            write_response(&mut buf, 202, "{\"ok\":true}", close).unwrap();
            let (status, body, closes, used) = parse_response(&buf).unwrap().unwrap();
            assert_eq!(
                (status, body.as_str(), closes, used),
                (202, "{\"ok\":true}", close, buf.len())
            );
            let text = String::from_utf8(buf).unwrap();
            assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
            assert!(text.contains("Content-Length: 11\r\n"));
            assert_eq!(text.contains("Connection: close\r\n"), close);
        }
    }
}
