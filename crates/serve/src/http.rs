//! Minimal HTTP/1.1 support over `std::net` — just enough for the serving
//! protocol: request-line + header parsing with a `Content-Length` body on
//! the way in, `Connection: close` responses on the way out, and a blocking
//! client helper for tests and the `serve_bench` binary.
//!
//! The build environment is offline, so no HTTP crate is available; this
//! deliberately supports only what the protocol uses (no chunked encoding,
//! no keep-alive, no query strings).
//!
//! Reads happen under the socket deadline the connection handler sets, so a
//! client that opens a connection and trickles bytes (slow loris) gets a
//! `408` and its thread back instead of parking a handler forever; a body
//! larger than the configured cap is refused with `413` before it is read,
//! and a request line or header section past its cap is refused with `414`
//! or `431` as soon as the cap is crossed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Default upper bound on accepted request bodies (64 MiB): an uploaded
/// edge list for the largest study graphs fits comfortably, while a stray
/// client cannot make the server buffer arbitrary amounts. Overridable via
/// `ServeConfig::max_body_bytes`.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Longest accepted request or header line, in bytes before its LF (a CR
/// counts). A longer request line is answered `414`, a longer header line
/// `431`, as soon as this many bytes plus one arrive without an LF.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request; one more is answered `431`.
pub const MAX_HEADERS: usize = 100;

/// Why a request could not be read. Maps onto the response status so the
/// connection handler answers with the right code instead of a blanket 400.
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically broken request (bad request line, bad Content-Length).
    Malformed(String),
    /// The socket deadline expired before a full request arrived.
    TimedOut,
    /// The declared body exceeds the server's byte cap.
    TooLarge(String),
    /// The request line exceeds [`MAX_LINE_BYTES`].
    RequestLineTooLong(String),
    /// A header line exceeds [`MAX_LINE_BYTES`], or the request has more
    /// than [`MAX_HEADERS`] of them.
    HeadersTooLarge(String),
}

impl RequestError {
    /// The HTTP status this error answers with (`400`, `408`, `413`, `414`
    /// or `431`).
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::TimedOut => 408,
            RequestError::TooLarge(_) => 413,
            RequestError::RequestLineTooLong(_) => 414,
            RequestError::HeadersTooLarge(_) => 431,
        }
    }

    /// Human-readable message for the error body.
    pub fn message(&self) -> String {
        match self {
            RequestError::Malformed(m)
            | RequestError::TooLarge(m)
            | RequestError::RequestLineTooLong(m)
            | RequestError::HeadersTooLarge(m) => m.clone(),
            RequestError::TimedOut => {
                "request read deadline expired before a full request arrived".to_string()
            }
        }
    }
}

fn io_error(context: &str, e: &std::io::Error) -> RequestError {
    match e.kind() {
        // Both kinds occur for an expired SO_RCVTIMEO depending on platform.
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RequestError::TimedOut,
        _ => RequestError::Malformed(format!("{context}: {e}")),
    }
}

/// A parsed request: method, path, and raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client, matched exactly).
    pub method: String,
    /// Absolute path, e.g. `/jobs/3/cancel`.
    pub path: String,
    /// Raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or an error message for invalid encodings.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_string())
    }
}

/// Reads one line through its LF, or up to EOF, into `buf` and returns it
/// as text. Past [`MAX_LINE_BYTES`] it stops with `too_long`, having
/// consumed nothing beyond the byte that crossed the cap.
fn read_line<'a, R: BufRead>(
    reader: &mut R,
    buf: &'a mut Vec<u8>,
    what: &str,
    too_long: fn(String) -> RequestError,
) -> Result<&'a str, RequestError> {
    buf.clear();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)
        .map_err(|e| io_error(&format!("read {what}"), &e))?;
    if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        return Err(too_long(format!("{what} exceeds {MAX_LINE_BYTES} bytes")));
    }
    std::str::from_utf8(buf)
        .map_err(|_| RequestError::Malformed(format!("{what} is not valid UTF-8")))
}

/// Reads one request from `stream`, refusing bodies above `max_body` bytes
/// and request lines or header sections past [`MAX_LINE_BYTES`] and
/// [`MAX_HEADERS`]. On a socket, the caller arms the read deadline first;
/// an expired deadline surfaces as [`RequestError::TimedOut`] (a `408`).
pub fn read_request<R: Read>(stream: R, max_body: usize) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let request_line =
        read_line(&mut reader, &mut line, "request line", RequestError::RequestLineTooLong)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no path".to_string()))?
        .to_string();
    let mut content_length = 0usize;
    for count in 0.. {
        let header =
            read_line(&mut reader, &mut line, "header line", RequestError::HeadersTooLarge)?
                .trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            let message = format!("more than {MAX_HEADERS} header lines");
            return Err(RequestError::HeadersTooLarge(message));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    RequestError::Malformed(format!("bad Content-Length {:?}", value.trim()))
                })?;
            }
        }
    }
    if content_length > max_body {
        return Err(RequestError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {max_body} byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| io_error("read body", &e))?;
    Ok(Request { method, path, body })
}

/// Writes a `Connection: close` response with the given status, extra
/// headers (e.g. `Retry-After` on a 429), and body.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    // The peer may already have hung up; nothing useful to do about it.
    let _ = stream.write_all(head.as_bytes()).and_then(|()| stream.write_all(body));
    let _ = stream.flush();
}

/// A response as seen by the blocking client helper.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Parses the body as JSON; panics with context on failure (the helper
    /// is test/bench-side, where a malformed body is a hard bug).
    pub fn json(&self) -> graphalign_json::Json {
        graphalign_json::from_str(&self.body)
            .unwrap_or_else(|e| panic!("malformed response body {:?}: {e:?}", self.body))
    }

    /// The first header with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// Blocking one-shot HTTP exchange against `addr` (e.g. `"127.0.0.1:7464"`).
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("send request: {e}"))?;
    stream.write_all(body).map_err(|e| format!("send body: {e}"))?;
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header).map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            reader.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader.read_to_end(&mut body).map_err(|e| format!("read body: {e}"))?;
        }
    }
    let body =
        String::from_utf8(body).map_err(|_| "response body is not valid UTF-8".to_string())?;
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const VALID: &[u8] = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nok";

    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        read_request(bytes, 64)
    }

    /// A request whose request line is `len` bytes before its LF.
    fn request_line_of(len: usize) -> Vec<u8> {
        let path = "a".repeat(len - "GET / HTTP/1.1\r".len());
        format!("GET /{path} HTTP/1.1\r\n\r\n").into_bytes()
    }

    /// A request with one header line of `len` bytes before its LF.
    fn header_line_of(len: usize) -> Vec<u8> {
        let value = "v".repeat(len - "X: \r".len());
        format!("GET / HTTP/1.1\r\nX: {value}\r\n\r\n").into_bytes()
    }

    fn headers(count: usize) -> Vec<u8> {
        format!("GET / HTTP/1.1\r\n{}\r\n", "X: 1\r\n".repeat(count)).into_bytes()
    }

    /// Parsing must end in a request or a classified refusal.
    fn assert_classified(result: Result<Request, RequestError>) {
        if let Err(e) = result {
            assert!(matches!(e.status(), 400 | 413 | 414 | 431), "{e:?}");
        }
    }

    #[test]
    fn reads_method_path_and_body() {
        let r = parse(VALID).unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/jobs"));
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn request_line_at_the_cap_parses_and_one_byte_over_is_414() {
        let at = parse(&request_line_of(MAX_LINE_BYTES)).unwrap();
        assert_eq!(at.path.len(), MAX_LINE_BYTES - "GET  HTTP/1.1\r".len());
        let over = parse(&request_line_of(MAX_LINE_BYTES + 1)).unwrap_err();
        assert_eq!(over.status(), 414);
        // cap + 1 bytes without a newline decide it, and so does an endless
        // line: the reader stops at the cap instead of buffering on.
        let unterminated = parse(&[b'G'; MAX_LINE_BYTES + 1]).unwrap_err();
        assert_eq!(unterminated.status(), 414);
        assert_eq!(read_request(std::io::repeat(b'G'), 64).unwrap_err().status(), 414);
    }

    #[test]
    fn header_line_at_the_cap_parses_and_one_byte_over_is_431() {
        parse(&header_line_of(MAX_LINE_BYTES)).unwrap();
        let over = parse(&header_line_of(MAX_LINE_BYTES + 1)).unwrap_err();
        assert_eq!(over.status(), 431);
        let endless = b"GET / HTTP/1.1\r\nX: ".chain(std::io::repeat(b'v'));
        assert_eq!(read_request(endless, 64).unwrap_err().status(), 431);
    }

    #[test]
    fn header_count_at_the_cap_parses_and_one_more_is_431() {
        parse(&headers(MAX_HEADERS)).unwrap();
        assert_eq!(parse(&headers(MAX_HEADERS + 1)).unwrap_err().status(), 431);
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_valid_request_is_classified() {
        for cut in 0..=VALID.len() {
            assert_classified(parse(&VALID[..cut]));
        }
        for bit in 0..VALID.len() * 8 {
            let mut flipped = VALID.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_classified(parse(&flipped));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_are_classified(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            assert_classified(parse(&bytes));
        }

        #[test]
        fn long_arbitrary_lines_are_classified(
            bytes in proptest::collection::vec(0u8..=255, 8000..8400),
            newline in 0usize..8400,
        ) {
            let mut bytes = bytes;
            let at = newline.min(bytes.len() - 1);
            bytes[at] = b'\n';
            assert_classified(parse(&bytes));
        }

        #[test]
        fn truncated_and_flipped_requests_are_classified(
            cut in 0usize..VALID.len() + 1,
            bit in 0usize..VALID.len() * 8,
        ) {
            let mut bytes = VALID.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes.truncate(cut);
            assert_classified(parse(&bytes));
        }
    }
}
