//! A dependency-free, hardened HTTP/1.1 listener core.
//!
//! The `wdm serve` daemon speaks through this one implementation. The
//! parser is deliberately small — request line,
//! headers, optional `Content-Length` body, `Connection: close` responses
//! — but strict about the ways real clients misbehave:
//!
//! * **partial reads** — the head is accumulated across however many
//!   `read` calls the socket needs; a peer that stalls mid-head hits the
//!   socket read timeout instead of wedging the accept loop;
//! * **oversized request lines/heads** — heads are capped at
//!   [`MAX_HEAD_BYTES`]; one byte over returns [`HttpError::HeadTooLarge`]
//!   (431) without buffering the rest;
//! * **bad `Content-Length`** — non-numeric, negative, overflowing or
//!   over-[`MAX_BODY_BYTES`] declarations are rejected before any body
//!   byte is read;
//! * **early disconnect** — EOF mid-head or mid-body returns
//!   [`HttpError::Disconnected`], never a partial [`Request`].
//!
//! Every error maps to a proper status line via [`HttpError::status`], so
//! the serving loop can answer malformed input and move on.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on the request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Hard cap on a declared request body.
pub const MAX_BODY_BYTES: usize = 256 * 1024;
/// Default per-socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The head never terminated within [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body length is invalid or beyond [`MAX_BODY_BYTES`].
    BadContentLength(String),
    /// The request line is not `METHOD target HTTP/…`.
    MalformedHead(String),
    /// The peer closed the connection before a full request arrived.
    Disconnected,
    /// The socket timed out mid-request.
    Timeout,
    /// Any other socket error.
    Io(String),
}

impl HttpError {
    /// The status line this error answers with.
    pub fn status(&self) -> &'static str {
        match self {
            HttpError::HeadTooLarge => "431 Request Header Fields Too Large",
            HttpError::BadContentLength(_) | HttpError::MalformedHead(_) => "400 Bad Request",
            HttpError::Disconnected | HttpError::Io(_) => "400 Bad Request",
            HttpError::Timeout => "408 Request Timeout",
        }
    }

    /// Whether answering is pointless (the peer is already gone).
    pub fn peer_gone(&self) -> bool {
        matches!(self, HttpError::Disconnected | HttpError::Io(_))
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BadContentLength(v) => write!(f, "bad content-length {v:?}"),
            HttpError::MalformedHead(line) => write!(f, "malformed request line {line:?}"),
            HttpError::Disconnected => write!(f, "peer disconnected mid-request"),
            HttpError::Timeout => write!(f, "socket timed out"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/provision`.
    pub target: String,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// Reads and parses one request from `stream`, enforcing the module's
/// size caps and the socket's read timeout (installed here).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok();

    // Accumulate the head across partial reads, never past the cap.
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let want = chunk.len().min(MAX_HEAD_BYTES + 4 - buf.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(io_error(e)),
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = (parts.next(), parts.next(), parts.next());
    let (Some(method), Some(target), Some(version)) = (method, target, version) else {
        return Err(HttpError::MalformedHead(truncate_for_error(request_line)));
    };
    if !version.starts_with("HTTP/") {
        return Err(HttpError::MalformedHead(truncate_for_error(request_line)));
    }

    // Headers: only Content-Length matters to this server.
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let parsed: usize = value
                .parse()
                .map_err(|_| HttpError::BadContentLength(truncate_for_error(value)))?;
            if parsed > MAX_BODY_BYTES {
                return Err(HttpError::BadContentLength(format!(
                    "{parsed} (cap {MAX_BODY_BYTES})"
                )));
            }
            content_length = parsed;
        }
    }

    // The body: whatever followed the head in the buffer, then the rest
    // off the socket.
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        // More bytes than declared: pipelining is not supported here.
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let want = chunk.len().min(content_length - body.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(io_error(e)),
        }
    }

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn truncate_for_error(s: &str) -> String {
    const CAP: usize = 120;
    if s.len() <= CAP {
        s.to_string()
    } else {
        let mut end = CAP;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Writes one `Connection: close` response. Write errors are returned but
/// are normally ignorable — the peer may have hung up already.
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Convenience: a JSON `200 OK` (or other status) response.
pub fn write_json(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", &[], body.as_bytes())
}

/// Answers a read error with its mapped status (unless the peer is gone).
pub fn answer_error(stream: &mut TcpStream, err: &HttpError) {
    if err.peer_gone() {
        return;
    }
    let body = format!("{{\"error\":{:?}}}\n", err.to_string());
    let _ = write_json(stream, err.status(), &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves exactly one connection with `read_request` on a background
    /// thread; returns what the parser said.
    fn parse_one(client_bytes: &[u8], shutdown_after_write: bool) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_request(&mut conn)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(client_bytes).unwrap();
        client.flush().unwrap();
        if shutdown_after_write {
            drop(client);
        } else {
            client.shutdown(std::net::Shutdown::Write).ok();
        }
        handle.join().unwrap()
    }

    #[test]
    fn parses_a_full_post_across_partial_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_request(&mut conn)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        // Dribble the request a few bytes at a time across the head/body
        // boundary: the reader must reassemble it.
        let raw = b"POST /provision HTTP/1.1\r\nContent-Length: 17\r\n\r\n{\"src\":1,\"dst\":5}";
        for piece in raw.chunks(7) {
            client.write_all(piece).unwrap();
            client.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let req = handle.join().unwrap().expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/provision");
        assert_eq!(req.body, b"{\"src\":1,\"dst\":5}");
    }

    #[test]
    fn oversized_head_is_rejected_not_buffered_forever() {
        let mut raw = b"GET /".to_vec();
        raw.extend(vec![b'a'; MAX_HEAD_BYTES + 100]);
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse_one(&raw, false), Err(HttpError::HeadTooLarge));
    }

    #[test]
    fn bad_content_length_values_are_rejected() {
        for bad in ["banana", "-5", "999999999999999999999999"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            match parse_one(raw.as_bytes(), false) {
                Err(HttpError::BadContentLength(_)) => {}
                other => panic!("content-length {bad:?}: expected rejection, got {other:?}"),
            }
        }
        // Over the cap: structurally valid, still refused.
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse_one(raw.as_bytes(), false) {
            Err(HttpError::BadContentLength(_)) => {}
            other => panic!("expected over-cap rejection, got {other:?}"),
        }
    }

    #[test]
    fn early_disconnect_mid_head_and_mid_body_are_clean_errors() {
        // Mid-head: no terminating blank line ever arrives.
        assert_eq!(
            parse_one(b"POST /x HTT", true),
            Err(HttpError::Disconnected)
        );
        // Mid-body: 10 bytes promised, 3 delivered.
        assert_eq!(
            parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", true),
            Err(HttpError::Disconnected)
        );
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            "\r\n\r\n",                // empty request line
            "GET\r\n\r\n",             // no target
            "GET /x SMTP/1.0\r\n\r\n", // wrong protocol
            "GET /x\r\n\r\n",          // no version
        ] {
            match parse_one(raw.as_bytes(), false) {
                Err(HttpError::MalformedHead(_)) => {}
                other => panic!("{raw:?}: expected malformed-head, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_statuses_map_sensibly() {
        assert!(HttpError::HeadTooLarge.status().starts_with("431"));
        assert!(HttpError::Timeout.status().starts_with("408"));
        assert!(HttpError::MalformedHead(String::new())
            .status()
            .starts_with("400"));
        assert!(HttpError::Disconnected.peer_gone());
        assert!(!HttpError::Timeout.peer_gone());
    }

    #[test]
    fn write_response_emits_well_formed_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write_response(
                &mut conn,
                "503 Service Unavailable",
                "application/json",
                &[("Retry-After", "1")],
                b"{\"error\":\"overloaded\"}",
            )
            .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        handle.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.ends_with("{\"error\":\"overloaded\"}"));
    }
}
