//! A small closed-loop HTTP/1.1 client.
//!
//! Requests and responses are framed by `Content-Length`. The client keeps
//! its connection whenever the server leaves it open and reconnects when
//! the server answers `Connection: close` (or closed an idle kept
//! connection), so a server that starts keeping connections alive shows up
//! in the numbers without a change here. It counts the connects it makes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(10);
const MAX_HEAD: usize = 16 * 1024;

/// One response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// The body as text.
    pub body: String,
}

/// A client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connects made so far.
    pub connects: u64,
}

/// Why an exchange failed.
enum ExchangeError {
    /// A kept connection was closed before any response byte arrived: the
    /// request can be sent again on a fresh connection.
    Stale,
    /// Anything else.
    Io(io::Error),
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(1024),
            connects: 0,
        }
    }

    /// Sends one request and reads the whole response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: wdm\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if let Some(stream) = self.stream.take() {
            match self.exchange(stream, request.as_bytes(), true) {
                Err(ExchangeError::Stale) => {}
                Err(ExchangeError::Io(e)) => return Err(e),
                Ok(r) => return Ok(r),
            }
        }
        let stream = TcpStream::connect(self.addr)?;
        self.connects += 1;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        match self.exchange(stream, request.as_bytes(), false) {
            Ok(r) => Ok(r),
            Err(ExchangeError::Stale) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without a response",
            )),
            Err(ExchangeError::Io(e)) => Err(e),
        }
    }

    fn exchange(
        &mut self,
        mut stream: TcpStream,
        request: &[u8],
        reused: bool,
    ) -> Result<Response, ExchangeError> {
        let stale = |e: io::Error| {
            if reused {
                ExchangeError::Stale
            } else {
                ExchangeError::Io(e)
            }
        };
        stream.write_all(request).map_err(stale)?;
        self.buf.clear();
        let mut chunk = [0u8; 2048];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(ExchangeError::Io(invalid("response head too large")));
            }
            match stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => {
                    return Err(stale(io::Error::from(io::ErrorKind::UnexpectedEof)))
                }
                Ok(0) => return Err(ExchangeError::Io(invalid("eof inside response head"))),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if self.buf.is_empty() => return Err(stale(e)),
                Err(e) => return Err(ExchangeError::Io(e)),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| ExchangeError::Io(invalid("malformed status line")))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| ExchangeError::Io(invalid("bad content-length")))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| ExchangeError::Io(invalid("no content-length")))?;
        let mut body = self.buf[head_end + 4..].to_vec();
        while body.len() < length {
            match stream.read(&mut chunk) {
                Ok(0) => return Err(ExchangeError::Io(invalid("eof inside response body"))),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(ExchangeError::Io(e)),
            }
        }
        body.truncate(length);
        if !close {
            self.stream = Some(stream);
        }
        Ok(Response {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The number after `"key":` in a flat JSON object, if present.
pub fn json_number(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn json_numbers_are_found_by_key() {
        let body = "{\"id\":17,\"cost\":12.5,\"load\":1e-3,\"changed\":true}\n";
        assert_eq!(json_number(body, "id"), Some(17.0));
        assert_eq!(json_number(body, "cost"), Some(12.5));
        assert_eq!(json_number(body, "load"), Some(0.001));
        assert_eq!(json_number(body, "changed"), None);
        assert_eq!(json_number(body, "missing"), None);
    }

    /// Answers each accepted connection's requests with `responses`, one
    /// per request, keeping or closing the connection as they say.
    fn serve(responses: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut pending = responses.into_iter();
            'outer: while let Some(mut reply) = pending.next() {
                let (mut conn, _) = listener.accept().unwrap();
                accepted += 1;
                loop {
                    let mut buf = [0u8; 1024];
                    let n = conn.read(&mut buf).unwrap();
                    assert!(n > 0);
                    conn.write_all(reply.as_bytes()).unwrap();
                    if reply.contains("Connection: close") {
                        continue 'outer;
                    }
                    match pending.next() {
                        Some(r) => reply = r,
                        None => break 'outer,
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn reconnects_only_when_the_server_closes() {
        let (addr, handle) = serve(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
            "HTTP/1.1 409 Conflict\r\nContent-Length: 3\r\nConnection: close\r\n\r\nno!",
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
        ]);
        let mut c = Client::new(addr);
        let a = c.send("GET", "/x", "").unwrap();
        assert_eq!((a.status, a.body.as_str()), (200, "ok"));
        let b = c.send("POST", "/y", "{}").unwrap();
        assert_eq!((b.status, b.body.as_str()), (409, "no!"));
        let d = c.send("GET", "/z", "").unwrap();
        assert_eq!((d.status, d.body.as_str()), (200, "hello"));
        // The first connection carried two requests; the close forced one
        // more connect.
        assert_eq!(c.connects, 2);
        assert_eq!(handle.join().unwrap(), 2);
    }
}
