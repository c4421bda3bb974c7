//! A minimal, hardened HTTP/1.1 server edge over `std::net`.
//!
//! Just enough of the protocol for the job API — request line, a
//! handful of headers, `Content-Length` bodies, `Connection: close`
//! one-shot responses — with the hostile-input hardening a listening
//! daemon needs:
//!
//! * **Head cap** ([`HEAD_CAP`]): a request head larger than 8 KiB is
//!   answered `431` and dropped, however fast it arrives.
//! * **Body cap** ([`BODY_CAP`]): a declared or actual body beyond
//!   1 MiB is answered `413` without buffering it.
//! * **Read deadline**: the socket carries a read timeout; a client
//!   that dribbles bytes (slow-loris) or stalls mid-body is answered
//!   `408` and dropped instead of pinning the connection thread.
//! * **Typed errors**: every parse failure maps to a status and a JSON
//!   body — the daemon never panics on wire input.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum size of the request head (request line + headers).
pub const HEAD_CAP: usize = 8 * 1024;
/// Maximum size of a request body.
pub const BODY_CAP: usize = 1024 * 1024;
/// Default per-socket read deadline.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, upper-case as received.
    pub method: String,
    /// The request target (path only; no scheme/host handling).
    pub path: String,
    /// The body, present when `Content-Length` said so.
    pub body: Vec<u8>,
}

/// A request that could not be read, with the status line to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The HTTP status code to answer with.
    pub status: u16,
    /// Human-readable detail for the JSON error body.
    pub detail: String,
}

impl HttpError {
    fn new(status: u16, detail: impl Into<String>) -> Self {
        HttpError {
            status,
            detail: detail.into(),
        }
    }
}

/// The canonical reason phrase for the handful of statuses we emit.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Reads one request from `stream` under the caps and the given read
/// deadline.
///
/// # Errors
///
/// Returns the status-typed [`HttpError`] to answer with; the caller
/// writes it and closes.
pub fn read_request(stream: &mut TcpStream, deadline: Duration) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(deadline))
        .map_err(|e| HttpError::new(408, format!("cannot arm read deadline: {e}")))?;
    // Accumulate the head byte-wise up to the cap or the blank line.
    let mut head: Vec<u8> = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let (head_len, mut spill) = loop {
        // The cap binds even when the head terminator arrives in the
        // same read chunk: a complete-but-oversized head is still 431.
        if let Some(end) = find_head_end(&head) {
            if end > HEAD_CAP {
                return Err(HttpError::new(
                    431,
                    format!("request head exceeds {HEAD_CAP} bytes"),
                ));
            }
            break (end, head.split_off(end));
        }
        if head.len() > HEAD_CAP {
            return Err(HttpError::new(
                431,
                format!("request head exceeds {HEAD_CAP} bytes"),
            ));
        }
        let n = stream.read(&mut buf).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                HttpError::new(408, "read deadline elapsed before the request head")
            } else {
                HttpError::new(400, format!("read failed: {e}"))
            }
        })?;
        if n == 0 {
            return Err(HttpError::new(
                400,
                "connection closed before the request head completed",
            ));
        }
        head.extend_from_slice(&buf[..n]);
    };
    let head_text = std::str::from_utf8(&head[..head_len])
        .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::new(400, "missing method"))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::new(400, "missing or relative request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::new(400, "malformed request line"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header `{line}`")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::new(400, "unparseable Content-Length"))?;
        }
    }
    if content_length > BODY_CAP {
        return Err(HttpError::new(
            413,
            format!("declared body of {content_length} bytes exceeds {BODY_CAP}"),
        ));
    }
    // The body: whatever spilled past the head, then the remainder under
    // the same read deadline.
    spill.truncate(spill.len().min(content_length));
    let mut body = spill;
    while body.len() < content_length {
        let n = stream.read(&mut buf).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                HttpError::new(408, "read deadline elapsed mid-body")
            } else {
                HttpError::new(400, format!("body read failed: {e}"))
            }
        })?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-body"));
        }
        let want = content_length - body.len();
        body.extend_from_slice(&buf[..n.min(want)]);
    }
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        body,
    })
}

/// Index one past the `\r\n\r\n` (or lone `\n\n`) head terminator.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| bytes.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// Writes one `Connection: close` response; errors are swallowed (the
/// peer may already be gone, and there is nothing left to salvage).
pub fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason_phrase(status),
        body.len(),
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

/// Writes the JSON error body for `err`.
pub fn write_error(stream: &mut TcpStream, err: &HttpError) {
    let body = format!(
        "{{\"error\":\"{}\",\"status\":{}}}\n",
        mce_obs::escape_json(&err.detail),
        err.status
    );
    write_response(stream, err.status, "application/json", &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection_handles_both_conventions() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn reason_phrases_cover_the_statuses_we_emit() {
        for status in [200, 202, 400, 404, 405, 408, 409, 413, 431, 503] {
            assert_ne!(reason_phrase(status), "Error", "{status}");
        }
        assert_eq!(reason_phrase(599), "Error");
    }
}
