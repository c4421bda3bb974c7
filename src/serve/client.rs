//! The client side of the job API: a tiny retrying HTTP/1.1 client used
//! by `mce submit` and `mce jobs`.
//!
//! Connects fresh per request (the daemon answers `Connection: close`),
//! retrying refused connections with the same [`backoff_after`]
//! schedule the daemon's executor uses — so a client racing a daemon
//! restart waits out the gap instead of erroring.

use super::journal::JobSpec;
use super::{addr_path, backoff_after};
use mce_error::MceError;
use mce_obs::json;
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Reads the daemon's published listen address from `<dir>/serve.addr`.
///
/// # Errors
///
/// Returns [`MceError::InvalidInput`] when no daemon has published an
/// address for `dir` (not running, or never started there).
pub fn read_addr(dir: &Path) -> Result<String, MceError> {
    let path = addr_path(dir);
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok(text.trim().to_owned()),
        Err(_) => Err(MceError::invalid_input(format!(
            "no daemon address at {}; is `mce serve --dir {}` running?",
            path.display(),
            dir.display()
        ))),
    }
}

/// One response from the daemon.
#[derive(Debug, Clone)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The response body (JSON, per the API).
    pub body: String,
}

impl Response {
    /// Whether the daemon answered 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A job-API client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Connection attempts before giving up (refused connections back
    /// off between tries).
    connect_tries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
}

impl Client {
    /// A client for `addr` with the default retry posture: five
    /// connection attempts backing off 250 ms → 2 s.
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            connect_tries: 5,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_millis(2000),
        }
    }

    /// A client that fails fast (single connection attempt). Used by
    /// tests probing "daemon is down" behavior.
    pub fn one_shot(addr: impl Into<String>) -> Self {
        Client {
            connect_tries: 1,
            ..Client::new(addr)
        }
    }

    /// Submits a job; on 200 returns the assigned job id.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::InvalidInput`] when the daemon refuses the
    /// job (draining, malformed spec) and [`MceError::Io`] on transport
    /// failures.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, MceError> {
        let body = json::to_string(spec);
        let response = self.request("POST", "/jobs", Some(&body))?;
        if !response.is_ok() {
            return Err(MceError::invalid_input(format!(
                "daemon refused the job ({}): {}",
                response.status,
                response.body.trim()
            )));
        }
        parse_id_field(&response.body).ok_or_else(|| {
            MceError::invalid_input(format!(
                "daemon acknowledgement missing an id: {}",
                response.body.trim()
            ))
        })
    }

    /// `GET /jobs` — one summary JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] on transport failures.
    pub fn list(&self) -> Result<String, MceError> {
        Ok(self.request("GET", "/jobs", None)?.body)
    }

    /// `GET /jobs/<id>` — one summary JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::InvalidInput`] for an unknown id and
    /// [`MceError::Io`] on transport failures.
    pub fn show(&self, id: u64) -> Result<String, MceError> {
        let response = self.request("GET", &format!("/jobs/{id}"), None)?;
        if !response.is_ok() {
            return Err(MceError::invalid_input(response.body.trim().to_owned()));
        }
        Ok(response.body)
    }

    /// `POST /jobs/<id>/cancel`.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::InvalidInput`] when the job is unknown or
    /// already terminal, [`MceError::Io`] on transport failures.
    pub fn cancel(&self, id: u64) -> Result<String, MceError> {
        let response = self.request("POST", &format!("/jobs/{id}/cancel"), None)?;
        if !response.is_ok() {
            return Err(MceError::invalid_input(response.body.trim().to_owned()));
        }
        Ok(response.body)
    }

    /// `GET /jobs/<id>/result` — the finished job's full run report.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::InvalidInput`] when the job is unknown or not
    /// done yet, [`MceError::Io`] on transport failures.
    pub fn result(&self, id: u64) -> Result<String, MceError> {
        let response = self.request("GET", &format!("/jobs/{id}/result"), None)?;
        if !response.is_ok() {
            return Err(MceError::invalid_input(response.body.trim().to_owned()));
        }
        Ok(response.body)
    }

    /// `GET /healthz`, as a plain up/down probe.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] when the daemon is unreachable.
    pub fn healthz(&self) -> Result<Response, MceError> {
        self.request("GET", "/healthz", None)
    }

    /// One full request/response exchange on a fresh connection.
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<Response, MceError> {
        let mut stream = self.connect()?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        let ctx = || format!("request {method} {path} to {}", self.addr);
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .and_then(|()| stream.flush())
            .map_err(|e| MceError::io(ctx(), e))?;
        let mut raw = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .and_then(|()| stream.read_to_end(&mut raw))
            .map_err(|e| MceError::io(ctx(), e))?;
        parse_response(&raw).ok_or_else(|| {
            MceError::invalid_input(format!("unparseable response from {}", self.addr))
        })
    }

    /// Connects with refused-connection retries on the executor's
    /// backoff schedule.
    fn connect(&self) -> Result<TcpStream, MceError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.connect_tries {
            std::thread::sleep(backoff_after(attempt, self.backoff_base, self.backoff_cap));
            match TcpStream::connect(&self.addr) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(MceError::io(
            format!(
                "connect to {} ({} attempt(s))",
                self.addr, self.connect_tries
            ),
            last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")),
        ))
    }
}

/// Parses a raw HTTP/1.1 response into status + body. Lenient — the
/// daemon is trusted; this only needs the status line and body split.
fn parse_response(raw: &[u8]) -> Option<Response> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let body = String::from_utf8_lossy(&raw[head_end..]).into_owned();
    Some(Response { status, body })
}

/// Pulls the `"id"` field out of a submit acknowledgement.
fn parse_id_field(body: &str) -> Option<u64> {
    json::parse(body).ok()?.get("id")?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_splits_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{\"id\":7}\n";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"id\":7}\n");
        assert!(response.is_ok());
        assert!(parse_response(b"garbage").is_none());
    }

    #[test]
    fn id_field_extraction_is_tolerant_of_spacing() {
        assert_eq!(parse_id_field("{\"id\":7,\"state\":\"queued\"}"), Some(7));
        assert_eq!(parse_id_field("{\"id\": 42}"), Some(42));
        assert_eq!(parse_id_field("{\"state\":\"queued\"}"), None);
    }
}
