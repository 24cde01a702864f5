//! A tiny `std`-only HTTP/1.1 client for talking to `branchlabd`.
//!
//! Shared by the integration tests and perfbench's `serve` workload,
//! so neither needs an external HTTP dependency. Supports exactly what
//! the daemon speaks: one request/response at a time over a keep-alive
//! connection, with `Content-Length` bodies.
//!
//! For crash-only serving the client carries the other half of the
//! contract: [`one_shot_with_retry`] retries transport failures and
//! `5xx` responses with seeded, jittered exponential backoff, honors
//! the server's `Retry-After` projection, and gives up when a total
//! retry *budget* of sleep time is spent — surfacing the last error
//! rather than hammering a daemon that is restarting or shedding load.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use branchlab_telemetry::Rng;

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    addr: String,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(stream),
            addr: addr.to_string(),
        })
    }

    /// The address this client is connected to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issue `GET path`.
    ///
    /// # Errors
    /// Propagates transport and protocol errors.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Issue `POST path` with a JSON body.
    ///
    /// # Errors
    /// Propagates transport and protocol errors.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// Issue a request with extra headers (e.g. `X-Branchlab-Trace-Id`
    /// to pin a request's trace id for later `/debug/traces/<id>`
    /// lookup).
    ///
    /// # Errors
    /// Propagates transport and protocol errors.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            stream.write_all(body)?;
        }
        stream.flush()?;
        self.read_response()
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        self.request_with(method, path, &[], body)
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// One-shot convenience: connect, issue a single request, return the
/// response.
///
/// # Errors
/// Propagates connect, transport, and protocol errors.
pub fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    let mut client = Client::connect(addr)?;
    match (method, body) {
        ("GET", _) => client.get(path),
        ("POST", Some(body)) => client.post_json(path, body),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "unsupported method/body combination",
        )),
    }
}

/// How [`one_shot_with_retry`] paces its attempts.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total before the last outcome is surfaced).
    pub max_retries: u32,
    /// Backoff ceiling for the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Hard cap on any single backoff.
    pub max_backoff: Duration,
    /// Total sleep allowed across all retries; a wait that would
    /// exceed it ends the attempt loop and surfaces the last outcome.
    pub retry_budget: Duration,
    /// Seed for the jitter, so a test or replayed run backs off
    /// identically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            retry_budget: Duration::from_secs(15),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered exponential backoff for retry `attempt` (0-based):
    /// uniformly drawn from `[ceiling/2, ceiling)` where the ceiling
    /// doubles per attempt up to [`RetryPolicy::max_backoff`]. Pure
    /// and deterministic in `(seed, attempt)` — decorrelated jitter
    /// without wall-clock or global-RNG inputs.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base_us = u64::try_from(self.base_backoff.as_micros()).unwrap_or(u64::MAX);
        let max_us = u64::try_from(self.max_backoff.as_micros()).unwrap_or(u64::MAX);
        let ceiling_us = base_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(max_us)
            .max(2);
        let low = ceiling_us / 2;
        let span = (ceiling_us - low).max(1);
        let mut rng =
            Rng::seed_from_u64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Duration::from_micros(low + rng.next_u64() % span)
    }

    /// The actual wait before retry `attempt`: the jittered backoff,
    /// raised to the server's `Retry-After` when one was sent (the
    /// server's queue-wait projection beats the client's guess).
    #[must_use]
    pub fn retry_wait(&self, attempt: u32, retry_after_secs: Option<u64>) -> Duration {
        let jittered = self.backoff(attempt);
        match retry_after_secs {
            Some(secs) => jittered.max(Duration::from_secs(secs)),
            None => jittered,
        }
    }
}

/// Seconds from a response's `Retry-After` header, if present.
fn retry_after(resp: &ClientResponse) -> Option<u64> {
    resp.header("retry-after").and_then(|v| v.parse().ok())
}

/// [`one_shot`] with crash-only retry semantics: transport errors
/// (daemon restarting, connection refused) and `5xx` responses
/// (overload shed, deadline expiry, a chaos-killed worker) retry on a
/// fresh connection with jittered backoff; anything else returns
/// immediately. When retries or the sleep budget run out, the *last*
/// outcome — response or transport error — is surfaced unchanged.
///
/// # Errors
/// The final attempt's transport error, when every attempt failed at
/// the transport layer.
pub fn one_shot_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
) -> io::Result<ClientResponse> {
    let mut slept = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        let outcome = one_shot(addr, method, path, body);
        let hint = match &outcome {
            Ok(resp) if resp.status < 500 => return outcome,
            Ok(resp) => retry_after(resp),
            Err(_) => None,
        };
        if attempt >= policy.max_retries {
            return outcome;
        }
        let wait = policy.retry_wait(attempt, hint);
        if slept + wait > policy.retry_budget {
            return outcome;
        }
        std::thread::sleep(wait);
        slept += wait;
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_jitter_stays_in_bounds_and_is_deterministic() {
        let policy = RetryPolicy::default();
        for attempt in 0..10 {
            let base_us = u64::try_from(policy.base_backoff.as_micros()).unwrap();
            let max_us = u64::try_from(policy.max_backoff.as_micros()).unwrap();
            let ceiling = base_us.saturating_mul(1 << attempt).min(max_us);
            let got = u64::try_from(policy.backoff(attempt).as_micros()).unwrap();
            assert!(
                got >= ceiling / 2,
                "attempt {attempt}: {got} < {}",
                ceiling / 2
            );
            assert!(got < ceiling, "attempt {attempt}: {got} >= {ceiling}");
            // Same (seed, attempt) → same wait; a different seed moves it.
            assert_eq!(policy.backoff(attempt), policy.backoff(attempt));
        }
        let reseeded = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        assert!((0..10).any(|a| reseeded.backoff(a) != RetryPolicy::default().backoff(a)));
    }

    #[test]
    fn retry_wait_honors_retry_after() {
        let policy = RetryPolicy::default();
        // The jittered backoff for attempt 0 is well under a second,
        // so a 2s Retry-After must win...
        assert_eq!(
            policy.retry_wait(0, Some(2)),
            Duration::from_secs(2),
            "server projection should override a smaller jitter"
        );
        // ...and without the header the jitter stands.
        assert_eq!(policy.retry_wait(0, None), policy.backoff(0));
        // A huge jitter is not *lowered* by a small Retry-After.
        let slow = RetryPolicy {
            base_backoff: Duration::from_secs(8),
            max_backoff: Duration::from_secs(8),
            ..RetryPolicy::default()
        };
        assert!(slow.retry_wait(0, Some(1)) >= Duration::from_secs(4));
    }

    /// A throwaway server answering each connection with one canned
    /// response from `script` (the last entry repeats).
    fn canned_server(script: Vec<&'static str>) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hits = Arc::new(AtomicUsize::new(0));
        let thread_hits = Arc::clone(&hits);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let n = thread_hits.fetch_add(1, Ordering::SeqCst);
                let resp = script[n.min(script.len() - 1)];
                // Swallow the request head; enough for a test double.
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(resp.as_bytes());
            }
        });
        (addr, hits)
    }

    fn fast_policy(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: retries,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(4),
            retry_budget: Duration::from_secs(5),
            seed: 1,
        }
    }

    #[test]
    fn five_hundreds_retry_until_success() {
        let (addr, hits) = canned_server(vec![
            "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
        ]);
        let resp = one_shot_with_retry(&addr, "GET", "/x", None, &fast_policy(4)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "ok");
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_budget_surfaces_the_last_response() {
        // Every attempt gets a 503 telling the client to wait 1s, but
        // the budget only allows ~10ms of total sleep: exactly one
        // attempt happens and its 503 comes back unchanged.
        let (addr, hits) = canned_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let policy = RetryPolicy {
            retry_budget: Duration::from_millis(10),
            ..fast_policy(8)
        };
        let resp = one_shot_with_retry(&addr, "GET", "/x", None, &policy).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn exhausted_retries_surface_the_last_transport_error() {
        // Bind a port, then drop the listener: connects now fail.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = one_shot_with_retry(&addr, "GET", "/x", None, &fast_policy(2)).unwrap_err();
        // The last error is a real transport error, not a synthetic
        // "retries exhausted" wrapper.
        assert_ne!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn non_retryable_statuses_return_immediately() {
        let (addr, hits) = canned_server(vec![
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let resp = one_shot_with_retry(&addr, "GET", "/x", None, &fast_policy(4)).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
