//! Blocking clients for the framed amplitude protocol.
//!
//! [`Client`] is the bare connection: one frame out, one frame in. It is
//! used by the loopback integration tests and the repo benchmark's
//! `serve-s12` workload, and doubles
//! as the reference implementation for anyone speaking the protocol from
//! another language (see the README's protocol spec).
//!
//! [`RetryingClient`] wraps it with the fault-tolerant behaviour a real
//! caller wants: transparent reconnect on transport errors, bounded retry
//! with jittered exponential backoff on retryable `Shed` replies (amplitude
//! queries are idempotent, so resending is always safe), and a total wall-
//! clock budget so a struggling server cannot hold a caller forever.

use crate::protocol::{encode_request, AmplitudeResponse, Frame, ProtocolError, ShedReason};
use qtn_circuit::Circuit;
use std::io::BufReader;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// What the server said about one amplitude request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The amplitudes, bit-identical to direct engine execution.
    Amplitudes(AmplitudeResponse),
    /// The request was refused with backpressure — retry later.
    Shed {
        /// Echoed correlation id.
        request_id: u64,
        /// Why the server refused.
        reason: ShedReason,
    },
    /// The request failed server-side.
    Error {
        /// Echoed correlation id (0 when not attributable).
        request_id: u64,
        /// Human-readable description.
        message: String,
    },
}

impl Reply {
    fn from_frame(frame: Frame) -> Result<Reply, ProtocolError> {
        match frame {
            Frame::Response(resp) => Ok(Reply::Amplitudes(resp)),
            Frame::Shed { request_id, reason } => Ok(Reply::Shed { request_id, reason }),
            Frame::Error { request_id, message } => Ok(Reply::Error { request_id, message }),
            _ => Err(ProtocolError::Malformed("unexpected frame kind in reply position")),
        }
    }

    /// The correlation id this reply answers.
    pub fn request_id(&self) -> u64 {
        match self {
            Reply::Amplitudes(resp) => resp.request_id,
            Reply::Shed { request_id, .. } | Reply::Error { request_id, .. } => *request_id,
        }
    }
}

/// A blocking connection to a `qtnsim-serve` instance. Supports both
/// call-and-wait ([`request_amplitudes`](Self::request_amplitudes)) and
/// pipelined use ([`send_request`](Self::send_request) several times, then
/// [`recv_reply`](Self::recv_reply) as responses arrive — the server may
/// answer out of order, so match on [`Reply::request_id`]).
///
/// Requests are encoded straight from the borrowed circuit and bitstrings
/// into one buffer the connection keeps, so a warm send allocates nothing.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// The last request frame sent; its capacity is reused by the next.
    frame: Vec<u8>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, next_id: 1, frame: Vec::new() })
    }

    /// Queue an amplitude request without waiting; returns its id.
    pub fn send_request(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
    ) -> Result<u64, ProtocolError> {
        self.send_request_with_deadline(circuit, bitstrings, None)
    }

    /// Queue an amplitude request carrying an optional deadline (protocol
    /// v2). The server counts the deadline from the moment it finishes
    /// reading the frame and answers `Shed(DeadlineExceeded)` instead of
    /// executing once it passes. `None` encodes a byte-identical v1 frame.
    pub fn send_request_with_deadline(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
        deadline_ms: Option<u32>,
    ) -> Result<u64, ProtocolError> {
        let request_id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        encode_request(&mut self.frame, request_id, deadline_ms, circuit, bitstrings);
        self.writer.write_all(&self.frame)?;
        Ok(request_id)
    }

    /// Block for the next reply frame (any request id).
    pub fn recv_reply(&mut self) -> Result<Reply, ProtocolError> {
        Reply::from_frame(Frame::read_from(&mut self.reader)?)
    }

    /// Send one request and block for *its* reply (skipping none — call
    /// this only when no other requests are in flight on this connection).
    pub fn request_amplitudes(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
    ) -> Result<Reply, ProtocolError> {
        self.request_amplitudes_with_deadline(circuit, bitstrings, None)
    }

    /// [`request_amplitudes`](Self::request_amplitudes) with an optional
    /// per-request deadline in milliseconds.
    pub fn request_amplitudes_with_deadline(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
        deadline_ms: Option<u32>,
    ) -> Result<Reply, ProtocolError> {
        let id = self.send_request_with_deadline(circuit, bitstrings, deadline_ms)?;
        let reply = self.recv_reply()?;
        if reply.request_id() != id {
            return Err(ProtocolError::Malformed("reply id does not match the pending request"));
        }
        Ok(reply)
    }

    /// Fetch the server's metrics snapshot as JSON.
    pub fn stats(&mut self) -> Result<String, ProtocolError> {
        Frame::StatsRequest.write_to(&mut self.writer)?;
        match Frame::read_from(&mut self.reader)? {
            Frame::StatsResponse(json) => Ok(json),
            _ => Err(ProtocolError::Malformed("expected a stats response")),
        }
    }

    /// Ask the server to drain and stop.
    pub fn shutdown_server(&mut self) -> Result<(), ProtocolError> {
        Frame::Shutdown.write_to(&mut self.writer)
    }
}

/// Retry policy for [`RetryingClient`]: how often, how long between tries,
/// and the overall wall-clock budget one logical request may spend.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Attempts per logical request, counting the first one.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_delay: Duration,
    /// Backoff ceiling the doubling saturates at.
    pub max_delay: Duration,
    /// Total wall-clock budget for one logical request across every attempt
    /// and backoff sleep; when the next sleep would bust it, the last
    /// outcome is returned as-is.
    pub total_budget: Duration,
    /// Seed for the deterministic backoff jitter — two clients with
    /// different seeds desynchronize their retry storms, and a fixed seed
    /// makes test timing reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            total_budget: Duration::from_secs(5),
            jitter_seed: 0x5EED,
        }
    }
}

/// Counters of the fault-tolerance work a [`RetryingClient`] performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Connections re-established after a transport error (the initial
    /// connect is not counted).
    pub reconnects: u64,
    /// Attempts beyond the first, summed over all logical requests.
    pub retries: u64,
}

/// A [`Client`] that survives transport faults and backpressure.
///
/// Transport errors (I/O failures, torn frames, mid-frame EOF) drop the
/// connection and retry on a fresh one; retryable `Shed` replies
/// ([`ShedReason::is_retryable`]) back off and resend. Amplitude queries
/// are idempotent and carry client-chosen correlation ids, so resending
/// never double-counts work the caller observes. Deterministic outcomes —
/// typed server errors, `MemoryBudget`/`DeadlineExceeded` sheds, malformed
/// replies on an in-sync stream — are returned immediately: retrying them
/// would reproduce the same answer slower.
pub struct RetryingClient {
    addr: SocketAddr,
    config: RetryConfig,
    conn: Option<Client>,
    ever_connected: bool,
    stats: RetryStats,
    jitter_state: u64,
}

impl RetryingClient {
    /// Connect to a server eagerly, so configuration errors (bad address)
    /// surface here instead of on the first request.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: RetryConfig,
    ) -> std::io::Result<RetryingClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let conn = Client::connect(addr)?;
        let jitter_state = config.jitter_seed;
        Ok(RetryingClient {
            addr,
            config,
            conn: Some(conn),
            ever_connected: true,
            stats: RetryStats::default(),
            jitter_state,
        })
    }

    /// What this client has done to keep requests flowing.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Send one request and return its reply, retrying per the configured
    /// policy. See [`Client::request_amplitudes`] for reply semantics.
    pub fn request_amplitudes(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
    ) -> Result<Reply, ProtocolError> {
        self.request_amplitudes_with_deadline(circuit, bitstrings, None)
    }

    /// [`request_amplitudes`](Self::request_amplitudes) with an optional
    /// per-request deadline in milliseconds (protocol v2). A
    /// `Shed(DeadlineExceeded)` reply is returned, not retried — the server
    /// already decided this request's budget is gone.
    pub fn request_amplitudes_with_deadline(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
        deadline_ms: Option<u32>,
    ) -> Result<Reply, ProtocolError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = self.attempt_once(circuit, bitstrings, deadline_ms);
            let worth_retrying = match &outcome {
                Ok(Reply::Shed { reason, .. }) => reason.is_retryable(),
                // A recoverable protocol error means the stream is in sync
                // and the server deterministically rejected the payload;
                // an unrecoverable one means the transport died mid-frame
                // and a fresh connection may well succeed.
                Err(err) => {
                    if !err.is_recoverable() {
                        self.conn = None;
                        true
                    } else {
                        false
                    }
                }
                Ok(_) => false,
            };
            if !worth_retrying || attempt >= self.config.max_attempts {
                return outcome;
            }
            let delay = self.backoff_delay(attempt);
            if started.elapsed() + delay > self.config.total_budget {
                return outcome;
            }
            std::thread::sleep(delay);
            self.stats.retries += 1;
        }
    }

    fn attempt_once(
        &mut self,
        circuit: &Circuit,
        bitstrings: &[&[u8]],
        deadline_ms: Option<u32>,
    ) -> Result<Reply, ProtocolError> {
        if self.conn.is_none() {
            let client = Client::connect(self.addr).map_err(ProtocolError::Io)?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(client);
        }
        let conn = self.conn.as_mut().expect("connection established above");
        let id = conn.send_request_with_deadline(circuit, bitstrings, deadline_ms)?;
        let reply = conn.recv_reply()?;
        if reply.request_id() == id {
            return Ok(reply);
        }
        // A reply with a foreign id — request_id 0 is the server's
        // connection-level error frame, sent e.g. when its reader died —
        // means this stream can no longer be matched to our request. Treat
        // it as a transport failure so the retry loop reconnects.
        Err(ProtocolError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unmatched reply (id {}): connection-level failure", reply.request_id()),
        )))
    }

    /// Exponential backoff with deterministic jitter: the nominal delay
    /// doubles per retry (saturating at `max_delay`), and the actual sleep
    /// is drawn from `[delay/2, delay]` by a seeded splitmix64 walk.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let doubled = self
            .config
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.max_delay);
        let nanos = doubled.as_nanos() as u64;
        self.jitter_state = splitmix64(self.jitter_state);
        let half = nanos / 2;
        let jittered = half + if half == 0 { 0 } else { self.jitter_state % (half + 1) };
        Duration::from_nanos(jittered)
    }
}

/// SplitMix64 step — the same tiny deterministic generator the fault plan
/// uses for probability rolls; good enough to decorrelate retry timing.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_saturates_and_stays_jittered_within_bounds() {
        let config = RetryConfig {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            ..RetryConfig::default()
        };
        let mut client = RetryingClient {
            addr: "127.0.0.1:1".parse().unwrap(),
            config,
            conn: None,
            ever_connected: false,
            stats: RetryStats::default(),
            jitter_state: 7,
        };
        for (attempt, nominal_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 40), (30, 40)] {
            let d = client.backoff_delay(attempt);
            let nominal = Duration::from_millis(nominal_ms);
            assert!(d >= nominal / 2 && d <= nominal, "attempt {attempt}: {d:?} vs {nominal:?}");
        }
    }

    #[test]
    fn jitter_walk_is_deterministic_per_seed() {
        let mk = |seed| RetryingClient {
            addr: "127.0.0.1:1".parse().unwrap(),
            config: RetryConfig { jitter_seed: seed, ..RetryConfig::default() },
            conn: None,
            ever_connected: false,
            stats: RetryStats::default(),
            jitter_state: seed,
        };
        let (mut a, mut b) = (mk(42), mk(42));
        for attempt in 1..=5 {
            assert_eq!(a.backoff_delay(attempt), b.backoff_delay(attempt));
        }
    }
}
