//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! The build container is offline, so there is no HTTP stack to lean on;
//! the service speaks a hand-rolled framed protocol instead, chosen over
//! hand-rolled HTTP/1.1 because amplitude payloads are binary (exact `f64`
//! bit patterns matter — responses are bit-identical to direct engine
//! calls) and framing makes request pipelining trivial.
//!
//! # Frame layout
//!
//! ```text
//! ┌──────────────┬──────────┬────────────────────┐
//! │ u32 LE       │ u8       │ payload            │
//! │ payload len  │ type tag │ (len bytes)        │
//! └──────────────┴──────────┴────────────────────┘
//! ```
//!
//! | tag | frame           | payload |
//! |-----|-----------------|---------|
//! | 1   | `Request`       | `u64 id`, circuit, `u32 count`, then per bitstring `u32 len` + `len` bit bytes |
//! | 2   | `Response`      | `u64 id`, `u32 count`, `count × (f64 re, f64 im)`, `u32 batch_size`, `u8 flags` (bit 0: deadline flush) |
//! | 3   | `Shed`          | `u64 id`, `u8 reason` (1 queue full, 2 memory budget, 3 draining, 4 deadline exceeded) |
//! | 4   | `Error`         | `u64 id`, `u32 len`, UTF-8 message |
//! | 5   | `StatsRequest`  | empty |
//! | 6   | `StatsResponse` | `u32 len`, UTF-8 JSON |
//! | 7   | `Shutdown`      | empty |
//! | 8   | `Request` (v2)  | `u64 id`, `u32 deadline_ms`, then the tag-1 payload from the circuit onward |
//!
//! Tag 8 is the **protocol v2** request: identical to tag 1 plus a
//! per-request deadline in milliseconds from server receipt, after which
//! the server sheds the request (`Shed` reason 4) instead of executing it.
//! v2 is strictly additive and backward compatible both ways: a request
//! without a deadline still encodes as a byte-identical tag-1 frame, v1
//! clients never see reason 4 (they cannot set deadlines), and a v2 server
//! answers v1 and v2 clients on the same socket.
//!
//! All integers and floats are little-endian. A circuit is encoded as
//! `u32 num_qubits`, `u32 num_ops`, then per op `u8 arity`,
//! `arity × u32` target qubits and the row-major unitary matrix
//! (`4^arity × (f64 re, f64 im)`). Gates travel as raw unitaries — exactly
//! what [`qtn_circuit::Circuit::fingerprint`] hashes — so the fingerprint
//! the server coalesces on is identical to the one the client's circuit
//! would produce locally, and decoded circuits plan and execute
//! bit-identically to the originals. The server never needs the decoded
//! circuit to learn that key: one validating pass over a request's bytes
//! folds it as it goes ([`qtn_circuit::FingerprintFold`]), and the circuit
//! is built only when the plan cache misses.
//!
//! Decoding never panics: truncated, oversized and garbage frames all
//! surface as typed [`ProtocolError`]s. A malformed *payload* inside a
//! well-delimited frame is recoverable (the stream stays in sync); a frame
//! header that announces more than [`MAX_FRAME_LEN`] bytes is not, because
//! the bytes cannot be safely skipped without trusting the corrupt length.

use qtn_circuit::{Circuit, FingerprintFold, Gate, GateOp};
use qtn_tensor::{c64, Complex64};
use std::io::{Read, Write};

/// Frame type tags (the `u8` after the length prefix).
mod tag {
    pub const REQUEST: u8 = 1;
    pub const RESPONSE: u8 = 2;
    pub const SHED: u8 = 3;
    pub const ERROR: u8 = 4;
    pub const STATS_REQUEST: u8 = 5;
    pub const STATS_RESPONSE: u8 = 6;
    pub const SHUTDOWN: u8 = 7;
    /// Protocol v2: a request carrying a deadline (tag 1 stays deadline-free).
    pub const REQUEST_V2: u8 = 8;
}

/// Upper bound on a frame's payload length. Frames announcing more are
/// rejected before any allocation — a corrupt or hostile length prefix must
/// not OOM the server.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Hard cap on qubit counts accepted off the wire (far beyond anything the
/// planner can contract, but it keeps decoded allocations proportional to
/// the actual payload).
pub const MAX_QUBITS: u32 = 4096;

/// Everything that can go wrong encoding or decoding frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying transport error. `UnexpectedEof` here means the stream
    /// ended mid-frame (a truncated frame).
    Io(std::io::Error),
    /// The length prefix announced a payload larger than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The type tag is not one this protocol version knows.
    UnknownFrameType(u8),
    /// The payload ended early or contained structurally invalid data.
    Malformed(&'static str),
    /// The circuit decoded but is semantically invalid (bad arity, qubit
    /// out of range, duplicate two-qubit target, …).
    InvalidCircuit(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::UnknownFrameType(t) => write!(f, "unknown frame type tag {t}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::InvalidCircuit(what) => write!(f, "invalid circuit: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl ProtocolError {
    /// Whether the stream is still usable after this error: a malformed
    /// payload inside a correctly delimited frame leaves the stream in
    /// sync, while transport errors and oversized length prefixes do not.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            ProtocolError::UnknownFrameType(_)
                | ProtocolError::Malformed(_)
                | ProtocolError::InvalidCircuit(_)
        )
    }
}

/// Why the server refused a request instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded request queue is full — back off and retry.
    QueueFull,
    /// The circuit's plan exceeds the server's `memory_budget_bytes`.
    MemoryBudget,
    /// The server is draining for shutdown and accepts no new work.
    Draining,
    /// The request's own deadline (protocol v2) passed before execution —
    /// at admission or while queued — so running it would waste the engine
    /// on an answer nobody is waiting for. Not worth retrying as-is.
    DeadlineExceeded,
}

impl ShedReason {
    fn to_wire(self) -> u8 {
        match self {
            ShedReason::QueueFull => 1,
            ShedReason::MemoryBudget => 2,
            ShedReason::Draining => 3,
            ShedReason::DeadlineExceeded => 4,
        }
    }

    fn from_wire(byte: u8) -> Result<Self, ProtocolError> {
        match byte {
            1 => Ok(ShedReason::QueueFull),
            2 => Ok(ShedReason::MemoryBudget),
            3 => Ok(ShedReason::Draining),
            4 => Ok(ShedReason::DeadlineExceeded),
            _ => Err(ProtocolError::Malformed("unknown shed reason")),
        }
    }

    /// Whether a shed of this kind is worth retrying unchanged: queue-full
    /// and draining sheds are transient server state, while memory-budget
    /// and deadline sheds are deterministic verdicts on the request itself.
    pub fn is_retryable(self) -> bool {
        matches!(self, ShedReason::QueueFull | ShedReason::Draining)
    }
}

/// An amplitude request: one circuit and the bitstrings to evaluate on it.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub request_id: u64,
    /// The circuit (decoded into raw-unitary gates; fingerprint-preserving).
    pub circuit: Circuit,
    /// Bitstrings, each `circuit.num_qubits()` bytes of 0/1.
    pub bitstrings: Vec<Vec<u8>>,
    /// Optional deadline in milliseconds from server receipt (protocol
    /// v2). `None` encodes as a byte-identical v1 frame; `Some` encodes as
    /// tag 8 and lets the server shed the request
    /// ([`ShedReason::DeadlineExceeded`]) once it is stale.
    pub deadline_ms: Option<u32>,
}

/// The amplitudes for one request, plus micro-batching telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeResponse {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// One amplitude per requested bitstring, in request order.
    pub amplitudes: Vec<Complex64>,
    /// Total amplitudes in the micro-batch this request was dispatched in
    /// (≥ `amplitudes.len()`; larger when requests were coalesced).
    pub batch_size: u32,
    /// Whether the batch was flushed by its latency deadline (as opposed to
    /// filling up or being drained at shutdown).
    pub deadline_flush: bool,
}

/// Every frame the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: evaluate amplitudes.
    Request(AmplitudeRequest),
    /// Server → client: the amplitudes.
    Response(AmplitudeResponse),
    /// Server → client: request refused (backpressure), echoing the id.
    Shed {
        /// Echo of the refused request's correlation id.
        request_id: u64,
        /// Why the request was refused.
        reason: ShedReason,
    },
    /// Server → client: the request failed (echoing its id, 0 if the
    /// failure was not attributable to a request).
    Error {
        /// Correlation id, or 0.
        request_id: u64,
        /// Human-readable description.
        message: String,
    },
    /// Client → server: report service metrics.
    StatsRequest,
    /// Server → client: the metrics snapshot as JSON.
    StatsResponse(String),
    /// Client → server: drain in-flight batches and stop.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bytes one op of `arity` qubits takes on the wire: the arity byte, the
/// target qubits and the `4^arity`-entry matrix.
const fn op_wire_len(arity: usize) -> usize {
    1 + 4 * arity + (16 << (2 * arity))
}

/// The smallest an op can be on the wire (a single-qubit gate), which bounds
/// how many ops a payload can really hold.
const SMALLEST_OP_BYTES: usize = op_wire_len(1);

/// Append a circuit in wire form (raw unitaries; fingerprint-preserving).
/// Named gates' matrices are read in place, so nothing but `buf` grows.
fn encode_circuit(circuit: &Circuit, buf: &mut Vec<u8>) {
    put_u32(buf, circuit.num_qubits() as u32);
    put_u32(buf, circuit.ops().len() as u32);
    for op in circuit.ops() {
        buf.push(op.qubits.len() as u8);
        for &q in &op.qubits {
            put_u32(buf, q as u32);
        }
        op.gate.with_matrix(|matrix| {
            for entry in matrix {
                put_f64(buf, entry.re);
                put_f64(buf, entry.im);
            }
        });
    }
}

/// Append a frame: the length prefix, `tag`, then whatever `payload`
/// writes, with the prefix filled in once the length is known.
fn encode_frame(buf: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, tag]);
    payload(buf);
    let len = (buf.len() - start - 5) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Append a request frame straight from borrowed parts — the one request
/// encoder, shared by [`Frame::encode`] and the [`Client`](crate::Client),
/// which sends without building a [`Frame`]. Reserves the frame's exact
/// size first, so a buffer that has held the frame once never grows again.
pub(crate) fn encode_request<B: AsRef<[u8]>>(
    buf: &mut Vec<u8>,
    request_id: u64,
    deadline_ms: Option<u32>,
    circuit: &Circuit,
    bitstrings: &[B],
) {
    let ops: usize = circuit.ops().iter().map(|op| op_wire_len(op.qubits.len())).sum();
    let bits: usize = bitstrings.iter().map(|b| 4 + b.as_ref().len()).sum();
    buf.reserve(5 + 8 + 4 * usize::from(deadline_ms.is_some()) + 8 + ops + 4 + bits);
    // Deadline-free requests stay v1 on the wire so pre-v2 servers (and
    // byte-level golden tests) see identical frames.
    let tag = if deadline_ms.is_some() { tag::REQUEST_V2 } else { tag::REQUEST };
    encode_frame(buf, tag, |buf| {
        put_u64(buf, request_id);
        if let Some(deadline_ms) = deadline_ms {
            put_u32(buf, deadline_ms);
        }
        encode_circuit(circuit, buf);
        put_u32(buf, bitstrings.len() as u32);
        for bits in bitstrings {
            // Length-prefixed so a wrong-length bitstring is still a
            // decodable request the server can refuse with a typed,
            // id-attributed error instead of a payload desync.
            let bits = bits.as_ref();
            put_u32(buf, bits.len() as u32);
            buf.extend_from_slice(bits);
        }
    });
}

impl Frame {
    /// Serialize the whole frame (length prefix, tag, payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        match self {
            Frame::Request(req) => encode_request(
                &mut frame,
                req.request_id,
                req.deadline_ms,
                &req.circuit,
                &req.bitstrings,
            ),
            Frame::Response(resp) => encode_frame(&mut frame, tag::RESPONSE, |buf| {
                put_u64(buf, resp.request_id);
                put_u32(buf, resp.amplitudes.len() as u32);
                for amp in &resp.amplitudes {
                    put_f64(buf, amp.re);
                    put_f64(buf, amp.im);
                }
                put_u32(buf, resp.batch_size);
                buf.push(resp.deadline_flush as u8);
            }),
            Frame::Shed { request_id, reason } => encode_frame(&mut frame, tag::SHED, |buf| {
                put_u64(buf, *request_id);
                buf.push(reason.to_wire());
            }),
            Frame::Error { request_id, message } => encode_frame(&mut frame, tag::ERROR, |buf| {
                put_u64(buf, *request_id);
                put_u32(buf, message.len() as u32);
                buf.extend_from_slice(message.as_bytes());
            }),
            Frame::StatsRequest => encode_frame(&mut frame, tag::STATS_REQUEST, |_| {}),
            Frame::StatsResponse(json) => encode_frame(&mut frame, tag::STATS_RESPONSE, |buf| {
                put_u32(buf, json.len() as u32);
                buf.extend_from_slice(json.as_bytes());
            }),
            Frame::Shutdown => encode_frame(&mut frame, tag::SHUTDOWN, |_| {}),
        }
        frame
    }

    /// Write the frame to a stream.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<(), ProtocolError> {
        writer.write_all(&self.encode())?;
        Ok(())
    }

    /// Read one frame from a stream. Blocks until a full frame arrives;
    /// returns `Io(UnexpectedEof)` if the stream ends mid-frame and an
    /// `Io` error with kind `UnexpectedEof` at a clean frame boundary too —
    /// callers distinguish clean EOF by checking whether any header byte
    /// arrived (see [`read_frame_or_eof`]).
    pub fn read_from(reader: &mut impl Read) -> Result<Frame, ProtocolError> {
        match read_frame_or_eof(reader)? {
            Some(frame) => Ok(frame),
            None => {
                Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "stream closed").into())
            }
        }
    }

    /// Decode a frame from its tag and payload bytes: the validating pass
    /// the server keys its plan cache with, then for a request the build
    /// of its circuit.
    pub fn decode(tag_byte: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
        Ok(match scan_frame(tag_byte, payload)? {
            Scanned::Request(req) => Frame::Request(AmplitudeRequest {
                request_id: req.request_id,
                circuit: req.circuit.build(),
                bitstrings: req.bitstrings,
                deadline_ms: req.deadline_ms,
            }),
            Scanned::Frame(frame) => frame,
        })
    }
}

/// A frame after one validating pass over its payload. A request keeps its
/// circuit in wire form: every rule is checked and the fingerprint is
/// folded, but no [`Circuit`] exists until [`WireCircuit::build`].
pub(crate) enum Scanned<'a> {
    /// A request frame (tag 1 or 8).
    Request(RequestScan<'a>),
    /// Any other frame, fully decoded.
    Frame(Frame),
}

/// A validated request whose circuit is still the payload's bytes.
pub(crate) struct RequestScan<'a> {
    pub(crate) request_id: u64,
    pub(crate) deadline_ms: Option<u32>,
    pub(crate) circuit: WireCircuit<'a>,
    pub(crate) bitstrings: Vec<Vec<u8>>,
}

/// A wire-form circuit that passed every check `Circuit::push_op` would
/// panic on, with its plan-cache key already computed.
pub(crate) struct WireCircuit<'a> {
    pub(crate) num_qubits: usize,
    /// [`Circuit::fingerprint`] of the circuit [`build`](Self::build)
    /// returns, folded from the wire bytes.
    pub(crate) fingerprint: u64,
    num_ops: usize,
    /// The ops' bytes, from the first op's arity to the last matrix entry.
    ops: &'a [u8],
}

impl WireCircuit<'_> {
    /// Build the circuit, gates as raw unitaries. Cannot fail: the scan
    /// checked every op. Ops are preallocated from the bytes that are
    /// there, never from the announced count alone.
    pub(crate) fn build(&self) -> Circuit {
        let capacity = self.num_ops.min(self.ops.len() / SMALLEST_OP_BYTES);
        let mut circuit = Circuit::with_capacity(self.num_qubits, capacity);
        let mut rest = self.ops;
        let mut take = |n: usize| {
            let (head, tail) = rest.split_at(n);
            rest = tail;
            head
        };
        for _ in 0..self.num_ops {
            let arity = take(1)[0] as usize;
            let qubits = take(4 * arity)
                .chunks_exact(4)
                .map(|q| u32::from_le_bytes(q.try_into().expect("4 bytes")) as usize)
                .collect();
            let gate = if arity == 1 {
                Gate::Unitary1(read_matrix(take(16 * 4)))
            } else {
                Gate::Unitary2(read_matrix(take(16 * 16)))
            };
            circuit.push_op(GateOp { gate, qubits });
        }
        circuit
    }
}

/// A row-major matrix of `N` entries from `16 * N` bytes of `(re, im)` pairs.
fn read_matrix<const N: usize>(bytes: &[u8]) -> Box<[Complex64; N]> {
    let word = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut matrix = Box::new([Complex64::ZERO; N]);
    for (entry, pair) in matrix.iter_mut().zip(bytes.chunks_exact(16)) {
        *entry = c64(word(&pair[..8]), word(&pair[8..]));
    }
    matrix
}

/// The one validating pass over a frame's payload (see [`Scanned`]).
/// [`Frame::decode`] is this plus [`WireCircuit::build`], so both return
/// the same error for every malformed payload.
pub(crate) fn scan_frame(tag_byte: u8, payload: &[u8]) -> Result<Scanned<'_>, ProtocolError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let scanned = match tag_byte {
        tag::REQUEST | tag::REQUEST_V2 => {
            let request_id = r.take_u64()?;
            let deadline_ms = if tag_byte == tag::REQUEST_V2 { Some(r.take_u32()?) } else { None };
            let circuit = scan_circuit(&mut r)?;
            let count = r.take_u32()? as usize;
            let mut bitstrings = Vec::new();
            for _ in 0..count {
                let len = r.take_u32()? as usize;
                if len > MAX_QUBITS as usize {
                    return Err(ProtocolError::Malformed("bitstring length exceeds MAX_QUBITS"));
                }
                bitstrings.push(r.take_bytes(len, "bitstring bytes")?.to_vec());
            }
            Scanned::Request(RequestScan { request_id, deadline_ms, circuit, bitstrings })
        }
        tag::RESPONSE => {
            let request_id = r.take_u64()?;
            let count = r.take_u32()? as usize;
            if count.checked_mul(16).is_none_or(|need| need > r.remaining()) {
                return Err(ProtocolError::Malformed("amplitude count exceeds payload"));
            }
            let mut amplitudes = Vec::with_capacity(count);
            for _ in 0..count {
                let re = r.take_f64()?;
                let im = r.take_f64()?;
                amplitudes.push(c64(re, im));
            }
            let batch_size = r.take_u32()?;
            let flags = r.take_u8()?;
            Scanned::Frame(Frame::Response(AmplitudeResponse {
                request_id,
                amplitudes,
                batch_size,
                deadline_flush: flags & 1 != 0,
            }))
        }
        tag::SHED => {
            let request_id = r.take_u64()?;
            let reason = ShedReason::from_wire(r.take_u8()?)?;
            Scanned::Frame(Frame::Shed { request_id, reason })
        }
        tag::ERROR => {
            let request_id = r.take_u64()?;
            let len = r.take_u32()? as usize;
            let bytes = r.take_bytes(len, "error message bytes")?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?;
            Scanned::Frame(Frame::Error { request_id, message })
        }
        tag::STATS_REQUEST => Scanned::Frame(Frame::StatsRequest),
        tag::STATS_RESPONSE => {
            let len = r.take_u32()? as usize;
            let bytes = r.take_bytes(len, "stats payload bytes")?;
            let json = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtocolError::Malformed("stats payload is not UTF-8"))?;
            Scanned::Frame(Frame::StatsResponse(json))
        }
        tag::SHUTDOWN => Scanned::Frame(Frame::Shutdown),
        other => return Err(ProtocolError::UnknownFrameType(other)),
    };
    if r.remaining() != 0 {
        return Err(ProtocolError::Malformed("trailing bytes after payload"));
    }
    Ok(scanned)
}

/// Payload capacity a connection keeps between frames: enough for any
/// circuit the planner can contract, so steady traffic reads without
/// allocating, while a one-off large frame does not stay resident.
pub(crate) const RETAINED_PAYLOAD_BYTES: usize = 1 << 20;

/// Read one frame into `payload` (its previous contents are dropped) and
/// return its tag, or `Ok(None)` on clean end-of-stream (the peer closed
/// between frames); `Io(UnexpectedEof)` when the stream dies mid-frame.
/// The buffer grows as bytes arrive, never by the announced length alone:
/// a header that promises [`MAX_FRAME_LEN`] bytes and sends none costs
/// nothing.
pub(crate) fn read_frame_into(
    reader: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, ProtocolError> {
    let mut header = [0u8; 5];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame header",
                )
                .into());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len, max: MAX_FRAME_LEN });
    }
    payload.clear();
    reader.take(u64::from(len)).read_to_end(payload)?;
    if payload.len() < len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream closed inside a frame payload",
        )
        .into());
    }
    Ok(Some(header[4]))
}

/// Read one frame, returning `Ok(None)` on clean end-of-stream (the peer
/// closed between frames) and `Io(UnexpectedEof)` when the stream dies
/// mid-frame.
pub fn read_frame_or_eof(reader: &mut impl Read) -> Result<Option<Frame>, ProtocolError> {
    let mut payload = Vec::new();
    match read_frame_into(reader, &mut payload)? {
        Some(tag) => Frame::decode(tag, &payload).map(Some),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Malformed(what));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take_bytes(1, "truncated u8")?[0])
    }

    fn take_u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take_bytes(4, "truncated u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take_bytes(8, "truncated u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn take_f64(&mut self) -> Result<f64, ProtocolError> {
        let b = self.take_bytes(8, "truncated f64")?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Validate a wire-form circuit — everything `Circuit::push_op` would
/// otherwise panic on, plus finite matrix entries — and fold its
/// fingerprint on the way, word for word as [`Circuit::fingerprint`] does.
fn scan_circuit<'a>(r: &mut Reader<'a>) -> Result<WireCircuit<'a>, ProtocolError> {
    let num_qubits = r.take_u32()?;
    if num_qubits > MAX_QUBITS {
        return Err(ProtocolError::InvalidCircuit(format!(
            "{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit limit"
        )));
    }
    let num_ops = r.take_u32()? as usize;
    let start = r.pos;
    let mut fold = FingerprintFold::new(num_qubits as usize);
    for i in 0..num_ops {
        let arity = r.take_u8()?;
        if arity != 1 && arity != 2 {
            return Err(ProtocolError::InvalidCircuit(format!("op {i} has arity {arity}")));
        }
        fold.word(u64::from(arity));
        let mut previous = None;
        for _ in 0..arity {
            let q = r.take_u32()?;
            if q >= num_qubits {
                return Err(ProtocolError::InvalidCircuit(format!(
                    "op {i} targets qubit {q} of {num_qubits}"
                )));
            }
            if previous == Some(q) {
                return Err(ProtocolError::InvalidCircuit(format!(
                    "op {i} applies a two-qubit gate to one qubit"
                )));
            }
            previous = Some(q);
            fold.word(u64::from(q));
        }
        for _ in 0..1 << (2 * arity) {
            let re = r.take_f64()?;
            let im = r.take_f64()?;
            if !(re.is_finite() && im.is_finite()) {
                return Err(ProtocolError::InvalidCircuit(format!(
                    "op {i} has a non-finite matrix entry"
                )));
            }
            fold.word(re.to_bits());
            fold.word(im.to_bits());
        }
    }
    Ok(WireCircuit {
        num_qubits: num_qubits as usize,
        fingerprint: fold.finish(),
        num_ops,
        ops: &r.bytes[start..r.pos],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::RqcConfig;

    fn roundtrip(frame: Frame) -> Frame {
        let bytes = frame.encode();
        let decoded = read_frame_or_eof(&mut &bytes[..]).expect("decode").expect("some");
        assert_eq!(decoded, frame);
        decoded
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        // Requests are special: named gates travel as raw unitaries, so the
        // decoded circuit is structurally different but fingerprint-equal
        // (covered separately below). Check the non-circuit fields here.
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let bytes = Frame::Request(AmplitudeRequest {
            request_id: 7,
            circuit: circuit.clone(),
            bitstrings: vec![vec![0, 0], vec![1, 1]],
            deadline_ms: None,
        })
        .encode();
        let decoded = read_frame_or_eof(&mut &bytes[..]).expect("decode").expect("some");
        let Frame::Request(req) = decoded else { panic!("expected a request frame") };
        assert_eq!(req.request_id, 7);
        assert_eq!(req.bitstrings, vec![vec![0, 0], vec![1, 1]]);
        assert_eq!(req.circuit.fingerprint(), circuit.fingerprint());
        roundtrip(Frame::Response(AmplitudeResponse {
            request_id: 7,
            amplitudes: vec![c64(0.25, -0.5), c64(f64::MIN_POSITIVE, 1.0)],
            batch_size: 64,
            deadline_flush: true,
        }));
        roundtrip(Frame::Shed { request_id: 9, reason: ShedReason::QueueFull });
        roundtrip(Frame::Shed { request_id: 9, reason: ShedReason::MemoryBudget });
        roundtrip(Frame::Shed { request_id: 9, reason: ShedReason::Draining });
        roundtrip(Frame::Shed { request_id: 9, reason: ShedReason::DeadlineExceeded });
        roundtrip(Frame::Error { request_id: 3, message: "no \"such\" circuit".into() });
        roundtrip(Frame::StatsRequest);
        roundtrip(Frame::StatsResponse("{\"ok\": true}".into()));
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn decoded_circuits_preserve_the_fingerprint() {
        // Named gates travel as raw unitaries, which is exactly what the
        // fingerprint hashes — so coalescing keys match across the wire.
        let circuit = RqcConfig::small(2, 3, 6, 11).build();
        let frame = Frame::Request(AmplitudeRequest {
            request_id: 1,
            circuit: circuit.clone(),
            bitstrings: vec![vec![0; circuit.num_qubits()]],
            deadline_ms: None,
        });
        let bytes = frame.encode();
        let Some(Frame::Request(decoded)) = read_frame_or_eof(&mut &bytes[..]).unwrap() else {
            panic!("expected a request frame");
        };
        assert_eq!(decoded.circuit.fingerprint(), circuit.fingerprint());
        assert_eq!(decoded.circuit.num_qubits(), circuit.num_qubits());
        assert_eq!(decoded.circuit.len(), circuit.len());

        // The server's key pass folds the same fingerprint from the bytes,
        // for every gate variant: named one- and two-qubit gates, rotations,
        // FSim and raw unitaries (including a signed zero).
        let h: [Complex64; 4] = Gate::H.matrix().try_into().unwrap();
        let mut fsim: [Complex64; 16] = Gate::sycamore_fsim().matrix().try_into().unwrap();
        fsim[1] = c64(-0.0, 0.0);
        let one_qubit = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::SqrtX,
            Gate::SqrtY,
            Gate::SqrtW,
            Gate::Rz(0.3),
            Gate::Rx(-1.1),
            Gate::Ry(2.5),
            Gate::Unitary1(Box::new(h)),
        ];
        let two_qubit = [
            Gate::Cz,
            Gate::Cnot,
            Gate::ISwap,
            Gate::FSim { theta: 0.52, phi: 0.17 },
            Gate::Unitary2(Box::new(fsim)),
        ];
        let mut every_gate = Circuit::new(3);
        for (i, gate) in one_qubit.into_iter().enumerate() {
            every_gate.push1(gate, i % 3);
        }
        for (i, gate) in two_qubit.into_iter().enumerate() {
            every_gate.push2(gate, (i + 1) % 3, i % 3);
        }
        for circuit in [circuit, every_gate] {
            for deadline_ms in [None, Some(9)] {
                let bytes = Frame::Request(AmplitudeRequest {
                    request_id: 2,
                    circuit: circuit.clone(),
                    bitstrings: vec![vec![1; circuit.num_qubits()]],
                    deadline_ms,
                })
                .encode();
                let key = key_pass(&bytes).expect("a valid request scans");
                assert_eq!(key, (circuit.fingerprint(), circuit.num_qubits()));
                let Ok(Frame::Request(decoded)) = Frame::decode(bytes[4], &bytes[5..]) else {
                    panic!("expected a request frame");
                };
                assert_eq!(key.0, decoded.circuit.fingerprint());
            }
        }
    }

    /// The server's key pass over a whole request frame:
    /// `(fingerprint, num_qubits)`, with no circuit built.
    fn key_pass(bytes: &[u8]) -> Result<(u64, usize), ProtocolError> {
        match scan_frame(bytes[4], &bytes[5..])? {
            Scanned::Request(req) => Ok((req.circuit.fingerprint, req.circuit.num_qubits)),
            Scanned::Frame(frame) => panic!("expected a request, scanned {frame:?}"),
        }
    }

    /// The key pass and [`Frame::decode`] reject `bytes` with the same error.
    fn assert_both_entries_reject(bytes: &[u8]) {
        let scanned = key_pass(bytes).expect_err("the key pass must reject");
        let decoded = Frame::decode(bytes[4], &bytes[5..]).expect_err("decode must reject");
        assert_eq!(format!("{scanned:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn truncated_frames_are_typed_errors_not_panics() {
        // Both request encodings: v1 (no deadline) and v2 (deadline field).
        for deadline_ms in [None, Some(250)] {
            let mut circuit = Circuit::new(1);
            circuit.push1(Gate::H, 0);
            let bytes = Frame::Request(AmplitudeRequest {
                request_id: 1,
                circuit,
                bitstrings: vec![vec![0]],
                deadline_ms,
            })
            .encode();
            // Clean EOF at a frame boundary is None, not an error.
            assert!(matches!(read_frame_or_eof(&mut &bytes[..0]), Ok(None)));
            // Every proper prefix must fail with a typed error.
            for cut in 1..bytes.len() {
                let err = read_frame_or_eof(&mut &bytes[..cut]).expect_err("prefix must fail");
                assert!(
                    matches!(err, ProtocolError::Io(_) | ProtocolError::Malformed(_)),
                    "deadline {deadline_ms:?}, cut at {cut} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn v2_requests_roundtrip_with_their_deadline() {
        // Like circuits everywhere, equality after the wire is
        // fingerprint-equality (named gates travel as raw unitaries).
        let circuit = RqcConfig::small(2, 3, 6, 5).build();
        let bytes = Frame::Request(AmplitudeRequest {
            request_id: 42,
            circuit: circuit.clone(),
            bitstrings: vec![vec![0; circuit.num_qubits()]],
            deadline_ms: Some(1500),
        })
        .encode();
        let Some(Frame::Request(req)) = read_frame_or_eof(&mut &bytes[..]).unwrap() else {
            panic!("expected a request frame");
        };
        assert_eq!(req.request_id, 42);
        assert_eq!(req.deadline_ms, Some(1500));
        assert_eq!(req.circuit.fingerprint(), circuit.fingerprint());
    }

    #[test]
    fn deadline_free_requests_stay_byte_identical_to_v1() {
        // The v1↔v2 interop contract: a request without a deadline encodes
        // as the *exact* frame a v1 client produces — tag 1, no deadline
        // field — so pre-v2 peers interoperate byte for byte.
        let circuit = RqcConfig::small(2, 3, 6, 9).build();
        let request = |deadline_ms| {
            Frame::Request(AmplitudeRequest {
                request_id: 3,
                circuit: circuit.clone(),
                bitstrings: vec![vec![1; circuit.num_qubits()]],
                deadline_ms,
            })
        };
        let v1_bytes = request(None).encode();
        assert_eq!(v1_bytes[4], super::tag::REQUEST, "deadline-free requests must use tag 1");
        // Hand-build the v1 frame a pre-v2 client would send.
        let mut payload = Vec::new();
        put_u64(&mut payload, 3);
        encode_circuit(&circuit, &mut payload);
        put_u32(&mut payload, 1);
        put_u32(&mut payload, circuit.num_qubits() as u32);
        payload.extend_from_slice(&vec![1; circuit.num_qubits()]);
        let mut expected = Vec::new();
        put_u32(&mut expected, payload.len() as u32);
        expected.push(super::tag::REQUEST);
        expected.extend_from_slice(&payload);
        assert_eq!(v1_bytes, expected, "v1 wire format must be unchanged");
        // A v2 server decodes that hand-built v1 frame with no deadline.
        let Some(Frame::Request(decoded)) = read_frame_or_eof(&mut &expected[..]).unwrap() else {
            panic!("expected a request frame");
        };
        assert_eq!(decoded.deadline_ms, None);
        assert_eq!(decoded.circuit.fingerprint(), circuit.fingerprint());
        // And the v2 encoding is the same bytes with tag 8 plus the
        // deadline spliced in after the id — nothing else moves.
        let v2_bytes = request(Some(7)).encode();
        assert_eq!(v2_bytes[4], super::tag::REQUEST_V2);
        assert_eq!(v2_bytes.len(), v1_bytes.len() + 4);
        assert_eq!(&v2_bytes[5..13], &v1_bytes[5..13], "request id unchanged");
        assert_eq!(&v2_bytes[13..17], &7u32.to_le_bytes(), "deadline after the id");
        assert_eq!(&v2_bytes[17..], &v1_bytes[13..], "tail identical to v1");
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.push(1);
        let err = read_frame_or_eof(&mut &bytes[..]).expect_err("oversized must fail");
        assert!(matches!(err, ProtocolError::FrameTooLarge { .. }), "{err:?}");
        assert!(!err.is_recoverable());
    }

    #[test]
    fn garbage_payloads_are_typed_errors() {
        // Unknown type tag.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(200);
        bytes.push(0);
        let err = read_frame_or_eof(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownFrameType(200)));
        assert!(err.is_recoverable());

        // A request whose declared bitstring count exceeds the payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // id
        payload.extend_from_slice(&1u32.to_le_bytes()); // num_qubits
        payload.extend_from_slice(&0u32.to_le_bytes()); // num_ops
        payload.extend_from_slice(&1000u32.to_le_bytes()); // bitstring count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&payload);
        let err = read_frame_or_eof(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");

        // Trailing bytes after a well-formed payload.
        let mut bytes = Frame::Shutdown.encode();
        bytes[0] = 1; // lie: one payload byte
        bytes.push(0xFF);
        let err = read_frame_or_eof(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed("trailing bytes after payload")));
    }

    #[test]
    fn invalid_circuits_are_rejected_without_panicking() {
        let encode_request = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut payload = Vec::new();
            payload.extend_from_slice(&1u64.to_le_bytes());
            mutate(&mut payload);
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.push(1);
            bytes.extend_from_slice(&payload);
            bytes
        };
        // Qubit out of range.
        let bytes = encode_request(&|p| {
            p.extend_from_slice(&1u32.to_le_bytes()); // num_qubits = 1
            p.extend_from_slice(&1u32.to_le_bytes()); // num_ops = 1
            p.push(1); // arity
            p.extend_from_slice(&9u32.to_le_bytes()); // target qubit 9
            for _ in 0..8 {
                p.extend_from_slice(&0f64.to_le_bytes());
            }
            p.extend_from_slice(&0u32.to_le_bytes()); // no bitstrings
        });
        let err = read_frame_or_eof(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidCircuit(_)), "{err:?}");
        assert!(err.is_recoverable());
        assert_both_entries_reject(&bytes);
        // Two-qubit gate on one qubit.
        let bytes = encode_request(&|p| {
            p.extend_from_slice(&2u32.to_le_bytes());
            p.extend_from_slice(&1u32.to_le_bytes());
            p.push(2);
            p.extend_from_slice(&0u32.to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
            for _ in 0..32 {
                p.extend_from_slice(&0f64.to_le_bytes());
            }
            p.extend_from_slice(&0u32.to_le_bytes());
        });
        assert!(matches!(
            read_frame_or_eof(&mut &bytes[..]).unwrap_err(),
            ProtocolError::InvalidCircuit(_)
        ));
        assert_both_entries_reject(&bytes);
        // Arity 3 is not a thing.
        let bytes = encode_request(&|p| {
            p.extend_from_slice(&3u32.to_le_bytes());
            p.extend_from_slice(&1u32.to_le_bytes());
            p.push(3);
        });
        assert!(matches!(
            read_frame_or_eof(&mut &bytes[..]).unwrap_err(),
            ProtocolError::InvalidCircuit(_)
        ));
        assert_both_entries_reject(&bytes);
        // A NaN matrix entry would be served as NaN amplitudes.
        let bytes = encode_request(&|p| {
            p.extend_from_slice(&1u32.to_le_bytes());
            p.extend_from_slice(&1u32.to_le_bytes());
            p.push(1);
            p.extend_from_slice(&0u32.to_le_bytes());
            p.extend_from_slice(&1f64.to_le_bytes());
            p.extend_from_slice(&f64::NAN.to_le_bytes());
            for _ in 0..6 {
                p.extend_from_slice(&0f64.to_le_bytes());
            }
            p.extend_from_slice(&0u32.to_le_bytes());
        });
        let err = read_frame_or_eof(&mut &bytes[..]).unwrap_err();
        assert!(matches!(&err, ProtocolError::InvalidCircuit(m) if m.contains("op 0")), "{err:?}");
        assert!(err.is_recoverable());
        assert_both_entries_reject(&bytes);
        // More qubits than the wire admits.
        let bytes = encode_request(&|p| {
            p.extend_from_slice(&(MAX_QUBITS + 1).to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
        });
        assert!(matches!(key_pass(&bytes), Err(ProtocolError::InvalidCircuit(_))));
        assert_both_entries_reject(&bytes);
        // Every truncation of a valid payload, and one trailing byte.
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::SqrtW, 1).push2(Gate::sycamore_fsim(), 1, 0);
        let valid = Frame::Request(AmplitudeRequest {
            request_id: 1,
            circuit,
            bitstrings: vec![vec![0, 1]],
            deadline_ms: None,
        })
        .encode();
        for cut in 5..valid.len() {
            assert_both_entries_reject(&valid[..cut]);
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        assert_both_entries_reject(&trailing);
    }
}
