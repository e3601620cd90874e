//! The long-running amplitude service.
//!
//! Request lifecycle (see ARCHITECTURE.md §Serving layer for the diagram):
//!
//! 1. **Accept** — one acceptor thread takes TCP connections and spawns a
//!    reader/writer thread pair per connection.
//! 2. **Scan + compile** — the reader reads each frame into the
//!    connection's one payload buffer and makes one validating pass over a
//!    request, folding the circuit's fingerprint from the wire bytes. The
//!    shared [`Engine`]'s fingerprint-keyed LRU plan cache is looked up
//!    with that key ([`Engine::compile_by_fingerprint`]); the circuit is
//!    built only on a miss, and planning runs outside the cache lock.
//! 3. **Admit + coalesce** — the request enters the per-fingerprint
//!    micro-batch, or is refused with an explicit `Shed` frame when the
//!    bounded queue is full, the plan busts `memory_budget_bytes`, or the
//!    server is draining.
//! 4. **Dispatch** — the dispatcher thread claims batches that filled up,
//!    hit their latency deadline, or were the only admitted work in flight
//!    (solo dispatch skips a deadline that could not attract partners) and
//!    runs **one** [`qtnsim_core::CompiledCircuit::execute_amplitudes`] per
//!    batch, so every coalesced request shares the StemPure prefix sweep.
//! 5. **Reduce + respond** — the batch's amplitudes are split back per
//!    request (order-preserving, bit-identical to single-shot execution)
//!    and queued on each connection's writer.
//!
//! Shutdown ([`Server::shutdown`]) is graceful by construction: admission
//! closes first (`Shed`/`Draining`), then the dispatcher drains every
//! pending batch and delivers its responses, and only then are connections
//! closed and threads joined.

use crate::batcher::{BatchConfig, BatchEntry, Batcher, EntryOutcome, FlushCause};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::{
    read_frame_into, scan_frame, AmplitudeResponse, Frame, ProtocolError, Scanned, ShedReason,
    RETAINED_PAYLOAD_BYTES,
};
use qtn_circuit::OutputSpec;
use qtnsim_core::fault::{self, FaultPoint};
use qtnsim_core::{lock_unpoisoned, Engine, Error as EngineError, ExecutorConfig, PlannerConfig};
use std::io::BufReader;
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Full service configuration: engine knobs plus batching/admission knobs.
/// The server runs one engine (one LRU plan cache of
/// [`qtnsim_core::engine::DEFAULT_PLAN_CACHE_CAPACITY`] plans) and one
/// dispatcher thread.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Planner configuration for the shared engine;
    /// `memory_budget_bytes` doubles as the admission-control knob —
    /// circuits whose plan busts it are shed, not executed.
    pub planner: PlannerConfig,
    /// Executor configuration for the shared engine (worker threads of the
    /// contraction pool, reuse/pooling toggles).
    pub executor: ExecutorConfig,
    /// Micro-batching and admission control.
    pub batch: BatchConfig,
}

struct Shared {
    engine: Engine,
    batcher: Batcher,
    metrics: ServiceMetrics,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    /// Read-half clones of live connections, shut down after drain so
    /// blocked reader threads observe EOF and exit.
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// A point-in-time metrics snapshot with the engine's cache counters.
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.engine.cache_stats())
    }

    /// Flip into draining mode: refuse new work, make pending batches
    /// immediately ready, and wake the acceptor with a loopback connection.
    fn begin_drain(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.batcher.drain();
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running amplitude service bound to a TCP address. Dropping the handle
/// without calling [`shutdown`](Self::shutdown) leaves the threads running
/// detached; call `shutdown` (or [`wait`](Self::wait) for remotely
/// triggered shutdown) for a clean drain.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
}

impl Server {
    /// Bind the service and spawn its acceptor and dispatcher threads.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Engine::with_configs(config.planner, config.executor),
            batcher: Batcher::new(config.batch),
            metrics: ServiceMetrics::default(),
            shutting_down: AtomicBool::new(false),
            addr: local_addr,
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(shared))
        };

        Ok(Server { shared, acceptor, dispatcher })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A point-in-time metrics snapshot (the in-process equivalent of a
    /// `StatsRequest` frame).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Drain and stop: refuse new work, flush every pending micro-batch,
    /// deliver its responses, then close connections and join all threads.
    /// Returns the final metrics snapshot.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.shared.begin_drain();
        self.finish()
    }

    /// Block until a client's `Shutdown` frame triggers the drain, then
    /// finish the same teardown as [`shutdown`](Self::shutdown).
    pub fn wait(self) -> MetricsSnapshot {
        self.finish()
    }

    fn finish(self) -> MetricsSnapshot {
        // Acceptor exits once the drain flag is set and its accept call is
        // unblocked (begin_drain connects to the listener).
        let _ = self.acceptor.join();
        // The dispatcher drains every pending batch, delivers responses,
        // then sees `None` and exits.
        let _ = self.dispatcher.join();
        // Now close the read half of every connection: blocked readers see
        // EOF, drop their writer senders, and the writers flush out any
        // remaining queued responses before exiting.
        for conn in lock_unpoisoned(&self.shared.conns).iter() {
            let _ = conn.shutdown(SocketShutdown::Read);
        }
        let threads = std::mem::take(&mut *lock_unpoisoned(&self.shared.conn_threads));
        for t in threads {
            let _ = t.join();
        }
        self.shared.snapshot()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let read_half = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        lock_unpoisoned(&shared.conns).push(read_half);
        let shared_conn = Arc::clone(&shared);
        let handle = std::thread::spawn(move || connection_loop(stream, shared_conn));
        lock_unpoisoned(&shared.conn_threads).push(handle);
    }
}

/// Per-connection reader: decodes frames, compiles circuits, admits work.
/// Responses flow through an mpsc channel to a dedicated writer thread so
/// the dispatcher never blocks on a slow client socket.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Frame>();
    let writer = std::thread::spawn(move || {
        let mut stream = writer_stream;
        // A failed write may have left a torn frame on the wire; any frame
        // written after it would be parsed mid-payload and desynchronize the
        // client. Once desynced, shut the write half down immediately (the
        // client sees EOF instead of garbage) but keep draining the channel
        // so the dispatcher finishing this connection's batches never observes
        // a dropped receiver mid-send.
        let mut desynced = false;
        while let Ok(frame) = rx.recv() {
            if desynced {
                continue;
            }
            if write_frame_faulted(&frame, &mut stream).is_err() {
                desynced = true;
                let _ = stream.shutdown(SocketShutdown::Write);
            }
        }
        if !desynced {
            let _ = stream.shutdown(SocketShutdown::Write);
        }
    });

    let mut reader = BufReader::new(stream);
    let mut payload = Vec::new();
    loop {
        let read = if fault::fire(FaultPoint::ReadIo) {
            Err(ProtocolError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: read I/O error",
            )))
        } else {
            read_frame_into(&mut reader, &mut payload)
        };
        match read.and_then(|tag| tag.map(|tag| scan_frame(tag, &payload)).transpose()) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                let arrival = Instant::now();
                // Isolate frame handling: a panic (e.g. an injected pool
                // failure during compile) fails this frame with a typed
                // error and keeps the connection and service alive.
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_frame(frame, arrival, &tx, &shared)
                }));
                match handled {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(payload) => {
                        shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
                        let err = EngineError::from_panic(payload);
                        let _ = tx.send(Frame::Error { request_id: 0, message: err.to_string() });
                    }
                }
            }
            Err(err) => {
                let _ = tx.send(Frame::Error { request_id: 0, message: err.to_string() });
                if !err.is_recoverable() {
                    break;
                }
            }
        }
        if payload.capacity() > RETAINED_PAYLOAD_BYTES {
            payload = Vec::new();
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Write one frame, honouring the write-side fault injection points. The
/// `PartialFrame` fault flushes a torn prefix of the encoded frame and then
/// fails — exactly the half-written state a mid-write crash leaves behind —
/// so the writer's desync handling is exercised end to end.
fn write_frame_faulted(frame: &Frame, stream: &mut TcpStream) -> Result<(), ProtocolError> {
    if fault::fire(FaultPoint::SlowWrite) {
        std::thread::sleep(Duration::from_millis(20));
    }
    if fault::fire(FaultPoint::WriteIo) {
        return Err(ProtocolError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "injected fault: write I/O error",
        )));
    }
    if fault::fire(FaultPoint::PartialFrame) {
        use std::io::Write;
        let encoded = frame.encode();
        stream.write_all(&encoded[..encoded.len() / 2])?;
        stream.flush()?;
        return Err(ProtocolError::Io(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "injected fault: partial frame",
        )));
    }
    frame.write_to(stream)
}

/// Process one inbound frame; returns false when the connection should end.
/// `arrival` is when the frame finished reading — protocol-v2 deadlines
/// count from it.
fn handle_frame(
    frame: Scanned<'_>,
    arrival: Instant,
    tx: &mpsc::Sender<Frame>,
    shared: &Arc<Shared>,
) -> bool {
    match frame {
        Scanned::Request(req) => {
            let request_id = req.request_id;
            let deadline = req.deadline_ms.map(|ms| arrival + Duration::from_millis(u64::from(ms)));
            let n = req.circuit.num_qubits;
            let spec = OutputSpec::Amplitude(vec![0; n]);
            // The plan cache is keyed by the fingerprint the scan folded
            // from the wire; the circuit is built only when that key misses.
            let key = req.circuit.fingerprint;
            let build = || req.circuit.build();
            let compiled = match shared.engine.compile_by_fingerprint(key, n, &spec, build) {
                Ok(compiled) => Arc::new(compiled),
                Err(EngineError::MemoryBudgetExceeded { .. }) => {
                    shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Frame::Shed { request_id, reason: ShedReason::MemoryBudget });
                    return true;
                }
                Err(err) => {
                    shared.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Frame::Error { request_id, message: err.to_string() });
                    return true;
                }
            };
            // Admission-time deadline check: a request whose budget was
            // already spent reading and compiling is shed here instead of
            // occupying queue space it can never use.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(Frame::Shed { request_id, reason: ShedReason::DeadlineExceeded });
                return true;
            }
            // Validate bitstrings before admission so malformed requests
            // are typed errors, not batch poison that fails innocents
            // coalesced alongside them.
            for bits in &req.bitstrings {
                if bits.len() != n || bits.iter().any(|&b| b > 1) {
                    shared.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Frame::Error {
                        request_id,
                        message: format!("bitstrings must be {n} bytes of 0/1"),
                    });
                    return true;
                }
            }
            if req.bitstrings.is_empty() {
                shared.metrics.requests_accepted.fetch_add(1, Ordering::Relaxed);
                shared.metrics.requests_completed.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(Frame::Response(AmplitudeResponse {
                    request_id,
                    amplitudes: Vec::new(),
                    batch_size: 0,
                    deadline_flush: false,
                }));
                return true;
            }
            let reply = tx.clone();
            let metrics_shared = Arc::clone(shared);
            let entry = BatchEntry {
                bitstrings: req.bitstrings,
                deadline,
                complete: Box::new(move |outcome| {
                    let frame = match outcome {
                        EntryOutcome::Amplitudes { amplitudes, batch_size, deadline_flush } => {
                            let m = &metrics_shared.metrics;
                            m.requests_completed.fetch_add(1, Ordering::Relaxed);
                            m.amplitudes_served
                                .fetch_add(amplitudes.len() as u64, Ordering::Relaxed);
                            Frame::Response(AmplitudeResponse {
                                request_id,
                                amplitudes,
                                batch_size,
                                deadline_flush,
                            })
                        }
                        EntryOutcome::Failed(message) => {
                            metrics_shared.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                            Frame::Error { request_id, message }
                        }
                        EntryOutcome::Shed(reason) => {
                            let m = &metrics_shared.metrics;
                            m.requests_shed.fetch_add(1, Ordering::Relaxed);
                            if reason == ShedReason::DeadlineExceeded {
                                m.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                            }
                            Frame::Shed { request_id, reason }
                        }
                    };
                    let _ = reply.send(frame);
                }),
            };
            match shared.batcher.enqueue(compiled, entry) {
                Ok(()) => {
                    shared.metrics.requests_accepted.fetch_add(1, Ordering::Relaxed);
                }
                Err(reason) => {
                    shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Frame::Shed { request_id, reason });
                }
            }
            true
        }
        Scanned::Frame(Frame::StatsRequest) => {
            let _ = tx.send(Frame::StatsResponse(shared.snapshot().to_json()));
            true
        }
        Scanned::Frame(Frame::Shutdown) => {
            shared.begin_drain();
            true
        }
        // Server-to-client frames arriving at the server are protocol
        // misuse; answer with a typed error and keep the stream (framing is
        // intact).
        Scanned::Frame(_) => {
            let _ = tx.send(Frame::Error {
                request_id: 0,
                message: "unexpected server-to-client frame".into(),
            });
            true
        }
    }
}

/// Dispatcher: claim ready batches, execute them, split results back out.
fn dispatch_loop(shared: Arc<Shared>) {
    while let Some(batch) = shared.batcher.next_batch() {
        let m = &shared.metrics;
        m.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        m.batched_amplitudes.fetch_add(batch.amplitudes as u64, Ordering::Relaxed);
        m.queue_micros.fetch_add(batch.queued_for.as_micros() as u64, Ordering::Relaxed);
        match batch.cause {
            FlushCause::Full => m.size_flushes.fetch_add(1, Ordering::Relaxed),
            FlushCause::Deadline => m.deadline_flushes.fetch_add(1, Ordering::Relaxed),
            FlushCause::Solo => m.solo_flushes.fetch_add(1, Ordering::Relaxed),
            FlushCause::Drain => m.drain_flushes.fetch_add(1, Ordering::Relaxed),
        };

        // Requests whose own deadline passed while coalescing are shed now,
        // before the engine runs: executing them would spend contraction
        // work on answers the client has already given up on.
        let now = Instant::now();
        let (live, expired): (Vec<BatchEntry>, Vec<BatchEntry>) =
            batch.entries.into_iter().partition(|e| e.deadline.is_none_or(|d| now < d));
        for entry in expired {
            (entry.complete)(EntryOutcome::Shed(ShedReason::DeadlineExceeded));
        }
        if live.is_empty() {
            shared.batcher.finish_batch();
            continue;
        }

        let all_bits: Vec<&[u8]> =
            live.iter().flat_map(|e| e.bitstrings.iter().map(Vec::as_slice)).collect();
        let batch_size = all_bits.len() as u32;
        // Isolate the engine: a worker panic (injected or genuine) becomes
        // a typed error that fails only this batch's requests; the
        // dispatcher thread and every other batch keep going.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.compiled.execute_amplitudes(&all_bits)
        }))
        .unwrap_or_else(|payload| Err(EngineError::from_panic(payload)));
        // Tell the batcher the engine is free *before* delivering responses:
        // a lone batch that opened during this execution becomes solo-ready
        // without waiting on slow client writers.
        shared.batcher.finish_batch();
        match executed {
            Ok((amplitudes, report)) => {
                m.absorb_execution(&report.stats);
                let deadline_flush = batch.cause == FlushCause::Deadline;
                let mut offset = 0;
                for entry in live {
                    let take = entry.bitstrings.len();
                    let slice = amplitudes[offset..offset + take].to_vec();
                    offset += take;
                    (entry.complete)(EntryOutcome::Amplitudes {
                        amplitudes: slice,
                        batch_size,
                        deadline_flush,
                    });
                }
            }
            Err(err) => {
                if matches!(err, EngineError::ExecutionPanic(_)) {
                    m.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                let message = err.to_string();
                for entry in live {
                    (entry.complete)(EntryOutcome::Failed(message.clone()));
                }
            }
        }
    }
}
