//! Load-generator bench for the `qtnsim-serve` amplitude service.
//!
//! Two generators drive a fresh in-process server per configuration, each
//! once with micro-batching enabled (2 ms coalescing deadline) and once
//! with `deadline = 0` (every request dispatches alone — the unbatched
//! baseline):
//!
//! - **closed loop**: C client threads issue back-to-back single-amplitude
//!   requests (send, wait, repeat) — throughput under saturation;
//! - **open loop**: requests arrive on a fixed schedule at R requests/sec
//!   regardless of completions (pipelined senders, per-connection receiver
//!   threads) — tail latency under offered load, the regime where
//!   coalescing pays because queued same-fingerprint requests share one
//!   StemPure prefix per dispatch.
//!
//! Results land in `BENCH_serve.json` at the workspace root: p50/p99
//! latency and completed throughput per configuration, plus the server's
//! own occupancy/shed counters, under a `schema`/`version` header
//! recording the workload (circuit, |S|, worker threads, rates).

use qtn_circuit::{Circuit, RqcConfig};
use qtnsim_core::json::{array, JsonObject};
use qtnsim_core::{ExecutorConfig, PlannerConfig};
use qtnsim_serve::{AmplitudeRequest, BatchConfig, Frame, MetricsSnapshot, ServeConfig, Server};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads swept by the closed-loop generator.
const CLOSED_CLIENTS: [usize; 3] = [1, 4, 16];
/// Requests per client thread in the closed loop.
const CLOSED_REQUESTS_PER_CLIENT: usize = 120;
/// Offered rates (requests/sec) swept by the open-loop generator.
const OPEN_RATES: [u64; 3] = [400, 1000, 2500];
/// Open-loop run length per rate.
const OPEN_DURATION: Duration = Duration::from_secs(2);
/// Connections the open-loop generator spreads arrivals across.
const OPEN_CONNECTIONS: usize = 4;
/// Coalescing deadline for the batched configurations.
const BATCH_DEADLINE: Duration = Duration::from_millis(2);
/// Executor workers of the served engine.
const WORKERS: usize = 2;

fn bench_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn serve_config(deadline: Duration) -> ServeConfig {
    ServeConfig {
        planner: PlannerConfig { target_rank: 8, ..Default::default() },
        executor: ExecutorConfig { workers: WORKERS, max_subtasks: 0, reuse: true, pool: true },
        batch: BatchConfig { max_batch: 64, batch_deadline: deadline, max_queue: 4096 },
    }
}

fn bitstring(n: usize, k: u64) -> Vec<u8> {
    let pattern = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n.min(63));
    (0..n).map(|q| ((pattern >> (n - 1 - q)) & 1) as u8).collect()
}

/// Latencies (seconds) of completed requests plus shed/error counts and
/// the client-side fault-tolerance work (closed loop only — the open-loop
/// generator pipelines raw frames).
#[derive(Default)]
struct RunOutcome {
    latencies: Vec<f64>,
    shed: u64,
    failed: u64,
    client_reconnects: u64,
    client_retries: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One pipelined connection: a sender half and a receiver thread that
/// matches replies to send timestamps by request id.
struct Pipelined {
    writer: TcpStream,
    in_flight: Arc<Mutex<HashMap<u64, Instant>>>,
    receiver: std::thread::JoinHandle<RunOutcome>,
}

impl Pipelined {
    fn connect(addr: SocketAddr) -> Pipelined {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone stream");
        let in_flight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::default();
        let map = Arc::clone(&in_flight);
        let receiver = std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut outcome = RunOutcome::default();
            // Until the connection is shut down after the drain:
            while let Ok(frame) = Frame::read_from(&mut reader) {
                let (id, kind) = match frame {
                    Frame::Response(resp) => (resp.request_id, 0u8),
                    Frame::Shed { request_id, .. } => (request_id, 1),
                    Frame::Error { request_id, .. } => (request_id, 2),
                    _ => continue,
                };
                let sent_at = map.lock().expect("in-flight map").remove(&id);
                match kind {
                    0 => {
                        let sent_at = sent_at.expect("reply to a sent request");
                        outcome.latencies.push(sent_at.elapsed().as_secs_f64());
                    }
                    1 => outcome.shed += 1,
                    _ => outcome.failed += 1,
                }
            }
            outcome
        });
        Pipelined { writer, in_flight, receiver }
    }

    fn send(&mut self, circuit: &Circuit, id: u64, bits: Vec<u8>) {
        self.in_flight.lock().expect("in-flight map").insert(id, Instant::now());
        Frame::Request(AmplitudeRequest {
            request_id: id,
            circuit: circuit.clone(),
            bitstrings: vec![bits],
            deadline_ms: None,
        })
        .write_to(&mut self.writer)
        .expect("send request");
    }

    /// Wait for every outstanding reply (bounded), close the connection to
    /// stop the receiver, then collect.
    fn finish(self) -> RunOutcome {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.in_flight.lock().expect("in-flight map").is_empty() {
            assert!(Instant::now() < deadline, "open-loop run never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The read half is shared with the receiver thread; shutting it
        // down is what makes its blocking `read_from` return.
        self.writer.shutdown(std::net::Shutdown::Both).ok();
        self.receiver.join().expect("receiver thread")
    }
}

/// C threads of back-to-back request/reply against one server.
fn closed_loop(addr: SocketAddr, circuit: &Circuit, clients: usize) -> (RunOutcome, f64) {
    let next_id = AtomicU64::new(1);
    let start = Instant::now();
    let outcomes: Vec<RunOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next_id = &next_id;
                scope.spawn(move || {
                    // The retrying client is the production path; under a
                    // fault-free server it adds no retries, and under a
                    // `QTNSIM_FAULTS` chaos run the recorded reconnect and
                    // retry counters price the recovery work.
                    let mut client = qtnsim_serve::RetryingClient::connect(
                        addr,
                        qtnsim_serve::RetryConfig::default(),
                    )
                    .expect("connect");
                    let n = circuit.num_qubits();
                    let mut outcome = RunOutcome::default();
                    for _ in 0..CLOSED_REQUESTS_PER_CLIENT {
                        let k = next_id.fetch_add(1, Ordering::Relaxed);
                        let bits = bitstring(n, k);
                        let sent = Instant::now();
                        match client.request_amplitudes(circuit, &[&bits]).expect("reply") {
                            qtnsim_serve::Reply::Amplitudes(_) => {
                                outcome.latencies.push(sent.elapsed().as_secs_f64())
                            }
                            qtnsim_serve::Reply::Shed { .. } => outcome.shed += 1,
                            qtnsim_serve::Reply::Error { .. } => outcome.failed += 1,
                        }
                    }
                    let retry = client.retry_stats();
                    outcome.client_reconnects = retry.reconnects;
                    outcome.client_retries = retry.retries;
                    outcome
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut merged = RunOutcome::default();
    for o in outcomes {
        merged.latencies.extend(o.latencies);
        merged.shed += o.shed;
        merged.failed += o.failed;
        merged.client_reconnects += o.client_reconnects;
        merged.client_retries += o.client_retries;
    }
    (merged, elapsed)
}

/// Fixed-schedule arrivals at `rate` requests/sec across several pipelined
/// connections, independent of completions.
fn open_loop(addr: SocketAddr, circuit: &Circuit, rate: u64) -> (RunOutcome, f64) {
    let total = (rate as f64 * OPEN_DURATION.as_secs_f64()) as u64;
    let interval = Duration::from_secs_f64(1.0 / rate as f64);
    let n = circuit.num_qubits();

    let mut conns: Vec<Pipelined> =
        (0..OPEN_CONNECTIONS).map(|_| Pipelined::connect(addr)).collect();
    let start = Instant::now();
    for k in 0..total {
        let due = start + interval * (k as u32);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let conn = &mut conns[(k as usize) % OPEN_CONNECTIONS];
        conn.send(circuit, k + 1, bitstring(n, k));
    }
    let mut merged = RunOutcome::default();
    for conn in conns {
        let o = conn.finish();
        merged.latencies.extend(o.latencies);
        merged.shed += o.shed;
        merged.failed += o.failed;
    }
    let elapsed = start.elapsed().as_secs_f64();
    (merged, elapsed)
}

fn record(
    kind: &str,
    load_key: &str,
    load: u64,
    deadline: Duration,
    mut outcome: RunOutcome,
    elapsed: f64,
    snapshot: &MetricsSnapshot,
) -> String {
    outcome.latencies.sort_by(f64::total_cmp);
    let completed = outcome.latencies.len() as u64;
    let mut o = JsonObject::new();
    o.field_str("generator", kind)
        .field_u64(load_key, load)
        .field_f64("deadline_ms", deadline.as_secs_f64() * 1e3)
        .field_bool("batched", !deadline.is_zero())
        .field_u64("completed", completed)
        .field_u64("shed", outcome.shed)
        .field_u64("failed", outcome.failed)
        .field_f64("p50_ms", percentile(&outcome.latencies, 0.50) * 1e3)
        .field_f64("p99_ms", percentile(&outcome.latencies, 0.99) * 1e3)
        .field_f64("throughput_rps", completed as f64 / elapsed)
        .field_u64("batches_dispatched", snapshot.batches_dispatched)
        .field_f64("mean_batch_occupancy", snapshot.mean_batch_occupancy())
        .field_u64("deadline_flushes", snapshot.deadline_flushes)
        .field_u64("size_flushes", snapshot.size_flushes)
        .field_u64("requests_shed", snapshot.requests_shed)
        .field_u64("deadline_sheds", snapshot.deadline_sheds)
        .field_u64("panics_caught", snapshot.panics_caught)
        .field_u64("client_reconnects", outcome.client_reconnects)
        .field_u64("client_retries", outcome.client_retries);
    o.finish()
}

fn main() {
    // `cargo bench` passes harness flags; this generator has no knobs.
    let _ = std::env::args();

    let circuit = bench_circuit();
    let deadlines = [Duration::ZERO, BATCH_DEADLINE];
    let mut records = Vec::new();

    for clients in CLOSED_CLIENTS {
        for deadline in deadlines {
            let server = Server::bind("127.0.0.1:0", serve_config(deadline)).expect("bind");
            let addr = server.local_addr();
            // Warm the plan cache so every run prices steady-state serving.
            let mut warm = qtnsim_serve::Client::connect(addr).expect("connect");
            warm.request_amplitudes(&circuit, &[&vec![0; circuit.num_qubits()]]).expect("warmup");
            let (outcome, elapsed) = closed_loop(addr, &circuit, clients);
            let snapshot = server.shutdown();
            eprintln!(
                "serve/closed C={clients} deadline={deadline:?}: {} done in {elapsed:.2}s \
                 ({:.0} rps, occupancy {:.2})",
                outcome.latencies.len(),
                outcome.latencies.len() as f64 / elapsed,
                snapshot.mean_batch_occupancy(),
            );
            records.push(record(
                "closed",
                "clients",
                clients as u64,
                deadline,
                outcome,
                elapsed,
                &snapshot,
            ));
        }
    }

    for rate in OPEN_RATES {
        for deadline in deadlines {
            let server = Server::bind("127.0.0.1:0", serve_config(deadline)).expect("bind");
            let addr = server.local_addr();
            let mut warm = qtnsim_serve::Client::connect(addr).expect("connect");
            warm.request_amplitudes(&circuit, &[&vec![0; circuit.num_qubits()]]).expect("warmup");
            let (outcome, elapsed) = open_loop(addr, &circuit, rate);
            let snapshot = server.shutdown();
            eprintln!(
                "serve/open R={rate}/s deadline={deadline:?}: {} done, {} shed \
                 (p99 {:.2}ms, occupancy {:.2})",
                outcome.latencies.len(),
                outcome.shed,
                percentile(
                    &{
                        let mut l = outcome.latencies.clone();
                        l.sort_by(f64::total_cmp);
                        l
                    },
                    0.99
                ) * 1e3,
                snapshot.mean_batch_occupancy(),
            );
            records.push(record("open", "rate_hz", rate, deadline, outcome, elapsed, &snapshot));
        }
    }

    let mut config = JsonObject::new();
    config
        .field_str("circuit", "rqc-3x4x10-seed5")
        .field_usize("sliced_edges", 4)
        .field_usize("workers", WORKERS)
        .field_usize("max_batch", 64)
        .field_f64("batch_deadline_ms", BATCH_DEADLINE.as_secs_f64() * 1e3)
        .field_usize("open_connections", OPEN_CONNECTIONS)
        .field_raw("closed_clients", "[1, 4, 16]")
        .field_raw("open_rates_hz", "[400, 1000, 2500]");
    let mut top = JsonObject::new();
    top.field_str("schema", "qtnsim-bench/serve")
        .field_u64("version", 2)
        .field_raw("config", &config.finish())
        .field_raw("results", &array(records));
    let json = format!("{}\n", top.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json).expect("write BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");
}
