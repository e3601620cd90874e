//! `serve-s12`: an in-process `qtnsim_serve::Server` on loopback.
//!
//! The end-to-end phase is a closed loop: one [`Client`] connection sends
//! its next single-amplitude request only after the previous reply, the way
//! a caller that waits for each result does. The traced pass adds an open
//! loop, where requests are due on a fixed schedule whatever the server
//! does and each is timed from its due time.

use crate::json::{self, Value};
use crate::stats::{median, median_of, sorted, tail};
use crate::trace::Tracer;
use crate::workloads::{
    zero_output, Budget, Cases, Outcome, Spec, LOG2_FLOPS, PEAK_BYTES, SETUP_SHARE,
    SLICING_OVERHEAD, TOLERANCE,
};
use crate::Metrics;
use qtn_circuit::Circuit;
use qtn_tensor::Complex64;
use qtnsim_core::plan_simulation;
use qtnsim_serve::{AmplitudeRequest, Client, Frame, Reply, ServeConfig, Server};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop offered rate, requests per second.
const OPEN_RATE: f64 = 1000.0;
/// Connections the open-loop arrivals are spread over.
const OPEN_CONNECTIONS: usize = 2;

/// While it lives, this thread and every thread it starts run on one core.
///
/// A request crosses five threads, and with one closed-loop client all but
/// one of them wait, so on two cores every hand-off wakes an idle core. This
/// sandbox is a virtual machine whose idle cores halt into the hypervisor:
/// waking one costs about 30 us, a third of the round trip, and that cost
/// moves by half with what the host is doing, for minutes at a time. On one
/// core a hand-off is a context switch, the round trip is the program's own
/// work, and it repeats within a few percent.
struct OneCore {
    /// The affinity mask to restore; `None` if it could not be narrowed.
    before: Option<CpuSet>,
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Set the calling thread's affinity; false if the system refused.
fn set_affinity(mask: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is valid for the `size_of::<CpuSet>()` bytes passed, the
    // call only reads it, and pid 0 names the calling thread.
    return unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) } == 0;
    #[cfg(not(target_os = "linux"))]
    return false;
}

impl OneCore {
    /// Narrow the affinity to the first core it allows.
    fn pin() -> OneCore {
        let mut before: CpuSet = [0; 16];
        #[cfg(target_os = "linux")]
        // SAFETY: `before` is valid for the `size_of::<CpuSet>()` bytes passed
        // and the call writes no more; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), before.as_mut_ptr()) } != 0
        {
            return OneCore { before: None };
        }
        let Some(word) = before.iter().position(|&bits| bits != 0) else {
            return OneCore { before: None };
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << before[word].trailing_zeros();
        let pinned = set_affinity(&one);
        println!(
            "# serve: {}",
            if pinned { "client and server pinned to one core" } else { "not pinned to one core" }
        );
        OneCore { before: pinned.then_some(before) }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(before) = &self.before {
            set_affinity(before);
        }
    }
}

fn bind(spec: &Spec) -> Server {
    let config = ServeConfig {
        planner: spec.planner(),
        executor: spec.executor(),
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", config).expect("loopback bind")
}

/// One request round trip, checked against the oracle. Returns the seconds.
fn round_trip(
    client: &mut Client,
    circuit: &Circuit,
    cases: &mut Cases,
    tr: &Tracer,
    out: &mut Outcome,
) -> f64 {
    let (bits, want) = cases.next();
    let (reply, seconds) =
        tr.time("serve.request", || client.request_amplitudes(circuit, &[&bits]));
    out.count(judge(reply.ok().as_ref(), want, cases).err());
    seconds
}

/// Why a reply counts as a failed operation, if it does.
fn judge(reply: Option<&Reply>, want: Complex64, cases: &Cases) -> Result<(), String> {
    match reply {
        Some(Reply::Amplitudes(resp)) if resp.amplitudes.len() == 1 => {
            let err = cases.rel_err(resp.amplitudes[0], want);
            if err > TOLERANCE {
                Err(format!("served amplitude misses the oracle by {err:e} relative"))
            } else {
                Ok(())
            }
        }
        Some(Reply::Shed { reason, .. }) => Err(format!("request shed: {reason:?}")),
        Some(Reply::Error { message, .. }) => Err(format!("request failed: {message}")),
        _ => Err("no usable reply".to_string()),
    }
}

fn server_stats(client: &mut Client) -> Value {
    let text = client.stats().expect("the server answers a stats request");
    json::parse(&text).expect("the stats payload is JSON")
}

/// Back-to-back requests on one connection for `share` of the budget.
fn closed_loop(
    client: &mut Client,
    circuit: &Circuit,
    cases: &mut Cases,
    budget: Budget,
    share: f64,
    tr: &Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    budget.repeat(share, usize::MAX, 3, || {
        latencies.push(round_trip(client, circuit, cases, tr, out));
    });
    latencies
}

/// A fresh set-up: bind, connect, and the first request, which compiles.
/// The shutdown that follows is not part of it.
fn fresh_setup(
    spec: &Spec,
    circuit: &Circuit,
    cases: &mut Cases,
    tr: &Tracer,
    out: &mut Outcome,
) -> (f64, f64) {
    let ((server, first_request), seconds) = tr.time("setup", || {
        let server = bind(spec);
        let mut client = Client::connect(server.local_addr()).expect("loopback connect");
        (server, round_trip(&mut client, circuit, cases, tr, out))
    });
    server.shutdown();
    (seconds, first_request)
}

/// The untraced pass.
pub fn run(spec: &Spec, seed: u64, budget: Budget, tr: &Tracer) -> Outcome {
    let _pinned = OneCore::pin();
    let mut out = Outcome::default();
    let circuit = spec.circuit(seed);
    let mut cases = Cases::new(spec, &circuit, seed, budget);
    budget.repeat(SETUP_SHARE, 200, 1, || {
        let (seconds, _) = fresh_setup(spec, &circuit, &mut cases, tr, &mut out);
        out.setup_s.push(seconds);
    });

    let server = bind(spec);
    let mut client = Client::connect(server.local_addr()).expect("loopback connect");
    // One second of warm-up: the compile, the branch cache and the pools.
    let warm_up = Budget { seconds: 1.0, ..budget };
    closed_loop(&mut client, &circuit, &mut cases, warm_up, 1.0, tr, &mut out);
    let before = server_stats(&mut client);
    out.op_s = closed_loop(&mut client, &circuit, &mut cases, budget, 1.0, tr, &mut out);
    let after = server_stats(&mut client);
    server.shutdown();

    let delta = |path: &str| {
        after.number_at(path).and_then(|a| Ok(a - before.number_at(path)?)).expect("stats field")
    };
    // Server-side flops per request over the timed phase. One closed-loop
    // client never coalesces, so every request costs the same flops.
    out.exact(LOG2_FLOPS, (delta("execution/flops") / delta("requests_completed")).log2());
    out.exact(PEAK_BYTES, after.number_at("execution/peak_bytes_in_flight").expect("stats field"));
    // The server does not expose its plan; the planner is deterministic, so
    // planning the same circuit here yields the plan it serves from.
    let plan = plan_simulation(&circuit, &zero_output(&circuit), &spec.planner());
    out.exact(SLICING_OVERHEAD, plan.overhead);
    out
}

/// One pipelined open-loop connection: the caller writes requests, a thread
/// reads replies and stamps their arrival.
struct Pipelined {
    writer: TcpStream,
    receiver: std::thread::JoinHandle<Vec<(Instant, Reply)>>,
}

impl Pipelined {
    /// `arrived` counts the replies read, over all connections.
    fn connect(addr: SocketAddr, arrived: Arc<AtomicUsize>) -> Pipelined {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone the stream");
        let receiver = std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut replies = Vec::new();
            // Until the caller shuts the connection down after the drain.
            while let Ok(frame) = Frame::read_from(&mut reader) {
                let now = Instant::now();
                let reply = match frame {
                    Frame::Response(resp) => Reply::Amplitudes(resp),
                    Frame::Shed { request_id, reason } => Reply::Shed { request_id, reason },
                    Frame::Error { request_id, message } => Reply::Error { request_id, message },
                    _ => continue,
                };
                replies.push((now, reply));
                arrived.fetch_add(1, Ordering::SeqCst);
            }
            replies
        });
        Pipelined { writer, receiver }
    }
}

struct OpenLoop {
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    elapsed: f64,
}

/// Requests due every `1/OPEN_RATE` seconds for `seconds`, sent whether or
/// not earlier ones completed, each timed from its due time.
fn open_loop(
    addr: SocketAddr,
    circuit: &Circuit,
    cases: &mut Cases,
    seconds: f64,
    tr: &Tracer,
    out: &mut Outcome,
) -> OpenLoop {
    let total = (OPEN_RATE * seconds) as usize;
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let arrived = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<Pipelined> =
        (0..OPEN_CONNECTIONS).map(|_| Pipelined::connect(addr, Arc::clone(&arrived))).collect();

    let mut due_and_want = Vec::with_capacity(total);
    let mut lateness = Vec::with_capacity(total);
    let start = Instant::now();
    for k in 0..total {
        let (bits, want) = cases.next();
        let due = start + interval * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64());
        let request = Frame::Request(AmplitudeRequest {
            request_id: k as u64,
            circuit: circuit.clone(),
            bitstrings: vec![bits],
            deadline_ms: None,
        });
        request.write_to(&mut conns[k % OPEN_CONNECTIONS].writer).expect("send a request");
        due_and_want.push((due, want));
    }

    // Drain: every request gets a reply, a shed or an error frame.
    let deadline = Instant::now() + Duration::from_secs(30);
    while arrived.load(Ordering::SeqCst) < total && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mut replies: Vec<Option<(Instant, Reply)>> = vec![None; total];
    for conn in conns {
        // The receiver shares the socket; shutting it down ends its read.
        conn.writer.shutdown(Shutdown::Both).ok();
        for (at, reply) in conn.receiver.join().expect("the receiver thread") {
            let id = reply.request_id() as usize;
            replies[id] = Some((at, reply));
        }
    }

    let mut latencies = Vec::with_capacity(total);
    for ((due, want), reply) in due_and_want.into_iter().zip(replies) {
        let verdict = judge(reply.as_ref().map(|(_, r)| r), want, cases);
        if let (Ok(()), Some((at, _))) = (&verdict, &reply) {
            let seconds = at.saturating_duration_since(due).as_secs_f64();
            tr.add("serve.open_request", due, seconds);
            latencies.push(seconds);
        }
        out.count(verdict.err());
    }
    OpenLoop { latencies, lateness, elapsed }
}

/// The serve layer's metrics, from the traced pass. `in_process_p50` is the
/// same circuit's `execute_amplitude` median without a server around it.
pub fn layers(
    spec: &Spec,
    seed: u64,
    budget: Budget,
    in_process_p50: f64,
    tr: &Tracer,
    out: &mut Outcome,
    m: &mut Metrics,
) {
    let circuit = spec.circuit(seed);
    let mut cases = Cases::new(spec, &circuit, seed, budget);

    // Wire: one request frame encoded and decoded, without a socket.
    let bitstrings = vec![cases.next().0];
    let request = Frame::Request(AmplitudeRequest {
        request_id: 1,
        circuit: circuit.clone(),
        bitstrings: bitstrings.clone(),
        deadline_ms: None,
    });
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = request.encode();
    budget.repeat(0.01, 200, 3, || {
        let (encoded, seconds) = tr.time("serve.encode_request", || request.encode());
        encode.push(seconds);
        bytes = encoded;
        // A frame is a u32 length, a tag byte, then the payload.
        let (decoded, seconds) =
            tr.time("serve.decode_request", || Frame::decode(bytes[4], &bytes[5..]));
        decode.push(seconds);
        // Gates decode to raw unitaries, so equality is up to the fingerprint.
        let same = matches!(&decoded, Ok(Frame::Request(r))
            if r.circuit.fingerprint() == circuit.fingerprint() && r.bitstrings == bitstrings);
        out.count((!same).then(|| "a request frame does not survive encode and decode".into()));
    });
    m.insert("serve.encode_request_s", median_of(encode));
    m.insert("serve.decode_request_s", median_of(decode));

    let _pinned = OneCore::pin();
    let (_, first_request) = fresh_setup(spec, &circuit, &mut cases, tr, out);
    m.insert("serve.first_req_ms", first_request * 1e3);

    let server = bind(spec);
    let mut client = Client::connect(server.local_addr()).expect("loopback connect");
    let warm_up = Budget { seconds: 1.0, ..budget };
    closed_loop(&mut client, &circuit, &mut cases, warm_up, 1.0, tr, out);
    let (closed, closed_wall) = tr.time("serve.closed_loop", || {
        closed_loop(&mut client, &circuit, &mut cases, budget, 1.0 / 3.0, tr, out)
    });
    let completed = closed.len() as f64;
    let closed = sorted(closed);
    let (closed_tail, closed_pct) = tail(&closed);
    m.insert("serve.closed_req_per_s", completed / closed_wall);
    m.insert("serve.closed_p50_ms", median(&closed) * 1e3);
    m.insert("serve.closed_tail_ms", closed_tail * 1e3);
    m.insert("serve.wire_overhead_ms", (median(&closed) - in_process_p50) * 1e3);

    let open_seconds = if budget.quick { 0.2 } else { (budget.seconds / 3.0).min(5.0) };
    let (open, _) = tr.time("serve.open_loop", || {
        open_loop(server.local_addr(), &circuit, &mut cases, open_seconds, tr, out)
    });
    let open_completed = open.latencies.len() as f64;
    let (latencies, lateness) = (sorted(open.latencies), sorted(open.lateness));
    let (open_tail, open_pct) = tail(&latencies);
    m.insert("serve.open_p50_ms", median(&latencies) * 1e3);
    m.insert("serve.open_tail_ms", open_tail * 1e3);
    m.insert("serve.open_late_ms", tail(&lateness).0 * 1e3);
    m.insert("serve.open_completed_per_s", open_completed / open.elapsed);
    println!(
        "# serve tails: closed p{closed_pct:.2} of {} requests, open p{open_pct:.2} of {} at {OPEN_RATE}/s over {OPEN_CONNECTIONS} connections",
        closed.len(),
        latencies.len(),
    );

    let stats = server_stats(&mut client);
    server.shutdown();
    let stat = |path: &str| stats.number_at(path).expect("stats field");
    let batches = stat("batches_dispatched").max(1.0);
    let compiles =
        (stat("plan_cache/plan_cache_hits") + stat("plan_cache/plan_cache_misses")).max(1.0);
    m.insert("serve.queue_wait_us_mean", stat("queue_micros") / batches);
    m.insert("serve.batch_occupancy_mean", stat("mean_batch_occupancy"));
    m.insert("serve.flush_solo", stat("solo_flushes"));
    m.insert("serve.flush_size", stat("size_flushes"));
    m.insert("serve.flush_deadline", stat("deadline_flushes"));
    m.insert("serve.plan_cache_hit_ratio", stat("plan_cache/plan_cache_hits") / compiles);
    m.insert("serve.shed", stat("requests_shed"));
    m.insert("serve.failed", stat("requests_failed"));
    m.insert("serve.panics_caught", stat("panics_caught"));
}
