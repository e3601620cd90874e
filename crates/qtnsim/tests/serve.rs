//! Loopback integration tests for the `qtnsim-serve` amplitude service:
//! batched responses must be **bit-identical** to direct single-shot
//! engine execution, overload must produce explicit `Shed` backpressure
//! frames (never dropped connections or panics), and graceful shutdown
//! must drain every admitted request before the listener goes away.

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::core::engine::DEFAULT_PLAN_CACHE_CAPACITY;
use qtnsim::{c64, Circuit, Complex64, Engine, ExecutorConfig, Gate, PlannerConfig};
use qtnsim_serve::{BatchConfig, Client, Reply, ServeConfig, Server, ShedReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A 12-qubit RQC whose plan slices at target rank 8 — big enough that
/// batching matters, small enough for a fast test.
fn sliced_circuit(seed: u64) -> Circuit {
    RqcConfig::small(3, 4, 10, seed).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor() -> ExecutorConfig {
    ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true }
}

fn random_bitstrings(n: usize, count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..n).map(|_| rng.gen_range(0..2u32) as u8).collect()).collect()
}

fn config(batch: BatchConfig) -> ServeConfig {
    ServeConfig { planner: planner(), executor: executor(), batch }
}

/// Batched service responses agree bit for bit with direct engine
/// execution of the same circuit — coalescing is invisible to clients.
#[test]
fn served_amplitudes_are_bit_identical_to_direct_execution() {
    let circuit = sliced_circuit(5);
    let n = circuit.num_qubits();
    let bitstrings = random_bitstrings(n, 12, 42);

    let server = Server::bind(
        "127.0.0.1:0",
        config(BatchConfig {
            max_batch: 4,
            batch_deadline: Duration::from_millis(5),
            max_queue: 4096,
        }),
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Pipeline every request up front so the batcher actually coalesces.
    let refs: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let mut ids = Vec::new();
    for bits in &refs {
        ids.push(client.send_request(&circuit, &[bits]).expect("send"));
    }
    let mut replies = std::collections::HashMap::new();
    for _ in &ids {
        let reply = client.recv_reply().expect("reply");
        replies.insert(reply.request_id(), reply);
    }

    // Ground truth: the engine, driven directly, no service in between.
    // How many requests share a batch depends on timing, so any batch size
    // is accepted; the amplitude must not depend on it.
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    for (id, bits) in ids.iter().zip(bitstrings.iter()) {
        let (expected, _) = compiled.execute_amplitude(bits).unwrap();
        match replies.remove(id) {
            Some(Reply::Amplitudes(resp)) => {
                assert_eq!(resp.amplitudes.len(), 1);
                assert_eq!(
                    resp.amplitudes[0], expected,
                    "served amplitude must be bit-identical for {bits:?}"
                );
                assert!(resp.batch_size >= 1, "a batch carries at least its own request");
            }
            other => panic!("expected amplitudes for request {id}, got {other:?}"),
        }
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.requests_completed, 12);
    assert_eq!(snapshot.requests_shed, 0);
    assert!((1..=12).contains(&snapshot.batches_dispatched));
    assert_eq!(snapshot.batched_amplitudes, 12, "every amplitude rode exactly one batch");
    assert_eq!(snapshot.cache.misses, 1, "one circuit, one plan");
}

/// A multi-amplitude request is answered in bitstring order, identical to
/// the engine's own batched execution.
#[test]
fn multi_amplitude_requests_preserve_order_and_identity() {
    let circuit = sliced_circuit(7);
    let n = circuit.num_qubits();
    let bitstrings = random_bitstrings(n, 8, 13);

    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let refs: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let reply = client.request_amplitudes(&circuit, &refs).expect("reply");
    let Reply::Amplitudes(resp) = reply else { panic!("expected amplitudes, got {reply:?}") };
    assert_eq!(resp.amplitudes.len(), 8);

    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    for (bits, served) in bitstrings.iter().zip(resp.amplitudes.iter()) {
        let (expected, _) = compiled.execute_amplitude(bits).unwrap();
        assert_eq!(expected, *served, "order-preserving bit-identity for {bits:?}");
    }
    server.shutdown();
}

/// Overflowing the bounded queue produces explicit `Shed` frames with
/// `QueueFull`; the connection survives and later requests succeed.
#[test]
fn overload_sheds_with_explicit_backpressure() {
    let circuit = sliced_circuit(9);
    let n = circuit.num_qubits();

    // A queue bound of 2 amplitudes and a long deadline: the first request
    // dispatches solo and occupies the engine, the oversized second one
    // must be refused outright (3 amplitudes never fit a bound of 2).
    let server = Server::bind(
        "127.0.0.1:0",
        config(BatchConfig { max_batch: 64, batch_deadline: Duration::from_secs(5), max_queue: 2 }),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let zeros = vec![0u8; n];
    let ones = vec![1u8; n];
    let first = client.send_request(&circuit, &[&zeros]).expect("send");
    let shed_id = client.send_request(&circuit, &[&zeros, &ones, &zeros]).expect("send");

    // Both replies arrive on the same connection in whichever order the
    // admission path and the engine finish; match them by id.
    let mut replies = std::collections::HashMap::new();
    for _ in 0..2 {
        let reply = client.recv_reply().expect("reply");
        replies.insert(reply.request_id(), reply);
    }
    match replies.remove(&shed_id) {
        Some(Reply::Shed { reason, .. }) => assert_eq!(reason, ShedReason::QueueFull),
        other => panic!("expected an explicit shed, got {other:?}"),
    }
    match replies.remove(&first) {
        Some(Reply::Amplitudes(_)) => {}
        other => panic!("the admitted request completes, not drops: {other:?}"),
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.requests_shed, 1);
    assert_eq!(snapshot.requests_completed, 1);
}

/// Shutdown drains in-flight batches: every admitted request gets its
/// amplitudes even when the drain begins while they are still queued.
#[test]
fn shutdown_drains_admitted_requests() {
    let circuit = sliced_circuit(11);
    let n = circuit.num_qubits();
    let server = Server::bind(
        "127.0.0.1:0",
        config(BatchConfig {
            max_batch: 64,
            batch_deadline: Duration::from_secs(30),
            max_queue: 4096,
        }),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let bitstrings = random_bitstrings(n, 6, 3);
    let refs: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let mut ids = Vec::new();
    for bits in &refs {
        ids.push(client.send_request(&circuit, &[bits]).expect("send"));
    }

    // Wait until the server has admitted all six (any batch opened while
    // the engine is busy parks behind the 30 s deadline), then drain.
    let admitted = std::time::Instant::now();
    while server.metrics().requests_accepted < 6 {
        assert!(admitted.elapsed() < Duration::from_secs(10), "requests never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let snapshot = server.shutdown();
    assert_eq!(snapshot.requests_completed, 6);
    // Solo dispatch may have run some of the work ahead of the drain (the
    // first request opens alone), but every dispatched batch has exactly
    // one recorded flush cause and nothing waits out the 30 s deadline.
    let flushes = snapshot.drain_flushes
        + snapshot.deadline_flushes
        + snapshot.size_flushes
        + snapshot.solo_flushes;
    assert_eq!(flushes, snapshot.batches_dispatched);
    assert_eq!(snapshot.deadline_flushes, 0, "nothing sat out the 30 s deadline");

    let mut seen = std::collections::HashSet::new();
    for _ in &ids {
        let reply = client.recv_reply().expect("drained reply");
        assert!(matches!(reply, Reply::Amplitudes(_)), "drained replies carry amplitudes");
        seen.insert(reply.request_id());
    }
    assert_eq!(seen.len(), ids.len(), "every admitted request answered exactly once");
}

/// The stats endpoint reports service counters and engine stats as JSON.
#[test]
fn stats_endpoint_reports_service_and_engine_counters() {
    let circuit = sliced_circuit(17);
    let n = circuit.num_qubits();
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let zeros = vec![0u8; n];
    let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("reply");
    assert!(matches!(reply, Reply::Amplitudes(_)));

    let json = client.stats().expect("stats");
    for key in [
        "\"schema\": \"qtnsim-serve/stats\"",
        "\"version\": 3",
        "\"requests_completed\": 1,",
        "\"batches_dispatched\": 1,",
        "\"solo_flushes\"",
        "\"deadline_flushes\"",
        "\"plan_cache\"",
        "\"plan_cache_misses\": 1,",
        "\"execution\"",
        "\"subtasks_run\"",
    ] {
        assert!(json.contains(key), "stats JSON missing {key}: {json}");
    }
    // The lone request dispatches solo, unless the dispatcher wakes after
    // the 2 ms coalescing deadline; either way exactly one flush happened.
    let snapshot = server.shutdown();
    assert_eq!(snapshot.solo_flushes + snapshot.deadline_flushes, 1);
}

/// A default server keeps every circuit it has room for: one exact LRU of
/// `DEFAULT_PLAN_CACHE_CAPACITY` plans, so a second pass over that many
/// distinct circuits is all hits and nothing was evicted.
#[test]
fn default_server_keeps_every_circuit_it_has_room_for() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig { planner: planner(), executor: executor(), ..ServeConfig::default() },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let circuits: Vec<Circuit> = (1..=DEFAULT_PLAN_CACHE_CAPACITY as u64)
        .map(|seed| RqcConfig::small(2, 2, 4, seed).build())
        .collect();
    // The server keys its plan cache from the wire bytes and builds a
    // circuit only on a miss: alternating circuits on one connection must
    // still each be answered from their own plan, bit for bit.
    let engine = Engine::with_configs(planner(), executor());
    for pass in 0..2u8 {
        for circuit in &circuits {
            let bits = vec![pass; circuit.num_qubits()];
            let reply = client.request_amplitudes(circuit, &[&bits]).expect("reply");
            assert!(matches!(reply, Reply::Amplitudes(_)), "cache-test reply: {reply:?}");
            let Reply::Amplitudes(resp) = reply else { unreachable!() };
            let spec = OutputSpec::Amplitude(bits.clone());
            let (expected, _) =
                engine.compile(circuit, &spec).unwrap().execute_amplitude(&bits).unwrap();
            let served = resp.amplitudes[0];
            assert_eq!(
                (served.re.to_bits(), served.im.to_bits()),
                (expected.re.to_bits(), expected.im.to_bits()),
                "pass {pass}: served and in-process amplitudes differ"
            );
        }
    }

    let json = client.stats().expect("stats");
    for key in [
        "\"plans_built\": 16,",
        "\"plan_cache_hits\": 16,",
        "\"plan_cache_misses\": 16,",
        "\"plan_cache_evictions\": 0}",
    ] {
        assert!(json.contains(key), "stats JSON missing {key:?}: {json}");
    }
    server.shutdown();
}

/// Remote shutdown — the only way the `qtnsim-serve` binary stops: a
/// client's `Shutdown` frame drains the server and `wait` returns the final
/// snapshot.
#[test]
fn client_shutdown_frame_drains_a_waiting_server() {
    let circuit = sliced_circuit(23);
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let zeros = vec![0u8; circuit.num_qubits()];
    let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("reply");
    assert!(matches!(reply, Reply::Amplitudes(_)), "request answered before shutdown: {reply:?}");

    client.shutdown_server().expect("send shutdown");
    let snapshot = server.wait();
    assert_eq!(snapshot.requests_completed, 1);
}

/// Solo dispatch: under single-stream load (one request in flight at a
/// time) every batch is the only admitted work, so it dispatches
/// immediately with a `Solo` flush instead of waiting out the coalescing
/// deadline — observed queue wait stays far below `batch_deadline`.
#[test]
fn single_stream_load_skips_the_batch_deadline() {
    let circuit = sliced_circuit(19);
    let n = circuit.num_qubits();
    let deadline = Duration::from_millis(400);
    let server = Server::bind(
        "127.0.0.1:0",
        config(BatchConfig { max_batch: 64, batch_deadline: deadline, max_queue: 4096 }),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let bitstrings = random_bitstrings(n, 4, 77);
    let start = std::time::Instant::now();
    for bits in &bitstrings {
        let reply = client.request_amplitudes(&circuit, &[bits]).expect("reply");
        assert!(matches!(reply, Reply::Amplitudes(_)), "single-stream reply: {reply:?}");
    }
    let elapsed = start.elapsed();

    let snapshot = server.shutdown();
    assert_eq!(snapshot.requests_completed, 4);
    assert_eq!(snapshot.batches_dispatched, 4, "no coalescing partners exist");
    assert_eq!(snapshot.solo_flushes, 4, "every single-stream batch dispatches solo");
    assert_eq!(snapshot.deadline_flushes, 0, "no batch waited out the deadline");
    // The headline claim: observed queue wait is far below the deadline a
    // deadline-flushed batch would have paid in full, per request.
    let mean_wait = Duration::from_micros(snapshot.queue_micros / snapshot.batches_dispatched);
    assert!(
        mean_wait < deadline / 8,
        "solo dispatch must cut queue wait: mean {mean_wait:?} vs deadline {deadline:?}"
    );
    assert!(
        elapsed < deadline * 4,
        "serial requests must not serialize on coalescing deadlines: {elapsed:?}"
    );
}

/// Malformed client traffic gets a typed `Error` frame, not a panic or a
/// wedged server; a well-formed request on a fresh connection still works.
#[test]
fn invalid_requests_get_typed_errors_and_the_server_survives() {
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");

    // Bitstring length disagrees with the circuit's qubit count.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut circuit = Circuit::new(2);
    circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
    let reply = client.request_amplitudes(&circuit, &[&[0, 0, 1]]).expect("reply");
    assert!(matches!(reply, Reply::Error { .. }), "length mismatch is a typed error: {reply:?}");

    // A non-bit value in a bitstring.
    let reply = client.request_amplitudes(&circuit, &[&[0, 2]]).expect("reply");
    assert!(matches!(reply, Reply::Error { .. }), "non-bit values are typed errors: {reply:?}");

    // An infinite gate entry: the server refuses the circuit while decoding
    // (an error frame with no request id) instead of serving NaN amplitudes.
    let mut infinite = Circuit::new(2);
    let zero = Complex64::ZERO;
    infinite.push1(Gate::Unitary1(Box::new([c64(f64::INFINITY, 0.0), zero, zero, zero])), 0);
    client.send_request(&infinite, &[&[0, 0]]).expect("send");
    let reply = client.recv_reply().expect("reply");
    assert!(
        matches!(&reply, Reply::Error { message, .. } if message.contains("non-finite")),
        "non-finite gate entries are typed errors: {reply:?}"
    );

    // The same connection still serves a valid request afterwards.
    let reply = client.request_amplitudes(&circuit, &[&[0, 0]]).expect("reply");
    let Reply::Amplitudes(resp) = reply else { panic!("server must survive bad requests") };
    assert!((resp.amplitudes[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);

    server.shutdown();
}
