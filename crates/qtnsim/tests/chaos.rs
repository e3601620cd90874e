//! Chaos suite: the serving layer under deterministic injected faults.
//!
//! Every test arms a seeded [`qtnsim::core::fault::FaultPlan`] (or
//! explicitly clears the global slot) and then asserts the fault-tolerance
//! contract end to end over a loopback connection:
//!
//! - an injected worker panic fails **only** the affected batch with a
//!   typed error — the dispatcher, the connection, and every later request
//!   keep working, bit-identically;
//! - per-request deadlines (protocol v2) shed expired work at admission
//!   and at dispatch with explicit `Shed(DeadlineExceeded)` frames;
//! - [`RetryingClient`] reconnects through injected transport faults and
//!   still returns bit-identical amplitudes;
//! - graceful drain completes under active faults, answering every
//!   admitted request exactly once.
//!
//! The suite lives in its own test binary because fault plans are
//! process-global: a static mutex serializes the tests, and a drop guard
//! clears the plan even when an assertion panics, so no schedule leaks
//! into the next test (or into an env-installed `QTNSIM_FAULTS` plan).

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::core::fault::{self, FaultPlan, FaultPoint};
use qtnsim::{Circuit, Engine, ExecutorConfig, PlannerConfig};
use qtnsim_serve::{
    BatchConfig, Client, Reply, RetryConfig, RetryingClient, ServeConfig, Server, ShedReason,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the suite (fault plans are process-global) and clears the
/// installed plan on drop, panicking tests included.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::install(None);
    }
}

/// Take the suite lock and install `spec`; pass `""` to run fault-free
/// (still clearing any env-installed plan so tests are order-independent).
fn arm(spec: &str) -> FaultGuard {
    static SUITE: Mutex<()> = Mutex::new(());
    let guard = SUITE.lock().unwrap_or_else(|e| e.into_inner());
    if spec.is_empty() {
        fault::install(None);
    } else {
        fault::install(Some(FaultPlan::parse(spec).expect("valid fault spec")));
    }
    FaultGuard(guard)
}

fn sliced_circuit(seed: u64) -> Circuit {
    RqcConfig::small(3, 4, 10, seed).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor() -> ExecutorConfig {
    ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true }
}

fn config(batch: BatchConfig) -> ServeConfig {
    ServeConfig { planner: planner(), executor: executor(), batch }
}

fn random_bitstrings(n: usize, count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..n).map(|_| rng.gen_range(0..2u32) as u8).collect()).collect()
}

/// Ground truth from a direct engine run. Call it under the suite lock with
/// no plan installed (`arm("")`): outside the lock another test's armed
/// fault can fire inside this execution — and be used up by it.
fn direct_amplitude(circuit: &Circuit, bits: &[u8]) -> qtnsim::Complex64 {
    let engine = Engine::with_configs(planner(), executor());
    let compiled =
        engine.compile(circuit, &OutputSpec::Amplitude(vec![0; circuit.num_qubits()])).unwrap();
    compiled.execute_amplitude(bits).unwrap().0
}

/// Three injected worker panics fail exactly their own requests with typed
/// errors; the service keeps serving between and after them, and the
/// post-panic amplitudes stay bit-identical to direct execution.
#[test]
fn worker_panics_fail_only_their_batch_and_the_service_keeps_serving() {
    let circuit = sliced_circuit(5);
    let zeros = vec![0u8; circuit.num_qubits()];
    let _guard = arm("");
    let expected = direct_amplitude(&circuit, &zeros);
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Alternate faulted and clean requests: `nth=1` without `every` fires
    // exactly once per installed plan, so each faulted round injects one
    // panic no matter how many contraction steps race past the point.
    for round in 0..3 {
        fault::install(Some(FaultPlan::parse("worker_panic:nth=1").unwrap()));
        let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("typed reply");
        let Reply::Error { message, .. } = reply else {
            panic!("round {round}: injected panic must fail the request, got {reply:?}")
        };
        assert!(message.contains("panicked"), "round {round}: untyped panic message {message:?}");

        fault::install(None);
        let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("typed reply");
        let Reply::Amplitudes(resp) = reply else {
            panic!("round {round}: service must keep serving after a panic, got {reply:?}")
        };
        assert_eq!(resp.amplitudes[0], expected, "round {round}: bit-identity after a panic");
    }

    let snap = server.shutdown();
    assert_eq!(snap.panics_caught, 3, "each injected panic is caught and counted");
    assert_eq!(snap.requests_failed, 3);
    assert_eq!(snap.requests_completed, 3);
    assert_eq!(snap.requests_shed, 0);
}

/// An injected buffer-pool allocation failure surfaces through the same
/// caught-panic path: a typed error for the affected request, clean
/// service afterwards.
#[test]
fn pool_allocation_failure_is_contained_like_a_worker_panic() {
    let circuit = sliced_circuit(7);
    let zeros = vec![0u8; circuit.num_qubits()];
    let _guard = arm("");
    let expected = direct_amplitude(&circuit, &zeros);
    fault::install(Some(FaultPlan::parse("pool_alloc:nth=1").unwrap()));
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("typed reply");
    let Reply::Error { message, .. } = reply else {
        panic!("allocation failure must fail the request, got {reply:?}")
    };
    assert!(message.contains("allocation"), "message should name the cause: {message:?}");

    fault::install(None);
    let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("typed reply");
    let Reply::Amplitudes(resp) = reply else { panic!("service must survive, got {reply:?}") };
    assert_eq!(resp.amplitudes[0], expected);

    let snap = server.shutdown();
    assert_eq!(snap.panics_caught, 1);
    assert_eq!(snap.requests_failed, 1);
    assert_eq!(snap.requests_completed, 1);
}

/// The contraction tick fires in every executor configuration, not only
/// the pooled one: an unpooled batch of four with `worker_panic` armed
/// fails with a typed `ExecutionPanic`, and the same compiled circuit then
/// re-runs clean, bit-identical to the fault-free result.
#[test]
fn worker_panic_reaches_the_unpooled_batched_sweep() {
    let circuit = sliced_circuit(13);
    let bitstrings = random_bitstrings(circuit.num_qubits(), 4, 29);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();

    let _guard = arm("");
    let engine = Engine::with_configs(planner(), ExecutorConfig { pool: false, ..executor() });
    let compiled = engine
        .compile(&circuit, &OutputSpec::Amplitude(vec![0; circuit.num_qubits()]))
        .expect("compile");
    let (expected, _) = compiled.execute_amplitudes(&batch).expect("fault-free batch");

    fault::install(Some(FaultPlan::parse("worker_panic:nth=1").unwrap()));
    let err = compiled.execute_amplitudes(&batch).unwrap_err();
    assert!(matches!(err, qtnsim::Error::ExecutionPanic(_)), "untyped failure: {err:?}");

    fault::install(None);
    let (again, report) = compiled.execute_amplitudes(&batch).expect("clean re-run");
    assert_eq!(again, expected, "bit-identity after a contained panic");
    assert_eq!(report.stats.buffers_allocated, 0, "the unpooled sweep never touches a pool");
}

/// A one-worker sweep runs on the calling thread, not on a pool thread, so
/// it needs its own panic boundary. With `spec` armed, one execution fails
/// with a typed `ExecutionPanic`. The next execution on the same compiled
/// circuit matches the statevector, and it allocates no buffer: the failed
/// sweep checked its workspace back in.
fn one_worker_sweep_contains(spec: &str) {
    let circuit = sliced_circuit(11);
    let bits = random_bitstrings(circuit.num_qubits(), 1, 31).remove(0);
    let _guard = arm("");
    let engine = Engine::with_configs(planner(), ExecutorConfig { workers: 1, ..executor() });
    let compiled = engine
        .compile(&circuit, &OutputSpec::Amplitude(vec![0; circuit.num_qubits()]))
        .expect("compile");
    compiled.execute_amplitude(&bits).expect("fault-free warm-up");

    fault::install(Some(FaultPlan::parse(spec).unwrap()));
    let err = compiled.execute_amplitude(&bits).unwrap_err();
    assert!(matches!(err, qtnsim::Error::ExecutionPanic(_)), "{spec}: untyped failure: {err:?}");

    fault::install(None);
    let (amp, report) = compiled.execute_amplitude(&bits).expect("clean re-run");
    let expected = qtnsim::statevector::StateVector::simulate(&circuit).amplitude(&bits);
    assert!((amp - expected).abs() < 1e-10, "{spec}: {amp:?} vs statevector {expected:?}");
    assert_eq!(report.stats.workers, 1);
    assert_eq!(report.stats.buffers_allocated, 0, "{spec}: the workspace was checked back in");
}

#[test]
fn one_worker_sweep_contains_a_worker_panic() {
    one_worker_sweep_contains("worker_panic:nth=7");
}

#[test]
fn one_worker_sweep_contains_a_pool_allocation_fault() {
    one_worker_sweep_contains("pool_alloc:nth=7");
}

/// A sweep that fails after the branch build ran must not lose the build's
/// bill. After a parameter rebind the first execution rebuilds the
/// invalidated cone, then an injected allocation fault fails its sweep. The
/// next clean execution reports the rebind counters, and survived + rebuilt
/// branch flops equal the cold build's exactly.
#[test]
fn a_failed_execution_leaves_the_branch_build_to_the_next_report() {
    let circuit = sliced_circuit(5);
    let bits = vec![0u8; circuit.num_qubits()];
    let _guard = arm("");
    let engine = Engine::with_configs(planner(), executor());
    let mut compiled = engine
        .compile(&circuit, &OutputSpec::Amplitude(vec![0; circuit.num_qubits()]))
        .expect("compile");
    let (_, cold) = compiled.execute_amplitude(&bits).expect("cold execution");
    let slots = compiled.param_slots().len();
    compiled.rebind_parameters(&[(slots / 2, 1.25), (slots - 1, -0.75)]).expect("rebind");

    fault::install(Some(FaultPlan::parse("pool_alloc:nth=1").unwrap()));
    let err = compiled.execute_amplitude(&bits).unwrap_err();
    assert!(matches!(err, qtnsim::Error::ExecutionPanic(_)), "untyped failure: {err:?}");

    fault::install(None);
    let (_, report) = compiled.execute_amplitude(&bits).expect("clean execution");
    let stats = &report.stats;
    assert!(report.branch_cache_hit, "the failed execution built the branch store");
    assert_eq!(stats.params_rebound, 2, "the rebind is reported after the failure");
    assert!(stats.branch_entries_invalidated > 0);
    assert!(stats.branch_flops_survived_rebind > 0);
    assert_eq!(
        stats.branch_flops + stats.branch_flops_survived_rebind,
        cold.stats.branch_flops,
        "survived + rebuilt must equal the cold bill"
    );
    let (_, again) = compiled.execute_amplitude(&bits).expect("warm execution");
    assert_eq!((again.stats.params_rebound, again.stats.branch_flops), (0, 0), "reported once");
}

/// A request whose deadline is already spent when it reaches admission is
/// shed there — explicit `Shed(DeadlineExceeded)`, never queued, never
/// executed.
#[test]
fn spent_deadlines_are_shed_at_admission() {
    let _guard = arm("");
    let circuit = sliced_circuit(9);
    let zeros = vec![0u8; circuit.num_qubits()];
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Warm the plan cache so the deadline-free request below is a plain
    // success and the shed cannot be blamed on compile time.
    let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("warm");
    assert!(matches!(reply, Reply::Amplitudes(_)));

    let reply =
        client.request_amplitudes_with_deadline(&circuit, &[&zeros], Some(0)).expect("typed reply");
    match reply {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::DeadlineExceeded),
        other => panic!("a 0 ms deadline must shed, got {other:?}"),
    }

    let snap = server.shutdown();
    assert_eq!(snap.deadline_sheds, 1);
    assert_eq!(snap.requests_shed, 1);
    assert_eq!(snap.requests_accepted, 1, "the shed request never entered the queue");
    assert_eq!(snap.requests_completed, 1);
}

/// A request admitted in time but stuck behind a long-running batch is
/// shed at dispatch once its deadline passes — the engine never spends
/// contraction work on an answer the client has given up on.
#[test]
fn queued_requests_past_their_deadline_are_shed_at_dispatch() {
    let _guard = arm("");
    let slow = sliced_circuit(5);
    let fast = sliced_circuit(23);
    let n = slow.num_qubits();
    let zeros = vec![0u8; n];
    let server = Server::bind(
        "127.0.0.1:0",
        config(BatchConfig {
            max_batch: 4096,
            batch_deadline: Duration::from_secs(2),
            max_queue: 8192,
        }),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Warm both plans so admission below is a cache hit.
    for circuit in [&slow, &fast] {
        let reply = client.request_amplitudes(circuit, &[&zeros]).expect("warm");
        assert!(matches!(reply, Reply::Amplitudes(_)), "warm-up must succeed");
    }

    // Occupy the engine with a large batch, and wait until the dispatcher
    // has actually claimed it (the two warm-ups were batches 1 and 2).
    let bitstrings = random_bitstrings(n, 1024, 3);
    let refs: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let slow_id = client.send_request(&slow, &refs).expect("send slow");
    let claimed = std::time::Instant::now();
    while server.metrics().batches_dispatched < 3 {
        assert!(claimed.elapsed() < Duration::from_secs(10), "slow batch never dispatched");
        std::thread::sleep(Duration::from_micros(200));
    }

    // Admitted now, but parked behind the executing batch: by the time the
    // engine frees up, its 1 ms budget is long gone.
    let fast_id = client.send_request_with_deadline(&fast, &[&zeros], Some(1)).expect("send fast");

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..2 {
        let reply = client.recv_reply().expect("reply");
        outcomes.insert(reply.request_id(), reply);
    }
    match outcomes.remove(&slow_id) {
        Some(Reply::Amplitudes(resp)) => assert_eq!(resp.amplitudes.len(), 1024),
        other => panic!("the occupying batch completes normally, got {other:?}"),
    }
    match outcomes.remove(&fast_id) {
        Some(Reply::Shed { reason, .. }) => assert_eq!(reason, ShedReason::DeadlineExceeded),
        other => panic!("the expired request is shed at dispatch, got {other:?}"),
    }

    let snap = server.shutdown();
    assert_eq!(snap.deadline_sheds, 1);
    assert_eq!(snap.requests_accepted, 4, "the expired request was admitted, then shed");
    assert_eq!(snap.requests_completed, 3);
    // Even an all-expired batch keeps the flush-cause accounting intact.
    let flushes =
        snap.drain_flushes + snap.deadline_flushes + snap.size_flushes + snap.solo_flushes;
    assert_eq!(flushes, snap.batches_dispatched);
}

/// The retrying client rides out an injected read failure (which kills the
/// first connection) and an injected write failure (which tears down the
/// second mid-response), reconnecting each time, and still returns
/// bit-identical amplitudes on a bounded number of attempts.
#[test]
fn retrying_client_reconnects_through_transport_faults() {
    let circuit = sliced_circuit(11);
    let zeros = vec![0u8; circuit.num_qubits()];
    let _guard = arm("");
    let expected = direct_amplitude(&circuit, &zeros);

    // read_io hit 1 is the first connection's first poll; write_io hit 2
    // is the second connection's response write (hit 1 is the first
    // connection's dying error frame).
    fault::install(Some(FaultPlan::parse("seed=3 read_io:nth=1 write_io:nth=2").unwrap()));
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client = RetryingClient::connect(
        server.local_addr(),
        RetryConfig {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            ..RetryConfig::default()
        },
    )
    .expect("connect");

    let reply = client.request_amplitudes(&circuit, &[&zeros]).expect("retries must succeed");
    let Reply::Amplitudes(resp) = reply else { panic!("expected amplitudes, got {reply:?}") };
    assert_eq!(resp.amplitudes[0], expected, "bit-identity survives the retries");
    let stats = client.retry_stats();
    assert_eq!(stats.reconnects, 2, "both injected transport faults forced a reconnect");
    assert_eq!(stats.retries, 2);

    // The server kept serving throughout and its stats JSON proves which
    // faults actually fired.
    let snap = server.shutdown();
    // The write-faulted attempt completed server-side (only its response
    // write tore), so the resend counts a second completion — the price of
    // at-least-once retry over an idempotent request.
    assert_eq!(snap.requests_completed, 2);
    let fires: std::collections::HashMap<&str, u64> =
        snap.faults.iter().map(|&(name, _, fires)| (name, fires)).collect();
    assert_eq!(fires.get("read_io"), Some(&1));
    assert_eq!(fires.get("write_io"), Some(&1));
}

/// Deterministic sheds are not worth retrying: the retrying client returns
/// a `DeadlineExceeded` shed immediately instead of burning attempts on a
/// budget the server already declared spent.
#[test]
fn retrying_client_does_not_retry_deterministic_sheds() {
    let _guard = arm("");
    let circuit = sliced_circuit(13);
    let zeros = vec![0u8; circuit.num_qubits()];
    let server = Server::bind("127.0.0.1:0", config(BatchConfig::default())).expect("bind");
    let mut client =
        RetryingClient::connect(server.local_addr(), RetryConfig::default()).expect("connect");

    let reply =
        client.request_amplitudes_with_deadline(&circuit, &[&zeros], Some(0)).expect("typed reply");
    assert!(
        matches!(reply, Reply::Shed { reason: ShedReason::DeadlineExceeded, .. }),
        "got {reply:?}"
    );
    assert_eq!(client.retry_stats(), Default::default(), "no retry, no reconnect");
    server.shutdown();
}

/// Graceful drain completes while faults are still firing: every admitted
/// request is answered exactly once (amplitudes or a typed error — never
/// silence), and the books balance.
#[test]
fn drain_answers_every_admitted_request_under_active_faults() {
    // A panic early in the first batch plus a latency fault on every other
    // response write — drain must push through both.
    let _guard = arm("seed=17 worker_panic:nth=3 slow_write:every=2");
    let circuit = sliced_circuit(15);
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

    let bitstrings = random_bitstrings(n, 6, 29);
    let mut ids = std::collections::HashSet::new();
    for bits in &bitstrings {
        ids.insert(client.send_request(&circuit, &[bits.as_slice()]).expect("send"));
    }
    let admitted = std::time::Instant::now();
    while server.metrics().requests_accepted < 6 {
        assert!(admitted.elapsed() < Duration::from_secs(10), "requests never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    let snap = server.shutdown();
    assert_eq!(snap.requests_accepted, 6);
    assert_eq!(
        snap.requests_completed + snap.requests_failed,
        6,
        "every admitted request resolved to exactly one outcome: {snap:?}"
    );
    let slow_writes =
        snap.faults.iter().find(|(name, _, _)| *name == "slow_write").map(|&(_, _, f)| f);
    assert!(slow_writes.is_some_and(|f| f >= 1), "the latency fault actually fired: {snap:?}");

    // The drain delivered each reply before the listener went away.
    for _ in 0..6 {
        let reply = client.recv_reply().expect("drained reply");
        assert!(
            matches!(reply, Reply::Amplitudes(_) | Reply::Error { .. }),
            "drained outcomes are typed: {reply:?}"
        );
        assert!(ids.remove(&reply.request_id()), "exactly one reply per request");
    }
    assert!(ids.is_empty());
}

/// `QTNSIM_FAULTS` installs a plan on first use without any code changes —
/// the knob the CI chaos job turns. Verified in a subprocess because the
/// env var is read exactly once per process.
#[test]
fn env_spec_installs_a_plan_on_first_use() {
    if std::env::var("QTNSIM_CHAOS_ENV_CHILD").is_ok() {
        // Child half: the env plan must be live before any install() call.
        let plan = fault::installed().expect("QTNSIM_FAULTS plan installed");
        assert_eq!(plan.seed(), 3);
        assert!(fault::fire(FaultPoint::PartialFrame), "nth=1 fires on the first hit");
        assert!(!fault::fire(FaultPoint::PartialFrame), "and only on the first");
        assert!(!fault::fire(FaultPoint::WorkerPanic), "unruled points stay silent");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args(["--exact", "env_spec_installs_a_plan_on_first_use", "--test-threads=1"])
        .env("QTNSIM_CHAOS_ENV_CHILD", "1")
        .env("QTNSIM_FAULTS", "seed=3 partial_frame:nth=1")
        .output()
        .expect("spawn child test process");
    assert!(
        output.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
