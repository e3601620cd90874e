//! Dynamic micro-batching: coalesce concurrent amplitude requests per
//! circuit fingerprint under a latency deadline.
//!
//! The economics mirror an inference server: the engine's batched
//! [`qtnsim_core::CompiledCircuit::execute_amplitudes`] runs each subtask's
//! StemPure prefix once for the *whole* batch, so amplitudes that ride one
//! dispatch cost much less than amplitudes dispatched alone — but only
//! requests compiled from the same circuit (same fingerprint, hence same
//! plan) can share a dispatch. The batcher therefore keeps one open batch
//! per fingerprint and dispatches it when it **fills** (`max_batch`
//! amplitudes) or when its **deadline** expires (`batch_deadline` after the
//! batch opened), whichever comes first. A zero deadline degenerates to
//! single-dispatch mode: every request dispatches alone, the unbatched
//! baseline batching is measured against.
//!
//! One refinement keeps the deadline from taxing idle traffic: when an open
//! batch is the **only** admitted work in flight — no other pending batch
//! and no claimed batch still executing (`Batcher::finish_batch` tracks
//! that) — waiting out the deadline cannot attract coalescing partners, so
//! the batch dispatches immediately with `FlushCause::Solo`. Under
//! single-stream load this removes the full `batch_deadline` from every
//! request's latency; under concurrent load the solo condition is false and
//! coalescing proceeds as before. This is the first slice of the roadmap's
//! adaptive-deadline item.
//!
//! Admission control lives here too: the total number of queued amplitudes
//! is bounded by `max_queue`; requests that would overflow it are refused
//! immediately with [`ShedReason::QueueFull`] rather than queued behind an
//! unbounded backlog — the explicit-backpressure half of the paper's
//! "compile once, amortize across users" economy.

use crate::protocol::ShedReason;
use qtnsim_core::{lock_unpoisoned, CompiledCircuit};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for the micro-batcher (see the module docs).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Dispatch a batch as soon as it holds this many amplitudes.
    pub max_batch: usize,
    /// Dispatch an unfilled batch this long after it opened. Zero disables
    /// coalescing (every request dispatches immediately).
    pub batch_deadline: Duration,
    /// Bound on amplitudes queued across all open batches; requests that
    /// would exceed it are shed.
    pub max_queue: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 64, batch_deadline: Duration::from_millis(2), max_queue: 4096 }
    }
}

/// One admitted request: its bitstrings and the completion callback that
/// delivers the outcome to the owning connection.
pub(crate) struct BatchEntry {
    pub bitstrings: Vec<Vec<u8>>,
    /// The request's own deadline (protocol v2), re-checked at dispatch:
    /// an entry whose deadline passed while it was queued is shed instead
    /// of executed. `None` never expires.
    pub deadline: Option<Instant>,
    /// Called exactly once with the entry's outcome.
    pub complete: Box<dyn FnOnce(EntryOutcome) + Send>,
}

/// How an admitted entry ended.
pub(crate) enum EntryOutcome {
    /// Amplitudes in bitstring order, plus dispatch telemetry.
    Amplitudes { amplitudes: Vec<qtn_tensor::Complex64>, batch_size: u32, deadline_flush: bool },
    /// The engine rejected the batch (typed error, stringified).
    Failed(String),
    /// The entry was shed *after* admission (its deadline passed in the
    /// queue) — the post-admission half of the shed accounting.
    Shed(ShedReason),
}

/// Why a ready batch left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushCause {
    /// Reached `max_batch` amplitudes.
    Full,
    /// `batch_deadline` expired.
    Deadline,
    /// Only batch in flight — waiting could not have attracted partners,
    /// so it dispatched ahead of its deadline.
    Solo,
    /// Shutdown drain.
    Drain,
}

/// A dispatched batch: the shared compiled circuit and every entry that
/// rode it.
pub(crate) struct ReadyBatch {
    pub compiled: Arc<CompiledCircuit>,
    pub entries: Vec<BatchEntry>,
    pub amplitudes: usize,
    pub cause: FlushCause,
    /// How long the oldest entry waited before dispatch.
    pub queued_for: Duration,
}

struct PendingBatch {
    fingerprint: u64,
    compiled: Arc<CompiledCircuit>,
    entries: Vec<BatchEntry>,
    amplitudes: usize,
    opened: Instant,
    deadline: Instant,
}

struct BatcherState {
    pending: VecDeque<PendingBatch>,
    queued_amplitudes: usize,
    /// Batches claimed by a dispatcher whose execution has not finished
    /// (see [`Batcher::finish_batch`]); while nonzero, a lone pending batch
    /// still waits — requests riding the executing batch's connections may
    /// coalesce with it the moment the engine frees up.
    executing: usize,
    draining: bool,
}

/// The shared coalescing queue (see the module docs).
pub(crate) struct Batcher {
    config: BatchConfig,
    state: Mutex<BatcherState>,
    ready: Condvar,
}

impl Batcher {
    pub fn new(config: BatchConfig) -> Self {
        Batcher {
            config,
            state: Mutex::new(BatcherState {
                pending: VecDeque::new(),
                queued_amplitudes: 0,
                executing: 0,
                draining: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admit a request into the batch for its circuit's fingerprint, or
    /// refuse it. `compiled` must be the engine's compilation of the
    /// request's circuit (done by the caller, outside the batcher lock).
    pub fn enqueue(
        &self,
        compiled: Arc<CompiledCircuit>,
        entry: BatchEntry,
    ) -> Result<(), ShedReason> {
        let amplitudes = entry.bitstrings.len();
        let mut state = lock_unpoisoned(&self.state);
        if state.draining {
            return Err(ShedReason::Draining);
        }
        if state.queued_amplitudes + amplitudes > self.config.max_queue {
            return Err(ShedReason::QueueFull);
        }
        state.queued_amplitudes += amplitudes;
        let fingerprint = compiled.fingerprint();
        // A zero deadline disables coalescing outright: every request gets
        // its own immediately-ready batch, even while the dispatcher is busy
        // (otherwise queued requests would still merge, and the serve
        // bench's unbatched baseline would quietly batch under load).
        let coalesce = !self.config.batch_deadline.is_zero();
        match state.pending.iter_mut().find(|b| coalesce && b.fingerprint == fingerprint) {
            Some(batch) => {
                batch.entries.push(entry);
                batch.amplitudes += amplitudes;
            }
            None => {
                let now = Instant::now();
                state.pending.push_back(PendingBatch {
                    fingerprint,
                    compiled,
                    entries: vec![entry],
                    amplitudes,
                    opened: now,
                    deadline: now + self.config.batch_deadline,
                });
            }
        }
        // Wake the dispatcher: a batch may have become ready (full, or opened
        // with a zero deadline), or the earliest deadline may have moved.
        self.ready.notify_all();
        Ok(())
    }

    /// Block until a batch is ready and claim it. Returns `None` once the
    /// batcher is draining and empty — the dispatcher's exit signal.
    pub fn next_batch(&self) -> Option<ReadyBatch> {
        let mut state = lock_unpoisoned(&self.state);
        // Solo dispatch only applies when coalescing is on at all; with a
        // zero deadline every batch is already immediately ready (and keeps
        // its `Deadline` cause, so the flush counters of an unbatched run
        // read as deadline flushes).
        let coalesce = !self.config.batch_deadline.is_zero();
        loop {
            let now = Instant::now();
            let draining = state.draining;
            let solo = coalesce && !draining && state.pending.len() == 1 && state.executing == 0;
            if let Some(pos) = state.pending.iter().position(|b| {
                draining || solo || b.amplitudes >= self.config.max_batch || now >= b.deadline
            }) {
                let batch = state.pending.remove(pos).expect("position exists");
                state.queued_amplitudes -= batch.amplitudes;
                state.executing += 1;
                let cause = if batch.amplitudes >= self.config.max_batch {
                    FlushCause::Full
                } else if now >= batch.deadline {
                    FlushCause::Deadline
                } else if solo {
                    FlushCause::Solo
                } else {
                    FlushCause::Drain
                };
                return Some(ReadyBatch {
                    compiled: batch.compiled,
                    entries: batch.entries,
                    amplitudes: batch.amplitudes,
                    cause,
                    queued_for: now.duration_since(batch.opened),
                });
            }
            if draining {
                // Nothing pending and no new work will be admitted.
                return None;
            }
            // Condvar waits recover from poisoning like every other lock
            // here: the queue state stays consistent across an unwind.
            state = match state.pending.iter().map(|b| b.deadline).min() {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(now);
                    self.ready.wait_timeout(state, wait).unwrap_or_else(PoisonError::into_inner).0
                }
                None => self.ready.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Record that a claimed batch finished executing. The dispatcher
    /// calls this as soon as the engine returns (before delivering responses): a
    /// lone open batch that was parked behind the in-flight execution
    /// becomes solo-ready the moment the engine frees up.
    pub fn finish_batch(&self) {
        let mut state = lock_unpoisoned(&self.state);
        state.executing = state.executing.saturating_sub(1);
        self.ready.notify_all();
    }

    /// Stop admitting work and make every pending batch immediately ready;
    /// the dispatcher drains the queue and then receives `None`.
    pub fn drain(&self) {
        let mut state = lock_unpoisoned(&self.state);
        state.draining = true;
        self.ready.notify_all();
    }

    /// Amplitudes currently queued (for tests and introspection).
    #[cfg(test)]
    pub fn queued_amplitudes(&self) -> usize {
        lock_unpoisoned(&self.state).queued_amplitudes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::{Circuit, Gate, OutputSpec, RqcConfig};
    use qtnsim_core::{Engine, PlannerConfig};
    use std::sync::mpsc;

    fn compiled_for(circuit: &Circuit) -> Arc<CompiledCircuit> {
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 10, ..Default::default() });
        Arc::new(
            engine
                .compile(circuit, &OutputSpec::Amplitude(vec![0; circuit.num_qubits()]))
                .expect("compile"),
        )
    }

    fn entry(n: usize, count: usize) -> (BatchEntry, mpsc::Receiver<EntryOutcome>) {
        let (tx, rx) = mpsc::channel();
        let entry = BatchEntry {
            bitstrings: vec![vec![0; n]; count],
            deadline: None,
            complete: Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        };
        (entry, rx)
    }

    #[test]
    fn coalesces_by_fingerprint_and_flushes_on_fill() {
        let c1 = RqcConfig::small(2, 2, 4, 1).build();
        let c2 = RqcConfig::small(2, 2, 4, 2).build();
        let (k1, k2) = (compiled_for(&c1), compiled_for(&c2));
        let batcher = Batcher::new(BatchConfig {
            max_batch: 3,
            batch_deadline: Duration::from_secs(60),
            max_queue: 100,
        });
        let n = c1.num_qubits();
        batcher.enqueue(Arc::clone(&k1), entry(n, 1).0).unwrap();
        batcher.enqueue(Arc::clone(&k2), entry(n, 1).0).unwrap();
        batcher.enqueue(Arc::clone(&k1), entry(n, 2).0).unwrap(); // fills k1's batch
        let batch = batcher.next_batch().expect("a ready batch");
        assert_eq!(batch.cause, FlushCause::Full);
        assert_eq!(batch.amplitudes, 3);
        assert_eq!(batch.compiled.fingerprint(), k1.fingerprint());
        assert_eq!(batch.entries.len(), 2, "two requests coalesced into one batch");
        assert_eq!(batcher.queued_amplitudes(), 1, "k2's batch still open");
    }

    #[test]
    fn deadline_flushes_unfilled_batches_while_other_work_executes() {
        let c = RqcConfig::small(2, 2, 4, 3).build();
        let compiled = compiled_for(&c);
        let n = c.num_qubits();
        let batcher = Batcher::new(BatchConfig {
            max_batch: 2,
            batch_deadline: Duration::from_millis(5),
            max_queue: 100,
        });
        // Fill and claim a first batch but do not finish it: the engine is
        // busy, so the next lone batch is *not* solo and must wait out its
        // deadline (requests riding the executing batch's load may yet
        // coalesce with it).
        batcher.enqueue(Arc::clone(&compiled), entry(n, 2).0).unwrap();
        let busy = batcher.next_batch().expect("filled batch");
        assert_eq!(busy.cause, FlushCause::Full);
        batcher.enqueue(compiled, entry(n, 1).0).unwrap();
        let start = Instant::now();
        let batch = batcher.next_batch().expect("deadline flush");
        assert_eq!(batch.cause, FlushCause::Deadline);
        assert!(start.elapsed() >= Duration::from_millis(4), "flushed before the deadline");
        batcher.finish_batch();
        batcher.finish_batch();
    }

    #[test]
    fn lone_batch_dispatches_solo_ahead_of_its_deadline() {
        let c = RqcConfig::small(2, 2, 4, 3).build();
        let compiled = compiled_for(&c);
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1000,
            batch_deadline: Duration::from_secs(60),
            max_queue: 100,
        });
        batcher.enqueue(compiled, entry(c.num_qubits(), 1).0).unwrap();
        let start = Instant::now();
        let batch = batcher.next_batch().expect("solo flush");
        assert_eq!(batch.cause, FlushCause::Solo);
        assert_eq!(batch.amplitudes, 1);
        assert!(start.elapsed() < Duration::from_secs(1), "solo dispatch must not wait");
        assert_eq!(batcher.queued_amplitudes(), 0);
    }

    #[test]
    fn finish_batch_releases_the_next_lone_batch() {
        let c = RqcConfig::small(2, 2, 4, 3).build();
        let compiled = compiled_for(&c);
        let n = c.num_qubits();
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1000,
            batch_deadline: Duration::from_secs(60),
            max_queue: 100,
        });
        batcher.enqueue(Arc::clone(&compiled), entry(n, 1).0).unwrap();
        assert_eq!(batcher.next_batch().expect("first solo").cause, FlushCause::Solo);
        // While the first batch executes, a newly opened lone batch parks
        // (nothing is ready, so a claim now would have to wait 60 s)...
        batcher.enqueue(compiled, entry(n, 1).0).unwrap();
        // ...until the execution finishes, which makes it solo-ready.
        batcher.finish_batch();
        let start = Instant::now();
        let batch = batcher.next_batch().expect("second solo");
        assert_eq!(batch.cause, FlushCause::Solo);
        assert!(start.elapsed() < Duration::from_secs(1), "finish_batch must release it");
    }

    #[test]
    fn zero_deadline_dispatches_immediately() {
        let c = RqcConfig::small(2, 2, 4, 4).build();
        let compiled = compiled_for(&c);
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1000,
            batch_deadline: Duration::ZERO,
            max_queue: 100,
        });
        batcher.enqueue(compiled, entry(c.num_qubits(), 1).0).unwrap();
        let batch = batcher.next_batch().expect("immediate flush");
        assert_eq!(batch.cause, FlushCause::Deadline);
        assert_eq!(batch.amplitudes, 1);
    }

    #[test]
    fn bounded_queue_sheds_and_drain_rejects() {
        let c = RqcConfig::small(2, 2, 4, 5).build();
        let compiled = compiled_for(&c);
        let n = c.num_qubits();
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1000,
            batch_deadline: Duration::from_secs(60),
            max_queue: 2,
        });
        batcher.enqueue(Arc::clone(&compiled), entry(n, 2).0).unwrap();
        let err = batcher.enqueue(Arc::clone(&compiled), entry(n, 1).0).unwrap_err();
        assert_eq!(err, ShedReason::QueueFull);
        batcher.drain();
        let err = batcher.enqueue(Arc::clone(&compiled), entry(n, 1).0).unwrap_err();
        assert_eq!(err, ShedReason::Draining);
        // The queued batch drains as immediately-ready work, then the
        // dispatcher sees the exit signal.
        let batch = batcher.next_batch().expect("drain flush");
        assert_eq!(batch.cause, FlushCause::Drain);
        assert!(batcher.next_batch().is_none(), "drained batcher must signal exit");
    }

    #[test]
    fn oversized_single_request_is_shed_not_wedged() {
        let c = RqcConfig::small(2, 2, 4, 6).build();
        let compiled = compiled_for(&c);
        let batcher = Batcher::new(BatchConfig {
            max_batch: 8,
            batch_deadline: Duration::from_secs(60),
            max_queue: 4,
        });
        let err = batcher.enqueue(compiled, entry(c.num_qubits(), 5).0).unwrap_err();
        assert_eq!(err, ShedReason::QueueFull);
        assert_eq!(batcher.queued_amplitudes(), 0);
    }

    #[test]
    fn gate_unused_receivers() {
        // The helper's receivers are deliberately dropped in most tests;
        // completing an entry whose receiver is gone must not panic.
        let c = RqcConfig::small(2, 2, 4, 7).build();
        let compiled = compiled_for(&c);
        let batcher = Batcher::new(BatchConfig::default());
        let (e, rx) = entry(c.num_qubits(), 1);
        drop(rx);
        batcher.enqueue(compiled, e).unwrap();
        batcher.drain();
        let batch = batcher.next_batch().unwrap();
        for entry in batch.entries {
            (entry.complete)(EntryOutcome::Failed("test".into()));
        }
    }

    #[test]
    fn mixed_gate_circuit_compiles_for_batching() {
        // Sanity: a hand-built circuit (the quickstart example) flows
        // through the same enqueue path as RQCs.
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let compiled = compiled_for(&c);
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1,
            batch_deadline: Duration::from_secs(60),
            max_queue: 10,
        });
        batcher.enqueue(compiled, entry(2, 1).0).unwrap();
        assert_eq!(batcher.next_batch().unwrap().cause, FlushCause::Full);
    }
}
