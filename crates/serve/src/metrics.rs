//! Service counters and the stats snapshot the server exports.

use qtnsim_core::{CacheStats, ExecutionStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Live service counters, updated lock-free by connection handlers and the
/// dispatcher (the aggregated [`ExecutionStats`] is the one mutex, touched
/// once per dispatched batch, not per request).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests admitted into the queue.
    pub requests_accepted: AtomicU64,
    /// Requests answered with amplitudes.
    pub requests_completed: AtomicU64,
    /// Requests refused with a `Shed` frame (queue full, memory budget, or
    /// draining).
    pub requests_shed: AtomicU64,
    /// Requests answered with an `Error` frame after admission.
    pub requests_failed: AtomicU64,
    /// Executor panics caught at an isolation boundary (dispatch or frame
    /// handling); each failed only the affected batch's requests while the
    /// service kept serving.
    pub panics_caught: AtomicU64,
    /// Requests shed because their own (protocol v2) deadline passed — at
    /// admission or while queued. Also counted in `requests_shed`.
    pub deadline_sheds: AtomicU64,
    /// Amplitudes returned across all completed requests.
    pub amplitudes_served: AtomicU64,
    /// Micro-batches dispatched to the engine.
    pub batches_dispatched: AtomicU64,
    /// Amplitudes summed over dispatched batches (mean occupancy =
    /// this / `batches_dispatched`).
    pub batched_amplitudes: AtomicU64,
    /// Batches flushed because the latency deadline expired.
    pub deadline_flushes: AtomicU64,
    /// Batches flushed because they reached the configured maximum size.
    pub size_flushes: AtomicU64,
    /// Batches dispatched ahead of their deadline because they were the
    /// only admitted work in flight (waiting could not attract partners).
    pub solo_flushes: AtomicU64,
    /// Batches flushed by shutdown drain.
    pub drain_flushes: AtomicU64,
    /// Microseconds the oldest entry of each dispatched batch spent queued,
    /// summed — mean coalescing delay = this / `batches_dispatched`.
    pub queue_micros: AtomicU64,
    /// Aggregated engine-side execution stats over every dispatched batch.
    pub execution: Mutex<ExecutionStats>,
}

impl ServiceMetrics {
    /// Fold one batch execution's stats into the running aggregate.
    pub fn absorb_execution(&self, stats: &ExecutionStats) {
        qtnsim_core::lock_unpoisoned(&self.execution).absorb(stats);
    }

    /// Capture a consistent point-in-time copy, pairing the service
    /// counters with the engine's plan-cache counters (every miss built one
    /// plan, so `plans_built` is `cache.misses`).
    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests_accepted: load(&self.requests_accepted),
            requests_completed: load(&self.requests_completed),
            requests_shed: load(&self.requests_shed),
            requests_failed: load(&self.requests_failed),
            panics_caught: load(&self.panics_caught),
            deadline_sheds: load(&self.deadline_sheds),
            amplitudes_served: load(&self.amplitudes_served),
            batches_dispatched: load(&self.batches_dispatched),
            batched_amplitudes: load(&self.batched_amplitudes),
            deadline_flushes: load(&self.deadline_flushes),
            size_flushes: load(&self.size_flushes),
            solo_flushes: load(&self.solo_flushes),
            drain_flushes: load(&self.drain_flushes),
            queue_micros: load(&self.queue_micros),
            plans_built: cache.misses as u64,
            cache,
            execution: qtnsim_core::lock_unpoisoned(&self.execution).clone(),
            faults: qtnsim_core::fault::installed()
                .map(|plan| {
                    plan.counts()
                        .into_iter()
                        .map(|(p, hits, fires)| (p.name(), hits, fires))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// A point-in-time copy of every service metric, plus the engine's cache
/// counters and the aggregated execution stats — what a `StatsRequest`
/// frame returns (as JSON) and what [`crate::Server::metrics`] returns to
/// in-process callers.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// See [`ServiceMetrics::requests_accepted`].
    pub requests_accepted: u64,
    /// See [`ServiceMetrics::requests_completed`].
    pub requests_completed: u64,
    /// See [`ServiceMetrics::requests_shed`].
    pub requests_shed: u64,
    /// See [`ServiceMetrics::requests_failed`].
    pub requests_failed: u64,
    /// See [`ServiceMetrics::panics_caught`].
    pub panics_caught: u64,
    /// See [`ServiceMetrics::deadline_sheds`].
    pub deadline_sheds: u64,
    /// See [`ServiceMetrics::amplitudes_served`].
    pub amplitudes_served: u64,
    /// See [`ServiceMetrics::batches_dispatched`].
    pub batches_dispatched: u64,
    /// See [`ServiceMetrics::batched_amplitudes`].
    pub batched_amplitudes: u64,
    /// See [`ServiceMetrics::deadline_flushes`].
    pub deadline_flushes: u64,
    /// See [`ServiceMetrics::size_flushes`].
    pub size_flushes: u64,
    /// See [`ServiceMetrics::solo_flushes`].
    pub solo_flushes: u64,
    /// See [`ServiceMetrics::drain_flushes`].
    pub drain_flushes: u64,
    /// See [`ServiceMetrics::queue_micros`].
    pub queue_micros: u64,
    /// Plans the engine built (plan-cache misses that ran the planner).
    pub plans_built: u64,
    /// The engine's plan-cache hit/miss/eviction counters.
    pub cache: CacheStats,
    /// Engine execution stats aggregated over every dispatched batch.
    pub execution: ExecutionStats,
    /// Per-injection-point `(name, hits, fires)` counters of the installed
    /// fault plan; empty when fault injection is off (the usual case).
    pub faults: Vec<(&'static str, u64, u64)>,
}

impl MetricsSnapshot {
    /// Mean amplitudes per dispatched micro-batch (0 before any dispatch).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches_dispatched == 0 {
            0.0
        } else {
            self.batched_amplitudes as f64 / self.batches_dispatched as f64
        }
    }

    /// Render the snapshot as JSON through the engine's shared emitter —
    /// the same formatting path the `BENCH_*.json` writers use.
    pub fn to_json(&self) -> String {
        let mut obj = qtnsim_core::json::JsonObject::new();
        obj.field_str("schema", "qtnsim-serve/stats")
            .field_u64("version", 3)
            .field_u64("requests_accepted", self.requests_accepted)
            .field_u64("requests_completed", self.requests_completed)
            .field_u64("requests_shed", self.requests_shed)
            .field_u64("requests_failed", self.requests_failed)
            .field_u64("panics_caught", self.panics_caught)
            .field_u64("deadline_sheds", self.deadline_sheds)
            .field_u64("amplitudes_served", self.amplitudes_served)
            .field_u64("batches_dispatched", self.batches_dispatched)
            .field_u64("batched_amplitudes", self.batched_amplitudes)
            .field_f64("mean_batch_occupancy", self.mean_batch_occupancy())
            .field_u64("deadline_flushes", self.deadline_flushes)
            .field_u64("size_flushes", self.size_flushes)
            .field_u64("solo_flushes", self.solo_flushes)
            .field_u64("drain_flushes", self.drain_flushes)
            .field_u64("queue_micros", self.queue_micros)
            .field_u64("plans_built", self.plans_built)
            .field_raw("plan_cache", &self.cache.to_json())
            .field_raw("execution", &self.execution.to_json());
        if !self.faults.is_empty() {
            let mut faults = qtnsim_core::json::JsonObject::new();
            for (name, hits, fires) in &self.faults {
                faults.field_u64(&format!("{name}_hits"), *hits);
                faults.field_u64(&format!("{name}_fires"), *fires);
            }
            obj.field_raw("faults", &faults.finish());
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_carries_service_and_engine_counters() {
        let metrics = ServiceMetrics::default();
        metrics.requests_accepted.store(10, Ordering::Relaxed);
        metrics.batches_dispatched.store(4, Ordering::Relaxed);
        metrics.batched_amplitudes.store(12, Ordering::Relaxed);
        let stats = ExecutionStats { flops: 1234, ..Default::default() };
        metrics.absorb_execution(&stats);
        let snap = metrics.snapshot(CacheStats { hits: 3, misses: 1, evictions: 0 });
        assert_eq!(snap.mean_batch_occupancy(), 3.0);
        let json = snap.to_json();
        for needle in [
            "\"requests_accepted\": 10",
            "\"mean_batch_occupancy\": 3.0",
            "\"plan_cache_hits\": 3",
            "\"flops\": 1234",
            "\"schema\": \"qtnsim-serve/stats\"",
            "\"version\": 3",
            "\"panics_caught\": 0",
            "\"deadline_sheds\": 0",
            "\"solo_flushes\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
