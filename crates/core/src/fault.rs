//! Deterministic, seeded fault injection for chaos testing.
//!
//! Production failures — a kernel panic mid-contraction, a half-written
//! frame, a connection dying under a reader — are rare and unschedulable,
//! which makes the recovery paths around them untestable by default. This
//! module makes them provokable on demand: a [`FaultPlan`] names a set of
//! **injection points** ([`FaultPoint`]) and, per point, a deterministic
//! firing schedule (`nth` hit, `every` period, `times` cap, and an optional
//! seeded probability). Code on the hot paths asks [`fire`] whether the
//! fault it guards should trigger *now*; the serve layer and the executor
//! thread these checks through their I/O and contraction loops.
//!
//! The plan is installed process-globally, either programmatically
//! ([`install`], used by the chaos test suite) or from the `QTNSIM_FAULTS`
//! environment variable parsed on first use. **When nothing is installed,
//! [`fire`] is a single relaxed atomic load** — the production fast path
//! pays no measurable cost for the instrumentation.
//!
//! # Spec grammar
//!
//! A spec is whitespace- or `;`-separated entries:
//!
//! ```text
//! seed=7 worker_panic:nth=40,every=90,times=3 read_io:nth=2
//! ```
//!
//! - `seed=N` seeds the deterministic probability rolls.
//! - `<point>` alone fires on every hit.
//! - `<point>:k=v,…` with keys `nth` (first firing hit, 1-based, default
//!   1), `every` (repeat period in hits, default 0 = fire only at `nth`),
//!   `times` (total firing cap, default 0 = uncapped), and `prob`
//!   (percentage 0–100; hits on schedule fire only when a splitmix64 roll
//!   of `(seed, point, hit)` lands under it — deterministic for a fixed
//!   seed, default 100).
//!
//! Per-point **hit** and **fire** counters are exported through
//! [`FaultPlan::counts`]; `qtnsim-serve` surfaces them in its stats JSON so
//! a chaos run can prove which faults actually triggered.

use crate::sync::lock_unpoisoned;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// Named fault-injection points threaded through the engine and the
/// serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A connection reader's next poll fails with a transport error
    /// (simulates the peer dying mid-stream).
    ReadIo,
    /// A writer's next frame write fails outright before any byte is sent.
    WriteIo,
    /// A writer sends only a prefix of the frame's bytes, then fails —
    /// the torn-frame case the desync handling must contain.
    PartialFrame,
    /// A writer stalls before writing (slow-consumer simulation).
    SlowWrite,
    /// A contraction worker panics at the scheduled contraction step.
    WorkerPanic,
    /// A buffer-pool acquisition panics (allocation-failure simulation);
    /// surfaces through the same caught-panic path as [`Self::WorkerPanic`].
    PoolAlloc,
}

impl FaultPoint {
    /// Every point, in stats order.
    pub const ALL: [FaultPoint; 6] = [
        FaultPoint::ReadIo,
        FaultPoint::WriteIo,
        FaultPoint::PartialFrame,
        FaultPoint::SlowWrite,
        FaultPoint::WorkerPanic,
        FaultPoint::PoolAlloc,
    ];

    /// The name used in specs and stats JSON.
    pub const fn name(self) -> &'static str {
        match self {
            FaultPoint::ReadIo => "read_io",
            FaultPoint::WriteIo => "write_io",
            FaultPoint::PartialFrame => "partial_frame",
            FaultPoint::SlowWrite => "slow_write",
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::PoolAlloc => "pool_alloc",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn parse(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One point's firing schedule (see the module docs for the grammar).
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    /// 1-based hit at which the rule first fires.
    nth: u64,
    /// Repeat period in hits after `nth`; 0 fires only at `nth`.
    every: u64,
    /// Total firing cap; 0 is uncapped.
    times: u64,
    /// Percentage chance an on-schedule hit actually fires (seeded,
    /// deterministic).
    prob: u8,
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule { nth: 1, every: 0, times: 0, prob: 100 }
    }
}

/// A parsed, installable set of fault rules with per-point hit/fire
/// counters (see the module docs).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: [Option<FaultRule>; 6],
    hits: [AtomicU64; 6],
    fires: [AtomicU64; 6],
}

impl FaultPlan {
    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules: [Option<FaultRule>; 6] = [None; 6];
        for entry in spec.split(|c: char| c.is_whitespace() || c == ';') {
            if entry.is_empty() {
                continue;
            }
            if let Some(value) = entry.strip_prefix("seed=") {
                seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                continue;
            }
            let (name, opts) = match entry.split_once(':') {
                Some((name, opts)) => (name, opts),
                None => (entry, ""),
            };
            let point =
                FaultPoint::parse(name).ok_or_else(|| format!("unknown fault point {name:?}"))?;
            let mut rule = FaultRule::default();
            // A bare point name fires on every hit.
            if opts.is_empty() {
                rule.every = 1;
            }
            for opt in opts.split(',').filter(|o| !o.is_empty()) {
                let (key, value) =
                    opt.split_once('=').ok_or_else(|| format!("expected key=value in {opt:?}"))?;
                let parsed: u64 = value.parse().map_err(|_| format!("bad value in {opt:?}"))?;
                match key {
                    "nth" => rule.nth = parsed.max(1),
                    "every" => rule.every = parsed,
                    "times" => rule.times = parsed,
                    "prob" => {
                        if parsed > 100 {
                            return Err(format!("prob {parsed} exceeds 100"));
                        }
                        rule.prob = parsed as u8;
                    }
                    other => return Err(format!("unknown rule key {other:?}")),
                }
            }
            rules[point.index()] = Some(rule);
        }
        Ok(FaultPlan {
            seed,
            rules,
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            fires: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// The seed the probability rolls use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Record one hit at `point` and decide whether its fault fires.
    fn should_fire(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let Some(rule) = self.rules[i] else { return false };
        let hit = self.hits[i].fetch_add(1, Ordering::Relaxed) + 1;
        if hit < rule.nth {
            return false;
        }
        let on_schedule = if rule.every == 0 {
            hit == rule.nth
        } else {
            (hit - rule.nth).is_multiple_of(rule.every)
        };
        if !on_schedule {
            return false;
        }
        if rule.prob < 100 {
            let roll =
                splitmix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hit) % 100;
            if roll >= rule.prob as u64 {
                return false;
            }
        }
        if rule.times == 0 {
            self.fires[i].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Claim a firing slot atomically so concurrent hits never overshoot
        // the cap (and the fire counter never counts rejected claims).
        let mut fired = self.fires[i].load(Ordering::Relaxed);
        loop {
            if fired >= rule.times {
                return false;
            }
            match self.fires[i].compare_exchange(
                fired,
                fired + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => fired = actual,
            }
        }
    }

    /// Per-point `(point, hits, fires)` counters, in [`FaultPoint::ALL`]
    /// order, restricted to points the plan has rules for.
    pub fn counts(&self) -> Vec<(FaultPoint, u64, u64)> {
        FaultPoint::ALL
            .into_iter()
            .filter(|p| self.rules[p.index()].is_some())
            .map(|p| {
                let i = p.index();
                (p, self.hits[i].load(Ordering::Relaxed), self.fires[i].load(Ordering::Relaxed))
            })
            .collect()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Global installation
// ---------------------------------------------------------------------------

/// Fast-path gate: `false` means no plan is installed and [`fire`] returns
/// immediately.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn set(plan: Option<Arc<FaultPlan>>) {
    let mut slot = lock_unpoisoned(slot());
    ENABLED.store(plan.is_some(), Ordering::Release);
    *slot = plan;
}

/// Parse `QTNSIM_FAULTS` once, installing the env plan if it is set and
/// valid. An invalid spec is reported and ignored rather than panicking —
/// fault injection must never be the thing that takes a service down.
fn env_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let Ok(spec) = std::env::var("QTNSIM_FAULTS") else { return };
        if spec.trim().is_empty() {
            return;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => set(Some(Arc::new(plan))),
            Err(e) => eprintln!("qtnsim: ignoring invalid QTNSIM_FAULTS spec: {e}"),
        }
    });
}

/// Install a fault plan process-globally (replacing the env-installed one,
/// if any), or clear it with `None`. Used by chaos tests; production code
/// never calls this.
pub fn install(plan: Option<FaultPlan>) {
    env_init();
    set(plan.map(Arc::new));
}

/// The currently installed plan, if any (installing `QTNSIM_FAULTS` lazily
/// on first use).
pub fn installed() -> Option<Arc<FaultPlan>> {
    env_init();
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    lock_unpoisoned(slot()).clone()
}

/// Record a hit at `point` against the installed plan and report whether
/// the fault it guards should trigger now. Always `false` — one relaxed
/// atomic load — when no plan is installed.
pub fn fire(point: FaultPoint) -> bool {
    env_init();
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    match installed() {
        Some(plan) => plan.should_fire(point),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=7 worker_panic:nth=40,every=90,times=3;read_io:nth=2 slow_write",
        )
        .expect("valid spec");
        assert_eq!(plan.seed(), 7);
        let counts = plan.counts();
        let points: Vec<_> = counts.iter().map(|(p, _, _)| *p).collect();
        assert_eq!(
            points,
            vec![FaultPoint::ReadIo, FaultPoint::SlowWrite, FaultPoint::WorkerPanic]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus_point:nth=1").is_err());
        assert!(FaultPlan::parse("read_io:nth=x").is_err());
        assert!(FaultPlan::parse("read_io:wat=1").is_err());
        assert!(FaultPlan::parse("read_io:prob=101").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
    }

    #[test]
    fn nth_every_times_schedule() {
        let plan = FaultPlan::parse("worker_panic:nth=3,every=2,times=2").unwrap();
        let fired: Vec<bool> = (0..10).map(|_| plan.should_fire(FaultPoint::WorkerPanic)).collect();
        // Hits 3 and 5 fire; the times=2 cap stops hit 7 and beyond.
        assert_eq!(fired, vec![false, false, true, false, true, false, false, false, false, false]);
        let (_, hits, fires) = plan.counts()[0];
        assert_eq!((hits, fires), (10, 2));
    }

    #[test]
    fn nth_without_every_fires_once() {
        let plan = FaultPlan::parse("read_io:nth=2").unwrap();
        let fired: Vec<bool> = (0..5).map(|_| plan.should_fire(FaultPoint::ReadIo)).collect();
        assert_eq!(fired, vec![false, true, false, false, false]);
    }

    #[test]
    fn bare_point_fires_every_hit() {
        let plan = FaultPlan::parse("slow_write").unwrap();
        assert!((0..4).all(|_| plan.should_fire(FaultPoint::SlowWrite)));
    }

    #[test]
    fn unruled_points_never_fire() {
        let plan = FaultPlan::parse("read_io").unwrap();
        assert!(!plan.should_fire(FaultPoint::WorkerPanic));
        assert!(!plan.should_fire(FaultPoint::PoolAlloc));
    }

    #[test]
    fn prob_is_deterministic_for_a_seed() {
        let roll = |seed: u64| {
            let plan = FaultPlan::parse(&format!("seed={seed} write_io:every=1,prob=50")).unwrap();
            (0..64).map(|_| plan.should_fire(FaultPoint::WriteIo)).collect::<Vec<_>>()
        };
        assert_eq!(roll(11), roll(11), "same seed, same schedule");
        assert_ne!(roll(11), roll(12), "different seeds diverge");
        let fires = roll(11).iter().filter(|&&f| f).count();
        assert!(fires > 10 && fires < 54, "prob=50 fired {fires}/64 times");
    }

    #[test]
    fn global_install_gates_fire() {
        // Uses a point no core test path ever checks, so running in
        // parallel with the executor's tests is safe.
        install(Some(FaultPlan::parse("partial_frame:every=1").unwrap()));
        assert!(fire(FaultPoint::PartialFrame));
        let installed = installed().expect("plan installed");
        assert_eq!(installed.counts()[0].2, 1);
        install(None);
        assert!(!fire(FaultPoint::PartialFrame), "cleared plan must not fire");
    }
}
