//! What this machine can do, measured in the same run as the workload: a
//! STREAM-triad bandwidth and a single-thread FMA peak. Together they give
//! the roofline `executor.roofline_frac` is taken against (the paper's
//! Fig. 13 arithmetic applied to the machine the benchmark runs on).

use crate::trace::Tracer;
use std::hint::black_box;

pub struct Host {
    pub stream_gbps: f64,
    pub fma_gflops: f64,
    pub llc_bytes: f64,
}

/// Size of the largest cache `cpu0` reports, in bytes; 0 if sysfs has none.
fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.strip_suffix('K') {
                Some(kib) => (kib, 1024),
                None => (text.strip_suffix('M')?, 1024 * 1024),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

/// `MemAvailable` of `/proc/meminfo`, in bytes.
fn available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    line.split_whitespace().nth(1)?.parse::<u64>().ok().map(|kib| kib * 1024)
}

/// `a[i] = b[i] + s * c[i]` over three arrays of `len` doubles; GB/s of the
/// best of three passes, counting 24 bytes per element.
fn stream_triad(len: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let (b, c) = (vec![1.0f64; len], vec![2.0f64; len]);
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let start = std::time::Instant::now();
        let s = black_box(3.0);
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        // The first pass faults `a` in and is not counted.
        if pass > 0 {
            best = best.min(start.elapsed().as_secs_f64());
        }
    }
    24.0 * len as f64 / best / 1e9
}

/// Independent accumulators per round: enough to cover the multiply-add
/// latency on two ports.
const CHAINS: usize = 12;

/// `iterations` rounds of one fused multiply-add on each of [`CHAINS`]
/// four-lane accumulators; returns the flops done.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_rounds_avx2(iterations: u64) -> f64 {
    use std::arch::x86_64::{_mm256_cvtsd_f64, _mm256_fmadd_pd, _mm256_set1_pd};
    let (scale, shift) = (_mm256_set1_pd(black_box(0.999_999)), _mm256_set1_pd(black_box(1e-6)));
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iterations {
        for x in &mut acc {
            *x = _mm256_fmadd_pd(*x, scale, shift);
        }
    }
    black_box(acc.iter().map(|&x| _mm256_cvtsd_f64(x)).sum::<f64>());
    (2 * 4 * CHAINS) as f64 * iterations as f64
}

/// The same rounds on scalar accumulators, for a CPU without AVX2 and FMA.
fn fma_rounds_scalar(iterations: u64) -> f64 {
    let (scale, shift) = (black_box(0.999_999), black_box(1e-6));
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iterations {
        for x in &mut acc {
            *x = *x * scale + shift;
        }
    }
    black_box(acc.iter().sum::<f64>());
    (2 * CHAINS) as f64 * iterations as f64
}

/// Single-thread double-precision multiply-add peak, Gflop/s, at the widest
/// level the GEMM kernels themselves use (AVX2+FMA where detected).
fn fma_peak() -> f64 {
    let iterations = black_box(50_000_000u64);
    let start = std::time::Instant::now();
    #[cfg(target_arch = "x86_64")]
    let flops = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: avx2 and fma were detected on this CPU just above.
        unsafe { fma_rounds_avx2(iterations) }
    } else {
        fma_rounds_scalar(iterations)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let flops = fma_rounds_scalar(iterations);
    flops / start.elapsed().as_secs_f64() / 1e9
}

/// Measure the host. Each triad array is four times the last-level cache,
/// or as near as a quarter of the available memory allows; both sizes are
/// printed.
pub fn probe(tr: &Tracer) -> Host {
    let llc = llc_bytes();
    let wanted = (4 * llc).max(64 << 20);
    let allowed = available_bytes().map_or(wanted, |free| free / 4 / 3);
    let array_bytes = wanted.min(allowed);
    println!(
        "# host: last-level cache {llc} bytes, triad arrays {array_bytes} bytes each ({:.1}x)",
        array_bytes as f64 / llc.max(1) as f64
    );
    let (stream_gbps, _) = tr.time("host.stream_triad", || stream_triad(array_bytes as usize / 8));
    let (fma_gflops, _) = tr.time("host.fma_peak", fma_peak);
    Host { stream_gbps, fma_gflops, llc_bytes: llc as f64 }
}
