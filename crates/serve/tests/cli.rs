//! Command-line handling of the `qtnsim-serve` binary.

use std::process::Command;

/// A budget whose byte count overflows `u64` is a usage error, not a
/// wrapped (and possibly zero) budget.
#[test]
fn overflowing_memory_budget_is_a_usage_error() {
    // 2^44 MiB = 2^64 bytes.
    let out = Command::new(env!("CARGO_BIN_EXE_qtnsim-serve"))
        .args(["--memory-budget-mb", "17592186044416"])
        .output()
        .expect("run qtnsim-serve");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: qtnsim-serve"), "stderr: {stderr}");
}
