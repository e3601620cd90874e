//! The `qtnsim-serve` binary: bind the amplitude service and run until a
//! client sends a `Shutdown` frame.
//!
//! ```text
//! qtnsim-serve [--addr HOST:PORT] [--max-batch N] [--deadline-ms MS]
//!              [--queue N] [--workers N] [--target-rank N] [--memory-budget-mb MB]
//! ```
//!
//! Every flag has a serving-oriented default; `--deadline-ms 0` disables
//! micro-batching (each request dispatches alone).

use qtnsim_serve::{ServeConfig, Server};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: qtnsim-serve [--addr HOST:PORT] [--max-batch N] [--deadline-ms MS]\n\
         \x20                   [--queue N] [--workers N] [--target-rank N] [--memory-budget-mb MB]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("invalid or missing value for {flag}");
            usage();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = parse(&flag, args.next()),
            "--max-batch" => config.batch.max_batch = parse(&flag, args.next()),
            "--deadline-ms" => {
                config.batch.batch_deadline =
                    Duration::from_millis(parse::<u64>(&flag, args.next()));
            }
            "--queue" => config.batch.max_queue = parse(&flag, args.next()),
            "--workers" => config.executor.workers = parse(&flag, args.next()),
            "--target-rank" => config.planner.target_rank = parse(&flag, args.next()),
            "--memory-budget-mb" => {
                let bytes = parse::<u64>(&flag, args.next()).checked_mul(1024 * 1024);
                if bytes.is_none() {
                    eprintln!("{flag} does not fit in a 64-bit byte count");
                    usage();
                }
                config.planner.memory_budget_bytes = bytes;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let server = match Server::bind(&addr, config.clone()) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("qtnsim-serve: failed to bind {addr}: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "qtnsim-serve listening on {} (max_batch={}, deadline={:?}, queue={})",
        server.local_addr(),
        config.batch.max_batch,
        config.batch.batch_deadline,
        config.batch.max_queue,
    );
    let snapshot = server.wait();
    println!(
        "qtnsim-serve drained: {} requests completed, {} shed, {} batches \
         (mean occupancy {:.2}), {} deadline flushes",
        snapshot.requests_completed,
        snapshot.requests_shed,
        snapshot.batches_dispatched,
        snapshot.mean_batch_occupancy(),
        snapshot.deadline_flushes,
    );
}
