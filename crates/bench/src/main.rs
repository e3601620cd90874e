//! Print the paper's evaluation as the JSON document checked in as
//! `REPRO.json`:
//!
//! ```sh
//! cargo run --release -p qtn-bench --bin repro > REPRO.json
//! ```

fn main() {
    println!("{}", qtn_bench::repro());
}
