//! Shared helpers for the figure-regeneration benches.
//!
//! Each bench target regenerates one table/figure of the paper's evaluation:
//! it prints the reproduced series (the rows EXPERIMENTS.md records) and then
//! times one pass over the underlying computation. Performance is measured
//! by `moasbench` (see `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Prints a reproduction banner plus body.
pub fn print_figure(header: &str, body: &str) {
    println!("\n================================================================");
    println!("{header}");
    println!("================================================================");
    println!("{body}");
}

/// Runs `routine` once and prints its wall-clock time.
pub fn time_once<O>(name: &str, routine: impl FnOnce() -> O) {
    let start = Instant::now();
    std::hint::black_box(routine());
    let millis = start.elapsed().as_secs_f64() * 1e3;
    println!("bench {name:<48} {millis:>10.3} ms (single pass)");
}
