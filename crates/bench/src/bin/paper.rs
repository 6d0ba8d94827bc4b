//! Regenerates every table and figure of the paper's evaluation (§5) in
//! one benchmark-outer sweep: Fig 2, Figs 6–12, Table 3 and the
//! partition-granularity ablation, in that order.
//!
//! ```text
//! cargo run --release -p shmt-bench --bin paper -- [--size N] [--partitions N] [--seed N]
//! ```

fn main() {
    let config = shmt_bench::parse_config(std::env::args().skip(1));
    print!("{}", shmt::experiments::paper(config).expect("paper sweep"));
}
