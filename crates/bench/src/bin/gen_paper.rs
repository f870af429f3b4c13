//! Prints the paper's evaluation, [`cycledger_bench::paper::document`]. The
//! committed copy is `BENCH_paper.json`; after a change that moves it:
//! `cargo run --release -p cycledger-bench --bin gen_paper > BENCH_paper.json`.

fn main() {
    println!("{}", cycledger_bench::paper::document());
}
