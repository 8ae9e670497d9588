//! Fig. 15 — dollar cost per minute to sustain 6,000 samples/s on the
//! heterogeneous pool (E3 picks the cheapest GPU mix).

fn main() {
    print!("{}", e3_bench::figs::fig15_report());
}
