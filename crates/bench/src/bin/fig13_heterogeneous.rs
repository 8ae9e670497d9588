//! Fig. 13 — heterogeneous resources. The paper fixes the dollar cost
//! ($0.013/s) and lets each system use whichever equal-cost cluster —
//! 16 V100 or 6 V100 + 8 P100 + 15 K80 — maximizes its goodput. Only E3
//! can actually exploit the mix.

fn main() {
    print!("{}", e3_bench::figs::fig13_report());
}
