//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <experiment> [...]
//! cargo run -p bench --release --bin repro -- all
//! REPRO_SCALE=full cargo run -p bench --release --bin repro -- fig16
//! ```

use bench::experiments;
use bench::ExperimentScale;

const USAGE: &str = "\
usage: repro <experiment> [...]

experiments (paper artifact → sub-command):
  table1   Table I   dataset inventory
  fig1     Fig. 1    per-partition bit-rate distribution
  fig5     Fig. 5    compression throughput vs bit-rate
  fig6     Fig. 6    min/max throughput across samples
  fig7     Fig. 7    per-process write throughput vs request size
  fig9     Fig. 9    performance/storage trade-off mapping
  fig11    Fig. 11   compression-time estimation accuracy
  fig12    Fig. 12   estimation accuracy, transferred model
  fig13    Fig. 13   write-time estimation accuracy
  fig14    Fig. 14   per-field trade-off curves
  fig15    Fig. 15   consistency across time-steps
  fig16    Fig. 16   method breakdown at 512 ranks
  fig17    Fig. 17   breakdown vs ratio and scale
  fig18    Fig. 18   speedup & storage overhead sweeps
  headline §IV-D     headline speedups
  all                everything, in paper order

environment:
  REPRO_SCALE=quick|full   grid sizes (default quick)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let scale = match std::env::var("REPRO_SCALE").as_deref() {
        Ok("full") => ExperimentScale::Full,
        _ => ExperimentScale::Quick,
    };
    println!("(scale: {scale:?}; set REPRO_SCALE=full for larger grids)\n");
    for a in &args {
        match a.as_str() {
            "table1" => experiments::table1(scale),
            "fig1" => experiments::fig1(scale),
            "fig5" => experiments::fig5(scale),
            "fig6" => experiments::fig6(scale),
            "fig7" => experiments::fig7(),
            "fig9" => experiments::fig9(scale),
            "fig11" => experiments::fig11(scale),
            "fig12" => experiments::fig12(scale),
            "fig13" => experiments::fig13(scale),
            "fig14" => experiments::fig14(scale),
            "fig15" => experiments::fig15(scale),
            "fig16" => experiments::fig16(scale),
            "fig17" => experiments::fig17(scale),
            "fig18" => experiments::fig18(scale),
            "headline" => experiments::headline(scale),
            "all" => experiments::all(scale),
            other => {
                eprintln!("unknown experiment: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
