//! Regenerate one figure of the paper's evaluation from the command line.
//!
//! ```text
//! cargo run --example figure_sweep --release -- fig10 0.1
//! ```
//!
//! The first argument selects the figure (`fig10` … `fig17`, default
//! `fig10`), the second the duration scale (1.0 = 60 minutes of application
//! time per point; the paper uses 5.0; default 0.05 so the example finishes
//! quickly). A scale that is not a finite number > 0 prints the usage line
//! and exits with status 2.

use jit_dsms::harness::config::parse_duration_scale;
use jit_dsms::harness::figures::check_expectations;
use jit_dsms::harness::table_out::render_table;
use jit_dsms::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let figure_id = args.get(1).map(String::as_str).unwrap_or("fig10");
    let scale = match args.get(2).map(|s| parse_duration_scale(s)) {
        None => 0.05,
        Some(Ok(scale)) => scale,
        Some(Err(message)) => {
            eprintln!("{message}\nusage: figure_sweep [figNN] [scale]");
            std::process::exit(2);
        }
    };

    let spec = FigureSpec::by_id(figure_id).unwrap_or_else(|| {
        eprintln!("unknown figure {figure_id}; expected fig10..fig17");
        std::process::exit(2);
    });
    println!(
        "Running {} at duration scale {scale} (the paper's full runs correspond to 5.0)…\n",
        spec.id
    );
    let result = run_figure(&spec, scale, 20080415);
    println!("{}", render_table(&result));

    let violations = check_expectations(&result, scale);
    if violations.is_empty() {
        println!("✓ the measured series reproduces the paper's qualitative shape:");
        println!(
            "  JIT never exceeds REF in CPU cost or peak memory and both report the same results."
        );
        println!("  (Peak memory is only compared at duration scales ≥ 0.3: shorter runs never");
        println!("  expire tuples, a regime that inherently favours REF — see the harness docs.)");
    } else {
        println!("✗ deviations from the paper's expectations:");
        for v in violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }

    // Print the headline ratio at the default (middle) point.
    if let Some(row) = result.rows.get(result.rows.len() / 2) {
        let find = |mode: &str| row.measurements.iter().find(|(m, _, _)| m == mode);
        if let (Some(r), Some(j)) = (find("REF"), find("JIT")) {
            println!(
                "\nAt {} = {}: JIT is {:.1}× cheaper in CPU and uses {:.0}% of REF's peak memory.",
                result.x_label,
                row.x,
                r.1.cost_units as f64 / j.1.cost_units.max(1) as f64,
                100.0 * j.1.peak_memory_bytes as f64 / r.1.peak_memory_bytes.max(1) as f64
            );
        }
    }
}
