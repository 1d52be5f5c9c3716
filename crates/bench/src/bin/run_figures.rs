//! Regenerate every figure of the paper's evaluation (Figures 10–17).
//!
//! Usage:
//!
//! ```text
//! cargo run -p jit-bench --release --bin run_figures [-- --scale 0.25 --seed 1 --out results/ --figure fig10]
//! ```
//!
//! * `--scale S`   application-time scale: 1.0 = 60 minutes per point, the
//!   paper's 5-hour runs correspond to `--scale 5.0` (default 0.1). Must be
//!   a finite number > 0.
//! * `--seed N`    workload RNG seed (default 20080415).
//! * `--out DIR`   also write per-figure CSV and JSON under `DIR`.
//! * `--figure ID` run a single figure (`fig10` … `fig17`) instead of all.
//! * `--doe`       additionally run the DOE baseline.
//!
//! A malformed argument prints the usage line and exits with status 2.

use jit_harness::config::parse_duration_scale;
use jit_harness::figures::{check_expectations, run_figure, FigureSpec};
use jit_harness::table_out::{render_csv, render_table};
use std::path::PathBuf;

const USAGE: &str =
    "usage: run_figures [--scale S] [--seed N] [--out DIR] [--figure figNN] [--doe]";

#[derive(Debug, PartialEq)]
struct Options {
    scale: f64,
    seed: u64,
    out_dir: Option<PathBuf>,
    only: Option<String>,
    with_doe: bool,
}

/// Parse the arguments after the program name. `Ok(None)` means `--help`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let mut options = Options {
        scale: 0.1,
        seed: 20080415,
        out_dir: None,
        only: None,
        with_doe: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => options.scale = parse_duration_scale(&value()?)?,
            "--seed" => {
                let text = value()?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("invalid seed {text:?}: expected an integer"))?;
            }
            "--out" => options.out_dir = Some(PathBuf::from(value()?)),
            "--figure" => options.only = Some(value()?),
            "--doe" => options.with_doe = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(options))
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let figures: Vec<FigureSpec> = match &options.only {
        Some(id) => vec![FigureSpec::by_id(id).unwrap_or_else(|| {
            eprintln!("unknown figure {id}; expected fig10..fig17");
            std::process::exit(2);
        })],
        None => FigureSpec::all(),
    };
    if let Some(dir) = &options.out_dir {
        std::fs::create_dir_all(dir).expect("cannot create output directory");
    }
    println!(
        "Reproducing {} figure(s) at duration scale {} (1.0 = 60 min of application time; the paper uses 5.0)\n",
        figures.len(),
        options.scale
    );
    let mut all_ok = true;
    for mut spec in figures {
        if options.with_doe {
            spec.base = spec.base.clone().with_doe();
        }
        let result = run_figure(&spec, options.scale, options.seed);
        println!("{}", render_table(&result));
        let violations = check_expectations(&result, options.scale);
        if violations.is_empty() {
            if options.scale >= jit_harness::figures::MEMORY_CHECK_MIN_SCALE {
                println!(
                    "  ✓ expectations hold (JIT ≤ REF in cost and memory, result counts agree)\n"
                );
            } else {
                println!(
                    "  ✓ expectations hold (JIT ≤ REF in cost, result counts agree; memory not \
                     compared below scale {} — no-expiry regime)\n",
                    jit_harness::figures::MEMORY_CHECK_MIN_SCALE
                );
            }
        } else {
            all_ok = false;
            for v in &violations {
                println!("  ✗ {v}");
            }
            println!();
        }
        if let Some(dir) = &options.out_dir {
            std::fs::write(dir.join(format!("{}.csv", result.id)), render_csv(&result))
                .expect("cannot write CSV");
            std::fs::write(
                dir.join(format!("{}.json", result.id)),
                serde_json::to_string_pretty(&result).expect("figure result serialises"),
            )
            .expect("cannot write JSON");
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_and_every_flag_parse() {
        let defaults = parse(&[]).unwrap().unwrap();
        assert_eq!(defaults.scale, 0.1);
        assert_eq!(defaults.seed, 20080415);
        let all = parse(&[
            "--scale", "0.3", "--seed", "7", "--out", "dir", "--figure", "fig16", "--doe",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            all,
            Options {
                scale: 0.3,
                seed: 7,
                out_dir: Some(PathBuf::from("dir")),
                only: Some("fig16".to_string()),
                with_doe: true,
            }
        );
        assert_eq!(parse(&["--help"]), Ok(None));
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        for args in [
            &["--scale", "abc"][..],
            &["--scale", "-1"],
            &["--scale", "0"],
            &["--scale", "NaN"],
            &["--scale", "inf"],
            &["--scale"],
            &["--seed", "x"],
            &["--seed", "-3"],
            &["--out"],
            &["--figure"],
            &["--bogus"],
        ] {
            assert!(parse(args).is_err(), "{args:?} should be rejected");
        }
    }
}
