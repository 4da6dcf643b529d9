//! `v2d-bench` — the one artifact runner.
//!
//! ```text
//! v2d-bench list                 # the registry: name, golden?, slow?
//! v2d-bench <artifact> [args]    # regenerate one artifact on stdout
//! v2d-bench gate [flags]         # the regression gate (see `report::gate`)
//! ```
//!
//! A malformed command line prints one usage line and exits 2; a failed
//! gate exits 1.

use std::process::ExitCode;

use v2d_bench::{no_args, report, UsageError, ARTIFACTS};

/// Run the command line; `Ok(false)` is a gate that did not pass.
fn run(args: &[String]) -> Result<bool, UsageError> {
    let (name, rest) = args.split_first().ok_or(UsageError)?;
    match name.as_str() {
        "list" => {
            no_args(rest)?;
            for a in ARTIFACTS {
                let golden = if a.golden { "golden" } else { "" };
                let slow = if a.slow { "slow" } else { "" };
                println!("{}", format!("{:<20} {golden:<6} {slow}", a.name).trim_end());
            }
            Ok(true)
        }
        "gate" => report::gate(rest),
        name => {
            let artifact = ARTIFACTS.iter().find(|a| a.name == name).ok_or(UsageError)?;
            (artifact.run)(rest).map(|()| true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(UsageError) => {
            let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
            eprintln!(
                "usage: v2d-bench list | gate [--baseline P] [--write P] \
                 [--perturb FAMILY] [--summary P] | \
                 <artifact> [args]   (artifacts: {})",
                names.join(" ")
            );
            ExitCode::from(2)
        }
    }
}
