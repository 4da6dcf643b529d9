//! The CI regression gate: regenerate the canonical bench report and
//! diff it against the checked-in baseline.
//!
//! ```text
//! cargo run --release --bin bench_compare -- --baseline bench/baseline.json
//! ```
//!
//! Exit status is non-zero when any gate fails; the delta table goes to
//! stdout and (in markdown form) to `--summary PATH` or, when set, the
//! file named by `$GITHUB_STEP_SUMMARY`.
//!
//! Flags:
//! * `--baseline PATH` — baseline report (default `bench/baseline.json`);
//! * `--perturb-cycles N` — inject N simulated cycles into one modeled
//!   clock before comparing.  `--perturb-cycles 1` is the red-run
//!   demonstration: a single cycle of drift must fail the gate;
//! * `--perturb-supervise N` — inject N phantom replayed steps into the
//!   supervised recovery ledger before comparing, the red-run
//!   demonstration for the `supervise.*` family;
//! * `--perturb-serve N` — inject N phantom deduped requests into the
//!   service-layer load counters before comparing, the red-run
//!   demonstration for the `serve.*` family;
//! * `--perturb-scenario N` — bump the first problem family's field
//!   checksum by N before comparing, the red-run demonstration for the
//!   `scenario.*` family;
//! * `--summary PATH` — write the markdown delta table there.

use std::io::Write as _;

use v2d_bench::report::{collect, CollectOpts};
use v2d_obs::{compare, BenchReport};

fn main() {
    let mut baseline = String::from("bench/baseline.json");
    let mut opts = CollectOpts::default();
    let mut summary: Option<String> = std::env::var("GITHUB_STEP_SUMMARY").ok();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = args.next().expect("--baseline needs a path"),
            "--perturb-cycles" => {
                opts.perturb_cycles = args
                    .next()
                    .expect("--perturb-cycles needs a count")
                    .parse()
                    .expect("--perturb-cycles needs an integer")
            }
            "--perturb-supervise" => {
                opts.perturb_supervise = args
                    .next()
                    .expect("--perturb-supervise needs a count")
                    .parse()
                    .expect("--perturb-supervise needs an integer")
            }
            "--perturb-serve" => {
                opts.perturb_serve = args
                    .next()
                    .expect("--perturb-serve needs a count")
                    .parse()
                    .expect("--perturb-serve needs an integer")
            }
            "--perturb-scenario" => {
                opts.perturb_scenario = args
                    .next()
                    .expect("--perturb-scenario needs a count")
                    .parse()
                    .expect("--perturb-scenario needs an integer")
            }
            "--summary" => summary = args.next(),
            other => panic!(
                "unknown argument {other:?} (expected --baseline PATH / --perturb-cycles N / \
                 --perturb-supervise N / --perturb-serve N / --perturb-scenario N / \
                 --summary PATH)"
            ),
        }
    }

    let text = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline}: {e}"));
    let base = BenchReport::parse(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {baseline}: {e}"));

    eprintln!("regenerating bench report …");
    let fresh = collect(&opts);

    let cmp = compare(&base, &fresh);
    if cmp.pass() {
        println!("regression gate: all {} metrics within tolerance", cmp.deltas.len());
    } else {
        println!("regression gate: {} of {} metrics FAILED", cmp.failures(), cmp.deltas.len());
        print!("{}", cmp.table(true));
    }
    if let Some(path) = summary {
        let md = format!(
            "### Bench regression gate: {}\n\n{}\n",
            if cmp.pass() { "✅ pass" } else { "❌ FAIL" },
            cmp.markdown()
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open summary {path}: {e}"));
        f.write_all(md.as_bytes()).expect("write summary");
    }
    if !cmp.pass() {
        std::process::exit(1);
    }
}
