//! Generate the canonical benchmark report (`bench/baseline.json`).
//!
//! Runs the fixed experiment set of `v2d_bench::report::collect` —
//! modeled quantities with bit-exact gates — and writes the result.
//! Commit the output to refresh the CI regression-gate baseline:
//!
//! ```text
//! cargo run --release --bin bench_report -- --out bench/baseline.json
//! ```
//!
//! Flags: `--out PATH` (default `bench/baseline.json`),
//! `--stdout` (print instead of writing), `--merge PATH` (load the
//! existing report at PATH and add only the freshly collected entries
//! it does not already carry — existing entries stay byte-identical,
//! so a new gate family can land without touching the old baselines).

use v2d_bench::report::{collect, CollectOpts};
use v2d_obs::BenchReport;

fn main() {
    let mut out = String::from("bench/baseline.json");
    let mut to_stdout = false;
    let mut merge: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--stdout" => to_stdout = true,
            "--merge" => merge = Some(args.next().expect("--merge needs a path")),
            other => {
                panic!("unknown argument {other:?} (expected --out PATH / --stdout / --merge PATH)")
            }
        }
    }
    eprintln!("collecting canonical bench report …");
    let fresh = collect(&CollectOpts::default());
    let report = match merge {
        None => fresh,
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read merge base {path}: {e}"));
            let mut base = BenchReport::parse(&text)
                .unwrap_or_else(|e| panic!("cannot parse merge base {path}: {e}"));
            let mut added = 0usize;
            for (name, entry) in &fresh.entries {
                if !base.entries.contains_key(name) {
                    base.entries.insert(name.clone(), entry.clone());
                    added += 1;
                }
            }
            eprintln!("merged {added} new entries into {path} ({} total)", base.entries.len());
            base
        }
    };
    let json = report.to_json_string();
    if to_stdout {
        print!("{json}");
    } else {
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&out, &json).expect("write bench report");
        eprintln!("{} metrics written to {out}", report.entries.len());
    }
}
