//! The synthetic load harness for `v2d-serve`: drive a seeded campaign
//! of repeated / novel / prioritized / cancelled requests (plus one
//! rank-kill spec) through a scripted service instance, record every
//! deterministic admission counter, and print the sustained throughput
//! (informational — host time is gated by `bench/e2e/run.sh` alone).
//!
//! ```text
//! cargo run --release --bin bench_serve                  # full campaign → bench/BENCH_PR9.json
//! cargo run --release --bin bench_serve -- --quick \
//!     --gate bench/baseline.json                         # CI load smoke
//! ```
//!
//! Flags:
//! * `--quick` — the small CI profile instead of the full campaign;
//! * `--out PATH` — where to write the report (default
//!   `bench/BENCH_PR9.json`; `--gate` alone skips writing);
//! * `--gate PATH` — compare this run's `serve.*` entries against the
//!   same-named entries of the baseline at PATH: counters and checksums
//!   bit-exact.  Requires `--quick` (the
//!   baseline's counters come from the quick profile) and exits
//!   non-zero on any failure;
//! * `--perturb-serve N` — inject N phantom deduped requests before
//!   gating, the red-run demonstration;
//! * `--summary PATH` — append the markdown delta table there (defaults
//!   to `$GITHUB_STEP_SUMMARY` when set).

use std::io::Write as _;

use v2d_bench::report::add_serve_outcome;
use v2d_obs::{compare, BenchReport};
use v2d_serve::load::{run, LoadProfile};
use v2d_serve::ServeOpts;

fn main() {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut perturb = 0u64;
    let mut summary: Option<String> = std::env::var("GITHUB_STEP_SUMMARY").ok();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--gate" => gate = Some(args.next().expect("--gate needs a baseline path")),
            "--perturb-serve" => {
                perturb = args
                    .next()
                    .expect("--perturb-serve needs a count")
                    .parse()
                    .expect("--perturb-serve needs an integer")
            }
            "--summary" => summary = args.next(),
            other => panic!(
                "unknown argument {other:?} (expected --quick / --out PATH / --gate PATH / \
                 --perturb-serve N / --summary PATH)"
            ),
        }
    }
    assert!(
        gate.is_none() || quick,
        "--gate requires --quick: the baseline's serve.* counters are quick-profile values"
    );

    let profile = if quick { LoadProfile::quick() } else { LoadProfile::full() };
    eprintln!(
        "driving the {} load campaign ({} phases × {} requests) …",
        if quick { "quick" } else { "full" },
        profile.phases,
        profile.per_phase
    );
    let out = run(&profile, ServeOpts::default());

    let mut report = BenchReport::new(vec![
        ("suite".to_string(), "v2d serve load".to_string()),
        ("generator".to_string(), "bench_serve".to_string()),
        ("profile".to_string(), if quick { "quick".into() } else { "full".into() }),
    ]);
    add_serve_outcome(&mut report, &out, perturb);

    let admitted = out.metrics.counter("serve.admitted");
    let shared_hits =
        out.metrics.counter("serve.deduped") + out.metrics.counter("serve.cache.result_hits");
    println!(
        "{} requests in {:.3} s → {:.1} req/s sustained; {} admitted, {} answered from the \
         shared tiers ({:.0}% hit rate), checksum {:#010x}",
        out.n_requests,
        out.elapsed_s,
        out.req_per_s,
        admitted,
        shared_hits,
        100.0 * shared_hits as f64 / admitted.max(1) as f64,
        out.checksum,
    );

    let mut failed = false;
    if let Some(base_path) = gate {
        let text = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {base_path}: {e}"));
        let mut base = BenchReport::parse(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {base_path}: {e}"));
        base.entries.retain(|name, _| name.starts_with("serve."));
        assert!(
            !base.entries.is_empty(),
            "baseline {base_path} carries no serve.* entries — regenerate it with bench_report"
        );
        let cmp = compare(&base, &report);
        if cmp.pass() {
            println!("serve load gate: all {} metrics within tolerance", cmp.deltas.len());
        } else {
            println!("serve load gate: {} of {} metrics FAILED", cmp.failures(), cmp.deltas.len());
            print!("{}", cmp.table(true));
            failed = true;
        }
        if let Some(path) = summary {
            let md = format!(
                "### Serve load smoke: {} — {:.1} req/s, {:.0}% shared-tier hit rate\n\n{}\n",
                if cmp.pass() { "✅ pass" } else { "❌ FAIL" },
                out.req_per_s,
                100.0 * shared_hits as f64 / admitted.max(1) as f64,
                cmp.markdown()
            );
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("cannot open summary {path}: {e}"));
            f.write_all(md.as_bytes()).expect("write summary");
        }
    }

    if let Some(path) = out_path.or_else(|| gate_free_default(quick)) {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&path, report.to_json_string()).expect("write load report");
        eprintln!("{} metrics written to {path}", report.entries.len());
    }
    if failed {
        std::process::exit(1);
    }
}

/// Without `--out`, the full campaign lands in its canonical artifact;
/// a quick gate run writes nothing.
fn gate_free_default(quick: bool) -> Option<String> {
    if quick {
        None
    } else {
        Some("bench/BENCH_PR9.json".to_string())
    }
}
