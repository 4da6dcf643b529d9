//! `v2d-e2e`: the host-time benchmark of the v2d stack.  See README.md.
//!
//! Two ways in, one measurement path:
//!
//! * `v2d-e2e --workload W --seed N --seconds S --trace 0|1` — one run of
//!   one workload, the last stdout line a JSON result (the form the
//!   benchmark driver calls, through `run.sh`);
//! * `v2d-e2e all [--trace] [--check] [--seconds S | --reps N] [--seed N]
//!   [--record FILE]` — every workload, every metric printed as
//!   `name workload value unit`, non-zero exit on any failed check.

mod client;
mod decks;
mod layers;
mod replay;
mod spans;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use layers::Effort;
use v2d_obs::Json;
use workloads::{Budget, Env, Sizes, Workload};

fn die(msg: &str) -> ! {
    eprintln!("v2d-e2e: {msg}");
    std::process::exit(2);
}

/// Name, unit and direction of a metric, as `BENCHMARK.json` fixes them.
struct MetricDef {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

/// The benchmark's contract: the harness emits exactly these metrics.
struct Contract {
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

impl Contract {
    fn load(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            let field = |m: &Json, k: &str| {
                m.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("{key}: no {k}"))
            };
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("{}: no `{key}`", path.display()))?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: field(m, "better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .map(|ws| ws.iter().filter_map(|w| w.get("name")?.as_str()).collect())
            .unwrap_or_default();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if names != ours {
            return Err(format!(
                "BENCHMARK.json lists workloads {names:?}, the harness runs {ours:?}"
            ));
        }
        Ok(Contract { end_to_end: defs("end_to_end")?, per_layer: defs("per_layer")? })
    }
}

/// The `metrics` member of a result line: every metric of `defs`, or the
/// names that were not measured (or measured but not in the contract).
fn metrics_json(defs: &[MetricDef], values: &BTreeMap<&str, f64>) -> Result<Json, Vec<String>> {
    let mut wrong = Vec::new();
    let mut out = Vec::new();
    for d in defs {
        match values.get(d.name.as_str()) {
            Some(v) if v.is_finite() => out.push((d.name.as_str(), value_json(*v, &d.unit))),
            _ => wrong.push(d.name.clone()),
        }
    }
    wrong.extend(
        values
            .keys()
            .filter(|k| !defs.iter().any(|d| d.name == **k))
            .map(|k| format!("{k} (not in BENCHMARK.json)")),
    );
    if wrong.is_empty() {
        Ok(Json::obj(out))
    } else {
        Err(wrong)
    }
}

struct Args {
    all: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    check: bool,
    record: Option<PathBuf>,
    commit: String,
    bin_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        all: false,
        workload: None,
        seed: 1,
        seconds: 12.0,
        reps: None,
        trace: false,
        check: false,
        record: None,
        commit: "unknown".into(),
        bin_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            || it.next().unwrap_or_else(|| die(&format!("{arg} needs a value"))).as_str();
        let num = |s: &str| -> f64 {
            s.parse().unwrap_or_else(|_| die(&format!("{arg}: bad number {s}")))
        };
        match arg.as_str() {
            "all" => a.all = true,
            "--workload" => {
                let name = value();
                a.workload = Some(
                    Workload::parse(name)
                        .unwrap_or_else(|| die(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => a.seed = num(value()) as u64,
            "--seconds" => a.seconds = num(value()),
            "--reps" => a.reps = Some(num(value()) as usize),
            // The driver passes `--trace 0|1`; by hand, a bare `--trace`.
            "--trace" if a.all => a.trace = true,
            "--trace" => a.trace = value() == "1",
            "--check" => a.check = true,
            "--record" => a.record = Some(PathBuf::from(value())),
            "--commit" => a.commit = value().to_string(),
            "--bin-dir" => a.bin_dir = Some(PathBuf::from(value())),
            other => die(&format!("unknown argument {other}")),
        }
    }
    a
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--sve-child") {
        let num = |i: usize| -> u64 {
            raw.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| die("bad --sve-child"))
        };
        workloads::sve_child(num(1) as usize, num(2) as usize, num(3));
        return;
    }
    let args = parse_args(&raw);
    let me = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let bin_dir =
        args.bin_dir.clone().unwrap_or_else(|| me.parent().expect("exe has a directory").into());
    // Children run in scratch directories, so the paths must be absolute.
    let bin_dir = bin_dir.canonicalize().unwrap_or_else(|e| die(&format!("--bin-dir: {e}")));
    let root = std::env::current_dir().unwrap_or_else(|e| die(&format!("cwd: {e}")));
    let out = root.join("bench/e2e/out");
    let contract = Contract::load(&root.join("BENCHMARK.json")).unwrap_or_else(|e| die(&e));
    let env = Env {
        v2d: bin_dir.join("v2d"),
        serve: bin_dir.join("v2d-serve"),
        me,
        work: out.join("work"),
        all_cpus: sys::pin_to_one_cpu(),
    };
    let code = if args.all {
        human(&args, &env, &contract, &out)
    } else {
        driver(&args, &env, &contract, &out)
    };
    // Decks, sockets and checkpoints of this run; the span files stay.
    let _ = std::fs::remove_dir_all(&env.work);
    std::process::exit(code);
}

/// One run of one workload; the last stdout line is the result.
fn driver(args: &Args, env: &Env, contract: &Contract, out: &Path) -> i32 {
    let w = args.workload.unwrap_or_else(|| die("--workload is required (or `all`)"));
    let (values, defs, run, mut failures) = if args.trace {
        match trace::run(w, env, &Sizes::full(), &Effort::full(), args.seed, out) {
            Ok(t) => (t.metrics, &contract.per_layer, t.untraced, t.failures),
            Err(e) => die(&format!("traced run failed: {e}")),
        }
    } else {
        let run = workloads::run(w, env, &Sizes::full(), args.seed, Budget::Seconds(args.seconds));
        if run.units.iter().any(|u| u.wall_s <= 0.0) {
            for f in run.all_failures() {
                eprintln!("FAILED {f}");
            }
            die("a unit could not run; nothing was measured");
        }
        (run.end_to_end(), &contract.end_to_end, run, Vec::new())
    };
    failures.extend(run.all_failures());
    failures.sort();
    failures.dedup();
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    let walls: Vec<String> = run.units.iter().map(|u| format!("{:.3}", u.wall_s)).collect();
    eprintln!("{}: {} units, wall_s {}", w.name(), walls.len(), walls.join(" "));
    let metrics = metrics_json(defs, &values)
        .unwrap_or_else(|wrong| die(&format!("metrics not as BENCHMARK.json lists: {wrong:?}")));
    let failed = run.failed().max(u64::from(!failures.is_empty()));
    let doc = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(run.attempted() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", doc.to_compact());
    0
}

/// The output checks each kind of workload must have fired.
fn expected_checks(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::SerialPaper | Workload::Topo5x4 | Workload::Weak256 => &[
            "v2d.exit_zero",
            "v2d.stdout_parses",
            "v2d.finite_energies_and_iterations",
            "v2d.checkpoint_opens",
            "v2d.stdout_identical_across_reps",
        ],
        Workload::SveDriver => {
            &["sve.child_exit_zero", "sve.stats_identical_across_sweeps", "sve.ratio_vl512_in_band"]
        }
        Workload::ServeCold => &[
            "serve.no_error_responses",
            "serve.every_id_answered_once",
            "serve.outcome_done",
            "serve.cold_all_computed",
            "serve.kill_ledger_records_a_kill",
            "serve.status_counters_conserve",
            "serve.clean_shutdown",
        ],
        Workload::ServeWarm => &[
            "serve.no_error_responses",
            "serve.warm_all_cached",
            "serve.spellings_return_identical_results",
            "serve.status_counters_conserve",
            "serve.clean_shutdown",
        ],
    }
}

fn print_metric(name: &str, w: Workload, value: f64, unit: &str, note: &str) {
    println!("{name:<34} {:<13} {value:>16.6} {unit:<8}{note}", w.name());
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))])
}

/// Every workload, every metric, for a person.
fn human(args: &Args, env: &Env, contract: &Contract, out: &Path) -> i32 {
    let (sizes, effort) = if args.check {
        (Sizes::check(), Effort::check())
    } else {
        (Sizes::full(), Effort::full())
    };
    let budget = match (args.check, args.reps) {
        (true, _) => Budget::Reps(1),
        (false, Some(n)) => Budget::Reps(n),
        (false, None) => Budget::Seconds(args.seconds),
    };
    let trace = args.trace || args.check;
    let nproc = env.all_cpus.count_ones();
    println!(
        "# v2d-e2e commit {} seed {} budget {budget:?} host-cpus {nproc} (pinned to one){}",
        args.commit,
        args.seed,
        if args.check { " — SELF-TEST SIZES, not a measurement" } else { "" }
    );
    let mut problems: Vec<String> = Vec::new();
    let mut record = Vec::new();
    for w in Workload::ALL {
        let run = workloads::run(w, env, &sizes, args.seed, budget);
        let e2e = run.end_to_end();
        if let Err(wrong) = metrics_json(&contract.end_to_end, &e2e) {
            problems.push(format!("{}: end-to-end metrics {wrong:?}", w.name()));
        }
        println!("\n[{} — end to end, untraced, {} units]", w.name(), run.units.len());
        let samples: BTreeMap<&str, Vec<f64>> = BTreeMap::from([
            ("wall_s", run.units.iter().map(|u| u.wall_s).collect()),
            ("cpu_s", run.units.iter().map(|u| u.cpu_s).collect()),
            ("setup_s", run.setups()),
            ("ops_per_s", run.units.iter().map(|u| u.ops / u.wall_s).collect()),
        ]);
        let mut e2e_record = Vec::new();
        for d in &contract.end_to_end {
            let Some(&v) = e2e.get(d.name.as_str()).filter(|v| v.is_finite()) else { continue };
            let mut fields = vec![("value", Json::Num(v)), ("unit", Json::Str(d.unit.clone()))];
            let note = match samples.get(d.name.as_str()) {
                Some(xs) => {
                    let (q1, q3) = stats::quartiles(xs);
                    fields.extend([
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        ("n", Json::Num(xs.len() as f64)),
                    ]);
                    format!(" median of {} (q1 {q1:.6} q3 {q3:.6})", xs.len())
                }
                None if d.name.starts_with("latency") => {
                    fields.push(("n", Json::Num(run.latencies_ms().len() as f64)));
                    format!(" over {} operations", run.latencies_ms().len())
                }
                None => String::new(),
            };
            print_metric(&d.name, w, v, &d.unit, &note);
            e2e_record.push((d.name.as_str(), Json::obj(fields)));
        }
        let fail_ratio = run.failed() as f64 / run.attempted() as f64;
        let note = format!(" {} of {}", run.failed(), run.attempted());
        print_metric("fail_ratio", w, fail_ratio, "ratio", &note);
        problems.extend(run.all_failures().into_iter().map(|f| format!("{}: {f}", w.name())));

        println!("[{} — exact-repeat statistics: equal across units, or the run fails]", w.name());
        let mut exact_record = Vec::new();
        for (k, v) in &run.units[0].exact {
            if k != "v2d.stdout" {
                println!("{k:<34} {:<13} {v:>16}", w.name());
                exact_record.push((k.as_str(), Json::Str(v.clone())));
            }
        }
        let mut fired: BTreeSet<&str> = run.checks();
        let mut layer_record = Vec::new();
        if trace {
            match trace::run(w, env, &sizes, &effort, args.seed, out) {
                Ok(t) => {
                    fired.extend(t.untraced.checks());
                    problems
                        .extend(t.failures.iter().map(|f| format!("{} (traced): {f}", w.name())));
                    if let Err(wrong) = metrics_json(&contract.per_layer, &t.metrics) {
                        problems.push(format!("{}: per-layer metrics {wrong:?}", w.name()));
                    }
                    println!(
                        "[{} — per layer, traced pass; spans in bench/e2e/out/{0}.folded]",
                        w.name()
                    );
                    for d in &contract.per_layer {
                        if let Some(v) = t.metrics.get(d.name.as_str()) {
                            print_metric(&d.name, w, *v, &d.unit, "");
                            layer_record.push((d.name.as_str(), value_json(*v, &d.unit)));
                        }
                    }
                    println!("[{} — self seconds per layer of the replay's spans]", w.name());
                    for (layer, s) in spans::layer_self_s(&t.spans) {
                        println!("{:<34} {:<13} {s:>16.6} s", format!("self_s.{layer}"), w.name());
                    }
                }
                Err(e) => problems.push(format!("{}: traced pass failed: {e}", w.name())),
            }
        }
        for c in expected_checks(w) {
            if !fired.contains(c) {
                problems.push(format!("{}: output check `{c}` never fired", w.name()));
            }
        }
        record.push((
            w.name(),
            Json::obj(vec![
                ("units", Json::Num(run.units.len() as f64)),
                ("attempted", Json::Num(run.attempted() as f64)),
                ("failed", Json::Num(run.failed() as f64)),
                ("end_to_end", Json::obj(e2e_record)),
                ("exact_repeat", Json::obj(exact_record)),
                ("per_layer", Json::obj(layer_record)),
            ]),
        ));
    }
    if let Some(path) = &args.record {
        let bounds = contract
            .end_to_end
            .iter()
            .map(|d| {
                let bound = d.bound.map_or(Json::Null, Json::Num);
                let def = vec![("better", Json::Str(d.better.clone())), ("bound", bound)];
                (d.name.as_str(), Json::obj(def))
            })
            .collect();
        let doc = Json::obj(vec![
            ("commit", Json::Str(args.commit.clone())),
            ("host_nproc", Json::Num(f64::from(nproc))),
            ("pinned_to_one_cpu", Json::Bool(true)),
            ("seed", Json::Num(args.seed as f64)),
            ("budget", Json::Str(format!("{budget:?}"))),
            ("traced_pass", Json::Bool(trace)),
            ("bounds", Json::obj(bounds)),
            ("workloads", Json::obj(record)),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    if problems.is_empty() {
        println!("\nOK: every output check passed");
        0
    } else {
        println!();
        for p in &problems {
            println!("FAILED {p}");
        }
        1
    }
}
