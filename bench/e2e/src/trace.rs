//! One traced run of a workload: an untraced unit through the real
//! surface, the in-process replay with spans, the per-layer probes, and
//! the numbers derived from putting them side by side.
//!
//! Every per-layer metric is reported on every workload.  Where a metric
//! is a property of a run (stage times, counters of a campaign) it comes
//! from the workload's own replay or unit when the workload has such a
//! run, and from a fixed reference otherwise: the serial paper deck for
//! the `v2d` stages, a shrunk warm campaign for the socket numbers.

use std::path::Path;

use v2d_core::problems::FAMILIES;

use crate::client;
use crate::decks;
use crate::layers::{self, Effort, Metrics};
use crate::replay::{self, Replay};
use crate::spans;
use crate::stats;
use crate::sys;
use crate::workloads::{self, Budget, Env, Run, Sizes, Workload};

/// The paper's Table I Cray (opt) cells this repo's decks correspond to:
/// seconds for 100 steps, serial and on 5×4 ranks.
const PAPER_SERIAL_S: f64 = 181.26;
const PAPER_5X4_S: f64 = 15.39;

pub struct Traced {
    pub metrics: Metrics,
    /// The untraced unit the overhead ratio is taken against.
    pub untraced: Run,
    pub failures: Vec<String>,
    pub spans: Vec<spans::Span>,
}

fn one_unit(w: Workload, env: &Env, sizes: &Sizes, seed: u64) -> Run {
    workloads::run(w, env, sizes, seed, Budget::Reps(1))
}

/// The in-process replay of `w`.
fn replay_of(w: Workload, env: &Env, sizes: &Sizes, seed: u64) -> Result<Replay, String> {
    let scratch = env.work.join("replay");
    match w {
        Workload::SerialPaper | Workload::Topo5x4 | Workload::Weak256 => {
            let (deck, _) = workloads::v2d_deck(env, w, sizes, seed)?;
            replay::v2d(w.name(), &deck, &scratch)
        }
        Workload::SveDriver => {
            Ok(replay::sve(w.name(), &workloads::sve_order(seed), sizes.sve_n, sizes.sve_sweeps))
        }
        Workload::ServeCold => {
            let lines: Vec<String> =
                workloads::cold_lines(sizes, seed).into_iter().map(|(_, l)| l).collect();
            replay::serve(w.name(), &[], &lines, &scratch)
        }
        Workload::ServeWarm => {
            let pool = workloads::warm_pool(seed);
            let preload: Vec<String> =
                pool.iter().map(|[deck, _]| client::submit_line("preload", deck, None)).collect();
            let templates: Vec<[String; 2]> =
                pool.iter().map(|p| [0, 1].map(|i| workloads::warm_template(&p[i]))).collect();
            let mut rng = decks::Rng::new(seed);
            let lines: Vec<String> = (0..sizes.warm_submits)
                .map(|i| {
                    let k = rng.below(FAMILIES.len());
                    workloads::warm_line(&templates[k][usize::from(i % 3 == 2)], &format!("w-{i}"))
                })
                .collect();
            replay::serve(w.name(), &preload, &lines, &scratch)
        }
    }
}

/// `deck` with its topology collapsed to one rank.
fn serialised(deck: &str) -> String {
    decks::set_param(&decks::set_param(deck, "nprx1", "1"), "nprx2", "1")
}

/// Run the traced pass of `w` and write its span files under `out`.
pub fn run(
    w: Workload,
    env: &Env,
    sizes: &Sizes,
    effort: &Effort,
    seed: u64,
    out: &Path,
) -> Result<Traced, String> {
    let mut m = Metrics::new();
    let mut failures = Vec::new();
    let scratch = env.work.join("probe");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let untraced = one_unit(w, env, sizes, seed);
    failures.extend(untraced.all_failures());
    let unit = &untraced.units[0];
    let replay = replay_of(w, env, sizes, seed)?;
    m.insert("bench.trace_overhead_ratio", replay.wall_s / unit.wall_s);

    // ---- `v2d` stage metrics: the workload's own replay, or the
    // serial paper deck as the reference.
    let (serial_deck, _) = workloads::v2d_deck(env, Workload::SerialPaper, sizes, seed)?;
    let reference;
    let serial = if w == Workload::SerialPaper {
        &replay
    } else {
        reference = replay::v2d("reference", &serial_deck, &scratch)?;
        &reference
    };
    let stages = if w.is_v2d() { &replay } else { serial };
    m.extend(stages.metrics.iter().map(|(k, v)| (*k, *v)));
    let run_s = stages.metrics["core.run_s"];
    let (paper_s, cell) =
        if w == Workload::Topo5x4 { (PAPER_5X4_S, &replay) } else { (PAPER_SERIAL_S, serial) };
    let steps = cell.metrics["core.solves_total"] / 3.0;
    let scaled = cell.metrics["machine.sim_s_cray_opt"] * 100.0 / steps;
    m.insert("machine.paper_rel_err_cray_opt", ((scaled - paper_s) / paper_s).abs());
    let overhead = if stages.ranks > 1 {
        let (deck, _) = workloads::v2d_deck(env, w, sizes, seed)?;
        let alone = replay::v2d("reference", &serialised(&deck), &scratch)?;
        run_s / alone.metrics["core.run_s"]
    } else {
        1.0
    };
    m.insert("comm.parallel_overhead_ratio", overhead);

    // ---- The probes.
    layers::core(&mut m, effort, &scratch)?;
    layers::linalg(&mut m, effort);
    layers::comm(&mut m, effort);
    layers::machine(&mut m, effort);
    layers::sve(&mut m, effort, sizes.sve_n);
    layers::io(&mut m, effort, &scratch)?;
    let (result_line, status_line) = layers::serve(&mut m, effort, &scratch)?;
    layers::obs(&mut m, effort, &result_line, &status_line)?;

    // Shares: a layer's unit cost times its count, over the run it
    // happened in.
    let per_iter = match stages.tile {
        (200, 100) => m["linalg.bicgstab_us_per_iter_large"],
        (8, 8) => m["linalg.bicgstab_us_per_iter_small"],
        (n1, n2) => layers::bicgstab_us_per_iter(n1, n2, effort.passes),
    };
    let iters = m["core.iters_total"] * stages.ranks as f64;
    m.insert("linalg.solve_share", iters * per_iter * 1e-6 / run_s);
    m.insert("machine.charge_share", m["machine.charges"] * m["machine.charge_ns"] * 1e-9 / run_s);

    // ---- What pinning hides: the 5×4 deck through the CLI, on one CPU
    // and on all of them.
    let pinned_s = if w == Workload::Topo5x4 {
        unit.wall_s
    } else {
        one_unit(Workload::Topo5x4, env, sizes, seed).units[0].wall_s
    };
    sys::set_affinity(env.all_cpus);
    let topo_free = one_unit(Workload::Topo5x4, env, sizes, seed);
    sys::pin_to_one_cpu();
    failures.extend(topo_free.all_failures());
    m.insert("comm.unpinned_wall_ratio", topo_free.units[0].wall_s / pinned_s);

    // ---- Socket numbers: the workload's own campaign, or a shrunk warm
    // one as the reference.
    let warm_ref;
    let warm = if w == Workload::ServeWarm {
        &untraced
    } else {
        warm_ref = one_unit(Workload::ServeWarm, env, &Sizes::check(), seed);
        failures.extend(warm_ref.all_failures());
        &warm_ref
    };
    let counters = if w.is_serve() { &untraced } else { warm };
    for (k, v) in &counters.units[0].layer {
        if k.starts_with("serve.") {
            m.insert(k, *v);
        }
    }
    let own = if w.is_serve() { untraced.latencies_ms() } else { warm.latencies_ms() };
    m.insert("serve.latency_p90_ms", stats::percentile(&own, 90.0));
    let lat = warm.latencies_ms();
    m.insert("serve.latency_p99_ms", stats::percentile(&lat, 99.0));
    m.insert(
        "serve.status_rtt_us",
        warm.units[0].layer.get("serve.status_rtt_us").copied().unwrap_or(0.0),
    );
    let in_process = m["serve.parse_request_us"] + m["serve.handle_hit_us"] + m["serve.to_line_us"];
    m.insert("serve.transport_us", stats::percentile(&lat, 50.0) * 1e3 - in_process);

    // ---- The span files.
    let total_self: u64 = spans::self_times_ns(&replay.spans).iter().sum();
    let root = replay.spans[0].dur_ns();
    if (total_self as f64 - root as f64).abs() > 0.02 * root as f64 {
        failures.push(format!("self times sum to {total_self} ns, the traced wall is {root} ns"));
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    for (ext, text) in [
        ("trace.json", spans::chrome_trace(&replay.spans)),
        ("folded", spans::folded_stacks(&replay.spans)),
    ] {
        let path = out.join(format!("{}.{ext}", w.name()));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Traced { metrics: m, untraced, failures, spans: replay.spans })
}
