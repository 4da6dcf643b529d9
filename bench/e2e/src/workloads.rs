//! The six end-to-end workloads, driven through the surfaces later
//! changes must keep: the `v2d <deck.par>` CLI, the `v2d-serve --socket`
//! NDJSON protocol, and `v2d_sve::kernels::run_routine`.
//!
//! A run repeats a workload's *unit* — one `v2d` process, one batch of
//! kernel-driver sweeps, one request campaign — until its time budget is
//! spent, and reports medians over the units.  Load comes from this one
//! process and never exceeds two requests in flight.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use v2d_core::problems::{Family, FAMILIES};
use v2d_obs::Json;
use v2d_serve::fnv64;
use v2d_sve::kernels::{run_routine, Routine, Variant};
use v2d_sve::{ExecConfig, ExecStats};

use crate::client::{self, Daemon, Fault};
use crate::decks::{self, Rng};
use crate::stats;
use crate::sys;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    SerialPaper,
    Topo5x4,
    Weak256,
    SveDriver,
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SerialPaper,
        Workload::Topo5x4,
        Workload::Weak256,
        Workload::SveDriver,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialPaper => "serial_paper",
            Workload::Topo5x4 => "topo_5x4",
            Workload::Weak256 => "weak_256",
            Workload::SveDriver => "sve_driver",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_v2d(self) -> bool {
        matches!(self, Workload::SerialPaper | Workload::Topo5x4 | Workload::Weak256)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeCold | Workload::ServeWarm)
    }
}

/// Where the programs under test and the scratch tree live.
#[derive(Debug, Clone)]
pub struct Env {
    pub v2d: PathBuf,
    pub serve: PathBuf,
    /// This executable (it re-runs itself as the kernel-driver child).
    pub me: PathBuf,
    /// Scratch tree: decks, checkpoints, sockets.  Inside `bench/e2e/out`.
    pub work: PathBuf,
    /// The CPUs the harness was allowed on before it pinned itself.
    pub all_cpus: u64,
}

/// Unit sizes.  `full` is what the benchmark measures; `check` is the
/// shrunk self-test, which exercises every path in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub serial_steps: usize,
    pub topo_steps: usize,
    pub weak_ranks: usize,
    pub sve_n: usize,
    pub sve_sweeps: usize,
    pub cold_rounds: usize,
    /// Convergence-study level of the cold decks.
    pub cold_level: u32,
    pub warm_submits: usize,
    /// A `status` rides along every this many warm submits.
    pub warm_status_every: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            serial_steps: 2,
            topo_steps: 1,
            weak_ranks: 256,
            sve_n: 16_000,
            sve_sweeps: 4,
            cold_rounds: 2,
            cold_level: 1,
            warm_submits: 50_000,
            warm_status_every: 1000,
        }
    }

    pub fn check() -> Self {
        Sizes {
            serial_steps: 1,
            topo_steps: 1,
            weak_ranks: 16,
            sve_n: 2000,
            sve_sweeps: 1,
            cold_rounds: 1,
            cold_level: 0,
            warm_submits: 2000,
            warm_status_every: 500,
        }
    }
}

/// How long a run keeps starting units.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start units until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many units.
    Reps(usize),
}

/// One measured unit.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub setup_s: Option<f64>,
    /// Work done: time steps, simulated instructions, or requests.
    pub ops: f64,
    /// Latency of every operation a user waited on.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted and failed (a run, a sweep, a request).
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// The output checks that fired.
    pub checks: BTreeSet<&'static str>,
    /// Statistics that must repeat exactly from unit to unit.
    pub exact: BTreeMap<String, String>,
    /// Layer numbers that fall out of the unit (status counters, …).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Unit {
    fn check(&mut self, name: &'static str, ok: bool, what: impl FnOnce() -> String) {
        self.checks.insert(name);
        if !ok {
            self.failures.push(format!("{name}: {}", what()));
        }
    }

    /// A unit that could not run at all.
    fn broken(what: String) -> Unit {
        Unit { attempted: 1, failed: 1, failures: vec![what], ..Unit::default() }
    }
}

/// Every unit of one run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    pub units: Vec<Unit>,
    /// Set-ups measured outside the units (`serve_warm` only).
    pub extra_setups: Vec<f64>,
    /// Failures that belong to no single unit (exact-repeat drift).
    pub failures: Vec<String>,
}

impl Run {
    pub fn setups(&self) -> Vec<f64> {
        self.units
            .iter()
            .filter_map(|u| u.setup_s)
            .chain(self.extra_setups.iter().copied())
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.units.iter().map(|u| u.attempted).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        let in_units: u64 = self.units.iter().map(|u| u.failed).sum();
        // A cross-unit failure spoils the run even if every unit passed.
        in_units.max(u64::from(!self.failures.is_empty()))
    }

    pub fn all_failures(&self) -> Vec<String> {
        self.units
            .iter()
            .flat_map(|u| u.failures.iter().cloned())
            .chain(self.failures.clone())
            .collect()
    }

    pub fn checks(&self) -> BTreeSet<&'static str> {
        self.units.iter().flat_map(|u| u.checks.iter().copied()).collect()
    }

    fn of<F: Fn(&Unit) -> f64>(&self, f: F) -> Vec<f64> {
        self.units.iter().map(f).collect()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self.units.iter().flat_map(|u| u.latencies_ms.iter().copied()).collect::<Vec<_>>(),
        )
    }

    /// The end-to-end metrics, by name.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let lat = self.latencies_ms();
        BTreeMap::from([
            ("wall_s", stats::median(&self.of(|u| u.wall_s))),
            ("cpu_s", stats::median(&self.of(|u| u.cpu_s))),
            ("setup_s", stats::median(&self.setups())),
            ("peak_rss_mb", self.of(|u| u.peak_rss_mb).into_iter().fold(0.0, f64::max)),
            ("ops_per_s", stats::median(&self.of(|u| u.ops / u.wall_s))),
            ("latency_p50_ms", stats::percentile(&lat, 50.0)),
        ])
    }
}

/// Run `workload` until `budget` is spent.
pub fn run(workload: Workload, env: &Env, sizes: &Sizes, seed: u64, budget: Budget) -> Run {
    let mut run = Run::default();
    let mut warm: Option<WarmDaemon> = None;
    if workload == Workload::ServeWarm {
        // Set-up (spawn, connect, preload) is measured on three daemons;
        // the timed units load the last one.
        for _ in 0..3 {
            if let Some(previous) = warm.take() {
                let _ = previous.daemon.shutdown();
            }
            match WarmDaemon::start(env, seed) {
                Ok(w) => {
                    run.extra_setups.push(w.setup_s);
                    warm = Some(w);
                }
                Err(e) => run.failures.push(format!("serve_warm set-up: {e}")),
            }
        }
    }
    let started = Instant::now();
    loop {
        let done = match budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Reps(n) => run.units.len() >= n,
        };
        if done && !run.units.is_empty() {
            break;
        }
        let unit = match workload {
            Workload::SerialPaper | Workload::Topo5x4 | Workload::Weak256 => {
                v2d_unit(env, workload, sizes, seed)
            }
            Workload::SveDriver => sve_unit(env, sizes, seed),
            Workload::ServeCold => cold_unit(env, sizes, seed),
            Workload::ServeWarm => match warm.as_mut() {
                Some(w) => w.unit(sizes, seed, run.units.len() as u64),
                None => Unit::broken("serve_warm: no daemon".into()),
            },
        };
        // A unit that failed outright measures nothing; stop instead of
        // spinning on a broken program for the whole budget.
        let broken = unit.wall_s <= 0.0;
        run.units.push(unit);
        if broken {
            break;
        }
    }
    if let Some(w) = warm {
        w.finish(&mut run);
    }
    // Simulated statistics are exact: any drift between units of one
    // commit is a correctness failure, not noise.
    let first = run.units[0].exact.clone();
    for (i, u) in run.units.iter().enumerate().skip(1) {
        for (k, v) in &u.exact {
            if first.get(k) != Some(v) {
                run.failures.push(format!(
                    "exact-repeat `{k}` drifted: unit 0 = {:?}, unit {i} = {v:?}",
                    first.get(k)
                ));
            }
        }
    }
    run
}

// ---------------------------------------------------------------------
// v2d CLI workloads
// ---------------------------------------------------------------------

/// What `v2d` printed, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct V2dReport {
    pub iters: u64,
    pub e0: f64,
    pub e1: f64,
    /// `(compiler label, total simulated s)`.
    pub sim_s: Vec<(String, f64)>,
}

/// Parse the report `v2d` prints.  `None` if any part is missing.
pub fn parse_v2d_stdout(out: &str) -> Option<V2dReport> {
    let after = |line: &str, key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest.split(|c: char| !c.is_ascii_digit()).find(|s| !s.is_empty())?.parse().ok()
    };
    let solves_line = out.lines().find(|l| l.starts_with("solves:"))?;
    let energy = out.lines().find(|l| l.starts_with("radiation energy:"))?;
    let mut e = energy["radiation energy:".len()..].split('→').map(|s| s.trim().parse::<f64>());
    out.lines().find(|l| l.starts_with("validation:"))?;
    let table_at = out.lines().position(|l| l.starts_with("compiler"))?;
    let sim_s = out
        .lines()
        .skip(table_at + 1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            // `Cray (opt)   20.82   0.00`: the label may hold spaces.
            let cols: Vec<&str> = l.split_whitespace().collect();
            let (nums, label) = (cols.get(cols.len().checked_sub(2)?..)?, &cols[..cols.len() - 2]);
            nums[1].parse::<f64>().ok()?;
            Some((label.join(" "), nums[0].parse().ok()?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(V2dReport {
        iters: after(solves_line, "iterations:")?,
        e0: e.next()?.ok()?,
        e1: e.next()?.ok()?,
        sim_s,
    })
}

/// The deck of a `v2d` workload and its step count.  The paper decks
/// start from what `v2d --print-paper` prints, so the program is asked.
pub fn v2d_deck(
    env: &Env,
    w: Workload,
    sizes: &Sizes,
    seed: u64,
) -> Result<(String, usize), String> {
    if w == Workload::Weak256 {
        return Ok((decks::weak_deck(sizes.weak_ranks, seed), 1));
    }
    let paper = match sys::run_to_end(Command::new(&env.v2d).arg("--print-paper")) {
        Ok(f) if f.usage.exit_ok => f.stdout,
        Ok(_) => return Err("v2d --print-paper failed".into()),
        Err(e) => return Err(format!("cannot run {}: {e}", env.v2d.display())),
    };
    Ok(match w {
        Workload::Topo5x4 => {
            (decks::paper_variant(&paper, sizes.topo_steps, 5, 4, seed), sizes.topo_steps)
        }
        _ => (decks::paper_variant(&paper, sizes.serial_steps, 1, 1, seed), sizes.serial_steps),
    })
}

/// One `v2d <deck.par>` process.
fn v2d_unit(env: &Env, w: Workload, sizes: &Sizes, seed: u64) -> Unit {
    let dir = env.work.join("v2d");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Unit::broken(format!("cannot create {}: {e}", dir.display()));
    }
    let _ = std::fs::remove_file(dir.join("v2d_final.h5l"));
    // Deck generation is part of set-up.
    let t0 = Instant::now();
    let (deck, n_steps) = match v2d_deck(env, w, sizes, seed) {
        Ok(d) => d,
        Err(e) => return Unit::broken(e),
    };
    if let Err(e) = std::fs::write(dir.join("deck.par"), &deck) {
        return Unit::broken(format!("cannot write deck: {e}"));
    }
    let deck_s = t0.elapsed().as_secs_f64();
    let fin = match sys::run_to_end(Command::new(&env.v2d).arg("deck.par").current_dir(&dir)) {
        Ok(f) => f,
        Err(e) => return Unit::broken(format!("cannot run v2d: {e}")),
    };
    let mut u = Unit {
        wall_s: fin.wall_s,
        cpu_s: fin.usage.cpu_s,
        peak_rss_mb: fin.peak_rss_mb,
        setup_s: Some(deck_s + fin.first_line_s),
        ops: n_steps as f64,
        latencies_ms: vec![fin.wall_s * 1e3],
        attempted: 1,
        ..Unit::default()
    };
    u.check("v2d.exit_zero", fin.usage.exit_ok, || "v2d exited non-zero".into());
    let report = parse_v2d_stdout(&fin.stdout);
    u.check("v2d.stdout_parses", report.is_some(), || "report did not parse".into());
    if let Some(r) = &report {
        u.check(
            "v2d.finite_energies_and_iterations",
            r.e0.is_finite() && r.e1.is_finite() && r.iters > 0,
            || format!("energies {} → {}, {} iterations", r.e0, r.e1, r.iters),
        );
        u.exact.insert("core.iters_total".into(), r.iters.to_string());
        for (label, total) in &r.sim_s {
            u.exact.insert(format!("machine.sim_s[{label}]"), total.to_string());
        }
    }
    let ck = v2d_io::File::open(dir.join("v2d_final.h5l"));
    u.check("v2d.checkpoint_opens", ck.is_ok(), || format!("{:?}", ck.as_ref().err()));
    // Byte-identical stdout across units covers every simulated number
    // the program prints (times per compiler, iterations, energies).
    u.check("v2d.stdout_identical_across_reps", true, String::new);
    u.exact.insert("v2d.stdout".into(), fin.stdout);
    u.failed = u64::from(!u.failures.is_empty());
    u
}

// ---------------------------------------------------------------------
// sve_driver
// ---------------------------------------------------------------------

const SVE_VLS: [u32; 5] = [128, 256, 512, 1024, 2048];

/// The cells of one sweep: 5 routines × {scalar, SVE} × 5 vector lengths.
pub fn sve_cells() -> Vec<(Routine, Variant, u32)> {
    let mut cells = Vec::with_capacity(50);
    for r in Routine::ALL {
        for v in [Variant::Scalar, Variant::Sve] {
            for vl in SVE_VLS {
                cells.push((r, v, vl));
            }
        }
    }
    cells
}

/// The cells in the order a sweep of `seed` runs them.  The seed only
/// rotates where the sweep starts: `run_routine` allocates per call, so
/// a shuffled order changes the heap's history and with it the sweep
/// time by ±25 % — a different workload per seed, not noise.
pub fn sve_order(seed: u64) -> Vec<(Routine, Variant, u32)> {
    let mut order = sve_cells();
    let start = (seed % order.len() as u64) as usize;
    order.rotate_left(start);
    order
}

fn cell_key(c: &(Routine, Variant, u32)) -> String {
    format!("{}.{}.{}", c.0.name(), if c.1 == Variant::Sve { "sve" } else { "scalar" }, c.2)
}

/// One sweep, in `order`: per-cell stats and host milliseconds.
fn sve_sweep(order: &[(Routine, Variant, u32)], n: usize) -> Vec<(String, ExecStats, f64)> {
    order
        .iter()
        .map(|c| {
            let cfg = ExecConfig::a64fx_l1().with_vl(c.2);
            let t = Instant::now();
            let st = std::hint::black_box(run_routine(c.0, n, c.1, &cfg));
            (cell_key(c), st, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// The kernel-driver child: one cold sweep (announced on its own line,
/// so the parent can time set-up), then `sweeps` timed sweeps.  Prints
/// one JSON document describing them.
pub fn sve_child(n: usize, sweeps: usize, seed: u64) {
    let order = sve_order(seed);
    let t = Instant::now();
    let cold = sve_sweep(&order, n);
    println!("cold {:.9}", t.elapsed().as_secs_f64());

    let reference: BTreeMap<String, ExecStats> =
        cold.into_iter().map(|(k, st, _)| (k, st)).collect();
    let (u0, s0, _) = sys::self_usage();
    let t = Instant::now();
    // The operation a user of the driver waits on is a sweep: cells of
    // different routines and vector lengths are not one population.
    let mut lat = Vec::with_capacity(sweeps);
    let mut failed_sweeps = 0u64;
    for _ in 0..sweeps {
        let cells = sve_sweep(&order, n);
        let same = cells.iter().all(|(k, st, _)| reference.get(k) == Some(st));
        failed_sweeps += u64::from(!same);
        lat.push(cells.iter().map(|c| c.2).sum());
    }
    let wall_s = t.elapsed().as_secs_f64();
    let (u1, s1, _) = sys::self_usage();

    let total = |f: fn(&ExecStats) -> u64| reference.values().map(f).sum::<u64>() as f64;
    let cycles = |r: Routine, v: Variant| reference[&cell_key(&(r, v, 512))].cycles as f64;
    let ratios: Vec<Json> = Routine::ALL
        .iter()
        .map(|&r| Json::Num(cycles(r, Variant::Sve) / cycles(r, Variant::Scalar)))
        .collect();
    let doc = Json::obj(vec![
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::Num(u1 - u0 + s1 - s0)),
        ("failed_sweeps", Json::Num(failed_sweeps as f64)),
        ("instrs_per_sweep", Json::Num(total(|s| s.instrs))),
        ("cycles_per_sweep", Json::Num(total(|s| s.cycles))),
        ("ratios_vl512", Json::Arr(ratios)),
        ("latencies_ms", Json::Arr(lat.into_iter().map(Json::Num).collect())),
    ]);
    println!("{}", doc.to_compact());
}

/// The repo's own band for the SVE/scalar cycle ratio at VL 512
/// (Table II reproduces 0.17–0.41; the gates allow 0.10–0.45).
const SVE_RATIO_BAND: (f64, f64) = (0.10, 0.45);

fn sve_unit(env: &Env, sizes: &Sizes, seed: u64) -> Unit {
    let fin = sys::run_to_end(Command::new(&env.me).args([
        "--sve-child",
        &sizes.sve_n.to_string(),
        &sizes.sve_sweeps.to_string(),
        &seed.to_string(),
    ]));
    let fin = match fin {
        Ok(f) => f,
        Err(e) => return Unit::broken(format!("cannot run the kernel-driver child: {e}")),
    };
    let doc = fin.stdout.lines().nth(1).and_then(|l| Json::parse(l).ok());
    let num = |k: &str| doc.as_ref().and_then(|d| d.get(k)).and_then(Json::as_f64);
    let (Some(wall_s), Some(cpu_s), Some(instrs), Some(cycles), Some(bad)) = (
        num("wall_s"),
        num("cpu_s"),
        num("instrs_per_sweep"),
        num("cycles_per_sweep"),
        num("failed_sweeps"),
    ) else {
        return Unit::broken("kernel-driver child printed no result".into());
    };
    let list = |k: &str| -> Vec<f64> {
        doc.as_ref()
            .and_then(|d| d.get(k))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let mut u = Unit {
        wall_s,
        cpu_s,
        peak_rss_mb: fin.peak_rss_mb,
        // Process start plus the cold first sweep (assemble, decode, fill
        // the program cache).
        setup_s: Some(fin.first_line_s),
        ops: instrs * sizes.sve_sweeps as f64,
        latencies_ms: list("latencies_ms"),
        attempted: sizes.sve_sweeps as u64,
        failed: bad as u64,
        ..Unit::default()
    };
    u.check("sve.child_exit_zero", fin.usage.exit_ok, || "child exited non-zero".into());
    u.check("sve.stats_identical_across_sweeps", bad == 0.0, || {
        format!("{bad} sweeps differed from the cold sweep")
    });
    let ratios = list("ratios_vl512");
    let in_band =
        ratios.len() == 5 && ratios.iter().all(|&r| r >= SVE_RATIO_BAND.0 && r <= SVE_RATIO_BAND.1);
    u.check("sve.ratio_vl512_in_band", in_band, || format!("SVE/scalar ratios {ratios:?}"));
    u.exact.insert("sve.instrs".into(), format!("{instrs}"));
    u.exact.insert("sve.cycles".into(), format!("{cycles}"));
    u.layer.insert("sve.instrs", instrs);
    u.layer.insert("sve.cycles", cycles);
    if !u.failures.is_empty() {
        u.failed = u.failed.max(1);
    }
    u
}

// ---------------------------------------------------------------------
// serve workloads
// ---------------------------------------------------------------------

/// A parsed `result` response.
struct ResultLine {
    id: String,
    source: String,
    outcome: String,
    kills: u64,
    bits: Option<u64>,
    /// The `result` member, re-serialised: equal bytes ⇔ equal result.
    result_text: String,
}

fn parse_result(line: &str) -> Result<ResultLine, String> {
    let j = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    let text = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    if text("resp") != "result" {
        return Err(format!("expected a result, got `{line}`"));
    }
    let result = j.get("result").ok_or("result response without a result")?;
    Ok(ResultLine {
        id: text("id"),
        source: text("source"),
        outcome: result.get("outcome").and_then(Json::as_str).unwrap_or_default().to_string(),
        kills: result
            .get("ledger")
            .and_then(|l| l.get("kills"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        bits: result.get("bits_fnv32").and_then(Json::as_u64),
        result_text: result.to_compact(),
    })
}

/// FNV-1a fold of the results' field checksums, in id order.
fn fold_bits(bits: &BTreeMap<String, u64>) -> u64 {
    fnv64(&bits.values().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
}

/// Status counters must balance once the daemon is idle.
fn check_conservation(u: &mut Unit, status: &Json) {
    let c = |n: &str| client::counter(status, n);
    let admitted = c("serve.admitted");
    let routed = c("serve.cache.result_hits") + c("serve.deduped") + c("serve.scheduled");
    let finished = c("serve.completed") + c("serve.failed");
    u.check(
        "serve.status_counters_conserve",
        admitted == routed && c("serve.scheduled") == finished && c("serve.rejected") == 0,
        || format!("admitted {admitted}, routed {routed}, finished {finished}"),
    );
    for (name, key) in [
        ("serve.admitted", "serve.admitted"),
        ("serve.completed", "serve.completed"),
        ("serve.deduped", "serve.deduped"),
        ("serve.failed", "serve.failed"),
        ("serve.stolen", "serve.pool.stolen"),
    ] {
        u.layer.insert(name, c(key) as f64);
    }
    let hits = c("serve.cache.result_hits") as f64;
    u.layer.insert("serve.hit_ratio", hits / (admitted.max(1)) as f64);
}

/// The requests of one cold round, each made novel for `(seed, round)`:
/// the eight families, the rank-loss deck, and a second sod and a second
/// kelvin-helmholtz.  Requests of one family cost the same, so latencies
/// come in classes; the two doubled classes are there so that the median
/// and the 90th percentile of a round fall *inside* a class (sod and
/// kelvin-helmholtz) and not on the boundary between two, where one
/// request changing places would move the percentile by a class width.
fn cold_round(level: u32, round: usize, base: u64) -> Vec<(String, String, Option<Fault>)> {
    let mut reqs = Vec::with_capacity(COLD_PER_ROUND);
    let mut novelty = base + (round * COLD_PER_ROUND) as u64;
    let mut push = |id: String, deck: String, fault: Option<Fault>| {
        reqs.push((id, decks::novel(&deck, novelty), fault));
        novelty += 1;
    };
    for f in FAMILIES {
        push(format!("r{round}-{}", f.name()), decks::family_deck(f, level), None);
    }
    for f in [Family::Sod, Family::KelvinHelmholtz] {
        push(format!("r{round}-{}-again", f.name()), decks::family_deck(f, level), None);
    }
    push(
        format!("r{round}-kill"),
        decks::kill_deck(),
        Some(Fault { step: 2, rank: 0, kind: "rank-kill" }),
    );
    reqs
}

const COLD_PER_ROUND: usize = 11;

/// A fresh daemon answering `cold_rounds` × 9 novel requests, closed
/// loop, two outstanding: every request is computed.
/// The `(id, request line)` pairs of one cold unit, in sending order.
pub fn cold_lines(sizes: &Sizes, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng::new(seed ^ 0xC01D);
    // Keep the perturbation in the ninth-to-seventh significant digits.
    let base = 1 + rng.next_u64() % 900;
    let mut lines = Vec::new();
    for round in 0..sizes.cold_rounds {
        let mut reqs = cold_round(sizes.cold_level, round, base);
        rng.shuffle(&mut reqs);
        lines.extend(reqs.into_iter().map(|(id, deck, fault)| {
            let line = client::submit_line(&id, &deck, fault.as_ref());
            (id, line)
        }));
    }
    lines
}

fn cold_unit(env: &Env, sizes: &Sizes, seed: u64) -> Unit {
    // Set-up: generate the requests, start the daemon, connect.
    let t0 = Instant::now();
    let lines = cold_lines(sizes, seed);
    let generated_s = t0.elapsed().as_secs_f64();
    let dir = env.work.join("serve_cold");
    let mut daemon = match Daemon::spawn(&env.serve, &dir) {
        Ok(d) => d,
        Err(e) => return Unit::broken(format!("cannot start v2d-serve: {e}")),
    };
    let mut u = Unit {
        setup_s: Some(generated_s + daemon.startup_s),
        attempted: lines.len() as u64,
        ops: lines.len() as f64,
        ..Unit::default()
    };
    let mut sent_at: BTreeMap<String, Instant> = BTreeMap::new();
    let mut answered: BTreeMap<String, ResultLine> = BTreeMap::new();
    let mut duplicates = 0u64;
    let t0 = Instant::now();
    let mut next = 0;
    let mut outstanding = 0;
    let outcome: std::io::Result<()> = (|| {
        while answered.len() < lines.len() {
            while outstanding < 2 && next < lines.len() {
                sent_at.insert(lines[next].0.clone(), Instant::now());
                daemon.send(&lines[next].1)?;
                next += 1;
                outstanding += 1;
            }
            let line = daemon.recv_line()?;
            let now = Instant::now();
            outstanding -= 1;
            match parse_result(&line) {
                Ok(r) => {
                    if let Some(t) = sent_at.get(&r.id) {
                        u.latencies_ms.push(now.duration_since(*t).as_secs_f64() * 1e3);
                    }
                    if answered.insert(r.id.clone(), r).is_some() {
                        duplicates += 1;
                    }
                }
                Err(what) => {
                    u.failed += 1;
                    u.failures.push(what);
                    // An error response answers some id; without it the
                    // loop above could wait forever.
                    return Err(std::io::Error::other("daemon answered with an error"));
                }
            }
        }
        Ok(())
    })();
    u.wall_s = t0.elapsed().as_secs_f64();
    u.check("serve.no_error_responses", outcome.is_ok(), || format!("{outcome:?}"));
    u.check(
        "serve.every_id_answered_once",
        duplicates == 0 && lines.iter().all(|(id, _)| answered.contains_key(id)),
        || format!("{} of {} ids answered, {duplicates} twice", answered.len(), lines.len()),
    );
    let not_done = answered.values().filter(|r| r.outcome != "done").count();
    u.check("serve.outcome_done", not_done == 0, || format!("{not_done} results not `done`"));
    let not_computed = answered.values().filter(|r| r.source != "computed").count();
    u.check("serve.cold_all_computed", not_computed == 0, || {
        format!("{not_computed} cold results did not come from their own job")
    });
    let kills_ok =
        answered.iter().filter(|(id, _)| id.ends_with("-kill")).all(|(_, r)| r.kills >= 1);
    u.check("serve.kill_ledger_records_a_kill", kills_ok, || {
        "a rank-kill deck reported no kill".into()
    });
    u.failed += (not_done + not_computed) as u64 + duplicates + u64::from(!kills_ok);
    if let Ok(status) = daemon.status() {
        check_conservation(&mut u, &status);
    }
    let pid = daemon.pid();
    u.peak_rss_mb = sys::proc_peak_rss_mb(pid).unwrap_or(0.0);
    match daemon.shutdown() {
        Ok(usage) => {
            u.cpu_s = usage.cpu_s;
            u.check("serve.clean_shutdown", usage.exit_ok, || {
                "daemon did not say bye and exit 0".into()
            });
        }
        Err(e) => u.check("serve.clean_shutdown", false, || e.to_string()),
    }
    let bits: BTreeMap<String, u64> =
        answered.iter().filter_map(|(id, r)| Some((id.clone(), r.bits?))).collect();
    u.exact.insert("serve.bits_fold".into(), format!("{:016x}", fold_bits(&bits)));
    u.layer.insert("serve.daemon_rss_mb", u.peak_rss_mb);
    if !u.failures.is_empty() {
        u.failed = u.failed.max(1);
    }
    u
}

/// The warm pool: every family's smoke deck, spelled canonically and
/// noisily.
pub fn warm_pool(seed: u64) -> Vec<[String; 2]> {
    let mut rng = Rng::new(seed ^ 0x3A93);
    FAMILIES
        .iter()
        .map(|&f| {
            let deck = decks::smoke_deck(f);
            let noisy = decks::noisy(&deck, &mut rng);
            [deck, noisy]
        })
        .collect()
}

/// A submit line whose id is filled in by [`warm_line`] when it is sent,
/// so the hot loop does not re-escape the deck per request.
pub fn warm_template(deck: &str) -> String {
    client::submit_line("ID", deck, None)
}

pub fn warm_line(template: &str, id: &str) -> String {
    template.replacen("\"ID\"", &format!("\"{id}\""), 1)
}

/// The long-lived daemon of `serve_warm` and its preloaded pool.
struct WarmDaemon {
    daemon: Daemon,
    /// Spawn + connect + preload.
    setup_s: f64,
    /// Canonical and noisy request template per family.
    pool: Vec<[String; 2]>,
    /// The `result` bytes each family's deck must keep returning.
    expected: Vec<String>,
    bits: BTreeMap<String, u64>,
    failures: Vec<String>,
}

impl WarmDaemon {
    fn start(env: &Env, seed: u64) -> std::io::Result<WarmDaemon> {
        let t0 = Instant::now();
        let decks = warm_pool(seed);
        let mut daemon = Daemon::spawn(&env.serve, &env.work.join("serve_warm"))?;
        let mut pool = Vec::new();
        let mut expected = Vec::new();
        let mut bits = BTreeMap::new();
        let mut failures = Vec::new();
        for (f, [deck, noisy]) in FAMILIES.iter().zip(&decks) {
            let line = daemon.round_trip(&client::submit_line("preload", deck, None))?;
            match parse_result(&line) {
                Ok(r) if r.outcome == "done" => {
                    bits.extend(r.bits.map(|b| (f.name().to_string(), b)));
                    expected.push(r.result_text);
                }
                Ok(r) => failures.push(format!("preload {f}: outcome {}", r.outcome)),
                Err(e) => failures.push(format!("preload {f}: {e}")),
            }
            pool.push([warm_template(deck), warm_template(noisy)]);
        }
        Ok(WarmDaemon {
            daemon,
            setup_s: t0.elapsed().as_secs_f64(),
            pool,
            expected,
            bits,
            failures,
        })
    }

    /// `warm_submits` cache hits, closed loop, one outstanding; decks
    /// drawn from the pool, every third one in its noisy spelling (the
    /// spellings cost differently to parse, and a 50/50 mix would put the
    /// median latency on the boundary between the two).
    fn unit(&mut self, sizes: &Sizes, seed: u64, index: u64) -> Unit {
        let mut rng = Rng::new(seed.wrapping_add(index.wrapping_mul(0x9E37)));
        let pid = self.daemon.pid();
        let cpu0 = sys::proc_cpu_s(pid);
        let mut u = Unit {
            attempted: sizes.warm_submits as u64,
            ops: sizes.warm_submits as f64,
            ..Unit::default()
        };
        u.latencies_ms.reserve(sizes.warm_submits);
        let mut status_rtt_us = Vec::new();
        let (mut not_cached, mut mismatched) = (0u64, 0u64);
        let t0 = Instant::now();
        let outcome: std::io::Result<()> = (|| {
            for i in 0..sizes.warm_submits {
                let k = rng.below(self.pool.len());
                let id = format!("w{index}-{i}");
                let line = warm_line(&self.pool[k][usize::from(i % 3 == 2)], &id);
                let t = Instant::now();
                let resp = self.daemon.round_trip(&line)?;
                u.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                // Checked inline but cheaply: the hot loop must stay a
                // load generator, so compare bytes, not parsed trees.
                let cached = resp.contains("\"source\":\"result-cache\"");
                let same = self.expected.get(k).is_some_and(|e| resp.contains(e.as_str()));
                let own = resp.contains(&id);
                not_cached += u64::from(!cached);
                mismatched += u64::from(!same || !own);
                if (i + 1) % sizes.warm_status_every == 0 {
                    let t = Instant::now();
                    self.daemon.round_trip(&client::status_line("s"))?;
                    status_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            Ok(())
        })();
        u.wall_s = t0.elapsed().as_secs_f64();
        u.check("serve.no_error_responses", outcome.is_ok(), || format!("{outcome:?}"));
        u.check("serve.warm_all_cached", not_cached == 0, || {
            format!("{not_cached} not from the cache")
        });
        u.check("serve.spellings_return_identical_results", mismatched == 0, || {
            format!("{mismatched} responses differed from the preloaded result")
        });
        u.failed = not_cached.max(mismatched) + u64::from(outcome.is_err());
        if let (Some((u0, s0)), Some((u1, s1))) = (cpu0, sys::proc_cpu_s(pid)) {
            u.cpu_s = u1 - u0 + s1 - s0;
        }
        u.peak_rss_mb = sys::proc_peak_rss_mb(pid).unwrap_or(0.0);
        u.layer.insert("serve.status_rtt_us", stats::median(&status_rtt_us));
        u.layer.insert("serve.daemon_rss_mb", u.peak_rss_mb);
        u.exact.insert("serve.bits_fold".into(), format!("{:016x}", fold_bits(&self.bits)));
        u
    }

    /// Final status, conservation, shutdown; attributed to the last unit.
    fn finish(mut self, run: &mut Run) {
        run.failures.append(&mut self.failures);
        let status = self.daemon.status();
        let bye = self.daemon.shutdown();
        let Some(last) = run.units.last_mut() else { return };
        match status {
            Ok(s) => check_conservation(last, &s),
            Err(e) => last.check("serve.status_counters_conserve", false, || e.to_string()),
        }
        let clean = bye.as_ref().is_ok_and(|u| u.exit_ok);
        last.check("serve.clean_shutdown", clean, || format!("{:?}", bye.err()));
        if !last.failures.is_empty() {
            last.failed = last.failed.max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "\
V2D: 200×100×2 zones, 2 steps of dt = 0.06, topology 1×1 (1 ranks)
problem: gaussian — 2-D Gaussian radiation pulse

solves: 6 | BiCGSTAB iterations: 971 (161.8/solve) | reductions: 1948
radiation energy: 6.323185e-2 → 6.110350e-2
validation: gaussian: FAIL l1=3.7e-1 l2=4.6e-1 linf=9.5e-1 (tol 5.0e-2) — field vs analytic

simulated A64FX times (max over ranks):
compiler              total s        MPI s
GNU                      9.32         0.00
Cray (opt)               4.65         0.01

rank-0 routine profile (Cray-opt lane):
routine                     calls      excl secs
";

    #[test]
    fn the_v2d_report_parses() {
        let r = parse_v2d_stdout(REPORT).expect("parses");
        assert_eq!((r.iters, r.e0, r.e1), (971, 6.323185e-2, 6.110350e-2));
        assert_eq!(r.sim_s, vec![("GNU".to_string(), 9.32), ("Cray (opt)".to_string(), 4.65)]);
        assert_eq!(parse_v2d_stdout("V2D: banner only\n"), None);
    }

    #[test]
    fn a_cold_round_is_eleven_distinct_novel_requests() {
        let lines = cold_lines(&Sizes::check(), 5);
        assert_eq!(lines.len(), COLD_PER_ROUND);
        let ids: BTreeSet<&str> = lines.iter().map(|(id, _)| id.as_str()).collect();
        let decks: BTreeSet<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!((ids.len(), decks.len()), (COLD_PER_ROUND, COLD_PER_ROUND));
        // Same seed, same requests; another seed, other novelty digits.
        assert_eq!(lines, cold_lines(&Sizes::check(), 5));
        assert_ne!(lines, cold_lines(&Sizes::check(), 6));
    }

    #[test]
    fn the_seed_rotates_the_sweep_and_keeps_its_cells() {
        let (a, b) = (sve_order(0), sve_order(7));
        assert_eq!(a.len(), 50);
        assert_eq!(a[7], b[0]);
        let key =
            |cells: &[(Routine, Variant, u32)]| cells.iter().map(cell_key).collect::<BTreeSet<_>>();
        assert_eq!(key(&a), key(&b));
    }
}
