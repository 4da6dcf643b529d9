//! The service layer: admission, dedupe, cancellation, supervised
//! execution, and the live telemetry snapshot.
//!
//! # Admission pipeline
//!
//! A submit is parsed ([`v2d_core::config_file::ParFile`]), reduced to
//! its **content hash** — FNV-64 over the canonical deck rendering
//! and the canonical fault lines — and then routed:
//!
//! 1. **result cache** ([`crate::cache::ResultCache`]): a hit answers
//!    immediately with the memoized `Arc<RunResult>`;
//! 2. **in-flight dedupe**: a job with the same hash already queued or
//!    running gains a subscriber instead of a second computation — all
//!    subscribers receive clones of one `Arc`, so their result bytes
//!    are identical;
//! 3. otherwise a fresh job is **scheduled** on the worker pool at the
//!    request's priority.
//!
//! Every job runs under the PR-8 supervisor
//! ([`v2d_core::supervise::run_supervised`]), so rank loss yields a
//! typed recovery ledger in the response, and results stay
//! bit-reproducible — the property that makes steps 1 and 2 sound.
//!
//! # Cancellation
//!
//! `cancel` detaches one subscriber: it is answered with a `cancelled`
//! result at cancel time and will not receive the job's outcome.  Only
//! when *every* subscriber of a job has cancelled is the job's shared
//! token raised; a job that observes its token before starting skips
//! the computation, and a raised token also vetoes the result-cache
//! insert — cancellation can never publish (or poison) cache state.
//!
//! # Determinism (script mode)
//!
//! [`Service::run_script`] admits requests with the pool's gate closed
//! and only opens it at phase barriers.  Dedupe, cancellation, and
//! cache hits then resolve against a *deterministic* in-flight set, so
//! every `serve.*` counter is a pure function of the script — which is
//! how the regression gate can pin them `Exact`.  A live daemon
//! (gate always open) keeps the same counters as racy-but-monotonic
//! telemetry.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use v2d_core::config_file::ParFile;
use v2d_core::problems::Family;
use v2d_core::sim::V2dConfig;
use v2d_core::supervise::{run_supervised, RetryPolicy, SuperviseError, SuperviseSpec};
use v2d_machine::FaultPlan;
use v2d_obs::Metrics;

use crate::cache::ResultCache;
use crate::proto::{LedgerWire, Request, Response, RunResult, Source, Submit};
use crate::queue::WorkPool;
use crate::{fnv32_bits, fnv64};

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Result-cache capacity (entries).
    pub result_cache_cap: usize,
    /// Start with the admission gate closed (script mode).
    pub gated: bool,
    /// Base directory for per-job checkpoint stores.
    pub scratch: PathBuf,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts { workers: 2, result_cache_cap: 64, gated: false, scratch: std::env::temp_dir() }
    }
}

/// Ceiling on `nprx1 × nprx2`: the daemon multiplexes many requests and
/// must refuse a deck that would fork an unbounded rank count.
pub const MAX_RANKS: usize = 64;

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    deduped: AtomicU64,
    scheduled: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    status_served: AtomicU64,
}

struct Waiter {
    id: String,
    source: Source,
    tx: mpsc::Sender<Response>,
    cancelled: bool,
}

struct Inflight {
    token: Arc<AtomicBool>,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct Registry {
    by_key: HashMap<u64, Inflight>,
    /// Live submit-id → content hash, for cancel targeting.  Entries
    /// leave when their request is answered (complete or cancelled).
    key_of: HashMap<String, u64>,
}

struct Core {
    cache: ResultCache,
    registry: Mutex<Registry>,
    counters: Counters,
    scratch: PathBuf,
}

/// Everything `parse_submit` extracts from a deck.
struct Admitted {
    key: u64,
    cfg: V2dConfig,
    scenario: Family,
    np: (usize, usize),
    checkpoint: (usize, usize),
    plan: FaultPlan,
}

/// How a request was answered: immediately, or by a job in flight.
pub enum Handled {
    Now(Response),
    Later(mpsc::Receiver<Response>),
}

impl Handled {
    /// Block until the response exists.  Every admitted submit is
    /// guaranteed exactly one response (its job's, or the one sent at
    /// cancel time), so this never hangs once the pool drains.
    pub fn wait(self) -> Response {
        match self {
            Handled::Now(r) => r,
            Handled::Later(rx) => rx.recv().expect("every admitted request is answered"),
        }
    }
}

/// The resident experiment service.
pub struct Service {
    core: Arc<Core>,
    pool: WorkPool,
}

impl Service {
    pub fn new(opts: ServeOpts) -> Self {
        let core = Arc::new(Core {
            cache: ResultCache::new(opts.result_cache_cap),
            registry: Mutex::new(Registry::default()),
            counters: Counters::default(),
            scratch: opts.scratch,
        });
        let pool = WorkPool::new(opts.workers, !opts.gated);
        Service { core, pool }
    }

    /// Route one request.  `Shutdown` is acknowledged here; actually
    /// draining and exiting is the daemon loop's decision.
    pub fn handle(&self, req: Request) -> Handled {
        match req {
            Request::Submit(s) => self.submit(s),
            Request::Cancel { id, target } => Handled::Now(self.cancel(&id, &target)),
            Request::Status { id } => Handled::Now(self.status_response(&id)),
            Request::Shutdown { id } => Handled::Now(Response::Bye { id }),
            Request::Barrier => Handled::Now(Response::Error {
                id: String::new(),
                what: "barrier is script-mode only".into(),
            }),
        }
    }

    fn submit(&self, s: Submit) -> Handled {
        let c = &self.core.counters;
        // A live id may not be reused: cancel targets ids.
        if self.core.registry.lock().unwrap().key_of.contains_key(&s.id) {
            c.rejected.fetch_add(1, Ordering::Relaxed);
            return Handled::Now(Response::Error {
                id: s.id.clone(),
                what: format!("id `{}` is already in flight", s.id),
            });
        }
        match parse_submit(&s) {
            Ok(adm) => self.admit(s.id, s.priority, adm),
            Err(what) => {
                c.rejected.fetch_add(1, Ordering::Relaxed);
                Handled::Now(Response::Error { id: s.id, what })
            }
        }
    }

    /// Route a parsed submit: result cache, in-flight dedupe or a new job.
    fn admit(&self, id: String, priority: i64, adm: Admitted) -> Handled {
        let c = &self.core.counters;
        c.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.core.cache.get(adm.key) {
            return Handled::Now(Response::Result { id, source: Source::ResultCache, result: hit });
        }
        let (tx, rx) = mpsc::channel();
        let mut reg = self.core.registry.lock().unwrap();
        if let Some(inf) = reg.by_key.get_mut(&adm.key) {
            inf.waiters.push(Waiter {
                id: id.clone(),
                source: Source::Dedup,
                tx,
                cancelled: false,
            });
            reg.key_of.insert(id, adm.key);
            c.deduped.fetch_add(1, Ordering::Relaxed);
            return Handled::Later(rx);
        }
        let token = Arc::new(AtomicBool::new(false));
        reg.by_key.insert(
            adm.key,
            Inflight {
                token: Arc::clone(&token),
                waiters: vec![Waiter {
                    id: id.clone(),
                    source: Source::Computed,
                    tx,
                    cancelled: false,
                }],
            },
        );
        reg.key_of.insert(id, adm.key);
        drop(reg);
        c.scheduled.fetch_add(1, Ordering::Relaxed);
        let core = Arc::clone(&self.core);
        let Admitted { key, cfg, scenario, np, checkpoint, plan } = adm;
        self.pool.submit(
            priority,
            Box::new(move || core.execute(key, cfg, scenario, np, checkpoint, plan, token)),
        );
        Handled::Later(rx)
    }

    fn cancel(&self, id: &str, target: &str) -> Response {
        let mut reg = self.core.registry.lock().unwrap();
        let Some(&key) = reg.key_of.get(target) else {
            return Response::CancelAck {
                id: id.to_string(),
                target: target.to_string(),
                outcome: "unknown",
            };
        };
        let inf = reg.by_key.get_mut(&key).expect("key_of implies in-flight");
        let Some(w) = inf.waiters.iter_mut().find(|w| w.id == target && !w.cancelled) else {
            return Response::CancelAck {
                id: id.to_string(),
                target: target.to_string(),
                outcome: "unknown",
            };
        };
        w.cancelled = true;
        // The detached subscriber is answered now; the job (if it still
        // runs for other subscribers) will skip it.
        let _ = w.tx.send(Response::Result {
            id: target.to_string(),
            source: Source::Cancelled,
            result: Arc::new(RunResult::cancelled()),
        });
        if inf.waiters.iter().all(|w| w.cancelled) {
            // Nobody is listening: the job may skip computing, and must
            // not publish to the result cache.
            inf.token.store(true, Ordering::Release);
        }
        reg.key_of.remove(target);
        self.core.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        Response::CancelAck { id: id.to_string(), target: target.to_string(), outcome: "cancelled" }
    }

    /// The live telemetry registry: the `serve.*` admission counters
    /// (requests admitted, rejected at parse, deduped onto an in-flight
    /// job, scheduled as fresh jobs, completed, failed, subscriber
    /// cancellations, status requests served), the result-cache
    /// counters, the pool's executed count, and the queue-depth gauge.
    pub fn metrics(&self) -> Metrics {
        let c = &self.core.counters;
        let cache = &self.core.cache;
        let mut m = Metrics::new();
        for (name, value) in [
            ("serve.admitted", c.admitted.load(Ordering::Relaxed)),
            ("serve.rejected", c.rejected.load(Ordering::Relaxed)),
            ("serve.deduped", c.deduped.load(Ordering::Relaxed)),
            ("serve.scheduled", c.scheduled.load(Ordering::Relaxed)),
            ("serve.completed", c.completed.load(Ordering::Relaxed)),
            ("serve.failed", c.failed.load(Ordering::Relaxed)),
            ("serve.cancelled", c.cancelled.load(Ordering::Relaxed)),
            ("serve.status_served", c.status_served.load(Ordering::Relaxed)),
            ("serve.cache.result_hits", cache.hit_count()),
            ("serve.cache.result_misses", cache.miss_count()),
            ("serve.cache.result_insertions", cache.insertion_count()),
            ("serve.cache.result_evictions", cache.eviction_count()),
            ("serve.pool.executed", self.pool.executed()),
        ] {
            m.counter_add(name, value);
        }
        m.gauge_set("serve.queue.depth", self.pool.depth() as f64);
        m
    }

    /// Answer a status request with the registry as JSON.
    pub fn status_response(&self, id: &str) -> Response {
        self.core.counters.status_served.fetch_add(1, Ordering::Relaxed);
        Response::Status { id: id.to_string(), metrics: self.metrics().to_json() }
    }

    /// Open or close the admission gate (script mode).
    pub fn set_gate(&self, open: bool) {
        self.pool.set_gate(open);
    }

    /// Wait for every scheduled job to finish.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Finish queued work and join the workers.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }

    /// Execute a request script deterministically: requests are admitted
    /// with the gate closed, so dedupe/cancel/cache decisions depend
    /// only on the script; each [`Request::Barrier`] opens the gate,
    /// drains, and closes it again (results computed before a barrier
    /// are result-cache material after it).  Returns one response per
    /// non-barrier request, in script order, plus the service (for
    /// metric assertions).
    pub fn run_script(script: &[Request], opts: ServeOpts) -> (Vec<Response>, Service) {
        let svc = Service::new(ServeOpts { gated: true, ..opts });
        let mut slots = Vec::new();
        for req in script {
            if matches!(req, Request::Barrier) {
                svc.set_gate(true);
                svc.drain();
                svc.set_gate(false);
            } else {
                slots.push(svc.handle(req.clone()));
            }
        }
        svc.set_gate(true);
        svc.drain();
        let responses = slots.into_iter().map(Handled::wait).collect();
        (responses, svc)
    }
}

/// Parse + validate a submit into its executable parts and content
/// hash.  Pure: same submit ⇒ same hash, on any machine.
fn parse_submit(s: &Submit) -> Result<Admitted, String> {
    let pf = ParFile::parse(&s.deck).map_err(|e| format!("deck: {e}"))?;
    let (cfg, np) = pf.to_config().map_err(|e| format!("deck: {e}"))?;
    let checkpoint = pf.checkpoint_policy().map_err(|e| format!("deck: {e}"))?;
    // `[problem] family` picks the scenario from the registry; absent
    // keeps the legacy standard pulse.  The canonical deck rendering
    // includes the `problem.*` keys, so the content hash separates
    // scenarios automatically.
    let scenario = pf.problem().map_err(|e| format!("deck: {e}"))?.unwrap_or(Family::Gaussian);
    if np.0 * np.1 > MAX_RANKS {
        return Err(format!(
            "deck: {}x{} ranks exceeds the service cap of {MAX_RANKS}",
            np.0, np.1
        ));
    }
    let mut plan = FaultPlan::empty();
    for f in &s.faults {
        if f.rank.is_some_and(|r| r >= np.0 * np.1) {
            return Err(format!("fault targets rank {} of {}", f.rank.unwrap(), np.0 * np.1));
        }
        plan = plan.with_event(f.step, f.rank, f.kind);
    }
    // Content hash: canonical deck + canonical fault lines.
    // The raw deck text is NOT hashed — comment or whitespace changes
    // must still dedupe.
    let mut text = pf.canonical();
    for f in &s.faults {
        text.push_str(&f.canonical());
    }
    Ok(Admitted { key: fnv64(text.as_bytes()), cfg, scenario, np, checkpoint, plan })
}

impl Core {
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        key: u64,
        cfg: V2dConfig,
        scenario: Family,
        np: (usize, usize),
        checkpoint: (usize, usize),
        plan: FaultPlan,
        token: Arc<AtomicBool>,
    ) {
        if token.load(Ordering::Acquire) {
            // Every subscriber cancelled before dispatch: drop the
            // registry entry; nothing runs, nothing is cached.
            let mut reg = self.registry.lock().unwrap();
            if let Some(inf) = reg.by_key.remove(&key) {
                for w in &inf.waiters {
                    reg.key_of.remove(&w.id);
                }
            }
            return;
        }
        // Process-wide, not per service: two services in one process
        // share the scratch base and must not share a job directory.
        static JOB_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = self.scratch.join(format!(
            "v2d_serve_{}_{}",
            std::process::id(),
            JOB_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let spec = SuperviseSpec {
            cfg,
            scenario,
            np1: np.0,
            np2: np.1,
            plan,
            checkpoint_every: checkpoint.0,
            checkpoint_keep: checkpoint.1,
            dir: dir.clone(),
        };
        // A run that panics is answered like any other failure; the
        // pool's own `catch_unwind` would leave its waiters unanswered.
        let run =
            panic::catch_unwind(AssertUnwindSafe(|| run_supervised(&spec, RetryPolicy::default())));
        let _ = std::fs::remove_dir_all(&dir);
        let result = Arc::new(match run {
            Err(payload) => {
                let msg = match payload.downcast_ref::<String>() {
                    Some(s) => s.as_str(),
                    None => payload.downcast_ref::<&str>().copied().unwrap_or("non-string payload"),
                };
                let what = format!("panicked: {msg}");
                RunResult::failed(what, LedgerWire::from_ledger(&Default::default()))
            }
            Ok(Ok(rep)) => RunResult::done(
                fnv32_bits(&rep.final_bits),
                rep.final_bits.len(),
                rep.final_np,
                rep.mttr_virtual_secs,
                LedgerWire::from_ledger(&rep.ledger),
            ),
            Ok(Err(e)) => {
                let (ledger, what) = match e {
                    SuperviseError::RetriesExhausted { ledger, last_error } => {
                        (ledger, format!("retries exhausted: {last_error}"))
                    }
                    SuperviseError::Unrecoverable { ledger, reason } => {
                        (ledger, format!("unrecoverable: {reason}"))
                    }
                };
                RunResult::failed(what, LedgerWire::from_ledger(&ledger))
            }
        });
        if result.outcome() == "failed" {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        // A mid-run total cancellation (token raised after we started)
        // vetoes the cache insert: cancellation never publishes state.
        if !token.load(Ordering::Acquire) {
            self.cache.insert(key, Arc::clone(&result));
        }
        let waiters = {
            let mut reg = self.registry.lock().unwrap();
            match reg.by_key.remove(&key) {
                Some(inf) => {
                    for w in &inf.waiters {
                        reg.key_of.remove(&w.id);
                    }
                    inf.waiters
                }
                None => Vec::new(),
            }
        };
        for w in waiters {
            if w.cancelled {
                continue; // answered at cancel time
            }
            let _ = w.tx.send(Response::Result {
                id: w.id,
                source: w.source,
                result: Arc::clone(&result),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_obs::Json;

    /// A small linear deck (fast: few steps, small grid).
    fn deck(n1: usize, n2: usize, steps: usize, np1: usize, np2: usize, every: usize) -> String {
        format!(
            "[grid]\nn1 = {n1}\nn2 = {n2}\nx1 = 0.0 2.0\nx2 = 0.0 1.0\n\
             [run]\ndt = 0.01\nn_steps = {steps}\nnprx1 = {np1}\nnprx2 = {np2}\n\
             checkpoint_every = {every}\n\
             [radiation]\nlimiter = none\nkappa_a = 0.0 0.0\nkappa_s = 2.0 2.0\n"
        )
    }

    fn submit(id: &str, deck: String) -> Request {
        Request::Submit(Submit { id: id.into(), deck, priority: 0, faults: Vec::new() })
    }

    fn result_member(r: &Response) -> String {
        let j = Json::parse(&r.to_line()).unwrap();
        j.get("result").expect("a result response").to_compact()
    }

    #[test]
    fn a_run_that_panics_answers_every_waiter_failed() {
        // `to_config` refuses `hydro.cfl` above `MAX_CFL`; a config built
        // past it makes `HydroStepper::new` panic inside the run.
        let sod = Family::Sod.scenario();
        let (n1, n2, steps) = sod.smoke();
        let deck = sod.deck(n1, n2, steps, 1, 1);
        let s = Submit { id: "a".into(), deck, priority: 0, faults: Vec::new() };
        let admitted = || {
            let mut adm = parse_submit(&s).expect("the sod deck parses");
            adm.cfg.hydro.as_mut().expect("sod runs hydro").cfl = 0.95;
            adm
        };
        let svc = Service::new(ServeOpts { gated: true, ..ServeOpts::default() });
        let first = svc.admit("a".into(), 0, admitted());
        let second = svc.admit("b".into(), 0, admitted());
        svc.set_gate(true);
        svc.drain();
        for (handled, id, source) in [(first, "a", "computed"), (second, "b", "dedup")] {
            let Handled::Later(rx) = handled else { panic!("`{id}` was answered at admission") };
            let line = rx.try_recv().expect("answered once the pool drains").to_line();
            let j = Json::parse(&line).unwrap();
            assert_eq!(j.get("id").and_then(Json::as_str), Some(id), "{line}");
            assert_eq!(j.get("source").and_then(Json::as_str), Some(source), "{line}");
            assert!(line.contains(r#""outcome":"failed""#), "{line}");
            assert!(line.contains("panicked: CFL 0.95 out of range"), "{line}");
        }
        let m = svc.metrics();
        assert_eq!(m.counter("serve.admitted"), 2);
        assert_eq!(m.counter("serve.scheduled"), 1);
        assert_eq!(m.counter("serve.deduped"), 1);
        assert_eq!(m.counter("serve.failed"), 1);
        assert_eq!(m.counter("serve.completed"), 0);
        let reg = svc.core.registry.lock().unwrap();
        assert!(reg.by_key.is_empty() && reg.key_of.is_empty(), "in-flight entry left behind");
        drop(reg);
        svc.shutdown();
    }

    #[test]
    fn duplicate_submissions_dedupe_to_identical_bytes() {
        let script = vec![
            submit("a", deck(16, 8, 3, 1, 1, 0)),
            submit("b", deck(16, 8, 3, 1, 1, 0)),
            // Same experiment, different comments/whitespace: the
            // canonical hash must still dedupe it.
            submit("c", format!("# a comment\n{}", deck(16, 8, 3, 1, 1, 0))),
        ];
        let (resp, svc) = Service::run_script(&script, ServeOpts::default());
        assert_eq!(resp.len(), 3);
        assert_eq!(result_member(&resp[0]), result_member(&resp[1]));
        assert_eq!(result_member(&resp[0]), result_member(&resp[2]));
        let m = svc.metrics();
        assert_eq!(m.counter("serve.admitted"), 3);
        assert_eq!(m.counter("serve.scheduled"), 1);
        assert_eq!(m.counter("serve.deduped"), 2);
        assert_eq!(m.counter("serve.completed"), 1);
        svc.shutdown();
    }

    #[test]
    fn result_cache_hits_after_a_barrier() {
        let script = vec![
            submit("a", deck(16, 8, 3, 1, 1, 0)),
            Request::Barrier,
            submit("b", deck(16, 8, 3, 1, 1, 0)),
        ];
        let (resp, svc) = Service::run_script(&script, ServeOpts::default());
        assert_eq!(result_member(&resp[0]), result_member(&resp[1]));
        match &resp[1] {
            Response::Result { source, .. } => assert_eq!(*source, Source::ResultCache),
            other => panic!("expected a result, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.counter("serve.cache.result_hits"), 1);
        assert_eq!(m.counter("serve.scheduled"), 1);
        svc.shutdown();
    }

    #[test]
    fn cancellation_skips_compute_and_never_populates_the_cache() {
        let script = vec![
            submit("doomed", deck(20, 10, 4, 1, 1, 0)),
            Request::Cancel { id: "c1".into(), target: "doomed".into() },
        ];
        let (resp, svc) = Service::run_script(&script, ServeOpts::default());
        match &resp[0] {
            Response::Result { source, result, .. } => {
                assert_eq!(*source, Source::Cancelled);
                assert_eq!(result.outcome(), "cancelled");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(&resp[1], Response::CancelAck { outcome: "cancelled", .. }));
        let m = svc.metrics();
        assert_eq!(m.counter("serve.cancelled"), 1);
        assert_eq!(m.counter("serve.completed"), 0, "cancel-before-start must skip compute");
        assert_eq!(m.counter("serve.cache.result_insertions"), 0, "cancel must not publish");
        svc.shutdown();
    }

    #[test]
    fn rank_kill_returns_a_recovery_ledger() {
        let req = Request::Submit(Submit {
            id: "k".into(),
            deck: deck(16, 8, 4, 2, 1, 1),
            priority: 0,
            faults: vec![crate::proto::FaultSpec {
                step: 2,
                rank: Some(0),
                kind: v2d_machine::FaultKind::RankKill,
            }],
        });
        let (resp, svc) = Service::run_script(std::slice::from_ref(&req), ServeOpts::default());
        match &resp[0] {
            Response::Result { result, .. } => {
                assert_eq!(result.outcome(), "done");
                let ledger = result.ledger().expect("ledger present");
                assert_eq!(ledger.kills, 1);
                assert!(ledger.rollbacks >= 1);
                assert_eq!(result.final_np(), Some((1, 1)), "shrunk onto the survivor");
            }
            other => panic!("{other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn bad_decks_and_live_id_reuse_are_rejected() {
        let script = vec![
            submit("broken", "[grid]\nn1 = 16\n".into()),
            submit("x", deck(16, 8, 3, 1, 1, 0)),
            submit("x", deck(24, 8, 3, 1, 1, 0)),
            submit("wide", deck(16, 16, 3, 9, 9, 0)),
            submit("fine", deck(16, 8, 3, 1, 9, 0)),
        ];
        let (resp, svc) = Service::run_script(&script, ServeOpts::default());
        assert!(matches!(&resp[0], Response::Error { .. }));
        assert!(matches!(&resp[1], Response::Result { .. }));
        assert!(matches!(&resp[2], Response::Error { .. }), "live id reuse must be rejected");
        assert!(
            matches!(&resp[3], Response::Error { what, .. } if what.contains("service cap")),
            "81 ranks exceeds the cap: {:?}",
            resp[3]
        );
        assert!(
            matches!(&resp[4], Response::Error { what, .. } if what.contains("run.nprx2")),
            "9 ranks cannot tile 8 zones: {:?}",
            resp[4]
        );
        assert_eq!(svc.metrics().counter("serve.rejected"), 4);
        svc.shutdown();
    }

    #[test]
    fn status_snapshots_the_registry() {
        let script = vec![submit("a", deck(16, 8, 3, 1, 1, 0)), Request::Status { id: "s".into() }];
        let (resp, svc) = Service::run_script(&script, ServeOpts::default());
        match &resp[1] {
            Response::Status { metrics, .. } => {
                let depth = metrics
                    .get("serve.queue.depth")
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .expect("queue depth gauge");
                assert_eq!(depth, 1.0, "gate closed: the one scheduled job is still queued");
                assert!(metrics.get("serve.admitted").is_some());
            }
            other => panic!("{other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn replaying_a_script_is_bit_identical() {
        let script = vec![
            submit("a", deck(16, 8, 3, 1, 1, 0)),
            submit("b", deck(20, 10, 3, 1, 1, 0)),
            submit("a2", deck(16, 8, 3, 1, 1, 0)),
            Request::Barrier,
            submit("c", deck(16, 8, 3, 1, 1, 0)),
        ];
        let run = || {
            let (resp, svc) = Service::run_script(&script, ServeOpts::default());
            svc.shutdown();
            resp.iter().map(Response::to_line).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
