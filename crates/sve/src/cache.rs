//! Program cache: assembled + pre-decoded kernel programs, reused across
//! invocations — now **two tiers**.
//!
//! The kernel builders in [`crate::kernels`] are shape-agnostic — problem
//! sizes arrive in registers, not in the instruction stream — so a cached
//! program is keyed by (routine/variant name, vector length, residency
//! level, decode-format version): entries decoded under an older
//! [`crate::decode::DECODE_FORMAT_VERSION`] never satisfy a lookup.
//! The pipeline model has floating-point fields and therefore no
//! total `Hash`/`Eq`; instead a hit additionally *verifies*
//! `SchedModel` equality via `PartialEq` and rebuilds in place on
//! mismatch, so an exotic sweep over scheduler parameters is correct
//! (it just doesn't cache across them).
//!
//! Tier 1 is thread-local (zero synchronization on the hot path) with a
//! small LRU bound.  Tier 2 is **process-shared**: a mutex-guarded table
//! of `Arc<DecodedProgram>` consulted only on a tier-1 miss, so a worker
//! pool (the `v2d-serve` daemon, `par_map` sweeps) decodes each program
//! once for the whole process instead of once per thread.  Sharing is
//! sound because decoding is a pure function of (instructions, config)
//! and a decoded program is immutable — replaying it from any thread
//! produces bit-identical stats and memory effects.  Global counters let
//! tests assert the warm path does zero assembly and zero decode work,
//! and let the serve telemetry report hits by tier.

use crate::decode::DecodedProgram;
use crate::exec::ExecConfig;
use crate::isa::Instr;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use v2d_machine::MemLevel;

/// Maximum cached programs per thread: 10 kernel programs × a handful of
/// (VL, level) points fit comfortably; an unbounded sweep evicts LRU.
const CAPACITY: usize = 64;

/// Shared-tier bound: the process-wide table backs every thread's local
/// tier, so it holds the union of their working sets.
const SHARED_CAPACITY: usize = 256;

static HITS: AtomicU64 = AtomicU64::new(0);
static SHARED_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static ASSEMBLES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of thread-local (tier-1) cache hits.
pub fn cache_hit_count() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Process-wide count of shared-tier (tier-2) hits: lookups that missed
/// the calling thread's local cache but found the program already
/// decoded by another thread.
pub fn cache_shared_hit_count() -> u64 {
    SHARED_HITS.load(Ordering::Relaxed)
}

/// Process-wide cache-miss count (both tiers missed, or a
/// sched-mismatch rebuild).
pub fn cache_miss_count() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

/// Process-wide count of kernel program assemblies.  Builders call
/// [`note_assembled`]; warm cache hits never reach them.
pub fn assemble_count() -> u64 {
    ASSEMBLES.load(Ordering::Relaxed)
}

/// Record one program assembly.  Called by the kernel builders, which
/// only a cache miss reaches.
pub fn note_assembled() {
    ASSEMBLES.fetch_add(1, Ordering::Relaxed);
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    name: &'static str,
    vl_bits: u32,
    level: MemLevel,
    /// [`crate::decode::DECODE_FORMAT_VERSION`] at decode time, so
    /// entries from a stale decode layout can never satisfy a lookup.
    format: u32,
}

impl Key {
    fn of(name: &'static str, cfg: &ExecConfig) -> Key {
        Key {
            name,
            vl_bits: cfg.vl_bits,
            level: cfg.level,
            format: crate::decode::DECODE_FORMAT_VERSION,
        }
    }
}

struct Entry {
    key: Key,
    program: Arc<DecodedProgram>,
    /// Monotone use stamp for LRU eviction.
    stamp: u64,
}

struct ProgramCache {
    entries: Vec<Entry>,
    clock: u64,
}

impl ProgramCache {
    /// Insert, evicting the LRU entry at capacity.  The caller has
    /// already established the key is absent.
    fn insert(&mut self, key: Key, program: Arc<DecodedProgram>, stamp: u64, cap: usize) {
        if self.entries.len() >= cap {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("cache is non-empty at capacity");
            self.entries.swap_remove(oldest);
        }
        self.entries.push(Entry { key, program, stamp });
    }
}

thread_local! {
    static CACHE: RefCell<ProgramCache> =
        const { RefCell::new(ProgramCache { entries: Vec::new(), clock: 0 }) };
}

/// The process-shared tier.  A plain mutex is enough: it is touched only
/// on tier-1 misses, which a warm workload makes vanishingly rare.
fn shared() -> &'static Mutex<ProgramCache> {
    static SHARED: OnceLock<Mutex<ProgramCache>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(ProgramCache { entries: Vec::new(), clock: 0 }))
}

/// Tier-2 lookup: a sched-verified shared hit, or `None`.  A key hit
/// whose pipeline model mismatches is *left in place* (another thread's
/// sweep may still want it) — the caller rebuilds and overwrites.
fn shared_lookup(key: &Key, cfg: &ExecConfig) -> Option<Arc<DecodedProgram>> {
    let mut tier = shared().lock().expect("shared program cache poisoned");
    tier.clock += 1;
    let stamp = tier.clock;
    let e = tier.entries.iter_mut().find(|e| e.key == *key)?;
    if e.program.sched() == &cfg.sched {
        e.stamp = stamp;
        Some(Arc::clone(&e.program))
    } else {
        None
    }
}

/// Publish a freshly decoded program to the shared tier (insert or
/// overwrite-on-sched-mismatch).
fn shared_publish(key: Key, program: &Arc<DecodedProgram>) {
    let mut tier = shared().lock().expect("shared program cache poisoned");
    tier.clock += 1;
    let stamp = tier.clock;
    if let Some(e) = tier.entries.iter_mut().find(|e| e.key == key) {
        e.program = Arc::clone(program);
        e.stamp = stamp;
        return;
    }
    tier.insert(key, Arc::clone(program), stamp, SHARED_CAPACITY);
}

/// Fetch the decoded program for `name` under `cfg`, building (and
/// decoding) it with `build` only when both tiers miss.
///
/// `name` must uniquely identify the instruction sequence `build` would
/// produce (e.g. `"matvec/sve"`); the vector length and residency level
/// come from `cfg`.  A key hit whose cached pipeline model differs from
/// `cfg.sched` is treated as a miss and replaced.
pub fn cached_program(
    name: &'static str,
    cfg: &ExecConfig,
    build: impl FnOnce() -> Vec<Instr>,
) -> Arc<DecodedProgram> {
    let key = Key::of(name, cfg);
    CACHE.with(|cell| {
        let cache = &mut *cell.borrow_mut();
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(e) = cache.entries.iter_mut().find(|e| e.key == key) {
            if e.program.sched() == &cfg.sched {
                HITS.fetch_add(1, Ordering::Relaxed);
                e.stamp = stamp;
                return Arc::clone(&e.program);
            }
            // Key hit, wrong pipeline model: consult the shared tier
            // before rebuilding (another thread may have decoded for
            // this exact sched already), then overwrite in place.
            let program = match shared_lookup(&key, cfg) {
                Some(p) => {
                    SHARED_HITS.fetch_add(1, Ordering::Relaxed);
                    p
                }
                None => {
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    let p = Arc::new(DecodedProgram::decode(&build(), cfg));
                    shared_publish(key, &p);
                    p
                }
            };
            e.program = Arc::clone(&program);
            e.stamp = stamp;
            return program;
        }
        let program = match shared_lookup(&key, cfg) {
            Some(p) => {
                SHARED_HITS.fetch_add(1, Ordering::Relaxed);
                p
            }
            None => {
                MISSES.fetch_add(1, Ordering::Relaxed);
                let p = Arc::new(DecodedProgram::decode(&build(), cfg));
                shared_publish(key, &p);
                p
            }
        };
        cache.insert(key, Arc::clone(&program), stamp, CAPACITY);
        program
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, X};

    fn tiny() -> Vec<Instr> {
        vec![Instr::MovXI { d: X(0), imm: 7 }]
    }

    #[test]
    fn hit_reuses_and_respects_config_and_capacity() {
        let l1 = ExecConfig::a64fx_l1();
        let a = cached_program("test/tiny", &l1, tiny);
        let b = cached_program("test/tiny", &l1, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        // Different VL is a different program.
        let wide = cached_program("test/tiny", &l1.clone().with_vl(2048), tiny);
        assert!(!Arc::ptr_eq(&a, &wide));
        // A sched mismatch on a key hit rebuilds rather than serving
        // a program decoded against the wrong pipeline model.
        let mut odd = l1.clone();
        odd.sched.fetch_width = 8;
        let rebuilt = cached_program("test/tiny", &odd, tiny);
        assert!(!Arc::ptr_eq(&a, &rebuilt));
        assert_eq!(rebuilt.sched().fetch_width, 8);
        // Eviction keeps the cache bounded and the survivors usable.
        for vl in (0..CAPACITY as u32 + 8).map(|i| 128 * (i + 1)) {
            let _ = cached_program("test/churn", &l1.clone().with_vl(vl), tiny);
        }
        let again = cached_program("test/tiny", &l1, tiny);
        assert!(again.matches(&l1));
    }

    #[test]
    fn second_thread_hits_the_shared_tier_without_decoding() {
        let l1 = ExecConfig::a64fx_l1().with_vl(1024);
        let first = cached_program("test/shared", &l1, tiny);
        let cfg = l1.clone();
        // A fresh thread has an empty tier 1; the lookup must come back
        // as the *same allocation* decoded above, via tier 2.
        let (ptr_eq, shared_before, shared_after) = std::thread::spawn(move || {
            let before = cache_shared_hit_count();
            let p = cached_program("test/shared", &cfg, || {
                unreachable!("shared tier must satisfy this")
            });
            (Arc::ptr_eq(&p, &first), before, cache_shared_hit_count())
        })
        .join()
        .expect("worker");
        assert!(ptr_eq, "shared tier must hand out the original Arc");
        assert!(shared_after > shared_before, "shared-hit counter must advance");
    }

    #[test]
    fn decoded_programs_are_shareable_across_threads() {
        // The whole point of the shared tier: a decoded program (closures
        // and all) is Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodedProgram>();
    }
}
