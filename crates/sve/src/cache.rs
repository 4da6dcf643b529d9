//! Program cache: assembled + pre-decoded kernel programs, reused across
//! invocations.
//!
//! The kernel builders in [`crate::kernels`] are shape-agnostic — problem
//! sizes arrive in registers, not in the instruction stream — so a cached
//! program is keyed by (routine/variant name, vector length, residency
//! level).  Every program is decoded against the one pipeline model,
//! [`crate::sched::SchedModel::A64FX`], and the cache lives in one
//! process, so it only ever holds programs this build decoded: a key hit
//! is a hit.
//!
//! The cache is thread-local (zero synchronization on the hot path) with
//! a small LRU bound; a thread that runs kernels — a `par_map` worker in
//! `v2d-bench`, say — decodes its own copies (about 3 µs a program).
//! Global counters let tests assert the warm path does zero assembly and
//! zero decode work.

use crate::decode::DecodedProgram;
use crate::exec::ExecConfig;
use crate::isa::Instr;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use v2d_machine::MemLevel;

/// Maximum cached programs per thread: 10 kernel programs × a handful of
/// (VL, level) points fit comfortably; an unbounded sweep evicts LRU.
const CAPACITY: usize = 64;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static ASSEMBLES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of cache hits.
pub fn cache_hit_count() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Always 0: there is no shared cache tier.  Kept only because
/// `bench/e2e` compiles against it; it goes with that harness's next
/// manifest change (ROADMAP item 6).
pub fn cache_shared_hit_count() -> u64 {
    0
}

/// Process-wide cache-miss count (a cold key).
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

thread_local! {
    static CACHE: RefCell<ProgramCache> =
        const { RefCell::new(ProgramCache { entries: Vec::new(), clock: 0 }) };
}

/// Fetch the decoded program for `name` under `cfg`, building (and
/// decoding) it with `build` only on a miss.
///
/// `name` must uniquely identify the instruction sequence `build` would
/// produce (e.g. `"matvec/sve"`); the vector length and residency level
/// come from `cfg`.
pub fn cached_program(
    name: &'static str,
    cfg: &ExecConfig,
    build: impl FnOnce() -> Vec<Instr>,
) -> Arc<DecodedProgram> {
    let key = Key { name, vl_bits: cfg.vl_bits, level: cfg.level };
    CACHE.with(|cell| {
        let cache = &mut *cell.borrow_mut();
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(e) = cache.entries.iter_mut().find(|e| e.key == key) {
            e.stamp = stamp;
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&e.program);
        }
        if cache.entries.len() >= CAPACITY {
            if let Some(oldest) = (0..cache.entries.len()).min_by_key(|&i| cache.entries[i].stamp) {
                cache.entries.swap_remove(oldest);
            }
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(DecodedProgram::decode(&build(), cfg));
        cache.entries.push(Entry { key, program: Arc::clone(&program), stamp });
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
        // Eviction keeps the cache bounded and the survivors usable.
        for vl in (0..CAPACITY as u32 + 8).map(|i| 128 * (i + 1)) {
            let _ = cached_program("test/churn", &l1.clone().with_vl(vl), tiny);
        }
        let again = cached_program("test/tiny", &l1, tiny);
        assert!(again.matches(&l1));
    }

    #[test]
    fn each_thread_decodes_its_own_copy() {
        let l1 = ExecConfig::a64fx_l1().with_vl(1024);
        let first = cached_program("test/per_thread", &l1, tiny);
        let cfg = l1.clone();
        // A fresh thread starts with an empty cache: it builds and decodes
        // its own program.  (Moving `first` in also checks a decoded
        // program, closures and all, is `Send + Sync`.)
        let (built, ptr_eq) = std::thread::spawn(move || {
            let mut built = false;
            let p = cached_program("test/per_thread", &cfg, || {
                built = true;
                tiny()
            });
            (built, Arc::ptr_eq(&p, &first))
        })
        .join()
        .expect("worker");
        assert!(built && !ptr_eq, "a fresh thread must decode its own copy");
        assert_eq!(cache_shared_hit_count(), 0);
    }
}
