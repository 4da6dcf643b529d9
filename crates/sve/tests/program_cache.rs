//! Warm kernel invocations do zero assembly and zero decode work.
//!
//! Mirrors the `workspace_alloc` pattern: the assemble/decode/hit/miss
//! counters are process-global, so this file contains exactly ONE test —
//! a second test in the same binary would race the counter snapshots.

use v2d_machine::MemLevel;
use v2d_sve::cache::{assemble_count, cache_hit_count, cache_miss_count};
use v2d_sve::decode::decode_count;
use v2d_sve::kernels::{run_routine, Routine, Variant};
use v2d_sve::ExecConfig;

#[test]
fn warm_kernel_invocations_hit_the_program_cache() {
    let n = 64;
    let configs = [
        ExecConfig::a64fx_l1(),
        ExecConfig::a64fx_l1().with_vl(2048),
        ExecConfig::a64fx_l1().with_level(MemLevel::Hbm),
    ];
    let sweep = || {
        for cfg in &configs {
            for r in Routine::ALL {
                for v in [Variant::Scalar, Variant::Sve] {
                    let stats = run_routine(r, n, v, cfg);
                    assert!(stats.cycles > 0);
                }
            }
        }
    };
    let cells = (configs.len() * Routine::ALL.len() * 2) as u64;

    // Cold sweep populates the cache: every (program, config) cell is
    // assembled exactly once.
    let assembled_cold = assemble_count();
    sweep();
    assert_eq!(assemble_count() - assembled_cold, cells, "one assembly per cold cell");

    // Warm sweeps: zero assembly, zero decode, zero misses — pure hits.
    let assembled = assemble_count();
    let decoded = decode_count();
    let misses = cache_miss_count();
    let hits = cache_hit_count();
    for _ in 0..3 {
        sweep();
    }
    assert_eq!(assemble_count() - assembled, 0, "warm sweeps must not assemble");
    assert_eq!(decode_count() - decoded, 0, "warm sweeps must not decode");
    assert_eq!(cache_miss_count() - misses, 0, "warm sweeps must not miss");
    assert_eq!(cache_hit_count() - hits, 3 * cells, "every warm cell is a hit");
}
