//! The resident experiment service (`v2d-serve`).
//!
//! Every other binary in the workspace is one-shot: parse a deck, run
//! it, print, exit.  This crate is the serving spine the ROADMAP's
//! production north star needs — a resident daemon that accepts
//! experiment specs in the existing parameter-file format over a Unix
//! socket (or stdin) as newline-delimited JSON, and
//!
//! * schedules them on a **worker pool** that dispatches strictly by
//!   `(priority, FIFO)`, with cooperative cancellation
//!   ([`queue::WorkPool`]),
//! * **dedupes identical in-flight requests** by content hash — the
//!   second submitter of a deck that is already running attaches to the
//!   running job and receives the same [`proto::RunResult`] allocation,
//!   so duplicate responses are bit-identical by construction,
//! * **memoizes whole-experiment results** in a shared LRU
//!   ([`cache::ResultCache`]), sound because the modeled virtual clocks
//!   make every run bit-reproducible: same canonical deck + fault plan
//!   ⇒ same final-field bits, and
//! * runs every admitted request under the PR-8 supervisor
//!   ([`v2d_core::supervise::run_supervised`]), so a rank loss comes
//!   back as a typed recovery ledger in the response instead of a
//!   failed request.
//!
//! The result cache is the service's only cache: nothing beneath
//! `v2d-core` executes an SVE program, so `v2d_sve::cache` (the kernel
//! driver's decoded-program cache) is never touched by a request.
//!
//! [`service::Service::run_script`] executes a request script with
//! phase barriers and a closed admission gate, which makes every
//! `serve.*` counter a pure function of the script — that is what the
//! `serve.*` regression gates ([`load`]) pin as `Exact` entries.

pub mod cache;
pub mod load;
pub mod proto;
pub mod queue;
pub mod service;

pub use proto::{parse_request, FaultSpec, Request, Response, RunResult, Submit};
pub use service::{Handled, ServeOpts, Service};

/// 64-bit FNV-1a over bytes: the content hash behind request dedupe and
/// the result cache.  Stable across platforms and sessions — cache keys
/// may appear in logs and must not depend on `DefaultHasher` seeding.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a `u64` slice folded to 32 bits, matching the bench
/// report's checksum convention for field bits.
pub fn fnv32_bits(data: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in data {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h >> 32) ^ (h & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_distinguishes_and_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        // Pinned value: the hash is part of the wire-visible cache key
        // space and must never drift.
        assert_eq!(fnv64(b"v2d"), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in b"v2d" {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    }

    #[test]
    fn fnv32_bits_folds_to_32() {
        assert!(fnv32_bits(&[1, 2, 3]) <= u64::from(u32::MAX));
        assert_ne!(fnv32_bits(&[1]), fnv32_bits(&[2]));
    }
}
