//! # v2d-testkit — deterministic multi-rank test harness
//!
//! The shared scaffolding behind the workspace's multi-rank tests:
//!
//! * [`mini`] — declarative mini-simulation specs ([`MiniSpec`]) and the
//!   one harness ([`run_mini`]) that stands them up on simulated ranks,
//!   collecting per-rank bits, recovery counts, typed errors, and fault
//!   logs;
//! * [`watchdog`] — a real-time watchdog ([`run_with_watchdog`]) that
//!   turns a deadlocked launch into a test failure instead of a hung CI
//!   job;
//! * [`fuzz`] — the seeded schedule/fault fuzzer ([`fuzz_spec`],
//!   [`check_seed`], [`campaign`]) asserting no-deadlock, bit-identical
//!   replay, and zero-fault bit-identity over grid × tiling × fault ×
//!   policy coordinates;
//! * [`supfuzz`] — the rank-kill/recovery axis
//!   ([`supervise_fuzz_case`], [`check_supervise_seed`]) sweeping
//!   supervised runs over kills × retry budgets × shrink on/off and
//!   asserting completion-or-typed-error, bit-identical replay, and
//!   zero-kill bit-identity;
//! * [`servefuzz`] — the service request-mix axis ([`serve_fuzz_case`],
//!   [`check_serve_seed`]) sweeping scripted `v2d-serve` campaigns over
//!   request mixes × worker counts × result-cache capacities and
//!   asserting replay determinism, admission conservation, and that
//!   cancellation never poisons the shared result cache.
//!
//! The crate is test infrastructure: it depends on the stack under test
//! (`v2d-serve`, `v2d-core`, and below) and is consumed as a
//! `dev-dependency` (or by the bench harness), never by library code.

pub mod fuzz;
pub mod mini;
pub mod servefuzz;
pub mod supfuzz;
pub mod watchdog;

pub use fuzz::{campaign, check_seed, fuzz_spec, stable, stable_text};
pub use mini::{merged_log, run_mini, run_mini_observed, MiniSpec, RankObservation, RankRun};
pub use servefuzz::{check_serve_seed, serve_fuzz_case};
pub use supfuzz::{check_supervise_seed, supervise_fuzz_case};
pub use watchdog::{run_with_watchdog, Verdict};
