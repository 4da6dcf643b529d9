//! The tracing hook threaded through [`ExecCtx`](crate::ExecCtx).
//!
//! Every span and instant is stamped from the *simulated* per-lane
//! clocks, never from host time: two runs of the same configuration
//! (including a replayed [`FaultPlan`](crate::FaultPlan)) produce
//! bit-identical traces, which is what makes trace output
//! golden-testable.  The trait lives here — like
//! [`ProfilerScope`](crate::exec::ProfilerScope) — so the execution
//! context can carry a tracer without a dependency cycle: `v2d-obs`
//! implements it, `v2d-machine` only defines the hook.
//!
//! Three event shapes cover everything the stack emits:
//!
//! * **spans** (`span_enter`/`span_exit`, paired by
//!   [`ExecCtx::span`](crate::ExecCtx::span) and
//!   [`ExecCtx::routine`](crate::ExecCtx::routine)) — nested regions
//!   such as a physics stage, a halo exchange, or a whole step;
//! * **completes** (`complete`) — regions whose begin times were
//!   snapshotted *before* the work ran, used for kernel charges where
//!   wrapping the call in a span would double the bookkeeping;
//! * **instants** (`instant`) — point events: a solver iteration, a
//!   breakdown, a fired fault, a message send.

use crate::clock::SimDuration;
use crate::cost::MultiCostSink;

/// A structured attribute value attached to a span or instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrVal<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

/// Key/value attribute list, borrowed for the duration of one event
/// emission.
pub type Attrs<'a> = [(&'a str, AttrVal<'a>)];

/// Receiver of virtual-clock trace events.  Implementations read the
/// per-lane clocks out of the `lanes` argument at emission time, so a
/// single event call yields one timestamped record per cost lane
/// (compiler profile).
pub trait TraceSink {
    /// Open a nested span named `name` at each lane's current time.
    fn span_enter(&mut self, lanes: &MultiCostSink, name: &str, attrs: &Attrs);

    /// Close the innermost open span (which must be named `name`).
    fn span_exit(&mut self, lanes: &MultiCostSink, name: &str);

    /// A point event at each lane's current time.
    fn instant(&mut self, lanes: &MultiCostSink, name: &str, attrs: &Attrs);

    /// A span that already ran: `begins[i]` is lane `i`'s clock before
    /// the work, the lane's current clock is its end.
    fn complete(
        &mut self,
        lanes: &MultiCostSink,
        begins: &[SimDuration],
        name: &str,
        attrs: &Attrs,
    );

    /// Whether per-kernel-charge complete events are wanted.  Kernel
    /// charges are by far the highest-volume event source; a sink can
    /// opt out and still receive stage/step/solver events.
    fn wants_kernel_spans(&self) -> bool {
        true
    }
}
