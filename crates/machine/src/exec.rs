//! The execution context threaded through every kernel, solver, and
//! collective.
//!
//! Before this module existed, each linear-algebra kernel took an
//! ad-hoc `(&mut MultiCostSink, ws: usize)` pair and every call site
//! had to remember which working-set size to thread where; profiling
//! hooks were a third, separately-threaded parameter.  [`ExecCtx`]
//! bundles all three concerns — cost lanes, ambient working set, and an
//! optional profiler scope — so cost-charging, residency
//! classification, and instrumentation happen in exactly one place.
//!
//! The [`CostLanes`] trait lets the communication layer accept either a
//! bare [`MultiCostSink`] (drivers, tests) or a full [`ExecCtx`]
//! (kernels, solvers) without duplicating its API.

use crate::clock::SimDuration;
use crate::cost::{KernelClass, KernelShape, MultiCostSink};
use crate::fault::FaultInjector;
use crate::trace::{AttrVal, Attrs, TraceSink};

/// Anything that can surface the per-compiler cost lanes.  Collectives
/// and other cost-charging plumbing accept `&mut impl CostLanes`, so
/// both raw sinks and execution contexts flow through the same API.
pub trait CostLanes {
    fn cost_lanes(&mut self) -> &mut MultiCostSink;

    /// The fault injector riding with these lanes, if any.  Default:
    /// none — raw sinks and fault-free contexts behave identically.
    fn fault_injector(&mut self) -> Option<&mut FaultInjector> {
        None
    }

    /// Emit a tracer point event (message send/recv, delay, timeout)
    /// stamped from the lanes' virtual clocks.  Default: no-op — raw
    /// sinks have no tracer, and trace-free contexts charge nothing.
    fn trace_instant(&mut self, name: &str, attrs: &Attrs) {
        let _ = (name, attrs);
    }
}

impl CostLanes for MultiCostSink {
    fn cost_lanes(&mut self) -> &mut MultiCostSink {
        self
    }
}

impl CostLanes for ExecCtx<'_> {
    fn cost_lanes(&mut self) -> &mut MultiCostSink {
        self.sink
    }

    fn fault_injector(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_deref_mut()
    }

    fn trace_instant(&mut self, name: &str, attrs: &Attrs) {
        ExecCtx::trace_instant(self, name, attrs);
    }
}

/// A TAU-style routine recorder.  `v2d-perf`'s `Profiler` implements
/// this; the trait lives here so `ExecCtx` can carry a profiler without
/// a dependency cycle (perf depends on machine, not vice versa).
pub trait ProfilerScope {
    /// One finished call of routine `name`, timed on lane 0:
    /// `inclusive` covers the whole call, `exclusive` leaves out the
    /// routines nested inside it.
    fn record(&mut self, name: &'static str, inclusive: SimDuration, exclusive: SimDuration);
}

/// The ambient execution state of a kernel/solver call chain: the
/// per-compiler cost lanes, the working-set size that decides memory
/// residency for streaming charges, and an optional profiler scope.
pub struct ExecCtx<'a> {
    sink: &'a mut MultiCostSink,
    ws: usize,
    profiler: Option<&'a mut dyn ProfilerScope>,
    faults: Option<&'a mut FaultInjector>,
    tracer: Option<&'a mut dyn TraceSink>,
    /// Lane-0 time spent so far in routines nested directly inside the
    /// innermost open [`ExecCtx::routine`].
    child_time: SimDuration,
}

impl<'a> ExecCtx<'a> {
    /// A context over `sink` with no profiler and a zero (L1-resident)
    /// ambient working set.
    pub fn new(sink: &'a mut MultiCostSink) -> Self {
        ExecCtx::with_parts(sink, None, None, None)
    }

    /// A fully-equipped context: cost lanes, optional profiler scope,
    /// optional fault injector, optional tracer.
    pub fn with_parts(
        sink: &'a mut MultiCostSink,
        profiler: Option<&'a mut dyn ProfilerScope>,
        faults: Option<&'a mut FaultInjector>,
        tracer: Option<&'a mut dyn TraceSink>,
    ) -> Self {
        ExecCtx { sink, ws: 0, profiler, faults, tracer, child_time: SimDuration::ZERO }
    }

    /// The fault injector, if one rides along.  `None` on every
    /// fault-free run — callers must treat that path as the fast path
    /// and charge no extra cost on it.
    pub fn faults(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_deref_mut()
    }

    /// The ambient working-set size in bytes (what streaming kernels
    /// report for residency classification).
    pub fn ws(&self) -> usize {
        self.ws
    }

    /// Set the ambient working set, returning the previous value so
    /// callers can scope it (`let old = cx.set_ws(n); ...; cx.set_ws(old)`).
    pub fn set_ws(&mut self, ws: usize) -> usize {
        std::mem::replace(&mut self.ws, ws)
    }

    /// The underlying cost lanes.
    pub fn sink(&mut self) -> &mut MultiCostSink {
        self.sink
    }

    /// Read-only view of the cost lanes.
    pub fn sink_ref(&self) -> &MultiCostSink {
        self.sink
    }

    /// Charge an explicit kernel shape to every lane.  With a tracer
    /// attached (and kernel spans wanted), the per-lane clocks are
    /// snapshotted around the charge and a complete-span is emitted.
    pub fn charge(&mut self, shape: &KernelShape) {
        match self.tracer.as_deref_mut() {
            Some(t) if t.wants_kernel_spans() => {
                let begins: Vec<_> = self.sink.lanes.iter().map(|l| l.clock.now()).collect();
                self.sink.charge(shape);
                t.complete(
                    self.sink,
                    &begins,
                    shape.class.name(),
                    &[
                        ("elems", AttrVal::U64(shape.elems as u64)),
                        ("flops", AttrVal::U64(shape.flops as u64)),
                        ("bytes", AttrVal::U64(shape.bytes_streamed() as u64)),
                    ],
                );
            }
            _ => self.sink.charge(shape),
        }
    }

    /// Charge a streaming kernel at the *ambient* working set — the
    /// common case for the vector kernels inside a solver.
    pub fn charge_streaming(
        &mut self,
        class: KernelClass,
        elems: usize,
        flops_per_elem: usize,
        reads: usize,
        writes: usize,
    ) {
        let shape = KernelShape::streaming(class, elems, flops_per_elem, reads, writes, self.ws);
        self.charge(&shape);
    }

    // `span` and `routine` are forced inline, and `routine` opens its
    // span itself instead of calling `span`: every frame they add keeps
    // its own copy of the closure's result, and on the radiation path
    // (step → radiation → BiCGSTAB) those frames cost each rank of a
    // 256-rank launch one more page of its rank stack.

    /// Run `f` inside a tracer span named `name`, closed on every
    /// return path.  Invisible to the profiler, whose report feeds
    /// byte-exact goldens.
    #[inline(always)]
    pub fn span<R>(&mut self, name: &str, attrs: &Attrs, f: impl FnOnce(&mut Self) -> R) -> R {
        self.open_span(name, attrs);
        let out = f(self);
        self.close_span(name);
        out
    }

    /// Run `f` as profiled routine `name`: a tracer span, and one
    /// profiler record of its lane-0 inclusive and exclusive time (lane
    /// 0's clock, as the paper's Arm MAP ran on the real machine).
    #[inline(always)]
    pub fn routine<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let entered = self.lane0_now();
        let outer_child = std::mem::replace(&mut self.child_time, SimDuration::ZERO);
        self.open_span(name, &[]);
        let out = f(self);
        self.close_span(name);
        let inclusive = self.lane0_now() - entered;
        let exclusive = inclusive - self.child_time.min(inclusive);
        self.child_time = outer_child + inclusive;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.record(name, inclusive, exclusive);
        }
        out
    }

    fn open_span(&mut self, name: &str, attrs: &Attrs) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.span_enter(self.sink, name, attrs);
        }
    }

    fn close_span(&mut self, name: &str) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.span_exit(self.sink, name);
        }
    }

    fn lane0_now(&self) -> SimDuration {
        self.sink.lanes.first().map_or(SimDuration::ZERO, |l| l.clock.now())
    }

    /// Emit a tracer point event (solver iteration, breakdown, fault,
    /// recovery decision) stamped from the lanes' virtual clocks.
    pub fn trace_instant(&mut self, name: &str, attrs: &Attrs) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.instant(self.sink, name, attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CompilerProfile;

    fn sink() -> MultiCostSink {
        MultiCostSink::single(CompilerProfile::cray_opt())
    }

    #[test]
    fn ambient_ws_scopes_and_restores() {
        let mut sk = sink();
        let mut cx = ExecCtx::new(&mut sk);
        assert_eq!(cx.ws(), 0);
        let old = cx.set_ws(1 << 20);
        assert_eq!(old, 0);
        assert_eq!(cx.ws(), 1 << 20);
        cx.set_ws(old);
        assert_eq!(cx.ws(), 0);
    }

    #[test]
    fn charge_streaming_uses_ambient_ws() {
        // Same shape charged at a large ambient working set must cost at
        // least as much as at an L1-resident one.
        let mut sk_small = sink();
        let mut cx = ExecCtx::new(&mut sk_small);
        cx.charge_streaming(KernelClass::Daxpy, 10_000, 2, 2, 1);
        let small = cx.sink_ref().lanes[0].clock.now();

        let mut sk_big = sink();
        let mut cx = ExecCtx::new(&mut sk_big);
        cx.set_ws(1 << 30);
        cx.charge_streaming(KernelClass::Daxpy, 10_000, 2, 2, 1);
        let big = cx.sink_ref().lanes[0].clock.now();
        assert!(big >= small);
    }

    struct Recorder(Vec<(&'static str, u64, u64)>);
    impl ProfilerScope for Recorder {
        fn record(&mut self, name: &'static str, inclusive: SimDuration, exclusive: SimDuration) {
            self.0.push((name, inclusive.cycles(), exclusive.cycles()));
        }
    }

    #[test]
    fn routines_record_inclusive_and_exclusive_time() {
        let mut sk = sink();
        let mut rec = Recorder(Vec::new());
        let lane0 = |cx: &ExecCtx| cx.sink_ref().lanes[0].clock.now().cycles();
        let (mut own, mut a, mut b) = (0, 0, 0);
        {
            let mut cx = ExecCtx::with_parts(&mut sk, Some(&mut rec), None, None);
            let matvec = |cx: &mut ExecCtx, n| {
                cx.routine("matvec", |cx| {
                    let t0 = lane0(cx);
                    cx.charge_streaming(KernelClass::MatVec, n, 9, 4, 1);
                    lane0(cx) - t0
                })
            };
            cx.routine("solve", |cx| {
                let t0 = lane0(cx);
                cx.charge_streaming(KernelClass::Daxpy, 1000, 2, 2, 1);
                own = lane0(cx) - t0;
                // Two children in a row: the second must add to, not
                // replace, the time the first left with the parent.
                a = matvec(cx, 4000);
                b = matvec(cx, 2000);
            });
        }
        assert!(own > 0 && a > 0 && b > 0);
        assert_eq!(rec.0, [("matvec", a, a), ("matvec", b, b), ("solve", own + a + b, own)]);
    }
}
