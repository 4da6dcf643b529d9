//! The virtual-clock span/event tracer.
//!
//! [`Tracer`] implements [`v2d_machine::TraceSink`], so attaching one
//! to an [`ExecCtx`](v2d_machine::ExecCtx) records every kernel charge,
//! physics stage, halo exchange, solver iteration, and fault/recovery
//! event — each stamped from the **simulated** per-lane clocks, once
//! per compiler lane.  Host time is never sampled: replaying the same
//! configuration (and the same `FaultPlan`) reproduces the trace
//! bit-for-bit.
//!
//! Two export formats:
//!
//! * [`chrome_trace`] — Chrome `trace_event` JSON (load in
//!   `chrome://tracing` or Perfetto).  One *process* per rank, one
//!   *thread* per cost lane, timestamps in virtual microseconds.
//! * [`collapsed_stacks`] — `a;b;c weight` lines (weight = lane-0
//!   exclusive cycles), the input format of flamegraph.pl and
//!   speedscope.

use std::collections::BTreeMap;

use v2d_machine::clock::SimDuration;
use v2d_machine::trace::{AttrVal, Attrs, TraceSink};
use v2d_machine::{MultiCostSink, FREQ_HZ};

use crate::json::Json;

/// One attribute value, owned for storage.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl Attr {
    fn of(v: &AttrVal) -> Attr {
        match *v {
            AttrVal::U64(x) => Attr::U64(x),
            AttrVal::I64(x) => Attr::I64(x),
            AttrVal::F64(x) => Attr::F64(x),
            AttrVal::Str(s) => Attr::Str(s.to_string()),
            AttrVal::Bool(b) => Attr::Bool(b),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Attr::U64(x) => Json::Num(*x as f64),
            Attr::I64(x) => Json::Num(*x as f64),
            Attr::F64(x) => Json::Num(*x),
            Attr::Str(s) => Json::Str(s.clone()),
            Attr::Bool(b) => Json::Bool(*b),
        }
    }
}

/// One recorded trace event on one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: String,
    /// Cost-lane index (Chrome thread id).
    pub lane: usize,
    /// `'X'` complete span or `'i'` instant.
    pub ph: char,
    /// Virtual begin time in cycles on that lane's clock.
    pub begin_cycles: u64,
    /// Span length in cycles (0 for instants).
    pub dur_cycles: u64,
    pub attrs: Vec<(String, Attr)>,
}

impl Event {
    /// String attribute lookup.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find_map(|(k, v)| match v {
            Attr::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

/// An open span: per-lane begin clocks plus the lane-0 cycles already
/// attributed to finished children (for exclusive-time folding).
#[derive(Debug)]
struct Open {
    name: String,
    begins: Vec<u64>,
    child_cycles_lane0: u64,
    attrs: Vec<(String, Attr)>,
}

/// The per-rank trace recorder.
#[derive(Debug)]
pub struct Tracer {
    rank: usize,
    lane_names: Vec<String>,
    kernel_spans: bool,
    stack: Vec<Open>,
    events: Vec<Event>,
    /// Collapsed-stack weights: `a;b;c` → lane-0 exclusive cycles.
    folded: BTreeMap<String, u64>,
}

impl Tracer {
    /// A tracer for `rank`, with lane names taken from the sink it will
    /// observe.
    pub fn new(rank: usize, lanes: &MultiCostSink) -> Self {
        Tracer::with_lanes(
            rank,
            lanes.lanes.iter().map(|l| l.profile.id.label().to_string()).collect(),
        )
    }

    /// A tracer over explicitly named lanes (drivers that synthesize
    /// spans without a `MultiCostSink`, e.g. the Table II harness).
    pub fn with_lanes(rank: usize, lane_names: Vec<String>) -> Self {
        Tracer {
            rank,
            lane_names,
            kernel_spans: true,
            stack: Vec::new(),
            events: Vec::new(),
            folded: BTreeMap::new(),
        }
    }

    /// Disable per-kernel-charge spans (the highest-volume source);
    /// stage/step/solver events are still recorded.
    pub fn without_kernel_spans(mut self) -> Self {
        self.kernel_spans = false;
        self
    }

    /// The rank this tracer records.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// All recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Record a finished span directly (synthetic timelines: the
    /// Table II driver has per-routine clocks but no `ExecCtx`).
    pub fn push_span(
        &mut self,
        lane: usize,
        name: &str,
        begin_cycles: u64,
        dur_cycles: u64,
        attrs: &Attrs,
    ) {
        self.events.push(Event {
            name: name.to_string(),
            lane,
            ph: 'X',
            begin_cycles,
            dur_cycles,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), Attr::of(v))).collect(),
        });
        if lane == 0 {
            *self.folded.entry(name.to_string()).or_insert(0) += dur_cycles;
        }
    }

    fn folded_key(&self, leaf: &str) -> String {
        let mut key = String::new();
        for open in &self.stack {
            key.push_str(&open.name);
            key.push(';');
        }
        key.push_str(leaf);
        key
    }

    fn record_complete(
        &mut self,
        lanes: &MultiCostSink,
        begins: &[u64],
        name: &str,
        attrs: &Attrs,
    ) {
        for (lane, sink) in lanes.lanes.iter().enumerate() {
            let now = sink.clock.now().cycles();
            let begin = begins[lane];
            self.events.push(Event {
                name: name.to_string(),
                lane,
                ph: 'X',
                begin_cycles: begin,
                dur_cycles: now.saturating_sub(begin),
                attrs: attrs.iter().map(|(k, v)| (k.to_string(), Attr::of(v))).collect(),
            });
        }
        // Fold lane 0 into the flamegraph and charge the enclosing span.
        let incl0 = lanes.lanes[0].clock.now().cycles().saturating_sub(begins[0]);
        let key = self.folded_key(name);
        *self.folded.entry(key).or_insert(0) += incl0;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles_lane0 += incl0;
        }
    }

    /// Export this rank's events as Chrome `trace_event` JSON values
    /// (metadata + events), ready to merge across ranks.
    fn chrome_events(&self) -> Vec<Json> {
        let to_us = 1e6 / FREQ_HZ;
        let mut out = Vec::with_capacity(self.events.len() + 1 + self.lane_names.len());
        out.push(Json::obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(self.rank as f64)),
            ("name", Json::Str("process_name".into())),
            ("args", Json::obj(vec![("name", Json::Str(format!("rank {}", self.rank)))])),
        ]));
        for (tid, label) in self.lane_names.iter().enumerate() {
            out.push(Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("pid", Json::Num(self.rank as f64)),
                ("tid", Json::Num(tid as f64)),
                ("name", Json::Str("thread_name".into())),
                ("args", Json::obj(vec![("name", Json::Str(label.clone()))])),
            ]));
        }
        for ev in &self.events {
            let mut members = vec![
                ("name", Json::Str(ev.name.clone())),
                ("ph", Json::Str(ev.ph.to_string())),
                ("pid", Json::Num(self.rank as f64)),
                ("tid", Json::Num(ev.lane as f64)),
                ("ts", Json::Num(ev.begin_cycles as f64 * to_us)),
            ];
            match ev.ph {
                'X' => members.push(("dur", Json::Num(ev.dur_cycles as f64 * to_us))),
                // Thread-scoped instants stay on their lane's track.
                _ => members.push(("s", Json::Str("t".into()))),
            }
            if !ev.attrs.is_empty() {
                members.push((
                    "args",
                    Json::Obj(ev.attrs.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
                ));
            }
            out.push(Json::obj(members));
        }
        out
    }
}

impl TraceSink for Tracer {
    fn span_enter(&mut self, lanes: &MultiCostSink, name: &str, attrs: &Attrs) {
        // Span attributes ride the open record and are attached to the
        // events emitted at exit (when the duration is known).
        self.stack.push(Open {
            name: name.to_string(),
            begins: lanes.lanes.iter().map(|l| l.clock.now().cycles()).collect(),
            child_cycles_lane0: 0,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), Attr::of(v))).collect(),
        });
    }

    fn span_exit(&mut self, lanes: &MultiCostSink, name: &str) {
        let Some(open) = self.stack.pop() else {
            debug_assert!(false, "span_exit('{name}') with no open span");
            return;
        };
        debug_assert_eq!(open.name, name, "span exit order violated");
        for (lane, sink) in lanes.lanes.iter().enumerate() {
            let now = sink.clock.now().cycles();
            self.events.push(Event {
                name: open.name.clone(),
                lane,
                ph: 'X',
                begin_cycles: open.begins[lane],
                dur_cycles: now.saturating_sub(open.begins[lane]),
                attrs: open.attrs.clone(),
            });
        }
        let incl0 = lanes.lanes[0].clock.now().cycles().saturating_sub(open.begins[0]);
        let excl0 = incl0.saturating_sub(open.child_cycles_lane0);
        let key = self.folded_key(&open.name);
        *self.folded.entry(key).or_insert(0) += excl0;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles_lane0 += incl0;
        }
    }

    fn instant(&mut self, lanes: &MultiCostSink, name: &str, attrs: &Attrs) {
        for (lane, sink) in lanes.lanes.iter().enumerate() {
            self.events.push(Event {
                name: name.to_string(),
                lane,
                ph: 'i',
                begin_cycles: sink.clock.now().cycles(),
                dur_cycles: 0,
                attrs: attrs.iter().map(|(k, v)| (k.to_string(), Attr::of(v))).collect(),
            });
        }
    }

    fn complete(
        &mut self,
        lanes: &MultiCostSink,
        begins: &[SimDuration],
        name: &str,
        attrs: &Attrs,
    ) {
        let begins: Vec<u64> = begins.iter().map(|d| d.cycles()).collect();
        self.record_complete(lanes, &begins, name, attrs);
    }

    fn wants_kernel_spans(&self) -> bool {
        self.kernel_spans
    }
}

/// Merge per-rank tracers into one Chrome `trace_event` document.
pub fn chrome_trace(tracers: &[&Tracer]) -> String {
    let mut events = Vec::new();
    for t in tracers {
        events.extend(t.chrome_events());
    }
    Json::obj(vec![
        ("schemaVersion", Json::Num(crate::SCHEMA_VERSION as f64)),
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_pretty()
}

/// Merge per-rank tracers into collapsed-stack text: one
/// `rankN;frame;frame weight` line per unique stack, sorted (weights
/// are lane-0 exclusive cycles).
pub fn collapsed_stacks(tracers: &[&Tracer]) -> String {
    let mut out = String::new();
    for t in tracers {
        for (key, cycles) in &t.folded {
            if *cycles > 0 {
                out.push_str(&format!("rank{};{} {}\n", t.rank, key, cycles));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_machine::profile::CompilerProfile;
    use v2d_machine::{ExecCtx, KernelClass};

    fn sink() -> MultiCostSink {
        MultiCostSink::single(CompilerProfile::cray_opt())
    }

    #[test]
    fn spans_nest_and_fold_exclusive_time() {
        let mut sk = sink();
        let mut tr = Tracer::new(0, &sk);
        {
            let mut cx = ExecCtx::with_parts(&mut sk, None, None, Some(&mut tr));
            cx.span("outer", &[], |cx| {
                cx.charge_streaming(KernelClass::Daxpy, 1000, 2, 2, 1);
                cx.span("inner", &[], |cx| {
                    cx.charge_streaming(KernelClass::DotProd, 1000, 2, 2, 0)
                });
            });
        }
        let total = sk.lanes[0].clock.now().cycles();
        // Events: DAXPY, DPROD, inner, outer (one lane each).
        let names: Vec<&str> = tr.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["DAXPY", "DPROD", "inner", "outer"]);
        let outer = &tr.events()[3];
        assert_eq!(outer.begin_cycles, 0);
        assert_eq!(outer.dur_cycles, total);
        // Folded weights partition the timeline: kernels own all cycles,
        // the enclosing spans have zero exclusive time.
        assert!(tr.folded.get("outer;DAXPY").copied().unwrap_or(0) > 0);
        assert!(tr.folded.contains_key("outer;inner;DPROD"));
        let folded_sum: u64 = tr.folded.values().sum();
        assert_eq!(folded_sum, total, "exclusive weights must partition the timeline");
    }

    #[test]
    fn instants_stamp_every_lane() {
        let mut sk = MultiCostSink::all_compilers();
        let mut tr = Tracer::new(3, &sk);
        {
            let mut cx = ExecCtx::with_parts(&mut sk, None, None, Some(&mut tr));
            cx.trace_instant("mark", &[("k", AttrVal::U64(7))]);
        }
        assert_eq!(tr.events().len(), 4);
        assert!(tr.events().iter().enumerate().all(|(i, e)| e.lane == i && e.ph == 'i'));
    }

    #[test]
    fn chrome_export_is_valid_json_and_deterministic() {
        let run = || {
            let mut sk = sink();
            let mut tr = Tracer::new(0, &sk);
            {
                let mut cx = ExecCtx::with_parts(&mut sk, None, None, Some(&mut tr));
                cx.span("stage", &[], |cx| cx.charge_streaming(KernelClass::MatVec, 5000, 9, 4, 1));
            }
            chrome_trace(&[&tr])
        };
        let a = run();
        assert_eq!(a, run(), "same run must serialize to identical bytes");
        let doc = Json::parse(&a).expect("chrome trace must be valid JSON");
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().len() >= 4);
    }

    #[test]
    fn synthetic_spans_feed_folded_output() {
        let mut tr = Tracer::with_lanes(0, vec!["no-sve".into(), "sve".into()]);
        tr.push_span(0, "MATVEC", 0, 100, &[]);
        tr.push_span(1, "MATVEC", 0, 25, &[]);
        let folded = collapsed_stacks(&[&tr]);
        assert_eq!(folded, "rank0;MATVEC 100\n");
    }
}
