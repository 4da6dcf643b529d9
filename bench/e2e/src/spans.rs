//! Host-time spans recorded by the harness around its own calls into
//! each layer.  Spans stay in memory and are written when the traced
//! run ends, as Chrome-trace JSON and as folded stacks.
//!
//! Parents are passed explicitly because a replay records from two
//! threads (the harness thread and rank 0's carrier).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use v2d_obs::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub workload: String,
    /// The operation this span belongs to (a request, a sweep, a run):
    /// spans of one operation share it.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// In-memory span store, shareable across the ranks of a replay.
pub struct Recorder {
    workload: String,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Recorder {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &str, op_id: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span writer panics while holding the lock");
        spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            op_id,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span writer panics while holding the lock")[id.0].end_ns =
            end_ns;
    }

    /// Record `f` as one span.
    pub fn span<T>(
        &self,
        name: &str,
        op_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op_id, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span writer panics while holding the lock")
    }
}

/// Self time of every span: its duration minus the part its children
/// cover.  Children of one parent do not overlap in a replay (each
/// parent records its children from a single thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// `core.step[3]` → `core.step`: folded stacks and layer totals merge
/// the iterations of one stage.
fn stage_name(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

/// The layer a span is charged to: the part of its name before the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self seconds summed per layer.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut ns: BTreeMap<String, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *ns.entry(layer_of(&s.name).to_string()).or_insert(0) += t;
    }
    ns.into_iter().map(|(layer, t)| (layer, t as f64 * 1e-9)).collect()
}

/// Folded stacks (`root;child;leaf <self µs>` per line, sorted), the
/// input format of flamegraph tools.
pub fn folded_stacks(spans: &[Span]) -> String {
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    for s in spans {
        // A parent is always recorded before its children.
        let path = match s.parent {
            Some(p) => format!("{};{}", paths[p], stage_name(&s.name)),
            None => stage_name(&s.name).to_string(),
        };
        paths.push(path);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (path, t) in paths.into_iter().zip(self_times_ns(spans)) {
        *folded.entry(path).or_insert(0) += t;
    }
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&format!("{path} {}\n", ns / 1000));
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, the op id as the thread so operations stack separately.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str(layer_of(&s.name).to_string())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.op_id as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1000.0)),
                (
                    "args",
                    Json::obj(vec![
                        ("workload", Json::Str(s.workload.clone())),
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events))]).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), workload: "w".into(), op_id: 0, parent, start_ns, end_ns }
    }

    fn tree() -> Vec<Span> {
        vec![
            span("bench.replay", None, 0, 1000),
            span("core.deck_parse", Some(0), 10, 110),
            span("comm.spmd_run", Some(0), 120, 920),
            span("core.step[0]", Some(2), 130, 430),
            span("core.step[1]", Some(2), 440, 840),
            span("io.encode", Some(4), 800, 830),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = self_times_ns(&tree());
        assert_eq!(t, vec![1000 - 100 - 800, 100, 800 - 300 - 400, 300, 400 - 30, 30]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = tree();
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn folded_stacks_merge_the_iterations_of_a_stage() {
        let spans: Vec<Span> = tree()
            .into_iter()
            .map(|mut s| {
                s.start_ns *= 1000;
                s.end_ns *= 1000;
                s
            })
            .collect();
        let folded = folded_stacks(&spans);
        assert!(folded.contains("bench.replay;comm.spmd_run;core.step 670\n"), "{folded}");
        assert!(folded.contains("bench.replay;comm.spmd_run;core.step;io.encode 30\n"));
        assert!(folded.contains("bench.replay 100\n"));
    }

    #[test]
    fn layers_collect_self_time_by_name_prefix() {
        let l = layer_self_s(&tree());
        assert_eq!(l["core"], (100 + 300 + 370) as f64 * 1e-9);
        assert_eq!(l["comm"], 100.0 * 1e-9);
        assert_eq!(l["io"], 30.0 * 1e-9);
    }

    #[test]
    fn recorder_nests_spans_and_exports_parseable_json() {
        let rec = Recorder::new("w");
        let outer = rec.begin("a.outer", 7, None);
        rec.span("b.inner", 7, Some(outer), || std::hint::black_box(0));
        rec.end(outer);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let j = Json::parse(&chrome_trace(&spans)).expect("chrome trace is valid JSON");
        assert_eq!(j.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }
}
