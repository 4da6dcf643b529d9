//! The service wire protocol: newline-delimited JSON (NDJSON).
//!
//! One request per line in, one response per line out.  Requests carry
//! an `id` chosen by the client; responses echo it, so a client may
//! pipeline requests and correlate replies in any order.  The payload
//! of a submit response lives under a single `"result"` member that is
//! rendered once, when its [`RunResult`] is built, and shared behind an
//! `Arc` — two requests that deduped onto the same job (or hit the
//! result cache) copy the *same* bytes, so their `"result"` members are
//! identical by construction.  The e2e harness asserts exactly that.
//!
//! [`Response::to_line`] writes a result line as its envelope (`resp`,
//! the escaped `id`, `source`) around those bytes, so a cache hit
//! formats no number and builds no [`Json`] tree; every other response
//! goes through [`Response::to_json`], which stays the reference for
//! the bytes of every line.
//!
//! Request lines:
//!
//! ```text
//! {"req":"submit","id":"a","deck":"[grid]\nn1 = 16\n…","priority":2,
//!  "faults":[{"step":2,"rank":0,"kind":"rank-kill"}]}
//! {"req":"cancel","id":"c1","target":"a"}
//! {"req":"status","id":"s1"}
//! {"req":"shutdown","id":"q1"}
//! {"req":"barrier"}
//! ```
//!
//! `priority` and `faults` are optional (default `0` / none).
//! `barrier` is script-mode only: the deterministic harness drains the
//! pool before admitting what follows; a live daemon rejects it.

use std::sync::Arc;

use v2d_machine::FaultKind;
use v2d_obs::{json, Json};

/// One fault event requested alongside a deck, mirrored onto
/// [`v2d_machine::FaultPlan`] events at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub step: u64,
    /// `None` = any rank (the plan's wildcard).
    pub rank: Option<usize>,
    pub kind: FaultKind,
}

/// The fault kinds a service client may request, each on the wire as
/// its [`FaultKind::name`].  The richer payload-carrying kinds stay
/// internal to the fault-campaign harnesses.
const CLIENT_FAULTS: [FaultKind; 5] = [
    FaultKind::RankKill,
    FaultKind::RankStallForever,
    FaultKind::FieldNan,
    FaultKind::FieldInf,
    FaultKind::SolverBreakdown { count: 1 },
];

impl FaultSpec {
    fn kind_from_name(name: &str) -> Result<FaultKind, String> {
        CLIENT_FAULTS.into_iter().find(|k| k.name() == name).ok_or_else(|| {
            let valid: Vec<_> = CLIENT_FAULTS.iter().map(FaultKind::name).collect();
            format!("unknown fault kind `{name}` (valid: {})", valid.join(", "))
        })
    }

    /// Canonical text line used in the request content hash: the fault
    /// plan is part of the experiment's identity.
    pub fn canonical(&self) -> String {
        match self.rank {
            Some(r) => format!("fault {} {} {}\n", self.step, r, self.kind.name()),
            None => format!("fault {} * {}\n", self.step, self.kind.name()),
        }
    }
}

/// A submit request: a parameter-file deck plus scheduling knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    pub id: String,
    /// The experiment, in the existing `v2d.par` format.
    pub deck: String,
    /// Higher runs earlier; ties break FIFO.
    pub priority: i64,
    pub faults: Vec<FaultSpec>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit(Submit),
    Cancel { id: String, target: String },
    Status { id: String },
    Shutdown { id: String },
    Barrier,
}

impl Request {
    /// The request id echoed in responses (barriers have none).
    pub fn id(&self) -> Option<&str> {
        match self {
            Request::Submit(s) => Some(&s.id),
            Request::Cancel { id, .. } | Request::Status { id } | Request::Shutdown { id } => {
                Some(id)
            }
            Request::Barrier => None,
        }
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let j = match self {
            Request::Submit(s) => {
                let faults = s
                    .faults
                    .iter()
                    .map(|f| {
                        let mut fields = vec![("step", Json::Num(f.step as f64))];
                        if let Some(r) = f.rank {
                            fields.push(("rank", Json::Num(r as f64)));
                        }
                        fields.push(("kind", Json::Str(f.kind.name().to_string())));
                        Json::obj(fields)
                    })
                    .collect();
                Json::obj(vec![
                    ("req", Json::Str("submit".into())),
                    ("id", Json::Str(s.id.clone())),
                    ("deck", Json::Str(s.deck.clone())),
                    ("priority", Json::Num(s.priority as f64)),
                    ("faults", Json::Arr(faults)),
                ])
            }
            Request::Cancel { id, target } => Json::obj(vec![
                ("req", Json::Str("cancel".into())),
                ("id", Json::Str(id.clone())),
                ("target", Json::Str(target.clone())),
            ]),
            Request::Status { id } => {
                Json::obj(vec![("req", Json::Str("status".into())), ("id", Json::Str(id.clone()))])
            }
            Request::Shutdown { id } => Json::obj(vec![
                ("req", Json::Str("shutdown".into())),
                ("id", Json::Str(id.clone())),
            ]),
            Request::Barrier => Json::obj(vec![("req", Json::Str("barrier".into()))]),
        };
        j.to_compact()
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let req =
        j.get("req").and_then(Json::as_str).ok_or_else(|| "missing `req` member".to_string())?;
    let id = |j: &Json| -> Result<String, String> {
        j.get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing `id` member".to_string())
    };
    match req {
        "submit" => {
            let deck = j
                .get("deck")
                .and_then(Json::as_str)
                .ok_or_else(|| "submit: missing `deck`".to_string())?
                .to_string();
            let priority = j.get("priority").and_then(Json::as_f64).unwrap_or(0.0) as i64;
            let mut faults = Vec::new();
            if let Some(arr) = j.get("faults").and_then(Json::as_arr) {
                for f in arr {
                    let step = f
                        .get("step")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| "fault: missing `step`".to_string())?;
                    let rank = f.get("rank").and_then(Json::as_u64).map(|r| r as usize);
                    let kind = f
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| "fault: missing `kind`".to_string())?;
                    faults.push(FaultSpec { step, rank, kind: FaultSpec::kind_from_name(kind)? });
                }
            }
            Ok(Request::Submit(Submit { id: id(&j)?, deck, priority, faults }))
        }
        "cancel" => {
            let target = j
                .get("target")
                .and_then(Json::as_str)
                .ok_or_else(|| "cancel: missing `target`".to_string())?
                .to_string();
            Ok(Request::Cancel { id: id(&j)?, target })
        }
        "status" => Ok(Request::Status { id: id(&j)? }),
        "shutdown" => Ok(Request::Shutdown { id: id(&j)? }),
        "barrier" => Ok(Request::Barrier),
        other => Err(format!("unknown request `{other}`")),
    }
}

/// Where a submit response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// This request's own job computed it.
    Computed,
    /// Attached to an identical in-flight job.
    Dedup,
    /// Served from the memoized result cache.
    ResultCache,
    /// The request was cancelled before (or instead of) computing.
    Cancelled,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Computed => "computed",
            Source::Dedup => "dedup",
            Source::ResultCache => "result-cache",
            Source::Cancelled => "cancelled",
        }
    }
}

/// The recovery ledger as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerWire {
    pub kills: u64,
    pub rollbacks: u64,
    pub redecompositions: u64,
    pub steps_replayed: u64,
    pub attempts: u64,
    pub backoff_virtual_secs: f64,
    pub events: Vec<String>,
}

impl LedgerWire {
    pub fn from_ledger(l: &v2d_core::supervise::RecoveryLedger) -> Self {
        LedgerWire {
            kills: l.kills,
            rollbacks: l.rollbacks,
            redecompositions: l.redecompositions,
            steps_replayed: l.steps_replayed,
            attempts: l.attempts,
            backoff_virtual_secs: l.backoff_virtual_secs,
            events: l.events.clone(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kills", Json::Num(self.kills as f64)),
            ("rollbacks", Json::Num(self.rollbacks as f64)),
            ("redecompositions", Json::Num(self.redecompositions as f64)),
            ("steps_replayed", Json::Num(self.steps_replayed as f64)),
            ("attempts", Json::Num(self.attempts as f64)),
            ("backoff_virtual_secs", Json::Num(self.backoff_virtual_secs)),
            ("events", Json::Arr(self.events.iter().map(|e| Json::Str(e.clone())).collect())),
        ])
    }
}

/// The outcome of one admitted experiment.  Shared (`Arc`) between
/// every subscriber of a deduped job and with the result cache.  The
/// constructors render the `"result"` member once; every response that
/// carries this result copies those bytes, so all subscribers emit
/// identical result bytes.  The fields are private so that those bytes
/// always match them.
///
/// The final field itself is *not* shipped — a paper-sized deck carries
/// 40 000 f64s — only its length and FNV-32 checksum, which is what the
/// bit-identity assertions need.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    outcome: &'static str,
    /// Checksum + length of the final global field bits (done only).
    bits_fnv32: Option<u64>,
    bits_len: Option<usize>,
    /// The decomposition the run finished on (done only).
    final_np: Option<(usize, usize)>,
    /// Virtual mean-time-to-repair (done only).
    mttr_virtual_secs: Option<f64>,
    /// Error text (failed only).
    error: Option<String>,
    /// The typed recovery ledger (done and failed).
    ledger: Option<LedgerWire>,
    /// `to_json().to_compact()`, rendered by the constructor.
    member: String,
}

impl RunResult {
    /// A run that finished on `final_np` ranks with these field bits.
    pub fn done(
        bits_fnv32: u64,
        bits_len: usize,
        final_np: (usize, usize),
        mttr_virtual_secs: f64,
        ledger: LedgerWire,
    ) -> Self {
        RunResult {
            bits_fnv32: Some(bits_fnv32),
            bits_len: Some(bits_len),
            final_np: Some(final_np),
            mttr_virtual_secs: Some(mttr_virtual_secs),
            ledger: Some(ledger),
            ..Self::empty("done")
        }
        .rendered()
    }

    /// A run the supervisor gave up on.
    pub fn failed(error: String, ledger: LedgerWire) -> Self {
        RunResult { error: Some(error), ledger: Some(ledger), ..Self::empty("failed") }.rendered()
    }

    pub fn cancelled() -> Self {
        Self::empty("cancelled").rendered()
    }

    fn empty(outcome: &'static str) -> Self {
        RunResult {
            outcome,
            bits_fnv32: None,
            bits_len: None,
            final_np: None,
            mttr_virtual_secs: None,
            error: None,
            ledger: None,
            member: String::new(),
        }
    }

    fn rendered(mut self) -> Self {
        self.member = self.to_json().to_compact();
        self
    }

    /// `"done"`, `"failed"`, or `"cancelled"`.
    pub fn outcome(&self) -> &'static str {
        self.outcome
    }

    /// Checksum of the final global field bits (done only).
    pub fn bits_fnv32(&self) -> Option<u64> {
        self.bits_fnv32
    }

    /// The decomposition the run finished on (done only).
    pub fn final_np(&self) -> Option<(usize, usize)> {
        self.final_np
    }

    /// The typed recovery ledger (done and failed).
    pub fn ledger(&self) -> Option<&LedgerWire> {
        self.ledger.as_ref()
    }

    /// The `"result"` member as a JSON tree: the reference the rendered
    /// bytes are made from.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("outcome", Json::Str(self.outcome.to_string()))];
        if let Some(h) = self.bits_fnv32 {
            fields.push(("bits_fnv32", Json::Num(h as f64)));
        }
        if let Some(n) = self.bits_len {
            fields.push(("bits_len", Json::Num(n as f64)));
        }
        if let Some((a, b)) = self.final_np {
            fields.push(("np", Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)])));
        }
        if let Some(m) = self.mttr_virtual_secs {
            fields.push(("mttr_virtual_secs", Json::Num(m)));
        }
        if let Some(e) = &self.error {
            fields.push(("error", Json::Str(e.clone())));
        }
        if let Some(l) = &self.ledger {
            fields.push(("ledger", l.to_json()));
        }
        Json::obj(fields)
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Terminal answer to a submit (including cancelled submits).
    Result { id: String, source: Source, result: Arc<RunResult> },
    /// Acknowledgement of a cancel request. `outcome` is `"cancelled"`
    /// (the target was detached) or `"unknown"` (no such in-flight id —
    /// already finished, already cancelled, or never seen).
    CancelAck { id: String, target: String, outcome: &'static str },
    /// The live telemetry snapshot: the metrics registry as JSON.
    Status { id: String, metrics: Json },
    /// Shutdown acknowledged; the daemon drains and exits.
    Bye { id: String },
    /// The request could not be admitted.
    Error { id: String, what: String },
}

impl Response {
    pub fn id(&self) -> &str {
        match self {
            Response::Result { id, .. }
            | Response::CancelAck { id, .. }
            | Response::Status { id, .. }
            | Response::Bye { id }
            | Response::Error { id, .. } => id,
        }
    }

    pub fn to_json(&self) -> Json {
        match self {
            Response::Result { id, source, result } => Json::obj(vec![
                ("resp", Json::Str("result".into())),
                ("id", Json::Str(id.clone())),
                ("source", Json::Str(source.name().to_string())),
                ("result", result.to_json()),
            ]),
            Response::CancelAck { id, target, outcome } => Json::obj(vec![
                ("resp", Json::Str("cancel".into())),
                ("id", Json::Str(id.clone())),
                ("target", Json::Str(target.clone())),
                ("outcome", Json::Str((*outcome).to_string())),
            ]),
            Response::Status { id, metrics } => Json::obj(vec![
                ("resp", Json::Str("status".into())),
                ("id", Json::Str(id.clone())),
                ("metrics", metrics.clone()),
            ]),
            Response::Bye { id } => {
                Json::obj(vec![("resp", Json::Str("bye".into())), ("id", Json::Str(id.clone()))])
            }
            Response::Error { id, what } => Json::obj(vec![
                ("resp", Json::Str("error".into())),
                ("id", Json::Str(id.clone())),
                ("error", Json::Str(what.clone())),
            ]),
        }
    }

    /// Serialize to one wire line (no trailing newline); byte-identical
    /// to `to_json().to_compact()`.  A result line is its envelope
    /// written around the result's pre-rendered member.
    pub fn to_line(&self) -> String {
        let Response::Result { id, source, result } = self else {
            return self.to_json().to_compact();
        };
        let mut line = String::with_capacity(64 + id.len() + result.member.len());
        line.push_str(r#"{"resp":"result","id":"#);
        json::write_str(&mut line, id);
        line.push_str(r#","source":"#);
        json::write_str(&mut line, source.name());
        line.push_str(r#","result":"#);
        line.push_str(&result.member);
        line.push('}');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let req = Request::Submit(Submit {
            id: "a1".into(),
            deck: "[grid]\nn1 = 16\n".into(),
            priority: 2,
            faults: vec![
                FaultSpec { step: 2, rank: Some(0), kind: FaultKind::RankKill },
                FaultSpec { step: 4, rank: None, kind: FaultKind::FieldNan },
            ],
        });
        let line = req.to_line();
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    /// Every kind a client may request crosses the wire and back, and
    /// its canonical line — part of the result-cache key — keeps its
    /// bytes.
    #[test]
    fn every_client_fault_kind_round_trips_with_a_pinned_canonical_line() {
        let pinned = [
            "fault 3 1 rank-kill\n",
            "fault 3 1 rank-stall-forever\n",
            "fault 3 1 field-nan\n",
            "fault 3 1 field-inf\n",
            "fault 3 1 solver-breakdown\n",
        ];
        for (kind, want) in CLIENT_FAULTS.into_iter().zip(pinned) {
            let spec = FaultSpec { step: 3, rank: Some(1), kind };
            let req = Request::Submit(Submit {
                id: "f".into(),
                deck: "d".into(),
                priority: 0,
                faults: vec![spec.clone()],
            });
            assert_eq!(parse_request(&req.to_line()).unwrap(), req, "{kind:?}");
            assert_eq!(spec.canonical(), want);
            let anywhere = FaultSpec { rank: None, ..spec };
            assert_eq!(anywhere.canonical(), want.replace(" 1 ", " * "));
        }
        let err = parse_request(
            r#"{"req":"submit","id":"x","deck":"d","faults":[{"step":1,"kind":"warp"}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "unknown fault kind `warp` (valid: rank-kill, rank-stall-forever, field-nan, \
             field-inf, solver-breakdown)"
        );
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Cancel { id: "c".into(), target: "a".into() },
            Request::Status { id: "s".into() },
            Request::Shutdown { id: "q".into() },
            Request::Barrier,
        ] {
            assert_eq!(parse_request(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"req":"submit","id":"x"}"#).is_err());
        assert!(parse_request(r#"{"req":"teleport","id":"x"}"#).is_err());
        assert!(parse_request(
            r#"{"req":"submit","id":"x","deck":"d","faults":[{"step":1,"kind":"quantum"}]}"#
        )
        .is_err());
    }

    fn ledger(events: Vec<String>) -> LedgerWire {
        LedgerWire {
            kills: 1,
            rollbacks: 1,
            redecompositions: 1,
            steps_replayed: 2,
            attempts: 2,
            backoff_virtual_secs: 1.0,
            events,
        }
    }

    #[test]
    fn shared_results_serialize_identically() {
        let res = Arc::new(RunResult::done(
            123,
            256,
            (2, 1),
            0.0,
            ledger(vec!["attempt 1: rank 0 lost".into()]),
        ));
        let a = Response::Result { id: "a".into(), source: Source::Computed, result: res.clone() };
        let b = Response::Result { id: "b".into(), source: Source::Dedup, result: res };
        let member = |line: &str| {
            let j = Json::parse(line).unwrap();
            j.get("result").unwrap().to_compact()
        };
        assert_eq!(member(&a.to_line()), member(&b.to_line()));
    }

    /// `to_line` writes result lines by hand around pre-rendered bytes;
    /// `to_json().to_compact()` is the reference for every line.
    #[test]
    fn every_response_line_matches_its_json_reference() {
        // Quotes, backslashes, newlines, other control characters and
        // non-ASCII: everything the escaper treats specially.
        let awkward = "q\"uo\\te\nline\r\ttab\u{1}\u{1f}\u{7f} é ✓ 𝄞";
        let texts = ["", "plain", awkward];
        let mut results = vec![RunResult::cancelled()];
        for text in texts {
            let events = vec![text.to_string(), format!("attempt 2: {text}"), String::new()];
            results.push(RunResult::done(
                0xdead_beef,
                40_000,
                (5, 4),
                0.125,
                ledger(events.clone()),
            ));
            results.push(RunResult::done(0, 0, (1, 1), 1e-300, ledger(Vec::new())));
            results.push(RunResult::failed(format!("retries exhausted: {text}"), ledger(events)));
        }
        let mut responses = Vec::new();
        for result in results.into_iter().map(Arc::new) {
            for source in [Source::Computed, Source::Dedup, Source::ResultCache, Source::Cancelled]
            {
                for id in texts {
                    let result = Arc::clone(&result);
                    responses.push(Response::Result { id: id.into(), source, result });
                }
            }
        }
        let mut metrics = v2d_obs::Metrics::new();
        metrics.counter_add("serve.admitted", 3);
        metrics.gauge_set("serve.queue.depth", 0.5);
        for text in texts {
            responses.extend([
                Response::CancelAck { id: text.into(), target: text.into(), outcome: "cancelled" },
                Response::CancelAck { id: text.into(), target: "a".into(), outcome: "unknown" },
                Response::Status { id: text.into(), metrics: metrics.to_json() },
                Response::Bye { id: text.into() },
                Response::Error { id: text.into(), what: format!("deck: {text}") },
            ]);
        }
        for resp in &responses {
            let line = resp.to_line();
            assert_eq!(line, resp.to_json().to_compact(), "{resp:?}");
            assert!(!line.contains('\n'), "a wire line holds no raw newline: {line}");
            Json::parse(&line).expect("every line parses back");
        }
    }
}
