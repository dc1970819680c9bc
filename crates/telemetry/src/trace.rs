//! Request-scoped distributed tracing: trace contexts, spans, a bounded
//! span log, and exporters.
//!
//! A [`TraceContext`] is minted when a request is admitted (or by the
//! router, for cluster runs) and carries three things on the wire: the
//! 64-bit trace id shared by every span of the request, the span id of the
//! current enclosing span, and the sampling decision. Ids derive from
//! [`splitmix64`] seeded by a hash of the request id, so simulated runs
//! mint identical ids on every replay and retries of the same request get
//! deterministic sibling span ids.
//!
//! Spans land in a [`SpanLog`] — a bounded ring buffer mirroring
//! [`crate::EventLog`] — and are exported either as a one-line JSON
//! document ([`spans_to_json`]) or as Chrome trace-event JSON
//! ([`spans_to_chrome_trace`]) loadable in Perfetto, with one track per
//! replica/worker thread.

use std::collections::{HashMap, HashSet, VecDeque};

use parking_lot::Mutex;

use crate::json::Json;

/// Default span ring-buffer capacity (spans, across all traces).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// One round of the splitmix64 mixing function: a bijective, statistically
/// strong 64-bit mixer. Used to derive trace/span ids deterministically.
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a of a byte string: the one hash behind trace ids, default
/// sampling seeds and the event log's set of known request ids.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a hash of a request id, used to seed trace-id minting so the same
/// request id always produces the same trace id.
#[must_use]
pub fn trace_seed(request_id: &str) -> u64 {
    fnv1a(request_id.as_bytes())
}

fn nonzero(id: u64) -> u64 {
    if id == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        id
    }
}

/// The per-request trace context propagated across layers and the wire.
///
/// `span_id` names the span this context currently represents (the request
/// root when minted, an attempt span after [`TraceContext::child`]);
/// `parent_span_id` is 0 for a root. A context with `trace_id == 0` is
/// inactive (the default for requests created before tracing attaches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span of the request (0 = no trace).
    pub trace_id: u64,
    /// Id of the span this context represents.
    pub span_id: u64,
    /// Id of the parent span (0 = this is a root span).
    pub parent_span_id: u64,
    /// Whether spans should be recorded for this trace.
    pub sampled: bool,
}

impl TraceContext {
    /// Mints a root context deterministically from `seed` (typically
    /// [`trace_seed`] of the request id).
    #[must_use]
    pub fn mint(seed: u64, sampled: bool) -> Self {
        let trace_id = nonzero(splitmix64(seed));
        let span_id = nonzero(splitmix64(trace_id));
        Self {
            trace_id,
            span_id,
            parent_span_id: 0,
            sampled,
        }
    }

    /// Derives the child context for deterministic child slot `slot`. The
    /// same `(span_id, slot)` always yields the same child span id, so
    /// span trees reassemble identically across replays.
    #[must_use]
    pub fn child(&self, slot: u64) -> Self {
        let span_id = nonzero(splitmix64(
            self.span_id ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        Self {
            trace_id: self.trace_id,
            span_id,
            parent_span_id: self.span_id,
            sampled: self.sampled,
        }
    }

    /// Whether this context records spans (non-zero trace id and sampled).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.trace_id != 0 && self.sampled
    }

    /// Wire encoding: `<trace_id:016x>-<span_id:016x>-<0|1>`.
    #[must_use]
    pub fn to_wire(&self) -> String {
        format!(
            "{:016x}-{:016x}-{}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }

    /// Parses the wire encoding produced by [`TraceContext::to_wire`]. The
    /// parent span id is not carried on the wire and parses as 0.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_wire(s: &str) -> Result<Self, String> {
        let mut parts = s.split('-');
        let (trace, span, flag) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(t), Some(sp), Some(f), None) => (t, sp, f),
            _ => return Err(format!("expected <trace>-<span>-<flag>, got {s:?}")),
        };
        let trace_id =
            u64::from_str_radix(trace, 16).map_err(|_| format!("bad trace id {trace:?}"))?;
        let span_id = u64::from_str_radix(span, 16).map_err(|_| format!("bad span id {span:?}"))?;
        let sampled = match flag {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad sampled flag {other:?}")),
        };
        if trace_id == 0 {
            return Err("trace id must be non-zero".to_string());
        }
        Ok(Self {
            trace_id,
            span_id,
            parent_span_id: 0,
            sampled,
        })
    }
}

/// One recorded span: a named `[start, end]` interval on the serving clock
/// (instant events have `start == end`). Spans with `trace_id == 0` are
/// process-scoped annotations (step stages, cache ops, fault events) rather
/// than members of a request's tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace the span belongs to (0 = untraced process annotation).
    pub trace_id: u64,
    /// Unique span id within the trace.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span_id: u64,
    /// Span name, e.g. `queue`, `prefill`, `kernel:forward`.
    pub name: String,
    /// Start time in seconds (serving clock).
    pub start: f64,
    /// End time in seconds (serving clock); `== start` for instant events.
    pub end: f64,
    /// Free-form `key=value` attributes.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Span duration in seconds, clamped to be non-negative.
    #[must_use]
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A retained span: a whole [`Span`], or an untraced annotation with a
/// static name and one numeric attribute, kept without allocating
/// ([`SpanLog::record_annotations`]) and rendered as a [`Span`] on read.
#[derive(Debug)]
enum Entry {
    /// Boxed, so an annotation entry stays one cache line.
    Span(Box<Span>),
    Annotation {
        name: &'static str,
        attr: (&'static str, u64),
        start: f64,
        end: f64,
    },
}

impl Entry {
    fn trace_id(&self) -> u64 {
        match self {
            Self::Span(span) => span.trace_id,
            Self::Annotation { .. } => 0,
        }
    }

    fn to_span(&self) -> Span {
        match *self {
            Self::Span(ref span) => Span::clone(span),
            Self::Annotation {
                name,
                attr: (key, value),
                start,
                end,
            } => Span {
                trace_id: 0,
                span_id: 0,
                parent_span_id: 0,
                name: name.to_string(),
                start,
                end,
                attrs: vec![(key.to_string(), value.to_string())],
            },
        }
    }
}

#[derive(Debug)]
struct SpanBuf {
    spans: VecDeque<Entry>,
    total: u64,
    dropped: u64,
}

/// Bounded, thread-safe ring buffer of [`Span`]s. When full, the oldest
/// span is evicted and counted in [`SpanLog::total_dropped`].
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    buf: Mutex<SpanBuf>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanLog {
    /// Creates a log keeping at most `capacity` spans (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Mutex::new(SpanBuf {
                spans: VecDeque::new(),
                total: 0,
                dropped: 0,
            }),
        }
    }

    /// Maximum number of retained spans.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a span, evicting the oldest one if the buffer is full.
    pub fn record(&self, span: Span) {
        self.push(&mut self.buf.lock(), Entry::Span(Box::new(span)));
    }

    /// Appends the untraced spans `(name, start, end)`, in order, each with
    /// the one attribute `attr` (`key=value`) — the spans [`Self::record`]
    /// would keep for `Span { trace_id: 0, span_id: 0, parent_span_id: 0,
    /// .. }` — under one lock and without allocating: they are rendered
    /// when read. Per-step annotations (the engine's stage spans) come this
    /// way.
    pub fn record_annotations(
        &self,
        attr: (&'static str, u64),
        spans: impl IntoIterator<Item = (&'static str, f64, f64)>,
    ) {
        let mut buf = self.buf.lock();
        for (name, start, end) in spans {
            let entry = Entry::Annotation {
                name,
                attr,
                start,
                end,
            };
            self.push(&mut buf, entry);
        }
    }

    fn push(&self, buf: &mut SpanBuf, entry: Entry) {
        if buf.spans.len() == self.capacity {
            buf.spans.pop_front();
            buf.dropped += 1;
        }
        buf.spans.push_back(entry);
        buf.total += 1;
    }

    /// All retained spans, in append order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.buf.lock().spans.iter().map(Entry::to_span).collect()
    }

    /// All retained spans belonging to `trace_id`, in append order.
    #[must_use]
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<Span> {
        self.buf
            .lock()
            .spans
            .iter()
            .filter(|s| s.trace_id() == trace_id)
            .map(Entry::to_span)
            .collect()
    }

    /// Number of currently retained spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.lock().spans.len()
    }

    /// Whether the log holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.lock().spans.is_empty()
    }

    /// Spans ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.buf.lock().total
    }

    /// Spans evicted because the buffer was full.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.buf.lock().dropped
    }
}

fn span_to_json(span: &Span) -> Json {
    let mut pairs = vec![
        ("trace_id", Json::Str(format!("{:016x}", span.trace_id))),
        ("span_id", Json::Str(format!("{:016x}", span.span_id))),
        (
            "parent_span_id",
            Json::Str(format!("{:016x}", span.parent_span_id)),
        ),
        ("name", Json::Str(span.name.clone())),
        ("start", Json::Num(span.start)),
        ("end", Json::Num(span.end)),
    ];
    if !span.attrs.is_empty() {
        pairs.push((
            "attrs",
            Json::Obj(
                span.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// Renders `(track name, spans)` pairs as a one-line JSON document in the
/// same style as the metrics exposition: `{"tracks": [{"track": ...,
/// "spans": [...]}]}`.
#[must_use]
pub fn spans_to_json(tracks: &[(String, Vec<Span>)]) -> Json {
    Json::obj(vec![(
        "tracks",
        Json::Arr(
            tracks
                .iter()
                .map(|(name, spans)| {
                    Json::obj(vec![
                        ("track", Json::Str(name.clone())),
                        ("spans", Json::Arr(spans.iter().map(span_to_json).collect())),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Renders `(track name, spans)` pairs as Chrome trace-event JSON, loadable
/// in Perfetto / `chrome://tracing`. Each track becomes one thread (`tid`)
/// under pid 0 with a `thread_name` metadata event; every span becomes one
/// complete (`"ph": "X"`) event with microsecond `ts`/`dur`.
#[must_use]
pub fn spans_to_chrome_trace(tracks: &[(String, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (tid, (name, spans)) in tracks.iter().enumerate() {
        events.push(Json::obj(vec![
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(tid as f64)),
            ("name", Json::Str("thread_name".to_string())),
            ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
        ]));
        for span in spans {
            let mut args = vec![
                (
                    "trace_id".to_string(),
                    Json::Str(format!("{:016x}", span.trace_id)),
                ),
                (
                    "span_id".to_string(),
                    Json::Str(format!("{:016x}", span.span_id)),
                ),
                (
                    "parent_span_id".to_string(),
                    Json::Str(format!("{:016x}", span.parent_span_id)),
                ),
            ];
            args.extend(
                span.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
            );
            events.push(Json::obj(vec![
                ("ph", Json::Str("X".to_string())),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(tid as f64)),
                ("name", Json::Str(span.name.clone())),
                ("cat", Json::Str("vllm".to_string())),
                ("ts", Json::Num(span.start * 1e6)),
                ("dur", Json::Num(span.duration() * 1e6)),
                ("args", Json::Obj(args)),
            ]));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

/// Validates that `spans` form one complete, well-nested tree: unique span
/// ids, a single trace id, exactly one root, every parent resolvable, no
/// parent cycles, and every child interval contained in its parent's
/// (within a small epsilon for float accumulation).
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_span_tree(spans: &[Span]) -> Result<(), String> {
    const EPS: f64 = 1e-9;
    if spans.is_empty() {
        return Err("empty span set".to_string());
    }
    let trace_id = spans[0].trace_id;
    let mut by_id: HashMap<u64, &Span> = HashMap::new();
    let mut roots = 0usize;
    for span in spans {
        if span.trace_id != trace_id {
            return Err(format!(
                "mixed trace ids: {:016x} vs {:016x}",
                trace_id, span.trace_id
            ));
        }
        if by_id.insert(span.span_id, span).is_some() {
            return Err(format!("duplicate span id {:016x}", span.span_id));
        }
        if span.parent_span_id == 0 {
            roots += 1;
        }
        if span.end < span.start - EPS {
            return Err(format!("span {:?} ends before it starts", span.name));
        }
    }
    if roots != 1 {
        return Err(format!("expected exactly one root span, found {roots}"));
    }
    for span in spans {
        if span.parent_span_id == 0 {
            continue;
        }
        let parent = by_id.get(&span.parent_span_id).ok_or_else(|| {
            format!(
                "span {:?} has unresolvable parent {:016x}",
                span.name, span.parent_span_id
            )
        })?;
        if span.start < parent.start - EPS || span.end > parent.end + EPS {
            return Err(format!(
                "span {:?} [{}, {}] not nested in parent {:?} [{}, {}]",
                span.name, span.start, span.end, parent.name, parent.start, parent.end
            ));
        }
        // Walk to the root to reject parent cycles.
        let mut seen = HashSet::new();
        let mut cur = span.span_id;
        while cur != 0 {
            if !seen.insert(cur) {
                return Err(format!("parent cycle through span {cur:016x}"));
            }
            cur = by_id.get(&cur).map_or(0, |s| s.parent_span_id);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: f64, end: f64) -> Span {
        Span {
            trace_id: 7,
            span_id: id,
            parent_span_id: parent,
            name: name.to_string(),
            start,
            end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // The published 64-bit FNV-1a test vectors: trace ids, default
        // sampling seeds and event-log lookups all rest on these values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(trace_seed("foobar"), fnv1a(b"foobar"));
    }

    #[test]
    fn minting_is_deterministic_and_wire_round_trips() {
        let a = TraceContext::mint(trace_seed("req-1"), true);
        let b = TraceContext::mint(trace_seed("req-1"), true);
        assert_eq!(a, b);
        assert!(a.is_active());
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        let c = TraceContext::mint(trace_seed("req-2"), true);
        assert_ne!(a.trace_id, c.trace_id);

        let parsed = TraceContext::from_wire(&a.to_wire()).unwrap();
        assert_eq!(parsed.trace_id, a.trace_id);
        assert_eq!(parsed.span_id, a.span_id);
        assert_eq!(parsed.sampled, a.sampled);

        assert!(TraceContext::from_wire("zz-00-1").is_err());
        assert!(TraceContext::from_wire("12-34").is_err());
        assert!(TraceContext::from_wire("12-34-2").is_err());
        assert!(TraceContext::from_wire("0000000000000000-0000000000000001-1").is_err());
    }

    #[test]
    fn child_slots_are_deterministic_and_distinct() {
        let root = TraceContext::mint(trace_seed("r"), true);
        let a = root.child(1);
        let b = root.child(2);
        assert_eq!(a, root.child(1));
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(a.parent_span_id, root.span_id);
        assert_eq!(a.trace_id, root.trace_id);
        // Attempt siblings: same parent, distinct ids.
        let r0 = root.child(100);
        let r1 = root.child(101);
        assert_eq!(r0.parent_span_id, r1.parent_span_id);
        assert_ne!(r0.span_id, r1.span_id);
    }

    #[test]
    fn span_log_bounds_and_counts() {
        let log = SpanLog::with_capacity(3);
        for i in 0..5u64 {
            log.record(span(i + 1, 0, "s", i as f64, i as f64 + 1.0));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        assert_eq!(log.total_dropped(), 2);
        let retained = log.snapshot();
        assert_eq!(retained[0].span_id, 3);
        assert_eq!(log.spans_for_trace(7).len(), 3);
        assert_eq!(log.spans_for_trace(8).len(), 0);
    }

    #[test]
    fn annotations_read_back_as_the_spans_they_stand_for() {
        let log = SpanLog::with_capacity(3);
        log.record(span(1, 0, "s", 0.0, 1.0));
        log.record_annotations(("step", 41), [("step.execute", 1.0, 2.5)]);
        let want = Span {
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            name: "step.execute".to_string(),
            start: 1.0,
            end: 2.5,
            attrs: vec![("step".to_string(), "41".to_string())],
        };
        assert_eq!(log.snapshot()[1], want);
        assert_eq!(log.spans_for_trace(0), vec![want]);
        assert_eq!(log.spans_for_trace(7).len(), 1);
        // Annotations evict and count like any span.
        for i in 0..3 {
            log.record_annotations(("step", i), [("step.schedule", 0.0, 0.0)]);
        }
        assert_eq!(
            (log.len(), log.total_recorded(), log.total_dropped()),
            (3, 5, 2)
        );
        assert!(log.snapshot().iter().all(|s| s.name == "step.schedule"));
    }

    #[test]
    fn validates_well_nested_tree() {
        let spans = vec![
            span(1, 0, "request", 0.0, 10.0),
            span(2, 1, "attempt", 0.0, 10.0),
            span(3, 2, "queue", 0.0, 2.0),
            span(4, 2, "decode", 2.0, 10.0),
            span(5, 4, "kernel", 2.0, 3.0),
        ];
        validate_span_tree(&spans).unwrap();
    }

    #[test]
    fn rejects_malformed_trees() {
        assert!(validate_span_tree(&[]).is_err());
        // Two roots.
        assert!(
            validate_span_tree(&[span(1, 0, "a", 0.0, 1.0), span(2, 0, "b", 0.0, 1.0)]).is_err()
        );
        // Unresolvable parent.
        assert!(
            validate_span_tree(&[span(1, 0, "a", 0.0, 1.0), span(2, 9, "b", 0.0, 1.0)]).is_err()
        );
        // Child escapes its parent interval.
        assert!(
            validate_span_tree(&[span(1, 0, "a", 0.0, 1.0), span(2, 1, "b", 0.5, 2.0)]).is_err()
        );
        // Duplicate ids.
        assert!(
            validate_span_tree(&[span(1, 0, "a", 0.0, 1.0), span(1, 1, "b", 0.0, 1.0)]).is_err()
        );
    }

    #[test]
    fn chrome_export_is_structurally_valid() {
        let tracks = vec![
            (
                "replica-0".to_string(),
                vec![span(1, 0, "attempt", 0.0, 1.5)],
            ),
            ("router".to_string(), vec![span(2, 1, "route", 0.0, 0.0)]),
        ];
        let doc = spans_to_chrome_trace(&tracks);
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2 span events.
        assert_eq!(events.len(), 4);
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("replica-0")
        );
        let ev = &events[1];
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(1.5e6));

        let line = spans_to_json(&tracks).to_string();
        let parsed = Json::parse(&line).unwrap();
        let tracks_json = parsed.get("tracks").unwrap().as_arr().unwrap();
        assert_eq!(tracks_json.len(), 2);
        let first = tracks_json[0].get("spans").unwrap().as_arr().unwrap();
        assert_eq!(first[0].get("name").unwrap().as_str(), Some("attempt"));
    }
}
