//! Wire protocol v2: the typed `Command`/`Response` enum pair behind the
//! TCP frontend.
//!
//! Protocol v1 grew verb by verb as loosely parsed tab-separated strings;
//! v2 retires that. Every line a client sends parses into a [`Command`] and
//! every line the server writes is the [`Response::wire`] rendering of a
//! [`Response`] — the string form exists only at the socket boundary, so a
//! verb cannot be half-typed. Version skew is negotiated explicitly:
//!
//! ```text
//! -> HELLO\tversion=<n>
//! <- HELLO\tversion=2                          (versions agree)
//! <- ERR\tprotocol\tfalse\t<message>           (mismatch: pick another peer)
//! ```
//!
//! [`PROTOCOL_VERSION`] is `2`. The deprecated positional `GENERATE` form
//! (`GENERATE\t<max_tokens>\t<n>\t<mode>\t<prompt>`) is *removed*: it maps
//! to a typed [`vllm_core::ErrorKind::Protocol`] error naming the
//! replacement, as does any unknown verb or malformed frame. Protocol
//! errors are never retryable — resending the same bytes cannot help.
//!
//! The disaggregated-serving verbs (`HANDOFF`, `TIER`) are typed-only:
//! they were born in v2 and have no legacy string form. `HANDOFF` carries a
//! [`HandoffPayload`] in its checksummed hex wire encoding; the multi-line
//! `METRICS`/`TRACE` payloads (Prometheus exposition, span-dump JSON) keep
//! their own self-describing formats and are not re-wrapped here.

use std::fmt::Write as _;

use vllm_cluster::EngineStats;
use vllm_core::{ErrorKind, GenerationMode, GenerationRequest, HandoffPayload, VllmError};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 2;

/// Shorthand for request-shape errors ([`VllmError::InvalidRequest`],
/// kind `request`): the frame is well-formed but the content is wrong.
fn invalid(msg: impl Into<String>) -> VllmError {
    VllmError::InvalidRequest(msg.into())
}

/// Shorthand for frame-shape errors ([`VllmError::Protocol`], kind
/// `protocol`): the two ends disagree about the wire format itself.
fn proto(msg: impl Into<String>) -> VllmError {
    VllmError::Protocol(msg.into())
}

/// Checks a client's `HELLO` version against [`PROTOCOL_VERSION`].
///
/// # Errors
///
/// Returns a [`VllmError::Protocol`] naming both versions on mismatch.
pub fn negotiate(version: u32) -> Result<u32, VllmError> {
    if version == PROTOCOL_VERSION {
        Ok(PROTOCOL_VERSION)
    } else {
        Err(proto(format!(
            "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
        )))
    }
}

/// Splits a `key=value` protocol field. Only keys shaped `[a-z_]+` count —
/// anything else starts free text (the prompt).
fn split_field(part: &str) -> Option<(&str, &str)> {
    let (k, v) = part.split_once('=')?;
    if !k.is_empty() && k.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
        Some((k, v))
    } else {
        None
    }
}

/// Splits a `key=value` field of a *response* body. Responses have no free
/// text to delimit, so any key (digits included, e.g. `norm_lat_p50`)
/// counts.
fn split_stat(part: &str) -> Option<(&str, &str)> {
    part.split_once('=')
}

/// The canonical wire name of a generation mode.
fn mode_name(mode: GenerationMode) -> &'static str {
    match mode {
        GenerationMode::Greedy => "greedy",
        GenerationMode::Sample => "sample",
        GenerationMode::Beam => "beam",
    }
}

/// The `METRICS` response format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition, terminated by `END`.
    Prometheus,
    /// One-line JSON snapshot.
    Json,
}

/// A parsed `GENERATE` line: structure only; semantic validation happens in
/// [`GenerateSpec::build`] so error wording lives with the typed builder.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateSpec {
    /// Maximum generated tokens per sequence.
    pub max_tokens: usize,
    /// Number of output sequences (defaults to 1 on the wire).
    pub n: usize,
    /// Decoding mode.
    pub mode: GenerationMode,
    /// Optional `key=value` fields in wire order (temperature, top_p, seed,
    /// deadline, priority, trace — validated by
    /// [`GenerationRequest::apply_field`]).
    pub fields: Vec<(String, String)>,
    /// The prompt text (tabs preserved).
    pub prompt: String,
}

impl GenerateSpec {
    /// Converts the spec into a typed [`GenerationRequest`], rejecting
    /// unknown or malformed optional fields.
    ///
    /// # Errors
    ///
    /// Returns the typed builder's error for any bad field.
    pub fn build(&self) -> Result<GenerationRequest, VllmError> {
        let mut req = match self.mode {
            GenerationMode::Greedy => GenerationRequest::greedy(self.max_tokens),
            GenerationMode::Sample => GenerationRequest::sample(self.n, self.max_tokens),
            GenerationMode::Beam => GenerationRequest::beam(self.n, self.max_tokens),
        };
        req.n = self.n;
        for (key, value) in &self.fields {
            req.apply_field(key, value)?;
        }
        Ok(req)
    }
}

/// One client→server line, typed.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `HELLO\tversion=<n>` — version negotiation.
    Hello {
        /// The client's protocol version.
        version: u32,
    },
    /// `GENERATE\tmax_tokens=<n>\t[n=<n>\t]mode=<mode>[\t<k>=<v>...]\t<prompt>`.
    Generate(GenerateSpec),
    /// `STATS` — aggregated (and per-replica) serving snapshots.
    Stats,
    /// `METRICS` / `METRICS\tjson` — telemetry registry exposition.
    Metrics(MetricsFormat),
    /// `EVENTS\t<request_id>` — request lifecycle replay.
    Events {
        /// The request id to replay.
        request_id: String,
    },
    /// `TRACE\t<trace_id:016x>` — span dump for a trace.
    Trace {
        /// The (nonzero) trace id.
        trace_id: u64,
    },
    /// `HANDOFF\t<payload-hex>` — install a serialized KV prefix into the
    /// decode pool (typed-only; born in v2).
    Handoff(HandoffPayload),
    /// `TIER` — cluster-shared prefix-tier snapshot (typed-only).
    Tier,
    /// `SHUTDOWN` — stop accepting work and drain.
    Shutdown,
}

impl Command {
    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Frame-shape problems (unknown verb, retired positional `GENERATE`,
    /// malformed `HELLO`/`HANDOFF`) return [`VllmError::Protocol`]; content
    /// problems inside a well-formed frame (missing `max_tokens`, bad trace
    /// id, …) return [`VllmError::InvalidRequest`].
    pub fn parse(line: &str) -> Result<Self, VllmError> {
        let parts: Vec<&str> = line.split('\t').collect();
        match *parts.first().unwrap_or(&"") {
            "HELLO" => match parts.get(1).and_then(|p| split_field(p)) {
                Some(("version", v)) if parts.len() == 2 => {
                    let version = v
                        .parse()
                        .map_err(|_| proto(format!("bad HELLO version {v:?}")))?;
                    Ok(Self::Hello { version })
                }
                _ => Err(proto("HELLO takes exactly version=<n>")),
            },
            "GENERATE" => Self::parse_generate(&parts),
            "STATS" => {
                if parts.len() == 1 {
                    Ok(Self::Stats)
                } else {
                    Err(invalid("STATS takes no arguments"))
                }
            }
            "METRICS" => match parts.as_slice() {
                ["METRICS"] => Ok(Self::Metrics(MetricsFormat::Prometheus)),
                ["METRICS", "json"] => Ok(Self::Metrics(MetricsFormat::Json)),
                _ => Err(invalid(
                    "unknown METRICS format (use METRICS or METRICS\\tjson)",
                )),
            },
            "EVENTS" => match parts.as_slice() {
                ["EVENTS", id] if !id.is_empty() => Ok(Self::Events {
                    request_id: (*id).to_string(),
                }),
                _ => Err(invalid("EVENTS takes exactly one request id")),
            },
            "TRACE" => match parts.as_slice() {
                ["TRACE", id] if !id.is_empty() => {
                    match u64::from_str_radix(id.trim_start_matches("0x"), 16) {
                        Ok(trace_id) if trace_id != 0 => Ok(Self::Trace { trace_id }),
                        _ => Err(invalid("bad trace id (want 16 hex digits, nonzero)")),
                    }
                }
                _ => Err(invalid("TRACE takes exactly one trace id")),
            },
            "HANDOFF" => match parts.as_slice() {
                ["HANDOFF", hex] if !hex.is_empty() => {
                    let payload = HandoffPayload::decode_wire(hex)?;
                    payload.validate()?;
                    Ok(Self::Handoff(payload))
                }
                _ => Err(proto("HANDOFF takes exactly one payload")),
            },
            "TIER" => {
                if parts.len() == 1 {
                    Ok(Self::Tier)
                } else {
                    Err(invalid("TIER takes no arguments"))
                }
            }
            "SHUTDOWN" => {
                if parts.len() == 1 {
                    Ok(Self::Shutdown)
                } else {
                    Err(invalid("SHUTDOWN takes no arguments"))
                }
            }
            verb => Err(proto(format!(
                "unknown verb {verb:?} (protocol v{PROTOCOL_VERSION})"
            ))),
        }
    }

    /// Parses the typed `GENERATE` fields; the retired positional form is
    /// detected (numeric second field) and answered with a protocol error
    /// naming the replacement.
    fn parse_generate(parts: &[&str]) -> Result<Self, VllmError> {
        if let Some(second) = parts.get(1) {
            if split_field(second).is_none() && second.parse::<usize>().is_ok() {
                return Err(proto(
                    "positional GENERATE was removed in protocol v2; \
                     send GENERATE\\tmax_tokens=<n>\\t[n=<n>\\t]mode=<mode>\\t<prompt>",
                ));
            }
        }
        let mut max_tokens: Option<usize> = None;
        let mut n: usize = 1;
        let mut mode: Option<GenerationMode> = None;
        let mut fields: Vec<(String, String)> = Vec::new();
        let mut i = 1;
        while i < parts.len() {
            let Some((key, value)) = split_field(parts[i]) else {
                break;
            };
            match key {
                "max_tokens" => {
                    max_tokens = Some(value.parse().map_err(|_| invalid("bad max_tokens"))?);
                }
                "n" => n = value.parse().map_err(|_| invalid("bad n"))?,
                "mode" => mode = Some(value.parse()?),
                // Defer the shared optional fields to the typed builder;
                // unknown keys are rejected there.
                _ => fields.push((key.to_string(), value.to_string())),
            }
            i += 1;
        }
        let max_tokens = max_tokens.ok_or_else(|| invalid("missing max_tokens"))?;
        let mode = mode.ok_or_else(|| invalid("missing mode"))?;
        if i >= parts.len() {
            return Err(invalid("missing prompt"));
        }
        let prompt = parts[i..].join("\t");
        if prompt.is_empty() {
            return Err(invalid("empty prompt"));
        }
        Ok(Self::Generate(GenerateSpec {
            max_tokens,
            n,
            mode,
            fields,
            prompt,
        }))
    }

    /// Renders the command back to its canonical wire line.
    #[must_use]
    pub fn wire(&self) -> String {
        match self {
            Self::Hello { version } => format!("HELLO\tversion={version}"),
            Self::Generate(spec) => {
                let mut line = format!(
                    "GENERATE\tmax_tokens={}\tn={}\tmode={}",
                    spec.max_tokens,
                    spec.n,
                    mode_name(spec.mode)
                );
                for (k, v) in &spec.fields {
                    let _ = write!(line, "\t{k}={v}");
                }
                let _ = write!(line, "\t{}", spec.prompt);
                line
            }
            Self::Stats => "STATS".into(),
            Self::Metrics(MetricsFormat::Prometheus) => "METRICS".into(),
            Self::Metrics(MetricsFormat::Json) => "METRICS\tjson".into(),
            Self::Events { request_id } => format!("EVENTS\t{request_id}"),
            Self::Trace { trace_id } => format!("TRACE\t{trace_id:016x}"),
            Self::Handoff(payload) => format!("HANDOFF\t{}", payload.encode_wire()),
            Self::Tier => "TIER".into(),
            Self::Shutdown => "SHUTDOWN".into(),
        }
    }
}

/// A snapshot of the cluster-shared prefix tier (the `TIER` reply). All
/// zeros — capacity included — means the tier is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Entries resident.
    pub entries: usize,
    /// KV blocks held.
    pub blocks: usize,
    /// Capacity in KV blocks (0 = disabled).
    pub capacity: usize,
    /// Lookups that found a usable prefix.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Prefixes published.
    pub insertions: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
}

/// One server→client line, typed. Multi-line `METRICS`/`TRACE` payloads
/// keep their own formats and are not wrapped here.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `HELLO\tversion=<n>` — the server's side of version negotiation.
    Hello {
        /// The server's protocol version.
        version: u32,
    },
    /// `OK\t<request_id>\t<num_outputs>` — generation accepted & finished.
    Ok {
        /// Server-assigned request id.
        request_id: String,
        /// Number of `OUT` lines that follow.
        num_outputs: usize,
    },
    /// `OK\tshutdown` — shutdown acknowledged.
    OkShutdown,
    /// `OUT\t<index>\t<cumulative_logprob>\t<text>`.
    Out {
        /// Output sequence index.
        index: usize,
        /// Cumulative log-probability.
        cumulative_logprob: f64,
        /// Decoded text (tabs/newlines replaced server-side).
        text: String,
    },
    /// `END` — terminates a multi-line reply.
    End,
    /// `STATS\t<key=value...>` — fleet-aggregated serving snapshot.
    Stats(EngineStats),
    /// `RSTATS\t<replica>\t<key=value...>` — one replica's snapshot.
    RStats {
        /// Replica index.
        replica: usize,
        /// The snapshot.
        stats: EngineStats,
    },
    /// `EVENT\t<time>\t<kind>\t<detail>` — one lifecycle event.
    Event {
        /// Engine time of the event.
        time: f64,
        /// Event kind label.
        kind: String,
        /// Event detail.
        detail: String,
    },
    /// `NOEVENTS\tunknown|evicted` — nothing to replay, and why.
    NoEvents {
        /// `true` when the id was seen but its events aged out.
        evicted: bool,
    },
    /// `HANDOFF\treplica=<i>\tblocks=<n>` — payload installed (into free
    /// blocks of the replica's cache: there is no pin to name).
    Handoff {
        /// Replica the prefix was installed on.
        replica: usize,
        /// Blocks the payload carried.
        blocks: usize,
    },
    /// `TIER\t<key=value...>` — prefix-tier snapshot.
    Tier(TierSnapshot),
    /// `ERR\t<kind>\t<retryable>\t<message>`.
    Err {
        /// The error taxonomy kind.
        kind: ErrorKind,
        /// Whether retrying (elsewhere or later) can help.
        retryable: bool,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// The typed rendering of a server-side error.
    #[must_use]
    pub fn from_error(e: &VllmError) -> Self {
        Self::Err {
            kind: e.kind(),
            retryable: e.is_retryable(),
            message: e.to_string(),
        }
    }

    /// Renders the response to its wire line.
    #[must_use]
    pub fn wire(&self) -> String {
        match self {
            Self::Hello { version } => format!("HELLO\tversion={version}"),
            Self::Ok {
                request_id,
                num_outputs,
            } => format!("OK\t{request_id}\t{num_outputs}"),
            Self::OkShutdown => "OK\tshutdown".into(),
            Self::Out {
                index,
                cumulative_logprob,
                text,
            } => format!("OUT\t{index}\t{cumulative_logprob:.4}\t{text}"),
            Self::End => "END".into(),
            Self::Stats(s) => format!("STATS\t{}", stats_body(s)),
            Self::RStats { replica, stats } => format!("RSTATS\t{replica}\t{}", stats_body(stats)),
            Self::Event { time, kind, detail } => format!("EVENT\t{time:.6}\t{kind}\t{detail}"),
            Self::NoEvents { evicted } => format!(
                "NOEVENTS\t{}",
                if *evicted { "evicted" } else { "unknown" }
            ),
            Self::Handoff { replica, blocks } => {
                format!("HANDOFF\treplica={replica}\tblocks={blocks}")
            }
            Self::Tier(t) => format!(
                "TIER\tentries={}\tblocks={}\tcapacity={}\thits={}\tmisses={}\tinsertions={}\tevictions={}",
                t.entries, t.blocks, t.capacity, t.hits, t.misses, t.insertions, t.evictions
            ),
            Self::Err {
                kind,
                retryable,
                message,
            } => format!("ERR\t{}\t{retryable}\t{message}", kind.wire_name()),
        }
    }

    /// Parses one server wire line back into the typed response (the
    /// client's half of the round-trip).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::Protocol`] for lines that are not a v2 response
    /// frame.
    pub fn parse(line: &str) -> Result<Self, VllmError> {
        let parts: Vec<&str> = line.split('\t').collect();
        let bad = || proto(format!("bad response frame {line:?}"));
        match *parts.first().unwrap_or(&"") {
            "HELLO" => match parts.get(1).and_then(|p| split_field(p)) {
                Some(("version", v)) if parts.len() == 2 => Ok(Self::Hello {
                    version: v.parse().map_err(|_| bad())?,
                }),
                _ => Err(bad()),
            },
            "OK" => match parts.as_slice() {
                ["OK", "shutdown"] => Ok(Self::OkShutdown),
                ["OK", id, n] => Ok(Self::Ok {
                    request_id: (*id).to_string(),
                    num_outputs: n.parse().map_err(|_| bad())?,
                }),
                _ => Err(bad()),
            },
            "OUT" => {
                let mut f = line.splitn(4, '\t');
                f.next();
                let index = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let cumulative_logprob = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let text = f.next().ok_or_else(bad)?.to_string();
                Ok(Self::Out {
                    index,
                    cumulative_logprob,
                    text,
                })
            }
            "END" if parts.len() == 1 => Ok(Self::End),
            "STATS" if parts.len() > 1 => Ok(Self::Stats(parse_stats_body(&parts[1..])?)),
            "RSTATS" if parts.len() > 2 => Ok(Self::RStats {
                replica: parts[1].parse().map_err(|_| bad())?,
                stats: parse_stats_body(&parts[2..])?,
            }),
            "EVENT" => {
                let mut f = line.splitn(4, '\t');
                f.next();
                let time = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let kind = f.next().ok_or_else(bad)?.to_string();
                let detail = f.next().ok_or_else(bad)?.to_string();
                Ok(Self::Event { time, kind, detail })
            }
            "NOEVENTS" => match parts.as_slice() {
                ["NOEVENTS", "unknown"] => Ok(Self::NoEvents { evicted: false }),
                ["NOEVENTS", "evicted"] => Ok(Self::NoEvents { evicted: true }),
                _ => Err(bad()),
            },
            "HANDOFF" => {
                let mut replica = None;
                let mut blocks = None;
                for p in &parts[1..] {
                    match split_stat(p) {
                        Some(("replica", v)) => replica = v.parse().ok(),
                        Some(("blocks", v)) => blocks = v.parse().ok(),
                        _ => return Err(bad()),
                    }
                }
                match (replica, blocks) {
                    (Some(replica), Some(blocks)) => Ok(Self::Handoff { replica, blocks }),
                    _ => Err(bad()),
                }
            }
            "TIER" => {
                let mut t = TierSnapshot::default();
                for p in &parts[1..] {
                    let (k, v) = split_stat(p).ok_or_else(bad)?;
                    match k {
                        "entries" => t.entries = v.parse().map_err(|_| bad())?,
                        "blocks" => t.blocks = v.parse().map_err(|_| bad())?,
                        "capacity" => t.capacity = v.parse().map_err(|_| bad())?,
                        "hits" => t.hits = v.parse().map_err(|_| bad())?,
                        "misses" => t.misses = v.parse().map_err(|_| bad())?,
                        "insertions" => t.insertions = v.parse().map_err(|_| bad())?,
                        "evictions" => t.evictions = v.parse().map_err(|_| bad())?,
                        _ => return Err(bad()),
                    }
                }
                Ok(Self::Tier(t))
            }
            "ERR" => {
                let mut f = line.splitn(4, '\t');
                f.next();
                let kind = match f.next().ok_or_else(bad)? {
                    "resource" => ErrorKind::Resource,
                    "request" => ErrorKind::Request,
                    "internal" => ErrorKind::Internal,
                    "unavailable" => ErrorKind::Unavailable,
                    "protocol" => ErrorKind::Protocol,
                    _ => return Err(bad()),
                };
                let retryable = f.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let message = f.next().ok_or_else(bad)?.to_string();
                Ok(Self::Err {
                    kind,
                    retryable,
                    message,
                })
            }
            _ => Err(bad()),
        }
    }
}

/// The `key=value` body shared by `STATS` and `RSTATS` lines.
#[must_use]
pub fn stats_body(s: &EngineStats) -> String {
    format!(
        "waiting={}\trunning={}\tswapped={}\toutstanding_tokens={}\tfree_blocks={}\ttotal_blocks={}\tfinished={}\tpreemptions={}\tsteps={}\ttokens_scheduled={}\tblocks_copied={}\tblocks_swapped={}\tschedule_time={:.6}\tprepare_time={:.6}\texecute_time={:.6}\tpostprocess_time={:.6}\tnorm_lat_mean={:.6}\tnorm_lat_p50={:.6}\tnorm_lat_p90={:.6}\tnorm_lat_p99={:.6}\tttft_mean={:.6}\tttft_p50={:.6}\tttft_p99={:.6}",
        s.waiting, s.running, s.swapped, s.outstanding_tokens, s.free_blocks, s.total_blocks,
        s.finished, s.preemptions, s.steps, s.tokens_scheduled, s.blocks_copied, s.blocks_swapped,
        s.schedule_time, s.prepare_time, s.execute_time, s.postprocess_time,
        s.norm_lat_mean, s.norm_lat_p50, s.norm_lat_p90, s.norm_lat_p99,
        s.ttft_mean, s.ttft_p50, s.ttft_p99
    )
}

/// Parses the `key=value` fields of a `STATS`/`RSTATS` body.
fn parse_stats_body(fields: &[&str]) -> Result<EngineStats, VllmError> {
    let mut s = EngineStats::default();
    for part in fields {
        let (k, v) = split_stat(part).ok_or_else(|| proto(format!("bad stats field {part:?}")))?;
        let bad = || proto(format!("bad stats value {part:?}"));
        match k {
            "waiting" => s.waiting = v.parse().map_err(|_| bad())?,
            "running" => s.running = v.parse().map_err(|_| bad())?,
            "swapped" => s.swapped = v.parse().map_err(|_| bad())?,
            "outstanding_tokens" => s.outstanding_tokens = v.parse().map_err(|_| bad())?,
            "free_blocks" => s.free_blocks = v.parse().map_err(|_| bad())?,
            "total_blocks" => s.total_blocks = v.parse().map_err(|_| bad())?,
            "finished" => s.finished = v.parse().map_err(|_| bad())?,
            "preemptions" => s.preemptions = v.parse().map_err(|_| bad())?,
            "steps" => s.steps = v.parse().map_err(|_| bad())?,
            "tokens_scheduled" => s.tokens_scheduled = v.parse().map_err(|_| bad())?,
            "blocks_copied" => s.blocks_copied = v.parse().map_err(|_| bad())?,
            "blocks_swapped" => s.blocks_swapped = v.parse().map_err(|_| bad())?,
            "schedule_time" => s.schedule_time = v.parse().map_err(|_| bad())?,
            "prepare_time" => s.prepare_time = v.parse().map_err(|_| bad())?,
            "execute_time" => s.execute_time = v.parse().map_err(|_| bad())?,
            "postprocess_time" => s.postprocess_time = v.parse().map_err(|_| bad())?,
            "norm_lat_mean" => s.norm_lat_mean = v.parse().map_err(|_| bad())?,
            "norm_lat_p50" => s.norm_lat_p50 = v.parse().map_err(|_| bad())?,
            "norm_lat_p90" => s.norm_lat_p90 = v.parse().map_err(|_| bad())?,
            "norm_lat_p99" => s.norm_lat_p99 = v.parse().map_err(|_| bad())?,
            "ttft_mean" => s.ttft_mean = v.parse().map_err(|_| bad())?,
            "ttft_p50" => s.ttft_p50 = v.parse().map_err(|_| bad())?,
            "ttft_p99" => s.ttft_p99 = v.parse().map_err(|_| bad())?,
            _ => return Err(proto(format!("unknown stats field {k:?}"))),
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vllm_core::KvBlockBytes;

    #[test]
    fn commands_round_trip_through_the_wire() {
        let lines = [
            "HELLO\tversion=2",
            "GENERATE\tmax_tokens=8\tn=1\tmode=greedy\thello world",
            "GENERATE\tmax_tokens=8\tn=3\tmode=sample\ttemperature=0.7\tseed=9\ttell me",
            "STATS",
            "METRICS",
            "METRICS\tjson",
            "EVENTS\treq-0",
            "TRACE\t00000000deadbeef",
            "TIER",
            "SHUTDOWN",
        ];
        for line in lines {
            let cmd = Command::parse(line).expect(line);
            assert_eq!(cmd.wire(), line, "round trip of {line:?}");
        }
    }

    #[test]
    fn handoff_command_round_trips_payload() {
        let payload = HandoffPayload {
            request_id: "req-7".into(),
            tokens: (0..8u32).collect(),
            first_token: Some(42),
            seed: 7,
            block_size: 4,
            blocks: vec![KvBlockBytes::empty(), KvBlockBytes::empty()],
        };
        let line = Command::Handoff(payload.clone()).wire();
        let Command::Handoff(decoded) = Command::parse(&line).expect("parses") else {
            panic!("expected Handoff");
        };
        assert_eq!(decoded.tokens, payload.tokens);
        assert_eq!(decoded.first_token, Some(42));
        assert_eq!(decoded.blocks.len(), 2);
        // A corrupt payload is a protocol-kind error.
        let err = Command::parse("HANDOFF\tzz-not-hex").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
    }

    #[test]
    fn positional_generate_is_retired_with_a_protocol_error() {
        let err = Command::parse("GENERATE\t12\t1\tgreedy\thello").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("positional GENERATE was removed"));
        // A prompt-looking (non-numeric) second field is a content error,
        // not a frame error: the typed form simply lacks max_tokens.
        let err = Command::parse("GENERATE\thello there").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Request);
        assert!(err.to_string().contains("missing max_tokens"));
    }

    #[test]
    fn unknown_verbs_and_version_mismatch_are_protocol_errors() {
        let err = Command::parse("NOPE\thi").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(err.to_string().contains("unknown verb"));
        assert!(negotiate(PROTOCOL_VERSION).is_ok());
        let err = negotiate(1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("unsupported protocol version 1"));
    }

    #[test]
    fn generate_spec_builds_typed_requests() {
        let Command::Generate(spec) = Command::parse(
            "GENERATE\tmax_tokens=16\tn=2\tmode=sample\ttemperature=0.5\ttop_p=0.9\thi",
        )
        .unwrap() else {
            panic!("expected Generate");
        };
        let req = spec.build().unwrap();
        assert_eq!(req.max_tokens, 16);
        assert_eq!(req.n, 2);
        assert_eq!(req.temperature, Some(0.5));
        // Unknown fields are rejected by the typed builder.
        let Command::Generate(spec) =
            Command::parse("GENERATE\tmax_tokens=4\tmode=greedy\tbogus=1\thi").unwrap()
        else {
            panic!("expected Generate");
        };
        assert!(spec.build().is_err());
    }

    #[test]
    fn responses_round_trip_through_the_wire() {
        let stats = EngineStats {
            waiting: 1,
            running: 2,
            finished: 7,
            total_blocks: 64,
            ttft_p99: 0.125,
            ..EngineStats::default()
        };
        let responses = [
            Response::Hello { version: 2 },
            Response::Ok {
                request_id: "req-3".into(),
                num_outputs: 2,
            },
            Response::OkShutdown,
            Response::Out {
                index: 0,
                cumulative_logprob: -1.25,
                text: "hello".into(),
            },
            Response::End,
            Response::Stats(stats),
            Response::RStats { replica: 1, stats },
            Response::Event {
                time: 0.5,
                kind: "admitted".into(),
                detail: "replica=0".into(),
            },
            Response::NoEvents { evicted: true },
            Response::Handoff {
                replica: 3,
                blocks: 4,
            },
            Response::Tier(TierSnapshot {
                entries: 2,
                blocks: 8,
                capacity: 64,
                hits: 5,
                misses: 1,
                insertions: 2,
                evictions: 0,
            }),
            Response::Err {
                kind: ErrorKind::Protocol,
                retryable: false,
                message: "unknown verb \"NOPE\"".into(),
            },
        ];
        for r in responses {
            let line = r.wire();
            let parsed = Response::parse(&line).expect(&line);
            assert_eq!(parsed.wire(), line, "round trip of {line:?}");
        }
    }

    #[test]
    fn error_responses_match_the_legacy_err_line() {
        let e = VllmError::InvalidRequest("missing mode".into());
        assert_eq!(
            Response::from_error(&e).wire(),
            format!("ERR\t{}", e.wire_body())
        );
    }
}
