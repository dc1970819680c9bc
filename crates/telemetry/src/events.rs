//! Bounded ring-buffer log of per-request lifecycle events.
//!
//! Every request's trajectory through the engine — arrival, first schedule,
//! per-iteration decodes, preemption (swap or recompute), swap-in, finish —
//! is appended here as it happens. The buffer is bounded: when full, the
//! oldest event (across all requests) is evicted, so recent requests keep a
//! complete timeline while ancient history ages out. Events for one request
//! are always returned in append order.

use std::collections::{HashSet, VecDeque};

use parking_lot::Mutex;

use crate::trace::fnv1a;

/// Default ring-buffer capacity (events, across all requests). An engine
/// takes `VLLM_EVENT_LOG_CAPACITY` instead when it is set.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

/// The answer to an [`EventLog::query`]: distinguishes a request the log
/// never saw from one whose events were evicted by the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum EventQuery {
    /// No event for this request id was ever recorded.
    Unknown,
    /// Events were recorded for this request id but have all been evicted.
    Evicted,
    /// The retained events, in append order.
    Events(Vec<SeqEvent>),
}

/// What happened to a request at one point in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The request entered the waiting queue.
    Arrived,
    /// The request was scheduled for its prompt run.
    Scheduled {
        /// Prompt length in tokens.
        prompt_tokens: usize,
        /// Leading prompt tokens found in the block cache at admission
        /// (their prefill is skipped).
        cached_tokens: usize,
    },
    /// The first output token was produced (TTFT reference point).
    FirstToken,
    /// One decode iteration appended tokens.
    Decoded {
        /// Tokens generated so far (cumulative output length).
        tokens: usize,
    },
    /// The request was preempted out of the running batch.
    Preempted {
        /// Preemption mode: `"swap"` or `"recompute"`.
        mode: String,
        /// GPU blocks swapped out (0 for recompute).
        blocks: usize,
    },
    /// A previously swapped request was brought back to GPU memory.
    SwappedIn {
        /// Blocks copied back in.
        blocks: usize,
    },
    /// The request finished.
    Finished {
        /// Finish reason, e.g. `"stopped"` or `"length_capped"`.
        reason: String,
    },
}

impl EventKind {
    /// Short stable label for exposition (`arrived`, `scheduled`, ...).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Arrived => "arrived",
            Self::Scheduled { .. } => "scheduled",
            Self::FirstToken => "first_token",
            Self::Decoded { .. } => "decoded",
            Self::Preempted { .. } => "preempted",
            Self::SwappedIn { .. } => "swapped_in",
            Self::Finished { .. } => "finished",
        }
    }

    /// Human-readable detail string for exposition (empty for kinds that
    /// carry no payload).
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            Self::Arrived | Self::FirstToken => String::new(),
            Self::Scheduled {
                prompt_tokens,
                cached_tokens,
            } => format!("prompt_tokens={prompt_tokens} cached_tokens={cached_tokens}"),
            Self::Decoded { tokens } => format!("tokens={tokens}"),
            Self::Preempted { mode, blocks } => format!("mode={mode} blocks={blocks}"),
            Self::SwappedIn { blocks } => format!("blocks={blocks}"),
            Self::Finished { reason } => format!("reason={reason}"),
        }
    }
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEvent {
    /// Request the event belongs to.
    pub request_id: String,
    /// Engine-clock timestamp in seconds.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct EventBuf {
    events: VecDeque<SeqEvent>,
    total: u64,
    dropped: u64,
    /// FNV-1a hashes of every request id ever recorded, kept so queries can
    /// distinguish "unknown request" from "events evicted".
    known_ids: HashSet<u64>,
}

/// Bounded, thread-safe ring buffer of [`SeqEvent`]s.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    buf: Mutex<EventBuf>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// Creates a log keeping at most `capacity` events (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Mutex::new(EventBuf {
                events: VecDeque::new(),
                total: 0,
                dropped: 0,
                known_ids: HashSet::new(),
            }),
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, evicting the oldest one if the buffer is full.
    pub fn record(&self, request_id: &str, time: f64, kind: EventKind) {
        let mut buf = self.buf.lock();
        if buf.events.len() == self.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(SeqEvent {
            request_id: request_id.to_string(),
            time,
            kind,
        });
        buf.total += 1;
        buf.known_ids.insert(fnv1a(request_id.as_bytes()));
    }

    /// Looks up `request_id`, distinguishing a request the log never saw
    /// ([`EventQuery::Unknown`]) from one whose events have been evicted
    /// from the ring buffer ([`EventQuery::Evicted`]).
    #[must_use]
    pub fn query(&self, request_id: &str) -> EventQuery {
        let buf = self.buf.lock();
        let events: Vec<SeqEvent> = buf
            .events
            .iter()
            .filter(|e| e.request_id == request_id)
            .cloned()
            .collect();
        if !events.is_empty() {
            return EventQuery::Events(events);
        }
        if buf.known_ids.contains(&fnv1a(request_id.as_bytes())) {
            EventQuery::Evicted
        } else {
            EventQuery::Unknown
        }
    }

    /// All retained events for `request_id`, in append order.
    #[must_use]
    pub fn events_for(&self, request_id: &str) -> Vec<SeqEvent> {
        self.buf
            .lock()
            .events
            .iter()
            .filter(|e| e.request_id == request_id)
            .cloned()
            .collect()
    }

    /// Number of currently retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.lock().events.len()
    }

    /// Whether the log holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.lock().events.is_empty()
    }

    /// Events ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.buf.lock().total
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.buf.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_queries_per_request() {
        let log = EventLog::with_capacity(16);
        log.record("a", 0.0, EventKind::Arrived);
        log.record("b", 0.1, EventKind::Arrived);
        log.record(
            "a",
            0.2,
            EventKind::Scheduled {
                prompt_tokens: 8,
                cached_tokens: 0,
            },
        );
        log.record("a", 0.3, EventKind::FirstToken);
        let a = log.events_for("a");
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].kind.label(), "arrived");
        assert_eq!(a[1].kind.label(), "scheduled");
        assert_eq!(a[2].kind.label(), "first_token");
        assert_eq!(log.events_for("b").len(), 1);
        assert_eq!(log.events_for("missing").len(), 0);
        assert_eq!(log.total_recorded(), 4);
        assert_eq!(log.total_dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_keeps_per_request_order() {
        let log = EventLog::with_capacity(4);
        // Interleave two requests, overflowing the buffer.
        for i in 0..6 {
            let id = if i % 2 == 0 { "even" } else { "odd" };
            log.record(id, f64::from(i), EventKind::Decoded { tokens: i as usize });
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total_recorded(), 6);
        assert_eq!(log.total_dropped(), 2);
        // Oldest two (times 0, 1) evicted; survivors stay in append order.
        let even = log.events_for("even");
        assert_eq!(
            even.iter().map(|e| e.time).collect::<Vec<_>>(),
            vec![2.0, 4.0]
        );
        assert!(even.windows(2).all(|w| w[0].time <= w[1].time));
        let odd = log.events_for("odd");
        assert_eq!(
            odd.iter().map(|e| e.time).collect::<Vec<_>>(),
            vec![3.0, 5.0]
        );
    }

    #[test]
    fn query_distinguishes_unknown_from_evicted() {
        let log = EventLog::with_capacity(2);
        log.record("old", 0.0, EventKind::Arrived);
        assert!(matches!(log.query("old"), EventQuery::Events(ref v) if v.len() == 1));
        assert_eq!(log.query("never"), EventQuery::Unknown);
        // Push the old request's only event out of the ring.
        log.record("new", 1.0, EventKind::Arrived);
        log.record("new", 2.0, EventKind::FirstToken);
        assert_eq!(log.query("old"), EventQuery::Evicted);
        assert!(matches!(log.query("new"), EventQuery::Events(ref v) if v.len() == 2));
        assert_eq!(log.query("never"), EventQuery::Unknown);
    }

    #[test]
    fn detail_strings_are_stable() {
        assert_eq!(EventKind::Arrived.detail(), "");
        assert_eq!(
            EventKind::Preempted {
                mode: "swap".into(),
                blocks: 3
            }
            .detail(),
            "mode=swap blocks=3"
        );
        assert_eq!(
            EventKind::Finished {
                reason: "stopped".into()
            }
            .detail(),
            "reason=stopped"
        );
    }
}
