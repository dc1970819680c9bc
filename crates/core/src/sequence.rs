//! Sequences and sequence groups (§4.5, §5.2).
//!
//! A [`Sequence`] is one stream of tokens (prompt + generated output). A
//! [`SequenceGroup`] is the set of sequences spawned by one request — e.g.
//! the `n` samples of parallel sampling or the `k` candidates of beam search
//! — which are gang-scheduled and preempted together (§4.5).

use std::collections::HashMap;

use vllm_telemetry::TraceContext;

use crate::sampling::{SamplingParams, TokenId};

/// Globally unique sequence identifier.
pub type SeqId = u64;

/// Lifecycle state of a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceStatus {
    /// Not yet admitted (or preempted by recomputation).
    Waiting,
    /// Currently resident in GPU KV memory and being decoded.
    Running,
    /// Preempted; its KV blocks live in the CPU swap pool.
    Swapped,
    /// Finished because the end-of-sequence token was emitted.
    FinishedStopped,
    /// Finished because the per-request `max_tokens` or the model context
    /// length was reached.
    FinishedLengthCapped,
    /// Dropped by beam search (no longer among the top-k candidates).
    FinishedDropped,
    /// Aborted by the client.
    FinishedAborted,
    /// Cancelled because the request's deadline passed before it finished.
    FinishedDeadline,
}

impl SequenceStatus {
    /// Whether the sequence has reached a terminal state.
    #[must_use]
    pub fn is_finished(self) -> bool {
        matches!(
            self,
            Self::FinishedStopped
                | Self::FinishedLengthCapped
                | Self::FinishedDropped
                | Self::FinishedAborted
                | Self::FinishedDeadline
        )
    }
}

/// Token data of a sequence.
///
/// `prompt_len` marks the boundary between prompt and generated tokens. On
/// recomputation-based preemption the generated tokens are merged into the
/// prompt (§4.5: "the tokens generated at decoding can be concatenated with
/// the original user prompt as a new prompt").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceData {
    tokens: Vec<TokenId>,
    prompt_len: usize,
    /// Length of the original user prompt, before any recompute merging.
    original_prompt_len: usize,
    /// Number of tokens whose KV cache has been computed and stored.
    num_computed_tokens: usize,
}

impl SequenceData {
    /// Creates sequence data from a prompt.
    #[must_use]
    pub fn new(prompt: Vec<TokenId>) -> Self {
        let prompt_len = prompt.len();
        Self {
            tokens: prompt,
            prompt_len,
            original_prompt_len: prompt_len,
            num_computed_tokens: 0,
        }
    }

    /// All tokens (prompt followed by output).
    #[must_use]
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Total number of tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the sequence holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Current prompt length (may include merged output after recompute).
    #[must_use]
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// Length of the original user prompt.
    #[must_use]
    pub fn original_prompt_len(&self) -> usize {
        self.original_prompt_len
    }

    /// The prompt tokens.
    #[must_use]
    pub fn prompt_tokens(&self) -> &[TokenId] {
        &self.tokens[..self.prompt_len]
    }

    /// The generated tokens (relative to the current prompt boundary).
    #[must_use]
    pub fn output_tokens(&self) -> &[TokenId] {
        &self.tokens[self.prompt_len..]
    }

    /// Number of generated tokens relative to the *original* prompt; this is
    /// the output length used for normalized-latency metrics even after
    /// recompute merging.
    #[must_use]
    pub fn num_output_tokens(&self) -> usize {
        self.tokens.len() - self.original_prompt_len
    }

    /// Appends one generated token.
    pub fn append_token(&mut self, token: TokenId) {
        self.tokens.push(token);
    }

    /// The most recent token (input for the next generation iteration).
    #[must_use]
    pub fn last_token(&self) -> Option<TokenId> {
        self.tokens.last().copied()
    }

    /// Number of tokens whose KV entries are stored in the cache.
    #[must_use]
    pub fn num_computed_tokens(&self) -> usize {
        self.num_computed_tokens
    }

    /// Records that the KV cache now covers `n` tokens.
    pub fn set_num_computed_tokens(&mut self, n: usize) {
        debug_assert!(n <= self.tokens.len());
        self.num_computed_tokens = n;
    }

    /// Whether prompt rows remain uncomputed: the sequence is mid-prefill
    /// (under chunked prefill, its chunk cursor is
    /// [`num_computed_tokens`](Self::num_computed_tokens)).
    #[must_use]
    pub fn in_prefill(&self) -> bool {
        self.num_computed_tokens < self.prompt_len
    }

    /// Merges generated tokens into the prompt and resets the computed-token
    /// counter, preparing the sequence for recomputation (§4.5).
    pub fn reset_for_recompute(&mut self) {
        self.prompt_len = self.tokens.len();
        self.num_computed_tokens = 0;
    }
}

/// One stream of tokens plus its decode bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Unique id.
    pub seq_id: SeqId,
    /// Token data.
    pub data: SequenceData,
    /// Lifecycle status.
    pub status: SequenceStatus,
    /// Cumulative log-probability of the generated tokens (beam search).
    pub cumulative_logprob: f64,
    /// Which of its request's parallel samples this is: 0 for the root,
    /// `i` for the `i`-th child forked after the prompt step. With the
    /// request seed and the position it names the sequence's random stream,
    /// so sampled tokens do not depend on what else the engine has served.
    pub sample_index: u64,
    /// KV block size, cached here to derive logical block counts.
    block_size: usize,
}

impl Sequence {
    /// Creates a new waiting sequence from a prompt.
    #[must_use]
    pub fn new(seq_id: SeqId, prompt: Vec<TokenId>, block_size: usize) -> Self {
        Self {
            seq_id,
            data: SequenceData::new(prompt),
            status: SequenceStatus::Waiting,
            cumulative_logprob: 0.0,
            sample_index: 0,
            block_size,
        }
    }

    /// Total token count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the sequence holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of logical KV blocks needed for the current tokens.
    #[must_use]
    pub fn num_logical_blocks(&self) -> usize {
        self.data.len().div_ceil(self.block_size)
    }

    /// Number of KV slots used in the last logical block (0 means the last
    /// block is exactly full).
    #[must_use]
    pub fn last_block_fill(&self) -> usize {
        self.data.len() % self.block_size
    }

    /// Whether the sequence is in a terminal state.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.status.is_finished()
    }

    /// KV block size this sequence was created with.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Creates a child sequence that shares this sequence's token history
    /// (the `fork` primitive of §5.2). Block-table sharing is handled by the
    /// block manager; this only duplicates the token bookkeeping.
    #[must_use]
    pub fn fork(&self, child_id: SeqId) -> Self {
        let mut child = self.clone();
        child.seq_id = child_id;
        child
    }
}

/// A group of sequences originating from one request, gang-scheduled as a
/// unit (§4.5).
#[derive(Debug, Clone)]
pub struct SequenceGroup {
    /// Client-visible request id.
    pub request_id: String,
    /// Member sequences keyed by id. Iteration uses sorted order for
    /// determinism.
    seqs: HashMap<SeqId, Sequence>,
    /// Sampling parameters of the request.
    pub sampling_params: SamplingParams,
    /// Arrival time in seconds (drives FCFS ordering).
    pub arrival_time: f64,
    /// Time the first token was produced, for latency metrics.
    pub first_token_time: Option<f64>,
    /// Time the most recent token was produced, for inter-token latency
    /// metrics.
    pub last_token_time: Option<f64>,
    /// Number of times this group was preempted (metrics only).
    pub num_preemptions: u32,
    /// Leading prompt tokens found in the block cache when the group was
    /// first admitted (telemetry: the `Scheduled` event, the `prefill`
    /// span).
    pub cached_tokens: usize,
    /// Absolute deadline in engine (virtual) time seconds; the engine
    /// cancels the group if it is unfinished when the clock passes this.
    pub deadline: Option<f64>,
    /// Scheduling priority: higher is admitted first, ties break FCFS.
    pub priority: i32,
    /// Trace context minted (or propagated) at admission; inactive
    /// (`trace_id == 0`) when the request was not sampled for tracing.
    pub trace: TraceContext,
    /// Virtual time this group was first scheduled (start of its prefill),
    /// for the `queue`/`prefill` span boundary.
    pub first_scheduled_time: Option<f64>,
}

impl SequenceGroup {
    /// Creates a group holding one initial sequence.
    ///
    /// Parallel sampling and beam search groups also start with a single
    /// sequence; the engine forks it after the prompt run (Fig. 8).
    #[must_use]
    pub fn new(
        request_id: impl Into<String>,
        seq: Sequence,
        sampling_params: SamplingParams,
        arrival_time: f64,
    ) -> Self {
        let mut seqs = HashMap::new();
        seqs.insert(seq.seq_id, seq);
        Self {
            request_id: request_id.into(),
            seqs,
            sampling_params,
            arrival_time,
            first_token_time: None,
            last_token_time: None,
            num_preemptions: 0,
            cached_tokens: 0,
            deadline: None,
            priority: 0,
            trace: TraceContext::default(),
            first_scheduled_time: None,
        }
    }

    /// Returns the sequence with the given id.
    #[must_use]
    pub fn get(&self, seq_id: SeqId) -> Option<&Sequence> {
        self.seqs.get(&seq_id)
    }

    /// Returns the sequence with the given id, mutably.
    pub fn get_mut(&mut self, seq_id: SeqId) -> Option<&mut Sequence> {
        self.seqs.get_mut(&seq_id)
    }

    /// Inserts a (forked) sequence into the group.
    pub fn add(&mut self, seq: Sequence) {
        self.seqs.insert(seq.seq_id, seq);
    }

    /// Removes a sequence from the group, returning it.
    pub fn remove(&mut self, seq_id: SeqId) -> Option<Sequence> {
        self.seqs.remove(&seq_id)
    }

    /// Every member sequence, in no particular order (allocates nothing,
    /// unlike [`Self::seqs`]).
    pub fn seqs_any_order(&self) -> impl Iterator<Item = &Sequence> {
        self.seqs.values()
    }

    /// All member sequences in ascending id order.
    #[must_use]
    pub fn seqs(&self) -> Vec<&Sequence> {
        let mut v: Vec<&Sequence> = self.seqs.values().collect();
        v.sort_by_key(|s| s.seq_id);
        v
    }

    /// Ids of member sequences in the given status, ascending.
    #[must_use]
    pub fn seq_ids_with_status(&self, status: SequenceStatus) -> Vec<SeqId> {
        let mut v: Vec<SeqId> = self
            .seqs
            .values()
            .filter(|s| s.status == status)
            .map(|s| s.seq_id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Member sequences in the given status, ascending id order.
    #[must_use]
    pub fn seqs_with_status(&self, status: SequenceStatus) -> Vec<&Sequence> {
        let mut v: Vec<&Sequence> = self.seqs.values().filter(|s| s.status == status).collect();
        v.sort_by_key(|s| s.seq_id);
        v
    }

    /// Number of unfinished sequences.
    #[must_use]
    pub fn num_unfinished(&self) -> usize {
        self.seqs.values().filter(|s| !s.is_finished()).count()
    }

    /// Number of member sequences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the group holds no sequences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Whether every member sequence is finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.seqs.values().all(Sequence::is_finished)
    }

    /// Whether the group is still in the prompt phase (no member has a
    /// computed KV cache yet).
    #[must_use]
    pub fn is_prompt_phase(&self) -> bool {
        self.seqs
            .values()
            .all(|s| s.data.num_computed_tokens() == 0)
    }

    /// Sets every unfinished sequence to `status`.
    pub fn set_status_all(&mut self, status: SequenceStatus) {
        for seq in self.seqs.values_mut() {
            if !seq.is_finished() {
                seq.status = status;
            }
        }
    }

    /// Upper bound on the number of sequences this group will ever run
    /// concurrently (used by admission control).
    #[must_use]
    pub fn max_num_seqs(&self) -> usize {
        self.sampling_params.n.max(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(id: SeqId, n_tokens: usize) -> Sequence {
        Sequence::new(id, (0..n_tokens as TokenId).collect(), 16)
    }

    #[test]
    fn logical_block_count_rounds_up() {
        assert_eq!(seq(0, 1).num_logical_blocks(), 1);
        assert_eq!(seq(0, 16).num_logical_blocks(), 1);
        assert_eq!(seq(0, 17).num_logical_blocks(), 2);
        assert_eq!(seq(0, 32).num_logical_blocks(), 2);
    }

    #[test]
    fn last_block_fill() {
        assert_eq!(seq(0, 16).last_block_fill(), 0);
        assert_eq!(seq(0, 17).last_block_fill(), 1);
        assert_eq!(seq(0, 31).last_block_fill(), 15);
    }

    #[test]
    fn append_and_output_tokens() {
        let mut s = seq(0, 4);
        s.data.append_token(99);
        assert_eq!(s.len(), 5);
        assert_eq!(s.data.output_tokens(), &[99]);
        assert_eq!(s.data.num_output_tokens(), 1);
        assert_eq!(s.data.last_token(), Some(99));
    }

    #[test]
    fn recompute_merges_output_into_prompt() {
        let mut s = seq(0, 4);
        s.data.append_token(7);
        s.data.append_token(8);
        s.data.set_num_computed_tokens(6);
        s.data.reset_for_recompute();
        assert_eq!(s.data.prompt_len(), 6);
        assert_eq!(s.data.original_prompt_len(), 4);
        assert_eq!(s.data.num_computed_tokens(), 0);
        assert_eq!(s.data.output_tokens(), &[] as &[TokenId]);
        // Output length for metrics still counts from the original prompt.
        assert_eq!(s.data.num_output_tokens(), 2);
    }

    #[test]
    fn fork_copies_history() {
        let mut s = seq(0, 4);
        s.data.append_token(5);
        let child = s.fork(1);
        assert_eq!(child.seq_id, 1);
        assert_eq!(child.data.tokens(), s.data.tokens());
    }

    #[test]
    fn group_status_tracking() {
        let s = seq(0, 4);
        let mut g = SequenceGroup::new("r0", s, SamplingParams::greedy(8), 0.0);
        assert!(g.is_prompt_phase());
        assert_eq!(g.num_unfinished(), 1);
        g.get_mut(0).unwrap().status = SequenceStatus::FinishedStopped;
        assert!(g.is_finished());
    }

    #[test]
    fn group_seqs_sorted_by_id() {
        let mut g = SequenceGroup::new("r0", seq(5, 4), SamplingParams::parallel(3, 8), 0.0);
        g.add(seq(2, 4));
        g.add(seq(9, 4));
        let ids: Vec<SeqId> = g.seqs().iter().map(|s| s.seq_id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn set_status_all_skips_finished() {
        let mut g = SequenceGroup::new("r0", seq(0, 4), SamplingParams::parallel(2, 8), 0.0);
        g.add(seq(1, 4));
        g.get_mut(1).unwrap().status = SequenceStatus::FinishedStopped;
        g.set_status_all(SequenceStatus::Running);
        assert_eq!(g.get(0).unwrap().status, SequenceStatus::Running);
        assert_eq!(g.get(1).unwrap().status, SequenceStatus::FinishedStopped);
    }
}
