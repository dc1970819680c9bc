//! The postprocess stage of the step pipeline: applying executor outputs to
//! engine state.
//!
//! After the execute stage returns sampled candidates, this module routes
//! them per decoding mode — plain append for greedy/single sampling,
//! `fork` + append for the parallel-sampling prompt step (Fig. 8), and the
//! beam planner's fork/append/drop program for beam search (§4.4) — then
//! applies stop conditions (eos/stop tokens, length caps) and reaps finished
//! requests into [`RequestOutput`]s. Moving a sequence's computed-token
//! count is also where its completed blocks enter the block manager's
//! content index (`Scheduler::set_computed`).

use std::collections::HashMap;

use vllm_telemetry::{EventKind, Span};

use crate::beam::{plan_beam_step, BeamInput, BeamPlan};
use crate::engine::{CompletionOutput, LlmEngine, RequestOutput};
use crate::error::{Result, VllmError};
use crate::executor::{ModelExecutor, StepResult};
use crate::plan::StepPlan;
use crate::sampling::{DecodingMode, SamplingParams, TokenId};
use crate::sequence::{SeqId, SequenceGroup, SequenceStatus};

impl<E: ModelExecutor> LlmEngine<E> {
    /// Forks the child's block table from the parent, honouring the sharing
    /// ablation switch. Eager-copy forks record their block copies in the
    /// block manager's pending cache ops, carried by the next step's plan.
    fn fork_blocks(&mut self, parent: SeqId, child: SeqId) -> Result<()> {
        if self.sharing_enabled {
            self.scheduler.fork_seq(parent, child)
        } else {
            self.scheduler
                .block_manager_mut()
                .fork_eager(parent, child)?;
            Ok(())
        }
    }

    /// Applies one step's sampled candidates to every scheduled group.
    pub(crate) fn process_outputs(&mut self, plan: &StepPlan, result: &StepResult) -> Result<()> {
        let out_map: HashMap<SeqId, &Vec<(TokenId, f32)>> = result
            .outputs
            .iter()
            .map(|o| (o.seq_id, &o.candidates))
            .collect();

        for sg in &plan.scheduled {
            // A non-final prefill chunk is KV-only: advance the chunk cursor
            // and emit its per-chunk span, but touch none of the token-time
            // bookkeeping — TTFT must close at the first *sampled* token,
            // which the final chunk produces.
            if let Some(chunk) = sg.chunk.filter(|c| !c.is_final) {
                self.scheduler
                    .set_computed(&sg.request_id, &sg.seq_ids, Some(chunk.end))?;
                let group = self
                    .scheduler
                    .group(&sg.request_id)
                    .ok_or_else(|| VllmError::UnknownRequest(sg.request_id.clone()))?;
                if group.trace.is_active() {
                    // Chunk spans nest under the request's `prefill` span
                    // (child 2), keyed by the chunk cursor so replays are
                    // deterministic.
                    let p = group.trace.child(2).child(0x4000_0000 + chunk.start as u64);
                    self.telemetry.spans().record(Span {
                        trace_id: p.trace_id,
                        span_id: p.span_id,
                        parent_span_id: p.parent_span_id,
                        name: "prefill.chunk".to_string(),
                        start: self.clock - result.elapsed,
                        end: self.clock,
                        attrs: vec![
                            ("chunk_start".to_string(), chunk.start.to_string()),
                            ("chunk_len".to_string(), chunk.len().to_string()),
                        ],
                    });
                }
                continue;
            }
            // Mark the KV cache as computed up to the current length and
            // update the group's token-time bookkeeping.
            self.scheduler
                .set_computed(&sg.request_id, &sg.seq_ids, None)?;
            let (first_token, inter_token_gap, prefill_span, final_chunk_span) = {
                let group = self
                    .scheduler
                    .group_mut(&sg.request_id)
                    .ok_or_else(|| VllmError::UnknownRequest(sg.request_id.clone()))?;
                let first_token = if group.first_token_time.is_none() {
                    group.first_token_time = Some(self.clock);
                    Some(self.clock - group.arrival_time)
                } else {
                    None
                };
                let gap = group.last_token_time.map(|t| self.clock - t);
                group.last_token_time = Some(self.clock);
                // The prefill span closes when the first token lands:
                // [first schedule, first token] on the serving clock.
                let prefill_span = if first_token.is_some() && group.trace.is_active() {
                    Some((
                        group.trace,
                        group.first_scheduled_time.unwrap_or(group.arrival_time),
                        group.cached_tokens,
                    ))
                } else {
                    None
                };
                // The final chunk of a split prefill also records its own
                // per-chunk span under `prefill`.
                let final_chunk_span = sg
                    .chunk
                    .filter(|c| !c.is_first && group.trace.is_active())
                    .map(|c| (group.trace, c));
                (first_token, gap, prefill_span, final_chunk_span)
            };
            if let Some(ttft) = first_token {
                self.tmetrics.request_ttft_seconds.observe(ttft);
                self.telemetry
                    .events()
                    .record(&sg.request_id, self.clock, EventKind::FirstToken);
            }
            if let Some((trace, prefill_start, cached_tokens)) = prefill_span {
                let p = trace.child(2);
                self.telemetry.spans().record(Span {
                    trace_id: p.trace_id,
                    span_id: p.span_id,
                    parent_span_id: p.parent_span_id,
                    name: "prefill".to_string(),
                    start: prefill_start,
                    end: self.clock,
                    attrs: vec![("cached_tokens".to_string(), cached_tokens.to_string())],
                });
            }
            if let Some(gap) = inter_token_gap {
                self.tmetrics.request_inter_token_seconds.observe(gap);
            }
            if let Some((trace, chunk)) = final_chunk_span {
                let p = trace.child(2).child(0x4000_0000 + chunk.start as u64);
                self.telemetry.spans().record(Span {
                    trace_id: p.trace_id,
                    span_id: p.span_id,
                    parent_span_id: p.parent_span_id,
                    name: "prefill.chunk".to_string(),
                    start: self.clock - result.elapsed,
                    end: self.clock,
                    attrs: vec![
                        ("chunk_start".to_string(), chunk.start.to_string()),
                        ("chunk_len".to_string(), chunk.len().to_string()),
                    ],
                });
            }

            let params = self
                .scheduler
                .group(&sg.request_id)
                .ok_or_else(|| VllmError::UnknownRequest(sg.request_id.clone()))?
                .sampling_params
                .clone();

            if let DecodingMode::Beam { width } = params.mode {
                self.process_beam_group(
                    sg.request_id.clone(),
                    &sg.seq_ids,
                    &out_map,
                    width,
                    &params,
                )?;
            } else if sg.is_prompt && params.n > 1 {
                self.process_parallel_prompt(&sg.request_id, sg.seq_ids[0], &out_map, &params)?;
            } else {
                for &seq_id in &sg.seq_ids {
                    let cands = out_map
                        .get(&seq_id)
                        .ok_or(VllmError::UnknownSequence(seq_id))?;
                    let &(token, logprob) = cands
                        .first()
                        .ok_or_else(|| VllmError::Executor("missing candidate".into()))?;
                    self.append_and_check(&sg.request_id, seq_id, token, logprob, &params)?;
                }
            }

            if !sg.is_prompt {
                let tokens = self
                    .scheduler
                    .group(&sg.request_id)
                    .map(|g| {
                        g.seqs()
                            .iter()
                            .map(|s| s.data.num_output_tokens())
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                self.telemetry.events().record(
                    &sg.request_id,
                    self.clock,
                    EventKind::Decoded { tokens },
                );
            }
        }
        Ok(())
    }

    /// Parallel sampling prompt step (Fig. 8): the executor sampled `n`
    /// tokens from the prompt's distribution; fork `n - 1` children that
    /// share the prompt's blocks, then append each sample to its sequence.
    fn process_parallel_prompt(
        &mut self,
        request_id: &str,
        parent: SeqId,
        out_map: &HashMap<SeqId, &Vec<(TokenId, f32)>>,
        params: &SamplingParams,
    ) -> Result<()> {
        let cands = (*out_map
            .get(&parent)
            .ok_or(VllmError::UnknownSequence(parent))?)
        .clone();
        if cands.len() < params.n {
            return Err(VllmError::Executor(format!(
                "expected {} samples, got {}",
                params.n,
                cands.len()
            )));
        }
        let child_ids: Vec<SeqId> = (1..params.n).map(|_| self.alloc_seq_id()).collect();
        {
            let group = self
                .scheduler
                .group_mut(request_id)
                .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
            for (&cid, sample_index) in child_ids.iter().zip(1..) {
                let mut child = group
                    .get(parent)
                    .ok_or(VllmError::UnknownSequence(parent))?
                    .fork(cid);
                child.sample_index = sample_index;
                group.add(child);
            }
        }
        for &cid in &child_ids {
            self.fork_blocks(parent, cid)?;
        }
        // Append sample 0 to the parent, sample i to child i-1.
        let seq_ids: Vec<SeqId> = std::iter::once(parent).chain(child_ids).collect();
        for (i, &sid) in seq_ids.iter().enumerate() {
            let (token, logprob) = cands[i];
            self.append_and_check(request_id, sid, token, logprob, params)?;
        }
        Ok(())
    }

    fn process_beam_group(
        &mut self,
        request_id: String,
        seq_ids: &[SeqId],
        out_map: &HashMap<SeqId, &Vec<(TokenId, f32)>>,
        width: usize,
        params: &SamplingParams,
    ) -> Result<()> {
        let plan = {
            let group = self
                .scheduler
                .group(&request_id)
                .ok_or_else(|| VllmError::UnknownRequest(request_id.clone()))?;
            let mut inputs = Vec::with_capacity(seq_ids.len());
            for &sid in seq_ids {
                let seq = group.get(sid).ok_or(VllmError::UnknownSequence(sid))?;
                let cands = out_map.get(&sid).ok_or(VllmError::UnknownSequence(sid))?;
                inputs.push(BeamInput {
                    seq_id: sid,
                    cumulative_logprob: seq.cumulative_logprob,
                    candidates: (*cands).clone(),
                });
            }
            let eos = if params.ignore_eos {
                None
            } else {
                params.eos_token_id
            };
            plan_beam_step(&inputs, width, eos)
        };
        self.apply_beam_plan(&request_id, &plan, width, params)
    }

    fn apply_beam_plan(
        &mut self,
        request_id: &str,
        plan: &BeamPlan,
        width: usize,
        params: &SamplingParams,
    ) -> Result<()> {
        // 1. Materialize finished (eos) hypotheses from pre-append parent
        //    state; they hold no KV blocks.
        let finished_ids: Vec<SeqId> = (0..plan.finished.len())
            .map(|_| self.alloc_seq_id())
            .collect();
        {
            let group = self
                .scheduler
                .group_mut(request_id)
                .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
            for (ext, &cid) in plan.finished.iter().zip(&finished_ids) {
                let parent = group
                    .get(ext.parent)
                    .ok_or(VllmError::UnknownSequence(ext.parent))?;
                let mut hyp = parent.fork(cid);
                hyp.data.append_token(ext.token);
                hyp.cumulative_logprob = ext.cumulative_logprob;
                hyp.status = SequenceStatus::FinishedStopped;
                group.add(hyp);
            }
        }

        // 2. Forks share the parent's blocks before the parent appends.
        for ext in &plan.forks {
            let cid = self.alloc_seq_id();
            {
                let group = self
                    .scheduler
                    .group_mut(request_id)
                    .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
                let child = group
                    .get(ext.parent)
                    .ok_or(VllmError::UnknownSequence(ext.parent))?
                    .fork(cid);
                group.add(child);
            }
            self.fork_blocks(ext.parent, cid)?;
            self.append_beam_token(request_id, cid, ext.token, ext.cumulative_logprob, params)?;
        }

        // 3. Appends reuse their parent in place.
        for ext in &plan.appends {
            self.append_beam_token(
                request_id,
                ext.parent,
                ext.token,
                ext.cumulative_logprob,
                params,
            )?;
        }

        // 4. Drop parents with no surviving continuation.
        for &sid in &plan.drops {
            {
                let group = self
                    .scheduler
                    .group_mut(request_id)
                    .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
                if let Some(seq) = group.get_mut(sid) {
                    if !seq.is_finished() {
                        seq.status = SequenceStatus::FinishedDropped;
                    }
                }
            }
            self.scheduler.free_seq(sid)?;
        }

        // 5. Early termination: once `width` hypotheses have finished, the
        //    remaining live beams are dropped.
        let to_drop: Vec<SeqId> = {
            let group = self
                .scheduler
                .group(request_id)
                .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
            let num_finished = group
                .seqs()
                .iter()
                .filter(|s| {
                    matches!(
                        s.status,
                        SequenceStatus::FinishedStopped | SequenceStatus::FinishedLengthCapped
                    )
                })
                .count();
            if num_finished >= width {
                group.seq_ids_with_status(SequenceStatus::Running)
            } else {
                Vec::new()
            }
        };
        for sid in to_drop {
            {
                let group = self
                    .scheduler
                    .group_mut(request_id)
                    .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
                if let Some(seq) = group.get_mut(sid) {
                    seq.status = SequenceStatus::FinishedDropped;
                }
            }
            self.scheduler.free_seq(sid)?;
        }
        Ok(())
    }

    /// Appends a beam token with explicit cumulative logprob and applies
    /// the length-cap checks (eos was already diverted by the planner).
    fn append_beam_token(
        &mut self,
        request_id: &str,
        seq_id: SeqId,
        token: TokenId,
        cumulative_logprob: f64,
        params: &SamplingParams,
    ) -> Result<()> {
        let max_model_len = self.scheduler.config().max_model_len;
        let mut finished = false;
        {
            let group = self
                .scheduler
                .group_mut(request_id)
                .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
            let seq = group
                .get_mut(seq_id)
                .ok_or(VllmError::UnknownSequence(seq_id))?;
            seq.data.append_token(token);
            seq.cumulative_logprob = cumulative_logprob;
            if seq.data.num_output_tokens() >= params.max_tokens || seq.len() >= max_model_len {
                seq.status = SequenceStatus::FinishedLengthCapped;
                finished = true;
            }
        }
        if finished {
            self.scheduler.free_seq(seq_id)?;
        }
        Ok(())
    }

    /// Appends a sampled token and applies stop conditions.
    fn append_and_check(
        &mut self,
        request_id: &str,
        seq_id: SeqId,
        token: TokenId,
        logprob: f32,
        params: &SamplingParams,
    ) -> Result<()> {
        let max_model_len = self.scheduler.config().max_model_len;
        let mut finished = false;
        {
            let group = self
                .scheduler
                .group_mut(request_id)
                .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
            let seq = group
                .get_mut(seq_id)
                .ok_or(VllmError::UnknownSequence(seq_id))?;
            seq.data.append_token(token);
            seq.cumulative_logprob += f64::from(logprob);
            if params.is_stop_token(token) {
                seq.status = SequenceStatus::FinishedStopped;
                finished = true;
            } else if seq.data.num_output_tokens() >= params.max_tokens
                || seq.len() >= max_model_len
            {
                seq.status = SequenceStatus::FinishedLengthCapped;
                finished = true;
            }
        }
        if finished {
            self.scheduler.free_seq(seq_id)?;
        }
        Ok(())
    }

    /// Collects finished groups into request outputs, recording latency
    /// metrics and lifecycle events.
    pub(crate) fn reap(&mut self) -> Result<Vec<RequestOutput>> {
        let finished_groups = self.scheduler.reap_finished()?;
        let mut outputs = Vec::with_capacity(finished_groups.len());
        for group in finished_groups {
            let output = self.make_request_output(&group);
            if !output.outputs.is_empty() {
                let e2e = output.finish_time - output.arrival_time;
                self.latency.record_request(
                    output.arrival_time,
                    output.finish_time,
                    output.mean_output_len(),
                    output.first_token_time,
                );
                self.tmetrics
                    .observe_request(e2e, e2e / output.mean_output_len().max(1.0));
                // The decode span is emitted exactly when the e2e histogram
                // observes a sample, so span-duration sums and histogram
                // sums agree (the trace bench's CI gate).
                if group.trace.is_active() {
                    let d = group.trace.child(3);
                    self.telemetry.spans().record(Span {
                        trace_id: d.trace_id,
                        span_id: d.span_id,
                        parent_span_id: d.parent_span_id,
                        name: "decode".to_string(),
                        start: output.first_token_time.unwrap_or(self.clock),
                        end: self.clock,
                        attrs: Vec::new(),
                    });
                }
            }
            if group.trace.is_active() {
                // A group reaped without outputs (abort, kill, deadline) died
                // mid-phase: its prefill or decode span was never closed, but
                // kernel spans were already recorded under those contexts.
                // Close the open phase here, marked truncated, so every
                // recorded parent resolves. Truncated spans are deliberately
                // excluded from the span/e2e consistency gate — only clean
                // decode spans pair 1:1 with e2e histogram samples.
                if output.outputs.is_empty() {
                    let open_phase = match group.first_token_time {
                        Some(first_token) => Some((group.trace.child(3), "decode", first_token)),
                        None => group
                            .first_scheduled_time
                            .map(|t| (group.trace.child(2), "prefill", t)),
                    };
                    if let Some((ctx, name, start)) = open_phase {
                        self.telemetry.spans().record(Span {
                            trace_id: ctx.trace_id,
                            span_id: ctx.span_id,
                            parent_span_id: ctx.parent_span_id,
                            name: name.to_string(),
                            start,
                            end: self.clock,
                            attrs: vec![("truncated".to_string(), "true".to_string())],
                        });
                    }
                }
                // The attempt envelope: the span this group's context names,
                // covering the request's whole stay in this engine. Retries
                // mint sibling contexts, so their attempt spans share a
                // parent.
                self.telemetry.spans().record(Span {
                    trace_id: group.trace.trace_id,
                    span_id: group.trace.span_id,
                    parent_span_id: group.trace.parent_span_id,
                    name: "attempt".to_string(),
                    start: group.arrival_time,
                    end: self.clock,
                    attrs: vec![("request_id".to_string(), group.request_id.clone())],
                });
            }
            let deadline_cancelled = group
                .seqs()
                .iter()
                .any(|s| s.status == SequenceStatus::FinishedDeadline);
            let reason = match output.outputs.first().map(|o| o.finish_reason) {
                Some(SequenceStatus::FinishedStopped) => "stopped",
                Some(SequenceStatus::FinishedLengthCapped) => "length_capped",
                Some(_) => "other",
                None if deadline_cancelled => "deadline",
                None => "aborted",
            };
            self.telemetry.events().record(
                &output.request_id,
                self.clock,
                EventKind::Finished {
                    reason: reason.to_string(),
                },
            );
            outputs.push(output);
        }
        Ok(outputs)
    }

    fn make_request_output(&self, group: &SequenceGroup) -> RequestOutput {
        let mut completions: Vec<CompletionOutput> = group
            .seqs()
            .iter()
            .filter(|s| {
                matches!(
                    s.status,
                    SequenceStatus::FinishedStopped | SequenceStatus::FinishedLengthCapped
                )
            })
            .map(|s| CompletionOutput {
                seq_id: s.seq_id,
                tokens: s.data.tokens()[s.data.original_prompt_len()..].to_vec(),
                cumulative_logprob: s.cumulative_logprob,
                finish_reason: s.status,
            })
            .collect();
        // Beam search returns the best `n` hypotheses.
        completions.sort_by(|a, b| b.cumulative_logprob.total_cmp(&a.cumulative_logprob));
        completions.truncate(group.sampling_params.n.max(1));
        let prompt_len = group
            .seqs()
            .first()
            .map_or(0, |s| s.data.original_prompt_len());
        RequestOutput {
            request_id: group.request_id.clone(),
            prompt_len,
            outputs: completions,
            arrival_time: group.arrival_time,
            finish_time: self.clock,
            first_token_time: group.first_token_time,
            num_preemptions: group.num_preemptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{CacheConfig, SchedulerConfig};
    use crate::engine::LlmEngine;
    use crate::mock::MockExecutor;
    use crate::sampling::SamplingParams;
    use crate::sequence::SequenceStatus;

    const BS: usize = 4;

    fn engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
        let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
        LlmEngine::new(MockExecutor::new(1000), cache, sched)
    }

    #[test]
    fn eos_stops_generation() {
        let mut e = engine(64, 0);
        e.executor_mut().eos_token = Some((7, 8));
        e.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(64).with_eos(7))
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        // Position 8 emits eos: tokens at positions 3..=8 → 6 generated.
        assert_eq!(outs[0].outputs[0].tokens.len(), 6);
        assert_eq!(outs[0].outputs[0].tokens.last(), Some(&7));
        assert_eq!(
            outs[0].outputs[0].finish_reason,
            SequenceStatus::FinishedStopped
        );
    }

    #[test]
    fn ignore_eos_runs_to_max_tokens() {
        let mut e = engine(64, 0);
        e.executor_mut().eos_token = Some((7, 2));
        e.add_request(
            "r0",
            vec![1, 2, 3],
            SamplingParams::greedy(10).with_eos(7).with_ignore_eos(),
        )
        .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs[0].tokens.len(), 10);
    }

    #[test]
    fn parallel_sampling_forks_and_shares() {
        let mut e = engine(64, 0);
        e.add_request("r0", (0..10).collect(), SamplingParams::parallel(4, 6))
            .unwrap();
        // Prompt step: forks happen here.
        e.step().unwrap();
        let bm = e.scheduler().block_manager();
        // 10-token prompt = 3 blocks shared by 4 sequences; logical = 12.
        assert_eq!(bm.num_logical_gpu_blocks(), 12);
        assert!(bm.num_allocated_gpu_blocks() <= 4); // 3 shared + ≤1 CoW.
        assert!(bm.sharing_savings() > 0.5);
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs.len(), 4);
        for o in &outs[0].outputs {
            assert_eq!(o.tokens.len(), 6);
        }
        // Samples must differ (different seq ids perturb the hash).
        let t0 = &outs[0].outputs[0].tokens;
        assert!(outs[0].outputs[1..].iter().any(|o| &o.tokens != t0));
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn parallel_sampling_triggers_cow() {
        let mut e = engine(64, 0);
        // Prompt of 6: last block half-full → children CoW on first append.
        e.add_request("r0", (0..6).collect(), SamplingParams::parallel(2, 4))
            .unwrap();
        e.run_to_completion().unwrap();
        assert!(e.scheduler().block_manager().num_cow_copies() >= 1);
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn beam_search_produces_width_outputs() {
        let mut e = engine(64, 0);
        e.add_request("r0", (0..8).collect(), SamplingParams::beam(4, 5))
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].outputs.len(), 4);
        for o in &outs[0].outputs {
            assert_eq!(o.tokens.len(), 5);
        }
        // Outputs sorted by cumulative logprob.
        for w in outs[0].outputs.windows(2) {
            assert!(w[0].cumulative_logprob >= w[1].cumulative_logprob);
        }
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn beam_search_with_eos_collects_hypotheses() {
        let mut e = engine(64, 0);
        e.executor_mut().eos_token = Some((3, 12));
        e.add_request(
            "r0",
            (0..8).map(|t| t + 100).collect(),
            SamplingParams::beam(2, 32).with_eos(3),
        )
        .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs.len(), 2);
        assert!(outs[0]
            .outputs
            .iter()
            .all(|o| o.finish_reason == SequenceStatus::FinishedStopped));
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn stop_token_list_halts_generation() {
        let mut e = engine(64, 0);
        // Mock emits eos-like token 7 at positions divisible by 8.
        e.executor_mut().eos_token = Some((7, 8));
        e.add_request(
            "r0",
            vec![1, 2, 3],
            SamplingParams::greedy(64).with_stop_tokens(vec![5, 7]),
        )
        .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs[0].tokens.last(), Some(&7));
        assert_eq!(
            outs[0].outputs[0].finish_reason,
            SequenceStatus::FinishedStopped
        );
    }

    #[test]
    fn is_stop_token_rules() {
        let p = SamplingParams::greedy(4)
            .with_eos(2)
            .with_stop_tokens(vec![9]);
        assert!(p.is_stop_token(2));
        assert!(p.is_stop_token(9));
        assert!(!p.is_stop_token(3));
        let p = p.with_ignore_eos();
        assert!(!p.is_stop_token(2));
        assert!(!p.is_stop_token(9));
    }
}
