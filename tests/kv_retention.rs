//! Conversation KV retention, with no opt-in: every full block a request
//! computes stays indexed by content after the request finishes, in a free
//! block, so a follow-up turn that extends the conversation maps it instead
//! of recomputing it. ("Promotion" in the test names is what the retired
//! `retain_kv` API called a finished turn's KV becoming reusable; it is now
//! simply what finishing does.)

use vllm::core::{
    CacheConfig, LlmEngine, PreemptionMode, SamplingParams, SchedulerConfig, TokenId, VictimPolicy,
};
use vllm::model::{CpuModelExecutor, ModelConfig};

fn engine(gpu_blocks: usize) -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(4, gpu_blocks, 0).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512).unwrap();
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    LlmEngine::new(exec, cache, sched)
}

fn assert_whole(e: &LlmEngine<CpuModelExecutor>) {
    let bm = e.scheduler().block_manager();
    assert_eq!(bm.num_free_gpu_blocks(), bm.num_total_gpu_blocks());
    assert_eq!(bm.num_free_cpu_blocks(), bm.num_total_cpu_blocks());
    bm.assert_consistent();
}

#[test]
fn retained_kv_skips_history_prefill() {
    let mut e = engine(128);
    let prompt: Vec<TokenId> = (1..=14).collect();
    e.add_request("r0", prompt.clone(), SamplingParams::greedy(6))
        .unwrap();
    let outs = e.run_to_completion().unwrap();
    let reply = outs[0].outputs[0].tokens.clone();
    let tokens_round0 = e.executor().tokens_processed;

    // The finished turn holds nothing, and its full blocks are still there.
    assert_whole(&e);
    assert!(e.scheduler().block_manager().num_cached_free_gpu_blocks() >= 4);

    // A follow-up prompt extending the conversation skips its prefill.
    let mut follow_up = prompt.clone();
    follow_up.extend(&reply);
    follow_up.extend([90, 91, 92]);
    e.add_request("r1", follow_up.clone(), SamplingParams::greedy(4))
        .unwrap();
    e.step().unwrap();
    // 14 prompt + 5 reply tokens had their KV computed: four full blocks.
    assert_eq!(e.scheduler().group("r1").unwrap().cached_tokens, 16);
    e.run_to_completion().unwrap();
    // The new tokens computed this round: suffix (< full prompt) + decodes.
    let tokens_round1 = e.executor().tokens_processed - tokens_round0;
    assert!(
        (tokens_round1 as usize) < follow_up.len(),
        "round 1 computed {tokens_round1} tokens, full prefill would be {}",
        follow_up.len()
    );
    assert_whole(&e);
}

#[test]
fn retained_reply_matches_unretained() {
    let run = |retain: bool| {
        let mut e = engine(128);
        e.set_auto_prefix_match(retain);
        let prompt: Vec<TokenId> = (1..=10).collect();
        e.add_request("a", prompt.clone(), SamplingParams::greedy(5))
            .unwrap();
        let first = e.run_to_completion().unwrap()[0].outputs[0].clone();
        let mut follow = prompt;
        follow.extend(&first.tokens);
        follow.extend([70, 71]);
        e.add_request("b", follow, SamplingParams::greedy(5))
            .unwrap();
        let second = e.run_to_completion().unwrap()[0].outputs[0].clone();
        let hit = e
            .engine_metrics()
            .block_manager
            .prefix_hit_tokens_total
            .get();
        assert_eq!(hit > 0, retain, "the follow-up must hit iff caching is on");
        [first, second].map(|c| (c.tokens, c.cumulative_logprob.to_bits()))
    };
    assert_eq!(run(false), run(true), "retention must not change outputs");
}

#[test]
fn chained_promotions_release_cleanly() {
    let mut e = engine(256);
    let mut history: Vec<TokenId> = (1..=6).collect();
    for round in 0..4 {
        e.add_request(
            format!("round{round}"),
            history.clone(),
            SamplingParams::greedy(4),
        )
        .unwrap();
        let outs = e.run_to_completion().unwrap();
        history.extend(&outs[0].outputs[0].tokens);
        history.push(40 + round as u32);
        // Every turn leaves the pool whole: nothing to release, ever.
        assert_whole(&e);
    }
    let counts = &e.engine_metrics().block_manager;
    let looked_up = counts.prefix_lookup_tokens_total.get();
    let hit = counts.prefix_hit_tokens_total.get();
    // Turns of 6, 11, 16 and 21 tokens; each later one maps every full
    // block the turn before computed (8, 12 and 16 tokens).
    assert_eq!((looked_up, hit), (6 + 11 + 16 + 21, 8 + 12 + 16));
}

/// Beam and parallel-sampling requests fork, copy-on-write and drop
/// sequences over blocks other requests map at the same time: outputs and
/// accounting must not notice.
#[test]
fn forking_requests_share_cached_blocks_safely() {
    let run = |cache_on: bool| {
        let mut e = engine(96);
        e.set_auto_prefix_match(cache_on);
        let system: Vec<TokenId> = (1..=18).collect();
        let mut outs = Vec::new();
        for (i, params) in [
            SamplingParams::greedy(6),
            SamplingParams::beam(3, 7),
            SamplingParams::parallel(3, 5).with_seed(11),
            SamplingParams::beam(2, 6),
        ]
        .into_iter()
        .enumerate()
        {
            let mut prompt = system.clone();
            prompt.extend([50 + i as u32, 60]);
            e.add_request(format!("r{i}"), prompt, params).unwrap();
            if i % 2 == 1 {
                // Two requests in flight together, then a drained engine.
                while e.has_unfinished() {
                    outs.extend(e.step().unwrap());
                    e.scheduler().block_manager().assert_consistent();
                }
            }
        }
        assert_whole(&e);
        outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
        let hit = e
            .engine_metrics()
            .block_manager
            .prefix_hit_tokens_total
            .get();
        let outs: Vec<_> = outs
            .iter()
            .flat_map(|o| &o.outputs)
            .map(|c| (c.tokens.clone(), c.cumulative_logprob.to_bits()))
            .collect();
        (outs, hit)
    };
    let (plain, no_hits) = run(false);
    let (cached, hits) = run(true);
    assert_eq!(no_hits, 0);
    // The first pair is admitted together, before either has computed a
    // block; the second pair maps the system prompt's four full blocks.
    assert_eq!(hits, 2 * 16);
    assert_eq!(plain, cached);
}

/// Promotion must survive recompute preemption of the promoting sequence:
/// the keeper is added last so `LatestArrival` evicts it under memory
/// pressure — its blocks leave the index with it (§4.5: recompute means
/// recompute) — it re-prefills, finishes, and still leaves blocks a
/// follow-up maps.
#[test]
fn promotion_survives_recompute_preemption() {
    let gpu_blocks = 10;
    let cache = CacheConfig::new(4, gpu_blocks, 0).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512)
        .unwrap()
        .with_preemption_mode(PreemptionMode::Recompute)
        .with_victim_policy(VictimPolicy::LatestArrival);
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);

    let filler: Vec<TokenId> = (1..=16).collect();
    e.add_request(
        "filler",
        filler,
        SamplingParams::greedy(16).with_ignore_eos(),
    )
    .unwrap();
    let keeper_prompt: Vec<TokenId> = (101..=112).collect();
    e.add_request(
        "keeper",
        keeper_prompt.clone(),
        SamplingParams::greedy(8).with_ignore_eos(),
    )
    .unwrap();

    let mut outs = Vec::new();
    let mut keeper_hits_after_preemption = 0;
    while e.has_unfinished() {
        outs.extend(e.step().unwrap());
        e.scheduler().block_manager().assert_consistent();
        if let Some(g) = e.scheduler().group("keeper") {
            if g.num_preemptions > 0 {
                keeper_hits_after_preemption = e
                    .engine_metrics()
                    .block_manager
                    .prefix_hit_tokens_total
                    .get();
            }
        }
    }
    let keeper = outs.iter().find(|o| o.request_id == "keeper").unwrap();
    assert!(
        keeper.num_preemptions > 0,
        "test must exercise preemption of the promoting sequence"
    );
    assert!(
        e.engine_metrics()
            .scheduler
            .recompute_preemptions_total
            .get()
            > 0
    );
    assert_eq!(
        keeper_hits_after_preemption, 0,
        "a recompute-preempted sequence must not revive its own blocks"
    );
    assert_whole(&e);

    // The finished keeper's KV is usable: a follow-up skips part of its
    // prefill.
    let before = e.executor().tokens_processed;
    let mut follow = keeper_prompt;
    follow.extend(&keeper.outputs[0].tokens);
    follow.extend([90, 91, 92]);
    let follow_len = follow.len();
    e.add_request("followup", follow, SamplingParams::greedy(2))
        .unwrap();
    e.run_to_completion().unwrap();
    let computed = e.executor().tokens_processed - before;
    assert!(
        (computed as usize) < follow_len,
        "follow-up computed {computed} tokens, full prefill would be {follow_len}"
    );
    assert_whole(&e);
}

/// Same shape under swap-based preemption: the keeper's blocks go to CPU
/// and back, it finishes, and both pools are whole again.
#[test]
fn promotion_survives_swap_preemption() {
    let gpu_blocks = 10;
    let cache = CacheConfig::new(4, gpu_blocks, 32).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512)
        .unwrap()
        .with_preemption_mode(PreemptionMode::Swap)
        .with_victim_policy(VictimPolicy::LatestArrival);
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);

    e.add_request(
        "filler",
        (1..=16).collect::<Vec<TokenId>>(),
        SamplingParams::greedy(16).with_ignore_eos(),
    )
    .unwrap();
    e.add_request(
        "keeper",
        (101..=112).collect::<Vec<TokenId>>(),
        SamplingParams::greedy(8).with_ignore_eos(),
    )
    .unwrap();

    let mut outs = Vec::new();
    while e.has_unfinished() {
        outs.extend(e.step().unwrap());
        e.scheduler().block_manager().assert_consistent();
    }
    let keeper = outs.iter().find(|o| o.request_id == "keeper").unwrap();
    assert!(keeper.num_preemptions > 0, "keeper must get swapped out");
    assert!(e.engine_metrics().scheduler.swap_preemptions_total.get() > 0);
    // GPU pool whole, swap space fully drained too.
    assert_whole(&e);
}
