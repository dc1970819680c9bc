//! The four workloads: pinned server shape plus a seed-generated, fixed
//! request list per client. The server only ever sees the generated prompts.

use vllm::cluster::ClusterConfig;
use vllm::core::telemetry::splitmix64;
use vllm::core::{CacheConfig, GenerationMode, PreemptionMode, SchedulerConfig};
use vllm::model::{BackendKind, ModelConfig};
use vllm::protocol::{Command, GenerateSpec};

/// Closed-loop client connections: one per core of the 2-core sandbox. More
/// would time the host scheduler, not the server.
pub const CLIENTS: usize = 2;
/// KV block size (the paper's default).
pub const BLOCK_SIZE: usize = 16;
/// Requests each client replays (and discards) before the timed phase.
pub const WARMUP_REQUESTS: usize = 4;

/// Which request class a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A generation request; its client-side latency is end-to-end latency.
    Gen,
    /// A first-token probe (greedy, `max_tokens=1`). The protocol does not
    /// stream, so its client-side latency *is* time to first token.
    Probe,
}

/// One request of a client's list.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub spec: GenerateSpec,
}

impl Request {
    fn new(kind: Kind, mode: GenerationMode, n: usize, max_tokens: usize, prompt: String) -> Self {
        Self {
            kind,
            spec: GenerateSpec {
                max_tokens,
                n,
                mode,
                fields: Vec::new(),
                prompt,
            },
        }
    }

    fn probe(prompt: String) -> Self {
        Self::greedy(Kind::Probe, prompt, 1)
    }

    fn greedy(kind: Kind, prompt: String, max_tokens: usize) -> Self {
        Self::new(kind, GenerationMode::Greedy, 1, max_tokens, prompt)
    }

    fn sample(prompt: String, n: usize, max_tokens: usize, seed: u64) -> Self {
        let mut request = Self::new(Kind::Gen, GenerationMode::Sample, n, max_tokens, prompt);
        request.spec.fields = vec![
            ("temperature".to_string(), "0.8".to_string()),
            ("top_p".to_string(), "0.95".to_string()),
            ("seed".to_string(), seed.to_string()),
        ];
        request
    }

    fn beam(prompt: String, width: usize, max_tokens: usize) -> Self {
        Self::new(Kind::Gen, GenerationMode::Beam, width, max_tokens, prompt)
    }

    /// The request's `GENERATE` wire line.
    pub fn wire_line(&self) -> String {
        Command::Generate(self.spec.clone()).wire()
    }

    /// Prompt length in tokens (`<bos>` plus one token per byte).
    pub fn prompt_tokens(&self) -> usize {
        self.spec.prompt.len() + 1
    }
}

/// The two pinned model shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// 8 MB of weights, used where prefill does the work: a prompt's rows
    /// reuse every weight tile, so the run is compute-bound and what the
    /// host's other tenants do to the shared cache does not reach it.
    Base,
    /// `ModelConfig::small()`: 0.8 MB of weights, which stay in a core's
    /// own 2 MB L2. Every decode-bound workload runs on it. A decode step
    /// reads all weights once for a handful of rows; with weights in the
    /// shared L3 that read slowed up to 2.4x for minutes at a time when
    /// other tenants were busy, and the benchmark measured the host.
    Ctl,
}

impl Model {
    pub fn config(self) -> ModelConfig {
        let small = ModelConfig {
            max_position: 2048,
            backend: BackendKind::Simd,
            ..ModelConfig::small()
        };
        match self {
            Self::Ctl => small,
            Self::Base => ModelConfig {
                vocab_size: 2048,
                hidden: 256,
                n_layers: 2,
                n_heads: 8,
                ..small
            },
        }
    }
}

/// One workload: the server it runs against and the traffic it sends.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: Model,
    /// One prefill plus one decode replica (with the shared prefix tier)
    /// rather than one unified replica. 2p+2d would not fit two cores.
    pub disaggregated: bool,
    pub gpu_blocks: usize,
    pub preemption: PreemptionMode,
    /// Pattern repeats (conversations, for `disagg_chat`) per client.
    rounds: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "decode_heavy",
        why: "parallel sampling, n=4 x 128 tokens on the small model: batched decode (paged attention above all) does the work; prefix sharing and preemption do none",
        model: Model::Ctl,
        disaggregated: false,
        gpu_blocks: 512,
        preemption: PreemptionMode::Recompute,
        rounds: 6,
    },
    Workload {
        name: "shared_prefix",
        why: "two 256-byte system prompts + 32-byte unique suffix, 8 greedy tokens, on the large model: prefill GEMMs dominate and 89% of every prompt repeats; decode-only changes must not move it",
        model: Model::Base,
        disaggregated: false,
        gpu_blocks: 512,
        preemption: PreemptionMode::Recompute,
        rounds: 10,
    },
    Workload {
        name: "mem_pressure",
        why: "beam n=4 and sample n=6 x 64 tokens on 48 GPU blocks with swap preemption, small model: fork, copy-on-write, swap-out/in beside plain appends",
        model: Model::Ctl,
        disaggregated: false,
        gpu_blocks: 48,
        preemption: PreemptionMode::Swap,
        rounds: 8,
    },
    Workload {
        name: "disagg_chat",
        why: "four-turn chats on the small model, 1 prefill + 1 decode replica with prefix tier: router, prefix ops, handoff codec and reply path do the work, kernels little",
        model: Model::Ctl,
        disaggregated: true,
        gpu_blocks: 512,
        preemption: PreemptionMode::Recompute,
        rounds: 8,
    },
];

/// Shared prefix tier capacity of the disaggregated fleet, in blocks.
const TIER_BLOCKS: usize = 1024;
/// CPU swap pool of every replica, in blocks.
const CPU_BLOCKS: usize = 512;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn num_replicas(&self) -> usize {
        if self.disaggregated {
            2
        } else {
            1
        }
    }

    pub fn cluster_config(&self) -> ClusterConfig {
        if self.disaggregated {
            ClusterConfig::disaggregated(1, 1).with_prefix_tier_blocks(TIER_BLOCKS)
        } else {
            ClusterConfig::new(1)
        }
    }

    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::new(BLOCK_SIZE, self.gpu_blocks, CPU_BLOCKS)
            .expect("pinned cache geometry is valid")
    }

    pub fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig::new(2048, 64, 2048)
            .expect("pinned scheduler limits are valid")
            .with_preemption_mode(self.preemption)
    }

    /// The fixed request list of each client, a pure function of
    /// `(workload, seed, quick)`. `quick` divides the counts by eight.
    pub fn request_lists(&self, seed: u64, quick: bool) -> [Vec<Request>; CLIENTS] {
        let rounds = if quick {
            self.rounds.div_ceil(8)
        } else {
            self.rounds
        };
        // Text every client shares comes from the workload stream; each
        // client then draws from a stream of its own.
        let mut shared = Rng::new(seed, self.name, usize::MAX);
        let system_prompts = [shared.text(256), shared.text(256)];
        std::array::from_fn(|client| {
            let mut rng = Rng::new(seed, self.name, client);
            let mut list = Vec::new();
            for round in 0..rounds {
                // Sampling seeds are the request's place in the list, so a
                // replayed list asks for the same random stream.
                let seed_of = |slot: usize| (client * 10_000 + round * 10 + slot) as u64;
                match self.name {
                    "decode_heavy" => {
                        list.push(Request::sample(rng.text(96), 4, 128, seed_of(0)));
                        list.push(Request::sample(rng.text(96), 4, 128, seed_of(1)));
                        list.push(Request::probe(rng.text(96)));
                    }
                    "shared_prefix" => {
                        for (slot, kind) in [Kind::Gen, Kind::Probe].into_iter().enumerate() {
                            let system = &system_prompts[(client + round + slot) % 2];
                            let prompt = format!("{system}{}", rng.text(32));
                            list.push(match kind {
                                Kind::Gen => Request::greedy(Kind::Gen, prompt, 8),
                                Kind::Probe => Request::probe(prompt),
                            });
                        }
                    }
                    "mem_pressure" => {
                        list.push(Request::beam(rng.text(128), 4, 64));
                        list.push(Request::sample(rng.text(128), 6, 64, seed_of(1)));
                        list.push(Request::probe(rng.text(128)));
                    }
                    "disagg_chat" => {
                        // Assistant turns come from the generator, never
                        // from the model, so the list is fixed up front.
                        let mut history = String::new();
                        for turn in 0..4 {
                            history.push_str(&rng.text(48));
                            list.push(if turn < 3 {
                                Request::greedy(Kind::Gen, history.clone(), 16)
                            } else {
                                Request::probe(history.clone())
                            });
                            history.push_str(&rng.text(48));
                        }
                    }
                    other => unreachable!("unknown workload {other}"),
                }
            }
            list
        })
    }
}

/// Seeded text generator (iterated splitmix64).
struct Rng(u64);

impl Rng {
    fn new(seed: u64, workload: &str, client: usize) -> Self {
        let mut state = splitmix64(seed);
        for b in workload.bytes() {
            state = splitmix64(state ^ u64::from(b));
        }
        Self(splitmix64(state ^ client as u64))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// `len` bytes of letters and digits: one token per byte, none of the
    /// protocol's separators, and no trailing blank for the server to trim.
    fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[(self.next() % ALPHABET.len() as u64) as usize] as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: &Workload, seed: u64) -> Vec<Vec<String>> {
        w.request_lists(seed, false)
            .iter()
            .map(|l| l.iter().map(Request::wire_line).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_lists_different_seed_different_lists() {
        for w in &WORKLOADS {
            assert_eq!(lines(w, 42), lines(w, 42), "{}", w.name);
            assert_ne!(lines(w, 42), lines(w, 43), "{}", w.name);
            let lists = w.request_lists(42, false);
            assert_ne!(
                lists[0][0].spec.prompt, lists[1][0].spec.prompt,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn every_list_outlasts_the_warmup_and_quick_is_shorter() {
        for w in &WORKLOADS {
            let full = w.request_lists(7, false);
            let quick = w.request_lists(7, true);
            for (f, q) in full.iter().zip(&quick) {
                assert!(f.len() > WARMUP_REQUESTS);
                assert!(q.len() < f.len() && !q.is_empty());
                assert!(q.iter().any(|r| r.kind == Kind::Probe));
            }
        }
    }

    #[test]
    fn chat_turns_extend_the_conversation_without_model_output() {
        // Built before any server exists, so no reply can have shaped it;
        // each turn's prompt extends the previous turn's by 96 bytes.
        let w = Workload::by_name("disagg_chat").unwrap();
        for list in w.request_lists(42, false) {
            for chat in list.chunks(4) {
                assert_eq!(chat[3].kind, Kind::Probe);
                for (turn, pair) in chat.windows(2).enumerate() {
                    assert!(pair[1].spec.prompt.starts_with(&pair[0].spec.prompt));
                    assert_eq!(pair[1].spec.prompt.len(), 48 + 96 * (turn + 1));
                }
            }
        }
    }

    #[test]
    fn wire_line_round_trips_through_the_server_parser() {
        for w in &WORKLOADS {
            for r in w.request_lists(1, true).iter().flatten() {
                let Command::Generate(spec) = Command::parse(&r.wire_line()).unwrap() else {
                    panic!("not a GENERATE line");
                };
                assert_eq!(spec, r.spec);
                spec.build().unwrap();
            }
        }
    }
}
