//! The process environment, read once.
//!
//! Every `VLLM_*` variable the system honours is named here and nowhere
//! else, and [`Env::parse`] turns all of them into one typed [`Env`] under
//! one rule: an unset or empty variable takes its default, and a set value
//! that does not parse or is out of range is [`VllmError::InvalidConfig`]
//! naming the variable and the value — never silently the default.
//! [`Env::global`] parses the process environment on first use and keeps
//! the result for the life of the process, so a variable changed after that
//! first use is not seen (a program that pins its environment does so before
//! it builds an engine, a model or the kernel pool).
//!
//! The readers: [`crate::LlmEngine::new`] (trace sampling, SLO objectives,
//! log capacities), the server's elastic attach
//! ([`Env::elastic_config`]), `ClusterConfig::with_env` (replica roles, prefix
//! tier), the model presets and checkpoint loader (kernel backend), and the
//! kernel pool (thread count).

use std::str::FromStr;
use std::sync::OnceLock;

use vllm_telemetry::{SloObjectives, Telemetry, DEFAULT_EVENT_CAPACITY, DEFAULT_SPAN_CAPACITY};

use crate::elastic::ElasticConfig;
use crate::error::{Result, VllmError};

/// Fraction of requests traced, in `[0, 1]`.
pub const TRACE_SAMPLE: &str = "VLLM_TRACE_SAMPLE";
/// TTFT p99 objective in seconds.
pub const SLO_TTFT_P99: &str = "VLLM_SLO_TTFT_P99";
/// End-to-end p99 objective in seconds.
pub const SLO_E2E_P99: &str = "VLLM_SLO_E2E_P99";
/// Allowed fraction of requests cancelled past their deadline.
pub const SLO_DEADLINE_MISS_BUDGET: &str = "VLLM_SLO_DEADLINE_MISS_BUDGET";
/// Capacity of each engine's lifecycle event log.
pub const EVENT_LOG_CAPACITY: &str = "VLLM_EVENT_LOG_CAPACITY";
/// Capacity of each engine's span log.
pub const SPAN_LOG_CAPACITY: &str = "VLLM_SPAN_LOG_CAPACITY";
/// Smallest GPU pool the elastic controller may deflate to, in blocks.
pub const ELASTIC_MIN_BLOCKS: &str = "VLLM_ELASTIC_MIN_BLOCKS";
/// Largest GPU pool the elastic controller may inflate to, in blocks.
pub const ELASTIC_MAX_BLOCKS: &str = "VLLM_ELASTIC_MAX_BLOCKS";
/// Elastic resize granularity in blocks.
pub const ELASTIC_STEP_BLOCKS: &str = "VLLM_ELASTIC_STEP_BLOCKS";
/// Free-block fraction below which the elastic pool inflates.
pub const ELASTIC_LOW_WATERMARK: &str = "VLLM_ELASTIC_LOW_WATERMARK";
/// Free-block fraction above which an idle elastic pool deflates.
pub const ELASTIC_HIGH_WATERMARK: &str = "VLLM_ELASTIC_HIGH_WATERMARK";
/// Steps between two elastic resizes.
pub const ELASTIC_COOLDOWN_STEPS: &str = "VLLM_ELASTIC_COOLDOWN_STEPS";
/// Comma-separated replica roles, one per replica or one for the fleet.
pub const REPLICA_ROLES: &str = "VLLM_REPLICA_ROLES";
/// Capacity of the cluster-shared prefix tier in blocks; `0` is off.
pub const PREFIX_TIER_BLOCKS: &str = "VLLM_PREFIX_TIER_BLOCKS";
/// The kernel backend: `simd` or `quant-kv8`.
pub const KERNEL_BACKEND: &str = "VLLM_KERNEL_BACKEND";
/// Threads of the kernel worker pool.
pub const NUM_THREADS: &str = "VLLM_NUM_THREADS";

/// The named kernel backends. Both run every kernel under the widest
/// instruction set the CPU has; they differ in the KV element their
/// attention reads (`vllm-model` maps a kind to its kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// f32 KV.
    #[default]
    Simd,
    /// int8-quantized KV block storage (per-slot scale).
    QuantKv8,
}

impl BackendKind {
    /// Stable name used in env selection, bench records, and metric labels.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Simd => "simd",
            Self::QuantKv8 => "quant-kv8",
        }
    }

    /// Parses a backend name (the inverse of [`Self::name`]).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::all().into_iter().find(|kind| kind.name() == s)
    }

    /// All backends, in a fixed order (the default first).
    #[must_use]
    pub const fn all() -> [Self; 2] {
        [Self::Simd, Self::QuantKv8]
    }
}

/// What phase of serving a replica handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaRole {
    /// Accepts new requests, runs the prompt phase, hands off at the first
    /// sampled token.
    Prefill,
    /// Accepts migrated requests only; runs the token loop to completion.
    Decode,
    /// Classic monolithic replica: runs both phases, accepts everything.
    Unified,
}

impl ReplicaRole {
    /// Whether the role accepts newly arriving requests (prompt phase).
    #[must_use]
    pub fn takes_prefill(self) -> bool {
        matches!(self, Self::Prefill | Self::Unified)
    }

    /// Whether the role accepts migrated requests (token loop).
    #[must_use]
    pub fn takes_decode(self) -> bool {
        matches!(self, Self::Decode | Self::Unified)
    }

    /// The canonical config/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Prefill => "prefill",
            Self::Decode => "decode",
            Self::Unified => "unified",
        }
    }
}

impl FromStr for ReplicaRole {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim() {
            "prefill" | "p" => Ok(Self::Prefill),
            "decode" | "d" => Ok(Self::Decode),
            "unified" | "u" => Ok(Self::Unified),
            other => Err(format!(
                "unknown replica role {other:?} (expected prefill | decode | unified)"
            )),
        }
    }
}

/// The six `VLLM_ELASTIC_*` overrides; any one set attaches the elastic
/// controller ([`Env::elastic_config`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ElasticOverrides {
    min_blocks: Option<usize>,
    max_blocks: Option<usize>,
    step_blocks: Option<usize>,
    low_watermark: Option<f64>,
    high_watermark: Option<f64>,
    cooldown_steps: Option<u64>,
}

impl ElasticOverrides {
    /// `NAME=value` of every override that is set.
    fn describe(&self) -> String {
        fn show(name: &str, v: Option<impl ToString>) -> Option<String> {
            Some(format!("{name}={}", v?.to_string()))
        }
        let set = [
            show(ELASTIC_MIN_BLOCKS, self.min_blocks),
            show(ELASTIC_MAX_BLOCKS, self.max_blocks),
            show(ELASTIC_STEP_BLOCKS, self.step_blocks),
            show(ELASTIC_LOW_WATERMARK, self.low_watermark),
            show(ELASTIC_HIGH_WATERMARK, self.high_watermark),
            show(ELASTIC_COOLDOWN_STEPS, self.cooldown_steps),
        ];
        set.into_iter().flatten().collect::<Vec<_>>().join(" ")
    }
}

/// Every `VLLM_*` variable, typed, with its default applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// [`TRACE_SAMPLE`]; default 1.
    pub(crate) trace_sample: f64,
    /// [`SLO_TTFT_P99`], [`SLO_E2E_P99`] and [`SLO_DEADLINE_MISS_BUDGET`],
    /// each a positive number; unset objectives are not evaluated.
    pub(crate) slo: SloObjectives,
    /// [`EVENT_LOG_CAPACITY`] (see [`Env::telemetry`]).
    event_log_capacity: usize,
    /// [`SPAN_LOG_CAPACITY`].
    span_log_capacity: usize,
    /// The `VLLM_ELASTIC_*` overrides (see [`Env::elastic_config`]).
    elastic: ElasticOverrides,
    /// [`REPLICA_ROLES`].
    pub replica_roles: Option<Vec<ReplicaRole>>,
    /// [`PREFIX_TIER_BLOCKS`].
    pub prefix_tier_blocks: Option<usize>,
    /// [`KERNEL_BACKEND`]; default [`BackendKind::Simd`].
    pub kernel_backend: BackendKind,
    /// [`NUM_THREADS`], at least 1; `None` sizes the pool to the machine.
    pub num_threads: Option<usize>,
}

static PROCESS: OnceLock<Result<Env>> = OnceLock::new();

/// One parse's variables, looked up by name.
struct Vars<F>(F);

impl<F: Fn(&str) -> Option<String>> Vars<F> {
    /// The one rule: an unset or empty variable is `None`; a set one parses
    /// or is an error naming it, its value and what it takes.
    fn get<T>(
        &self,
        name: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>> {
        let raw = (self.0)(name).unwrap_or_default();
        let value = raw.trim();
        if value.is_empty() {
            return Ok(None);
        }
        let invalid = || VllmError::InvalidConfig(format!("{name}={value:?}: expected {expected}"));
        parse(value).map(Some).ok_or_else(invalid)
    }

    /// An integer of at least `min`.
    fn count(&self, name: &str, min: usize) -> Result<Option<usize>> {
        let expected = format!("an integer >= {min}");
        self.get(name, &expected, |v| v.parse().ok().filter(|&n| n >= min))
    }

    /// A number in `[0, 1]`.
    fn fraction(&self, name: &str) -> Result<Option<f64>> {
        let parse = |v: &str| v.parse().ok().filter(|x| (0.0..=1.0).contains(x));
        self.get(name, "a fraction in [0, 1]", parse)
    }

    /// A finite number above zero.
    fn positive(&self, name: &str) -> Result<Option<f64>> {
        let parse = |v: &str| v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0);
        self.get(name, "a positive number", parse)
    }
}

impl Env {
    /// Parses the variables `lookup` returns by name — the process
    /// environment's, or a test's table. Only the names of this module are
    /// looked up.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] naming the first variable whose
    /// value is set but malformed or out of range.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Self> {
        let vars = Vars(lookup);
        let roles = "comma-separated prefill | decode | unified";
        Ok(Self {
            trace_sample: vars.fraction(TRACE_SAMPLE)?.unwrap_or(1.0),
            slo: SloObjectives {
                ttft_p99: vars.positive(SLO_TTFT_P99)?,
                e2e_p99: vars.positive(SLO_E2E_P99)?,
                deadline_miss_budget: vars.positive(SLO_DEADLINE_MISS_BUDGET)?,
            },
            event_log_capacity: vars
                .count(EVENT_LOG_CAPACITY, 1)?
                .unwrap_or(DEFAULT_EVENT_CAPACITY),
            span_log_capacity: vars
                .count(SPAN_LOG_CAPACITY, 1)?
                .unwrap_or(DEFAULT_SPAN_CAPACITY),
            elastic: ElasticOverrides {
                min_blocks: vars.count(ELASTIC_MIN_BLOCKS, 1)?,
                max_blocks: vars.count(ELASTIC_MAX_BLOCKS, 1)?,
                step_blocks: vars.count(ELASTIC_STEP_BLOCKS, 1)?,
                low_watermark: vars.fraction(ELASTIC_LOW_WATERMARK)?,
                high_watermark: vars.fraction(ELASTIC_HIGH_WATERMARK)?,
                cooldown_steps: vars.count(ELASTIC_COOLDOWN_STEPS, 0)?.map(|n| n as u64),
            },
            replica_roles: vars.get(REPLICA_ROLES, roles, |v| {
                v.split(',').map(|role| role.parse().ok()).collect()
            })?,
            prefix_tier_blocks: vars.count(PREFIX_TIER_BLOCKS, 0)?,
            kernel_backend: vars
                .get(KERNEL_BACKEND, "simd | quant-kv8", BackendKind::from_name)?
                .unwrap_or_default(),
            num_threads: vars.count(NUM_THREADS, 1)?,
        })
    }

    /// The process environment, parsed on the first call of this or
    /// [`Self::global`] and kept for the life of the process.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`] (every call returns the first call's error).
    #[allow(clippy::disallowed_methods)] // The one reader of the process environment.
    pub fn try_global() -> Result<&'static Self> {
        // A value that is not UTF-8 fails its parse. Only our names are
        // read: copying the whole environment (`vars_os`) left the heap so
        // that every later 16 MB KV pool was zeroed in place instead of
        // taken fresh from the OS — 11 ms instead of 3 per engine build.
        let parsed = PROCESS.get_or_init(|| {
            Self::parse(|name| Some(std::env::var_os(name)?.to_string_lossy().into_owned()))
        });
        parsed.as_ref().map_err(Clone::clone)
    }

    /// [`Self::try_global`] for the constructors that cannot return an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics with the [`VllmError::InvalidConfig`] message if a variable is
    /// malformed.
    #[must_use]
    pub fn global() -> &'static Self {
        Self::try_global().unwrap_or_else(|e| panic!("{e}"))
    }

    /// A telemetry bundle with this environment's log capacities.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::with_capacities(self.event_log_capacity, self.span_log_capacity)
    }

    /// The elastic controller configuration for a pool of
    /// `total_gpu_blocks`: `None` when no `VLLM_ELASTIC_*` variable is set,
    /// else the band `[max(1, total/4), total]` and default thresholds with
    /// the set variables applied.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] naming the set variables when
    /// they describe no valid controller on this pool (an empty band,
    /// `low >= high`).
    pub fn elastic_config(&self, total_gpu_blocks: usize) -> Result<Option<ElasticConfig>> {
        let o = &self.elastic;
        if *o == ElasticOverrides::default() {
            return Ok(None);
        }
        let mut cfg = ElasticConfig::new((total_gpu_blocks / 4).max(1), total_gpu_blocks)?;
        cfg.min_gpu_blocks = o.min_blocks.unwrap_or(cfg.min_gpu_blocks);
        cfg.max_gpu_blocks = o.max_blocks.unwrap_or(cfg.max_gpu_blocks);
        cfg.step_blocks = o.step_blocks.unwrap_or(cfg.step_blocks);
        cfg.low_free_fraction = o.low_watermark.unwrap_or(cfg.low_free_fraction);
        cfg.high_free_fraction = o.high_watermark.unwrap_or(cfg.high_free_fraction);
        cfg.cooldown_steps = o.cooldown_steps.unwrap_or(cfg.cooldown_steps);
        cfg.validate().map_err(|why| {
            VllmError::InvalidConfig(format!(
                "{} on a {total_gpu_blocks}-block pool: {why}",
                o.describe()
            ))
        })?;
        Ok(Some(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Env::parse`] over a table of `(name, value)` pairs.
    fn parse(table: &[(&str, &str)]) -> Result<Env> {
        Env::parse(|name| Some(table.iter().find(|(n, _)| *n == name)?.1.to_string()))
    }

    /// Every variable with one valid value, what it parses to, and one
    /// malformed or out-of-range value.
    type Case = (&'static str, &'static str, fn(&Env) -> bool, &'static str);

    const CASES: [Case; 16] = [
        (TRACE_SAMPLE, "0.25", |e| e.trace_sample == 0.25, "5"),
        (SLO_TTFT_P99, "0.5", |e| e.slo.ttft_p99 == Some(0.5), "0.5s"),
        (SLO_E2E_P99, "2", |e| e.slo.e2e_p99 == Some(2.0), "0"),
        (
            SLO_DEADLINE_MISS_BUDGET,
            "0.05",
            |e| e.slo.deadline_miss_budget == Some(0.05),
            "inf",
        ),
        (
            EVENT_LOG_CAPACITY,
            "64",
            |e| e.event_log_capacity == 64,
            "0",
        ),
        (
            SPAN_LOG_CAPACITY,
            "128",
            |e| e.span_log_capacity == 128,
            "many",
        ),
        (
            ELASTIC_MIN_BLOCKS,
            "8",
            |e| e.elastic.min_blocks == Some(8),
            "abc",
        ),
        (
            ELASTIC_MAX_BLOCKS,
            "64",
            |e| e.elastic.max_blocks == Some(64),
            "6.5",
        ),
        (
            ELASTIC_STEP_BLOCKS,
            "4",
            |e| e.elastic.step_blocks == Some(4),
            "0",
        ),
        (
            ELASTIC_LOW_WATERMARK,
            "0.2",
            |e| e.elastic.low_watermark == Some(0.2),
            "1.5",
        ),
        (
            ELASTIC_HIGH_WATERMARK,
            "0.8",
            |e| e.elastic.high_watermark == Some(0.8),
            "NaN",
        ),
        (
            ELASTIC_COOLDOWN_STEPS,
            "0",
            |e| e.elastic.cooldown_steps == Some(0),
            "-3",
        ),
        (
            REPLICA_ROLES,
            "prefill, d",
            |e| e.replica_roles == Some(vec![ReplicaRole::Prefill, ReplicaRole::Decode]),
            "prefill,frontend",
        ),
        (
            PREFIX_TIER_BLOCKS,
            "0",
            |e| e.prefix_tier_blocks == Some(0),
            "128 blocks",
        ),
        (
            KERNEL_BACKEND,
            "quant-kv8",
            |e| e.kernel_backend == BackendKind::QuantKv8,
            "scalar",
        ),
        (NUM_THREADS, "3", |e| e.num_threads == Some(3), "0"),
    ];

    #[test]
    fn every_variable_is_unset_empty_valid_or_an_error_naming_it() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.trace_sample, 1.0);
        assert!(defaults.slo.is_empty());
        assert_eq!(defaults.event_log_capacity, DEFAULT_EVENT_CAPACITY);
        assert_eq!(defaults.span_log_capacity, DEFAULT_SPAN_CAPACITY);
        assert_eq!(defaults.elastic, ElasticOverrides::default());
        assert_eq!(defaults.replica_roles, None);
        assert_eq!(defaults.prefix_tier_blocks, None);
        assert_eq!(defaults.kernel_backend, BackendKind::Simd);
        assert_eq!(defaults.num_threads, None);
        let names: std::collections::HashSet<&str> = CASES.iter().map(|c| c.0).collect();
        assert_eq!(names.len(), CASES.len(), "one case per variable");

        for (name, valid, parsed, malformed) in CASES {
            assert!(name.starts_with("VLLM_"), "{name}");
            for empty in ["", "  "] {
                assert_eq!(
                    parse(&[(name, empty)]),
                    Ok(defaults.clone()),
                    "{name} empty"
                );
            }
            let env = parse(&[(name, valid)]).unwrap();
            assert!(parsed(&env), "{name}={valid} parsed to {env:?}");
            assert_ne!(env, defaults, "{name}={valid} changed nothing");
            match parse(&[(name, malformed)]) {
                Err(VllmError::InvalidConfig(msg)) => {
                    assert!(msg.contains(name) && msg.contains(malformed), "{msg}");
                }
                other => panic!("{name}={malformed} gave {other:?}"),
            }
        }
    }

    #[test]
    fn scalar_backend_is_rejected_with_the_accepted_names() {
        let err = parse(&[(KERNEL_BACKEND, "scalar")]).unwrap_err();
        let msg = err.to_string();
        for named in [KERNEL_BACKEND, "scalar", "simd", "quant-kv8"] {
            assert!(msg.contains(named), "{msg}");
        }
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn other_names_are_ignored() {
        let env = parse(&[("VLLM_NOT_OURS", "x"), ("PATH", "/")]);
        assert_eq!(env, parse(&[]));
    }

    #[test]
    fn malformed_elastic_variable_is_an_error_not_the_default_band() {
        // A value the old per-site parser dropped while its presence check
        // still attached the controller with the default band.
        let err = parse(&[(ELASTIC_MIN_BLOCKS, "abc")]).unwrap_err();
        assert!(err.to_string().contains(ELASTIC_MIN_BLOCKS), "{err}");
        // The same variable well formed moves the band.
        let env = parse(&[(ELASTIC_MIN_BLOCKS, "8")]).unwrap();
        let cfg = env.elastic_config(64).unwrap().expect("attached");
        assert_eq!((cfg.min_gpu_blocks, cfg.max_gpu_blocks), (8, 64));
        assert_eq!(parse(&[]).unwrap().elastic_config(64), Ok(None));
    }

    #[test]
    fn inconsistent_elastic_band_is_an_error_not_a_silent_detach() {
        for (vars, named) in [
            (vec![(ELASTIC_MIN_BLOCKS, "100")], ELASTIC_MIN_BLOCKS),
            (
                vec![(ELASTIC_MIN_BLOCKS, "32"), (ELASTIC_MAX_BLOCKS, "16")],
                ELASTIC_MAX_BLOCKS,
            ),
            (vec![(ELASTIC_LOW_WATERMARK, "0.9")], ELASTIC_LOW_WATERMARK),
        ] {
            let env = parse(&vars).unwrap();
            match env.elastic_config(64) {
                Err(VllmError::InvalidConfig(msg)) => assert!(msg.contains(named), "{msg}"),
                other => panic!("{named}: {other:?}"),
            }
        }
    }
}
