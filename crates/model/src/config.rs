//! Model hyper-parameters for the CPU transformer substrate.

use vllm_core::Env;

use crate::backend::BackendKind;

/// How token positions are injected (§2.1 substrate detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionEncoding {
    /// Learned absolute position embeddings (OPT/GPT style).
    Learned,
    /// Rotary position embeddings applied to Q/K (LLaMA style). Keys are
    /// stored post-rotation in the KV cache, as in real serving systems.
    Rotary,
}

/// Configuration of a GPT/OPT-style decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden dimension (`d` in the paper).
    pub hidden: usize,
    /// Number of decoder layers.
    pub n_layers: usize,
    /// Number of attention heads; must divide `hidden`.
    pub n_heads: usize,
    /// Maximum sequence length (learned positional embeddings).
    pub max_position: usize,
    /// End-of-sequence token id.
    pub eos_token_id: u32,
    /// Seed for deterministic weight initialization.
    pub seed: u64,
    /// Position-encoding scheme.
    pub position_encoding: PositionEncoding,
    /// Kernel backend serving this model (selects the KV cache element
    /// layout its attention reads). Presets and the checkpoint loader take
    /// `VLLM_KERNEL_BACKEND` ([`Env::kernel_backend`]); not serialized in
    /// checkpoints.
    pub backend: BackendKind,
}

impl ModelConfig {
    /// A tiny model for unit tests (fast, still multi-head/multi-layer).
    ///
    /// # Panics
    ///
    /// Panics if a `VLLM_*` variable is malformed (see [`vllm_core::env`]).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            vocab_size: 128,
            hidden: 32,
            n_layers: 2,
            n_heads: 4,
            max_position: 512,
            eos_token_id: 0,
            seed: 0x5eed,
            position_encoding: PositionEncoding::Learned,
            backend: Env::global().kernel_backend,
        }
    }

    /// A tiny LLaMA-style model (rotary positions) for tests.
    #[must_use]
    pub fn tiny_rotary() -> Self {
        Self {
            position_encoding: PositionEncoding::Rotary,
            seed: 0x11a,
            ..Self::tiny()
        }
    }

    /// A small demo model for examples (byte-level vocabulary).
    ///
    /// # Panics
    ///
    /// As [`Self::tiny`].
    #[must_use]
    pub fn small() -> Self {
        Self {
            vocab_size: 260,
            hidden: 64,
            n_layers: 4,
            n_heads: 8,
            max_position: 1024,
            eos_token_id: 257,
            seed: 0xcafe,
            position_encoding: PositionEncoding::Learned,
            backend: Env::global().kernel_backend,
        }
    }

    /// Per-head dimension.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }

    /// The shape rules every model obeys: no zero dimension, `n_heads`
    /// divides `hidden`, and rotary heads have an even width (RoPE rotates
    /// pairs).
    ///
    /// # Errors
    ///
    /// Returns the first rule broken, as a sentence.
    pub fn check(&self) -> Result<(), String> {
        if self.vocab_size == 0 || self.hidden == 0 || self.n_layers == 0 || self.max_position == 0
        {
            return Err("zero-sized dimension".into());
        }
        if self.n_heads == 0 || !self.hidden.is_multiple_of(self.n_heads) {
            return Err(format!(
                "hidden ({}) must be divisible by n_heads ({})",
                self.hidden, self.n_heads
            ));
        }
        if self.position_encoding == PositionEncoding::Rotary && !self.head_dim().is_multiple_of(2)
        {
            return Err(format!(
                "rotary heads need an even width, not {}",
                self.head_dim()
            ));
        }
        Ok(())
    }

    /// [`Self::check`], as an assertion.
    ///
    /// # Panics
    ///
    /// Panics with the rule [`Self::check`] reports broken.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("invalid model config: {rule}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_valid() {
        ModelConfig::tiny().validate();
        ModelConfig::small().validate();
        assert_eq!(ModelConfig::tiny().head_dim(), 8);
    }

    #[test]
    fn odd_rotary_heads_are_rejected() {
        let c = ModelConfig {
            n_heads: 32,
            ..ModelConfig::tiny_rotary()
        };
        assert!(c.check().unwrap_err().contains("even"));
        assert!(ModelConfig {
            n_heads: 32,
            ..ModelConfig::tiny()
        }
        .check()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn invalid_heads_panics() {
        let mut c = ModelConfig::tiny();
        c.n_heads = 5;
        c.validate();
    }
}
