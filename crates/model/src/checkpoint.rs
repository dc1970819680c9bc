//! Binary weight checkpoints for [`Transformer`] models.
//!
//! A small self-describing little-endian format (magic, version, config
//! header, then raw `f32` tensors in a fixed order) so demo models can be
//! trained/perturbed externally, persisted, and served without
//! re-initializing from a seed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::config::ModelConfig;
use crate::gemm::Panels;
use crate::transformer::{self, LayerShard, LayerWeights, Transformer};

/// File magic: `VLMR` (vLLM-Rust).
pub const MAGIC: u32 = 0x564c_4d52;
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors produced when decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
    /// The buffer ended before all tensors were read.
    Truncated,
    /// A header field is inconsistent (e.g. heads don't divide hidden).
    BadHeader(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a vllm checkpoint (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::BadHeader(msg) => write!(f, "bad checkpoint header: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_tensor(buf: &mut BytesMut, t: &[f32]) {
    buf.put_u64_le(t.len() as u64);
    for &v in t {
        buf.put_f32_le(v);
    }
}

/// Reads a tensor's length header, checking it and that its values follow.
fn tensor_header(buf: &mut Bytes, expected_len: usize) -> Result<(), CheckpointError> {
    if buf.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    let len = buf.get_u64_le() as usize;
    if len != expected_len {
        return Err(CheckpointError::BadHeader(format!(
            "tensor length {len}, expected {expected_len}"
        )));
    }
    if buf.remaining() / 4 < len {
        return Err(CheckpointError::Truncated);
    }
    Ok(())
}

fn get_tensor(buf: &mut Bytes, expected_len: usize) -> Result<Vec<f32>, CheckpointError> {
    tensor_header(buf, expected_len)?;
    Ok((0..expected_len).map(|_| buf.get_f32_le()).collect())
}

/// A `k × n` weight matrix, packed as its row-major values are read.
fn get_panels(buf: &mut Bytes, k: usize, n: usize) -> Result<Panels, CheckpointError> {
    let too_large = || CheckpointError::BadHeader(format!("{k} x {n} tensor"));
    tensor_header(buf, k.checked_mul(n).ok_or_else(too_large)?)?;
    Ok(Panels::from_fn(k, n, |_, _| buf.get_f32_le()))
}

/// Serializes a model to the checkpoint format.
#[must_use]
pub fn save(model: &Transformer) -> Vec<u8> {
    let c = &model.config;
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(c.vocab_size as u64);
    buf.put_u64_le(c.hidden as u64);
    buf.put_u64_le(c.n_layers as u64);
    buf.put_u64_le(c.n_heads as u64);
    buf.put_u64_le(c.max_position as u64);
    buf.put_u32_le(c.eos_token_id);
    buf.put_u64_le(c.seed);
    buf.put_u8(match c.position_encoding {
        crate::config::PositionEncoding::Learned => 0,
        crate::config::PositionEncoding::Rotary => 1,
    });
    put_tensor(&mut buf, &model.wte);
    put_tensor(&mut buf, &model.wpe);
    put_tensor(&mut buf, &model.ln_f_g);
    put_tensor(&mut buf, &model.ln_f_b);
    for (lw, ls) in model.layers.iter().zip(&model.shard) {
        let [w_qkv, w_o, w_fc, w_proj] =
            [&ls.w_qkv, &ls.w_o, &ls.w_fc, &ls.w_proj].map(Panels::to_row_major);
        for t in [
            &lw.ln1_g, &lw.ln1_b, &w_qkv, &ls.b_qkv, &w_o, &lw.b_o, &lw.ln2_g, &lw.ln2_b, &w_fc,
            &ls.b_fc, &w_proj, &lw.b_proj,
        ] {
            put_tensor(&mut buf, t);
        }
    }
    buf.to_vec()
}

/// Deserializes a model from the checkpoint format.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on malformed input.
pub fn load(data: &[u8]) -> Result<Transformer, CheckpointError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    if buf.get_u32_le() != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    if buf.remaining() < 5 * 8 + 4 + 8 + 1 {
        return Err(CheckpointError::Truncated);
    }
    let config = ModelConfig {
        vocab_size: buf.get_u64_le() as usize,
        hidden: buf.get_u64_le() as usize,
        n_layers: buf.get_u64_le() as usize,
        n_heads: buf.get_u64_le() as usize,
        max_position: buf.get_u64_le() as usize,
        eos_token_id: buf.get_u32_le(),
        seed: buf.get_u64_le(),
        position_encoding: match buf.get_u8() {
            0 => crate::config::PositionEncoding::Learned,
            1 => crate::config::PositionEncoding::Rotary,
            other => {
                return Err(CheckpointError::BadHeader(format!(
                    "unknown position encoding {other}"
                )))
            }
        },
        // The kernel backend is a serving-time choice, not a property of
        // the weights; loaded models pick it up from the environment.
        backend: vllm_core::Env::global().kernel_backend,
    };
    config.check().map_err(CheckpointError::BadHeader)?;
    let h = config.hidden;
    let size = |rows: usize| {
        let too_large = || CheckpointError::BadHeader(format!("{rows} x {h} tensor"));
        rows.checked_mul(h).ok_or_else(too_large)
    };
    let wte = get_tensor(&mut buf, size(config.vocab_size)?)?;
    let wpe = get_tensor(&mut buf, size(config.max_position)?)?;
    let ln_f_g = get_tensor(&mut buf, h)?;
    let ln_f_b = get_tensor(&mut buf, h)?;
    // `wte` held `vocab · h` floats of the input, so the `4 · h`-sized
    // layer tensors below cannot overflow. A layer is twelve tensors, each
    // at least its 8-byte length: no more layers can follow than the bytes
    // left hold.
    if config.n_layers > buf.remaining() / (12 * 8) {
        return Err(CheckpointError::Truncated);
    }
    let mut layers = Vec::with_capacity(config.n_layers);
    let mut shard = Vec::with_capacity(config.n_layers);
    for _ in 0..config.n_layers {
        let ln1_g = get_tensor(&mut buf, h)?;
        let ln1_b = get_tensor(&mut buf, h)?;
        let w_qkv = get_panels(&mut buf, h, 3 * h)?;
        let b_qkv = get_tensor(&mut buf, 3 * h)?;
        let w_o = get_panels(&mut buf, h, h)?;
        let b_o = get_tensor(&mut buf, h)?;
        let ln2_g = get_tensor(&mut buf, h)?;
        let ln2_b = get_tensor(&mut buf, h)?;
        let w_fc = get_panels(&mut buf, h, 4 * h)?;
        let b_fc = get_tensor(&mut buf, 4 * h)?;
        let w_proj = get_panels(&mut buf, 4 * h, h)?;
        let b_proj = get_tensor(&mut buf, h)?;
        layers.push(LayerWeights {
            ln1_g,
            ln1_b,
            b_o,
            ln2_g,
            ln2_b,
            b_proj,
        });
        shard.push(LayerShard {
            w_qkv,
            b_qkv,
            w_o,
            w_fc,
            b_fc,
            w_proj,
        });
    }
    if buf.remaining() > 0 {
        return Err(CheckpointError::BadHeader(format!(
            "{} bytes past the last tensor",
            buf.remaining()
        )));
    }
    // The LM head is derived, not serialized.
    Ok(Transformer {
        lm_head: transformer::lm_head(&wte, config.vocab_size, h),
        config,
        wte,
        wpe,
        layers,
        shard,
        ln_f_g,
        ln_f_b,
    })
}

/// Saves a model to a file.
///
/// # Errors
///
/// Returns I/O errors from the filesystem.
pub fn save_to_file(model: &Transformer, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, save(model))
}

/// Loads a model from a file.
///
/// # Errors
///
/// Returns I/O errors, or `InvalidData` wrapping a [`CheckpointError`].
pub fn load_from_file(path: &std::path::Path) -> std::io::Result<Transformer> {
    let data = std::fs::read(path)?;
    load(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv_cache::KvPool;

    #[test]
    fn round_trip_preserves_weights() {
        let model = Transformer::new(ModelConfig::tiny());
        let bytes = save(&model);
        let loaded = load(&bytes).unwrap();
        assert_eq!(loaded.config, model.config);
        assert_eq!(loaded.wte, model.wte);
        assert_eq!(loaded.wpe, model.wpe);
        assert_eq!(loaded.layers.len(), model.layers.len());
        assert_eq!(loaded.shard[0].w_qkv, model.shard[0].w_qkv);
        assert_eq!(loaded.layers[1].b_proj, model.layers[1].b_proj);
    }

    #[test]
    fn save_load_save_is_byte_identical_and_logits_bitwise_equal() {
        // Learned and rotary, and a vocabulary and width that end no stripe.
        let odd = ModelConfig {
            vocab_size: 37,
            hidden: 24,
            n_heads: 3,
            ..ModelConfig::tiny()
        };
        for cfg in [ModelConfig::tiny(), ModelConfig::tiny_rotary(), odd] {
            let model = Transformer::new(cfg.clone());
            let bytes = save(&model);
            let loaded = load(&bytes).unwrap();
            assert_eq!(save(&loaded), bytes);
            assert_eq!(loaded.lm_head, model.lm_head);
            let mut pool_a = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
            let mut pool_b = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
            let a = model.forward_paged(&[3, 1, 4], &[0, 1, 2], &mut pool_a, &[0, 1]);
            let b = loaded.forward_paged(&[3, 1, 4], &[0, 1, 2], &mut pool_b, &[0, 1]);
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let model = Transformer::new(ModelConfig::tiny());
        let mut bytes = save(&model);
        bytes[0] ^= 0xff;
        assert!(matches!(load(&bytes), Err(CheckpointError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let model = Transformer::new(ModelConfig::tiny());
        let bytes = save(&model);
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(load(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corrupt_header_rejected() {
        let model = Transformer::new(ModelConfig::tiny());
        let mut bytes = save(&model);
        // Zero the hidden dimension (offset: magic 4 + version 4 + vocab 8).
        for b in &mut bytes[16..24] {
            *b = 0;
        }
        assert!(matches!(
            load(&bytes),
            Err(CheckpointError::BadHeader(_)) | Err(CheckpointError::Truncated)
        ));
    }

    /// Offsets of the header's `u64` fields, after magic and version.
    const VOCAB_AT: usize = 8;
    const N_LAYERS_AT: usize = 24;
    const N_HEADS_AT: usize = 32;
    const MAX_POSITION_AT: usize = 40;
    /// Bytes before the first tensor: then eos (4), seed (8), encoding (1).
    const HEADER_LEN: usize = MAX_POSITION_AT + 8 + 4 + 8 + 1;

    #[test]
    fn absurd_layer_count_is_an_error() {
        let mut bytes = save(&Transformer::new(ModelConfig::tiny()));
        for n_layers in [1u64 << 60, u64::MAX, 3] {
            bytes[N_LAYERS_AT..N_LAYERS_AT + 8].copy_from_slice(&n_layers.to_le_bytes());
            assert_eq!(load(&bytes).err(), Some(CheckpointError::Truncated));
        }
    }

    #[test]
    fn overflowing_tensor_sizes_are_errors() {
        // vocab · hidden and max_position · hidden past usize.
        for field in [VOCAB_AT, MAX_POSITION_AT] {
            let mut bytes = save(&Transformer::new(ModelConfig::tiny()));
            bytes[field..field + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
            assert!(matches!(load(&bytes), Err(CheckpointError::BadHeader(_))));
        }
    }

    #[test]
    fn config_rules_are_header_errors() {
        let model = Transformer::new(ModelConfig::tiny());
        for n_heads in [0u64, 5, 64] {
            let mut bytes = save(&model);
            bytes[N_HEADS_AT..N_HEADS_AT + 8].copy_from_slice(&n_heads.to_le_bytes());
            assert!(
                matches!(load(&bytes), Err(CheckpointError::BadHeader(_))),
                "{n_heads} heads"
            );
        }
        // Rotary heads of odd width (32 heads of 1).
        let mut bytes = save(&Transformer::new(ModelConfig::tiny_rotary()));
        bytes[N_HEADS_AT..N_HEADS_AT + 8].copy_from_slice(&32u64.to_le_bytes());
        assert!(matches!(load(&bytes), Err(CheckpointError::BadHeader(_))));
        let mut bytes = save(&model);
        bytes.push(0);
        assert!(matches!(load(&bytes), Err(CheckpointError::BadHeader(_))));
    }

    /// `load(bytes)` is an error, or a model whose config obeys the rules
    /// and whose forward runs.
    fn load_is_total(bytes: &[u8], what: &str) -> bool {
        let Ok(model) = load(bytes) else {
            return false;
        };
        let cfg = &model.config;
        assert_eq!(cfg.check(), Ok(()), "{what}");
        let element = model.backend().kv_layout().element;
        let mut kv = KvPool::with_element(cfg.n_layers, 1, 4, cfg.hidden, element);
        let tokens = [0, cfg.vocab_size as u32 - 1];
        let n = tokens.len().min(cfg.max_position);
        let logits = model.forward_paged(&tokens[..n], &[0, 1][..n], &mut kv, &[0]);
        assert_eq!(logits.len(), cfg.vocab_size, "{what}");
        true
    }

    #[test]
    fn every_truncation_and_mutation_is_an_error_or_a_runnable_model() {
        let cfg = ModelConfig {
            vocab_size: 16,
            hidden: 8,
            n_layers: 2,
            n_heads: 2,
            max_position: 8,
            ..ModelConfig::tiny()
        };
        let bytes = save(&Transformer::new(cfg));
        for cut in 0..bytes.len() {
            assert!(load(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // SplitMix64, seeded.
        let mut state = 0x00c0_ffeeu64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let mut loaded = 0;
        for round in 0..5_000 {
            let mut m = bytes.clone();
            // One to three bytes, half the time all in the header.
            let span = if round % 2 == 0 { HEADER_LEN } else { m.len() };
            for _ in 0..1 + next() % 3 {
                let at = next() % span;
                m[at] = next() as u8;
            }
            if load_is_total(&m, &format!("mutation {round}")) {
                loaded += 1;
            }
        }
        // Mutated weights still load: the test reached the forward.
        assert!(loaded > 1_000, "{loaded} of 5000 mutations loaded");
    }

    #[test]
    fn file_round_trip() {
        let model = Transformer::new(ModelConfig::tiny());
        let dir = std::env::temp_dir().join("vllm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.vlmr");
        save_to_file(&model, &path).unwrap();
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded.wte, model.wte);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_rejected() {
        let model = Transformer::new(ModelConfig::tiny());
        let mut bytes = save(&model);
        bytes[4] = 99;
        assert!(matches!(load(&bytes), Err(CheckpointError::BadVersion(99))));
    }
}
