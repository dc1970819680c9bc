//! Binary weight checkpoints for [`Transformer`] models.
//!
//! A small self-describing little-endian format (magic, version, config
//! header, then raw `f32` tensors in a fixed order) so demo models can be
//! trained/perturbed externally, persisted, and served without
//! re-initializing from a seed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::config::ModelConfig;
use crate::gemm::Panels;
use crate::transformer::{self, LayerWeights, Transformer};

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
    for lw in &model.layers {
        let [w_qkv, w_o, w_fc, w_proj] =
            [&lw.w_qkv, &lw.w_o, &lw.w_fc, &lw.w_proj].map(Panels::to_row_major);
        for t in [
            &lw.ln1_g, &lw.ln1_b, &w_qkv, &lw.b_qkv, &w_o, &lw.b_o, &lw.ln2_g, &lw.ln2_b, &w_fc,
            &lw.b_fc, &w_proj, &lw.b_proj,
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
    if config.n_heads == 0 || config.hidden == 0 || !config.hidden.is_multiple_of(config.n_heads) {
        return Err(CheckpointError::BadHeader(
            "heads must divide hidden".into(),
        ));
    }
    if config.vocab_size == 0 || config.n_layers == 0 || config.max_position == 0 {
        return Err(CheckpointError::BadHeader("zero-sized dimension".into()));
    }
    let h = config.hidden;
    let wte = get_tensor(&mut buf, config.vocab_size * h)?;
    let wpe = get_tensor(&mut buf, config.max_position * h)?;
    let ln_f_g = get_tensor(&mut buf, h)?;
    let ln_f_b = get_tensor(&mut buf, h)?;
    let mut layers = Vec::with_capacity(config.n_layers);
    for _ in 0..config.n_layers {
        layers.push(LayerWeights {
            ln1_g: get_tensor(&mut buf, h)?,
            ln1_b: get_tensor(&mut buf, h)?,
            w_qkv: get_panels(&mut buf, h, 3 * h)?,
            b_qkv: get_tensor(&mut buf, 3 * h)?,
            w_o: get_panels(&mut buf, h, h)?,
            b_o: get_tensor(&mut buf, h)?,
            ln2_g: get_tensor(&mut buf, h)?,
            ln2_b: get_tensor(&mut buf, h)?,
            w_fc: get_panels(&mut buf, h, 4 * h)?,
            b_fc: get_tensor(&mut buf, 4 * h)?,
            w_proj: get_panels(&mut buf, 4 * h, h)?,
            b_proj: get_tensor(&mut buf, h)?,
        });
    }
    // The LM head is derived, not serialized.
    Ok(Transformer {
        lm_head: transformer::lm_head(&wte, config.vocab_size, h),
        config,
        wte,
        wpe,
        layers,
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
        assert_eq!(loaded.layers[0].w_qkv, model.layers[0].w_qkv);
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
