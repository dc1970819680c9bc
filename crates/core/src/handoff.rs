//! KV-handoff payloads for disaggregated prefill/decode serving.
//!
//! Disaggregation splits the fleet into prefill and decode pools: a request
//! prefills on one replica and decodes on another, so the prefix KV computed
//! during prefill must *move*. This module defines the unit of that move —
//! a [`HandoffPayload`] of serialized block ranges — and a wire codec that
//! ships it over the line-oriented protocol as one hex-encoded frame.
//!
//! The payload respects the backend's [`KvElement`]-style storage layout:
//! plain `f32` K/V, or int8-quantized K/V with one `f32` dequantization
//! scale per stored vector (`quant-kv8`). Scales travel with the values, so
//! a quantized block reinstalls bit-identically on the target.
//!
//! Installation on the receiving engine is journaled: the payload's blocks
//! become [`KvBlockInstall`] entries in the step's
//! [`CacheOps`](crate::executor::CacheOps), applied by the executor under
//! the same ordering contract as swaps and copies. That keeps the handoff
//! path on the paper's §4.3 control-message design — the scheduler
//! piggybacks memory management on the step — rather than adding a side
//! channel that mutates KV behind the journal's back.
//!
//! Codec errors (truncation, corruption, checksum mismatch) surface as
//! [`VllmError::Protocol`]: resending the same bytes cannot help, so the
//! error is terminal for that transfer attempt and the caller re-exports.

use crate::block::PhysicalBlockId;
use crate::error::{Result, VllmError};
use crate::sampling::TokenId;

/// One block's worth of serialized KV, layout-tagged.
///
/// Vectors cover all layers concatenated layer-major, exactly as the pool
/// stores them: `n_layers * block_size * hidden` values and, for the
/// quantized layout, `n_layers * block_size` per-slot scales. Backends
/// without addressable KV storage (the scripted mock, the discrete-event
/// simulator) export empty-bodied blocks: the bookkeeping and wire path are
/// exercised end to end while installation is a no-op.
#[derive(Debug, Clone, PartialEq)]
pub enum KvBlockBytes {
    /// Plain `f32` K/V values.
    F32 {
        /// Key values, layer-major.
        k: Vec<f32>,
        /// Value values, layer-major.
        v: Vec<f32>,
    },
    /// Int8-quantized K/V with one `f32` dequantization scale per vector.
    Int8 {
        /// Quantized key values, layer-major.
        k: Vec<i8>,
        /// Quantized value values, layer-major.
        v: Vec<i8>,
        /// Per-slot key scales, layer-major.
        k_scales: Vec<f32>,
        /// Per-slot value scales, layer-major.
        v_scales: Vec<f32>,
    },
}

impl KvBlockBytes {
    /// An empty f32 block (used by backends with no addressable KV).
    #[must_use]
    pub fn empty() -> Self {
        Self::F32 {
            k: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Whether the block carries no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            Self::F32 { k, v } => k.is_empty() && v.is_empty(),
            Self::Int8 { k, v, .. } => k.is_empty() && v.is_empty(),
        }
    }

    /// Approximate payload size in bytes (capacity planning / metrics).
    #[must_use]
    pub fn num_bytes(&self) -> usize {
        match self {
            Self::F32 { k, v } => (k.len() + v.len()) * 4,
            Self::Int8 {
                k,
                v,
                k_scales,
                v_scales,
            } => k.len() + v.len() + (k_scales.len() + v_scales.len()) * 4,
        }
    }
}

/// One journaled installation: write `data` into physical GPU block `dst`.
///
/// Carried in [`CacheOps::installs`](crate::executor::CacheOps::installs)
/// and applied after swap-ins and copies — the installed blocks are fresh
/// allocations, so no earlier operation in the step can reference them.
#[derive(Debug, Clone, PartialEq)]
pub struct KvBlockInstall {
    /// Destination physical GPU block.
    pub dst: PhysicalBlockId,
    /// Serialized block contents.
    pub data: KvBlockBytes,
}

/// A complete KV handoff: everything the decode replica needs to resume a
/// request whose prefill (and first sampled token) happened elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffPayload {
    /// Request being migrated.
    pub request_id: String,
    /// Prompt tokens whose KV the payload carries.
    pub tokens: Vec<TokenId>,
    /// First sampled token, produced by the prefill replica. `None` for
    /// pure prefix-tier shipments (no sampling happened).
    pub first_token: Option<TokenId>,
    /// Sampling seed the decode replica must continue with.
    pub seed: u64,
    /// Tokens per block on the source (must match the target).
    pub block_size: usize,
    /// Serialized blocks, in logical order; `tokens.len().div_ceil(block_size)`
    /// entries.
    pub blocks: Vec<KvBlockBytes>,
}

impl HandoffPayload {
    /// Validates internal consistency (block count vs token count).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::Protocol`] when the block count disagrees with
    /// the token count, or the payload is empty.
    pub fn validate(&self) -> Result<()> {
        if self.tokens.is_empty() {
            return Err(VllmError::Protocol("handoff payload has no tokens".into()));
        }
        if self.block_size == 0 {
            return Err(VllmError::Protocol("handoff block_size is zero".into()));
        }
        let want = self.tokens.len().div_ceil(self.block_size);
        if self.blocks.len() != want {
            return Err(VllmError::Protocol(format!(
                "handoff block count {} disagrees with {} tokens at block size {} (want {})",
                self.blocks.len(),
                self.tokens.len(),
                self.block_size,
                want
            )));
        }
        Ok(())
    }

    /// Total serialized KV bytes across all blocks.
    #[must_use]
    pub fn kv_bytes(&self) -> usize {
        self.blocks.iter().map(KvBlockBytes::num_bytes).sum()
    }

    /// Encodes the payload as one hex line for the tab-separated wire
    /// protocol (no tabs, no newlines), with a trailing FNV-1a checksum.
    #[must_use]
    pub fn encode_wire(&self) -> String {
        let mut w = ByteWriter::new();
        w.str(&self.request_id);
        w.u64(self.tokens.len() as u64);
        for &t in &self.tokens {
            w.u32(t);
        }
        match self.first_token {
            Some(t) => {
                w.u8(1);
                w.u32(t);
            }
            None => w.u8(0),
        }
        w.u64(self.seed);
        w.u64(self.block_size as u64);
        w.u64(self.blocks.len() as u64);
        for b in &self.blocks {
            match b {
                KvBlockBytes::F32 { k, v } => {
                    w.u8(0);
                    w.f32s(k);
                    w.f32s(v);
                }
                KvBlockBytes::Int8 {
                    k,
                    v,
                    k_scales,
                    v_scales,
                } => {
                    w.u8(1);
                    w.i8s(k);
                    w.i8s(v);
                    w.f32s(k_scales);
                    w.f32s(v_scales);
                }
            }
        }
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        hex_encode(&w.buf)
    }

    /// Decodes a payload from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::Protocol`] on malformed hex, truncation, a
    /// checksum mismatch, or an inconsistent payload.
    pub fn decode_wire(line: &str) -> Result<Self> {
        let buf = hex_decode(line)?;
        if buf.len() < 8 {
            return Err(VllmError::Protocol("handoff frame truncated".into()));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(body) != want {
            return Err(VllmError::Protocol("handoff checksum mismatch".into()));
        }
        let mut r = ByteReader::new(body);
        let request_id = r.str()?;
        let n_tokens = r.u64()? as usize;
        if n_tokens > body.len() {
            return Err(VllmError::Protocol("handoff token count corrupt".into()));
        }
        let mut tokens = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            tokens.push(r.u32()?);
        }
        let first_token = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            _ => {
                return Err(VllmError::Protocol(
                    "handoff first-token flag corrupt".into(),
                ))
            }
        };
        let seed = r.u64()?;
        let block_size = r.u64()? as usize;
        let n_blocks = r.u64()? as usize;
        if n_blocks > body.len() {
            return Err(VllmError::Protocol("handoff block count corrupt".into()));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let block = match r.u8()? {
                0 => KvBlockBytes::F32 {
                    k: r.f32s()?,
                    v: r.f32s()?,
                },
                1 => KvBlockBytes::Int8 {
                    k: r.i8s()?,
                    v: r.i8s()?,
                    k_scales: r.f32s()?,
                    v_scales: r.f32s()?,
                },
                _ => return Err(VllmError::Protocol("handoff layout tag corrupt".into())),
            };
            blocks.push(block);
        }
        if !r.at_end() {
            return Err(VllmError::Protocol(
                "handoff frame has trailing bytes".into(),
            ));
        }
        let payload = Self {
            request_id,
            tokens,
            first_token,
            seed,
            block_size,
            blocks,
        };
        payload.validate()?;
        Ok(payload)
    }
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(VllmError::Protocol("odd-length hex frame".into()));
    }
    let nib = |c: u8| -> Result<u8> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(VllmError::Protocol(format!(
                "invalid hex byte {:?} in handoff frame",
                c as char
            ))),
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Ok(out)
}

/// Minimal little-endian length-prefixed writer.
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn f32s(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn i8s(&mut self, vs: &[i8]) {
        self.u64(vs.len() as u64);
        self.buf.extend(vs.iter().map(|&v| v as u8));
    }
}

/// Matching reader; every accessor fails with [`VllmError::Protocol`] on
/// truncation.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(VllmError::Protocol("handoff frame truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn len_prefix(&mut self) -> Result<usize> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(VllmError::Protocol("handoff length prefix corrupt".into()));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String> {
        let n = self.len_prefix()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| VllmError::Protocol("handoff string not utf-8".into()))
    }
    fn f32s(&mut self) -> Result<Vec<f32>> {
        let n = self.len_prefix()?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
    fn i8s(&mut self) -> Result<Vec<i8>> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }
    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_f32() -> HandoffPayload {
        HandoffPayload {
            request_id: "req-7".into(),
            tokens: (1..=20).collect(),
            first_token: Some(42),
            seed: 0xdead_beef,
            block_size: 16,
            blocks: vec![
                KvBlockBytes::F32 {
                    k: vec![1.5, -2.25, 0.0],
                    v: vec![3.0, 4.5, -6.75],
                },
                KvBlockBytes::F32 {
                    k: vec![7.0],
                    v: vec![-8.0],
                },
            ],
        }
    }

    fn sample_q8() -> HandoffPayload {
        HandoffPayload {
            request_id: "q".into(),
            tokens: vec![5, 6, 7],
            first_token: None,
            seed: 1,
            block_size: 4,
            blocks: vec![KvBlockBytes::Int8 {
                k: vec![1, -2, 127, -127],
                v: vec![0, 3, -4, 5],
                k_scales: vec![0.01, 0.02],
                v_scales: vec![0.03, 0.04],
            }],
        }
    }

    #[test]
    fn wire_round_trip_f32() {
        let p = sample_f32();
        let line = p.encode_wire();
        assert!(!line.contains('\t') && !line.contains('\n'));
        assert_eq!(HandoffPayload::decode_wire(&line).unwrap(), p);
    }

    #[test]
    fn wire_round_trip_q8_preserves_scales() {
        let p = sample_q8();
        let got = HandoffPayload::decode_wire(&p.encode_wire()).unwrap();
        assert_eq!(got, p);
        match &got.blocks[0] {
            KvBlockBytes::Int8 { k_scales, .. } => assert_eq!(k_scales, &vec![0.01, 0.02]),
            KvBlockBytes::F32 { .. } => panic!("layout tag lost"),
        }
    }

    #[test]
    fn corruption_is_a_protocol_error() {
        let mut line = sample_f32().encode_wire();
        // Flip one hex digit mid-frame.
        let mid = line.len() / 2;
        let flipped = if &line[mid..=mid] == "0" { "1" } else { "0" };
        line.replace_range(mid..=mid, flipped);
        let err = HandoffPayload::decode_wire(&line).unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::Protocol);
        assert!(!err.is_retryable());
    }

    #[test]
    fn truncation_is_a_protocol_error() {
        let line = sample_f32().encode_wire();
        let err = HandoffPayload::decode_wire(&line[..10]).unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::Protocol);
    }

    #[test]
    fn validate_rejects_block_count_mismatch() {
        let mut p = sample_f32();
        p.blocks.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn kv_bytes_accounting() {
        assert_eq!(sample_f32().kv_bytes(), (3 + 3 + 1 + 1) * 4);
        assert_eq!(sample_q8().kv_bytes(), 4 + 4 + (2 + 2) * 4);
        assert!(KvBlockBytes::empty().is_empty());
    }
}
