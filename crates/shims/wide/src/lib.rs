//! Offline stand-in for the `wide` crate: a portable 8-lane f32 vector.
//!
//! The real crate wraps platform intrinsics; this shim is plain Rust over a
//! fixed-size array with `#[inline(always)]` element-wise ops, which the
//! autovectorizer lowers to SSE/AVX on x86 and NEON on aarch64. Lane
//! semantics are strict IEEE-754 single rounding per operation (no FMA
//! contraction), so results are reproducible across platforms and identical
//! to the equivalent scalar expression evaluated lane by lane.

/// Eight `f32` lanes operated on element-wise.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(32))]
pub struct f32x8([f32; 8]);

impl f32x8 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 8]);

    /// Number of lanes.
    pub const LANES: usize = 8;

    /// Builds a vector from its lanes.
    #[inline(always)]
    #[must_use]
    pub const fn new(lanes: [f32; 8]) -> Self {
        Self(lanes)
    }

    /// Broadcasts `v` into every lane.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f32) -> Self {
        Self([v; 8])
    }

    /// Loads the first 8 elements of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() < 8`.
    #[inline(always)]
    #[must_use]
    pub fn from_slice(s: &[f32]) -> Self {
        let mut lanes = [0.0f32; 8];
        lanes.copy_from_slice(&s[..8]);
        Self(lanes)
    }

    /// Stores the lanes into the first 8 elements of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < 8`.
    #[inline(always)]
    pub fn write_to_slice(self, out: &mut [f32]) {
        out[..8].copy_from_slice(&self.0);
    }

    /// `self * a + b`, element-wise, with separate mul and add roundings
    /// (no fused multiply-add), matching the scalar `x * a + b`.
    #[inline(always)]
    #[must_use]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] * a.0[i] + b.0[i]))
    }

    /// Horizontal sum with a fixed pairwise reduction order:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
    ///
    /// The order is deterministic and independent of how the vector was
    /// built, so reductions are reproducible run to run.
    #[inline(always)]
    #[must_use]
    pub fn reduce_add(self) -> f32 {
        let l = &self.0;
        let a = l[0] + l[4];
        let b = l[1] + l[5];
        let c = l[2] + l[6];
        let d = l[3] + l[7];
        (a + c) + (b + d)
    }

    /// Lane-wise maximum, `if a > b { a } else { b }` per lane (a NaN in
    /// either operand yields the lane of `rhs`).
    #[inline(always)]
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| {
            if self.0[i] > rhs.0[i] {
                self.0[i]
            } else {
                rhs.0[i]
            }
        }))
    }

    /// Horizontal maximum, reduced in the same fixed pairwise shape as
    /// [`Self::reduce_add`].
    #[inline(always)]
    #[must_use]
    pub fn reduce_max(self) -> f32 {
        let l = &self.0;
        let m = |a: f32, b: f32| if a > b { a } else { b };
        m(
            m(m(l[0], l[4]), m(l[2], l[6])),
            m(m(l[1], l[5]), m(l[3], l[7])),
        )
    }

    /// Lane-wise `e^x`: Cody–Waite range reduction (`x = n·ln2 + r`, `n`
    /// rounded to nearest by the add-magic-constant trick) and the Cephes
    /// degree-5 polynomial in `r`, every step a single separately rounded
    /// mul or add. A lane's result is a function of that lane's input
    /// alone, so it is the same bits in every lane and under every
    /// instantiation (baseline, AVX2) of the calling code.
    ///
    /// Within 4 ulp on `[-87, 0]` (the softmax range); `exp(0) = 1`
    /// exactly; inputs below `ln(2^-126) ≈ -87.34` (including `-inf`) give
    /// `0`, inputs above `88.37` give `+inf`, NaN gives NaN.
    #[inline(always)]
    #[must_use]
    pub fn exp(self) -> Self {
        // A counted loop over an always-inlined scalar body: the form the
        // loop vectorizer reliably turns into whole-vector code.
        let mut out = [0.0f32; 8];
        for (o, &x) in out.iter_mut().zip(&self.0) {
            *o = exp_lane(x);
        }
        Self(out)
    }

    /// The lanes as an array.
    #[inline(always)]
    #[must_use]
    pub fn to_array(self) -> [f32; 8] {
        self.0
    }
}

/// One lane of [`f32x8::exp`], for loops that run over scalars: the same
/// operations in the same order, so the same bits as any lane of the vector
/// form.
#[inline(always)]
#[must_use]
pub fn exp_lane(x: f32) -> f32 {
    // ln 2 split into a 9-bit head (so `n * LN2_HI` is exact) and a tail.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding it leaves round-to-nearest(x) in the low mantissa
    // bits, subtracting it gives that integer back as a float.
    const MAGIC: f32 = 12_582_912.0;
    const LO: f32 = -87.336_54;
    const HI: f32 = 88.37;
    // Clamp so the arithmetic below stays in range (a NaN passes through).
    let xc = if x < LO { LO } else { x };
    let xc = if xc > HI { HI } else { xc };
    let t = xc * std::f32::consts::LOG2_E + MAGIC;
    let n = t - MAGIC;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_2e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    let y = p * (r * r) + r + 1.0;
    // 2^n, built from the integer left in `t`'s mantissa.
    let n_int = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let pow2 = f32::from_bits((n_int.wrapping_add(127) << 23) as u32);
    let e = y * pow2;
    let e = if x < LO { 0.0 } else { e };
    if x > HI {
        f32::INFINITY
    } else {
        e
    }
}

impl std::ops::Add for f32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl std::ops::Sub for f32x8 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }
}

impl std::ops::Mul for f32x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] * rhs.0[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_array_round_trip() {
        let v = f32x8::splat(2.5);
        assert_eq!(v.to_array(), [2.5; 8]);
    }

    #[test]
    fn slice_round_trip() {
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let v = f32x8::from_slice(&data[1..]);
        let mut out = [0.0f32; 9];
        v.write_to_slice(&mut out);
        assert_eq!(&out[..8], &data[1..9]);
        assert_eq!(out[8], 0.0);
    }

    #[test]
    fn mul_add_matches_scalar_expression() {
        let a = f32x8::from_slice(&[1.5, -2.0, 3.25, 0.0, 7.0, -0.5, 2.0, 9.0]);
        let b = f32x8::from_slice(&[0.5, 4.0, -1.0, 2.0, 3.0, 6.0, -2.5, 1.0]);
        let c = f32x8::splat(0.125);
        let r = a.mul_add(b, c).to_array();
        let av = a.to_array();
        let bv = b.to_array();
        for i in 0..8 {
            assert_eq!(r[i], av[i] * bv[i] + 0.125f32);
        }
    }

    #[test]
    fn reduce_add_is_fixed_order() {
        let v = f32x8::from_slice(&[1e8, 1.0, -1e8, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let l = v.to_array();
        let expect = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
        assert_eq!(v.reduce_add(), expect);
    }

    /// Distance in representable f32 steps between `got` and the f64
    /// reference rounded to f32.
    fn ulps(got: f32, want: f64) -> u32 {
        let want = want as f32;
        (got.to_bits() as i64 - want.to_bits() as i64).unsigned_abs() as u32
    }

    #[test]
    fn exp_within_4_ulp_on_softmax_range() {
        let mut worst = 0;
        // 87 * 4096 + 1 points covering [-87, 0], eight per vector.
        let n = 87 * 4096 + 1;
        let xs: Vec<f32> = (0..n).map(|i| -(i as f32) / 4096.0).collect();
        for chunk in xs.chunks(8) {
            let mut lanes = [0.0f32; 8];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let e = f32x8::new(lanes).exp().to_array();
            for (x, got) in chunk.iter().zip(e) {
                let u = ulps(got, f64::from(*x).exp());
                assert!(u <= 4, "exp({x}) = {got}: {u} ulp off");
                worst = worst.max(u);
            }
        }
        assert!(worst <= 4);
    }

    #[test]
    fn exp_special_values() {
        let v = f32x8::new([
            0.0,
            f32::NEG_INFINITY,
            -100.0,
            -87.0,
            f32::INFINITY,
            f32::NAN,
            1.0,
            -0.0,
        ])
        .exp()
        .to_array();
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
        assert!(v[3] > 0.0 && v[3].is_normal());
        assert_eq!(v[4], f32::INFINITY);
        assert!(v[5].is_nan());
        assert!(ulps(v[6], std::f64::consts::E) <= 4);
        assert_eq!(v[7], 1.0);
    }

    #[test]
    fn exp_same_bits_in_every_lane() {
        for i in 0..2000 {
            let x = -(i as f32) * 0.043_7;
            let splat = f32x8::splat(x).exp().to_array();
            assert!(splat.iter().all(|e| e.to_bits() == splat[0].to_bits()));
            // And beside unrelated neighbours.
            for lane in 0..8 {
                let mut lanes = [-3.25f32; 8];
                lanes[lane] = x;
                let e = f32x8::new(lanes).exp().to_array();
                assert_eq!(e[lane].to_bits(), splat[0].to_bits(), "x={x} lane={lane}");
            }
        }
    }

    /// The same lane code instantiated with AVX2 enabled, as the SIMD
    /// backend's kernels do.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_avx2(v: f32x8) -> f32x8 {
        v.exp()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp_avx2_instantiation_bit_identical_to_portable() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for i in 0..20_000 {
            let base = -(i as f32) * 0.004_4;
            let v = f32x8::new(std::array::from_fn(|l| base - l as f32 * 0.000_37));
            let portable = v.exp().to_array();
            // SAFETY: AVX2 support was just verified at runtime.
            let avx2 = unsafe { exp_avx2(v) }.to_array();
            for l in 0..8 {
                assert_eq!(
                    portable[l].to_bits(),
                    avx2[l].to_bits(),
                    "x={}",
                    v.to_array()[l]
                );
            }
        }
    }

    #[test]
    fn max_and_reduce_max() {
        let a = f32x8::new([1.0, -2.0, 3.0, 0.0, -7.0, 5.0, 2.0, 9.5]);
        let b = f32x8::splat(1.5);
        assert_eq!(
            a.max(b).to_array(),
            [1.5, 1.5, 3.0, 1.5, 1.5, 5.0, 2.0, 9.5]
        );
        assert_eq!(a.reduce_max(), 9.5);
        assert_eq!(
            f32x8::splat(f32::NEG_INFINITY).reduce_max(),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn elementwise_ops() {
        let a = f32x8::splat(3.0);
        let b = f32x8::splat(2.0);
        assert_eq!((a + b).to_array(), [5.0; 8]);
        assert_eq!((a - b).to_array(), [1.0; 8]);
        assert_eq!((a * b).to_array(), [6.0; 8]);
    }
}
