//! Software IEEE 754 binary16 ("half precision") floating point.
//!
//! The 16-bit tensor-core kernels of the paper take half-precision inputs
//! and accumulate in single precision.  No half-precision type exists in
//! the Rust standard library, and the external `half` crate is not part of
//! the approved dependency set, so this module implements binary16 from
//! scratch: bit-level conversion to and from `f32` with round-to-nearest-
//! even, arithmetic performed by widening to `f32` (exactly what the
//! hardware does when feeding the FMA pipeline of a tensor core), and the
//! usual constants and classification predicates.
//!
//! The conversion algorithms follow the standard bit manipulation approach:
//! sign, exponent and mantissa fields are re-biased between the 8-bit/23-bit
//! layout of binary32 and the 5-bit/10-bit layout of binary16, handling
//! subnormals, infinities and NaN explicitly.

use crate::Complex32;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// IEEE 754 binary16 value stored as its raw bit pattern.
///
/// The name deliberately mirrors the primitive float types (`f32`, `f64`);
/// the non-camel-case name is the conventional one used by the `half`
/// ecosystem crate as well.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Default, Serialize, Deserialize)]
pub struct f16(u16);

const F16_SIGN_MASK: u16 = 0x8000;
const F16_EXP_MASK: u16 = 0x7C00;
const F16_MAN_MASK: u16 = 0x03FF;

impl f16 {
    /// Positive zero.
    pub const ZERO: f16 = f16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: f16 = f16(0x8000);
    /// The value `1.0`.
    pub const ONE: f16 = f16(0x3C00);
    /// The value `-1.0`.
    pub const NEG_ONE: f16 = f16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: f16 = f16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: f16 = f16(0xFC00);
    /// A quiet NaN.
    pub const NAN: f16 = f16(0x7E00);
    /// Largest finite value, `65504.0`.
    pub const MAX: f16 = f16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: f16 = f16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: f16 = f16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: f16 = f16(0x0001);
    /// Machine epsilon: the difference between `1.0` and the next larger
    /// representable value, `2^-10`.
    pub const EPSILON: f16 = f16(0x1400);

    /// Creates a half-precision value from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts a single-precision value to half precision with
    /// round-to-nearest-even, the rounding mode used by GPU conversion
    /// instructions (`cvt.rn.f16.f32`).
    ///
    /// Only the magnitude class branches (normal, subnormal, overflow or
    /// NaN), which is predictable on sampled signals; the rounding itself
    /// is branch-free.  Magnitudes from `65520` up overflow to infinity.  A
    /// NaN stays a NaN of the same sign with the quiet bit (`0x0200`) set
    /// and the top 10 bits of its binary32 payload kept.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        // Bit patterns of |x| at the class boundaries: 2^16, the first
        // magnitude whose exponent binary16 cannot hold, and 2^-14, the
        // smallest binary16 normal.
        const F32_OVERFLOW: u32 = (127 + 16) << 23;
        const F32_MIN_NORMAL: u32 = (127 - 14) << 23;
        const F32_INFINITY: u32 = 0x7F80_0000;
        // 0.5: its ulp, 2^-24, is the binary16 subnormal spacing.
        const SUBNORMAL_MAGIC: f32 = 0.5;

        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let abs = bits & 0x7FFF_FFFF;
        let magnitude = if abs >= F32_OVERFLOW {
            if abs > F32_INFINITY {
                F16_EXP_MASK | 0x0200 | ((abs >> 13) as u16 & F16_MAN_MASK)
            } else {
                F16_EXP_MASK
            }
        } else if abs < F32_MIN_NORMAL {
            // The float add rounds |x| to a multiple of 2^-24 (ties to
            // even); the low bits of the sum are the subnormal mantissa,
            // or 0x0400 = 2^-14 when it rounds up into the normal range.
            ((f32::from_bits(abs) + SUBNORMAL_MAGIC).to_bits() - SUBNORMAL_MAGIC.to_bits()) as u16
        } else {
            // Re-bias the exponent (binary32 bias 127, binary16 bias 15),
            // then round the 13 dropped mantissa bits: adding 0xFFF plus
            // the lowest kept bit carries exactly when they exceed half an
            // ulp, or equal it on an odd mantissa.  A carry out of the
            // mantissa bumps the exponent, up to infinity.
            let odd = (abs >> 13) & 1;
            ((abs - ((127 - 15) << 23) + 0x0FFF + odd) >> 13) as u16
        };
        f16(sign | magnitude)
    }

    /// Converts a half-precision value to single precision (exact — every
    /// binary16 value is representable in binary32).
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & F16_SIGN_MASK) << 16;
        let exp = (self.0 & F16_EXP_MASK) >> 10;
        let man = u32::from(self.0 & F16_MAN_MASK);

        let bits = match exp {
            0 => {
                if man == 0 {
                    sign
                } else {
                    // Subnormal: normalise the mantissa.
                    let mut exp32 = 127 - 15 + 1;
                    let mut man = man;
                    while man & 0x0400 == 0 {
                        man <<= 1;
                        exp32 -= 1;
                    }
                    man &= 0x03FF;
                    sign | ((exp32 as u32) << 23) | (man << 13)
                }
            }
            0x1F => {
                if man == 0 {
                    sign | 0x7F80_0000
                } else {
                    sign | 0x7FC0_0000 | (man << 13)
                }
            }
            _ => {
                let exp32 = (i32::from(exp) - 15 + 127) as u32;
                sign | (exp32 << 23) | (man << 13)
            }
        };
        f32::from_bits(bits)
    }

    /// Converts from `f64` by way of `f32`.
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & F16_EXP_MASK) == F16_EXP_MASK && (self.0 & F16_MAN_MASK) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & F16_EXP_MASK) == F16_EXP_MASK && (self.0 & F16_MAN_MASK) == 0
    }

    /// Returns `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & F16_EXP_MASK) != F16_EXP_MASK
    }

    /// Returns `true` if the value is subnormal (non-zero with a zero
    /// exponent field).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & F16_EXP_MASK) == 0 && (self.0 & F16_MAN_MASK) != 0
    }

    /// Returns `true` for positive or negative zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !F16_SIGN_MASK) == 0
    }

    /// Returns `true` if the sign bit is set (including `-0.0` and NaNs
    /// with a negative sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & F16_SIGN_MASK) != 0
    }

    /// Returns the absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        f16(self.0 & !F16_SIGN_MASK)
    }

    /// Returns the signum in half precision: `1.0` for positive values,
    /// `-1.0` for negative values, NaN for NaN.
    pub fn signum(self) -> Self {
        if self.is_nan() {
            Self::NAN
        } else if self.is_sign_negative() {
            Self::NEG_ONE
        } else {
            Self::ONE
        }
    }

    /// The sign bit interpreted as the 1-bit encoding of the paper:
    /// non-negative values map to binary 1 (decimal +1), negative values to
    /// binary 0 (decimal −1).  Zero maps to +1 because zero is not
    /// representable in the 1-bit format (Fig. 1).
    #[inline]
    pub fn sign_bit_onebit(self) -> bool {
        !self.is_sign_negative()
    }
}

/// Lazily built lookup table mapping every binary16 bit pattern to its
/// binary32 widening — 256 KiB, shared process-wide.
static DECODE_TABLE: OnceLock<Vec<f32>> = OnceLock::new();

fn decode_table() -> &'static [f32] {
    DECODE_TABLE.get_or_init(|| {
        (0..=u16::MAX)
            .map(|bits| f16::from_bits(bits).to_f32())
            .collect()
    })
}

/// Decodes a whole plane of binary16 values to binary32 in one bulk pass.
///
/// The per-value [`f16::to_f32`](crate::half::f16::to_f32) conversion branches on the exponent field
/// (normal / subnormal / non-finite); done inside a GEMM inner loop that
/// cost is paid `O(M·N·K)` times.  This decoder instead pays it once per
/// distinct bit pattern — a 65 536-entry table built on first use — and
/// turns every subsequent conversion into a single indexed load, so
/// half→float conversion of an operand costs `O(rows·cols)` table lookups
/// done once per plane.  The result is bit-identical to calling
/// [`f16::to_f32`](crate::half::f16::to_f32) on every element (the table is built from it).
pub fn decode_to_f32(plane: &[f16]) -> Vec<f32> {
    let table = decode_table();
    plane.iter().map(|h| table[h.to_bits() as usize]).collect()
}

/// Encodes complex binary32 values into planar binary16: the real parts
/// into `re` and the imaginary parts into `im`, in iteration order.
///
/// The single owner of bulk f32→binary16 conversion: every planar f16
/// operand, whatever its source layout or orientation, is encoded here with
/// the inlined [`f16::from_f32`](crate::half::f16::from_f32).
///
/// # Panics
///
/// Panics unless `values` yields exactly `re.len()` values and
/// `re.len() == im.len()`.
pub fn encode_to_f16(values: impl IntoIterator<Item = Complex32>, re: &mut [f16], im: &mut [f16]) {
    assert_eq!(re.len(), im.len(), "binary16 planes differ in length");
    let mut values = values.into_iter();
    let mut encoded = 0;
    for ((r, i), v) in re.iter_mut().zip(im.iter_mut()).zip(values.by_ref()) {
        *r = f16::from_f32(v.re);
        *i = f16::from_f32(v.im);
        encoded += 1;
    }
    assert!(
        encoded == re.len() && values.next().is_none(),
        "value count differs from the plane length"
    );
}

impl From<f32> for f16 {
    fn from(v: f32) -> Self {
        f16::from_f32(v)
    }
}

impl From<f16> for f32 {
    fn from(v: f16) -> Self {
        v.to_f32()
    }
}

impl From<f16> for f64 {
    fn from(v: f16) -> Self {
        v.to_f64()
    }
}

impl PartialEq for f16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for f16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl Neg for f16 {
    type Output = f16;
    #[inline]
    fn neg(self) -> f16 {
        f16(self.0 ^ F16_SIGN_MASK)
    }
}

macro_rules! impl_f16_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for f16 {
            type Output = f16;
            #[inline]
            fn $method(self, rhs: f16) -> f16 {
                f16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for f16 {
            #[inline]
            fn $assign_method(&mut self, rhs: f16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_f16_binop!(Add, add, AddAssign, add_assign, +);
impl_f16_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_f16_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_f16_binop!(Div, div, DivAssign, div_assign, /);

impl Sum for f16 {
    fn sum<I: Iterator<Item = f16>>(iter: I) -> Self {
        // Accumulate in f32, as the hardware does, then round once.
        f16::from_f32(iter.map(|x| x.to_f32()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exponent-branching conversion `f16::from_f32` replaced: the
    /// bit-for-bit reference for the branch-free one.
    fn from_f32_reference(value: f32) -> f16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            return if man == 0 {
                f16(sign | F16_EXP_MASK)
            } else {
                // Preserve a quiet NaN, keep some payload bits.
                f16(sign | F16_EXP_MASK | 0x0200 | ((man >> 13) as u16 & F16_MAN_MASK))
            };
        }

        // Re-bias the exponent: binary32 bias 127, binary16 bias 15.
        let unbiased = exp - 127;
        let new_exp = unbiased + 15;

        if new_exp >= 0x1F {
            // Overflow to infinity.
            return f16(sign | F16_EXP_MASK);
        }

        if new_exp <= 0 {
            // Subnormal or underflow to zero.
            if new_exp < -10 {
                return f16(sign);
            }
            // Add the implicit leading one and shift into the subnormal range.
            // value = M · 2^(unbiased − 23); the half subnormal mantissa is
            // value · 2^24 = M >> (−unbiased − 1).
            let man = man | 0x0080_0000;
            let shift = (-unbiased - 1) as u32;
            let half_val = man >> shift;
            // Round to nearest even on the bits shifted out.
            let round_bit = 1u32 << (shift - 1);
            let rem = man & (round_bit * 2 - 1);
            let mut result = half_val as u16;
            if rem > round_bit || (rem == round_bit && (half_val & 1) == 1) {
                result += 1;
            }
            return f16(sign | result);
        }

        // Normal case.
        let mut out_exp = new_exp as u16;
        let mut out_man = (man >> 13) as u16;
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (out_man & 1) == 1) {
            out_man += 1;
            if out_man == 0x0400 {
                out_man = 0;
                out_exp += 1;
                if out_exp >= 0x1F {
                    return f16(sign | F16_EXP_MASK);
                }
            }
        }
        f16(sign | (out_exp << 10) | out_man)
    }

    fn assert_matches_reference(x: f32) {
        assert_eq!(
            f16::from_f32(x).to_bits(),
            from_f32_reference(x).to_bits(),
            "f32 bits {:#010x}",
            x.to_bits()
        );
    }

    #[test]
    fn encoder_matches_reference_around_every_rounding_boundary() {
        // Every binary16 value, the midpoint to its upper neighbour (65520
        // past MAX, where 0x7C00 stands for 2^16), and one f32 ulp either
        // side of each, in both signs.
        let value = |bits: u16| match bits {
            0x7C00 => 65536.0,
            _ => f64::from(f16::from_bits(bits).to_f32()),
        };
        for bits in 0..0x7C00u16 {
            let mid = ((value(bits) + value(bits + 1)) / 2.0) as f32;
            for x in [value(bits) as f32, mid] {
                for probe in [x.to_bits().saturating_sub(1), x.to_bits(), x.to_bits() + 1] {
                    assert_matches_reference(f32::from_bits(probe));
                    assert_matches_reference(-f32::from_bits(probe));
                }
            }
        }
        let specials = [
            0.0,
            -0.0,
            65520.0,
            2.0f32.powi(-25),
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for x in specials {
            assert_matches_reference(x);
            assert_matches_reference(-x);
        }
        for payload in [1, 0x1FFF, 0x2000, 0x0040_0000, 0x0055_5555, 0x007F_FFFF] {
            assert_matches_reference(f32::from_bits(0x7F80_0000 | payload));
            assert_matches_reference(f32::from_bits(0xFF80_0000 | payload));
        }
    }

    #[test]
    fn nan_keeps_quiet_bit_and_top_payload_bits() {
        let signalling = f32::from_bits(0xFF80_0000 | (0x155 << 13) | 0x1FFF);
        assert_eq!(f16::from_f32(signalling).to_bits(), 0xFE00 | 0x155);
    }

    /// Every one of the 2^32 binary32 bit patterns; release builds only,
    /// where it takes seconds.
    #[cfg(not(debug_assertions))]
    #[test]
    fn encoder_matches_reference_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunk = (1u64 << 32).div_ceil(threads);
        let mismatches: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let end = ((t + 1) * chunk).min(1 << 32);
                        (t * chunk..end)
                            .filter(|&b| {
                                let x = f32::from_bits(b as u32);
                                f16::from_f32(x).to_bits() != from_f32_reference(x).to_bits()
                            })
                            .count() as u64
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn bulk_encoder_is_bit_identical_to_scalar_conversion() {
        let values: Vec<Complex32> = (0..=u16::MAX)
            .map(|b| {
                let x = f16::from_bits(b).to_f32();
                Complex32::new(x * 1.000_1, -x)
            })
            .collect();
        let mut re = vec![f16::ZERO; values.len()];
        let mut im = vec![f16::ZERO; values.len()];
        encode_to_f16(values.iter().copied(), &mut re, &mut im);
        for (v, (r, i)) in values.iter().zip(re.iter().zip(&im)) {
            assert_eq!(r.to_bits(), f16::from_f32(v.re).to_bits());
            assert_eq!(i.to_bits(), f16::from_f32(v.im).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "value count differs")]
    fn bulk_encoder_rejects_a_short_input() {
        let mut re = vec![f16::ZERO; 3];
        let mut im = vec![f16::ZERO; 3];
        encode_to_f16([Complex32::ONE; 2], &mut re, &mut im);
    }

    #[test]
    fn constants_roundtrip() {
        assert_eq!(f16::ZERO.to_f32(), 0.0);
        assert_eq!(f16::ONE.to_f32(), 1.0);
        assert_eq!(f16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(f16::MAX.to_f32(), 65504.0);
        assert_eq!(f16::MIN.to_f32(), -65504.0);
        assert_eq!(f16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(f16::EPSILON.to_f32(), 9.765_625e-4);
        assert!(f16::NAN.is_nan());
        assert!(f16::INFINITY.is_infinite());
        assert!(f16::NEG_INFINITY.is_infinite());
        assert!(f16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn simple_conversions() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 3.140625, 1000.0, -0.25] {
            assert_eq!(f16::from_f32(v).to_f32(), v, "value {v} should be exact");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(f16::from_f32(1e6).is_infinite());
        assert!(f16::from_f32(-1e6).is_infinite());
        assert!(f16::from_f32(-1e6).is_sign_negative());
        assert!(f16::from_f32(65504.0).is_finite());
        // 65520 rounds up to infinity (midpoint rounds to even => 65536 unrepresentable).
        assert!(f16::from_f32(65520.0).is_infinite());
        // Just below the midpoint stays at MAX.
        assert_eq!(f16::from_f32(65519.0), f16::MAX);
    }

    #[test]
    fn subnormal_conversions() {
        let tiny = f16::MIN_POSITIVE_SUBNORMAL;
        assert!(tiny.is_subnormal());
        assert_eq!(tiny.to_f32(), 2.0f32.powi(-24));
        assert_eq!(f16::from_f32(2.0f32.powi(-24)).to_bits(), 0x0001);
        // Underflow to zero below half of the smallest subnormal.
        assert!(f16::from_f32(2.0f32.powi(-26)).is_zero());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + eps/2 is exactly halfway between 1.0 and 1.0+eps; it must
        // round to the even mantissa, i.e. 1.0.
        let half_eps = f16::EPSILON.to_f32() / 2.0;
        assert_eq!(f16::from_f32(1.0 + half_eps), f16::ONE);
        // 1.0 + 1.5*eps is halfway between 1.0+eps and 1.0+2eps; rounds to
        // the even one, 1.0 + 2eps.
        let expect = f16::from_bits(f16::ONE.to_bits() + 2);
        assert_eq!(f16::from_f32(1.0 + 3.0 * half_eps), expect);
    }

    #[test]
    fn nan_propagates() {
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!((f16::NAN + f16::ONE).is_nan());
        assert!((f16::NAN).to_f32().is_nan());
        assert_ne!(f16::NAN, f16::NAN);
    }

    #[test]
    fn arithmetic_matches_f32_with_rounding() {
        let a = f16::from_f32(1.5);
        let b = f16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a - b).to_f32(), -0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn signum_and_sign_bit() {
        assert_eq!(f16::from_f32(3.0).signum(), f16::ONE);
        assert_eq!(f16::from_f32(-3.0).signum(), f16::NEG_ONE);
        assert!(f16::from_f32(0.5).sign_bit_onebit());
        assert!(!f16::from_f32(-0.5).sign_bit_onebit());
        // Zero is mapped onto +1 in the 1-bit encoding.
        assert!(f16::ZERO.sign_bit_onebit());
    }

    #[test]
    fn sum_accumulates_in_f32() {
        // 1024 copies of 1.0 sum exactly even though intermediate values
        // would saturate half-precision increments near 2048.
        let v = vec![f16::ONE; 1024];
        let s: f16 = v.into_iter().sum();
        assert_eq!(s.to_f32(), 1024.0);
    }

    #[test]
    fn bulk_decoder_is_bit_identical_to_scalar_conversion_everywhere() {
        // Every one of the 65 536 bit patterns, including NaNs, subnormals
        // and infinities, must decode to exactly the same f32 bits as the
        // scalar path.
        let all: Vec<f16> = (0..=u16::MAX).map(f16::from_bits).collect();
        let decoded = decode_to_f32(&all);
        assert_eq!(decoded.len(), 65536);
        for (h, d) in all.iter().zip(&decoded) {
            assert_eq!(
                d.to_bits(),
                h.to_f32().to_bits(),
                "bits {:#06x}",
                h.to_bits()
            );
        }
    }

    proptest! {
        #[test]
        fn encoder_matches_reference_on_random_bits(bits in any::<u32>()) {
            let x = f32::from_bits(bits);
            prop_assert_eq!(f16::from_f32(x).to_bits(), from_f32_reference(x).to_bits());
        }

        #[test]
        fn roundtrip_through_f32_is_identity(bits in any::<u16>()) {
            let h = f16::from_bits(bits);
            if h.is_nan() {
                prop_assert!(f16::from_f32(h.to_f32()).is_nan());
            } else {
                let back = f16::from_f32(h.to_f32());
                prop_assert_eq!(back.to_bits(), h.to_bits());
            }
        }

        #[test]
        fn conversion_is_monotonic(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let hlo = f16::from_f32(lo);
            let hhi = f16::from_f32(hi);
            prop_assert!(hlo <= hhi, "lo={lo} hi={hi} hlo={hlo:?} hhi={hhi:?}");
        }

        #[test]
        fn conversion_error_within_half_ulp(v in -60000.0f32..60000.0) {
            let h = f16::from_f32(v);
            let back = h.to_f32();
            // Relative error bounded by 2^-11 for normal values, absolute
            // error bounded by half the smallest subnormal otherwise.
            let tol = (v.abs() * 2.0f32.powi(-11)).max(2.0f32.powi(-25));
            prop_assert!((back - v).abs() <= tol, "v={v} back={back}");
        }

        #[test]
        fn negation_flips_sign_bit(bits in any::<u16>()) {
            let h = f16::from_bits(bits);
            prop_assert_eq!((-h).to_bits(), bits ^ 0x8000);
        }
    }
}
