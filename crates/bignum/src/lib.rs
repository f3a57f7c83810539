//! # greta-bignum
//!
//! A small, dependency-free arbitrary-precision **unsigned** integer.
//!
//! Under skip-till-any-match semantics the number of event trends grows
//! exponentially in the number of events (paper §2), so exact `COUNT(*)` /
//! `COUNT(E)` / `SUM` aggregates overflow `u64` after a few dozen compatible
//! events. The GRETA aggregation calculus only needs addition, zero, one
//! and multiplication by a machine word (a `SUM` attribute) — which is
//! exactly what [`BigUint`] provides, plus comparison, decimal formatting,
//! and lossy `f64` conversion for reporting.
//!
//! The representation is little-endian base-2⁶⁴ limbs with no leading zero
//! limb (canonical form); `0` is the empty limb vector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Arbitrary-precision unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    /// Little-endian base-2^64 limbs, canonical (no trailing zero limb).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of limbs (for memory accounting).
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// The little-endian base-2⁶⁴ limbs (canonical: no trailing zero limb).
    /// Used by the durability layer to serialize exact aggregates.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Reconstruct from little-endian base-2⁶⁴ limbs; trailing zero limbs
    /// are normalized away, so any limb vector is a valid input.
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Construct from `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut b = BigUint {
            limbs: vec![lo, hi],
        };
        b.normalize();
        b
    }

    /// Value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (exact below 2^53, otherwise rounded;
    /// saturates to `f64::INFINITY` above ~2^1024).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
            if acc.is_infinite() {
                return f64::INFINITY;
            }
        }
        acc
    }

    /// `self + other`, in place.
    pub fn add_assign_ref(&mut self, other: &BigUint) {
        let mut carry = 0u64;
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        for i in 0..n {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// Multiply by a machine word, in place.
    pub fn mul_u64(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let prod = *limb as u128 * m as u128 + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        while carry > 0 {
            self.limbs.push(carry as u64);
            carry >>= 64;
        }
    }

    /// Divide by a machine word, returning the remainder.
    pub fn div_rem_u64(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 64) | *limb as u128;
            *limb = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        self.normalize();
        rem as u64
    }

    /// Heap bytes used (memory accounting).
    pub fn heap_size(&self) -> usize {
        self.limbs.capacity() * std::mem::size_of::<u64>()
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        self.add_assign_ref(rhs);
    }
}

impl Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: &BigUint) -> BigUint {
        self.add_assign_ref(rhs);
        self
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Peel 19 decimal digits at a time (10^19 is the largest power of
        // ten below 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut n = self.clone();
        let mut chunks = Vec::new();
        while !n.is_zero() {
            chunks.push(n.div_rem_u64(CHUNK));
        }
        let mut s = chunks.pop().unwrap().to_string();
        for c in chunks.into_iter().rev() {
            s.push_str(&format!("{c:019}"));
        }
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::one().to_u64(), Some(1));
        assert_eq!(BigUint::zero().to_string(), "0");
    }

    #[test]
    fn addition_with_carry() {
        let mut a = BigUint::from_u64(u64::MAX);
        a.add_assign_ref(&BigUint::one());
        assert_eq!(a.to_u64(), None);
        assert_eq!(a.to_string(), "18446744073709551616"); // 2^64
    }

    #[test]
    fn scalar_multiplication() {
        let mut a = BigUint::from_u64(u64::MAX);
        a.mul_u64(u64::MAX);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(a.to_string(), "340282366920938463426481119284349108225");
        a.mul_u64(0);
        assert!(a.is_zero());
    }

    #[test]
    fn powers_of_two_exact() {
        // 2^200 by repeated doubling.
        let mut p = BigUint::one();
        for _ in 0..200 {
            p.mul_u64(2);
        }
        assert_eq!(
            p.to_string(),
            "1606938044258990275541962092341162602522202993782792835301376"
        );
        assert!((p.to_f64() - 2f64.powi(200)).abs() / 2f64.powi(200) < 1e-12);
    }

    #[test]
    fn division_and_display_roundtrip() {
        let mut a = BigUint::from_u128(123_456_789_012_345_678_901_234_567_890u128);
        assert_eq!(a.to_string(), "123456789012345678901234567890");
        let rem = a.div_rem_u64(1_000_000_000);
        assert_eq!(rem, 234_567_890);
        assert_eq!(a.to_string(), "123456789012345678901");
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u128(1u128 << 100);
        let b = BigUint::from_u64(u64::MAX);
        assert!(a > b);
        assert!(BigUint::zero() < BigUint::one());
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
    }

    proptest! {
        #[test]
        fn add_matches_u128(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
            let mut x = BigUint::from_u64(a);
            x.add_assign_ref(&BigUint::from_u64(b));
            prop_assert_eq!(x, BigUint::from_u128(a as u128 + b as u128));
        }

        #[test]
        fn mul_matches_u128(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
            let mut x = BigUint::from_u64(a);
            x.mul_u64(b);
            prop_assert_eq!(x, BigUint::from_u128(a as u128 * b as u128));
        }

        #[test]
        fn wide_add_matches_u128(a in any::<u128>(), b in any::<u128>()) {
            let mut x = BigUint::from_u128(a);
            x.add_assign_ref(&BigUint::from_u128(b));
            // About half the cases carry out of limb 1 into a third limb.
            let (s, c) = a.overflowing_add(b);
            prop_assert_eq!(x, BigUint::from_limbs(vec![s as u64, (s >> 64) as u64, c as u64]));
        }

        #[test]
        fn display_matches_u128(v in any::<u128>()) {
            prop_assert_eq!(BigUint::from_u128(v).to_string(), v.to_string());
        }

        #[test]
        fn ord_matches_u128(a in any::<u128>(), b in any::<u128>()) {
            prop_assert_eq!(
                BigUint::from_u128(a).cmp(&BigUint::from_u128(b)),
                a.cmp(&b)
            );
        }

        #[test]
        fn to_f64_close(v in any::<u128>()) {
            let f = BigUint::from_u128(v).to_f64();
            let expect = v as f64;
            if expect > 0.0 {
                prop_assert!((f - expect).abs() / expect < 1e-9);
            } else {
                prop_assert_eq!(f, 0.0);
            }
        }
    }
}
