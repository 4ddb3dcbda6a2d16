//! Q6 fixed-point arithmetic shared by the OCCAM benchmarks and their
//! Rust references.
//!
//! Values are `i32` words scaled by 2⁶ = 64: enough headroom that a
//! 16-point FFT over inputs in ±2.0 never overflows 32 bits, and small
//! enough that Q6×Q6 products stay exact. The OCCAM programs implement
//! *exactly* these operations (`>> 6` after multiply, Newton integer
//! square root), so simulator results compare bit-for-bit.

/// Fraction bits.
pub const Q: u32 = 6;
/// The fixed-point one.
pub const ONE: i32 = 1 << Q;

/// Convert a float to Q6 (round to nearest).
#[must_use]
pub fn from_f64(x: f64) -> i32 {
    #[allow(clippy::cast_possible_truncation)]
    {
        (x * f64::from(ONE)).round() as i32
    }
}

/// Convert Q6 to a float (for test diagnostics).
#[cfg(test)]
pub(crate) fn to_f64(x: i32) -> f64 {
    f64::from(x) / f64::from(ONE)
}

/// Q6 multiply: `(a*b) >> 6` with arithmetic shift, matching the OCCAM
/// `(a * b) >> 6`.
#[must_use]
pub fn mul(a: i32, b: i32) -> i32 {
    a.wrapping_mul(b) >> Q
}

/// Q6 divide: `(a << 6) / b`, matching the OCCAM `(a << 6) / b`
/// (quotient truncates toward zero like the `div` instruction).
#[must_use]
pub fn div(a: i32, b: i32) -> i32 {
    if b == 0 {
        0
    } else {
        (a << Q).wrapping_div(b)
    }
}

/// Integer square root by Newton's method — the same loop the OCCAM
/// `isqrt` procedure runs:
///
/// ```text
/// r := x
/// while r * r > x
///   r := (r + x / r) / 2
/// ```
///
/// Returns 0 for non-positive inputs.
#[must_use]
pub fn isqrt(x: i32) -> i32 {
    if x <= 0 {
        return 0;
    }
    let mut r = x;
    while r > x / r {
        // Wrapping add matches the machine's `plus` instruction exactly
        // (only reachable for inputs near i32::MAX).
        r = r.wrapping_add(x / r) / 2;
    }
    r
}

/// Q6 square root: `isqrt(x << 6)`, matching the OCCAM benchmarks.
#[must_use]
pub fn sqrt(x: i32) -> i32 {
    isqrt(x << Q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(ONE, 64);
        assert_eq!(from_f64(1.0), 64);
        assert_eq!(from_f64(-0.5), -32);
        assert!((to_f64(from_f64(3.25)) - 3.25).abs() < 1e-9);
    }

    #[test]
    fn multiply_and_divide() {
        let a = from_f64(2.5);
        let b = from_f64(4.0);
        assert_eq!(mul(a, b), from_f64(10.0));
        assert_eq!(div(mul(a, b), b), a);
        assert_eq!(div(ONE, 0), 0, "division by zero yields zero like the ISA");
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for x in 0..5000 {
            let r = isqrt(x);
            assert!(r * r <= x, "x={x} r={r}");
            assert!((r + 1) * (r + 1) > x, "x={x} r={r}");
        }
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(-5), 0);
        assert_eq!(isqrt(1 << 30), 32768);
    }

    #[test]
    fn fixed_sqrt_matches_float_closely() {
        for v in [1.0, 2.0, 4.0, 9.0, 16.0, 100.0] {
            let got = to_f64(sqrt(from_f64(v)));
            assert!((got - v.sqrt()).abs() < 0.15, "sqrt({v}) ≈ {got}");
        }
    }
}
