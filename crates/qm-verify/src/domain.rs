//! Value domain of the deep pass ([`crate::deep`]).
//!
//! Extends the constant-set machinery of the queue pass — `Bool`
//! (comparison results), `OneOf` (small constant sets, what makes
//! OCCAM's select-idiom fork targets statically visible), `Gated`
//! (`v ∧ bool`) — with an interval/stride element for everything that
//! decays out of the exact forms: loop counters, staged addresses,
//! masked offsets. The interval bounds live in `i64` so arithmetic
//! never wraps silently; any result outside `i32` decays to `Top`
//! rather than modelling the machine's wrapping (sound, just lossy).
//!
//! The payoff of signed intervals: in this machine's address map the
//! local plane starts at `0x8000_0000`, so *an address operand is
//! proven local exactly when its interval is entirely negative* as a
//! signed word (`hi < 0`) — one comparison turns a value fact into a
//! locality fact.

use qm_isa::isa::Opcode;
use qm_isa::Word;

/// Bound on tracked constant-set size; larger sets decay to a range.
pub(crate) const SET_CAP: usize = 16;

/// A sorted, deduplicated, non-empty set of at most 16 constants,
/// stored inline so the abstract values holding it are `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Consts {
    len: u8,
    /// The set is `vals[..len]`; the rest stays zero, so the derived
    /// equality and hash see only the set.
    vals: [Word; SET_CAP],
}

impl Consts {
    /// The singleton `{v}`.
    #[must_use]
    pub fn one(v: Word) -> Consts {
        let mut vals = [0; SET_CAP];
        vals[0] = v;
        Consts { len: 1, vals }
    }

    /// The set of the values in `buf` (sorted and deduplicated in
    /// place), or `None` when `buf` is empty or holds more than 16
    /// distinct values.
    pub(crate) fn collect(buf: &mut [Word]) -> Option<Consts> {
        Consts::from_distinct(distinct(buf))
    }

    /// The set of sorted, distinct `values`; `None` when empty or over
    /// the cap.
    fn from_distinct(values: &[Word]) -> Option<Consts> {
        if values.is_empty() || values.len() > SET_CAP {
            return None;
        }
        let mut vals = [0; SET_CAP];
        vals[..values.len()].copy_from_slice(values);
        #[allow(clippy::cast_possible_truncation)]
        Some(Consts { len: values.len() as u8, vals })
    }

    /// The first `n` members (all of them when `n` is larger).
    pub(crate) fn prefix(&self, n: usize) -> Consts {
        let mut out = *self;
        if n < self.as_slice().len() {
            out.vals[n..].fill(0);
            #[allow(clippy::cast_possible_truncation)]
            {
                out.len = n as u8;
            }
        }
        out
    }

    /// The members, ascending.
    #[must_use]
    pub fn as_slice(&self) -> &[Word] {
        &self.vals[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Consts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Sort `buf` and move its distinct values to the front; returns them.
fn distinct(buf: &mut [Word]) -> &[Word] {
    buf.sort_unstable();
    let mut n = 0;
    for i in 0..buf.len() {
        if n == 0 || buf[i] != buf[n - 1] {
            buf[n] = buf[i];
            n += 1;
        }
    }
    &buf[..n]
}

/// Both sets' members side by side in `buf`: the input of a union.
pub(crate) fn concat<'b>(
    x: &Consts,
    y: &Consts,
    buf: &'b mut [Word; 2 * SET_CAP],
) -> &'b mut [Word] {
    let (a, b) = (x.as_slice(), y.as_slice());
    buf[..a.len()].copy_from_slice(a);
    buf[a.len()..a.len() + b.len()].copy_from_slice(b);
    &mut buf[..a.len() + b.len()]
}

/// An abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsV {
    /// Anything.
    Top,
    /// A comparison result: 0 or −1 (the ISA's boolean convention).
    Bool,
    /// One of these constants.
    OneOf(Consts),
    /// `v ∧ bool` for `v` in the set: either 0 or one of the set.
    Gated(Consts),
    /// All values `v` with `lo ≤ v ≤ hi` and `v ≡ lo (mod stride)`
    /// (`stride ≥ 1`; bounds always within `i32`).
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Step between representable values (1 = dense).
        stride: u32,
    },
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The stride as a gcd operand: a singleton (`lo == hi`) imposes no
/// step constraint, which is gcd-identity 0 — so `{8} + [0,64]/4`
/// keeps stride 4 instead of collapsing to 1.
fn eff_stride(lo: i64, hi: i64, stride: u32) -> u64 {
    if lo == hi {
        0
    } else {
        u64::from(stride)
    }
}

/// The value of the constants in `buf` (sorted and deduplicated in
/// place): an exact set, or the range it decays to when over the cap.
pub(crate) fn abs_set(buf: &mut [Word]) -> AbsV {
    let v = distinct(buf);
    if v.is_empty() {
        return AbsV::Top;
    }
    if let Some(set) = Consts::from_distinct(v) {
        return AbsV::OneOf(set);
    }
    let lo = i64::from(v[0]);
    let hi = i64::from(v[v.len() - 1]);
    let stride = set_stride(v);
    range(lo, hi, stride)
}

/// The coarsest stride a sorted constant set fits.
#[allow(clippy::cast_sign_loss)]
fn set_stride(v: &[Word]) -> u32 {
    let mut s: u64 = 0;
    for w in v.windows(2) {
        s = gcd(s, (i64::from(w[1]) - i64::from(w[0])) as u64);
    }
    u32::try_from(s.max(1)).unwrap_or(1)
}

/// A range, normalized: empty → Top, out-of-`i32` → Top, full → Top.
fn range(lo: i64, hi: i64, stride: u32) -> AbsV {
    if lo > hi || lo < i64::from(Word::MIN) || hi > i64::from(Word::MAX) {
        return AbsV::Top;
    }
    if lo == i64::from(Word::MIN) && hi == i64::from(Word::MAX) {
        return AbsV::Top;
    }
    AbsV::Range { lo, hi, stride: stride.max(1) }
}

impl AbsV {
    /// The value as `(lo, hi, stride)` when bounded; `None` for `Top`.
    #[must_use]
    pub fn bounds(&self) -> Option<(i64, i64, u32)> {
        match self {
            AbsV::Top => None,
            AbsV::Bool => Some((-1, 0, 1)),
            AbsV::OneOf(v) => {
                let v = v.as_slice();
                Some((i64::from(v[0]), i64::from(v[v.len() - 1]), set_stride(v)))
            }
            AbsV::Gated(v) => {
                let v = v.as_slice();
                let lo = i64::from(v[0]).min(0);
                let hi = i64::from(v[v.len() - 1]).max(0);
                Some((lo, hi, 1))
            }
            AbsV::Range { lo, hi, stride } => Some((*lo, *hi, *stride)),
        }
    }

    /// The single constant this value must be, if any.
    #[must_use]
    pub fn singleton(&self) -> Option<Word> {
        match self {
            AbsV::OneOf(v) => match v.as_slice() {
                &[c] => Some(c),
                _ => None,
            },
            _ => None,
        }
    }

    /// Entirely negative as a signed word — i.e. every concrete value,
    /// read as an address, lands in the local plane (`≥ 0x8000_0000`).
    #[must_use]
    pub fn proven_local_addr(&self) -> bool {
        self.bounds().is_some_and(|(_, hi, _)| hi < 0)
    }

    /// Least upper bound (control-flow join).
    #[must_use]
    pub fn join(&self, other: &AbsV) -> AbsV {
        if self == other {
            return *self;
        }
        match (self, other) {
            (AbsV::OneOf(x), AbsV::OneOf(y)) => abs_set(concat(x, y, &mut [0; 2 * SET_CAP])),
            (AbsV::Bool, AbsV::Bool) => AbsV::Bool,
            _ => match (self.bounds(), other.bounds()) {
                (Some((la, ha, sa)), Some((lb, hb, sb))) => {
                    let stride =
                        gcd(gcd(eff_stride(la, ha, sa), eff_stride(lb, hb, sb)), la.abs_diff(lb));
                    range(la.min(lb), ha.max(hb), u32::try_from(stride.max(1)).unwrap_or(1))
                }
                _ => AbsV::Top,
            },
        }
    }

    /// Widening join: like [`join`](Self::join), but any bound that
    /// grew jumps straight to the word limit, so ascending chains
    /// (loop counters) terminate.
    #[must_use]
    pub fn widen(&self, newer: &AbsV) -> AbsV {
        if self == newer {
            return *self;
        }
        let joined = self.join(newer);
        let (Some((lo_old, hi_old, _)), Some((lo_j, hi_j, stride))) =
            (self.bounds(), joined.bounds())
        else {
            return AbsV::Top;
        };
        let lo = if lo_j < lo_old { i64::from(Word::MIN) } else { lo_j };
        let hi = if hi_j > hi_old { i64::from(Word::MAX) } else { hi_j };
        range(lo, hi, stride)
    }
}

/// Apply `op.alu` across two constant sets.
fn cross(op: Opcode, xs: &Consts, ys: &Consts) -> AbsV {
    let mut out = [0; SET_CAP * SET_CAP];
    let mut n = 0;
    for &x in xs.as_slice() {
        for &y in ys.as_slice() {
            match op.alu(x, y) {
                Some(v) => out[n] = v,
                None => return AbsV::Top,
            }
            n += 1;
        }
    }
    abs_set(&mut out[..n])
}

/// Interval transfer for the arithmetic opcodes; `Top` when the shape
/// is not one the domain models.
fn fold_range(op: Opcode, a: &AbsV, b: &AbsV) -> AbsV {
    let (Some((la, ha, sa)), Some((lb, hb, sb))) = (a.bounds(), b.bounds()) else {
        // `x & #mask` with a nonnegative constant mask bounds the
        // result regardless of `x` — the queue-page-offset idiom.
        if op == Opcode::And {
            for side in [a, b] {
                if let Some(m) = side.singleton() {
                    if m >= 0 {
                        return range(0, i64::from(m), 1);
                    }
                }
            }
        }
        return AbsV::Top;
    };
    let sa = eff_stride(la, ha, sa);
    let sb = eff_stride(lb, hb, sb);
    let s = |x: u64, y: u64| u32::try_from(gcd(x, y).max(1)).unwrap_or(1);
    match op {
        Opcode::Plus => range(la + lb, ha + hb, s(sa, sb)),
        Opcode::Minus => range(la - hb, ha - lb, s(sa, sb)),
        Opcode::Mul => {
            // Only scaling by a known constant keeps a useful shape.
            let scaled = |l: i64, h: i64, st: u64, c: i64| {
                let (x, y) = (l * c, h * c);
                let stride = u32::try_from(st.saturating_mul(c.unsigned_abs()).max(1)).unwrap_or(1);
                range(x.min(y), x.max(y), stride)
            };
            match (a.singleton(), b.singleton()) {
                (_, Some(c)) => scaled(la, ha, sa, i64::from(c)),
                (Some(c), _) => scaled(lb, hb, sb, i64::from(c)),
                _ => AbsV::Top,
            }
        }
        Opcode::And => {
            // Nonnegative mask: result within [0, mask].
            match (a.singleton(), b.singleton()) {
                (_, Some(m)) | (Some(m), _) if m >= 0 => range(0, i64::from(m), 1),
                _ => AbsV::Top,
            }
        }
        _ => AbsV::Top,
    }
}

/// Constant-fold one ALU result. Mirrors the queue pass's fold on the
/// exact forms, then falls back to the interval transfer.
#[must_use]
pub fn fold(op: Opcode, a: &AbsV, b: &AbsV) -> AbsV {
    use AbsV::{Bool, Gated, OneOf};
    if matches!(
        op,
        Opcode::Ge
            | Opcode::Ne
            | Opcode::Gt
            | Opcode::Lt
            | Opcode::Eq
            | Opcode::Le
            | Opcode::His
            | Opcode::Hi
            | Opcode::Lo
            | Opcode::Los
    ) {
        return Bool;
    }
    match (op, a, b) {
        (_, OneOf(x), OneOf(y)) => cross(op, x, y),
        (Opcode::Plus | Opcode::Or | Opcode::Xor, v, OneOf(z))
        | (Opcode::Plus | Opcode::Or | Opcode::Xor, OneOf(z), v)
            if z.as_slice() == [0] =>
        {
            *v
        }
        (Opcode::And, OneOf(v), Bool) | (Opcode::And, Bool, OneOf(v)) => Gated(*v),
        (Opcode::Or, Gated(x), Gated(y)) => abs_set(concat(x, y, &mut [0; 2 * SET_CAP])),
        (Opcode::Xor, Bool, OneOf(z)) | (Opcode::Xor, OneOf(z), Bool) if z.as_slice() == [-1] => {
            Bool
        }
        _ => fold_range(op, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: Word) -> AbsV {
        AbsV::OneOf(Consts::one(v))
    }

    fn set(vs: &[Word]) -> AbsV {
        AbsV::OneOf(Consts::collect(&mut vs.to_vec()).unwrap())
    }

    #[test]
    fn constant_sets_are_canonical() {
        let set = Consts::collect(&mut [3, 1, 3, 2]).unwrap();
        assert_eq!(set.as_slice(), &[1, 2, 3]);
        // Equality sees only the members, however the set was built.
        assert_eq!(set.prefix(2), Consts::collect(&mut [2, 1]).unwrap());
        assert_eq!(set.prefix(5), set);
        assert_eq!(Consts::collect(&mut []), None);
        assert_eq!(Consts::collect(&mut (0..17).collect::<Vec<_>>()), None, "over the cap");
    }

    #[test]
    fn constant_arithmetic_stays_exact() {
        assert_eq!(fold(Opcode::Plus, &c(3), &c(4)), c(7));
        assert_eq!(fold(Opcode::Mul, &c(3), &c(4)), c(12));
        assert_eq!(fold(Opcode::Plus, &set(&[1, 2]), &c(10)), set(&[11, 12]));
    }

    #[test]
    fn select_idiom_survives() {
        // (a ∧ m) ∨ (b ∧ ¬m): the OCCAM fork-target select.
        let m = AbsV::Bool;
        let ga = fold(Opcode::And, &c(100), &m);
        let gb = fold(Opcode::And, &c(200), &m);
        assert_eq!(fold(Opcode::Or, &ga, &gb), set(&[100, 200]));
    }

    #[test]
    fn big_sets_decay_to_strided_ranges() {
        // 17 values exceeds the set cap: the set decays to its range.
        let s = abs_set(&mut (0..17).map(|i| i * 4).collect::<Vec<_>>());
        assert_eq!(s, AbsV::Range { lo: 0, hi: 64, stride: 4 });
    }

    #[test]
    fn interval_addition_tracks_strides() {
        let r = AbsV::Range { lo: 0, hi: 64, stride: 4 };
        let shifted = fold(Opcode::Plus, &r, &c(8));
        assert_eq!(shifted, AbsV::Range { lo: 8, hi: 72, stride: 4 });
    }

    #[test]
    fn local_addresses_are_negative_words() {
        #[allow(clippy::cast_possible_wrap)]
        let local = c(0x8000_0040u32 as Word);
        assert!(local.proven_local_addr());
        assert!(!c(0x100).proven_local_addr());
        // A range straddling zero is not provably local.
        let r = fold(Opcode::Plus, &local, &AbsV::Range { lo: 0, hi: 1 << 20, stride: 4 });
        assert!(r.proven_local_addr(), "stays within the local plane");
    }

    #[test]
    fn mask_idiom_bounds_unknown_values() {
        let masked = fold(Opcode::And, &AbsV::Top, &c(0x3FF));
        assert_eq!(masked, AbsV::Range { lo: 0, hi: 0x3FF, stride: 1 });
    }

    #[test]
    fn widening_terminates_ascending_chains() {
        // One loop iteration of `v = v + 1`: the grown bound jumps
        // straight to the word limit, and re-widening is stable.
        let v = c(0);
        let next = fold(Opcode::Plus, &v, &c(1));
        let w = v.widen(&v.join(&next));
        match &w {
            AbsV::Range { lo, hi, .. } => {
                assert_eq!(*lo, 0);
                assert_eq!(*hi, i64::from(Word::MAX));
            }
            other => panic!("expected widened range, got {other:?}"),
        }
        assert_eq!(w.widen(&w), w, "widening reached a fixpoint");
    }

    #[test]
    fn join_of_disjoint_constants_keeps_the_set() {
        assert_eq!(c(1).join(&c(5)), set(&[1, 5]));
        assert_eq!(c(1).join(&AbsV::Top), AbsV::Top);
        assert_eq!(AbsV::Bool.join(&AbsV::Bool), AbsV::Bool);
    }
}
