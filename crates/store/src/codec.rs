//! The stripe codec: the store's P/Q algebra, and nothing else.
//!
//! Every stripe of the array keeps one invariant over its units —
//! data units `D_j` at slots `j`, the XOR parity `P`, and under P+Q
//! the Reed–Solomon parity `Q` (`g` generates `GF(2^8)`):
//!
//! ```text
//! P ⊕ Σ D_j = 0            Q ⊕ Σ g^j · D_j = 0
//! ```
//!
//! Both equations are linear, so every path that maintains or solves
//! them is the same operation: **fold** a unit's bytes into the P
//! and/or Q accumulator according to the unit's [`Role`] in the
//! stripe — [`Syndromes::fold`]:
//!
//! | role | into P | into Q |
//! |---|---|---|
//! | [`Role::Data`]`(j)` | `⊕ bytes` | `⊕ g^j · bytes` |
//! | [`Role::P`] | `⊕ bytes` | — |
//! | [`Role::Q`] | — | `⊕ bytes` |
//!
//! * **encode** — fold the data units into zeroed accumulators: they
//!   end up holding P and Q;
//! * **verify** — fold every unit: a consistent stripe leaves both
//!   accumulators zero ([`is_zero`]);
//! * **decode** — fold the survivors, each from wherever the caller
//!   holds its bytes ([`Decode`]): each accumulator is left holding
//!   the fold of the *missing* units, which [`Decode::solve`] solves
//!   for up to two of them;
//! * **read-modify-write** — fold `old ⊕ new` of a data unit
//!   ([`delta`]) into the old parity bytes: they become the new parity.
//!
//! Slots index a stripe's unit list; P+Q stripes hold at most 255
//! units so the coefficients `g^j` stay distinct. An accumulator that
//! is `None` is skipped — XOR stores have no Q, and callers drop
//! whichever side they do not need.

use crate::error::StoreError;
use crate::repair::UnitCache;
use pdl_algebra::gf256::{self, xor_slice};

/// What a stripe unit contributes to the invariant (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// The data unit at this slot (Q coefficient `g^slot`).
    Data(usize),
    /// The XOR parity unit.
    P,
    /// The `GF(2^8)` parity unit.
    Q,
}

impl Role {
    /// The role of `slot` in a stripe whose parity sits at `p_slot`
    /// (and `q_slot` under P+Q).
    pub(crate) fn of(slot: usize, p_slot: usize, q_slot: Option<usize>) -> Role {
        if slot == p_slot {
            Role::P
        } else if Some(slot) == q_slot {
            Role::Q
        } else {
            Role::Data(slot)
        }
    }
}

/// The P and Q accumulators a run of [`Syndromes::fold`]s lands in.
pub(crate) struct Syndromes<'a> {
    pub(crate) p: Option<&'a mut [u8]>,
    pub(crate) q: Option<&'a mut [u8]>,
}

impl<'a> Syndromes<'a> {
    /// Both accumulators cleared, ready to encode, verify or decode.
    pub(crate) fn zeroed(p: &'a mut [u8], mut q: Option<&'a mut [u8]>) -> Self {
        p.fill(0);
        if let Some(q) = &mut q {
            q.fill(0);
        }
        Syndromes { p: Some(p), q }
    }

    /// Folds `bytes`, a unit in `role`, into the accumulators.
    #[inline]
    pub(crate) fn fold(&mut self, role: Role, bytes: &[u8]) {
        if let (Some(p), Role::Data(_) | Role::P) = (&mut self.p, role) {
            xor_slice(p, bytes);
        }
        match (&mut self.q, role) {
            (Some(q), Role::Data(slot)) => gf256::mul_add_slice(q, bytes, gf256::gen_pow(slot)),
            (Some(q), Role::Q) => xor_slice(q, bytes),
            _ => {}
        }
    }
}

/// Turns `old` into `old ⊕ new` — the delta a read-modify-write folds
/// into each parity unit.
#[inline]
pub(crate) fn delta(old: &mut [u8], new: &[u8]) {
    xor_slice(old, new);
}

/// Whether an accumulator (or a delta) is all zero.
pub(crate) fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// Reusable decode buffers: one P accumulator, one Q accumulator, and
/// the [`UnitCache`] the survivors are prefetched into and folded from
/// where they lie. Rebuild workers hold one per thread; the store's
/// data paths borrow them from its scratch pool, so a decode allocates
/// nothing once the cache has grown to a stripe (or a chunk).
#[derive(Debug)]
pub(crate) struct Scratch {
    pub(crate) acc_p: Vec<u8>,
    pub(crate) acc_q: Vec<u8>,
    pub(crate) cache: UnitCache,
}

impl Scratch {
    pub(crate) fn new(unit_size: usize) -> Scratch {
        Scratch {
            acc_p: vec![0u8; unit_size],
            acc_q: vec![0u8; unit_size],
            cache: UnitCache::default(),
        }
    }
}

/// Names which accumulator of a [`Decode`] holds a decoded unit, so a
/// decode result carries no borrow.
#[derive(Clone, Copy, Debug)]
enum DecodedBuf {
    P,
    Q,
}

/// A decode result: up to two lost slots and which accumulator holds
/// each, until the accumulators' next decode.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Decoded([Option<(usize, DecodedBuf)>; 2]);

impl Decoded {
    /// The decoded bytes of lost `slot`, from the [`Scratch`] whose
    /// accumulators the decode ran in.
    pub(crate) fn get<'s>(
        &self,
        scratch: &'s Scratch,
        slot: usize,
    ) -> Result<&'s [u8], StoreError> {
        match self.0.iter().flatten().find(|&&(s, _)| s == slot) {
            Some((_, DecodedBuf::P)) => Ok(&scratch.acc_p),
            Some((_, DecodedBuf::Q)) => Ok(&scratch.acc_q),
            None => Err(StoreError::Corrupt(format!("stripe decode skipped lost slot {slot}"))),
        }
    }

    /// The decoded slots, in solve order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().flatten().map(|&(slot, _)| slot)
    }
}

/// An erasure decode in progress: the caller [folds](Decode::fold)
/// every slot not in [`Decode::lost`] exactly once, straight from
/// wherever its bytes lie — a prefetch cache or a stripe already in
/// memory — and then [solves](Decode::solve). No
/// copy and no heap allocation: this sits in the rebuild's per-unit
/// loop.
///
/// The P accumulator is *copy*-initialised from the first survivor
/// that lands in it (as `plan_stripe` initialises P), which saves a
/// zero-fill and one pass. The Q syndrome is only part of the answer
/// with two units lost, or when the one lost unit is Q itself; any
/// other single erasure is solved by the P equation alone and leaves
/// the Q accumulator untouched (a lost Q alone leaves P untouched).
/// The caller still folds every survivor, so per-disk read counts do
/// not depend on which unit a stripe lost.
pub(crate) struct Decode<'a> {
    syn: Syndromes<'a>,
    /// No survivor has landed in the P accumulator yet.
    p_fresh: bool,
    p_slot: usize,
    q_slot: Option<usize>,
    lost: [usize; 2],
    nlost: usize,
}

impl<'a> Decode<'a> {
    /// A decode of `lost` (ascending, at most as many slots as the
    /// stripe has parity units) into `acc_p` and `acc_q` — a
    /// [`Scratch`]'s, so [`Decoded::get`] finds the answers there.
    pub(crate) fn new(
        acc_p: &'a mut [u8],
        acc_q: &'a mut [u8],
        p_slot: usize,
        q_slot: Option<usize>,
        lost: &[usize],
    ) -> Decode<'a> {
        let q_alone = matches!(*lost, [a] if Some(a) == q_slot);
        let need_q = lost.len() == 2 || q_alone;
        Decode::start(
            Syndromes { p: (!q_alone).then_some(acc_p), q: need_q.then_some(acc_q) },
            p_slot,
            q_slot,
            lost,
        )
    }

    /// A decode of the one lost `slot` straight into `out`, which
    /// holds the answer once [solved](Decode::solve): the output unit
    /// is the only accumulator.
    pub(crate) fn into_unit(
        out: &'a mut [u8],
        p_slot: usize,
        q_slot: Option<usize>,
        slot: usize,
    ) -> Decode<'a> {
        let syn = if Some(slot) == q_slot {
            Syndromes { p: None, q: Some(out) }
        } else {
            Syndromes { p: Some(out), q: None }
        };
        Decode::start(syn, p_slot, q_slot, &[slot])
    }

    fn start(
        mut syn: Syndromes<'a>,
        p_slot: usize,
        q_slot: Option<usize>,
        lost: &[usize],
    ) -> Decode<'a> {
        debug_assert!(lost.len() <= 1 + usize::from(q_slot.is_some()), "lost past the parity");
        debug_assert!(lost.windows(2).all(|w| w[0] < w[1]), "lost slots ascend");
        if let Some(q) = &mut syn.q {
            q.fill(0);
        }
        let mut slots = [usize::MAX; 2];
        slots[..lost.len()].copy_from_slice(lost);
        Decode { syn, p_fresh: true, p_slot, q_slot, lost: slots, nlost: lost.len() }
    }

    /// The lost slots: every other slot of the stripe is a survivor
    /// the caller folds.
    pub(crate) fn lost(&self) -> &[usize] {
        &self.lost[..self.nlost]
    }

    /// Folds survivor `slot`'s bytes into the accumulators.
    #[inline]
    pub(crate) fn fold(&mut self, slot: usize, bytes: &[u8]) {
        debug_assert!(!self.lost().contains(&slot), "slot {slot} is lost, not a survivor");
        let role = Role::of(slot, self.p_slot, self.q_slot);
        if self.p_fresh && role != Role::Q {
            if let Some(p) = &mut self.syn.p {
                p.copy_from_slice(bytes);
                self.p_fresh = false;
                Syndromes { p: None, q: self.syn.q.as_deref_mut() }.fold(role, bytes);
                return;
            }
        }
        self.syn.fold(role, bytes);
    }

    /// Solves for the lost units once every survivor is folded.
    pub(crate) fn solve(self) -> Decoded {
        let Decode { syn: Syndromes { mut p, q }, p_fresh, p_slot, q_slot, lost, nlost } = self;
        if let (true, Some(p)) = (p_fresh, &mut p) {
            p.fill(0); // no survivor folds into P: every unit it sums is lost
        }
        // Each accumulator now equals the fold of the *missing* units.
        let (is_p, is_q) = (|s: usize| s == p_slot, |s: usize| Some(s) == q_slot);
        Decoded(match lost[..nlost] {
            [] => [None, None],
            // Whichever unit is missing, the P accumulator already
            // equals it — except a missing Q, which the Q accumulator
            // holds.
            [a] if is_q(a) => [Some((a, DecodedBuf::Q)), None],
            [a] => [Some((a, DecodedBuf::P)), None],
            [a, b] => {
                let (acc_p, acc_q) = (p.expect("two erasures fold P"), q.expect("and Q"));
                if (is_p(a) && is_q(b)) || (is_p(b) && is_q(a)) {
                    // Lost P and Q: each accumulator is its parity.
                    let (p_lost, q_lost) = if is_p(a) { (a, b) } else { (b, a) };
                    [Some((p_lost, DecodedBuf::P)), Some((q_lost, DecodedBuf::Q))]
                } else if is_p(a) || is_p(b) {
                    // Lost P and a data unit j: the Q equation is
                    // missing only g^j·D_j, so D_j = acc_q / g^j; then
                    // P = acc_p ^ D_j.
                    let (p_lost, j) = if is_p(a) { (a, b) } else { (b, a) };
                    let c = gf256::inv(gf256::gen_pow(j)).expect("g^j is nonzero");
                    gf256::mul_slice(acc_q, c);
                    xor_slice(acc_p, acc_q);
                    [Some((j, DecodedBuf::Q)), Some((p_lost, DecodedBuf::P))]
                } else if is_q(a) || is_q(b) {
                    // Lost Q and a data unit j: D_j = acc_p; then
                    // Q = acc_q ^ g^j·D_j.
                    let (q_lost, j) = if is_q(a) { (a, b) } else { (b, a) };
                    gf256::mul_add_slice(acc_q, acc_p, gf256::gen_pow(j));
                    [Some((j, DecodedBuf::P)), Some((q_lost, DecodedBuf::Q))]
                } else {
                    // Two lost data units: the classic RAID-6 solve.
                    gf256::solve_two_erasures(acc_p, acc_q, gf256::gen_pow(a), gf256::gen_pow(b));
                    // acc_q now holds D_a, acc_p holds D_b.
                    [Some((a, DecodedBuf::Q)), Some((b, DecodedBuf::P))]
                }
            }
            _ => unreachable!("callers bound the lost set by the stripe's parity count"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POISON: u8 = 0xa5;

    fn unit(tag: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (tag * 131 + i * 29 + 7) as u8).collect()
    }

    /// Overwrites the stripe's parity units with the fold of its data.
    fn encode(stripe: &mut [Vec<u8>], p_slot: usize, q_slot: Option<usize>) {
        let len = stripe[p_slot].len();
        let (mut p, mut q) = (vec![POISON; len], vec![POISON; len]);
        let mut syn = Syndromes::zeroed(&mut p, q_slot.map(|_| q.as_mut_slice()));
        for (slot, bytes) in stripe.iter().enumerate() {
            if let role @ Role::Data(_) = Role::of(slot, p_slot, q_slot) {
                syn.fold(role, bytes);
            }
        }
        stripe[p_slot] = p;
        if let Some(qs) = q_slot {
            stripe[qs] = q;
        }
    }

    /// The whole codec on every small stripe: both schemes, widths
    /// 2..=6, every parity placement, unit sizes straddling the
    /// kernels' vector width — encode, verify, read-modify-write, and
    /// the borrowed-slice decode of every lost set up to the scheme's
    /// tolerance (single, data/data, data/P, data/Q, P/Q), a single
    /// erasure also straight into the output unit.
    #[test]
    fn fold_encodes_verifies_updates_and_decodes_every_lost_set() {
        for len in [1usize, 31, 64] {
            for width in 2usize..=6 {
                for p_slot in 0..width {
                    let q_slots = (0..width).filter(|&s| s != p_slot).map(Some);
                    for q_slot in std::iter::once(None).chain(q_slots) {
                        check_stripe(len, width, p_slot, q_slot);
                    }
                }
            }
        }
    }

    fn check_stripe(len: usize, width: usize, p_slot: usize, q_slot: Option<usize>) {
        let ctx = format!("len {len} width {width} P@{p_slot} Q@{q_slot:?}");
        let mut stripe: Vec<Vec<u8>> = (0..width).map(|slot| unit(slot, len)).collect();
        encode(&mut stripe, p_slot, q_slot);

        // Verify: the fold of every unit is zero.
        let (mut p, mut q) = (vec![POISON; len], vec![POISON; len]);
        let mut syn = Syndromes::zeroed(&mut p, q_slot.map(|_| q.as_mut_slice()));
        for (slot, bytes) in stripe.iter().enumerate() {
            syn.fold(Role::of(slot, p_slot, q_slot), bytes);
        }
        assert!(is_zero(&p) && (q_slot.is_none() || is_zero(&q)), "{ctx}: consistent stripe");

        // Read-modify-write: folding old ⊕ new into the old parity
        // equals encoding the new data.
        for j in (0..width).filter(|&j| Role::of(j, p_slot, q_slot) == Role::Data(j)) {
            let new = unit(width + j, len);
            let mut d = stripe[j].clone();
            delta(&mut d, &new);
            let mut updated = stripe.clone();
            updated[j] = new;
            Syndromes { p: Some(&mut updated[p_slot]), q: None }.fold(Role::Data(j), &d);
            if let Some(qs) = q_slot {
                Syndromes { p: None, q: Some(&mut updated[qs]) }.fold(Role::Data(j), &d);
            }
            let mut fresh = updated.clone();
            encode(&mut fresh, p_slot, q_slot);
            assert_eq!(updated, fresh, "{ctx}: delta update of slot {j}");
        }

        // Decode: every lost set the scheme tolerates.
        let mut lost_sets: Vec<Vec<usize>> = vec![vec![]];
        lost_sets.extend((0..width).map(|a| vec![a]));
        if q_slot.is_some() {
            lost_sets.extend((0..width).flat_map(|a| (a + 1..width).map(move |b| vec![a, b])));
        }
        for lost in lost_sets {
            // Into a scratch's accumulators, every survivor folded from
            // the slice it already lies in.
            let mut scratch = Scratch::new(len);
            scratch.acc_p.fill(POISON);
            scratch.acc_q.fill(POISON);
            let mut dec =
                Decode::new(&mut scratch.acc_p, &mut scratch.acc_q, p_slot, q_slot, &lost);
            assert_eq!(dec.lost(), &lost[..], "{ctx}: the lost set");
            for slot in (0..width).filter(|s| !lost.contains(s)) {
                dec.fold(slot, &stripe[slot]);
            }
            let solved = dec.solve();
            let mut answered: Vec<usize> = solved.slots().collect();
            answered.sort_unstable();
            assert_eq!(answered, lost, "{ctx}: exactly the lost slots are solved");
            for &slot in &lost {
                let got = solved.get(&scratch, slot).unwrap();
                assert_eq!(got, &stripe[slot][..], "{ctx} lost {lost:?}: slot {slot}");
            }
            if let Some(survivor) = (0..width).find(|s| !lost.contains(s)) {
                assert!(solved.get(&scratch, survivor).is_err(), "{ctx}: survivor not decoded");
            }
            // Each syndrome is built only when the answer needs it.
            let q_alone = lost.len() == 1 && Some(lost[0]) == q_slot;
            if lost.len() == 1 && !q_alone {
                assert!(scratch.acc_q.iter().all(|&b| b == POISON), "{ctx} lost {lost:?}: Q idle");
            }
            if q_alone {
                assert!(scratch.acc_p.iter().all(|&b| b == POISON), "{ctx} lost {lost:?}: P idle");
            }

            // A single erasure straight into the output unit: its
            // prior bytes are overwritten, never folded in.
            if let [slot] = lost[..] {
                let mut out = vec![POISON; len];
                let mut dec = Decode::into_unit(&mut out, p_slot, q_slot, slot);
                for s in (0..width).filter(|&s| s != slot) {
                    dec.fold(s, &stripe[s]);
                }
                dec.solve();
                assert_eq!(out, stripe[slot], "{ctx}: slot {slot} folded into the output unit");
            }
        }
    }
}
