//! Logical→physical address mapping (Condition 4).
//!
//! The paper requires the map from a logical data-unit address to its
//! `(disk, offset)` to cost one table lookup plus O(1) arithmetic, with
//! the table small enough to pin in memory. [`StripeMap`] is exactly
//! that: a flat table over one layout copy, extended to arbitrarily
//! large disks by tiling copies arithmetically. It serves stripes with
//! one parity slot (the paper's model) *or two* (P+Q, see
//! [`crate::DoubleParityLayout`]), so the simulator, the Condition 5–6
//! scores, relayout costs and the block store all read the same table.

use crate::layout::{Layout, StripeUnit};

/// Sentinel for "no Q slot" (single-parity stripes).
const NO_Q: u32 = u32::MAX;

/// Strength-reduced division by a runtime-constant divisor: the
/// classic multiply-high reciprocal (Granlund–Montgomery / Lemire),
/// precomputed once at map-build time so the per-request address→copy
/// split never executes a hardware divide.
///
/// With `m = ⌊2⁶⁴/d⌋ + 1`, `q = ⌊m·n / 2⁶⁴⌋` is the exact quotient
/// for every `n < 2³²` when `d < 2³²` — the range the store's
/// geometry checks guarantee for per-copy addresses. Larger inputs
/// (arrays past 2³² blocks) fall back to the hardware divide.
#[derive(Clone, Copy, Debug)]
struct Reciprocal {
    d: u64,
    m: u64,
}

impl Reciprocal {
    fn new(d: usize) -> Reciprocal {
        let d = d as u64;
        assert!(d > 0, "reciprocal of zero divisor");
        Reciprocal { d, m: (u64::MAX / d).wrapping_add(1) }
    }

    /// `(n / d, n % d)` without a divide instruction on the hot range.
    #[inline]
    fn div_rem(&self, n: usize) -> (usize, usize) {
        let n64 = n as u64;
        if self.d == 1 {
            (n, 0)
        } else if n64 <= u32::MAX as u64 && self.d <= u32::MAX as u64 {
            let q = (((self.m as u128) * (n64 as u128)) >> 64) as u64;
            (q as usize, (n64 - q * self.d) as usize)
        } else {
            ((n64 / self.d) as usize, (n64 % self.d) as usize)
        }
    }
}

/// One row of the precomputed per-rotation lookup table: everything
/// the data path needs to know about a logical data address within
/// one layout copy, resolved by a single array index.
#[derive(Clone, Copy, Debug)]
struct MapEntry {
    disk: u32,
    offset: u32,
    stripe: u32,
    slot: u32,
}

/// A fully resolved logical address: the physical unit plus its
/// stripe coordinates, returned by [`StripeMap::locate_full`] so hot
/// paths pay one table lookup instead of four separate accessor
/// calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrRef {
    /// Physical `(disk, offset)` of the unit (copy shift applied).
    pub unit: StripeUnit,
    /// Stripe (within the copy) owning the address.
    pub stripe: usize,
    /// Slot within the stripe's unit list — the Q-coefficient
    /// exponent under P+Q.
    pub slot: usize,
    /// Layout copy containing the address.
    pub copy: usize,
}

/// The Condition-4 logical→physical address table, for stripes whose
/// parity occupies one or two slots.
///
/// Logical data addresses enumerate non-parity units in stripe order
/// (keeping a stripe's data contiguous for the large-write fast path
/// and for Condition 5) and tile down the disks for arrays holding
/// several layout copies.
///
/// The map is one precomputed per-rotation table built once: each row
/// carries the physical unit *and* its stripe/slot coordinates, so
/// [`StripeMap::locate_full`] resolves an address with a single
/// branch-free array index (plus one multiply-shift reciprocal to
/// split off the copy — no divide instruction on the data path).
#[derive(Clone, Debug)]
pub struct StripeMap {
    size: usize,
    /// Data units of one copy, in stripe (= address) order: the
    /// per-rotation LUT.
    entries: Vec<MapEntry>,
    /// Per stripe: `(p_slot, q_slot)`, `q_slot == NO_Q` for XOR.
    parity: Vec<(u32, u32)>,
    /// First logical data address (within the copy) of each stripe,
    /// plus an end sentinel: `stripe_base[si]..stripe_base[si + 1]`
    /// is stripe `si`'s contiguous data-address range.
    stripe_base: Vec<u32>,
    /// Precomputed reciprocal of `entries.len()` for the copy split.
    recip: Reciprocal,
}

impl StripeMap {
    /// Builds the map. `pq_slots` carries the per-stripe `(P, Q)` slot
    /// pairs of a double-parity array (e.g. from
    /// [`crate::DoubleParityLayout::all_parity_slots`]); `None` maps a
    /// single-parity array through the layout's own parity slots.
    pub fn new(layout: &Layout, pq_slots: Option<&[(usize, usize)]>) -> StripeMap {
        let size = layout.size();
        let parity: Vec<(u32, u32)> = match pq_slots {
            Some(slots) => {
                assert_eq!(slots.len(), layout.b(), "one (P, Q) pair per stripe");
                slots.iter().map(|&(p, q)| (p as u32, q as u32)).collect()
            }
            None => layout.stripes().iter().map(|s| (s.parity_slot() as u32, NO_Q)).collect(),
        };
        let mut entries = Vec::new();
        let mut stripe_base = Vec::with_capacity(layout.b() + 1);
        for (si, stripe) in layout.stripes().iter().enumerate() {
            let (p, q) = parity[si];
            stripe_base.push(entries.len() as u32);
            for (slot, &u) in stripe.units().iter().enumerate() {
                if slot as u32 == p || slot as u32 == q {
                    continue;
                }
                entries.push(MapEntry {
                    disk: u.disk,
                    offset: u.offset,
                    stripe: si as u32,
                    slot: slot as u32,
                });
            }
        }
        stripe_base.push(entries.len() as u32);
        let recip = Reciprocal::new(entries.len());
        StripeMap { size, entries, parity, stripe_base, recip }
    }

    /// Data units per layout copy — also the table's entry count, the
    /// paper's Condition 4 size measure.
    pub fn data_units_per_copy(&self) -> usize {
        self.entries.len()
    }

    /// Resolves logical address `addr` completely — physical unit,
    /// stripe, slot, and copy — with one reciprocal multiply and one
    /// table index. This is the data path's mapping primitive; the
    /// single-field accessors below are conveniences over it.
    #[inline]
    pub fn locate_full(&self, addr: usize) -> AddrRef {
        let (copy, rem) = self.recip.div_rem(addr);
        let e = self.entries[rem];
        AddrRef {
            unit: StripeUnit { disk: e.disk, offset: e.offset + (copy * self.size) as u32 },
            stripe: e.stripe as usize,
            slot: e.slot as usize,
            copy,
        }
    }

    /// Physical location of logical data unit `addr`, tiling copies.
    pub fn locate(&self, addr: usize) -> StripeUnit {
        self.locate_full(addr).unit
    }

    /// Stripe (within the copy) owning logical address `addr`.
    pub fn stripe_of(&self, addr: usize) -> usize {
        let (_, rem) = self.recip.div_rem(addr);
        self.entries[rem].stripe as usize
    }

    /// Slot within its stripe of logical address `addr` — the exponent
    /// of the unit's Q coefficient.
    pub fn slot_of(&self, addr: usize) -> usize {
        let (_, rem) = self.recip.div_rem(addr);
        self.entries[rem].slot as usize
    }

    /// Layout copy containing logical address `addr`.
    pub fn copy_of(&self, addr: usize) -> usize {
        self.recip.div_rem(addr).0
    }

    /// The contiguous data-address range of `stripe` within one copy,
    /// as `(first address, data-unit count)`. Addresses enumerate
    /// non-parity units in stripe order, so a stripe's data is always
    /// one contiguous run — the invariant behind both the full-stripe
    /// write fast path and the write-back cache's slot indexing.
    pub fn stripe_data_range(&self, stripe: usize) -> (usize, usize) {
        let lo = self.stripe_base[stripe] as usize;
        let hi = self.stripe_base[stripe + 1] as usize;
        (lo, hi - lo)
    }

    /// `(p_slot, q_slot)` of a stripe; `q_slot` is `None` under XOR.
    pub fn parity_slots(&self, stripe: usize) -> (usize, Option<usize>) {
        let (p, q) = self.parity[stripe];
        (p as usize, (q != NO_Q).then_some(q as usize))
    }

    /// True when `slot` is a parity slot of `stripe`.
    pub fn is_parity_slot(&self, stripe: usize, slot: usize) -> bool {
        let (p, q) = self.parity[stripe];
        slot as u32 == p || slot as u32 == q
    }

    /// Resident bytes of the tables (Condition-4 footprint measure).
    pub fn table_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<MapEntry>()
            + self.parity.len() * 8
            + self.stripe_base.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hg::{holland_gibson_layout, raid5_layout};
    use crate::layout::UnitRole;
    use crate::ring_layout::RingLayout;
    use crate::stairway::stairway_layout;
    use crate::DoubleParityLayout;
    use pdl_design::{complete_design, RingDesign};

    /// The layout is the oracle: the XOR map is the stripe-order
    /// enumeration of each stripe's data units tiled over three copies,
    /// and the P+Q map sends every address of a copy to a distinct unit
    /// that is neither P nor Q.
    fn assert_maps_match_layout(name: &str, l: &Layout) {
        let (v, size) = (l.v(), l.size());
        let sm = StripeMap::new(l, None);
        let order: Vec<(StripeUnit, usize)> = (l.stripes().iter().enumerate())
            .flat_map(|(si, s)| s.data_units().map(move |u| (u, si)))
            .collect();
        let n = order.len();
        assert_eq!(sm.data_units_per_copy(), n, "{name}");
        assert_eq!(n, l.data_unit_count(), "{name}");
        assert!(n <= v * size, "{name}: table larger than the array");
        for addr in 0..3 * n {
            let (u, si) = order[addr % n];
            let shift = (addr / n * size) as u32;
            let want = StripeUnit { disk: u.disk, offset: u.offset + shift };
            assert_eq!(sm.locate(addr), want, "{name}: addr {addr}");
            assert_eq!(sm.stripe_of(addr), si, "{name}: addr {addr}");
            assert_eq!(sm.parity_slots(si), (l.stripes()[si].parity_slot(), None), "{name}");
        }

        let dp = DoubleParityLayout::new(l.clone()).unwrap();
        let pq = StripeMap::new(l, Some(dp.all_parity_slots()));
        let n = pq.data_units_per_copy();
        assert_eq!(n, l.stripes().iter().map(|s| s.len() - 2).sum::<usize>(), "{name}");
        let mut seen = vec![false; v * size];
        for addr in 0..n {
            let u = pq.locate(addr);
            let cell = u.disk as usize * size + u.offset as usize;
            assert!(!std::mem::replace(&mut seen[cell], true), "{name}: {u:?} mapped twice");
            assert_eq!(dp.role(u.disk as usize, u.offset as usize), UnitRole::Data, "{name}");
        }
    }

    #[test]
    fn roundtrip_on_ring_layout() {
        assert_maps_match_layout("ring v9k4", RingLayout::for_v_k(9, 4).layout());
    }

    #[test]
    fn roundtrip_on_hg_layout() {
        let l = holland_gibson_layout(&complete_design(5, 3, 100));
        assert_maps_match_layout("hg complete(5,3)", &l);
    }

    #[test]
    fn roundtrip_on_raid5() {
        assert_maps_match_layout("raid5(6,12)", &raid5_layout(6, 12));
    }

    #[test]
    fn roundtrip_on_reshaped_layouts() {
        let thm8 = RingLayout::for_v_k(9, 4).remove_disk(0);
        assert_maps_match_layout("thm8 ring v9k4 - disk 0", &thm8);
        let stairway = stairway_layout(&RingDesign::for_v_k(13, 4), 16).unwrap();
        assert_maps_match_layout("stairway 13→16", &stairway);
    }

    #[test]
    fn data_unit_count_matches() {
        let rl = RingLayout::for_v_k(7, 3);
        let m = StripeMap::new(rl.layout(), None);
        assert_eq!(m.data_units_per_copy(), rl.layout().data_unit_count());
        // ring layout: b stripes of k units, 1 parity each
        assert_eq!(m.data_units_per_copy(), rl.layout().b() * (3 - 1));
    }

    #[test]
    fn multi_copy_tiling() {
        let rl = RingLayout::for_v_k(5, 3);
        let m = StripeMap::new(rl.layout(), None);
        let n = m.data_units_per_copy();
        let u0 = m.locate(7);
        let u1 = m.locate(7 + n);
        let u2 = m.locate(7 + 3 * n);
        assert_eq!(u0.disk, u1.disk);
        assert_eq!(u1.offset as usize, u0.offset as usize + rl.layout().size());
        assert_eq!(u2.offset as usize, u0.offset as usize + 3 * rl.layout().size());
        // every copy resolves to the same stripe and slot, in its own copy
        let (r0, r3) = (m.locate_full(7), m.locate_full(7 + 3 * n));
        assert_eq!((r3.stripe, r3.slot, r3.copy), (r0.stripe, r0.slot, 3));
        assert_eq!(m.copy_of(7 + n), 1);
    }

    #[test]
    fn parity_lookup() {
        let rl = RingLayout::for_v_k(5, 3);
        let l = rl.layout();
        let m = StripeMap::new(l, None);
        for addr in 0..m.data_units_per_copy() {
            let s = m.stripe_of(addr);
            let (p_slot, q_slot) = m.parity_slots(s);
            assert_eq!(q_slot, None);
            let p = l.stripes()[s].units()[p_slot];
            assert_eq!(l.role(p.disk as usize, p.offset as usize), UnitRole::Parity);
            // the parity must share the stripe with the data unit
            let u = m.locate(addr);
            let su = l.unit_ref(u.disk as usize, u.offset as usize).stripe;
            let sp = l.unit_ref(p.disk as usize, p.offset as usize).stripe;
            assert_eq!(su, sp);
            assert_eq!(su as usize, s);
        }
    }

    #[test]
    fn table_size_reporting() {
        let rl = RingLayout::for_v_k(8, 3);
        let m = StripeMap::new(rl.layout(), None);
        assert_eq!(m.data_units_per_copy(), rl.layout().data_unit_count());
        assert!(m.table_bytes() >= m.data_units_per_copy() * std::mem::size_of::<MapEntry>());
    }

    #[test]
    fn reciprocal_matches_hardware_division() {
        for d in [1usize, 2, 3, 7, 24, 54, 255, 1000, 4096, (1 << 32) - 1] {
            let r = Reciprocal::new(d);
            let probes = [
                0usize,
                1,
                d - 1,
                d,
                d + 1,
                7 * d + 3,
                u32::MAX as usize,
                u32::MAX as usize + 1,
                usize::MAX / 2,
                usize::MAX,
            ];
            for &n in &probes {
                assert_eq!(r.div_rem(n), (n / d, n % d), "n = {n}, d = {d}");
            }
            // A pseudo-random sweep across the fast (< 2^32) range.
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let n = (x as u32) as usize;
                assert_eq!(r.div_rem(n), (n / d, n % d), "n = {n}, d = {d}");
            }
        }
    }

    #[test]
    fn locate_full_agrees_with_field_accessors() {
        let rl = RingLayout::for_v_k(9, 4);
        let sm = StripeMap::new(rl.layout(), None);
        for addr in 0..sm.data_units_per_copy() * 3 {
            let r = sm.locate_full(addr);
            assert_eq!(r.unit, sm.locate(addr));
            assert_eq!(r.stripe, sm.stripe_of(addr));
            assert_eq!(r.slot, sm.slot_of(addr));
            assert_eq!(r.copy, sm.copy_of(addr));
        }
    }

    #[test]
    fn stripe_data_ranges_tile_the_copy() {
        let rl = RingLayout::for_v_k(9, 4);
        let layout = rl.layout();
        let sm = StripeMap::new(layout, None);
        let mut next = 0usize;
        for si in 0..layout.b() {
            let (lo, len) = sm.stripe_data_range(si);
            assert_eq!(lo, next, "stripe {si} starts where stripe {} ended", si.wrapping_sub(1));
            assert!(len > 0);
            for addr in lo..lo + len {
                assert_eq!(sm.stripe_of(addr), si);
            }
            next = lo + len;
        }
        assert_eq!(next, sm.data_units_per_copy(), "ranges cover every data address");
    }

    #[test]
    fn pq_map_excludes_both_parities() {
        let rl = RingLayout::for_v_k(9, 4);
        let dp = DoubleParityLayout::new(rl.layout().clone()).unwrap();
        let sm = StripeMap::new(dp.layout(), Some(dp.all_parity_slots()));
        // Each k=4 stripe keeps k-2 = 2 data units.
        assert_eq!(sm.data_units_per_copy(), dp.layout().b() * 2);
        for addr in 0..sm.data_units_per_copy() {
            let u = sm.locate(addr);
            assert_eq!(dp.role(u.disk as usize, u.offset as usize), UnitRole::Data);
            let s = sm.stripe_of(addr);
            assert!(!sm.is_parity_slot(s, sm.slot_of(addr)));
            let (p, q) = sm.parity_slots(s);
            assert_eq!((p, q.unwrap()), dp.all_parity_slots()[s]);
        }
        assert!(sm.table_bytes() > 0);
    }
}
