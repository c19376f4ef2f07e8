//! Configurable fault tolerance: the parity scheme and the failure set.
//!
//! The paper's Section 5 extension — "selecting some number of
//! distinguished units (perhaps more than one) from each stripe" —
//! becomes concrete here: a [`ParityScheme`] names how many
//! distinguished (parity) units each stripe carries and what code they
//! hold, and a [`FailureSet`] tracks up to that many concurrently
//! failed disks. The address map that skips those units is
//! [`pdl_core::StripeMap`], built with the scheme's slot pairs.
//!
//! ## Schemes
//!
//! * [`ParityScheme::Xor`] — one parity unit per stripe, plain XOR;
//!   tolerates any single disk failure (the paper's base model).
//! * [`ParityScheme::PQ`] — two parity units per stripe, P (XOR) and
//!   Q (Reed–Solomon over `GF(2^8)`, see [`pdl_algebra::gf256`]);
//!   tolerates any two simultaneous disk failures. Q-slot placement
//!   comes from [`pdl_core::DoubleParityLayout`], the generalized
//!   Theorem 14 flow that balances the combined P+Q population.

/// Which erasure code protects each stripe, and therefore how many
/// simultaneous disk failures the store survives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParityScheme {
    /// Single parity (XOR): one distinguished unit per stripe,
    /// tolerates one failed disk.
    Xor,
    /// Double parity (P+Q, RAID-6 style): two distinguished units per
    /// stripe, tolerates two concurrently failed disks.
    PQ,
}

impl ParityScheme {
    /// Maximum number of concurrently failed disks the scheme decodes.
    pub(crate) fn fault_tolerance(self) -> usize {
        match self {
            ParityScheme::Xor => 1,
            ParityScheme::PQ => 2,
        }
    }

    /// Parity units per stripe (`1` for XOR, `2` for P+Q).
    pub(crate) fn parity_per_stripe(self) -> usize {
        self.fault_tolerance()
    }

    /// Stable lowercase name used by persisted metadata.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ParityScheme::Xor => "xor",
            ParityScheme::PQ => "pq",
        }
    }

    /// Parses [`ParityScheme::name`] back; `None` for unknown names.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        match name {
            "xor" => Some(ParityScheme::Xor),
            "pq" => Some(ParityScheme::PQ),
            _ => None,
        }
    }
}

/// The set of currently failed logical disks, capped by the scheme's
/// fault tolerance. Kept sorted; iteration order is ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureSet {
    disks: Vec<usize>,
}

impl FailureSet {
    /// No failures.
    pub(crate) fn new() -> Self {
        FailureSet::default()
    }

    /// True when no disk is failed.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Number of concurrently failed disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// True when `disk` is currently failed.
    pub fn contains(&self, disk: usize) -> bool {
        self.disks.binary_search(&disk).is_ok()
    }

    /// The failed disks, ascending.
    pub fn as_slice(&self) -> &[usize] {
        &self.disks
    }

    /// Iterates the failed disks, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.disks.iter().copied()
    }

    /// The lowest-numbered failed disk, if any.
    pub(crate) fn first(&self) -> Option<usize> {
        self.disks.first().copied()
    }

    /// Adds a disk; returns `false` if it was already present.
    pub(crate) fn insert(&mut self, disk: usize) -> bool {
        match self.disks.binary_search(&disk) {
            Ok(_) => false,
            Err(at) => {
                self.disks.insert(at, disk);
                true
            }
        }
    }

    /// Removes a disk; returns `false` if it was not present.
    pub(crate) fn remove(&mut self, disk: usize) -> bool {
        match self.disks.binary_search(&disk) {
            Ok(at) => {
                self.disks.remove(at);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties() {
        assert_eq!(ParityScheme::Xor.fault_tolerance(), 1);
        assert_eq!(ParityScheme::PQ.fault_tolerance(), 2);
        assert_eq!(ParityScheme::from_name("xor"), Some(ParityScheme::Xor));
        assert_eq!(ParityScheme::from_name("pq"), Some(ParityScheme::PQ));
        assert_eq!(ParityScheme::from_name("raid7"), None);
        assert_eq!(ParityScheme::from_name(ParityScheme::PQ.name()), Some(ParityScheme::PQ));
    }

    #[test]
    fn failure_set_basics() {
        let mut f = FailureSet::new();
        assert!(f.is_empty());
        assert!(f.insert(5));
        assert!(f.insert(2));
        assert!(!f.insert(5), "duplicate insert rejected");
        assert_eq!(f.as_slice(), &[2, 5], "kept sorted");
        assert_eq!(f.first(), Some(2));
        assert!(f.contains(5) && !f.contains(3));
        assert!(f.remove(2));
        assert!(!f.remove(2));
        assert_eq!(f.len(), 1);
    }

    /// An XOR world's map resolves every address to the unit the core
    /// layout holds at that copy, stripe and slot — never a parity slot.
    #[test]
    fn xor_map_matches_core_mapper() {
        let rl = pdl_core::RingLayout::for_v_k(9, 4);
        let layout = std::sync::Arc::new(rl.layout().clone());
        let world = crate::store::World::new(layout.clone(), None, 2);
        let n = world.smap.data_units_per_copy();
        assert_eq!(n, layout.data_unit_count());
        for addr in 0..n * world.copies {
            let r = world.smap.locate_full(addr);
            assert_eq!(r.unit, world.unit(r.copy, r.stripe, r.slot), "addr {addr}");
            let p = layout.stripes()[r.stripe].parity_slot();
            assert_eq!(world.smap.parity_slots(r.stripe), (p, None));
            assert_ne!(r.slot, p, "addr {addr} maps onto parity");
        }
    }
}
