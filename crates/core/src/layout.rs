//! The data-layout model: disks divided into units, units grouped into
//! parity stripes (Section 1 of the paper).
//!
//! A [`Layout`] assigns every unit of a `v × size` disk array to exactly
//! one stripe, with at most one unit of any stripe per disk (Condition 1:
//! single-disk failures stay reconstructable), and marks one unit per
//! stripe as parity.

use std::fmt;

/// The paper's feasibility threshold: layouts needing more than ~10,000
/// units (tracks) per disk are considered infeasible (Condition 4).
pub const DEFAULT_FEASIBILITY_LIMIT: usize = 10_000;

/// A single unit position in the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StripeUnit {
    /// Disk index, `0..v`.
    pub disk: u32,
    /// Unit offset within the disk, `0..size`.
    pub offset: u32,
}

impl StripeUnit {
    /// Convenience constructor.
    pub fn new(disk: usize, offset: usize) -> Self {
        StripeUnit { disk: disk as u32, offset: offset as u32 }
    }
}

/// Role of a unit within its stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum UnitRole {
    /// Holds client data.
    Data,
    /// Holds the XOR of the stripe's data units.
    Parity,
}

/// A parity stripe: a set of units (at most one per disk), one of which
/// is the parity unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stripe {
    units: Vec<StripeUnit>,
    parity: u32,
}

impl Stripe {
    /// Creates a stripe; `parity` indexes into `units`.
    pub fn new(units: Vec<StripeUnit>, parity: usize) -> Self {
        assert!(parity < units.len(), "parity slot out of range");
        Stripe { units, parity: parity as u32 }
    }

    /// All units, in construction order.
    pub fn units(&self) -> &[StripeUnit] {
        &self.units
    }

    /// Number of units (the stripe's `k_s`).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True for the degenerate empty stripe (never produced by valid layouts).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Index of the parity unit within [`units`](Self::units).
    pub fn parity_slot(&self) -> usize {
        self.parity as usize
    }

    /// The parity unit itself.
    pub fn parity_unit(&self) -> StripeUnit {
        self.units[self.parity as usize]
    }

    /// Iterator over the data (non-parity) units.
    pub fn data_units(&self) -> impl Iterator<Item = StripeUnit> + '_ {
        let p = self.parity as usize;
        self.units.iter().enumerate().filter_map(move |(i, &u)| (i != p).then_some(u))
    }

    /// True when the stripe places a unit on `disk`.
    pub fn crosses(&self, disk: usize) -> bool {
        self.units.iter().any(|u| u.disk as usize == disk)
    }
}

/// Back-reference from a unit to its stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnitRef {
    /// Stripe index within the layout.
    pub stripe: u32,
    /// Slot within the stripe's unit list.
    pub slot: u32,
}

/// Validation failures for layouts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// A stripe unit lies outside the `v × size` array.
    UnitOutOfRange {
        /// Offending stripe.
        stripe: usize,
        /// Offending unit.
        unit: StripeUnit,
    },
    /// Two stripes (or one stripe twice) claim the same unit.
    DuplicateCoverage {
        /// The doubly-claimed unit.
        unit: StripeUnit,
    },
    /// Some unit belongs to no stripe.
    MissingCoverage {
        /// The orphaned unit.
        unit: StripeUnit,
    },
    /// A stripe has two units on one disk (violates Condition 1).
    TwoUnitsOneDisk {
        /// Offending stripe.
        stripe: usize,
        /// The disk carrying two of its units.
        disk: usize,
    },
    /// A stripe is empty.
    EmptyStripe {
        /// Offending stripe index.
        stripe: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::UnitOutOfRange { stripe, unit } => {
                write!(f, "stripe {stripe} references out-of-range unit {unit:?}")
            }
            LayoutError::DuplicateCoverage { unit } => {
                write!(f, "unit {unit:?} is covered by more than one stripe")
            }
            LayoutError::MissingCoverage { unit } => {
                write!(f, "unit {unit:?} is covered by no stripe")
            }
            LayoutError::TwoUnitsOneDisk { stripe, disk } => {
                write!(f, "stripe {stripe} has two units on disk {disk} (Condition 1 violated)")
            }
            LayoutError::EmptyStripe { stripe } => write!(f, "stripe {stripe} is empty"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// A complete, validated parity-declustered data layout.
#[derive(Clone, Debug)]
pub struct Layout {
    v: usize,
    size: usize,
    stripes: Vec<Stripe>,
    /// `unit_map[disk * size + offset]` → owning stripe and slot.
    unit_map: Vec<UnitRef>,
}

impl Layout {
    /// Builds and validates a layout from its stripes.
    pub fn from_stripes(
        v: usize,
        size: usize,
        stripes: Vec<Stripe>,
    ) -> Result<Layout, LayoutError> {
        assert!(v >= 1 && size >= 1, "array must be nonempty");
        let sentinel = UnitRef { stripe: u32::MAX, slot: u32::MAX };
        let mut unit_map = vec![sentinel; v * size];
        for (si, stripe) in stripes.iter().enumerate() {
            if stripe.is_empty() {
                return Err(LayoutError::EmptyStripe { stripe: si });
            }
            let mut disks_seen: Vec<u32> = Vec::with_capacity(stripe.len());
            for (slot, &u) in stripe.units().iter().enumerate() {
                if u.disk as usize >= v || u.offset as usize >= size {
                    return Err(LayoutError::UnitOutOfRange { stripe: si, unit: u });
                }
                if disks_seen.contains(&u.disk) {
                    return Err(LayoutError::TwoUnitsOneDisk { stripe: si, disk: u.disk as usize });
                }
                disks_seen.push(u.disk);
                let idx = u.disk as usize * size + u.offset as usize;
                if unit_map[idx].stripe != u32::MAX {
                    return Err(LayoutError::DuplicateCoverage { unit: u });
                }
                unit_map[idx] = UnitRef { stripe: si as u32, slot: slot as u32 };
            }
        }
        if let Some(idx) = unit_map.iter().position(|r| r.stripe == u32::MAX) {
            return Err(LayoutError::MissingCoverage {
                unit: StripeUnit::new(idx / size, idx % size),
            });
        }
        Ok(Layout { v, size, stripes, unit_map })
    }

    /// Number of disks `v`.
    pub fn v(&self) -> usize {
        self.v
    }

    /// Units per disk (the layout *size* `s`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The stripes.
    pub fn stripes(&self) -> &[Stripe] {
        &self.stripes
    }

    /// Number of stripes `b`.
    pub fn b(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe/slot owning the unit at `(disk, offset)`.
    pub fn unit_ref(&self, disk: usize, offset: usize) -> UnitRef {
        self.unit_map[disk * self.size + offset]
    }

    /// Role of the unit at `(disk, offset)`.
    pub(crate) fn role(&self, disk: usize, offset: usize) -> UnitRole {
        let r = self.unit_ref(disk, offset);
        if self.stripes[r.stripe as usize].parity_slot() == r.slot as usize {
            UnitRole::Parity
        } else {
            UnitRole::Data
        }
    }

    /// Total data (non-parity) units in the layout.
    pub fn data_unit_count(&self) -> usize {
        self.stripes.iter().map(|s| s.len() - 1).sum()
    }

    /// Minimum and maximum stripe size.
    pub fn stripe_size_range(&self) -> (usize, usize) {
        let min = self.stripes.iter().map(Stripe::len).min().unwrap_or(0);
        let max = self.stripes.iter().map(Stripe::len).max().unwrap_or(0);
        (min, max)
    }

    /// Condition 4 feasibility: `size ≤ limit` (default 10,000 tracks).
    pub(crate) fn is_feasible(&self, limit: usize) -> bool {
        self.size <= limit
    }

    /// ASCII rendering: rows = offsets, columns = disks; each cell shows
    /// the stripe index, parity cells marked `*`. Truncated to
    /// `max_rows` offsets. Reproduces the style of the paper's Figs 1–3.
    pub fn ascii_art(&self, max_rows: usize) -> String {
        use std::fmt::Write;
        let width = (self.b().max(1).ilog10() as usize) + 2;
        let mut out = String::new();
        write!(out, "{:>6} ", "").unwrap();
        for d in 0..self.v {
            write!(out, "{:>width$}", format!("D{d}")).unwrap();
        }
        out.push('\n');
        for off in 0..self.size.min(max_rows) {
            write!(out, "{off:>5}: ").unwrap();
            for d in 0..self.v {
                let r = self.unit_ref(d, off);
                let mark = if self.role(d, off) == UnitRole::Parity { "*" } else { "" };
                write!(out, "{:>width$}", format!("{}{mark}", r.stripe)).unwrap();
            }
            out.push('\n');
        }
        if self.size > max_rows {
            writeln!(out, "  ... ({} more rows)", self.size - max_rows).unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(d: usize, o: usize) -> StripeUnit {
        StripeUnit::new(d, o)
    }

    /// 2 disks × 2 units: two mirrored stripes.
    fn tiny_layout() -> Layout {
        Layout::from_stripes(
            2,
            2,
            vec![
                Stripe::new(vec![unit(0, 0), unit(1, 0)], 1),
                Stripe::new(vec![unit(0, 1), unit(1, 1)], 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_layout_accepted() {
        let l = tiny_layout();
        assert_eq!(l.v(), 2);
        assert_eq!(l.size(), 2);
        assert_eq!(l.b(), 2);
        assert_eq!(l.data_unit_count(), 2);
        assert_eq!(l.stripe_size_range(), (2, 2));
    }

    #[test]
    fn roles_and_unit_refs() {
        let l = tiny_layout();
        assert_eq!(l.role(1, 0), UnitRole::Parity);
        assert_eq!(l.role(0, 0), UnitRole::Data);
        assert_eq!(l.role(0, 1), UnitRole::Parity);
        let r = l.unit_ref(1, 1);
        assert_eq!(r.stripe, 1);
        assert_eq!(l.stripes()[1].units()[r.slot as usize], unit(1, 1));
    }

    #[test]
    fn missing_coverage_detected() {
        let err = Layout::from_stripes(2, 1, vec![Stripe::new(vec![unit(0, 0)], 0)]).unwrap_err();
        assert_eq!(err, LayoutError::MissingCoverage { unit: unit(1, 0) });
    }

    #[test]
    fn duplicate_coverage_detected() {
        let err = Layout::from_stripes(
            1,
            1,
            vec![Stripe::new(vec![unit(0, 0)], 0), Stripe::new(vec![unit(0, 0)], 0)],
        )
        .unwrap_err();
        assert_eq!(err, LayoutError::DuplicateCoverage { unit: unit(0, 0) });
    }

    #[test]
    fn two_units_one_disk_detected() {
        let err = Layout::from_stripes(
            2,
            2,
            vec![
                Stripe::new(vec![unit(0, 0), unit(0, 1)], 0),
                Stripe::new(vec![unit(1, 0), unit(1, 1)], 0),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, LayoutError::TwoUnitsOneDisk { stripe: 0, disk: 0 }));
    }

    #[test]
    fn out_of_range_detected() {
        let err = Layout::from_stripes(1, 1, vec![Stripe::new(vec![unit(0, 5)], 0)]).unwrap_err();
        assert!(matches!(err, LayoutError::UnitOutOfRange { .. }));
    }

    #[test]
    fn stripe_accessors() {
        let s = Stripe::new(vec![unit(0, 0), unit(1, 0), unit(2, 0)], 1);
        assert_eq!(s.parity_unit(), unit(1, 0));
        let data: Vec<_> = s.data_units().collect();
        assert_eq!(data, vec![unit(0, 0), unit(2, 0)]);
        assert!(s.crosses(2));
        assert!(!s.crosses(3));
    }

    #[test]
    #[should_panic(expected = "parity slot out of range")]
    fn bad_parity_slot_panics() {
        Stripe::new(vec![unit(0, 0)], 1);
    }

    #[test]
    fn feasibility_threshold() {
        let l = tiny_layout();
        assert!(l.is_feasible(DEFAULT_FEASIBILITY_LIMIT));
        assert!(!l.is_feasible(1));
    }

    #[test]
    fn ascii_art_renders() {
        let art = tiny_layout().ascii_art(10);
        assert!(art.contains("D0"));
        assert!(art.contains('*'));
        assert_eq!(art.lines().count(), 3); // header + 2 rows
    }
}
