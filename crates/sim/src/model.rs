//! Simulation model: disk service times, workload generation, and
//! configuration.
//!
//! The disk model is deliberately generic (positioning + transfer), in
//! the spirit of the simulator Holland & Gibson used: the quantities the
//! paper cares about — reconstruction workload distribution, parity
//! write contention, relative rebuild times — depend on the *layout
//! combinatorics*, not on a particular drive's datasheet.

use rand::rngs::StdRng;
use rand::Rng;

/// Which side of the request mix an IO belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IoKind {
    /// A read of one unit.
    Read,
    /// A write of one unit.
    Write,
}

/// How seek time depends on arm travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeekModel {
    /// Positioning cost is independent of the previous head position
    /// (the classic simplification).
    PositionIndependent,
    /// Positioning cost grows linearly with travel distance: a full
    /// sweep across the disk adds `max_seek_us` on top of the base
    /// positioning sample. Makes head scheduling and layout locality
    /// matter.
    Linear {
        /// Extra cost of a full-stroke seek (µs).
        max_seek_us: u64,
    },
}

/// How each disk orders its queued IOs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// First come, first served.
    Fifo,
    /// Shortest seek time first: serve the queued IO closest to the
    /// current head position (only meaningful with [`SeekModel::Linear`]).
    Sstf,
}

/// Disk service-time model: uniformly distributed positioning time plus a
/// fixed per-unit transfer time (single-unit IOs), optionally with a
/// travel-distance seek component.
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Positioning (settle + rotation) range in microseconds, sampled
    /// uniformly per IO.
    pub positioning_us: (u64, u64),
    /// Transfer time per unit in microseconds.
    pub transfer_us: u64,
    /// Seek-distance model.
    pub seek: SeekModel,
}

impl Default for DiskModel {
    fn default() -> Self {
        // A 1990s-era drive, roughly matching the paper's context:
        // ~10 ms average positioning, ~2 ms track transfer.
        DiskModel {
            positioning_us: (5_000, 15_000),
            transfer_us: 2_000,
            seek: SeekModel::PositionIndependent,
        }
    }
}

impl DiskModel {
    /// Samples one IO's service time given the head position, the target
    /// offset, the disk size (for normalizing travel distance), and the
    /// number of contiguous units transferred.
    pub(crate) fn service_time_at(
        &self,
        rng: &mut StdRng,
        head: u64,
        target: u64,
        disk_size: u64,
        units: u64,
    ) -> u64 {
        let (lo, hi) = self.positioning_us;
        let pos = if hi > lo { rng.random_range(lo..=hi) } else { lo };
        let seek = match self.seek {
            SeekModel::PositionIndependent => 0,
            SeekModel::Linear { max_seek_us } => {
                let dist = head.abs_diff(target);
                max_seek_us * dist / disk_size.max(1)
            }
        };
        pos + seek + self.transfer_us * units.max(1)
    }
}

/// Distribution of logical addresses in the workload.
#[derive(Clone, Copy, Debug)]
pub enum AddressDist {
    /// Uniform over all data units.
    Uniform,
    /// `hot_access` of the accesses go to the first `hot_space` fraction
    /// of the address space (e.g. 0.8/0.2).
    HotCold {
        /// Fraction of accesses landing in the hot region.
        hot_access: f64,
        /// Fraction of the address space that is hot.
        hot_space: f64,
    },
}

impl AddressDist {
    /// Samples a logical address in `0..n`.
    pub(crate) fn sample(&self, n: usize, rng: &mut StdRng) -> usize {
        match *self {
            AddressDist::Uniform => rng.random_range(0..n),
            AddressDist::HotCold { hot_access, hot_space } => {
                let split = ((n as f64 * hot_space) as usize).clamp(1, n);
                if rng.random_bool(hot_access.clamp(0.0, 1.0)) {
                    rng.random_range(0..split)
                } else if split < n {
                    rng.random_range(split..n)
                } else {
                    rng.random_range(0..n)
                }
            }
        }
    }
}

/// Foreground workload: open Poisson arrivals of (possibly multi-unit)
/// requests over logically contiguous data.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Mean arrival rate in requests per second (Poisson process).
    pub arrivals_per_sec: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Address distribution.
    pub addresses: AddressDist,
    /// Request size range in logical units, sampled uniformly. `(1, 1)`
    /// is the classic small-IO workload; sizes ≥ k−1 exercise the
    /// Condition 5 full-stripe-write path.
    pub request_units: (usize, usize),
    /// Round request start addresses down to a multiple of the request
    /// size (models filesystem-aligned large IO; with stripe-ordered
    /// addressing, size-(k−1) aligned writes are full-stripe writes).
    pub aligned: bool,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            arrivals_per_sec: 50.0,
            read_fraction: 0.6,
            addresses: AddressDist::Uniform,
            request_units: (1, 1),
            aligned: false,
        }
    }
}

impl Workload {
    /// Samples a request size in units.
    pub(crate) fn request_size(&self, rng: &mut StdRng) -> usize {
        let (lo, hi) = self.request_units;
        let lo = lo.max(1);
        if hi > lo {
            rng.random_range(lo..=hi)
        } else {
            lo
        }
    }

    /// Samples an exponential interarrival gap in microseconds.
    pub(crate) fn interarrival_us(&self, rng: &mut StdRng) -> u64 {
        if self.arrivals_per_sec <= 0.0 {
            return u64::MAX / 4; // effectively no foreground traffic
        }
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        let mean_us = 1e6 / self.arrivals_per_sec;
        (-u.ln() * mean_us).ceil() as u64
    }
}

/// What the failed disk's contents are rebuilt into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebuildTarget {
    /// No writes: reconstruct-and-discard (measures the read side only).
    ReadOnly,
    /// A dedicated hot spare (modeled as one extra disk).
    DedicatedSpare,
    /// Distributed sparing: per-stripe spare units inside the array
    /// (`targets[stripe]` = destination `(disk, offset)`, `None` if the
    /// stripe needs no rebuild write).
    Distributed(Vec<Option<(u32, u32)>>),
}

/// How reconstruction work is scheduled — the two algorithms of
/// Holland, Gibson & Siewiorek's on-line failure recovery study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Stripe-oriented: up to `parallelism` stripes in flight, each
    /// reading all its surviving units at once.
    StripeOriented {
        /// Maximum stripes being rebuilt concurrently.
        parallelism: usize,
    },
    /// Disk-oriented: every surviving disk streams its needed units
    /// sequentially, keeping at most `depth` rebuild reads queued per
    /// disk; stripes complete as their last unit arrives.
    DiskOriented {
        /// Rebuild reads kept in flight per disk.
        depth: usize,
    },
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy::StripeOriented { parallelism: 4 }
    }
}

/// When the simulation stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// After the given simulated duration (microseconds).
    Duration(u64),
    /// When reconstruction of the failed disk completes.
    RebuildComplete,
}

/// Full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed (simulations are deterministic per seed).
    pub seed: u64,
    /// Disk model.
    pub disk: DiskModel,
    /// Foreground workload.
    pub workload: Workload,
    /// Failed disk, if simulating degraded mode / reconstruction.
    pub failed_disk: Option<usize>,
    /// Rebuild the failed disk (requires `failed_disk`).
    pub rebuild: Option<RebuildTarget>,
    /// Reconstruction scheduling policy.
    pub rebuild_policy: RebuildPolicy,
    /// Per-disk IO scheduling discipline.
    pub scheduling: Scheduling,
    /// Stop condition.
    pub stop: StopCondition,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            disk: DiskModel::default(),
            workload: Workload::default(),
            failed_disk: None,
            rebuild: None,
            rebuild_policy: RebuildPolicy::default(),
            scheduling: Scheduling::Fifo,
            stop: StopCondition::Duration(10_000_000), // 10 simulated seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn service_times_within_model_bounds() {
        let m = DiskModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let t = m.service_time_at(&mut rng, 0, 0, 1, 1);
            assert!((7_000..=17_000).contains(&t), "t={t}");
        }
    }

    #[test]
    fn uniform_addresses_cover_space() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 20];
        for _ in 0..2000 {
            seen[AddressDist::Uniform.sample(20, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hot_cold_skews_toward_hot_region() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = AddressDist::HotCold { hot_access: 0.8, hot_space: 0.2 };
        let n = 1000;
        let hot_hits = (0..10_000).filter(|_| d.sample(n, &mut rng) < 200).count();
        assert!((7_500..8_500).contains(&hot_hits), "hot hits {hot_hits}");
    }

    #[test]
    fn interarrival_mean_roughly_matches_rate() {
        let w = Workload { arrivals_per_sec: 100.0, ..Workload::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| w.interarrival_us(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((9_000.0..11_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zero_rate_means_no_traffic() {
        let w = Workload { arrivals_per_sec: 0.0, ..Workload::default() };
        let mut rng = StdRng::seed_from_u64(5);
        assert!(w.interarrival_us(&mut rng) > 1u64 << 60);
    }
}
