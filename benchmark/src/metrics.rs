//! The metric tables: the single source of the names, units and
//! directions in `BENCHMARK.json`, the README tables, and the result
//! line of every run.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the store would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Counts that must repeat exactly carry the smallest bound the
/// contract's arithmetic allows for, not a tolerance.
const EXACT: f64 = 0.001;

/// Set from the spreads measured on a shared 2-vCPU VM: ten runs
/// usually spread by 1–5 %, but a busy stretch of the host has pushed
/// one workload to 21 % (see the README's "Steadiness"). A spread
/// beyond the bound gets the benchmark refused, so the timed metrics
/// take nearly the most the contract allows; `setup_s` must have the
/// largest.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "calls/s", better: Higher, bound: 0.24 },
    EndToEnd { name: "read_mbps", unit: "MB/s", better: Higher, bound: 0.24 },
    EndToEnd { name: "write_mbps", unit: "MB/s", better: Higher, bound: 0.24 },
    EndToEnd { name: "read_p50_us", unit: "us", better: Lower, bound: 0.24 },
    EndToEnd { name: "write_p50_us", unit: "us", better: Lower, bound: 0.24 },
    EndToEnd { name: "rebuild_mbps", unit: "MB/s", better: Higher, bound: 0.24 },
    EndToEnd { name: "rebuild_read_fraction", unit: "ratio", better: Lower, bound: EXACT },
    EndToEnd { name: "stored_per_user_byte", unit: "ratio", better: Lower, bound: EXACT },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.15 },
];

/// A metric of one layer, taken from outside it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The module(s) of this repo the metric belongs to.
    pub layer: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer { name, unit, better, layer }
}

pub const PER_LAYER: [PerLayer; 50] = [
    layer("algebra", "gf256.xor_gbps_512", "GB/s", Higher),
    layer("algebra", "gf256.xor_gbps_4k", "GB/s", Higher),
    layer("algebra", "gf256.mul_add_gbps_4k", "GB/s", Higher),
    layer("algebra", "gf256.mul_add_gbps_64k", "GB/s", Higher),
    layer("algebra", "gf256.solve2_gbps_4k", "GB/s", Higher),
    layer("store.integrity", "integrity.xxh64_gbps_512", "GB/s", Higher),
    layer("store.integrity", "integrity.xxh64_gbps_4k", "GB/s", Higher),
    layer("store.integrity", "integrity.xxh64_gbps_64k", "GB/s", Higher),
    layer("store.scheme", "scheme.locate_ns", "ns", Lower),
    layer("store.scheme", "scheme.table_bytes", "bytes", Lower),
    layer("design+flow+core", "core.layout_build_ms", "ms", Lower),
    layer("design+flow+core", "core.pq_assign_ms", "ms", Lower),
    layer("store.store", "store.create_ms", "ms", Lower),
    layer("store.store", "store.prefill_s", "s", Lower),
    layer("store.backend", "backend.read_calls", "count", Lower),
    layer("store.backend", "backend.write_calls", "count", Lower),
    layer("store.backend", "backend.read_units", "count", Lower),
    layer("store.backend", "backend.write_units", "count", Lower),
    layer("store.backend", "backend.flushes", "count", Lower),
    layer("store.backend", "backend.units_per_call", "ratio", Higher),
    layer("store.backend", "backend.busy_s", "s", Lower),
    layer("store.backend", "backend.busy_share", "ratio", Lower),
    layer("store.backend", "backend.call_p50_us", "us", Lower),
    layer("store.backend", "backend.call_p99_us", "us", Lower),
    layer("store.store", "store.op_s", "s", Lower),
    layer("store.store", "store.self_s", "s", Lower),
    layer("store.store", "store.self_share", "ratio", Lower),
    layer("store.store", "store.calls_per_op", "ratio", Lower),
    layer("store.store", "store.read_amp", "ratio", Lower),
    layer("store.store", "store.write_amp", "ratio", Lower),
    layer("store.store", "store.lock_contention", "count", Lower),
    layer("store.store", "store.read_p99_us", "us", Lower),
    layer("store.store", "store.write_p99_us", "us", Lower),
    layer("store.cache", "cache.hit_ratio", "ratio", Higher),
    layer("store.cache", "cache.absorbed_ratio", "ratio", Higher),
    layer("store.cache", "cache.evictions", "count", Lower),
    layer("store.cache", "cache.flushed_units", "count", Lower),
    layer("store.cache", "cache.flush_s", "s", Lower),
    layer("store.engine", "engine.submitted", "count", Lower),
    layer("store.engine", "engine.completed", "count", Lower),
    layer("store.engine", "engine.coalesced", "count", Higher),
    layer("store.engine", "engine.queue_wait_p50_us", "us", Lower),
    layer("store.engine", "engine.queue_wait_p99_us", "us", Lower),
    layer("store.engine", "engine.ewma_service_us", "us", Lower),
    layer("store.engine", "engine.roundtrip_us", "us", Lower),
    layer("store.engine", "engine.on_over_off", "ratio", Higher),
    layer("store.rebuild", "rebuild.units_read", "count", Lower),
    layer("store.rebuild", "rebuild.read_imbalance", "ratio", Lower),
    layer("store.rebuild", "rebuild.cycle_p50_ms", "ms", Lower),
    layer("harness", "trace.overhead", "ratio", Higher),
];

/// Values gathered by a run, checked against one of the tables.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The values in table order with their units; an error if the run
    /// did not produce exactly the metrics the table names.
    pub fn in_order(
        &self,
        table: impl Iterator<Item = (&'static str, &'static str)>,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let mut out = Vec::new();
        for (name, unit) in table {
            let mut hits = self.0.iter().filter(|(n, _)| *n == name);
            match (hits.next(), hits.next()) {
                (Some(&(_, v)), None) if v.is_finite() => out.push((name, v, unit)),
                (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was set twice")),
            }
        }
        if out.len() != self.0.len() {
            return Err("a measured metric is not in the table".into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} is used twice");
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn values_must_cover_the_table_exactly() {
        let table = || [("a", "s"), ("b", "ms")].into_iter();
        let mut v = Values::default();
        v.set("b", 2.0);
        assert!(v.in_order(table()).is_err());
        v.set("a", 1.0);
        assert_eq!(v.in_order(table()).unwrap(), vec![("a", 1.0, "s"), ("b", 2.0, "ms")]);
        v.set("c", 3.0);
        assert!(v.in_order(table()).is_err());
    }
}
