//! Property-style tests for the flow substrate: max-flow/min-cut
//! consistency on random graphs, lower-bound feasibility, and matching
//! optimality. Uses seeded random sampling (the offline environment
//! has no `proptest`) with 64 cases per property.

use pdl_flow::{
    assign_parity_two_phase, hopcroft_karp, max_flow_with_lower_bounds, BoundedEdge, FlowNetwork,
    ParityInstance,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

fn random_graph(seed: u64, n: usize, m: usize) -> Vec<(usize, usize, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .filter_map(|_| {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            (u != v).then(|| (u, v, rng.random_range(0..12)))
        })
        .collect()
}

/// Exhaustive min-cut by enumerating all source-side subsets (small n).
fn brute_min_cut(n: usize, edges: &[(usize, usize, i64)], s: usize, t: usize) -> i64 {
    let mut best = i64::MAX;
    for mask in 0u32..(1 << n) {
        if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
            continue;
        }
        let cut: i64 = edges
            .iter()
            .filter(|&&(u, v, _)| mask & (1 << u) != 0 && mask & (1 << v) == 0)
            .map(|&(_, _, c)| c)
            .sum();
        best = best.min(cut);
    }
    best
}

/// Max-flow equals min-cut on random small graphs.
#[test]
fn maxflow_equals_brute_mincut() {
    let mut meta = StdRng::seed_from_u64(0x3a7f);
    for _ in 0..CASES {
        let seed: u64 = meta.random_range(0..u64::MAX);
        let n = meta.random_range(3usize..8);
        let m = meta.random_range(4usize..20);
        let edges = random_graph(seed, n, m);
        let mut g = FlowNetwork::new(n);
        for &(u, v, c) in &edges {
            g.add_edge(u, v, c);
        }
        let flow = g.max_flow(0, n - 1);
        let cut = brute_min_cut(n, &edges, 0, n - 1);
        assert_eq!(flow, cut);
    }
}

/// Lower-bounded flows respect all bounds and conservation.
#[test]
fn bounded_flow_valid() {
    let mut meta = StdRng::seed_from_u64(0xb0f1);
    for _ in 0..CASES {
        let seed: u64 = meta.random_range(0..u64::MAX);
        let n = meta.random_range(3usize..7);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.random_bool(0.5) {
                    let upper = rng.random_range(1..8);
                    let lower = rng.random_range(0..=upper.min(2));
                    edges.push(BoundedEdge { from: u, to: v, lower, upper });
                }
            }
        }
        if let Some(f) = max_flow_with_lower_bounds(n, &edges, 0, n - 1) {
            let mut net = vec![0i64; n];
            for (e, fl) in edges.iter().zip(&f.edge_flows) {
                assert!(*fl >= e.lower && *fl <= e.upper);
                net[e.from] -= fl;
                net[e.to] += fl;
            }
            for (i, x) in net.iter().enumerate() {
                if i == 0 {
                    assert_eq!(*x, -f.value);
                } else if i == n - 1 {
                    assert_eq!(*x, f.value);
                } else {
                    assert_eq!(*x, 0);
                }
            }
        }
    }
}

/// Hopcroft–Karp matchings are maximal: no augmenting edge remains
/// between two unmatched vertices.
#[test]
fn matching_is_maximal() {
    let mut meta = StdRng::seed_from_u64(0x33a7);
    for _ in 0..CASES {
        let seed: u64 = meta.random_range(0..u64::MAX);
        let nl = meta.random_range(1usize..8);
        let nr = meta.random_range(1usize..8);
        let mut rng = StdRng::seed_from_u64(seed);
        let adj: Vec<Vec<usize>> =
            (0..nl).map(|_| (0..nr).filter(|_| rng.random_bool(0.35)).collect()).collect();
        let m = hopcroft_karp(nl, nr, &adj);
        let mut right_used = vec![false; nr];
        for r in m.iter().flatten() {
            right_used[*r] = true;
        }
        for (l, ml) in m.iter().enumerate() {
            if ml.is_none() {
                for &r in &adj[l] {
                    assert!(right_used[r], "edge ({l},{r}) would extend the matching");
                }
            }
        }
    }
}

/// König-style sanity: matching size never exceeds either side.
#[test]
fn matching_size_bounds() {
    let mut meta = StdRng::seed_from_u64(0x51ce);
    for _ in 0..CASES {
        let seed: u64 = meta.random_range(0..u64::MAX);
        let nl = meta.random_range(1usize..9);
        let nr = meta.random_range(1usize..9);
        let mut rng = StdRng::seed_from_u64(seed);
        let adj: Vec<Vec<usize>> =
            (0..nl).map(|_| (0..nr).filter(|_| rng.random_bool(0.4)).collect()).collect();
        let sz = hopcroft_karp(nl, nr, &adj).iter().flatten().count();
        assert!(sz <= nl && sz <= nr);
        let edges: usize = adj.iter().map(Vec::len).sum();
        assert!(sz <= edges);
    }
}

/// The two-phase parity assignment balances random regular-ish
/// instances to floor/ceil.
#[test]
fn two_phase_random_instances() {
    let mut meta = StdRng::seed_from_u64(0x2fa2);
    for _ in 0..CASES {
        let seed: u64 = meta.random_range(0..u64::MAX);
        let v = meta.random_range(3usize..9);
        let b = meta.random_range(3usize..16);
        let mut rng = StdRng::seed_from_u64(seed);
        let stripes: Vec<Vec<usize>> = (0..b)
            .map(|_| {
                let k = rng.random_range(2..=v.min(4));
                let mut disks: Vec<usize> = (0..v).collect();
                for i in (1..disks.len()).rev() {
                    let j = rng.random_range(0..=i);
                    disks.swap(i, j);
                }
                disks.truncate(k);
                disks
            })
            .collect();
        let inst = ParityInstance { v, stripes };
        let slots = assign_parity_two_phase(&inst).expect("always solvable");
        let loads = inst.loads();
        let mut counts = vec![0usize; v];
        for (s, &slot) in inst.stripes.iter().zip(&slots) {
            counts[s[slot]] += 1;
        }
        for (d, &c) in counts.iter().enumerate() {
            assert!(c as f64 >= loads[d].floor() - 1e-9);
            assert!(c as f64 <= loads[d].ceil() + 1e-9);
        }
    }
}
