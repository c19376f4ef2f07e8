//! Dinic's maximum-flow algorithm on integer capacities.
//!
//! This is the workhorse behind the paper's Section 4 parity-assignment
//! method. Dinic runs in `O(V²E)` generally and `O(E·√V)` on the unit-
//! capacity bipartite graphs that parity assignment produces — far better
//! than the generic Ford–Fulkerson the paper sketches, with identical
//! integral-flow guarantees.

use std::collections::VecDeque;

/// Identifier of an edge returned by [`FlowNetwork::add_edge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Clone, Debug)]
struct Edge {
    to: usize,
    cap: i64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A flow network with integer capacities.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    graph: Vec<Vec<Edge>>,
    /// `(node, slot)` for each public EdgeId.
    edges: Vec<(usize, usize)>,
    /// Original capacity per public edge (for flow reporting).
    caps: Vec<i64>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes (0-based).
    pub fn new(n: usize) -> Self {
        FlowNetwork { graph: vec![Vec::new(); n], edges: Vec::new(), caps: Vec::new() }
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.graph.len()
    }

    /// Adds a directed edge `from → to` with the given capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> EdgeId {
        assert!(from < self.len() && to < self.len(), "edge endpoint out of range");
        assert!(cap >= 0, "capacity must be nonnegative");
        let a = self.graph[from].len();
        let b = self.graph[to].len() + usize::from(from == to);
        self.graph[from].push(Edge { to, cap, rev: b });
        self.graph[to].push(Edge { to: from, cap: 0, rev: a });
        self.edges.push((from, a));
        self.caps.push(cap);
        EdgeId(self.edges.len() - 1)
    }

    /// Flow currently routed through a public edge.
    pub(crate) fn edge_flow(&self, id: EdgeId) -> i64 {
        let (node, slot) = self.edges[id.0];
        self.caps[id.0] - self.graph[node][slot].cap
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1i32; self.len()];
        let mut q = VecDeque::new();
        level[s] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for e in &self.graph[u] {
                if e.cap > 0 && level[e.to] < 0 {
                    level[e.to] = level[u] + 1;
                    q.push_back(e.to);
                }
            }
        }
        (level[t] >= 0).then_some(level)
    }

    fn dfs_augment(&mut self, u: usize, t: usize, f: i64, level: &[i32], it: &mut [usize]) -> i64 {
        if u == t {
            return f;
        }
        while it[u] < self.graph[u].len() {
            let (to, cap, rev) = {
                let e = &self.graph[u][it[u]];
                (e.to, e.cap, e.rev)
            };
            if cap > 0 && level[to] == level[u] + 1 {
                let d = self.dfs_augment(to, t, f.min(cap), level, it);
                if d > 0 {
                    self.graph[u][it[u]].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            it[u] += 1;
        }
        0
    }

    /// Computes the maximum flow from `s` to `t`; residual state persists,
    /// so flows are cumulative across calls.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert!(s < self.len() && t < self.len());
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0i64;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut it = vec![0usize; self.len()];
            loop {
                let f = self.dfs_augment(s, t, i64::MAX, &level, &mut it);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5);
        assert_eq!(g.max_flow(0, 1), 5);
        assert_eq!(g.edge_flow(e), 5);
    }

    #[test]
    fn series_bottleneck() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 3);
        assert_eq!(g.max_flow(0, 2), 3);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.6: max flow 23.
        let mut g = FlowNetwork::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 1, 4);
        g.add_edge(1, 3, 12);
        g.add_edge(3, 2, 9);
        g.add_edge(2, 4, 14);
        g.add_edge(4, 3, 7);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 5, 4);
        assert_eq!(g.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, 5);
        assert_eq!(g.max_flow(0, 3), 0);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 2);
        g.add_edge(0, 1, 3);
        assert_eq!(g.max_flow(0, 1), 5);
    }

    #[test]
    fn self_loop_is_harmless() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 0, 7);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 2);
        assert_eq!(g.max_flow(0, 2), 2);
    }

    #[test]
    fn flow_conservation_random() {
        // Random graphs: check conservation at interior nodes.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let n = rng.random_range(4..12);
            let mut g = FlowNetwork::new(n);
            let mut ids = Vec::new();
            for _ in 0..rng.random_range(5..30) {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v {
                    ids.push((u, v, g.add_edge(u, v, rng.random_range(0..10))));
                }
            }
            let total = g.max_flow(0, n - 1);
            let mut net = vec![0i64; n];
            for &(u, v, id) in &ids {
                let f = g.edge_flow(id);
                assert!(f >= 0);
                net[u] -= f;
                net[v] += f;
            }
            assert_eq!(net[0], -total);
            assert_eq!(net[n - 1], total);
            for x in net.iter().take(n - 1).skip(1) {
                assert_eq!(*x, 0, "conservation violated");
            }
        }
    }

    #[test]
    fn bipartite_unit_matching_size() {
        // 3x3 complete bipartite with unit capacities: flow = 3.
        let mut g = FlowNetwork::new(8);
        let (s, t) = (6, 7);
        for l in 0..3 {
            g.add_edge(s, l, 1);
            g.add_edge(3 + l, t, 1);
            for r in 0..3 {
                g.add_edge(l, 3 + r, 1);
            }
        }
        assert_eq!(g.max_flow(s, t), 3);
    }
}
