//! Hopcroft–Karp maximum bipartite matching.
//!
//! Used by the Theorem 9 construction: after removing `i` disks from a
//! ring-based layout, the `i(i−1)` orphaned parity units must be matched
//! to distinct remaining disks, each usable at most once.

use std::collections::VecDeque;

/// Maximum matching on a bipartite graph given as adjacency lists from
/// the left side (`adj[l]` = right vertices reachable from left vertex
/// `l`). Returns `match_left[l] = Some(r)` assignments.
pub fn hopcroft_karp(n_left: usize, n_right: usize, adj: &[Vec<usize>]) -> Vec<Option<usize>> {
    assert_eq!(adj.len(), n_left);
    for nbrs in adj {
        for &r in nbrs {
            assert!(r < n_right, "right vertex out of range");
        }
    }
    const NIL: usize = usize::MAX;
    let mut match_l = vec![NIL; n_left];
    let mut match_r = vec![NIL; n_right];
    let mut dist = vec![0u32; n_left];

    let bfs = |match_l: &[usize], match_r: &[usize], dist: &mut [u32]| -> bool {
        let mut q = VecDeque::new();
        for l in 0..n_left {
            if match_l[l] == NIL {
                dist[l] = 0;
                q.push_back(l);
            } else {
                dist[l] = u32::MAX;
            }
        }
        let mut found = false;
        while let Some(l) = q.pop_front() {
            for &r in &adj[l] {
                let ml = match_r[r];
                if ml == NIL {
                    found = true;
                } else if dist[ml] == u32::MAX {
                    dist[ml] = dist[l] + 1;
                    q.push_back(ml);
                }
            }
        }
        found
    };

    fn dfs(
        l: usize,
        adj: &[Vec<usize>],
        match_l: &mut [usize],
        match_r: &mut [usize],
        dist: &mut [u32],
    ) -> bool {
        const NIL: usize = usize::MAX;
        for i in 0..adj[l].len() {
            let r = adj[l][i];
            let ml = match_r[r];
            if ml == NIL || (dist[ml] == dist[l] + 1 && dfs(ml, adj, match_l, match_r, dist)) {
                match_l[l] = r;
                match_r[r] = l;
                return true;
            }
        }
        dist[l] = u32::MAX;
        false
    }

    while bfs(&match_l, &match_r, &mut dist) {
        for l in 0..n_left {
            if match_l[l] == NIL {
                dfs(l, adj, &mut match_l, &mut match_r, &mut dist);
            }
        }
    }
    match_l.iter().map(|&r| (r != NIL).then_some(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the matching `hopcroft_karp` finds.
    fn max_matching_size(n_left: usize, n_right: usize, adj: &[Vec<usize>]) -> usize {
        hopcroft_karp(n_left, n_right, adj).iter().flatten().count()
    }

    fn check_valid(adj: &[Vec<usize>], m: &[Option<usize>]) {
        let mut used = std::collections::HashSet::new();
        for (l, r) in m.iter().enumerate() {
            if let Some(r) = r {
                assert!(adj[l].contains(r), "matched along a non-edge");
                assert!(used.insert(*r), "right vertex matched twice");
            }
        }
    }

    #[test]
    fn perfect_matching_on_complete_graph() {
        let adj: Vec<Vec<usize>> = (0..4).map(|_| (0..4).collect()).collect();
        let m = hopcroft_karp(4, 4, &adj);
        check_valid(&adj, &m);
        assert_eq!(m.iter().flatten().count(), 4);
    }

    #[test]
    fn needs_augmenting_paths() {
        // Greedy left-to-right would match 0-0 and strand vertex 1.
        let adj = vec![vec![0, 1], vec![0]];
        let m = hopcroft_karp(2, 2, &adj);
        check_valid(&adj, &m);
        assert_eq!(m.iter().flatten().count(), 2);
        assert_eq!(m[1], Some(0));
    }

    #[test]
    fn hall_violation_limits_matching() {
        // Three left vertices all adjacent only to right vertex 0.
        let adj = vec![vec![0], vec![0], vec![0]];
        assert_eq!(max_matching_size(3, 1, &adj), 1);
    }

    #[test]
    fn empty_graph() {
        let adj: Vec<Vec<usize>> = vec![vec![], vec![]];
        assert_eq!(max_matching_size(2, 3, &adj), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn brute(nl: usize, nr: usize, adj: &[Vec<usize>]) -> usize {
            // Try all subsets of right assignments via DFS with memo on
            // small sizes.
            fn go(l: usize, adj: &[Vec<usize>], used: &mut Vec<bool>) -> usize {
                if l == adj.len() {
                    return 0;
                }
                let mut best = go(l + 1, adj, used); // skip l
                for &r in &adj[l] {
                    if !used[r] {
                        used[r] = true;
                        best = best.max(1 + go(l + 1, adj, used));
                        used[r] = false;
                    }
                }
                best
            }
            let _ = nl;
            go(0, adj, &mut vec![false; nr])
        }

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let nl = rng.random_range(1..7);
            let nr = rng.random_range(1..7);
            let adj: Vec<Vec<usize>> =
                (0..nl).map(|_| (0..nr).filter(|_| rng.random_bool(0.4)).collect()).collect();
            let fast = max_matching_size(nl, nr, &adj);
            let slow = brute(nl, nr, &adj);
            assert_eq!(fast, slow, "adj={adj:?}");
            check_valid(&adj, &hopcroft_karp(nl, nr, &adj));
        }
    }
}
