//! Result checkers written against the benchmark's own edge lists.
//!
//! Nothing here calls into the program under test: PageRank is
//! recomputed by power iteration over the arcs the benchmark generated,
//! and traversal and component results are accepted only with a
//! certificate that the arcs themselves can verify. Vertices are the
//! dense ids `0..n`; `arcs` are directed `(src, dst)` pairs.

/// Value the engines use for an unreached vertex.
pub const UNREACHED: u32 = u32::MAX;

/// Largest relative error accepted between a PageRank value and the
/// power-iteration oracle.
pub const PAGERANK_TOLERANCE: f64 = 1e-9;

/// PageRank by power iteration, with the engines' semantics: every
/// vertex starts at `1/n`, then `rounds` times takes
/// `(1 - damping)/n + damping · Σ rank(u)/outdeg(u)` over its in-arcs.
pub fn pagerank(n: usize, arcs: &[(u32, u32)], rounds: usize, damping: f64) -> Vec<f64> {
    let mut out_degree = vec![0u32; n];
    for &(u, _) in arcs {
        out_degree[u as usize] += 1;
    }
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut sum = vec![0.0f64; n];
    for _ in 0..rounds {
        sum.iter_mut().for_each(|s| *s = 0.0);
        for &(u, v) in arcs {
            sum[v as usize] += rank[u as usize] / f64::from(out_degree[u as usize]);
        }
        for (r, s) in rank.iter_mut().zip(&sum) {
            *r = (1.0 - damping) / nf + damping * s;
        }
    }
    rank
}

/// Every value within [`PAGERANK_TOLERANCE`] of `expected`, relatively.
pub fn check_pagerank(expected: &[f64], got: &[f64]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "pagerank: {} values, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for (v, (&e, &g)) in expected.iter().zip(got).enumerate() {
        let err = (g - e).abs() / e.abs().max(f64::MIN_POSITIVE);
        if err.is_nan() || err > PAGERANK_TOLERANCE {
            return Err(format!(
                "pagerank: vertex {v} has {g}, oracle {e} (relative error {err:e})"
            ));
        }
    }
    Ok(())
}

/// Hop-distance certificate: the source is at 0, no arc shortens a
/// distance by more than one, and every other reached vertex has an
/// in-neighbour exactly one closer. Together these make `dist` the BFS
/// levels from `source`, with [`UNREACHED`] exactly off its reach.
pub fn check_distances(
    n: usize,
    arcs: &[(u32, u32)],
    source: u32,
    dist: &[u32],
) -> Result<(), String> {
    if dist.len() != n {
        return Err(format!("distances: {} values, expected {n}", dist.len()));
    }
    if dist[source as usize] != 0 {
        return Err(format!(
            "distances: source {source} is at {}",
            dist[source as usize]
        ));
    }
    let mut has_parent = vec![false; n];
    for &(u, v) in arcs {
        let (du, dv) = (dist[u as usize], dist[v as usize]);
        if du == UNREACHED {
            continue;
        }
        if dv == UNREACHED || dv > du + 1 {
            return Err(format!(
                "distances: arc {u}->{v} shortens {dv} to {}",
                du + 1
            ));
        }
        if dv == du + 1 {
            has_parent[v as usize] = true;
        }
    }
    for v in 0..n {
        if v != source as usize && dist[v] != UNREACHED && !has_parent[v] {
            return Err(format!(
                "distances: vertex {v} at {} has no in-neighbour one closer",
                dist[v]
            ));
        }
    }
    Ok(())
}

/// Number of weakly connected components of `0..n` under `arcs`.
pub fn count_components(n: usize, arcs: &[(u32, u32)]) -> usize {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    let mut count = n;
    for &(u, v) in arcs {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
            count -= 1;
        }
    }
    count
}

/// Component-label certificate: labels agree across every arc, each
/// label is the smallest id carrying it, and there are exactly
/// `components` distinct labels (so no two components share one).
pub fn check_components(
    n: usize,
    arcs: &[(u32, u32)],
    components: usize,
    label: &[u32],
) -> Result<(), String> {
    if label.len() != n {
        return Err(format!("components: {} labels, expected {n}", label.len()));
    }
    for &(u, v) in arcs {
        if label[u as usize] != label[v as usize] {
            return Err(format!(
                "components: arc {u}->{v} joins labels {} and {}",
                label[u as usize], label[v as usize]
            ));
        }
    }
    let mut distinct = 0usize;
    for (v, &l) in label.iter().enumerate() {
        if l as usize >= n || label[l as usize] != l || (l as usize) > v {
            return Err(format!(
                "components: vertex {v} carries label {l}, not its smallest id"
            ));
        }
        distinct += usize::from(l as usize == v);
    }
    if distinct != components {
        return Err(format!(
            "components: {distinct} labels for {components} components"
        ));
    }
    Ok(())
}

/// Rewrite each label to the smallest id that carries it. Used for runs
/// on a relabelled graph, whose labels are minima in the other id space:
/// the partition must still match, so the canonical form must pass
/// [`check_components`].
pub fn canonical_labels(label: &[u32]) -> Vec<u32> {
    let mut smallest = std::collections::HashMap::new();
    for (v, &l) in label.iter().enumerate() {
        smallest.entry(l).or_insert(v as u32);
    }
    label.iter().map(|l| smallest[l]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components: a 6-cycle with a chord {0..5}, and a path {6,7,8};
    /// vertex 9 is isolated. Arcs in both directions.
    fn graph() -> (usize, Vec<(u32, u32)>) {
        let undirected = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 4),
            (6, 7),
            (7, 8),
        ];
        let mut arcs = Vec::new();
        for (u, v) in undirected {
            arcs.push((u, v));
            arcs.push((v, u));
        }
        (10, arcs)
    }

    fn bfs(n: usize, arcs: &[(u32, u32)], source: u32) -> Vec<u32> {
        let mut dist = vec![UNREACHED; n];
        dist[source as usize] = 0;
        let mut frontier = vec![source];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &(a, b) in arcs {
                    if a == u && dist[b as usize] == UNREACHED {
                        dist[b as usize] = dist[u as usize] + 1;
                        next.push(b);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    #[test]
    fn distance_certificate_accepts_bfs_levels_and_rejects_any_corruption() {
        let (n, arcs) = graph();
        let dist = bfs(n, &arcs, 0);
        assert_eq!(check_distances(n, &arcs, 0, &dist), Ok(()));
        for v in 0..n {
            for bad in [
                dist[v].wrapping_add(1),
                dist[v].wrapping_sub(1),
                0,
                UNREACHED,
            ] {
                if bad == dist[v] {
                    continue;
                }
                let mut corrupt = dist.clone();
                corrupt[v] = bad;
                assert!(
                    check_distances(n, &arcs, 0, &corrupt).is_err(),
                    "vertex {v} = {bad}"
                );
            }
        }
    }

    #[test]
    fn label_certificate_accepts_min_labels_and_rejects_any_corruption() {
        let (n, arcs) = graph();
        let components = count_components(n, &arcs);
        assert_eq!(components, 3);
        let label = vec![0, 0, 0, 0, 0, 0, 6, 6, 6, 9];
        assert_eq!(check_components(n, &arcs, components, &label), Ok(()));
        for v in 0..n {
            for bad in [0, 1, 6, 7, 9] {
                if bad == label[v] {
                    continue;
                }
                let mut corrupt = label.clone();
                corrupt[v] = bad;
                assert!(
                    check_components(n, &arcs, components, &corrupt).is_err(),
                    "{v} = {bad}"
                );
            }
        }
        // Two components wrongly merged under one label.
        let merged = vec![0, 0, 0, 0, 0, 0, 6, 6, 6, 6];
        assert!(check_components(n, &arcs, components, &merged).is_err());
    }

    #[test]
    fn canonical_labels_map_each_class_to_its_smallest_member() {
        assert_eq!(canonical_labels(&[5, 5, 2, 5, 2]), vec![0, 0, 2, 0, 2]);
    }

    #[test]
    fn pagerank_oracle_matches_a_hand_computed_round_and_rejects_corruption() {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0: one round from 1/3 each.
        let arcs = [(0, 1), (0, 2), (1, 2), (2, 0)];
        let r = pagerank(3, &arcs, 1, 0.85);
        let base = 0.15 / 3.0;
        let third = 1.0 / 3.0;
        let expect = [
            base + 0.85 * third,
            base + 0.85 * third / 2.0,
            base + 0.85 * (third / 2.0 + third),
        ];
        for (a, b) in r.iter().zip(expect) {
            assert!((a - b).abs() < 1e-15);
        }
        let (n, arcs) = graph();
        let rank = pagerank(n, &arcs, 10, 0.85);
        assert_eq!(check_pagerank(&rank, &rank), Ok(()));
        for v in 0..n {
            let mut corrupt = rank.clone();
            corrupt[v] *= 1.0 + 1e-7;
            assert!(check_pagerank(&rank, &corrupt).is_err(), "vertex {v}");
            corrupt[v] = f64::NAN;
            assert!(check_pagerank(&rank, &corrupt).is_err(), "vertex {v} NaN");
        }
    }
}
