//! Differential implementations of the batch graph computations of Appendix C:
//! single-source reachability, breadth-first distances, single-source shortest paths,
//! and undirected connectivity.
//!
//! Each function is a dataflow fragment: it takes collections that already live in a
//! dataflow under construction and returns the result collection. Because the inputs are
//! ordinary differential collections, every algorithm is automatically incremental: edge
//! and root changes flow through as updates.

use kpg_core::prelude::*;

use crate::Edge;

/// Nodes reachable from each root: produces `(node, root)` pairs.
pub fn reachability(edges: &Collection<Edge>, roots: &Collection<u32>) -> Collection<(u32, u32)> {
    let seeds = roots.map(|r| (r, r));
    seeds.iterate(|reach| {
        let edges = edges.enter();
        let seeds = seeds.enter();
        reach
            .join_map(&edges, |_node, root, next| (*next, *root))
            .concat(&seeds)
            .distinct()
    })
}

/// Breadth-first distances from each root: produces `(node, (root, distance))`, keeping
/// the minimum distance per `(node, root)`.
pub fn bfs_distances(
    edges: &Collection<Edge>,
    roots: &Collection<u32>,
) -> Collection<((u32, u32), u32)> {
    let seeds = roots.map(|r| ((r, r), 0u32));
    seeds.iterate(|dists| {
        let edges = edges.enter();
        let seeds = seeds.enter();
        // dists are keyed by (node, root); re-key by node to follow edges.
        let proposals = dists
            .map(|((node, root), dist)| (node, (root, dist)))
            .join_map(&edges, |_node, (root, dist), next| {
                ((*next, *root), dist + 1)
            });
        proposals.concat(&seeds).min_by_key()
    })
}

/// Single-source shortest paths over non-negatively weighted edges `(src, (dst, weight))`:
/// produces `(node, distance)` for every node reachable from `root`.
pub fn sssp(
    edges: &Collection<(u32, (u32, u32))>,
    roots: &Collection<u32>,
) -> Collection<(u32, u32)> {
    let seeds = roots.map(|r| (r, 0u32));
    seeds.iterate(|dists| {
        let edges = edges.enter();
        let seeds = seeds.enter();
        let proposals =
            dists.join_map(&edges, |_node, dist, (next, weight)| (*next, dist + weight));
        proposals.concat(&seeds).min_by_key()
    })
}

/// Undirected connected components by minimum-label propagation: produces
/// `(node, component_label)` where the label is the least node id in the component.
pub fn connected_components(edges: &Collection<Edge>) -> Collection<(u32, u32)> {
    // Symmetrize and collect the node set.
    let symmetric = edges.flat_map(|(a, b)| [(a, b), (b, a)]);
    let nodes = symmetric.map(|(a, _)| a).distinct().map(|n| (n, n));
    nodes.iterate(|labels| {
        let symmetric = symmetric.enter();
        let nodes = nodes.enter();
        let proposals = labels.join_map(&symmetric, |_node, label, next| (*next, *label));
        proposals.concat(&nodes).min_by_key()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use kpg_dataflow::Time;
    use std::collections::BTreeMap;

    fn accumulate<D: Ord + Clone>(captured: &[(D, Time, isize)]) -> BTreeMap<D, isize> {
        let mut result = BTreeMap::new();
        for (d, _, r) in captured {
            *result.entry(d.clone()).or_insert(0) += *r;
        }
        result.retain(|_, r| *r != 0);
        result
    }

    #[test]
    fn reachability_on_a_chain() {
        let out = execute(Config::new(1), |worker| {
            let (mut edges_in, mut roots_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edges) = new_collection::<Edge, isize>(builder);
                let (roots_in, roots) = new_collection::<u32, isize>(builder);
                let reach = reachability(&edges, &roots);
                (edges_in, roots_in, reach.probe(), reach.capture())
            });
            for e in generate::chain(5) {
                edges_in.insert(e);
            }
            roots_in.insert(1);
            edges_in.advance_to(1);
            roots_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        let reach = accumulate(&out[0]);
        // From node 1 in the chain 0->1->2->3->4 we reach 1, 2, 3, 4.
        let expected: Vec<(u32, u32)> = vec![(1, 1), (2, 1), (3, 1), (4, 1)];
        assert_eq!(reach.keys().copied().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn bfs_distances_on_a_chain() {
        let out = execute(Config::new(1), |worker| {
            let (mut edges_in, mut roots_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edges) = new_collection::<Edge, isize>(builder);
                let (roots_in, roots) = new_collection::<u32, isize>(builder);
                let dists = bfs_distances(&edges, &roots);
                (edges_in, roots_in, dists.probe(), dists.capture())
            });
            for e in generate::chain(4) {
                edges_in.insert(e);
            }
            roots_in.insert(0);
            edges_in.advance_to(1);
            roots_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        let dists = accumulate(&out[0]);
        assert_eq!(dists.get(&((0, 0), 0)), Some(&1));
        assert_eq!(dists.get(&((3, 0), 3)), Some(&1));
        assert_eq!(dists.len(), 4);
    }

    #[test]
    fn sssp_prefers_cheaper_paths() {
        let out = execute(Config::new(1), |worker| {
            let (mut edges_in, mut roots_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edges) = new_collection::<(u32, (u32, u32)), isize>(builder);
                let (roots_in, roots) = new_collection::<u32, isize>(builder);
                let dists = sssp(&edges, &roots);
                (edges_in, roots_in, dists.probe(), dists.capture())
            });
            // 0 -> 1 (cost 10), 0 -> 2 (cost 1), 2 -> 1 (cost 2): best 0->1 costs 3.
            edges_in.insert((0, (1, 10)));
            edges_in.insert((0, (2, 1)));
            edges_in.insert((2, (1, 2)));
            roots_in.insert(0);
            edges_in.advance_to(1);
            roots_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        let dists = accumulate(&out[0]);
        assert_eq!(dists.get(&(1, 3)), Some(&1));
        assert_eq!(dists.get(&(2, 1)), Some(&1));
        assert_eq!(dists.get(&(0, 0)), Some(&1));
    }

    #[test]
    fn connected_components_matches_union_find() {
        let edges = generate::uniform(60, 80, 11);
        let expected = crate::baseline::union_find_components(&edges);
        let edges_for_dataflow = edges.clone();
        let out = execute(Config::new(1), move |worker| {
            let edges = edges_for_dataflow.clone();
            let (mut edges_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edge_coll) = new_collection::<Edge, isize>(builder);
                let components = connected_components(&edge_coll);
                (edges_in, components.probe(), components.capture())
            });
            for e in edges {
                edges_in.insert(e);
            }
            edges_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        let labels = accumulate(&out[0]);
        // Two nodes share a differential label iff they share a union-find component.
        let mut differential: BTreeMap<u32, u32> = BTreeMap::new();
        for ((node, label), _) in labels.iter() {
            differential.insert(*node, *label);
        }
        for (a, b) in edges.iter() {
            assert_eq!(
                differential[a] == differential[b],
                expected[a] == expected[b],
                "edge ({a}, {b}) must connect nodes consistently with union-find"
            );
            // Directly connected nodes are always in the same component.
            assert_eq!(differential[a], differential[b]);
        }
        let differential_components: std::collections::BTreeSet<u32> =
            differential.values().copied().collect();
        let union_find_components: std::collections::BTreeSet<u32> =
            expected.values().copied().collect();
        assert_eq!(differential_components.len(), union_find_components.len());
    }

    #[test]
    fn incremental_edge_insertion_extends_reachability() {
        let out = execute(Config::new(1), |worker| {
            let (mut edges_in, mut roots_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edges) = new_collection::<Edge, isize>(builder);
                let (roots_in, roots) = new_collection::<u32, isize>(builder);
                let reach = reachability(&edges, &roots);
                (edges_in, roots_in, reach.probe(), reach.capture())
            });
            edges_in.insert((1, 2));
            roots_in.insert(1);
            edges_in.advance_to(1);
            roots_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));

            edges_in.insert((2, 3));
            edges_in.advance_to(2);
            roots_in.advance_to(2);
            worker.step_while(|| probe.less_than(&Time::from_epoch(2)));

            edges_in.remove((1, 2));
            edges_in.advance_to(3);
            roots_in.advance_to(3);
            worker.step_while(|| probe.less_than(&Time::from_epoch(3)));
            let r = cap.borrow().clone();
            r
        });
        use kpg_timestamp::PartialOrder;
        let upto = |e: u64| {
            let mut map = BTreeMap::new();
            for (d, t, r) in &out[0] {
                if t.less_equal(&Time::from_epoch(e)) {
                    *map.entry(*d).or_insert(0) += r;
                }
            }
            map.retain(|_, r| *r != 0);
            map
        };
        assert_eq!(upto(0).len(), 2); // 1, 2 reachable
        assert_eq!(upto(1).len(), 3); // plus 3
        assert_eq!(upto(2).len(), 1); // only the root remains after removing 1->2
    }
}
