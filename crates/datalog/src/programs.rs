//! Transitive closure and same generation, bottom-up and top-down.

use kpg_core::prelude::*;

use crate::Edge;

/// Bottom-up transitive closure: all pairs `(x, y)` with a directed path from `x` to `y`.
///
/// `tc(x, y) :- edge(x, y).`
/// `tc(x, y) :- tc(x, z), edge(z, y).`
pub fn transitive_closure(edges: &Collection<Edge>) -> Collection<Edge> {
    edges.iterate(|tc| {
        let edges = edges.enter();
        // Key tc by its endpoint z, edges by their source z, and extend.
        tc.map(|(x, z)| (z, x))
            .join_map(&edges.clone(), |_z, x, y| (*x, *y))
            .concat(&edges)
            .distinct()
    })
}

/// Same generation: pairs `(x, y)` that sit at the same depth below a common ancestor.
///
/// `sg(x, y) :- parent(p, x), parent(p, y), x != y.`
/// `sg(x, y) :- parent(px, x), sg(px, py), parent(py, y).`
pub fn same_generation(parent: &Collection<Edge>) -> Collection<Edge> {
    // Base case: siblings.
    let siblings = parent
        .join_map(parent, |_p, x, y| (*x, *y))
        .filter(|(x, y)| x != y);
    siblings.iterate(|sg| {
        let parent = parent.enter();
        let siblings = siblings.enter();
        // sg(px, py), parent(px, x), parent(py, y) => sg(x, y)
        sg.join_map(&parent, |_px, py, x| (*py, *x))
            .join_map(&parent, |_py, x, y| (*x, *y))
            .concat(&siblings)
            .distinct()
    })
}

/// Top-down transitive closure from a set of interactively supplied sources:
/// `tc(x, ?)` for each `x` in `sources`. This is the "magic set" rewrite: the recursion is
/// seeded by the query arguments, so only facts reachable from a seed are derived.
/// Produces `(source, reached)` pairs.
pub fn tc_from(edges: &Collection<Edge>, sources: &Collection<u32>) -> Collection<Edge> {
    // Base case: one-step reachability from each seed; the recursion extends paths, so a
    // seed appears as reachable from itself exactly when it lies on a cycle.
    let base = sources
        .map(|x| (x, x))
        .join_map(edges, |seed, _, next| (*seed, *next));
    base.iterate(|reach| {
        let edges = edges.enter();
        let base = base.enter();
        reach
            .map(|(src, node)| (node, src))
            .join_map(&edges, |_node, src, next| (*src, *next))
            .concat(&base)
            .distinct()
    })
}

/// Top-down reverse transitive closure: `tc(?, x)` for each `x` in `targets`; produces
/// `(target, source)` pairs for every source that can reach the target.
pub fn tc_to(edges: &Collection<Edge>, targets: &Collection<u32>) -> Collection<Edge> {
    let reversed = edges.map(|(x, y)| (y, x));
    tc_from(&reversed, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpg_dataflow::Time;
    use std::collections::BTreeSet;

    fn run_static<F>(edges: Vec<Edge>, logic: F) -> BTreeSet<Edge>
    where
        F: Fn(&Collection<Edge>) -> Collection<Edge> + Send + Sync + 'static,
    {
        let out = execute(Config::new(1), move |worker| {
            let edges = edges.clone();
            let (mut input, probe, cap) = worker.dataflow(|builder| {
                let (input, collection) = new_collection::<Edge, isize>(builder);
                let result = logic(&collection);
                (input, result.probe(), result.capture())
            });
            for e in edges {
                input.insert(e);
            }
            input.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        out[0]
            .iter()
            .filter(|(_, _, diff)| *diff > 0)
            .map(|(pair, _, _)| *pair)
            .collect()
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let tc = run_static(vec![(1, 2), (2, 3), (3, 4)], transitive_closure);
        let expected: BTreeSet<Edge> = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
            .into_iter()
            .collect();
        assert_eq!(tc, expected);
    }

    #[test]
    fn same_generation_of_a_binary_tree() {
        // parent edges: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}
        let parents = vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
        let sg = run_static(parents, same_generation);
        // 1 and 2 are the same generation; 3,4,5,6 are all mutually same generation.
        assert!(sg.contains(&(1, 2)));
        assert!(sg.contains(&(3, 5)));
        assert!(sg.contains(&(4, 6)));
        assert!(!sg.contains(&(1, 3)));
        assert!(!sg.iter().any(|(x, y)| x == y));
    }

    #[test]
    fn seeded_tc_matches_full_tc_restricted_to_seed() {
        let edges = vec![(1, 2), (2, 3), (5, 6), (3, 1)];
        let full = run_static(edges.clone(), transitive_closure);
        let out = execute(Config::new(1), move |worker| {
            let edges = edges.clone();
            let (mut edges_in, mut seeds_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edge_coll) = new_collection::<Edge, isize>(builder);
                let (seeds_in, seeds) = new_collection::<u32, isize>(builder);
                let result = tc_from(&edge_coll, &seeds);
                (edges_in, seeds_in, result.probe(), result.capture())
            });
            for e in edges {
                edges_in.insert(e);
            }
            seeds_in.insert(1);
            edges_in.advance_to(1);
            seeds_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        let seeded: BTreeSet<Edge> = out[0]
            .iter()
            .filter(|(_, _, d)| *d > 0)
            .map(|(pair, _, _)| *pair)
            .collect();
        let expected: BTreeSet<Edge> = full.into_iter().filter(|(x, _)| *x == 1).collect();
        assert_eq!(seeded, expected);
    }

    #[test]
    fn reverse_tc_finds_ancestors() {
        let edges = vec![(1, 2), (2, 3), (4, 3)];
        let out = execute(Config::new(1), move |worker| {
            let edges = edges.clone();
            let (mut edges_in, mut targets_in, probe, cap) = worker.dataflow(|builder| {
                let (edges_in, edge_coll) = new_collection::<Edge, isize>(builder);
                let (targets_in, targets) = new_collection::<u32, isize>(builder);
                let result = tc_to(&edge_coll, &targets);
                (edges_in, targets_in, result.probe(), result.capture())
            });
            for e in edges {
                edges_in.insert(e);
            }
            targets_in.insert(3);
            edges_in.advance_to(1);
            targets_in.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let r = cap.borrow().clone();
            r
        });
        let sources: BTreeSet<u32> = out[0]
            .iter()
            .filter(|(_, _, d)| *d > 0)
            .map(|((_, src), _, _)| *src)
            .collect();
        assert_eq!(sources, [1, 2, 4].into_iter().collect());
    }
}
