//! Seeded synthetic graph generators.
//!
//! The paper evaluates on LiveJournal (4.8M nodes / 68M edges), Orkut (3M / 117M) and
//! Twitter (42M / 1.4B). Those datasets cannot be shipped here, so the harnesses generate
//! random graphs with the same node/edge *ratios* at reduced scale: a uniform random
//! graph for the LiveJournal/Orkut stand-ins and a skewed (preferential-attachment-like)
//! graph for the Twitter stand-in, whose heavy-tailed degree distribution is the property
//! that matters for the workloads.

use kpg_timestamp::rng::SmallRng;

use crate::Edge;

/// A uniform random directed graph with `nodes` nodes and `edges` edges.
pub fn uniform(nodes: u32, edges: usize, seed: u64) -> Vec<Edge> {
    assert!(nodes > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..edges)
        .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
        .collect()
}

/// A skewed random graph: destinations are drawn with a preferential-attachment-like
/// bias so that a few nodes attract a large fraction of the edges (a stand-in for the
/// Twitter follower graph's heavy tail).
pub fn skewed(nodes: u32, edges: usize, seed: u64) -> Vec<Edge> {
    assert!(nodes > 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut result = Vec::with_capacity(edges);
    for _ in 0..edges {
        let src = rng.gen_range(0..nodes);
        // Square a uniform draw to bias toward low node identifiers.
        let draw: f64 = rng.gen_f64();
        let dst = ((draw * draw) * nodes as f64) as u32;
        result.push((src, dst.min(nodes - 1)));
    }
    result
}

/// A chain of `nodes` nodes: `0 -> 1 -> 2 -> ...`; useful for tests with known answers.
pub fn chain(nodes: u32) -> Vec<Edge> {
    (1..nodes).map(|n| (n - 1, n)).collect()
}

/// A complete binary tree of the given height, edges pointing from parent to child.
/// This mirrors the "tree" inputs of the Datalog benchmarks (Appendix D).
pub fn tree(height: u32) -> Vec<Edge> {
    let mut edges = Vec::new();
    let nodes = (1u32 << (height + 1)) - 1;
    for node in 1..nodes {
        edges.push(((node - 1) / 2, node));
    }
    edges
}

/// An `n × n` grid with edges rightward and downward, matching the Datalog "grid" inputs.
pub fn grid(n: u32) -> Vec<Edge> {
    let mut edges = Vec::new();
    let id = |x: u32, y: u32| y * n + x;
    for y in 0..n {
        for x in 0..n {
            if x + 1 < n {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < n {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    edges
}

/// A G(n, m) random graph (the Datalog benchmarks' "gnp" inputs): `m` uniform edges.
pub fn gnp(nodes: u32, edges: usize, seed: u64) -> Vec<Edge> {
    uniform(nodes, edges, seed)
}

/// Update stream for an evolving graph: an initial edge set plus a sequence of
/// (additions, deletions) rounds, all seeded and deterministic.
pub struct EvolvingGraph {
    /// The initial edge set.
    pub initial: Vec<Edge>,
    /// Per-round changes: edges to add and edges to remove.
    pub rounds: Vec<(Vec<Edge>, Vec<Edge>)>,
}

/// Generates an evolving graph: `initial_edges` to start, then `rounds` rounds of
/// `changes_per_round` additions and the same number of deletions (drawn from previously
/// added edges), as the interactive experiments of §6.2 require.
pub fn evolving(
    nodes: u32,
    initial_edges: usize,
    rounds: usize,
    changes_per_round: usize,
    seed: u64,
) -> EvolvingGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let initial = uniform(nodes, initial_edges, seed.wrapping_add(1));
    let mut live = initial.clone();
    let mut round_changes = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let additions: Vec<Edge> = (0..changes_per_round)
            .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
            .collect();
        let mut deletions = Vec::with_capacity(changes_per_round);
        for _ in 0..changes_per_round {
            if live.is_empty() {
                break;
            }
            let index = rng.gen_range(0..live.len());
            deletions.push(live.swap_remove(index));
        }
        live.extend(additions.iter().copied());
        round_changes.push((additions, deletions));
    }
    EvolvingGraph {
        initial,
        rounds: round_changes,
    }
}

/// A synthetic program graph for the Graspan-style analyses of §6.4 (substitution S4 in
/// the README's "Substitutions and experiment index").
///
/// Variables `0..variables` are connected by `assignments` assignment edges biased toward
/// nearby variables (mimicking local dataflow), `dereferences` dereference edges, and
/// `null_sources` variables are seeded as null-assignment sources.
pub struct ProgramGraph {
    /// Assignment edges `a := b` as `(a, b)`.
    pub assignments: Vec<Edge>,
    /// Dereference edges `a = *b` as `(a, b)`.
    pub dereferences: Vec<Edge>,
    /// Allocation sites: `(variable, abstract_object)`.
    pub allocations: Vec<Edge>,
    /// Variables assigned `null` somewhere in the program.
    pub null_sources: Vec<u32>,
}

/// Generates a synthetic program graph with the given number of variables.
///
/// The three paper inputs (httpd, psql, linux) are modelled by calling this with
/// increasing sizes; see the `graspan` bench harness for the exact parameters.
pub fn program_graph(variables: u32, seed: u64) -> ProgramGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let assignments = (0..variables as usize * 3)
        .map(|_| {
            let a = rng.gen_range(0..variables);
            // Bias toward nearby variables: local dataflow dominates real programs.
            let offset = rng.gen_range(0u32..64).min(variables - 1);
            let b = (a + offset) % variables;
            (a, b)
        })
        .filter(|(a, b)| a != b)
        .collect();
    let dereferences = (0..variables as usize / 2)
        .map(|_| (rng.gen_range(0..variables), rng.gen_range(0..variables)))
        .collect();
    let allocations = (0..variables as usize / 4)
        .map(|i| (rng.gen_range(0..variables), i as u32))
        .collect();
    let null_sources = (0..variables / 64)
        .map(|_| rng.gen_range(0..variables))
        .collect();
    ProgramGraph {
        assignments,
        dereferences,
        allocations,
        null_sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(100, 500, 7), uniform(100, 500, 7));
        assert_ne!(uniform(100, 500, 7), uniform(100, 500, 8));
        assert_eq!(skewed(100, 500, 7), skewed(100, 500, 7));
    }

    #[test]
    fn structured_graphs_have_expected_sizes() {
        assert_eq!(chain(5).len(), 4);
        assert_eq!(tree(3).len(), 14); // 15 nodes, 14 edges
        assert_eq!(grid(4).len(), 2 * 4 * 3); // 24 edges in a 4x4 grid
        assert_eq!(gnp(10, 30, 1).len(), 30);
    }

    #[test]
    fn skewed_graph_is_skewed() {
        let edges = skewed(1000, 20_000, 3);
        let low: usize = edges.iter().filter(|(_, d)| *d < 100).count();
        // Far more than 10% of destinations fall in the lowest 10% of identifiers.
        assert!(low > edges.len() / 5, "low-id destinations: {low}");
    }

    #[test]
    fn evolving_graph_rounds_are_well_formed() {
        let evolving = evolving(100, 200, 5, 10, 42);
        assert_eq!(evolving.initial.len(), 200);
        assert_eq!(evolving.rounds.len(), 5);
        for (adds, dels) in &evolving.rounds {
            assert_eq!(adds.len(), 10);
            assert!(dels.len() <= 10);
        }
    }

    #[test]
    fn program_graph_is_deterministic_and_sized() {
        let a = program_graph(512, 9);
        let b = program_graph(512, 9);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.allocations.len(), 128);
        assert!(!a.null_sources.is_empty());
    }
}
