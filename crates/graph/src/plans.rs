//! Every graph workload the paper evaluates, *expressed as runtime plans*: [`Plan`]
//! values a [`Manager`](kpg_plan::Manager) installs from data — the shape a query server
//! receives over the wire — against arrangements of the edges that are already
//! maintained and shared. This is the library's only statement of these queries.
//!
//! * §6.2's interactive classes (Figure 5, Table 10): [`lookup_plan`], [`two_hop_plan`],
//!   [`four_path_plan`]. `tests/plan_equivalence.rs` proves them equal at every epoch to
//!   the closure-built twin in `tests/closure_oracle/`; what installing, answering and
//!   retiring them costs is the benchmark's `query_churn` workload and `plan.*` probes.
//! * Appendix C's batch computations (Tables 7–9): [`reach_plan`], [`bfs_plan`],
//!   [`components_plan`].
//! * §6.3's Datalog (Tables 2 and 11): [`tc_plan`], [`sg_plan`], and the top-down
//!   `tc(x, ?)` / `tc(?, x)` — [`reach_plan`] over the edges and over [`reversed_plan`].
//! * §6.4's Graspan analyses (Tables 3 and 4): [`nullness_plan`] — [`reach_plan`] again
//!   — and [`points_to_plan`], optimised and not.
//!
//! `tests/workloads.rs` checks the last three groups against oracles that share no code
//! with the engine. Because plans are values, the sub-plans several of them name — the
//! reversed edges, the points-to relation — are arranged once and shared by every query
//! installed on one manager.
//!
//! Row conventions: edges are `[src, dst]`, node arguments are `[node]`, pair arguments
//! are `[src, dst]` — all as [`Value::UInt`].

use kpg_plan::{Command, Expr, Plan, ReduceKind, Row, Value};

use crate::Edge;

/// An edge as a plan row: `[src, dst]`.
pub fn edge_row(edge: Edge) -> Row {
    Row::from(vec![Value::from(edge.0), Value::from(edge.1)])
}

/// `edges` as plan rows.
pub fn edge_rows(edges: &[Edge]) -> Vec<Row> {
    edges.iter().map(|edge| edge_row(*edge)).collect()
}

/// The commands that create `name` as an input keyed by its first column and load `rows`.
pub fn load_input(name: &str, rows: Vec<Row>) -> Vec<Command> {
    let create = Command::CreateInput {
        name: name.to_string(),
        key_arity: Some(1),
    };
    let load = rows.into_iter().map(|row| Command::Update {
        name: name.to_string(),
        row,
        diff: 1,
    });
    std::iter::once(create).chain(load).collect()
}

/// A node argument as a plan row: `[node]`.
pub fn node_row(node: u32) -> Row {
    Row::from(vec![Value::from(node)])
}

/// A `(src, dst)` argument as a plan row: `[src, dst]`.
pub fn pair_row(pair: (u32, u32)) -> Row {
    Row::from(vec![Value::from(pair.0), Value::from(pair.1)])
}

/// Reads column `index` of `row` back as a `u32` (panics on non-UInt columns — these
/// helpers are test/bench conversions for rows produced by the plans in this module).
pub fn row_u32(row: &Row, index: usize) -> u32 {
    match &row[index] {
        Value::UInt(value) => u32::try_from(*value).expect("node id fits u32"),
        other => panic!("expected UInt node id, found {other:?}"),
    }
}

/// Point look-up: for every argument node, its out-neighbours — `[q, dst]` rows. The
/// paper's 1-hop class is this same plan installed under a second name.
pub fn lookup_plan(edges: &str, args: &str) -> Plan {
    // key [q] ++ left rest [] ++ right rest [dst]  =  [q, dst]
    Plan::source(args).join(Plan::source(edges), vec![(0, 0)])
}

/// 2-hop: for every argument node, the nodes two hops away — `[q, dst]` rows, set
/// semantics.
pub fn two_hop_plan(edges: &str, args: &str) -> Plan {
    Plan::source(args)
        .join(Plan::source(edges), vec![(0, 0)]) // [q, mid]
        .join(Plan::source(edges), vec![(1, 0)]) // [mid, q, dst]
        .map(vec![Expr::col(1), Expr::col(2)]) // [q, dst]
        .distinct()
}

/// 4-hop path: for every argument pair `(src, dst)`, the hop count of the shortest
/// directed path of length at most four, if one exists — `[src, dst, hops]` rows.
pub fn four_path_plan(edges: &str, args: &str) -> Plan {
    // The frontier after 0 hops: [node, src, dst] with node = src.
    let mut frontier = Plan::source(args).map(vec![Expr::col(0), Expr::col(0), Expr::col(1)]);
    let mut per_hop = Vec::new();
    for hop in 1..=4u32 {
        // key [node] ++ left rest [src, dst] ++ right rest [next] = [node, src, dst, next]
        let reached = frontier
            .clone()
            .join(Plan::source(edges), vec![(0, 0)])
            .map(vec![Expr::col(3), Expr::col(1), Expr::col(2)]); // [next, src, dst]
                                                                  // Arrivals at the destination report their hop count: [src, dst, hop].
        per_hop.push(
            reached
                .clone()
                .filter(Expr::col(0).eq(Expr::col(2)))
                .map(vec![Expr::col(1), Expr::col(2), Expr::lit(hop)]),
        );
        frontier = reached.distinct();
    }
    // The least hop count per (src, dst) pair.
    Plan::Concat(per_hop).reduce(2, ReduceKind::Min(2))
}

/// The projection onto `columns`, in that order.
fn cols(columns: &[usize]) -> Vec<Expr> {
    columns.iter().map(|&column| Expr::col(column)).collect()
}

/// `edges` with its columns swapped: `[dst, src]` rows. Joined on its first column it is
/// the paper's *reverse* edge index — one memoized arrangement, shared by every query
/// that names it.
pub fn reversed_plan(edges: &str) -> Plan {
    Plan::source(edges).map(cols(&[1, 0]))
}

/// Seeded reachability: the `[node]` rows reachable from any `[node]` row of `seeds`
/// along `edges` (a plan of `[src, dst]` rows) in zero or more steps — seeds included.
/// Over `Plan::source(edges)` this is forward reachability and Datalog's top-down
/// `tc(x, ?)`; over [`reversed_plan`] it is `tc(?, x)` and [`nullness_plan`].
///
/// `reach(x) :- seed(x).`
/// `reach(y) :- reach(x), edge(x, y).`
pub fn reach_plan(edges: Plan, seeds: &str) -> Plan {
    let step = Plan::Recur.join(edges, vec![(0, 0)]).map(cols(&[1])); // [node, next]
    Plan::source(seeds).iterate(step.concat(Plan::source(seeds)).distinct())
}

/// Breadth-first distances: `[node, root, hops]` for every node reachable from a
/// `[root]` row of `roots`, keeping the least hop count per `[node, root]`.
pub fn bfs_plan(edges: &str, roots: &str) -> Plan {
    let hops = |hops: u32| Expr::lit(Value::from(hops));
    let start = Plan::source(roots).map(vec![Expr::col(0), Expr::col(0), hops(0)]);
    let proposals = Plan::Recur
        .join(Plan::source(edges), vec![(0, 0)]) // [node, root, hops, next]
        .map(vec![Expr::col(3), Expr::col(1), Expr::col(2).add(hops(1))]);
    let least = proposals
        .concat(start.clone())
        .reduce(2, ReduceKind::Min(2));
    start.iterate(least)
}

/// Undirected connected components by minimum-label propagation: `[node, label]` rows,
/// the label being the least node id in the node's component.
pub fn components_plan(edges: &str) -> Plan {
    let symmetric = Plan::source(edges).concat(reversed_plan(edges));
    let nodes = symmetric
        .clone()
        .map(cols(&[0]))
        .distinct()
        .map(cols(&[0, 0]));
    let proposals = Plan::Recur
        .join(symmetric, vec![(0, 0)]) // [node, label, next]
        .map(cols(&[2, 1]));
    let least = proposals
        .concat(nodes.clone())
        .reduce(1, ReduceKind::Min(1));
    nodes.iterate(least)
}

/// Bottom-up transitive closure: all `[x, y]` with a directed path from `x` to `y`.
///
/// `tc(x, y) :- edge(x, y).`
/// `tc(x, y) :- tc(x, z), edge(z, y).`
pub fn tc_plan(edges: &str) -> Plan {
    let edges = Plan::source(edges);
    let extended = Plan::Recur
        .join(edges.clone(), vec![(1, 0)])
        .map(cols(&[1, 2])); // [z, x, y]
    edges.clone().iterate(extended.concat(edges).distinct())
}

/// Same generation: `[x, y]` pairs that sit at the same depth below a common ancestor.
///
/// `sg(x, y) :- parent(p, x), parent(p, y), x != y.`
/// `sg(x, y) :- parent(px, x), sg(px, py), parent(py, y).`
pub fn sg_plan(parent: &str) -> Plan {
    let parent = Plan::source(parent);
    let siblings = parent
        .clone()
        .join(parent.clone(), vec![(0, 0)]) // [p, x, y]
        .filter(Expr::col(1).ne(Expr::col(2)))
        .map(cols(&[1, 2]));
    let children = Plan::Recur
        .join(parent.clone(), vec![(0, 0)]) // [px, py, x]
        .map(cols(&[1, 2]))
        .join(parent, vec![(0, 0)]) // [py, x, y]
        .map(cols(&[1, 2]));
    siblings
        .clone()
        .iterate(children.concat(siblings).distinct())
}

/// The dataflow (null-propagation) analysis of §6.4: the `[variable]` rows that may hold
/// `null` — what [`reach_plan`] reaches from the null sources against the direction of
/// the assignments (`y := x`, a `[y, x]` row, carries nullness from `x` to `y`).
pub fn nullness_plan(assignments: &str, null_sources: &str) -> Plan {
    reach_plan(reversed_plan(assignments), null_sources)
}

/// The points-to analysis of §6.4, reported as the alias pairs it exists to find:
/// `[v, w]` where `v` and a *dereferenced* variable `w` (some `[_, w]` row of
/// `dereferences`) may point to one object.
///
/// `pt(v, o) :- alloc(v, o).`
/// `pt(v, o) :- assign(v, w), pt(w, o).`
///
/// With `materialise_alias` the plan forms every alias pair `pt(v, o), pt(w, o)` and only
/// then keeps the dereferenced `w`, as the unoptimised Graspan grammar does; without it
/// the points-to sets are restricted to dereferenced variables first (the optimisation
/// of §6.4). Both variants name the same `pt` sub-plan, so installed side by side they
/// share its arrangement — and its reversed assignments are [`nullness_plan`]'s.
pub fn points_to_plan(
    assignments: &str,
    allocations: &str,
    dereferences: &str,
    materialise_alias: bool,
) -> Plan {
    let allocations = Plan::source(allocations);
    let flows = Plan::Recur
        .join(reversed_plan(assignments), vec![(0, 0)]) // [w, o, v]
        .map(cols(&[2, 1]));
    let pt = allocations
        .clone()
        .iterate(flows.concat(allocations).distinct());
    let by_object = pt.clone().map(cols(&[1, 0])); // [o, v]
    let dereferenced = Plan::source(dereferences).map(cols(&[1])).distinct();
    let aliases = if materialise_alias {
        let all = by_object.clone().join(by_object, vec![(0, 0)]); // [o, v, w]
        all.map(cols(&[2, 1]))
            .join(dereferenced, vec![(0, 0)])
            .map(cols(&[1, 0]))
    } else {
        let restricted = pt.join(dereferenced, vec![(0, 0)]).map(cols(&[1, 0])); // [o, w]
        by_object.join(restricted, vec![(0, 0)]).map(cols(&[1, 2])) // [o, v, w]
    };
    aliases.distinct()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_conversions_round_trip() {
        let row = edge_row((3, 9));
        assert_eq!(row_u32(&row, 0), 3);
        assert_eq!(row_u32(&row, 1), 9);
        assert_eq!(node_row(7), Row::from(vec![Value::UInt(7)]));
        assert_eq!(pair_row((1, 2)), edge_row((1, 2)));
    }

    #[test]
    fn query_class_plans_validate() {
        let known: std::collections::BTreeSet<String> =
            ["edges".to_string(), "args".to_string()].into();
        for plan in [
            lookup_plan("edges", "args"),
            two_hop_plan("edges", "args"),
            four_path_plan("edges", "args"),
            reach_plan(reversed_plan("edges"), "args"),
            bfs_plan("edges", "args"),
            components_plan("edges"),
            tc_plan("edges"),
            sg_plan("edges"),
            nullness_plan("edges", "args"),
            points_to_plan("edges", "edges", "edges", true),
            points_to_plan("edges", "edges", "edges", false),
        ] {
            plan.validate(&known).unwrap();
        }
    }
}
