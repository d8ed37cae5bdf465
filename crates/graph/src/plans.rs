//! The interactive query classes of §6.2 (Figure 5, Table 10), *expressed as runtime
//! plans*: [`Plan`] values a [`Manager`](kpg_plan::Manager) installs from data — the
//! shape a query server receives over the wire — against an arrangement of the edges
//! that is already maintained and shared.
//!
//! This is the library's only statement of these queries. Their closure-built twin
//! lives in `crates/graph/tests/closure_oracle/`, where `plan_equivalence.rs` proves the
//! two formulations give identical answers at every epoch; what installing, answering
//! and retiring them costs is the benchmark's `query_churn` workload and `plan.*`
//! probes.
//!
//! Row conventions: edges are `[src, dst]`, node arguments are `[node]`, pair arguments
//! are `[src, dst]` — all as [`Value::UInt`].

use kpg_plan::{Expr, Plan, ReduceKind, Row, Value};

use crate::Edge;

/// An edge as a plan row: `[src, dst]`.
pub fn edge_row(edge: Edge) -> Row {
    Row::from(vec![Value::from(edge.0), Value::from(edge.1)])
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
        ] {
            plan.validate(&known).unwrap();
        }
    }
}
