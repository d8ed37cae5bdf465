//! The Plan IR: dataflow-shaped query descriptions that are *data*, not closures.
//!
//! A [`Plan`] is a tree of relational operators over [`Row`](crate::Row) collections.
//! Because plans are plain, ordered values (`Ord`), the render layer can recognise when two
//! queries contain the same subtree and hand both the *same* shared arrangement — the
//! paper's inter-query sharing applied between queries that arrive at runtime.

use std::collections::BTreeSet;

use crate::expr::Expr;

/// How an aggregation reduces each key's rows (the `Reduce` plan operator).
///
/// Grouping is by the first `key_arity` columns; aggregate column indices refer to the
/// *full* input row and must address non-key columns.
///
/// `Min` and `Top` rank values by [`Value`](crate::Value)'s structural ordering —
/// variant order then payload, the same total order every arrangement sorts by — *not*
/// by the expression language's numeric cross-variant comparison: on a mixed-variant
/// column every `Int` precedes every `UInt` (so `Min` can pick `Int(7)` over `UInt(3)`
/// where `Expr::Lt` would say the opposite). Per `Value`'s contract, plans that rank a
/// column should produce it with a consistent variant.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReduceKind {
    /// The number of rows in the group (sum of multiplicities), as one `Int` column.
    Count,
    /// The sum of the named column across the group (weighted by multiplicity), as one
    /// `Int` column.
    Sum(usize),
    /// The structurally least value of the named column among rows present in the
    /// group, as one column.
    Min(usize),
    /// The greatest-ranked row of the group by the named column (top-1, structural
    /// order): the entire non-key remainder of that row is kept.
    Top(usize),
}

/// A runtime query plan over row collections.
///
/// Every variant describes its operator with data only; [`crate::render`] compiles a
/// validated plan into a live dataflow against the registry of shared arrangements.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Plan {
    /// A named input collection (resolved against the manager's inputs, or against the
    /// query's local inputs).
    Source(String),
    /// The loop variable of the innermost enclosing [`Plan::Iterate`].
    Recur,
    /// Projects each row through a list of expressions (one per output column).
    Map {
        /// The input plan.
        input: Box<Plan>,
        /// The output columns, each an expression over the input row.
        exprs: Vec<Expr>,
    },
    /// Keeps rows whose predicate evaluates truthy.
    Filter {
        /// The input plan.
        input: Box<Plan>,
        /// The predicate expression.
        predicate: Expr,
    },
    /// Equi-joins two plans. `keys` pairs a left column with a right column; the output
    /// row is the key columns (in `keys` order) followed by the remaining left columns
    /// and then the remaining right columns, each in their original order.
    Join {
        /// The left input plan.
        left: Box<Plan>,
        /// The right input plan.
        right: Box<Plan>,
        /// Pairs of `(left column, right column)` equated by the join.
        keys: Vec<(usize, usize)>,
    },
    /// Groups by the first `key_arity` columns and aggregates each group. The output row
    /// is the key columns followed by the aggregate's columns.
    Reduce {
        /// The input plan.
        input: Box<Plan>,
        /// The number of leading columns forming the grouping key.
        key_arity: usize,
        /// The aggregation applied to each group.
        kind: ReduceKind,
    },
    /// Reduces the collection to set semantics (each present row once).
    Distinct(Box<Plan>),
    /// The multiset union of several plans.
    Concat(Vec<Plan>),
    /// Negates every multiplicity.
    Negate(Box<Plan>),
    /// The fixed point of `body` seeded with `seed`: inside `body`, [`Plan::Recur`]
    /// names the loop variable (initially `seed`, then the previous round's `body`).
    Iterate {
        /// The initial value of the loop variable (must not mention `Recur`).
        seed: Box<Plan>,
        /// The loop body, re-evaluated until no further changes circulate.
        body: Box<Plan>,
    },
}

/// How a sub-plan's rows are keyed for arrangement.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeySpec {
    /// Key on the listed columns (in order); the value is the remaining columns.
    Columns(Vec<usize>),
    /// Key on the entire row; the value is empty. Used by `Distinct` and by base inputs.
    SelfRow,
}

impl KeySpec {
    /// Splits `row` into `(key, value)` per this spec.
    pub fn split(&self, row: crate::Row) -> (crate::Row, crate::Row) {
        match self {
            KeySpec::SelfRow => (row, crate::Row::new()),
            KeySpec::Columns(columns) => {
                // Prefix keys (the common shape: joins and reduces on leading columns)
                // split into two contiguous slices — straight-line single-allocation
                // collects, no membership tests.
                let prefix = columns.len() <= row.len()
                    && columns
                        .iter()
                        .enumerate()
                        .all(|(slot, &index)| slot == index);
                if prefix {
                    let key: crate::Row = row[..columns.len()].iter().cloned().collect();
                    let rest: crate::Row = row[columns.len()..].iter().cloned().collect();
                    return (key, rest);
                }
                let key: crate::Row = columns.iter().map(|&index| row[index].clone()).collect();
                let rest: crate::Row = row
                    .iter()
                    .enumerate()
                    .filter(|(index, _)| !columns.contains(index))
                    .map(|(_, value)| value.clone())
                    .collect();
                (key, rest)
            }
        }
    }
}

/// A sub-plan arrangement identity: *this* subtree, keyed *this* way. The unit of
/// memoization — plan-identical subtrees with the same key spec import the same trace.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrangeKey {
    /// The sub-plan whose output is arranged.
    pub plan: Plan,
    /// How its rows are keyed.
    pub keys: KeySpec,
}

/// Why a plan was rejected at install time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanValidity {
    /// `Recur` appeared outside any `Iterate` body.
    RecurOutsideIterate,
    /// An `Iterate` seed mentioned `Recur`.
    RecurInSeed,
    /// A `Reduce` aggregate column indexed into the grouping key (or `Map`/`Join`
    /// columns were structurally impossible, e.g. an aggregate column below the key).
    AggregateColumnInKey {
        /// The offending aggregate column.
        column: usize,
        /// The reduce's key arity.
        key_arity: usize,
    },
    /// A column index (in an expression, a join key, or an aggregate) is out of range
    /// for its input's rows, where that input's arity is derivable at install time.
    /// Sources are dynamically shaped, so plans straight over them are not checkable —
    /// but any sub-plan whose shape an operator pins (`Map` produces exactly its
    /// expression count, `Reduce` its key plus aggregate) is.
    ColumnOutOfRange {
        /// The offending column index.
        column: usize,
        /// The input's derived row arity.
        arity: usize,
    },
    /// A `Concat` had no input plans (rendering requires at least one).
    EmptyConcat,
    /// A `Source` named an input that neither the manager nor the query defines.
    UnknownSource(String),
}

impl std::fmt::Display for PlanValidity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanValidity::RecurOutsideIterate => {
                write!(f, "Recur used outside an Iterate body")
            }
            PlanValidity::RecurInSeed => write!(f, "an Iterate seed must not mention Recur"),
            PlanValidity::AggregateColumnInKey { column, key_arity } => write!(
                f,
                "aggregate column {column} lies inside the grouping key (key_arity {key_arity})"
            ),
            PlanValidity::ColumnOutOfRange { column, arity } => write!(
                f,
                "column {column} is out of range for input rows of arity {arity}"
            ),
            PlanValidity::EmptyConcat => write!(f, "Concat requires at least one input plan"),
            PlanValidity::UnknownSource(name) => {
                write!(f, "plan names source {name:?}, which is not a known input")
            }
        }
    }
}

impl Plan {
    /// A named source.
    pub fn source(name: &str) -> Plan {
        Plan::Source(name.to_string())
    }

    /// Projects through `exprs`.
    pub fn map(self, exprs: Vec<Expr>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            exprs,
        }
    }

    /// Filters by `predicate`.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Equi-joins with `other` on `keys`.
    pub fn join(self, other: Plan, keys: Vec<(usize, usize)>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(other),
            keys,
        }
    }

    /// Groups by the first `key_arity` columns and aggregates with `kind`.
    pub fn reduce(self, key_arity: usize, kind: ReduceKind) -> Plan {
        Plan::Reduce {
            input: Box::new(self),
            key_arity,
            kind,
        }
    }

    /// Set semantics.
    pub fn distinct(self) -> Plan {
        Plan::Distinct(Box::new(self))
    }

    /// Multiset union with `other`.
    pub fn concat(self, other: Plan) -> Plan {
        match self {
            Plan::Concat(mut plans) => {
                plans.push(other);
                Plan::Concat(plans)
            }
            plan => Plan::Concat(vec![plan, other]),
        }
    }

    /// Negates multiplicities.
    pub fn negate(self) -> Plan {
        Plan::Negate(Box::new(self))
    }

    /// The fixed point of `body` seeded with `self`.
    pub fn iterate(self, body: Plan) -> Plan {
        Plan::Iterate {
            seed: Box::new(self),
            body: Box::new(body),
        }
    }

    /// Collects the names of every `Source` the plan mentions.
    pub fn sources(&self, into: &mut BTreeSet<String>) {
        match self {
            Plan::Source(name) => {
                into.insert(name.clone());
            }
            Plan::Recur => {}
            Plan::Map { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Reduce { input, .. }
            | Plan::Distinct(input)
            | Plan::Negate(input) => input.sources(into),
            Plan::Join { left, right, .. } => {
                left.sources(into);
                right.sources(into);
            }
            Plan::Concat(plans) => {
                for plan in plans {
                    plan.sources(into);
                }
            }
            Plan::Iterate { seed, body } => {
                seed.sources(into);
                body.sources(into);
            }
        }
    }

    /// True iff the plan mentions `Recur` (is bound to an enclosing loop variable).
    pub fn mentions_recur(&self) -> bool {
        match self {
            Plan::Recur => true,
            Plan::Source(_) => false,
            Plan::Map { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Reduce { input, .. }
            | Plan::Distinct(input)
            | Plan::Negate(input) => input.mentions_recur(),
            Plan::Join { left, right, .. } => left.mentions_recur() || right.mentions_recur(),
            Plan::Concat(plans) => plans.iter().any(Plan::mentions_recur),
            // An inner Iterate rebinds Recur: occurrences inside its body belong to it.
            Plan::Iterate { seed, .. } => seed.mentions_recur(),
        }
    }

    /// True iff the plan mentions any source in `names`.
    pub fn mentions_source(&self, names: &BTreeSet<String>) -> bool {
        let mut sources = BTreeSet::new();
        self.sources(&mut sources);
        sources.iter().any(|name| names.contains(name))
    }

    /// True iff this subtree must be rendered inline in the enclosing dataflow (and so
    /// cannot be memoized as a shared arrangement): it reads the loop variable or a
    /// query-local input.
    pub fn is_inline(&self, locals: &BTreeSet<String>) -> bool {
        self.mentions_recur() || self.mentions_source(locals)
    }

    /// The shared arrangements this plan's rendering will import *directly*: one entry
    /// per `Join`/`Reduce`/`Distinct` input that is not forced inline. Requirements of
    /// the sub-plans behind those arrangements are *not* included — the manager ensures
    /// them recursively when it installs each memo dataflow.
    pub fn arrangement_requirements(&self, locals: &BTreeSet<String>, into: &mut Vec<ArrangeKey>) {
        let require = |side: &Plan, keys: KeySpec, into: &mut Vec<ArrangeKey>| {
            if side.is_inline(locals) {
                // Rendered inline here; its own arrangement points become ours.
                side.arrangement_requirements(locals, into);
            } else {
                let key = ArrangeKey {
                    plan: side.clone(),
                    keys,
                };
                if !into.contains(&key) {
                    into.push(key);
                }
            }
        };
        match self {
            Plan::Source(_) | Plan::Recur => {}
            Plan::Map { input, .. } | Plan::Filter { input, .. } | Plan::Negate(input) => {
                input.arrangement_requirements(locals, into);
            }
            Plan::Concat(plans) => {
                for plan in plans {
                    plan.arrangement_requirements(locals, into);
                }
            }
            Plan::Join { left, right, keys } => {
                let left_columns: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
                let right_columns: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
                require(left, KeySpec::Columns(left_columns), into);
                require(right, KeySpec::Columns(right_columns), into);
            }
            Plan::Reduce {
                input, key_arity, ..
            } => require(input, KeySpec::Columns((0..*key_arity).collect()), into),
            Plan::Distinct(input) => require(input, KeySpec::SelfRow, into),
            Plan::Iterate { seed, body } => {
                // The seed is rendered inline (then entered); the body renders inside the
                // loop, importing its recur-free arrangements from outside it (§5.4).
                seed.arrangement_requirements(locals, into);
                body.arrangement_requirements(locals, into);
            }
        }
    }

    /// Structural validation: `Recur` placement, seed purity, non-empty `Concat`,
    /// source resolution against `known` inputs (global and query-local), and column
    /// bounds. Column bounds are checked against each operator's *derivable* row arity:
    /// sources are dynamically shaped (arity unknown), but `Map` pins its output to the
    /// expression count, `Reduce` to key-plus-aggregate, and `Join`/`Filter` propagate
    /// their inputs' — so any out-of-range expression, join-key, or aggregate column
    /// downstream of a shape-pinning operator is rejected at install time rather than
    /// panicking the worker when data arrives.
    pub fn validate(&self, known: &BTreeSet<String>) -> Result<(), PlanValidity> {
        self.validate_at(known, None).map(|_| ())
    }

    /// Validates the subtree and returns the arity of its output rows, where derivable.
    /// `loop_arity` is `Some(arity)` inside an `Iterate` body (the loop variable's
    /// derived arity, itself optional), `None` outside any loop.
    fn validate_at(
        &self,
        known: &BTreeSet<String>,
        loop_arity: Option<Option<usize>>,
    ) -> Result<Option<usize>, PlanValidity> {
        /// Rejects `column` when the input arity is derivable and the index exceeds it.
        fn check_column(column: Option<usize>, arity: Option<usize>) -> Result<(), PlanValidity> {
            match (column, arity) {
                (Some(column), Some(arity)) if column >= arity => {
                    Err(PlanValidity::ColumnOutOfRange { column, arity })
                }
                _ => Ok(()),
            }
        }
        match self {
            Plan::Source(name) => {
                if known.contains(name) {
                    // Rows of an input are whatever updates carried: arity unknown.
                    Ok(None)
                } else {
                    Err(PlanValidity::UnknownSource(name.clone()))
                }
            }
            Plan::Recur => loop_arity.ok_or(PlanValidity::RecurOutsideIterate),
            Plan::Map { input, exprs } => {
                let arity = input.validate_at(known, loop_arity)?;
                for expr in exprs {
                    check_column(expr.max_column(), arity)?;
                }
                Ok(Some(exprs.len()))
            }
            Plan::Filter { input, predicate } => {
                let arity = input.validate_at(known, loop_arity)?;
                check_column(predicate.max_column(), arity)?;
                Ok(arity)
            }
            Plan::Negate(input) | Plan::Distinct(input) => input.validate_at(known, loop_arity),
            Plan::Concat(plans) => {
                if plans.is_empty() {
                    return Err(PlanValidity::EmptyConcat);
                }
                // The union's arity is derivable only when every member agrees.
                let mut arity: Option<Option<usize>> = None;
                for plan in plans {
                    let member = plan.validate_at(known, loop_arity)?;
                    arity = Some(match arity {
                        None => member,
                        Some(previous) if previous == member => previous,
                        Some(_) => None,
                    });
                }
                Ok(arity.flatten())
            }
            Plan::Join { left, right, keys } => {
                let left_arity = left.validate_at(known, loop_arity)?;
                let right_arity = right.validate_at(known, loop_arity)?;
                for &(left_column, right_column) in keys {
                    check_column(Some(left_column), left_arity)?;
                    check_column(Some(right_column), right_arity)?;
                }
                // Output: key columns (in `keys` order) ++ remaining left ++ remaining
                // right, where "remaining" excludes the distinct key columns.
                match (left_arity, right_arity) {
                    (Some(left), Some(right)) => {
                        let distinct = |side: fn(&(usize, usize)) -> usize| {
                            keys.iter().map(side).collect::<BTreeSet<usize>>().len()
                        };
                        let remaining =
                            (left - distinct(|&(l, _)| l)) + (right - distinct(|&(_, r)| r));
                        Ok(Some(keys.len() + remaining))
                    }
                    _ => Ok(None),
                }
            }
            Plan::Reduce {
                input,
                key_arity,
                kind,
            } => {
                let arity = input.validate_at(known, loop_arity)?;
                if let Some(arity) = arity {
                    if *key_arity > arity {
                        return Err(PlanValidity::ColumnOutOfRange {
                            column: key_arity - 1,
                            arity,
                        });
                    }
                }
                let column = match kind {
                    ReduceKind::Count => None,
                    ReduceKind::Sum(column) | ReduceKind::Min(column) | ReduceKind::Top(column) => {
                        Some(*column)
                    }
                };
                if let Some(column) = column {
                    if column < *key_arity {
                        return Err(PlanValidity::AggregateColumnInKey {
                            column,
                            key_arity: *key_arity,
                        });
                    }
                    check_column(Some(column), arity)?;
                }
                match kind {
                    // Key columns plus the one aggregate column.
                    ReduceKind::Count | ReduceKind::Sum(_) | ReduceKind::Min(_) => {
                        Ok(Some(key_arity + 1))
                    }
                    // Key columns plus the winning row's whole non-key remainder.
                    ReduceKind::Top(_) => Ok(arity),
                }
            }
            Plan::Iterate { seed, body } => {
                if seed.mentions_recur() {
                    return Err(PlanValidity::RecurInSeed);
                }
                let seed_arity = seed.validate_at(known, loop_arity)?;
                // The body may change the row shape round to round, so `Recur`
                // validates with unknown arity rather than inheriting the seed's; the
                // fixed point's arity is derivable only when seed and body agree.
                let body_arity = body.validate_at(known, Some(None))?;
                Ok(seed_arity.filter(|&arity| body_arity == Some(arity)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn known(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn key_spec_splits_rows() {
        let row = crate::Row::from(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)]);
        let (key, rest) = KeySpec::Columns(vec![1]).split(row.clone());
        assert_eq!(key, crate::Row::from(vec![Value::UInt(2)]));
        assert_eq!(rest, crate::Row::from(vec![Value::UInt(1), Value::UInt(3)]));
        let (key, rest) = KeySpec::SelfRow.split(row.clone());
        assert_eq!(key, row);
        assert!(rest.is_empty());
    }

    #[test]
    fn validation_places_recur_and_checks_sources() {
        let known = known(&["edges"]);
        assert_eq!(
            Plan::Recur.validate(&known),
            Err(PlanValidity::RecurOutsideIterate)
        );
        assert_eq!(
            Plan::source("nodes").validate(&known),
            Err(PlanValidity::UnknownSource("nodes".to_string()))
        );
        let loop_plan = Plan::source("edges").iterate(
            Plan::Recur
                .join(Plan::source("edges"), vec![(1, 0)])
                .distinct(),
        );
        assert_eq!(loop_plan.validate(&known), Ok(()));
        let bad_seed = Plan::Recur.iterate(Plan::Recur);
        assert_eq!(bad_seed.validate(&known), Err(PlanValidity::RecurInSeed));
        let bad_reduce = Plan::source("edges").reduce(2, ReduceKind::Min(1));
        assert_eq!(
            bad_reduce.validate(&known),
            Err(PlanValidity::AggregateColumnInKey {
                column: 1,
                key_arity: 2
            })
        );
    }

    /// An empty `Concat` is rejected at validation (install time), not at render time:
    /// plans arrive over the wire, and validate is the boundary where `PlanError`
    /// exists — rendering would panic the worker.
    #[test]
    fn validation_rejects_empty_concat() {
        let known = known(&["edges"]);
        assert_eq!(
            Plan::Concat(vec![]).validate(&known),
            Err(PlanValidity::EmptyConcat)
        );
        // Nested inside other operators too.
        assert_eq!(
            Plan::source("edges")
                .join(Plan::Concat(vec![]).distinct(), vec![(0, 0)])
                .validate(&known),
            Err(PlanValidity::EmptyConcat)
        );
    }

    /// Column bounds are enforced wherever the input's row arity is derivable, so an
    /// out-of-range expression, join-key, or aggregate index fails at install instead
    /// of panicking the worker when data arrives.
    #[test]
    fn validation_bounds_columns_against_derivable_arity() {
        let known = known(&["edges"]);
        // `Map` pins its output arity; everything downstream is checkable.
        let two_wide = Plan::source("edges").map(vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(
            two_wide.clone().map(vec![Expr::col(2)]).validate(&known),
            Err(PlanValidity::ColumnOutOfRange {
                column: 2,
                arity: 2
            })
        );
        assert_eq!(
            two_wide
                .clone()
                .filter(Expr::col(5).gt(Expr::lit(0u64)))
                .validate(&known),
            Err(PlanValidity::ColumnOutOfRange {
                column: 5,
                arity: 2
            })
        );
        assert_eq!(
            two_wide
                .clone()
                .reduce(1, ReduceKind::Sum(3))
                .validate(&known),
            Err(PlanValidity::ColumnOutOfRange {
                column: 3,
                arity: 2
            })
        );
        assert_eq!(
            two_wide
                .clone()
                .reduce(3, ReduceKind::Count)
                .validate(&known),
            Err(PlanValidity::ColumnOutOfRange {
                column: 2,
                arity: 2
            }),
            "a grouping key wider than the row is out of range"
        );
        assert_eq!(
            two_wide
                .clone()
                .join(Plan::source("edges"), vec![(2, 0)])
                .validate(&known),
            Err(PlanValidity::ColumnOutOfRange {
                column: 2,
                arity: 2
            })
        );
        // Join output arity: key columns plus both remainders (2 + 2 - 1 key = 3).
        let joined = two_wide.clone().join(two_wide, vec![(0, 0)]);
        assert_eq!(
            joined.clone().map(vec![Expr::col(3)]).validate(&known),
            Err(PlanValidity::ColumnOutOfRange {
                column: 3,
                arity: 3
            })
        );
        assert_eq!(joined.map(vec![Expr::col(2)]).validate(&known), Ok(()));
        // Sources are dynamically shaped: nothing derivable, nothing rejected.
        assert_eq!(
            Plan::source("edges")
                .map(vec![Expr::col(9)])
                .validate(&known),
            Ok(())
        );
    }

    #[test]
    fn requirements_memoize_identical_subtrees_once() {
        let locals = BTreeSet::new();
        // Two joins against the same arranged side: one requirement entry.
        let edges_by_src = ArrangeKey {
            plan: Plan::source("edges"),
            keys: KeySpec::Columns(vec![0]),
        };
        let hop1 = Plan::source("args").join(Plan::source("edges"), vec![(0, 0)]);
        let hop2 = hop1.join(Plan::source("edges"), vec![(1, 0)]);
        let mut reqs = Vec::new();
        hop2.arrangement_requirements(&locals, &mut reqs);
        assert_eq!(
            reqs.iter().filter(|key| **key == edges_by_src).count(),
            1,
            "identical (subtree, keys) pairs collapse: {reqs:?}"
        );
    }

    #[test]
    fn local_sources_force_inline_rendering() {
        let locals: BTreeSet<String> = ["args".to_string()].into();
        let plan = Plan::source("args").join(Plan::source("edges"), vec![(0, 0)]);
        let mut reqs = Vec::new();
        plan.arrangement_requirements(&locals, &mut reqs);
        // The local side is inline; only the shared side is a requirement.
        assert_eq!(
            reqs,
            vec![ArrangeKey {
                plan: Plan::source("edges"),
                keys: KeySpec::Columns(vec![0]),
            }]
        );
    }

    #[test]
    fn recur_containing_subtrees_are_inline_but_free_subtrees_are_not() {
        let locals = BTreeSet::new();
        let body = Plan::Recur
            .join(Plan::source("edges"), vec![(1, 0)])
            .concat(Plan::source("roots"))
            .distinct();
        let plan = Plan::source("roots").iterate(body);
        let mut reqs = Vec::new();
        plan.arrangement_requirements(&locals, &mut reqs);
        // The Recur side of the join is inline; the edges side and the distinct over the
        // (recur-containing) union are handled inline, so only edges-by-dst remains.
        assert_eq!(
            reqs,
            vec![ArrangeKey {
                plan: Plan::source("edges"),
                keys: KeySpec::Columns(vec![0]),
            }]
        );
    }
}
