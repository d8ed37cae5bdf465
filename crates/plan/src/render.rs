//! The render pass: compiling a validated [`Plan`] into a live dataflow.
//!
//! Rendering happens *inside* a dataflow install: the renderer borrows, from the
//! manager's registry, the trace handle of every arrangement the plan needs that lives
//! outside the dataflow under construction — base inputs and the memoized sub-plans the
//! manager pre-installed, each keyed by what it arranges. Sub-trees that read only
//! shared state are **imported** (one shared arrangement, any number of reading queries
//! — the paper's economy applied between runtime queries); sub-trees bound to the loop
//! variable or to a query-local input are rendered inline, arranged privately within
//! this dataflow. Reading an arrangement back as rows ([`Trace::read`]) applies no time
//! filter and settles nothing: `Manager::execute` settles ahead of a `Query`, nowhere
//! else.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use kpg_core::arrange::{KeyBatch, ValBatch};
use kpg_core::prelude::*;
use kpg_timestamp::Antichain;
use kpg_trace::{Batch, Cursor};

use crate::expr::project;
use crate::plan::{ArrangeKey, KeySpec, Plan, ReduceKind};
use crate::value::{Row, Value};

/// Builds the row `head ++ mid ++ tail` (any part may be empty) in one allocation: the
/// chained slice iterators are `TrustedLen`, so the collect writes straight into the
/// row's shared storage — this runs once per join emission, the hottest row path.
fn concat_rows(head: &[Value], mid: &[Value], tail: &[Value]) -> Row {
    head.iter()
        .chain(mid.iter())
        .chain(tail.iter())
        .cloned()
        .collect()
}

/// Reads position `index` of the virtual join-output row `key ++ left ++ right`
/// without materializing it.
fn segment<'a>(key: &'a [Value], left: &'a [Value], right: &'a [Value], index: usize) -> &'a Value {
    if index < key.len() {
        &key[index]
    } else if index < key.len() + left.len() {
        &left[index - key.len()]
    } else {
        &right[index - key.len() - left.len()]
    }
}

/// If picking `indices` out of the virtual row `key ++ left ++ right` reproduces one of
/// the three segments whole and in order, that segment's row is reused (a reference
/// bump) instead of building a new one.
fn whole_segment(indices: &[usize], key: &Row, left: &Row, right: &Row) -> Option<Row> {
    let matches = |row: &Row, base: usize| {
        indices.len() == row.len()
            && indices
                .iter()
                .enumerate()
                .all(|(slot, &index)| index == base + slot)
    };
    if matches(key, 0) {
        Some(key.clone())
    } else if matches(left, key.len()) {
        Some(left.clone())
    } else if matches(right, key.len() + left.len()) {
        Some(right.clone())
    } else {
        None
    }
}

/// The column indices of a pure projection (`exprs` all `Expr::Column`), if it is one.
fn column_indices(exprs: &[crate::Expr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|expr| match expr {
            crate::Expr::Column(index) => Some(*index),
            _ => None,
        })
        .collect()
}

/// The batch type of column-keyed plan arrangements: rows keyed by rows.
pub type RowBatch = ValBatch<Row, Row>;

/// The batch type of self-keyed plan arrangements (`KeySpec::SelfRow`), as `Distinct` and
/// whole-row base inputs need: the same batch implementation as [`RowBatch`] with the
/// zero-size value `()` in place of an empty value row, so the value column allocates
/// nothing and costs one offset word per key.
pub type RowKeyBatch = KeyBatch<Row>;

/// A maintained arrangement's trace handle, in the batch type its [`KeySpec`] names:
/// the unit the manager's registry holds, imports from and reads answers through.
pub enum Trace {
    /// `KeySpec::Columns`: rows keyed by the key columns.
    Rows(TraceAgent<RowBatch>),
    /// `KeySpec::SelfRow`: rows keyed by themselves.
    SelfRow(TraceAgent<RowKeyBatch>),
}

/// Evaluates `$body` with `$agent` bound to whichever handle `$trace` holds.
macro_rules! on_agent {
    ($trace:expr, $agent:ident => $body:expr) => {
        match $trace {
            Trace::Rows($agent) => $body,
            Trace::SelfRow($agent) => $body,
        }
    };
}

impl Trace {
    /// Everything the trace holds as `(key ++ value, multiplicity)` in row order (the
    /// original rows, for a prefix keying): one walk, no time filter — compaction moves
    /// sealed times forward to the read frontier, so a bound would drop sealed updates.
    pub fn read(&self) -> Vec<(Row, isize)> {
        fn rows<B: Batch<Key = Row, Time = Time, Diff = isize>>(
            trace: &TraceAgent<B>,
            row: impl Fn(&Row, &B::Val) -> Row,
        ) -> Vec<(Row, isize)> {
            trace.read(|mut cursor| {
                let mut rows = Vec::new();
                while cursor.key_valid() {
                    while cursor.val_valid() {
                        let mut total = 0;
                        cursor.map_times(|_, diff| total += diff);
                        if total != 0 {
                            rows.push((row(cursor.key(), cursor.val()), total));
                        }
                        cursor.step_val();
                    }
                    cursor.step_key();
                }
                rows
            })
        }
        match self {
            Trace::Rows(trace) => rows(trace, |key, rest| concat_rows(key, rest, &[])),
            Trace::SelfRow(trace) => rows(trace, |key, _| key.clone()),
        }
    }

    /// The number of updates the trace holds (the paper's memory-footprint proxy).
    pub fn size(&self) -> usize {
        on_agent!(self, trace => trace.len())
    }

    /// The number of live read handles on the trace, the registry's own among them.
    pub fn reader_count(&self) -> usize {
        on_agent!(self, trace => trace.reader_count())
    }

    /// See [`TraceAgent::reader_slot_capacity`].
    pub fn reader_slot_capacity(&self) -> usize {
        on_agent!(self, trace => trace.reader_slot_capacity())
    }

    /// Advances the registry handle's read frontier to `epoch`, permitting compaction.
    pub(crate) fn advance_to(&mut self, epoch: u64) {
        let frontier = Antichain::from_elem(Time::from_epoch(epoch));
        on_agent!(self, trace => trace.set_logical_compaction(frontier.borrow()));
    }

    /// See [`TraceAgent::exert`].
    pub(crate) fn exert(&self, fuel: &mut isize) -> bool {
        on_agent!(self, trace => trace.exert(fuel))
    }
}

/// Loop-scope bookkeeping threaded through rendering.
struct Scope<'a> {
    /// The innermost loop variable, if rendering inside an `Iterate` body.
    recur: Option<&'a Collection<Row>>,
    /// Iteration nesting depth (0 = the streaming scope).
    depth: usize,
}

/// The streaming scope, where every dataflow's root renders.
const ROOT: Scope<'static> = Scope {
    recur: None,
    depth: 0,
};

/// A plan compiler bound to one dataflow installation (see [`publish`]). Rendering panics
/// if the plan was not validated or an import was not pre-installed: the manager's job.
struct Renderer<'a> {
    traces: BTreeMap<&'a ArrangeKey, &'a Trace>,
    sources: BTreeMap<String, &'a ArrangeKey>,
    /// Query-local input collections, created inside the dataflow being built.
    locals: BTreeMap<String, Collection<Row>>,
    /// The names of `locals` (kept in step by construction): a sub-tree mentioning one
    /// renders inline.
    local_names: BTreeSet<String>,
    /// Arrangements already imported into this dataflow: a plan that reads the same
    /// shared arrangement at several operator sites (a 2-hop query joins the edge index
    /// twice) pays one import operator, not one per site. Column-keyed and self-keyed
    /// arrangements have distinct batch types, so they cache separately.
    imported: Imports<RowBatch>,
    imported_self: Imports<RowKeyBatch>,
}

/// One batch type's import cache, per registry key and loop depth.
type Imports<B> = RefCell<BTreeMap<(ArrangeKey, usize), Arranged<B>>>;

/// The two batch types plan arrangements come in, and the only things that differ
/// between them where an arrangement is imported or rendered. Each names its own form of
/// key, so neither can be asked for the other's keying.
trait PlanBatch: Batch<Key = Row, Time = Time, Diff = isize> + 'static {
    /// The form a keying of this batch type takes: the key columns, or nothing.
    type Keys: ?Sized;
    /// `keys` as the [`KeySpec`] shared arrangements are registered under.
    fn spec(keys: &Self::Keys) -> KeySpec;
    /// The handle of a registry entry keyed for this batch type.
    fn agent(trace: &Trace) -> &TraceAgent<Self>;
    /// The renderer's cache of imports of this batch type.
    fn imports<'r>(renderer: &'r Renderer<'_>) -> &'r Imports<Self>;
    /// Arranges `plan` by `keys` inside the dataflow under construction: the published
    /// roots' entry point, and the path for loop-bound / query-local sub-trees.
    fn arrange_inline(
        renderer: &Renderer<'_>,
        builder: &mut DataflowBuilder,
        plan: &Plan,
        keys: &Self::Keys,
        scope: &Scope<'_>,
    ) -> Arranged<Self>;
}

/// `KeySpec::Columns`: rows keyed by the listed columns.
impl PlanBatch for RowBatch {
    type Keys = [usize];
    fn spec(columns: &[usize]) -> KeySpec {
        KeySpec::Columns(columns.to_vec())
    }
    fn agent(trace: &Trace) -> &TraceAgent<Self> {
        let Trace::Rows(agent) = trace else {
            unreachable!("a column keying is published as a RowBatch trace")
        };
        agent
    }
    fn imports<'r>(renderer: &'r Renderer<'_>) -> &'r Imports<Self> {
        &renderer.imported
    }
    /// Fusions: a join — bare or under a pure column projection — that feeds an
    /// arrangement emits `(key, rest)` pairs straight from the join logic, so the
    /// intermediate concatenated row, the projection operator, and the re-splitting map
    /// are never materialized. Multi-stage plans (2-hop, path queries) spend most of
    /// their per-update work in exactly this shape.
    fn arrange_inline(
        renderer: &Renderer<'_>,
        builder: &mut DataflowBuilder,
        plan: &Plan,
        columns: &[usize],
        scope: &Scope<'_>,
    ) -> Arranged<Self> {
        match plan {
            Plan::Join {
                left,
                right,
                keys: join_keys,
            } => return renderer.join_pairs(builder, left, right, join_keys, scope, None, columns),
            Plan::Map { input, exprs } => {
                if let Plan::Join {
                    left,
                    right,
                    keys: join_keys,
                } = input.as_ref()
                {
                    if let Some(projection) = column_indices(exprs) {
                        return renderer.join_pairs(
                            builder,
                            left,
                            right,
                            join_keys,
                            scope,
                            Some(&projection),
                            columns,
                        );
                    }
                }
            }
            // A reduce keyed by its own grouping columns *is* its output arrangement
            // (§5.3.2 "Output arrangements"): no second copy, no arrange operator.
            Plan::Reduce {
                input,
                key_arity,
                kind,
            } if columns.iter().copied().eq(0..*key_arity) => {
                return renderer.reduced(builder, input, *key_arity, kind, scope)
            }
            _ => {}
        }
        let collection = renderer.collection(builder, plan, scope);
        let keys = Self::spec(columns);
        collection
            .map(move |row| keys.split(row))
            .arrange_by_key_named("PlanArrange", MergeEffort::Default)
    }
}

/// `KeySpec::SelfRow`: rows keyed by themselves, which leaves nothing to say.
impl PlanBatch for RowKeyBatch {
    type Keys = ();
    fn spec(_: &()) -> KeySpec {
        KeySpec::SelfRow
    }
    fn agent(trace: &Trace) -> &TraceAgent<Self> {
        let Trace::SelfRow(agent) = trace else {
            unreachable!("a self keying is published as a RowKeyBatch trace")
        };
        agent
    }
    fn imports<'r>(renderer: &'r Renderer<'_>) -> &'r Imports<Self> {
        &renderer.imported_self
    }
    /// The join/projection fusions live in [`Renderer::collection`], so a `Distinct`
    /// over a (projected) join still materializes only the final row per match.
    fn arrange_inline(
        renderer: &Renderer<'_>,
        builder: &mut DataflowBuilder,
        plan: &Plan,
        _: &(),
        scope: &Scope<'_>,
    ) -> Arranged<Self> {
        // A distinct, whose output is keyed by whole rows, is likewise its own
        // arrangement.
        if let Plan::Distinct(input) = plan {
            return renderer.distinct(builder, input, scope);
        }
        let collection = renderer.collection(builder, plan, scope);
        collection.arrange_by_self_named("PlanArrangeSelf", MergeEffort::Default)
    }
}

/// Renders `plan` arranged the way `keys` says, in the dataflow under construction, and
/// returns the arrangement's probe and its trace handle, for the registry to hold. Every
/// kind of plan state — input bases, memoized sub-plans, query results — is built here,
/// and here is where a [`KeySpec`] picks the batch type. `traces` holds the registry
/// handles the plan imports: each entry it reads by key, and the base of each shared
/// input it reads as rows, whose key `sources` gives by input name. `locals` are the
/// query-local inputs, created inside the dataflow.
pub(crate) fn publish(
    builder: &mut DataflowBuilder,
    plan: &Plan,
    keys: &KeySpec,
    traces: BTreeMap<&ArrangeKey, &Trace>,
    sources: BTreeMap<String, &ArrangeKey>,
    locals: BTreeMap<String, Collection<Row>>,
) -> (ProbeHandle, Trace) {
    let renderer = &Renderer {
        traces,
        sources,
        local_names: locals.keys().cloned().collect(),
        locals,
        imported: RefCell::default(),
        imported_self: RefCell::default(),
    };
    match keys {
        KeySpec::Columns(columns) => {
            let arranged = RowBatch::arrange_inline(renderer, builder, plan, columns, &ROOT);
            (arranged.probe(), Trace::Rows(arranged.trace))
        }
        KeySpec::SelfRow => {
            let arranged = RowKeyBatch::arrange_inline(renderer, builder, plan, &(), &ROOT);
            (arranged.probe(), Trace::SelfRow(arranged.trace))
        }
    }
}

impl Renderer<'_> {
    /// Imports the registry entry for `key` at `depth`, reusing a previous import of the
    /// same entry at the same depth.
    fn import<B: PlanBatch>(
        &self,
        builder: &mut DataflowBuilder,
        key: &ArrangeKey,
        depth: usize,
    ) -> Arranged<B> {
        let cached = (key.clone(), depth);
        if let Some(imported) = B::imports(self).borrow().get(&cached) {
            return imported.clone();
        }
        let trace = self.traces.get(key);
        let trace =
            trace.unwrap_or_else(|| panic!("arrangement for {key:?} was not pre-installed"));
        let mut imported = B::agent(trace).import(builder);
        for _ in 0..depth {
            imported = imported.enter();
        }
        B::imports(self)
            .borrow_mut()
            .insert(cached, imported.clone());
        imported
    }

    fn collection(
        &self,
        builder: &mut DataflowBuilder,
        plan: &Plan,
        scope: &Scope<'_>,
    ) -> Collection<Row> {
        match plan {
            Plan::Source(name) => {
                if let Some(local) = self.locals.get(name) {
                    let mut local = local.clone();
                    for _ in 0..scope.depth {
                        local = local.enter();
                    }
                    local
                } else {
                    let base = self
                        .sources
                        .get(name)
                        .unwrap_or_else(|| panic!("source {name:?} was not validated"));
                    match base.keys {
                        KeySpec::SelfRow => self
                            .import::<RowKeyBatch>(builder, base, scope.depth)
                            .as_collection(|key, _| key.clone()),
                        // Prefix-keyed bases: the original row is key ++ rest.
                        KeySpec::Columns(_) => self
                            .import::<RowBatch>(builder, base, scope.depth)
                            .as_collection(|key, rest| concat_rows(key, rest, &[])),
                    }
                }
            }
            Plan::Recur => scope
                .recur
                .expect("Recur outside an Iterate body survived validation")
                .clone(),
            Plan::Map { input, exprs } => {
                // Projection fusion: a pure column projection over a join is emitted
                // straight from the join logic, materializing only the projected row.
                if let Plan::Join { left, right, keys } = input.as_ref() {
                    if let Some(columns) = column_indices(exprs) {
                        let (left, right) = self.join_sides(builder, left, right, keys, scope);
                        return left.join_core(&right, move |k: &Row, l: &Row, r: &Row| {
                            whole_segment(&columns, k, l, r).unwrap_or_else(|| {
                                columns
                                    .iter()
                                    .map(|&i| segment(k, l, r, i).clone())
                                    .collect()
                            })
                        });
                    }
                }
                let input = self.collection(builder, input, scope);
                let exprs = exprs.clone();
                input.map(move |row| project(&exprs, &row))
            }
            Plan::Filter { input, predicate } => {
                let input = self.collection(builder, input, scope);
                let predicate = predicate.clone();
                input.filter(move |row| predicate.test(row))
            }
            Plan::Negate(input) => self.collection(builder, input, scope).negate(),
            Plan::Concat(plans) => {
                let mut rendered = plans
                    .iter()
                    .map(|plan| self.collection(builder, plan, scope));
                let first = rendered.next().expect("Concat of at least one plan");
                first.concatenate(rendered.collect::<Vec<_>>())
            }
            Plan::Join { left, right, keys } => {
                let (left, right) = self.join_sides(builder, left, right, keys, scope);
                left.join_core(&right, |key: &Row, left_rest: &Row, right_rest: &Row| {
                    concat_rows(key, left_rest, right_rest)
                })
            }
            Plan::Reduce {
                input,
                key_arity,
                kind,
            } => self
                .reduced(builder, input, *key_arity, kind, scope)
                .as_collection(|key, val| concat_rows(key, val, &[])),
            Plan::Distinct(input) => self
                .distinct(builder, input, scope)
                .as_collection(|key, _| key.clone()),
            Plan::Iterate { seed, body } => {
                let seed = self.collection(builder, seed, scope);
                seed.iterate(|variable| {
                    let inner = Scope {
                        recur: Some(variable),
                        depth: scope.depth + 1,
                    };
                    self.collection(builder, body, &inner)
                })
            }
        }
    }

    /// `input` grouped by its first `key_arity` columns and reduced by `kind`: the
    /// reduce operator's own output arrangement, keyed by the grouping columns with the
    /// aggregate as the value.
    fn reduced(
        &self,
        builder: &mut DataflowBuilder,
        input: &Plan,
        key_arity: usize,
        kind: &ReduceKind,
        scope: &Scope<'_>,
    ) -> Arranged<RowBatch> {
        let columns: Vec<usize> = (0..key_arity).collect();
        let arranged = self.arranged::<RowBatch>(builder, input, &columns, scope);
        match kind.clone() {
            // `Arranged::count` picks the operator by scope: in the streaming scope it
            // reads its own output and never the shared input trace.
            ReduceKind::Count => arranged.count(
                "PlanCount",
                |count: &isize| Row::from(vec![Value::Int(*count as i64)]),
                |row: &Row| row[0].as_i64() as isize,
            ),
            ReduceKind::Sum(column) => {
                let index = column - key_arity;
                arranged.reduce_core(
                    "PlanSum",
                    move |_key, input, output: &mut Vec<(Row, isize)>| {
                        let sum: i64 = input
                            .iter()
                            .map(|(val, diff)| {
                                val[index]
                                    .as_i64()
                                    .checked_mul(*diff as i64)
                                    .expect("Sum overflow")
                            })
                            .fold(0i64, |acc, term| {
                                acc.checked_add(term).expect("Sum overflow")
                            });
                        output.push((Row::from(vec![Value::Int(sum)]), 1));
                    },
                )
            }
            ReduceKind::Min(column) => {
                let index = column - key_arity;
                arranged.reduce_core(
                    "PlanMin",
                    move |_key, input, output: &mut Vec<(Row, isize)>| {
                        let min = input
                            .iter()
                            .filter(|(_, diff)| *diff > 0)
                            .map(|(val, _)| &val[index])
                            .min();
                        if let Some(min) = min {
                            output.push((Row::from(vec![min.clone()]), 1));
                        }
                    },
                )
            }
            ReduceKind::Top(column) => {
                let index = column - key_arity;
                arranged.reduce_core(
                    "PlanTop",
                    move |_key, input, output: &mut Vec<(Row, isize)>| {
                        let best = input
                            .iter()
                            .filter(|(_, diff)| *diff > 0)
                            .max_by_key(|(val, _)| (&val[index], *val));
                        if let Some((best, _)) = best {
                            output.push(((*best).clone(), 1));
                        }
                    },
                )
            }
        }
    }

    /// `input` with set semantics: the distinct operator's own output arrangement.
    fn distinct(
        &self,
        builder: &mut DataflowBuilder,
        input: &Plan,
        scope: &Scope<'_>,
    ) -> Arranged<RowKeyBatch> {
        self.arranged::<RowKeyBatch>(builder, input, &(), scope)
            .reduce_core(
                "PlanDistinct",
                |_key, input, output: &mut Vec<((), isize)>| {
                    if input[0].1 > 0 {
                        output.push(((), 1));
                    }
                },
            )
    }

    /// An arranged rendering of `plan` keyed by `keys`: imported from the shared
    /// arrangement registered for exactly that when the sub-tree reads only shared
    /// state, arranged privately inline when it is bound to the loop variable or a
    /// query-local input.
    fn arranged<B: PlanBatch>(
        &self,
        builder: &mut DataflowBuilder,
        plan: &Plan,
        keys: &B::Keys,
        scope: &Scope<'_>,
    ) -> Arranged<B> {
        if plan.is_inline(&self.local_names) {
            return B::arrange_inline(self, builder, plan, keys, scope);
        }
        let key = ArrangeKey {
            plan: plan.clone(),
            keys: B::spec(keys),
        };
        self.import(builder, &key, scope.depth)
    }

    /// The two arranged sides of a join.
    fn join_sides(
        &self,
        builder: &mut DataflowBuilder,
        left: &Plan,
        right: &Plan,
        join_keys: &[(usize, usize)],
        scope: &Scope<'_>,
    ) -> (Arranged<RowBatch>, Arranged<RowBatch>) {
        let left_keys: Vec<usize> = join_keys.iter().map(|&(l, _)| l).collect();
        let right_keys: Vec<usize> = join_keys.iter().map(|&(_, r)| r).collect();
        let left = self.arranged::<RowBatch>(builder, left, &left_keys, scope);
        let right = self.arranged::<RowBatch>(builder, right, &right_keys, scope);
        (left, right)
    }

    /// Renders `left ⋈ right` emitting `(key, rest)` pairs keyed by `columns` directly
    /// from the join logic, optionally through a pure column `projection` of the join
    /// output.
    #[allow(clippy::too_many_arguments)]
    fn join_pairs(
        &self,
        builder: &mut DataflowBuilder,
        left: &Plan,
        right: &Plan,
        join_keys: &[(usize, usize)],
        scope: &Scope<'_>,
        projection: Option<&[usize]>,
        columns: &[usize],
    ) -> Arranged<RowBatch> {
        let (left, right) = self.join_sides(builder, left, right, join_keys, scope);
        // The key picks (and, under a projection, the rest picks too) are constants of
        // the operator: resolve them into virtual-row index lists once, outside the
        // per-match closure. Only the projection-less rest picks depend on per-record
        // arities; those fill a scratch vector owned by the closure (capacity retained),
        // so steady-state emissions allocate nothing beyond the rows themselves.
        let key_picks: Vec<usize> = match projection {
            Some(projected) => columns.iter().map(|&column| projected[column]).collect(),
            None => columns.to_vec(),
        };
        let rest_picks: Option<Vec<usize>> = projection.map(|projected| {
            (0..projected.len())
                .filter(|index| !columns.contains(index))
                .map(|index| projected[index])
                .collect()
        });
        let columns = columns.to_vec();
        let mut rest_scratch: Vec<usize> = Vec::new();
        left.join_core(&right, move |k: &Row, l: &Row, r: &Row| {
            // The virtual output row is key ++ l ++ r, seen through the projection.
            let pick = |picked: &[usize]| -> Row {
                whole_segment(picked, k, l, r).unwrap_or_else(|| {
                    picked
                        .iter()
                        .map(|&index| segment(k, l, r, index).clone())
                        .collect()
                })
            };
            let key = pick(&key_picks);
            let rest = match &rest_picks {
                Some(picked) => pick(picked),
                None => {
                    let arity = k.len() + l.len() + r.len();
                    rest_scratch.clear();
                    rest_scratch.extend((0..arity).filter(|index| !columns.contains(index)));
                    pick(&rest_scratch)
                }
            };
            (key, rest)
        })
        .arrange_by_key_named("PlanArrange", MergeEffort::Default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders `plan` over one local input `rows` in a dataflow of its own and returns
    /// the index of the node carrying the root arrangement. Nodes are numbered in
    /// construction order, so it counts the operators the rendering built before it.
    fn root_node(worker: &mut Worker, plan: &Plan, keys: &KeySpec) -> usize {
        worker.dataflow(|builder| {
            let (_input, rows) = new_collection::<Row, isize>(builder);
            let locals = BTreeMap::from([("rows".to_string(), rows)]);
            let renderer = Renderer {
                traces: BTreeMap::new(),
                sources: BTreeMap::new(),
                local_names: locals.keys().cloned().collect(),
                locals,
                imported: RefCell::default(),
                imported_self: RefCell::default(),
            };
            let node = match keys {
                KeySpec::Columns(columns) => {
                    RowBatch::arrange_inline(&renderer, builder, plan, columns, &ROOT).node()
                }
                KeySpec::SelfRow => {
                    RowKeyBatch::arrange_inline(&renderer, builder, plan, &(), &ROOT).node()
                }
            };
            node.0
        })
    }

    /// A `Reduce` or `Distinct` root keyed the way its operator keys its output is that
    /// operator's own arrangement: exactly one node past its input's arrangement, with
    /// no exchange or arrange operator behind it. Keyed any other way it is re-arranged.
    #[test]
    fn reduce_and_distinct_roots_are_their_operators_own_arrangements() {
        execute(Config::new(1), |worker| {
            let rows = Plan::source("rows");
            let counted = rows.clone().reduce(1, ReduceKind::Count);
            let by_first = KeySpec::Columns(vec![0]);
            let input = root_node(worker, &rows, &by_first);
            let reduce = root_node(worker, &counted, &by_first);
            assert_eq!(reduce, input + 1);

            let input = root_node(worker, &rows, &KeySpec::SelfRow);
            let distinct = root_node(worker, &rows.distinct(), &KeySpec::SelfRow);
            assert_eq!(distinct, input + 1);

            let by_count = KeySpec::Columns(vec![1]);
            let rekeyed = root_node(worker, &counted, &by_count);
            assert!(rekeyed > reduce + 1, "{rekeyed} vs {reduce}");
        });
    }
}
