//! Sharing never changes answers: seeded random plans, installed and retired at random
//! epochs over a stream of updates and retractions, answer exactly what a naive
//! evaluator computes from scratch — whether the queries share one manager's registry
//! (on one worker and on two) or each runs in a manager of its own.
//!
//! Plans are well-typed trees over three shared sources of fixed arity: `Map`, `Filter`,
//! `Join` (self-joins among them), every `ReduceKind`, `Distinct`, `Concat` and
//! `Negate`, with sub-plans drawn again from a per-case pool so that queries share
//! memos. A query installed late imports traces that have compacted; an uninstalled one
//! may leave memos its survivors still read. Odd seeds name the queries `plan-memo-N`,
//! names that must block no dataflow the manager builds.
//!
//! Two queries in three also read one or two query-local inputs, which the stream
//! updates between epochs like the shared ones. The evaluator scopes a local to its
//! query: it starts empty at the install and its rows go with the uninstall, after which
//! an update to it is refused (`unknown-input`) and a later query may take the name
//! afresh. An install naming a local that is a live input — another live query's local,
//! or a shared source — is refused (`duplicate-input`) and must leave no state: the next
//! install of the same query under the same name succeeds. The case count is `CASES`,
//! overridable with `KPG_MODEL_CASES`; a failure prints its seed.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use kpg_plan::{replay, Command, Expr, Plan, ReduceKind, Response, Row, Value};
use kpg_timestamp::rng::SmallRng;

const CASES: u64 = 48;

/// The sources: name, row arity and how the base is keyed (`CreateInput`'s
/// `key_arity`), so bases come keyed by a prefix and by whole rows.
const SOURCES: [(&str, usize, Option<usize>); 3] =
    [("a", 2, Some(1)), ("b", 2, None), ("c", 3, Some(1))];

/// The query-local inputs a query may read: name and row arity. Queries draw from one
/// set of names, so a name outlives its first owner and two live queries may want it.
const LOCALS: [(&str, usize); 3] = [("u", 1), ("v", 2), ("w", 1)];

/// Column values are drawn below this, so joins and groups find partners.
const VALUES: u64 = 4;

const EPOCHS: u64 = 8;

const QUERIES: usize = 4;

fn cases() -> u64 {
    std::env::var("KPG_MODEL_CASES")
        .ok()
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(CASES)
}

/// A multiset of rows: the naive evaluator's collections.
type Bag = BTreeMap<Row, isize>;

fn add(bag: &mut Bag, row: Row, diff: isize) {
    match bag.entry(row) {
        Entry::Occupied(mut entry) => {
            *entry.get_mut() += diff;
            if *entry.get() == 0 {
                entry.remove();
            }
        }
        Entry::Vacant(entry) => {
            entry.insert(diff);
        }
    }
}

/// Evaluates `plan` from scratch over `inputs`, mirroring the render pass: a join's
/// output is its key columns then each side's other columns; Count drops zero counts,
/// Sum keeps a zero sum, and Min, Top and Distinct read positive multiplicities only.
fn evaluate(plan: &Plan, inputs: &BTreeMap<String, Bag>) -> Bag {
    let mut out = Bag::new();
    match plan {
        Plan::Source(name) => return inputs[name].clone(),
        Plan::Map { input, exprs } => {
            for (row, diff) in evaluate(input, inputs) {
                add(&mut out, kpg_plan::project(exprs, &row), diff);
            }
        }
        Plan::Filter { input, predicate } => {
            let input = evaluate(input, inputs);
            out.extend(input.into_iter().filter(|(row, _)| predicate.test(row)));
        }
        Plan::Join { left, right, keys } => {
            let (left, right) = (evaluate(left, inputs), evaluate(right, inputs));
            let split = |row: &Row, columns: &[usize]| -> (Vec<Value>, Vec<Value>) {
                let key = columns.iter().map(|&column| row[column].clone()).collect();
                let rest = (0..row.len()).filter(|column| !columns.contains(column));
                (key, rest.map(|column| row[column].clone()).collect())
            };
            let left_columns: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
            let right_columns: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
            let mut by_key: BTreeMap<Vec<Value>, Vec<(Vec<Value>, isize)>> = BTreeMap::new();
            for (row, diff) in &right {
                let (key, rest) = split(row, &right_columns);
                by_key.entry(key).or_default().push((rest, *diff));
            }
            for (row, diff) in &left {
                let (key, rest) = split(row, &left_columns);
                for (other, other_diff) in by_key.get(&key).into_iter().flatten() {
                    let joined = key.iter().chain(&rest).chain(other).cloned().collect();
                    add(&mut out, joined, diff * other_diff);
                }
            }
        }
        Plan::Reduce {
            input,
            key_arity,
            kind,
        } => {
            let mut groups: BTreeMap<Vec<Value>, Vec<(Vec<Value>, isize)>> = BTreeMap::new();
            for (row, diff) in evaluate(input, inputs) {
                let (key, val) = row.split_at(*key_arity);
                groups
                    .entry(key.to_vec())
                    .or_default()
                    .push((val.to_vec(), diff));
            }
            for (key, vals) in groups {
                let present = vals.iter().filter(|(_, diff)| *diff > 0);
                let aggregate: Option<Vec<Value>> = match *kind {
                    ReduceKind::Count => {
                        let total: isize = vals.iter().map(|(_, diff)| diff).sum();
                        (total != 0).then(|| vec![Value::Int(total as i64)])
                    }
                    ReduceKind::Sum(column) => {
                        let terms = vals
                            .iter()
                            .map(|(val, diff)| val[column - key_arity].as_i64() * *diff as i64);
                        Some(vec![Value::Int(terms.sum())])
                    }
                    ReduceKind::Min(column) => {
                        let min = present.map(|(val, _)| &val[column - key_arity]).min();
                        min.map(|min| vec![min.clone()])
                    }
                    ReduceKind::Top(column) => {
                        let top = present.max_by_key(|(val, _)| (&val[column - key_arity], val));
                        top.map(|(val, _)| val.clone())
                    }
                };
                if let Some(aggregate) = aggregate {
                    add(&mut out, key.into_iter().chain(aggregate).collect(), 1);
                }
            }
        }
        Plan::Distinct(input) => {
            let input = evaluate(input, inputs).into_iter();
            out.extend(input.filter(|(_, diff)| *diff > 0).map(|(row, _)| (row, 1)));
        }
        Plan::Concat(plans) => {
            for (row, diff) in plans.iter().flat_map(|plan| evaluate(plan, inputs)) {
                add(&mut out, row, diff);
            }
        }
        Plan::Negate(input) => {
            out.extend(
                evaluate(input, inputs)
                    .into_iter()
                    .map(|(row, diff)| (row, -diff)),
            );
        }
        Plan::Iterate { .. } | Plan::Recur => unreachable!("the generator draws no loops"),
    }
    out
}

/// Draws well-typed plans, keeping every sub-plan it draws so that later draws can
/// reuse it whole — the shared sub-plans a registry memoizes once.
struct Generator {
    rng: SmallRng,
    pool: Vec<(Plan, usize)>,
    /// The locals the query being drawn may read.
    locals: Vec<(&'static str, usize)>,
}

impl Generator {
    fn below(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound)
    }

    /// `count` distinct columns below `arity`, in random order.
    fn columns(&mut self, count: usize, arity: usize) -> Vec<usize> {
        let mut columns: Vec<usize> = (0..arity).collect();
        for index in 0..count {
            let swap = index + self.below(arity - index);
            columns.swap(index, swap);
        }
        columns.truncate(count);
        columns
    }

    /// A query: a plan over the shared sources and the locals it names, each of which
    /// it reads.
    fn query(&mut self) -> (Plan, Vec<String>) {
        // A pooled sub-plan that reads a local belongs to the query it was drawn for.
        let local_names = LOCALS.iter().map(|(name, _)| name.to_string()).collect();
        self.pool
            .retain(|(plan, _)| !plan.mentions_source(&local_names));
        let count = self.below(3);
        let picks = self.columns(count, LOCALS.len());
        self.locals = picks.into_iter().map(|index| LOCALS[index]).collect();
        let (mut plan, arity) = self.plan(3);
        let mut read = BTreeSet::new();
        plan.sources(&mut read);
        for (name, local_arity) in std::mem::take(&mut self.locals) {
            if !read.contains(name) {
                let padded = (0..arity).map(|i| Expr::col(i % local_arity)).collect();
                plan = plan.concat(Plan::source(name).map(padded));
            }
            read.insert(name.to_string());
        }
        let locals = read.into_iter().filter(|name| local_names.contains(name));
        (plan, locals.collect())
    }

    /// A plan and the arity of its rows.
    fn plan(&mut self, depth: usize) -> (Plan, usize) {
        if !self.pool.is_empty() && self.below(4) == 0 {
            let index = self.below(self.pool.len());
            return self.pool[index].clone();
        }
        if depth == 0 || self.below(6) == 0 {
            if !self.locals.is_empty() && self.below(3) == 0 {
                let pick = self.below(self.locals.len());
                let (name, arity) = self.locals[pick];
                return (Plan::source(name), arity);
            }
            let (name, arity, _) = SOURCES[self.below(SOURCES.len())];
            return (Plan::source(name), arity);
        }
        let (plan, arity) = match self.below(8) {
            0 => {
                let (input, arity) = self.plan(depth - 1);
                let width = 1 + self.below(3);
                let exprs = (0..width).map(|_| match self.below(4) {
                    0 => Expr::col(self.below(arity)).add(Expr::lit(1u64)),
                    _ => Expr::col(self.below(arity)),
                });
                let exprs: Vec<Expr> = exprs.collect();
                (input.map(exprs), width)
            }
            1 => {
                let (input, arity) = self.plan(depth - 1);
                let column = Expr::col(self.below(arity));
                let predicate = match self.below(2) {
                    0 => column.lt(Expr::lit(1 + self.below(VALUES as usize - 1) as u64)),
                    _ => column.ne(Expr::col(self.below(arity))),
                };
                (input.filter(predicate), arity)
            }
            2 | 3 => {
                let (left, left_arity) = self.plan(depth - 1);
                let (right, right_arity) = match self.below(4) {
                    0 => (left.clone(), left_arity),
                    _ => self.plan(depth - 1),
                };
                let width = 1 + self.below(left_arity.min(right_arity).min(2));
                let left_keys = self.columns(width, left_arity);
                let right_keys = self.columns(width, right_arity);
                let keys = left_keys.into_iter().zip(right_keys).collect();
                let joined = left.join(right, keys);
                let arity = left_arity + right_arity - width;
                // Wide joins are projected back down, the fused shape renders take.
                if arity > 4 {
                    let kept = self.columns(3, arity).into_iter().map(Expr::col);
                    (joined.map(kept.collect()), 3)
                } else {
                    (joined, arity)
                }
            }
            4 => {
                let (input, arity) = self.plan(depth - 1);
                let key_arity = self.below(arity.min(2) + 1);
                let column = key_arity + self.below((arity - key_arity).max(1));
                let kind = match self.below(4) {
                    _ if key_arity == arity => ReduceKind::Count,
                    0 => ReduceKind::Count,
                    1 => ReduceKind::Sum(column),
                    2 => ReduceKind::Min(column),
                    _ => ReduceKind::Top(column),
                };
                let arity = match kind {
                    ReduceKind::Top(_) => arity,
                    _ => key_arity + 1,
                };
                (input.reduce(key_arity, kind), arity)
            }
            5 => {
                let (input, arity) = self.plan(depth - 1);
                (input.distinct(), arity)
            }
            6 => {
                let (first, arity) = self.plan(depth - 1);
                let (second, second_arity) = self.plan(depth - 1);
                let second = if second_arity == arity {
                    second
                } else {
                    second.map((0..arity).map(|i| Expr::col(i % second_arity)).collect())
                };
                (first.concat(second), arity)
            }
            _ => {
                let (input, arity) = self.plan(depth - 1);
                (input.negate(), arity)
            }
        };
        self.pool.push((plan.clone(), arity));
        (plan, arity)
    }
}

/// Which replays a step belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scope {
    /// Every replay: the shared inputs and time.
    All,
    /// The replays holding query `i`: its lifecycle, its queries, its locals' updates.
    Query(usize),
    /// Only the replays holding every query: refusals that other queries cause.
    Together,
}

/// What a step must answer.
#[derive(Clone, Debug)]
enum Expected {
    /// Any success but rows; an uninstall finds its query.
    Done,
    Rows(Vec<(Row, isize)>),
    /// A refusal, by its wire code.
    Refused(&'static str),
}

struct Step {
    command: Command,
    scope: Scope,
    expected: Expected,
}

/// What happens at one point of an epoch, resolved in stream order.
enum Event {
    Update,
    Install(usize),
    Uninstall(usize),
    Query(usize),
}

/// One case: the steps of its command stream.
fn case(seed: u64) -> Vec<Step> {
    let mut generator = Generator {
        rng: SmallRng::seed_from_u64(seed),
        pool: Vec::new(),
        locals: Vec::new(),
    };
    let name = |index: usize| match seed % 2 {
        0 => format!("q{index}"),
        _ => format!("plan-memo-{}", index + 1),
    };
    let queries: Vec<(String, Plan, Vec<String>)> = (0..QUERIES)
        .map(|index| {
            let (plan, locals) = generator.query();
            (name(index), plan, locals)
        })
        .collect();
    let rng = &mut generator.rng;
    // Per query, the epochs it is installed and (maybe) uninstalled at.
    let lifetimes: Vec<(u64, Option<u64>)> = queries
        .iter()
        .map(|_| {
            let installed = rng.gen_range(0..EPOCHS - 1);
            let retired = installed + 1 + rng.gen_range(0..EPOCHS);
            (installed, (retired < EPOCHS).then_some(retired))
        })
        .collect();

    let mut steps: Vec<Step> = SOURCES
        .iter()
        .map(|&(name, _, key_arity)| Step {
            command: Command::CreateInput {
                name: name.into(),
                key_arity,
            },
            scope: Scope::All,
            expected: Expected::Done,
        })
        .collect();
    // Every live input's rows, now and as the last `AdvanceTime` sealed them; a
    // query-local one from its query's install to its uninstall.
    let mut current: BTreeMap<String, Bag> = SOURCES
        .iter()
        .map(|&(name, ..)| (name.to_string(), Bag::new()))
        .collect();
    let mut sealed = current.clone();
    // The query holding each live local, and the locals whose query has gone.
    let mut owners: BTreeMap<String, usize> = BTreeMap::new();
    let mut departed: BTreeSet<String> = BTreeSet::new();
    let mut live = vec![false; queries.len()];
    for epoch in 0..EPOCHS {
        let mut events: Vec<Event> = (0..rng.gen_range(6..16)).map(|_| Event::Update).collect();
        for (index, &(installed, retired)) in lifetimes.iter().enumerate() {
            let at = rng.gen_range(0..=events.len());
            if installed == epoch {
                events.insert(at, Event::Install(index));
            } else if retired == Some(epoch) {
                events.insert(at, Event::Uninstall(index));
            } else {
                // A query mid-epoch reads what the last `AdvanceTime` sealed.
                events.insert(at, Event::Query(index));
            }
        }
        for event in events {
            match event {
                Event::Update => {
                    let local = (!owners.is_empty() && rng.gen_range(0..3) == 0)
                        .then(|| owners.keys().nth(rng.gen_range(0..owners.len())).unwrap());
                    let (name, scope) = match local {
                        Some(local) => (local.clone(), Scope::Query(owners[local])),
                        None if !departed.is_empty() && rng.gen_range(0..8) == 0 => {
                            let gone = departed.iter().nth(rng.gen_range(0..departed.len()));
                            let name = gone.unwrap().clone();
                            let row = Row::from(vec![Value::UInt(0); arity_of(&name)]);
                            steps.push(Step {
                                command: Command::Update { name, row, diff: 1 },
                                scope: Scope::Together,
                                expected: Expected::Refused("unknown-input"),
                            });
                            continue;
                        }
                        None => {
                            let (name, ..) = SOURCES[rng.gen_range(0..SOURCES.len())];
                            (name.to_string(), Scope::All)
                        }
                    };
                    let rows: Vec<&Row> = current[&name].keys().collect();
                    // Mostly insertions; a retraction takes back a present row.
                    let (row, diff) = if !rows.is_empty() && rng.gen_range(0..3) == 0 {
                        (rows[rng.gen_range(0..rows.len())].clone(), -1)
                    } else {
                        let row =
                            (0..arity_of(&name)).map(|_| Value::UInt(rng.gen_range(0..VALUES)));
                        (row.collect::<Row>(), 1)
                    };
                    add(current.get_mut(&name).unwrap(), row.clone(), diff);
                    steps.push(Step {
                        command: Command::Update { name, row, diff },
                        scope,
                        expected: Expected::Done,
                    });
                }
                Event::Install(index) => {
                    let (name, plan, locals) = &queries[index];
                    let install = |locals: Vec<String>| Command::Install {
                        name: name.clone(),
                        plan: plan.clone(),
                        locals,
                    };
                    let refused = |command| Step {
                        command,
                        scope: Scope::Together,
                        expected: Expected::Refused("duplicate-input"),
                    };
                    // A query refused here is never retried.
                    if locals.iter().any(|local| owners.contains_key(local)) {
                        steps.push(refused(install(locals.clone())));
                        continue;
                    }
                    // Now and then the install first names a shared source as a local too.
                    if rng.gen_range(0..4) == 0 {
                        let mut colliding = locals.clone();
                        colliding.push(SOURCES[rng.gen_range(0..SOURCES.len())].0.into());
                        steps.push(refused(install(colliding)));
                    }
                    for local in locals {
                        departed.remove(local);
                        owners.insert(local.clone(), index);
                        current.insert(local.clone(), Bag::new());
                        sealed.insert(local.clone(), Bag::new());
                    }
                    steps.push(Step {
                        command: install(locals.clone()),
                        scope: Scope::Query(index),
                        expected: Expected::Done,
                    });
                    live[index] = true;
                }
                Event::Uninstall(index) if live[index] => {
                    for local in &queries[index].2 {
                        owners.remove(local);
                        current.remove(local);
                        sealed.remove(local);
                        departed.insert(local.clone());
                    }
                    steps.push(Step {
                        command: Command::Uninstall {
                            name: queries[index].0.clone(),
                        },
                        scope: Scope::Query(index),
                        expected: Expected::Done,
                    });
                    live[index] = false;
                }
                Event::Query(index) if live[index] => {
                    let (name, plan, _) = &queries[index];
                    steps.push(Step {
                        command: Command::Query { name: name.clone() },
                        scope: Scope::Query(index),
                        expected: Expected::Rows(evaluate(plan, &sealed).into_iter().collect()),
                    });
                }
                Event::Uninstall(_) | Event::Query(_) => {}
            }
        }
        steps.push(Step {
            command: Command::AdvanceTime { epoch: epoch + 1 },
            scope: Scope::All,
            expected: Expected::Done,
        });
        sealed = current.clone();
        for (index, (name, plan, _)) in queries.iter().enumerate() {
            if live[index] {
                steps.push(Step {
                    command: Command::Query { name: name.clone() },
                    scope: Scope::Query(index),
                    expected: Expected::Rows(evaluate(plan, &sealed).into_iter().collect()),
                });
            }
        }
    }
    steps
}

/// The row arity of a shared source or a local.
fn arity_of(name: &str) -> usize {
    let shared = SOURCES.iter().map(|&(source, arity, _)| (source, arity));
    let mut inputs = shared.chain(LOCALS);
    inputs.find(|(input, _)| *input == name).unwrap().1
}

/// Replays `steps` on `workers` workers and checks every command's outcome.
fn check(workers: usize, label: &str, steps: &[&Step]) {
    let stream = steps.iter().map(|step| step.command.clone()).collect();
    let outcomes = replay(workers, stream).outcomes;
    for (step, (outcome, _)) in steps.iter().zip(outcomes) {
        let command = &step.command;
        match (outcome, &step.expected) {
            (Ok(Response::Rows(rows)), Expected::Rows(expected)) => {
                assert_eq!(&rows, expected, "{label}: {command:?}");
            }
            (Ok(Response::Installed { .. } | Response::Done), Expected::Done) => {}
            (Ok(Response::Uninstalled { existed }), Expected::Done) => {
                assert!(existed, "{label}: {command:?}");
            }
            (Err(error), Expected::Refused(code)) => {
                assert_eq!(error.code(), *code, "{label}: {command:?}: {error}");
            }
            (outcome, expected) => {
                panic!("{label}: {command:?} answered {outcome:?}, not {expected:?}")
            }
        }
    }
}

/// Replays one case shared at one worker and at two, and each of its queries alone.
fn run(seed: u64) -> Vec<Step> {
    let steps = case(seed);
    let queries = steps
        .iter()
        .filter(|step| matches!(step.expected, Expected::Rows(_)));
    assert!(queries.count() > 0, "the case queries nothing");
    let together: Vec<&Step> = steps.iter().collect();
    check(1, "1 worker", &together);
    check(2, "2 workers", &together);
    // Each query alone in a manager of its own: the shared inputs' history, and only
    // its own install, locals, queries and uninstall.
    for index in 0..QUERIES {
        let alone = steps
            .iter()
            .filter(|step| [Scope::All, Scope::Query(index)].contains(&step.scope));
        let alone: Vec<&Step> = alone.collect();
        if alone.iter().any(|step| step.scope == Scope::Query(index)) {
            check(1, &format!("query {index} alone"), &alone);
        }
    }
    steps
}

/// How often `steps` took each path through a local: an install naming one, an
/// install taking a name an earlier query held, a refused install, and an update
/// refused because its query had gone.
fn local_paths(steps: &[Step]) -> [usize; 4] {
    let mut paths = [0; 4];
    let mut taken = BTreeSet::new();
    for step in steps {
        match (&step.command, &step.expected) {
            (Command::Install { locals, .. }, Expected::Done) => {
                paths[0] += usize::from(!locals.is_empty());
                paths[1] += locals.iter().filter(|local| !taken.insert(*local)).count();
            }
            (_, Expected::Refused("duplicate-input")) => paths[2] += 1,
            (_, Expected::Refused("unknown-input")) => paths[3] += 1,
            _ => {}
        }
    }
    paths
}

#[test]
fn shared_and_private_plans_answer_as_the_naive_evaluator() {
    let mut paths = [0; 4];
    for index in 0..cases() {
        let seed = 0x5a4e_0059_0000 + index;
        match std::panic::catch_unwind(|| run(seed)) {
            Ok(steps) => {
                let taken = local_paths(&steps);
                (0..4).for_each(|path| paths[path] += taken[path]);
            }
            Err(panic) => {
                eprintln!("sharing_oracle: the case with seed {seed:#x} failed");
                std::panic::resume_unwind(panic);
            }
        }
    }
    // The default case count takes every path through a local.
    if cases() >= CASES {
        assert!(paths.iter().all(|&count| count > 0), "{paths:?}");
    }
}
