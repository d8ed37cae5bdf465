//! Sharing never changes answers: seeded random plans, installed and retired at random
//! epochs over a stream of updates and retractions, answer exactly what a naive
//! evaluator computes from scratch — whether the queries share one manager's registry
//! (on one worker and on two) or each runs in a manager of its own.
//!
//! Plans are well-typed trees over three sources of fixed arity: `Map`, `Filter`,
//! `Join` (self-joins among them), every `ReduceKind`, `Distinct`, `Concat` and
//! `Negate`, with sub-plans drawn again from a per-case pool so that queries share
//! memos. A query installed late imports traces that have compacted; an uninstalled one
//! may leave memos its survivors still read. Odd seeds name the queries `plan-memo-N`,
//! names that must block no dataflow the manager builds. The case count is `CASES`,
//! overridable with `KPG_MODEL_CASES`; a failure prints its seed.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use kpg_plan::{replay, Command, Expr, Plan, ReduceKind, Response, Row, Value};
use kpg_timestamp::rng::SmallRng;

const CASES: u64 = 48;

/// The sources: name, row arity and how the base is keyed (`CreateInput`'s
/// `key_arity`), so bases come keyed by a prefix and by whole rows.
const SOURCES: [(&str, usize, Option<usize>); 3] =
    [("a", 2, Some(1)), ("b", 2, None), ("c", 3, Some(1))];

/// Column values are drawn below this, so joins and groups find partners.
const VALUES: u64 = 4;

const EPOCHS: u64 = 8;

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

    /// A plan and the arity of its rows.
    fn plan(&mut self, depth: usize) -> (Plan, usize) {
        if !self.pool.is_empty() && self.below(4) == 0 {
            let index = self.below(self.pool.len());
            return self.pool[index].clone();
        }
        if depth == 0 || self.below(6) == 0 {
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

/// One case: a command stream and, per command, the answer the naive evaluator expects
/// of it if it is a `Query`.
struct Case {
    stream: Vec<Command>,
    expected: Vec<Option<Vec<(Row, isize)>>>,
}

fn case(seed: u64) -> Case {
    let mut generator = Generator {
        rng: SmallRng::seed_from_u64(seed),
        pool: Vec::new(),
    };
    let name = |index: usize| match seed % 2 {
        0 => format!("q{index}"),
        _ => format!("plan-memo-{}", index + 1),
    };
    let queries: Vec<(String, Plan)> = (0..4)
        .map(|index| (name(index), generator.plan(3).0))
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

    let mut stream: Vec<Command> = SOURCES
        .iter()
        .map(|&(name, _, key_arity)| Command::CreateInput {
            name: name.into(),
            key_arity,
        })
        .collect();
    let mut current: BTreeMap<String, Bag> = SOURCES
        .iter()
        .map(|&(name, ..)| (name.to_string(), Bag::new()))
        .collect();
    let mut sealed = current.clone();
    let mut expected = vec![None; stream.len()];
    let mut live: Vec<bool> = vec![false; queries.len()];
    for epoch in 0..EPOCHS {
        let mut commands = Vec::new();
        for _ in 0..rng.gen_range(6..16) {
            let (name, arity, _) = SOURCES[rng.gen_range(0..SOURCES.len())];
            let rows: Vec<&Row> = current[name].keys().collect();
            // Mostly insertions; a retraction takes back a present row.
            let (row, diff) = if !rows.is_empty() && rng.gen_range(0..3) == 0 {
                (rows[rng.gen_range(0..rows.len())].clone(), -1)
            } else {
                let row = (0..arity).map(|_| Value::UInt(rng.gen_range(0..VALUES)));
                (row.collect::<Row>(), 1)
            };
            add(current.get_mut(name).unwrap(), row.clone(), diff);
            commands.push(Command::Update {
                name: name.into(),
                row,
                diff,
            });
        }
        for (index, (name, plan)) in queries.iter().enumerate() {
            let (installed, retired) = lifetimes[index];
            let at = rng.gen_range(0..=commands.len());
            if installed == epoch {
                let install = Command::Install {
                    name: name.clone(),
                    plan: plan.clone(),
                    locals: vec![],
                };
                commands.insert(at, install);
            } else if retired == Some(epoch) {
                let name = name.clone();
                commands.insert(at, Command::Uninstall { name });
            } else if live[index] {
                // A query mid-epoch reads what the last `AdvanceTime` sealed.
                let name = name.clone();
                commands.insert(at, Command::Query { name });
            }
        }
        for command in commands {
            if let Command::Install { name, .. } | Command::Uninstall { name } = &command {
                let index = queries.iter().position(|(query, _)| query == name).unwrap();
                live[index] = matches!(command, Command::Install { .. });
            }
            let answer = match &command {
                Command::Query { name } => {
                    let (_, plan) = queries.iter().find(|(query, _)| query == name).unwrap();
                    Some(evaluate(plan, &sealed).into_iter().collect())
                }
                _ => None,
            };
            stream.push(command);
            expected.push(answer);
        }
        stream.push(Command::AdvanceTime { epoch: epoch + 1 });
        expected.push(None);
        sealed = current.clone();
        for (index, (name, plan)) in queries.iter().enumerate() {
            if live[index] {
                stream.push(Command::Query { name: name.clone() });
                expected.push(Some(evaluate(plan, &sealed).into_iter().collect()));
            }
        }
    }
    Case { stream, expected }
}

/// Replays `stream` on `workers` workers and checks every command's outcome against
/// `expected`.
fn check(workers: usize, label: &str, stream: &[Command], expected: &[Option<Vec<(Row, isize)>>]) {
    let outcomes = replay(workers, stream.to_vec()).outcomes;
    for ((command, (outcome, _)), expected) in stream.iter().zip(outcomes).zip(expected) {
        let outcome = outcome.unwrap_or_else(|error| panic!("{label}: {command:?}: {error}"));
        match (outcome, expected) {
            (Response::Rows(rows), Some(expected)) => {
                assert_eq!(&rows, expected, "{label}: {command:?}");
            }
            (Response::Installed { .. }, None) => {}
            (Response::Uninstalled { existed }, None) => assert!(existed, "{label}"),
            (Response::Done, None) => {}
            (outcome, _) => panic!("{label}: {command:?} answered {outcome:?}"),
        }
    }
}

/// Replays one case shared at one worker and at two, and each of its queries alone.
fn run(seed: u64) {
    let Case { stream, expected } = case(seed);
    assert!(
        expected.iter().flatten().count() > 0,
        "the case queries nothing"
    );
    check(1, "1 worker", &stream, &expected);
    check(2, "2 workers", &stream, &expected);
    // Each query alone in a manager of its own: the inputs' history, and only its own
    // install, queries and uninstall.
    let names = stream.iter().filter_map(|command| match command {
        Command::Install { name, .. } => Some(name.clone()),
        _ => None,
    });
    for name in names.collect::<Vec<_>>() {
        let (alone, expected): (Vec<Command>, Vec<_>) = stream
            .iter()
            .zip(&expected)
            .filter(|(command, _)| match command {
                Command::Install { name: query, .. }
                | Command::Uninstall { name: query }
                | Command::Query { name: query } => *query == name,
                _ => true,
            })
            .map(|(command, expected)| (command.clone(), expected.clone()))
            .unzip();
        check(1, &format!("{name} alone"), &alone, &expected);
    }
}

#[test]
fn shared_and_private_plans_answer_as_the_naive_evaluator() {
    for index in 0..cases() {
        let seed = 0x5a4e_0059_0000 + index;
        if let Err(panic) = std::panic::catch_unwind(|| run(seed)) {
            eprintln!("sharing_oracle: the case with seed {seed:#x} failed");
            std::panic::resume_unwind(panic);
        }
    }
}
