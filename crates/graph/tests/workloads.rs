//! The batch-graph, Datalog and program-analysis plans of `kpg_graph::plans`, each
//! checked against an oracle that shares no code with the engine — a scalar baseline of
//! `kpg_graph::baseline`, a naive rule saturation, or a hand-computed answer — on one
//! worker and on two, every run a `Command` stream through `kpg_plan::replay`.

use std::collections::BTreeSet;

use kpg_graph::plans::{
    bfs_plan, components_plan, edge_row, edge_rows, load_input, node_row, nullness_plan,
    points_to_plan, reach_plan, reversed_plan, row_u32, sg_plan, tc_plan,
};
use kpg_graph::{baseline, generate, Edge};
use kpg_plan::{replay, Command, Plan, Response, Row};

fn update(name: &str, row: Row, diff: isize) -> Command {
    let name = name.to_string();
    Command::Update { name, row, diff }
}

fn install(name: &str, plan: Plan) -> Command {
    let (name, locals) = (name.to_string(), vec![]);
    Command::Install { name, plan, locals }
}

/// Seals `epoch` and reads `name`.
fn read(epoch: u64, name: &str) -> [Command; 2] {
    let name = name.to_string();
    [Command::AdvanceTime { epoch }, Command::Query { name }]
}

/// Replays `commands` on one worker and on two, requires every command to succeed and
/// both runs to answer alike, and returns each `Query`'s rows in stream order (every
/// plan here has set semantics, so multiplicities are asserted to be one).
fn answers(commands: &[Command]) -> Vec<Vec<Row>> {
    let run = |workers: usize| -> Vec<Vec<Row>> {
        let outcomes = replay(workers, commands.to_vec()).outcomes.into_iter();
        let answers = outcomes.filter_map(|(outcome, _)| match outcome.unwrap() {
            Response::Rows(rows) => Some(rows),
            _ => None,
        });
        let once = |(row, diff): (Row, isize)| (diff == 1).then_some(row);
        let set = |rows: Vec<(Row, isize)>| rows.into_iter().map(once).collect::<Option<_>>();
        answers.map(|rows| set(rows).unwrap()).collect()
    };
    let one = run(1);
    assert_eq!(one, run(2), "one worker and two disagree");
    one
}

/// Loads `relations` at epoch 0, installs `plans` over them, and reads each once sealed.
fn evaluate(relations: Vec<(&str, Vec<Row>)>, plans: Vec<(&str, Plan)>) -> Vec<Vec<Row>> {
    let load = relations
        .into_iter()
        .map(|(name, rows)| load_input(name, rows));
    let mut commands: Vec<Command> = load.flatten().collect();
    let names: Vec<&str> = plans.iter().map(|(name, _)| *name).collect();
    commands.extend(plans.into_iter().map(|(name, plan)| install(name, plan)));
    commands.extend(names.into_iter().flat_map(|name| read(1, name)));
    answers(&commands)
}

fn pairs(rows: &[Row]) -> BTreeSet<Edge> {
    let pair = |row: &Row| (row_u32(row, 0), row_u32(row, 1));
    rows.iter().map(pair).collect()
}

fn nodes(rows: &[Row]) -> BTreeSet<u32> {
    rows.iter().map(|row| row_u32(row, 0)).collect()
}

/// The naive oracle for the recursive rules: applies `derive` to everything known so
/// far until it yields nothing new.
fn saturate(
    mut known: BTreeSet<Edge>,
    derive: impl Fn(&BTreeSet<Edge>) -> Vec<Edge>,
) -> BTreeSet<Edge> {
    loop {
        let before = known.len();
        known.extend(derive(&known));
        if known.len() == before {
            return known;
        }
    }
}

#[test]
fn transitive_closure_of_a_chain() {
    let edges = edge_rows(&[(1, 2), (2, 3), (3, 4)]);
    let tc = evaluate(vec![("edges", edges)], vec![("tc", tc_plan("edges"))]);
    let expected = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)];
    assert_eq!(pairs(&tc[0]), expected.into());
}

#[test]
fn same_generation_of_a_binary_tree() {
    // parent edges: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}
    let parents = edge_rows(&[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
    let sg = evaluate(vec![("parent", parents)], vec![("sg", sg_plan("parent"))]);
    let sg = pairs(&sg[0]);
    // 1 and 2 are the same generation; 3,4,5,6 are all mutually same generation.
    assert!(sg.contains(&(1, 2)));
    assert!(sg.contains(&(3, 5)));
    assert!(sg.contains(&(4, 6)));
    assert!(!sg.contains(&(1, 3)));
    assert!(!sg.iter().any(|(x, y)| x == y));
}

#[test]
fn tc_and_sg_match_naive_saturation_on_a_random_graph() {
    let edges = generate::gnp(40, 70, 4);
    let plans = vec![("tc", tc_plan("edges")), ("sg", sg_plan("edges"))];
    let answer = evaluate(vec![("edges", edge_rows(&edges))], plans);
    // tc(x, y) :- tc(x, z), edge(z, y).
    let out = |z: u32| edges.iter().filter(move |e| e.0 == z).map(|e| e.1);
    let extend = |&(x, z): &Edge| out(z).map(move |y| (x, y));
    let tc = saturate(edges.iter().copied().collect(), |tc| {
        tc.iter().flat_map(extend).collect()
    });
    assert_eq!(pairs(&answer[0]), tc);
    // sg(x, y) :- parent(px, x), sg(px, py), parent(py, y), from the siblings.
    let below = |&(px, py): &Edge| out(px).flat_map(move |x| out(py).map(move |y| (x, y)));
    let siblings = edges.iter().flat_map(|&(p, _)| below(&(p, p)));
    let sg = saturate(siblings.filter(|(x, y)| x != y).collect(), |sg| {
        sg.iter().flat_map(below).collect()
    });
    assert!(sg.len() > 10);
    assert_eq!(pairs(&answer[1]), sg);
}

#[test]
fn seeded_tc_matches_full_tc_restricted_to_seed() {
    let edges = edge_rows(&[(1, 2), (2, 3), (5, 6), (3, 1)]);
    let seeded = reach_plan(Plan::source("edges"), "seeds");
    let answer = evaluate(
        vec![("edges", edges), ("seeds", vec![node_row(1)])],
        vec![("tc", tc_plan("edges")), ("from", seeded)],
    );
    // The seed lies on a cycle, so it is in its own closure as well as in its reach.
    let full = pairs(&answer[0]);
    let from_seed = full.iter().filter(|(x, _)| *x == 1).map(|(_, y)| *y);
    assert_eq!(nodes(&answer[1]), from_seed.collect());
}

#[test]
fn reverse_tc_finds_ancestors() {
    let edges = edge_rows(&[(1, 2), (2, 3), (4, 3)]);
    let answer = evaluate(
        vec![("edges", edges), ("targets", vec![node_row(3)])],
        vec![("to", reach_plan(reversed_plan("edges"), "targets"))],
    );
    // `reach_plan` counts the zero-step path: the target is reported beside its sources.
    assert_eq!(nodes(&answer[0]), [1, 2, 3, 4].into());
}

#[test]
fn reachability_on_a_chain() {
    let edges = edge_rows(&generate::chain(5));
    let answer = evaluate(
        vec![("edges", edges), ("roots", vec![node_row(1)])],
        vec![("reach", reach_plan(Plan::source("edges"), "roots"))],
    );
    // From node 1 in the chain 0->1->2->3->4 we reach 1, 2, 3, 4.
    assert_eq!(nodes(&answer[0]), [1, 2, 3, 4].into());
}

#[test]
fn bfs_distances_on_a_chain() {
    let edges = edge_rows(&generate::chain(4));
    let answer = evaluate(
        vec![("edges", edges), ("roots", vec![node_row(0)])],
        vec![("bfs", bfs_plan("edges", "roots"))],
    );
    let hops = |row: &Row| [0, 1, 2].map(|column| row_u32(row, column));
    let distances: Vec<[u32; 3]> = answer[0].iter().map(hops).collect();
    assert_eq!(distances, [[0, 0, 0], [1, 0, 1], [2, 0, 2], [3, 0, 3]]);
}

#[test]
fn connected_components_matches_union_find() {
    let edges = generate::uniform(60, 80, 11);
    let plans = vec![("wcc", components_plan("edges"))];
    let answer = evaluate(vec![("edges", edge_rows(&edges))], plans);
    // Union-find links the greater root under the lesser, so a node's representative is
    // its component's least node — the plan's label.
    let labels = baseline::union_find_components(&edges);
    let expected: BTreeSet<Edge> = labels.into_iter().collect();
    let components: BTreeSet<u32> = expected.iter().map(|(_, label)| *label).collect();
    assert!(components.len() > 1 && components.len() < expected.len());
    assert_eq!(pairs(&answer[0]), expected);
}

#[test]
fn incremental_edge_insertion_extends_reachability() {
    let mut commands = load_input("edges", vec![edge_row((1, 2))]);
    commands.extend(load_input("roots", vec![node_row(1)]));
    commands.push(install("reach", reach_plan(Plan::source("edges"), "roots")));
    commands.extend(read(1, "reach"));
    commands.push(update("edges", edge_row((2, 3)), 1));
    commands.extend(read(2, "reach"));
    commands.push(update("edges", edge_row((1, 2)), -1));
    commands.extend(read(3, "reach"));
    let answer = answers(&commands);
    assert_eq!(nodes(&answer[0]), [1, 2].into());
    assert_eq!(nodes(&answer[1]), [1, 2, 3].into());
    // Only the root remains after removing 1->2.
    assert_eq!(nodes(&answer[2]), [1].into());
}

#[test]
fn nullness_propagates_and_retracts() {
    // b := a; c := b; e := d.
    let mut commands = load_input("assign", edge_rows(&[(2, 1), (3, 2), (5, 4)]));
    commands.extend(load_input("null", vec![node_row(1)]));
    commands.push(install("nullness", nullness_plan("assign", "null")));
    commands.extend(read(1, "nullness"));
    // Fixing the null assignment removes the whole chain.
    commands.push(update("null", node_row(1), -1));
    commands.extend(read(2, "nullness"));
    let answer = answers(&commands);
    assert_eq!(nodes(&answer[0]), [1, 2, 3].into());
    assert!(answer[1].is_empty());
}

/// Both points-to variants, installed side by side, over `graph`.
fn points_to(graph: &generate::ProgramGraph) -> Vec<BTreeSet<Edge>> {
    let variant = |materialise| points_to_plan("assign", "alloc", "deref", materialise);
    let relations = vec![
        ("assign", edge_rows(&graph.assignments)),
        ("alloc", edge_rows(&graph.allocations)),
        ("deref", edge_rows(&graph.dereferences)),
    ];
    let plans = vec![
        ("unoptimised", variant(true)),
        ("optimised", variant(false)),
    ];
    let answer = evaluate(relations, plans);
    answer.iter().map(|rows| pairs(rows)).collect()
}

#[test]
fn points_to_variants_agree() {
    let aliases = points_to(&generate::program_graph(128, 5));
    assert!(!aliases[0].is_empty());
    assert_eq!(aliases[0], aliases[1], "the two analyses agree");
}

#[test]
fn points_to_matches_naive_saturation_on_a_random_graph() {
    // A gnp graph's edges cut three ways: assignments, allocations, dereferences.
    let edges = generate::gnp(30, 90, 8);
    let graph = generate::ProgramGraph {
        assignments: edges[..50].to_vec(),
        allocations: edges[50..70].to_vec(),
        dereferences: edges[70..].to_vec(),
        null_sources: vec![],
    };
    // pt(v, o) :- alloc(v, o).  pt(v, o) :- assign(v, w), pt(w, o).
    let into = |w: u32| graph.assignments.iter().filter(move |a| a.1 == w);
    let flow = |&(w, o): &Edge| into(w).map(move |assign| (assign.0, o));
    let pt = saturate(graph.allocations.iter().copied().collect(), |pt| {
        pt.iter().flat_map(flow).collect()
    });
    // alias(v, w) :- pt(v, o), pt(w, o), deref(_, w).
    let dereferenced = |w: &u32| graph.dereferences.iter().any(|deref| deref.1 == *w);
    let aliased = |o: u32| pt.iter().filter(move |(w, p)| *p == o && dereferenced(w));
    let alias = |&(v, o): &Edge| aliased(o).map(move |(w, _)| (v, *w));
    let expected: BTreeSet<Edge> = pt.iter().flat_map(alias).collect();
    assert!(expected.len() > 10);
    assert_eq!(points_to(&graph), [expected.clone(), expected]);
}
