//! Seeded input generation and the generator-side reference.
//!
//! The server sees only the commands generated here. [`Graph`] is the reference: it
//! holds the live adjacency exactly as the acknowledged commands define it, and
//! answers 2-hop and 4-path queries from scratch, so every checked answer is compared
//! with a computation that shares no code with the program under test.

use std::collections::{BTreeSet, HashSet};

use kpg_graph::plans::{edge_row, four_path_plan, node_row, pair_row, two_hop_plan};
use kpg_plan::{Command, Plan, ReduceKind, Row, Value};
use kpg_timestamp::rng::SmallRng;
use kpg_wire::Response;

pub const EDGES: &str = "edges";
pub const DEGREES: &str = "degrees";

/// Graph size of the three graph workloads. `degrees` (a `Count` reduce over every
/// source node) is the expensive standing query and grows quadratically in keys at
/// the seed (0.56 s at 20k keys, 12-16 s at 100k): do not scale nodes up.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub nodes: u32,
    pub edges: usize,
}

pub const FULL: Scale = Scale {
    nodes: 20_000,
    edges: 80_000,
};

pub const SMOKE: Scale = Scale {
    nodes: 5_000,
    edges: 20_000,
};

/// Standing 2-hop queries installed beside `degrees`, and roots per query.
pub const STANDING_HOPS: usize = 4;
pub const ROOTS_PER_HOP: usize = 8;

/// Updates per epoch: half of them additions of edges that are not live, half
/// removals of live edges.
pub const UPDATES_PER_EPOCH: usize = 100;

/// The live graph, as a set of directed edges.
pub struct Graph {
    nodes: u32,
    live: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    out: Vec<Vec<u32>>,
}

impl Graph {
    /// `kpg_graph::generate::uniform` with duplicate edges dropped, so the graph is a
    /// set and a removal always removes the only copy.
    pub fn generate(scale: Scale, seed: u64) -> Graph {
        let mut graph = Graph {
            nodes: scale.nodes,
            live: Vec::with_capacity(scale.edges),
            present: HashSet::with_capacity(scale.edges * 2),
            out: vec![Vec::new(); scale.nodes as usize],
        };
        for edge in kpg_graph::generate::uniform(scale.nodes, scale.edges, seed) {
            graph.insert(edge);
        }
        graph
    }

    pub fn edges(&self) -> &[(u32, u32)] {
        &self.live
    }

    fn insert(&mut self, edge: (u32, u32)) -> bool {
        if !self.present.insert(edge) {
            return false;
        }
        self.live.push(edge);
        self.out[edge.0 as usize].push(edge.1);
        true
    }

    /// Adds a uniformly drawn edge that is not live yet.
    pub fn add_random(&mut self, rng: &mut SmallRng) -> (u32, u32) {
        loop {
            let edge = (rng.gen_range(0..self.nodes), rng.gen_range(0..self.nodes));
            if self.insert(edge) {
                return edge;
            }
        }
    }

    /// Removes a uniformly drawn live edge.
    pub fn remove_random(&mut self, rng: &mut SmallRng) -> (u32, u32) {
        let edge = self.live.swap_remove(rng.gen_range(0..self.live.len()));
        self.present.remove(&edge);
        let out = &mut self.out[edge.0 as usize];
        let at = out
            .iter()
            .position(|&dst| dst == edge.1)
            .expect("live edge is adjacent");
        out.swap_remove(at);
        edge
    }

    /// A uniformly drawn node with at least one out-edge (so its queries have answers).
    pub fn random_root(&self, rng: &mut SmallRng) -> u32 {
        self.live[rng.gen_range(0..self.live.len())].0
    }

    /// Where a random walk of `steps` edges from `from` ends (earlier if it reaches a
    /// node with no out-edge).
    pub fn random_walk(&self, from: u32, steps: usize, rng: &mut SmallRng) -> u32 {
        let mut at = from;
        for _ in 0..steps {
            let out = &self.out[at as usize];
            if out.is_empty() {
                break;
            }
            at = out[rng.gen_range(0..out.len())];
        }
        at
    }

    /// The reference answer of `two_hop_plan` for `roots`: distinct `(root, node two
    /// hops away)` pairs, sorted.
    pub fn two_hop(&self, roots: &[u32]) -> Vec<(u32, u32)> {
        let mut pairs = BTreeSet::new();
        for &root in roots {
            for &mid in &self.out[root as usize] {
                for &dst in &self.out[mid as usize] {
                    pairs.insert((root, dst));
                }
            }
        }
        pairs.into_iter().collect()
    }

    /// The reference answer of `four_path_plan` for one pair: the least number of
    /// edges (1 to 4) of a walk from `src` to `dst`, if there is one.
    pub fn four_path(&self, src: u32, dst: u32) -> Option<u32> {
        let mut frontier = BTreeSet::from([src]);
        for hops in 1..=4 {
            frontier = frontier
                .iter()
                .flat_map(|&node| self.out[node as usize].iter().copied())
                .collect();
            if frontier.contains(&dst) {
                return Some(hops);
            }
        }
        None
    }
}

/// The toy graph of `point_rtt` (and of the persisted `server_fanout` record): 500
/// nodes with `degrees` installed. Edges are a multiset; updates alternate between
/// adding a random edge and removing a random live one, so state stays
/// [`TOY_EDGES`] large however long the run.
pub const TOY_NODES: u32 = 500;
pub const TOY_EDGES: usize = 2_000;
/// After this many toy updates: `AdvanceTime`, then `Query("degrees")`. The server
/// only runs its dataflows when a query needs a settled answer, so a stream without
/// queries would just queue work inside it.
pub const TOY_BARRIER_EVERY: u64 = 1_000;

pub struct ToyGraph {
    rng: SmallRng,
    live: Vec<(u32, u32)>,
    degree: Vec<i64>,
    updates: u64,
}

impl ToyGraph {
    pub fn new(seed: u64) -> ToyGraph {
        ToyGraph {
            rng: SmallRng::seed_from_u64(seed),
            live: Vec::with_capacity(TOY_EDGES + 1),
            degree: vec![0; TOY_NODES as usize],
            updates: 0,
        }
    }

    /// The commands that bring a fresh server to the toy state: the input, the
    /// standing `degrees`, and [`TOY_EDGES`] additions.
    pub fn load(&mut self) -> Vec<Command> {
        let mut commands = vec![create_edges(), install_degrees()];
        while self.live.len() < TOY_EDGES {
            commands.push(self.change(true));
        }
        commands
    }

    fn change(&mut self, add: bool) -> Command {
        let (edge, diff) = if add || self.live.is_empty() {
            let edge = (
                self.rng.gen_range(0..TOY_NODES),
                self.rng.gen_range(0..TOY_NODES),
            );
            self.live.push(edge);
            (edge, 1)
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            (self.live.swap_remove(at), -1)
        };
        self.degree[edge.0 as usize] += diff as i64;
        edge_update(edge, diff)
    }

    /// The next single-row update of the stream.
    pub fn next_update(&mut self) -> Command {
        self.updates += 1;
        self.change(self.updates % 2 == 1)
    }

    /// Updates generated by [`ToyGraph::next_update`] so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The reference answer of `degrees`: `[node, out-degree]` with multiplicity 1
    /// for every node with an out-edge, sorted.
    pub fn degrees(&self) -> Vec<Vec<i64>> {
        (0i64..)
            .zip(&self.degree)
            .filter(|(_, &degree)| degree != 0)
            .map(|(node, &degree)| vec![node, degree, 1])
            .collect()
    }
}

pub fn update(name: &str, row: Row, diff: isize) -> Command {
    Command::Update {
        name: name.to_string(),
        row,
        diff,
    }
}

pub fn advance(epoch: u64) -> Command {
    Command::AdvanceTime { epoch }
}

pub fn query(name: &str) -> Command {
    Command::Query {
        name: name.to_string(),
    }
}

pub fn uninstall(name: &str) -> Command {
    Command::Uninstall {
        name: name.to_string(),
    }
}

pub fn create_edges() -> Command {
    Command::CreateInput {
        name: EDGES.to_string(),
        key_arity: Some(1),
    }
}

pub fn install_degrees() -> Command {
    Command::Install {
        name: DEGREES.to_string(),
        plan: Plan::source(EDGES).reduce(1, ReduceKind::Count),
        locals: vec![],
    }
}

/// The name of a query's private argument input.
fn args_of(query: &str) -> String {
    format!("{query}_args")
}

fn install_with_args(name: &str, plan: fn(&str, &str) -> Plan) -> Command {
    let args = args_of(name);
    Command::Install {
        name: name.to_string(),
        plan: plan(EDGES, &args),
        locals: vec![args],
    }
}

/// Installs `two_hop_plan` over the shared `edges` with a query-local argument input.
pub fn install_two_hop(name: &str) -> Command {
    install_with_args(name, two_hop_plan)
}

pub fn install_four_path(name: &str) -> Command {
    install_with_args(name, four_path_plan)
}

pub fn add_root(query: &str, root: u32) -> Command {
    update(&args_of(query), node_row(root), 1)
}

pub fn add_pair(query: &str, pair: (u32, u32)) -> Command {
    update(&args_of(query), pair_row(pair), 1)
}

pub fn edge_update(edge: (u32, u32), diff: isize) -> Command {
    update(EDGES, edge_row(edge), diff)
}

/// The generator of the update stream. It is not the one the graph was drawn with,
/// so the loaded graph and the changes made to it are independent functions of the
/// seed.
pub fn update_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15)
}

/// Roots for each of the [`STANDING_HOPS`] standing 2-hop queries.
pub fn draw_roots(graph: &Graph, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    (0..STANDING_HOPS)
        .map(|_| (0..ROOTS_PER_HOP).map(|_| graph.random_root(rng)).collect())
        .collect()
}

pub fn standing_hop(index: usize) -> String {
    format!("hop{index}")
}

/// The epoch a server is at after [`setup_commands`].
pub const SETUP_EPOCH: u64 = 2;

/// The commands that bring a fresh server to the state the graph workloads start
/// from: the graph loaded into `edges`, then the standing set `S` — `degrees` and one
/// 2-hop query per entry of `roots` — with time advanced past both.
pub fn setup_commands(graph: &Graph, roots: &[Vec<u32>]) -> Vec<Command> {
    let mut commands = vec![create_edges()];
    commands.extend(graph.edges().iter().map(|&edge| edge_update(edge, 1)));
    commands.push(advance(1));
    commands.push(install_degrees());
    for (index, roots) in roots.iter().enumerate() {
        let name = standing_hop(index);
        commands.push(install_two_hop(&name));
        commands.extend(roots.iter().map(|&root| add_root(&name, root)));
    }
    commands.push(advance(SETUP_EPOCH));
    commands
}

/// `count` updates of the evolving graph: additions of edges that are not live and
/// removals of live edges, alternating; the reference is updated as the commands are
/// generated.
pub fn epoch_updates(graph: &mut Graph, rng: &mut SmallRng, count: usize) -> Vec<Command> {
    let mut commands = Vec::with_capacity(count);
    for index in 0..count {
        commands.push(if index % 2 == 0 {
            edge_update(graph.add_random(rng), 1)
        } else {
            edge_update(graph.remove_random(rng), -1)
        });
    }
    commands
}

/// A `QueryResults` as sorted rows of numbers, each with its multiplicity appended.
/// Total: anything else the server might send is an error, never a panic.
fn answer_rows(response: &Response) -> Result<Vec<Vec<i64>>, String> {
    let Response::QueryResults { rows, diffs } = response else {
        return Err(format!(
            "expected QueryResults, got {}",
            crate::harness::describe(response)
        ));
    };
    let mut answer = Vec::with_capacity(rows.len());
    for (row, &diff) in rows.iter().zip(diffs) {
        let mut fields = Vec::with_capacity(row.len() + 1);
        for value in row.iter() {
            fields.push(match value {
                Value::Int(value) => *value,
                Value::UInt(value) => i64::try_from(*value).map_err(|_| "a field overflows i64")?,
                Value::String(_) => return Err("a string field in a numeric answer".to_string()),
            });
        }
        fields.push(diff);
        answer.push(fields);
    }
    answer.sort_unstable();
    Ok(answer)
}

/// Checks a `QueryResults` against reference rows (fields, then multiplicity), which
/// must be sorted.
pub fn check_answer(response: &Response, expected: &[Vec<i64>]) -> Result<(), String> {
    let got = answer_rows(response)?;
    if got == expected {
        return Ok(());
    }
    let first = got
        .iter()
        .zip(expected)
        .position(|(got, want)| got != want)
        .unwrap_or(got.len().min(expected.len()));
    Err(format!(
        "the answer has {} rows, the reference {}; they first differ at row {first}: {:?} against {:?}",
        got.len(),
        expected.len(),
        got.get(first),
        expected.get(first)
    ))
}

/// Checks a `QueryResults` against the reference 2-hop answer.
pub fn check_two_hop(response: &Response, expected: &[(u32, u32)]) -> Result<(), String> {
    let expected: Vec<Vec<i64>> = expected
        .iter()
        .map(|&(root, dst)| vec![i64::from(root), i64::from(dst), 1])
        .collect();
    check_answer(response, &expected)
}

/// Checks a `QueryResults` against the reference 4-path answer for one pair.
pub fn check_four_path(
    response: &Response,
    pair: (u32, u32),
    expected: Option<u32>,
) -> Result<(), String> {
    let expected: Vec<Vec<i64>> = expected
        .map(|hops| vec![i64::from(pair.0), i64::from(pair.1), i64::from(hops), 1])
        .into_iter()
        .collect();
    check_answer(response, &expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpg_dataflow::{execute, Config, Worker};
    use kpg_plan::{Manager, Response as Direct};
    use kpg_wire::WireCodec;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let mut graph = Graph::generate(SMOKE, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bytes = Vec::new();
        for edge in graph.edges().iter().take(100) {
            bytes.extend(edge_update(*edge, 1).encode());
        }
        for _ in 0..5 {
            for command in epoch_updates(&mut graph, &mut rng, UPDATES_PER_EPOCH) {
                bytes.extend(command.encode());
            }
        }
        bytes
    }

    #[test]
    fn the_same_seed_gives_the_same_command_stream() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
    }

    #[test]
    fn another_seed_gives_another_command_stream() {
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }

    #[test]
    fn removals_only_remove_live_edges_and_additions_only_add_new_ones() {
        let mut graph = Graph::generate(SMOKE, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let before = graph.edges().len();
        for _ in 0..200 {
            let added = graph.add_random(&mut rng);
            assert!(graph.present.contains(&added));
            let removed = graph.remove_random(&mut rng);
            assert!(!graph.present.contains(&removed));
        }
        assert_eq!(graph.edges().len(), before);
        let adjacent: usize = graph.out.iter().map(Vec::len).sum();
        assert_eq!(adjacent, before);
    }

    /// A `Manager` answer in the wire's shape, so the same checks apply.
    fn as_wire(direct: Direct) -> Response {
        match direct {
            Direct::Rows(rows) => Response::QueryResults {
                diffs: rows.iter().map(|(_, diff)| *diff as i64).collect(),
                rows: rows.into_iter().map(|(row, _)| row).collect(),
            },
            other => panic!("a query returned {other:?}"),
        }
    }

    /// The reference agrees with `Manager` (the engine, driven directly) on a
    /// 200-edge graph, for 2-hop and 4-path, before and after an epoch of changes.
    #[test]
    fn the_oracle_agrees_with_the_manager() {
        let scale = Scale {
            nodes: 60,
            edges: 200,
        };
        execute(Config::new(1), move |worker| {
            let mut graph = Graph::generate(scale, 11);
            let mut rng = SmallRng::seed_from_u64(11);
            let mut manager = Manager::new();
            let run = |manager: &mut Manager, worker: &mut Worker, command: Command| {
                manager.execute(worker, command).expect("command accepted")
            };
            run(&mut manager, worker, create_edges());
            for &edge in graph.edges() {
                run(&mut manager, worker, edge_update(edge, 1));
            }
            let roots: Vec<u32> = (0..ROOTS_PER_HOP)
                .map(|_| graph.random_root(&mut rng))
                .collect();
            let src = graph.random_root(&mut rng);
            let pairs = [
                (src, graph.random_walk(src, 3, &mut rng)),
                (src, src),
                (0, 59),
            ];
            run(&mut manager, worker, install_two_hop("hop"));
            for &root in &roots {
                run(&mut manager, worker, add_root("hop", root));
            }
            for (index, &pair) in pairs.iter().enumerate() {
                let name = format!("path{index}");
                run(&mut manager, worker, install_four_path(&name));
                run(&mut manager, worker, add_pair(&name, pair));
            }
            for epoch in 1..=2u64 {
                run(&mut manager, worker, advance(epoch));
                manager.settle(worker);
                let answer = as_wire(run(&mut manager, worker, query("hop")));
                check_two_hop(&answer, &graph.two_hop(&roots)).expect("2-hop agrees");
                for (index, &pair) in pairs.iter().enumerate() {
                    let name = format!("path{index}");
                    let answer = as_wire(run(&mut manager, worker, query(&name)));
                    check_four_path(&answer, pair, graph.four_path(pair.0, pair.1))
                        .expect("4-path agrees");
                }
                for command in epoch_updates(&mut graph, &mut rng, 60) {
                    run(&mut manager, worker, command);
                }
            }
        });
    }
}
