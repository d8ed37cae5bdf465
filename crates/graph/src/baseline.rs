//! Purpose-written single-threaded baselines (Appendix C).
//!
//! The paper compares K-Pg against simple single-threaded implementations that are not
//! required to follow the same algorithms: array-indexed BFS, the same BFS with hash maps
//! (as one would need without pre-processed dense identifiers), and union-find for
//! undirected connectivity. Beside them sit the scalar references for §6.2's interactive
//! classes ([`lookup`], [`two_hop`], [`four_path`]), evaluated from scratch over the
//! edges and arguments live at one epoch.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::Edge;

/// Breadth-first reachability using dense array adjacency; returns the reached nodes.
pub fn bfs_array(nodes: u32, edges: &[Edge], root: u32) -> Vec<u32> {
    let mut adjacency = vec![Vec::new(); nodes as usize];
    for (src, dst) in edges {
        adjacency[*src as usize].push(*dst);
    }
    let mut seen = vec![false; nodes as usize];
    let mut queue = VecDeque::new();
    let mut reached = Vec::new();
    seen[root as usize] = true;
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        reached.push(node);
        for &next in &adjacency[node as usize] {
            if !seen[next as usize] {
                seen[next as usize] = true;
                queue.push_back(next);
            }
        }
    }
    reached
}

/// Breadth-first distances using dense arrays; unreachable nodes get `u32::MAX`.
pub fn bfs_distances_array(nodes: u32, edges: &[Edge], root: u32) -> Vec<u32> {
    let mut adjacency = vec![Vec::new(); nodes as usize];
    for (src, dst) in edges {
        adjacency[*src as usize].push(*dst);
    }
    let mut dist = vec![u32::MAX; nodes as usize];
    let mut queue = VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        for &next in &adjacency[node as usize] {
            if dist[next as usize] == u32::MAX {
                dist[next as usize] = dist[node as usize] + 1;
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Breadth-first reachability using hash maps for vertex state, as the paper's "w/ hash
/// map" baseline does when identifiers cannot be assumed dense.
pub fn bfs_hashmap(edges: &[Edge], root: u32) -> Vec<u32> {
    let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
    for (src, dst) in edges {
        adjacency.entry(*src).or_default().push(*dst);
    }
    let mut seen: HashMap<u32, bool> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut reached = Vec::new();
    seen.insert(root, true);
    queue.push_back(root);
    while let Some(node) = queue.pop_front() {
        reached.push(node);
        if let Some(nexts) = adjacency.get(&node) {
            for &next in nexts {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(next) {
                    e.insert(true);
                    queue.push_back(next);
                }
            }
        }
    }
    reached
}

/// Undirected connected components via union-find; returns each node's representative.
pub fn union_find_components(edges: &[Edge]) -> HashMap<u32, u32> {
    let mut parent: HashMap<u32, u32> = HashMap::new();
    fn find(parent: &mut HashMap<u32, u32>, x: u32) -> u32 {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            x
        } else {
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
    }
    for (a, b) in edges {
        let ra = find(&mut parent, *a);
        let rb = find(&mut parent, *b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent.insert(hi, lo);
        }
    }
    let nodes: Vec<u32> = parent.keys().copied().collect();
    nodes
        .into_iter()
        .map(|n| {
            let root = find(&mut parent, n);
            (n, root)
        })
        .collect()
}

/// Out-neighbours by node, one entry per edge copy.
fn out_neighbours(edges: &[Edge]) -> BTreeMap<u32, Vec<u32>> {
    let mut adjacency: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(src, dst) in edges {
        adjacency.entry(src).or_default().push(dst);
    }
    adjacency
}

/// Point look-up: `(q, dst)` for every argument `q` and edge `(q, dst)`, counted once per
/// copy of the argument and once per copy of the edge.
pub fn lookup(edges: &[Edge], args: &[u32]) -> BTreeMap<(u32, u32), isize> {
    let adjacency = out_neighbours(edges);
    let mut answer = BTreeMap::new();
    for &q in args {
        for &dst in adjacency.get(&q).into_iter().flatten() {
            *answer.entry((q, dst)).or_insert(0) += 1;
        }
    }
    answer
}

/// 2-hop: the set of `(q, dst)` for every argument `q` and path `q -> mid -> dst`.
pub fn two_hop(edges: &[Edge], args: &[u32]) -> BTreeSet<(u32, u32)> {
    let adjacency = out_neighbours(edges);
    let next = |node: &u32| adjacency.get(node).into_iter().flatten();
    let mut answer = BTreeSet::new();
    for q in args {
        for mid in next(q) {
            answer.extend(next(mid).map(|&dst| (*q, dst)));
        }
    }
    answer
}

/// 4-hop path: for every argument pair `(src, dst)` that some walk of one to four edges
/// leads along, the least such number of edges.
pub fn four_path(edges: &[Edge], pairs: &[(u32, u32)]) -> BTreeMap<(u32, u32), u32> {
    let adjacency = out_neighbours(edges);
    let mut answer = BTreeMap::new();
    for &(src, dst) in pairs {
        let mut frontier = BTreeSet::from([src]);
        for hops in 1..=4 {
            let reached = frontier.iter().filter_map(|node| adjacency.get(node));
            frontier = reached.flatten().copied().collect();
            if frontier.contains(&dst) {
                answer.insert((src, dst), hops);
                break;
            }
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn array_and_hashmap_bfs_agree() {
        let edges = generate::uniform(200, 600, 3);
        let mut a = bfs_array(200, &edges, 0);
        let mut b = bfs_hashmap(&edges, 0);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn bfs_distances_on_chain_are_indices() {
        let edges = generate::chain(6);
        let dist = bfs_distances_array(6, &edges, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn union_find_groups_connected_nodes() {
        let edges = vec![(1, 2), (2, 3), (10, 11)];
        let components = union_find_components(&edges);
        assert_eq!(components[&1], components[&3]);
        assert_ne!(components[&1], components[&10]);
    }
}
