//! Quickstart: the paper's Figure 1 — interactive, incrementally maintained graph
//! reachability queries over a changing graph.
//!
//! Run with `cargo run --release --example quickstart`; it asserts each epoch's
//! answer.

use std::collections::BTreeMap;

use shared_arrangements::prelude::*;

/// The answer so far: every captured change, consolidated, as sorted `(pair, count)`.
fn consolidated(captured: &[((u32, u32), Time, isize)]) -> Vec<((u32, u32), isize)> {
    let mut counts = BTreeMap::new();
    for (pair, _time, diff) in captured {
        *counts.entry(*pair).or_insert(0) += diff;
    }
    counts
        .into_iter()
        .filter(|(_, count)| *count != 0)
        .collect()
}

fn main() {
    execute(Config::new(1), |worker| {
        // Install the dataflow under a name: `query` holds (src, dst) pairs we want
        // answered, `edges` holds the graph; the output is the set of query pairs that
        // are reachable. (A named install can later be retired with
        // `worker.uninstall("reachability")`; see examples/shared_queries.rs for the
        // full catalog-based lifecycle.)
        let (mut query, mut edges, probe, answers) = worker.install("reachability", |builder| {
            let (query_in, query) = new_collection::<(u32, u32), isize>(builder);
            let (edges_in, edges) = new_collection::<(u32, u32), isize>(builder);

            let seeds = query.map(|(src, _)| (src, src)).distinct();
            let reached = seeds.iterate(|reach| {
                let edges = edges.enter();
                let seeds = seeds.enter();
                reach
                    .join_map(&edges, |_node, root, next| (*next, *root))
                    .concat(&seeds)
                    .distinct()
            });
            let answers = query
                .map(|(src, dst)| ((dst, src), ()))
                .semijoin(&reached.map(|(node, root)| (node, root)))
                .map(|((dst, src), ())| (src, dst));

            let probe = answers.probe();
            let captured = answers.capture();
            (query_in, edges_in, probe, captured)
        });

        // Epoch 0: a small graph and two queries.
        for edge in [(1, 2), (2, 3), (4, 5)] {
            edges.insert(edge);
        }
        query.insert((1, 3));
        query.insert((1, 5));
        edges.advance_to(1);
        query.advance_to(1);
        worker.step_while(|| probe.less_than(&query.time()));
        let answer = consolidated(&answers.borrow());
        println!("after epoch 0: {answer:?}");
        assert_eq!(answer, [((1, 3), 1)], "1 reaches 3 through 2, not 5");

        // Epoch 1: adding 3 -> 4 makes (1, 5) reachable; the output updates itself.
        edges.insert((3, 4));
        edges.advance_to(2);
        query.advance_to(2);
        worker.step_while(|| probe.less_than(&query.time()));
        let answer = consolidated(&answers.borrow());
        println!("after adding 3->4: {answer:?}");
        assert_eq!(answer, [((1, 3), 1), ((1, 5), 1)], "1 -> 2 -> 3 -> 4 -> 5");

        // Epoch 2: removing 2 -> 3 disconnects everything; both answers retract.
        edges.remove((2, 3));
        edges.advance_to(3);
        query.advance_to(3);
        worker.step_while(|| probe.less_than(&query.time()));
        let answer = consolidated(&answers.borrow());
        println!("after removing 2->3: {answer:?}");
        assert!(answer.is_empty(), "1 reaches only 2: {answer:?}");
    });
}
