//! Deterministic-schedule exploration of the capability-publication version
//! protocol ([`DataflowShared`]).
//!
//! Workers skip the frontier fixed point while [`DataflowShared::version`] stands
//! still (the steady-state fast path in `worker.rs`). That optimization is sound only
//! if a stable version implies a stable capability table: every mutation of the table
//! (install, publish-with-change, retire) must bump the version *before* the mutating
//! lock is released. These tests pin that implication — and the worker's read
//! protocol (version before table) — across every explored interleaving.
//!
//! Run with `cargo test -p kpg_dataflow --features model --test model_capability`.

#![cfg(feature = "model")]

use kpg_dataflow::progress::DataflowShared;
use kpg_dataflow::{DataflowGraph, EdgeDesc, EdgeTransform, NodeId};
use kpg_sync::model::{explore, Config};
use kpg_sync::{thread, Arc};
use kpg_timestamp::{Antichain, Time};

fn tiny_graph() -> DataflowGraph {
    DataflowGraph {
        nodes: 2,
        names: vec!["input".into(), "probe".into()],
        input_ports: vec![0, 1],
        edges: vec![EdgeDesc {
            from: NodeId(0),
            to: NodeId(1),
            port: 0,
            transform: EdgeTransform::Identity,
        }],
    }
}

fn caps_at(epoch: u64) -> Vec<Antichain<Time>> {
    vec![
        Antichain::from_elem(Time::from_epoch(epoch)),
        Antichain::new(),
    ]
}

/// The capability table, flattened for comparison across two reads.
fn snapshot(shared: &DataflowShared) -> Vec<Vec<Vec<Time>>> {
    shared
        .capabilities
        .lock()
        .expect("capability lock poisoned")
        .iter()
        .map(|row| row.iter().map(|cap| cap.elements().to_vec()).collect())
        .collect()
}

fn small_config() -> Config {
    Config {
        schedules: 64,
        exhaustive: Some(384),
        ..Config::default()
    }
}

/// The soundness of the steady-state skip: a version observed stable across two
/// table reads means the table did not change between them — in any interleaving
/// with a concurrently publishing (and retiring) peer. This is exactly the check
/// the worker's `last_progress_version` fast path relies on.
#[test]
fn stable_version_implies_stable_capabilities() {
    explore("stable_version", small_config(), || {
        let shared = Arc::new(DataflowShared::new());
        shared.install(tiny_graph(), 2);

        let publisher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                shared.publish_swap(0, &mut caps_at(1));
                shared.publish_swap(0, &mut caps_at(2));
                shared.retire(0);
            })
        };
        let observer = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                // The worker's read protocol: version first, then the table.
                for _ in 0..2 {
                    let before = shared.version();
                    let first = snapshot(&shared);
                    let second = snapshot(&shared);
                    let after = shared.version();
                    if before == after {
                        assert_eq!(
                            first, second,
                            "version {before} stood still across a table change: \
                             the steady-state frontier skip would deliver stale \
                             frontiers forever"
                        );
                    }
                }
            })
        };
        publisher.join().unwrap();
        observer.join().unwrap();
    });
}

/// Re-publishing identical capabilities leaves the version untouched (that is the
/// whole point of the steady-state skip), while any actual change bumps it — so an
/// observer that saw the change's table state can never record the pre-change
/// version number.
#[test]
fn version_moves_exactly_with_content() {
    explore("version_tracks_content", small_config(), || {
        let shared = Arc::new(DataflowShared::new());
        shared.install(tiny_graph(), 1);
        shared.publish_swap(0, &mut caps_at(1));
        let settled = shared.version();

        let republisher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                // Identical content: must not bump.
                shared.publish_swap(0, &mut caps_at(1));
            })
        };
        let observer = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.version())
        };
        republisher.join().unwrap();
        let observed = observer.join().unwrap();
        assert_eq!(
            observed, settled,
            "an identical publication may never bump the version"
        );
        assert_eq!(shared.version(), settled);

        // An actual change must bump it, in every interleaving.
        shared.publish_swap(0, &mut caps_at(2));
        assert!(
            shared.version() > settled,
            "a content change must move the version"
        );
    });
}

/// Retirement interleaved with publication: the freeing retire (the last one) must
/// observe every peer's retire, and a version re-read after the table was freed can
/// never equal one recorded while rows were still present. Guards the historical
/// install/retire accounting race (`installed_workers` vs the table's length).
#[test]
fn concurrent_retires_free_exactly_once() {
    explore("retire_race", small_config(), || {
        let shared = Arc::new(DataflowShared::new());
        shared.install(tiny_graph(), 2);

        let retire_a = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.retire(0))
        };
        let retire_b = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.retire(1))
        };
        let freed_a = retire_a.join().unwrap();
        let freed_b = retire_b.join().unwrap();
        assert!(
            freed_a != freed_b,
            "exactly one retire frees the shared state (A={freed_a}, B={freed_b})"
        );
        assert!(
            shared.graph.lock().expect("graph lock poisoned").is_none(),
            "the freeing retire releases the graph"
        );
    });
}
