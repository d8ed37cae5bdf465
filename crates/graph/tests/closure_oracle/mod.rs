//! The closure formulation of the §6.2 query classes: the **oracle**
//! `plan_equivalence.rs` compares `kpg_graph::plans` against.
//!
//! The graph is ingested once and its by-source arrangement is *published by name* into
//! a [`Catalog`]; each query class is then installed as a named dataflow, built from
//! closures compiled into the test binary, that imports the shared arrangement — the
//! same lifecycle `kpg_plan::Manager` drives from data. Only the plans are library code;
//! this twin exists so their answers have something independent to be equal to.

use std::cell::RefCell;
use std::rc::Rc;

use kpg_core::arrange::ValBatch;
use kpg_core::prelude::*;
use kpg_dataflow::InputHandle;

use kpg_graph::Edge;

/// Handles onto one installed query class: its argument input, a probe on its output,
/// and the captured output updates.
pub struct QueryIo<Q, A> {
    /// The query-argument input: insert arguments to pose queries, remove to retract.
    pub input: InputHandle<Q, isize>,
    /// A probe on the query's output; passing it means all answers are current.
    pub probe: ProbeHandle,
    /// Every output update the query has produced, as `(answer, time, diff)`.
    pub results: Rc<RefCell<Vec<(A, Time, isize)>>>,
}

/// An interactive query session over a shared graph arrangement (paper §6.2).
///
/// The session owns the graph's edge input and the [`Catalog`] under which the edge
/// arrangement is published; query classes are installed against the catalog by name.
pub struct InteractiveSession {
    /// The catalog holding the published graph arrangement.
    pub catalog: Catalog,
    /// The graph's edge input.
    pub edges: InputHandle<Edge, isize>,
    graph_name: String,
}

#[allow(clippy::type_complexity)]
impl InteractiveSession {
    /// Installs the base graph dataflow: ingests edges, arranges them by source, and
    /// publishes the arrangement into `catalog` under `graph_name`.
    ///
    /// Every worker must call this (and subsequent installs) identically.
    pub fn install(worker: &mut Worker, catalog: &Catalog, graph_name: &str) -> Self {
        let catalog_for_closure = catalog.clone();
        let name_owned = graph_name.to_string();
        let edges = worker.install(graph_name, move |builder| {
            let (edges_in, edges) = new_collection::<Edge, isize>(builder);
            let arranged = edges.arrange_by_key_named("SharedEdges", MergeEffort::Default);
            catalog_for_closure
                .publish_if_absent(&name_owned, &arranged)
                .expect("graph arrangement name already taken");
            edges_in
        });
        InteractiveSession {
            catalog: catalog.clone(),
            edges,
            graph_name: graph_name.to_string(),
        }
    }

    /// Installs a point look-up query: for every argument node, its out-neighbours.
    pub fn install_lookup(
        &self,
        worker: &mut Worker,
        name: &str,
    ) -> Result<QueryHandle<QueryIo<u32, (u32, u32)>>, CatalogError> {
        let graph = self.graph_name.clone();
        worker.install_query(name, &self.catalog, move |builder, catalog| {
            let edges = catalog
                .import::<ValBatch<u32, u32>>(&graph, builder)
                .expect("graph arrangement published before queries install");
            let (input, queries) = new_collection::<u32, isize>(builder);
            let answers = queries
                .map(|q| (q, ()))
                .arrange_by_key()
                .join_core(&edges, |q, (), dst| (*q, *dst));
            QueryIo {
                input,
                probe: answers.probe(),
                results: answers.capture(),
            }
        })
    }

    /// Installs a 2-hop query: for every argument node, the nodes two hops away.
    pub fn install_two_hop(
        &self,
        worker: &mut Worker,
        name: &str,
    ) -> Result<QueryHandle<QueryIo<u32, (u32, u32)>>, CatalogError> {
        let graph = self.graph_name.clone();
        worker.install_query(name, &self.catalog, move |builder, catalog| {
            let edges = catalog
                .import::<ValBatch<u32, u32>>(&graph, builder)
                .expect("graph arrangement published before queries install");
            let (input, queries) = new_collection::<u32, isize>(builder);
            let first_hop = queries
                .map(|q| (q, ()))
                .arrange_by_key()
                .join_core(&edges, |q, (), mid| (*mid, *q));
            let answers = first_hop
                .arrange_by_key()
                .join_core(&edges, |_mid, q, dst| (*q, *dst))
                .distinct();
            QueryIo {
                input,
                probe: answers.probe(),
                results: answers.capture(),
            }
        })
    }

    /// Installs a 4-hop path query: for every argument pair `(src, dst)`, the hop count
    /// of the shortest directed path of length at most four, if one exists.
    pub fn install_four_path(
        &self,
        worker: &mut Worker,
        name: &str,
    ) -> Result<QueryHandle<QueryIo<(u32, u32), ((u32, u32), u32)>>, CatalogError> {
        let graph = self.graph_name.clone();
        worker.install_query(name, &self.catalog, move |builder, catalog| {
            let edges = catalog
                .import::<ValBatch<u32, u32>>(&graph, builder)
                .expect("graph arrangement published before queries install");
            let (input, pairs) = new_collection::<(u32, u32), isize>(builder);
            let frontier0 = pairs.map(|(src, dst)| (src, (src, dst)));
            let mut reached_by_hops = Vec::new();
            let mut frontier = frontier0;
            for _hop in 1..=4u32 {
                let next = frontier
                    .arrange_by_key()
                    .join_core(&edges, |_node, (src, dst), next| (*next, (*src, *dst)));
                reached_by_hops.push(next.clone());
                frontier = next.distinct();
            }
            let answers = reached_by_hops
                .iter()
                .enumerate()
                .map(|(index, reached)| {
                    let hops = index as u32 + 1;
                    reached
                        .filter(|(node, (_src, dst))| node == dst)
                        .map(move |(_node, (src, dst))| ((src, dst), hops))
                })
                .reduce(|a, b| a.concat(&b))
                .expect("at least one hop level")
                .min_by_key();
            QueryIo {
                input,
                probe: answers.probe(),
                results: answers.capture(),
            }
        })
    }
}
