//! A name → trace map, kept only for the frozen benchmark package's probes.
//!
//! Queries are posed through `kpg_plan::Manager`: its registry holds typed trace handles
//! keyed by what they arrange, and it names no dataflow. This module is what is left of
//! an older, closure-built query API. It keeps exactly the calls the benchmark package's
//! `core.import_us` probe links — [`Catalog::new`], [`Catalog::publish_trace`],
//! [`Catalog::import`] and [`QueryLifecycle`]'s `install_query` / `uninstall_query`,
//! thin wrappers over [`Worker::install`] and [`Worker::uninstall`] — and is deleted
//! once that probe goes through `kpg_plan` (ROADMAP, "Ruler v2", part (d)).
//!
//! ```no_run
//! use kpg_core::prelude::*;
//!
//! execute(Config::new(1), |worker| {
//!     let catalog = Catalog::new();
//!     let (mut edges, trace) = worker.dataflow(|builder| {
//!         let (input, edges) = new_collection::<(u32, u32), isize>(builder);
//!         (input, edges.arrange_by_key().trace)
//!     });
//!     catalog.publish_trace("edges", &trace);
//!     edges.insert((1, 2));
//!     worker
//!         .install_query("degrees", &catalog, |builder, catalog| {
//!             let edges = catalog.import::<ValBatch<u32, u32>>("edges", builder);
//!             edges.unwrap().as_collection(|src, _| *src).probe()
//!         })
//!         .unwrap();
//!     worker.uninstall_query("degrees", &catalog);
//! });
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;

use kpg_dataflow::{DataflowBuilder, Time, Worker};
use kpg_trace::Batch;

use crate::arrange::{Arranged, TraceAgent};

/// Why an import or an install failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// An import named a trace that is not published.
    NotFound(String),
    /// An import asked for another trace type than the name is bound to.
    TypeMismatch {
        /// The name imported.
        name: String,
        /// The type the import requested.
        requested: &'static str,
        /// The type published under the name.
        held: &'static str,
    },
    /// An install reused the name of a live query.
    QueryExists(String),
}

/// A published trace handle, as `Any`, beside its type's name.
type Entry = (Box<dyn Any>, &'static str);

/// Trace handles by name.
#[derive(Default)]
pub struct Catalog {
    entries: RefCell<BTreeMap<String, Entry>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a read handle of its own on `trace` under `name`, replacing (and
    /// releasing) any handle the name held. Returns true iff one was replaced.
    pub fn publish_trace<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
        trace: &TraceAgent<B>,
    ) -> bool {
        let held = std::any::type_name::<TraceAgent<B>>();
        let entry: Entry = (Box::new(trace.clone()), held);
        let mut entries = self.entries.borrow_mut();
        entries.insert(name.to_string(), entry).is_some()
    }

    /// Imports the trace published under `name` into `builder`'s dataflow.
    pub fn import<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
        builder: &mut DataflowBuilder,
    ) -> Result<Arranged<B>, CatalogError> {
        let entries = self.entries.borrow();
        let Some((trace, held)) = entries.get(name) else {
            return Err(CatalogError::NotFound(name.to_string()));
        };
        let trace = trace.downcast_ref::<TraceAgent<B>>();
        let trace = trace.ok_or_else(|| CatalogError::TypeMismatch {
            name: name.to_string(),
            requested: std::any::type_name::<TraceAgent<B>>(),
            held,
        })?;
        Ok(trace.import(builder))
    }
}

/// Named installs that hand their closure the [`Catalog`].
pub trait QueryLifecycle {
    /// [`Worker::install`] under `name`, refusing a live name with
    /// [`CatalogError::QueryExists`] instead of panicking.
    fn install_query<R>(
        &mut self,
        name: &str,
        catalog: &Catalog,
        logic: impl FnOnce(&mut DataflowBuilder, &Catalog) -> R,
    ) -> Result<R, CatalogError>;

    /// [`Worker::uninstall`]: false if no query by that name is installed.
    fn uninstall_query(&mut self, name: &str, catalog: &Catalog) -> bool;
}

impl QueryLifecycle for Worker {
    fn install_query<R>(
        &mut self,
        name: &str,
        catalog: &Catalog,
        logic: impl FnOnce(&mut DataflowBuilder, &Catalog) -> R,
    ) -> Result<R, CatalogError> {
        if self.installed_index(name).is_some() {
            return Err(CatalogError::QueryExists(name.to_string()));
        }
        Ok(self.install(name, |builder| logic(builder, catalog)))
    }

    fn uninstall_query(&mut self, name: &str, _catalog: &Catalog) -> bool {
        self.uninstall(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrange::{KeyBatch, ValBatch};
    use kpg_dataflow::{execute, Config};
    use kpg_trace::MergeEffort;

    /// Imports `name` from `catalog` into a fresh dataflow on `worker`.
    fn imported<B: Batch<Time = Time> + 'static>(
        worker: &mut Worker,
        catalog: &Catalog,
        name: &str,
    ) -> Result<(), CatalogError> {
        worker.dataflow(|builder| catalog.import::<B>(name, builder).map(drop))
    }

    #[test]
    fn publish_lookup_roundtrip() {
        execute(Config::new(1), |worker| {
            let catalog = Catalog::new();
            let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
            assert!(!catalog.publish_trace("edges", &trace));
            imported::<ValBatch<u32, u32>>(worker, &catalog, "edges").unwrap();
        });
    }

    #[test]
    fn lookup_reports_missing_and_mismatched_types() {
        execute(Config::new(1), |worker| {
            let catalog = Catalog::new();
            let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
            catalog.publish_trace("edges", &trace);
            assert_eq!(
                imported::<ValBatch<u32, u32>>(worker, &catalog, "nodes").unwrap_err(),
                CatalogError::NotFound("nodes".to_string())
            );
            match imported::<KeyBatch<u64>>(worker, &catalog, "edges").unwrap_err() {
                CatalogError::TypeMismatch {
                    name,
                    requested,
                    held,
                } => {
                    assert_eq!(name, "edges");
                    // One batch implementation: the key-only batch differs from the held
                    // one only in its type parameters, which is what the error must show.
                    assert!(requested.contains("OrdValBatch<u64, (), "), "{requested}");
                    assert!(held.contains("OrdValBatch<u32, u32, "), "{held}");
                }
                other => panic!("unexpected error: {other:?}"),
            }
        });
    }

    /// Publishing over a name is last-writer-wins and reports the displacement: the
    /// displaced trace's catalog reader is released, the winner's registered.
    #[test]
    fn publish_race_arbitration() {
        let catalog = Catalog::new();
        let first = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        let second = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        assert!(!catalog.publish_trace("edges", &first));
        assert_eq!(first.reader_count(), 2);
        assert!(catalog.publish_trace("edges", &second));
        assert_eq!(first.reader_count(), 1);
        assert_eq!(second.reader_count(), 2);
    }

    #[test]
    fn heterogeneous_types_share_one_catalog() {
        execute(Config::new(1), |worker| {
            let catalog = Catalog::new();
            let by_key = TraceAgent::<ValBatch<u32, String>>::new(MergeEffort::Default);
            let by_self = TraceAgent::<KeyBatch<(u64, u64)>>::new(MergeEffort::Default);
            catalog.publish_trace("profiles", &by_key);
            catalog.publish_trace("pairs", &by_self);
            imported::<ValBatch<u32, String>>(worker, &catalog, "profiles").unwrap();
            imported::<KeyBatch<(u64, u64)>>(worker, &catalog, "pairs").unwrap();
        });
    }

    #[test]
    fn catalog_holds_its_own_reader() {
        execute(Config::new(1), |worker| {
            let catalog = Catalog::new();
            let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
            assert_eq!(trace.reader_count(), 1);
            catalog.publish_trace("edges", &trace);
            assert_eq!(trace.reader_count(), 2);
            drop(trace);
            // The published entry keeps the trace alive and importable.
            imported::<ValBatch<u32, u32>>(worker, &catalog, "edges").unwrap();
        });
    }
}
