//! The arrangement catalog and the query-session lifecycle (paper §4.3, §6.2).
//!
//! The paper's headline capability is *interactive* sharing: a system that keeps serving
//! standing queries while new queries are installed mid-stream against already-maintained
//! indexes, and while old queries are retired without leaking the resources they pinned.
//! This module is that capability's public API:
//!
//! * [`Catalog`] — a per-worker registry of named, type-erased arrangements. Producers
//!   [`publish`](Catalog::publish_if_absent) an arrangement's trace under a name; consumers
//!   [`lookup`](Catalog::lookup) it by name (recovering the concrete batch type) and
//!   [`import`](Catalog::import) it into their own dataflow. The erasure layer
//!   ([`AnyTrace`]) lets one catalog hold `OrdKeyBatch` and `OrdValBatch` traces of any
//!   key/value type side by side, while lookups remain fully type-checked.
//! * [`QueryLifecycle`] — the install/uninstall extension on [`Worker`]:
//!   [`install_query`](QueryLifecycle::install_query) builds a named dataflow whose
//!   closure receives the catalog (so it can look up shared arrangements and publish new
//!   ones), and [`uninstall_query`](QueryLifecycle::uninstall_query) retires the
//!   dataflow from the scheduler, drops every trace handle its operators held, and
//!   unpublishes what it published — so the shared spines can compact past the departed
//!   reader's frontier. A reader that is never retired pins trace history exactly the way
//!   a pinned snapshot bloats an LSM-tree; uninstall is the API that prevents it.
//!
//! ```no_run
//! use kpg_core::prelude::*;
//!
//! execute(Config::new(1), |worker| {
//!     let catalog = Catalog::new();
//!     // Publish the graph once...
//!     let (mut edges, probe) = worker.install("graph", |builder| {
//!         let (input, edges) = new_collection::<(u32, u32), isize>(builder);
//!         let arranged = edges.arrange_by_key();
//!         catalog.publish_if_absent("edges", &arranged).unwrap();
//!         (input, arranged.probe())
//!     });
//!     // ...then install queries against it by name, and retire them when done.
//!     let degrees = worker
//!         .install_query("degrees", &catalog, |builder, catalog| {
//!             let edges = catalog
//!                 .import::<ValBatch<u32, u32>>("edges", builder)
//!                 .unwrap();
//!             edges.as_collection(|k, _| *k).probe()
//!         })
//!         .unwrap();
//!     let _ = (&mut edges, probe, degrees);
//!     worker.uninstall_query("degrees", &catalog);
//! });
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use kpg_dataflow::{DataflowBuilder, Time, Worker};
use kpg_timestamp::{Antichain, AntichainRef};
use kpg_trace::Batch;

use crate::arrange::{Arranged, TraceAgent};

/// A type-erased, named view of a shared trace: the dynamic face of a
/// [`TraceAgent`] that lets one catalog hold arrangements of heterogeneous key, value,
/// and batch types.
///
/// The erased surface carries exactly what name-based administration needs — frontier
/// inspection, read-frontier advancement, and size accounting — while
/// [`Catalog::lookup`] recovers the concrete `TraceAgent<B>` for actual reading.
pub trait AnyTrace {
    /// The handle as `Any`, for checked downcasts to a concrete `TraceAgent<B>`.
    fn as_any(&self) -> &dyn Any;
    /// The concrete type's name, for diagnostics and mismatch errors.
    fn trace_type(&self) -> &'static str;
    /// The trace's compaction frontier.
    fn since(&self) -> Antichain<Time>;
    /// The upper frontier of updates the trace has absorbed.
    fn upper(&self) -> Antichain<Time>;
    /// The number of updates currently held.
    fn len(&self) -> usize;
    /// True iff the trace currently holds no updates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The number of live read handles on the trace.
    fn reader_count(&self) -> usize;
    /// The reader table's slot high-water mark (free-listed slots included): the churn
    /// metric that must stay bounded as short-lived readers come and go.
    fn reader_slots(&self) -> usize;
    /// Advances this handle's read frontier, permitting compaction.
    fn advance_since(&mut self, frontier: AntichainRef<'_, Time>);
    /// Spends up to `fuel` units of work on the trace's in-progress merges; true iff a
    /// merge is still in progress.
    fn exert(&self, fuel: &mut isize) -> bool;
}

impl<B: Batch<Time = Time> + 'static> AnyTrace for TraceAgent<B> {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn trace_type(&self) -> &'static str {
        std::any::type_name::<TraceAgent<B>>()
    }
    fn since(&self) -> Antichain<Time> {
        TraceAgent::since(self)
    }
    fn upper(&self) -> Antichain<Time> {
        TraceAgent::upper(self)
    }
    fn len(&self) -> usize {
        TraceAgent::len(self)
    }
    fn reader_count(&self) -> usize {
        TraceAgent::reader_count(self)
    }
    fn reader_slots(&self) -> usize {
        TraceAgent::reader_slot_capacity(self)
    }
    fn advance_since(&mut self, frontier: AntichainRef<'_, Time>) {
        self.set_logical_compaction(frontier);
    }
    fn exert(&self, fuel: &mut isize) -> bool {
        TraceAgent::exert(self, fuel)
    }
}

/// Why a catalog operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// A `publish_if_absent` used a name that is already bound.
    NameTaken(String),
    /// A lookup named an arrangement that is not in the catalog.
    NotFound(String),
    /// A lookup asked for a different trace type than the name is bound to.
    TypeMismatch {
        /// The name looked up.
        name: String,
        /// The type the lookup requested.
        requested: &'static str,
        /// The type the catalog actually holds under the name.
        held: &'static str,
    },
    /// An install reused the name of a live query.
    QueryExists(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::NameTaken(name) => {
                write!(f, "an arrangement named {name:?} is already published")
            }
            CatalogError::NotFound(name) => {
                write!(f, "no arrangement named {name:?} is published")
            }
            CatalogError::TypeMismatch {
                name,
                requested,
                held,
            } => write!(
                f,
                "arrangement {name:?} holds {held}, but {requested} was requested"
            ),
            CatalogError::QueryExists(name) => {
                write!(f, "a query named {name:?} is already installed")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

struct CatalogEntry {
    trace: Box<dyn AnyTrace>,
    /// The query that published this entry (`None` for entries published outside any
    /// `install_query` closure). Uninstalling a query unpublishes its entries.
    publisher: Option<String>,
}

#[derive(Default)]
struct CatalogInner {
    /// By name: every walk (`exert_all`, `advance_all`) visits entries in name order,
    /// the same on every worker and in every process.
    entries: BTreeMap<String, CatalogEntry>,
    /// The name of the query currently being installed, if an `install_query` closure is
    /// on the stack; publishes made inside it are tagged as owned by that query.
    installing: Option<String>,
}

/// A per-worker registry of named, type-erased arrangements.
///
/// The catalog is a cheaply clonable handle onto shared state, so the same catalog can
/// be moved into `install_query` closures and still be used from the worker's main loop.
/// Each published entry holds its own [`TraceAgent`] — a real reader with a read
/// frontier — so a published trace stays importable even after the publishing dataflow's
/// other handles are gone. Advance the catalog's readers with
/// [`advance_all`](Catalog::advance_all) (or drop entries) to let spines compact.
pub struct Catalog {
    inner: Rc<RefCell<CatalogInner>>,
}

impl Clone for Catalog {
    fn clone(&self) -> Self {
        Catalog {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            inner: Rc::new(RefCell::new(CatalogInner::default())),
        }
    }

    /// Publishes a trace handle under `name`, replacing any previous entry
    /// (last-writer-wins arbitration). Returns true iff a previous entry was displaced.
    ///
    /// The catalog registers its own read handle on the trace (cloned from the one
    /// given), so the published entry remains live and importable independent of the
    /// handle it was published from. Use [`Catalog::publish_trace_if_absent`] when a
    /// name collision should be an error instead of an overwrite.
    pub fn publish_trace<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
        trace: &TraceAgent<B>,
    ) -> bool {
        let mut inner = self.inner.borrow_mut();
        let publisher = inner.installing.clone();
        inner
            .entries
            .insert(
                name.to_string(),
                CatalogEntry {
                    trace: Box::new(trace.clone()),
                    publisher,
                },
            )
            .is_some()
    }

    /// Publishes an arrangement's trace under `name`, refusing to displace an existing
    /// entry: the arbitration for publish races where first-writer-wins is wanted.
    pub fn publish_if_absent<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
        arranged: &Arranged<B>,
    ) -> Result<(), CatalogError> {
        self.publish_trace_if_absent(name, &arranged.trace)
    }

    /// Publishes a trace handle under `name` unless the name is already bound, in which
    /// case [`CatalogError::NameTaken`] is returned and the existing entry is kept.
    pub fn publish_trace_if_absent<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
        trace: &TraceAgent<B>,
    ) -> Result<(), CatalogError> {
        if self.inner.borrow().entries.contains_key(name) {
            return Err(CatalogError::NameTaken(name.to_string()));
        }
        self.publish_trace(name, trace);
        Ok(())
    }

    /// Looks up the arrangement published under `name`, recovering its concrete batch
    /// type. Returns a fresh read handle (with its own read frontier) onto the shared
    /// trace.
    pub fn lookup<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
    ) -> Result<TraceAgent<B>, CatalogError> {
        let inner = self.inner.borrow();
        let entry = inner
            .entries
            .get(name)
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))?;
        entry
            .trace
            .as_any()
            .downcast_ref::<TraceAgent<B>>()
            .cloned()
            .ok_or_else(|| CatalogError::TypeMismatch {
                name: name.to_string(),
                requested: std::any::type_name::<TraceAgent<B>>(),
                held: entry.trace.trace_type(),
            })
    }

    /// Looks up `name` and imports it into `builder`'s dataflow: the shorthand for the
    /// paper's attach-a-new-query-to-existing-state operation.
    pub fn import<B: Batch<Time = Time> + 'static>(
        &self,
        name: &str,
        builder: &mut DataflowBuilder,
    ) -> Result<Arranged<B>, CatalogError> {
        Ok(self.lookup::<B>(name)?.import(builder))
    }

    /// True iff an arrangement is published under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.borrow().entries.contains_key(name)
    }

    /// The published names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.borrow().entries.keys().cloned().collect()
    }

    /// The number of published arrangements.
    pub fn len(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// True iff nothing is published.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().entries.is_empty()
    }

    /// The compaction frontier of the trace published under `name`.
    pub fn since(&self, name: &str) -> Result<Antichain<Time>, CatalogError> {
        self.with_entry(name, |entry| entry.trace.since())
    }

    /// The upper frontier of the trace published under `name`.
    pub fn upper(&self, name: &str) -> Result<Antichain<Time>, CatalogError> {
        self.with_entry(name, |entry| entry.trace.upper())
    }

    /// The number of updates held by the trace published under `name` (the paper's
    /// memory-footprint proxy).
    pub fn arrangement_size(&self, name: &str) -> Result<usize, CatalogError> {
        self.with_entry(name, |entry| entry.trace.len())
    }

    /// The number of live read handles on the trace published under `name`. Every
    /// importing query holds readers; uninstall must return this to its baseline.
    pub fn reader_count(&self, name: &str) -> Result<usize, CatalogError> {
        self.with_entry(name, |entry| entry.trace.reader_count())
    }

    /// The reader-table slot high-water mark of the trace published under `name` — the
    /// churn metric: bounded reader-slot reuse keeps this flat as queries come and go.
    pub fn reader_slots(&self, name: &str) -> Result<usize, CatalogError> {
        self.with_entry(name, |entry| entry.trace.reader_slots())
    }

    /// Advances the read frontier of every published entry to `frontier`, releasing the
    /// history no future reader can distinguish — the catalog-wide analogue of advancing
    /// a single handle's `since`, and the hygiene that keeps shared spines compact as
    /// the computation moves forward.
    pub fn advance_all(&self, frontier: AntichainRef<'_, Time>) {
        let mut inner = self.inner.borrow_mut();
        for entry in inner.entries.values_mut() {
            entry.trace.advance_since(frontier);
        }
    }

    /// Spends up to `fuel` units of merge work across the published traces — one
    /// budget for all of them, decremented by the work done — so merges that inserts
    /// left half-finished complete while the worker has nothing else to do. Returns
    /// true iff some trace still has a merge in progress; when none has, the call is a
    /// scan of layer tags. Traces are fuelled in name order, so a budget that runs out
    /// stops at the same trace in every process. Purely local: no other worker is
    /// involved, and merge timing never decides an answer.
    pub fn exert_all(&self, fuel: &mut isize) -> bool {
        let inner = self.inner.borrow();
        let mut merging = false;
        for entry in inner.entries.values() {
            merging |= entry.trace.exert(fuel);
        }
        merging
    }

    fn with_entry<T>(
        &self,
        name: &str,
        logic: impl FnOnce(&CatalogEntry) -> T,
    ) -> Result<T, CatalogError> {
        let inner = self.inner.borrow();
        inner
            .entries
            .get(name)
            .map(logic)
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Marks `query` as the publisher of everything published until `end_install`.
    fn begin_install(&self, query: &str) {
        self.inner.borrow_mut().installing = Some(query.to_string());
    }

    fn end_install(&self) {
        self.inner.borrow_mut().installing = None;
    }

    /// Unpublishes every entry `query` published, returning how many were removed.
    fn retract_query(&self, query: &str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let before = inner.entries.len();
        inner
            .entries
            .retain(|_, entry| entry.publisher.as_deref() != Some(query));
        before - inner.entries.len()
    }
}

/// A handle onto an installed query: its name, its dataflow's index, and whatever
/// handles (probes, inputs, captures) the install closure returned.
pub struct QueryHandle<R> {
    name: String,
    dataflow: usize,
    /// The handles returned by the install closure.
    pub result: R,
}

impl<R> QueryHandle<R> {
    /// The name the query was installed under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The index of the query's dataflow: the ordinal of its construction, the same on
    /// every worker and never reused.
    pub fn dataflow_index(&self) -> usize {
        self.dataflow
    }
}

/// The query-session lifecycle: installing and retiring named queries against a
/// [`Catalog`] of shared arrangements.
///
/// Implemented for [`Worker`]; see the module docs for the end-to-end shape.
pub trait QueryLifecycle {
    /// Installs a new named query dataflow. The closure receives the dataflow builder
    /// and the catalog; arrangements it publishes are tagged as owned by this query and
    /// are unpublished again when the query is uninstalled.
    ///
    /// Returns a [`QueryHandle`] wrapping whatever the closure returned, or
    /// [`CatalogError::QueryExists`] if the name is already installed. As with
    /// [`Worker::dataflow`], every worker must install the same queries in the same
    /// order.
    fn install_query<R>(
        &mut self,
        name: &str,
        catalog: &Catalog,
        logic: impl FnOnce(&mut DataflowBuilder, &Catalog) -> R,
    ) -> Result<QueryHandle<R>, CatalogError>;

    /// Retires the named query: removes its dataflow from the scheduler, drops every
    /// trace handle its operators registered (so shared spines can compact past its
    /// reads), and unpublishes the arrangements it published. Returns false if no such
    /// query is installed.
    fn uninstall_query(&mut self, name: &str, catalog: &Catalog) -> bool;
}

impl QueryLifecycle for Worker {
    fn install_query<R>(
        &mut self,
        name: &str,
        catalog: &Catalog,
        logic: impl FnOnce(&mut DataflowBuilder, &Catalog) -> R,
    ) -> Result<QueryHandle<R>, CatalogError> {
        if self.installed_index(name).is_some() {
            return Err(CatalogError::QueryExists(name.to_string()));
        }
        catalog.begin_install(name);
        let result = self.install(name, |builder| logic(builder, catalog));
        catalog.end_install();
        let dataflow = self
            .installed_index(name)
            .expect("the query was just installed");
        Ok(QueryHandle {
            name: name.to_string(),
            dataflow,
            result,
        })
    }

    fn uninstall_query(&mut self, name: &str, catalog: &Catalog) -> bool {
        catalog.retract_query(name);
        self.uninstall(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrange::{KeyBatch, ValBatch};
    use kpg_trace::{Builder, MergeEffort};

    /// A trace with one merge in progress: two abutting batches of 100 updates under
    /// lazy effort, which fuels the merge only partly as the second one arrives.
    fn merging_trace() -> TraceAgent<ValBatch<u32, u32>> {
        let trace = TraceAgent::new(MergeEffort::Lazy);
        for epoch in 0..2 {
            let mut builder = <ValBatch<u32, u32> as Batch>::Builder::with_capacity(100);
            for key in 0..100 {
                builder.push(key, epoch as u32, Time::from_epoch(epoch), 1);
            }
            trace.insert_batch(builder.done(
                Antichain::from_elem(Time::from_epoch(epoch)),
                Antichain::from_elem(Time::from_epoch(epoch + 1)),
                Antichain::from_elem(Time::minimum()),
            ));
        }
        trace
    }

    /// Two catalogs holding the same sixteen merging traces, published in opposite
    /// orders, given a budget that completes one merge: both complete the same one,
    /// the first by name.
    #[test]
    fn exert_all_fuels_traces_in_name_order() {
        let mut fuel = isize::MAX;
        assert!(!merging_trace().exert(&mut fuel));
        let one_merge = isize::MAX - fuel;
        let names: Vec<String> = (0..16).map(|index| format!("trace-{index:02}")).collect();
        let completed = |order: &mut dyn Iterator<Item = &String>| {
            let catalog = Catalog::new();
            for name in order {
                catalog.publish_trace(name, &merging_trace());
            }
            let mut fuel = one_merge;
            assert!(catalog.exert_all(&mut fuel));
            let lookup = |name: &String| catalog.lookup::<ValBatch<u32, u32>>(name).unwrap();
            let done = |name: &&String| lookup(name).batch_count() == 1;
            names.iter().filter(done).cloned().collect::<Vec<_>>()
        };
        assert_eq!(completed(&mut names.iter()), vec!["trace-00".to_string()]);
        assert_eq!(
            completed(&mut names.iter().rev()),
            vec!["trace-00".to_string()]
        );
    }

    #[test]
    fn publish_lookup_roundtrip() {
        let catalog = Catalog::new();
        let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        assert!(!catalog.publish_trace("edges", &trace));
        assert!(catalog.contains("edges"));
        assert_eq!(catalog.names(), vec!["edges".to_string()]);
        let looked = catalog.lookup::<ValBatch<u32, u32>>("edges").unwrap();
        assert_eq!(looked.len(), 0);
    }

    #[test]
    fn lookup_reports_missing_and_mismatched_types() {
        let catalog = Catalog::new();
        let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        catalog.publish_trace("edges", &trace);
        assert_eq!(
            catalog.lookup::<ValBatch<u32, u32>>("nodes").unwrap_err(),
            CatalogError::NotFound("nodes".to_string())
        );
        match catalog.lookup::<KeyBatch<u64>>("edges").unwrap_err() {
            CatalogError::TypeMismatch {
                name,
                requested,
                held,
            } => {
                assert_eq!(name, "edges");
                // One batch implementation: the key-only batch differs from the held one
                // only in its type parameters, which is what the message must show.
                assert!(requested.contains("OrdValBatch<u64, (), "), "{requested}");
                assert!(held.contains("OrdValBatch<u32, u32, "), "{held}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_are_rejected_by_publish_if_absent() {
        let catalog = Catalog::new();
        let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        catalog.publish_trace_if_absent("edges", &trace).unwrap();
        assert_eq!(
            catalog
                .publish_trace_if_absent("edges", &trace)
                .unwrap_err(),
            CatalogError::NameTaken("edges".to_string())
        );
    }

    /// The publish-race arbitration (ROADMAP: "arbitration for publish races"): plain
    /// `publish_trace` is last-writer-wins and reports the displacement, while
    /// `publish_if_absent` is first-writer-wins and reports the refusal — so both racers
    /// always agree on which trace a name resolves to.
    #[test]
    fn publish_race_arbitration() {
        let catalog = Catalog::new();
        let first = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        let second = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);

        // Last-writer-wins: the overwrite is reported, and lookups resolve to the winner.
        assert!(!catalog.publish_trace("edges", &first));
        assert_eq!(first.reader_count(), 2);
        assert!(catalog.publish_trace("edges", &second));
        // The displaced entry's reader handle is released; the winner's is registered.
        assert_eq!(first.reader_count(), 1);
        assert_eq!(second.reader_count(), 2);

        // First-writer-wins: the loser gets an error and the winner's entry survives.
        let third = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        assert_eq!(
            catalog
                .publish_trace_if_absent("edges", &third)
                .unwrap_err(),
            CatalogError::NameTaken("edges".to_string())
        );
        assert_eq!(second.reader_count(), 2);
        assert_eq!(third.reader_count(), 1);
    }

    #[test]
    fn heterogeneous_types_share_one_catalog() {
        let catalog = Catalog::new();
        let by_key = TraceAgent::<ValBatch<u32, String>>::new(MergeEffort::Default);
        let by_self = TraceAgent::<KeyBatch<(u64, u64)>>::new(MergeEffort::Default);
        catalog.publish_trace("profiles", &by_key);
        catalog.publish_trace("pairs", &by_self);
        assert_eq!(catalog.len(), 2);
        catalog.lookup::<ValBatch<u32, String>>("profiles").unwrap();
        catalog.lookup::<KeyBatch<(u64, u64)>>("pairs").unwrap();
    }

    #[test]
    fn catalog_holds_its_own_reader() {
        let catalog = Catalog::new();
        let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
        assert_eq!(trace.reader_count(), 1);
        catalog.publish_trace("edges", &trace);
        assert_eq!(trace.reader_count(), 2);
        drop(trace);
        // The published entry keeps the trace alive and importable.
        let looked = catalog.lookup::<ValBatch<u32, u32>>("edges").unwrap();
        assert_eq!(looked.reader_count(), 2);
    }
}
