//! The per-worker [`Manager`]: named inputs, a plan→trace registry, and the command
//! loop that installs dataflows from data.
//!
//! This is the engine a server loop drives: every worker constructs one `Manager` and
//! executes the *same* [`Command`] stream against it (exactly as closure-built dataflows
//! must be installed identically on every worker). Commands are plain data, so the
//! stream can come from a recorded log today and a network socket tomorrow.
//!
//! **Sub-plan memoization.** Installing a plan first ensures an arrangement exists for
//! every `(sub-plan, key)` pair the render pass will import, installing small "memo"
//! dataflows for the missing ones and publishing their traces in the manager's catalog.
//! Plan-identical subtrees therefore *share one arrangement across queries* — the
//! paper's inter-query sharing applied between queries that arrive at runtime. Memo
//! entries are reference-counted by their dependants but are **retained** when the count
//! reaches zero (arrangements outlive the queries that prompted them, so the next
//! arriving query attaches in milliseconds); they are evicted when their underlying
//! input is removed.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

use kpg_core::prelude::*;
use kpg_dataflow::Time;
use kpg_timestamp::Antichain;

use crate::plan::{ArrangeKey, KeySpec, Plan, PlanValidity};
use crate::render::{Renderer, SourceBinding};
use crate::value::Row;

/// One instruction of the runtime query protocol.
///
/// All workers must execute identical command streams; [`Command::Update`] is sharded
/// internally (by a deterministic row hash), so replaying one log on every worker
/// introduces each update exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Creates a named, globally shared input collection (with a published base
    /// arrangement any plan can import).
    CreateInput {
        /// The input's name.
        name: String,
        /// How the base arrangement is keyed: `Some(k)` keys rows by their first `k`
        /// columns (so plans joining or reducing on that prefix import the base
        /// directly, with no re-arrangement); `None` keys rows by themselves.
        key_arity: Option<usize>,
    },
    /// Introduces one update to a named input at the current epoch.
    Update {
        /// The input to update (global, or local to an installed query).
        name: String,
        /// The row.
        row: Row,
        /// The multiplicity change.
        diff: isize,
    },
    /// Advances every input (and the catalog's read frontiers) to `epoch`.
    AdvanceTime {
        /// The new epoch; must not regress.
        epoch: u64,
    },
    /// Installs `plan` as a standing query named `name`. Sources listed in `locals` are
    /// created as inputs private to this query's dataflow (removed again on uninstall)
    /// rather than resolved against the shared inputs.
    Install {
        /// The query name (also its dataflow name).
        name: String,
        /// The plan to render.
        plan: Plan,
        /// Query-local input names.
        locals: Vec<String>,
    },
    /// Retires the named query (releasing its imports so shared traces can compact), or
    /// removes the named shared input (evicting memo arrangements built on it).
    Uninstall {
        /// The query or input name.
        name: String,
    },
    /// Reads the named query's current accumulated output: consolidated rows with
    /// multiplicities, over everything sealed, i.e. every time *strictly before* the
    /// current epoch — exactly the times [`Manager::settle`] seals, so a settled
    /// query's answer is deterministic. The answer is the whole content of the query's
    /// result arrangement, read without a time filter: nothing at or after the current
    /// epoch can be in it (operators seal only below the input frontier, which the
    /// inputs hold at the current epoch), and compaction moves sealed times *up to* the
    /// current epoch, so filtering by time would drop sealed updates. To observe an
    /// `Update`, advance time past its epoch and settle first; updates at the
    /// still-open current epoch are never reported.
    Query {
        /// The query name.
        name: String,
    },
}

/// What a successfully executed [`Command`] produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Nothing beyond success.
    Done,
    /// An `Install` completed; `new_dataflows` counts the dataflows constructed (the
    /// query itself plus any memo dataflows that were not already shared).
    Installed {
        /// Dataflows constructed by this install.
        new_dataflows: usize,
    },
    /// An `Uninstall` completed; false if nothing by that name existed.
    Uninstalled {
        /// Whether a query or input was actually removed.
        existed: bool,
    },
    /// A `Query`'s consolidated output rows.
    Rows(Vec<(Row, isize)>),
}

/// Why a command failed. The manager's state is unchanged by a failed command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The plan failed structural validation.
    Invalid(PlanValidity),
    /// A `CreateInput` (or `Install` local) reused an existing input name.
    DuplicateInput(String),
    /// An `Update` or plan source named an input that does not exist.
    UnknownInput(String),
    /// An `Install` reused the name of a live query.
    DuplicateQuery(String),
    /// A `Query` named no installed query.
    UnknownQuery(String),
    /// An `Uninstall` targeted an input still read by a live query (or a query-local
    /// input, which only its owning query's uninstall may remove).
    InputInUse {
        /// The input.
        input: String,
        /// The query keeping it alive.
        user: String,
    },
    /// Time may only advance.
    TimeRegression {
        /// The current epoch.
        from: u64,
        /// The requested epoch.
        to: u64,
    },
    /// An underlying catalog operation failed.
    Catalog(CatalogError),
    /// The server cannot currently make mutations durable (its log is failing) and
    /// is refusing state-defining commands; queries still answer from memory. Issued
    /// by the server's sequencer, never by a manager itself.
    DegradedReadOnly,
}

impl Command {
    /// A short, stable label for the command's variant — what a server logs and keys
    /// metrics on.
    pub fn kind(&self) -> &'static str {
        match self {
            Command::CreateInput { .. } => "create-input",
            Command::Update { .. } => "update",
            Command::AdvanceTime { .. } => "advance-time",
            Command::Install { .. } => "install",
            Command::Uninstall { .. } => "uninstall",
            Command::Query { .. } => "query",
        }
    }
}

impl PlanError {
    /// A short, stable machine-readable code for the error class. The wire protocol
    /// sends it alongside the human-readable message, so remote clients can match on
    /// failures without parsing display text.
    pub fn code(&self) -> &'static str {
        match self {
            PlanError::Invalid(_) => "invalid-plan",
            PlanError::DuplicateInput(_) => "duplicate-input",
            PlanError::UnknownInput(_) => "unknown-input",
            PlanError::DuplicateQuery(_) => "duplicate-query",
            PlanError::UnknownQuery(_) => "unknown-query",
            PlanError::InputInUse { .. } => "input-in-use",
            PlanError::TimeRegression { .. } => "time-regression",
            PlanError::Catalog(_) => "catalog",
            PlanError::DegradedReadOnly => "degraded-read-only",
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Invalid(validity) => write!(f, "invalid plan: {validity}"),
            PlanError::DuplicateInput(name) => write!(f, "an input named {name:?} exists"),
            PlanError::UnknownInput(name) => write!(f, "no input named {name:?}"),
            PlanError::DuplicateQuery(name) => write!(f, "a query named {name:?} is installed"),
            PlanError::UnknownQuery(name) => write!(f, "no query named {name:?} is installed"),
            PlanError::InputInUse { input, user } => {
                write!(f, "input {input:?} is still used by query {user:?}")
            }
            PlanError::TimeRegression { from, to } => {
                write!(f, "cannot advance time from epoch {from} back to {to}")
            }
            PlanError::Catalog(error) => write!(f, "catalog: {error}"),
            PlanError::DegradedReadOnly => {
                write!(
                    f,
                    "the server cannot write its log and is in degraded read-only mode; \
                     mutations are rejected until writes succeed again"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CatalogError> for PlanError {
    fn from(error: CatalogError) -> Self {
        PlanError::Catalog(error)
    }
}

struct InputEntry {
    handle: InputHandle<Row, isize>,
    /// The published base arrangement (None for query-local inputs, which are not
    /// importable by other queries). Always keyed by a prefix `Columns(0..k)` or
    /// `SelfRow`, so the original row is reconstructible as key ++ rest.
    base: Option<SourceBinding>,
    /// The base dataflow's probe (None for query-local inputs).
    probe: Option<ProbeHandle>,
    /// The owning query, for query-local inputs.
    owner: Option<String>,
}

struct MemoEntry {
    arrangement: String,
    dataflow: String,
    probe: ProbeHandle,
    /// Direct dependants: installed queries plus memo entries rendered on top of this
    /// one. Zero means cached-but-unused (retained until eviction).
    uses: usize,
    /// The memo keys this entry's own rendering imports.
    requirements: Vec<ArrangeKey>,
    /// Every source name the memoized sub-plan mentions (for input-removal eviction).
    sources: BTreeSet<String>,
}

struct InstalledPlan {
    probe: ProbeHandle,
    /// The published result arrangement: the query's answer, maintained and compacted
    /// like every other catalog entry, unpublished with the query's dataflow.
    result: SourceBinding,
    requirements: Vec<ArrangeKey>,
    locals: Vec<String>,
    sources: BTreeSet<String>,
}

/// The merge work one [`Manager::idle_turn`] may do, in merge fuel units (source updates
/// read). A worker looks for a sequenced command between turns, so this bounds how long
/// a command that arrives mid-turn waits. Sized by measurement on the benchmark's
/// `epoch_stream` server: a turn takes ≈ 30 µs at the median and ≈ 47 µs at p90 (≈ 80 ns
/// a unit on `Row`s out of cache; 26 ns in cache, `BENCH_micro_spine_merge.json`). What
/// no fuel bounds is a turn in which a merge *completes*: it drops the merge's sources,
/// 0.1–0.3 ms at p99 — work the next insert would otherwise have done inline.
const IDLE_TURN_FUEL: isize = 384;

/// The per-worker runtime-plan engine. See the module docs for the protocol.
pub struct Manager {
    catalog: Catalog,
    epoch: u64,
    counter: u64,
    inputs: HashMap<String, InputEntry>,
    memo: HashMap<ArrangeKey, MemoEntry>,
    installed: HashMap<String, InstalledPlan>,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// A fresh manager with its own (empty) catalog, at epoch 0.
    pub fn new() -> Self {
        Manager {
            catalog: Catalog::new(),
            epoch: 0,
            counter: 0,
            inputs: HashMap::new(),
            memo: HashMap::new(),
            installed: HashMap::new(),
        }
    }

    /// Executes one command. See [`Command`] for per-variant semantics.
    pub fn execute(
        &mut self,
        worker: &mut Worker,
        command: Command,
    ) -> Result<Response, PlanError> {
        match command {
            Command::CreateInput { name, key_arity } => {
                self.create_input_keyed(worker, &name, key_arity)?;
                Ok(Response::Done)
            }
            Command::Update { name, row, diff } => {
                // Identical command streams on every worker: the update is introduced
                // only by the worker the row hashes to.
                if !self.inputs.contains_key(&name) {
                    return Err(PlanError::UnknownInput(name));
                }
                if shard_of(&row, worker.peers()) == worker.index() {
                    self.update(&name, row, diff)?;
                }
                Ok(Response::Done)
            }
            Command::AdvanceTime { epoch } => {
                self.advance_to(epoch)?;
                Ok(Response::Done)
            }
            Command::Install { name, plan, locals } => {
                let new_dataflows = self.install(worker, &name, plan, locals)?;
                Ok(Response::Installed { new_dataflows })
            }
            Command::Uninstall { name } => {
                let existed = self.uninstall(worker, &name)?;
                Ok(Response::Uninstalled { existed })
            }
            Command::Query { name } => Ok(Response::Rows(self.query(&name)?)),
        }
    }

    /// Creates a shared input whose base arrangement keys rows by themselves. See
    /// [`Manager::create_input_keyed`] for prefix-keyed bases.
    pub fn create_input(&mut self, worker: &mut Worker, name: &str) -> Result<(), PlanError> {
        self.create_input_keyed(worker, name, None)
    }

    /// Creates a shared input: a dataflow holding the input operator and a published
    /// base arrangement any plan can import. With `key_arity: Some(k)` the base keys
    /// rows by their first `k` columns — the hot-path option: plans that join or reduce
    /// on that prefix import the base arrangement directly, paying no re-arrangement
    /// (exactly what a closure-built session does when it arranges its graph by source
    /// node once). With `None` the base keys rows by themselves.
    pub fn create_input_keyed(
        &mut self,
        worker: &mut Worker,
        name: &str,
        key_arity: Option<usize>,
    ) -> Result<(), PlanError> {
        if self.inputs.contains_key(name) {
            return Err(PlanError::DuplicateInput(name.to_string()));
        }
        let keys = match key_arity {
            None => KeySpec::SelfRow,
            Some(arity) => KeySpec::Columns((0..arity).collect()),
        };
        let base = SourceBinding {
            arrangement: format!("plan-source-{name}"),
            keys,
        };
        let dataflow = format!("plan-input-{name}");
        let catalog = self.catalog.clone();
        let handle = worker
            .install_query(&dataflow, &catalog, |builder, catalog| {
                // The base is the input itself, rendered as a source local to this
                // dataflow and arranged by the requested key.
                let (handle, rows) = new_collection::<Row, isize>(builder);
                let locals = HashMap::from([(name.to_string(), rows)]);
                let renderer = Renderer::new(HashMap::new(), HashMap::new(), locals);
                let probe = publish(&renderer, builder, catalog, &Plan::source(name), &base);
                (handle, probe)
            })
            .map_err(PlanError::Catalog)?;
        let (mut input, probe) = handle.result;
        input.advance_to(self.epoch);
        self.inputs.insert(
            name.to_string(),
            InputEntry {
                handle: input,
                base: Some(base),
                probe: Some(probe),
                owner: None,
            },
        );
        Ok(())
    }

    /// Introduces one update to a named input at the current epoch. Unlike
    /// [`Command::Update`], this applies unconditionally: callers that use it directly
    /// are responsible for sharding updates across workers.
    pub fn update(&mut self, name: &str, row: Row, diff: isize) -> Result<(), PlanError> {
        let entry = self
            .inputs
            .get_mut(name)
            .ok_or_else(|| PlanError::UnknownInput(name.to_string()))?;
        entry.handle.update(row, diff);
        Ok(())
    }

    /// Advances every input to `epoch` and lets the catalog's arrangements consolidate
    /// history no longer distinguishable by queries installed from now on.
    pub fn advance_to(&mut self, epoch: u64) -> Result<(), PlanError> {
        if epoch < self.epoch {
            return Err(PlanError::TimeRegression {
                from: self.epoch,
                to: epoch,
            });
        }
        self.epoch = epoch;
        for entry in self.inputs.values_mut() {
            entry.handle.advance_to(epoch);
        }
        self.catalog
            .advance_all(Antichain::from_elem(Time::from_epoch(epoch)).borrow());
        Ok(())
    }

    /// Installs `plan` as a standing query. Returns the number of dataflows constructed:
    /// 1 for the query itself plus one per memo arrangement that did not already exist.
    pub fn install(
        &mut self,
        worker: &mut Worker,
        name: &str,
        plan: Plan,
        locals: Vec<String>,
    ) -> Result<usize, PlanError> {
        // Check the worker's dataflow namespace too (it also holds the manager's
        // "plan-input-…"/"plan-memo-…" dataflows): name failures are detected before
        // any memo dataflow is ensured, and later failures roll the ensured ones back,
        // so a failed command leaves no state either way.
        if self.installed.contains_key(name) || worker.installed_index(name).is_some() {
            return Err(PlanError::DuplicateQuery(name.to_string()));
        }
        let locals_set: BTreeSet<String> = locals.iter().cloned().collect();
        for local in &locals_set {
            if self.inputs.contains_key(local) {
                return Err(PlanError::DuplicateInput(local.clone()));
            }
        }
        let mut known: BTreeSet<String> = self
            .inputs
            .iter()
            .filter(|(_, entry)| entry.owner.is_none())
            .map(|(name, _)| name.clone())
            .collect();
        known.extend(locals_set.iter().cloned());
        plan.validate(&known).map_err(PlanError::Invalid)?;
        let mut sources = BTreeSet::new();
        plan.sources(&mut sources);

        // Ensure every arrangement the render pass will import exists (installing memo
        // dataflows for the missing ones), then install the query itself. A failure in
        // either part rolls back the memo dataflows this install created, so a failed
        // command still leaves no state.
        let mut requirements = Vec::new();
        plan.arrangement_requirements(&locals_set, &mut requirements);
        let mut new_dataflows = 1;
        let mut arrangements = HashMap::new();
        let mut created = Vec::new();
        for requirement in &requirements {
            match self.ensure_arranged(worker, requirement, &mut created) {
                Ok((installs, arrangement)) => {
                    new_dataflows += installs;
                    arrangements.insert(requirement.clone(), arrangement);
                }
                Err(error) => {
                    self.roll_back_created(worker, &created);
                    return Err(error);
                }
            }
        }

        // The answer is the plan's root as an arrangement: a reduce's own output keyed
        // by its grouping columns, anything else by whole rows.
        let result = SourceBinding {
            arrangement: format!("plan-result-{name}"),
            keys: match &plan {
                Plan::Reduce { key_arity, .. } => KeySpec::Columns((0..*key_arity).collect()),
                _ => KeySpec::SelfRow,
            },
        };
        let catalog = self.catalog.clone();
        let sources_map = self.source_arrangements();
        let (local_names, binding) = (&locals, &result);
        let handle = match worker.install_query(name, &catalog, move |builder, catalog| {
            let mut local_map = HashMap::new();
            let mut handles = Vec::new();
            for local in local_names {
                let (handle, collection) = new_collection::<Row, isize>(builder);
                handles.push((local.clone(), handle));
                local_map.insert(local.clone(), collection);
            }
            let renderer = Renderer::new(arrangements, sources_map, local_map);
            (
                handles,
                publish(&renderer, builder, catalog, &plan, binding),
            )
        }) {
            Ok(handle) => handle,
            Err(error) => {
                self.roll_back_created(worker, &created);
                return Err(PlanError::Catalog(error));
            }
        };
        for requirement in &requirements {
            if let Some(entry) = self.memo.get_mut(requirement) {
                entry.uses += 1;
            }
        }
        let (handles, probe) = handle.result;
        for (local, mut input) in handles {
            input.advance_to(self.epoch);
            self.inputs.insert(
                local,
                InputEntry {
                    handle: input,
                    base: None,
                    probe: None,
                    owner: Some(name.to_string()),
                },
            );
        }
        self.installed.insert(
            name.to_string(),
            InstalledPlan {
                probe,
                result,
                requirements,
                locals,
                sources,
            },
        );
        Ok(new_dataflows)
    }

    /// Retires the named query, or removes the named shared input. Returns false if
    /// nothing by that name exists.
    pub fn uninstall(&mut self, worker: &mut Worker, name: &str) -> Result<bool, PlanError> {
        if let Some(query) = self.installed.remove(name) {
            for requirement in &query.requirements {
                if let Some(entry) = self.memo.get_mut(requirement) {
                    entry.uses -= 1;
                }
            }
            for local in &query.locals {
                self.inputs.remove(local);
            }
            let removed = worker.uninstall_query(name, &self.catalog);
            debug_assert!(removed, "installed query had no dataflow");
            return Ok(true);
        }
        match self.inputs.get(name) {
            None => Ok(false),
            Some(entry) => match &entry.owner {
                Some(owner) => Err(PlanError::InputInUse {
                    input: name.to_string(),
                    user: owner.clone(),
                }),
                None => {
                    self.remove_input(worker, name)?;
                    Ok(true)
                }
            },
        }
    }

    fn remove_input(&mut self, worker: &mut Worker, name: &str) -> Result<(), PlanError> {
        for (query, installed) in self.installed.iter() {
            if installed.sources.contains(name) {
                return Err(PlanError::InputInUse {
                    input: name.to_string(),
                    user: query.clone(),
                });
            }
        }
        // Evict memo arrangements built on the departing input, leaves first. With no
        // live query on the input, every such entry's dependants also mention the input,
        // so the loop drains them all.
        loop {
            let victim = self
                .memo
                .iter()
                .find(|(_, entry)| entry.sources.contains(name) && entry.uses == 0)
                .map(|(key, _)| key.clone());
            let Some(key) = victim else { break };
            self.evict(worker, &key);
        }
        debug_assert!(
            !self.memo.values().any(|entry| entry.sources.contains(name)),
            "memo entries on a removed input survived eviction"
        );
        self.inputs.remove(name);
        worker.uninstall_query(&format!("plan-input-{name}"), &self.catalog);
        Ok(())
    }

    fn evict(&mut self, worker: &mut Worker, key: &ArrangeKey) {
        let entry = self.memo.remove(key).expect("evicting a present entry");
        debug_assert_eq!(entry.uses, 0, "evicting a memo entry that is in use");
        for requirement in &entry.requirements {
            if let Some(dependency) = self.memo.get_mut(requirement) {
                dependency.uses -= 1;
            }
        }
        worker.uninstall_query(&entry.dataflow, &self.catalog);
    }

    /// Ensures an arrangement for `key` exists, installing (recursively) the memo
    /// dataflows needed. Returns `(dataflows installed, catalog arrangement name)`.
    /// Every memo entry this call creates is appended to `created` (dependencies before
    /// dependants), so a caller whose later steps fail can roll them back.
    fn ensure_arranged(
        &mut self,
        worker: &mut Worker,
        key: &ArrangeKey,
        created: &mut Vec<ArrangeKey>,
    ) -> Result<(usize, String), PlanError> {
        // A source keyed the way its base arrangement is keyed *is* the base
        // arrangement; only other keyings need a memoized re-arrangement.
        if let Plan::Source(source) = &key.plan {
            let base = self
                .inputs
                .get(source)
                .and_then(|entry| entry.base.as_ref())
                .ok_or_else(|| PlanError::UnknownInput(source.clone()))?;
            if base.keys == key.keys {
                return Ok((0, base.arrangement.clone()));
            }
        }
        if let Some(entry) = self.memo.get(key) {
            return Ok((0, entry.arrangement.clone()));
        }

        let no_locals = BTreeSet::new();
        let mut requirements = Vec::new();
        key.plan
            .arrangement_requirements(&no_locals, &mut requirements);
        let mut installs = 0;
        let mut arrangements = HashMap::new();
        for requirement in &requirements {
            let (nested, arrangement) = self.ensure_arranged(worker, requirement, created)?;
            installs += nested;
            arrangements.insert(requirement.clone(), arrangement);
        }

        self.counter += 1;
        let dataflow = format!("plan-memo-{}", self.counter);
        let published = SourceBinding {
            arrangement: format!("plan-arr-{}", self.counter),
            keys: key.keys.clone(),
        };
        let catalog = self.catalog.clone();
        let sources_map = self.source_arrangements();
        let handle = worker
            .install_query(&dataflow, &catalog, |builder, catalog| {
                let renderer = Renderer::new(arrangements, sources_map, HashMap::new());
                publish(&renderer, builder, catalog, &key.plan, &published)
            })
            .map_err(PlanError::Catalog)?;
        for requirement in &requirements {
            if let Some(entry) = self.memo.get_mut(requirement) {
                entry.uses += 1;
            }
        }
        let mut sources = BTreeSet::new();
        key.plan.sources(&mut sources);
        self.memo.insert(
            key.clone(),
            MemoEntry {
                arrangement: published.arrangement.clone(),
                dataflow,
                probe: handle.result,
                uses: 0,
                requirements,
                sources,
            },
        );
        created.push(key.clone());
        Ok((installs + 1, published.arrangement))
    }

    /// Undoes a partially completed install: evicts the memo entries it `created`,
    /// newest first, so each dependant releases its dependencies before they go.
    fn roll_back_created(&mut self, worker: &mut Worker, created: &[ArrangeKey]) {
        for key in created.iter().rev() {
            self.evict(worker, key);
        }
    }

    /// The named query's consolidated output: every `(row, multiplicity)` accumulated
    /// over everything sealed, i.e. every time *strictly before* the current epoch,
    /// sorted by row. That bound is exactly what [`Manager::settle`] waits for
    /// ([`Manager::behind`] at the current epoch), so a settled query's answer is
    /// deterministic; updates introduced at the still-open current epoch become visible
    /// after the next [`Manager::advance_to`] seals it. The read is one pass over the
    /// query's result arrangement with no time filter (see [`Command::Query`] for why
    /// none is needed, or correct), through a handle looked up and dropped per call.
    pub fn query(&self, name: &str) -> Result<Vec<(Row, isize)>, PlanError> {
        let installed = self
            .installed
            .get(name)
            .ok_or_else(|| PlanError::UnknownQuery(name.to_string()))?;
        Ok(installed.result.read(&self.catalog)?)
    }

    /// True iff any managed dataflow (input, memo, or query) has not yet caught up to
    /// `time`.
    pub fn behind(&self, time: &Time) -> bool {
        self.inputs
            .values()
            .filter_map(|entry| entry.probe.as_ref())
            .chain(self.memo.values().map(|entry| &entry.probe))
            .chain(self.installed.values().map(|entry| &entry.probe))
            .any(|probe| probe.less_than(time))
    }

    /// Steps `worker` until everything managed is current at the manager's epoch:
    /// everything sealed, i.e. every time strictly before the current epoch, is then in
    /// the arrangements and nothing later is — which is why [`Manager::query`] can read
    /// a result arrangement whole.
    pub fn settle(&self, worker: &mut Worker) {
        let target = Time::from_epoch(self.epoch);
        worker.step_while(|| self.behind(&target));
    }

    /// One bounded turn of trace maintenance for a worker with nothing else to do: at
    /// most [`IDLE_TURN_FUEL`] units of merge work across every arrangement the manager
    /// holds (inputs, memoized sub-plans, results — all of them are catalog entries).
    /// Returns true iff a merge is still in progress, i.e. another turn would find
    /// work; with nothing merging the turn is a scan of layer tags. Local to this
    /// worker, and invisible in every answer: a merge changes how a trace is laid out,
    /// never what it accumulates to.
    pub fn idle_turn(&self) -> bool {
        let mut fuel = IDLE_TURN_FUEL;
        self.catalog.exert_all(&mut fuel)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The manager's catalog (for introspection: reader counts, arrangement sizes).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The probe of an installed query's output.
    pub fn query_probe(&self, name: &str) -> Option<ProbeHandle> {
        self.installed.get(name).map(|entry| entry.probe.clone())
    }

    /// The names of the installed queries, sorted.
    pub fn installed_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.installed.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The names of the live inputs (shared and query-local), sorted.
    pub fn input_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inputs.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The number of memoized sub-plan arrangements currently held.
    pub fn memo_count(&self) -> usize {
        self.memo.len()
    }

    /// The catalog name of the arrangement serving `key`, if one exists (the base
    /// arrangement for sources keyed the way their base is, a memo arrangement
    /// otherwise).
    pub fn arrangement_name(&self, key: &ArrangeKey) -> Option<String> {
        if let Plan::Source(source) = &key.plan {
            if let Some(base) = self
                .inputs
                .get(source)
                .and_then(|entry| entry.base.as_ref())
            {
                if base.keys == key.keys {
                    return Some(base.arrangement.clone());
                }
            }
        }
        self.memo.get(key).map(|entry| entry.arrangement.clone())
    }

    /// The catalog name of the arrangement holding the named query's answer.
    pub fn result_name(&self, query: &str) -> Option<String> {
        let installed = self.installed.get(query)?;
        Some(installed.result.arrangement.clone())
    }

    /// The number of live read handles on the arrangement serving `key` — the sharing
    /// introspection: each importing dataflow holds readers, so two queries sharing a
    /// subtree are visible here.
    pub fn arrangement_reader_count(&self, key: &ArrangeKey) -> Option<usize> {
        let name = self.arrangement_name(key)?;
        self.catalog.reader_count(&name).ok()
    }

    /// The number of current dependants of the memo arrangement for `key` (0 =
    /// retained-but-unused).
    pub fn memo_uses(&self, key: &ArrangeKey) -> Option<usize> {
        self.memo.get(key).map(|entry| entry.uses)
    }

    fn source_arrangements(&self) -> HashMap<String, SourceBinding> {
        self.inputs
            .iter()
            .filter_map(|(name, entry)| Some((name.clone(), entry.base.clone()?)))
            .collect()
    }
}

/// Renders `plan` arranged the way `binding.keys` says and publishes the arrangement
/// under `binding.arrangement`, owned by the dataflow under construction (uninstalling
/// it unpublishes the entry). Every kind of plan state — input bases, memoized
/// sub-plans, query results — enters the catalog here. Returns the arrangement's probe.
fn publish(
    renderer: &Renderer,
    builder: &mut DataflowBuilder,
    catalog: &Catalog,
    plan: &Plan,
    binding: &SourceBinding,
) -> ProbeHandle {
    let fresh = "plan arrangement names are never reused while published";
    let name = &binding.arrangement;
    match &binding.keys {
        KeySpec::Columns(columns) => {
            let arranged = renderer.render_arranged(builder, catalog, plan, columns);
            catalog.publish_if_absent(name, &arranged).expect(fresh);
            arranged.probe()
        }
        KeySpec::SelfRow => {
            let arranged = renderer.render_arranged_self(builder, catalog, plan);
            catalog.publish_if_absent(name, &arranged).expect(fresh);
            arranged.probe()
        }
    }
}

/// Deterministic update sharding: the worker index that introduces `row`.
fn shard_of(row: &Row, peers: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    row.hash(&mut hasher);
    (hasher.finish() % peers.max(1) as u64) as usize
}
