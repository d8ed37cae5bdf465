//! The per-worker [`Manager`]: named inputs, one registry of maintained arrangements,
//! and the command loop that installs dataflows from data.
//!
//! This is the engine a server loop drives: every worker constructs one `Manager` and
//! executes the *same* [`Command`] stream against it (exactly as closure-built dataflows
//! must be installed identically on every worker). Commands are plain data, so the
//! stream can come from a recorded log or a network socket.
//!
//! **One kind of maintained state.** An input's base, a memoized sub-plan and a query's
//! answer are each a dataflow that renders a plan and publishes it as a catalog
//! arrangement: one `Maintained` record, built only by `Manager::maintain` (which first
//! ensures, the same way, an arrangement for every `(sub-plan, key)` pair the render
//! pass will import) and dropped only by `Manager::retire`. Bases and memos share one
//! registry keyed by [`ArrangeKey`] — a base is the entry for `Source(name)` keyed as
//! the input was created — so plan-identical subtrees *share one arrangement across
//! queries*: the paper's inter-query sharing applied between queries that arrive at
//! runtime. Registry entries are reference-counted by their dependants but **retained**
//! when the count reaches zero (arrangements outlive the queries that prompted them, so
//! the next arriving query attaches in milliseconds); they are evicted when their
//! underlying input is removed. A query's answer goes with its `Uninstall`.
//!
//! **Settling.** An answer is deterministic only when read from a settled manager. The
//! rule lives here — [`Manager::execute`] settles ahead of a [`Command::Query`] — so a
//! driver (`kpg_server`'s worker loop, [`replay`](crate::replay())) only executes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use kpg_core::prelude::*;
use kpg_dataflow::Time;
use kpg_timestamp::Antichain;

use crate::plan::{ArrangeKey, KeySpec, Plan, PlanValidity};
use crate::render::{Renderer, SourceBinding};
use crate::value::Row;

/// One instruction of the runtime query protocol.
///
/// All workers must execute identical command streams. Worker 0 alone introduces a
/// [`Command::Update`], and the input's base arrangement exchanges each row to the
/// worker that owns its key, so replaying one log on every worker introduces each
/// update exactly once.
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
    /// current epoch — exactly the times [`Manager::settle`] seals, and executing the
    /// command settles first, so the answer is deterministic. It is the whole content
    /// of the query's result arrangement, read without a time filter: nothing at or
    /// after the current epoch can be in it (operators seal only below the input
    /// frontier, which the inputs hold at the current epoch), and compaction moves
    /// sealed times *up to* the current epoch, so filtering by time would drop sealed
    /// updates. To observe an `Update`, advance time past its epoch; updates at the
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

struct Input {
    handle: InputHandle<Row, isize>,
    owner: Owner,
}

/// Whose dataflow holds an input's operator.
enum Owner {
    /// A shared input's base arrangement, by its key in the registry.
    Base(ArrangeKey),
    /// The installed query an input is local to: only its uninstall removes the input.
    Query(String),
}

/// One maintained arrangement — an input's base, a memoized sub-plan or a query's
/// answer: a dataflow that renders a plan and publishes it, arranged, in the catalog.
struct Maintained {
    dataflow: String,
    /// The arrangement's catalog name and keying. Bases and answers are keyed by a
    /// prefix `Columns(0..k)` or `SelfRow`, so they read back as rows.
    binding: SourceBinding,
    probe: ProbeHandle,
    /// The registry entries the rendering imports.
    requirements: Vec<ArrangeKey>,
    /// Every input name the plan mentions (for input-removal blocking and eviction).
    sources: BTreeSet<String>,
    /// The inputs whose operators the dataflow holds: a query's locals, a base's own.
    inputs: Vec<String>,
    /// Direct dependants: queries and registry entries with this one among their
    /// requirements. Zero means cached-but-unused (retained until eviction).
    uses: usize,
}

/// The merge work one [`Manager::idle_turn`] may do, in merge fuel units (source updates
/// read). A worker takes turns whenever the log is dry and a merge is in progress, and
/// looks for a sequenced command between them, so this bounds how long a command that
/// arrives mid-turn waits; nothing bounds how many turns a wait holds. Sized by
/// measurement on the benchmark's `epoch_stream` server: a turn takes ≈ 30 µs at the
/// median and ≈ 47 µs at p90 (≈ 80 ns a unit on `Row`s out of cache; 26 ns in cache,
/// `BENCH_micro_spine_merge.json`). What no fuel bounds is a turn in which a merge
/// *completes*: it drops the merge's sources, 0.1–0.3 ms at p99 — work the next insert
/// would otherwise have done inline.
const IDLE_TURN_FUEL: isize = 384;

/// The per-worker runtime-plan engine. See the module docs for the protocol.
pub struct Manager {
    catalog: Catalog,
    epoch: u64,
    /// Memos numbered so far (`plan-memo-N`).
    counter: u64,
    /// Every live input, by name — ordered, so that walking them (`advance_to`) visits
    /// them in the same order on every worker.
    inputs: BTreeMap<String, Input>,
    /// Input bases and memoized sub-plans alike, by what they arrange and how. Looked
    /// up, never acted on in iteration order: each worker thread hashes it for itself.
    shared: HashMap<ArrangeKey, Maintained>,
    /// The installed queries' answers, by query name — ordered, so that whichever one a
    /// command singles out (the `user` of an `InputInUse`) is the same on every worker.
    installed: BTreeMap<String, Maintained>,
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
            inputs: BTreeMap::new(),
            shared: HashMap::new(),
            installed: BTreeMap::new(),
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
                // Every worker runs this command; worker 0 introduces the update, and
                // the exchange in front of each arrangement places the row.
                let input = self.inputs.get_mut(&name);
                let input = input.ok_or(PlanError::UnknownInput(name))?;
                if worker.index() == 0 {
                    input.handle.update(row, diff);
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
            // An answer is read from a settled manager; this is where the rule lives.
            Command::Query { name } => {
                self.settle(worker);
                Ok(Response::Rows(self.query(&name)?))
            }
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
        // The base is the input itself — a source local to its own dataflow — arranged
        // by the requested key, and registered as exactly that.
        let key = ArrangeKey {
            plan: Plan::source(name),
            keys: match key_arity {
                None => KeySpec::SelfRow,
                Some(arity) => KeySpec::Columns((0..arity).collect()),
            },
        };
        let names = (format!("plan-input-{name}"), format!("plan-source-{name}"));
        let locals = BTreeSet::from([name.to_string()]);
        let created = &mut Vec::new();
        let (base, mut handles) =
            self.maintain(worker, |_| names, &key.plan, &key.keys, &locals, created)?;
        let (handle, owner) = (handles.remove(0), Owner::Base(key.clone()));
        let input = Input { handle, owner };
        self.inputs.insert(name.to_string(), input);
        self.shared.insert(key, base);
        Ok(())
    }

    /// Introduces one update to a named input at the current epoch. Unlike
    /// [`Command::Update`], this applies on whichever worker calls it: a caller that
    /// runs it on every worker introduces the update once per worker.
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
    #[allow(clippy::needless_pass_by_value)] // the signature callers outside the crate use
    pub fn install(
        &mut self,
        worker: &mut Worker,
        name: &str,
        plan: Plan,
        locals: Vec<String>,
    ) -> Result<usize, PlanError> {
        // Check the worker's dataflow namespace too (it also holds the manager's
        // "plan-input-…"/"plan-memo-…" dataflows): name failures are detected before
        // any memo dataflow is ensured, and later failures evict the ensured ones, so a
        // failed command leaves no state either way.
        if self.installed.contains_key(name) || worker.installed_index(name).is_some() {
            return Err(PlanError::DuplicateQuery(name.to_string()));
        }
        // One input operator per name, however often the command repeats it.
        let locals: BTreeSet<String> = locals.into_iter().collect();
        if let Some(local) = locals.iter().find(|local| self.inputs.contains_key(*local)) {
            return Err(PlanError::DuplicateInput(local.clone()));
        }
        let shared = self.inputs.iter();
        let shared = shared.filter(|(_, input)| matches!(input.owner, Owner::Base(_)));
        let mut known: BTreeSet<String> = shared.map(|(name, _)| name.clone()).collect();
        known.extend(locals.iter().cloned());
        plan.validate(&known).map_err(PlanError::Invalid)?;

        // The answer is the plan's root as an arrangement: a reduce's own output keyed
        // by its grouping columns, anything else by whole rows.
        let keys = match &plan {
            Plan::Reduce { key_arity, .. } => KeySpec::Columns((0..*key_arity).collect()),
            _ => KeySpec::SelfRow,
        };
        let names = (name.to_string(), format!("plan-result-{name}"));
        let created = &mut Vec::new();
        let (result, handles) = self.maintain(worker, |_| names, &plan, &keys, &locals, created)?;
        for (local, handle) in locals.into_iter().zip(handles) {
            let owner = Owner::Query(name.to_string());
            self.inputs.insert(local, Input { handle, owner });
        }
        self.installed.insert(name.to_string(), result);
        Ok(1 + created.len())
    }

    /// Retires the named query, or removes the named shared input. Returns false if
    /// nothing by that name exists.
    pub fn uninstall(&mut self, worker: &mut Worker, name: &str) -> Result<bool, PlanError> {
        if let Some(query) = self.installed.remove(name) {
            self.retire(worker, query);
            return Ok(true);
        }
        let Some(input) = self.inputs.get(name) else {
            return Ok(false);
        };
        // An input stays while a query reads it: the query it is local to (only that
        // query's uninstall removes it), or any whose plan mentions a shared one.
        let mut queries = self.installed.iter();
        let user = match &input.owner {
            Owner::Query(user) => Some(user),
            Owner::Base(_) => queries
                .find(|(_, answer)| answer.sources.contains(name))
                .map(|(query, _)| query),
        };
        if let Some(user) = user {
            return Err(PlanError::InputInUse {
                input: name.to_string(),
                user: user.clone(),
            });
        }
        // Evict every shared arrangement built on the departing input — its base, which
        // holds the input operator, among them. With no live query on the input, every
        // dependant of one mentions the input too, and whatever reads an arrangement, by
        // key or as rows, was built after it: so youngest dataflow first, for each to
        // release its imports before what it reads is retired, the base last.
        let doomed = self.shared.iter();
        let doomed = doomed.filter(|(_, entry)| entry.sources.contains(name));
        let mut doomed: Vec<_> = doomed
            .map(|(key, entry)| (worker.installed_index(&entry.dataflow), key.clone()))
            .collect();
        doomed.sort_unstable_by_key(|(ordinal, _)| std::cmp::Reverse(*ordinal));
        for (_, key) in doomed {
            self.evict(worker, &key);
        }
        Ok(true)
    }

    fn evict(&mut self, worker: &mut Worker, key: &ArrangeKey) {
        let entry = self.shared.remove(key).expect("evicting a present entry");
        debug_assert_eq!(entry.uses, 0, "evicting an arrangement in use");
        self.retire(worker, entry);
    }

    /// Drops a maintained arrangement its registry no longer lists: releases what it
    /// imported, forgets the inputs its dataflow held, and uninstalls the dataflow,
    /// which unpublishes the arrangement. Callers decide *when*.
    fn retire(&mut self, worker: &mut Worker, entry: Maintained) {
        for requirement in entry.requirements {
            let imported = self.shared.get_mut(&requirement);
            imported.expect("outlives its dependants").uses -= 1;
        }
        for input in entry.inputs {
            self.inputs.remove(&input);
        }
        let removed = worker.uninstall_query(&entry.dataflow, &self.catalog);
        debug_assert!(removed, "a maintained arrangement had no dataflow");
    }

    /// The catalog name of the shared arrangement for `key`, memoized now if nothing
    /// maintains it yet. An input's base is found like any other entry, so a source
    /// keyed the way its base is keyed is never re-arranged.
    fn ensure(
        &mut self,
        worker: &mut Worker,
        key: &ArrangeKey,
        created: &mut Vec<ArrangeKey>,
    ) -> Result<String, PlanError> {
        if let Some(entry) = self.shared.get(key) {
            return Ok(entry.binding.arrangement.clone());
        }
        // Numbered when `maintain` asks: after the memo's own requirements have theirs.
        let numbered = |manager: &mut Manager| {
            manager.counter += 1;
            let number = manager.counter;
            (format!("plan-memo-{number}"), format!("plan-arr-{number}"))
        };
        let no_locals = BTreeSet::new();
        let (memo, _) =
            self.maintain(worker, numbered, &key.plan, &key.keys, &no_locals, created)?;
        let arrangement = memo.binding.arrangement.clone();
        self.shared.insert(key.clone(), memo);
        created.push(key.clone());
        Ok(arrangement)
    }

    /// Builds one maintained arrangement: ensures every shared arrangement `plan`'s
    /// rendering imports (appending each one it had to memoize to `created`,
    /// dependencies before dependants), then asks `names` what to call the dataflow and
    /// its catalog entry and installs the dataflow, which holds an input per name in
    /// `locals`, renders `plan` and publishes it keyed by `keys`. Returns the record,
    /// for the caller to register under the name or key it chose, and the locals'
    /// handles in `locals` order. On any failure it evicts exactly what it appended to
    /// `created`, so a failed command leaves no state.
    fn maintain(
        &mut self,
        worker: &mut Worker,
        names: impl FnOnce(&mut Manager) -> (String, String),
        plan: &Plan,
        keys: &KeySpec,
        locals: &BTreeSet<String>,
        created: &mut Vec<ArrangeKey>,
    ) -> Result<(Maintained, Vec<InputHandle<Row, isize>>), PlanError> {
        let mark = created.len();
        let mut requirements = Vec::new();
        plan.arrangement_requirements(locals, &mut requirements);
        let mut sources = BTreeSet::new();
        plan.sources(&mut sources);
        let ensured: Result<HashMap<ArrangeKey, String>, PlanError> = requirements
            .iter()
            .map(|key| Ok((key.clone(), self.ensure(worker, key, created)?)))
            .collect();
        let built = ensured.and_then(|arrangements| {
            let (dataflow, arrangement) = names(self);
            let keys = keys.clone();
            let binding = SourceBinding { arrangement, keys };
            // A shared source read as rows is read from its base.
            let bases = sources
                .iter()
                .filter_map(|name| match &self.inputs.get(name)?.owner {
                    Owner::Base(key) => Some((name.clone(), self.shared[key].binding.clone())),
                    Owner::Query(_) => None,
                });
            let bases = bases.collect();
            let built = worker.install_query(&dataflow, &self.catalog, |builder, catalog| {
                let (handles, collections): (Vec<_>, HashMap<_, _>) = locals
                    .iter()
                    .map(|local| {
                        let (handle, rows) = new_collection::<Row, isize>(builder);
                        (handle, (local.clone(), rows))
                    })
                    .unzip();
                let renderer = Renderer::new(catalog, arrangements, bases, collections);
                (handles, renderer.publish(builder, plan, &binding))
            })?;
            Ok((dataflow, binding, built.result))
        });
        let (dataflow, binding, (mut handles, probe)) = match built {
            Ok(built) => built,
            Err(error) => {
                // Newest first, so each dependant releases its dependencies before they go.
                for key in created.split_off(mark).iter().rev() {
                    self.evict(worker, key);
                }
                return Err(error);
            }
        };
        for requirement in &requirements {
            let imported = self.shared.get_mut(requirement);
            imported.expect("just ensured").uses += 1;
        }
        for handle in &mut handles {
            handle.advance_to(self.epoch);
        }
        let maintained = Maintained {
            dataflow,
            binding,
            probe,
            requirements,
            sources,
            inputs: locals.iter().cloned().collect(),
            uses: 0,
        };
        Ok((maintained, handles))
    }

    /// The named query's consolidated output — see [`Command::Query`] for what it
    /// covers — sorted by row: one pass over the query's result arrangement, through a
    /// handle looked up and dropped per call. Deterministic on a settled manager only:
    /// [`Manager::execute`] settles first itself, a direct caller calls
    /// [`Manager::settle`].
    pub fn query(&self, name: &str) -> Result<Vec<(Row, isize)>, PlanError> {
        let answer = self
            .installed
            .get(name)
            .ok_or_else(|| PlanError::UnknownQuery(name.to_string()))?;
        Ok(answer.binding.read(&self.catalog)?)
    }

    /// True iff any maintained arrangement (base, memo, or answer) has not yet caught
    /// up to `time`.
    pub fn behind(&self, time: &Time) -> bool {
        let maintained = self.shared.values().chain(self.installed.values());
        maintained
            .into_iter()
            .any(|entry| entry.probe.less_than(time))
    }

    /// Steps `worker` until everything managed is current at the manager's epoch:
    /// everything sealed, i.e. every time strictly before the current epoch, is then in
    /// the arrangements and nothing later is — which is why [`Manager::query`] can read
    /// a result arrangement whole. Idempotent: a settled manager steps nothing.
    pub fn settle(&self, worker: &mut Worker) {
        let target = Time::from_epoch(self.epoch);
        worker.step_while(|| self.behind(&target));
    }

    /// One bounded turn of trace maintenance for a worker with nothing else to do: at
    /// most `IDLE_TURN_FUEL` (384) units of merge work across every arrangement the
    /// manager maintains (bases, memoized sub-plans, answers — all of them are catalog
    /// entries). Returns true iff a merge is still in progress, i.e. another turn would
    /// find work; with nothing merging the turn is a scan of layer tags. Local to this
    /// worker, and invisible in every answer: a merge changes how a trace is laid out,
    /// never what it accumulates to.
    pub fn idle_turn(&self) -> bool {
        let mut fuel = IDLE_TURN_FUEL;
        self.catalog.exert_all(&mut fuel)
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
        self.installed.keys().cloned().collect()
    }

    /// The names of the live inputs (shared and query-local), sorted.
    pub fn input_names(&self) -> Vec<String> {
        self.inputs.keys().cloned().collect()
    }

    /// The number of memoized sub-plan arrangements currently held: the shared
    /// arrangements that are no input's base (a base's dataflow holds its input).
    pub fn memo_count(&self) -> usize {
        let memos = self.shared.values().filter(|entry| entry.inputs.is_empty());
        memos.count()
    }

    /// The catalog name of the shared arrangement serving `key`, if one exists: an
    /// input's base for a source keyed the way the base is, a memo arrangement
    /// otherwise.
    pub fn arrangement_name(&self, key: &ArrangeKey) -> Option<String> {
        let entry = self.shared.get(key)?;
        Some(entry.binding.arrangement.clone())
    }

    /// The catalog name of the arrangement holding the named query's answer.
    pub fn result_name(&self, query: &str) -> Option<String> {
        let answer = self.installed.get(query)?;
        Some(answer.binding.arrangement.clone())
    }

    /// The number of live read handles on the arrangement serving `key` — the sharing
    /// introspection: each importing dataflow holds readers, so two queries sharing a
    /// subtree are visible here.
    pub fn arrangement_reader_count(&self, key: &ArrangeKey) -> Option<usize> {
        let name = self.arrangement_name(key)?;
        self.catalog.reader_count(&name).ok()
    }

    /// The number of current dependants of the shared arrangement for `key`: the
    /// queries and memo arrangements that import it by that key (0 =
    /// retained-but-unused).
    pub fn memo_uses(&self, key: &ArrangeKey) -> Option<usize> {
        self.shared.get(key).map(|entry| entry.uses)
    }
}
