//! The aggregator — [`ServerCore`]'s client-facing half: who asked, who owns what, and
//! what each command's answer is.
//!
//! **Owns** the `clients` lock: response routes, the per-command merge of worker
//! deposits, live-query ownership and (as a value it only forwards completions to) the
//! commit path's [`Seals`]. One lock, so dispatch order equals completion order equals
//! per-client request order (equals the order the checkpoint thread sees). **Calls**
//! the sequencer through its [`Appender`] and the commit path's non-blocking surface
//! (`is_degraded`, [`Seals::completed`]), always holding `clients` — the top of
//! `aggregate → sequencer → commit`. **Is called** by the core's front door and by
//! `worker` ([`ServerCore::deposit`]), neither holding any lock.

use kpg_sync::atomic::{AtomicU64, Ordering};
use kpg_sync::{mpsc, Arc, Mutex, MutexGuard};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use kpg_plan::{Command, PlanError, Response as PlanResponse, Row};
use kpg_wire::Response;

use crate::commit::Seals;
use crate::engine::{ClientId, SequencedCommand, ServerCore};
use crate::route::{ChannelRoute, ResponseRoute};
use crate::sequencer::Appender;

/// One command's deposits so far: how many workers are still to report, and the
/// merged outcome — `Ok(None)` for a non-query success (identical on every worker),
/// `Ok(Some(rows))` for query rows union-summed across the workers' output shards,
/// `Err` for the deterministic failure (identical on every worker; first kept).
struct Pending {
    remaining: usize,
    outcome: Outcome,
}

type Outcome = Result<Option<BTreeMap<Row, isize>>, PlanError>;

#[derive(Default)]
struct ClientState {
    /// Live query name → owning client. Written only when an `Install` or `Uninstall`
    /// *completes* (and at submit for `Uninstall`, which can only free a name early),
    /// so the map never credits a failed install.
    owners: BTreeMap<String, ClientId>,
    pending: HashMap<u64, Pending>,
    /// Where each client's responses go — a per-client channel ([`ChannelRoute`]) or
    /// the reactor's shared queue.
    routes: HashMap<ClientId, Arc<dyn ResponseRoute>>,
    /// The open epoch's completions, in the log order this lock serialises them in.
    seals: Seals,
}

impl ClientState {
    /// Answers `client`'s request `reply`, if the client is still connected.
    #[inline]
    fn deliver(&self, client: ClientId, reply: u64, response: Response) {
        if let Some(route) = self.routes.get(&client) {
            route.deliver(client, reply, response);
        }
    }
}

/// Folds one worker's result into a command's outcome so far (see [`Pending`]).
fn merge(outcome: &mut Outcome, result: Result<PlanResponse, PlanError>) {
    match (result, outcome) {
        (Err(error), outcome @ Ok(_)) => *outcome = Err(error),
        // Each worker holds one shard of the query's output; the answer is the union
        // with multiplicities summed.
        (Ok(PlanResponse::Rows(rows)), Ok(merged)) => {
            let merged = merged.get_or_insert_with(BTreeMap::new);
            for (row, diff) in rows {
                *merged.entry(row).or_insert(0) += diff;
            }
        }
        _ => {}
    }
}

fn plan_error(error: &PlanError) -> Response {
    Response::PlanError {
        code: error.code().to_string(),
        message: error.to_string(),
    }
}

/// Sequences a server-generated `Uninstall { name }` (disconnect cleanup); ignored
/// once the log is closed.
fn retire(log: &mut Appender<'_>, name: String) {
    if !log.is_closed() {
        // An Uninstall stages without flushing, so this cannot fail (only an
        // AdvanceTime's group commit can): the cleanup lands even while degraded.
        let _ = log.append(None, Command::Uninstall { name });
    }
}

/// The client-facing state of one core — see the module docs.
#[derive(Default)]
pub(crate) struct Aggregate {
    clients: Mutex<ClientState>,
    next_client: AtomicU64,
}

impl Aggregate {
    pub(crate) fn new(seals: Seals) -> Self {
        let aggregate = Aggregate::default();
        aggregate.lock().seals = seals;
        aggregate
    }

    fn lock(&self) -> MutexGuard<'_, ClientState> {
        self.clients.lock().expect("client state poisoned")
    }

    /// Takes the seals out (leaving the in-memory form), for the final checkpoint.
    pub(crate) fn take_seals(&self) -> Seals {
        std::mem::take(&mut self.lock().seals)
    }
}

impl ServerCore {
    /// Registers a client: allocates its id and the channel its responses arrive on,
    /// tagged with the per-client request index they answer.
    pub fn register_client(&self) -> (ClientId, mpsc::Receiver<(u64, Response)>) {
        let (sender, receiver) = mpsc::channel();
        let client = self.register_client_routed(Arc::new(ChannelRoute::new(sender)));
        (client, receiver)
    }

    /// Registers a client whose responses go through `route` instead of a
    /// dedicated channel — the reactor registers every socket-backed client with
    /// a clone of its shared queue route.
    pub fn register_client_routed(&self, route: Arc<dyn ResponseRoute>) -> ClientId {
        let client = self.aggregate.next_client.fetch_add(1, Ordering::Relaxed);
        self.aggregate.lock().routes.insert(client, route);
        client
    }

    /// Sequences one command from `client` (answering its request number `reply`): a
    /// one-element [`ServerCore::submit_batch`], so single submissions take exactly the
    /// locks, checks and rejections the reactor's batches do.
    pub fn submit(&self, client: ClientId, reply: u64, command: Command) {
        self.submit_batch(std::iter::once((client, reply, command)));
    }

    /// Responds to `client`'s request `reply` with a wire-level error, without touching
    /// the log (the command never existed as far as the engine is concerned).
    pub fn respond_wire_error(&self, client: ClientId, reply: u64, message: String) {
        let response = Response::WireError { message };
        self.aggregate.lock().deliver(client, reply, response);
    }

    /// The client currently owning the live query `name`, if any. Ownership follows
    /// completions (see the module docs), so this is the arbitration's verdict — the
    /// model-checking tests assert its consistency across every interleaving.
    pub fn owner_of(&self, name: &str) -> Option<ClientId> {
        self.aggregate.lock().owners.get(name).copied()
    }

    /// Removes a departed client: unregisters its response route and enqueues
    /// `Uninstall`s for the queries it owns — and for nothing else. Ownership holds
    /// only successfully installed queries, so the cleanup can never remove another
    /// client's query or a shared input. Route removal and the cleanup appends happen
    /// under the same lock that sequences live submissions, so a racing `Install` of a
    /// just-freed name cannot slip in between; an install of this client still in
    /// flight is retired by the deposit that completes it (the route is already gone).
    /// The cleanup retires the owned queries in name order, the owners map's order.
    pub fn disconnect(&self, client: ClientId) {
        let mut clients = self.aggregate.lock();
        clients.routes.remove(&client);
        let owned = clients.owners.iter().filter(|(_, owner)| **owner == client);
        let owned: Vec<String> = owned.map(|(name, _)| name.clone()).collect();
        if owned.is_empty() {
            return;
        }
        let mut log = self.sequencer.appender();
        for name in owned {
            clients.owners.remove(&name);
            retire(&mut log, name);
        }
    }

    /// Sequences a whole batch of client commands under **one** acquisition of
    /// each lock: one client-state pass (degraded checks and the
    /// Uninstall-at-submit ownership edits), one log pass (WAL staging for every
    /// command, group commit wherever an `AdvanceTime` falls), and one doorbell
    /// ring for the entire batch. This is the reactor's submission path: however
    /// many connections became readable in one wakeup, the sequencer lock is
    /// taken once, not once per command. Batch order is append order is
    /// arbitration order: an `Uninstall` sequenced before a queued `Install`
    /// referencing the same input makes the install fail
    /// (`unknown-input`/`invalid-plan`); sequenced after it, the uninstall fails
    /// (`input-in-use`). Within one name, queries shadow inputs (the manager's
    /// namespace rule, pinned by `tests/arbitration.rs`).
    ///
    /// Degradation mid-batch behaves exactly like degradation mid-stream: once a
    /// group commit fails, every later mutation in the batch is rejected with
    /// `degraded-read-only` (queries still pass). Rejections are delivered in batch
    /// order, which precedes any execution response for later commands (workers
    /// cannot deposit while this thread holds the client-state lock). Returns the
    /// number of commands sequenced.
    pub fn submit_batch(&self, batch: impl IntoIterator<Item = (ClientId, u64, Command)>) -> usize {
        let mut clients = self.aggregate.lock();
        let mut log = self.sequencer.appender();
        let mut rejected: Vec<(ClientId, u64)> = Vec::new();
        let mut sequenced = 0;
        for (client, reply, command) in batch {
            if log.is_closed() {
                continue;
            }
            // Degraded read-only mode: a core that cannot persist mutations refuses them
            // up front rather than acknowledging work it may lose. Queries pass — the
            // in-memory state is intact and reads were never logged anyway. Checked
            // before the Uninstall-at-submit ownership edit below, so a rejected
            // uninstall leaves ownership untouched.
            if !matches!(command, Command::Query { .. }) && self.commit.is_degraded() {
                rejected.push((client, reply));
                continue;
            }
            // An Uninstall frees the name *at submit*: once one is sequenced, no
            // disconnect between now and its execution may still count the query as owned
            // (a cleanup Uninstall sequenced behind it would fall through to a same-named
            // input). Install claims happen at completion, never here — see `deposit`.
            if let Command::Uninstall { name } = &command {
                clients.owners.remove(name);
            }
            match log.append(Some((client, reply)), command) {
                Ok(()) => sequenced += 1,
                // The group commit for this epoch failed past its retry budget: the
                // advance was unstaged and never sequenced, and the core is now
                // degraded. Answer the client honestly instead of acknowledging.
                Err(()) => rejected.push((client, reply)),
            }
        }
        for (client, reply) in rejected {
            clients.deliver(client, reply, plan_error(&PlanError::DegradedReadOnly));
        }
        // Release `clients` before the appender goes: its doorbell wakes workers whose
        // first act after executing is to take `clients` for their deposit.
        drop(clients);
        sequenced
    }

    /// Records one worker's result for `entry`; the final deposit merges, applies the
    /// completion's ownership effect, notes the completion for the commit path, and
    /// answers the origin client. All of it happens under the lock, and every worker
    /// deposits in log order, so ownership and responses are log-order consistent.
    /// With more than one worker the first deposit inserts the command's [`Pending`]
    /// and the last removes it; a single worker's deposit is the last at once and
    /// never touches `pending`.
    pub(crate) fn deposit(
        &self,
        entry: &Arc<SequencedCommand>,
        result: Result<PlanResponse, PlanError>,
    ) {
        let mut clients = self.aggregate.lock();
        let mut outcome = Ok(None);
        if self.workers == 1 {
            merge(&mut outcome, result);
        } else {
            match clients.pending.entry(entry.seq) {
                Entry::Vacant(vacant) => {
                    merge(&mut outcome, result);
                    vacant.insert(Pending {
                        remaining: self.workers - 1,
                        outcome,
                    });
                    return;
                }
                Entry::Occupied(mut occupied) => {
                    let pending = occupied.get_mut();
                    merge(&mut pending.outcome, result);
                    pending.remaining -= 1;
                    if pending.remaining > 0 {
                        return;
                    }
                    outcome = occupied.remove().outcome;
                }
            }
        }
        if outcome.is_ok() {
            self.apply_ownership(&mut clients, entry);
            clients.seals.completed(entry, &self.commit);
        }
        let response = match outcome {
            Ok(None) => Response::Ok,
            Err(error) => plan_error(&error),
            Ok(Some(merged)) => {
                let live = merged.into_iter().filter(|(_, diff)| *diff != 0);
                let (rows, diffs) = live.map(|(row, diff)| (row, diff as i64)).unzip();
                Response::QueryResults { rows, diffs }
            }
        };
        if let Some((client, reply)) = entry.origin {
            clients.deliver(client, reply, response);
        }
    }

    /// The ownership effect of a successfully completed command. Only a *successful*
    /// `Install` claims its name — for its submitter if still connected, or, if the
    /// submitter departed while the install was in flight, the fresh query is retired
    /// right here (the disconnect could not see it). A successful `Uninstall` frees
    /// the name whoever issued it.
    fn apply_ownership(&self, clients: &mut ClientState, entry: &SequencedCommand) {
        match (&entry.command, entry.origin) {
            (Command::Install { name, .. }, Some((client, _))) => {
                if clients.routes.contains_key(&client) {
                    clients.owners.insert(name.clone(), client);
                } else {
                    clients.owners.remove(name);
                    retire(&mut self.sequencer.appender(), name.clone());
                }
            }
            (Command::Uninstall { name }, _) => {
                clients.owners.remove(name);
            }
            _ => {}
        }
    }
}
