//! Durability: the command-log WAL, checkpoints, and crash recovery.
//!
//! A durable server persists exactly one thing: the sequencer's total command order.
//! Every non-`Query` command is appended to a `kpg_store` [`Wal`] *at sequencing time*
//! (under the same lock that orders it), buffered into a per-epoch batch and fsynced
//! when an `AdvanceTime` is sequenced — so an acknowledged epoch advance implies every
//! command at or before it is durable ("fsync-on-epoch" group commit). Because every
//! worker's [`Manager`](kpg_plan::Manager) is a deterministic function of that order,
//! replaying the log reproduces the server's state exactly.
//!
//! Replaying from the beginning of time would make restart cost proportional to
//! history, so the server checkpoints. A `StateTracker` maintains the collapsed
//! state a log prefix denotes: live inputs, installed plans, and the contents of every
//! input with history folded to a single epoch. Everything it does per epoch costs
//! O(epoch), never O(state): an update is folded through its map entry and the entry
//! is removed the moment its diff reaches zero.
//!
//! **Who owns the tracker.** The `kpg-server-checkpoint` thread, on its own stack —
//! seeded by `recover`, never shared, never cloned, behind no lock. The commit path
//! (`commit.rs`: who starts that thread, what crosses its channel, when it degrades
//! the core) feeds it whole sealed epochs of *successful*, WAL-logged completions in
//! log order, so after it applies one its tracker is exactly the effect of WAL records
//! up to that `AdvanceTime`'s sequence number — a consistent cut — and it writes
//! checkpoints from that state in place.
//!
//! **A checkpoint is the log's prefix, compacted**: one `ckpt-<id>.run` file (a
//! `kpg_store::run` file — block CRCs, footer validated at open) whose first entry is
//! a header (the sealed epoch, the WAL watermark) and whose every other entry is a
//! wire-encoded [`Command`], exactly what a WAL record's body is — create the inputs,
//! install the plans, feed the sealed contents back as updates, advance to the sealed
//! epoch. It is written under `ckpt-<id>.tmp`, fsynced, renamed, and the directory
//! fsynced ([`RunWriter::commit`]); the rename is the commit point, and the newest
//! `ckpt-*.run` in the directory *is* the checkpoint. No second file names it, so
//! there is no pair of files to keep consistent.
//!
//! **Cadence.** A checkpoint rewrites the whole state, so one is due when the commands
//! logged since the last *successful* one reach
//! `max(checkpoint_every, rows held in the tracker)` — rewrite the state when the log
//! is as long as the state. Two bounds follow at any state size: write amplification
//! is at most one checkpointed row per logged command (plus the `checkpoint_every`
//! floor for tiny states), and recovery is at most one state load plus a WAL tail no
//! longer than the state, i.e. ≤ 2× the state. [`DurabilityConfig::checkpoint_every`]
//! is the floor, not the period. A checkpoint that fails past its retry budget leaves
//! the count standing, so it is retried at the very next seal — under a fresh, higher
//! id, as every attempt is (see `checkpoint`): ids only rise, so "newest" is well
//! defined whatever an earlier attempt left behind.
//!
//! Superseded checkpoints and WAL segments entirely below the committed watermark are
//! then removed. Recovery opens the newest checkpoint (if any), decodes its entries
//! into the *bootstrap* command prefix, folds them through `StateTracker::apply` —
//! the fold live epochs go through — to seed the tracker, and replays the WAL tail
//! past the watermark on top. A crash on either side of the prune (checkpoint
//! committed, segments not yet deleted) recovers identically: the watermark makes the
//! extra prefix inert.
//!
//! Recovered queries are owned by no client (their owners are gone); they persist
//! until explicitly uninstalled. `Query` commands are never logged — they read state
//! but do not define it.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use kpg_plan::{Command, Row};
use kpg_store::bytes::{get_u64, put_u64};
use kpg_store::run::DEFAULT_BLOCK_BYTES;
use kpg_store::{RunReader, RunWriter, StoreError, Wal};
use kpg_wire::WireCodec;

/// Where and how a server persists its command log and checkpoints.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// The directory holding WAL segments and the checkpoint file.
    pub dir: PathBuf,
    /// WAL segments rotate once they exceed this size.
    pub segment_bytes: u64,
    /// The floor of the checkpoint cadence: a checkpoint is cut at an epoch boundary
    /// (where a consistent cut exists) once the commands logged since the last one
    /// reach `max(checkpoint_every, rows of checkpointed state)`. States smaller than
    /// this are checkpointed every `checkpoint_every` commands; larger ones when the
    /// log has grown as long as the state (see the module docs).
    pub checkpoint_every: u64,
    /// The retry budget for runtime storage failures (group commit, checkpoints).
    /// Transient errors are retried with doubling backoff up to `retry.attempts`
    /// total tries; fatal errors (ENOSPC, corruption) escalate immediately. Past the
    /// budget the server enters degraded read-only mode.
    pub retry: kpg_store::RetryPolicy,
    /// How often the degraded-mode probe re-tries the WAL to self-heal back to
    /// read-write (it runs only while degraded).
    pub probe_interval: std::time::Duration,
}

impl DurabilityConfig {
    /// A configuration with default segment size (8 MiB), checkpoint cadence floor
    /// (4096 logged commands), retry budget (3 attempts, 1–20 ms backoff), and heal
    /// probe interval (25 ms).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            checkpoint_every: 4096,
            retry: kpg_store::RetryPolicy::default(),
            probe_interval: std::time::Duration::from_millis(25),
        }
    }
}

/// One installed query the tracker knows: its name, its private local inputs, and the
/// wire-encoded `Install` command that reproduces it.
#[derive(Clone, Debug)]
struct InstallRecord {
    name: String,
    locals: Vec<String>,
    encoded: Vec<u8>,
}

/// The collapsed state denoted by a prefix of the command log that ends at an epoch
/// boundary — the only points where checkpoints are cut.
///
/// Owned by the checkpoint thread and fed whole sealed epochs of *successful*
/// completions (failures have no effect, and re-fail deterministically if replayed), so
/// an update folds straight into the sealed contents: between two
/// [`StateTracker::apply_epoch`] calls nothing is ever open.
#[derive(Debug, Default)]
pub(crate) struct StateTracker {
    /// Sealed epoch: recovered state answers as of this epoch.
    epoch: u64,
    /// WAL sequence of the `AdvanceTime` that sealed `epoch`; `None` until one has.
    watermark: Option<u64>,
    /// Live global inputs and their key arity.
    inputs: BTreeMap<String, Option<usize>>,
    /// Installed queries, in completion order (which respects name dependencies).
    installs: Vec<InstallRecord>,
    /// Sealed contents per input (global and query-local), history collapsed. Holds no
    /// zero diff and no empty input: entries are removed as they cancel.
    sealed: BTreeMap<String, BTreeMap<Row, isize>>,
    /// Rows held across `sealed`, kept in step with it — what a checkpoint writes.
    rows: u64,
    /// Commands logged since the last checkpoint was committed.
    since_checkpoint: u64,
}

impl StateTracker {
    /// Applies one sealed epoch: `(wal_seq, command)` for each of its successful,
    /// WAL-logged completions in log order, ending with the `AdvanceTime` that sealed
    /// it. Costs O(epoch) map operations, whatever the state's size.
    pub(crate) fn apply_epoch<'a>(&mut self, epoch: impl IntoIterator<Item = (u64, &'a Command)>) {
        let mut last = None;
        for (wal_seq, command) in epoch {
            self.apply(command, wal_seq);
            last = Some(command);
        }
        debug_assert!(
            matches!(last, Some(Command::AdvanceTime { .. })),
            "a sealed epoch ends with its AdvanceTime"
        );
    }

    fn apply(&mut self, command: &Command, wal_seq: u64) {
        self.since_checkpoint += 1;
        match command {
            Command::CreateInput { name, key_arity } => {
                self.inputs.insert(name.clone(), *key_arity);
            }
            Command::Update { name, row, diff } => {
                // Probe by `&str` first: the input's map almost always exists, and
                // `entry` would allocate a `String` per update to find that out.
                if !self.sealed.contains_key(name) {
                    self.sealed.insert(name.clone(), BTreeMap::new());
                }
                let contents = self.sealed.get_mut(name).expect("ensured above");
                match contents.entry(row.clone()) {
                    Entry::Vacant(vacant) => {
                        if *diff != 0 {
                            vacant.insert(*diff);
                            self.rows += 1;
                        }
                    }
                    Entry::Occupied(mut occupied) => {
                        *occupied.get_mut() += diff;
                        if *occupied.get() == 0 {
                            occupied.remove();
                            self.rows -= 1;
                        }
                    }
                }
                if contents.is_empty() {
                    self.sealed.remove(name);
                }
            }
            Command::AdvanceTime { epoch } => {
                assert!(
                    self.watermark.is_none_or(|mark| mark < wal_seq),
                    "sealed epochs arrive in log order"
                );
                self.epoch = *epoch;
                self.watermark = Some(wal_seq);
            }
            Command::Install {
                name,
                locals,
                plan: _,
            } => {
                self.installs.push(InstallRecord {
                    name: name.clone(),
                    locals: locals.clone(),
                    encoded: command.encode(),
                });
            }
            Command::Uninstall { name } => {
                // The manager's namespace rule: a live query shadows a same-named
                // input. Mirror it so the tracker removes what the manager removed.
                if let Some(position) = self.installs.iter().position(|i| &i.name == name) {
                    let install = self.installs.remove(position);
                    for local in &install.locals {
                        self.drop_contents(local);
                    }
                } else {
                    self.inputs.remove(name);
                    self.drop_contents(name);
                }
            }
            Command::Query { .. } => {}
        }
    }

    /// Forgets everything held for `input` (it was uninstalled).
    fn drop_contents(&mut self, input: &str) {
        if let Some(contents) = self.sealed.remove(input) {
            self.rows -= contents.len() as u64;
        }
    }

    /// The WAL watermark of the last sealed epoch, if any epoch has sealed.
    pub(crate) fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Whether a checkpoint is due: the log has grown, since the last committed
    /// checkpoint, by at least the state it would rewrite (and by at least `floor`).
    pub(crate) fn checkpoint_due(&self, floor: u64) -> bool {
        self.watermark.is_some() && self.since_checkpoint >= floor.max(self.rows)
    }

    /// Whether anything was logged since the last committed checkpoint — whether a
    /// final checkpoint at shutdown would differ from the one already on disk.
    pub(crate) fn checkpoint_stale(&self) -> bool {
        self.watermark.is_some() && self.since_checkpoint > 0
    }

    /// Notes that a checkpoint of the current state was committed.
    pub(crate) fn note_checkpoint(&mut self) {
        self.since_checkpoint = 0;
    }
}

/// What a durable directory of the previous layout holds; refused, never misread.
const OLD_LAYOUT_MARKER: &str = "MANIFEST";

fn run_file_name(id: u64) -> String {
    format!("ckpt-{id:016x}.run")
}

/// The name an attempt is written under until its rename commits it.
fn temp_file_name(id: u64) -> String {
    format!("ckpt-{id:016x}.tmp")
}

/// Every `ckpt-*` file in `dir`: its path, and its id if it is a committed
/// `ckpt-<id>.run` (`None` for anything else — an attempt's temporary file).
fn checkpoint_files(dir: &Path) -> io::Result<Vec<(PathBuf, Option<u64>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|name| name.strip_prefix("ckpt-")) else {
            continue;
        };
        let id = rest
            .strip_suffix(".run")
            .and_then(|id| u64::from_str_radix(id, 16).ok());
        files.push((entry.path(), id));
    }
    Ok(files)
}

/// Writes a checkpoint of `tracker` within the configured retry budget and returns the
/// committed watermark so the caller can prune the WAL.
///
/// Every *attempt* takes a fresh id from `next_id`, successful or not.
/// [`RunWriter::commit`] can fail after its rename (the directory fsync), so a failed
/// attempt may have left its file in place — a complete, self-consistent checkpoint
/// recovery may pick. The next attempt, cut from a tracker that may have applied more
/// epochs since, takes a higher id: the newest file is always the newest state, and no
/// attempt ever writes to a name recovery could be reading.
pub(crate) fn checkpoint(
    config: &DurabilityConfig,
    tracker: &StateTracker,
    next_id: &mut u64,
    op: &'static str,
) -> Result<u64, StoreError> {
    config.retry.run(op, || {
        let id = *next_id;
        *next_id += 1;
        write_checkpoint(&config.dir, tracker, id)
    })
}

/// One attempt at a checkpoint of `tracker` (which always stands at an epoch seal)
/// into `dir` under `id`: the header, then the command prefix that rebuilds the state
/// through an ordinary manager — inputs, then installs (completion order preserves
/// dependencies), then the sealed contents as updates (locals exist by then), then the
/// epoch seal — streamed by reference, committed by rename; then removal of every
/// other checkpoint file.
///
/// Panics are avoided throughout: any I/O failure leaves a committed checkpoint in
/// force — the previous one, or this one if only the directory fsync after the rename
/// failed.
fn write_checkpoint(dir: &Path, tracker: &StateTracker, id: u64) -> io::Result<u64> {
    let watermark = tracker
        .watermark
        .expect("checkpoints are cut only at epoch seals");
    let mut writer = RunWriter::create(dir.join(temp_file_name(id)), DEFAULT_BLOCK_BYTES)?;
    // Entries are not keyed: a block may be cut before any of them.
    let mut entry = Vec::new();
    put_u64(&mut entry, tracker.epoch);
    put_u64(&mut entry, watermark);
    writer.push(&entry, true)?;
    for (name, key_arity) in &tracker.inputs {
        let create = Command::CreateInput {
            name: name.clone(),
            key_arity: *key_arity,
        };
        writer.push(&create.encode(), true)?;
    }
    for install in &tracker.installs {
        writer.push(&install.encoded, true)?;
    }
    for (name, contents) in &tracker.sealed {
        for (row, diff) in contents {
            entry.clear();
            entry.push(kpg_wire::VERSION);
            kpg_wire::encode_update_body(&mut entry, name, row, *diff);
            writer.push(&entry, true)?;
        }
    }
    let seal = Command::AdvanceTime {
        epoch: tracker.epoch,
    };
    writer.push(&seal.encode(), true)?;
    let committed = dir.join(run_file_name(id));
    writer.commit(&committed)?;

    // Superseded checkpoints and the temporary files failed attempts left are
    // garbage. Removal failures are harmless: recovery picks the newest file, and the
    // next checkpoint sweeps again.
    for (path, _) in checkpoint_files(dir).unwrap_or_default() {
        if path != committed {
            let _ = kpg_store::io::remove_file(path);
        }
    }
    Ok(watermark)
}

/// Everything recovery hands the sequencer: the checkpointed bootstrap prefix, the WAL
/// tail to replay on top, the open WAL, and the tracker seed the checkpoint thread
/// continues the story from.
pub(crate) struct Recovered {
    /// Commands that rebuild the checkpointed state (not re-logged; already durable).
    pub bootstrap: Vec<Command>,
    /// WAL records past the watermark: `(wal_seq, command)`, replayed in order.
    pub tail: Vec<(u64, Command)>,
    /// The open WAL, positioned to append.
    pub wal: Wal,
    /// The next WAL sequence number to assign.
    pub next_wal_seq: u64,
    /// The tracker, seeded with the checkpointed state.
    pub tracker: StateTracker,
    /// The next checkpoint id to assign: above every committed one, so ids only rise.
    pub next_checkpoint_id: u64,
}

/// Loads the checkpoint at `path`: its commands in order, and the tracker they fold to.
/// Any entry that does not decode, and a fold that does not end at the header's
/// `(epoch, watermark)`, is corruption — block CRCs and the footer were already checked
/// by the reader, so the file is whole and still wrong.
fn load_checkpoint(path: &Path) -> io::Result<(Vec<Command>, StateTracker)> {
    let corrupt = |what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {what}", path.display()),
        )
    };
    let mut reader = RunReader::open(path)?;
    // `(epoch, watermark)`, once the first entry has been read.
    let mut header = None;
    let mut bootstrap = Vec::new();
    let mut tracker = StateTracker::default();
    for block in 0..reader.block_count() {
        for entry in reader.read_block(block)? {
            let Some((_, watermark)) = header else {
                let mut pos = 0;
                let fields = get_u64(&entry, &mut pos).zip(get_u64(&entry, &mut pos));
                header = Some(fields.ok_or_else(|| corrupt("checkpoint header".into()))?);
                continue;
            };
            let command = Command::decode(&entry)
                .map_err(|error| corrupt(format!("checkpoint entry undecodable: {error}")))?;
            // Every command of the prefix is reflected by the one watermark; only the
            // sealing `AdvanceTime` records it.
            tracker.apply(&command, watermark);
            bootstrap.push(command);
        }
    }
    let sealed_at = tracker.watermark.map(|mark| (tracker.epoch, mark));
    if header.is_none() || header != sealed_at {
        return Err(corrupt(
            "checkpoint does not end at the epoch seal its header names".into(),
        ));
    }
    tracker.note_checkpoint();
    Ok((bootstrap, tracker))
}

/// Opens (or creates) the durable directory: loads the newest checkpoint, opens the
/// WAL with torn-tail repair, and splits recovered records at the watermark.
///
/// Records at or below the watermark are already reflected in the checkpoint and are
/// skipped — this is what makes a crash *between* checkpoint commit and WAL pruning
/// indistinguishable from one after it. The newest `ckpt-*.run` is the checkpoint and
/// damage to it is an error, never a reason to fall back to an older one (whose WAL
/// tail may already be pruned); a leftover `ckpt-*.tmp` was never committed and is
/// removed.
pub(crate) fn recover(config: &DurabilityConfig) -> io::Result<Recovered> {
    std::fs::create_dir_all(&config.dir)?;
    let old_layout = config.dir.join(OLD_LAYOUT_MARKER);
    if old_layout.exists() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: this directory was written by an older on-disk layout, which this \
                 server does not read; start from an empty directory",
                old_layout.display()
            ),
        ));
    }
    let mut committed = Vec::new();
    for (path, id) in checkpoint_files(&config.dir)? {
        match id {
            Some(id) => committed.push((id, path)),
            None => drop(kpg_store::io::remove_file(path)),
        }
    }
    let (bootstrap, tracker, next_checkpoint_id) = match committed.into_iter().max() {
        Some((id, path)) => {
            let (bootstrap, tracker) = load_checkpoint(&path)?;
            (bootstrap, tracker, id + 1)
        }
        None => (Vec::new(), StateTracker::default(), 1),
    };
    let (wal, records) = Wal::open(&config.dir, config.segment_bytes)?;
    let watermark = tracker.watermark();
    let mut tail = Vec::new();
    let mut max_seq = watermark;
    for record in records {
        max_seq = Some(max_seq.map_or(record.seq, |seen| seen.max(record.seq)));
        if watermark.is_some_and(|mark| record.seq <= mark) {
            continue;
        }
        let command = Command::decode(&record.body).map_err(|error| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL record {} undecodable: {error}", record.seq),
            )
        })?;
        tail.push((record.seq, command));
    }
    let next_wal_seq = max_seq.map_or(0, |seen| seen + 1);
    Ok(Recovered {
        bootstrap,
        tail,
        wal,
        next_wal_seq,
        tracker,
        next_checkpoint_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpg_dataflow::{execute, Config};
    use kpg_plan::{Manager, Plan, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        use kpg_sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "kpg-durability-{tag}-{}-{unique}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(values: Vec<u64>) -> Row {
        Row::from(values.into_iter().map(Value::UInt).collect::<Vec<_>>())
    }

    fn create(name: &str, key_arity: Option<usize>) -> Command {
        Command::CreateInput {
            name: name.into(),
            key_arity,
        }
    }

    fn update(name: &str, values: Vec<u64>, diff: isize) -> Command {
        Command::Update {
            name: name.into(),
            row: row(values),
            diff,
        }
    }

    /// The command prefix a checkpoint of `tracker` must hold, built the obvious way —
    /// one owned `Command` per row, which the writer itself must not do: inputs, then
    /// installs, then the sealed contents as updates, then the epoch seal.
    fn bootstrap_commands(tracker: &StateTracker) -> Vec<Command> {
        let mut commands = Vec::new();
        for (name, key_arity) in &tracker.inputs {
            commands.push(create(name, *key_arity));
        }
        for install in &tracker.installs {
            commands.push(Command::decode(&install.encoded).expect("install bytes decode"));
        }
        for (name, contents) in &tracker.sealed {
            for (row, diff) in contents {
                commands.push(Command::Update {
                    name: name.clone(),
                    row: row.clone(),
                    diff: *diff,
                });
            }
        }
        if tracker.watermark.is_some() {
            commands.push(Command::AdvanceTime {
                epoch: tracker.epoch,
            });
        }
        commands
    }

    /// Every `ckpt-*` file name in `dir`, sorted.
    fn checkpoint_file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = checkpoint_files(dir)
            .unwrap()
            .into_iter()
            .map(|(path, _)| path.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Applies `commands` (which must end with an `AdvanceTime`) as one sealed epoch
    /// whose WAL sequence numbers run from `first_seq`.
    fn seal(tracker: &mut StateTracker, first_seq: u64, commands: &[Command]) {
        tracker.apply_epoch((first_seq..).zip(commands));
    }

    #[test]
    fn tracker_folds_epochs_and_bootstraps() {
        let mut tracker = StateTracker::default();
        seal(
            &mut tracker,
            0,
            &[
                create("edges", Some(1)),
                update("edges", vec![1, 2], 1),
                update("edges", vec![2, 3], 1),
                Command::AdvanceTime { epoch: 1 },
            ],
        );
        // A retraction in the next epoch cancels (1,2) when folded.
        seal(
            &mut tracker,
            4,
            &[
                update("edges", vec![1, 2], -1),
                Command::AdvanceTime { epoch: 2 },
            ],
        );
        assert_eq!(tracker.watermark(), Some(5));
        assert_eq!(tracker.epoch, 2);
        assert_eq!(tracker.rows, 1);

        let bootstrap = bootstrap_commands(&tracker);
        assert_eq!(bootstrap.len(), 3); // create, one surviving update, advance
        assert!(matches!(&bootstrap[0], Command::CreateInput { name, .. } if name == "edges"));
        assert!(
            matches!(&bootstrap[1], Command::Update { row: r, diff: 1, .. } if *r == row(vec![2, 3]))
        );
        assert!(matches!(&bootstrap[2], Command::AdvanceTime { epoch: 2 }));
    }

    #[test]
    fn tracker_uninstall_follows_namespace_shadowing() {
        let mut tracker = StateTracker::default();
        // An uninstall with no same-named query removes the input.
        seal(
            &mut tracker,
            0,
            &[
                create("shared", None),
                Command::Uninstall {
                    name: "shared".into(),
                },
                Command::AdvanceTime { epoch: 1 },
            ],
        );
        assert!(tracker.inputs.is_empty());
    }

    /// The cadence rule: due once the log has grown by `max(floor, rows held)` since
    /// the last committed checkpoint — so a load's own seal is always due (it logs a
    /// command per row), a tiny state follows the floor, and a failed checkpoint
    /// (no `note_checkpoint`) stays due.
    #[test]
    fn checkpoint_is_due_when_the_log_is_as_long_as_the_state() {
        let mut tracker = StateTracker::default();
        assert!(!tracker.checkpoint_due(1), "nothing has sealed yet");
        let mut load = vec![create("edges", None)];
        load.extend((0..10).map(|i| update("edges", vec![i], 1)));
        load.push(Command::AdvanceTime { epoch: 1 });
        seal(&mut tracker, 0, &load);
        assert_eq!(tracker.rows, 10);
        assert!(tracker.checkpoint_due(4), "a load logs a command per row");
        assert!(!tracker.checkpoint_due(100), "the floor still rules");
        tracker.note_checkpoint();
        assert!(!tracker.checkpoint_stale());

        // Steady churn at 10 rows, 3 commands per epoch: not due until 10 are logged.
        let mut seq = load.len() as u64;
        for epoch in 2..=4u64 {
            let churn = [
                update("edges", vec![epoch], -1),
                update("edges", vec![epoch], 1),
                Command::AdvanceTime { epoch },
            ];
            seal(&mut tracker, seq, &churn);
            seq += 3;
            assert!(!tracker.checkpoint_due(4), "9 logged < 10 rows held");
            assert!(tracker.checkpoint_stale());
        }
        seal(&mut tracker, seq, &[Command::AdvanceTime { epoch: 5 }]);
        assert!(tracker.checkpoint_due(4), "10 logged >= 10 rows held");
        // A failed write never calls `note_checkpoint`: the next seal is due again.
        seal(&mut tracker, seq + 1, &[Command::AdvanceTime { epoch: 6 }]);
        assert!(tracker.checkpoint_due(4));
    }

    /// The checkpoint is the bootstrap prefix in the WAL's own vocabulary: after the
    /// header, each entry is `Command::encode()` of the next bootstrap command, byte
    /// for byte — so recovery needs no decoder of its own, and the by-reference
    /// `Update` encoder the writer streams with cannot drift from the wire codec.
    #[test]
    fn checkpoint_entries_are_the_bootstrap_commands_wire_encoded_byte_for_byte() {
        let mut tracker = StateTracker::default();
        seal(
            &mut tracker,
            0,
            &[
                create("edges", Some(1)),
                create("names", None),
                Command::Install {
                    name: "pairs".into(),
                    plan: Plan::source("edges").concat(Plan::source("arg")).distinct(),
                    locals: vec!["arg".into()],
                },
                update("edges", vec![1, 2], 1),
                update("edges", vec![2, 3], 3),
                update("names", vec![7], 2),
                update("arg", vec![1, 1], 1),
                Command::Update {
                    name: "names".into(),
                    row: Row::from(vec![Value::Int(-4), Value::String("x".into())]),
                    diff: -2,
                },
                Command::AdvanceTime { epoch: 4 },
            ],
        );
        let dir = temp_dir("format");
        write_checkpoint(&dir, &tracker, 5).unwrap();

        let mut entries = RunReader::open(dir.join(run_file_name(5)))
            .unwrap()
            .read_all()
            .unwrap();
        let mut header = Vec::new();
        put_u64(&mut header, 4); // the sealed epoch
        put_u64(&mut header, 8); // the WAL sequence of its `AdvanceTime`
        assert_eq!(entries.remove(0), header);
        let expected = bootstrap_commands(&tracker);
        assert_eq!(expected.len(), 9);
        assert_eq!(
            entries,
            expected.iter().map(Command::encode).collect::<Vec<_>>()
        );

        let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(recovered.bootstrap, expected);
        assert_eq!(recovered.next_checkpoint_id, 6);
        assert!(recovered.tail.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_skips_records_at_or_below_the_watermark() {
        let dir = temp_dir("watermark");
        // Write a WAL with five commands, checkpoint covering the first three.
        let (mut wal, records) = Wal::open(&dir, 1 << 20).unwrap();
        assert!(records.is_empty());
        let mut tracker = StateTracker::default();
        let commands = [
            create("edges", None),
            update("edges", vec![1, 2], 1),
            Command::AdvanceTime { epoch: 1 },
            update("edges", vec![2, 3], 1),
            Command::AdvanceTime { epoch: 2 },
        ];
        for (seq, command) in commands.iter().enumerate() {
            wal.append(seq as u64, command.encode()).unwrap();
        }
        seal(&mut tracker, 0, &commands[..3]);
        wal.sync().unwrap();
        drop(wal);
        write_checkpoint(&dir, &tracker, 1).unwrap();

        let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
        // Tail holds only seqs 3 and 4; bootstrap rebuilds the first three.
        assert_eq!(
            recovered
                .tail
                .iter()
                .map(|(seq, _)| *seq)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(recovered.next_wal_seq, 5);
        assert_eq!(recovered.next_checkpoint_id, 2);
        assert_eq!(recovered.bootstrap.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// splitmix64: a seeded stream for the oracle test below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    const GLOBALS: [&str; 3] = ["a", "b", "c"];
    const QUERIES: [&str; 3] = ["q0", "q1", "q2"];

    fn local_of(query: &str) -> String {
        format!("{query}-arg")
    }

    /// What a log of successful commands denotes, computed the slow way: every
    /// update summed per `(input, row)`, an uninstall forgetting the query's locals
    /// (or the input), zero sums dropped. Also returns the live globals and queries.
    #[allow(clippy::type_complexity)]
    fn naive_fold(
        log: &[Command],
    ) -> (
        BTreeMap<(String, Row), isize>,
        BTreeMap<String, Option<usize>>,
        BTreeMap<String, Vec<String>>,
    ) {
        let mut contents: BTreeMap<(String, Row), isize> = BTreeMap::new();
        let mut globals = BTreeMap::new();
        let mut queries: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for command in log {
            match command {
                Command::CreateInput { name, key_arity } => {
                    globals.insert(name.clone(), *key_arity);
                }
                Command::Update { name, row, diff } => {
                    *contents.entry((name.clone(), row.clone())).or_insert(0) += diff;
                }
                Command::Install { name, locals, .. } => {
                    queries.insert(name.clone(), locals.clone());
                }
                Command::Uninstall { name } => {
                    let gone = queries.remove(name).unwrap_or_else(|| {
                        globals.remove(name);
                        vec![name.clone()]
                    });
                    contents.retain(|(input, _), _| !gone.contains(input));
                }
                Command::AdvanceTime { .. } | Command::Query { .. } => {}
            }
        }
        contents.retain(|_, diff| *diff != 0);
        (contents, globals, queries)
    }

    /// Replays `commands` into a fresh `Manager` and answers a `distinct` over every
    /// live global input plus every live query (each a `distinct` over its local).
    fn answers(
        commands: Vec<Command>,
        globals: Vec<String>,
        queries: Vec<String>,
        epoch: u64,
    ) -> Vec<(String, Vec<(Row, isize)>)> {
        execute(Config::new(1), move |worker| {
            let mut manager = Manager::new();
            for command in commands.clone() {
                let rendered = format!("{command:?}");
                manager
                    .execute(worker, command)
                    .unwrap_or_else(|error| panic!("replay of {rendered} failed: {error}"));
            }
            let mut readers = queries.clone();
            for global in &globals {
                let check = format!("check-{global}");
                manager
                    .install(worker, &check, Plan::source(global).distinct(), Vec::new())
                    .expect("install a reader over a live input");
                readers.push(check);
            }
            manager.advance_to(epoch + 1).expect("time moves forward");
            manager.settle(worker);
            readers
                .iter()
                .map(|reader| (reader.clone(), manager.query(reader).expect("live reader")))
                .collect()
        })
        .remove(0)
    }

    /// The tracker against a naive oracle over a seeded random command stream, fed
    /// as whole sealed epochs of successful completions — the way the checkpoint
    /// thread receives them. Which commands succeed is decided by a live `Manager`,
    /// exactly as on the server; failures consume a WAL sequence number and are
    /// never handed over. Every tracker along the way is also checkpointed and
    /// recovered: what comes back is the same prefix, the same tracker, and answers
    /// as the original stream does.
    #[test]
    fn tracker_matches_a_naive_fold_and_bootstraps_the_same_answers() {
        const EPOCHS: u64 = 220;
        // Generate against a live manager: `epochs[e]` is epoch e+1's successful
        // `(wal_seq, command)` completions, its `AdvanceTime` last.
        let epochs: Vec<Vec<(u64, Command)>> = execute(Config::new(1), |worker| {
            let mut rng = Rng(20);
            let mut manager = Manager::new();
            // Multiplicity per (input, row) as of the last command, so the stream can
            // aim: retract to exactly zero, re-insert what was retracted.
            let mut counts: BTreeMap<(String, u64), isize> = BTreeMap::new();
            let mut wal_seq = 0u64;
            let mut epochs = Vec::new();
            for epoch in 1..=EPOCHS {
                let mut sealed = Vec::new();
                let actions = rng.below(14);
                for action in 0..=actions {
                    let query = QUERIES[rng.below(3) as usize];
                    let global = GLOBALS[rng.below(3) as usize];
                    let commands = match rng.below(100) {
                        _ if action == actions => vec![Command::AdvanceTime { epoch }],
                        0..=9 => vec![create(global, [None, Some(1)][rng.below(2) as usize])],
                        10..=19 => vec![Command::Install {
                            name: query.into(),
                            plan: Plan::source(&local_of(query)).distinct(),
                            locals: vec![local_of(query)],
                        }],
                        20..=27 => vec![Command::Uninstall {
                            name: [query, global][rng.below(2) as usize].into(),
                        }],
                        _ => {
                            let input = [global.to_string(), local_of(query)]
                                [rng.below(2) as usize]
                                .clone();
                            let key = rng.below(6);
                            let held = counts.get(&(input.clone(), key)).copied().unwrap_or(0);
                            let diffs = match (held, rng.below(4)) {
                                (0, 0) => vec![-1, 1], // retraction first; nets to nothing
                                (0, 1) => vec![-2, 3], // ... or to an insertion
                                (0, _) | (_, 0) => vec![1],
                                (_, 1) => vec![-1],
                                _ => vec![-held], // to exactly zero
                            };
                            diffs
                                .into_iter()
                                .map(|diff| update(&input, vec![key, key + 10], diff))
                                .collect()
                        }
                    };
                    for command in commands {
                        let seq = wal_seq;
                        wal_seq += 1;
                        if manager.execute(worker, command.clone()).is_err() {
                            continue;
                        }
                        match &command {
                            Command::Update { name, row, diff } => {
                                let Value::UInt(key) = row.fields()[0] else {
                                    unreachable!("generated rows are unsigned")
                                };
                                *counts.entry((name.clone(), key)).or_insert(0) += diff;
                            }
                            Command::Uninstall { name } => counts
                                .retain(|(input, _), _| input != name && *input != local_of(name)),
                            _ => {}
                        }
                        sealed.push((seq, command));
                    }
                }
                epochs.push(sealed);
            }
            epochs
        })
        .remove(0);

        let dir = temp_dir("oracle");
        let config = DurabilityConfig::new(&dir);
        let mut tracker = StateTracker::default();
        let mut log: Vec<Command> = Vec::new();
        let (mut cancelled, mut emptied, mut dropped_locals) = (0, 0, 0);
        for (index, sealed) in epochs.iter().enumerate() {
            let epoch = index as u64 + 1;
            let inputs_before = tracker.sealed.len();
            let rows_before = tracker.rows;
            tracker.apply_epoch(sealed.iter().map(|(seq, command)| (*seq, command)));
            log.extend(sealed.iter().map(|(_, command)| command.clone()));

            let (contents, globals, queries) = naive_fold(&log);
            let held: BTreeMap<(String, Row), isize> = tracker
                .sealed
                .iter()
                .flat_map(|(name, rows)| {
                    rows.iter()
                        .map(move |(row, diff)| ((name.clone(), row.clone()), *diff))
                })
                .collect();
            assert_eq!(held, contents, "epoch {epoch}: sealed contents");
            assert!(
                tracker.sealed.values().all(|rows| !rows.is_empty()),
                "epoch {epoch}: an emptied input lingers"
            );
            assert_eq!(
                tracker.rows,
                contents.len() as u64,
                "epoch {epoch}: row count"
            );
            assert_eq!(tracker.inputs, globals, "epoch {epoch}: live inputs");
            assert_eq!(tracker.epoch, epoch);
            assert_eq!(tracker.watermark(), sealed.last().map(|(seq, _)| *seq));
            cancelled += usize::from(tracker.rows < rows_before);
            emptied += usize::from(tracker.sealed.len() < inputs_before);
            dropped_locals += sealed
                .iter()
                .filter(|(_, c)| matches!(c, Command::Uninstall { name } if QUERIES.contains(&name.as_str())))
                .count();

            write_checkpoint(&dir, &tracker, epoch).expect("checkpoint");
            let recovered = recover(&config).expect("recover");
            assert_eq!(
                recovered.bootstrap,
                bootstrap_commands(&tracker),
                "epoch {epoch}: the checkpoint holds the bootstrap prefix"
            );
            assert_eq!(
                bootstrap_commands(&recovered.tracker),
                recovered.bootstrap,
                "epoch {epoch}: the recovered tracker folds to the same state"
            );
            assert_eq!(recovered.tracker.rows, tracker.rows);
            assert_eq!(recovered.tracker.watermark(), tracker.watermark());
            assert_eq!(recovered.tracker.since_checkpoint, 0);
            assert_eq!(recovered.next_checkpoint_id, epoch + 1);
            // Each commit swept the checkpoint it superseded.
            assert_eq!(checkpoint_file_names(&dir), vec![run_file_name(epoch)]);

            let globals: Vec<String> = globals.into_keys().collect();
            let queries: Vec<String> = queries.into_keys().collect();
            assert_eq!(
                answers(recovered.bootstrap, globals.clone(), queries.clone(), epoch),
                answers(log.clone(), globals, queries, epoch),
                "epoch {epoch}: the bootstrap answers as the original stream does"
            );
        }
        // The stream really went where the test claims it does.
        assert!(cancelled > 20 && emptied > 5 && dropped_locals > 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A tracker one sealed epoch in: an input, a row, watermark 2.
    fn one_epoch_tracker() -> StateTracker {
        let mut tracker = StateTracker::default();
        let commands = [
            create("edges", None),
            update("edges", vec![1, 2], 1),
            Command::AdvanceTime { epoch: 1 },
        ];
        seal(&mut tracker, 0, &commands);
        tracker
    }

    /// Seals `epoch` (the next one) with one new row: WAL sequences `2 * epoch - 1`
    /// and `2 * epoch`, the latter the new watermark.
    fn seal_one_more(tracker: &mut StateTracker, epoch: u64) {
        let commands = [
            update("edges", vec![epoch, epoch + 1], 1),
            Command::AdvanceTime { epoch },
        ];
        seal(tracker, 2 * epoch - 1, &commands);
    }

    fn recover_error(dir: &Path) -> io::Error {
        match recover(&DurabilityConfig::new(dir)) {
            Ok(_) => panic!("recovery of {} must fail", dir.display()),
            Err(error) => error,
        }
    }

    /// A directory of the earlier two-file layout (it has a `MANIFEST`) is refused by
    /// name — not read as this layout, and not treated as empty (which would serve an
    /// empty state over someone's data and start pruning their WAL).
    #[test]
    fn a_directory_of_the_old_layout_is_refused() {
        let dir = temp_dir("old-layout");
        std::fs::write(dir.join("MANIFEST"), b"KPGMAN01 whatever it said").unwrap();
        write_checkpoint(&dir, &one_epoch_tracker(), 1).unwrap();
        let error = recover_error(&dir);
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let message = error.to_string();
        assert!(
            message.contains(&dir.join("MANIFEST").display().to_string())
                && message.contains("start from an empty directory"),
            "{message}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash before the rename leaves only `ckpt-<id>.tmp`: never committed, so never
    /// read — whatever its id and however complete it looks — and removed.
    #[test]
    fn a_leftover_temp_file_is_ignored_and_removed() {
        let dir = temp_dir("leftover-tmp");
        let tracker = one_epoch_tracker();
        write_checkpoint(&dir, &tracker, 1).unwrap();
        // One torn attempt, and one that was complete but for its rename.
        std::fs::write(dir.join(temp_file_name(2)), b"KPGRUN01 torn").unwrap();
        std::fs::copy(dir.join(run_file_name(1)), dir.join(temp_file_name(9))).unwrap();

        let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(recovered.bootstrap, bootstrap_commands(&tracker));
        assert_eq!(recovered.next_checkpoint_id, 2, "a temp file holds no id");
        assert_eq!(checkpoint_file_names(&dir), vec![run_file_name(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The newest `ckpt-*.run` is the checkpoint. If it fails its footer or a block
    /// CRC, that is disk corruption of committed data: an error, never a reason to
    /// fall back to an older file — the WAL below the newest watermark may be pruned,
    /// so the older state could not be caught up.
    #[test]
    fn a_damaged_newest_checkpoint_is_an_error_not_a_fallback() {
        let dir = temp_dir("damaged-newest");
        let mut tracker = one_epoch_tracker();
        write_checkpoint(&dir, &tracker, 1).unwrap();
        let older = std::fs::read(dir.join(run_file_name(1))).unwrap();
        seal_one_more(&mut tracker, 2);
        write_checkpoint(&dir, &tracker, 2).unwrap();
        // The sweep of the older file "failed": it is still there, and intact.
        std::fs::write(dir.join(run_file_name(1)), &older).unwrap();
        let newest = dir.join(run_file_name(2));
        let pristine = std::fs::read(&newest).unwrap();

        let mut flipped = pristine.clone();
        flipped[12 + 8 + 4] ^= 0x10; // inside the first block's payload
        let truncated = &pristine[..pristine.len() - 3]; // the footer's magic is cut
        for (damage, bytes) in [("block", &flipped[..]), ("footer", truncated)] {
            std::fs::write(&newest, bytes).unwrap();
            let error = recover_error(&dir);
            assert_eq!(
                error.kind(),
                io::ErrorKind::InvalidData,
                "{damage}: {error}"
            );
            assert!(
                error.to_string().contains(&run_file_name(2)),
                "{damage}: the error names the damaged file: {error}"
            );
        }
        std::fs::write(&newest, &pristine).unwrap();
        let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(recovered.tracker.watermark(), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint torn at any stage — the temp-file write (torn or out of space),
    /// its fsync, or the rename that commits it — returns an error and leaves the
    /// previous checkpoint in force, byte for byte; the identical retry then commits
    /// cleanly (the injector counters reset with each plan). A failure *after* the
    /// commit — the sweep of the superseded file — fails nothing: recovery picks the
    /// newest file, and the next checkpoint sweeps the rest.
    #[cfg(feature = "faults")]
    #[test]
    fn torn_checkpoint_leaves_previous_checkpoint_in_force() {
        use kpg_store::io::faults::FaultPlan;
        let dir = temp_dir("torn-ckpt");
        let mut tracker = one_epoch_tracker();
        write_checkpoint(&dir, &tracker, 1).unwrap();
        let committed = std::fs::read(dir.join(run_file_name(1))).unwrap();

        seal_one_more(&mut tracker, 2);
        for plan in [
            "write@1=short:5",  // the temp file tears mid-write
            "write@1..=enospc", // the disk fills
            "fsync@1=eio",      // the temp file cannot be made durable
            "rename@1=eio",     // the commit point itself fails
        ] {
            let guard = FaultPlan::parse(plan).unwrap().scoped(&dir).install();
            assert!(
                write_checkpoint(&dir, &tracker, 2).is_err(),
                "{plan}: the checkpoint must fail"
            );
            drop(guard);
            assert_eq!(
                std::fs::read(dir.join(run_file_name(1))).unwrap(),
                committed,
                "{plan}: the previous checkpoint must stay in force"
            );
            let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
            assert_eq!(
                recovered.tracker.watermark(),
                Some(2),
                "{plan}: recovery must see the old checkpoint"
            );
        }
        // The identical retry commits, though the sweep behind it fails.
        let guard = FaultPlan::parse("remove@1=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        assert_eq!(write_checkpoint(&dir, &tracker, 2).unwrap(), 4);
        drop(guard);
        assert_eq!(
            checkpoint_file_names(&dir),
            vec![run_file_name(1), run_file_name(2)],
            "the superseded file could not be removed"
        );
        let recovered = recover(&DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(recovered.tracker.watermark(), Some(4), "newest wins");
        assert_eq!(recovered.next_checkpoint_id, 3);
        // The disk healthy again, the next checkpoint sweeps both.
        write_checkpoint(&dir, &tracker, 3).unwrap();
        assert_eq!(checkpoint_file_names(&dir), vec![run_file_name(3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// [`RunWriter::commit`] can fail *after* its rename (the directory fsync): the
    /// caller is told the attempt failed, yet its file is in place and is what a
    /// crash would recover. The retry — cut from a tracker that has meanwhile applied
    /// another epoch, and itself failing — must not touch that file: recovery has to
    /// find contents and watermark that belong together, or the WAL tail is replayed
    /// onto a state that already includes it. With one file per checkpoint and ids
    /// that only rise there is no way to write that bug; this pins it.
    #[cfg(feature = "faults")]
    #[test]
    fn a_failed_attempt_never_touches_a_checkpoint_recovery_may_pick() {
        use kpg_store::io::faults::FaultPlan;
        let dir = temp_dir("fresh-ids");
        let mut config = DurabilityConfig::new(&dir);
        config.retry = kpg_store::RetryPolicy::none();
        let mut next_id = 1;
        let mut tracker = one_epoch_tracker();
        checkpoint(&config, &tracker, &mut next_id, "test").unwrap();

        seal_one_more(&mut tracker, 2);
        let at_epoch_2 = bootstrap_commands(&tracker);
        // Temp file fsync, rename, then the directory fsync fails.
        let guard = FaultPlan::parse("fsync@2=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        assert!(checkpoint(&config, &tracker, &mut next_id, "test").is_err());
        drop(guard);
        let in_place = std::fs::read(dir.join(run_file_name(2))).expect("the rename happened");
        assert!(
            tracker.checkpoint_stale(),
            "yet the caller was told it failed"
        );

        // Another epoch seals; the retry fails at its own commit point.
        seal_one_more(&mut tracker, 3);
        let guard = FaultPlan::parse("rename@1=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        assert!(checkpoint(&config, &tracker, &mut next_id, "test").is_err());
        drop(guard);
        assert_eq!(next_id, 4, "every attempt took its own id");
        assert_eq!(
            std::fs::read(dir.join(run_file_name(2))).unwrap(),
            in_place,
            "the file the first attempt left was never touched"
        );

        // A crash here recovers epoch 2's watermark with epoch 2's contents.
        let recovered = recover(&config).unwrap();
        assert_eq!(recovered.tracker.watermark(), Some(4));
        assert_eq!(recovered.bootstrap, at_epoch_2);
        // The new process may reuse the failed retry's id: nothing was committed
        // under it, and its temp file is gone.
        assert_eq!(recovered.next_checkpoint_id, 3);

        // The disk healthy again, the next attempt commits and sweeps the rest.
        checkpoint(&config, &tracker, &mut next_id, "test").unwrap();
        assert_eq!(checkpoint_file_names(&dir), vec![run_file_name(4)]);
        let recovered = recover(&config).unwrap();
        assert_eq!(recovered.bootstrap, bootstrap_commands(&tracker));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Inside the retry budget too: the attempt that follows a failed one writes a
    /// new file rather than truncating one the first may have committed.
    #[cfg(feature = "faults")]
    #[test]
    fn in_budget_retries_take_fresh_ids() {
        use kpg_store::io::faults::FaultPlan;
        let dir = temp_dir("fresh-ids-retry");
        let config = DurabilityConfig::new(&dir);
        let mut next_id = 7;
        let tracker = one_epoch_tracker();
        // The first attempt's directory fsync fails, after its rename.
        let guard = FaultPlan::parse("fsync@2=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        assert_eq!(
            checkpoint(&config, &tracker, &mut next_id, "test").unwrap(),
            2
        );
        drop(guard);
        assert_eq!(next_id, 9);
        let recovered = recover(&config).unwrap();
        assert_eq!(recovered.next_checkpoint_id, 9, "id 8 committed");
        assert_eq!(recovered.bootstrap, bootstrap_commands(&tracker));
        assert_eq!(
            checkpoint_file_names(&dir),
            vec![run_file_name(8)],
            "the first attempt's file was swept"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
