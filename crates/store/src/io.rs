//! The storage I/O seam: every file operation the durability layer performs goes
//! through this module instead of `std::fs` directly.
//!
//! In normal builds the functions here are `#[inline]` passthroughs — the only
//! additions over raw `std::fs` are the blocking annotations the sync facade wants
//! around fsyncs. Under `--features faults` the same seam becomes a deterministic
//! fault injector: a `faults::FaultPlan`, parsed from a plan string and installed
//! by the test that wants it, decides per operation whether to fail the Nth fsync,
//! short-write K bytes, report `ENOSPC` after a cumulative write budget, fail a
//! rename, or error a read. Plans count operations deterministically, can be scoped
//! to a path prefix (so parallel tests never see each other's faults), and can trace
//! every decision to stderr so any failure is replayable from its printed plan.
//!
//! Instrumented operations: open, read, write (including `set_len`), fsync
//! (`sync_data`/`sync_all`/directory sync), rename, and file removal. Directory
//! *listing* and creation are deliberately uninstrumented — they feed recovery-time
//! enumeration whose failures are indistinguishable from an unreadable store.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The classes of instrumented file operation, as counted by fault plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Opening or creating a file.
    Open,
    /// Reading bytes (or a whole file).
    Read,
    /// Writing bytes, including truncation via `set_len`.
    Write,
    /// `fsync`/`fdatasync` of a file or directory.
    Fsync,
    /// Renaming a file (a run's commit point).
    Rename,
    /// Removing a file (WAL pruning, superseded checkpoint cleanup).
    Remove,
}

/// Every [`OpKind`], in counting order.
pub const OP_KINDS: [OpKind; 6] = [
    OpKind::Open,
    OpKind::Read,
    OpKind::Write,
    OpKind::Fsync,
    OpKind::Rename,
    OpKind::Remove,
];

impl OpKind {
    /// The spelling used by plan grammar and traces.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Rename => "rename",
            OpKind::Remove => "remove",
        }
    }

    #[cfg(feature = "faults")]
    fn index(self) -> usize {
        self as usize
    }

    /// Parses a plan-grammar label; inverse of [`OpKind::label`].
    pub fn parse(text: &str) -> Option<OpKind> {
        OP_KINDS.into_iter().find(|kind| kind.label() == text)
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, formatter: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        formatter.write_str(self.label())
    }
}

/// A file handle whose operations route through the seam. Wraps `std::fs::File`,
/// remembering its path so injected faults can be filtered and traced per file.
pub struct File {
    inner: fs::File,
    path: PathBuf,
}

impl File {
    fn wrap(inner: fs::File, path: &Path) -> File {
        File {
            inner,
            path: path.to_path_buf(),
        }
    }

    /// The path this handle was opened with.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `fdatasync`: data (and size) durable, non-size metadata maybe not.
    pub fn sync_data(&self) -> io::Result<()> {
        kpg_sync::blocking::annotate("fsync");
        check(OpKind::Fsync, &self.path)?;
        self.inner.sync_data()
    }

    /// `fsync`: data and all metadata durable.
    pub fn sync_all(&self) -> io::Result<()> {
        kpg_sync::blocking::annotate("fsync");
        check(OpKind::Fsync, &self.path)?;
        self.inner.sync_all()
    }

    /// Truncates (or extends) the file. Counts as a write for fault purposes.
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        check(OpKind::Write, &self.path)?;
        self.inner.set_len(len)
    }
}

impl Read for File {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        check(OpKind::Read, &self.path)?;
        self.inner.read(buf)
    }
}

impl Write for File {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        #[cfg(feature = "faults")]
        match faults::check_write(&self.path, buf.len() as u64) {
            faults::WriteVerdict::Full => {}
            faults::WriteVerdict::Short(keep) => {
                // A deterministic torn write: persist a prefix, then report failure.
                let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                return Err(faults::injected_error(
                    OpKind::Write,
                    &faults::FaultEffect::Short(keep as u64),
                ));
            }
            faults::WriteVerdict::Fail(error) => return Err(error),
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for File {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Creates `path` (truncating any existing file) for writing.
#[inline]
pub fn create(path: impl AsRef<Path>) -> io::Result<File> {
    let path = path.as_ref();
    check(OpKind::Open, path)?;
    Ok(File::wrap(fs::File::create(path)?, path))
}

/// Opens `path` read-only.
#[inline]
pub fn open_read(path: impl AsRef<Path>) -> io::Result<File> {
    let path = path.as_ref();
    check(OpKind::Open, path)?;
    Ok(File::wrap(fs::File::open(path)?, path))
}

/// Opens `path` for appending (must exist).
#[inline]
pub fn open_append(path: impl AsRef<Path>) -> io::Result<File> {
    let path = path.as_ref();
    check(OpKind::Open, path)?;
    let file = fs::OpenOptions::new().append(true).open(path)?;
    Ok(File::wrap(file, path))
}

/// Opens `path` for positional writing without truncation (must exist).
#[inline]
pub fn open_write(path: impl AsRef<Path>) -> io::Result<File> {
    let path = path.as_ref();
    check(OpKind::Open, path)?;
    let file = fs::OpenOptions::new().write(true).open(path)?;
    Ok(File::wrap(file, path))
}

/// Reads the whole of `path`, as one counted read operation.
#[inline]
pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    check(OpKind::Read, path)?;
    fs::read(path)
}

/// Renames `from` to `to` — the atomic commit point of
/// [`RunWriter::commit`](crate::RunWriter::commit).
#[inline]
pub fn rename(from: impl AsRef<Path>, to: impl AsRef<Path>) -> io::Result<()> {
    check(OpKind::Rename, from.as_ref())?;
    fs::rename(from, to)
}

/// Removes the file at `path`.
#[inline]
pub fn remove_file(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    check(OpKind::Remove, path)?;
    fs::remove_file(path)
}

/// Fsyncs a directory, making created/renamed/removed names under it durable. Some
/// filesystems refuse to open directories for writing; read-only suffices for fsync
/// on the platforms we target.
#[inline]
pub fn sync_dir(dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    kpg_sync::blocking::annotate("fsync");
    check(OpKind::Fsync, dir)?;
    fs::File::open(dir)?.sync_all()
}

#[cfg(feature = "faults")]
#[inline]
fn check(kind: OpKind, path: &Path) -> io::Result<()> {
    faults::check(kind, path)
}

#[cfg(not(feature = "faults"))]
#[inline(always)]
fn check(_kind: OpKind, _path: &Path) -> io::Result<()> {
    Ok(())
}

/// The deterministic fault injector behind the seam (only with `--features faults`).
///
/// A [`FaultPlan`] is a list of [`FaultSpec`]s plus an optional cumulative write
/// budget, an optional path-prefix scope, and a trace flag. The textual grammar —
/// accepted by [`FaultPlan::parse`] and round-tripped by its `Display` — is a
/// semicolon-separated list of items:
///
/// ```text
/// item    := KIND [ '%' SUBSTR ] '@' RANGE '=' EFFECT
///          | 'budget:' BYTES
///          | 'trace'
/// KIND    := open | read | write | fsync | rename | remove
/// RANGE   := N          (exactly the Nth matching operation, 1-based)
///          | N..        (the Nth and every later one — a permanent fault)
///          | N..M       (half-open: occurrences N, N+1, …, M-1)
/// EFFECT  := eio | enospc | short:K
/// ```
///
/// `fsync@3=eio` fails only the third fsync; `fsync%wal-@1..=eio` fails every fsync
/// of a path containing `wal-`; `write@2=short:7` persists 7 bytes of the second
/// write then errors; `budget:4096` makes cumulative writes past 4 KiB fail with
/// `ENOSPC` (and stay failing — a full disk does not drain itself). Specs with a
/// `%` filter keep their own occurrence counter; unfiltered specs share the plan's
/// per-kind counter. The first matching spec wins.
///
/// Plans installed via [`FaultPlan::install`] are active until their [`FaultGuard`]
/// drops; multiple plans may be active (each counts independently; the first
/// injecting plan wins). `FaultPlan::scoped` confines a plan to a path prefix, and
/// `FaultPlan::traced` turns on decision tracing, each line shaped like
/// `[kpg-fault] fsync#3 /path/wal-0.log -> eio`.
#[cfg(feature = "faults")]
pub mod faults {
    use super::{OpKind, OP_KINDS};
    use std::fmt;
    use std::io;
    use std::path::{Path, PathBuf};

    use kpg_sync::{Mutex, OnceLock, PoisonError};

    /// What an injected fault does to its operation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum FaultEffect {
        /// A generic I/O error (transient class).
        Eio,
        /// `ENOSPC` (fatal class).
        Enospc,
        /// For writes: persist this many bytes, then fail. On other kinds this
        /// degenerates to an I/O error.
        Short(u64),
    }

    impl fmt::Display for FaultEffect {
        fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                FaultEffect::Eio => formatter.write_str("eio"),
                FaultEffect::Enospc => formatter.write_str("enospc"),
                FaultEffect::Short(keep) => write!(formatter, "short:{keep}"),
            }
        }
    }

    /// One injection rule; see the module docs for the grammar.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FaultSpec {
        /// The operation kind this rule matches.
        pub kind: OpKind,
        /// Optional path substring filter. Filtered specs count their own matches.
        pub filter: Option<String>,
        /// First matching occurrence to inject (1-based).
        pub from: u64,
        /// One past the last occurrence to inject; `None` = permanent.
        pub to: Option<u64>,
        /// What to do to matched operations.
        pub effect: FaultEffect,
    }

    impl fmt::Display for FaultSpec {
        fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(formatter, "{}", self.kind)?;
            if let Some(filter) = &self.filter {
                write!(formatter, "%{filter}")?;
            }
            match self.to {
                Some(to) if to == self.from + 1 => write!(formatter, "@{}", self.from)?,
                Some(to) => write!(formatter, "@{}..{to}", self.from)?,
                None => write!(formatter, "@{}..", self.from)?,
            }
            write!(formatter, "={}", self.effect)
        }
    }

    /// A deterministic injection plan; see the module docs for semantics.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        /// The injection rules, first match wins.
        pub specs: Vec<FaultSpec>,
        /// Only operations on paths starting with this prefix are visible.
        pub scope: Option<PathBuf>,
        /// Cumulative write-byte budget; writes past it fail `ENOSPC`, permanently.
        pub write_budget: Option<u64>,
        /// Trace every visible operation's decision to stderr.
        pub trace: bool,
    }

    impl FaultPlan {
        /// A plan that injects nothing (useful scoped + traced, to enumerate the
        /// fault points of a run, or as a base for builder methods).
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Parses the textual grammar (see the module docs). Errors name the
        /// offending item.
        pub fn parse(text: &str) -> Result<FaultPlan, String> {
            let mut plan = FaultPlan::new();
            for item in text.split(';') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                if item == "trace" {
                    plan.trace = true;
                    continue;
                }
                if let Some(bytes) = item.strip_prefix("budget:") {
                    plan.write_budget = Some(
                        bytes
                            .parse()
                            .map_err(|_| format!("bad budget in {item:?}"))?,
                    );
                    continue;
                }
                let (head, effect) = item
                    .split_once('=')
                    .ok_or_else(|| format!("missing '=' in {item:?}"))?;
                let effect = match effect {
                    "eio" => FaultEffect::Eio,
                    "enospc" => FaultEffect::Enospc,
                    other => match other.strip_prefix("short:") {
                        Some(keep) => FaultEffect::Short(
                            keep.parse()
                                .map_err(|_| format!("bad short length in {item:?}"))?,
                        ),
                        None => return Err(format!("unknown effect {other:?} in {item:?}")),
                    },
                };
                let (kind_part, range) = head
                    .split_once('@')
                    .ok_or_else(|| format!("missing '@' in {item:?}"))?;
                let (kind_text, filter) = match kind_part.split_once('%') {
                    Some((kind, filter)) => (kind, Some(filter.to_string())),
                    None => (kind_part, None),
                };
                let kind = OpKind::parse(kind_text)
                    .ok_or_else(|| format!("unknown op kind {kind_text:?} in {item:?}"))?;
                let parse_count = |text: &str| {
                    text.parse::<u64>()
                        .map_err(|_| format!("bad occurrence in {item:?}"))
                };
                let (from, to) = match range.split_once("..") {
                    None => {
                        let exact = parse_count(range)?;
                        (exact, Some(exact + 1))
                    }
                    Some((from, "")) => (parse_count(from)?, None),
                    Some((from, to)) => (parse_count(from)?, Some(parse_count(to)?)),
                };
                if from == 0 {
                    return Err(format!("occurrences are 1-based in {item:?}"));
                }
                plan.specs.push(FaultSpec {
                    kind,
                    filter,
                    from,
                    to,
                    effect,
                });
            }
            Ok(plan)
        }

        /// Restricts the plan to operations under `prefix`.
        #[must_use]
        pub fn scoped(mut self, prefix: impl Into<PathBuf>) -> FaultPlan {
            self.scope = Some(prefix.into());
            self
        }

        /// Turns on decision tracing.
        #[must_use]
        pub fn traced(mut self) -> FaultPlan {
            self.trace = true;
            self
        }

        /// Sets the cumulative write budget.
        #[must_use]
        pub fn with_write_budget(mut self, bytes: u64) -> FaultPlan {
            self.write_budget = Some(bytes);
            self
        }

        /// Activates the plan until the returned guard drops.
        pub fn install(self) -> FaultGuard {
            let mut registry = lock_registry();
            let id = registry.next_id;
            registry.next_id += 1;
            let spec_counts = vec![0; self.specs.len()];
            registry.plans.push(ActivePlan {
                id,
                plan: self,
                kind_counts: [0; OP_KINDS.len()],
                spec_counts,
                written: 0,
            });
            FaultGuard { id }
        }
    }

    impl fmt::Display for FaultPlan {
        fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut first = true;
            let mut separator = |formatter: &mut fmt::Formatter<'_>| {
                if first {
                    first = false;
                    Ok(())
                } else {
                    formatter.write_str(";")
                }
            };
            for spec in &self.specs {
                separator(formatter)?;
                write!(formatter, "{spec}")?;
            }
            if let Some(budget) = self.write_budget {
                separator(formatter)?;
                write!(formatter, "budget:{budget}")?;
            }
            if self.trace {
                separator(formatter)?;
                formatter.write_str("trace")?;
            }
            Ok(())
        }
    }

    /// Keeps its plan active; dropping it deactivates the plan. Also exposes the
    /// plan's deterministic operation counters, which tests use to enumerate the
    /// fault points of a scripted run.
    pub struct FaultGuard {
        id: u64,
    }

    impl FaultGuard {
        /// How many operations of `kind` this plan has seen (in scope).
        pub fn op_count(&self, kind: OpKind) -> u64 {
            lock_registry()
                .plans
                .iter()
                .find(|plan| plan.id == self.id)
                .map_or(0, |plan| plan.kind_counts[kind.index()])
        }

        /// Cumulative bytes accepted against the write budget.
        pub fn written(&self) -> u64 {
            lock_registry()
                .plans
                .iter()
                .find(|plan| plan.id == self.id)
                .map_or(0, |plan| plan.written)
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            lock_registry().plans.retain(|plan| plan.id != self.id);
        }
    }

    struct ActivePlan {
        id: u64,
        plan: FaultPlan,
        kind_counts: [u64; OP_KINDS.len()],
        spec_counts: Vec<u64>,
        written: u64,
    }

    struct Registry {
        plans: Vec<ActivePlan>,
        next_id: u64,
    }

    fn lock_registry() -> kpg_sync::MutexGuard<'static, Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY
            .get_or_init(|| {
                Mutex::new(Registry {
                    plans: Vec::new(),
                    next_id: 0,
                })
            })
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The verdict for one write call.
    pub(crate) enum WriteVerdict {
        /// Let the write through whole.
        Full,
        /// Persist this many bytes, then fail.
        Short(u64),
        /// Fail outright with this error.
        Fail(io::Error),
    }

    pub(crate) fn injected_error(kind: OpKind, effect: &FaultEffect) -> io::Error {
        match effect {
            FaultEffect::Eio => io::Error::other(format!("kpg-fault: injected eio on {kind}")),
            FaultEffect::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("kpg-fault: injected enospc on {kind}"),
            ),
            FaultEffect::Short(keep) => io::Error::other(format!(
                "kpg-fault: injected short write ({keep} bytes kept) on {kind}"
            )),
        }
    }

    pub(crate) fn check(kind: OpKind, path: &Path) -> io::Result<()> {
        match decide(kind, path, 0) {
            None => Ok(()),
            Some(effect) => Err(injected_error(kind, &effect)),
        }
    }

    pub(crate) fn check_write(path: &Path, len: u64) -> WriteVerdict {
        match decide(OpKind::Write, path, len) {
            None => WriteVerdict::Full,
            Some(FaultEffect::Short(keep)) => WriteVerdict::Short(keep),
            Some(effect) => WriteVerdict::Fail(injected_error(OpKind::Write, &effect)),
        }
    }

    /// Counts the operation against every in-scope plan and returns the first
    /// plan's first matching effect, if any.
    fn decide(kind: OpKind, path: &Path, write_len: u64) -> Option<FaultEffect> {
        let mut registry = lock_registry();
        let mut verdict = None;
        for active in &mut registry.plans {
            if let Some(scope) = &active.plan.scope {
                if !path.starts_with(scope) {
                    continue;
                }
            }
            active.kind_counts[kind.index()] += 1;
            let occurrence = active.kind_counts[kind.index()];
            let mut hit = None;
            if kind == OpKind::Write {
                if let Some(budget) = active.plan.write_budget {
                    if active.written.saturating_add(write_len) > budget {
                        hit = Some(FaultEffect::Enospc);
                    } else {
                        active.written += write_len;
                    }
                }
            }
            if hit.is_none() {
                for (index, spec) in active.plan.specs.iter().enumerate() {
                    if spec.kind != kind {
                        continue;
                    }
                    let count = match &spec.filter {
                        Some(filter) => {
                            if !path.to_string_lossy().contains(filter.as_str()) {
                                continue;
                            }
                            active.spec_counts[index] += 1;
                            active.spec_counts[index]
                        }
                        None => occurrence,
                    };
                    if count >= spec.from && spec.to.is_none_or(|to| count < to) {
                        hit = Some(spec.effect.clone());
                        break;
                    }
                }
            }
            if active.plan.trace {
                match &hit {
                    None => eprintln!("[kpg-fault] {kind}#{occurrence} {} -> ok", path.display()),
                    Some(effect) => eprintln!(
                        "[kpg-fault] {kind}#{occurrence} {} -> {effect}",
                        path.display()
                    ),
                }
            }
            if verdict.is_none() {
                verdict = hit;
            }
        }
        verdict
    }
}
