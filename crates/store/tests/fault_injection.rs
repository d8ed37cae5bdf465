//! Deterministic fault-injection tests for the storage layer (`--features faults`).
//!
//! Each test installs a [`FaultPlan`] scoped to its own temp directory (so parallel
//! tests never observe each other's faults) and drives a WAL or a run file through
//! the injected failure, asserting the layer's documented contract: errors are
//! returned (never panics), retry after [`Wal::repair`] is idempotent, and a torn
//! run commit leaves the previous run in force.

#![cfg(feature = "faults")]

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use kpg_store::io::faults::{FaultEffect, FaultPlan};
use kpg_store::io::OpKind;
use kpg_store::{classify, FaultClass, RunReader, RunWriter, Wal, WalBatch};

fn temp_dir(tag: &str) -> PathBuf {
    use kpg_sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("kpg-faults-{tag}-{}-{unique}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn recovered_seqs(dir: &PathBuf) -> Vec<u64> {
    let (_wal, records) = Wal::open(dir, 1 << 20).unwrap();
    records.into_iter().map(|record| record.seq).collect()
}

#[test]
fn plan_grammar_round_trips() {
    let text = "fsync%wal-@2..5=eio;write@1=short:7;rename@3..=enospc;budget:4096;trace";
    let plan = FaultPlan::parse(text).unwrap();
    assert_eq!(plan.specs.len(), 3);
    assert_eq!(plan.specs[0].kind, OpKind::Fsync);
    assert_eq!(plan.specs[0].filter.as_deref(), Some("wal-"));
    assert_eq!((plan.specs[0].from, plan.specs[0].to), (2, Some(5)));
    assert_eq!(plan.specs[1].effect, FaultEffect::Short(7));
    assert_eq!((plan.specs[1].from, plan.specs[1].to), (1, Some(2)));
    assert_eq!(plan.specs[2].to, None);
    assert_eq!(plan.write_budget, Some(4096));
    assert!(plan.trace);
    assert_eq!(plan.to_string(), text);
    // Re-parsing the display form is a fixed point.
    assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
}

#[test]
fn plan_grammar_rejects_nonsense() {
    for bad in [
        "fsync@1",         // missing effect
        "fsync=eio",       // missing occurrence
        "fsync@0=eio",     // occurrences are 1-based
        "chmod@1=eio",     // unknown kind
        "fsync@1=explode", // unknown effect
        "write@1=short:x", // bad short length
        "budget:lots",     // bad budget
    ] {
        assert!(FaultPlan::parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn plans_are_scoped_to_their_path_prefix() {
    let dir_a = temp_dir("scope-a");
    let dir_b = temp_dir("scope-b");
    let (mut wal_a, _) = Wal::open(&dir_a, 1 << 20).unwrap();
    let (mut wal_b, _) = Wal::open(&dir_b, 1 << 20).unwrap();
    let guard = FaultPlan::parse("fsync@1..=eio")
        .unwrap()
        .scoped(&dir_a)
        .install();
    wal_a.append(0, b"a".to_vec()).unwrap();
    wal_b.append(0, b"b".to_vec()).unwrap();
    assert!(wal_a.sync().is_err(), "scoped fault must fire in dir_a");
    wal_b
        .sync()
        .expect("dir_b must be outside the plan's scope");
    assert!(guard.op_count(OpKind::Fsync) >= 1);
    drop(guard);
    // With the guard dropped the fault is gone.
    wal_a.append(1, b"a2".to_vec()).unwrap();
    wal_a.sync().unwrap();
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// A failed group-commit fsync, retried by re-committing the same staged batch,
/// must recover exactly one copy of each record (the repair contract).
#[test]
fn wal_retry_after_failed_fsync_never_duplicates() {
    let dir = temp_dir("wal-fsync");
    let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
    let guard = FaultPlan::parse("fsync@1=eio")
        .unwrap()
        .scoped(&dir)
        .install();
    let mut batch = WalBatch::new();
    batch.put(0, b"zero".to_vec());
    batch.put(1, b"one".to_vec());
    wal.commit(&batch).unwrap();
    let error = wal.sync().unwrap_err();
    assert_eq!(classify(&error), FaultClass::Transient);
    assert!(wal.is_tainted());
    // The caller's retry protocol: the batch is still staged, so commit + sync again.
    wal.commit(&batch).unwrap();
    wal.sync().unwrap();
    assert!(!wal.is_tainted());
    assert_eq!(wal.synced_records(), 2);
    drop(guard);
    drop(wal);
    assert_eq!(recovered_seqs(&dir), vec![0, 1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A short write tears the record mid-frame; repair truncates the torn suffix and
/// the retried commit lands cleanly.
#[test]
fn wal_retry_after_short_write_never_duplicates() {
    let dir = temp_dir("wal-short");
    let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
    let guard = FaultPlan::parse("write@1=short:3")
        .unwrap()
        .scoped(&dir)
        .install();
    let mut batch = WalBatch::new();
    batch.put(7, b"torn-then-whole".to_vec());
    assert!(wal.commit(&batch).is_err());
    assert!(wal.is_tainted());
    wal.commit(&batch).unwrap();
    wal.sync().unwrap();
    drop(guard);
    drop(wal);
    assert_eq!(recovered_seqs(&dir), vec![7]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Even with the fault still active, a tainted WAL whose every retry fails keeps
/// returning errors — and once the fault clears, recovery yields only synced
/// records, with the torn suffix gone.
#[test]
fn wal_permanent_fault_then_clear_recovers_synced_prefix_only() {
    let dir = temp_dir("wal-perm");
    let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
    wal.append(0, b"durable".to_vec()).unwrap();
    wal.sync().unwrap();
    let guard = FaultPlan::parse("fsync@1..=eio")
        .unwrap()
        .scoped(&dir)
        .install();
    let mut batch = WalBatch::new();
    batch.put(1, b"never-synced".to_vec());
    for _ in 0..3 {
        wal.commit(&batch).unwrap();
        assert!(wal.sync().is_err());
    }
    drop(guard); // fault clears
    wal.commit(&batch).unwrap();
    wal.sync().unwrap();
    drop(wal);
    assert_eq!(recovered_seqs(&dir), vec![0, 1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ENOSPC via the cumulative write budget surfaces from `RunWriter` as a fatal
/// `StorageFull` error, not a panic, whether it bites at `push` or `finish`.
#[test]
fn run_writer_surfaces_enospc_from_the_write_budget() {
    let dir = temp_dir("run-enospc");
    let path = dir.join("out.run");
    let guard = FaultPlan::new()
        .with_write_budget(64)
        .scoped(&dir)
        .install();
    let mut writer = RunWriter::create(&path, 16).unwrap();
    let mut failed = None;
    for key in 0..64u32 {
        if let Err(error) = writer.push(format!("key-{key:04}").as_bytes(), true) {
            failed = Some(error);
            break;
        }
    }
    let error = match failed {
        Some(error) => error,
        None => match writer.finish() {
            Err(error) => error,
            Ok(_) => panic!("budget must bite by finish"),
        },
    };
    assert_eq!(error.kind(), ErrorKind::StorageFull);
    assert_eq!(classify(&error), FaultClass::Fatal);
    drop(guard);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A short write during `finish` leaves a torn run file; the reader must refuse it
/// rather than misread it.
#[test]
fn run_short_write_during_finish_is_detected_on_read() {
    let dir = temp_dir("run-short");
    let path = dir.join("out.run");
    let mut writer = RunWriter::create(&path, 32).unwrap();
    for key in 0..20u32 {
        writer
            .push(format!("key-{key:04}").as_bytes(), true)
            .unwrap();
    }
    let guard = FaultPlan::parse("write@1=short:10")
        .unwrap()
        .scoped(&dir)
        .install();
    assert!(
        writer.finish().is_err(),
        "finish must surface the torn write"
    );
    drop(guard);
    // Whatever prefix made it to disk must not open as a valid run.
    assert!(RunReader::open(&path).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Injected read errors surface as errors from block reads, not panics or bad data.
#[test]
fn run_reader_surfaces_injected_read_errors() {
    let dir = temp_dir("run-read");
    let path = dir.join("out.run");
    let mut writer = RunWriter::create(&path, 32).unwrap();
    for key in 0..20u32 {
        writer
            .push(format!("key-{key:04}").as_bytes(), true)
            .unwrap();
    }
    writer.finish().unwrap();
    let mut reader = RunReader::open(&path).unwrap();
    let guard = FaultPlan::parse("read@1..=eio")
        .unwrap()
        .scoped(&dir)
        .install();
    assert!(reader.read_block(0).is_err());
    drop(guard);
    assert!(!reader.read_block(0).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes `entries` to `dir/next.tmp` and commits them as `dir/live.run`.
fn commit_run(dir: &Path, entries: &[&[u8]]) -> std::io::Result<()> {
    let mut writer = RunWriter::create(dir.join("next.tmp"), 32)?;
    for entry in entries {
        writer.push(entry, true)?;
    }
    writer.commit(dir.join("live.run")).map(drop)
}

fn live_run(dir: &Path) -> Vec<Vec<u8>> {
    RunReader::open(dir.join("live.run"))
        .and_then(|mut reader| reader.read_all())
        .expect("the committed run reads back")
}

/// The rename is the commit point: failing it must leave the previous run in force
/// and the next commit must succeed cleanly.
#[test]
fn run_commit_rename_failure_leaves_previous_run_in_force() {
    let dir = temp_dir("commit-rename");
    commit_run(&dir, &[b"old"]).unwrap();
    let guard = FaultPlan::parse("rename@1=eio")
        .unwrap()
        .scoped(&dir)
        .install();
    assert!(commit_run(&dir, &[b"new"]).is_err());
    drop(guard);
    assert_eq!(live_run(&dir), vec![b"old".to_vec()]);
    commit_run(&dir, &[b"new"]).unwrap();
    assert_eq!(live_run(&dir), vec![b"new".to_vec()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn (short) write of the temp file never reaches the rename, so the previous
/// run stays in force, byte for byte.
#[test]
fn run_commit_short_write_is_not_a_commit() {
    let dir = temp_dir("commit-short");
    commit_run(&dir, &[b"old"]).unwrap();
    let committed = std::fs::read(dir.join("live.run")).unwrap();
    let guard = FaultPlan::parse("write@1=short:4")
        .unwrap()
        .scoped(&dir)
        .install();
    assert!(commit_run(&dir, &[b"new"]).is_err());
    drop(guard);
    assert_eq!(std::fs::read(dir.join("live.run")).unwrap(), committed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ENOSPC while writing the temp file is fatal and not a commit.
#[test]
fn run_commit_enospc_is_fatal_and_not_a_commit() {
    let dir = temp_dir("commit-enospc");
    commit_run(&dir, &[b"old"]).unwrap();
    let guard = FaultPlan::parse("write@1..=enospc")
        .unwrap()
        .scoped(&dir)
        .install();
    let error = commit_run(&dir, &[b"new"]).unwrap_err();
    assert_eq!(classify(&error), FaultClass::Fatal);
    drop(guard);
    assert_eq!(live_run(&dir), vec![b"old".to_vec()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed segment removal during pruning keeps the in-memory segment list in
/// agreement with the directory, and the prune succeeds on retry.
#[test]
fn wal_prune_failure_is_retryable() {
    let dir = temp_dir("wal-prune");
    let (mut wal, _) = Wal::open(&dir, 64).unwrap();
    for seq in 0..32u64 {
        wal.append(seq, vec![seq as u8; 24]).unwrap();
    }
    wal.sync().unwrap();
    let before = wal.segment_count();
    assert!(before > 2);
    let guard = FaultPlan::parse("remove@1=eio")
        .unwrap()
        .scoped(&dir)
        .install();
    assert!(wal.prune_below(16).is_err());
    // Nothing was forgotten that is still on disk: a retry removes what the failed
    // call could not, and recovery still sees everything at or above the watermark.
    let removed = wal.prune_below(16).unwrap();
    assert!(removed > 0);
    drop(guard);
    drop(wal);
    let seqs = recovered_seqs(&dir);
    assert!(seqs.contains(&16) && seqs.contains(&31));
    assert_eq!(seqs[seqs.len() - 1], 31);
    std::fs::remove_dir_all(&dir).unwrap();
}
