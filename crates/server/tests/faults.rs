//! Chaos tests: the server survives a failing disk (`--features faults`).
//!
//! Every test scripts a churn workload against a durable loopback server while a
//! deterministic [`FaultPlan`] (scoped to the server's own directory, so parallel
//! tests never see each other's faults) fails some storage operation. The contract
//! under test, end to end:
//!
//! * **No panics.** Every submitted command is answered — with `Ok`, rows, or a
//!   typed error — and the server stays up.
//! * **Degraded read-only mode.** When the WAL (or checkpointing) fails past its
//!   retry budget, mutations are rejected with the `degraded-read-only` plan error
//!   while queries keep serving from memory; the background probe heals the server
//!   once writes succeed again.
//! * **Acked-prefix recovery.** A restart after the chaos recovers every epoch that
//!   was acknowledged durable, and invents nothing that was never submitted.

#![cfg(feature = "faults")]

use kpg_sync::atomic::{AtomicU64, Ordering};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kpg_plan::{Plan, Row, Value};
use kpg_server::{serve, Client, ClientError, DurabilityConfig, Server, ServerConfig};
use kpg_store::io::faults::FaultPlan;
use kpg_store::io::OpKind;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "kpg-server-faults-{tag}-{}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(step: u64) -> Row {
    Row::from(vec![Value::UInt(step)])
}

/// A durable loopback server with a fast heal probe (tests poll for the heal).
fn durable_server(dir: &Path, checkpoint_every: u64, segment_bytes: u64) -> Server {
    let mut durability = DurabilityConfig::new(dir);
    durability.checkpoint_every = checkpoint_every;
    durability.segment_bytes = segment_bytes;
    durability.probe_interval = Duration::from_millis(5);
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            durability: Some(durability),
            ..ServerConfig::default()
        },
    )
    .expect("bind a durable loopback server")
}

/// Connects with bounded waits so a wedged server fails the test instead of
/// hanging it.
fn client(server: &Server) -> Client {
    Client::connect_timeout(server.local_addr(), Duration::from_secs(10))
        .expect("connect")
        .with_request_timeout(Some(Duration::from_secs(10)))
        .expect("set request timeout")
}

/// Polls the server's health until `ready` holds. Panics past the deadline.
fn await_health(server: &Server, what: &str, ready: impl Fn(kpg_server::HealthSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready(server.health()) {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; health: {:?}",
            server.health()
        );
        kpg_sync::thread::sleep(Duration::from_millis(5));
    }
}

fn is_degraded_error(error: &ClientError) -> bool {
    error.plan_code() == Some("degraded-read-only")
}

/// The rows of `query` as bare steps, panicking on any non-plan failure.
fn step_rows(client: &mut Client, query: &str) -> Vec<u64> {
    let rows = client.query(query).expect("query");
    rows.iter()
        .map(|(row, diff)| {
            assert_eq!(*diff, 1);
            match row.fields() {
                [Value::UInt(step)] => *step,
                other => panic!("unexpected row shape: {other:?}"),
            }
        })
        .collect()
}

/// The tentpole scenario, end to end over TCP: a permanently failing fsync tips the
/// server into degraded read-only mode (mutations rejected with the wire code,
/// queries still served), the probe heals it once the fault clears, and a restart
/// recovers every acknowledged epoch.
#[test]
fn wal_failure_degrades_to_read_only_heals_and_survives_restart() {
    let dir = temp_dir("degrade-heal");
    let server = {
        let server = durable_server(&dir, u64::MAX, 1 << 20);
        let mut client = client(&server);
        client.create_input("steps", None).expect("create input");
        client
            .install("tally", Plan::source("steps").distinct(), &[])
            .expect("install tally");
        for step in 1..=5u64 {
            client.update("steps", row(step), 1).expect("update");
            client.advance(step).expect("advance");
        }

        // The disk starts failing every fsync under the server's directory.
        let guard = FaultPlan::parse("fsync@1..=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        // A plain update still stages (its durability was never promised)...
        client.update("steps", row(6), 1).expect("stage update 6");
        // ...but sealing the epoch cannot be acknowledged: past the retry budget
        // the advance is rejected and the server degrades.
        let error = client.advance(6).expect_err("advance must be rejected");
        assert!(is_degraded_error(&error), "got {error:?}");

        // Degraded: mutations of every kind are refused with the stable wire code...
        let error = client.update("steps", row(99), 1).expect_err("update");
        assert!(is_degraded_error(&error), "got {error:?}");
        let error = client.uninstall("tally").expect_err("uninstall");
        assert!(is_degraded_error(&error), "got {error:?}");
        // ...while queries keep serving from memory (epoch 6 never sealed, so the
        // staged update is not yet visible — exactly the settled prefix).
        assert_eq!(step_rows(&mut client, "tally"), vec![1, 2, 3, 4, 5]);
        let health = server.health();
        assert!(health.degraded);
        assert_eq!(health.degraded_transitions, 1);
        assert!(health.wal_failures >= 1);

        // The disk recovers; the probe notices and the server heals itself.
        drop(guard);
        await_health(&server, "the heal", |health| !health.degraded);
        assert!(server.health().heals >= 1);

        // Back to read-write: the re-advance seals epoch 6 with the staged update.
        client.advance(6).expect("advance after heal");
        assert_eq!(step_rows(&mut client, "tally"), vec![1, 2, 3, 4, 5, 6]);
        drop(client);
        server
    };
    drop(server); // clean shutdown (flushes the WAL)

    // Restart: everything acknowledged is back. (The clean client disconnect
    // durably uninstalled its query, so install a fresh reader over the
    // recovered input.)
    let server = durable_server(&dir, u64::MAX, 1 << 20);
    let mut client = client(&server);
    client
        .install("check", Plan::source("steps").distinct(), &[])
        .expect("install over recovered input");
    client.advance(7).expect("advance");
    assert_eq!(step_rows(&mut client, "check"), vec![1, 2, 3, 4, 5, 6]);
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint failures route through the retry budget, surface as a consecutive
/// failure count, and degrade the server; because the WAL itself still works, the
/// probe heals it, and once the fault clears a later checkpoint succeeds and the
/// count resets. A clean shutdown then recovers everything.
#[test]
fn checkpoint_failures_degrade_count_and_reset() {
    let dir = temp_dir("ckpt-fail");
    let rows_before;
    {
        // Aggressive cadence: a checkpoint is cut every ~2 logged commands.
        let server = durable_server(&dir, 2, 1 << 20);
        let mut c = client(&server);
        c.create_input("steps", None).expect("create input");
        c.install("tally", Plan::source("steps").distinct(), &[])
            .expect("install tally");

        // Every checkpoint rename fails: checkpoints cannot commit, the WAL is fine.
        let guard = FaultPlan::parse("rename@1..=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        let mut step = 0u64;
        let mut churn = |c: &mut Client, steps: u64, server: &Server| {
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut done = 0u64;
            while done < steps {
                assert!(
                    Instant::now() < deadline,
                    "churn stalled: {:?}",
                    server.health()
                );
                step += 1;
                // The checkpoint thread may degrade the server between any two
                // commands; tolerate the rejection and retry after the probe heals.
                let sealed = c
                    .update("steps", row(step), 1)
                    .and_then(|()| c.advance(step));
                match sealed {
                    Ok(()) => done += 1,
                    Err(error) if is_degraded_error(&error) => {
                        step -= 1;
                        kpg_sync::thread::sleep(Duration::from_millis(5));
                    }
                    Err(error) => panic!("churn step {step} failed oddly: {error:?}"),
                }
            }
        };
        churn(&mut c, 6, &server);
        await_health(&server, "a counted checkpoint failure", |health| {
            health.checkpoint_failures >= 1
        });
        assert!(server.health().degraded_transitions >= 1);

        // Fault clears; further churn cuts a checkpoint that succeeds and resets
        // the consecutive-failure count.
        drop(guard);
        await_health(&server, "the heal", |health| !health.degraded);
        // The failed checkpoint stays due: the very next sealed epoch retries it
        // (and succeeds), not the one an interval's worth of commands later.
        churn(&mut c, 1, &server);
        await_health(&server, "the retry at the next seal", |health| {
            health.checkpoint_failures == 0
        });
        rows_before = step_rows(&mut c, "tally");
        assert!(!rows_before.is_empty());
        drop(c);
    }

    let server = durable_server(&dir, 2, 1 << 20);
    let mut c = client(&server);
    c.install("check", Plan::source("steps").distinct(), &[])
        .expect("install over recovered input");
    c.advance(1_000_000).expect("advance");
    assert_eq!(step_rows(&mut c, "check"), rows_before);
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that fails past its retry budget stays due. With 100 rows held the
/// cadence asks for a checkpoint only every ~100 logged commands, so a tracker that
/// counted the failed attempt as done would leave the WAL unprunable for another
/// state's worth of commands; instead the first epoch sealed after the heal retries.
#[test]
fn failed_checkpoint_is_retried_at_the_very_next_seal() {
    const ROWS: u64 = 100;
    let dir = temp_dir("ckpt-retry");
    let server = durable_server(&dir, 2, 1 << 20);
    let mut c = client(&server);
    c.create_input("steps", None).expect("create input");
    for step in 1..=ROWS {
        c.update("steps", row(step), 1).expect("load");
    }
    // The load's own seal is due (a command per row) and commits a checkpoint.
    c.advance(ROWS).expect("seal the load");

    let guard = FaultPlan::parse("rename@1..=eio")
        .unwrap()
        .scoped(&dir)
        .install();
    let mut step = ROWS;
    // One two-command epoch, retried across degraded rejections until it seals.
    let mut seal_one = |c: &mut Client| {
        let deadline = Instant::now() + Duration::from_secs(30);
        step += 1;
        while let Err(error) = c
            .update("steps", row(step), 1)
            .and_then(|()| c.advance(step))
        {
            assert!(is_degraded_error(&error), "step {step}: {error:?}");
            assert!(Instant::now() < deadline, "step {step} never sealed");
            kpg_sync::thread::sleep(Duration::from_millis(5));
        }
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.health().checkpoint_failures == 0 {
        assert!(Instant::now() < deadline, "no checkpoint ever came due");
        seal_one(&mut c);
    }

    drop(guard);
    await_health(&server, "the heal", |health| !health.degraded);
    seal_one(&mut c);
    await_health(&server, "the retry at the next seal", |health| {
        health.checkpoint_failures == 0
    });
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failed removal must never degrade the server or lose state: the segments a
/// checkpoint could not prune are made inert by its watermark, and of the superseded
/// checkpoint files it could not sweep recovery picks the newest, so a restart
/// recovers identically.
#[test]
fn prune_failures_leave_recovery_intact() {
    let dir = temp_dir("prune-fail");
    let rows_before;
    {
        // Tiny segments force rotation; frequent checkpoints trigger pruning.
        let server = durable_server(&dir, 4, 256);
        let mut c = client(&server);
        c.create_input("steps", None).expect("create input");
        c.install("tally", Plan::source("steps").distinct(), &[])
            .expect("install tally");
        let guard = FaultPlan::parse("remove@1..=eio")
            .unwrap()
            .scoped(&dir)
            .install();
        for step in 1..=16u64 {
            c.update("steps", row(step), 1).expect("update");
            c.advance(step).expect("advance");
        }
        // Pruning is not persistence: its failures are absorbed, never degrade.
        let health = server.health();
        assert!(
            !health.degraded,
            "prune failures must not degrade: {health:?}"
        );
        assert_eq!(health.degraded_transitions, 0);
        rows_before = step_rows(&mut c, "tally");
        assert_eq!(rows_before, (1..=16).collect::<Vec<_>>());
        drop(guard);
        drop(c);
    }

    let server = durable_server(&dir, 4, 256);
    let mut c = client(&server);
    c.install("check", Plan::source("steps").distinct(), &[])
        .expect("install over recovered input");
    c.advance(1_000_000).expect("advance");
    assert_eq!(step_rows(&mut c, "check"), rows_before);
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One scripted churn run against an `eio` fault on `kind`'s operations from
/// `occurrence` on (`..` for a permanent fault, empty for that one operation),
/// returning `(updates_acked, max_acked_advance, sent)`. Every command must be
/// *answered* (`Ok` or the degraded rejection) — anything else panics the test — and
/// the run must reach the fault point, or it tested nothing. Only a checkpoint renames
/// and removes files, so a run faulting those cuts one every two logged commands.
fn churn_under_fault(
    dir: &Path,
    kind: OpKind,
    occurrence: u64,
    range: &str,
    steps: u64,
) -> (Vec<u64>, u64, u64) {
    let checkpoint_every = match kind {
        OpKind::Rename | OpKind::Remove => 2,
        _ => u64::MAX,
    };
    let server = durable_server(dir, checkpoint_every, 1 << 20);
    let mut c = client(&server);
    c.create_input("steps", None).expect("create input");
    c.install("tally", Plan::source("steps").distinct(), &[])
        .expect("install tally");
    let spec = format!("{kind}@{occurrence}{range}=eio");
    let guard = FaultPlan::parse(&spec).unwrap().scoped(dir).install();
    let mut updates_acked = Vec::new();
    let mut max_acked_advance = 0u64;
    for step in 1..=steps {
        match c.update("steps", row(step), 1) {
            Ok(()) => updates_acked.push(step),
            Err(error) => assert!(is_degraded_error(&error), "update {step}: {error:?}"),
        }
        match c.advance(step) {
            Ok(()) => max_acked_advance = step,
            Err(error) => assert!(is_degraded_error(&error), "advance {step}: {error:?}"),
        }
    }
    // A checkpoint's operations run on its own thread: give them time to arrive.
    let deadline = Instant::now() + Duration::from_secs(10);
    while guard.op_count(kind) < occurrence && Instant::now() < deadline {
        kpg_sync::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        guard.op_count(kind) >= occurrence,
        "{spec}: the run saw {} {kind} operations, so the fault never fired",
        guard.op_count(kind)
    );
    drop(guard);
    // If the run degraded the server, it must heal now that the fault is gone.
    await_health(&server, "the heal", |health| !health.degraded);
    if server.health().degraded_transitions > 0 {
        assert!(server.health().heals >= 1);
    }
    // Queries answer regardless of what the disk did.
    let _ = step_rows(&mut c, "tally");
    drop(c);
    drop(server); // clean shutdown: flushes whatever is still staged
    (updates_acked, max_acked_advance, steps)
}

/// Restarts from `dir` and checks the recovery invariant against a churn record:
/// recovered rows ⊇ every update sealed by an acknowledged advance, and ⊆ the
/// updates that were ever acknowledged at all (nothing invented).
fn assert_recovers_acked_prefix(dir: &Path, updates_acked: &[u64], max_acked_advance: u64) {
    let server = durable_server(dir, u64::MAX, 1 << 20);
    let mut c = client(&server);
    c.install("check", Plan::source("steps").distinct(), &[])
        .expect("install over recovered input");
    c.advance(1_000_000).expect("advance");
    let rows = step_rows(&mut c, "check");
    for &step in updates_acked.iter().filter(|&&s| s <= max_acked_advance) {
        assert!(
            rows.contains(&step),
            "acked update {step} (sealed by acked advance {max_acked_advance}) lost; rows {rows:?}"
        );
    }
    for &step in &rows {
        assert!(
            updates_acked.contains(&step),
            "recovered row {step} was never acknowledged; acked {updates_acked:?}"
        );
    }
    drop(c);
    drop(server);
}

/// The smoke sweep: for every injectable op kind, a single transient fault at each
/// of its first occurrences is absorbed by the retry budget — every command still
/// acknowledges, nothing degrades permanently, and a restart recovers everything.
#[test]
fn transient_fault_sweep_is_absorbed_by_retries() {
    for kind in [OpKind::Write, OpKind::Fsync, OpKind::Rename, OpKind::Remove] {
        for occurrence in 1..=2u64 {
            let spec = format!("{kind}@{occurrence}=eio");
            let dir = temp_dir(&format!("sweep-{kind}-{occurrence}"));
            let (updates_acked, max_acked_advance, steps) =
                churn_under_fault(&dir, kind, occurrence, "", 6);
            // A single transient fault sits inside the 3-attempt budget: every
            // step must have been acknowledged.
            assert_eq!(
                updates_acked.len() as u64,
                steps,
                "{spec}: transient fault must be retried, not surfaced"
            );
            assert_eq!(max_acked_advance, steps, "{spec}: every advance must ack");
            assert_recovers_acked_prefix(&dir, &updates_acked, max_acked_advance);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Permanent faults switched on at each of `occurrences` of the write and fsync
/// paths. Whatever the fault point, the server answers everything, degrades instead
/// of panicking, heals when the fault clears, and recovers the acknowledged prefix on
/// restart.
fn permanent_fault_sweep(occurrences: RangeInclusive<u64>) {
    for kind in [OpKind::Write, OpKind::Fsync] {
        for occurrence in occurrences.clone() {
            let dir = temp_dir(&format!("perm-{kind}-{occurrence}"));
            let (updates_acked, max_acked_advance, _) =
                churn_under_fault(&dir, kind, occurrence, "..", 16);
            assert_recovers_acked_prefix(&dir, &updates_acked, max_acked_advance);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The permanent sweep's first two fault points, in the default faults lane.
#[test]
fn permanent_faults_at_the_first_points_recover_acked_prefix() {
    permanent_fault_sweep(1..=2);
}

/// The long sweep (slow lane): twelve fault points per path.
#[test]
#[ignore]
fn permanent_fault_point_sweep_recovers_acked_prefix() {
    permanent_fault_sweep(1..=12);
}
