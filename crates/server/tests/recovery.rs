//! Durability integration tests: crash recovery over real server directories.
//!
//! Four failure families, each checked against the recovery contract — a restarted
//! server answers exactly as a server that executed some *prefix* of the acknowledged
//! command log, and a cleanly shut down server recovers everything:
//!
//! * clean shutdown / restart (in-process, through [`serve`]),
//! * `kill -9` mid-churn (a real child process, SIGKILL racing the epoch loop),
//! * the checkpoint/WAL-truncation race (checkpoint committed, stale segments live),
//! * torn WAL tails (the segment cut or bit-flipped at byte granularity).
//!
//! One consequence of the ownership model shows up throughout: a client that
//! disconnects *cleanly* uninstalls its queries, and a durable server logs those
//! uninstalls — so after a graceful shutdown the queries are durably gone (and the
//! tests verify that), while after a SIGKILL the installs survive unowned.

use kpg_sync::atomic::{AtomicU64, Ordering};
use kpg_sync::Arc;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command as ProcessCommand, Stdio};
use std::time::Duration;

use kpg_plan::{Command, Plan, ReduceKind, Row, Value};
use kpg_server::{serve, Client, ClientError, DurabilityConfig, Server, ServerConfig, ServerCore};
use kpg_wire::Response;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "kpg-recovery-{tag}-{}-{unique}",
        std::process::id()
    ))
}

fn row(values: &[u64]) -> Row {
    Row::from(values.iter().map(|&v| Value::UInt(v)).collect::<Vec<_>>())
}

fn durable_server(dir: &Path, checkpoint_every: u64, segment_bytes: u64) -> Server {
    let mut durability = DurabilityConfig::new(dir);
    durability.checkpoint_every = checkpoint_every;
    durability.segment_bytes = segment_bytes;
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

/// Clean shutdown and restart: the recovered inputs answer exactly as before, accept
/// new updates, and the disconnecting client's uninstalls were themselves durable.
/// Small segments and an aggressive checkpoint cadence force rotation, background
/// checkpoints, and pruning along the way.
#[test]
fn clean_shutdown_restart_answers_identically() {
    let dir = temp_dir("clean");
    let mut server = durable_server(&dir, 4, 256);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.create_input("edges", Some(1)).expect("create input");
    client
        .install(
            "deg",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            &[],
        )
        .expect("install deg");
    client
        .install("pairs", Plan::source("edges").distinct(), &[])
        .expect("install pairs");
    for epoch in 1u64..=6 {
        for i in 0..5u64 {
            client
                .update("edges", row(&[epoch % 3, epoch * 10 + i]), 1)
                .expect("update");
        }
        client.advance(epoch).expect("advance");
    }
    let deg_before = client.query("deg").expect("query deg");
    let pairs_before = client.query("pairs").expect("query pairs");
    assert!(!deg_before.is_empty());
    drop(client);
    server.shutdown();

    let mut server = durable_server(&dir, 4, 256);
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    // The client's clean disconnect uninstalled its queries, and that was logged too:
    // a recovered server must not resurrect them.
    for name in ["deg", "pairs"] {
        assert!(
            matches!(
                client.query(name),
                Err(ClientError::Plan { ref code, .. }) if code == "unknown-query"
            ),
            "{name} was durably uninstalled by the disconnect"
        );
    }
    // The *input* and its sealed history recovered in full: reinstalling the same
    // plans over it reproduces the pre-shutdown answers exactly.
    client
        .install(
            "deg",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            &[],
        )
        .expect("reinstall deg");
    client
        .install("pairs", Plan::source("edges").distinct(), &[])
        .expect("reinstall pairs");
    assert_eq!(client.query("deg").expect("recovered deg"), deg_before);
    assert_eq!(
        client.query("pairs").expect("recovered pairs"),
        pairs_before
    );

    // The recovered input is live: new updates land and change the answers.
    client
        .update("edges", row(&[7, 777]), 1)
        .expect("new update");
    client.advance(7).expect("advance past recovery");
    assert_ne!(
        client.query("deg").expect("deg after new epoch"),
        deg_before
    );
    assert_eq!(
        client.query("pairs").expect("pairs after").len(),
        pairs_before.len() + 1
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the standalone `kpg_server` binary on an ephemeral port with `dir` as its
/// durable directory and returns the child plus the address it printed. Passes every
/// flag the binary has (the last three at their defaults), so each must stay accepted.
fn spawn_server_process(dir: &Path, checkpoint_every: u64) -> (Child, std::net::SocketAddr) {
    let mut child = ProcessCommand::new(env!("CARGO_BIN_EXE_kpg_server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--durable-dir",
            dir.to_str().expect("utf-8 temp path"),
            "--checkpoint-every",
            &checkpoint_every.to_string(),
        ])
        .args(["--workers", "1", "--segment-bytes", "8388608"])
        .args(["--frame-limit", "1048576"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn kpg_server");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .strip_prefix("kpg_server listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .parse()
        .expect("parse the listening address");
    (child, addr)
}

/// The binary refuses a command line it does not fully understand — a mistyped
/// `--durable_dir` must not quietly serve in memory — with a usage line and a non-zero
/// exit, before binding anything.
#[test]
fn the_binary_rejects_what_it_does_not_understand() {
    for (args, problem) in [
        (&["--durable_dir", "/var/lib/kpg"][..], "unknown argument"),
        (&["--addr", "127.0.0.1:0", "serve"][..], "unknown argument"),
        (&["--workers", "2", "--durable-dir"][..], "needs a value"),
        (&["--workers", "1", "--workers", "2"][..], "given twice"),
        (&["--workers", "two"][..], "cannot read"),
    ] {
        let output = ProcessCommand::new(env!("CARGO_BIN_EXE_kpg_server"))
            .args(args)
            .output()
            .expect("run kpg_server");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must not be served");
        assert!(
            stderr.contains(problem) && stderr.contains("usage: kpg_server"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: nothing was bound");
    }
}

/// Runs one step of the step-tagged churn protocol: epoch `k` appends row `[k]` and
/// seals. The recovered visible state is therefore readable as a contiguous `1..=E`
/// prefix.
fn churn_step(client: &mut Client, step: u64) -> Result<(), ClientError> {
    client.update("steps", row(&[step]), 1)?;
    client.advance(step)
}

/// Asserts a "tally" answer is `[1..=len]` for some `floor <= len <= ceiling` — a
/// contiguous prefix covering at least every acknowledged epoch.
fn assert_step_prefix(rows: &[(Row, isize)], floor: u64, ceiling: u64) {
    let len = rows.len() as u64;
    assert!(
        (floor..=ceiling).contains(&len),
        "recovered {len} epochs, acknowledged {floor}, sent {ceiling}"
    );
    for (index, (r, diff)) in rows.iter().enumerate() {
        assert_eq!(*diff, 1, "distinct rows have unit multiplicity");
        assert_eq!(
            r,
            &row(&[index as u64 + 1]),
            "epochs form a contiguous prefix"
        );
    }
}

/// `kill -9` mid-churn: a real server process is SIGKILLed while epochs race through
/// it; the restarted process must answer with a contiguous epoch prefix that includes
/// everything acknowledged before the kill — and keep serving from there.
#[test]
fn kill_nine_mid_churn_recovers_every_acked_epoch() {
    let dir = temp_dir("kill9");
    let (mut child, addr) = spawn_server_process(&dir, 16);
    let mut client = Client::connect(addr).expect("connect to child");
    client.create_input("steps", None).expect("create input");
    client
        .install("tally", Plan::source("steps").distinct(), &[])
        .expect("install tally");

    // A known-durable prefix, then churn racing the killer thread: SIGKILL lands at
    // an arbitrary point in the epoch loop. Every completed `churn_step` was
    // acknowledged, hence fsynced, hence must survive.
    let mut acked = 0u64;
    let mut sent = 0u64;
    for step in 1..=40u64 {
        churn_step(&mut client, step).expect("pre-kill step");
        acked = step;
        sent = step;
    }
    let killer = kpg_sync::thread::spawn(move || {
        kpg_sync::thread::sleep(Duration::from_millis(30));
        child.kill().expect("SIGKILL the server");
        let _ = child.wait();
    });
    for step in 41..=100_000u64 {
        sent = step;
        match churn_step(&mut client, step) {
            Ok(()) => acked = step,
            // The kill landed: the socket died somewhere between send and ack.
            Err(_) => break,
        }
    }
    killer.join().expect("killer thread");
    drop(client);

    let (mut child, addr) = spawn_server_process(&dir, 16);
    let mut client = Client::connect(addr).expect("connect after restart");
    let rows = client.query("tally").expect("query recovered tally");
    assert_step_prefix(&rows, acked, sent);

    // The recovered server is a working server: churn continues where the log ended.
    let next = rows.len() as u64 + 1;
    churn_step(&mut client, next).expect("churn after recovery");
    let rows = client.query("tally").expect("query after new epoch");
    assert_eq!(rows.len() as u64, next);
    drop(client);
    child.kill().expect("tear down the second child");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI slow lane: repeated SIGKILL cycles at checkpoint-forcing scale — every restart
/// recovers a contiguous prefix no shorter than the previous round's acked epochs.
#[test]
#[ignore = "slow: repeated kill -9 cycles; run in the CI recovery lane"]
fn repeated_kill_nine_cycles_never_lose_acked_epochs() {
    let dir = temp_dir("kill9-slow");
    let mut resume_from = 0u64;
    for round in 0..5u32 {
        let (child, addr) = spawn_server_process(&dir, 64);
        let mut client = Client::connect(addr).expect("connect");
        if round == 0 {
            client.create_input("steps", None).expect("create input");
            client
                .install("tally", Plan::source("steps").distinct(), &[])
                .expect("install tally");
        } else {
            let rows = client.query("tally").expect("query recovered tally");
            assert_step_prefix(&rows, resume_from, u64::MAX);
            resume_from = rows.len() as u64;
        }
        let mut acked = resume_from;
        let mut killed = false;
        let mut child = child;
        for step in resume_from + 1..=resume_from + 400 {
            if step == resume_from + 350 && !killed {
                child.kill().expect("SIGKILL mid-churn");
                killed = true;
            }
            match churn_step(&mut client, step) {
                Ok(()) => acked = step,
                Err(_) => break,
            }
        }
        let _ = child.wait();
        resume_from = acked;
        drop(client);
    }
    let (mut child, addr) = spawn_server_process(&dir, 64);
    let mut client = Client::connect(addr).expect("final connect");
    let rows = client.query("tally").expect("final tally");
    assert_step_prefix(&rows, resume_from, u64::MAX);
    drop(client);
    child.kill().expect("tear down");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM is a *graceful* shutdown: the process exits 0 after flushing the WAL and
/// writing a final checkpoint, and a restart recovers everything — including updates
/// of the still-open epoch that only the shutdown flush made durable.
#[cfg(unix)]
#[test]
fn sigterm_shuts_down_gracefully_and_preserves_open_updates() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = temp_dir("sigterm");
    let (mut child, addr) = spawn_server_process(&dir, 1_000_000);
    let mut client = Client::connect(addr).expect("connect");
    client.create_input("steps", None).expect("create input");
    for step in 1..=10u64 {
        churn_step(&mut client, step).expect("churn step");
    }
    // Open-epoch updates: acknowledged but not yet sealed by an advance. A SIGKILL
    // here could lose them (they are only group-committed at the next epoch); a
    // graceful SIGTERM must not.
    client.update("steps", row(&[11]), 1).expect("open update");
    drop(client);

    // SAFETY: `kill` is declared with libc's actual unix signature and is called
    // with a pid we own — `child` was spawned above and has not been waited on yet,
    // so the pid cannot have been recycled. Sending SIGTERM to it mutates no state
    // in this process.
    assert_eq!(
        unsafe { kill(child.id() as i32, SIGTERM) },
        0,
        "deliver SIGTERM"
    );
    let status = child.wait().expect("wait for graceful exit");
    assert!(
        status.success(),
        "graceful shutdown exits cleanly: {status:?}"
    );
    assert!(
        checkpoint_files(&dir)
            .iter()
            .any(|name| name.ends_with(".run")),
        "the final checkpoint was committed"
    );

    let (mut child, addr) = spawn_server_process(&dir, 1_000_000);
    let mut client = Client::connect(addr).expect("connect after restart");
    client
        .install("tally", Plan::source("steps").distinct(), &[])
        .expect("install over the recovered input");
    // Seal the recovered open epoch: the flushed update must appear.
    client.advance(11).expect("seal the recovered open epoch");
    let rows = client.query("tally").expect("query");
    assert_step_prefix(&rows, 11, 11);
    drop(client);
    child.kill().expect("tear down");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The id of the newest `ckpt-<id>.run` in `dir` (0 if none). Ids start at 1 and every
/// attempt takes one, so on a disk that never fails this is how many have completed.
fn checkpoints_completed(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read the durable directory")
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let id = name.to_str()?.strip_prefix("ckpt-")?.strip_suffix(".run")?;
            u64::from_str_radix(id, 16).ok()
        })
        .max()
        .unwrap_or(0)
}

/// Checkpoints are amortised against log growth: with R rows held, one is cut per ~R
/// logged commands — not one per `checkpoint_every` — so all the checkpoints of a run
/// together write no more rows than twice the commands it logged. Counted the way
/// the benchmark counts (run-file ids in the directory of a `kill -9`ed server), and
/// the restart still recovers the last acknowledged epoch from checkpoint + tail.
#[test]
fn checkpoint_cadence_follows_log_growth_not_the_floor() {
    const ROWS: u64 = 300;
    const EPOCHS: u64 = 1501;
    let dir = temp_dir("cadence");
    let (mut child, addr) = spawn_server_process(&dir, 4);
    let mut client = Client::connect(addr).expect("connect to child");
    client.create_input("steps", None).expect("create input");
    client
        .install("tally", Plan::source("steps").distinct(), &[])
        .expect("install tally");
    for step in 1..=ROWS {
        client.update("steps", row(&[step]), 1).expect("load");
    }
    client.advance(1).expect("seal the load");
    // Single-update epochs toggling one extra row: the state stays at R or R + 1.
    for epoch in 2..=EPOCHS + 1 {
        let diff = if epoch % 2 == 0 { 1 } else { -1 };
        client.update("steps", row(&[0]), diff).expect("toggle");
        client.advance(epoch).expect("advance");
    }
    drop(client);
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();

    let logged = 2 * EPOCHS;
    let completed = checkpoints_completed(&dir);
    assert!(
        (2..=logged / ROWS + 2).contains(&completed),
        "{completed} checkpoints for {logged} commands logged against {ROWS} rows \
         (one per {ROWS} commands is the rule; one per 4 would be {})",
        logged / 4
    );
    assert!(completed * (ROWS + 1) <= 2 * logged + 2 * ROWS);

    // EPOCHS is odd, so the last acknowledged epoch inserted the toggled row.
    let (mut child, addr) = spawn_server_process(&dir, 4);
    let mut client = Client::connect(addr).expect("connect after restart");
    let rows = client.query("tally").expect("query recovered tally");
    let expected: Vec<(Row, isize)> = (0..=ROWS).map(|step| (row(&[step]), 1)).collect();
    assert_eq!(rows, expected, "the last acknowledged epoch is back");
    drop(client);
    child.kill().expect("tear down");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `checkpoint_every` is the floor of the cadence: a state of at most that many rows
/// is checkpointed every `checkpoint_every` logged commands, exactly as before.
#[test]
fn tiny_states_checkpoint_at_the_floor() {
    let dir = temp_dir("floor");
    let mut server = durable_server(&dir, 4, 1 << 20);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let await_checkpoint = |id: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while checkpoints_completed(&dir) != id {
            assert!(
                std::time::Instant::now() < deadline,
                "checkpoint {id} never landed (at {})",
                checkpoints_completed(&dir)
            );
            kpg_sync::thread::sleep(Duration::from_millis(2));
        }
    };
    // Four commands, two rows: the load's seal is the first checkpoint.
    client.create_input("steps", None).expect("create input");
    client.update("steps", row(&[1]), 1).expect("update");
    client.update("steps", row(&[2]), 1).expect("update");
    client.advance(1).expect("advance");
    await_checkpoint(1);
    // Then one per four logged commands (two single-update epochs), never more.
    for round in 1..=10u64 {
        for epoch in [2 * round, 2 * round + 1] {
            let diff = if epoch % 2 == 0 { 1 } else { -1 };
            client.update("steps", row(&[3]), diff).expect("toggle");
            client.advance(epoch).expect("advance");
        }
        await_checkpoint(1 + round);
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives a [`ServerCore`] directly (no TCP, no client disconnect): runs `commands`,
/// waits for every acknowledgement, closes the core *without* a final checkpoint —
/// leaving the directory exactly as a crash after the last group commit would: all
/// WAL segments, no checkpoint, and the installs never uninstalled.
fn run_core_without_checkpoint(dir: &Path, segment_bytes: u64, commands: &[Command]) {
    let mut durability = DurabilityConfig::new(dir);
    durability.checkpoint_every = u64::MAX;
    durability.segment_bytes = segment_bytes;
    let core = Arc::new(ServerCore::durable(1, false, durability).expect("open a durable core"));
    let engine = core.start();
    core.await_replayed();
    let (client, responses) = core.register_client();
    for (reply, command) in commands.iter().enumerate() {
        core.submit(client, reply as u64, command.clone());
    }
    for index in 0..commands.len() {
        let (_, response) = responses.recv().expect("engine response");
        assert!(
            matches!(response, Response::Ok),
            "command {index} was not acknowledged: {response:?}"
        );
    }
    // No disconnect: a disconnect would uninstall the owned queries, and this helper
    // exists precisely to leave them installed, as a crash would.
    core.close();
    engine.join().expect("engine drained");
}

/// Recovers `dir` through the full server path and returns the settled answer of
/// `tally`, or `None` if the recovered prefix ends before the install survived.
fn recover_and_query(dir: &Path) -> Option<Vec<(Row, isize)>> {
    let mut server = durable_server(dir, u64::MAX, 1 << 20);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let answer = match client.query("tally") {
        Ok(rows) => Some(rows),
        Err(ClientError::Plan { ref code, .. }) if code == "unknown-query" => None,
        Err(other) => panic!("recovery produced an unexpected error: {other:?}"),
    };
    drop(client);
    server.shutdown();
    answer
}

/// The step-tagged churn log used by the torn-tail and race tests: create, install,
/// then `epochs` update/advance pairs.
fn step_commands(epochs: u64) -> Vec<Command> {
    let mut commands = vec![
        Command::CreateInput {
            name: "steps".to_string(),
            key_arity: None,
        },
        Command::Install {
            name: "tally".to_string(),
            plan: Plan::source("steps").distinct(),
            locals: Vec::new(),
        },
    ];
    for step in 1..=epochs {
        commands.push(Command::Update {
            name: "steps".to_string(),
            row: row(&[step]),
            diff: 1,
        });
        commands.push(Command::AdvanceTime { epoch: step });
    }
    commands
}

/// The names of the `ckpt-*` files in `dir`.
fn checkpoint_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read the durable dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.starts_with("ckpt-"))
        .collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read source dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

/// The checkpoint/WAL-truncation race: a crash *between* the checkpoint's rename and
/// the segment deletion leaves both the new checkpoint and the stale segments on disk.
/// Recovery from that state, from the WAL alone, and from the pruned state must all
/// answer identically — and a leftover checkpoint temp file must be ignored.
#[test]
fn checkpoint_truncation_race_recovers_from_either_state() {
    // Tiny segments: the 26-command log spans many, so pruning genuinely deletes.
    let wal_only = temp_dir("race-wal");
    run_core_without_checkpoint(&wal_only, 128, &step_commands(12));

    let reference_dir = temp_dir("race-ref");
    copy_dir(&wal_only, &reference_dir);
    let reference = recover_and_query(&reference_dir).expect("recover from the WAL alone");
    assert_step_prefix(&reference, 12, 12);

    // Produce the checkpointed state in a copy: recover + clean shutdown writes the
    // checkpoint and prunes — then graft the checkpoint (it is one file) back next to
    // the *unpruned* segments, reconstructing the mid-race layout.
    let pruned = temp_dir("race-pruned");
    copy_dir(&wal_only, &pruned);
    let segments_before = std::fs::read_dir(&pruned)
        .expect("read dir")
        .filter(|e| {
            e.as_ref()
                .map(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .unwrap_or(false)
        })
        .count();
    {
        let mut server = durable_server(&pruned, u64::MAX, 128);
        server.shutdown();
    }
    let segments_after = std::fs::read_dir(&pruned)
        .expect("read dir")
        .filter(|e| {
            e.as_ref()
                .map(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .unwrap_or(false)
        })
        .count();
    assert!(
        segments_after < segments_before,
        "the final checkpoint prunes sealed segments ({segments_before} -> {segments_after})"
    );

    let mid_race = temp_dir("race-mid");
    copy_dir(&wal_only, &mid_race);
    let checkpoint = match &checkpoint_files(&pruned)[..] {
        [only] => only.clone(),
        files => panic!("a clean shutdown leaves exactly one checkpoint file: {files:?}"),
    };
    std::fs::copy(pruned.join(&checkpoint), mid_race.join(&checkpoint)).expect("graft");
    assert_eq!(
        recover_and_query(&mid_race).expect("recover mid-race"),
        reference,
        "checkpoint + stale segments recover identically"
    );
    assert_eq!(
        recover_and_query(&pruned).expect("recover post-prune"),
        reference,
        "the pruned state recovers identically"
    );

    // A crash *before* the rename leaves only a temp file: it must be ignored.
    let pre_rename = temp_dir("race-tmp");
    copy_dir(&wal_only, &pre_rename);
    let temp = checkpoint.replace(".run", ".tmp");
    std::fs::write(pre_rename.join(&temp), b"half-written checkpoint bytes")
        .expect("plant a temp checkpoint");
    assert_eq!(
        recover_and_query(&pre_rename).expect("recover past the temp file"),
        reference,
        "an uncommitted checkpoint temp file is inert"
    );

    for dir in [&wal_only, &reference_dir, &pruned, &mid_race, &pre_rename] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The boundaries of every WAL record in `segment`, decoded from the framing alone:
/// `ends[i]` is the end of the `i`-th record, so truncating at `ends[i]` keeps
/// exactly `i + 1` complete records.
fn record_ends(segment: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut offset = 0usize;
    while offset + 8 <= segment.len() {
        let len =
            u32::from_le_bytes(segment[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        offset += 8 + len;
        assert!(offset <= segment.len(), "the clean log has no torn tail");
        ends.push(offset);
    }
    ends
}

/// What a recovered server must answer when exactly `records` complete WAL records
/// survive, under the [`step_commands`] log: `None` before the install lands,
/// otherwise the epochs sealed by the surviving `AdvanceTime`s.
fn expected_prefix_answer(commands: &[Command], records: usize) -> Option<Vec<(Row, isize)>> {
    if records < 2 {
        return None;
    }
    let sealed = commands[..records]
        .iter()
        .filter(|command| matches!(command, Command::AdvanceTime { .. }))
        .count() as u64;
    Some((1..=sealed).map(|step| (row(&[step]), 1)).collect())
}

/// Torn writes: the WAL segment truncated at every byte of its last two records and
/// at every earlier record boundary, then the final record bit-flipped at every byte.
/// Recovery must never panic and must land on exactly the longest valid record
/// prefix.
#[test]
fn torn_wal_tails_recover_the_longest_valid_prefix() {
    let base = temp_dir("torn-base");
    let commands = step_commands(4);
    run_core_without_checkpoint(&base, 8 << 20, &commands);
    let segment_name = "wal-0000000000000000.log";
    let segment = std::fs::read(base.join(segment_name)).expect("read the sealed segment");
    let ends = record_ends(&segment);
    assert_eq!(ends.len(), commands.len(), "one WAL record per command");

    // Every byte of the last two records covers cuts inside the length prefix, the
    // CRC, the sequence number, and the payload; earlier boundaries cover whole-record
    // prefixes (including the empty log).
    let tail_start = ends[ends.len() - 3];
    let mut cuts: Vec<usize> = (tail_start..=segment.len()).collect();
    cuts.extend(ends.iter().copied());
    cuts.push(0);
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let dir = temp_dir("torn-cut");
        std::fs::create_dir_all(&dir).expect("create torn dir");
        std::fs::write(dir.join(segment_name), &segment[..cut]).expect("write torn segment");
        let surviving = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            recover_and_query(&dir),
            expected_prefix_answer(&commands, surviving),
            "truncation at byte {cut} ({surviving} surviving records)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Bit flips anywhere in the last record invalidate exactly that record: the CRC
    // (or the framing bounds) rejects it and recovery ends one record earlier.
    let last_start = ends[ends.len() - 2];
    for position in last_start..segment.len() {
        let dir = temp_dir("torn-flip");
        std::fs::create_dir_all(&dir).expect("create flip dir");
        let mut corrupted = segment.clone();
        corrupted[position] ^= 0x40;
        std::fs::write(dir.join(segment_name), &corrupted).expect("write flipped segment");
        assert_eq!(
            recover_and_query(&dir),
            expected_prefix_answer(&commands, ends.len() - 1),
            "bit flip at byte {position}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}
