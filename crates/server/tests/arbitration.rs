//! Sequencer arbitration, pinned deterministically at the `ServerCore` level (no
//! sockets, no races): the total log order decides every name conflict, the loser
//! fails cleanly, and disconnect cleanup can only touch what the departed client
//! owned.
//!
//! The headline scenario is the issue's regression: an `Uninstall` of an input with a
//! same-batch `Install` referencing it queued behind (and in front of) it. The manager
//! level of this is covered by `kpg_plan`'s `manager_model.rs`; here the *server's*
//! rule is pinned — arrival order at the sequencer is execution order, both outcomes
//! are clean errors for the loser, and the winner's state survives.

use kpg_sync::mpsc::Receiver;
use kpg_sync::Arc;
use std::time::Duration;

use kpg_plan::{Command, Plan, ReduceKind, Row, Value};
use kpg_server::{ClientId, ServerCore};
use kpg_wire::Response;

fn row(values: &[u64]) -> Row {
    Row::from(values.iter().map(|&v| Value::UInt(v)).collect::<Vec<_>>())
}

/// A core with a running engine plus registered pseudo-clients.
struct Harness {
    core: Arc<ServerCore>,
    engine: Option<kpg_sync::thread::JoinHandle<()>>,
    replies: Vec<(u64, Receiver<(u64, Response)>)>,
    next_reply: Vec<u64>,
}

impl Harness {
    fn new(workers: usize, clients: usize) -> Self {
        // History mode: these tests inspect the full command log.
        let core = Arc::new(ServerCore::with_history(workers));
        let engine = Some(core.start());
        let mut replies = Vec::new();
        for _ in 0..clients {
            let (client, receiver) = core.register_client();
            replies.push((client, receiver));
        }
        let next_reply = vec![0; clients];
        Harness {
            core,
            engine,
            replies,
            next_reply,
        }
    }

    fn client(&self, index: usize) -> ClientId {
        self.replies[index].0
    }

    /// Submits from client `index` and waits for the command's response.
    fn run(&mut self, index: usize, command: Command) -> Response {
        let reply = self.next_reply[index];
        self.next_reply[index] += 1;
        self.core.submit(self.client(index), reply, command);
        let (got_reply, response) = self.replies[index]
            .1
            .recv_timeout(Duration::from_secs(20))
            .expect("the engine answers");
        assert_eq!(got_reply, reply, "responses arrive in request order");
        response
    }

    fn plan_error_code(response: Response) -> String {
        match response {
            Response::PlanError { code, .. } => code,
            other => panic!("expected a PlanError, got {other:?}"),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.core.close();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

fn count_plan(source: &str) -> Plan {
    Plan::source(source).reduce(1, ReduceKind::Count)
}

fn install(name: &str, plan: Plan) -> Command {
    Command::Install {
        name: name.to_string(),
        plan,
        locals: vec![],
    }
}

fn uninstall(name: &str) -> Command {
    Command::Uninstall {
        name: name.to_string(),
    }
}

/// Install sequenced before the uninstall: the query wins, the input removal loses
/// with `input-in-use`, and the query keeps answering.
#[test]
fn uninstall_after_queued_install_loses_cleanly() {
    let mut harness = Harness::new(2, 2);
    assert_eq!(
        harness.run(
            0,
            Command::CreateInput {
                name: "x".to_string(),
                key_arity: Some(1),
            },
        ),
        Response::Ok
    );
    assert_eq!(
        harness.run(
            0,
            Command::Update {
                name: "x".to_string(),
                row: row(&[1, 2]),
                diff: 1,
            },
        ),
        Response::Ok
    );
    // Client 1's install arrives first, client 0's uninstall of the same input second.
    assert_eq!(harness.run(1, install("q", count_plan("x"))), Response::Ok);
    assert_eq!(
        Harness::plan_error_code(harness.run(0, uninstall("x"))),
        "input-in-use"
    );
    assert_eq!(
        harness.run(0, Command::AdvanceTime { epoch: 1 }),
        Response::Ok
    );
    match harness.run(
        1,
        Command::Query {
            name: "q".to_string(),
        },
    ) {
        Response::QueryResults { rows, diffs } => {
            // One group (source node 1), count 1: [key, count].
            assert_eq!(rows, vec![Row::from(vec![Value::UInt(1), Value::Int(1)])]);
            assert_eq!(diffs, vec![1]);
        }
        other => panic!("the surviving query answers, got {other:?}"),
    }
}

/// Uninstall sequenced before the queued install: the input removal wins, and the
/// install referencing it fails validation cleanly (no partial state).
#[test]
fn queued_install_after_uninstall_loses_cleanly() {
    let mut harness = Harness::new(2, 2);
    assert_eq!(
        harness.run(
            0,
            Command::CreateInput {
                name: "x".to_string(),
                key_arity: Some(1),
            },
        ),
        Response::Ok
    );
    assert_eq!(harness.run(0, uninstall("x")), Response::Ok);
    assert_eq!(
        Harness::plan_error_code(harness.run(1, install("q", count_plan("x")))),
        "invalid-plan"
    );
    // The loser left nothing behind: the name is reusable immediately.
    assert_eq!(
        harness.run(
            1,
            Command::CreateInput {
                name: "x".to_string(),
                key_arity: None,
            },
        ),
        Response::Ok
    );
    assert_eq!(harness.run(1, install("q", count_plan("x"))), Response::Ok);
}

/// One name, two kinds: a query named like an input. `Uninstall` retires the query
/// first (queries shadow inputs), the input only on the next uninstall.
#[test]
fn uninstall_retires_queries_before_inputs_of_the_same_name() {
    let mut harness = Harness::new(1, 1);
    assert_eq!(
        harness.run(
            0,
            Command::CreateInput {
                name: "n".to_string(),
                key_arity: None,
            },
        ),
        Response::Ok
    );
    assert_eq!(
        harness.run(0, install("n", Plan::source("n").distinct())),
        Response::Ok
    );
    // First uninstall: the query goes, the input stays (updates still accepted).
    assert_eq!(harness.run(0, uninstall("n")), Response::Ok);
    assert_eq!(
        Harness::plan_error_code(harness.run(
            0,
            Command::Query {
                name: "n".to_string(),
            },
        )),
        "unknown-query"
    );
    assert_eq!(
        harness.run(
            0,
            Command::Update {
                name: "n".to_string(),
                row: row(&[5]),
                diff: 1,
            },
        ),
        Response::Ok
    );
    // Second uninstall: now the input goes too.
    assert_eq!(harness.run(0, uninstall("n")), Response::Ok);
    assert_eq!(
        Harness::plan_error_code(harness.run(
            0,
            Command::Update {
                name: "n".to_string(),
                row: row(&[5]),
                diff: 1,
            },
        )),
        "unknown-input"
    );
}

/// The ownership regression behind "a disconnect uninstalls nothing it doesn't own":
/// a failed duplicate `Install` must not claim the name, so the loser's disconnect
/// leaves the winner's query untouched — while a name the loser did own is retired.
#[test]
fn disconnect_cleanup_cannot_steal_an_owned_name() {
    let mut harness = Harness::new(1, 2);
    assert_eq!(
        harness.run(
            0,
            Command::CreateInput {
                name: "x".to_string(),
                key_arity: None,
            },
        ),
        Response::Ok
    );
    assert_eq!(harness.run(0, install("q", count_plan("x"))), Response::Ok);
    assert_eq!(
        Harness::plan_error_code(harness.run(1, install("q", Plan::source("x").distinct()))),
        "duplicate-query"
    );
    assert_eq!(harness.run(1, install("r", count_plan("x"))), Response::Ok);

    let loser = harness.client(1);
    harness.core.disconnect(loser);
    // The cleanup is sequenced ahead of anything submitted after this point.
    let log = harness.core.command_log();
    assert!(
        log.iter()
            .any(|command| matches!(command, Command::Uninstall { name } if name == "r")),
        "the loser's own query is retired"
    );
    assert!(
        !log.iter()
            .any(|command| matches!(command, Command::Uninstall { name } if name == "q")),
        "the winner's query is not touched: {log:?}"
    );
    match harness.run(
        0,
        Command::Query {
            name: "q".to_string(),
        },
    ) {
        Response::QueryResults { .. } => {}
        other => panic!("the winner's query survives the loser's disconnect: {other:?}"),
    }
}

/// The stronger ownership regression: a *failed* install (not just a duplicate one)
/// must claim nothing — neither a name another client later installs successfully,
/// nor the name of a shared input — so the failed installer's disconnect removes
/// neither.
#[test]
fn failed_install_claims_nothing_for_disconnect_cleanup() {
    let mut harness = Harness::new(1, 2);
    assert_eq!(
        harness.run(
            0,
            Command::CreateInput {
                name: "edges".to_string(),
                key_arity: None,
            },
        ),
        Response::Ok
    );
    // Client 0: two failing installs — one on a fresh name ("q", unknown source) and
    // one on the shared input's own name ("edges", unknown source).
    assert_eq!(
        Harness::plan_error_code(harness.run(0, install("q", count_plan("missing")))),
        "invalid-plan"
    );
    assert_eq!(
        Harness::plan_error_code(harness.run(0, install("edges", count_plan("missing")))),
        "invalid-plan"
    );
    // Client 1 then takes "q" successfully.
    assert_eq!(
        harness.run(1, install("q", count_plan("edges"))),
        Response::Ok
    );

    let loser = harness.client(0);
    harness.core.disconnect(loser);
    let log = harness.core.command_log();
    assert!(
        !log.iter()
            .any(|command| matches!(command, Command::Uninstall { .. })),
        "failed installs own nothing, so the disconnect cleans nothing: {log:?}"
    );
    // Client 1's query and the shared input both survive.
    match harness.run(
        1,
        Command::Query {
            name: "q".to_string(),
        },
    ) {
        Response::QueryResults { .. } => {}
        other => panic!("client 1's query survives: {other:?}"),
    }
    assert_eq!(
        harness.run(
            1,
            Command::Update {
                name: "edges".to_string(),
                row: row(&[1, 2]),
                diff: 1,
            },
        ),
        Response::Ok
    );
}

/// An install still in flight when its client departs is retired either way the race
/// lands: by the disconnect cleanup (install completed first) or by the completing
/// deposit itself (client was already gone).
#[test]
fn in_flight_install_of_a_departed_client_is_retired() {
    let mut harness = Harness::new(1, 2);
    assert_eq!(
        harness.run(
            0,
            Command::CreateInput {
                name: "edges".to_string(),
                key_arity: None,
            },
        ),
        Response::Ok
    );
    // Submit WITHOUT waiting for the response, then disconnect immediately: the
    // disconnect races the install's completion, and both outcomes must retire it.
    let departing = harness.client(1);
    harness
        .core
        .submit(departing, 0, install("ghost", count_plan("edges")));
    harness.core.disconnect(departing);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let response = harness.run(
            0,
            Command::Query {
                name: "ghost".to_string(),
            },
        );
        if matches!(
            &response,
            Response::PlanError { code, .. } if code == "unknown-query"
        ) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the departed client's in-flight install was never retired: {response:?}"
        );
        kpg_sync::thread::sleep(Duration::from_millis(5));
    }
}

/// The default (non-history) core prunes log entries once every worker has consumed
/// them: a long-lived server holds O(in-flight) commands, not its traffic history.
#[test]
fn consumed_log_entries_are_pruned() {
    let core = Arc::new(ServerCore::new(2));
    let engine = core.start();
    let (client, responses) = core.register_client();
    let total = 200u64;
    core.submit(
        client,
        0,
        Command::CreateInput {
            name: "edges".to_string(),
            key_arity: None,
        },
    );
    for index in 0..total {
        core.submit(
            client,
            index + 1,
            Command::Update {
                name: "edges".to_string(),
                row: row(&[index, index + 1]),
                diff: 1,
            },
        );
    }
    for _ in 0..=total {
        responses
            .recv_timeout(Duration::from_secs(20))
            .expect("every command is acknowledged");
    }
    // After the last response, every worker has deposited everything; its next
    // look at the log records the final cursor and prunes. Poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while core.retained_log_len() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} consumed entries were never pruned",
            core.retained_log_len()
        );
        kpg_sync::thread::sleep(Duration::from_millis(5));
    }
    core.close();
    engine.join().expect("engine exits");
}
