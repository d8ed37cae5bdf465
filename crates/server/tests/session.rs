//! Socket-level session tests: concurrent clients over a loopback server, checked
//! against the determinism contract — the server's answers equal a direct
//! single-`Manager` replay of its merged command log — plus disconnect ownership and
//! wire-error resynchronization on a real TCP stream.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use kpg_plan::{replay, Command, Plan, ReduceKind, Response as PlanResponse, Row, Value};
use kpg_server::{serve, Client, ClientError, Server, ServerConfig};
use kpg_wire::{read_frame, write_frame, Frame, Response, WireCodec};

fn row(values: &[u64]) -> Row {
    Row::from(values.iter().map(|&v| Value::UInt(v)).collect::<Vec<_>>())
}

fn local_server(workers: usize) -> Server {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            // These tests replay the merged log, so keep the full history.
            retain_log: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback server")
}

/// Two clients interleaving installs, updates, and queries on a shared input: the
/// settled answers must equal a single-`Manager` replay of the merged command log.
#[test]
fn concurrent_clients_match_a_replay_of_the_merged_log() {
    concurrent_clients_match_a_replay(2);
}

/// The same with one worker, which is the reactor: every command runs on the thread
/// that read it.
#[test]
fn concurrent_clients_match_a_replay_of_the_merged_log_on_one_worker() {
    concurrent_clients_match_a_replay(1);
}

fn concurrent_clients_match_a_replay(workers: usize) {
    let mut server = local_server(workers);
    let addr = server.local_addr();

    let mut setup = Client::connect(addr).expect("connect setup client");
    setup.create_input("edges", Some(1)).expect("create input");

    let writer = |queries: Vec<(&'static str, Plan)>, updates: Vec<(u64, u64)>| {
        let mut client = Client::connect(addr).expect("connect session client");
        move || {
            for (name, plan) in queries {
                client.install(name, plan, &[]).expect("install");
            }
            // Pipeline the updates: send the batch, then collect one Ok per frame.
            let mut sent = 0usize;
            for (src, dst) in updates {
                client
                    .send(&Command::Update {
                        name: "edges".to_string(),
                        row: row(&[src, dst]),
                        diff: 1,
                    })
                    .expect("send update");
                sent += 1;
            }
            for _ in 0..sent {
                assert_eq!(client.receive().expect("update ack"), Response::Ok);
            }
            client
        }
    };

    // Disjoint update sets; both land in the shared epoch-0 batch, so any interleave
    // is equivalent — what makes the concurrent phase deterministic up to log order.
    let updates_a: Vec<(u64, u64)> = (0..120).map(|i| (i % 20, (i * 7) % 30)).collect();
    let updates_b: Vec<(u64, u64)> = (0..120).map(|i| (40 + i % 15, (i * 11) % 30)).collect();
    let thread_a = kpg_sync::thread::spawn(writer(
        vec![(
            "degrees",
            Plan::source("edges").reduce(1, ReduceKind::Count),
        )],
        updates_a,
    ));
    let thread_b = kpg_sync::thread::spawn(writer(
        vec![
            (
                "dst-degrees",
                Plan::source("edges")
                    .map(vec![kpg_plan::Expr::col(1), kpg_plan::Expr::col(0)])
                    .reduce(1, ReduceKind::Count),
            ),
            ("pairs", Plan::source("edges").distinct()),
        ],
        updates_b,
    ));
    let mut client_a = thread_a.join().expect("client A thread");
    let thread_b_client = thread_b.join().expect("client B thread");
    drop(thread_b_client); // B departs; its queries were installed but not queried yet.

    // B owned "dst-degrees" and "pairs": they retire with it. Wait for the cleanup
    // to land before the deterministic tail phase.
    wait_until(|| {
        matches!(
            client_a.query("pairs"),
            Err(ClientError::Plan { ref code, .. }) if code == "unknown-query"
        )
    });

    setup.advance(1).expect("advance");
    let degrees = client_a.query("degrees").expect("query degrees");
    assert!(!degrees.is_empty());

    // The merged log, replayed on one Manager, answers every query identically.
    let log = server.core().command_log();
    assert!(log
        .iter()
        .any(|command| matches!(command, Command::Uninstall { name } if name == "dst-degrees")));
    // Failures are part of the replay (arbitration may have let some commands lose);
    // they leave a manager unchanged.
    let outcomes = replay(1, log.clone()).outcomes;
    let replayed: HashMap<String, Vec<(Row, isize)>> = log
        .into_iter()
        .zip(outcomes)
        .filter_map(|(command, (outcome, _))| match (command, outcome) {
            (Command::Query { name }, Ok(PlanResponse::Rows(rows))) => Some((name, rows)),
            _ => None,
        })
        .collect();
    assert_eq!(replayed.get("degrees"), Some(&degrees));

    server.shutdown();
}

/// A departing client takes its own queries with it — and nothing it doesn't own:
/// not another client's query whose name it failed to claim, not the shared input.
#[test]
fn disconnect_uninstalls_only_what_the_client_owns() {
    let mut server = local_server(1);
    let addr = server.local_addr();

    let mut alice = Client::connect(addr).expect("connect alice");
    alice.create_input("edges", Some(1)).expect("create input");
    for (src, dst) in [(1u64, 2u64), (2, 3), (3, 4)] {
        alice.update("edges", row(&[src, dst]), 1).expect("update");
    }
    alice
        .install(
            "shared-name",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            &[],
        )
        .expect("install alice's query");
    alice.advance(1).expect("advance");
    let before = alice.query("shared-name").expect("query");
    assert_eq!(before.len(), 3);

    let mut bob = Client::connect(addr).expect("connect bob");
    // Bob tries to take the same name: rejected, and crucially the failed install
    // must not let Bob's disconnect uninstall Alice's query.
    let duplicate = bob.install("shared-name", Plan::source("edges").distinct(), &[]);
    assert_eq!(
        duplicate
            .err()
            .and_then(|e| e.plan_code().map(String::from)),
        Some("duplicate-query".to_string())
    );
    bob.install("bobs-query", Plan::source("edges").distinct(), &[])
        .expect("install bob's query");
    assert_eq!(bob.query("bobs-query").expect("bob queries").len(), 3);
    drop(bob);

    // Bob's query goes; Alice's query and the shared input stay.
    wait_until(|| {
        matches!(
            alice.query("bobs-query"),
            Err(ClientError::Plan { ref code, .. }) if code == "unknown-query"
        )
    });
    assert_eq!(
        alice.query("shared-name").expect("alice still served"),
        before
    );
    alice
        .update("edges", row(&[9, 9]), 1)
        .expect("input still live");
    alice.advance(2).expect("advance");
    assert_eq!(alice.query("shared-name").expect("query").len(), 4);

    server.shutdown();
}

/// Wire-level garbage on a real socket: the server answers `WireError` for the bad
/// frame (oversized or undecodable) and the connection keeps working — the next
/// frames get their real responses, in order.
#[test]
fn wire_errors_resync_the_tcp_stream() {
    let mut server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            frame_limit: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");

    // 1: an undecodable payload. 2: an oversized frame (over the server's 1 KiB
    // limit). 3: a valid command. One response per frame, in order.
    write_frame(&mut stream, &[0xFF, 0xAA, 0x55]).expect("send garbage");
    write_frame(&mut stream, &vec![0u8; 4096]).expect("send oversized");
    write_frame(
        &mut stream,
        &Command::CreateInput {
            name: "edges".to_string(),
            key_arity: None,
        }
        .encode(),
    )
    .expect("send valid command");

    let mut read_response = || -> Response {
        match read_frame(&mut stream, 1 << 20).expect("read response") {
            Some(Frame::Payload(payload)) => Response::decode(&payload).expect("decode response"),
            other => panic!("expected a response frame, got {other:?}"),
        }
    };
    assert!(matches!(read_response(), Response::WireError { .. }));
    let oversized = read_response();
    match &oversized {
        Response::WireError { message } => {
            assert!(message.contains("4096"), "mentions the length: {message}");
        }
        other => panic!("expected WireError for the oversized frame, got {other:?}"),
    }
    assert_eq!(read_response(), Response::Ok);

    server.shutdown();
}

/// A client that pipelines far past the server's in-flight cap without reading a
/// single response must neither deadlock nor lose a reply: the server's reader stalls
/// (TCP backpressure) instead of buffering unboundedly, and once the client drains,
/// every command has exactly one in-order response.
#[test]
fn deep_pipelining_hits_backpressure_not_unbounded_buffering() {
    let mut server = local_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.create_input("edges", None).expect("create input");

    let total = 4_000u64;
    for index in 0..total {
        client
            .send(&Command::Update {
                name: "edges".to_string(),
                row: row(&[index % 97, index % 89]),
                diff: 1,
            })
            .expect("pipelined send");
    }
    for index in 0..total {
        assert_eq!(
            client
                .receive()
                .unwrap_or_else(|e| panic!("response {index}: {e}")),
            Response::Ok
        );
    }
    // The session is still fully usable afterwards.
    client.advance(1).expect("advance");
    client
        .install(
            "deg",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            &[],
        )
        .expect("install");
    server.shutdown();
}

/// One pipelined write holding a `Query` every few commands. The reactor stops reading
/// the connection after each query (its answer leaves before the commands behind it
/// run) and resumes from the bytes already in its assembler, which no readiness event
/// will announce again. Every frame must be answered, in order, and every answer must
/// equal a single-`Manager` replay of the log.
#[test]
fn pipelined_queries_are_each_answered_in_order() {
    let mut server = local_server(1);
    // A frame left stranded in the assembler fails the test instead of hanging it.
    let mut client = Client::connect(server.local_addr())
        .and_then(|client| client.with_request_timeout(Some(Duration::from_secs(10))))
        .expect("connect");
    client.create_input("edges", Some(1)).expect("create input");
    client
        .install(
            "degrees",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            &[],
        )
        .expect("install");

    let mut commands = Vec::new();
    for index in 0..60u64 {
        commands.push(Command::Update {
            name: "edges".to_string(),
            row: row(&[index % 7, index]),
            diff: 1,
        });
        if index % 6 == 5 {
            commands.push(Command::AdvanceTime {
                epoch: index / 6 + 1,
            });
            commands.push(Command::Query {
                name: "degrees".to_string(),
            });
        }
    }
    for command in &commands {
        client.send(command).expect("pipelined send");
    }
    let answers: Vec<Response> = commands
        .iter()
        .map(|_| client.receive().expect("every frame is answered"))
        .collect();

    let log = server.core().command_log();
    let replayed = replay(1, log.clone()).outcomes;
    let expected: Vec<Vec<(Row, isize)>> = log
        .into_iter()
        .zip(replayed)
        .filter_map(|(command, (outcome, _))| match (command, outcome) {
            (Command::Query { .. }, Ok(PlanResponse::Rows(mut rows))) => {
                rows.sort();
                Some(rows)
            }
            _ => None,
        })
        .collect();
    let mut queried = Vec::new();
    for (command, answer) in commands.iter().zip(answers) {
        match (command, answer) {
            (Command::Query { .. }, Response::QueryResults { rows, diffs }) => {
                let mut rows: Vec<(Row, isize)> = rows
                    .into_iter()
                    .zip(diffs.into_iter().map(|diff| diff as isize))
                    .collect();
                rows.sort();
                queried.push(rows);
            }
            (_, answer) => assert_eq!(answer, Response::Ok, "in order: {command:?}"),
        }
    }
    assert_eq!(queried.len(), 10);
    assert_eq!(queried, expected);
    server.shutdown();
}

/// Polls `condition` (e.g. "the disconnect cleanup has executed") with a deadline.
fn wait_until(mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if condition() {
            return;
        }
        assert!(Instant::now() < deadline, "condition not reached in time");
        kpg_sync::thread::sleep(Duration::from_millis(10));
    }
}
