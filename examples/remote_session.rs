//! The paper's interactive scenario over a *real socket*: a client installs §6.2
//! query classes against a running network server, poses updates, reads settled
//! answers, and retires queries — then the same command stream is replayed in process
//! (`kpg_plan::replay`) to confirm the wire boundary changed nothing: byte-identical
//! settled results either way.
//!
//! This is `examples/plan_session.rs` with TCP in the middle: frames carry
//! `kpg_wire`-encoded `Command`s in and `Response`s out, a sequencer totally orders
//! the client streams, and every worker executes the same log.
//!
//! Run with `cargo run --release --example remote_session`.

use shared_arrangements::plan::{replay, Command, Expr, Plan, ReduceKind, Response, Row};
use shared_arrangements::server::{serve, Client, ServerConfig};

fn edge(src: u32, dst: u32) -> Row {
    vec![src.into(), dst.into()].into()
}

/// The session, as data: the command stream both sides of the comparison run.
fn session_commands() -> Vec<Command> {
    let mut commands = vec![Command::CreateInput {
        name: "edges".into(),
        key_arity: Some(1),
    }];
    for src in 0..1_000u32 {
        for offset in 1..=3u32 {
            commands.push(Command::Update {
                name: "edges".into(),
                row: edge(src, (src + offset) % 1_000),
                diff: 1,
            });
        }
    }
    // Query 1: out-degree counts, grouped by source.
    commands.push(Command::Install {
        name: "degrees".into(),
        plan: Plan::source("edges").reduce(1, ReduceKind::Count),
        locals: vec![],
    });
    // Query 2: the 2-hop neighbourhood of interactively posed roots, with `roots` a
    // query-local input.
    let two_hop = Plan::source("roots")
        .join(Plan::source("edges"), vec![(0, 0)]) // [root, mid]
        .join(Plan::source("edges"), vec![(1, 0)]) // [mid, root, dst]
        .map(vec![Expr::col(1), Expr::col(2)]) // [root, dst]
        .distinct();
    commands.push(Command::Install {
        name: "two-hop".into(),
        plan: two_hop,
        locals: vec!["roots".into()],
    });
    commands.push(Command::Update {
        name: "roots".into(),
        row: vec![7u32.into()].into(),
        diff: 1,
    });
    commands.push(Command::AdvanceTime { epoch: 1 });
    commands
}

fn main() {
    // A real server on a real port, with two dataflow workers behind the sequencer.
    let mut server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind the query server");
    println!("serving on {} with 2 workers", server.local_addr());

    // Bounded waits everywhere: a wedged (or unreachable) server surfaces as a
    // ClientError::TimedOut instead of a hung example.
    let timeout = std::time::Duration::from_secs(30);
    let mut client = Client::connect_timeout(server.local_addr(), timeout)
        .expect("connect")
        .with_request_timeout(Some(timeout))
        .expect("set request timeout");
    // Pipeline the session in chunks of the server's in-flight bound: send a chunk of
    // frames, then collect its responses (the server answers strictly in order; past
    // PIPELINE_DEPTH unanswered commands it stops reading — backpressure).
    let commands = session_commands();
    for chunk in commands.chunks(shared_arrangements::server::PIPELINE_DEPTH) {
        for command in chunk {
            client.send(command).expect("send command");
        }
        for command in chunk {
            match client.receive().expect("session response") {
                shared_arrangements::wire::Response::Ok => {}
                other => panic!("command ({}) failed: {other:?}", command.kind()),
            }
        }
    }

    let degrees = client.query("degrees").expect("query degrees");
    let two_hops = client.query("two-hop").expect("query two-hop");
    println!(
        "over the socket: {} degree rows; 2-hop of node 7: {:?}",
        degrees.len(),
        two_hops
            .iter()
            .map(|(row, _)| row.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(degrees.len(), 1_000, "every node has out-degree 3");
    assert_eq!(two_hops.len(), 5, "nodes 9..=13 are two hops from 7");

    // The byte boundary must be invisible: the same command stream on an in-process
    // Manager returns the same settled answers, row for row.
    let mut local = session_commands();
    local.extend(["degrees", "two-hop"].map(|name| Command::Query { name: name.into() }));
    let mut local = replay(1, local).outcomes;
    for (name, answer) in [("two-hop", &two_hops), ("degrees", &degrees)] {
        let (in_process, _) = local.pop().expect("one outcome per command");
        let diverges = format!("{name} diverges across the socket");
        assert_eq!(in_process, Ok(Response::Rows(answer.clone())), "{diverges}");
    }
    println!("socket answers == in-process answers (both queries)");

    // Retire a query through the same protocol, then confirm the retirement is
    // visible to a *different* connection.
    client.uninstall("two-hop").expect("uninstall");
    let mut other = Client::connect_timeout(server.local_addr(), timeout)
        .expect("second client")
        .with_request_timeout(Some(timeout))
        .expect("set request timeout");
    match other.query("two-hop") {
        Err(error) => assert_eq!(error.plan_code(), Some("unknown-query")),
        Ok(_) => panic!("two-hop should be gone"),
    }
    let still = other.query("degrees").expect("degrees still served");
    assert_eq!(still, degrees);
    println!("uninstall visible to other connections; degrees still served");

    server.shutdown();
}
