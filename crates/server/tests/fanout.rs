//! Connection fan-out: the event-driven fabric's structural promise is that the
//! thread count is a function of the worker count, never the connection count —
//! worker 0's thread is the reactor that multiplexes every socket. These tests pin
//! that by counting the server's kernel tasks (`/proc/self/task`): serving adds
//! exactly the workers and the engine thread that joins them, and opening 10× more
//! sockets adds exactly zero threads. Every thread the server spawns is named
//! `kpg-…` (`kpg-worker-N`, `kpg-server-engine`), so the census counts those and
//! nothing else: the test harness's own threads start and stop as they please.
//!
//! The fast tests hold ~128 idle connections; the `#[ignore]`d slow-lane test
//! holds 1000+ (bounded by the fd rlimit — client and server share this
//! process, so each connection costs two descriptors) and additionally proves
//! the held connections still work afterwards. The tests count threads one at a
//! time (`SERIAL`), so one test's server never shows up in another's census.
//! Linux-only: thread counting reads procfs.

#![cfg(target_os = "linux")]

use std::net::TcpStream;

use kpg_server::{serve, Client, ServerConfig};
use kpg_sync::{Mutex, MutexGuard};

/// Held by every test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One round trip: `CreateInput` is answered only once every worker has executed it,
/// so afterwards the engine and all its workers are running.
fn round_trip(addr: std::net::SocketAddr, input: &str) {
    let mut client = Client::connect(addr).expect("connect active client");
    client
        .send(&kpg_plan::Command::CreateInput {
            name: input.into(),
            key_arity: None,
        })
        .expect("send");
    client.receive().expect("ack");
}

/// Number of the server's kernel tasks (threads) in this process right now: those
/// whose name (`comm`, truncated to 15 bytes) starts with `kpg-`.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("kpg-"))
        .count()
}

/// The soft fd rlimit, so the slow lane sizes itself to the environment.
fn fd_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3))
        .and_then(|soft| soft.parse().ok())
        .unwrap_or(1024)
}

/// Opens `count` idle connections (accepted, registered, never written to).
fn open_idle(addr: std::net::SocketAddr, count: usize) -> Vec<TcpStream> {
    (0..count)
        .map(|index| {
            TcpStream::connect(addr).unwrap_or_else(|error| {
                panic!("connect idle connection {index}: {error}");
            })
        })
        .collect()
}

/// Waits until the reactor has drained the accept queue: with level-triggered
/// readiness the backlog is accepted within a few wakeups, so a short settle is
/// enough for the thread-count snapshot to be post-accept.
fn settle() {
    kpg_sync::thread::sleep(std::time::Duration::from_millis(200));
}

/// A server is its workers plus the engine thread that joins them: worker 0 is the
/// reactor, so there is no reactor thread of its own.
#[test]
fn serving_adds_the_workers_and_one_engine_thread() {
    let _serial = serial();
    for workers in [1, 2] {
        let before = thread_count();
        let mut server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .expect("bind fanout server");
        round_trip(server.local_addr(), "edges");
        let serving = thread_count();
        assert_eq!(
            serving - before,
            workers + 1,
            "serving with {workers} worker(s) added {} threads",
            serving - before
        );
        server.shutdown();
    }
}

#[test]
fn thread_count_does_not_scale_with_connections() {
    let _serial = serial();
    let mut server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind fanout server");
    let addr = server.local_addr();

    let first = open_idle(addr, 8);
    settle();
    let baseline = thread_count();

    let rest = open_idle(addr, 120);
    settle();
    let loaded = thread_count();
    assert_eq!(
        loaded, baseline,
        "adding 120 connections changed the thread count ({baseline} -> {loaded}): \
         the server is spawning per-connection threads"
    );

    // The idle connections are live sessions, not just accepted sockets: one of
    // them can run a command while the rest stay parked in the reactor.
    round_trip(addr, "edges");

    drop(first);
    drop(rest);
    server.shutdown();
}

/// Slow lane: a thousand-plus idle connections through one poller, on worker 0's
/// thread. Sized to the fd rlimit: each held connection is two descriptors here.
#[test]
#[ignore = "1k+ idle connections; run in the slow CI lane"]
fn thousand_idle_connections_two_reactor_threads() {
    let _serial = serial();
    // Leave generous headroom for workers, WAL-less engine plumbing, and the
    // test harness itself.
    let target = (fd_limit().saturating_sub(128) / 2).min(10_000);
    assert!(
        target >= 1000,
        "fd rlimit too low to hold 1000 connections ({target} possible)"
    );

    let mut server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind fanout server");
    let addr = server.local_addr();

    let first = open_idle(addr, 8);
    settle();
    let baseline = thread_count();

    let rest = open_idle(addr, target - 8);
    settle();
    settle();
    let loaded = thread_count();
    assert_eq!(
        loaded, baseline,
        "holding {target} connections changed the thread count ({baseline} -> {loaded})"
    );

    // The structural claim: the socket fabric adds no thread at all (worker 0 is
    // the reactor). The census is 2 workers + the engine thread — anything above 8
    // means something is spawning per connection.
    assert!(
        loaded <= 8,
        "{loaded} threads while holding {target} idle connections: \
         the socket fabric is not O(1) threads"
    );

    // And the server still serves through the crowd.
    round_trip(addr, "edges");

    drop(first);
    drop(rest);
    server.shutdown();
}
