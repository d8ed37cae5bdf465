//! Deterministic-schedule exploration of the server's historical races.
//!
//! Each test runs its scenario under `kpg_sync::model::explore`, which serializes the
//! threads onto one runnable-at-a-time scheduler and explores interleavings — first
//! exhaustively (small bounds), then with PCT-style randomized priorities. A failing
//! schedule panics with a replayable decision trace (`KPG_MODEL_REPLAY_TRACE=...`).
//!
//! The first six scenarios are the races this repo actually shipped fixes for,
//! re-pinned here as schedule-exhaustive invariants rather than timing-dependent
//! stress tests; the seventh pins the hand-off that replaced a shared, locked tracker:
//!
//! 1. *Sequencer arbitration*: concurrent same-name installs — exactly one winner,
//!    and ownership matches the log's arbitration order.
//! 2. *Install-completion ownership vs disconnect*: a client departing while its
//!    install is in flight never leaks an owned query.
//! 3. *Shutdown vs accept*: the reactor's same-thread teardown — a connection
//!    accepted while the stop flag is being raised is still torn down, never leaked.
//! 4. *Group commit vs checkpoint/prune*: the WAL watermark protocol — a checkpoint
//!    never prunes records that are not yet durable.
//! 5. *Pipeline-depth backpressure*: read-interest suppression bounds in-flight
//!    depth without deadlocking the wakeup protocol. 5b runs it with the reactor as
//!    worker 0, on the real consume path and response queue: the reactor's own
//!    deposits are flushed without a wake, and another worker's always wake it.
//! 6. *Accept backoff*: a listener muted by a transient accept failure re-arms and
//!    accepts a connection whose readiness event fired while muted.
//! 7. *Sealed-epoch hand-off*: the checkpoint thread owns the state tracker and is fed
//!    sealed epochs over a channel — the last epoch's hand-off racing `close` +
//!    `final_checkpoint` is never lost, and with two workers depositing the epochs
//!    still arrive in log order.
//! 8. *Idle turns*: a worker that finds the log empty does bounded turns of trace
//!    maintenance before it parks — a command appended during a turn is consumed with
//!    no further turn and no park, a ring between the worker's peek and its park is
//!    never lost, and `close` during a turn ends the loop though maintenance remains.
//!
//! The reactor-side protocols (3, 5, 6) model the `Waker` — a real pipe fd the
//! scheduler cannot see — as a [`Doorbell`], which has exactly the semantics the
//! reactor relies on: set-a-flag-and-wake, coalescing, no lost rings.
//!
//! Run with `cargo test -p kpg_server --features model --test model_races`.

#![cfg(feature = "model")]

use std::cell::Cell;
use std::collections::HashSet;

use kpg_plan::{Command, Plan, PlanError, Response as PlanResponse, Row, Value};
use kpg_server::{DurabilityConfig, QueueRoute, ResponseRoute, ServerCore};
use kpg_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use kpg_sync::model::{explore, Config};
use kpg_sync::{mpsc, thread, Arc, Doorbell, Mutex};
use kpg_wire::Response;

/// A stub in place of the dataflow [`kpg_plan::Manager`]: tracks installed names and
/// fails duplicates, which is the only manager behavior the sequencing/ownership
/// protocol under test depends on. Deterministic in log order, like the real one.
fn stub_execute(
    installed: &mut HashSet<String>,
    command: &Command,
) -> Result<PlanResponse, PlanError> {
    match command {
        Command::Install { name, .. } => {
            if installed.insert(name.clone()) {
                Ok(PlanResponse::Installed { new_dataflows: 1 })
            } else {
                Err(PlanError::DuplicateQuery(name.clone()))
            }
        }
        Command::Uninstall { name } => Ok(PlanResponse::Uninstalled {
            existed: installed.remove(name),
        }),
        _ => Ok(PlanResponse::Done),
    }
}

fn install(name: &str) -> Command {
    Command::Install {
        name: name.to_string(),
        plan: Plan::source("edges"),
        locals: vec!["edges".to_string()],
    }
}

fn small_config() -> Config {
    Config {
        schedules: 64,
        exhaustive: Some(384),
        ..Config::default()
    }
}

/// Race 1: two clients install the same name concurrently. The log's append order is
/// the arbitration order — in *every* interleaving exactly one install succeeds, and
/// the ownership table credits exactly the winner.
#[test]
fn arbitration_order_is_total() {
    explore("arbitration_order", small_config(), || {
        let core = Arc::new(ServerCore::new(1));
        let (client_a, responses_a) = core.register_client();
        let (client_b, responses_b) = core.register_client();

        let worker = {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                let mut installed = HashSet::new();
                core.model_worker_loop(0, |command| stub_execute(&mut installed, command));
            })
        };
        let submit_a = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.submit(client_a, 0, install("q")))
        };
        let submit_b = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.submit(client_b, 0, install("q")))
        };
        submit_a.join().unwrap();
        submit_b.join().unwrap();
        core.close();
        worker.join().unwrap();

        let response_a = responses_a.try_recv().expect("client A answered").1;
        let response_b = responses_b.try_recv().expect("client B answered").1;
        let a_won = matches!(response_a, Response::Ok);
        let b_won = matches!(response_b, Response::Ok);
        assert!(
            a_won != b_won,
            "exactly one same-name install may win: A={response_a:?} B={response_b:?}"
        );
        let winner = if a_won { client_a } else { client_b };
        assert_eq!(
            core.owner_of("q"),
            Some(winner),
            "ownership must credit the arbitration winner"
        );
    });
}

/// Race 2: a client disconnects while its install is in flight. Whether the
/// disconnect sequences before or after the install's completion, the departed
/// client must end up owning nothing — the completion-time ownership rule
/// (`apply_ownership`) retires an orphaned install on the spot.
#[test]
fn install_ownership_vs_disconnect_never_leaks() {
    explore("install_vs_disconnect", small_config(), || {
        let core = Arc::new(ServerCore::new(1));
        let (client, _responses) = core.register_client();

        let worker = {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                let mut installed = HashSet::new();
                core.model_worker_loop(0, |command| stub_execute(&mut installed, command));
            })
        };
        let submitter = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.submit(client, 0, install("q")))
        };
        let disconnector = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.disconnect(client))
        };
        submitter.join().unwrap();
        disconnector.join().unwrap();
        core.close();
        worker.join().unwrap();

        assert_eq!(
            core.owner_of("q"),
            None,
            "a departed client may not keep ownership in any interleaving"
        );
    });
}

/// Race 3: shutdown vs accept, as the reactor runs it. Accepting and tearing down
/// happen on the *same* thread: the reactor drains the kernel's accept queue on a
/// listener-readiness ring, and checks the stop flag at the top of every wakeup.
/// `Server::shutdown` sets the flag, rings the waker, and joins. The old
/// thread-per-connection design needed a registration double-check here; the
/// reactor makes the race unlosable by construction — which this model proves
/// across every interleaving: after shutdown joins the reactor, every connection
/// the reactor ever accepted is closed, even one accepted in the same wakeup the
/// flag was raised.
#[test]
fn shutdown_vs_accept_closes_every_connection() {
    explore("shutdown_vs_accept", small_config(), || {
        struct FakeConn {
            closed: AtomicBool,
        }

        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Doorbell::new());
        // The kernel's accept queue: readiness (a waker ring) says "look here".
        let accept_queue: Arc<Mutex<Vec<Arc<FakeConn>>>> = Arc::new(Mutex::new(Vec::new()));

        let reactor = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            let accept_queue = Arc::clone(&accept_queue);
            thread::spawn(move || {
                let mut registered: Vec<Arc<FakeConn>> = Vec::new();
                loop {
                    let seen = waker.epoch();
                    // Stop check first: teardown wins over whatever else the
                    // wakeup carries, and it runs on this thread, after any
                    // accept this same iteration could have done.
                    if stop.load(Ordering::SeqCst) {
                        for conn in &registered {
                            conn.closed.store(true, Ordering::SeqCst);
                        }
                        return registered;
                    }
                    registered.append(&mut accept_queue.lock().expect("accept queue poisoned"));
                    waker.wait(seen);
                }
            })
        };
        let client = {
            let waker = Arc::clone(&waker);
            let accept_queue = Arc::clone(&accept_queue);
            thread::spawn(move || {
                let conn = Arc::new(FakeConn {
                    closed: AtomicBool::new(false),
                });
                accept_queue
                    .lock()
                    .expect("accept queue poisoned")
                    .push(Arc::clone(&conn));
                waker.ring();
                conn
            })
        };
        let shutdown = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            thread::spawn(move || {
                stop.store(true, Ordering::SeqCst);
                waker.ring();
            })
        };
        let conn = client.join().unwrap();
        shutdown.join().unwrap();
        let registered = reactor.join().unwrap();
        if registered.iter().any(|other| Arc::ptr_eq(other, &conn)) {
            assert!(
                conn.closed.load(Ordering::SeqCst),
                "a connection accepted during shutdown must still be torn down"
            );
        }
        // A connection never accepted is the kernel's to reset — but the reactor
        // must not have exited with it registered and open.
        assert!(
            registered
                .iter()
                .all(|other| other.closed.load(Ordering::SeqCst)),
            "the reactor exited with an open registered connection"
        );
    });
}

/// Race 4: group commit vs checkpoint/prune. A protocol model of `engine.rs`'s
/// durability watermarks: the appender assigns WAL sequence numbers under the log
/// lock and makes an epoch's records *visible to workers only after* the group-commit
/// fsync (exactly `ServerCore::append_locked`); the worker hands each completed epoch's
/// watermark to the checkpointer, which checkpoints at it and prunes the WAL below
/// it. Invariant: no interleaving prunes (or checkpoints past) a record that
/// is not yet durable — the bug the historical checkpoint/truncation race shipped.
#[test]
fn group_commit_watermark_never_prunes_undurable_records() {
    explore("group_commit_vs_prune", small_config(), || {
        struct WalState {
            next_seq: u64,
            /// Highest sequence covered by a completed group-commit fsync.
            durable_up_to: Option<u64>,
        }
        let wal = Arc::new(Mutex::new(WalState {
            next_seq: 0,
            durable_up_to: None,
        }));
        let watermark = Arc::new(Mutex::new(None::<u64>));
        let (sequenced_tx, sequenced_rx) = mpsc::channel::<u64>();
        let (checkpoint_tx, checkpoint_rx) = mpsc::channel::<u64>();

        // The sequencer: two epochs of two records each. The epoch's records become
        // visible (are sent to the worker) only after `durable_up_to` covers them.
        let appender = {
            let wal = Arc::clone(&wal);
            thread::spawn(move || {
                for _epoch in 0..2u64 {
                    let mut epoch_records = Vec::new();
                    for _ in 0..2 {
                        let mut state = wal.lock().expect("wal poisoned");
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        epoch_records.push(seq);
                    }
                    // Group commit: fsync the epoch, then publish its records.
                    wal.lock().expect("wal poisoned").durable_up_to =
                        Some(*epoch_records.last().expect("epoch nonempty"));
                    for seq in epoch_records {
                        sequenced_tx.send(seq).expect("worker lives");
                    }
                }
            })
        };
        // The worker: applies completions in order; an epoch boundary (here: the
        // second record) cuts a checkpoint job at the current watermark.
        let worker = {
            let watermark = Arc::clone(&watermark);
            thread::spawn(move || {
                while let Ok(seq) = sequenced_rx.recv() {
                    *watermark.lock().expect("watermark poisoned") = Some(seq);
                    if seq % 2 == 1 {
                        checkpoint_tx.send(seq).expect("checkpointer lives");
                    }
                }
            })
        };
        // The checkpointer: writes the checkpoint, then prunes the WAL below the
        // checkpoint's watermark — asserting durability first, which is the pinned
        // invariant.
        let checkpointer = {
            let wal = Arc::clone(&wal);
            thread::spawn(move || {
                while let Ok(checkpoint_watermark) = checkpoint_rx.recv() {
                    let state = wal.lock().expect("wal poisoned");
                    assert!(
                        state
                            .durable_up_to
                            .is_some_and(|d| d >= checkpoint_watermark),
                        "checkpoint at {checkpoint_watermark} covers records past \
                         durable_up_to {:?}: pruning would lose acknowledged data",
                        state.durable_up_to
                    );
                }
            })
        };
        appender.join().unwrap();
        worker.join().unwrap();
        checkpointer.join().unwrap();
    });
}

/// Race 5: pipeline-depth backpressure, reactor-style. The old design parked a
/// reader thread; the reactor instead *suppresses read interest* at the depth
/// bound and re-processes assembler residue when responses flush. The protocol
/// under test: the reactor submits frames only while `in_flight < LIMIT`,
/// otherwise parks on its waker; workers deliver responses to the shared queue
/// and ring. Invariants: in-flight never exceeds the limit, and every schedule
/// drains all requests — a lost wakeup between "queue response" and "ring" (the
/// historical failure mode) would park the reactor forever and be reported as a
/// deadlock by the model.
#[test]
fn pipeline_backpressure_bounds_in_flight_and_drains() {
    explore("pipeline_backpressure", small_config(), || {
        const LIMIT: u64 = 2;
        const REQUESTS: u64 = 4;
        let waker = Arc::new(Doorbell::new());
        let responses: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (work_tx, work_rx) = mpsc::channel::<u64>();

        // The worker pool: executes a command, delivers the response, rings.
        let worker = {
            let waker = Arc::clone(&waker);
            let responses = Arc::clone(&responses);
            thread::spawn(move || {
                while let Ok(reply) = work_rx.recv() {
                    responses.lock().expect("queue poisoned").push(reply);
                    waker.ring();
                }
            })
        };
        // The reactor: REQUESTS frames already sit in the assembler (bytes read
        // long ago — no readiness event will ever announce them again), so
        // progress past the depth bound *must* come from response wakeups.
        let mut next_frame = 0u64;
        let mut answered = 0u64;
        loop {
            let seen = waker.epoch();
            answered += responses.lock().expect("queue poisoned").drain(..).count() as u64;
            let in_flight = next_frame - answered;
            assert!(
                in_flight <= LIMIT,
                "reactor ran {in_flight} commands ahead (limit {LIMIT})"
            );
            while next_frame < REQUESTS && next_frame - answered < LIMIT {
                work_tx.send(next_frame).expect("worker lives");
                next_frame += 1;
            }
            if answered == REQUESTS {
                break;
            }
            waker.wait(seen);
        }
        drop(work_tx);
        worker.join().unwrap();
        assert_eq!(answered, REQUESTS);
    });
}

thread_local! {
    /// Set on the thread that plays the reactor in race 5b.
    static ON_REACTOR: Cell<bool> = const { Cell::new(false) };
}

/// Off-thread wakes and wake-less flushes seen across race 5b's schedules.
static OFF_THREAD_WAKES: AtomicU64 = AtomicU64::new(0);
static WAKELESS_FLUSHES: AtomicU64 = AtomicU64::new(0);

/// Race 5b: race 5 with the reactor as worker 0, as `serve` runs it. The reactor
/// thread submits up to the depth bound, then executes and deposits through the real
/// `ServerCore::consume` (`model_consume`) and drains the real [`QueueRoute`]; a stub
/// worker 1 consumes the same log. Whichever worker deposits a command last completes
/// it. Invariants, on every schedule: every response reaches the "socket" in request
/// order; a deposit made on the reactor thread never rings the waker (the wake asserts
/// it), so the reactor flushes it on its own next pass; and one made by worker 1 rings
/// it, or the reactor would wait forever for a response already queued — a deadlock
/// the explorer reports. Across the exploration, both workers must have been last at
/// least once.
#[test]
fn reactor_resident_worker_zero_flushes_every_response() {
    explore("reactor_as_worker_zero", small_config(), || {
        const LIMIT: u64 = 2;
        const REQUESTS: u64 = 3;
        let core = Arc::new(ServerCore::new(2));
        let waker = Arc::new(Doorbell::new());
        let route = {
            let waker = Arc::clone(&waker);
            Arc::new(QueueRoute::new(move || {
                assert!(
                    !ON_REACTOR.with(Cell::get),
                    "a deposit on the reactor thread rang the reactor's own waker"
                );
                OFF_THREAD_WAKES.fetch_add(1, Ordering::SeqCst);
                waker.ring();
            }))
        };
        let client = core.register_client_routed(Arc::clone(&route) as Arc<dyn ResponseRoute>);
        let stub = {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                let mut installed = HashSet::new();
                core.model_worker_loop(1, |command| stub_execute(&mut installed, command));
            })
        };

        ON_REACTOR.with(|on| on.set(true));
        let _drainer = route.drain_here();
        let mut installed = HashSet::new();
        let (mut next, mut submitted, mut answered) = (0u64, 0u64, 0u64);
        loop {
            let seen = waker.epoch();
            core.model_consume(0, &mut next, |command| {
                stub_execute(&mut installed, command)
            });
            let flushed = route.take();
            if !flushed.is_empty() && waker.epoch() == seen {
                WAKELESS_FLUSHES.fetch_add(1, Ordering::SeqCst);
            }
            for (to, reply, response) in flushed {
                assert_eq!((to, reply), (client, answered), "responses leave in order");
                assert!(matches!(response, Response::Ok), "{response:?}");
                answered += 1;
            }
            if answered == REQUESTS {
                break;
            }
            let batch: Vec<_> = (submitted..REQUESTS.min(answered + LIMIT))
                .map(|reply| (client, reply, update("edges", reply)))
                .collect();
            if !batch.is_empty() {
                submitted += batch.len() as u64;
                core.submit_batch(batch);
                continue;
            }
            waker.wait(seen);
        }
        core.close();
        stub.join().unwrap();
    });
    assert!(
        OFF_THREAD_WAKES.load(Ordering::SeqCst) > 0,
        "no schedule had worker 1 deposit last"
    );
    assert!(
        WAKELESS_FLUSHES.load(Ordering::SeqCst) > 0,
        "no schedule had the reactor deposit last"
    );
}

/// Race 6: accept backoff, reactor-style. A transient accept failure mutes the
/// listener's readiness interest — so a connection arriving during the backoff
/// produces *no* event — and a wait timeout re-arms it. Invariant: the muted
/// window never strands the connection (the re-arm re-checks the accept queue,
/// exactly like the real reactor's level-triggered re-registration), under every
/// schedule including stop-during-backoff.
#[test]
fn accept_backoff_rearms_without_stranding_connections() {
    explore("accept_backoff", small_config(), || {
        use std::time::Duration;

        let waker = Arc::new(Doorbell::new());
        let accept_queue: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));

        // A connection arrives while the listener is muted: it goes into the
        // kernel queue but rings nothing (interest is suppressed).
        let client = {
            let accept_queue = Arc::clone(&accept_queue);
            thread::spawn(move || {
                accept_queue.lock().expect("accept queue poisoned").push(7);
            })
        };
        let stopper = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            thread::spawn(move || {
                stop.store(true, Ordering::SeqCst);
                waker.ring();
            })
        };

        // The reactor, starting in the muted state (a transient accept failure
        // just happened): waits with a timeout, re-arms, drains the queue.
        let mut accepted: Vec<u64> = Vec::new();
        let mut muted = true;
        loop {
            let seen = waker.epoch();
            if muted {
                // Under the model, the timeout fires once nothing else runs —
                // "the backoff elapsed".
                let _ = waker.wait_timeout(seen, Duration::from_millis(1));
                muted = false;
                // Re-arm: level-triggered registration re-reports a nonempty
                // accept queue, modeled as an immediate re-check.
                accepted.append(&mut accept_queue.lock().expect("accept queue poisoned"));
                continue;
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            accepted.append(&mut accept_queue.lock().expect("accept queue poisoned"));
            waker.wait(seen);
        }
        client.join().unwrap();
        stopper.join().unwrap();
        // However the schedule fell, nothing is stranded: every connection is
        // either accepted or still visibly queued for the (stopped) kernel to
        // reset — the muted window itself lost nothing.
        let queued = accept_queue.lock().expect("accept queue poisoned").len();
        assert_eq!(
            accepted.len() + queued,
            1,
            "the backoff window lost a connection"
        );
    });
}

/// Race 7's scenario: a durable core on a fresh directory, `workers` stub workers and
/// the real checkpoint thread, checkpointing at every seal so a write is usually in
/// flight when the next epoch is handed over. `commands` are submitted, the log is
/// closed, the workers drain, and `final_checkpoint` asks the thread for the shutdown
/// checkpoint. Returns what a restart on that directory would replay: the bootstrap
/// synthesized from the last committed checkpoint, then the WAL tail past it.
fn recovered_after_shutdown(workers: usize, commands: &[Command]) -> Vec<Command> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kpg-model-handoff-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durability = DurabilityConfig::new(&dir);
    durability.checkpoint_every = 1;

    let core = Arc::new(ServerCore::durable(workers, false, durability.clone()).expect("open"));
    core.model_start_checkpointer();
    let stubs: Vec<_> = (0..workers)
        .map(|worker| {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                let mut installed = HashSet::new();
                core.model_worker_loop(worker, |command| stub_execute(&mut installed, command));
            })
        })
        .collect();
    let (client, _responses) = core.register_client();
    for (reply, command) in commands.iter().enumerate() {
        core.submit(client, reply as u64, command.clone());
    }
    core.close();
    for stub in stubs {
        stub.join().unwrap();
    }
    core.final_checkpoint();
    drop(core);

    let recovered = ServerCore::durable(1, true, durability)
        .expect("reopen")
        .command_log();
    let _ = std::fs::remove_dir_all(&dir);
    recovered
}

fn update(name: &str, value: u64) -> Command {
    Command::Update {
        name: name.to_string(),
        row: Row::from(vec![Value::UInt(value)]),
        diff: 1,
    }
}

fn create(name: &str) -> Command {
    Command::CreateInput {
        name: name.to_string(),
        key_arity: None,
    }
}

/// Race 7a: the last `AdvanceTime`'s hand-off vs `close` + `final_checkpoint`. The
/// deposit that seals epoch 2 sends it while the checkpoint thread may be idle, mid
/// write of epoch 1's checkpoint, or draining; the channel then closes behind it. On
/// every schedule the shutdown checkpoint covers the whole log: recovery is the
/// collapsed state at epoch 2 and an empty WAL tail.
#[test]
fn last_epoch_handoff_vs_final_checkpoint_is_never_lost() {
    explore("handoff_vs_final_checkpoint", small_config(), || {
        let recovered = recovered_after_shutdown(
            1,
            &[
                create("steps"),
                update("steps", 1),
                Command::AdvanceTime { epoch: 1 },
                update("steps", 2),
                Command::AdvanceTime { epoch: 2 },
            ],
        );
        assert_eq!(
            recovered,
            vec![
                create("steps"),
                update("steps", 1),
                update("steps", 2),
                Command::AdvanceTime { epoch: 2 },
            ],
            "the shutdown checkpoint must cover every sealed epoch"
        );
    });
}

/// Race 7b: two workers deposit every command, and whichever deposits last completes
/// it — so consecutive epochs are sealed (and sent) by different threads. The log
/// below only collapses to the expected state if the checkpoint thread applies the
/// epochs in log order: epoch 2 drops and recreates the input epoch 1 filled.
#[test]
fn sealed_epochs_cross_in_log_order_with_two_workers() {
    explore("handoff_log_order", small_config(), || {
        let recovered = recovered_after_shutdown(
            2,
            &[
                create("steps"),
                update("steps", 1),
                Command::AdvanceTime { epoch: 1 },
                Command::Uninstall {
                    name: "steps".to_string(),
                },
                create("steps"),
                update("steps", 2),
                Command::AdvanceTime { epoch: 2 },
                update("steps", 3),
                Command::AdvanceTime { epoch: 3 },
            ],
        );
        assert_eq!(
            recovered,
            vec![
                create("steps"),
                update("steps", 2),
                update("steps", 3),
                Command::AdvanceTime { epoch: 3 },
            ],
            "epochs must be applied in log order"
        );
    });
}

/// An idle turn for [`ServerCore::model_worker_loop_with_idle`]: reports maintenance
/// left for its first `turns` calls, and fails if a second turn begins while `event` —
/// something the worker must yield to — holds. Every call is a scheduling point (it
/// loads the event's flags), so the explorer places the event before, inside and after
/// a turn.
fn idle_turns(turns: usize, event: impl Fn() -> bool, what: &'static str) -> impl FnMut() -> bool {
    let mut taken = 0;
    let mut begun_during_event = 0;
    move || {
        if event() {
            begun_during_event += 1;
            assert!(
                begun_during_event <= 1,
                "{what}: the log is looked at between idle turns, so at most one turn \
                 (the one the look raced) may begin afterwards"
            );
        }
        taken += 1;
        taken <= turns
    }
}

/// One client submits one command to a worker whose idle turns report maintenance left
/// for the first `turns`; the command must be answered in every interleaving (a lost
/// wakeup would leave `recv` waiting forever, which the explorer reports as a
/// deadlock), and once it is appended no second idle turn may begin before it is
/// executed — so the worker neither keeps maintaining nor parks past it.
fn one_command_against_idle_turns(name: &str, turns: usize) {
    explore(name, small_config(), move || {
        let core = Arc::new(ServerCore::new(1));
        let (client, responses) = core.register_client();
        let appended = Arc::new(AtomicBool::new(false));
        let executed = Arc::new(AtomicBool::new(false));

        let worker = {
            let core = Arc::clone(&core);
            let (appended, executed) = (Arc::clone(&appended), Arc::clone(&executed));
            thread::spawn(move || {
                let mut installed = HashSet::new();
                let waiting =
                    || appended.load(Ordering::SeqCst) && !executed.load(Ordering::SeqCst);
                core.model_worker_loop_with_idle(
                    0,
                    |command| {
                        executed.store(true, Ordering::SeqCst);
                        stub_execute(&mut installed, command)
                    },
                    idle_turns(turns, waiting, "appended command"),
                );
            })
        };
        let submitter = {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                core.submit(client, 0, install("q"));
                appended.store(true, Ordering::SeqCst);
            })
        };
        submitter.join().unwrap();
        let (_, response) = responses.recv().expect("the command is answered");
        assert!(matches!(response, Response::Ok), "{response:?}");
        core.close();
        worker.join().unwrap();
    });
}

/// Race 8a: a command appended while the worker is maintaining traces is consumed by
/// the look between turns — no further turn, no park — in every interleaving of the
/// append with the turns.
#[test]
fn command_appended_during_an_idle_turn_is_consumed_without_a_park() {
    one_command_against_idle_turns("append_vs_idle_turn", 3);
}

/// Race 8b: with nothing to maintain, the worker looks, takes its (empty) idle turn and
/// parks on the doorbell snapshot it took before that look — an append whose ring lands
/// anywhere between the look and the park is seen.
#[test]
fn ring_between_the_peek_and_the_park_is_never_lost() {
    one_command_against_idle_turns("ring_vs_peek_then_park", 0);
}

/// Race 8c: `close` while the worker is maintaining traces ends the loop at the next
/// look, though turns remain; a worker that kept maintaining a closed log to the end
/// would hold shutdown hostage to the largest merge in flight.
#[test]
fn close_during_an_idle_turn_exits_the_loop() {
    explore("close_vs_idle_turn", small_config(), || {
        let core = Arc::new(ServerCore::new(1));
        let closed = Arc::new(AtomicBool::new(false));
        let worker = {
            let core = Arc::clone(&core);
            let closed = Arc::clone(&closed);
            let idle = idle_turns(4, move || closed.load(Ordering::SeqCst), "closed log");
            thread::spawn(move || {
                core.model_worker_loop_with_idle(0, |_| Ok(PlanResponse::Done), idle);
            })
        };
        core.close();
        closed.store(true, Ordering::SeqCst);
        worker.join().unwrap();
    });
}

/// The long-exploration sweep for the slow CI lane: the same five scenarios under a
/// much larger schedule budget. `#[ignore]`d by default; run with
/// `cargo test -p kpg_server --features model -- --ignored`.
#[test]
#[ignore = "long exploration sweep; run in the slow CI lane"]
fn long_exploration_sweep() {
    let sweep = Config {
        schedules: 1024,
        exhaustive: Some(8192),
        change_points: 4,
        ..Config::default()
    };
    explore("sweep_arbitration", sweep, || {
        let core = Arc::new(ServerCore::new(1));
        let (client_a, responses_a) = core.register_client();
        let (client_b, responses_b) = core.register_client();
        let worker = {
            let core = Arc::clone(&core);
            thread::spawn(move || {
                let mut installed = HashSet::new();
                core.model_worker_loop(0, |command| stub_execute(&mut installed, command));
            })
        };
        let submit_a = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.submit(client_a, 0, install("q")))
        };
        let submit_b = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.submit(client_b, 0, install("q")))
        };
        submit_a.join().unwrap();
        submit_b.join().unwrap();
        core.disconnect(client_a);
        core.disconnect(client_b);
        core.close();
        worker.join().unwrap();
        let _ = responses_a.try_recv();
        let _ = responses_b.try_recv();
        assert_eq!(core.owner_of("q"), None, "every owner disconnected");
    });
}
