//! [`replay()`]: one recorded [`Command`] stream run through [`Manager::execute`] the way
//! `kpg_server`'s workers run a live one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kpg_dataflow::{execute, Config};

use crate::manager::{Command, Manager, PlanError, Response};
use crate::plan::ArrangeKey;
use crate::value::Row;

/// What [`replay`] observed.
pub struct Replay {
    /// Per command, in stream order: its outcome — a `Query`'s rows are the union of
    /// every worker's shard with multiplicities summed, sorted by row; any other
    /// outcome is worker 0's, which every worker shares — and its wall time on worker 0.
    pub outcomes: Vec<(Result<Response, PlanError>, Duration)>,
    /// Updates held per registry arrangement — input bases and memoized sub-plans —
    /// when the stream ended, summed across workers (the paper's memory-footprint
    /// proxy), in key order.
    pub arrangements: Vec<(ArrangeKey, usize)>,
    /// Updates held per installed query's answer when the stream ended, summed across
    /// workers, by query name.
    pub answers: Vec<(String, usize)>,
}

/// Runs `commands` on `workers` workers, each executing the whole stream against a
/// [`Manager`] of its own exactly as a server worker does (worker 0 introduces every
/// update and the exchanges place it; [`Manager::execute`] settles ahead of a `Query`, so one issued after an `Install`
/// pays for the install catching up). `replay` adds only a settle after every
/// `AdvanceTime` — where the time is booked, not a correctness rule: an epoch's time is
/// then the time to bring every standing query up to date with it. Failed commands are
/// part of a replay: they are reported, and leave the managers unchanged.
pub fn replay(workers: usize, commands: Vec<Command>) -> Replay {
    let mut per_worker = execute(Config::new(workers), move |worker| {
        let mut manager = Manager::new();
        let outcomes: Vec<_> = commands
            .iter()
            .map(|command| {
                let start = Instant::now();
                let outcome = manager.execute(worker, command.clone());
                if matches!(command, Command::AdvanceTime { .. }) {
                    manager.settle(worker);
                }
                (outcome, start.elapsed())
            })
            .collect();
        let arrangements = manager.arrangements();
        let arrangements = arrangements.map(|(key, trace)| (key.clone(), trace.size()));
        let answers = manager.installed_names().into_iter().map(|name| {
            let size = manager.answer(&name).expect("an installed query").size();
            (name, size)
        });
        (outcomes, arrangements.collect(), answers.collect())
    });

    // Every worker ran the same stream, so every registry lists the same entries.
    let (mut outcomes, mut arrangements, mut answers): (_, Vec<_>, Vec<_>) = per_worker.remove(0);
    for (shards, their_arrangements, their_answers) in per_worker {
        for ((outcome, _), (shard, _)) in outcomes.iter_mut().zip(shards) {
            if let (Ok(Response::Rows(rows)), Ok(Response::Rows(shard))) = (outcome, shard) {
                let mut merged: BTreeMap<Row, isize> = std::mem::take(rows).into_iter().collect();
                for (row, diff) in shard {
                    *merged.entry(row).or_insert(0) += diff;
                }
                rows.extend(merged.into_iter().filter(|(_, diff)| *diff != 0));
            }
        }
        for ((_, size), (_, theirs)) in arrangements.iter_mut().zip(their_arrangements) {
            *size += theirs;
        }
        for ((_, size), (_, theirs)) in answers.iter_mut().zip(their_answers) {
            *size += theirs;
        }
    }
    Replay {
        outcomes,
        arrangements,
        answers,
    }
}
