//! [`replay()`]: one recorded [`Command`] stream run through [`Manager::execute`] the way
//! `kpg_server`'s workers run a live one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kpg_dataflow::{execute, Config};

use crate::manager::{Command, Manager, PlanError, Response};
use crate::value::Row;

/// What [`replay`] observed.
pub struct Replay {
    /// Per command, in stream order: its outcome — a `Query`'s rows are the union of
    /// every worker's shard with multiplicities summed, sorted by row; any other
    /// outcome is worker 0's, which every worker shares — and its wall time on worker 0.
    pub outcomes: Vec<(Result<Response, PlanError>, Duration)>,
    /// Updates held per catalog arrangement when the stream ended, summed across
    /// workers (the paper's memory-footprint proxy), sorted by name.
    pub held: Vec<(String, usize)>,
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
        let catalog = manager.catalog();
        let held: Vec<(String, usize)> = catalog
            .names()
            .into_iter()
            .map(|name| {
                let size = catalog.arrangement_size(&name).expect("listed name");
                (name, size)
            })
            .collect();
        (outcomes, held)
    });

    let (mut outcomes, held) = per_worker.remove(0);
    let mut held: BTreeMap<String, usize> = held.into_iter().collect();
    for (shards, sizes) in per_worker {
        for ((outcome, _), (shard, _)) in outcomes.iter_mut().zip(shards) {
            if let (Ok(Response::Rows(rows)), Ok(Response::Rows(shard))) = (outcome, shard) {
                let mut merged: BTreeMap<Row, isize> = std::mem::take(rows).into_iter().collect();
                for (row, diff) in shard {
                    *merged.entry(row).or_insert(0) += diff;
                }
                rows.extend(merged.into_iter().filter(|(_, diff)| *diff != 0));
            }
        }
        for (name, size) in sizes {
            *held.entry(name).or_insert(0) += size;
        }
    }
    Replay {
        outcomes,
        held: held.into_iter().collect(),
    }
}
