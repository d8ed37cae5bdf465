//! The worker loop: the log consumed in order, one step per command, every result
//! deposited.
//!
//! **Owns** no lock and holds none across a step. **Calls**
//! [`Sequencer::next_command`](crate::sequencer::Sequencer::next_command) (its only
//! caller) and [`ServerCore::deposit`], each of which takes and releases its own lock.
//! There is one loop; only what a step *does* differs between the two entry points.

use kpg_dataflow::Worker;
use kpg_plan::{Command, Manager, PlanError, Response as PlanResponse};

use crate::engine::ServerCore;

impl ServerCore {
    /// One worker's service loop: a private [`Manager`] fed the shared log in order.
    /// Runs until the core is closed. Exposed so embedders (and the arbitration tests)
    /// can drive the engine through [`kpg_dataflow::execute`] themselves.
    pub fn worker_loop(&self, worker: &mut Worker) {
        let mut manager = Manager::new();
        self.run(worker.index(), |command| {
            // Settle before reading: Manager::query answers over everything sealed,
            // i.e. every time strictly before the current epoch, which is exactly what
            // settle brings into the query's result arrangement — so the answer is
            // deterministic (and equal to a single-manager replay). The read applies no
            // time filter: a settled arrangement holds nothing later, and compaction
            // moves sealed times up to the current epoch.
            if matches!(command, Command::Query { .. }) {
                manager.settle(worker);
            }
            manager.execute(worker, command.clone())
        });
    }

    /// [`ServerCore::worker_loop`] with the dataflow swapped out: consumes the log in
    /// order like a real worker, but executes each command through `step` instead of a
    /// [`Manager`]. This is the seam the deterministic-schedule tests drive — only the
    /// (already deterministic) dataflow execution is stubbed.
    #[cfg(feature = "model")]
    pub fn model_worker_loop<F>(&self, worker: usize, step: F)
    where
        F: FnMut(&Command) -> Result<PlanResponse, PlanError>,
    {
        self.run(worker, step);
    }

    fn run(&self, index: usize, mut step: impl FnMut(&Command) -> Result<PlanResponse, PlanError>) {
        let mut next = 0u64;
        while let Some(entry) = self.sequencer.next_command(index, next) {
            next = entry.seq + 1;
            let result = step(&entry.command);
            self.deposit(&entry, result);
        }
    }
}
