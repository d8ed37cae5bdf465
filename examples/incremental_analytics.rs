//! Incremental view maintenance of a relational query while the fact table streams in,
//! compared against full re-evaluation (the §6.1 scenario in miniature).
//!
//! The view is TPC-H Q3 as a `Plan`, installed over the loaded reference relations; the
//! whole session is one `Command` stream through `kpg_plan::replay`, the loop a
//! `kpg_server` worker runs.
//!
//! Run with `cargo run --release --example incremental_analytics`.

use shared_arrangements::plan::{replay, Command, Response};
use shared_arrangements::relational::data::generate;
use shared_arrangements::relational::{baseline, plans};

fn main() {
    let mut db = generate(0.5, 7);
    let batches = 10usize;
    let query = 3u32;

    // Reference relations load up front; the standing query is installed over them.
    let mut commands = plans::load_reference(&db);
    commands.push(Command::Install {
        name: "tpch-view".into(),
        plan: plans::query(query),
        locals: vec![],
    });

    // Lineitems stream in batches; the view is read after each batch is sealed, and
    // re-evaluated from scratch over exactly the lineitems streamed so far.
    let lineitems = std::mem::take(&mut db.lineitems);
    let mut reevaluated = Vec::new();
    let chunk = lineitems.len() / batches + 1;
    for (lines, epoch) in lineitems.chunks(chunk).zip(1u64..) {
        commands.extend(lines.iter().map(|line| plans::lineitem_update(line, 1)));
        commands.push(Command::AdvanceTime { epoch });
        commands.push(Command::Query {
            name: "tpch-view".into(),
        });
        db.lineitems.extend(lines.iter().cloned());
        reevaluated.push(baseline::evaluate(query, &db));
    }

    let outcomes = replay(1, commands).outcomes.into_iter();
    let views = outcomes.filter_map(|(outcome, elapsed)| match outcome {
        Ok(Response::Rows(rows)) => Some((rows, elapsed)),
        Ok(_) => None,
        Err(error) => panic!("session command failed: {error}"),
    });
    for (round, ((view, elapsed), reference)) in views.zip(reevaluated).enumerate() {
        assert_eq!(view, reference, "q{query} after batch {round}");
        println!(
            "after batch {round}: {} groups, equal to full re-evaluation (read in {elapsed:?})",
            view.len()
        );
    }
}
