//! §6.1's claim, asserted: every TPC-H plan is *maintained* as `lineitem` streams — in
//! batches, with retractions — and after every epoch its answer equals a from-scratch
//! re-evaluation over exactly the rows live at that epoch, on one worker and on two.

use kpg_plan::{replay, Command, Response};
use kpg_relational::baseline;
use kpg_relational::data::generate;
use kpg_relational::plans::{self, IMPLEMENTED};

const BATCHES: usize = 12;
/// Batches that, besides inserting their own rows, retract every third row of the
/// batch two before them.
const RETRACTING: [usize; 3] = [3, 7, 10];

#[test]
fn plans_follow_a_batched_retracting_stream_like_reevaluation() {
    let mut db = generate(0.5, 17);
    let stream = std::mem::take(&mut db.lineitems);
    let batches: Vec<_> = stream.chunks(stream.len() / BATCHES).collect();
    assert!(batches.len() >= BATCHES);

    // All eight queries stand side by side over the same six inputs, installed before
    // the first lineitem arrives.
    let mut commands = plans::load_reference(&db);
    commands.extend(IMPLEMENTED.iter().map(|&number| Command::Install {
        name: format!("q{number}"),
        plan: plans::query(number),
        locals: vec![],
    }));
    // The answers expected after each epoch, in the order the queries are posed.
    let mut expected = Vec::new();
    for (index, batch) in batches.iter().enumerate() {
        commands.extend(batch.iter().map(|l| plans::lineitem_update(l, 1)));
        db.lineitems.extend(batch.iter().cloned());
        if RETRACTING.contains(&index) {
            for gone in batches[index - 2].iter().step_by(3) {
                commands.push(plans::lineitem_update(gone, -1));
                let at = db.lineitems.iter().position(|l| l == gone);
                db.lineitems.swap_remove(at.expect("retracting a live row"));
            }
        }
        commands.push(Command::AdvanceTime {
            epoch: index as u64 + 1,
        });
        for &number in IMPLEMENTED {
            let name = format!("q{number}");
            commands.push(Command::Query { name });
            expected.push((number, index, baseline::evaluate(number, &db)));
        }
    }
    let last_epoch = expected.iter().rev().take(IMPLEMENTED.len());
    assert!(
        last_epoch.clone().all(|(_, _, rows)| !rows.is_empty()),
        "the stream leaves every query with an answer"
    );

    for workers in [1, 2] {
        let replayed = replay(workers, commands.clone());
        let mut answers = Vec::new();
        for (outcome, _) in replayed.outcomes {
            match outcome.expect("every command of the stream succeeds") {
                Response::Rows(rows) => answers.push(rows),
                _ => continue,
            }
        }
        assert_eq!(answers.len(), expected.len());
        for (answer, (number, epoch, expected)) in answers.iter().zip(&expected) {
            assert_eq!(
                answer, expected,
                "q{number} after batch {epoch} on {workers} worker(s)"
            );
        }
    }
}
