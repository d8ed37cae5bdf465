//! TPC-H-style experiments: Figure 4a/4b/4c and Tables 5 and 6 (E1–E5 in the README's
//! "Substitutions and experiment index").
//!
//! For every implemented query this harness reports:
//! * absolute streaming throughput for (workers=1, batch=1), (1, big) and (max, big) — Fig 4a;
//! * relative throughput as the physical batch size grows — Fig 4b;
//! * relative throughput as workers grow at a fixed batch size — Fig 4c;
//! * streaming update rates with logical batches — Table 5;
//! * single-core elapsed time for one-shot batch evaluation — Table 6.
//!
//! Each measurement is one `Command` stream through `kpg_plan::replay`: the reference
//! relations are loaded and the query's plan installed and settled, then `lineitem`
//! streams in, one `AdvanceTime` per batch. Only the streaming is timed — the stream is
//! built before any clock starts — and the final answer is checked against
//! `baseline::evaluate` before a figure is reported.
//!
//! Run with `cargo run --release -p kpg_bench --bin tpch [--scale 0.5] [--max-workers 2]`.

use kpg_bench::{
    arg_f64, arg_usize, check_answer, fixed, num, replay_steps, seconds, table_row, text, timed,
    Answer, BenchField,
};
use kpg_plan::Command;
use kpg_relational::baseline;
use kpg_relational::data::{generate, Database};
use kpg_relational::plans::{self, IMPLEMENTED};

/// Streams `db`'s lineitems through `query`, `batch` rows per epoch, requires the answer
/// to end on `expected`, and returns the seconds the streaming took.
fn stream(query: u32, db: &Database, expected: &Answer, workers: usize, batch: usize) -> f64 {
    let name = format!("q{query}");
    let mut commands = plans::load_reference(db);
    commands.push(Command::Install {
        name: name.clone(),
        plan: plans::query(query),
        locals: vec![],
    });
    commands.push(Command::AdvanceTime { epoch: 1 });
    let loaded = commands.len();
    for (chunk, epoch) in db.lineitems.chunks(batch.max(1)).zip(2u64..) {
        commands.extend(chunk.iter().map(|l| plans::lineitem_update(l, 1)));
        commands.push(Command::AdvanceTime { epoch });
    }
    commands.push(Command::Query { name: name.clone() });
    let steps = replay_steps(workers, commands);
    let (read, streamed) = steps[loaded..].split_last().expect("the query");
    check_answer(
        &format!("{name}, {workers} workers, batches of {batch}"),
        read,
        expected,
    );
    seconds(streamed)
}

fn main() {
    let scale = arg_f64("--scale", 0.25);
    let max_workers = arg_usize("--max-workers", 2);
    let db = generate(scale, 1);
    let rows = db.lineitems.len();
    println!("# TPC-H-style workload: scale {scale}, {rows} lineitems, queries {IMPLEMENTED:?}");
    let expected: Vec<Answer> = IMPLEMENTED
        .iter()
        .map(|&q| baseline::evaluate(q, &db))
        .collect();
    let queries = || IMPLEMENTED.iter().copied().zip(&expected);
    let rate = |(query, expected): (u32, &Answer), workers: usize, batch: usize| {
        rows as f64 / stream(query, &db, expected, workers, batch)
    };
    let big = (rows / 8).max(1);
    let logical = (rows / 10).max(1);
    // One table: its title, the cells' keys as the header, then per query a row of
    // `table`, `query` and `measure`'s cells.
    type Cells = Vec<(&'static str, BenchField)>;
    let table = |title: String, name: &str, measure: &dyn Fn((u32, &Answer)) -> Cells| {
        println!("\n## {title}");
        for (row, query) in queries().enumerate() {
            let mut cells = vec![("table", text(name)), ("query", num(query.0))];
            cells.extend(measure(query));
            if row == 0 {
                let keys: Vec<&str> = cells.iter().map(|(key, _)| *key).collect();
                println!("{}", keys.join("\t"));
            }
            table_row("tpch", &cells);
        }
    };

    let title = format!("Figure 4a: absolute throughput (rows/s), batch 1 and {big}");
    table(title, "fig4a", &|query| {
        vec![
            ("single_rows_per_s", fixed(rate(query, 1, 1), 0)),
            ("batched_rows_per_s", fixed(rate(query, 1, big), 0)),
            ("scaled_rows_per_s", fixed(rate(query, max_workers, big), 0)),
        ]
    });
    let title = "Figure 4b: relative throughput vs physical batch size (worker = 1)";
    table(title.to_string(), "fig4b", &|query| {
        let base = rate(query, 1, 1);
        let relative = |batch: usize| fixed(rate(query, 1, batch) / base, 1);
        let keys = ["b1_x", "b10_x", "b100_x", "b1000_x"];
        keys.into_iter()
            .zip([1, 10, 100, 1000].map(relative))
            .collect()
    });
    let title = format!("Figure 4c: throughput at {max_workers} workers over 1 (batch = {big})");
    table(title, "fig4c", &|query| {
        let relative = rate(query, max_workers, big) / rate(query, 1, big);
        vec![("scaled_x", fixed(relative, 1))]
    });
    let title = format!("Table 5: streaming rates (rows/s) with logical batches of {logical} rows");
    table(title, "table5", &|query| {
        vec![
            ("single_rows_per_s", fixed(rate(query, 1, logical), 0)),
            (
                "scaled_rows_per_s",
                fixed(rate(query, max_workers, logical), 0),
            ),
        ]
    });
    let title = "Table 6: single-core elapsed time (ms), one-shot batch evaluation";
    table(title.to_string(), "table6", &|(query, expected)| {
        let differential = stream(query, &db, expected, 1, rows) * 1e3;
        let (_, reevaluation) = timed(|| baseline::evaluate(query, &db));
        vec![
            ("differential_ms", fixed(differential, 2)),
            (
                "reevaluation_ms",
                fixed(reevaluation.as_secs_f64() * 1e3, 2),
            ),
        ]
    });
}
