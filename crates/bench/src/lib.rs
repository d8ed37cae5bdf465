//! Shared helpers for the benchmark harness binaries.
//!
//! Every binary in this crate regenerates one of the paper's tables or figures (see the
//! experiment index in the README's "Substitutions and experiment index"). The helpers
//! here keep the binaries small: latency recording with complementary-CDF reporting (the
//! paper's preferred presentation for the microbenchmarks), simple wall-clock timing,
//! command-line scale handling, and — for the workload bins, which all run `Command`
//! streams through [`kpg_plan::replay`] — reading a replay back and checking its answers.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use kpg_graph::plans::load_input;
use kpg_plan::{Command, Plan, Response, Row};

/// A `Query`'s answer.
pub type Answer = Vec<(Row, isize)>;

/// One command of a finished replay: what it answered and how long it took.
pub type Step = (Response, Duration);

/// [`kpg_plan::replay`] for streams in which every command must succeed: panics, naming
/// the command, on the first that did not.
pub fn replay_steps(workers: usize, commands: Vec<Command>) -> Vec<Step> {
    let kinds: Vec<&str> = commands.iter().map(Command::kind).collect();
    let outcomes = kpg_plan::replay(workers, commands).outcomes.into_iter();
    let step = |((outcome, elapsed), kind): ((Result<Response, _>, _), _)| match outcome {
        Ok(response) => (response, elapsed),
        Err(error) => panic!("a replayed {kind} failed: {error}"),
    };
    outcomes.zip(kinds).map(step).collect()
}

/// The commands that create and load each named relation ([`load_input`]) and seal
/// epoch 0 — what the batch tables time as building the index.
pub fn load(relations: Vec<(&str, Vec<Row>)>) -> Vec<Command> {
    let inputs = relations
        .into_iter()
        .map(|(name, rows)| load_input(name, rows));
    let sealed = Command::AdvanceTime { epoch: 1 };
    inputs.flatten().chain([sealed]).collect()
}

/// Installs `plan` as `name`, with the inputs in `locals` private to it, and reads it:
/// after a [`load`], a cold evaluation against the loaded arrangements.
pub fn evaluate(name: &str, plan: Plan, locals: &[&str]) -> [Command; 2] {
    let name = name.to_string();
    let install = Command::Install {
        name: name.clone(),
        plan,
        locals: locals.iter().map(|local| local.to_string()).collect(),
    };
    [install, Command::Query { name }]
}

/// The total wall time of `steps`, in seconds.
pub fn seconds(steps: &[Step]) -> f64 {
    steps.iter().map(|(_, elapsed)| elapsed.as_secs_f64()).sum()
}

/// The rows a `Query` step answered. Panics on any other step.
pub fn answer(step: &Step) -> &Answer {
    match &step.0 {
        Response::Rows(rows) => rows,
        other => panic!("expected a query's rows, found {other:?}"),
    }
}

/// Exits non-zero unless `step` is a `Query` that answered exactly `expected`: a bench
/// that times wrong answers measures nothing, so every workload bin checks before it
/// reports.
pub fn check_answer(what: &str, step: &Step, expected: &[(Row, isize)]) {
    let rows = answer(step);
    if rows != expected {
        let differs = rows
            .iter()
            .zip(expected)
            .find(|(row, wanted)| row != wanted);
        let (found, wanted) = (rows.len(), expected.len());
        eprintln!("WRONG ANSWER for {what}: {found} rows, expected {wanted}; first: {differs:?}");
        std::process::exit(1);
    }
}

/// Prints one table row — the cells' values, tab-separated — and the same cells as the
/// row's `BENCH` record, so a table and its machine-readable form cannot drift apart.
pub fn table_row(name: &str, cells: &[(&str, BenchField)]) {
    let value = |(_, cell): &(&str, BenchField)| match cell {
        BenchField::Num(value) | BenchField::Text(value) => value.clone(),
    };
    println!("{}", cells.iter().map(value).collect::<Vec<_>>().join("\t"));
    bench_record(name, cells);
}

/// A numeric [`BenchField`] with `decimals` places.
pub fn fixed(value: f64, decimals: usize) -> BenchField {
    BenchField::Num(format!("{value:.decimals$}"))
}

/// Records latencies and reports them as a complementary CDF, the format of Figures 5
/// and 6 ("fraction of times with latency greater than").
#[derive(Default)]
pub struct LatencyRecorder {
    samples: Vec<Duration>,
}

impl LatencyRecorder {
    /// A new, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: Duration) {
        self.samples.push(sample);
    }

    /// Times `action` and records its duration, returning the action's result.
    pub fn time<T>(&mut self, action: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = action();
        self.record(start.elapsed());
        result
    }

    /// The number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The median latency.
    pub fn median(&self) -> Duration {
        self.quantile(0.5)
    }

    /// The maximum latency.
    pub fn max(&self) -> Duration {
        self.samples.iter().copied().max().unwrap_or_default()
    }

    /// The latency at the given quantile (0.0 ..= 1.0).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let index = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[index]
    }

    /// Prints a complementary CDF as `label, nanoseconds, fraction-greater-than` rows at
    /// a fixed set of quantiles.
    pub fn print_ccdf(&self, label: &str) {
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            println!(
                "{label}\tccdf\tp{:05.1}\t{} ns",
                q * 100.0,
                self.quantile(q).as_nanos()
            );
        }
    }

    /// Prints a one-line summary with median and maximum.
    pub fn print_summary(&self, label: &str) {
        println!(
            "{label}\tmedian {:.3} ms\tmax {:.3} ms\tsamples {}",
            self.median().as_secs_f64() * 1e3,
            self.max().as_secs_f64() * 1e3,
            self.len()
        );
    }
}

/// Accumulates key/value pairs and prints them as the repo's one-line machine-readable
/// bench shape: `BENCH {"name":...,...}` — a single JSON object per line, grep-able by
/// CI and analysis scripts without a JSON dependency in-tree.
pub struct BenchReport {
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// Starts a report for the bench called `name`.
    pub fn new(name: &str) -> Self {
        BenchReport {
            fields: vec![("name".to_string(), json_string(name))],
        }
    }

    /// Adds a numeric field (rendered bare, so the value must be a number).
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a string field (rendered quoted).
    pub fn text(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), json_string(value)));
        self
    }

    /// Renders the JSON object (everything after the `BENCH ` prefix).
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("{}:{value}", json_string(key)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Prints the `BENCH {...}` line.
    pub fn emit(self) {
        println!("BENCH {}", self.render());
    }
}

/// One field value of a [`bench_record`] line: rendered bare for numbers, quoted for
/// text.
pub enum BenchField {
    /// A numeric field (rendered bare; the value must be valid JSON as-is).
    Num(String),
    /// A string field (rendered as a JSON string).
    Text(String),
}

/// A numeric [`BenchField`].
pub fn num(value: impl std::fmt::Display) -> BenchField {
    BenchField::Num(value.to_string())
}

/// A string [`BenchField`].
pub fn text(value: impl Into<String>) -> BenchField {
    BenchField::Text(value.into())
}

/// Builds a [`BenchReport`] from a flat field list. Field order is preserved.
pub fn bench_report(name: &str, fields: &[(&str, BenchField)]) -> BenchReport {
    let mut report = BenchReport::new(name);
    for (key, value) in fields {
        report = match value {
            BenchField::Num(value) => report.field(key, value),
            BenchField::Text(value) => report.text(key, value),
        };
    }
    report
}

/// Emits one `BENCH {...}` line in a single call: the shared shorthand for binaries
/// whose emission is a flat name-plus-fields record (which is all of them).
pub fn bench_record(name: &str, fields: &[(&str, BenchField)]) {
    bench_report(name, fields).emit();
}

/// Persists rendered [`BenchReport`]s as a JSON array, one record per line: the repo-root
/// `BENCH_<name>.json` convention that keeps a bench's trajectory in git.
pub fn persist_records(path: &str, records: &[String]) {
    let body = records.join(",\n  ");
    std::fs::write(path, format!("[\n  {body}\n]\n")).expect("persist BENCH records");
    println!("wrote {} BENCH records to {path}", records.len());
}

/// Escapes a string as a JSON string literal (RFC 8259: quote, backslash, and control
/// characters; everything else passes through verbatim).
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(action: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = action();
    (result, start.elapsed())
}

/// Reads a `--scale`-style floating point argument from the command line, with a default.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            if let Some(value) = args.next() {
                return value.parse().unwrap_or(default);
            }
        }
    }
    default
}

/// Reads a `--workers`-style integer argument from the command line, with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_f64(name, default as f64) as usize
}

/// Reads a string argument (e.g. `--mode homogeneous`), with a default.
pub fn arg_string(name: &str, default: &str) -> String {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            if let Some(value) = args.next() {
                return value;
            }
        }
    }
    default.to_string()
}

/// True iff the bare flag `name` (e.g. `--reduce-bulk`) appears on the command line.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|arg| arg == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_quantiles_are_ordered() {
        let mut recorder = LatencyRecorder::new();
        for ms in [5u64, 1, 3, 2, 4] {
            recorder.record(Duration::from_millis(ms));
        }
        assert_eq!(recorder.len(), 5);
        assert_eq!(recorder.median(), Duration::from_millis(3));
        assert_eq!(recorder.max(), Duration::from_millis(5));
        assert!(recorder.quantile(0.0) <= recorder.quantile(1.0));
    }

    #[test]
    fn timed_reports_elapsed() {
        let (value, elapsed) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn bench_report_shape_is_one_json_object() {
        let report = BenchReport::new("churn")
            .field("queries", 10)
            .text("mode", "mixed");
        assert_eq!(
            report.render(),
            "{\"name\":\"churn\",\"queries\":10,\"mode\":\"mixed\"}"
        );
    }

    #[test]
    fn bench_record_builds_the_same_shape() {
        let report = bench_report("churn", &[("queries", num(10)), ("mode", text("mixed"))]);
        assert_eq!(
            report.render(),
            "{\"name\":\"churn\",\"queries\":10,\"mode\":\"mixed\"}"
        );
    }

    #[test]
    fn bench_report_escapes_strings_as_json() {
        let report = BenchReport::new("churn").text("note", "a\"b\\c\nd\u{1}e");
        assert_eq!(
            report.render(),
            "{\"name\":\"churn\",\"note\":\"a\\\"b\\\\c\\nd\\u0001e\"}"
        );
    }
}
