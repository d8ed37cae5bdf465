//! The standalone network query server.
//!
//! ```console
//! $ cargo run --release -p kpg_server --bin kpg_server -- \
//!       --addr 127.0.0.1:6464 --workers 2 --durable-dir /var/lib/kpg
//! ```
//!
//! Clients speak the framed `kpg_wire` protocol (see the README's "Network protocol"
//! section), most conveniently through `kpg_server::Client`. Without `--durable-dir`
//! the process serves in memory until killed. With it, every state-defining command
//! is logged and checkpointed under that directory, restarts recover before binding,
//! and SIGINT/SIGTERM trigger a graceful shutdown: drain the engine, flush the WAL,
//! write a final checkpoint, exit 0.

use std::collections::BTreeMap;

use kpg_server::{serve, DurabilityConfig, ServerConfig};
use kpg_wire::DEFAULT_FRAME_LIMIT;

const USAGE: &str = "usage: kpg_server [--addr HOST:PORT] [--workers N] [--frame-limit BYTES] \
     [--durable-dir DIR [--checkpoint-every COMMANDS] [--segment-bytes BYTES]]";

const FLAGS: [&str; 6] = [
    "--addr",
    "--workers",
    "--frame-limit",
    "--durable-dir",
    "--checkpoint-every",
    "--segment-bytes",
];

/// Says what is wrong with the command line and exits non-zero. A server that guessed
/// instead — ignoring a mistyped `--durable_dir` — would serve in memory and lose
/// everything on exit without a word.
fn usage_error(problem: &str) -> ! {
    eprintln!("kpg_server: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The command line as `flag -> value`: every argument must be one of [`FLAGS`]
/// followed by its value, each at most once.
fn parse_args(mut args: impl Iterator<Item = String>) -> BTreeMap<String, String> {
    let mut given = BTreeMap::new();
    while let Some(flag) = args.next() {
        if !FLAGS.contains(&flag.as_str()) {
            usage_error(&format!("unknown argument {flag:?}"));
        }
        let Some(value) = args.next() else {
            usage_error(&format!("{flag} needs a value"));
        };
        if given.insert(flag.clone(), value).is_some() {
            usage_error(&format!("{flag} given twice"));
        }
    }
    given
}

/// The value given for `flag`, parsed, or `default` if it was not given.
fn arg<T: std::str::FromStr>(given: &BTreeMap<String, String>, flag: &str, default: T) -> T {
    match given.get(flag) {
        None => default,
        Some(value) => value
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot read {value:?}"))),
    }
}

/// Set by the signal handler; polled by the main loop. Signal-handler-safe: a relaxed
/// store on an `AtomicBool` is async-signal-safe, and everything else (joining
/// threads, fsyncing the final checkpoint) happens on the main thread afterwards.
static STOP: kpg_sync::atomic::AtomicBool = kpg_sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // `signal(2)` via a raw declaration: the libc symbol is always present on unix
    // and this avoids pulling in a crate for two lines of registration.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, kpg_sync::atomic::Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is declared with the signature libc actually exports on every
    // unix target (handler and return are plain function addresses, passed as
    // `usize`), and `on_signal` is `extern "C" fn(i32)`, the exact type `signal(2)`
    // invokes. The handler body is async-signal-safe: a relaxed atomic store and
    // nothing else — no allocation, locks, or FFI. Registration happens once, on the
    // main thread, before any other thread exists, so there is no data race on the
    // process signal table.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let given = parse_args(std::env::args().skip(1));
    let addr = arg(&given, "--addr", "127.0.0.1:6464".to_string());
    let workers: usize = arg(&given, "--workers", 1);
    let frame_limit: usize = arg(&given, "--frame-limit", DEFAULT_FRAME_LIMIT);
    let durability = given.get("--durable-dir").map(|dir| {
        let mut config = DurabilityConfig::new(dir);
        config.checkpoint_every = arg(&given, "--checkpoint-every", config.checkpoint_every);
        config.segment_bytes = arg(&given, "--segment-bytes", config.segment_bytes);
        config
    });
    let durable = durability.is_some();

    install_signal_handlers();
    let mut server = match serve(
        &addr,
        ServerConfig {
            workers,
            frame_limit,
            durability,
            ..ServerConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("kpg_server: failed to serve on {addr}: {error}");
            std::process::exit(1);
        }
    };
    println!(
        "kpg_server listening on {} ({} workers, {}-byte frame limit{})",
        server.local_addr(),
        workers,
        frame_limit,
        if durable { ", durable" } else { "" }
    );
    while !STOP.load(kpg_sync::atomic::Ordering::Relaxed) {
        kpg_sync::thread::sleep(std::time::Duration::from_millis(25));
    }
    // Graceful shutdown: stop accepting, disconnect clients, drain the engine (which
    // flushes any staged WAL records), then write the final checkpoint. The farewell
    // is best-effort — whoever launched us may have closed our stdout already, and a
    // broken pipe must not turn a clean shutdown into a panic.
    let degraded = server.health().degraded;
    server.shutdown();
    use std::io::Write;
    if degraded {
        // An honest exit: the WAL was failing when we stopped, so the flushed
        // prefix is all we can vouch for (close itself reports what it could not
        // flush). Still a clean exit — degraded mode is a survivable state.
        let _ = writeln!(
            std::io::stdout(),
            "kpg_server stopped while degraded (unflushed tail was never \
             acknowledged as durable)"
        );
    } else {
        let _ = writeln!(std::io::stdout(), "kpg_server stopped");
    }
}
