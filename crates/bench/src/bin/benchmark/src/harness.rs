//! The harness around the program under test: building and spawning the real
//! `kpg_server` as a child process, scratch directories, and the framed connection.
//!
//! Everything here cleans up on every exit path, including a panic: the child is
//! killed and waited for, and scratch directories are removed, from `Drop`.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

use kpg_plan::Command;
use kpg_sync::atomic::{AtomicU64, Ordering};
use kpg_wire::{read_frame, write_frame, Frame, Response, WireCodec, DEFAULT_FRAME_LIMIT};

use crate::spans::{SpanId, Tracer};

/// Errors of the harness itself (not of an operation under test): fatal to the run.
pub type Res<T> = Result<T, String>;

/// No single request, connect or start-up may take longer than this.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Never more unanswered frames than this on a connection. The server stops reading
/// a connection past `kpg_server::PIPELINE_DEPTH` (1024) unanswered commands; half of
/// that leaves room for what is already in the socket buffers.
pub const MAX_UNANSWERED: usize = 512;

/// Linux reports process CPU time in `/proc/<pid>/stat` in ticks of 1/100 s (`USER_HZ`
/// is 100 on every Linux ABI).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The directory holding this executable: `<target>/release`.
fn exe_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "this executable has no parent directory".to_string())
}

/// The repo root: four levels above this package (`crates/bench/src/bin/benchmark`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// Builds the program under test from the repo's own manifest (so it gets the repo's
/// own release profile) and returns the path of `kpg_server`, which Cargo places
/// beside this executable because both builds share one target directory.
pub fn build_server() -> Res<PathBuf> {
    let dir = exe_dir()?;
    let manifest = repo_root().join("Cargo.toml");
    if !manifest.is_file() {
        return Err(format!(
            "the repo manifest {} is missing: the benchmark must run inside a checkout",
            manifest.display()
        ));
    }
    // `<target>/release` -> `<target>`: build into the directory this executable
    // came from, whatever CARGO_TARGET_DIR says now.
    let target = dir
        .parent()
        .ok_or_else(|| "this executable is not in a <target>/release directory".to_string())?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Process::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "kpg_server",
        ])
        .args(["--bin", "kpg_server", "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build kpg_server: {e}"))?;
    if !status.success() {
        return Err(format!("building kpg_server failed ({status})"));
    }
    let server = dir.join("kpg_server");
    if !server.is_file() {
        return Err(format!(
            "{} is missing after a successful build; run \
             `cargo build --release --offline -p kpg_server` in the repo root",
            server.display()
        ));
    }
    Ok(server)
}

/// A directory under `<target>/benchmark_tmp`, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Res<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let root = exe_dir()?.join("../benchmark_tmp");
        let path = root.join(format!(
            "{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes scratch directories left behind by benchmark processes that no longer
/// exist: one killed by a signal cannot run its destructors.
pub fn remove_stale_scratch() {
    let Ok(dir) = exe_dir() else { return };
    let Ok(entries) = std::fs::read_dir(dir.join("../benchmark_tmp")) else {
        return;
    };
    for entry in entries.flatten() {
        let owner = entry
            .file_name()
            .to_str()
            .and_then(|name| name.split('-').next()?.parse::<u32>().ok());
        if let Some(pid) = owner {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Where traced runs leave their span files: `<target>/benchmark_out`.
pub fn out_dir() -> Res<PathBuf> {
    let path = exe_dir()?.join("../benchmark_out");
    std::fs::create_dir_all(&path)
        .map_err(|e| format!("cannot create output directory {}: {e}", path.display()))?;
    Ok(path)
}

/// The child `kpg_server --addr 127.0.0.1:0 --workers 1`. Killed and reaped on drop.
pub struct ServerChild {
    child: Child,
    addr: SocketAddr,
    /// Holds the child's redirected stdout and stderr.
    logs: Scratch,
}

impl ServerChild {
    /// Spawns the server and waits for its `kpg_server listening on <addr>` line. A
    /// durable server recovers before it listens, so for one this includes recovery.
    pub fn spawn(exe: &Path, durable_dir: Option<&Path>) -> Res<ServerChild> {
        let logs = Scratch::new("server-logs")?;
        let stdout_path = logs.path().join("stdout");
        let create = |path: &Path| {
            std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))
        };
        let mut process = Process::new(exe);
        process
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(create(&stdout_path)?)
            .stderr(create(&logs.path().join("stderr"))?);
        if let Some(dir) = durable_dir {
            process.arg("--durable-dir").arg(dir);
        }
        let child = process
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        // From here on the guard owns the child: any early return kills it.
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            logs,
        };
        // The listening line is polled from the redirected file, not read from a
        // pipe: a blocking pipe read has no timeout, and a hung child must not hang
        // the benchmark.
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(&stdout_path).unwrap_or_default();
            if let Some((line, _)) = text.split_once('\n') {
                server.addr = line
                    .strip_prefix("kpg_server listening on ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|addr| addr.parse().ok())
                    .ok_or_else(|| format!("unexpected start-up line from kpg_server: {line:?}"))?;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "kpg_server exited during start-up ({status}): {}",
                    server.stderr_tail()
                ));
            }
            if Instant::now() > deadline {
                return Err("kpg_server did not print its listening line within 60 s".to_string());
            }
            kpg_sync::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.logs.path().join("stderr")).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(5).collect();
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }

    fn proc_file(&self, name: &str) -> Res<String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// The child's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Res<f64> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in the child's /proc status".to_string())
    }

    /// CPU seconds (user + system, all threads) the child has used so far.
    pub fn cpu_seconds(&self) -> Res<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime are the 14th
        // and 15th fields of the line, so the 12th and 13th after the ") ".
        let after = stat
            .rsplit_once(") ")
            .map(|(_, rest)| rest)
            .ok_or_else(|| "malformed /proc stat line".to_string())?;
        let mut fields = after.split_whitespace().skip(11);
        let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
        match (tick(), tick()) {
            (Some(utime), Some(stime)) => Ok((utime + stime) / CLOCK_TICKS_PER_S),
            _ => Err("no utime/stime in the child's /proc stat".to_string()),
        }
    }

    /// `kill -9` and reap: the crash the durable workload recovers from. Also what
    /// drop does.
    pub fn crash(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.crash();
    }
}

/// One framed connection. Frames are staged into a buffer with the public
/// `write_frame` and sent with one `write_all`, so a pipelined batch is one syscall;
/// responses are read with the public `read_frame` through a buffered reader.
pub struct Conn {
    stream: TcpStream,
    reader: ConnReader,
    staged: Vec<u8>,
}

/// The receiving half; can be moved to a second thread for open-loop phases.
pub struct ConnReader {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)
            .map_err(|e| format!("connection to {addr} refused: {e}"))?;
        let configure = |stream: &TcpStream| -> std::io::Result<()> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            stream.set_write_timeout(Some(REQUEST_TIMEOUT))
        };
        configure(&stream).map_err(|e| format!("cannot configure the socket: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Conn {
            stream,
            reader: ConnReader {
                reader: BufReader::with_capacity(64 << 10, read_half),
            },
            staged: Vec::with_capacity(16 << 10),
        })
    }

    /// Encodes one command into the send buffer.
    pub fn stage(&mut self, command: &Command) {
        write_frame(&mut self.staged, &command.encode()).expect("writing to a Vec cannot fail");
    }

    /// Sends everything staged.
    pub fn flush(&mut self) -> Res<()> {
        let result = self.stream.write_all(&self.staged);
        self.staged.clear();
        result.map_err(|e| format!("send failed: {e}"))
    }

    pub fn recv(&mut self) -> Res<Response> {
        self.reader.recv()
    }

    pub fn reader(&mut self) -> &mut ConnReader {
        &mut self.reader
    }

    /// Like [`Conn::recv`], with the wait and the decode recorded as separate spans.
    pub fn recv_traced(&mut self, tracer: &mut Tracer, parent: SpanId, op: u64) -> Res<Response> {
        self.reader.recv_traced(tracer, parent, op)
    }

    /// One strict round trip.
    pub fn call(&mut self, command: &Command) -> Res<Response> {
        self.stage(command);
        self.flush()?;
        self.recv()
    }

    /// Sends `commands` pipelined, never more than [`MAX_UNANSWERED`] unanswered, and
    /// requires `Ok` for each.
    pub fn run_all_ok(&mut self, commands: impl IntoIterator<Item = Command>) -> Res<usize> {
        const CHUNK: usize = MAX_UNANSWERED / 2;
        let mut unanswered = 0;
        let mut total = 0;
        let mut in_chunk = 0;
        for command in commands {
            self.stage(&command);
            in_chunk += 1;
            total += 1;
            if in_chunk == CHUNK {
                // Two chunks in flight: the server works on one while the next is
                // encoded and sent.
                while unanswered > CHUNK {
                    self.expect_ok()?;
                    unanswered -= 1;
                }
                self.flush()?;
                unanswered += in_chunk;
                in_chunk = 0;
            }
        }
        self.flush()?;
        unanswered += in_chunk;
        for _ in 0..unanswered {
            self.expect_ok()?;
        }
        Ok(total)
    }

    pub fn expect_ok(&mut self) -> Res<()> {
        match self.recv()? {
            Response::Ok => Ok(()),
            other => Err(format!("expected Ok, got {}", describe(&other))),
        }
    }

    /// Takes the receiving half for a reader thread; give it back with
    /// [`Conn::put_reader`].
    pub fn take_reader(&mut self) -> Res<ConnReader> {
        let replacement = self
            .stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(std::mem::replace(
            &mut self.reader,
            ConnReader {
                reader: BufReader::with_capacity(0, replacement),
            },
        ))
    }

    pub fn put_reader(&mut self, reader: ConnReader) {
        self.reader = reader;
    }
}

impl ConnReader {
    fn frame(&mut self) -> Res<Vec<u8>> {
        match read_frame(&mut self.reader, DEFAULT_FRAME_LIMIT) {
            Ok(Some(Frame::Payload(payload))) => Ok(payload),
            Ok(Some(Frame::TooLarge(length))) => {
                Err(format!("a {length}-byte response exceeds the frame limit"))
            }
            Ok(None) => Err("the server closed the connection".to_string()),
            Err(e) => Err(format!("receive failed or timed out: {e}")),
        }
    }

    pub fn recv(&mut self) -> Res<Response> {
        let payload = self.frame()?;
        Response::decode(&payload).map_err(|e| format!("undecodable response: {e}"))
    }

    pub fn recv_traced(&mut self, tracer: &mut Tracer, parent: SpanId, op: u64) -> Res<Response> {
        let wait = tracer.begin("gen.await_response", parent, op);
        let payload = self.frame();
        tracer.end(wait);
        let payload = payload?;
        let decode = tracer.begin("gen.decode", parent, op);
        let response = Response::decode(&payload);
        tracer.end(decode);
        response.map_err(|e| format!("undecodable response: {e}"))
    }
}

/// A short rendering of a response for error messages.
pub fn describe(response: &Response) -> String {
    match response {
        Response::Ok => "Ok".to_string(),
        Response::PlanError { code, message } => format!("PlanError[{code}]: {message}"),
        Response::QueryResults { rows, .. } => format!("QueryResults({} rows)", rows.len()),
        Response::WireError { message } => format!("WireError: {message}"),
    }
}
