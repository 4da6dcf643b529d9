//! A `v2d-serve` daemon under test and the NDJSON client that loads it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use v2d_obs::Json;

use crate::sys::{self, ChildUsage};

/// How long the client waits for any one response before it declares
/// the daemon hung.  Far above the slowest cold request (≈0.2 s).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Owns a spawned daemon: one not shut down in protocol (an earlier
/// error) must still not outlive the benchmark.
struct KillOnDrop(Option<Child>);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running daemon with one open session.
pub struct Daemon {
    child: KillOnDrop,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    /// Spawn → session connected.
    pub startup_s: f64,
}

impl Daemon {
    /// Start `v2d-serve --socket <dir>/sock --workers 2` and connect.
    /// The daemon's scratch (per-job checkpoint stores) is pointed into
    /// `dir` through `TMPDIR`, so nothing is written outside the tree.
    pub fn spawn(serve_bin: &Path, dir: &Path) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        let sock = dir.join("sock");
        let _ = std::fs::remove_file(&sock);
        let t0 = Instant::now();
        let spawned = Command::new(serve_bin)
            .arg("--socket")
            .arg(&sock)
            .args(["--workers", "2"])
            .env("TMPDIR", dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let child = KillOnDrop(Some(spawned));
        // The daemon binds the socket as its first act; poll until then.
        let stream = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(e) if t0.elapsed() > Duration::from_secs(10) => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Daemon { child, writer: stream, reader, startup_s: t0.elapsed().as_secs_f64() })
    }

    pub fn pid(&self) -> u32 {
        self.child.0.as_ref().map_or(0, Child::id)
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// The next response line, raw (without the newline).
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the session",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// One request, one response (nothing else outstanding).
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv_line()
    }

    /// The daemon's live counters (`status`), as name → value.
    pub fn status(&mut self) -> std::io::Result<Json> {
        let line = self.round_trip(&status_line("status"))?;
        Json::parse(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Ask the daemon to drain and exit, then reap it.
    pub fn shutdown(mut self) -> std::io::Result<ChildUsage> {
        let bye = self.round_trip(&shutdown_line("bye"))?;
        let child = self.child.0.take().expect("shutdown consumes the daemon");
        let usage = sys::reap(child);
        let acked = Json::parse(&bye).ok().and_then(|j| Some(j.get("resp")?.as_str()? == "bye"));
        Ok(ChildUsage { exit_ok: usage.exit_ok && acked == Some(true), ..usage })
    }
}

/// One fault event riding on a submit.
pub struct Fault {
    pub step: u64,
    pub rank: u64,
    pub kind: &'static str,
}

pub fn submit_line(id: &str, deck: &str, fault: Option<&Fault>) -> String {
    let mut fields = vec![
        ("req", Json::Str("submit".into())),
        ("id", Json::Str(id.to_string())),
        ("deck", Json::Str(deck.to_string())),
    ];
    if let Some(f) = fault {
        fields.push((
            "faults",
            Json::Arr(vec![Json::obj(vec![
                ("step", Json::Num(f.step as f64)),
                ("rank", Json::Num(f.rank as f64)),
                ("kind", Json::Str(f.kind.to_string())),
            ])]),
        ));
    }
    Json::obj(fields).to_compact()
}

pub fn status_line(id: &str) -> String {
    Json::obj(vec![("req", Json::Str("status".into())), ("id", Json::Str(id.to_string()))])
        .to_compact()
}

fn shutdown_line(id: &str) -> String {
    Json::obj(vec![("req", Json::Str("shutdown".into())), ("id", Json::Str(id.to_string()))])
        .to_compact()
}

/// A counter of a status document (0 when absent).
pub fn counter(status: &Json, name: &str) -> u64 {
    status
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}
