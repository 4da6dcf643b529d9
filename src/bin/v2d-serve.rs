//! The resident experiment daemon.
//!
//! Accepts newline-delimited JSON requests — the same deck format the
//! `v2d` CLI reads from `.par` files, inlined as a string — over a Unix
//! socket or stdin, and answers each with one NDJSON response:
//!
//! ```text
//! v2d-serve --socket /tmp/v2d.sock &
//! printf '%s\n' '{"req":"submit","id":"a","deck":"[grid]\nn1 = 16\n…"}' | nc -U /tmp/v2d.sock
//! ```
//!
//! Identical decks submitted concurrently are computed once (every
//! subscriber receives the same bytes); completed decks are answered
//! from the memoized result cache, which is sound because the modeled
//! clocks make every run bit-reproducible.  Each job runs under the
//! checkpoint/rollback supervisor, so decks with injected rank faults
//! come back with a recovery ledger instead of an error.
//!
//! Flags:
//! * `--socket PATH` — listen on a Unix socket (connections are served
//!   one at a time; each connection is one NDJSON session);
//! * `--stdio` — single session on stdin/stdout (the default);
//! * `--workers N` — worker threads in the job pool (default 2);
//! * `--cache N` — result-cache capacity in entries (default 64).
//!
//! A malformed command line prints one usage line and exits 2; a
//! socket path that cannot be bound prints one line and exits 1.
//!
//! A `{"req":"shutdown","id":…}` request drains in-flight jobs, answers
//! `bye`, and exits the daemon.  A line that is not a request — bad
//! JSON, a missing member, bytes that are not UTF-8, more than
//! [`MAX_LINE_BYTES`] bytes — is answered with one
//! `{"resp":"error","id":"",…}` line and the session continues.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Mutex};

use v2d_serve::{parse_request, Handled, Request, Response, ServeOpts, Service};

/// The session's output, shared with the threads that forward results
/// of jobs still in flight.
type Writer = Arc<Mutex<Box<dyn Write + Send>>>;

/// The longest request line a session reads, its `\n` excluded: a
/// client cannot grow the daemon's memory by never sending `\n`.
const MAX_LINE_BYTES: usize = 1 << 20;

fn usage() -> ! {
    eprintln!("usage: v2d-serve [--socket PATH | --stdio] [--workers N] [--cache N]");
    std::process::exit(2);
}

/// The non-negative integer value of a flag, or the usage exit.
fn count(value: Option<String>) -> usize {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let mut socket: Option<String> = None;
    let mut opts = ServeOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            "--stdio" => socket = None,
            "--workers" => opts.workers = count(args.next()),
            "--cache" => opts.result_cache_cap = count(args.next()),
            _ => usage(),
        }
    }

    let svc = Service::new(opts);
    match socket {
        None => {
            let stdout: Writer = Arc::new(Mutex::new(Box::new(std::io::stdout())));
            let bye = session(&svc, BufReader::new(std::io::stdin()), &stdout);
            finish(svc, bye);
        }
        Some(path) => serve_socket(svc, &path),
    }
}

/// Accept loop: one NDJSON session per connection, sequentially — the
/// service itself multiplexes jobs, so a single protocol thread keeps
/// response interleaving simple and loses no compute parallelism.
fn serve_socket(svc: Service, path: &str) {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path).unwrap_or_else(|e| {
        eprintln!("v2d-serve: cannot bind {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("v2d-serve: listening on {path}");
    for conn in listener.incoming() {
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                eprintln!("v2d-serve: accept failed: {e}");
                continue;
            }
        };
        let write_half = match conn.try_clone() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("v2d-serve: cannot clone the connection for writing: {e}");
                continue;
            }
        };
        let writer: Writer = Arc::new(Mutex::new(Box::new(write_half)));
        let bye = session(&svc, BufReader::new(conn), &writer);
        if bye {
            finish(svc, true);
            let _ = std::fs::remove_file(path);
            return;
        }
    }
}

/// Drive one NDJSON session; returns true when the client asked the
/// daemon to shut down.  Lines are read as bytes into one reused
/// buffer, at most [`MAX_LINE_BYTES`] of them, so a line that is not
/// UTF-8 or too long is answered with an `error` and the session goes on.
fn session<R: BufRead>(svc: &Service, mut reader: R, writer: &Writer) -> bool {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) => return false,
            Ok(n) if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                let what = format!("request line longer than {MAX_LINE_BYTES} bytes");
                emit(writer, &Response::Error { id: String::new(), what });
                // Drop the rest of the line without buffering it; a read
                // error here shows again on the next line.
                let _ = reader.skip_until(b'\n');
                continue;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("v2d-serve: read failed: {e}");
                return false;
            }
        }
        // Drop the terminator as `BufRead::lines` does: `\n`, or `\r\n`.
        let line = buf.strip_suffix(b"\n").map_or(&buf[..], |l| l.strip_suffix(b"\r").unwrap_or(l));
        let Ok(line) = std::str::from_utf8(line) else {
            let what = "request line is not valid UTF-8".to_string();
            emit(writer, &Response::Error { id: String::new(), what });
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(what) => {
                emit(writer, &Response::Error { id: String::new(), what });
                continue;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown { .. });
        match svc.handle(req) {
            Handled::Now(resp) if is_shutdown => {
                // Drain before acknowledging: `bye` promises every
                // admitted job was answered.
                svc.drain();
                emit(writer, &resp);
                return true;
            }
            Handled::Now(resp) => emit(writer, &resp),
            Handled::Later(rx) => {
                // The job answers on its own schedule; forward from a
                // detached thread so the session keeps accepting.
                let writer = Arc::clone(writer);
                std::thread::spawn(move || {
                    if let Ok(resp) = rx.recv() {
                        emit(&writer, &resp);
                    }
                });
            }
        }
    }
}

/// One response is one `write_all` of its line and newline together:
/// two writes would be two syscalls, each able to wake the client.
fn emit(writer: &Writer, resp: &Response) {
    let mut line = resp.to_line();
    line.push('\n');
    let mut w = writer.lock().unwrap();
    if w.write_all(line.as_bytes()).and_then(|_| w.flush()).is_err() {
        eprintln!("v2d-serve: client went away before its response");
    }
}

fn finish(svc: Service, bye: bool) {
    if bye {
        eprintln!("v2d-serve: drained, shutting down");
    }
    svc.shutdown();
}
