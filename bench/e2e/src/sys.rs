//! The few OS facilities the harness needs and `std` does not expose:
//! a child's resource usage, CPU affinity, and `/proc` accounting of a
//! live process.  Declared locally so the harness adds no dependency.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark harness reads /proc and declares 64-bit Linux ABI structs");

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss … nsignals.  `maxrss` is not used: see [`run_to_end`].
    _unused: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 2 * 16 + 14 * 8);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

/// What a finished child cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    pub exit_ok: bool,
    /// User + system CPU seconds.
    pub cpu_s: f64,
}

/// Reap `child` and return its resource usage.  Consumes the handle:
/// after `wait4` the pid is gone and `Child::wait` would fail.
pub fn reap(child: Child) -> ChildUsage {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are valid for writes for the duration of
    // the call and `Rusage` has the layout of the kernel's struct on the
    // targets the `compile_error!` above admits; the pid is a child of
    // this process that nothing else waits on.
    let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    // WIFEXITED && WEXITSTATUS == 0.
    let exit_ok = got == child.id() as i32 && status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    ChildUsage { exit_ok, cpu_s: ru.utime.secs() + ru.stime.secs() }
}

/// This process's CPU seconds (user, sys) and context switches so far.
pub fn self_usage() -> (f64, f64, u64) {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is valid for writes and laid out as the kernel expects.
    unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    (ru.utime.secs(), ru.stime.secs(), (ru.nvcsw + ru.nivcsw) as u64)
}

/// The CPUs the calling thread may run on, as a bit mask (first 64).
pub fn affinity() -> u64 {
    let mut mask = 0u64;
    // SAFETY: `mask` is 8 writable bytes and the size passed says so.
    unsafe { sched_getaffinity(0, 8, &mut mask) };
    mask
}

/// Restrict the calling thread (and every child it spawns afterwards)
/// to the CPUs in `mask`.  Returns false if the kernel refused.
pub fn set_affinity(mask: u64) -> bool {
    // SAFETY: `mask` is 8 readable bytes and the size passed says so.
    unsafe { sched_setaffinity(0, 8, &mask) == 0 }
}

/// Restrict the calling thread, and every thread and child it starts
/// afterwards, to the highest CPU it is allowed on.  Returns the mask it
/// had, for [`set_affinity`] to restore.
///
/// The whole benchmark runs pinned.  The event-driven rank scheduler
/// runs one rank at a time and a closed-loop client waits for its
/// daemon, so one CPU loses little parallelism — but on a two-core VM,
/// whether the kernel wakes the next thread on the same core or on the
/// other one changes the host time of a multi-rank run or a request
/// round trip by a factor of two to four, from one launch to the next.
/// Pinning takes that coin toss out of the timings.
pub fn pin_to_one_cpu() -> u64 {
    let before = affinity();
    if before != 0 {
        set_affinity(1u64 << (63 - before.leading_zeros()));
    }
    before
}

/// CPU seconds (user, sys) of a live process, from `/proc/<pid>/stat`.
pub fn proc_cpu_s(pid: u32) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after the ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // SAFETY: `sysconf` takes a plain integer and touches no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
    Some((utime / hz, stime / hz))
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A child run to completion with its stdout captured.
pub struct Finished {
    pub usage: ChildUsage,
    /// Largest `VmHWM` seen while the child ran, in MiB.
    pub peak_rss_mb: f64,
    pub stdout: String,
    /// Spawn → exit.
    pub wall_s: f64,
    /// Spawn → first stdout line.
    pub first_line_s: f64,
}

/// How often a running child's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Spawn `cmd`, read its stdout to the end, reap it.
///
/// The child's peak RSS is polled from `/proc` while it runs, not taken
/// from `wait4`: a spawned child shares its parent's address space until
/// it execs, and Linux folds that space's high-water mark into the
/// child's `ru_maxrss`, so `wait4` reports at least the *harness's* peak.
pub fn run_to_end(cmd: &mut Command) -> std::io::Result<Finished> {
    let t0 = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let pid = child.id();
    let mut reader = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let mut stdout = String::new();
    // Publishes nothing but itself, so relaxed ordering is enough.
    let exited = AtomicBool::new(false);
    let (read, peak_rss_mb) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0.0f64;
            while !exited.load(Ordering::Relaxed) {
                peak = peak.max(proc_peak_rss_mb(pid).unwrap_or(0.0));
                std::thread::park_timeout(RSS_POLL);
            }
            peak
        });
        let read = (|| {
            reader.read_line(&mut stdout)?;
            let first_line_s = t0.elapsed().as_secs_f64();
            std::io::Read::read_to_string(&mut reader, &mut stdout)?;
            // End of file on stdout is the child exiting.
            Ok::<(f64, f64), std::io::Error>((first_line_s, t0.elapsed().as_secs_f64()))
        })();
        exited.store(true, Ordering::Relaxed);
        poller.thread().unpark();
        (read, poller.join().unwrap_or(0.0))
    });
    let usage = reap(child);
    let (first_line_s, wall_s) = read?;
    Ok(Finished { usage, peak_rss_mb, stdout, wall_s, first_line_s })
}
