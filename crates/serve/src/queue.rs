//! The worker pool behind the service: one gated priority heap.
//!
//! Long-lived worker threads share a single max-heap on
//! `(priority, FIFO seq)` under a single mutex.  A worker pops the top
//! task while the admission gate is open, runs it outside the lock, and
//! otherwise sleeps on a condvar — so dispatch is strictly
//! `(priority, FIFO)` at every worker count: a task submitted while
//! others are queued overtakes every queued task of lower priority.
//!
//! Two control surfaces matter to the service layer:
//!
//! * an **admission gate**: while closed, queued tasks are not
//!   dispatched.  [`Service::run_script`](crate::service::Service::run_script)
//!   admits a whole phase gate-closed, so dedupe and cancellation
//!   resolve against a deterministic in-flight set, then opens the gate
//!   and drains — that is what makes the `serve.*` counters exact-gate
//!   material;
//! * **cancellation is cooperative and lives above the pool**: a task
//!   is an opaque closure; the service hands it a shared token and the
//!   closure decides to skip.  The pool itself never drops work.
//!
//! Tasks are coarse (whole experiments, milliseconds to seconds) and
//! few are outstanding at once, so one lock is entirely adequate — the
//! scheduling cost is noise next to one BiCGSTAB solve.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A unit of pool work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

struct PrioTask {
    priority: i64,
    seq: u64,
    task: Task,
}

impl PartialEq for PrioTask {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for PrioTask {}
impl PartialOrd for PrioTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then older seq (FIFO ties).
        self.priority.cmp(&other.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

struct State {
    heap: BinaryHeap<PrioTask>,
    gate_open: bool,
    shutdown: bool,
    /// Submitted-but-not-finished count, for [`WorkPool::drain`].
    live: u64,
    /// Next FIFO sequence number.
    seq: u64,
}

struct Shared {
    state: Mutex<State>,
    /// A task was queued, the gate moved, or shutdown began.
    ready: Condvar,
    /// `live` reached zero.
    drained: Condvar,
    executed: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Tasks run outside the lock and under `catch_unwind`, so no
        // panic can unwind through a held guard.
        self.state.lock().expect("pool state is never poisoned")
    }

    fn worker_loop(&self) {
        let mut st = self.lock();
        loop {
            let next = if st.gate_open { st.heap.pop() } else { None };
            if let Some(t) = next {
                drop(st);
                // A panicking task must not wedge `drain` (the live
                // count) or kill its worker thread; the service layer
                // reports failures through typed responses, so a panic
                // here is a bug being contained, not hidden.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(t.task));
                self.executed.fetch_add(1, Ordering::Relaxed);
                st = self.lock();
                st.live -= 1;
                if st.live == 0 {
                    self.drained.notify_all();
                }
            } else if st.shutdown {
                // Shutdown opened the gate, so the heap is empty.
                return;
            } else {
                st = self.ready.wait(st).expect("pool state is never poisoned");
            }
        }
    }
}

/// The resident pool.  Dropping it without [`WorkPool::shutdown`]
/// detaches the workers; the service layer always shuts down
/// explicitly.
pub struct WorkPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkPool {
    /// `gate_open = false` starts the pool paused: tasks queue but do
    /// not dispatch until [`WorkPool::set_gate`].
    pub fn new(n_workers: usize, gate_open: bool) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                gate_open,
                shutdown: false,
                live: 0,
                seq: 0,
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
            executed: AtomicU64::new(0),
        });
        let workers = (0..n_workers.max(1))
            .map(|w| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("v2d-serve-w{w}"))
                    .spawn(move || sh.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        WorkPool { shared, workers }
    }

    /// Queue a task.  Higher priority dispatches earlier; ties FIFO.
    pub fn submit(&self, priority: i64, task: Task) {
        let mut st = self.shared.lock();
        let seq = st.seq;
        st.seq += 1;
        st.live += 1;
        st.heap.push(PrioTask { priority, seq, task });
        drop(st);
        self.shared.ready.notify_one();
    }

    /// Open or close the admission gate.
    pub fn set_gate(&self, open: bool) {
        self.shared.lock().gate_open = open;
        self.shared.ready.notify_all();
    }

    /// Block until every submitted task has finished.  With the gate
    /// closed this blocks forever if anything is queued — callers open
    /// the gate first.
    pub fn drain(&self) {
        let mut st = self.shared.lock();
        while st.live > 0 {
            st = self.shared.drained.wait(st).expect("pool state is never poisoned");
        }
    }

    /// Queued tasks not yet picked up.
    pub fn depth(&self) -> u64 {
        self.shared.lock().heap.len() as u64
    }

    /// Tasks executed to completion.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Finish queued work and join the workers.  Opens the gate: a
    /// shutdown must not strand admitted requests.
    pub fn shutdown(mut self) {
        {
            let mut st = self.shared.lock();
            st.gate_open = true;
            st.shutdown = true;
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_everything_and_drains() {
        let pool = WorkPool::new(4, true);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let h = Arc::clone(&hits);
            pool.submit(
                0,
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(pool.executed(), 64);
        pool.shutdown();
    }

    #[test]
    fn gate_closed_holds_work_and_priorities_order_dispatch() {
        // Single worker + closed gate: admission order is decoupled
        // from execution order, which must come out by (priority, FIFO).
        let pool = WorkPool::new(1, false);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (prio, tag) in [(0, "low-a"), (5, "high"), (0, "low-b"), (3, "mid")] {
            let o = Arc::clone(&order);
            pool.submit(prio, Box::new(move || o.lock().unwrap().push(tag)));
        }
        std::thread::sleep(Duration::from_millis(60));
        assert!(order.lock().unwrap().is_empty(), "gate closed: nothing may run");
        assert_eq!(pool.depth(), 4);
        pool.set_gate(true);
        pool.drain();
        assert_eq!(*order.lock().unwrap(), vec!["high", "mid", "low-a", "low-b"]);
        pool.shutdown();
    }

    #[test]
    fn shutdown_completes_queued_work_even_if_gated() {
        let pool = WorkPool::new(2, false);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let h = Arc::clone(&hits);
            pool.submit(
                1,
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn late_high_priority_overtakes_queued_low_priority() {
        // One worker is busy with `slow` while three low-priority tasks
        // queue behind it; a high-priority task submitted after that
        // must run before all three.
        let pool = WorkPool::new(1, true);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let o = Arc::clone(&order);
        pool.submit(
            0,
            Box::new(move || {
                o.lock().unwrap().push("slow");
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }),
        );
        let push = |prio, tag| {
            let o = Arc::clone(&order);
            pool.submit(prio, Box::new(move || o.lock().unwrap().push(tag)));
        };
        for tag in ["lo-a", "lo-b", "lo-c"] {
            push(0, tag);
        }
        started_rx.recv().unwrap();
        push(5, "hi");
        release_tx.send(()).unwrap();
        pool.drain();
        assert_eq!(*order.lock().unwrap(), vec!["slow", "hi", "lo-a", "lo-b", "lo-c"]);
        pool.shutdown();
    }

    #[test]
    fn four_workers_start_tasks_in_priority_order() {
        // 16 distinct priorities admitted gate-closed.  Each task
        // reports its start and then holds its worker until released,
        // so the test decides when a worker pops again.
        let pool = WorkPool::new(4, false);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for prio in [3, 11, 0, 7, 14, 5, 9, 1, 12, 4, 15, 8, 2, 10, 6, 13] {
            let started = started_tx.clone();
            let release = Arc::clone(&release_rx);
            pool.submit(
                prio,
                Box::new(move || {
                    started.send(prio).unwrap();
                    release.lock().unwrap().recv().unwrap();
                }),
            );
        }
        pool.set_gate(true);
        let mut starts: Vec<i64> = (0..4).map(|_| started_rx.recv().unwrap()).collect();
        // The four workers pop 15, 14, 13, 12 in that order but race
        // from the pop to the report.
        starts.sort_by(|a, b| b.cmp(a));
        // From here one release frees one worker, which must start the
        // highest priority still queued.
        for _ in 4..16 {
            release_tx.send(()).unwrap();
            starts.push(started_rx.recv().unwrap());
        }
        assert_eq!(starts, (0..16).rev().collect::<Vec<i64>>());
        for _ in 0..4 {
            release_tx.send(()).unwrap();
        }
        pool.drain();
        pool.shutdown();
    }

    #[test]
    fn panicking_task_does_not_wedge_the_pool() {
        let pool = WorkPool::new(2, true);
        pool.submit(0, Box::new(|| panic!("contained")));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(
            0,
            Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
            }),
        );
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }
}
