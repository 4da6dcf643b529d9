//! What carries a launch's rank continuations between their yield
//! points.  [`crate::sched::EventCore`] decides *which* rank runs next;
//! a [`Carrier`] makes it so.  The target picks the carrier and nothing
//! else can: on x86-64 Linux ranks live on switched stacks
//! ([`crate::stack::Stacks`], one OS thread per launch); every other
//! target has [`Threads`], one parked OS thread per rank.  Tests compile
//! both and hand either to `EventCore::with_carrier`.

/// One rank of a launch: runs the rank body to its end (catching its
/// panic), retires the task in the scheduler and returns the rank to
/// resume next, `None` once every rank is done.
pub(crate) type RankBody<'a> = Box<dyn FnOnce() -> Option<usize> + Send + 'a>;

pub(crate) trait Carrier: Send + Sync {
    /// Run every body to completion, `first` first, and return when all
    /// have returned.  Called once, by the launching thread.
    fn run(&self, bodies: Vec<RankBody<'_>>, first: usize);

    /// Called by rank `from`, which has just blocked: let `to` run, and
    /// return when `from` is handed the baton again.
    fn switch(&self, from: usize, to: usize);
}

/// The carrier this target runs launches on.
pub(crate) fn for_target(n_ranks: usize) -> Box<dyn Carrier> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    return Box::new(crate::stack::Stacks::new(n_ranks));
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    return Box::new(Threads::new(n_ranks));
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
pub(crate) use threads::Threads;

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod threads {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;
    use std::thread::Thread;

    use super::{Carrier, RankBody};

    /// One scoped OS thread per rank, parked unless it holds the baton.
    pub(crate) struct Threads {
        /// The rank whose turn it is; `n_ranks` until the launch starts.
        turn: AtomicUsize,
        /// Unpark handles, published by `run` before the first turn.
        handles: OnceLock<Vec<Thread>>,
    }

    impl Threads {
        pub(crate) fn new(n_ranks: usize) -> Threads {
            Threads { turn: AtomicUsize::new(n_ranks), handles: OnceLock::new() }
        }

        /// Release pairs with the Acquire in `wait_turn`: whatever the
        /// passing thread did (scheduler state aside, which has its own
        /// lock, that is `handles`) is visible to the rank it wakes.
        fn pass(&self, to: usize) {
            self.turn.store(to, Ordering::Release);
            let handles = self.handles.get().unwrap_or_else(|| panic!("baton passed before run"));
            handles[to].unpark();
        }

        /// Park until it is `me`'s turn; unpark tokens make a pass that
        /// lands before the park race-free, spurious wake-ups re-check.
        fn wait_turn(&self, me: usize) {
            while self.turn.load(Ordering::Acquire) != me {
                std::thread::park();
            }
        }
    }

    impl Carrier for Threads {
        fn run(&self, bodies: Vec<RankBody<'_>>, first: usize) {
            std::thread::scope(|scope| {
                let handles = bodies
                    .into_iter()
                    .enumerate()
                    .map(|(rank, body)| {
                        std::thread::Builder::new()
                            .name(format!("v2d-rank-{rank}"))
                            .spawn_scoped(scope, move || {
                                self.wait_turn(rank);
                                if let Some(next) = body() {
                                    self.pass(next);
                                }
                            })
                            .unwrap_or_else(|e| panic!("failed to spawn rank carrier: {e}"))
                            .thread()
                            .clone()
                    })
                    .collect();
                assert!(self.handles.set(handles).is_ok(), "a thread carrier runs one launch");
                self.pass(first);
                // The scope joins every rank thread and re-raises a
                // panic of the carrier itself (rank panics are caught
                // inside the bodies).
            });
        }

        fn switch(&self, from: usize, to: usize) {
            self.pass(to);
            self.wait_turn(from);
        }
    }
}
