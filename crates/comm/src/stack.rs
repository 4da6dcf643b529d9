//! Rank continuations on their own stacks: every rank of a launch runs
//! on the OS thread that called [`crate::Spmd::run`], and a hand-off
//! between two ranks is a user-level stack switch — six callee-saved
//! registers and the stack pointer — instead of an unpark/park pair
//! through the kernel.  This is the shape HPX gives Octo-Tiger (many
//! tasks, one thread, no parking) behind the synchronous [`crate::Comm`]
//! API.
//!
//! All of the crate's `unsafe` is in this file.  What safe callers see
//! is [`Stacks`] with two operations, [`Stacks::run`] and
//! [`Stacks::switch`]; both first check that they run on the thread that
//! built the set and, for `switch`, that the caller is the continuation
//! the set believes is running, so no argument safe code can pass makes
//! either of them resume a stack that is running, finished or unmapped.
//!
//! x86-64 System V on Linux only: the switch routine is per-ISA and the
//! `mmap` flag values are per-OS, and this is the one pair that can be
//! built and run here.  Every other target takes
//! [`crate::carrier::Threads`].

use std::cell::Cell;
use std::ffi::c_void;

use crate::carrier::{Carrier, RankBody};

// `switch(save, to)`: push the callee-saved registers of the System V
// ABI, store the stack pointer in `*save`, adopt `to`, pop the registers
// the resumed continuation pushed when *it* was suspended, and return
// into it.  (MXCSR and the x87 control word are also callee-saved, but
// every continuation of a thread shares them and nothing here changes
// them.)
//
// `trampoline`: the bottom frame of every rank stack.  A fresh stack is
// laid out so that its first resume pops the entry function into r13 and
// its argument into r12 and returns here.  `.cfi_undefined rip` marks the
// frame as outermost, so a backtrace taken on a rank stack ends here
// instead of reading past the top of the mapping.
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".global v2d_comm_stack_switch",
    ".type v2d_comm_stack_switch,@function",
    "v2d_comm_stack_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size v2d_comm_stack_switch, . - v2d_comm_stack_switch",
    ".p2align 4",
    ".global v2d_comm_stack_trampoline",
    ".type v2d_comm_stack_trampoline,@function",
    "v2d_comm_stack_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size v2d_comm_stack_trampoline, . - v2d_comm_stack_trampoline",
);

extern "C" {
    fn v2d_comm_stack_switch(save: *mut usize, to: usize);
    fn v2d_comm_stack_trampoline();

    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

// Linux x86-64 values.
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// The base page of x86-64; the guard below each stack is one of them.
const PAGE: usize = 4096;
/// Usable bytes per rank stack.  Pages are committed on first touch, so
/// a 1 024-rank launch reserves 1 GiB of address space and touches a few
/// pages of each; the deepest rank body in the test suites uses under
/// 32 KiB.
const STACK_BYTES: usize = 1 << 20;
/// One rank's share of the mapping: the guard page, then its stack.
const SLOT: usize = PAGE + STACK_BYTES;

/// An address unique to the calling thread for as long as it lives.
fn thread_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|t| t as *const u8 as usize)
}

/// What a fresh stack's first frame points at: the body to run and the
/// set to hand the baton back to.  Lives in [`Stacks::run`]'s frame.
struct Start<'a> {
    stacks: *const Stacks,
    id: usize,
    body: Option<RankBody<'a>>,
}

/// One launch's rank stacks and the saved stack pointer of every
/// suspended continuation on them.
pub(crate) struct Stacks {
    /// `n` slots of [`SLOT`] bytes, each a `PROT_NONE` guard page below
    /// a read-write stack.
    base: *mut u8,
    n: usize,
    /// [`thread_token`] of the thread that built the set — the only
    /// thread allowed to run or switch its continuations.
    owner: usize,
    /// Saved stack pointer per continuation; 0 while it cannot be
    /// resumed (not yet started by `run`, running, or finished).
    sp: Box<[Cell<usize>]>,
    /// Saved stack pointer of `run`'s caller while ranks execute.
    launcher_sp: Cell<usize>,
    /// The continuation executing now (`None`: the launcher).
    running: Cell<Option<usize>>,
    finished: Cell<usize>,
    /// Set when `run` found unfinished continuations: their frames may
    /// still be referenced, so `Drop` must leave the mapping alone.
    leaked: Cell<bool>,
}

// SAFETY: `base`, `n` and `owner` are written once in `new`.  Every
// `Cell` is read or written only after `assert_owner` has passed (in
// `run`, `switch`, and `exit`, which is reached only from a continuation
// `run` started), i.e. only ever by the one thread that built the set,
// so sharing `&Stacks` with other threads lets them do nothing but fail
// that assert.  `Drop` takes `&mut self` and only unmaps; see there.
unsafe impl Send for Stacks {}
// SAFETY: as above — every `&self` method is a no-op panic off the
// owning thread.
unsafe impl Sync for Stacks {}

impl Stacks {
    pub(crate) fn new(n: usize) -> Stacks {
        let len = n.checked_mul(SLOT).unwrap_or_else(|| panic!("{n} rank stacks overflow usize"));
        // SAFETY: a fresh anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; `len` is non-zero (`Spmd`
        // asserts `n >= 1`).
        let base =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_NONE, MAP_PRIVATE_ANONYMOUS, -1, 0) };
        assert!(
            base != MAP_FAILED,
            "cannot map {n} rank stacks: {}",
            std::io::Error::last_os_error()
        );
        let base = base.cast::<u8>();
        for id in 0..n {
            // SAFETY: `[id*SLOT + PAGE, (id+1)*SLOT)` lies inside the
            // mapping just made and is page-aligned (`mmap` returns a
            // page-aligned address; `SLOT` and `PAGE` are multiples of
            // the page size).  The page below it stays `PROT_NONE`.
            let rc = unsafe {
                mprotect(base.add(id * SLOT + PAGE).cast(), STACK_BYTES, PROT_READ_WRITE)
            };
            if rc != 0 {
                let err = std::io::Error::last_os_error();
                // SAFETY: nothing points into the mapping yet.
                unsafe { munmap(base.cast(), len) };
                panic!("cannot make rank stack {id} writable: {err}");
            }
        }
        Stacks {
            base,
            n,
            owner: thread_token(),
            sp: (0..n).map(|_| Cell::new(0)).collect(),
            launcher_sp: Cell::new(0),
            running: Cell::new(None),
            finished: Cell::new(0),
            leaked: Cell::new(false),
        }
    }

    fn assert_owner(&self) {
        assert_eq!(
            thread_token(),
            self.owner,
            "rank stacks used off the thread that launched them (a Comm handle left its rank?)"
        );
    }

    /// Claim `id`'s saved stack pointer for a resume.
    fn take_resumable(&self, id: usize) -> usize {
        let sp = self.sp[id].replace(0);
        assert_ne!(sp, 0, "rank {id} is not suspended: it is running, finished or never started");
        sp
    }

    /// Retire continuation `id` and resume `next` (`None`: the
    /// launcher).  Never returns: nothing resumes a finished stack.
    fn exit(&self, id: usize, next: Option<usize>) -> ! {
        self.assert_owner();
        assert_eq!(self.running.get(), Some(id), "rank {id} retired while not running");
        let to = match next {
            Some(to) => self.take_resumable(to),
            None => self.launcher_sp.replace(0),
        };
        assert_ne!(to, 0, "no launcher to return to");
        self.finished.set(self.finished.get() + 1);
        self.running.set(next);
        let mut discarded = 0usize;
        // SAFETY: `to` is a stack pointer `v2d_comm_stack_switch` saved
        // (or `run` laid out) and `take_resumable`/`replace` just cleared
        // its slot, so it is resumed exactly once; its stack is mapped
        // because `run` unmaps nothing before every continuation has
        // finished.  `discarded` is a live local of this frame for the
        // one store the routine makes to it before leaving this stack
        // for good; `sp[id]` stays 0, so this frame is never resumed and
        // holds nothing that needs dropping.
        unsafe { v2d_comm_stack_switch(&mut discarded, to) };
        unreachable!("a finished rank stack was resumed")
    }
}

/// First Rust frame of every rank stack, entered from the trampoline.
extern "C" fn rank_main(arg: *mut u8) -> ! {
    // SAFETY: `arg` is the `Start` `run` wrote into this stack's first
    // frame; it lives in `run`'s frame, which stays suspended until every
    // continuation has exited, and each `Start` is read by its own
    // continuation only.  `stacks` is the `&self` of that same `run`.
    let (stacks, id, body) = unsafe {
        let start = &mut *arg.cast::<Start<'_>>();
        (&*start.stacks, start.id, start.body.take())
    };
    let body = body.unwrap_or_else(|| panic!("rank stack {id} entered twice"));
    // A panic here — the body catches its rank's own — unwinds into an
    // `extern "C"` frame, which aborts the process; nothing ever unwinds
    // into the trampoline.
    let next = body();
    stacks.exit(id, next)
}

impl Carrier for Stacks {
    fn run(&self, bodies: Vec<RankBody<'_>>, first: usize) {
        self.assert_owner();
        assert_eq!(bodies.len(), self.n, "one body per rank stack");
        assert!(first < self.n, "first rank {first} out of range");
        assert!(
            self.running.get().is_none() && self.finished.get() == 0,
            "a set of rank stacks runs one launch"
        );
        let mut starts: Vec<Start<'_>> = bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| Start { stacks: self, id, body: Some(body) })
            .collect();
        let starts_ptr = starts.as_mut_ptr();
        for id in 0..self.n {
            // SAFETY: the seven words below the top of stack `id` are
            // inside its read-write part of the mapping and 8-aligned
            // (the top is page-aligned).  They are the frame
            // `v2d_comm_stack_switch` pops on a first resume — r15, r14,
            // r13 = entry, r12 = its argument, rbx, rbp = 0 (end of the
            // frame-pointer chain) — and the return address into the
            // trampoline, which then sees a 16-aligned stack pointer as
            // the ABI requires before its `call`.
            unsafe {
                let top = self.base.add((id + 1) * SLOT).cast::<usize>();
                let frame = top.sub(7);
                let entry: extern "C" fn(*mut u8) -> ! = rank_main;
                let trampoline: unsafe extern "C" fn() = v2d_comm_stack_trampoline;
                frame.write(0);
                frame.add(1).write(0);
                frame.add(2).write(entry as usize);
                frame.add(3).write(starts_ptr.add(id) as usize);
                frame.add(4).write(0);
                frame.add(5).write(0);
                frame.add(6).write(trampoline as usize);
                self.sp[id].set(frame as usize);
            }
        }
        let to = self.take_resumable(first);
        self.running.set(Some(first));
        // SAFETY: `to` is the frame laid out above on a mapped stack,
        // claimed once by `take_resumable`.  `launcher_sp` is where the
        // last rank to exit finds this frame again; until then this
        // frame is suspended, so `starts` and `self` outlive every
        // continuation that points at them.
        unsafe { v2d_comm_stack_switch(self.launcher_sp.as_ptr(), to) };
        if self.finished.get() != self.n {
            // A scheduler bug: suspended frames may still point into the
            // stacks and into `starts`, so neither may be freed.
            self.leaked.set(true);
            std::mem::forget(starts);
            panic!("launcher resumed with {} of {} ranks finished", self.finished.get(), self.n);
        }
    }

    fn switch(&self, from: usize, to: usize) {
        self.assert_owner();
        assert_eq!(self.running.get(), Some(from), "rank {from} yielded while not running");
        let to_sp = self.take_resumable(to);
        self.running.set(Some(to));
        // SAFETY: the asserts above establish that this call executes on
        // the owning thread inside continuation `from` (or a frame
        // nested above it), whose slot is 0 while it runs, so the save
        // overwrites no live continuation; `to_sp` was saved by this
        // routine or laid out by `run`, is claimed exactly once, and its
        // stack is mapped until every continuation has finished.  The
        // caller holds no lock guard across this call (`EventCore` drops
        // `state` first), and whoever resumes `from` sets `running` back
        // to it before switching.
        unsafe { v2d_comm_stack_switch(self.sp[from].as_ptr(), to_sp) };
    }
}

impl Drop for Stacks {
    fn drop(&mut self) {
        if self.leaked.get() {
            return;
        }
        // SAFETY: `&mut self` means no `run` is in progress, and `run`
        // returns normally only once every continuation has finished, so
        // no frame lives in the mapping; a never-started set holds none.
        unsafe { munmap(self.base.cast(), self.n * SLOT) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn bodies_interleave_at_their_switches_and_a_finished_stack_is_never_resumed() {
        let stacks = Stacks::new(2);
        let log = Mutex::new(Vec::new());
        let note = |what| log.lock().expect("log").push(what);
        let bodies: Vec<RankBody<'_>> = vec![
            Box::new(|| {
                note("0 starts");
                stacks.switch(0, 1);
                note("0 resumes");
                Some(1)
            }),
            Box::new(|| {
                note("1 starts");
                stacks.switch(1, 0);
                note("1 resumes");
                let again = catch_unwind(AssertUnwindSafe(|| stacks.switch(1, 0)));
                assert!(again.is_err(), "rank 0 has returned: its stack must not be resumed");
                None
            }),
        ];
        stacks.run(bodies, 0);
        assert_eq!(*log.lock().expect("log"), ["0 starts", "1 starts", "0 resumes", "1 resumes"]);
    }

    #[test]
    fn a_switch_from_anywhere_but_the_running_continuation_panics() {
        let stacks = Stacks::new(2);
        // Not inside a continuation at all.
        assert!(catch_unwind(AssertUnwindSafe(|| stacks.switch(0, 1))).is_err());
        // Off the thread that owns the stacks.
        let off_thread = std::thread::scope(|s| s.spawn(|| stacks.switch(0, 1)).join());
        assert!(off_thread.is_err());
        // Inside one, but claiming to be another.
        stacks.run(
            vec![
                Box::new(|| {
                    assert!(catch_unwind(AssertUnwindSafe(|| stacks.switch(1, 0))).is_err());
                    Some(1)
                }),
                Box::new(|| None),
            ],
            0,
        );
    }
}
