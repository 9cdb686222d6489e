//! The execution engine: conservative execution-driven scheduling of
//! simulated threads over one [`Machine`].
//!
//! Each simulated thread runs on an OS thread. The engine's scheduler
//! state (per-core op queues, local clocks, the machine) lives behind one
//! mutex, and the app threads drive it *cooperatively*: whenever a thread
//! submits ops it executes everything that is safe to execute — its own
//! ops and other cores' — instead of handing off to a dedicated engine
//! thread. Machine transitions happen in global simulated-time order:
//! the pending op with the smallest `(local time, core id)` runs first.
//!
//! # Conservative lookahead
//!
//! A core's local clock never moves backward, so a core that has not yet
//! presented its next op cannot act before its current clock. The
//! engine therefore executes the earliest queued op as soon as it
//! precedes `(time, id)` of **every op-less core** — it does not wait
//! for those cores to actually submit. This is the standard conservative
//! parallel-discrete-event rule, and it produces exactly the same
//! machine-transition sequence as the reference "wait for all cores,
//! then pick the minimum" loop: delayed submissions always order after
//! the op executed early. It matters on the host side only — a thread
//! issuing a load usually finds its own op is already globally minimal
//! and serves itself without a single context switch.
//!
//! Wakeups produced by synchronization grants are delivered immediately
//! after the op that granted them, and each one wakes only the thread it
//! targets (per-core condvars — no thundering herd).
//!
//! The next core is picked either by an O(ncores) scan
//! ([`Scheduler::Linear`], the reference) or from binary heaps keyed by
//! `(local time, core id)` — O(log ncores) per op. The heap picker is
//! the fallback of [`Scheduler::Local`] for machines the local-retire
//! engine (`crate::sharded`) cannot serve. The run heap has one entry
//! per core with queued ops, and such a core's clock only advances when
//! it executes (which pops the entry), so entries are never stale; the
//! op-less heap is cleaned lazily.
//!
//! # Batched transport
//!
//! Under [`Transport::Batched`] a thread coalesces runs of fire-and-forget
//! ops (stores, computes, posted WB/INV — see `Op::is_batchable`) into one
//! `Op::Batch` message and does not wait for replies to them. The engine
//! **unpacks** each batch into the core's op queue and still executes one
//! op at a time by global minimum-time selection: simulated timing,
//! interleaving, stall ledgers, and traffic are bit-identical to
//! [`Transport::Sync`] — only the host-side reply waits disappear.
//! [`EngineStats`] (surfaced through `RunStats::engine`) records how many.
//!
//! # Failure handling
//!
//! A run that cannot complete — deadlock, watchdog expiry (simulated-
//! cycle budget or host wall-clock), a fatal sanitizer finding under
//! `CheckMode::Strict`, or an unrecoverable injected fault — does not
//! abort the process. The engine latches the *first* [`RunError`], wakes
//! every blocked thread, and unwinds each app thread with a quiet
//! sentinel payload that the thread wrapper catches; the scope joins
//! normally and the error is returned alongside the stats, so a failed
//! run leaves the process fully reusable. If every unfinished core is
//! parked on synchronization the program has deadlocked, and the error
//! names each parked core's stall category (plus the recent operation
//! history when tracing is enabled).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use hic_machine::{Exec, Machine, Op, RunError, RunStats};
use hic_mem::Word;
use hic_sim::{CoreId, Cycle, EngineStats};

use crate::ctx::{RtShared, ThreadCtx};

/// Unwind payload used to exit app threads once the run is dead. The
/// thread wrapper in [`run_threads`] catches it (and only it) so the
/// typed [`RunError`] — not a panic — is what reaches the caller.
pub(crate) struct EngineDead;

/// Suppress the default "thread panicked" stderr line for [`EngineDead`]
/// unwinds; every other payload still reaches the previous hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<EngineDead>().is_none() {
                prev(info);
            }
        }));
    });
}

/// How simulated threads ship ops to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Every op is submitted on its own and the thread waits for the
    /// reply. Simple, and the reference behavior the batched transport
    /// must match cycle-for-cycle.
    Sync,
    /// Runs of non-value-returning ops are coalesced into one
    /// `Op::Batch` message of at most `cap` ops; the thread only waits
    /// at value-returning or blocking ops. Same simulated results,
    /// fewer host round-trips.
    Batched { cap: usize },
}

impl Default for Transport {
    fn default() -> Self {
        Transport::Batched { cap: 64 }
    }
}

impl Transport {
    /// Batch capacity (0 = unbatched).
    pub fn batch_cap(self) -> usize {
        match self {
            Transport::Sync => 0,
            Transport::Batched { cap } => cap.max(1),
        }
    }
}

/// Which execution engine drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The test oracle: the sequential single-lock engine picking the
    /// next core by scanning all cores for the minimum `(time, core)` —
    /// O(ncores) per op. Every other engine must match it exactly.
    Linear,
    /// The default. Local retire: core-local ops (L1 hits, computes,
    /// epoch markers) retire on the issuing thread against the core's
    /// own slot without any global lock; everything that touches the
    /// shared hierarchy synchronizes through a global event domain that
    /// replays exactly the sequential `(time, core)` key order, so
    /// simulated results are bit-identical to [`Scheduler::Linear`] (see
    /// `crate::sharded` and `tests/prop_scheduler.rs`). Machines local
    /// retire cannot serve (coherent backends, an attached sanitizer, a
    /// fault plan, or tracing — see `Machine::supports_sharding`) fall
    /// back to the sequential engine with an O(log ncores) heap picker.
    #[default]
    Local,
}

impl Scheduler {
    /// Parse a `HIC_ENGINE` value: `linear` or `local`.
    pub fn parse(s: &str) -> Option<Scheduler> {
        match s.trim().to_ascii_lowercase().as_str() {
            "linear" => Some(Scheduler::Linear),
            "local" => Some(Scheduler::Local),
            _ => None,
        }
    }

    /// The canonical name [`Scheduler::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Linear => "linear",
            Scheduler::Local => "local",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Queue empty: the thread has not yet presented its next op. Its
    /// clock bounds how early its future ops can be.
    NeedsOp,
    /// Has at least one queued op, not yet executed.
    HasOp,
    /// Blocked inside the machine on a synchronization grant.
    Parked,
    /// Thread finished.
    Done,
}

/// The scheduler state for one run: per-core op queues, local clocks,
/// and the [`EngineStats`] ledger. Shared among all app threads behind
/// [`EngineShared`]'s mutex.
struct EngineCore {
    machine: Machine,
    scheduler: Scheduler,
    state: Vec<CoreState>,
    /// Per-core local simulated time.
    time: Vec<Cycle>,
    /// Per-core decoded op queue: `(op, needs_reply)`. Batch members are
    /// queued with `needs_reply = false`; individually sent ops (except
    /// `Finish`) with `true`.
    queue: Vec<VecDeque<(Op, bool)>>,
    /// Heap picker (under [`Scheduler::Local`]): one entry per `HasOp`
    /// core, keyed by its current local time. Never stale.
    run_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Heap picker: entries for `NeedsOp` cores, keyed by
    /// the clock at which they became op-less. Cleaned lazily: an entry
    /// is valid while its core is still `NeedsOp` at that exact time.
    idle_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Unfinished cores whose queue is empty.
    needs_op: usize,
    /// Cores with queued ops.
    has_op: usize,
    /// Per-core reply slot, filled when the core's pending op completes.
    reply: Vec<Option<Option<Word>>>,
    /// Per-core flag: the thread is blocked on its condvar.
    waiting: Vec<bool>,
    /// Cores whose reply was filled while their thread was blocked;
    /// drained into targeted notifications when the driver pauses.
    wake_list: Vec<usize>,
    /// The spawning thread is blocked waiting for completion.
    main_waiting: bool,
    done: usize,
    parked_now: u64,
    /// First fatal condition of the run (deadlock, hang, fatal finding,
    /// app-thread death); every blocked thread exits once it is set.
    dead: Option<RunError>,
    /// Watchdog: fail the run if any core's clock passes this budget.
    watchdog_cycles: Option<Cycle>,
    /// Watchdog: fail the run past this host-time deadline (checked
    /// every [`WALL_CHECK_PERIOD`] ops to keep the hot path cheap).
    deadline: Option<Instant>,
    ops_since_wall_check: u32,
    stats: EngineStats,
}

/// How many executed ops between host wall-clock watchdog checks.
pub(crate) const WALL_CHECK_PERIOD: u32 = 1024;

impl EngineCore {
    fn new(machine: Machine, shared: &RtShared) -> EngineCore {
        let nthreads = shared.nthreads;
        let scheduler = shared.scheduler;
        let mut idle_heap = BinaryHeap::with_capacity(nthreads + 4);
        if scheduler == Scheduler::Local {
            // Every core starts op-less at time 0.
            for c in 0..nthreads {
                idle_heap.push(Reverse((0, c)));
            }
        }
        EngineCore {
            machine,
            scheduler,
            state: vec![CoreState::NeedsOp; nthreads],
            time: vec![0; nthreads],
            queue: (0..nthreads).map(|_| VecDeque::new()).collect(),
            run_heap: BinaryHeap::with_capacity(nthreads),
            idle_heap,
            needs_op: nthreads,
            has_op: 0,
            reply: vec![None; nthreads],
            waiting: vec![false; nthreads],
            wake_list: Vec::with_capacity(nthreads),
            main_waiting: false,
            done: 0,
            parked_now: 0,
            dead: None,
            watchdog_cycles: shared.watchdog_cycles,
            deadline: shared
                .watchdog_wall_ms
                .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
            ops_since_wall_check: 0,
            stats: EngineStats::new(),
        }
    }

    /// Queue one transport message for core `c`.
    fn enqueue(&mut self, c: usize, msg: Op) {
        debug_assert!(
            matches!(self.state[c], CoreState::NeedsOp | CoreState::HasOp),
            "parked or finished core submitted an op"
        );
        self.stats.messages += 1;
        match msg {
            Op::Batch(ops) => {
                debug_assert!(!ops.is_empty(), "empty batch message");
                self.stats.batches += 1;
                for op in ops {
                    debug_assert!(op.is_batchable(), "non-batchable op in batch: {op:?}");
                    self.queue[c].push_back((op, false));
                }
            }
            op => {
                let needs_reply = !matches!(op, Op::Finish);
                self.queue[c].push_back((op, needs_reply));
            }
        }
        if self.state[c] == CoreState::NeedsOp {
            self.state[c] = CoreState::HasOp;
            self.needs_op -= 1;
            self.has_op += 1;
            if self.scheduler == Scheduler::Local {
                // The core's idle_heap entry goes stale and is dropped
                // lazily by `executable`.
                self.run_heap.push(Reverse((self.time[c], c)));
            }
        }
    }

    /// Mark core `c` op-less at its current clock.
    fn set_needs_op(&mut self, c: usize) {
        self.state[c] = CoreState::NeedsOp;
        self.needs_op += 1;
        if self.scheduler == Scheduler::Local {
            self.idle_heap.push(Reverse((self.time[c], c)));
        }
    }

    /// May the earliest queued op execute now? True iff some op is
    /// queued and it precedes the clock of every op-less core.
    fn executable(&mut self) -> bool {
        match self.scheduler {
            Scheduler::Local => {
                let Some(&Reverse(run)) = self.run_heap.peek() else {
                    return false;
                };
                while let Some(&Reverse((t, c))) = self.idle_heap.peek() {
                    if self.state[c] == CoreState::NeedsOp && self.time[c] == t {
                        return run < (t, c);
                    }
                    self.idle_heap.pop();
                }
                true
            }
            Scheduler::Linear => {
                let mut run: Option<(Cycle, usize)> = None;
                let mut idle: Option<(Cycle, usize)> = None;
                for c in 0..self.state.len() {
                    let key = (self.time[c], c);
                    match self.state[c] {
                        CoreState::HasOp if run.is_none_or(|m| key < m) => run = Some(key),
                        CoreState::NeedsOp if idle.is_none_or(|m| key < m) => idle = Some(key),
                        _ => {}
                    }
                }
                match (run, idle) {
                    (None, _) => false,
                    (Some(_), None) => true,
                    (Some(r), Some(i)) => r < i,
                }
            }
        }
    }

    /// The `HasOp` core with the smallest `(time, core)`.
    fn pick(&mut self) -> usize {
        match self.scheduler {
            Scheduler::Local => {
                let Reverse((t, c)) = self.run_heap.pop().expect("executable implies a run entry");
                debug_assert_eq!(self.state[c], CoreState::HasOp, "stale run_heap entry");
                debug_assert_eq!(self.time[c], t, "run_heap entry out of date");
                c
            }
            Scheduler::Linear => (0..self.state.len())
                .filter(|&c| self.state[c] == CoreState::HasOp)
                .min_by_key(|&c| (self.time[c], c))
                .expect("executable implies a HasOp core"),
        }
    }

    /// Execute the globally earliest queued op and deliver any resulting
    /// wakeups into reply slots (queueing targeted notifications for
    /// blocked threads on `wake_list`).
    fn execute_one(&mut self) {
        let c = self.pick();
        let (op, needs_reply) = self.queue[c].pop_front().expect("HasOp implies queued op");
        match self.machine.execute(CoreId(c), &op, self.time[c]) {
            Exec::Done { value, end } => {
                self.stats.ops_executed += 1;
                self.time[c] = end;
                if matches!(op, Op::Finish) {
                    debug_assert!(self.queue[c].is_empty(), "ops queued after Finish");
                    self.state[c] = CoreState::Done;
                    self.has_op -= 1;
                    self.done += 1;
                } else {
                    if needs_reply {
                        self.stats.round_trips += 1;
                        debug_assert!(self.reply[c].is_none(), "unclaimed reply");
                        self.reply[c] = Some(value);
                        if self.waiting[c] {
                            self.wake_list.push(c);
                        }
                    }
                    if self.queue[c].is_empty() {
                        self.has_op -= 1;
                        self.set_needs_op(c);
                    } else if self.scheduler == Scheduler::Local {
                        self.run_heap.push(Reverse((end, c)));
                    }
                }
            }
            Exec::Parked => {
                // Blocking ops are never batched and always flush the
                // batch first, so a parking core has nothing queued.
                debug_assert!(
                    self.queue[c].is_empty(),
                    "batch queued behind a blocking op"
                );
                debug_assert!(needs_reply, "blocking ops are sent individually");
                self.stats.ops_executed += 1;
                self.state[c] = CoreState::Parked;
                self.has_op -= 1;
                self.parked_now += 1;
                self.stats.peak_parked = self.stats.peak_parked.max(self.parked_now);
            }
        }
        for wk in self.machine.take_wakeups() {
            let i = wk.core.0;
            debug_assert_eq!(self.state[i], CoreState::Parked);
            self.stats.wakeups += 1;
            self.parked_now -= 1;
            self.time[i] = wk.at;
            self.reply[i] = Some(None);
            if self.waiting[i] {
                self.wake_list.push(i);
            }
            self.set_needs_op(i);
        }
        // Under CheckMode::Strict the sanitizer latches the first finding
        // (and fault injection latches unrecoverable corruption); surface
        // it as the run's error so the program stops at the faulty access
        // instead of completing with bad data.
        if let Some(err) = self.machine.take_fatal() {
            if self.dead.is_none() {
                self.dead = Some(err);
            }
        }
        if self.dead.is_none() {
            if let Some(limit) = self.watchdog_cycles {
                if self.time[c] > limit {
                    self.dead = Some(RunError::Hang {
                        detail: format!(
                            "simulated-cycle budget exceeded: core{c} reached cycle {} \
                             (budget {limit})",
                            self.time[c]
                        ),
                    });
                }
            }
        }
        if let Some(dl) = self.deadline {
            self.ops_since_wall_check += 1;
            if self.ops_since_wall_check >= WALL_CHECK_PERIOD {
                self.ops_since_wall_check = 0;
                if self.dead.is_none() && Instant::now() >= dl {
                    self.dead = Some(RunError::Hang {
                        detail: "host wall-clock watchdog expired before the run completed"
                            .to_string(),
                    });
                }
            }
        }
    }

    /// All unfinished cores are parked on synchronization: nothing can
    /// ever execute again.
    fn deadlocked(&self) -> bool {
        self.needs_op == 0 && self.has_op == 0 && self.done < self.state.len()
    }

    fn deadlock_error(&self) -> RunError {
        let parked: Vec<(usize, String)> = (0..self.state.len())
            .filter(|&c| self.state[c] == CoreState::Parked)
            .map(|c| {
                let cat = self
                    .machine
                    .parked_category(CoreId(c))
                    .map(|cat| cat.label())
                    .unwrap_or("?");
                (c, cat.to_string())
            })
            .collect();
        let trace_tail = if self.machine.trace().enabled() {
            self.machine.trace().render()
        } else {
            String::new()
        };
        RunError::Deadlock { parked, trace_tail }
    }
}

/// The engine handle shared by all thread contexts of one run: either
/// the sequential single-lock engine or the local-retire one.
/// `ThreadCtx` only ever calls `submit` / `submit_await` / `mark_dead`,
/// so the two implementations are interchangeable behind this enum.
pub(crate) enum EngineShared {
    Seq(SeqEngine),
    Local(crate::sharded::LocalEngine),
}

impl EngineShared {
    fn new(machine: Machine, shared: &RtShared) -> EngineShared {
        // Checker, fault plan, tracing, or a coherent backend: the
        // core-local fast path would change observable order, so the
        // whole run serializes through the sequential heap engine.
        if shared.scheduler == Scheduler::Local && machine.supports_sharding() {
            return EngineShared::Local(crate::sharded::LocalEngine::new(machine, shared));
        }
        EngineShared::Seq(SeqEngine::new(machine, shared))
    }

    pub(crate) fn submit(&self, c: usize, msg: Op) {
        match self {
            EngineShared::Seq(e) => e.submit(c, msg),
            EngineShared::Local(e) => e.submit(c, msg),
        }
    }

    pub(crate) fn submit_await(&self, c: usize, op: Op) -> Option<Word> {
        match self {
            EngineShared::Seq(e) => e.submit_await(c, op),
            EngineShared::Local(e) => e.submit_await(c, op),
        }
    }

    pub(crate) fn mark_dead(&self, err: RunError) {
        match self {
            EngineShared::Seq(e) => e.mark_dead(err),
            EngineShared::Local(e) => e.mark_dead(err),
        }
    }

    fn await_completion(&self) -> Option<RunError> {
        match self {
            EngineShared::Seq(e) => e.await_completion(),
            EngineShared::Local(e) => e.await_completion(),
        }
    }
}

/// The single-lock cooperative engine (`Scheduler::Linear`, and the
/// fallback of `Scheduler::Local`): submitting threads drive execution
/// under one mutex.
pub(crate) struct SeqEngine {
    core: Mutex<EngineCore>,
    /// One condvar per core: its thread blocks here awaiting a reply.
    cvs: Vec<Condvar>,
    /// The spawning thread blocks here awaiting completion.
    cv_main: Condvar,
}

impl SeqEngine {
    fn new(machine: Machine, shared: &RtShared) -> SeqEngine {
        SeqEngine {
            core: Mutex::new(EngineCore::new(machine, shared)),
            cvs: (0..shared.nthreads).map(|_| Condvar::new()).collect(),
            cv_main: Condvar::new(),
        }
    }

    /// Lock the scheduler state, recovering from poisoning: teardown
    /// after an app-thread panic still needs to set the dead flag and
    /// wake sleepers so the thread scope can join.
    fn lock(&self) -> MutexGuard<'_, EngineCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deliver the targeted notifications queued by `execute_one`.
    fn flush_wakes(&self, g: &mut MutexGuard<'_, EngineCore>) {
        while let Some(i) = g.wake_list.pop() {
            self.cvs[i].notify_all();
        }
        if g.main_waiting && (g.done == g.state.len() || g.dead.is_some()) {
            self.cv_main.notify_all();
        }
    }

    fn wake_everyone(&self, g: &mut MutexGuard<'_, EngineCore>) {
        g.wake_list.clear();
        for cv in &self.cvs {
            cv.notify_all();
        }
        self.cv_main.notify_all();
    }

    /// Declare the run dead: latch the first error, wake every blocked
    /// thread, release the lock, and unwind the calling app thread with
    /// the quiet [`EngineDead`] sentinel (caught by its wrapper in
    /// [`run_threads`], so this is teardown, not a process abort).
    fn die(&self, mut g: MutexGuard<'_, EngineCore>, err: RunError) -> ! {
        if g.dead.is_none() {
            g.dead = Some(err);
        }
        self.wake_everyone(&mut g);
        drop(g);
        std::panic::panic_any(EngineDead);
    }

    /// Submit a fire-and-forget message (a batch or `Finish`) for core
    /// `c`, then execute everything that is safe to execute.
    pub(crate) fn submit(&self, c: usize, msg: Op) {
        let mut g = self.lock();
        if let Some(err) = g.dead.clone() {
            self.die(g, err);
        }
        g.enqueue(c, msg);
        while g.dead.is_none() && g.executable() {
            g.execute_one();
        }
        if let Some(err) = g.dead.clone() {
            self.die(g, err);
        }
        self.flush_wakes(&mut g);
        if g.deadlocked() {
            let err = g.deadlock_error();
            self.die(g, err);
        }
    }

    /// Submit a reply-carrying op for core `c` and drive the scheduler —
    /// executing pending ops of any core in global time order — until
    /// this core's reply is produced.
    pub(crate) fn submit_await(&self, c: usize, op: Op) -> Option<Word> {
        let mut g = self.lock();
        if let Some(err) = g.dead.clone() {
            self.die(g, err);
        }
        g.enqueue(c, op);
        let mut slept = false;
        loop {
            // Check death *before* consuming a reply: when Strict
            // checking kills the run at this core's own faulty access,
            // the access has a reply, but the thread must die with it.
            if let Some(err) = g.dead.clone() {
                self.die(g, err);
            }
            if let Some(r) = g.reply[c].take() {
                self.flush_wakes(&mut g);
                return r;
            }
            if g.executable() {
                g.execute_one();
                continue;
            }
            self.flush_wakes(&mut g);
            if g.deadlocked() {
                let err = g.deadlock_error();
                self.die(g, err);
            }
            if !slept {
                slept = true;
                g.stats.handoffs += 1;
            }
            g.waiting[c] = true;
            g = self.cvs[c].wait(g).unwrap_or_else(|e| e.into_inner());
            g.waiting[c] = false;
        }
    }

    /// Block the spawning thread until every core has finished (returns
    /// `None`) or the run dies (returns the latched error, after waking
    /// every blocked app thread so the scope can join). The app threads
    /// do all the driving — the final `Finish` submission drains the
    /// remaining queues before its thread exits.
    fn await_completion(&self) -> Option<RunError> {
        let mut g = self.lock();
        loop {
            if let Some(err) = g.dead.clone() {
                self.wake_everyone(&mut g);
                return Some(err);
            }
            if g.done == g.state.len() {
                return None;
            }
            g.main_waiting = true;
            g = self.cv_main.wait(g).unwrap_or_else(|e| e.into_inner());
            g.main_waiting = false;
        }
    }

    /// Record that an app thread died without finishing, and wake every
    /// blocked thread so the run tears down instead of hanging.
    pub(crate) fn mark_dead(&self, err: RunError) {
        let mut g = self.lock();
        if g.dead.is_none() {
            g.dead = Some(err);
        }
        self.wake_everyone(&mut g);
    }
}

/// Run `body` on `nthreads` simulated threads over `machine`.
/// Returns the machine (for result inspection), the run statistics, and
/// the [`RunError`] that killed the run, if any. Every app thread is
/// woken and joined before this returns — even on failure the process is
/// left reusable for further runs.
pub(crate) fn run_threads<F>(
    machine: Machine,
    shared: Arc<RtShared>,
    nthreads: usize,
    body: F,
) -> (Machine, RunStats, Option<RunError>)
where
    F: Fn(&ThreadCtx) + Send + Sync,
{
    assert!(nthreads >= 1);
    assert!(
        nthreads <= machine.config().num_cores(),
        "more threads ({nthreads}) than cores ({})",
        machine.config().num_cores()
    );

    install_quiet_hook();
    let engine = Arc::new(EngineShared::new(machine, &shared));
    let body = &body;
    let error = std::thread::scope(|scope| {
        for tid in 0..nthreads {
            let shared = Arc::clone(&shared);
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let exit = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let ctx = ThreadCtx::new(tid, engine, shared);
                    body(&ctx);
                    ctx.finish();
                }));
                if let Err(payload) = exit {
                    // EngineDead is the engine's own quiet teardown
                    // signal — swallow it so the scope joins cleanly.
                    // Anything else is a genuine app-thread panic: the
                    // ThreadCtx destructor already latched ThreadDied
                    // during the unwind (releasing the other threads),
                    // so re-raise it for the caller to see.
                    if !payload.is::<EngineDead>() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
        // The spawning thread waits for completion; on death it returns
        // the latched error after waking every blocked app thread, so
        // the scope joins instead of hanging.
        engine.await_completion()
    });

    let shared = Arc::try_unwrap(engine)
        .ok()
        .expect("all thread contexts are dropped after the scope joins");
    match shared {
        EngineShared::Seq(seq) => {
            let core = seq.core.into_inner().unwrap_or_else(|e| e.into_inner());
            let mut stats = if error.is_some() {
                core.machine.finish_after_failure()
            } else {
                core.machine.finish()
            };
            stats.engine = core.stats;
            (core.machine, stats, error)
        }
        EngineShared::Local(local) => local.teardown(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, IntraConfig};
    use hic_mem::{Region, WordAddr};
    use hic_sim::MachineConfig;

    fn harness(nthreads: usize, cfg: Config, transport: Transport) -> (Machine, Arc<RtShared>) {
        let machine = if cfg.is_coherent() {
            Machine::coherent(MachineConfig::intra_block())
        } else {
            Machine::incoherent(MachineConfig::intra_block())
        };
        let shared = Arc::new(RtShared {
            config: cfg,
            locks: Vec::new(),
            nthreads,
            transport,
            scheduler: Scheduler::default(),
            checking: false,
            overrides: None,
            watchdog_cycles: None,
            watchdog_wall_ms: None,
        });
        (machine, shared)
    }

    #[test]
    fn single_thread_store_load() {
        let (machine, shared) = harness(1, Config::Intra(IntraConfig::Base), Transport::default());
        let (machine, stats, err) = run_threads(machine, shared, 1, |ctx| {
            let r = Region::new(WordAddr(16), 4);
            ctx.write(r, 0, 7);
            assert_eq!(ctx.read(r, 0), 7);
            ctx.compute(100);
            // Post the value so a fresh reader (peek) sees it.
            ctx.coh(hic_core::CohInstr::wb_all());
        });
        assert!(err.is_none());
        assert!(stats.total_cycles >= 100);
        assert_eq!(machine.peek_word(WordAddr(16)), 7);
    }

    #[test]
    fn threads_run_deterministically() {
        let run = |transport: Transport| {
            let (machine, shared) = harness(4, Config::Intra(IntraConfig::Base), transport);
            let mut m2 = machine;
            let b = m2.alloc_barrier(4);
            let shared2 = shared;
            let (_, stats, _) = run_threads(m2, shared2, 4, move |ctx| {
                let r = Region::new(WordAddr(16 * (1 + ctx.tid() as u64)), 4);
                for i in 0..4 {
                    ctx.write(r, i, (ctx.tid() as u32 + 1) * 10 + i as u32);
                }
                ctx.compute(ctx.tid() as u64 * 13);
                ctx.barrier(crate::ctx::BarrierId(b));
            });
            stats
        };
        let a = run(Transport::default());
        let b = run(Transport::default());
        assert_eq!(
            a.total_cycles, b.total_cycles,
            "same program, same cycle count"
        );
        // And the batched transport must not change simulated results at
        // all relative to the synchronous one...
        let s = run(Transport::Sync);
        assert_eq!(a.total_cycles, s.total_cycles);
        assert_eq!(a.ledgers, s.ledgers);
        assert_eq!(a.traffic, s.traffic);
        // ...while actually saving host round-trips.
        assert!(a.engine.batches > 0, "batched run coalesced messages");
        assert!(a.engine.round_trips < s.engine.round_trips);
        assert_eq!(a.engine.ops_executed, s.engine.ops_executed);
        assert_eq!(s.engine.batches, 0);
    }

    #[test]
    fn schedulers_are_observationally_identical() {
        let run = |scheduler: Scheduler| {
            let shared = Arc::new(RtShared {
                config: Config::Intra(IntraConfig::Base),
                locks: Vec::new(),
                nthreads: 4,
                transport: Transport::default(),
                scheduler,
                checking: false,
                overrides: None,
                watchdog_cycles: None,
                watchdog_wall_ms: None,
            });
            let mut m2 = Machine::incoherent(MachineConfig::intra_block());
            let b = m2.alloc_barrier(4);
            let (_, stats, _) = run_threads(m2, shared, 4, move |ctx| {
                let r = Region::new(WordAddr(16 * (1 + ctx.tid() as u64)), 4);
                for i in 0..4 {
                    ctx.write(r, i, (ctx.tid() as u32 + 1) * 10 + i as u32);
                }
                ctx.compute(ctx.tid() as u64 * 13);
                ctx.barrier(crate::ctx::BarrierId(b));
            });
            stats
        };
        let local = run(Scheduler::Local);
        let linear = run(Scheduler::Linear);
        assert!(local.engine.shard_local_ops > 0, "local retire engaged");
        assert_eq!(local.total_cycles, linear.total_cycles);
        assert_eq!(local.ledgers, linear.ledgers);
        assert_eq!(local.traffic, linear.traffic);
        assert_eq!(local.engine.ops_executed, linear.engine.ops_executed);
    }

    #[test]
    fn engine_counts_wakeups_and_peak_parked() {
        let (machine, shared) = harness(4, Config::Intra(IntraConfig::Hcc), Transport::default());
        let mut m2 = machine;
        let b = m2.alloc_barrier(4);
        let (_, stats, _) = run_threads(m2, shared, 4, move |ctx| {
            ctx.compute(10 * (1 + ctx.tid() as u64));
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none());
        });
        // Three cores park at the barrier; the fourth arrival wakes them.
        assert_eq!(stats.engine.wakeups, 3);
        assert_eq!(stats.engine.peak_parked, 3);
    }

    #[test]
    fn missing_barrier_arrival_is_detected() {
        let (mut machine, shared) =
            harness(2, Config::Intra(IntraConfig::Hcc), Transport::default());
        let b = machine.alloc_barrier(3); // 3 participants, only 2 threads!
        let (_, _, err) = run_threads(machine, shared, 2, move |ctx| {
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none());
        });
        let Some(RunError::Deadlock { parked, .. }) = err else {
            unreachable!("expected a deadlock error, got {err:?}");
        };
        assert_eq!(parked.len(), 2, "both cores parked: {parked:?}");
    }

    #[test]
    fn deadlock_error_names_stall_categories_and_trace() {
        let (mut machine, shared) =
            harness(2, Config::Intra(IntraConfig::Hcc), Transport::default());
        machine.enable_trace(32);
        let b = machine.alloc_barrier(3);
        let (_, _, err) = run_threads(machine, shared, 2, move |ctx| {
            ctx.compute(5);
            ctx.barrier_with(crate::ctx::BarrierId(b), crate::ctx::BarrierOpts::none());
        });
        let msg = err.expect("must deadlock").to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(
            msg.contains("barrier stall"),
            "stall category missing: {msg}"
        );
        assert!(msg.contains("BarrierArrive"), "trace tail missing: {msg}");
    }

    #[test]
    fn cycle_watchdog_reports_hang() {
        let (machine, _) = harness(1, Config::Intra(IntraConfig::Base), Transport::default());
        let shared = Arc::new(RtShared {
            config: Config::Intra(IntraConfig::Base),
            locks: Vec::new(),
            nthreads: 1,
            transport: Transport::default(),
            scheduler: Scheduler::default(),
            checking: false,
            overrides: None,
            watchdog_cycles: Some(50),
            watchdog_wall_ms: None,
        });
        let (_, _, err) = run_threads(machine, shared, 1, |ctx| {
            for _ in 0..100 {
                ctx.compute(10);
            }
        });
        let Some(RunError::Hang { detail }) = err else {
            unreachable!("expected a hang error, got {err:?}");
        };
        assert!(detail.contains("budget"), "{detail}");
    }
}
