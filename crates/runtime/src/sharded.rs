//! Local-retire conservative PDES engine (`Scheduler::Local`, the
//! default for every machine that `Machine::supports_sharding` admits).
//!
//! The sequential engine (`crate::engine`) executes every op under one
//! mutex in nondecreasing `(local time, core id)` key order. Profiling
//! (`BENCH_host.json`) shows the overwhelming majority of those ops are
//! **core-local**: L1-hit loads and stores, compute bursts, and the
//! zero-latency epoch markers. None of them reads or writes anything
//! outside the issuing core's private L1/MEB/IEB slice, none of them
//! moves a flit, and their latencies depend only on configuration — so
//! executing them out of global key order is unobservable. That is the
//! classic conservative parallel-discrete-event-simulation argument,
//! with the mesh's minimum hop latency (`Mesh::min_hop_lookahead`)
//! guaranteeing that no cross-tile effect can complete faster than the
//! ops we commute past it.
//!
//! This engine splits execution into two kinds of event domain:
//!
//! * **Per-core slots** — one mutex per core around its `PartSlot`:
//!   the detachable [`CoreSlice`] (L1 + MEB + IEB, checked out of the
//!   machine at start-up), a private stall ledger, the core's clock, and
//!   local counters. Only the core's own thread ever takes its slot
//!   lock, so a core-local op retires on the issuing thread with one
//!   uncontended lock and no hand-off: threads proceed fully in
//!   parallel.
//! * **The global domain** — one mutex around the [`Machine`] plus the
//!   scheduler bookkeeping. Every op that touches shared state (cache
//!   misses, uncached accesses, WB/INV, synchronization, `Finish`)
//!   is *presented* to the global domain and executed by the classic
//!   conservative rule: the earliest pending `(time, core)` key runs
//!   only once no locally retiring core could still present an earlier
//!   one.
//!
//! The conservative bound is communicated through per-core `published`
//! clocks (atomics written by the app threads) and a `wait_min` atomic
//! (written by the global driver): a local thread that advances its
//! clock past `wait_min` takes the global lock and drives, using the
//! Dekker-style store-then-load protocol on SeqCst atomics so a wakeup
//! can never be missed.
//!
//! **Observational equality.** The global domain executes exactly the
//! ops the sequential engine would execute on the machine, in exactly
//! the same key order, from identical per-core clocks; the commuted
//! local ops touch disjoint per-core state with config-only latencies
//! and charge only the `Rest` stall category (merged into the machine's
//! ledgers at teardown — sums are commutative). Simulated cycles, stall
//! ledgers, all six traffic categories, event counters, and readable
//! memory are therefore **bit-identical** to `Scheduler::Linear`; the
//! property suite (`tests/prop_scheduler.rs`) and the golden-equivalence
//! suite pin this.
//!
//! Machines local retire cannot serve — coherent backends, an attached
//! sanitizer, a fault plan, tracing — never reach this module: the
//! facade in `crate::engine` serializes them through the sequential
//! heap engine (checking "serializes through the global domain" by
//! construction).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use hic_machine::{CoreSlice, Exec, Machine, Op, RunError, RunStats};
use hic_mem::Word;
use hic_sim::{CoreId, Cycle, EngineStats, StallCategory, StallLedger};

use crate::ctx::RtShared;
use crate::engine::{EngineDead, WALL_CHECK_PERIOD};

/// A core's scheduling state as seen by the global domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// The core's thread is retiring local ops against its slot (or
    /// running host code between ops); its `published` clock bounds the
    /// key of whatever it presents next. Equivalent to the sequential
    /// engine's `NeedsOp`: later-keyed pending ops must wait for it.
    Local,
    /// The core has presented a global op that has not executed yet.
    Queued,
    /// The core's op parked it inside the machine on a sync grant.
    Parked,
    /// The core executed `Finish`.
    Done,
}

/// Per-core state owned by the core's thread: the detachable machine
/// slice plus everything the local fast path needs without the global
/// lock.
struct PartSlot {
    /// The core's L1/MEB/IEB, checked out of the machine. `None` while
    /// the core is presenting a global op (the slice is then attached
    /// to the machine so the driver can execute against it).
    slice: Option<CoreSlice>,
    /// Stall cycles charged by local ops (always `Rest`); merged into
    /// the machine's per-core ledger at teardown.
    ledger: StallLedger,
    /// The core's local simulated clock (mirrors `published[c]`).
    time: Cycle,
    local_ops: u64,
    messages: u64,
    batches: u64,
    round_trips: u64,
    /// Ops routed through the global domain.
    global_ops: u64,
    /// Global-lock acquisitions that found the lock held.
    lock_waits: u64,
    /// Local ops since the last host wall-clock watchdog check.
    ops_since_wall: u32,
}

impl PartSlot {
    fn new(slice: CoreSlice) -> PartSlot {
        PartSlot {
            slice: Some(slice),
            ledger: StallLedger::new(),
            time: 0,
            local_ops: 0,
            messages: 0,
            batches: 0,
            round_trips: 0,
            global_ops: 0,
            lock_waits: 0,
            ops_since_wall: 0,
        }
    }
}

/// The global event domain: the machine and the conservative scheduler.
struct GlobalState {
    machine: Machine,
    status: Vec<Status>,
    /// Pending global op per `Queued` core: `(op, needs_reply)`.
    pending: Vec<Option<(Op, bool)>>,
    /// The core's clock as known to the global domain.
    gtime: Vec<Cycle>,
    /// Reply slot, filled when the core's presented op completes. Set
    /// for every non-`Finish` op — the presenting thread always waits
    /// for the end time — but only `needs_reply` ops count round-trips.
    reply: Vec<Option<Option<Word>>>,
    /// Per-core flag: the thread is blocked on its condvar.
    waiting: Vec<bool>,
    wake_list: Vec<usize>,
    main_waiting: bool,
    /// Cores in `Status::Local`.
    locals: usize,
    /// Cores in `Status::Queued`.
    queued: usize,
    done: usize,
    parked_now: u64,
    dead: Option<RunError>,
    watchdog_cycles: Option<Cycle>,
    deadline: Option<Instant>,
    ops_since_wall: u32,
    // Global-domain halves of the EngineStats ledger.
    ops_executed: u64,
    round_trips: u64,
    wakeups: u64,
    peak_parked: u64,
    lookahead_stalls: u64,
    handoffs: u64,
}

/// The local-retire engine handle (see the module docs for the
/// protocol).
pub(crate) struct LocalEngine {
    /// `slots[c]` is core `c`'s slot; only core `c`'s thread (and
    /// teardown) ever locks it.
    slots: Vec<Mutex<PartSlot>>,
    global: Mutex<GlobalState>,
    /// Per-core published clocks: the conservative bound. A `Local`
    /// core's next op can only carry a key `>= (published[c], c)`.
    published: Vec<AtomicU64>,
    /// Time component of the earliest blocked pending key (`u64::MAX`
    /// when nothing is blocked). Local threads that advance past it
    /// take the global lock and drive; the Dekker store/load pairing
    /// with `published` makes the handoff missed-wakeup-free.
    wait_min: AtomicU64,
    /// Lock-free mirror of `GlobalState::dead.is_some()`.
    dead: AtomicBool,
    /// One condvar per core: its thread blocks here while its presented
    /// op waits for the conservative bound.
    cvs: Vec<Condvar>,
    cv_main: Condvar,
    /// L1 round-trip latency, the only timing the local path needs.
    l1_rt: u64,
    /// Watchdogs, immutable after construction so the local path can
    /// check them without the global lock (the driver keeps its own
    /// copies inside `GlobalState`).
    watchdog_cycles: Option<Cycle>,
    deadline: Option<Instant>,
}

impl LocalEngine {
    pub(crate) fn new(mut machine: Machine, shared: &RtShared) -> LocalEngine {
        let n = shared.nthreads;
        let l1_rt = machine.config().l1_rt;
        let watchdog_cycles = shared.watchdog_cycles;
        let deadline = shared
            .watchdog_wall_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        let slots = (0..n)
            .map(|c| {
                let slice = machine
                    .detach_core(CoreId(c))
                    .expect("supports_sharding implies detachable cores");
                Mutex::new(PartSlot::new(slice))
            })
            .collect();
        LocalEngine {
            slots,
            global: Mutex::new(GlobalState {
                machine,
                status: vec![Status::Local; n],
                pending: (0..n).map(|_| None).collect(),
                gtime: vec![0; n],
                reply: vec![None; n],
                waiting: vec![false; n],
                wake_list: Vec::with_capacity(n),
                main_waiting: false,
                locals: n,
                queued: 0,
                done: 0,
                parked_now: 0,
                dead: None,
                watchdog_cycles,
                deadline,
                ops_since_wall: 0,
                ops_executed: 0,
                round_trips: 0,
                wakeups: 0,
                peak_parked: 0,
                lookahead_stalls: 0,
                handoffs: 0,
            }),
            published: (0..n).map(|_| AtomicU64::new(0)).collect(),
            wait_min: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            cv_main: Condvar::new(),
            l1_rt,
            watchdog_cycles,
            deadline,
        }
    }

    fn lock_slot(&self, c: usize) -> MutexGuard<'_, PartSlot> {
        self.slots[c].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the global domain, counting a contention miss against the
    /// core's slot when the lock was already held.
    fn lock_global(&self, lock_waits: &mut u64) -> MutexGuard<'_, GlobalState> {
        match self.global.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                *lock_waits += 1;
                self.global.lock().unwrap_or_else(|e| e.into_inner())
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    fn lock_global_plain(&self) -> MutexGuard<'_, GlobalState> {
        self.global.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deliver the targeted notifications queued by the driver.
    fn flush_wakes(&self, g: &mut MutexGuard<'_, GlobalState>) {
        while let Some(i) = g.wake_list.pop() {
            self.cvs[i].notify_all();
        }
        if g.main_waiting && (g.done == g.status.len() || g.dead.is_some()) {
            self.cv_main.notify_all();
        }
    }

    fn wake_everyone(&self, g: &mut MutexGuard<'_, GlobalState>) {
        g.wake_list.clear();
        for cv in &self.cvs {
            cv.notify_all();
        }
        self.cv_main.notify_all();
    }

    /// Declare the run dead and unwind the calling app thread with the
    /// quiet `EngineDead` sentinel (mirrors `SeqEngine::die`).
    fn die(&self, mut g: MutexGuard<'_, GlobalState>, err: RunError) -> ! {
        if g.dead.is_none() {
            g.dead = Some(err);
        }
        self.dead.store(true, SeqCst);
        self.wake_everyone(&mut g);
        drop(g);
        std::panic::panic_any(EngineDead);
    }

    /// Die with whatever error is already latched (lock-free fast path
    /// saw the `dead` mirror set).
    fn die_latched(&self) -> ! {
        let g = self.lock_global_plain();
        let err = g.dead.clone().unwrap_or(RunError::ThreadDied {
            detail: "engine torn down before the run completed".to_string(),
        });
        self.die(g, err);
    }

    pub(crate) fn mark_dead(&self, err: RunError) {
        let mut g = self.lock_global_plain();
        if g.dead.is_none() {
            g.dead = Some(err);
        }
        self.dead.store(true, SeqCst);
        self.wake_everyone(&mut g);
    }

    pub(crate) fn await_completion(&self) -> Option<RunError> {
        let mut g = self.lock_global_plain();
        loop {
            if let Some(err) = g.dead.clone() {
                self.wake_everyone(&mut g);
                return Some(err);
            }
            if g.done == g.status.len() {
                return None;
            }
            g.main_waiting = true;
            g = self.cv_main.wait(g).unwrap_or_else(|e| e.into_inner());
            g.main_waiting = false;
        }
    }

    /// Submit a fire-and-forget message (a batch or `Finish`) for core
    /// `c` (mirrors `SeqEngine::submit`).
    pub(crate) fn submit(&self, c: usize, msg: Op) {
        if self.dead.load(SeqCst) {
            self.die_latched();
        }
        match msg {
            Op::Batch(ops) => {
                debug_assert!(!ops.is_empty(), "empty batch message");
                let mut g = self.lock_slot(c);
                g.messages += 1;
                g.batches += 1;
                for op in ops {
                    debug_assert!(op.is_batchable(), "non-batchable op in batch: {op:?}");
                    g = self.run_op(c, g, op, false).1;
                }
            }
            Op::Finish => {
                let mut g = self.lock_slot(c);
                g.messages += 1;
                self.present_finish(c, g);
            }
            op => {
                let mut g = self.lock_slot(c);
                g.messages += 1;
                drop(self.run_op(c, g, op, false));
            }
        }
    }

    /// Submit a reply-carrying op for core `c` and return its value
    /// (mirrors `SeqEngine::submit_await`).
    pub(crate) fn submit_await(&self, c: usize, op: Op) -> Option<Word> {
        if self.dead.load(SeqCst) {
            self.die_latched();
        }
        let mut g = self.lock_slot(c);
        g.messages += 1;
        self.run_op(c, g, op, true).0
    }

    /// Execute one op for core `c`: locally against its slot when the
    /// core slice can retire it, otherwise through the global domain.
    /// Takes and returns the slot guard so batch members run without
    /// re-locking in the common all-local case.
    fn run_op<'a>(
        &'a self,
        c: usize,
        mut g: MutexGuard<'a, PartSlot>,
        op: Op,
        needs_reply: bool,
    ) -> (Option<Word>, MutexGuard<'a, PartSlot>) {
        let slot = &mut *g;
        let slice = slot
            .slice
            .as_mut()
            .expect("thread owns its slice between ops");
        if let Some((value, lat)) = slice.try_execute(&op, self.l1_rt) {
            slot.ledger.charge(StallCategory::Rest, lat);
            slot.time += lat;
            slot.local_ops += 1;
            if needs_reply {
                slot.round_trips += 1;
            }
            let now = slot.time;
            let mut fatal: Option<RunError> = None;
            if let Some(limit) = self.watchdog_cycles {
                if now > limit {
                    fatal = Some(RunError::Hang {
                        detail: format!(
                            "simulated-cycle budget exceeded: core{c} reached cycle {now} \
                             (budget {limit})"
                        ),
                    });
                }
            }
            if let Some(dl) = self.deadline {
                slot.ops_since_wall += 1;
                if slot.ops_since_wall >= WALL_CHECK_PERIOD {
                    slot.ops_since_wall = 0;
                    if fatal.is_none() && Instant::now() >= dl {
                        fatal = Some(RunError::Hang {
                            detail: "host wall-clock watchdog expired before the run completed"
                                .to_string(),
                        });
                    }
                }
            }
            if let Some(err) = fatal {
                drop(g);
                let gg = self.lock_global_plain();
                self.die(gg, err);
            }
            if self.dead.load(SeqCst) {
                drop(g);
                self.die_latched();
            }
            // Publish the new clock, then (Dekker pairing with the
            // driver's wait_min-store / published-load) check whether
            // the global domain was waiting for this core to get past a
            // blocked pending key — if so, take the global lock and
            // drive it forward. Holding the slot guard here is fine:
            // slot -> global is the legal lock order and the driver
            // never touches slots.
            self.published[c].store(now, SeqCst);
            if now >= self.wait_min.load(SeqCst) {
                let mut gg = self.lock_global(&mut g.lock_waits);
                self.drive(&mut gg);
                let flushed = gg.dead.clone();
                self.flush_wakes(&mut gg);
                if let Some(err) = flushed {
                    drop(g);
                    self.die(gg, err);
                }
            }
            return (value, g);
        }
        self.present_global(c, g, op, needs_reply)
    }

    /// Hand core `c`'s slice to the machine, queue `op` at the core's
    /// clock in the global domain, and drive. The slot guard stays held
    /// throughout (only this thread ever takes it, and slot -> global is
    /// the legal lock order), so no other lock is needed to give the
    /// slice back afterwards.
    fn enqueue_global<'a>(
        &'a self,
        c: usize,
        slot: &mut PartSlot,
        op: Op,
        needs_reply: bool,
    ) -> MutexGuard<'a, GlobalState> {
        slot.global_ops += 1;
        let slice = slot
            .slice
            .take()
            .expect("thread owns its slice between ops");
        let mut gg = self.lock_global(&mut slot.lock_waits);
        // Attach before any die path so the slice can never be lost:
        // from here on the machine owns it until it is detached again.
        gg.machine.attach_core(CoreId(c), slice);
        if let Some(err) = gg.dead.clone() {
            self.die(gg, err);
        }
        debug_assert_eq!(
            gg.status[c],
            Status::Local,
            "core presented while not local"
        );
        gg.status[c] = Status::Queued;
        gg.locals -= 1;
        gg.queued += 1;
        gg.gtime[c] = slot.time;
        gg.pending[c] = Some((op, needs_reply));
        self.drive(&mut gg);
        gg
    }

    /// Route `op` through the global domain and wait until the driver
    /// executes it (in conservative key order), then take the slice back
    /// at the op's end time.
    fn present_global<'a>(
        &'a self,
        c: usize,
        mut g: MutexGuard<'a, PartSlot>,
        op: Op,
        needs_reply: bool,
    ) -> (Option<Word>, MutexGuard<'a, PartSlot>) {
        let mut gg = self.enqueue_global(c, &mut g, op, needs_reply);
        let mut slept = false;
        loop {
            if let Some(err) = gg.dead.clone() {
                self.die(gg, err);
            }
            if let Some(r) = gg.reply[c].take() {
                g.time = gg.gtime[c];
                g.slice = Some(
                    gg.machine
                        .detach_core(CoreId(c))
                        .expect("local-retire machine has detachable cores"),
                );
                self.flush_wakes(&mut gg);
                return (r, g);
            }
            self.flush_wakes(&mut gg);
            if !slept {
                slept = true;
                gg.handoffs += 1;
            }
            gg.waiting[c] = true;
            gg = self.cvs[c].wait(gg).unwrap_or_else(|e| e.into_inner());
            gg.waiting[c] = false;
        }
    }

    /// Present `Finish` fire-and-forget: the slice stays attached to the
    /// machine for good (final stats and peeks read it there), and the
    /// thread returns without waiting — the last finisher's `drive`
    /// call drains everything left, exactly like the sequential engine.
    fn present_finish(&self, c: usize, mut g: MutexGuard<'_, PartSlot>) {
        let mut gg = self.enqueue_global(c, &mut g, Op::Finish, false);
        let dead = gg.dead.clone();
        self.flush_wakes(&mut gg);
        if let Some(err) = dead {
            self.die(gg, err);
        }
    }

    /// The conservative driver: execute pending global ops in
    /// `(time, core)` key order while the bound allows, then publish
    /// `wait_min` for the locally retiring threads. Must run under the
    /// global lock.
    fn drive(&self, gg: &mut MutexGuard<'_, GlobalState>) {
        let n = gg.status.len();
        loop {
            if gg.dead.is_some() {
                self.wait_min.store(u64::MAX, SeqCst);
                return;
            }
            // Earliest pending key.
            let mut best: Option<(Cycle, usize)> = None;
            for c in 0..n {
                if gg.status[c] == Status::Queued {
                    let key = (gg.gtime[c], c);
                    if best.is_none_or(|m| key < m) {
                        best = Some(key);
                    }
                }
            }
            let Some((t, c)) = best else {
                self.wait_min.store(u64::MAX, SeqCst);
                break;
            };
            // Conservative bound: every Local core could still present
            // an op at its published clock. Publish what we are waiting
            // for FIRST, then re-read the published clocks — the SeqCst
            // total order guarantees that a local thread advancing past
            // `t` either sees our store (and comes to drive) or we see
            // its new clock here.
            self.wait_min.store(t, SeqCst);
            let blocked = (0..n).any(|x| {
                gg.status[x] == Status::Local && (self.published[x].load(SeqCst), x) < (t, c)
            });
            if blocked {
                gg.lookahead_stalls += 1;
                return;
            }
            self.execute_pending(gg, c);
        }
        // Nothing pending: if no core can ever make progress again, the
        // run is deadlocked (mirrors `EngineCore::deadlocked`).
        if gg.dead.is_none() && gg.locals == 0 && gg.queued == 0 && gg.done < n {
            let err = self.deadlock_error(gg);
            gg.dead = Some(err);
            self.dead.store(true, SeqCst);
            self.wake_everyone(gg);
        }
    }

    /// Execute core `c`'s pending op on the machine and deliver the
    /// consequences (mirrors `EngineCore::execute_one`).
    fn execute_pending(&self, gg: &mut MutexGuard<'_, GlobalState>, c: usize) {
        let (op, needs_reply) = gg.pending[c].take().expect("queued core has a pending op");
        let now = gg.gtime[c];
        gg.queued -= 1;
        match gg.machine.execute(CoreId(c), &op, now) {
            Exec::Done { value, end } => {
                gg.ops_executed += 1;
                gg.gtime[c] = end;
                if matches!(op, Op::Finish) {
                    gg.status[c] = Status::Done;
                    gg.done += 1;
                } else {
                    // The core immediately counts as Local again at its
                    // completed clock — its next op (possibly an earlier
                    // key than other pending ops) must keep blocking
                    // them, exactly like a sequential `NeedsOp` core.
                    gg.status[c] = Status::Local;
                    gg.locals += 1;
                    self.published[c].store(end, SeqCst);
                    if needs_reply {
                        gg.round_trips += 1;
                    }
                    debug_assert!(gg.reply[c].is_none(), "unclaimed reply");
                    gg.reply[c] = Some(value);
                    if gg.waiting[c] {
                        gg.wake_list.push(c);
                    }
                }
            }
            Exec::Parked => {
                debug_assert!(needs_reply, "blocking ops are sent individually");
                gg.ops_executed += 1;
                gg.status[c] = Status::Parked;
                gg.parked_now += 1;
                gg.peak_parked = gg.peak_parked.max(gg.parked_now);
            }
        }
        for wk in gg.machine.take_wakeups() {
            let i = wk.core.0;
            debug_assert_eq!(gg.status[i], Status::Parked);
            gg.wakeups += 1;
            gg.parked_now -= 1;
            gg.status[i] = Status::Local;
            gg.locals += 1;
            gg.gtime[i] = wk.at;
            self.published[i].store(wk.at, SeqCst);
            gg.reply[i] = Some(None);
            if gg.waiting[i] {
                gg.wake_list.push(i);
            }
        }
        if let Some(err) = gg.machine.take_fatal() {
            if gg.dead.is_none() {
                gg.dead = Some(err);
                self.dead.store(true, SeqCst);
            }
        }
        if gg.dead.is_none() {
            if let Some(limit) = gg.watchdog_cycles {
                if gg.gtime[c] > limit {
                    gg.dead = Some(RunError::Hang {
                        detail: format!(
                            "simulated-cycle budget exceeded: core{c} reached cycle {} \
                             (budget {limit})",
                            gg.gtime[c]
                        ),
                    });
                    self.dead.store(true, SeqCst);
                }
            }
        }
        if let Some(dl) = gg.deadline {
            gg.ops_since_wall += 1;
            if gg.ops_since_wall >= WALL_CHECK_PERIOD {
                gg.ops_since_wall = 0;
                if gg.dead.is_none() && Instant::now() >= dl {
                    gg.dead = Some(RunError::Hang {
                        detail: "host wall-clock watchdog expired before the run completed"
                            .to_string(),
                    });
                    self.dead.store(true, SeqCst);
                }
            }
        }
        if gg.dead.is_some() {
            self.wake_everyone(gg);
        }
    }

    fn deadlock_error(&self, gg: &GlobalState) -> RunError {
        let parked: Vec<(usize, String)> = (0..gg.status.len())
            .filter(|&c| gg.status[c] == Status::Parked)
            .map(|c| {
                let cat = gg
                    .machine
                    .parked_category(CoreId(c))
                    .map(|cat| cat.label())
                    .unwrap_or("?");
                (c, cat.to_string())
            })
            .collect();
        let trace_tail = if gg.machine.trace().enabled() {
            gg.machine.trace().render()
        } else {
            String::new()
        };
        RunError::Deadlock { parked, trace_tail }
    }

    /// Reattach every slice still held by a slot, merge the slot-local
    /// ledgers and counters, and finish the machine.
    pub(crate) fn teardown(self, error: Option<RunError>) -> (Machine, RunStats, Option<RunError>) {
        let mut gg = self.global.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut local_ops = 0u64;
        let mut messages = 0u64;
        let mut batches = 0u64;
        let mut round_trips = 0u64;
        let mut global_ops = 0u64;
        let mut lock_waits = 0u64;
        for (c, slot) in self.slots.into_iter().enumerate() {
            let slot = slot.into_inner().unwrap_or_else(|e| e.into_inner());
            let c = CoreId(c);
            if let Some(slice) = slot.slice {
                gg.machine.attach_core(c, slice);
            }
            gg.machine.merge_ledger(c, &slot.ledger);
            local_ops += slot.local_ops;
            messages += slot.messages;
            batches += slot.batches;
            round_trips += slot.round_trips;
            global_ops += slot.global_ops;
            lock_waits += slot.lock_waits;
        }
        let mut stats = if error.is_some() {
            gg.machine.finish_after_failure()
        } else {
            gg.machine.finish()
        };
        stats.engine = EngineStats {
            ops_executed: gg.ops_executed + local_ops,
            messages,
            batches,
            round_trips: gg.round_trips + round_trips,
            wakeups: gg.wakeups,
            peak_parked: gg.peak_parked,
            shard_local_ops: local_ops,
            cross_shard_msgs: global_ops,
            lookahead_stalls: gg.lookahead_stalls,
            lock_waits,
            handoffs: gg.handoffs,
        };
        (gg.machine, stats, error)
    }
}
