//! The cycle-by-cycle pipeline driver tying all structures together.
//!
//! Stages are evaluated in reverse pipeline order each cycle (commit,
//! writeback, issue, dispatch, fetch) so results flow between stages with
//! single-cycle latency and back-to-back dependent issue works naturally.

use crate::cache::{Access, Cache};
use crate::config::BoomConfig;
use crate::issue::IssueQueue;
use crate::lsu::{LoadAction, Lsu};
use crate::mem::{self, MemoryBackend};
use crate::predictor::{BranchKind, Btb, CondPredictor, PredMeta, Ras};
use crate::regfile::{PhysRegFile, Rat};
use crate::rob::{BranchInfo, DestPhys, Rob, RobEntry, SquashedUop, SrcPhys, UopState};
use crate::stats::Stats;
use crate::trace::PipeTracer;
use crate::uop::{classify, classify_image, DestReg, ExecUnit, IqKind, SrcReg, UopInfo, UopTable};
use crate::watchdog::{
    IqName, IssueQueueView, LsuView, MshrView, OldestEntryView, RobHeadView, WatchdogSnapshot,
};
use rv_isa::checkpoint::Checkpoint;
use rv_isa::cpu::Cpu;
use rv_isa::exec::{self, Loaded, Operands, Outcome};
use rv_isa::image::SharedImage;
use rv_isa::inst::{decode, Inst};
use rv_isa::mem::Memory;
use rv_isa::program::Program;
use rv_isa::reg::{FReg, Reg};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Exit syscall number (`a7` value) recognized at commit.
const SYS_EXIT: u64 = 93;

/// Calendar-ring horizon for completion events, in cycles. Power of two,
/// comfortably above every modeled latency (memory is 40 cycles); events
/// scheduled further out spill to the overflow heap.
const WB_RING: usize = 128;
/// Cycles without a commit before the core reports itself hung.
const HANG_LIMIT: u64 = 100_000;

#[derive(Clone, Copy, Debug)]
struct FetchedInst {
    pc: u64,
    inst: Inst,
    pred_next: u64,
    pred_taken: bool,
    pre_hist: u128,
    meta: Option<PredMeta>,
    kind: Option<BranchKind>,
}

/// Outcome of a [`Core::run`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The program executed its exit `ecall`.
    pub exited: bool,
    /// Exit code, when `exited`.
    pub exit_code: Option<u64>,
    /// Instructions committed during this call.
    pub retired: u64,
    /// Cycles simulated during this call.
    pub cycles: u64,
    /// The pipeline made no progress for `HANG_LIMIT` (100,000) cycles (a model
    /// bug or an invalid program); state is left intact for inspection.
    pub hung: bool,
}

/// An execution-driven, cycle-level BOOM core.
///
/// Create from a [`Program`] ([`Core::new`]) or restore from an
/// architectural [`Checkpoint`] ([`Core::from_checkpoint`]), run it, and
/// read timing/activity from [`Core::stats`].
#[derive(Clone, Debug)]
pub struct Core {
    cfg: BoomConfig,
    /// Architectural memory image (exact: stores apply at commit).
    pub mem: Memory,

    prf_int: PhysRegFile,
    prf_fp: PhysRegFile,
    rat_int: Rat,
    rat_fp: Rat,
    rrat_int: Rat,
    rrat_fp: Rat,
    br_inflight: usize,

    rob: Rob,
    iq_int: IssueQueue,
    iq_mem: IssueQueue,
    iq_fp: IssueQueue,
    lsu: Lsu,

    fetch_pc: u64,
    fetch_pending: Option<u64>,
    fetch_wedged: bool,
    fetch_buffer: VecDeque<FetchedInst>,
    redirect: Option<(u64, u64)>,
    ghist: u128,
    pred: CondPredictor,
    btb: Btb,
    ras: Ras,

    icache: Cache,
    dcache: Cache,
    mem_backend: Box<dyn MemoryBackend>,

    div_free_at: u64,
    fdiv_free_at: u64,

    cycle: u64,
    stats: Stats,
    exited: Option<u64>,
    last_commit_cycle: u64,
    halt_commit: bool,
    tracer: Option<Box<PipeTracer>>,
    golden: Option<Box<Cpu>>,
    cosim_mismatch: Option<String>,

    /// Completion events: one is scheduled per transition into
    /// [`UopState::Executing`], and writeback drains only the events due
    /// this cycle instead of scanning the whole ROB. Events land in a
    /// calendar ring of per-cycle buckets (`wb_ring[done_at % WB_RING]`) —
    /// every modeled latency is far below the ring horizon, so the
    /// min-heap `wb_overflow` exists only as a correctness backstop.
    /// Events for squashed uops go stale in place; writeback re-validates
    /// against the ROB entry's state when they surface (seqs are reused
    /// after a squash, so a stale event can name a live entry — the
    /// state/`done_at` check makes processing idempotent).
    wb_ring: Vec<Vec<u64>>,
    wb_overflow: BinaryHeap<Reverse<(u64, u64)>>,
    /// Scratch for the issue stage's issued age positions (reused every
    /// cycle).
    scratch_issued: Vec<usize>,
    /// Scratch for squashed-uop records (reused across mispredicts).
    scratch_squash: Vec<SquashedUop>,
    /// Branch bookkeeping for in-flight control-flow uops, indexed by
    /// `seq % rob_entries`. Live seqs span less than one ROB capacity,
    /// so each in-flight uop owns a unique slot; keeping this out of
    /// [`RobEntry`] shrinks the per-dispatch copy that dominates the
    /// commit/dispatch profile.
    branch_info: Vec<BranchInfo>,

    /// Predecoded text (the fast fetch path); `None` falls back to
    /// fetch + decode from architectural memory.
    image: Option<SharedImage>,
    /// Cached image range for the commit-side SMC guard (both zero when
    /// no image is attached, so the guard never fires).
    text_base: u64,
    text_end: u64,
    /// Micro-op metadata classified once per text word at image install,
    /// so dispatch reads a table instead of re-classifying each dynamic
    /// instruction. `None` slots (illegal words, SMC invalidations) fall
    /// back to [`classify`] on the freshly fetched instruction. Behind
    /// `Arc` because the table depends only on the image, not the config:
    /// batched multi-config lanes share one table
    /// ([`Core::from_checkpoint_with_uops`]), with copy-on-write SMC
    /// invalidation keeping sharers independent.
    uop_table: Arc<UopTable>,
    /// Event-skip idle cycles during [`Core::run`] (see
    /// [`Core::set_idle_skip`]).
    idle_skip: bool,
}

impl Core {
    /// Creates a core with `program` loaded, `sp` initialized, and cold
    /// microarchitectural state.
    pub fn new(cfg: BoomConfig, program: &Program) -> Core {
        let image = program.decoded_image();
        let uops = Core::shared_uop_table(&image);
        Core::new_with_uops(cfg, program, &uops)
    }

    /// [`Core::new`] with a pre-classified uop table for `program`'s
    /// decoded image. Batched multi-config lanes classify the (config-
    /// independent) table once via [`Core::shared_uop_table`] and share
    /// it; behavior is identical to [`Core::new`], only the per-lane
    /// construction cost changes.
    pub fn new_with_uops(cfg: BoomConfig, program: &Program, uops: &Arc<UopTable>) -> Core {
        let mut mem = Memory::new();
        program.load(&mut mem);
        let mut core = Core::from_raw(cfg, mem, program.entry());
        let sp_phys = core.rat_int.get(Reg::Sp.index());
        core.prf_int.poke(sp_phys, program.stack_top());
        core.set_image(program.decoded_image(), uops.clone());
        core
    }

    /// Restores a core from an architectural checkpoint (the SimPoint
    /// detailed-simulation entry path; caches and predictors start cold —
    /// run a warm-up interval and then [`Core::reset_stats`]).
    pub fn from_checkpoint(cfg: BoomConfig, ck: &Checkpoint) -> Core {
        match &ck.image {
            Some(image) => {
                let uops = Core::shared_uop_table(image);
                Core::from_checkpoint_with_uops(cfg, ck, &uops)
            }
            None => Core::from_checkpoint_restore(cfg, ck),
        }
    }

    /// [`Core::from_checkpoint`] with a pre-classified uop table for the
    /// checkpoint's image — the batched-lane entry path: N configs
    /// restored from one checkpoint share one classification pass.
    pub fn from_checkpoint_with_uops(
        cfg: BoomConfig,
        ck: &Checkpoint,
        uops: &Arc<UopTable>,
    ) -> Core {
        let mut core = Core::from_checkpoint_restore(cfg, ck);
        if let Some(image) = &ck.image {
            core.set_image(image.clone(), uops.clone());
        }
        core
    }

    fn from_checkpoint_restore(cfg: BoomConfig, ck: &Checkpoint) -> Core {
        let mut core = Core::from_raw(cfg, ck.mem.clone(), ck.pc);
        for i in 0..32 {
            core.prf_int.poke(core.rat_int.get(i), ck.x[i]);
            core.prf_fp.poke(core.rat_fp.get(i), ck.f[i]);
        }
        core
    }

    /// Classifies every slot of `image` into the uop table cores built
    /// from it will read at dispatch. The table is config-independent,
    /// so batched lanes compute it once and pass it to
    /// [`Core::from_checkpoint_with_uops`] / [`Core::new_with_uops`].
    pub fn shared_uop_table(image: &SharedImage) -> Arc<UopTable> {
        Arc::new(classify_image(image))
    }

    /// Installs a predecoded text image, enabling the fast fetch path.
    /// The image must agree with architectural memory over its range
    /// (and `uops` with the image's slots); cycle-by-cycle behavior is
    /// identical with or without it.
    fn set_image(&mut self, image: SharedImage, uops: Arc<UopTable>) {
        debug_assert_eq!(uops.len(), image.slots().len(), "uop table built for another image");
        self.text_base = image.base();
        self.text_end = image.end();
        self.uop_table = uops;
        self.image = Some(image);
    }

    /// A committed store hit the text range: drop the stale predecoded
    /// slots (copy-on-write, so other sharers keep the pristine image).
    #[cold]
    fn invalidate_text(&mut self, addr: u64, size: u64) {
        if let Some(image) = &mut self.image {
            Arc::make_mut(image).invalidate(addr, size);
            // Keep the uop table in lockstep with the image: stale slots
            // must route through the fallback classify path too. Also
            // copy-on-write, so batched lanes sharing one table keep
            // their pristine copies.
            let end = addr.saturating_add(size.max(1));
            let table = Arc::make_mut(&mut self.uop_table);
            let n = table.len();
            let first = ((addr.saturating_sub(self.text_base) / 4) as usize).min(n);
            let last = ((end.saturating_sub(self.text_base)).div_ceil(4) as usize).min(n);
            for slot in &mut table[first..last] {
                *slot = None;
            }
        }
    }

    fn from_raw(cfg: BoomConfig, mem: Memory, entry: u64) -> Core {
        let stats = Stats::new(cfg.int_issue_slots, cfg.mem_issue_slots, cfg.fp_issue_slots);
        Core {
            prf_int: PhysRegFile::new(cfg.int_phys_regs),
            prf_fp: PhysRegFile::new(cfg.fp_phys_regs),
            rat_int: Rat::identity(),
            rat_fp: Rat::identity(),
            rrat_int: Rat::identity(),
            rrat_fp: Rat::identity(),
            br_inflight: 0,
            rob: Rob::new(cfg.rob_entries),
            iq_int: IssueQueue::with_kind(cfg.iq_kind, cfg.int_issue_slots),
            iq_mem: IssueQueue::with_kind(cfg.iq_kind, cfg.mem_issue_slots),
            iq_fp: IssueQueue::with_kind(cfg.iq_kind, cfg.fp_issue_slots),
            lsu: Lsu::new(cfg.ldq_entries, cfg.stq_entries),
            fetch_pc: entry,
            fetch_pending: None,
            fetch_wedged: false,
            fetch_buffer: VecDeque::with_capacity(cfg.fetch_buffer_entries),
            redirect: None,
            ghist: 0,
            pred: CondPredictor::new(cfg.predictor, cfg.bp_table_shift),
            btb: Btb::new(cfg.btb_sets, cfg.btb_ways),
            ras: Ras::new(cfg.ras_entries),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            mem_backend: mem::backend_for(&cfg),
            div_free_at: 0,
            fdiv_free_at: 0,
            wb_ring: vec![Vec::new(); WB_RING],
            wb_overflow: BinaryHeap::new(),
            scratch_issued: Vec::new(),
            scratch_squash: Vec::new(),
            branch_info: vec![
                BranchInfo {
                    pred_next: 0,
                    pred_taken: false,
                    pre_hist: 0,
                    meta: None,
                    kind: BranchKind::Jump,
                };
                cfg.rob_entries
            ],
            cycle: 0,
            stats,
            exited: None,
            last_commit_cycle: 0,
            halt_commit: false,
            tracer: None,
            golden: None,
            cosim_mismatch: None,
            image: None,
            text_base: 0,
            text_end: 0,
            uop_table: Arc::default(),
            idle_skip: false,
            mem,
            cfg,
        }
    }

    /// Attaches a lockstep golden model (the Chipyard/Spike "cosim" role):
    /// every committed instruction is immediately checked against the
    /// functional simulator, so a divergence is caught at the exact
    /// faulting instruction instead of at program end.
    ///
    /// Must be attached before any cycle executes. Programs using the
    /// write syscall are not supported in lockstep mode (the detailed
    /// model treats non-exit `ecall`s as no-ops).
    ///
    /// # Panics
    ///
    /// Panics if the core has already executed cycles.
    pub fn attach_golden_model(&mut self) {
        assert_eq!(self.cycle, 0, "attach the golden model before running");
        let mut x = [0u64; 32];
        let mut f = [0u64; 32];
        for i in 0..32 {
            x[i] = self.prf_int.read(self.rrat_int.get(i));
            f[i] = self.prf_fp.read(self.rrat_fp.get(i));
        }
        let mut golden = Cpu::from_state(self.fetch_pc, x, f, self.mem.clone(), 0);
        if let Some(image) = &self.image {
            golden.attach_image(image.clone());
        }
        self.golden = Some(Box::new(golden));
    }

    /// The first lockstep divergence, if any (see
    /// [`Core::attach_golden_model`]).
    pub fn cosim_mismatch(&self) -> Option<&str> {
        self.cosim_mismatch.as_deref()
    }

    fn lockstep_check(&mut self, e: &RobEntry) {
        let Some(golden) = &mut self.golden else { return };
        if e.pc != golden.pc() {
            self.cosim_mismatch = Some(format!(
                "control-flow divergence: core committed pc {:#x}, golden model at {:#x}",
                e.pc,
                golden.pc()
            ));
            return;
        }
        if let Err(err) = golden.step() {
            self.cosim_mismatch = Some(format!("golden model fault at {:#x}: {err}", e.pc));
            return;
        }
        let mismatch = match e.dest {
            DestPhys::Int { arch, new, .. } => {
                let (core_v, gold_v) =
                    (self.prf_int.read(new), golden.x(Reg::from_index(arch as u32)));
                (core_v != gold_v).then(|| {
                    format!(
                        "x{arch} divergence at pc {:#x} ({}): core {core_v:#x}, golden {gold_v:#x}",
                        e.pc, e.inst
                    )
                })
            }
            DestPhys::Fp { arch, new, .. } => {
                let (core_v, gold_v) =
                    (self.prf_fp.read(new), golden.fbits(FReg::from_index(arch as u32)));
                (core_v != gold_v).then(|| {
                    format!(
                        "f{arch} divergence at pc {:#x} ({}): core {core_v:#x}, golden {gold_v:#x}",
                        e.pc, e.inst
                    )
                })
            }
            DestPhys::None => None,
        };
        if let Some(m) = mismatch {
            self.cosim_mismatch = Some(m);
        }
    }

    /// Attaches a pipeline tracer; subsequent execution is recorded in
    /// Konata's Kanata format (see [`crate::trace`]).
    pub fn attach_tracer(&mut self) {
        self.tracer = Some(Box::new(PipeTracer::new()));
    }

    /// Detaches the tracer and renders the recorded trace, if any.
    pub fn take_trace(&mut self) -> Option<String> {
        self.tracer.take().map(|t| t.render())
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &BoomConfig {
        &self.cfg
    }

    /// Accumulated activity counters. The issue queues' per-slot counters
    /// are folded in when [`Core::run`] returns and when
    /// [`Core::step_cycle`] returns with the program exited; between
    /// earlier [`Core::step_cycle`] calls they may lag the other counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Clears activity counters while keeping all microarchitectural state
    /// (caches, predictors, rename maps) — the measurement boundary after a
    /// SimPoint warm-up. Per-slot issue-queue counters not yet folded
    /// into [`Core::stats`] are dropped with the rest.
    pub fn reset_stats(&mut self) {
        self.stats =
            Stats::new(self.cfg.int_issue_slots, self.cfg.mem_issue_slots, self.cfg.fp_issue_slots);
        self.iq_int.discard_deferred();
        self.iq_mem.discard_deferred();
        self.iq_fp.discard_deferred();
    }

    /// Committed (architectural) value of integer register `r`.
    pub fn arch_x(&self, r: Reg) -> u64 {
        if r == Reg::Zero {
            0
        } else {
            self.prf_int.read(self.rrat_int.get(r.index()))
        }
    }

    /// Committed (architectural) raw bits of FP register `r`.
    pub fn arch_f(&self, r: FReg) -> u64 {
        self.prf_fp.read(self.rrat_fp.get(r.index()))
    }

    /// Exit code once the program has exited.
    pub fn exit_code(&self) -> Option<u64> {
        self.exited
    }

    /// Runs until the program exits, `max_insts` more instructions commit,
    /// or the pipeline hangs. Per-slot issue-queue counters are folded
    /// into [`Core::stats`] before it returns.
    pub fn run(&mut self, max_insts: u64) -> RunResult {
        let start_retired = self.stats.retired;
        let start_cycles = self.stats.cycles;
        self.last_commit_cycle = self.cycle;
        // A tracer cannot attach or detach mid-run, so the branch hoists
        // out of the loop and the untraced common case runs a monomorphic
        // loop with every `if let Some(tracer)` compiled away.
        if self.tracer.is_some() {
            self.run_loop::<true>(start_retired, max_insts);
        } else {
            self.run_loop::<false>(start_retired, max_insts);
        }
        self.flush_iq_stats();
        RunResult {
            exited: self.exited.is_some(),
            exit_code: self.exited,
            retired: self.stats.retired - start_retired,
            cycles: self.stats.cycles - start_cycles,
            hung: self.exited.is_none() && self.cycle - self.last_commit_cycle >= HANG_LIMIT,
        }
    }

    fn run_loop<const TRACED: bool>(&mut self, start_retired: u64, max_insts: u64) {
        // Idle skipping is resolved once per run: it needs a backend with
        // no time-dependent uncore state, and tracer/cosim runs always
        // step every cycle (a trace of skipped cycles would be ambiguous,
        // and lockstep stays maximally conservative).
        let idle_skip =
            !TRACED && self.idle_skip && self.golden.is_none() && self.mem_backend.idle_skip_safe();
        while self.exited.is_none()
            && self.stats.retired - start_retired < max_insts
            && self.cycle - self.last_commit_cycle < HANG_LIMIT
        {
            self.step_cycle_impl::<TRACED>();
            if idle_skip && self.exited.is_none() {
                self.try_idle_skip();
            }
        }
    }

    /// Requests event-driven idle-cycle skipping for subsequent
    /// [`Core::run`] calls: when every stage is provably stalled, the
    /// clock jumps to the cycle before the next pending event (calendar-
    /// ring or overflow completion, frontend refill arrival, redirect
    /// delivery, MSHR release, watchdog deadline), charging the skipped
    /// cycles' occupancy sums analytically. All [`Stats`] counters are
    /// bit-identical to a skip-off run — only
    /// [`Stats::idle_cycles_skipped`] (excluded from the fingerprint)
    /// records that the fast-forward happened.
    ///
    /// Only honored with an idle-skip-safe memory backend (the default
    /// fixed-latency model; see
    /// [`MemoryBackend::idle_skip_safe`])
    /// and without an attached tracer or golden model. Dual-core co-runs
    /// drive [`Core::step_cycle`] directly and never skip — their strict
    /// cycle interleave must observe every cycle of both cores.
    pub fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
    }

    /// Fast-forwards over cycles in which no pipeline stage can make
    /// progress. Called after a completed step; every condition below
    /// proves the *next* cycles are stage-by-stage no-ops until the
    /// earliest pending event, so jumping to just before that event and
    /// charging the per-cycle occupancy sums analytically is
    /// bit-identical to stepping each cycle.
    fn try_idle_skip(&mut self) {
        // Commit must be stalled: an empty ROB retires nothing, and a
        // non-Done head can only become Done through a writeback event
        // (which bounds the skip below). A Done head would commit — even
        // a Done store blocked on full MSHRs retries (and charges) a
        // dcache access every cycle — so it forbids skipping.
        if !self.halt_commit {
            if let Some(h) = self.rob.head() {
                if h.state == UopState::Done {
                    return;
                }
            }
        }
        // No issue queue may hold a ready entry: readiness only changes
        // via wakeup broadcasts (writeback events) or dispatch inserts,
        // both ruled out in the window. Ready-but-blocked entries
        // (replaying loads, a busy divider) keep `has_ready` true and
        // conservatively forbid skipping.
        if self.iq_int.has_ready() || self.iq_mem.has_ready() || self.iq_fp.has_ready() {
            return;
        }
        // Dispatch must be blocked before it pops anything. The pre-pop
        // resource checks read no stats and depend only on state frozen
        // while commit/writeback/issue are no-ops, so "blocked now"
        // means "blocked for the whole window".
        if let Some(f) = self.fetch_buffer.front() {
            let uop = self.uop_for(f.pc, &f.inst);
            let blocked = self.rob.is_full()
                || self.iq(uop.iq).is_full()
                || (f.inst.is_load() && self.lsu.ldq_full())
                || (f.inst.is_store() && self.lsu.stq_full())
                || (needs_snapshot(&f.inst) && self.br_inflight >= self.cfg.max_br_count)
                || (matches!(uop.dest, Some(DestReg::Int(_))) && self.prf_int.free_count() == 0)
                || (matches!(uop.dest, Some(DestReg::Fp(_))) && self.prf_fp.free_count() == 0);
            if !blocked {
                return;
            }
        }
        // The watchdog deadline caps every skip so a hang is detected at
        // exactly the same cycle (and with the same charged stats) as in
        // a skip-off run.
        let mut wake = self.last_commit_cycle + HANG_LIMIT;
        // Fetch must be idle; if it is waiting on a timed event, that
        // event bounds the skip.
        match self.redirect {
            Some((_, at)) => {
                debug_assert!(at > self.cycle, "due redirects are consumed by fetch");
                wake = wake.min(at);
            }
            None if self.fetch_wedged => {}
            None if self.fetch_buffer.len() >= self.cfg.fetch_buffer_entries => {
                // Buffer-full fetch returns before even looking at the
                // pending refill; it wakes only via dispatch draining the
                // buffer, which the window rules out.
            }
            None => match self.fetch_pending {
                // No refill in flight: fetch probes the icache every
                // cycle. Not idle.
                None => return,
                Some(ready) => {
                    debug_assert!(ready > self.cycle, "due refills are consumed by fetch");
                    wake = wake.min(ready);
                }
            },
        }
        // Pending completion events bound the skip — including stale
        // events for squashed uops: both modes drain those at the same
        // cycle (to no effect), so skipping over one would diverge the
        // bucket state. The ring holds every event within the horizon;
        // anything further out sits in the overflow heap.
        if let Some(&Reverse((done_at, _))) = self.wb_overflow.peek() {
            wake = wake.min(done_at);
        }
        for d in 1..WB_RING as u64 {
            let t = self.cycle + d;
            if t >= wake {
                break;
            }
            if !self.wb_ring[(t as usize) & (WB_RING - 1)].is_empty() {
                wake = t;
                break;
            }
        }
        // MSHR releases bound the skip so the per-cycle `Cache::tick`
        // occupancy charge below stays exact: up to (excluding) the
        // earliest completion, `mshrs_in_flight` is constant.
        wake = wake.min(self.icache.next_mshr_done());
        wake = wake.min(self.dcache.next_mshr_done());

        // Jump to the cycle *before* the wake event; the event cycle
        // itself is simulated normally by the next step.
        let skipped = (wake - 1).saturating_sub(self.cycle);
        if skipped == 0 {
            return;
        }
        self.cycle += skipped;
        self.stats.cycles += skipped;
        self.stats.idle_cycles_skipped += skipped;
        // Exactly what `tick()` would have accumulated over `skipped`
        // cycles of frozen state.
        self.iq_int.charge_idle(skipped, &mut self.stats.int_iq);
        self.iq_mem.charge_idle(skipped, &mut self.stats.mem_iq);
        self.iq_fp.charge_idle(skipped, &mut self.stats.fp_iq);
        self.lsu.charge_idle(skipped, &mut self.stats);
        self.stats.rob_occupancy_sum += skipped * self.rob.len() as u64;
        self.stats.fetch_buffer_occupancy_sum += skipped * self.fetch_buffer.len() as u64;
        self.stats.icache.mshr_occupancy_sum += skipped * self.icache.mshrs_in_flight() as u64;
        self.stats.dcache.mshr_occupancy_sum += skipped * self.dcache.mshrs_in_flight() as u64;
    }

    /// Captures a structured diagnostic snapshot of the pipeline — the
    /// watchdog report attached to `FlowError::CoreHung` when a detailed
    /// simulation stops committing (see [`crate::watchdog`]).
    ///
    /// Cheap relative to a hang (it only reads existing state), and valid
    /// at any time, not just after a hang.
    pub fn dump_state(&self) -> WatchdogSnapshot {
        let oldest_view = |iq: &IssueQueue| -> Option<OldestEntryView> {
            let (_, seq) = *iq.candidates().first()?;
            let e = self.rob.get(seq)?;
            Some(OldestEntryView { seq, srcs_ready: self.srcs_ready(e), state: e.state })
        };
        WatchdogSnapshot {
            cycle: self.cycle,
            cycles_since_commit: self.cycle - self.last_commit_cycle,
            retired: self.stats.retired,
            fetch_pc: self.fetch_pc,
            fetch_wedged: self.fetch_wedged,
            fetch_buffer_len: self.fetch_buffer.len(),
            redirect: self.redirect,
            rob_len: self.rob.len(),
            rob_capacity: self.rob.capacity(),
            rob_head: self.rob.head().map(|h| RobHeadView {
                seq: h.seq,
                pc: h.pc,
                inst: h.inst.to_string(),
                state: h.state,
                age_cycles: self.cycle.saturating_sub(h.dispatched_at),
                srcs_ready: self.srcs_ready(h),
            }),
            issue_queues: [
                (IqName::Int, &self.iq_int),
                (IqName::Mem, &self.iq_mem),
                (IqName::Fp, &self.iq_fp),
            ]
            .into_iter()
            .map(|(name, iq)| IssueQueueView {
                name,
                occupancy: iq.len(),
                capacity: iq.capacity(),
                oldest: oldest_view(iq),
            })
            .collect(),
            lsu: LsuView {
                ldq_len: self.lsu.ldq_len(),
                ldq_head_seq: self.lsu.ldq_head().map(|e| e.seq),
                stq_len: self.lsu.stq_len(),
                stq_head: self.lsu.stq_head().map(|e| (e.seq, e.addr)),
            },
            icache_mshrs: self
                .icache
                .mshr_states()
                .into_iter()
                .map(|(line_addr, done_at)| MshrView { line_addr, done_at })
                .collect(),
            dcache_mshrs: self
                .dcache
                .mshr_states()
                .into_iter()
                .map(|(line_addr, done_at)| MshrView { line_addr, done_at })
                .collect(),
            l2_mshrs: self
                .mem_backend
                .inflight()
                .into_iter()
                .map(|(line_addr, done_at)| MshrView { line_addr, done_at })
                .collect(),
        }
    }

    /// Replaces the memory backend — how a dual-core co-run installs two
    /// handles onto one shared L2/DRAM uncore. Install before any cycle
    /// executes (and after checkpoint restore, which rebuilds the
    /// config's default backend).
    pub fn set_mem_backend(&mut self, backend: Box<dyn MemoryBackend>) {
        self.mem_backend = backend;
    }

    /// Advances the pipeline by one cycle (the dual-core co-run path).
    /// Once the program has exited, per-slot issue-queue counters are
    /// folded into [`Core::stats`] before it returns.
    pub fn step_cycle(&mut self) {
        if self.tracer.is_some() {
            self.step_cycle_impl::<true>();
        } else {
            self.step_cycle_impl::<false>();
        }
        if self.exited.is_some() {
            self.flush_iq_stats();
        }
    }

    /// Folds the issue queues' deferred per-slot counters into the stats.
    fn flush_iq_stats(&mut self) {
        self.iq_int.flush_stats(&mut self.stats.int_iq);
        self.iq_mem.flush_stats(&mut self.stats.mem_iq);
        self.iq_fp.flush_stats(&mut self.stats.fp_iq);
    }

    fn step_cycle_impl<const TRACED: bool>(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.commit::<TRACED>();
        if self.exited.is_some() {
            return;
        }
        self.writeback::<TRACED>();
        self.issue::<TRACED>(IqKind::Int);
        self.issue::<TRACED>(IqKind::Mem);
        self.issue::<TRACED>(IqKind::Fp);
        self.dispatch::<TRACED>();
        self.fetch();
        self.tick();
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Fault injection: freezes the commit stage so the pipeline watchdog
    /// fires deterministically after `HANG_LIMIT` (100,000) cycles.
    ///
    /// Used by the flow supervisor's tests and by `boomflow --inject-hang`
    /// to exercise hang detection and diagnostics on demand; it has no
    /// effect on any normal simulation path.
    pub fn inject_commit_stall(&mut self) {
        self.halt_commit = true;
    }

    fn commit<const TRACED: bool>(&mut self) {
        if self.halt_commit {
            return;
        }
        for _ in 0..self.cfg.decode_width {
            let Some(head) = self.rob.head() else { break };
            if head.state != UopState::Done {
                break;
            }
            // Stores write the data cache (and memory) at commit.
            if head.inst.is_store() {
                let Some(Outcome::Store { addr, size, data }) = head.outcome else {
                    unreachable!("store committed without a resolved outcome");
                };
                match self.dcache.access(
                    addr,
                    true,
                    self.cycle,
                    &mut self.stats.dcache,
                    self.mem_backend.as_mut(),
                    &mut self.stats.mem,
                ) {
                    Access::Blocked => break, // retry next cycle (MSHRs full)
                    _ => {
                        self.mem.write(addr, size, data);
                        // Self-modifying code: memory only changes at
                        // commit, which is exactly when a fetch of the
                        // patched words could first observe new bytes —
                        // so invalidating here keeps cycle behavior
                        // identical to the decode-from-memory path.
                        if addr < self.text_end && addr.wrapping_add(size) > self.text_base {
                            self.invalidate_text(addr, size);
                        }
                    }
                }
            }
            // Copy out the handful of fields commit consumes, then drop
            // the head in place — the ~240-byte entry never moves.
            let head = self.rob.head().expect("head checked above");
            let (seq, pc, inst, dest) = (head.seq, head.pc, head.inst, head.dest);
            let (actual_next, taken, mispredicted) =
                (head.actual_next, head.taken, head.mispredicted);
            let has_ldq = head.ldq_idx.is_some();
            // Cold path: lockstep checking wants the whole entry.
            let golden_entry = self.golden.is_some().then(|| head.clone());
            self.rob.drop_head();
            self.stats.rob_reads += 1;
            self.last_commit_cycle = self.cycle;
            if TRACED {
                if let Some(t) = &mut self.tracer {
                    t.commit(self.cycle, seq);
                }
            }
            if let Some(e) = golden_entry {
                self.lockstep_check(&e);
                if self.cosim_mismatch.is_some() {
                    self.exited = Some(u64::MAX - 1); // cosim-failure sentinel
                    return;
                }
            }

            match dest {
                DestPhys::Int { arch, new, prev } => {
                    self.rrat_int.set(arch, new);
                    self.prf_int.release(prev);
                    self.stats.int_rename.freelist_pushes += 1;
                }
                DestPhys::Fp { arch, new, prev } => {
                    self.rrat_fp.set(arch, new);
                    self.prf_fp.release(prev);
                    self.stats.fp_rename.freelist_pushes += 1;
                }
                DestPhys::None => {}
            }

            if inst.is_store() {
                self.lsu.commit_store(seq);
            }
            if has_ldq {
                self.lsu.commit_load(seq);
            }

            // Dispatch fills the side table exactly when the instruction
            // is control flow, so this gate matches the old
            // `Option<BranchInfo>` field.
            if inst.is_control_flow() {
                let br = self.branch_info[(seq as usize) % self.cfg.rob_entries];
                match inst {
                    Inst::Branch { .. } => {
                        self.stats.branches += 1;
                        if let Some(meta) = &br.meta {
                            self.pred.update(
                                pc,
                                br.pre_hist,
                                br.pred_taken,
                                taken,
                                meta,
                                &mut self.stats.bp,
                            );
                        }
                        if taken {
                            self.btb.update(pc, actual_next, BranchKind::Cond, &mut self.stats.bp);
                        }
                    }
                    Inst::Jalr { .. }
                        // Train the BTB with the indirect target.
                        if br.kind != BranchKind::Return => {
                            self.btb.update(pc, actual_next, br.kind, &mut self.stats.bp);
                        }
                    _ => {}
                }
                if mispredicted {
                    self.stats.mispredicts += 1;
                }
                if needs_snapshot(&inst) {
                    self.br_inflight -= 1;
                }
            }

            if matches!(inst, Inst::Ecall) {
                let a7 = self.arch_x(Reg::A7);
                if a7 == SYS_EXIT {
                    self.exited = Some(self.arch_x(Reg::A0));
                }
                // Other syscalls are treated as no-ops by the detailed
                // model (workloads only use the exit convention in
                // measured regions).
            }
            if matches!(inst, Inst::Ebreak) {
                self.exited = Some(u64::MAX); // breakpoint sentinel
            }
            self.stats.retired += 1;
            if self.exited.is_some() {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution
    // ------------------------------------------------------------------

    /// Schedules a completion event (transition to `Executing`): into the
    /// calendar ring when within the horizon, the overflow heap otherwise.
    #[inline]
    fn schedule_wb(&mut self, done_at: u64, seq: u64) {
        if done_at.wrapping_sub(self.cycle) < WB_RING as u64 {
            self.wb_ring[(done_at as usize) & (WB_RING - 1)].push(seq);
        } else {
            self.wb_overflow.push(Reverse((done_at, seq)));
        }
    }

    fn writeback<const TRACED: bool>(&mut self) {
        // Drain this cycle's event bucket instead of scanning the ROB.
        // Same-cycle events process in ascending seq order, matching the
        // old oldest-first ROB walk (buckets aren't push-ordered, so sort;
        // they hold a handful of entries at most). Events can be stale two
        // ways — the entry was squashed (seq no longer in flight, or a
        // *reincarnated* entry now owns the seq after `squash_after` reset
        // `next_seq`), or a duplicate event for an already-written-back
        // entry — so an event is acted on only when its entry is
        // `Executing` with a due completion time. Every live Executing
        // entry has an event at exactly its `done_at`, so none are missed.
        let idx = (self.cycle as usize) & (WB_RING - 1);
        let mut due = std::mem::take(&mut self.wb_ring[idx]);
        while let Some(&Reverse((done_at, seq))) = self.wb_overflow.peek() {
            if done_at > self.cycle {
                break;
            }
            self.wb_overflow.pop();
            due.push(seq);
        }
        if due.is_empty() {
            self.wb_ring[idx] = due;
            return;
        }
        due.sort_unstable();
        for &seq in &due {
            let Some(e) = self.rob.get(seq) else { continue };
            match e.state {
                UopState::Executing { done_at } if done_at <= self.cycle => {}
                _ => continue,
            }
            let pc = e.pc;
            let inst = e.inst;
            let dest = e.dest;
            let outcome = e.outcome;
            let load_value = e.load_value;

            // Write the destination register and broadcast wakeup.
            let write: Option<(DestPhys, u64)> = match (outcome, load_value) {
                (_, Some(Loaded::Int(v))) | (Some(Outcome::WriteInt(v)), _) => Some((dest, v)),
                (_, Some(Loaded::Fp(v))) | (Some(Outcome::WriteFp(v)), _) => Some((dest, v)),
                (Some(Outcome::Jump { link, .. }), _) => Some((dest, link)),
                _ => None,
            };
            if let Some((d, v)) = write {
                match d {
                    DestPhys::Int { new, .. } => {
                        self.prf_int.write(new, v);
                        self.stats.irf_writes += 1;
                        self.broadcast_wakeup(SrcPhys::Int(new));
                    }
                    DestPhys::Fp { new, .. } => {
                        self.prf_fp.write(new, v);
                        self.stats.frf_writes += 1;
                        self.broadcast_wakeup(SrcPhys::Fp(new));
                    }
                    DestPhys::None => {}
                }
            }

            let e = self.rob.get_mut(seq).expect("entry still present");
            e.state = UopState::Done;

            // Resolve control flow.
            if inst.is_control_flow() {
                let (actual_next, taken) = match outcome {
                    Some(Outcome::Branch { taken, target }) => {
                        (if taken { target } else { pc.wrapping_add(4) }, taken)
                    }
                    Some(Outcome::Jump { target, .. }) => (target, true),
                    _ => unreachable!("control flow resolves via branch/jump outcome"),
                };
                e.actual_next = actual_next;
                e.taken = taken;
                let br = self.branch_info[(seq as usize) % self.cfg.rob_entries];
                if actual_next != br.pred_next {
                    e.mispredicted = true;
                    let new_ghist = match inst {
                        Inst::Branch { .. } => (br.pre_hist << 1) | (taken as u128),
                        _ => br.pre_hist,
                    };
                    self.squash_after::<TRACED>(seq, actual_next, new_ghist);
                }
            }
        }
        due.clear();
        self.wb_ring[idx] = due;
    }

    fn broadcast_wakeup(&mut self, written: SrcPhys) {
        self.iq_int.wakeup_broadcast(written, &mut self.stats.int_iq);
        self.iq_mem.wakeup_broadcast(written, &mut self.stats.mem_iq);
        self.iq_fp.wakeup_broadcast(written, &mut self.stats.fp_iq);
    }

    fn squash_after<const TRACED: bool>(&mut self, seq: u64, resume_pc: u64, new_ghist: u128) {
        let mut squashed = std::mem::take(&mut self.scratch_squash);
        squashed.clear();
        self.rob.squash_after_brief(seq, &mut squashed);
        self.stats.squashed += squashed.len() as u64;
        if TRACED {
            if let Some(t) = &mut self.tracer {
                for e in &squashed {
                    t.squash(self.cycle, e.seq);
                }
            }
        }
        for e in &squashed {
            match e.dest {
                DestPhys::Int { arch, new, prev } => {
                    self.rat_int.set(arch, prev);
                    self.prf_int.release(new);
                    self.stats.int_rename.freelist_pushes += 1;
                }
                DestPhys::Fp { arch, new, prev } => {
                    self.rat_fp.set(arch, prev);
                    self.prf_fp.release(new);
                    self.stats.fp_rename.freelist_pushes += 1;
                }
                DestPhys::None => {}
            }
            if needs_snapshot(&e.inst) {
                self.br_inflight -= 1;
            }
        }
        self.iq_int.squash_after(seq);
        self.iq_mem.squash_after(seq);
        self.iq_fp.squash_after(seq);
        self.lsu.squash_after(seq);
        self.fetch_buffer.clear();
        self.fetch_pending = None;
        self.fetch_wedged = false;
        self.ghist = new_ghist;
        self.redirect = Some((resume_pc, self.cycle + self.cfg.redirect_penalty));
        squashed.clear();
        self.scratch_squash = squashed;
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn iq(&self, kind: IqKind) -> &IssueQueue {
        match kind {
            IqKind::Int => &self.iq_int,
            IqKind::Mem => &self.iq_mem,
            IqKind::Fp => &self.iq_fp,
        }
    }

    fn issue<const TRACED: bool>(&mut self, kind: IqKind) {
        // No entry can select this cycle: skipping the stage entirely is
        // observationally identical (an empty select touches no stats).
        if !self.iq(kind).has_ready() {
            return;
        }
        let width = match kind {
            IqKind::Int => self.cfg.int_issue_width,
            IqKind::Mem => self.cfg.mem_issue_width,
            IqKind::Fp => self.cfg.fp_issue_width,
        };
        let mut issued = std::mem::take(&mut self.scratch_issued);
        issued.clear();
        // Ready entries oldest first, until the ports are used up.
        let mut sel = self.iq(kind).select();
        let mut ports = 0usize;
        while ports < width {
            let Some((pos, seq)) = self.iq(kind).next_ready(&mut sel) else { break };
            // The scoreboard only surfaces entries whose sources have all
            // broadcast, so no per-candidate readiness poll is needed.
            debug_assert!({
                let e = self.rob.get(seq).expect("issue-queue entries are in flight");
                e.state == UopState::Waiting && self.srcs_ready(e)
            });
            match self.try_start(seq) {
                Start::Started => {
                    if TRACED {
                        if let Some(t) = &mut self.tracer {
                            t.issue(self.cycle, seq);
                            t.execute(self.cycle, seq);
                        }
                    }
                    issued.push(pos);
                    ports += 1;
                }
                Start::Replay => {
                    // Port consumed, entry stays for retry (blocked load).
                    ports += 1;
                }
                Start::UnitBusy => {}
            }
        }
        match kind {
            IqKind::Int => self.iq_int.issue(&issued, &mut self.stats.int_iq),
            IqKind::Mem => self.iq_mem.issue(&issued, &mut self.stats.mem_iq),
            IqKind::Fp => self.iq_fp.issue(&issued, &mut self.stats.fp_iq),
        }
        self.scratch_issued = issued;
    }

    fn srcs_ready(&self, e: &RobEntry) -> bool {
        e.srcs.iter().flatten().all(|s| match *s {
            SrcPhys::Int(p) => self.prf_int.is_ready(p),
            SrcPhys::Fp(p) => self.prf_fp.is_ready(p),
        })
    }

    fn try_start(&mut self, seq: u64) -> Start {
        let e = self.rob.get(seq).expect("in flight");
        let (inst, pc, uop, srcs) = (e.inst, e.pc, e.uop, e.srcs);

        // Unpipelined units must be free before we consume an issue port.
        match uop.unit {
            ExecUnit::Div if self.div_free_at > self.cycle => return Start::UnitBusy,
            ExecUnit::FDiv if self.fdiv_free_at > self.cycle => return Start::UnitBusy,
            _ => {}
        }

        // Register read.
        let mut ops = Operands::default();
        for (slot, src) in srcs.iter().enumerate() {
            match src {
                Some(SrcPhys::Int(p)) => {
                    let v = self.prf_int.read(*p);
                    self.stats.irf_reads += 1;
                    match slot {
                        0 => ops.rs1 = v,
                        1 => ops.rs2 = v,
                        _ => unreachable!("integer sources occupy slots 0-1"),
                    }
                }
                Some(SrcPhys::Fp(p)) => {
                    let v = self.prf_fp.read(*p);
                    self.stats.frf_reads += 1;
                    match slot {
                        0 => ops.fs1 = v,
                        1 => ops.fs2 = v,
                        _ => ops.fs3 = v,
                    }
                }
                None => {}
            }
        }

        let outcome = exec::compute(&inst, pc, ops);

        match uop.unit {
            ExecUnit::Alu | ExecUnit::Mul | ExecUnit::Div | ExecUnit::Fpu | ExecUnit::FDiv => {
                let latency = match uop.unit {
                    ExecUnit::Alu => {
                        self.stats.alu_ops += 1;
                        1
                    }
                    ExecUnit::Mul => {
                        self.stats.mul_ops += 1;
                        self.cfg.mul_latency
                    }
                    ExecUnit::Div => {
                        self.stats.div_ops += 1;
                        self.div_free_at = self.cycle + self.cfg.div_latency;
                        self.cfg.div_latency
                    }
                    ExecUnit::Fpu => {
                        self.stats.fpu_ops += 1;
                        self.cfg.fpu_latency
                    }
                    ExecUnit::FDiv => {
                        self.stats.fdiv_ops += 1;
                        self.fdiv_free_at = self.cycle + self.cfg.fdiv_latency;
                        self.cfg.fdiv_latency
                    }
                    ExecUnit::Agu => unreachable!(),
                };
                let done_at = self.cycle + latency;
                let e = self.rob.get_mut(seq).expect("in flight");
                e.outcome = Some(outcome);
                e.state = UopState::Executing { done_at };
                self.schedule_wb(done_at, seq);
                Start::Started
            }
            ExecUnit::Agu => {
                self.stats.agu_ops += 1;
                match outcome {
                    Outcome::Store { addr, size, data } => {
                        self.lsu.resolve_store(seq, addr, size, data);
                        let done_at = self.cycle + 1;
                        let e = self.rob.get_mut(seq).expect("in flight");
                        e.outcome = Some(outcome);
                        e.state = UopState::Executing { done_at };
                        self.schedule_wb(done_at, seq);
                        Start::Started
                    }
                    Outcome::Load { addr, unit } => {
                        match self.lsu.load_check(seq, addr, unit.size(), &mut self.stats) {
                            LoadAction::WaitOrdering | LoadAction::WaitPartialOverlap => {
                                Start::Replay
                            }
                            LoadAction::Forward { data } => {
                                let done_at = self.cycle + 1;
                                let e = self.rob.get_mut(seq).expect("in flight");
                                e.outcome = Some(outcome);
                                e.load_value = Some(exec::load_result(unit, data));
                                e.state = UopState::Executing { done_at };
                                self.schedule_wb(done_at, seq);
                                Start::Started
                            }
                            LoadAction::Access => {
                                match self.dcache.access(
                                    addr,
                                    false,
                                    self.cycle,
                                    &mut self.stats.dcache,
                                    self.mem_backend.as_mut(),
                                    &mut self.stats.mem,
                                ) {
                                    Access::Blocked => Start::Replay,
                                    acc => {
                                        let ready =
                                            acc.ready_at().expect("accepted access has a time");
                                        let raw = self.mem.read(addr, unit.size());
                                        let e = self.rob.get_mut(seq).expect("in flight");
                                        e.outcome = Some(outcome);
                                        e.load_value = Some(exec::load_result(unit, raw));
                                        e.state = UopState::Executing { done_at: ready };
                                        self.schedule_wb(ready, seq);
                                        Start::Started
                                    }
                                }
                            }
                        }
                    }
                    _ => unreachable!("AGU uops are loads or stores"),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Decode / rename / dispatch
    // ------------------------------------------------------------------

    /// Micro-op metadata for `pc`, from the precomputed table when the pc
    /// is a live predecoded slot; otherwise classified from the fetched
    /// instruction (identical result — the table is just memoization).
    #[inline]
    fn uop_for(&self, pc: u64, inst: &Inst) -> UopInfo {
        let off = pc.wrapping_sub(self.text_base);
        if off & 3 == 0 {
            if let Some(Some(u)) = self.uop_table.get((off >> 2) as usize) {
                return *u;
            }
        }
        classify(inst)
    }

    fn dispatch<const TRACED: bool>(&mut self) {
        for _ in 0..self.cfg.decode_width {
            let Some(f) = self.fetch_buffer.front().copied() else { break };
            let uop = self.uop_for(f.pc, &f.inst);

            // All resource checks happen before any state changes.
            if self.rob.is_full() {
                break;
            }
            if self.iq(uop.iq).is_full() {
                break;
            }
            if f.inst.is_load() && self.lsu.ldq_full() {
                break;
            }
            if f.inst.is_store() && self.lsu.stq_full() {
                break;
            }
            if needs_snapshot(&f.inst) && self.br_inflight >= self.cfg.max_br_count {
                break;
            }
            let needs_int_dest = matches!(uop.dest, Some(DestReg::Int(_)));
            let needs_fp_dest = matches!(uop.dest, Some(DestReg::Fp(_)));
            if needs_int_dest && self.prf_int.free_count() == 0 {
                break;
            }
            if needs_fp_dest && self.prf_fp.free_count() == 0 {
                break;
            }

            self.fetch_buffer.pop_front();
            self.stats.fetch_buffer_reads += 1;
            self.stats.decoded += 1;

            // Rename sources, probing the busy table once per source so
            // the issue-queue entry starts with an exact pending mask.
            let mut srcs: [Option<SrcPhys>; 3] = [None; 3];
            let mut pending: u8 = 0;
            for (slot, s) in uop.srcs.iter().enumerate() {
                srcs[slot] = match s {
                    Some(SrcReg::Int(r)) => {
                        self.stats.int_rename.map_reads += 1;
                        let p = self.rat_int.get(r.index());
                        if !self.prf_int.is_ready(p) {
                            pending |= 1 << slot;
                        }
                        Some(SrcPhys::Int(p))
                    }
                    Some(SrcReg::Fp(r)) => {
                        self.stats.fp_rename.map_reads += 1;
                        let p = self.rat_fp.get(r.index());
                        if !self.prf_fp.is_ready(p) {
                            pending |= 1 << slot;
                        }
                        Some(SrcPhys::Fp(p))
                    }
                    None => None,
                };
            }

            // Rename destination.
            let dest = match uop.dest {
                Some(DestReg::Int(r)) => {
                    let new = self.prf_int.alloc().expect("free count checked");
                    let prev = self.rat_int.set(r.index(), new);
                    self.stats.int_rename.freelist_pops += 1;
                    self.stats.int_rename.map_writes += 1;
                    DestPhys::Int { arch: r.index(), new, prev }
                }
                Some(DestReg::Fp(r)) => {
                    let new = self.prf_fp.alloc().expect("free count checked");
                    let prev = self.rat_fp.set(r.index(), new);
                    self.stats.fp_rename.freelist_pops += 1;
                    self.stats.fp_rename.map_writes += 1;
                    DestPhys::Fp { arch: r.index(), new, prev }
                }
                None => DestPhys::None,
            };

            // Branches snapshot *both* allocation lists — the paper's Key
            // Takeaway #3: the FP rename unit burns power on every branch
            // even in integer-only code.
            if needs_snapshot(&f.inst) {
                self.br_inflight += 1;
                self.stats.int_rename.snapshot_writes += 1;
                self.stats.fp_rename.snapshot_writes += 1;
            }

            let entry = RobEntry {
                seq: 0, // assigned by the ROB
                pc: f.pc,
                inst: f.inst,
                dispatched_at: self.cycle,
                uop,
                srcs,
                dest,
                state: UopState::Waiting,
                actual_next: f.pc.wrapping_add(4),
                taken: false,
                mispredicted: false,
                ldq_idx: None,
                in_stq: f.inst.is_store(),
                outcome: None,
                load_value: None,
            };
            let seq = self.rob.push(entry);
            if f.inst.is_control_flow() {
                // Branch bookkeeping lives in a seq-indexed side table
                // (live seqs span less than one ROB capacity, so the
                // modular slot is unique while the uop is in flight).
                self.branch_info[(seq as usize) % self.cfg.rob_entries] = BranchInfo {
                    pred_next: f.pred_next,
                    pred_taken: f.pred_taken,
                    pre_hist: f.pre_hist,
                    meta: f.meta,
                    kind: f.kind.unwrap_or(BranchKind::Jump),
                };
            }
            self.stats.rob_writes += 1;
            if TRACED {
                if let Some(t) = &mut self.tracer {
                    t.dispatch(self.cycle, seq, f.pc, &f.inst);
                }
            }

            if f.inst.is_load() {
                let idx = self.lsu.dispatch_load(seq, &mut self.stats);
                self.rob.get_mut(seq).expect("just pushed").ldq_idx = Some(idx);
            }
            if f.inst.is_store() {
                self.lsu.dispatch_store(seq, &mut self.stats);
            }

            match uop.iq {
                IqKind::Int => self.iq_int.insert(seq, srcs, pending, &mut self.stats.int_iq),
                IqKind::Mem => self.iq_mem.insert(seq, srcs, pending, &mut self.stats.mem_iq),
                IqKind::Fp => self.iq_fp.insert(seq, srcs, pending, &mut self.stats.fp_iq),
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch / branch prediction
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        if let Some((target, at)) = self.redirect {
            if self.cycle < at {
                return;
            }
            self.fetch_pc = target;
            self.fetch_pending = None;
            self.fetch_wedged = false;
            self.redirect = None;
        }
        if self.fetch_wedged {
            return;
        }
        if self.fetch_buffer.len() >= self.cfg.fetch_buffer_entries {
            return;
        }
        match self.fetch_pending {
            None => {
                match self.icache.access(
                    self.fetch_pc,
                    false,
                    self.cycle,
                    &mut self.stats.icache,
                    self.mem_backend.as_mut(),
                    &mut self.stats.mem,
                ) {
                    Access::Blocked => {}
                    acc => self.fetch_pending = acc.ready_at(),
                }
            }
            Some(ready) if self.cycle >= ready => {
                self.fetch_pending = None;
                self.deliver_fetch_group();
            }
            Some(_) => {}
        }
    }

    fn deliver_fetch_group(&mut self) {
        let line_bytes = self.cfg.icache.line_bytes as u64;
        let line_end = (self.fetch_pc & !(line_bytes - 1)) + line_bytes;
        let mut pc = self.fetch_pc;

        for _ in 0..self.cfg.fetch_width {
            if pc >= line_end {
                break;
            }
            if self.fetch_buffer.len() >= self.cfg.fetch_buffer_entries {
                break;
            }
            let predecoded = self.image.as_ref().and_then(|i| i.lookup(pc));
            let inst = match predecoded {
                Some(inst) => inst,
                None => match decode(self.mem.fetch(pc)) {
                    Ok(inst) => inst,
                    Err(_) => {
                        // Wrong-path garbage (or program past its end):
                        // freeze the front end until a redirect arrives.
                        self.fetch_wedged = true;
                        self.fetch_pc = pc;
                        return;
                    }
                },
            };

            let mut fetched = FetchedInst {
                pc,
                inst,
                pred_next: pc.wrapping_add(4),
                pred_taken: false,
                pre_hist: self.ghist,
                meta: None,
                kind: None,
            };
            let mut redirect_to: Option<u64> = None;

            match inst {
                Inst::Jal { rd, offset } => {
                    let target = pc.wrapping_add(offset as i64 as u64);
                    let kind = if rd == Reg::Ra { BranchKind::Call } else { BranchKind::Jump };
                    if kind == BranchKind::Call {
                        self.ras.push(pc.wrapping_add(4), &mut self.stats.bp);
                    }
                    fetched.pred_next = target;
                    fetched.pred_taken = true;
                    fetched.kind = Some(kind);
                    redirect_to = Some(target);
                }
                Inst::Jalr { rd, rs1, .. } => {
                    let kind = if rs1 == Reg::Ra && rd == Reg::Zero {
                        BranchKind::Return
                    } else if rd == Reg::Ra {
                        BranchKind::Call
                    } else {
                        BranchKind::Jump
                    };
                    let target = if kind == BranchKind::Return {
                        self.ras.pop(&mut self.stats.bp)
                    } else {
                        self.btb.lookup(pc, &mut self.stats.bp).map(|(t, _)| t)
                    };
                    if kind == BranchKind::Call {
                        self.ras.push(pc.wrapping_add(4), &mut self.stats.bp);
                    }
                    let target = target.unwrap_or(pc.wrapping_add(4));
                    fetched.pred_next = target;
                    fetched.pred_taken = true;
                    fetched.kind = Some(kind);
                    redirect_to = Some(target);
                }
                Inst::Branch { offset, .. } => {
                    self.btb.lookup(pc, &mut self.stats.bp);
                    let (taken, meta) = self.pred.predict(pc, self.ghist, &mut self.stats.bp);
                    self.ghist = (self.ghist << 1) | (taken as u128);
                    let target = pc.wrapping_add(offset as i64 as u64);
                    fetched.pred_taken = taken;
                    fetched.pred_next = if taken { target } else { pc.wrapping_add(4) };
                    fetched.meta = Some(meta);
                    fetched.kind = Some(BranchKind::Cond);
                    if taken {
                        redirect_to = Some(target);
                    }
                }
                _ => {}
            }

            self.fetch_buffer.push_back(fetched);
            self.stats.fetch_buffer_writes += 1;

            match redirect_to {
                Some(target) => {
                    self.fetch_pc = target;
                    return;
                }
                None => pc = pc.wrapping_add(4),
            }
        }
        self.fetch_pc = pc;
    }

    // ------------------------------------------------------------------
    // Per-cycle bookkeeping
    // ------------------------------------------------------------------

    fn tick(&mut self) {
        self.iq_int.tick(&mut self.stats.int_iq);
        self.iq_mem.tick(&mut self.stats.mem_iq);
        self.iq_fp.tick(&mut self.stats.fp_iq);
        self.lsu.tick(&mut self.stats);
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.stats.fetch_buffer_occupancy_sum += self.fetch_buffer.len() as u64;
        self.icache.tick(self.cycle, &mut self.stats.icache);
        self.dcache.tick(self.cycle, &mut self.stats.dcache);
    }

    /// Storage bits of the conditional predictor (for the power model).
    pub fn predictor_storage_bits(&self) -> u64 {
        self.pred.storage_bits()
    }

    /// Predictor tables read per lookup (for the power model).
    pub fn predictor_tables_per_lookup(&self) -> u64 {
        self.pred.tables_per_lookup()
    }

    /// BTB storage bits (for the power model).
    pub fn btb_storage_bits(&self) -> u64 {
        self.btb.storage_bits()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Start {
    Started,
    Replay,
    UnitBusy,
}

/// Branches that can mispredict hold a rename snapshot (BOOM's branch tag
/// + allocation lists): conditional branches and indirect jumps.
fn needs_snapshot(inst: &Inst) -> bool {
    matches!(inst, Inst::Branch { .. } | Inst::Jalr { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_isa::asm::Assembler;
    use rv_isa::cpu::Cpu;
    use rv_isa::reg::Reg::*;

    fn run_both(build: impl Fn(&mut Assembler)) -> (Core, Cpu) {
        let mut a = Assembler::new();
        build(&mut a);
        let p = a.assemble().expect("assembly");
        let mut core = Core::new(BoomConfig::medium(), &p);
        let r = core.run(10_000_000);
        assert!(r.exited, "core did not exit: {r:?}");
        let mut cpu = Cpu::new(&p);
        cpu.run(u64::MAX).expect("functional sim");
        (core, cpu)
    }

    fn assert_arch_match(core: &Core, cpu: &Cpu) {
        for r in Reg::ALL {
            assert_eq!(core.arch_x(r), cpu.x(r), "mismatch in {r}");
        }
        for f in FReg::ALL {
            assert_eq!(core.arch_f(f), cpu.fbits(f), "mismatch in {f}");
        }
    }

    #[test]
    fn simple_loop_matches_golden_model() {
        let (core, cpu) = run_both(|a| {
            a.li(A0, 0);
            a.li(T0, 100);
            a.label("loop");
            a.add(A0, A0, T0);
            a.addi(T0, T0, -1);
            a.bnez(T0, "loop");
            a.exit();
        });
        assert_eq!(core.exit_code(), Some(5050));
        assert_eq!(cpu.x(A0), 5050);
        assert_arch_match(&core, &cpu);
        assert!(core.stats().ipc() > 0.3);
    }

    #[test]
    fn memory_traffic_matches_golden_model() {
        let (core, cpu) = run_both(|a| {
            // Store a table, then sum it back.
            a.la(S0, "buf");
            a.li(T0, 64);
            a.li(T1, 7);
            a.mv(T2, S0);
            a.label("fill");
            a.sd(T1, T2, 0);
            a.addi(T1, T1, 13);
            a.addi(T2, T2, 8);
            a.addi(T0, T0, -1);
            a.bnez(T0, "fill");
            a.li(T0, 64);
            a.li(A0, 0);
            a.mv(T2, S0);
            a.label("sum");
            a.ld(T3, T2, 0);
            a.add(A0, A0, T3);
            a.addi(T2, T2, 8);
            a.addi(T0, T0, -1);
            a.bnez(T0, "sum");
            a.exit();
            a.data_label("buf");
            a.zeros(64 * 8);
        });
        assert_arch_match(&core, &cpu);
        // Final memory contents of the buffer must also match.
        let base = 0x8000_0000u64;
        let _ = base;
        assert!(core.stats().forwards + core.stats().dcache.reads > 0);
    }

    #[test]
    fn store_load_forwarding_round_trip() {
        let (core, cpu) = run_both(|a| {
            a.la(S0, "x");
            a.li(T0, 0x1234_5678);
            a.sd(T0, S0, 0);
            a.ld(A0, S0, 0); // immediately reloaded: exercises forwarding
            a.addi(A0, A0, 1);
            a.exit();
            a.data_label("x");
            a.zeros(8);
        });
        assert_arch_match(&core, &cpu);
        assert_eq!(core.arch_x(A0), 0x1234_5679);
    }

    #[test]
    fn function_calls_use_ras() {
        let (core, cpu) = run_both(|a| {
            a.li(A0, 1);
            a.li(S1, 50);
            a.label("loop");
            a.call("twice");
            a.addi(S1, S1, -1);
            a.bnez(S1, "loop");
            a.exit();
            a.label("twice");
            a.add(A0, A0, A0);
            a.srli(A0, A0, 1);
            a.addi(A0, A0, 1);
            a.ret();
        });
        assert_arch_match(&core, &cpu);
        assert!(core.stats().bp.ras_pushes >= 50);
        // Well-predicted returns: mispredicts should be far below call count.
        assert!(core.stats().mispredicts < 30, "mispredicts {}", core.stats().mispredicts);
    }

    #[test]
    fn fp_pipeline_matches_golden_model() {
        use rv_isa::reg::FReg::*;
        let (core, cpu) = run_both(|a| {
            a.la(S0, "vals");
            a.fld(Fa0, S0, 0);
            a.fld(Fa1, S0, 8);
            a.li(T0, 20);
            a.label("loop");
            a.fmadd_d(Fa2, Fa0, Fa1, Fa2);
            a.fdiv_d(Fa3, Fa2, Fa1);
            a.addi(T0, T0, -1);
            a.bnez(T0, "loop");
            a.fcvt_l_d(A0, Fa3);
            a.exit();
            a.data_label("vals");
            a.doubles(&[1.5, 2.5]);
        });
        assert_arch_match(&core, &cpu);
        assert!(core.stats().fpu_ops >= 20);
        assert!(core.stats().fdiv_ops >= 20);
    }

    #[test]
    fn branch_heavy_code_recovers_correctly() {
        // Data-dependent branches that the predictor cannot fully learn:
        // stresses squash/recovery paths.
        let (core, cpu) = run_both(|a| {
            a.li(S0, 0x9E3779B9);
            a.li(S1, 400);
            a.li(A0, 0);
            a.label("loop");
            // pseudo-random bit decides the branch
            a.slli(T1, S0, 13);
            a.xor(S0, S0, T1);
            a.srli(T1, S0, 7);
            a.xor(S0, S0, T1);
            a.slli(T1, S0, 17);
            a.xor(S0, S0, T1);
            a.andi(T2, S0, 1);
            a.beqz(T2, "skip");
            a.addi(A0, A0, 3);
            a.j("join");
            a.label("skip");
            a.addi(A0, A0, 5);
            a.label("join");
            a.addi(S1, S1, -1);
            a.bnez(S1, "loop");
            a.exit();
        });
        assert_arch_match(&core, &cpu);
        assert!(core.stats().mispredicts > 10, "expected real mispredicts");
        assert!(core.stats().squashed > 0);
    }

    #[test]
    fn mega_is_faster_than_medium_on_ilp_code() {
        let build = |a: &mut Assembler| {
            a.li(A0, 0);
            a.li(A1, 0);
            a.li(A2, 0);
            a.li(A3, 0);
            a.li(T0, 2000);
            a.label("loop");
            a.addi(A0, A0, 1);
            a.addi(A1, A1, 2);
            a.addi(A2, A2, 3);
            a.addi(A3, A3, 4);
            a.xori(A4, A0, 5);
            a.xori(A5, A1, 6);
            a.addi(T0, T0, -1);
            a.bnez(T0, "loop");
            a.exit();
        };
        let mut a = Assembler::new();
        build(&mut a);
        let p = a.assemble().unwrap();
        let mut medium = Core::new(BoomConfig::medium(), &p);
        medium.run(10_000_000);
        let mut mega = Core::new(BoomConfig::mega(), &p);
        mega.run(10_000_000);
        let (ipc_m, ipc_g) = (medium.stats().ipc(), mega.stats().ipc());
        assert!(ipc_g > ipc_m * 1.3, "medium {ipc_m:.2} vs mega {ipc_g:.2}");
        assert!(ipc_g > 2.0, "mega should exceed 2 IPC on pure ILP: {ipc_g:.2}");
    }

    #[test]
    fn checkpoint_entry_matches_full_run() {
        // Run functionally to an arbitrary point, restore into the core,
        // finish, and compare against the full functional run.
        let mut a = Assembler::new();
        a.li(A0, 0);
        a.li(T0, 500);
        a.label("loop");
        a.slli(T1, A0, 1);
        a.add(A0, T1, T0);
        a.andi(A0, A0, 0xFF);
        a.addi(T0, T0, -1);
        a.bnez(T0, "loop");
        a.exit();
        let p = a.assemble().unwrap();

        let mut golden = Cpu::new(&p);
        golden.run(u64::MAX).unwrap();

        let mut fun = Cpu::new(&p);
        fun.run(700).unwrap();
        let ck = rv_isa::checkpoint::Checkpoint::capture(&fun);
        let mut core = Core::from_checkpoint(BoomConfig::large(), &ck);
        let r = core.run(10_000_000);
        assert!(r.exited);
        for reg in Reg::ALL {
            assert_eq!(core.arch_x(reg), golden.x(reg), "mismatch in {reg}");
        }
    }

    #[test]
    fn tracer_records_balanced_trace_with_flushes() {
        let mut a = Assembler::new();
        a.li(S0, 0x9E3779B9);
        a.li(S1, 60);
        a.label("loop");
        a.slli(T1, S0, 13);
        a.xor(S0, S0, T1);
        a.srli(T1, S0, 7);
        a.xor(S0, S0, T1);
        a.andi(T2, S0, 1);
        a.beqz(T2, "skip");
        a.addi(A0, A0, 1);
        a.label("skip");
        a.addi(S1, S1, -1);
        a.bnez(S1, "loop");
        a.exit();
        let p = a.assemble().unwrap();
        let mut core = Core::new(BoomConfig::medium(), &p);
        core.attach_tracer();
        let r = core.run(10_000_000);
        assert!(r.exited);
        let trace = core.take_trace().expect("tracer attached");
        assert!(trace.starts_with("Kanata\t0004"));
        // Every stage start is closed and every retired instruction has an
        // R record; mispredictions produce flush records.
        assert_eq!(trace.matches("\nS\t").count(), trace.matches("\nE\t").count());
        let commits = trace.matches("\t0\n").count();
        assert!(commits > 0);
        if core.stats().squashed > 0 {
            assert!(trace.contains("\t1\n"), "expected flush records");
        }
        // Tracer detached: a second take yields nothing.
        assert!(core.take_trace().is_none());
    }

    #[test]
    fn non_collapsing_queue_matches_golden_model() {
        let (..) = (0,);
        let build = |a: &mut Assembler| {
            a.li(S0, 77);
            a.li(S1, 150);
            a.label("loop");
            a.mul(T1, S0, S1);
            a.xor(S0, S0, T1);
            a.andi(T2, S0, 3);
            a.beqz(T2, "skip");
            a.addi(A0, A0, 1);
            a.label("skip");
            a.addi(S1, S1, -1);
            a.bnez(S1, "loop");
            a.exit();
        };
        let mut a = Assembler::new();
        build(&mut a);
        let p = a.assemble().unwrap();
        let mut golden = Cpu::new(&p);
        golden.run(u64::MAX).unwrap();
        let cfg = BoomConfig::large().with_issue_queue(crate::issue::IssueQueueKind::NonCollapsing);
        let mut core = Core::new(cfg, &p);
        let r = core.run(10_000_000);
        assert!(r.exited);
        for reg in Reg::ALL {
            assert_eq!(core.arch_x(reg), golden.x(reg), "mismatch in {reg}");
        }
    }

    #[test]
    fn stats_reset_keeps_state() {
        let mut a = Assembler::new();
        a.li(T0, 300);
        a.label("l");
        a.addi(T0, T0, -1);
        a.bnez(T0, "l");
        a.exit();
        let p = a.assemble().unwrap();
        let mut core = Core::new(BoomConfig::medium(), &p);
        core.run(100);
        assert!(core.stats().retired >= 100);
        core.reset_stats();
        assert_eq!(core.stats().retired, 0);
        let r = core.run(10_000_000);
        assert!(r.exited, "must continue seamlessly after reset");
    }
}
