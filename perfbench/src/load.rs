//! What the workloads share: the engine shape, tables, set-up timing, the
//! ticket ledger, the measurement window and the load generators.
//!
//! Load-generator hygiene, which the numbers depend on:
//! - The in-flight window stays at or below the engine's ingest ring
//!   capacity (256 per execution thread). A deeper window only parks work
//!   in the ring, where it adds latency and buys no throughput.
//! - A client that finds nothing completed yields its core instead of
//!   spinning. The host has two cores and the engine's CC and execution
//!   threads poll on both, so a spinning client takes CPU the engine
//!   needs: a 512-deep spinning client drove the contended workload at
//!   10.3k txns/s instead of 142k, and a spinning open-loop client
//!   delivered 4k of 50k offered txns/s.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus_common::affinity::pin_to_core;
use orthrus_core::{
    AdmissionPolicy, CcAssignment, Completion, EngineHandle, OrthrusConfig, Session, Ticket,
    TrySubmitError,
};
use orthrus_net::NetClient;
use orthrus_part::{route, PartSession, PartitionMap, PartitionedHandle, Route};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};
use orthrus_workload::Gen;

use crate::os::{CpuUse, Threads};
use crate::stats::{calm, interquartile_mean, kept, median, ratio, Samples, Sliced};
use crate::trace::{Kind, Tracer};

/// Bytes per record, every table.
pub const RECORD_SIZE: usize = 100;

/// Keys each transaction reads and increments.
pub const OPS: usize = 10;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Load before the measured window starts. The CC threads' lock tables
/// start small and grow with every new key, and on the 4M-key tables the
/// engine runs at about a third of its speed for the first 1.5 s while
/// they do; the window starts after that.
pub const WARMUP: Duration = Duration::from_secs(2);

/// How long a run waits, after its window, for outstanding transactions
/// before counting them as failed.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// The measured window is cut into slices this long (thirty in a 30 s
/// run). Throughput is the interquartile mean of the slices' rates, not
/// the whole window's: on a 2-core virtual machine a run's rate holds one
/// level for seconds and then moves 10–30%, and single slices stall to a
/// fifth of the usual rate, so a figure over the whole window moves with
/// how many slow seconds a run happens to catch.
///
/// Slices in which the hypervisor took more than 2% of the CPU away
/// ("steal" in `/proc/stat`) do not count, for throughput and for the
/// latency percentiles alike, unless that would leave out more than
/// half. In five 30 s runs of the partitioned workload on a shared
/// server, throughput fell as steal rose (118k txns/s with 15 ticks of
/// steal in the run, 100k with 582) and p99 doubled.
pub const STAT_SLICE: Duration = Duration::from_secs(1);

/// Steal ticks a slice may hold and still count as calm: 2% of its CPU
/// time. Below that, steal is too small to move a slice's figures and
/// too common to leave out (most wire slices hold one or two ticks, and
/// leaving them out moved its p99 from the 20 ms tick to the 16 ms one).
fn steal_allowance() -> u64 {
    let ticks =
        crate::os::host_cores() as u128 * crate::os::USER_HZ as u128 * STAT_SLICE.as_nanos()
            / 1_000_000_000;
    (ticks / 50) as u64
}

/// A traced run alternates traced and untraced slices of this length; the
/// throughput difference between them is the tracer's own cost.
const TRACE_SLICE: Duration = Duration::from_millis(250);

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The engine every workload runs: one CC thread and one execution
/// thread (they pin themselves to cores 0 and 1 and poll), adaptive
/// admission so that skewed load batches and uniform load stays FIFO.
/// A second execution thread on this 2-core host more than halves the
/// contended throughput, because three pollers share two cores.
pub fn engine_config() -> OrthrusConfig {
    let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
    cfg.admission = AdmissionPolicy::adaptive();
    cfg
}

/// Pin the calling client thread of a single in-process engine to its
/// execution thread's core. Client and execution thread feed each other
/// and take turns there, and the CC thread keeps its core to itself. A
/// client left to migrate also preempts the CC thread: in five paired
/// 20 s runs of `hot_closed` the pinned client was faster in every pair
/// (median 141k against 133k txns/s) with a lower p99.
pub fn pin_client() {
    pin_to_core(engine_config().n_cc);
}

pub fn flat_db(records: u64) -> Arc<Database> {
    Arc::new(Database::Flat(Table::new(records as usize, RECORD_SIZE)))
}

/// Sum of every record's counter.
pub fn counter_sum(db: &Database, records: u64) -> u64 {
    (0..records)
        // SAFETY: callers read only after the engine writing `db` has
        // shut down, so no transaction holds or takes a record lock.
        .map(|k| unsafe { db.read_counter(k) })
        .fold(0u64, u64::wrapping_add)
}

/// Run `build` [`SETUP_REPS`] times, timing each, and tear down all but
/// the last result (teardown is not timed). Returns the last result and
/// the median set-up time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut(usize) -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Tear down first, so that peak memory is one set-up's.
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(build(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS >= 1"), median(&times))
}

/// The run's clock: warm-up from `origin`, then the measured window
/// `[start, end)`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub origin: Instant,
    pub start: Instant,
    pub end: Instant,
    trace: bool,
}

impl Window {
    pub fn begin(opts: &Opts) -> Self {
        let origin = Instant::now();
        let start = origin + WARMUP;
        Window {
            origin,
            start,
            end: start + Duration::from_secs(opts.seconds),
            trace: opts.trace,
        }
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Nanoseconds from the window's start to `t` (0 before it).
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    /// How many [`STAT_SLICE`]s the window holds.
    fn slices_len(&self) -> usize {
        let slice = STAT_SLICE.as_nanos() as u64;
        ((self.end - self.start).as_nanos() as u64).div_ceil(slice) as usize
    }

    /// The window cut into [`STAT_SLICE`]s, none of them yet filled.
    fn slices(&self, capacity: usize) -> Sliced {
        Sliced::new(self.slices_len(), STAT_SLICE.as_nanos() as u64, capacity)
    }

    pub fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether spans are recorded at `t`: only in a traced run, only in
    /// the window, and only in every other slice.
    pub fn traced(&self, t: Instant) -> bool {
        self.trace && self.contains(t) && self.slice_of(t).is_multiple_of(2)
    }

    fn slice_of(&self, t: Instant) -> u128 {
        (t - self.start).as_nanos() / TRACE_SLICE.as_nanos()
    }

    /// Total window time inside traced (`on`) or untraced slices.
    fn slice_secs(&self, on: bool) -> f64 {
        let total = (self.end - self.start).as_nanos();
        let slice = TRACE_SLICE.as_nanos();
        (0..total.div_ceil(slice))
            .filter(|k| k.is_multiple_of(2) == on)
            .map(|k| (total - k * slice).min(slice) as f64 / 1e9)
            .sum()
    }
}

/// Completions delivered in traced and untraced slices of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceTally {
    on: u64,
    off: u64,
}

impl SliceTally {
    pub fn count(&mut self, win: &Window, t: Instant) {
        if !win.trace || !win.contains(t) {
            return;
        }
        if win.traced(t) {
            self.on += 1;
        } else {
            self.off += 1;
        }
    }

    pub fn absorb(&mut self, other: SliceTally) {
        self.on += other.on;
        self.off += other.off;
    }

    /// 1 − traced throughput / untraced throughput.
    pub fn overhead(&self, win: &Window) -> f64 {
        let on = ratio(self.on as f64, win.slice_secs(true));
        let off = ratio(self.off as f64, win.slice_secs(false));
        if off == 0.0 {
            0.0
        } else {
            1.0 - on / off
        }
    }
}

/// Per-request bookkeeping: when each id was sent and how often it came
/// back. Ids (tickets, request ids) are dense from 0 in send order.
#[derive(Debug, Default)]
pub struct Ledger {
    sent_ns: Vec<u64>,
    answers: Vec<u8>,
    /// Answers for ids never sent.
    unknown: u64,
    /// Ids that arrived out of the dense send order.
    misordered: u64,
}

const NEVER_SENT: u64 = u64::MAX;

/// What [`Ledger::audit`] found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Audit {
    pub sent: u64,
    pub once: u64,
    pub never: u64,
    pub repeated: u64,
    pub unknown: u64,
    pub misordered: u64,
}

impl Audit {
    pub fn exactly_once(&self) -> bool {
        self.once == self.sent && self.unknown == 0 && self.misordered == 0
    }

    pub fn failed(&self) -> u64 {
        self.never + self.repeated
    }

    pub fn describe(&self) -> String {
        format!(
            "{} sent, {} answered once, {} never, {} repeatedly, {} unknown, {} out of order",
            self.sent, self.once, self.never, self.repeated, self.unknown, self.misordered
        )
    }
}

impl Ledger {
    /// Room for `n` more ids, written once up front like
    /// [`Samples::reserved`].
    pub fn reserve(&mut self, n: usize) {
        let len = self.sent_ns.len();
        self.sent_ns.resize(len + n, NEVER_SENT);
        self.sent_ns.truncate(len);
        self.answers.resize(len + n, 0);
        self.answers.truncate(len);
    }

    pub fn sent(&mut self, id: u64, at_ns: u64) {
        let i = id as usize;
        if i != self.sent_ns.len() {
            self.misordered += 1;
        }
        if i >= self.sent_ns.len() {
            self.sent_ns.resize(i + 1, NEVER_SENT);
            self.answers.resize(i + 1, 0);
        }
        self.sent_ns[i] = at_ns;
    }

    /// Record an answer; returns the send time on its first answer.
    pub fn answered(&mut self, id: u64) -> Option<u64> {
        let i = id as usize;
        match self.sent_ns.get(i) {
            Some(&at) if at != NEVER_SENT => {
                self.answers[i] = self.answers[i].saturating_add(1);
                (self.answers[i] == 1).then_some(at)
            }
            _ => {
                self.unknown += 1;
                None
            }
        }
    }

    pub fn audit(&self) -> Audit {
        let mut a = Audit {
            sent: self.sent_ns.iter().filter(|&&s| s != NEVER_SENT).count() as u64,
            once: 0,
            never: 0,
            repeated: 0,
            unknown: self.unknown,
            misordered: self.misordered,
        };
        for (&s, &n) in self.sent_ns.iter().zip(&self.answers) {
            match (s != NEVER_SENT, n) {
                (false, _) => {}
                (true, 0) => a.never += 1,
                (true, 1) => a.once += 1,
                (true, _) => a.repeated += 1,
            }
        }
        a
    }
}

/// An in-process engine front door the loops below drive.
pub trait Target: Send {
    fn try_submit(&mut self, p: Program, tr: &mut Tracer) -> Result<Ticket, TrySubmitError>;
    fn drain(&mut self, out: &mut Vec<Completion>, tr: &mut Tracer) -> usize;
    /// Called at the start of the measured window.
    fn begin_measurement(&mut self) {}
    /// Called on each generated program in a traced slice.
    fn observe(&mut self, _p: &Program, _tr: &mut Tracer) {}
}

/// One engine through a `Session` and its `EngineHandle`.
pub struct Single {
    pub session: Session,
    pub handle: EngineHandle,
}

impl Target for Single {
    fn try_submit(&mut self, p: Program, tr: &mut Tracer) -> Result<Ticket, TrySubmitError> {
        let s = tr.start();
        let r = self.session.try_submit(p);
        tr.end(Kind::Submit, s, 0);
        r
    }

    fn drain(&mut self, out: &mut Vec<Completion>, tr: &mut Tracer) -> usize {
        let s = tr.start();
        let n = self.handle.drain_completions(out);
        tr.end(Kind::Drain, s, n);
        n
    }

    fn begin_measurement(&mut self) {
        self.handle.begin_measurement();
    }
}

/// The partitioned engine through a `PartSession`.
pub struct Parted {
    pub session: PartSession,
    pub handle: PartitionedHandle,
    pub map: PartitionMap,
    /// Programs classified (traced slices only) and how many were
    /// cross-partition.
    pub classified: u64,
    pub cross: u64,
}

impl Target for Parted {
    fn try_submit(&mut self, p: Program, tr: &mut Tracer) -> Result<Ticket, TrySubmitError> {
        let s = tr.start();
        let r = self.session.try_submit(p);
        tr.end(Kind::PartSubmit, s, 0);
        r
    }

    fn drain(&mut self, out: &mut Vec<Completion>, tr: &mut Tracer) -> usize {
        let s = tr.start();
        let n = self.handle.drain_completions(out);
        tr.end(Kind::PartDrain, s, n);
        n
    }

    fn observe(&mut self, p: &Program, tr: &mut Tracer) {
        let s = tr.start();
        let r = route(p, &self.map);
        tr.end(Kind::Route, s, 0);
        self.classified += 1;
        if matches!(r, Route::Cross(_)) {
            self.cross += 1;
        }
    }
}

/// What a load loop saw.
pub struct LoopOutcome {
    pub ledger: Ledger,
    /// Open loop: client-side latency (ns) of the window's transactions.
    pub latency: Samples,
    /// Closed loops: the same, filed by the slice of the window each
    /// completed in. `None` for the open loop, which reports its whole
    /// window.
    pub by_slice: Option<Sliced>,
    /// Host steal ticks at the start of each slice, then at the window's
    /// end, as the client thread saw them.
    pub steal_marks: Vec<u64>,
    /// Engine-reported submit→commit latency (ns) of the same; traced
    /// runs only, as it feeds per-layer metrics only.
    pub engine_latency: Samples,
    /// Open loop: how late each window transaction was submitted (ns).
    pub late: Samples,
    /// Completions received inside the window.
    pub delivered: u64,
    /// Open loop: transactions due inside the window.
    pub offered: u64,
    /// `Full` rejections, each retried later.
    pub full: u64,
    pub tracer: Tracer,
    pub tally: SliceTally,
    pub cpu: CpuUse,
}

impl LoopOutcome {
    pub fn new(win: &Window, capacity: usize) -> Self {
        LoopOutcome {
            ledger: Ledger::default(),
            latency: Samples::default(),
            by_slice: Some(win.slices(capacity)),
            steal_marks: Vec::new(),
            engine_latency: if win.trace {
                Samples::with_capacity(capacity)
            } else {
                Samples::default()
            },
            late: Samples::default(),
            delivered: 0,
            offered: 0,
            full: 0,
            tracer: Tracer::new(false, win.origin),
            tally: SliceTally::default(),
            cpu: CpuUse::default(),
        }
    }

    /// Completions per second over the window as the client measured it:
    /// from its first step inside the window to its first step past it.
    pub fn throughput(&self) -> f64 {
        ratio(self.delivered as f64 * 1e9, self.cpu.wall_ns as f64)
    }

    /// Read the host's steal clock at each slice boundary from the
    /// window's start to its end; call on every turn of the load loop.
    fn mark_slices(&mut self, win: &Window, now: Instant) {
        if now < win.start {
            return;
        }
        let slices = win.slices_len();
        let at = ((win.offset_ns(now) / STAT_SLICE.as_nanos() as u64) as usize).min(slices);
        while self.steal_marks.len() <= at {
            self.steal_marks.push(crate::os::steal_ticks());
        }
    }

    /// Steal ticks in each slice; empty unless every boundary was marked.
    pub fn steal_per_slice(&self) -> Vec<u64> {
        self.steal_marks.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Record a transaction that completed at `now` inside the window.
    fn completed(&mut self, win: &Window, now: Instant, latency_ns: u64, engine_ns: u64) {
        self.delivered += 1;
        if win.trace {
            self.engine_latency.push(engine_ns);
        }
        if let Some(s) = self.by_slice.as_mut() {
            s.push(win.offset_ns(now), latency_ns);
        }
        self.tally.count(win, now);
    }

    /// Throughput (1/s) and client latency p50 and p99 (ns) over the
    /// window's calm slices (see [`calm`]): the interquartile mean of the
    /// slices' throughputs, and exact percentiles over all their
    /// transactions. Percentiles are not taken per slice: on the wire a
    /// slice's p99 steps between the 16, 20 and 24 ms scheduler ticks, and
    /// over five 30 s runs their interquartile mean spread 18% against 11%
    /// for the pooled figure. Whole-window figures for the open loop.
    pub fn end_to_end(&mut self) -> [f64; 3] {
        let steal = self.steal_per_slice();
        match self.by_slice.as_mut() {
            Some(s) => {
                let rates = s.rates();
                let keep = calm(&steal, rates.len(), steal_allowance());
                [
                    interquartile_mean(&kept(&rates, &keep)),
                    s.pooled_percentile(&keep, 0.50) as f64,
                    s.pooled_percentile(&keep, 0.99) as f64,
                ]
            }
            None => [
                self.throughput(),
                self.latency.percentile(0.50) as f64,
                self.latency.percentile(0.99) as f64,
            ],
        }
    }

    /// Latency samples over the whole window, and their p50 and p99 (ns).
    pub fn whole_window(&mut self) -> (usize, u64, u64) {
        match self.by_slice.as_mut() {
            Some(s) => {
                let all = vec![true; s.rates().len()];
                let n = s.len();
                (
                    n,
                    s.pooled_percentile(&all, 0.50),
                    s.pooled_percentile(&all, 0.99),
                )
            }
            None => (
                self.latency.len(),
                self.latency.percentile(0.50),
                self.latency.percentile(0.99),
            ),
        }
    }

    /// Fold in another client thread's outcome over the same window. The
    /// ledger stays this thread's (ids are per connection) and the CPU
    /// snapshot too (it covers the whole process).
    pub fn absorb(&mut self, other: LoopOutcome) {
        self.latency.extend(other.latency);
        if let (Some(mine), Some(theirs)) = (self.by_slice.as_mut(), other.by_slice) {
            mine.extend(theirs);
        }
        self.engine_latency.extend(other.engine_latency);
        self.late.extend(other.late);
        self.delivered += other.delivered;
        self.offered += other.offered;
        self.full += other.full;
        self.tracer.absorb(other.tracer);
        self.tally.absorb(other.tally);
    }
}

fn next_program(gen: &mut Gen, tr: &mut Tracer) -> Program {
    let s = tr.start();
    let p = gen.next_program();
    tr.end(Kind::NextProgram, s, 0);
    p
}

fn next_observed(gen: &mut Gen, target: &mut impl Target, tr: &mut Tracer) -> Program {
    let p = next_program(gen, tr);
    if tr.is_on() {
        target.observe(&p, tr);
    }
    p
}

/// Run `programs` to completion, `depth` in flight, recording each in
/// `ledger`. Untimed; gives up after [`DRAIN_DEADLINE`] without progress,
/// leaving the unanswered ids for the ledger's audit.
pub fn sweep(
    target: &mut impl Target,
    programs: impl Iterator<Item = Program>,
    depth: usize,
    ledger: &mut Ledger,
) {
    let mut tr = Tracer::new(false, Instant::now());
    let mut programs = programs.peekable();
    let mut pending: Option<Program> = None;
    let mut inflight = 0usize;
    let mut buf: Vec<Completion> = Vec::with_capacity(1024);
    let mut progress = Instant::now();
    while (inflight > 0 || pending.is_some() || programs.peek().is_some())
        && progress.elapsed() < DRAIN_DEADLINE
    {
        while inflight < depth {
            let Some(p) = pending.take().or_else(|| programs.next()) else {
                break;
            };
            match target.try_submit(p, &mut tr) {
                Ok(t) => {
                    ledger.sent(t.0, 0);
                    inflight += 1;
                }
                Err(e) => {
                    pending = Some(e.into_program());
                    break;
                }
            }
        }
        buf.clear();
        if target.drain(&mut buf, &mut tr) == 0 {
            std::thread::yield_now();
            continue;
        }
        progress = Instant::now();
        for c in &buf {
            if ledger.answered(c.ticket.0).is_some() {
                inflight -= 1;
            }
        }
    }
}

/// Closed loop: keep `depth` transactions in flight until the window
/// ends, then wait for the stragglers.
pub fn closed_loop(
    target: &mut impl Target,
    gen: &mut Gen,
    depth: usize,
    win: &Window,
    threads: &Threads,
    capacity: usize,
    ledger: Ledger,
) -> LoopOutcome {
    let mut out = LoopOutcome::new(win, capacity);
    out.ledger = ledger;
    out.ledger.reserve(capacity);
    let mut pending: Option<Program> = None;
    let mut inflight = 0usize;
    let mut buf: Vec<Completion> = Vec::with_capacity(1024);
    let mut cpu0 = None;
    loop {
        let now = Instant::now();
        out.mark_slices(win, now);
        if now >= win.end {
            break;
        }
        if cpu0.is_none() && now >= win.start {
            target.begin_measurement();
            cpu0 = Some(threads.snapshot());
        }
        out.tracer.set_on(win.traced(now));
        while inflight < depth {
            let p = match pending.take() {
                Some(p) => p,
                None => next_observed(gen, target, &mut out.tracer),
            };
            let at = Instant::now();
            match target.try_submit(p, &mut out.tracer) {
                Ok(t) => {
                    out.ledger.sent(t.0, win.ns(at));
                    inflight += 1;
                }
                Err(e) => {
                    // Full is backpressure: the same program goes again
                    // next round. The engine never shuts down under a
                    // live run, so Shutdown does not occur here.
                    out.full += 1;
                    pending = Some(e.into_program());
                    break;
                }
            }
        }
        buf.clear();
        let n = target.drain(&mut buf, &mut out.tracer);
        let now = Instant::now();
        for c in &buf {
            if let Some(sent) = out.ledger.answered(c.ticket.0) {
                inflight = inflight.saturating_sub(1);
                if win.contains(now) {
                    out.completed(win, now, win.ns(now).saturating_sub(sent), c.latency_ns);
                }
            }
        }
        if n == 0 {
            std::thread::yield_now();
        }
    }
    out.tracer.set_on(false);
    out.cpu = cpu0
        .map(|c| c.until(&threads.snapshot()))
        .unwrap_or_default();
    drain_rest(target, &mut out, &mut buf, win, |_, _| {});
    out
}

/// Wait up to [`DRAIN_DEADLINE`] for every outstanding transaction;
/// `on_answer(send_ns, answer_ns)` sees each first answer.
fn drain_rest(
    target: &mut impl Target,
    out: &mut LoopOutcome,
    buf: &mut Vec<Completion>,
    win: &Window,
    mut on_answer: impl FnMut(u64, u64),
) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut answered = out.ledger.audit();
    while answered.never > 0 && Instant::now() < deadline {
        buf.clear();
        if target.drain(buf, &mut out.tracer) == 0 {
            std::thread::yield_now();
            continue;
        }
        let now = win.ns(Instant::now());
        for c in buf.iter() {
            if let Some(sent) = out.ledger.answered(c.ticket.0) {
                answered.never -= 1;
                on_answer(sent, now);
            }
        }
    }
}

/// Open loop: offer transactions at `rate` per second on a fixed
/// schedule from the run's origin, whatever the engine's progress.
/// Latency runs from each transaction's due time, so a stall is charged
/// to every transaction that queued behind it.
pub fn open_loop(
    target: &mut impl Target,
    gen: &mut Gen,
    rate: f64,
    win: &Window,
    threads: &Threads,
) -> LoopOutcome {
    let interval = 1e9 / rate;
    let due = |i: u64| (i as f64 * interval) as u64;
    let (start_ns, end_ns) = (win.ns(win.start), win.ns(win.end));
    let capacity = (rate * (win.secs() + WARMUP.as_secs_f64()) * 1.1) as usize;
    let mut out = LoopOutcome::new(win, capacity);
    out.by_slice = None;
    out.ledger.reserve(capacity);
    out.latency = Samples::with_capacity(capacity);
    out.late = Samples::with_capacity(capacity);
    let mut pending: Option<Program> = None;
    let mut next = 0u64;
    let mut buf: Vec<Completion> = Vec::with_capacity(1024);
    let mut cpu0 = None;
    let in_window = |d: u64| d >= start_ns && d < end_ns;
    // Every transaction due inside the window is offered, even when the
    // client is behind at the window's end.
    while due(next) < end_ns {
        let now = Instant::now();
        if cpu0.is_none() && now >= win.start {
            target.begin_measurement();
            cpu0 = Some(threads.snapshot());
        }
        if now >= win.end && cpu0.is_some() && out.cpu.wall_ns == 0 {
            out.cpu = cpu0
                .as_ref()
                .map(|c| c.until(&threads.snapshot()))
                .unwrap_or_default();
        }
        out.tracer.set_on(win.traced(now));
        let now_ns = win.ns(now);
        let mut progressed = false;
        while due(next) <= now_ns && due(next) < end_ns {
            let p = match pending.take() {
                Some(p) => p,
                None => next_observed(gen, target, &mut out.tracer),
            };
            let at = Instant::now();
            match target.try_submit(p, &mut out.tracer) {
                Ok(t) => {
                    let d = due(next);
                    out.ledger.sent(t.0, d);
                    if in_window(d) {
                        out.offered += 1;
                        out.late.push(win.ns(at).saturating_sub(d));
                    }
                    next += 1;
                    progressed = true;
                }
                Err(e) => {
                    out.full += 1;
                    pending = Some(e.into_program());
                    break;
                }
            }
        }
        buf.clear();
        let n = target.drain(&mut buf, &mut out.tracer);
        let now = Instant::now();
        for c in &buf {
            if let Some(d) = out.ledger.answered(c.ticket.0) {
                if in_window(d) {
                    out.latency.push(win.ns(now).saturating_sub(d));
                    if win.trace {
                        out.engine_latency.push(c.latency_ns);
                    }
                }
                if win.contains(now) {
                    out.delivered += 1;
                    out.tally.count(win, now);
                }
            }
        }
        if !progressed && n == 0 {
            std::thread::yield_now();
        }
    }
    out.tracer.set_on(false);
    if out.cpu.wall_ns == 0 {
        out.cpu = cpu0
            .map(|c| c.until(&threads.snapshot()))
            .unwrap_or_default();
    }
    let mut latency = std::mem::take(&mut out.latency);
    drain_rest(target, &mut out, &mut buf, win, |d, now| {
        if in_window(d) {
            latency.push(now.saturating_sub(d));
        }
    });
    out.latency = latency;
    out
}

/// Each wire connection is a closed-loop caller with this many requests
/// in flight.
pub const WIRE_WINDOW: usize = 128;

/// Closed loop over one TCP connection. The connection sends only once
/// half its window is free, in one frame: topping up after every
/// response degenerates into frames of one or two requests, a syscall
/// and a context switch per transaction.
///
/// Each connection gets its own client thread. `poll_responses` blocks
/// for up to its read timeout (1 ms, which the kernel rounds up to a
/// 4 ms tick) when nothing has arrived, so one thread polling two
/// connections in turn makes each wait on the other's empty reads: its
/// median latency then flips between 16, 20 and 24 ms from run to run.
pub fn wire_loop(
    conn: &mut NetClient,
    gen: &mut Gen,
    win: &Window,
    threads: &Threads,
    capacity: usize,
) -> LoopOutcome {
    let mut out = LoopOutcome::new(win, capacity);
    out.ledger.reserve(capacity);
    let mut inflight = 0usize;
    let mut got = Vec::with_capacity(2 * WIRE_WINDOW);
    let mut cpu0 = None;
    let mut receive = |conn: &mut NetClient, out: &mut LoopOutcome, inflight: &mut usize| {
        got.clear();
        let s = out.tracer.start();
        let n = conn
            .poll_responses(&mut got)
            .expect("loopback connection to the benchmark's own server");
        out.tracer.end(Kind::Poll, s, n);
        let now = Instant::now();
        for m in &got {
            if let Some(sent) = out.ledger.answered(m.req_id) {
                *inflight -= 1;
                if win.contains(now) {
                    out.completed(win, now, win.ns(now).saturating_sub(sent), m.latency_ns);
                }
            }
        }
    };
    loop {
        let now = Instant::now();
        out.mark_slices(win, now);
        if now >= win.end {
            break;
        }
        if cpu0.is_none() && now >= win.start {
            cpu0 = Some(threads.snapshot());
        }
        out.tracer.set_on(win.traced(now));
        let free = WIRE_WINDOW - inflight;
        if free >= WIRE_WINDOW / 2 {
            let batch: Vec<Program> = (0..free)
                .map(|_| next_program(gen, &mut out.tracer))
                .collect();
            let at = Instant::now();
            let s = out.tracer.start();
            let ids = conn
                .send_batch(batch)
                .expect("loopback connection to the benchmark's own server");
            out.tracer.end(Kind::Send, s, ids.len());
            for id in ids {
                out.ledger.sent(id, win.ns(at));
            }
            inflight += free;
        }
        // An empty read blocks, so an idle client sleeps rather than spins.
        receive(conn, &mut out, &mut inflight);
    }
    out.tracer.set_on(false);
    out.cpu = cpu0
        .map(|c| c.until(&threads.snapshot()))
        .unwrap_or_default();
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while inflight > 0 && Instant::now() < deadline {
        receive(conn, &mut out, &mut inflight);
    }
    out
}
