//! The ORTHRUS engine: queue fabric wiring and the run protocol.
//!
//! The fabric is a full mesh of SPSC rings, one per (producer, consumer)
//! pair (Section 3.1): every execution thread has a private ring into
//! every CC thread (acquires and releases), every CC thread has a private
//! ring into every other CC thread (forwards) and into every execution
//! thread (grants). Ring capacities are sized from the in-flight bounds so
//! the steady state never blocks on a full ring:
//!
//! - exec→cc: ≤ 1 acquire + 1 release per in-flight transaction;
//! - cc→cc: ≤ 1 in-flight forward per in-flight transaction system-wide;
//! - cc→exec: ≤ 1 outstanding grant per in-flight transaction.
//!
//! Messages move in **batches** ([`OrthrusConfig::flush_threshold`]):
//! both thread kinds stage outgoing messages per destination during one
//! scheduling quantum and publish each destination's batch with a single
//! slice push (one atomic store), and drain their inputs in per-lane
//! batches. Staged messages are a subset of the same in-flight bounds
//! above — batching moves queue occupancy out of the rings, never adds to
//! it — so the capacity sizing (and the deadlock-freedom argument that
//! rests on it) is unchanged from the per-message fabric, which remains
//! available as `flush_threshold = 1`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use orthrus_common::affinity::pin_to_core;
use orthrus_common::runtime::{RunCtl, RunParams};
use orthrus_common::sim;
use orthrus_common::{Backoff, RunStats, ThreadStats};
use orthrus_durability::checkpoint::{run_checkpointer, write_initial_checkpoint};
use orthrus_durability::{run_sync_coordinator, CommandLog, ReplayReport};
use orthrus_spsc::{channel_labeled, Consumer, FanIn, Producer};
use orthrus_txn::Database;
use orthrus_workload::Spec;

use crate::cc::{CcState, OutMsg};
use crate::config::OrthrusConfig;
use crate::msg::{CcRequest, ExecResponse};
use crate::session::{Session, SubmitShared};
use crate::shared::SharedCcState;
use crate::source::{ClientSource, Completion, Submission, SyntheticSource, TxnSource};

/// A typed shutdown/recovery failure: the error paths the fault injector
/// can reach (fsync failure, a worker killed by an injected fault) report
/// here instead of panicking the client thread, so a harness can observe
/// graceful degradation.
#[derive(Debug)]
pub enum EngineError {
    /// A worker thread panicked; the payload is its panic message. The
    /// engine is stopped and every thread joined — nothing leaks — but
    /// run statistics are lost and the database may hold only a prefix
    /// of the accepted work.
    WorkerPanicked(String),
    /// The final command-log sync failed: the engine stopped cleanly but
    /// the OS-buffered log suffix may not be durable.
    LogSync(std::io::Error),
    /// Recovery could not read or repair the command log.
    Recovery(std::io::Error),
    /// A previous [`EngineHandle::try_shutdown`] already failed with the
    /// contained message; the handle is spent.
    Failed(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::WorkerPanicked(msg) => write!(f, "engine worker panicked: {msg}"),
            EngineError::LogSync(e) => write!(f, "command-log sync failed: {e}"),
            EngineError::Recovery(e) => write!(f, "command-log recovery failed: {e}"),
            EngineError::Failed(msg) => write!(f, "engine already shut down uncleanly: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::LogSync(e) | EngineError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}

/// Render a `JoinHandle::join` panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Endpoints handed to one CC thread at startup.
struct CcEndpoints {
    fanin: FanIn<CcRequest>,
    to_cc: Vec<Producer<CcRequest>>,
    to_exec: Vec<Producer<ExecResponse>>,
}

/// Endpoints handed to one execution thread at startup.
struct ExecEndpoints {
    fanin: FanIn<ExecResponse>,
    to_cc: Vec<Producer<CcRequest>>,
}

/// The assembled engine.
pub struct OrthrusEngine {
    db: Arc<Database>,
    /// The closed-loop workload ([`Self::run`]); `None` for engines built
    /// with [`Self::service`], which are driven by client sessions
    /// instead.
    spec: Option<Spec>,
    cfg: OrthrusConfig,
    /// The command log ([`OrthrusConfig::durability`]): opened once at
    /// construction, shared by every execution thread, synced when a run
    /// or service shuts down. `None` when durability is off.
    log: Option<Arc<CommandLog>>,
}

impl OrthrusEngine {
    /// Build a closed-loop engine over `db` running `spec`
    /// (self-driving: each execution thread generates its own work).
    ///
    /// # Panics
    /// Rejects configurations [`OrthrusConfig::validate`] flags (zero
    /// thread counts, zero in-flight cap, degenerate admission or
    /// assignment shapes) — better a loud construction failure than an
    /// engine that silently hangs or starves at run time.
    pub fn new(db: Arc<Database>, spec: Spec, cfg: OrthrusConfig) -> Self {
        OrthrusEngine {
            spec: Some(spec),
            ..Self::service(db, cfg)
        }
    }

    /// Build a service-mode engine over `db`: no synthetic workload —
    /// transactions arrive through client [`Session`]s after
    /// [`Self::start`]. Validation as in [`Self::new`].
    pub fn service(db: Arc<Database>, cfg: OrthrusConfig) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("invalid OrthrusConfig: {why}");
        }
        let log = open_log(&cfg);
        ensure_initial_checkpoint(&cfg, &db, &log);
        OrthrusEngine {
            db,
            spec: None,
            cfg,
            log,
        }
    }

    /// Crash recovery: replay the command log at [`OrthrusConfig::log_dir`]
    /// through the engine's own `execute_planned` path to rebuild `db`'s
    /// table state, repair the log's torn tail in place, and return a
    /// **service-mode** engine that continues appending where the valid
    /// prefix ends — plus the replay's audit report.
    ///
    /// `db` must be the same logical snapshot the log started from (for
    /// this reproduction: a freshly loaded database with the original
    /// seed). When the directory holds a valid fuzzy checkpoint, `db` is
    /// overwritten from its image and only the log suffix past it
    /// replays — across [`OrthrusConfig::replay_threads`] when > 1
    /// (footprint-parallel leveling, bit-identical to serial).
    ///
    /// # Panics
    /// On an invalid configuration, a durability mode of `Off` (there is
    /// nothing to recover from), or an unreadable log. Callers that need
    /// to survive an unreadable log use [`Self::try_recover`].
    pub fn recover(db: Arc<Database>, cfg: OrthrusConfig) -> (Self, ReplayReport) {
        Self::try_recover(db, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::recover`], reporting an unreadable or unrepairable log as
    /// a typed [`EngineError::Recovery`] instead of panicking. Config
    /// misuse (invalid shape, durability off) still panics — those are
    /// construction bugs, not runtime faults.
    pub fn try_recover(
        db: Arc<Database>,
        cfg: OrthrusConfig,
    ) -> Result<(Self, ReplayReport), EngineError> {
        if let Err(why) = cfg.validate() {
            panic!("invalid OrthrusConfig: {why}");
        }
        assert!(
            cfg.durability.is_on(),
            "recover() needs durability on; with DurabilityMode::Off there is no log"
        );
        let dir = cfg.log_dir.as_deref().expect("validated: log_dir is set");
        let report = orthrus_durability::recover_with(&db, dir, cfg.replay_threads)
            .map_err(EngineError::Recovery)?;
        Ok((Self::service(db, cfg), report))
    }

    /// The engine configuration.
    pub fn config(&self) -> &OrthrusConfig {
        &self.cfg
    }

    /// Run the closed-loop workload for a timed window: [`Self::start`]'s
    /// lifecycle with one [`SyntheticSource`] per execution thread in
    /// place of the client ingest rings, then warm-up, measurement window
    /// and [`EngineHandle::shutdown`]. [`RunStats::threads`] counts the
    /// execution threads; the CC threads' (and the group-fsync
    /// coordinator's) counters merge into the last of them.
    ///
    /// # Panics
    /// - on an engine built with [`Self::service`] (no workload spec);
    /// - if `params.threads` is neither `0` ("derive from the engine")
    ///   nor exactly [`OrthrusConfig::total_threads`] — the engine always
    ///   runs its own CC/exec split, and a silently ignored mismatch
    ///   would let a harness mislabel what it measured;
    /// - if a worker panics or the final command-log sync fails, as
    ///   [`EngineHandle::shutdown`] does.
    pub fn run(&self, params: &RunParams) -> RunStats {
        let spec = self
            .spec
            .as_ref()
            .expect("closed-loop run() needs a workload spec; service engines use start()");
        assert!(
            params.threads == 0 || params.threads == self.cfg.total_threads(),
            "RunParams.threads = {} does not match the engine's {} CC + {} exec threads \
             (pass 0 to derive from the engine)",
            params.threads,
            self.cfg.n_cc,
            self.cfg.n_exec,
        );
        // The synthetic source wraps the seed's generator stream
        // unchanged; synthetic work reports no completions.
        let sources = (0..self.cfg.n_exec)
            .map(|ex| (SyntheticSource::new(spec.generator(params.seed, ex)), None))
            .collect();
        let mut handle = self.launch(params.seed, sources, Vec::new(), Vec::new());
        std::thread::sleep(params.warmup);
        handle.begin_measurement();
        std::thread::sleep(params.measure);
        handle.shutdown()
    }

    /// Start the engine in **service mode**: spawn its CC and execution
    /// threads as long-lived workers driven by client submissions, and
    /// return the [`EngineHandle`] that owns them. Execution thread `ex`
    /// admits from a bounded ingest ring
    /// ([`OrthrusConfig::ingest_capacity`]) fed by [`Session`]s — see
    /// [`crate::session`] for routing and backpressure — and reports
    /// every ticketed commit through a completion ring the handle
    /// drains.
    ///
    /// `seed` seeds the planning RNGs (the OLLP reconnaissance stream),
    /// exactly as a closed-loop run's `params.seed` would.
    ///
    /// Admission runs unchanged over the client source; statistics
    /// accumulate until [`EngineHandle::shutdown`] (open a measurement
    /// window with [`EngineHandle::begin_measurement`]).
    pub fn start(&self, seed: u64) -> EngineHandle {
        let cfg = &self.cfg;
        // Fast-path sizing: everything accepted-but-uncompleted sits in
        // the ingest ring, the admission policy's run queues (up to one
        // refill window), or an in-flight slot; doubling covers a client
        // whose draining lags its submitting by a burst. A client that
        // lags further never wedges the engine — completions overflow to
        // an exec-local buffer and re-flush as the client drains (see
        // `ExecThread::completion_overflow`); the ring only bounds the
        // latch-free fast path.
        let completion_capacity =
            2 * (cfg.ingest_capacity + cfg.admission.max_queued_window() + cfg.max_inflight);
        let mut ingest = Vec::with_capacity(cfg.n_exec);
        let mut completions = Vec::with_capacity(cfg.n_exec);
        let mut sources = Vec::with_capacity(cfg.n_exec);
        for _ in 0..cfg.n_exec {
            let (submit_tx, submit_rx) =
                channel_labeled::<Submission>(cfg.ingest_capacity, "ingest");
            let (done_tx, done_rx) =
                channel_labeled::<Completion>(completion_capacity, "completion");
            ingest.push(submit_tx);
            completions.push(done_rx);
            let source = ClientSource::new(submit_rx, cfg.effective_flush_threshold());
            sources.push((source, Some(done_tx)));
        }
        self.launch(seed, sources, ingest, completions)
    }

    /// The one engine lifecycle: build the fabric, spawn the companions
    /// ([`AuxThreads`]) and the pinned, sim-enrolled workers — CC thread
    /// `i` on core `i`, execution thread `ex` on core `n_cc + ex`,
    /// admitting from `sources[ex]` and reporting ticketed commits
    /// through its completion ring, if any — and return the handle that
    /// measures, stops and joins them. `ingest`/`completions` are the
    /// client ends of the sources' rings (empty for synthetic work).
    fn launch<S: TxnSource + Send + 'static>(
        &self,
        seed: u64,
        sources: Vec<(S, Option<Producer<Completion>>)>,
        ingest: Vec<Producer<Submission>>,
        completions: Vec<Consumer<Completion>>,
    ) -> EngineHandle {
        let cfg = Arc::new(self.cfg.clone());
        let fabric = build_fabric(&cfg);
        let ctl = Arc::new(RunCtl::new());
        let active_execs = Arc::new(AtomicUsize::new(cfg.n_exec));
        let shared_table = shared_table_for(&cfg);
        let aux = AuxThreads::spawn(&cfg, &self.log);
        let mut workers = Vec::with_capacity(cfg.total_threads());
        let mut worker_names = Vec::with_capacity(cfg.total_threads());

        for (cc, ep) in fabric.cc.into_iter().enumerate() {
            let ctl = Arc::clone(&ctl);
            let active = Arc::clone(&active_execs);
            let flush = cfg.effective_flush_threshold();
            let shared = shared_table.clone();
            let name = format!("{}cc{cc}", cfg.sim_prefix);
            worker_names.push(name.clone());
            workers.push(std::thread::spawn(move || {
                // Under a sim scheduler this blocks until every worker
                // (and the client) has enrolled; a no-op otherwise. The
                // guard retires the thread on drop, panics included.
                let _sim = sim::enroll(&name);
                pin_to_core(cc);
                match shared {
                    None => {
                        let state = CcState::new(cc as u32, CC_TABLE_CAPACITY);
                        run_cc(state, flush, ep, &ctl, &active)
                    }
                    Some(table) => run_cc(SharedCcState::new(table), flush, ep, &ctl, &active),
                }
            }));
        }

        for (ex, (ep, (source, done))) in fabric.exec.into_iter().zip(sources).enumerate() {
            let db = Arc::clone(&self.db);
            let cfg = Arc::clone(&cfg);
            let ctl = Arc::clone(&ctl);
            let active = Arc::clone(&active_execs);
            let log = self.log.clone();
            let name = format!("{}exec{ex}", cfg.sim_prefix);
            worker_names.push(name.clone());
            workers.push(std::thread::spawn(move || {
                let _sim = sim::enroll(&name);
                pin_to_core(cfg.n_cc + ex);
                // Admission is thread-local: each execution thread owns
                // its source, planning RNG and run queues.
                let admit = crate::admit::Admitter::new(
                    &cfg.admission,
                    source,
                    seed,
                    ex as u16,
                    cfg.ollp_noise_pct,
                );
                let mut thread =
                    crate::exec::ExecThread::new(ex as u16, &db, &cfg, ep.to_cc, ep.fanin, admit)
                        .with_log(log);
                if let Some(done) = done {
                    thread = thread.with_completions(done);
                }
                thread.run(&ctl, &active)
            }));
        }

        EngineHandle {
            ctl,
            submit: Arc::new(SubmitShared::new(ingest)),
            completions,
            stash: Vec::new(),
            workers,
            worker_names,
            n_cc: self.cfg.n_cc,
            measure_from: Instant::now(),
            stats: None,
            fail: None,
            log: self.log.clone(),
            aux: Some(aux),
        }
    }
}

/// Open the configured command log (validated: a non-`Off` mode has a
/// `log_dir`). I/O failure is a loud construction failure, like an
/// invalid config — an engine that silently dropped its durability
/// contract would be worse than one that refuses to start.
fn open_log(cfg: &OrthrusConfig) -> Option<Arc<CommandLog>> {
    if !cfg.durability.is_on() {
        return None;
    }
    let dir = cfg.log_dir.as_deref().expect("validated: log_dir is set");
    let log = CommandLog::open(dir, cfg.durability)
        .unwrap_or_else(|e| panic!("cannot open command log at {}: {e}", dir.display()));
    // Group sync ([`OrthrusConfig::sync_interval`]): appends publish a
    // watermark instead of fsyncing inline; the coordinator thread
    // spawned alongside the workers issues the coalesced fsyncs. The
    // flag is inert outside `log+fsync` mode.
    Some(Arc::new(log.with_group_sync(cfg.sync_interval.is_group())))
}

/// Write checkpoint #0 (the base image every shadow replay grows from)
/// when checkpointing is enabled and the log directory has no valid
/// checkpoint yet. Called at construction, before any worker exists, so
/// the database is quiescent; `db` must correspond to the log's current
/// end position — a pristine database with a fresh log, or a recovered
/// one whose replay consumed the whole valid prefix.
fn ensure_initial_checkpoint(cfg: &OrthrusConfig, db: &Database, log: &Option<Arc<CommandLog>>) {
    let Some(log) = log else { return };
    if cfg.checkpoint_bytes.is_none() {
        return;
    }
    let dir = cfg.log_dir.as_deref().expect("validated: log_dir is set");
    let have = orthrus_storage::checkpoint::load_newest_checkpoint(dir)
        .unwrap_or_else(|e| panic!("cannot scan checkpoints in {}: {e}", dir.display()))
        .is_some();
    if !have {
        // SAFETY: construction time — no engine thread exists yet.
        unsafe { write_initial_checkpoint(dir, db, log.position()) }
            .unwrap_or_else(|e| panic!("cannot write initial checkpoint: {e}"));
    }
}

/// The durability rung-2 companion threads — the group-fsync coordinator
/// and the fuzzy checkpointer — spawned alongside the engine's workers
/// when the configuration asks for them, stopped only **after** every
/// exec worker has joined (the coordinator must keep flushing while they
/// drain their pending-durable queues).
struct AuxThreads {
    stop: Arc<AtomicBool>,
    sync: Option<std::thread::JoinHandle<ThreadStats>>,
    ckpt: Option<std::thread::JoinHandle<()>>,
    /// The companions' sim enrollment names are `{sim_prefix}sync` /
    /// `{sim_prefix}ckpt`; kept so [`Self::finish`] can gate its wait
    /// loop on virtual-time liveness.
    sim_prefix: String,
}

impl AuxThreads {
    fn spawn(cfg: &OrthrusConfig, log: &Option<Arc<CommandLog>>) -> Self {
        let mut aux = AuxThreads {
            stop: Arc::new(AtomicBool::new(false)),
            sync: None,
            ckpt: None,
            sim_prefix: cfg.sim_prefix.clone(),
        };
        let Some(log) = log else { return aux };
        if log.group_sync() {
            let (log, stop) = (Arc::clone(log), Arc::clone(&aux.stop));
            let interval = cfg.sync_interval;
            let sim_prefix = cfg.sim_prefix.clone();
            aux.sync = Some(std::thread::spawn(move || {
                // Same enrollment contract as the workers: a named sim
                // participant under a sim scheduler, a no-op otherwise.
                let _sim = orthrus_common::sim::enroll(&format!("{sim_prefix}sync"));
                run_sync_coordinator(&log, &stop, interval)
            }));
        }
        if let Some(every) = cfg.checkpoint_bytes {
            let (log, stop) = (Arc::clone(log), Arc::clone(&aux.stop));
            let dir = cfg.log_dir.clone().expect("validated: log_dir is set");
            let sim_prefix = cfg.sim_prefix.clone();
            aux.ckpt = Some(std::thread::spawn(move || {
                let _sim = orthrus_common::sim::enroll(&format!("{sim_prefix}ckpt"));
                // Real I/O failures panic inside `run_checkpointer`; an
                // `Err` is an *injected* failpoint — a scripted crash the
                // recovery suite owns. The live engine just stops
                // checkpointing (recovery falls back to the previous
                // checkpoint plus a longer suffix).
                let _ = run_checkpointer(&log, &dir, &stop, every);
            }));
        }
        aux
    }

    /// Stop and join both companions; the coordinator drains every
    /// outstanding append before it exits. Returns the coordinator's
    /// counters for merging into the run totals, or the first panic
    /// message.
    fn finish(mut self) -> Result<ThreadStats, String> {
        self.stop.store(true, Ordering::Release);
        // Under a sim scheduler the caller holds the token, and a bare
        // join would block while the companions sit parked waiting for
        // it — yield through the park point until both have retired (a
        // no-op spin outside the sim). The exit condition must be
        // *virtual*-time liveness: gating on `is_finished` would record
        // however many park steps the companions' real OS unwind takes,
        // which is timing-dependent — nondeterminism.
        let sync_name = format!("{}sync", self.sim_prefix);
        let ckpt_name = format!("{}ckpt", self.sim_prefix);
        while (self.sync.as_ref()).is_some_and(|h| sim::thread_running(h, &sync_name))
            || (self.ckpt.as_ref()).is_some_and(|h| sim::thread_running(h, &ckpt_name))
        {
            if !orthrus_common::sim::on_park() {
                std::thread::yield_now();
            }
        }
        let mut stats = ThreadStats::default();
        if let Some(h) = self.sync.take() {
            match h.join() {
                Ok(s) => stats = s,
                Err(p) => return Err(panic_message(p)),
            }
        }
        if let Some(h) = self.ckpt.take() {
            if let Err(p) = h.join() {
                return Err(panic_message(p));
            }
        }
        Ok(stats)
    }
}

/// Pre-size each CC's table for its share of hot keys; entries are
/// created on demand and kept forever.
const CC_TABLE_CAPACITY: usize = 4096;

/// The wired message mesh, ready to hand to workers.
struct Fabric {
    cc: Vec<CcEndpoints>,
    exec: Vec<ExecEndpoints>,
}

/// Build the full SPSC mesh for `cfg`'s thread shape (see the module
/// docs for the capacity bounds). Built by the one lifecycle
/// ([`OrthrusEngine::launch`]) for closed-loop runs and service mode
/// alike — only where admission gets its transactions differs.
// Indexed loops keep the (producer, consumer) ring-matrix wiring
// visibly symmetric; iterator forms obscure which side is which.
#[allow(clippy::needless_range_loop)]
fn build_fabric(cfg: &OrthrusConfig) -> Fabric {
    let c = cfg.n_cc;
    let e = cfg.n_exec;
    let inflight = cfg.max_inflight;
    let exec_cc_cap = cfg.exec_queue_capacity.unwrap_or(2 * inflight + 4);
    let cc_cc_cap = e * inflight + 4;
    let cc_exec_cap = inflight + 4;

    // Build the mesh. Consumer lane order inside each fan-in does not
    // matter (round-robin polling), only completeness does.
    let mut cc_in: Vec<Vec<Consumer<CcRequest>>> = (0..c).map(|_| Vec::new()).collect();
    let mut exec_in: Vec<Vec<Consumer<ExecResponse>>> = (0..e).map(|_| Vec::new()).collect();
    let mut exec_to_cc: Vec<Vec<Producer<CcRequest>>> = (0..e).map(|_| Vec::new()).collect();
    let mut cc_to_cc: Vec<Vec<Producer<CcRequest>>> = (0..c).map(|_| Vec::new()).collect();
    let mut cc_to_exec: Vec<Vec<Producer<ExecResponse>>> = (0..c).map(|_| Vec::new()).collect();

    for ex in 0..e {
        for cc in 0..c {
            let (p, co) = channel_labeled(exec_cc_cap, "exec_cc");
            exec_to_cc[ex].push(p);
            cc_in[cc].push(co);
        }
    }
    for src in 0..c {
        for dst in 0..c {
            let (p, co) = channel_labeled(cc_cc_cap, "cc_cc");
            cc_to_cc[src].push(p);
            cc_in[dst].push(co);
        }
    }
    for cc in 0..c {
        for ex in 0..e {
            let (p, co) = channel_labeled(cc_exec_cap, "cc_exec");
            cc_to_exec[cc].push(p);
            exec_in[ex].push(co);
        }
    }

    Fabric {
        cc: cc_in
            .into_iter()
            .zip(cc_to_cc)
            .zip(cc_to_exec)
            .map(|((lanes, to_cc), to_exec)| CcEndpoints {
                fanin: FanIn::new(lanes),
                to_cc,
                to_exec,
            })
            .collect(),
        exec: exec_in
            .into_iter()
            .zip(exec_to_cc)
            .map(|(lanes, to_cc)| ExecEndpoints {
                fanin: FanIn::new(lanes),
                to_cc,
            })
            .collect(),
    }
}

/// Shared-table mode (Section 3.4): one latched table serves every CC
/// thread.
fn shared_table_for(cfg: &OrthrusConfig) -> Option<Arc<orthrus_lockmgr::LockTable>> {
    match cfg.cc_mode {
        crate::config::CcMode::Partitioned => None,
        crate::config::CcMode::SharedTable => Some(Arc::new(orthrus_lockmgr::LockTable::new(
            cfg.shared_table_buckets,
        ))),
    }
}

/// A running engine: owns the worker threads, the submission fabric, and
/// the completion rings. [`OrthrusEngine::run`] drives one internally
/// over synthetic sources (no rings, no sessions).
///
/// Lifecycle: [`OrthrusEngine::start`] → [`Self::session`] /
/// [`Self::begin_measurement`] / [`Self::drain_completions`] →
/// [`Self::shutdown`]. Dropping a handle without calling `shutdown`
/// shuts the engine down (discarding the stats), so a panicking client
/// cannot leak spinning engine threads.
pub struct EngineHandle {
    ctl: Arc<RunCtl>,
    submit: Arc<SubmitShared>,
    completions: Vec<Consumer<Completion>>,
    /// Completions drained internally (e.g. while unblocking workers
    /// during shutdown) but not yet handed to the client.
    stash: Vec<Completion>,
    /// CC workers first, then execution workers (join order matters only
    /// for the stats split).
    workers: Vec<std::thread::JoinHandle<ThreadStats>>,
    /// The workers' sim enrollment names, index-aligned with `workers`,
    /// so the shutdown drain can gate on virtual-time liveness.
    worker_names: Vec<String>,
    n_cc: usize,
    measure_from: Instant,
    stats: Option<RunStats>,
    /// Why a previous [`Self::try_shutdown`] failed, if it did (the
    /// workers are joined either way; the handle is spent).
    fail: Option<String>,
    /// The engine's command log, synced once the drain completes so a
    /// clean shutdown is fully replayable even in fsync-free `log` mode.
    log: Option<Arc<CommandLog>>,
    /// The group-fsync coordinator and checkpointer, stopped and joined
    /// only after every worker has (see [`AuxThreads`]).
    aux: Option<AuxThreads>,
}

impl EngineHandle {
    /// A client handle for submitting transactions. Cheap; clone it or
    /// call this again for every client thread.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.submit))
    }

    /// Submissions accepted engine-wide so far — the conservation ledger:
    /// exactly this many completions will have been delivered once the
    /// engine is shut down and drained.
    pub fn accepted(&self) -> u64 {
        self.submit.accepted()
    }

    /// Open the measurement window: per-thread window counters reset and
    /// throughput/latency accounting runs from here to [`Self::shutdown`].
    /// Without this call, statistics cover the engine's whole lifetime.
    ///
    /// Single-shot: workers latch the transition once, so repeated calls
    /// are ignored (re-arming only `elapsed` would silently inflate
    /// reported throughput).
    pub fn begin_measurement(&mut self) {
        if self.ctl.is_measuring() {
            return;
        }
        self.ctl.begin_measuring();
        self.measure_from = Instant::now();
    }

    /// Move every available completion into `out`; returns how many.
    /// Clients should call this regularly — completion rings are bounded
    /// and apply backpressure to the engine when full.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut n = self.stash.len();
        out.append(&mut self.stash);
        for ring in &mut self.completions {
            n += ring.pop_batch(out);
        }
        n
    }

    /// Shut down: fence out new submissions, drain every accepted ticket
    /// (in-flight *and* still queued in ingest rings — conservation),
    /// stop and join the workers, and return the run's statistics. The
    /// measured window runs from [`Self::begin_measurement`] (or
    /// [`OrthrusEngine::start`] if it was never called) to this call;
    /// commits landing during the shutdown drain complete their tickets
    /// but fall outside the window. Idempotent; drained completions
    /// remain collectable via [`Self::drain_completions`] afterwards.
    pub fn shutdown(&mut self) -> RunStats {
        self.try_shutdown()
            .unwrap_or_else(|e| panic!("engine shutdown failed: {e}"))
    }

    /// [`Self::shutdown`], reporting worker panics and final-sync I/O
    /// failures as typed [`EngineError`]s instead of panicking, so a
    /// client can degrade gracefully when a fault injector (or real
    /// hardware) kills part of the engine. Every worker is joined before
    /// this returns, error or not — nothing leaks.
    pub fn try_shutdown(&mut self) -> Result<RunStats, EngineError> {
        if let Some(stats) = &self.stats {
            return Ok(stats.clone());
        }
        if let Some(msg) = &self.fail {
            return Err(EngineError::Failed(msg.clone()));
        }
        // Fence first: after close() no new ticket can land in any ingest
        // ring, so the execution threads' stop-drain sees a closed set.
        self.submit.close();
        let elapsed = self.measure_from.elapsed();
        self.ctl.request_stop();
        // Workers may be blocked publishing completions; keep draining
        // while they wind down. Gate on virtual-time liveness under a
        // sim scheduler (the pops below are hooked steps — counting
        // them against real OS unwind time would vary run to run).
        while (self.workers.iter().zip(&self.worker_names))
            .any(|(w, name)| sim::thread_running(w, name))
        {
            let mut stash = std::mem::take(&mut self.stash);
            for ring in &mut self.completions {
                ring.pop_batch(&mut stash);
            }
            self.stash = stash;
            std::thread::yield_now();
        }
        let mut panic_msg: Option<String> = None;
        let mut cc_stats: Vec<ThreadStats> = Vec::with_capacity(self.workers.len());
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(stats) => cc_stats.push(stats),
                Err(payload) => {
                    // Keep joining: one dead worker must not leak the
                    // rest. The first panic is the root cause reported.
                    panic_msg.get_or_insert_with(|| panic_message(payload));
                    cc_stats.push(ThreadStats::default());
                }
            }
        }
        // Stop the companions now that every worker is joined — the
        // coordinator's exit condition (stopped ∧ fully synced) makes
        // the pending-durable drain above race-free. Joined even on the
        // worker-panic path so nothing leaks; a coordinator panic (fsync
        // failure) is itself a worker panic.
        let aux_result = match self.aux.take() {
            Some(aux) => aux.finish(),
            None => Ok(ThreadStats::default()),
        };
        if let Some(msg) = panic_msg {
            self.fail = Some(msg.clone());
            return Err(EngineError::WorkerPanicked(msg));
        }
        let coord_stats = match aux_result {
            Ok(s) => s,
            Err(msg) => {
                self.fail = Some(msg.clone());
                return Err(EngineError::WorkerPanicked(msg));
            }
        };
        if let Some(log) = &self.log {
            // Workers are joined: every accepted ticket's record is
            // appended. Push the OS-buffered suffix to stable storage.
            if let Err(e) = log.sync() {
                self.fail = Some(e.to_string());
                return Err(EngineError::LogSync(e));
            }
        }
        let exec_stats = cc_stats.split_off(self.n_cc);
        let mut per_thread = exec_stats;
        // CC threads contribute message counts without inflating the
        // thread count: `RunStats::threads` counts execution threads.
        if let Some(last) = per_thread.last_mut() {
            for cc in &cc_stats {
                last.merge(cc);
            }
            // The coordinator's counters (group fsyncs, coalesced
            // appends) ride the same rule.
            last.merge(&coord_stats);
        }
        let stats = RunStats::collect(&per_thread, elapsed);
        self.stats = Some(stats.clone());
        Ok(stats)
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            // Swallow shutdown errors: a panic during drop would abort,
            // and the drop path has no caller to report to. Workers are
            // joined either way.
            let _ = self.try_shutdown();
        }
    }
}

/// Per-destination staging for a CC thread's outgoing messages. One drain
/// round's forwards and grants are coalesced per destination and flushed
/// as a single slice (one atomic publish) — a CC thread granting several
/// spans to the same execution thread in one round emits one batched
/// flush instead of one ring transaction per grant.
struct CcOutBufs {
    to_cc: Vec<Vec<CcRequest>>,
    to_exec: Vec<Vec<ExecResponse>>,
}

impl CcOutBufs {
    fn new(n_cc: usize, n_exec: usize, flush: usize) -> Self {
        CcOutBufs {
            to_cc: (0..n_cc).map(|_| Vec::with_capacity(flush)).collect(),
            to_exec: (0..n_exec).map(|_| Vec::with_capacity(flush)).collect(),
        }
    }

    /// Stage one routed message; returns immediately (no ring traffic).
    #[inline]
    fn stage(&mut self, msg: OutMsg, stats: &mut ThreadStats) {
        match msg {
            OutMsg::ToCc { cc, req } => self.to_cc[cc as usize].push(req),
            OutMsg::ToExec { exec, resp } => self.to_exec[exec as usize].push(resp),
        }
        stats.messages_sent += 1;
    }

    /// Publish every staged message, one slice per destination. A dead
    /// destination (its thread panicked; see [`RunCtl::is_failed`]) can
    /// never drain its ring again, so a plain blocking `push_slice`
    /// would spin forever once the ring fills — under the simulator's
    /// crash faults that wedged the whole shutdown. On failure the
    /// staged remainder is discarded instead: the engine is already
    /// committed to reporting `WorkerPanicked`, and completions lost
    /// with the dead thread are exactly what the recovery path replays.
    fn flush(&mut self, ep: &mut CcEndpoints, ctl: &RunCtl) {
        fn push_or_discard<T>(ring: &mut Producer<T>, buf: &mut Vec<T>, ctl: &RunCtl) {
            let mut backoff = Backoff::new();
            while !buf.is_empty() {
                if ring.try_push_slice(buf) > 0 {
                    backoff.reset();
                } else if ctl.is_failed() {
                    buf.clear();
                    return;
                } else {
                    backoff.snooze();
                }
            }
        }
        for (cc, buf) in self.to_cc.iter_mut().enumerate() {
            if !buf.is_empty() {
                push_or_discard(&mut ep.to_cc[cc], buf, ctl);
            }
        }
        for (exec, buf) in self.to_exec.iter_mut().enumerate() {
            if !buf.is_empty() {
                push_or_discard(&mut ep.to_exec[exec], buf, ctl);
            }
        }
    }
}

/// The lock state a CC thread pumps requests through: its own partition
/// of the lock table ([`CcState`], Section 3.1) or a handle on the shared
/// latched table ([`SharedCcState`], Section 3.4).
trait CcCore {
    fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>);

    /// Re-poll acquisitions parked on locks another CC thread's release
    /// frees; returns how many advanced. A partition owns its locks, so
    /// nothing ever parks there.
    fn poll_parked(&mut self, _out: &mut Vec<OutMsg>) -> usize {
        0
    }

    /// Acquisitions still parked.
    fn parked(&self) -> usize {
        0
    }
}

impl CcCore for CcState {
    #[inline]
    fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
        CcState::handle(self, req, out)
    }
}

impl CcCore for SharedCcState {
    #[inline]
    fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
        SharedCcState::handle(self, req, out)
    }

    fn poll_parked(&mut self, out: &mut Vec<OutMsg>) -> usize {
        self.poll_pending(out)
    }

    fn parked(&self) -> usize {
        self.pending_count()
    }
}

/// The CC thread loop: a tight, latch-free request pump (Section 3.1,
/// "concurrency control threads run a tight loop which sequentially
/// processes requests"), batched: each poll drains up to `flush_threshold`
/// requests from the fan-in in one sweep, re-polls any parked
/// acquisitions, and the round's outgoing messages are coalesced per
/// destination and flushed as slices. With `flush_threshold == 1` this
/// degenerates to the seed's one-message-per-atomic-publish pump.
fn run_cc<C: CcCore>(
    mut state: C,
    flush_threshold: usize,
    mut ep: CcEndpoints,
    ctl: &RunCtl,
    active_execs: &AtomicUsize,
) -> ThreadStats {
    let mut stats = ThreadStats::default();
    let mut out: Vec<OutMsg> = Vec::with_capacity(16);
    let drain_budget = flush_threshold;
    let mut in_buf: Vec<CcRequest> = Vec::with_capacity(drain_budget);
    let mut out_bufs = CcOutBufs::new(ep.to_cc.len(), ep.to_exec.len(), drain_budget);
    let mut backoff = Backoff::new();
    let mut in_window = false;
    loop {
        if !in_window && ctl.is_measuring() {
            stats.reset_window();
            in_window = true;
        }
        let mut progress = ep.fanin.drain_round(&mut in_buf, drain_budget) > 0;
        for req in in_buf.drain(..) {
            state.handle(req, &mut out);
        }
        progress |= state.poll_parked(&mut out) > 0;
        if progress {
            for msg in out.drain(..) {
                out_bufs.stage(msg, &mut stats);
            }
            out_bufs.flush(&mut ep, ctl);
            backoff.reset();
        } else if ctl.is_stopped()
            && active_execs.load(Ordering::Acquire) == 0
            // A dead exec thread never releases the locks its in-flight
            // transactions hold, so its peers' parked acquisitions can
            // never be granted — on failure, abandon them instead of
            // polling forever.
            && (state.parked() == 0 || ctl.is_failed())
        {
            // Every exec flushed its final sends before decrementing, and
            // forwards only exist while acquires are unresolved — one last
            // sweep and we are done.
            if ep.fanin.is_empty() {
                break;
            }
        } else {
            backoff.snooze();
        }
    }
    // CC threads contribute only message counts to the merged stats; their
    // CPU time is not part of the Figure-10 execution-thread breakdown.
    stats.execution_ns = 0;
    stats.locking_ns = 0;
    stats.waiting_ns = 0;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_common::runtime::RunParams;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb};
    use orthrus_storage::{PartitionedTable, Table};
    use orthrus_workload::{MicroSpec, PartitionConstraint, TpccSpec};

    use crate::config::{CcAssignment, DEFAULT_FLUSH_THRESHOLD};

    fn quick() -> RunParams {
        RunParams::quick(0) // threads field unused by OrthrusEngine
    }

    #[test]
    fn single_cc_uniform_rmw_exact_counts() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(128, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(128, 4, false));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0, "no progress");
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..128).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn multi_cc_contended_rmw_exact_counts() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        // 2 hot of 8, 4 ops total: heavy conflicts across 4 CC threads.
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let cfg = OrthrusConfig::with_threads(4, 4, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn read_only_workload_counts_nothing_but_commits() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, true));
        let cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, 0, "read-only must not write");
    }

    #[test]
    fn exact_partition_spans_drive_multiple_ccs() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(256, 64)));
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 8, false)
                .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
        );
        let cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 8);
        // Message economics with forwarding: Ncc+1 acquire-path messages +
        // Ncc releases per txn = 2·Ncc + 1 = 9 per commit.
        let per_commit = stats.totals.messages_sent as f64 / stats.totals.committed as f64;
        assert!(
            (8.0..=10.5).contains(&per_commit),
            "messages/commit {per_commit:.2}, expected ≈9"
        );
    }

    #[test]
    fn forwarding_saves_messages() {
        let _serial = crate::test_serial();
        let mk = |forwarding: bool| {
            let db = Arc::new(Database::Flat(Table::new(256, 64)));
            let spec = Spec::Micro(
                MicroSpec::uniform(256, 8, false)
                    .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
            );
            let mut cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
            cfg.forwarding = forwarding;
            let engine = OrthrusEngine::new(db, spec, cfg);
            let stats = engine.run(&quick());
            stats.totals.messages_sent as f64 / stats.totals.committed.max(1) as f64
        };
        let with = mk(true); // Ncc+1 + Ncc releases ≈ 9
        let without = mk(false); // 2·Ncc + Ncc releases ≈ 12
        assert!(
            without > with + 1.5,
            "forwarding must cut messages: with={with:.2} without={without:.2}"
        );
    }

    #[test]
    fn split_orthrus_runs_on_partitioned_database() {
        let _serial = crate::test_serial();
        // SPLIT ORTHRUS (Section 4.3): index partitions aligned with CC
        // partitions (both key % 4).
        let db = Arc::new(Database::Partitioned(PartitionedTable::new(256, 64, 4)));
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 4, false)
                .with_constraint(PartitionConstraint::Exact { count: 2, of: 4 }),
        );
        let cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn tpcc_money_conservation_under_orthrus() {
        let _serial = crate::test_serial();
        let cfg_t = TpccConfig::tiny(4);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 21)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::Warehouse);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
        let hist_cnt: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.history_ctr as u64) })
            .sum();
        let pay_cnt: u64 = (0..t.customers.len())
            .map(|c| unsafe { t.customers.read_with(c, |r| (r.payment_cnt - 1) as u64) })
            .sum();
        assert_eq!(hist_cnt, pay_cnt);
    }

    #[test]
    fn tpcc_with_ollp_noise_recovers() {
        let _serial = crate::test_serial();
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 33)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        // Conservation must survive the abort/retry churn.
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    #[test]
    fn shared_table_mode_exact_counts() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        // Hot contention, multi-key plans: the shared table must still
        // serialize exactly.
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
        cfg.cc_mode = crate::config::CcMode::SharedTable;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0, "shared mode made no progress");
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn shared_table_mode_read_only() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, true));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        cfg.cc_mode = crate::config::CcMode::SharedTable;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn flush_threshold_one_reproduces_seed_semantics() {
        let _serial = crate::test_serial();
        // flush_threshold = 1: every send publishes immediately, exactly
        // the pre-batching fabric. The serializability witness and the
        // per-commit message economics must both hold unchanged.
        let db = Arc::new(Database::Flat(Table::new(256, 64)));
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 8, false)
                .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
        );
        let mut cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
        cfg.flush_threshold = 1;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 8);
        let per_commit = stats.totals.messages_sent as f64 / stats.totals.committed as f64;
        assert!(
            (8.0..=10.5).contains(&per_commit),
            "messages/commit {per_commit:.2}, expected ≈9"
        );
    }

    #[test]
    fn deep_batching_keeps_exact_counts() {
        let _serial = crate::test_serial();
        // A flush threshold far above the in-flight cap: flushes happen
        // only at quantum boundaries. Exactness must be unaffected.
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(4, 4, CcAssignment::KeyModulo);
        cfg.flush_threshold = 64;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn deep_batching_with_tiny_rings_still_completes() {
        let _serial = crate::test_serial();
        // Batches larger than the ring: push_slice must publish partial
        // prefixes under backpressure without losing order or messages.
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        cfg.flush_threshold = 32;
        cfg.exec_queue_capacity = Some(2);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn shared_table_mode_respects_flush_threshold() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
        cfg.cc_mode = crate::config::CcMode::SharedTable;
        cfg.flush_threshold = 8;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn conflict_batch_admission_keeps_exact_counts() {
        let _serial = crate::test_serial();
        // Heavy skew on a tiny hot set: conflict-class batching reorders
        // admission, but serializability (exact counter sums) must hold.
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 4, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        };
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0, "batched admission stalled");
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn conflict_batch_admission_runs_tpcc_with_ollp() {
        let _serial = crate::test_serial();
        // The plan produced at admission must survive the OLLP abort/retry
        // path: conservation holds across re-planned retries.
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 11)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.admission = crate::admit::AdmissionPolicy::conflict_batch();
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    #[test]
    fn adaptive_admission_keeps_exact_counts_on_both_fabrics() {
        let _serial = crate::test_serial();
        // A hot workload with a promotion-friendly controller (tiny epoch,
        // K = 1, low threshold): policy switches happen live inside the
        // run, and serializability (exact counter sums — every admitted
        // transaction commits exactly once, none lost or duplicated
        // across a switch) must hold on the batched fabric and on the
        // seed's per-message fabric alike.
        for flush_threshold in [DEFAULT_FLUSH_THRESHOLD, 1] {
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let spec = Spec::Micro(MicroSpec::hot_cold(64, 4, 2, 4, false));
            let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
            cfg.flush_threshold = flush_threshold;
            cfg.admission = crate::admit::AdmissionPolicy::Adaptive {
                classes: 4,
                max_batch: 8,
                threshold_pct: 5,
                hysteresis: 1,
                epoch: 32,
            };
            let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
            let stats = engine.run(&quick());
            assert!(
                stats.totals.committed > 0,
                "flush {flush_threshold}: adaptive admission stalled"
            );
            assert_eq!(stats.totals.aborts(), 0);
            let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
            assert_eq!(
                total,
                stats.totals.committed_all * 4,
                "flush {flush_threshold}: counter sums diverged"
            );
            assert!(
                stats.totals.lock_waits > 0,
                "flush {flush_threshold}: hot workload must report deferrals"
            );
        }
    }

    #[test]
    fn adaptive_admission_runs_tpcc_with_ollp() {
        let _serial = crate::test_serial();
        // Adaptive admission must survive the OLLP abort/retry path in
        // both of its modes: conservation holds across re-planned retries
        // and any live policy switches.
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 17)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.admission = crate::admit::AdmissionPolicy::Adaptive {
            classes: 4,
            max_batch: 8,
            threshold_pct: 5,
            hysteresis: 1,
            epoch: 32,
        };
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn engine_rejects_adaptive_epoch_of_one() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::Adaptive {
            classes: 4,
            max_batch: 8,
            threshold_pct: 40,
            hysteresis: 2,
            epoch: 1,
        };
        let _ = OrthrusEngine::new(db, spec, cfg);
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn engine_rejects_zero_inflight_cap() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.max_inflight = 0;
        let _ = OrthrusEngine::new(db, spec, cfg);
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn engine_rejects_zero_conflict_classes() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 0,
            batch: 1,
        };
        let _ = OrthrusEngine::new(db, spec, cfg);
    }

    // ---- Service mode (open-loop sessions) ---------------------------

    use crate::source::Completion;
    use orthrus_workload::Gen;

    /// Drive `n` submissions through a session (blocking on
    /// backpressure), draining completions as they arrive, then shut
    /// down and drain the tail. Returns (completions, stats).
    fn drive_service(
        engine: &OrthrusEngine,
        gen: &mut Gen,
        n: u64,
    ) -> (Vec<Completion>, orthrus_common::RunStats) {
        let mut handle = engine.start(7);
        handle.begin_measurement();
        let session = handle.session();
        let mut done = Vec::new();
        for _ in 0..n {
            session
                .submit(gen.next_program())
                .expect("engine is accepting");
            handle.drain_completions(&mut done);
        }
        let stats = handle.shutdown();
        handle.drain_completions(&mut done);
        assert_eq!(handle.accepted(), n);
        (done, stats)
    }

    /// Every accepted ticket completes exactly once, across all three
    /// admission policies, with the serializability witness intact —
    /// including tickets still queued in ingest rings at shutdown
    /// (`submit` never waits for completions, so at `shutdown()` up to
    /// ring-capacity submissions are still undrained in-flight work).
    #[test]
    fn service_mode_conserves_tickets_under_every_policy() {
        let _serial = crate::test_serial();
        for admission in [
            crate::admit::AdmissionPolicy::Fifo,
            crate::admit::AdmissionPolicy::ConflictBatch {
                classes: 4,
                batch: 8,
            },
            crate::admit::AdmissionPolicy::Adaptive {
                classes: 4,
                max_batch: 8,
                threshold_pct: 5,
                hysteresis: 1,
                epoch: 32,
            },
        ] {
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            // Hot keys: conflict-class routing and fusing both engage.
            let spec = MicroSpec::hot_cold(64, 8, 2, 4, false);
            let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
            cfg.admission = admission.clone();
            cfg.ingest_capacity = 32;
            let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
            let n = 600;
            let mut gen = Spec::Micro(spec).generator(11, 0);
            let (done, stats) = drive_service(&engine, &mut gen, n);
            assert_eq!(
                done.len() as u64,
                n,
                "{admission}: every ticket must complete exactly once"
            );
            let mut tickets: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
            tickets.sort_unstable();
            tickets.dedup();
            assert_eq!(
                tickets.len() as u64,
                n,
                "{admission}: tickets must be distinct"
            );
            assert_eq!(stats.totals.committed_all, n, "{admission}");
            // The logical locks serialized every RMW exactly once.
            let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
            assert_eq!(total, n * 4, "{admission}: counter sums diverged");
            // Submit→commit latency was recorded for every in-window
            // commit; the shutdown drain tail falls outside the window.
            let recorded = stats.totals.latency.count();
            assert!(
                0 < recorded && recorded <= n,
                "{admission}: latency samples {recorded} of {n} commits"
            );
            assert!(stats.per_thread_latency.len() >= 3, "{admission}");
        }
    }

    /// Shutdown with the ingest rings still full: the fence refuses new
    /// work, but everything already accepted drains to completion.
    #[test]
    fn service_shutdown_drains_queued_submissions() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 64;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut handle = engine.start(3);
        let session = handle.session();
        let mut gen = Spec::Micro(MicroSpec::uniform(64, 4, false)).generator(5, 0);
        // Burst without draining a single completion.
        let n = 200u64;
        for _ in 0..n {
            session.submit(gen.next_program()).expect("accepting");
        }
        let accepted = handle.accepted();
        assert_eq!(accepted, n);
        let stats = handle.shutdown();
        // Post-shutdown submission is fenced out, not lost silently.
        assert!(matches!(
            session.try_submit(gen.next_program()),
            Err(crate::session::TrySubmitError::Shutdown(_))
        ));
        let mut done = Vec::new();
        handle.drain_completions(&mut done);
        assert_eq!(done.len() as u64, n, "shutdown must drain, not drop");
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 4);
    }

    /// Regression (review finding): an admission-queue window far deeper
    /// than the ingest ring. A refill can pull `classes × batch` ticketed
    /// transactions out of a tiny ring while the client keeps it full and
    /// then blocks in `submit`; the completion rings must absorb the
    /// whole backlog (ingest + window + in-flight, doubled for drain
    /// lag) or the engine wedges against the blocked client.
    #[test]
    fn service_mode_survives_admission_window_deeper_than_ingest_ring() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = MicroSpec::hot_cold(64, 4, 2, 4, false);
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 16,
            batch: 8, // window 128 ≫ ingest ring
        };
        cfg.ingest_capacity = 8;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let n = 500;
        let mut gen = Spec::Micro(spec).generator(19, 0);
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n, "deep-window backlog must drain");
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 4);
    }

    /// Regression (review finding): a hot-key burst routes every
    /// submission to ONE execution thread's lane, and the client drains
    /// nothing until shutdown — far more undrained completions than the
    /// completion ring holds. The engine must park the overflow and stay
    /// live (a blocking completion push would wedge it against the
    /// client stuck in `submit`), and shutdown must deliver every
    /// ticket.
    #[test]
    fn service_mode_survives_hot_key_burst_without_draining() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 16; // completion fast path: 2·(16+0+16) = 64
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut handle = engine.start(23);
        let session = handle.session();
        // One hot key → one lane; 300 undrained completions ≫ 64.
        let n = 300u64;
        for i in 0..n {
            session
                .submit(orthrus_txn::Program::Rmw {
                    keys: vec![7, 40 + i % 8],
                })
                .expect("accepting");
        }
        let stats = handle.shutdown();
        let mut done = Vec::new();
        handle.drain_completions(&mut done);
        assert_eq!(done.len() as u64, n, "overflowed completions delivered");
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 2);
    }

    /// Service mode on the shared-table CC architecture: the source seam
    /// is orthogonal to the CC mode.
    #[test]
    fn service_mode_works_on_shared_table_cc() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        cfg.cc_mode = crate::config::CcMode::SharedTable;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(9, 0);
        let n = 300;
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n);
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 4);
    }

    /// Ticket conservation through the OLLP abort/retry path: a retried
    /// transaction keeps its ticket and completes once.
    #[test]
    fn service_mode_tickets_survive_ollp_retries() {
        let _serial = crate::test_serial();
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut gen = Spec::Tpcc(TpccSpec::paper_mix(cfg_t)).generator(13, 0);
        let n = 400;
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(
            done.len() as u64,
            n,
            "retried tickets must not fork or drop"
        );
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    #[test]
    fn dropping_the_handle_shuts_the_engine_down() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::service(db, cfg);
        let handle = engine.start(1);
        let session = handle.session();
        session
            .submit(orthrus_txn::Program::Rmw { keys: vec![3] })
            .unwrap();
        drop(handle); // must join the workers, not leak them spinning
        assert!(matches!(
            session.try_submit(orthrus_txn::Program::Rmw { keys: vec![3] }),
            Err(crate::session::TrySubmitError::Shutdown(_))
        ));
    }

    #[test]
    #[should_panic(expected = "does not match the engine's")]
    fn run_rejects_mismatched_thread_count() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(db, spec, cfg);
        let _ = engine.run(&RunParams::quick(7)); // engine runs 3 threads
    }

    /// `RunStats::threads` counts execution threads in both run modes:
    /// the CC threads' counters merge into the last execution thread's
    /// entry instead of adding one of their own.
    #[test]
    fn run_and_service_count_the_same_threads() {
        let _serial = crate::test_serial();
        for (n_cc, n_exec) in [(1, 1), (2, 1), (1, 2)] {
            let spec = Spec::Micro(MicroSpec::uniform(64, 2, false));
            let cfg = OrthrusConfig::with_threads(n_cc, n_exec, CcAssignment::KeyModulo);
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let engine = OrthrusEngine::new(db, spec, cfg.clone());
            let params = RunParams {
                warmup: std::time::Duration::from_millis(5),
                measure: std::time::Duration::from_millis(20),
                ..quick()
            };
            let closed = engine.run(&params);
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let service = OrthrusEngine::service(db, cfg).start(1).shutdown();
            for (mode, stats) in [("run", &closed), ("start", &service)] {
                assert_eq!(stats.threads, n_exec, "{mode} at {n_cc}x{n_exec}");
                assert_eq!(
                    stats.per_thread_latency.len(),
                    n_exec,
                    "{mode} at {n_cc}x{n_exec}"
                );
            }
            assert!(closed.totals.committed > 0, "{n_cc}x{n_exec}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a workload spec")]
    fn run_rejects_service_engines() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let _ = OrthrusEngine::service(db, cfg).run(&RunParams::quick(0));
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn service_rejects_zero_ingest_capacity() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 0;
        let _ = OrthrusEngine::service(db, cfg);
    }

    // ---- Durability (command log + replay) ---------------------------

    use orthrus_common::TempDir;
    use orthrus_durability::DurabilityMode;

    /// Quiesced per-key counters of a flat database.
    fn counters(db: &Database, n: u64) -> Vec<u64> {
        // SAFETY: the engine is shut down; no thread touches the table.
        (0..n).map(|k| unsafe { db.read_counter(k) }).collect()
    }

    /// Closed-loop run with command logging: the log covers every commit
    /// (lifetime count, group-commit records ≤ commits), and replaying it
    /// into a fresh database reproduces the live table state exactly.
    #[test]
    fn closed_loop_log_replays_to_identical_state() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-log");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::Log, scratch.path());
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        };
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg.clone());
        let stats = engine.run(&quick());
        assert!(stats.totals.committed_all > 0);
        assert!(stats.totals.log_records > 0, "commits must be logged");
        assert!(
            stats.totals.log_records <= stats.totals.committed_all,
            "group commit: at most one record per commit"
        );
        assert!(stats.totals.log_bytes > 0);
        assert_eq!(stats.totals.log_flushes, 0, "`log` mode must not fsync");
        drop(engine); // release the writer before recovery repairs the log

        let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
        let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert_eq!(report.txns, stats.totals.committed_all);
        // The stat counters are *windowed* (reset at measurement start,
        // like `committed`); the log itself covers the whole lifetime.
        assert!(report.records >= stats.totals.log_records);
        assert_eq!(report.torn_bytes, 0, "clean shutdown leaves no tear");
        assert!(
            report.tickets.is_empty(),
            "synthetic commits are unticketed"
        );
        assert_eq!(counters(&fresh, 64), counters(&db, 64));
        drop(recovered);
    }

    /// `log+fsync` with per-run sync (durability rung 1): completions
    /// release only after the inline fsync, and the fsync count equals
    /// the record count (one group-commit flush per fused run).
    #[test]
    fn fsync_mode_flushes_once_per_record() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-fsync");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::LogFsync, scratch.path());
        cfg.sync_interval = orthrus_durability::SyncInterval::PerRun;
        let stats = OrthrusEngine::new(Arc::clone(&db), spec, cfg).run(&quick());
        assert!(stats.totals.committed_all > 0);
        assert_eq!(stats.totals.log_flushes, stats.totals.log_records);
        assert!(stats.totals.log_records > 0);
        assert_eq!(stats.totals.log_group_syncs, 0, "no coordinator spawned");
    }

    /// `log+fsync` with the group-sync coordinator (durability rung 2,
    /// the default): exec threads only publish watermarks, the
    /// coordinator's fsyncs cover every appended record before its
    /// completion releases, and replay still reproduces the state.
    #[test]
    fn group_sync_covers_every_record_and_recovers() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-groupsync");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::LogFsync, scratch.path());
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg.clone());
        let stats = engine.run(&quick());
        assert!(stats.totals.committed_all > 0);
        assert!(stats.totals.log_records > 0);
        assert!(stats.totals.log_group_syncs > 0, "coordinator must flush");
        // Every record this closed-loop run appended was covered by a
        // coordinator fsync before its completion released (the
        // coordinator's counters are lifetime-scoped, so they dominate
        // the windowed record count), and in group mode the only fsyncs
        // are the coordinator's.
        assert!(stats.totals.log_synced_appends >= stats.totals.log_records);
        assert_eq!(stats.totals.log_flushes, stats.totals.log_group_syncs);
        assert!(stats.totals.log_fsync_wait.count() > 0, "waits recorded");
        drop(engine);

        let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
        let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert_eq!(report.txns, stats.totals.committed_all);
        assert_eq!(report.torn_bytes, 0, "clean stop leaves no tear");
        assert_eq!(counters(&fresh, 64), counters(&db, 64));
        drop(recovered);
    }

    /// The engine-level checkpoint loop: a service run with a tiny
    /// checkpoint trigger writes checkpoints behind the workers' backs,
    /// truncates old segments, and recovery replays checkpoint + suffix
    /// (parallel) to the exact live state with every ticket conserved.
    #[test]
    fn service_checkpoints_truncate_and_recover_in_parallel() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-ckpt");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::Log, scratch.path());
        cfg.checkpoint_bytes = Some(256); // aggressive: many checkpoints
        cfg.replay_threads = 3;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
        let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(9, 0);
        let n = 800u64;
        let (done, _stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n);
        drop(engine);

        let newest = orthrus_storage::checkpoint::load_newest_checkpoint(scratch.path())
            .unwrap()
            .expect("a valid checkpoint survives");
        assert!(
            newest.index > 0,
            "checkpointer advanced past the base image"
        );

        let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
        let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert!(
            report.checkpoint.is_some(),
            "recovery starts at a checkpoint"
        );
        assert!(
            (report.txns as usize) < n as usize,
            "only the suffix replays ({} of {n})",
            report.txns
        );
        assert_eq!(counters(&fresh, 64), counters(&db, 64));
        drop(recovered);
    }

    /// Rung-2 equivalence across admission policies: each policy shapes
    /// fused runs — and therefore log records — differently, but
    /// recovering from the newest checkpoint + suffix must be
    /// bit-identical (snapshot-codec bytes) to replaying the same log
    /// from scratch, and the full replay must carry every accepted
    /// ticket exactly once (the conservation audit).
    #[test]
    fn checkpoint_recovery_matches_full_log_for_every_admission_policy() {
        let _serial = crate::test_serial();
        for admission in [
            crate::admit::AdmissionPolicy::Fifo,
            crate::admit::AdmissionPolicy::conflict_batch(),
            crate::admit::AdmissionPolicy::adaptive(),
        ] {
            let scratch = TempDir::new("engine-ckpt-pol");
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
                .with_durability(DurabilityMode::Log, scratch.path());
            cfg.admission = admission.clone();
            cfg.checkpoint_bytes = Some(256);
            let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
            let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(11, 0);
            let n = 800u64;
            let (done, _stats) = drive_service(&engine, &mut gen, n);
            assert_eq!(done.len() as u64, n, "{admission:?}");
            drop(engine);

            // Mirror only the log segments: the mirror has no
            // checkpoints, so it must replay the whole history.
            let mirror = TempDir::new("engine-ckpt-mirror");
            for entry in std::fs::read_dir(scratch.path()).unwrap() {
                let p = entry.unwrap().path();
                let name = p.file_name().unwrap().to_str().unwrap().to_string();
                if name.starts_with("seg-") {
                    std::fs::copy(&p, mirror.path().join(&name)).unwrap();
                }
            }

            let via_ckpt = Database::Flat(Table::new(64, 64));
            let full = Database::Flat(Table::new(64, 64));
            let ra = orthrus_durability::recover_with(&via_ckpt, scratch.path(), 2).unwrap();
            let rb = orthrus_durability::recover_with(&full, mirror.path(), 2).unwrap();
            assert!(ra.checkpoint.is_some(), "{admission:?}");
            assert!(rb.checkpoint.is_none(), "{admission:?}");
            // SAFETY: both databases are quiesced (recovery returned).
            let (a, b) = unsafe {
                (
                    orthrus_durability::snapshot::serialize_db(&via_ckpt),
                    orthrus_durability::snapshot::serialize_db(&full),
                )
            };
            assert_eq!(a, b, "{admission:?}: ckpt+suffix state != full-log state");
            let mut all = rb.tickets.clone();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "{admission:?}");
            assert!(ra.tickets.len() <= rb.tickets.len(), "{admission:?}");
            assert_eq!(
                ra.tickets[..],
                rb.tickets[rb.tickets.len() - ra.tickets.len()..],
                "{admission:?}: suffix mismatch"
            );
        }
    }

    /// Shutdown + recovery interaction (the drained-dry contract): a
    /// service engine accepts a burst — including submissions still
    /// queued in ingest rings when shutdown begins — drains everything,
    /// and `recover` on the resulting log reproduces the drained state
    /// with every accepted ticket replayed exactly once. Work fenced out
    /// by the shutdown (refused tickets) is excluded from the log.
    #[test]
    fn shutdown_drains_dry_then_recover_reproduces_state() {
        let _serial = crate::test_serial();
        for admission in [
            crate::admit::AdmissionPolicy::Fifo,
            crate::admit::AdmissionPolicy::ConflictBatch {
                classes: 4,
                batch: 8,
            },
        ] {
            let scratch = TempDir::new("engine-drain");
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
                .with_durability(DurabilityMode::Log, scratch.path());
            cfg.admission = admission.clone();
            cfg.ingest_capacity = 64;
            let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
            let mut handle = engine.start(3);
            let session = handle.session();
            let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(5, 0);
            // Burst without draining: at shutdown() up to ring-capacity
            // submissions are still queued backlog.
            let n = 200u64;
            for _ in 0..n {
                session.submit(gen.next_program()).expect("accepting");
            }
            let stats = handle.shutdown();
            assert_eq!(stats.totals.committed_all, n, "{admission}: drained dry");
            // Post-fence work is refused — and must not leak into the log.
            assert!(session.try_submit(gen.next_program()).is_err());
            let mut done = Vec::new();
            handle.drain_completions(&mut done);
            assert_eq!(done.len() as u64, n);
            drop(handle);
            drop(engine);

            let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
            let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
            assert_eq!(report.txns, n, "{admission}: every ticket replayed");
            // Exactly-once, no loss: replayed tickets == completed tickets.
            let mut replayed = report.tickets.clone();
            replayed.sort_unstable();
            let mut completed: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
            completed.sort_unstable();
            assert_eq!(replayed, completed, "{admission}");
            assert_eq!(counters(&fresh, 64), counters(&db, 64), "{admission}");

            // The recovered engine keeps serving — and keeps logging.
            let mut handle = recovered.start(4);
            let session = handle.session();
            for _ in 0..10 {
                session.submit(gen.next_program()).expect("accepting");
            }
            let more = handle.shutdown();
            assert_eq!(more.totals.committed_all, 10, "{admission}");
        }
    }

    /// Ticket conservation through OLLP retries under logging: a retried
    /// transaction is logged once (at its commit), and replay reproduces
    /// the TPC-C money invariants of the live run.
    #[test]
    fn tpcc_service_with_ollp_noise_recovers_exactly() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-tpcc");
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse)
            .with_durability(DurabilityMode::Log, scratch.path());
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
        let mut gen = Spec::Tpcc(TpccSpec::paper_mix(cfg_t)).generator(13, 0);
        let n = 300;
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        drop(engine);

        // Replay into a freshly loaded database (same seed = the same
        // logical snapshot the log started from).
        cfg.ollp_noise_pct = 0; // recovery replans noise-free regardless
        let fresh = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let (_recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert_eq!(report.txns, n, "retried commits logged exactly once");
        let (a, b) = (db.tpcc(), fresh.tpcc());
        for w in 0..a.warehouses.len() {
            // SAFETY: both databases are quiesced.
            let (ya, yb) = unsafe {
                (
                    a.warehouses.read_with(w, |r| r.ytd_cents),
                    b.warehouses.read_with(w, |r| r.ytd_cents),
                )
            };
            assert_eq!(ya, yb, "warehouse {w} ytd");
        }
        for d in 0..a.districts.len() {
            // SAFETY: quiesced (see above).
            let (da, db_) = unsafe {
                (
                    a.districts
                        .read_with(d, |r| (r.ytd_cents, r.next_o_id, r.history_ctr)),
                    b.districts
                        .read_with(d, |r| (r.ytd_cents, r.next_o_id, r.history_ctr)),
                )
            };
            assert_eq!(da, db_, "district {d}");
        }
        for c in 0..a.customers.len() {
            // SAFETY: quiesced (see above).
            let (ca, cb) = unsafe {
                (
                    a.customers
                        .read_with(c, |r| (r.balance_cents, r.payment_cnt)),
                    b.customers
                        .read_with(c, |r| (r.balance_cents, r.payment_cnt)),
                )
            };
            assert_eq!(ca, cb, "customer {c}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a log_dir")]
    fn engine_rejects_durability_without_dir() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.durability = DurabilityMode::Log;
        let _ = OrthrusEngine::service(db, cfg);
    }

    #[test]
    #[should_panic(expected = "needs durability on")]
    fn recover_rejects_durability_off() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let _ = OrthrusEngine::recover(db, cfg);
    }

    #[test]
    fn single_partition_messages_are_three_per_commit() {
        let _serial = crate::test_serial();
        // Single-CC transactions: acquire + grant + release = 3 messages
        // (the Appendix-A "2 message delays" acquire path plus 1 release).
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(
            MicroSpec::uniform(64, 4, false)
                .with_constraint(PartitionConstraint::Exact { count: 1, of: 2 }),
        );
        let cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(db, spec, cfg);
        let stats = engine.run(&quick());
        let per_commit = stats.totals.messages_sent as f64 / stats.totals.committed as f64;
        assert!(
            (2.5..=3.5).contains(&per_commit),
            "messages/commit {per_commit:.2}, expected ≈3"
        );
    }
}
