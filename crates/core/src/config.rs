//! ORTHRUS engine configuration.

use std::path::PathBuf;
use std::sync::Arc;

use orthrus_common::{fx_hash_u64, Key};
use orthrus_durability::{DurabilityMode, SyncInterval};
use orthrus_txn::Database;

use crate::admit::AdmissionPolicy;

/// How lockable keys map to CC threads ("ORTHRUS partitions
/// responsibility for database objects across concurrency control threads
/// such that each database object is controlled by a single thread").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcAssignment {
    /// `key % n_cc` — the flat-keyspace experiments. Aligned with the
    /// workload generators' partition constraints and with the SPLIT
    /// variant's index partitions.
    KeyModulo,
    /// `warehouse(key) % n_cc` — TPC-C ("partitions database tables across
    /// concurrency control threads based on each row's warehouse_id
    /// attribute", Section 4.4).
    Warehouse,
    /// Skew-aware two-level mapping: `table[fx_hash(key) & (len − 1)]`
    /// names the owning CC thread. Tables come from
    /// [`crate::rebalance::balanced_assignment`], which packs sampled
    /// bucket load evenly across CC threads — the paper's answer to
    /// "concurrency control threads may be subject to over- and
    /// under-utilization due to workload skew" (Section 3.3). The table
    /// length must be a power of two.
    Balanced(Arc<[u32]>),
}

/// Which concurrency-control architecture the CC threads run
/// (Section 3.4: partitioning is "orthogonal to the design principle of
/// separating functionality").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// Each CC thread owns a disjoint lock partition; latch-free state
    /// (the main ORTHRUS design).
    Partitioned,
    /// All CC threads share one latched lock table; an execution thread
    /// sends its whole plan to any one CC thread (Section 3.4's
    /// alternative). Synchronization exists, but only among the small set
    /// of CC threads.
    SharedTable,
}

/// Engine shape and tuning.
#[derive(Debug, Clone)]
pub struct OrthrusConfig {
    /// Concurrency-control thread count.
    pub n_cc: usize,
    /// Execution thread count.
    pub n_exec: usize,
    /// Key → CC mapping.
    pub assignment: CcAssignment,
    /// In-flight transactions per execution thread (the asynchrony depth
    /// of Section 3.3).
    pub max_inflight: usize,
    /// CC→CC forwarding (Section 3.3). Disable for the `Ncc+1` vs `2·Ncc`
    /// ablation.
    pub forwarding: bool,
    /// OLLP estimate noise (see `orthrus_txn::plan_accesses`).
    pub ollp_noise_pct: u32,
    /// CC architecture (Section 3.4).
    pub cc_mode: CcMode,
    /// Buckets of the shared lock table when `cc_mode == SharedTable`.
    pub shared_table_buckets: usize,
    /// Override the exec→CC ring capacity (ablation A2). Only this ring
    /// may be shrunk safely: an execution thread blocked on a full input
    /// ring of a *live, draining* CC thread always makes progress, whereas
    /// undersized CC→CC rings could deadlock mutually-blocked CC threads.
    pub exec_queue_capacity: Option<usize>,
    /// Message-fabric batching degree (ablation A5). Execution threads
    /// buffer up to this many requests per destination CC thread before
    /// flushing them as one slice (one atomic publish); CC threads drain
    /// up to this many requests per poll round and coalesce the round's
    /// outgoing grants/forwards per destination into one flush.
    ///
    /// `1` reproduces the seed's message-per-message semantics exactly
    /// (every send publishes immediately), which keeps an apples-to-apples
    /// ablation baseline. Buffered messages are always flushed before the
    /// thread polls or parks, so batching never delays a message behind an
    /// idle quantum. `0` is tolerated and **normalizes to 1** — every
    /// hot-loop consumer reads the knob through
    /// [`Self::effective_flush_threshold`], since a literal zero would
    /// make every drain round a no-op (livelock).
    pub flush_threshold: usize,
    /// Capacity of each per-execution-thread client ingest ring in
    /// service mode ([`crate::OrthrusEngine::start`]); rounded up to a
    /// power of two by the ring. Bounded by design: a full ring is
    /// backpressure (`TrySubmitError::Full`) — the open-loop submission
    /// API never queues unboundedly inside the engine. Completion rings
    /// are sized from this plus the admission policy's queue window and
    /// the in-flight cap, so a draining client can never wedge the
    /// engine.
    pub ingest_capacity: usize,
    /// Admission scheduling policy (ablations A6/A7): the setting of the
    /// one admission controller ([`crate::admit::AdaptiveController`]).
    /// `Adaptive` switches online between admitting in generator order
    /// and batching by conflict class (Prasaad et al.: plan once at
    /// admission, drain per-class run queues back-to-back), driven by
    /// the observed grant-deferral rate under hysteresis.
    /// [`AdmissionPolicy::Fifo`] pins the controller to never batch —
    /// the seed's admission order — and `ConflictBatch` pins it to batch
    /// at a fixed depth.
    pub admission: AdmissionPolicy,
    /// Durability (`ORTHRUS_DURABILITY` in the harness): `Off` is the
    /// paper's main-memory-only semantics; `Log` appends one command-log
    /// record per fused admission run before the run's locks and
    /// completions are released; `LogFsync` additionally fsyncs per
    /// record, so a delivered completion implies a durable commit. Any
    /// mode other than `Off` requires [`Self::log_dir`].
    pub durability: DurabilityMode,
    /// Command-log directory when durability is on. The engine appends to
    /// an existing clean log; recovery (`OrthrusEngine::recover`) replays
    /// and repairs it first.
    pub log_dir: Option<PathBuf>,
    /// Fsync scheduling under `LogFsync` (`ORTHRUS_SYNC_INTERVAL` in the
    /// harness): `PerRun` = every exec thread fsyncs its own appends
    /// inline (durability rung 1); `Adaptive` (default) / `FixedMicros`
    /// = the cross-thread group-sync coordinator coalesces all
    /// outstanding appends into one fsync and exec threads release
    /// completions at or below the synced watermark. Ignored unless
    /// `durability == LogFsync`.
    pub sync_interval: SyncInterval,
    /// Fuzzy-checkpoint trigger (`ORTHRUS_CHECKPOINT` in the harness):
    /// take a checkpoint every this many appended log bytes; `None`
    /// disables the checkpointer thread. Ignored when durability is off.
    pub checkpoint_bytes: Option<u64>,
    /// Recovery parallelism (`ORTHRUS_REPLAY_THREADS` in the harness):
    /// how many threads `OrthrusEngine::recover` replays the committed
    /// suffix across (footprint-parallel leveling, bit-identical to
    /// serial). 1 = serial.
    pub replay_threads: usize,
    /// Prefix for the thread names this engine enrolls with the
    /// deterministic-simulation scheduler (`cc0`, `exec1`, `sync`, ...).
    /// Empty for a standalone engine; a partitioned deployment gives
    /// each member engine a distinct prefix (`p0.`, `p1.`, ...) so N
    /// engines under one seeded scheduler don't collide on names.
    pub sim_prefix: String,
}

/// Default fabric batching degree: deep enough to amortize the
/// `head`/`tail` cache-line round trips, shallow enough that one round's
/// flush always fits the steady-state ring-capacity bounds.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 16;

/// Default per-execution-thread client ingest ring capacity (service
/// mode): deep enough that an offered-load driver rarely backpressures
/// below engine capacity, shallow enough that the post-shutdown drain
/// tail stays bounded and submit→commit latency reflects engine queueing
/// rather than an unbounded buffer.
pub const DEFAULT_INGEST_CAPACITY: usize = 256;

impl OrthrusConfig {
    /// A paper-style configuration: given a total "core" budget, dedicate
    /// 1/5 of threads to concurrency control (the 16 CC / 64 exec split
    /// the paper uses at 80 cores) and the rest to execution.
    pub fn for_cores(total: usize, assignment: CcAssignment) -> Self {
        let n_cc = (total / 5).max(1);
        OrthrusConfig {
            n_cc,
            n_exec: (total - n_cc).max(1),
            assignment,
            max_inflight: 16,
            forwarding: true,
            ollp_noise_pct: 0,
            cc_mode: CcMode::Partitioned,
            shared_table_buckets: 1 << 14,
            exec_queue_capacity: None,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            ingest_capacity: DEFAULT_INGEST_CAPACITY,
            admission: AdmissionPolicy::Fifo,
            durability: DurabilityMode::Off,
            log_dir: None,
            sync_interval: SyncInterval::default(),
            checkpoint_bytes: None,
            replay_threads: 1,
            sim_prefix: String::new(),
        }
    }

    /// Explicit CC/exec split.
    pub fn with_threads(n_cc: usize, n_exec: usize, assignment: CcAssignment) -> Self {
        assert!(n_cc >= 1 && n_exec >= 1);
        OrthrusConfig {
            n_cc,
            n_exec,
            assignment,
            max_inflight: 16,
            forwarding: true,
            ollp_noise_pct: 0,
            cc_mode: CcMode::Partitioned,
            shared_table_buckets: 1 << 14,
            exec_queue_capacity: None,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            ingest_capacity: DEFAULT_INGEST_CAPACITY,
            admission: AdmissionPolicy::Fifo,
            durability: DurabilityMode::Off,
            log_dir: None,
            sync_interval: SyncInterval::default(),
            checkpoint_bytes: None,
            replay_threads: 1,
            sim_prefix: String::new(),
        }
    }

    /// Enable command logging: `mode` governs the fsync policy, `dir`
    /// holds the segmented log.
    pub fn with_durability(mut self, mode: DurabilityMode, dir: impl Into<PathBuf>) -> Self {
        self.durability = mode;
        self.log_dir = Some(dir.into());
        self
    }

    /// Validate the engine shape. [`crate::OrthrusEngine::new`] rejects
    /// invalid configurations at construction — a zero thread count or
    /// in-flight cap would otherwise hang or starve silently at run time.
    ///
    /// `flush_threshold = 0` is deliberately *not* an error: it normalizes
    /// to `1` in [`Self::effective_flush_threshold`].
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cc == 0 {
            return Err("n_cc must be ≥ 1: no CC thread would own the lock space".into());
        }
        if self.n_exec == 0 {
            return Err("n_exec must be ≥ 1: no thread would run transactions".into());
        }
        if self.n_cc > u16::MAX as usize || self.n_exec > u16::MAX as usize {
            return Err(format!(
                "thread counts are u16 message-routing ids; got {} CC / {} exec",
                self.n_cc, self.n_exec
            ));
        }
        if self.max_inflight == 0 {
            return Err(
                "max_inflight must be ≥ 1: admission would never start a transaction".into(),
            );
        }
        if self.ingest_capacity == 0 {
            return Err(
                "ingest_capacity must be ≥ 1: a zero ring could never accept a submission".into(),
            );
        }
        self.admission.validate()?;
        if self.replay_threads == 0 {
            return Err("replay_threads must be ≥ 1: recovery needs a replay thread".into());
        }
        if self.durability.is_on() && self.log_dir.is_none() {
            return Err(format!(
                "durability mode {} needs a log_dir (OrthrusConfig::with_durability)",
                self.durability
            ));
        }
        if self.cc_mode == CcMode::SharedTable && self.shared_table_buckets == 0 {
            return Err("SharedTable mode needs shared_table_buckets ≥ 1".into());
        }
        if let CcAssignment::Balanced(table) = &self.assignment {
            if table.is_empty() || !table.len().is_power_of_two() {
                return Err(format!(
                    "Balanced assignment table length must be a nonzero power of two, got {}",
                    table.len()
                ));
            }
            if let Some(&cc) = table.iter().find(|&&cc| cc as usize >= self.n_cc) {
                return Err(format!(
                    "Balanced assignment routes to CC {cc}, but n_cc is {}",
                    self.n_cc
                ));
            }
        }
        Ok(())
    }

    /// Total thread (core) budget.
    pub fn total_threads(&self) -> usize {
        self.n_cc + self.n_exec
    }

    /// The batching degree the fabric actually runs at: `flush_threshold`
    /// normalized to ≥ 1. A zero would make every drain round a no-op
    /// (livelock), so every hot-loop consumer reads the knob through
    /// this accessor.
    #[inline]
    pub fn effective_flush_threshold(&self) -> usize {
        self.flush_threshold.max(1)
    }

    /// Resolve the CC thread owning `key`.
    #[inline]
    pub fn cc_of(&self, db: &Database, key: Key) -> u32 {
        match &self.assignment {
            CcAssignment::KeyModulo => (key % self.n_cc as u64) as u32,
            CcAssignment::Warehouse => {
                let layout = &db.tpcc().layout;
                layout.warehouse_of(key) % self.n_cc as u32
            }
            CcAssignment::Balanced(table) => {
                debug_assert!(table.len().is_power_of_two());
                table[(fx_hash_u64(key) as usize) & (table.len() - 1)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb};
    use orthrus_storage::Table;

    #[test]
    fn for_cores_keeps_paper_ratio() {
        let c = OrthrusConfig::for_cores(80, CcAssignment::KeyModulo);
        assert_eq!(c.n_cc, 16);
        assert_eq!(c.n_exec, 64);
        assert_eq!(c.total_threads(), 80);
        let c = OrthrusConfig::for_cores(5, CcAssignment::KeyModulo);
        assert_eq!((c.n_cc, c.n_exec), (1, 4));
    }

    #[test]
    fn effective_flush_threshold_never_zero() {
        let mut c = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        assert_eq!(c.effective_flush_threshold(), DEFAULT_FLUSH_THRESHOLD);
        c.flush_threshold = 0;
        assert_eq!(
            c.effective_flush_threshold(),
            1,
            "zero must clamp, not livelock"
        );
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        let good = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        assert!(good.validate().is_ok());

        let mut c = good.clone();
        c.n_cc = 0;
        assert!(c.validate().unwrap_err().contains("n_cc"));

        let mut c = good.clone();
        c.n_exec = 0;
        assert!(c.validate().unwrap_err().contains("n_exec"));

        let mut c = good.clone();
        c.max_inflight = 0;
        assert!(c.validate().unwrap_err().contains("max_inflight"));

        let mut c = good.clone();
        c.n_exec = u16::MAX as usize + 1;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.admission = AdmissionPolicy::ConflictBatch {
            classes: 0,
            batch: 16,
        };
        assert!(c.validate().unwrap_err().contains("ConflictBatch"));

        // A well-formed adaptive shape passes…
        let mut c = good.clone();
        c.admission = AdmissionPolicy::adaptive();
        assert!(c.validate().is_ok());

        // …and each degenerate adaptive knob is rejected with a message
        // naming it.
        let adaptive = |f: &dyn Fn(&mut AdmissionPolicy)| {
            let mut p = AdmissionPolicy::adaptive();
            f(&mut p);
            let mut c = good.clone();
            c.admission = p;
            c.validate()
        };
        let set = |field: fn(&mut AdmissionPolicy) -> &mut u32, v: u32| {
            move |p: &mut AdmissionPolicy| *field(p) = v
        };
        fn threshold(p: &mut AdmissionPolicy) -> &mut u32 {
            let AdmissionPolicy::Adaptive { threshold_pct, .. } = p else {
                unreachable!()
            };
            threshold_pct
        }
        fn hyst(p: &mut AdmissionPolicy) -> &mut u32 {
            let AdmissionPolicy::Adaptive { hysteresis, .. } = p else {
                unreachable!()
            };
            hysteresis
        }
        fn epoch(p: &mut AdmissionPolicy) -> &mut u32 {
            let AdmissionPolicy::Adaptive { epoch, .. } = p else {
                unreachable!()
            };
            epoch
        }
        assert!(adaptive(&set(threshold, 0))
            .unwrap_err()
            .contains("threshold_pct"));
        assert!(adaptive(&set(hyst, 0)).unwrap_err().contains("hysteresis"));
        // Epoch length 1 (and 0) make the per-epoch rate degenerate.
        assert!(adaptive(&set(epoch, 1)).unwrap_err().contains("epoch"));
        assert!(adaptive(&set(epoch, 0)).unwrap_err().contains("epoch"));
        assert!(adaptive(&set(epoch, 2)).is_ok(), "2 is the minimum");
        assert!(adaptive(&|p| {
            let AdmissionPolicy::Adaptive { classes, .. } = p else {
                unreachable!()
            };
            *classes = 0;
        })
        .unwrap_err()
        .contains("classes"));
        assert!(adaptive(&|p| {
            let AdmissionPolicy::Adaptive { max_batch, .. } = p else {
                unreachable!()
            };
            *max_batch = 0;
        })
        .unwrap_err()
        .contains("max_batch"));

        let mut c = good.clone();
        c.cc_mode = CcMode::SharedTable;
        c.shared_table_buckets = 0;
        assert!(c.validate().is_err());

        // flush_threshold = 0 normalizes instead of erroring.
        let mut c = good.clone();
        c.flush_threshold = 0;
        assert!(c.validate().is_ok());
        assert_eq!(c.effective_flush_threshold(), 1);
    }

    #[test]
    fn validate_checks_balanced_tables() {
        let mut c = OrthrusConfig::with_threads(2, 2, CcAssignment::Balanced(Arc::from(vec![])));
        assert!(c.validate().unwrap_err().contains("power of two"));
        c.assignment = CcAssignment::Balanced(Arc::from(vec![0u32, 1, 0]));
        assert!(c.validate().is_err(), "length 3 is not a power of two");
        c.assignment = CcAssignment::Balanced(Arc::from(vec![0u32, 5, 0, 1]));
        assert!(
            c.validate().unwrap_err().contains("CC 5"),
            "out-of-range CC id must be rejected"
        );
        c.assignment = CcAssignment::Balanced(Arc::from(vec![0u32, 1, 0, 1]));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn key_modulo_assignment() {
        let c = OrthrusConfig::with_threads(4, 4, CcAssignment::KeyModulo);
        let db = Database::Flat(Table::new(16, 64));
        for k in 0..16u64 {
            assert_eq!(c.cc_of(&db, k), (k % 4) as u32);
        }
    }

    #[test]
    fn warehouse_assignment_groups_by_warehouse() {
        let c = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(4), 1));
        let l = db.tpcc().layout;
        for w in 0..4u32 {
            let expected = w % 2;
            assert_eq!(c.cc_of(&db, l.warehouse_key(w)), expected);
            assert_eq!(c.cc_of(&db, l.district_key(w, 1)), expected);
            assert_eq!(c.cc_of(&db, l.customer_key(w, 1, 3)), expected);
            assert_eq!(c.cc_of(&db, l.stock_key(w, 9)), expected);
        }
    }
}
