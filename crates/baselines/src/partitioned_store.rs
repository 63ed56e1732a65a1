//! Partitioned-store: the H-Store/HyPer-style shared-nothing baseline
//! (Section 4.3, "similar to the corresponding implementation by Tu et
//! al. in Silo").
//!
//! Data is physically partitioned across workers (`Database::Partitioned`
//! with one partition per worker); isolation is one coarse spinlock per
//! partition. A transaction locks every partition it touches, in ascending
//! partition order (no deadlocks), executes, and unlocks. Single-partition
//! transactions take exactly one uncontended, cache-local spinlock — the
//! fast path whose collapse under multi-partition transactions Figures 6
//! and 7 measure.

use std::sync::Arc;

use crossbeam::utils::CachePadded;
use orthrus_common::runtime::{timed_run, RunParams};
use orthrus_common::{Phase, PhaseTimer, RunStats, ThreadStats};
use orthrus_txn::{execute, Database, Program, Unguarded};
use orthrus_workload::Spec;

use crate::spin::SpinLock;

/// The shared-nothing engine.
pub struct PartitionedStoreEngine {
    db: Arc<Database>,
    locks: Box<[CachePadded<SpinLock>]>,
    n_partitions: usize,
    spec: Spec,
}

impl PartitionedStoreEngine {
    /// Build over a partitioned database. The partition count is taken
    /// from the database layout; run with `params.threads == n_partitions`
    /// for the paper's one-worker-per-partition configuration.
    pub fn new(db: Arc<Database>, spec: Spec) -> Self {
        let n_partitions = match &*db {
            Database::Partitioned(t) => t.n_partitions(),
            _ => panic!("Partitioned-store requires a partitioned database"),
        };
        PartitionedStoreEngine {
            db,
            locks: (0..n_partitions)
                .map(|_| CachePadded::new(SpinLock::new()))
                .collect(),
            n_partitions,
            spec,
        }
    }

    /// Number of physical partitions.
    pub fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    /// Run the workload on `params.threads` workers.
    pub fn run(&self, params: &RunParams) -> RunStats {
        timed_run(params.threads, params.warmup, params.measure, |idx, ctl| {
            self.worker(idx, ctl, params)
        })
    }

    fn worker(&self, idx: usize, ctl: &orthrus_common::RunCtl, params: &RunParams) -> ThreadStats {
        let mut gen = self.spec.generator(params.seed, idx);
        let mut stats = ThreadStats::default();
        let mut timer = PhaseTimer::start(Phase::Execution);
        let mut parts: Vec<usize> = Vec::with_capacity(8);
        let mut in_window = false;

        while !ctl.is_stopped() {
            if !in_window && ctl.is_measuring() {
                stats.reset_window();
                timer = PhaseTimer::start(Phase::Execution);
                in_window = true;
            }
            let program = gen.next_program();
            let started = std::time::Instant::now();

            // Partition set, ascending (the deadlock-free lock order).
            timer.switch(&mut stats, Phase::Locking);
            parts.clear();
            let keys = match &program {
                Program::ReadOnly { keys } | Program::Rmw { keys } => keys,
                other => panic!("Partitioned-store runs key programs, got {}", other.kind()),
            };
            for &k in keys {
                let p = (k % self.n_partitions as u64) as usize;
                if !parts.contains(&p) {
                    parts.push(p);
                }
            }
            parts.sort_unstable();

            for &p in &parts {
                if !self.locks[p].try_lock() {
                    timer.switch(&mut stats, Phase::Waiting);
                    self.locks[p].lock();
                    timer.switch(&mut stats, Phase::Locking);
                }
            }

            timer.switch(&mut stats, Phase::Execution);
            let result = execute(&program, &self.db, &mut Unguarded, None)
                .expect("partition-locked execution cannot abort");
            std::hint::black_box(result);

            timer.switch(&mut stats, Phase::Locking);
            for &p in &parts {
                self.locks[p].unlock();
            }
            stats.committed += 1;
            stats.committed_all += 1;
            stats.latency.record(started.elapsed().as_nanos() as u64);
            timer.switch(&mut stats, Phase::Execution);
        }
        timer.finish(&mut stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_storage::PartitionedTable;
    use orthrus_workload::{MicroSpec, PartitionConstraint};

    fn db(parts: usize) -> Arc<Database> {
        Arc::new(Database::Partitioned(PartitionedTable::new(256, 64, parts)))
    }

    #[test]
    fn single_partition_txns_commit_exact_counts() {
        let _serial = crate::test_serial();
        let db = db(4);
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 4, false)
                .with_constraint(PartitionConstraint::Exact { count: 1, of: 4 }),
        );
        let engine = PartitionedStoreEngine::new(Arc::clone(&db), spec);
        let stats = engine.run(&RunParams::quick(4));
        assert!(stats.totals.committed > 0);
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn multi_partition_txns_still_serialize() {
        let _serial = crate::test_serial();
        let db = db(4);
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 8, false)
                .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
        );
        let engine = PartitionedStoreEngine::new(Arc::clone(&db), spec);
        let stats = engine.run(&RunParams::quick(4));
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 8);
    }

    #[test]
    fn mixed_fraction_workload_runs() {
        let _serial = crate::test_serial();
        let db = db(8);
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 4, false)
                .with_constraint(PartitionConstraint::MultiFraction { pct: 30, of: 8 }),
        );
        let engine = PartitionedStoreEngine::new(Arc::clone(&db), spec);
        let stats = engine.run(&RunParams::quick(4));
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    #[should_panic(expected = "requires a partitioned database")]
    fn rejects_flat_database() {
        let _serial = crate::test_serial();
        let flat = Arc::new(Database::Flat(orthrus_storage::Table::new(8, 64)));
        let _ = PartitionedStoreEngine::new(flat, Spec::Micro(MicroSpec::uniform(8, 1, false)));
    }
}
