//! The four workloads. Each sets up its engine (timed), drives it for the
//! window, checks the outputs, and fills a [`Report`].
//!
//! | workload       | front door                 | stresses                                  |
//! |----------------|----------------------------|-------------------------------------------|
//! | `hot_closed`   | `Session`, closed loop     | admission fusion, CC grant chains         |
//! | `uniform_wire` | `NetServer` over loopback  | wire codec, connection threads, hub       |
//! | `xpart`        | `PartitionedEngine`        | routing, slicing, epochs; log and replay  |
//! | `uniform_open` | `Session`, open loop       | idle/wake path, client share of the CPU   |
//!
//! `uniform_open` is left out of the workload list in `BENCHMARK.json`.
//! Its latency is set by how the scheduler shares two cores between the
//! client and two polling engine threads, and by the stalls while a CC
//! lock table rehashes (tables keep an entry for every key ever locked).
//! Over five 10 s runs its p50 spread 38% and its p99 47% (quartile
//! distance over median). `--workload uniform_open` still runs it.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use orthrus_common::{fx_hash_u64, RunStats};
use orthrus_core::{DurabilityMode, OrthrusEngine};
use orthrus_net::{NetClient, NetConfig, NetServer};
use orthrus_part::{PartitionedConfig, PartitionedEngine};
use orthrus_txn::{Database, Program};
use orthrus_workload::{Gen, MicroSpec, PartitionConstraint, Spec};

use crate::load::{
    closed_loop, counter_sum, engine_config, flat_db, open_loop, pin_client, sweep, timed_setup,
    wire_loop, Audit, Ledger, LoopOutcome, Opts, Parted, Single, Window, OPS, RECORD_SIZE, WARMUP,
};
use crate::os::{peak_rss_mb, thread_ids, CpuUse, Group, Threads};
use crate::report::Report;
use crate::stats::ratio;
use crate::trace::{Kind, Tracer};

pub const WORKLOADS: [&str; 4] = ["hot_closed", "uniform_wire", "xpart", "uniform_open"];

/// Uniform workloads: 4M × 100 B, about 400 MB, roughly four times the
/// host's 105 MiB L3, so most record accesses miss the cache.
pub const UNIFORM_RECORDS: u64 = 4_000_000;

/// `xpart`: 1M × 100 B per partition table (each partition's table
/// spans the whole key space and holds the half it owns). With 4M keys
/// its peak RSS was 2 GB; in four interleaved pairs of 20 s runs, 1M
/// keys ran 99–117k txns/s and 4M keys 78–100k.
pub const XPART_RECORDS: u64 = 1_000_000;

/// The contended workload: 100k × 100 B (10 MB) fits in L3, so the
/// contention, not memory, sets its speed.
pub const HOT_RECORDS: u64 = 100_000;

const ZIPF_THETA: f64 = 0.9;

/// Closed-loop in-process clients keep this many transactions in flight
/// (below the 256-slot ingest ring).
const INPROC_DEPTH: usize = 64;

/// The open loop's fixed offered rate. It is absolute, not calibrated to
/// the engine under test, so it means the same load on every commit.
const OPEN_RATE: f64 = 30_000.0;

/// Open-loop latency limit for `slo_miss_frac`.
const SLO_NS: u64 = 1_000_000;

/// Cross-partition share of `xpart`'s transactions, in percent.
const CROSS_PCT: u32 = 10;

const PARTITIONS: usize = 2;

/// Transactions `xpart`'s logged leg runs after its key sweep.
const LOGGED_TXNS: u64 = 200_000;

/// TCP connections of `uniform_wire`, one client thread each.
const WIRE_CONNS: usize = 2;

/// The engine's own planning seed. The run's `--seed` reaches only the
/// workload generators.
const ENGINE_SEED: u64 = 0x0A11_CE55;

/// Generator stream of the benchmark's client (engine threads use low
/// stream ids).
const CLIENT_STREAM: usize = 64;

/// Sample capacity to reserve for a run at roughly `tps`.
fn capacity(opts: &Opts, tps: f64) -> usize {
    (tps * (opts.seconds as f64 + WARMUP.as_secs_f64())) as usize
}

pub fn run(name: &str, opts: &Opts, run_dir: &Path) -> Report {
    match name {
        "hot_closed" => hot_closed(opts),
        "uniform_wire" => uniform_wire(opts),
        "xpart" => xpart(opts, run_dir),
        "uniform_open" => uniform_open(opts),
        other => unreachable!("workload {other} is validated by the caller"),
    }
}

/// Run `f` on a thread named `client0`, so the CPU it uses is attributed
/// to the client group.
fn on_client_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("client0".into())
            .spawn_scoped(s, f)
            .expect("spawn client thread")
            .join()
            .expect("client thread panicked")
    })
}

fn hot_closed(opts: &Opts) -> Report {
    in_process(opts, HOT_RECORDS, Some(ZIPF_THETA))
}

fn uniform_open(opts: &Opts) -> Report {
    in_process(opts, UNIFORM_RECORDS, None)
}

/// `hot_closed` (Zipf keys, closed loop) and `uniform_open` (uniform
/// keys, open loop): one engine behind an in-process `Session`.
fn in_process(opts: &Opts, records: u64, zipf: Option<f64>) -> Report {
    let mut threads = Threads::default();
    let ((db, mut target), setup_s) = timed_setup(
        |_| {
            let db = flat_db(records);
            let before = thread_ids();
            let handle =
                OrthrusEngine::service(Arc::clone(&db), engine_config()).start(ENGINE_SEED);
            threads.engine_started(&before);
            let session = handle.session();
            (db, Single { session, handle })
        },
        |(_, mut t)| {
            t.handle.shutdown();
        },
    );
    let spec = match zipf {
        Some(theta) => MicroSpec::zipf(records, OPS, theta, false),
        None => MicroSpec::uniform(records, OPS, false),
    };
    let mut gen = Spec::Micro(spec).generator(opts.seed, CLIENT_STREAM);
    let win = Window::begin(opts);
    let mut out = on_client_thread(|| {
        pin_client();
        match zipf {
            Some(_) => closed_loop(
                &mut target,
                &mut gen,
                INPROC_DEPTH,
                &win,
                &threads,
                capacity(opts, 250_000.0),
                Ledger::default(),
            ),
            None => open_loop(&mut target, &mut gen, OPEN_RATE, &win, &threads),
        }
    });

    let stats = target.handle.shutdown();
    let mut rest = Vec::new();
    target.handle.drain_completions(&mut rest);
    for c in &rest {
        out.ledger.answered(c.ticket.0);
    }
    let audit = out.ledger.audit();
    let accepted = target.handle.accepted();

    let mut r = Report::default();
    check_tickets(&mut r, "tickets_exactly_once", &audit, accepted);
    let sum = counter_sum(&db, records);
    let committed = stats.totals.committed_all;
    r.check(
        "counters_match_commits",
        sum == OPS as u64 * committed && committed == accepted,
        format!("counter sum {sum}, {OPS} x {committed} commits, {accepted} accepted"),
    );
    if zipf.is_none() {
        let misses = out.latency.count_above(SLO_NS) as u64
            + out.offered.saturating_sub(out.latency.len() as u64);
        r.set("slo_miss_frac", ratio(misses as f64, out.offered as f64));
        r.set("client.late_p99_us", out.late.percentile(0.99) as f64 / 1e3);
        r.note(format!(
            "offered {} txns at {OPEN_RATE} txns/s in the window",
            out.offered
        ));
    }
    finish(&mut r, opts, &win, &mut out, &stats, setup_s, &audit);
    r
}

fn uniform_wire(opts: &Opts) -> Report {
    let mut threads = Threads::default();
    let ((db, server), setup_s) = timed_setup(
        |_| {
            let db = flat_db(UNIFORM_RECORDS);
            let before = thread_ids();
            let handle =
                OrthrusEngine::service(Arc::clone(&db), engine_config()).start(ENGINE_SEED);
            threads.engine_started(&before);
            let server = NetServer::start(handle, NetConfig::default()).expect("bind loopback");
            (db, server)
        },
        |(_, server)| {
            let (mut handle, _) = server.shutdown();
            handle.shutdown();
        },
    );
    let spec = Spec::Micro(MicroSpec::uniform(UNIFORM_RECORDS, OPS, false));
    let mut clients: Vec<(NetClient, Gen)> = (0..WIRE_CONNS)
        .map(|i| {
            let conn = NetClient::connect(server.addr()).expect("connect to loopback server");
            (conn, spec.generator(opts.seed, CLIENT_STREAM + i))
        })
        .collect();
    let win = Window::begin(opts);
    let outs: Vec<LoopOutcome> = std::thread::scope(|s| {
        let running: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, (conn, gen))| {
                let (win, threads) = (&win, &threads);
                std::thread::Builder::new()
                    .name(format!("client{i}"))
                    .spawn_scoped(s, move || {
                        wire_loop(conn, gen, win, threads, capacity(opts, 20_000.0))
                    })
                    .expect("spawn client thread")
            })
            .collect();
        running
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    drop(clients);
    let audits: Vec<Audit> = outs.iter().map(|o| o.ledger.audit()).collect();
    let mut outs = outs.into_iter();
    let mut out = outs.next().expect("at least one connection");
    outs.for_each(|o| out.absorb(o));

    let (orphaned, unowned) = (server.hub().orphaned(), server.hub().unowned());
    let (mut handle, net) = server.shutdown();
    let stats = handle.shutdown();

    let mut r = Report::default();
    let audit = merge_audits(&audits);
    r.check(
        "req_ids_answered_once",
        audits.iter().all(Audit::exactly_once),
        audits
            .iter()
            .map(Audit::describe)
            .collect::<Vec<_>>()
            .join("; "),
    );
    r.check(
        "no_bad_frames",
        net.net_bad_frames == 0,
        format!("{} bad frames", net.net_bad_frames),
    );
    r.check(
        "hub_accounts_every_completion",
        orphaned == 0 && unowned == 0,
        format!("{orphaned} orphaned, {unowned} unowned"),
    );
    let sum = counter_sum(&db, UNIFORM_RECORDS);
    let committed = stats.totals.committed_all;
    r.check(
        "counters_match_commits",
        sum == OPS as u64 * committed && committed == audit.sent,
        format!(
            "counter sum {sum}, {OPS} x {committed} commits, {} sent",
            audit.sent
        ),
    );
    r.set("core.hub.orphaned", orphaned as f64);
    r.set("core.hub.unowned", unowned as f64);
    r.set(
        "net.server.txns_per_read",
        ratio(net.net_rx_txns as f64, net.net_read_calls as f64),
    );
    r.set(
        "net.server.completions_per_frame",
        ratio(net.net_tx_completions as f64, net.net_tx_frames as f64),
    );
    r.set(
        "net.server.write_calls_per_txn",
        ratio(net.net_write_calls as f64, net.net_tx_completions as f64),
    );
    let poll = out.tracer.totals(Kind::Poll);
    r.set(
        "net.client.send_ns",
        out.tracer.totals(Kind::Send).mean_ns(),
    );
    r.set("net.client.poll_ns", poll.mean_ns());
    r.set(
        "net.client.poll_empty_frac",
        ratio(poll.empty as f64, poll.calls as f64),
    );
    finish(&mut r, opts, &win, &mut out, &stats, setup_s, &audit);
    let engine_p50 = r.get("core.engine_p50_us");
    r.set("net.wire_share", 1.0 - ratio(engine_p50, r.get("p50_us")));
    r
}

fn xpart(opts: &Opts, run_dir: &Path) -> Report {
    let mut threads = Threads::default();
    let ((dbs, mut target), setup_s) = timed_setup(
        |_| {
            let dbs = parted_dbs();
            let before = thread_ids();
            let target = start_parted(&dbs, &PartitionedConfig::new(PARTITIONS, engine_config()));
            threads.partitioned_started(&before);
            (dbs, target)
        },
        |(_, mut t)| {
            t.handle.shutdown();
        },
    );
    let mut gen = xpart_generator(opts.seed, CLIENT_STREAM);
    // A partition's CC thread keeps a lock-table entry for every key it
    // has ever locked, and the table rehashes as it doubles, stalling the
    // partition. With 4M keys the last rehashes (100 ms or more) came
    // some 15 s into a run, and whether they fell into the window moved
    // p99 by 40% between runs. One untimed pass over every key first
    // makes the window measure a deployment that has seen its whole key
    // space.
    let mut ledger = Ledger::default();
    on_client_thread(|| {
        let programs = key_sweep(XPART_RECORDS, PARTITIONS as u64);
        sweep(&mut target, programs, INPROC_DEPTH, &mut ledger)
    });
    let win = Window::begin(opts);
    let mut out = on_client_thread(|| {
        closed_loop(
            &mut target,
            &mut gen,
            INPROC_DEPTH,
            &win,
            &threads,
            capacity(opts, 200_000.0),
            ledger,
        )
    });

    let stats = target.handle.shutdown();
    let mut rest = Vec::new();
    target.handle.drain_completions(&mut rest);
    for c in &rest {
        out.ledger.answered(c.ticket.0);
    }
    let audit = out.ledger.audit();
    let accepted = target.handle.accepted();
    let mut r = Report::default();
    check_tickets(&mut r, "tickets_exactly_once", &audit, accepted);
    check_counters(&mut r, "counters_match_commits", &dbs, accepted);
    r.set(
        "part.cross_frac",
        ratio(target.cross as f64, target.classified as f64),
    );
    drop(target);
    drop(dbs);
    finish(&mut r, opts, &win, &mut out, &stats, setup_s, &audit);
    logged_leg(&mut r, opts, run_dir);
    r
}

/// The second, untimed leg of `xpart`: the same deployment with each
/// partition's command log on, driven through [`LOGGED_TXNS`]
/// transactions, then recovered from its log into fresh tables.
///
/// The log stays out of the measured window because its cost was not
/// steady on the 2-core virtual machine the benchmark was tuned on. Each
/// partition appends every run with two `write` calls to an ext4 file,
/// and with the log on, throughput held one level for 10–20 s and then
/// moved to another 20–40% away. Over five 30 s runs with the log in the
/// window, throughput spread 20% (quartile distance over median), and
/// 10 s and 20 s runs were no steadier. In two sets of ten 30 s runs
/// without it the spread was 9% and 12%. The log's cost shows here, as
/// `durability.logged_tps`.
fn logged_leg(r: &mut Report, opts: &Opts, run_dir: &Path) {
    let dir = run_dir.join("xpart-log");
    let dbs = parted_dbs();
    let cfg = PartitionedConfig::new(
        PARTITIONS,
        engine_config().with_durability(DurabilityMode::Log, &dir),
    );
    let mut target = start_parted(&dbs, &cfg);
    let mut gen = xpart_generator(opts.seed, CLIENT_STREAM + 1);
    let mut ledger = Ledger::default();
    let logged_s = on_client_thread(|| {
        let programs = key_sweep(XPART_RECORDS, PARTITIONS as u64);
        sweep(&mut target, programs, INPROC_DEPTH, &mut ledger);
        let t = Instant::now();
        let programs = (0..LOGGED_TXNS).map(|_| gen.next_program());
        sweep(&mut target, programs, INPROC_DEPTH, &mut ledger);
        t.elapsed().as_secs_f64()
    });
    let stats = target.handle.shutdown();
    let mut rest = Vec::new();
    target.handle.drain_completions(&mut rest);
    for c in &rest {
        ledger.answered(c.ticket.0);
    }
    let audit = ledger.audit();
    let accepted = target.handle.accepted();
    check_tickets(r, "logged_tickets_exactly_once", &audit, accepted);
    check_counters(r, "logged_counters_match_commits", &dbs, accepted);
    r.attempted += audit.sent;
    r.failed += audit.failed();
    r.set("failed_frac", ratio(r.failed as f64, r.attempted as f64));
    let t = &stats.totals;
    r.set("durability.logged_tps", ratio(LOGGED_TXNS as f64, logged_s));
    r.set(
        "durability.log_bytes_per_txn",
        ratio(t.log_bytes as f64, t.committed as f64),
    );
    r.set(
        "durability.txns_per_record",
        ratio(t.committed as f64, t.log_records as f64),
    );
    let live: Vec<Vec<u64>> = dbs.iter().map(|db| record_digests(db)).collect();
    drop(target);
    drop(dbs);

    let fresh = parted_dbs();
    let t = Instant::now();
    let reports =
        PartitionedEngine::recover(&fresh, &cfg).expect("recover the benchmark's own log");
    let recover_s = t.elapsed().as_secs_f64();
    let replayed: u64 = reports.iter().map(|rep| rep.txns).sum();
    let replay_bytes: u64 = reports.iter().map(|rep| rep.bytes).sum();
    let differing: usize = fresh
        .iter()
        .zip(&live)
        .map(|(db, want)| {
            record_digests(db)
                .iter()
                .zip(want)
                .filter(|(a, b)| a != b)
                .count()
        })
        .sum();
    r.check(
        "recovered_tables_equal_live",
        differing == 0,
        format!(
            "{differing} of {} records differ",
            PARTITIONS as u64 * XPART_RECORDS
        ),
    );
    let committed = stats.totals.committed_all;
    r.check(
        "replayed_equals_committed",
        replayed == committed,
        format!("{replayed} replayed, {committed} committed"),
    );
    drop(fresh);
    remove_dir(&dir);
    r.set("recover_tps", ratio(replayed as f64, recover_s));
    r.set(
        "durability.replay_ns_per_txn",
        ratio(recover_s * 1e9, replayed as f64),
    );
    r.set(
        "durability.replay_bytes_per_txn",
        ratio(replay_bytes as f64, replayed as f64),
    );
    r.note(format!(
        "logged leg: {LOGGED_TXNS} txns in {logged_s:.3} s after a key sweep; \
         recovery replayed {replayed} txns ({replay_bytes} B) in {recover_s:.3} s"
    ));
    r.set("peak_rss_mb", peak_rss_mb());
}

/// One table per partition; each spans the whole key space and holds
/// the half its partition owns.
fn parted_dbs() -> Vec<Arc<Database>> {
    (0..PARTITIONS).map(|_| flat_db(XPART_RECORDS)).collect()
}

fn start_parted(dbs: &[Arc<Database>], cfg: &PartitionedConfig) -> Parted {
    let handle = PartitionedEngine::start(dbs.to_vec(), cfg.clone(), ENGINE_SEED);
    Parted {
        session: handle.session(),
        handle,
        map: cfg.map.clone(),
        classified: 0,
        cross: 0,
    }
}

/// Uniform `OPS`-key read-modify-writes, [`CROSS_PCT`] percent of them
/// spanning both partitions.
fn xpart_generator(seed: u64, stream: usize) -> Gen {
    let spec = MicroSpec::uniform(XPART_RECORDS, OPS, false).with_constraint(
        PartitionConstraint::MultiFraction {
            pct: CROSS_PCT,
            of: PARTITIONS as u32,
        },
    );
    Spec::Micro(spec).generator(seed, stream)
}

/// Each client program increments `OPS` keys, split across partitions
/// or not; a partition only writes keys it owns.
fn check_counters(r: &mut Report, name: &'static str, dbs: &[Arc<Database>], accepted: u64) {
    let sum = dbs
        .iter()
        .map(|db| counter_sum(db, XPART_RECORDS))
        .fold(0u64, u64::wrapping_add);
    r.check(
        name,
        sum == OPS as u64 * accepted,
        format!("counter sum {sum}, {OPS} x {accepted} accepted"),
    );
}

/// One program per `OPS` keys that increments every key once, each
/// program within one partition of a modulo map over `parts`
/// (partitions interleaved).
fn key_sweep(records: u64, parts: u64) -> impl Iterator<Item = Program> {
    let ops = OPS as u64;
    assert_eq!(
        records % (parts * ops),
        0,
        "the sweep covers every key once"
    );
    (0..records / (parts * ops)).flat_map(move |chunk| {
        (0..parts).map(move |p| Program::Rmw {
            keys: (0..ops).map(|i| p + (chunk * ops + i) * parts).collect(),
        })
    })
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the benchmark's log directory");
    }
}

/// One hash per record of a flat table, over its whole payload.
fn record_digests(db: &Database) -> Vec<u64> {
    let Database::Flat(table) = db else {
        unreachable!("the benchmark builds flat tables only")
    };
    let mut buf = vec![0u8; RECORD_SIZE];
    (0..table.len() as u64)
        .map(|k| {
            let rid = table.lookup(k).expect("identity index covers every key");
            // SAFETY: the engine that wrote this table has shut down (or
            // recovery has returned), so nothing writes it concurrently;
            // `buf` is exactly one record long.
            unsafe { table.store().read_into(rid, &mut buf) };
            buf.chunks(8).fold(k, |h, w| {
                let mut word = [0u8; 8];
                word[..w.len()].copy_from_slice(w);
                fx_hash_u64(h ^ u64::from_le_bytes(word))
            })
        })
        .collect()
}

fn merge_audits(audits: &[Audit]) -> Audit {
    audits.iter().fold(Audit::default(), |a, b| Audit {
        sent: a.sent + b.sent,
        once: a.once + b.once,
        never: a.never + b.never,
        repeated: a.repeated + b.repeated,
        unknown: a.unknown + b.unknown,
        misordered: a.misordered + b.misordered,
    })
}

fn check_tickets(r: &mut Report, name: &'static str, audit: &Audit, accepted: u64) {
    r.check(
        name,
        audit.exactly_once() && audit.sent == accepted,
        format!("{}; engine accepted {accepted}", audit.describe()),
    );
}

/// The metrics every workload reports the same way.
fn finish(
    r: &mut Report,
    opts: &Opts,
    win: &Window,
    out: &mut LoopOutcome,
    stats: &RunStats,
    setup_s: f64,
    audit: &Audit,
) {
    r.attempted = audit.sent;
    r.failed = audit.failed();
    r.set(
        "failed_frac",
        ratio(audit.failed() as f64, audit.sent as f64),
    );
    if let Some(s) = out.by_slice.as_mut() {
        let list = |v: Vec<f64>, unit: f64| {
            v.iter()
                .map(|x| format!("{:.0}", x / unit))
                .collect::<Vec<_>>()
                .join(" ")
        };
        r.note(format!("slice ktps {}", list(s.rates(), 1e3)));
        r.note(format!("slice p99us {}", list(s.percentiles(0.99), 1e3)));
        let steal = out.steal_per_slice().iter().map(|&t| t as f64).collect();
        r.note(format!("slice steal {}", list(steal, 1.0)));
    }
    let [tps, p50, p99] = out.end_to_end();
    r.set("throughput_tps", tps);
    r.set("p50_us", p50 / 1e3);
    r.set("p99_us", p99 / 1e3);
    r.set("setup_s", setup_s);
    let (samples, whole_p50, whole_p99) = out.whole_window();
    r.note(format!(
        "{samples} latency samples in a {} s window; whole window: {:.0} txns/s, p50 {:.1} us, p99 {:.1} us",
        opts.seconds,
        out.throughput(),
        whole_p50 as f64 / 1e3,
        whole_p99 as f64 / 1e3,
    ));

    // Engine counters.
    let t = &stats.totals;
    let committed = t.committed as f64;
    r.set(
        "core.engine_p50_us",
        out.engine_latency.percentile(0.50) as f64 / 1e3,
    );
    r.set(
        "core.engine_p99_us",
        out.engine_latency.percentile(0.99) as f64 / 1e3,
    );
    r.set("core.admit.switches", t.admission_switches as f64);
    r.set(
        "core.admit.lock_waits_per_txn",
        ratio(t.lock_waits as f64, committed),
    );
    r.set(
        "core.fabric.msgs_per_txn",
        ratio(t.messages_sent as f64, committed),
    );
    let phases = stats.breakdown();
    r.set("core.exec.locking_pct", phases.locking_pct);
    r.set("core.exec.waiting_pct", phases.waiting_pct);
    r.set(
        "durability.log_bytes_per_txn",
        ratio(t.log_bytes as f64, committed),
    );
    r.set(
        "durability.txns_per_record",
        ratio(committed, t.log_records as f64),
    );
    if stats.hub.len() > 1 {
        let routed: Vec<f64> = stats.hub.iter().map(|h| h.routed as f64).collect();
        let mean = routed.iter().sum::<f64>() / routed.len() as f64;
        let max = routed.iter().copied().fold(0.0, f64::max);
        r.set("part.partition_skew", ratio(max, mean));
        let orphaned: u64 = stats.hub.iter().map(|h| h.orphaned).sum();
        let unowned: u64 = stats.hub.iter().map(|h| h.unowned).sum();
        r.set("core.hub.orphaned", orphaned as f64);
        r.set("core.hub.unowned", unowned as f64);
    }

    // The benchmark's own calls into each layer.
    let tr = &out.tracer;
    let drain = tr.totals(Kind::Drain);
    r.set(
        "workload.next_program_ns",
        tr.totals(Kind::NextProgram).mean_ns(),
    );
    r.set("core.session.submit_ns", tr.totals(Kind::Submit).mean_ns());
    r.set(
        "core.session.full_per_txn",
        ratio(out.full as f64, audit.sent as f64),
    );
    r.set("core.handle.drain_ns", drain.mean_ns());
    r.set(
        "core.handle.drain_batch",
        ratio(drain.items as f64, (drain.calls - drain.empty) as f64),
    );
    r.set("part.submit_ns", tr.totals(Kind::PartSubmit).mean_ns());
    r.set("part.drain_ns", tr.totals(Kind::PartDrain).mean_ns());
    r.set("trace.overhead_frac", out.tally.overhead(win));
    if opts.trace {
        r.spans = Some(std::mem::replace(
            &mut out.tracer,
            Tracer::new(false, win.origin),
        ));
    }
    cpu_metrics(r, &out.cpu);
    r.set("peak_rss_mb", peak_rss_mb());
}

fn cpu_metrics(r: &mut Report, cpu: &CpuUse) {
    r.set("os.engine.cpu_frac", cpu.cpu_frac(Group::Engine));
    r.set(
        "os.engine.runq_wait_frac",
        cpu.runq_wait_frac(Group::Engine),
    );
    r.set("os.net.cpu_frac", cpu.cpu_frac(Group::Net));
    r.set("os.net.runq_wait_frac", cpu.runq_wait_frac(Group::Net));
    r.set("os.partseq.cpu_frac", cpu.cpu_frac(Group::PartSeq));
    r.set("os.client.cpu_frac", cpu.cpu_frac(Group::Client));
    r.set(
        "os.client.runq_wait_frac",
        cpu.runq_wait_frac(Group::Client),
    );
    let groups = cpu.groups_run_ns();
    let gap = ratio(
        (groups as f64 - cpu.process_ns as f64).abs(),
        cpu.process_ns as f64,
    );
    r.check(
        "cpu_groups_cover_process",
        gap <= 0.05,
        format!(
            "thread groups {:.3} s vs process {:.3} s ({:.1}% apart)",
            groups as f64 / 1e9,
            cpu.process_ns as f64 / 1e9,
            gap * 100.0
        ),
    );
    r.note(format!(
        "cpu s by group: {}",
        crate::os::GROUPS
            .iter()
            .map(|g| format!(
                "{}={:.3}",
                g.name(),
                cpu.groups.get(g).map_or(0, |&(run, _)| run) as f64 / 1e9
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sweep_increments_every_key_once_within_a_partition() {
        let mut seen = vec![0u32; 80];
        for program in key_sweep(80, 2) {
            let Program::Rmw { keys } = program else {
                panic!("the sweep emits read-modify-writes only")
            };
            assert_eq!(keys.len(), OPS);
            assert!(keys.iter().all(|k| k % 2 == keys[0] % 2));
            for k in keys {
                seen[k as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }
}
