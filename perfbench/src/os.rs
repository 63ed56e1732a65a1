//! What the operating system says about the benchmark process: CPU per
//! thread group from `/proc/self/task/*/schedstat`, peak resident memory,
//! and the host facts printed in the report header.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Thread groups CPU time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// CC and execution workers (and the engine's helper threads): the
    /// unnamed threads that appear while an engine starts.
    Engine,
    /// `netlisten` and `netconn*`.
    Net,
    /// The partitioned engine's sequencer, `partseq`.
    PartSeq,
    /// The benchmark's load generator threads (`client*`).
    Client,
    /// Everything else (the main thread).
    Other,
}

pub const GROUPS: [Group; 5] = [
    Group::Engine,
    Group::Net,
    Group::PartSeq,
    Group::Client,
    Group::Other,
];

impl Group {
    pub fn name(self) -> &'static str {
        match self {
            Group::Engine => "engine",
            Group::Net => "net",
            Group::PartSeq => "partseq",
            Group::Client => "client",
            Group::Other => "other",
        }
    }
}

/// The live thread ids of this process.
pub fn thread_ids() -> BTreeSet<u32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return BTreeSet::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Maps threads to groups. Engine threads are unnamed, so they are
/// recognised by when they appeared: call [`Self::engine_started`] with
/// the thread ids seen before an engine's `start()`.
#[derive(Debug, Default)]
pub struct Threads {
    engine: BTreeSet<u32>,
    partseq: BTreeSet<u32>,
}

impl Threads {
    /// Every thread that exists now but not in `before` is an engine
    /// thread.
    pub fn engine_started(&mut self, before: &BTreeSet<u32>) {
        self.engine.extend(thread_ids().difference(before));
    }

    /// As [`Self::engine_started`] for `PartitionedEngine::start`, which
    /// spawns its sequencer after every partition's workers: the newest
    /// new thread is `partseq`.
    pub fn partitioned_started(&mut self, before: &BTreeSet<u32>) {
        let new: Vec<u32> = thread_ids().difference(before).copied().collect();
        if let Some((&seq, workers)) = new.split_last() {
            self.partseq.insert(seq);
            self.engine.extend(workers);
        }
    }

    fn group_of(&self, tid: u32, comm: &str) -> Group {
        // Unnamed threads inherit their creator's name, so membership by
        // birth is checked before names.
        if self.partseq.contains(&tid) {
            Group::PartSeq
        } else if self.engine.contains(&tid) {
            Group::Engine
        } else if comm.starts_with("net") {
            Group::Net
        } else if comm.starts_with("client") {
            Group::Client
        } else {
            Group::Other
        }
    }

    /// Read every live thread's scheduler counters and the process's
    /// CPU total.
    pub fn snapshot(&self) -> CpuSnapshot {
        let mut groups = BTreeMap::new();
        for tid in thread_ids() {
            let base = format!("/proc/self/task/{tid}");
            let (Ok(comm), Ok(sched)) = (
                std::fs::read_to_string(format!("{base}/comm")),
                std::fs::read_to_string(format!("{base}/schedstat")),
            ) else {
                continue; // the thread exited between listing and reading
            };
            let mut f = sched
                .split_whitespace()
                .map(|x| x.parse::<u64>().unwrap_or(0));
            let (run, wait) = (f.next().unwrap_or(0), f.next().unwrap_or(0));
            groups.insert(tid, (self.group_of(tid, comm.trim()), run, wait));
        }
        CpuSnapshot {
            at: Instant::now(),
            threads: groups,
            process_ns: process_cpu_ns(),
        }
    }
}

/// Scheduler counters at one instant.
#[derive(Debug, Clone)]
pub struct CpuSnapshot {
    at: Instant,
    /// tid → (group, run ns, run-queue wait ns).
    threads: BTreeMap<u32, (Group, u64, u64)>,
    process_ns: u64,
}

/// CPU used between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct CpuUse {
    pub wall_ns: u64,
    /// Per group: (run ns, run-queue wait ns).
    pub groups: BTreeMap<Group, (u64, u64)>,
    /// User + system time of the whole process (every thread, including
    /// ones that exited), from `/proc/self/stat`.
    pub process_ns: u64,
}

impl CpuSnapshot {
    /// What ran from `self` to `later`. Threads born in between count
    /// from zero.
    pub fn until(&self, later: &CpuSnapshot) -> CpuUse {
        let mut groups: BTreeMap<Group, (u64, u64)> = GROUPS.iter().map(|&g| (g, (0, 0))).collect();
        for (tid, &(group, run, wait)) in &later.threads {
            let (run0, wait0) = self.threads.get(tid).map_or((0, 0), |&(_, r, w)| (r, w));
            let e = groups.get_mut(&group).expect("every group present");
            e.0 += run.saturating_sub(run0);
            e.1 += wait.saturating_sub(wait0);
        }
        CpuUse {
            wall_ns: later.at.duration_since(self.at).as_nanos() as u64,
            groups,
            process_ns: later.process_ns.saturating_sub(self.process_ns),
        }
    }
}

impl CpuUse {
    /// A group's CPU time as a share of the host's capacity over the
    /// interval (wall time × cores).
    pub fn cpu_frac(&self, g: Group) -> f64 {
        let cores = host_cores() as f64;
        let run = self.groups.get(&g).map_or(0, |&(r, _)| r);
        crate::stats::ratio(run as f64, self.wall_ns as f64 * cores)
    }

    /// Of the time a group's threads were runnable, the share they spent
    /// waiting for a core.
    pub fn runq_wait_frac(&self, g: Group) -> f64 {
        let (run, wait) = self.groups.get(&g).copied().unwrap_or_default();
        crate::stats::ratio(wait as f64, (run + wait) as f64)
    }

    pub fn groups_run_ns(&self) -> u64 {
        self.groups.values().map(|&(r, _)| r).sum()
    }
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux ABI the benchmark runs on).
pub const USER_HZ: u64 = 100;

fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks * (1_000_000_000 / USER_HZ)
}

/// Ticks (`USER_HZ`) the hypervisor has run something else while this
/// machine's CPUs wanted to run: the `steal` column of `/proc/stat`,
/// summed over CPUs. 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    let mut line = String::new();
    let read = std::fs::File::open("/proc/stat")
        .and_then(|f| std::io::BufRead::read_line(&mut std::io::BufReader::new(f), &mut line));
    if read.is_err() {
        return 0;
    }
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel_version() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The checked-out revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
