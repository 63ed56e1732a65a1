//! Spans around the benchmark's own calls into each layer's public
//! functions.
//!
//! A [`Tracer`] belongs to one client thread. Spans go into a buffer
//! allocated up front, so recording never allocates; once the buffer is
//! full only the per-kind totals keep counting. The buffer is written out
//! when the run ends. A disabled tracer costs one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `workload` generator: `next_program`.
    NextProgram,
    /// `core.session`: `Session::try_submit`.
    Submit,
    /// `core.engine`: `EngineHandle::drain_completions`.
    Drain,
    /// `net` client: `NetClient::send_batch`.
    Send,
    /// `net` client: `NetClient::poll_responses`.
    Poll,
    /// `part`: `PartSession::try_submit`.
    PartSubmit,
    /// `part`: `PartitionedHandle::drain_completions`.
    PartDrain,
    /// `part`: `orthrus_part::route` on a generated program.
    Route,
}

const KINDS: [Kind; 8] = [
    Kind::NextProgram,
    Kind::Submit,
    Kind::Drain,
    Kind::Send,
    Kind::Poll,
    Kind::PartSubmit,
    Kind::PartDrain,
    Kind::Route,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::NextProgram => "workload.next_program",
            Kind::Submit => "core.session.try_submit",
            Kind::Drain => "core.handle.drain_completions",
            Kind::Send => "net.client.send_batch",
            Kind::Poll => "net.client.poll_responses",
            Kind::PartSubmit => "part.session.try_submit",
            Kind::PartDrain => "part.handle.drain_completions",
            Kind::Route => "part.route",
        }
    }
}

/// Spans kept per tracer (16 bytes each).
const SPAN_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    /// Items the call moved (completions drained, responses polled);
    /// 0 for calls without a count.
    items: u32,
    start_ns: u64,
    dur_ns: u32,
}

/// Per-kind totals over every recorded call, kept or not.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
    /// Calls that moved no item.
    pub empty: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.ns as f64, self.calls as f64)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    totals: [Totals; KINDS.len()],
}

impl Tracer {
    /// A tracer whose span times count from `origin`; `on = false` makes
    /// every call a no-op.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::with_capacity(if on { SPAN_CAPACITY } else { 0 }),
            totals: [Totals::default(); KINDS.len()],
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off (the benchmark alternates slices of a
    /// traced run to measure the tracer's own cost).
    pub fn set_on(&mut self, on: bool) {
        if on && self.spans.capacity() == 0 {
            self.spans.reserve_exact(SPAN_CAPACITY);
        }
        self.on = on;
    }

    /// Start a span: `None` when tracing is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.on {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`Self::start`].
    #[inline]
    pub fn end(&mut self, kind: Kind, start: Option<Instant>, items: usize) {
        let Some(start) = start else { return };
        let dur = start.elapsed().as_nanos() as u64;
        let t = &mut self.totals[kind as usize];
        t.calls += 1;
        t.ns += dur;
        t.items += items as u64;
        if items == 0 {
            t.empty += 1;
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                kind,
                items: u32::try_from(items).unwrap_or(u32::MAX),
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: u32::try_from(dur).unwrap_or(u32::MAX),
            });
        }
    }

    pub fn totals(&self, kind: Kind) -> Totals {
        self.totals[kind as usize]
    }

    /// Fold another thread's totals and kept spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.items += b.items;
            a.empty += b.empty;
        }
        self.spans.extend(other.spans);
    }

    /// Write the kept spans as tab-separated text: kind, start (ns from
    /// the run's origin), duration (ns), items.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tstart_ns\tdur_ns\titems")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.kind.name(),
                s.start_ns,
                s.dur_ns,
                s.items
            )?;
        }
        out.flush()
    }
}
