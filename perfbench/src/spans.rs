//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (nothing inside the program is instrumented), kept in memory, and
//! written out once the run ends. Every span is recorded on the one
//! benchmark thread, so the children of a span never overlap and a
//! span's self time is its duration minus its direct children's.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `frame` is the id shared by the spans of one
/// request frame (or FIB chunk); spans outside any frame carry `None`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub frame: Option<u64>,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: how many spans, their summed duration and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The recorder: an append-only span list plus the stack of open spans.
/// A recorder made with [`Tracer::off`] records nothing, so untraced
/// repetitions run the same code with one branch per span.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    #[must_use]
    pub fn on() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    #[must_use]
    pub fn off() -> Self {
        Self { on: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, frame: Option<u64>) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, frame });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as CSV: `id,name,start_ns,end_ns,parent,frame`
    /// (an empty field for no parent / no frame).
    ///
    /// # Errors
    /// File creation and write errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,frame")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            let frame = s.frame.map(|f| f.to_string()).unwrap_or_default();
            writeln!(out, "{id},{},{},{},{parent},{frame}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, frame: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.enter(name, frame);
        let r = f();
        self.exit();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::on();
        t.enter("outer", None);
        t.enter("inner", Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(t.spans()[1].parent, 0);
    }
}
