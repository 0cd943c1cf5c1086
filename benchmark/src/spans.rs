//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls *into* the product from the
//! benchmark's files — nothing inside the product is instrumented. Each
//! thread owns a [`Recorder`] with a preallocated `Vec`, so recording a
//! span is two clock reads and a push; everything is written out once,
//! when the run ends ([`write_trace`]).
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`: `parent` is the
//! span that caused it, and all spans of one operation share `op_id`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its thread's recorder; [`NO_SPAN`] when the
/// recorder was off (or full) at `open` time.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. `on` gates recording so the same client
/// code runs untraced slices at the cost of one branch per span site.
pub struct Recorder {
    /// Label written to the trace file (`client0`, `probe`, …).
    pub thread: String,
    epoch: Instant,
    pub on: bool,
    spans: Vec<Span>,
    cap: usize,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their clocks agree.
    pub fn new(thread: &str, epoch: Instant, cap: usize) -> Recorder {
        Recorder {
            thread: thread.to_string(),
            epoch,
            on: false,
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Name a span after the fact (an op's class is known when it ends).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != NO_SPAN {
            self.spans[id as usize].name = name;
        }
    }

    /// Time `f` under a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op_id);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.close(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write every recorder's spans as one JSON document. Span ids are made
/// unique across threads by offsetting each thread's indices.
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    classes: &[&str],
    recorders: &[&Recorder],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let dropped: u64 = recorders.iter().map(|r| r.dropped).sum();
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since the run's epoch\",\
         \"classes\":[{}],\"dropped_spans\":{dropped},\"spans\":[",
        classes
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    let mut base = 0u64;
    let mut first = true;
    for r in recorders {
        for (i, s) in r.spans().iter().enumerate() {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            write!(
                w,
                "\n{{\"id\":{},\"thread\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                base + i as u64,
                r.thread,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
            if s.parent == NO_SPAN {
                w.write_all(b"null")?;
            } else {
                write!(w, "{}", base + u64::from(s.parent))?;
            }
            write!(w, ",\"op_id\":{}}}", s.op_id)?;
        }
        base += r.spans().len() as u64;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing_and_full_recorder_counts_drops() {
        let mut r = Recorder::new("t", Instant::now(), 2);
        assert_eq!(r.open("a", NO_SPAN, 0), NO_SPAN);
        r.close(NO_SPAN);
        assert!(r.spans().is_empty());
        r.on = true;
        let a = r.open("a", NO_SPAN, 1);
        let b = r.open("b", a, 1);
        r.close(b);
        r.close(a);
        assert_eq!(r.open("c", a, 1), NO_SPAN);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, a);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }
}
