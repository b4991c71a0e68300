//! In-memory span recorder, written out as JSON when the run ends. Spans
//! are recorded from the benchmark's side of each call only; what happens
//! inside the program is not visible here.

use std::io::Write;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;
/// Spans kept; later ones are counted as dropped so memory stays bounded.
const CAPACITY: usize = 1 << 17;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is set later with [`Recorder::close`], so the
    /// calls made in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, op: u64) -> u32 {
        let now = Instant::now();
        self.span(name, now, now, ROOT, op)
    }

    pub fn close(&mut self, id: u32) {
        let end = (Instant::now() - self.origin).as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns since process start\", \
             \"dropped\": {}, \"spans\": [",
            self.dropped
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{sep}\n{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_overflow_is_counted() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0);
        let root = rec.open("probe", 0);
        let child = rec.span("call", t0, Instant::now(), root, 7);
        rec.close(root);
        assert_eq!(rec.spans[child as usize].parent, root);
        assert!(rec.spans[root as usize].end_ns >= rec.spans[child as usize].end_ns);
        for i in 0..CAPACITY as u64 {
            rec.span("fill", t0, t0, ROOT, i);
        }
        assert_eq!(rec.spans.len(), CAPACITY);
        assert_eq!(rec.dropped, 2);
    }
}
