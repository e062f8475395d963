//! In-memory spans, written out once when the benchmark ends.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it, and the id of the request it
//! belongs to. Each load-generator thread owns one [`Tracer`]; ids are
//! unique across tracers because every tracer draws from its own
//! block.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (or replayed request) this span belongs to.
    pub request: u64,
    /// Layer boundary name, e.g. `client.request` or `solver.solve`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

/// Span ids each tracer may hand out before reaching the next
/// tracer's block.
const ID_BLOCK: u64 = 1 << 40;

impl Tracer {
    /// A tracer measuring from `origin`. `block` picks the id range, so
    /// tracers that are merged later never share an id.
    pub fn new(origin: Instant, enabled: bool, block: u64) -> Self {
        Tracer { origin, enabled, next_id: block * ID_BLOCK + 1, spans: Vec::new() }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        id
    }

    /// Reserve an id for a span whose end is not known yet (a parent
    /// recorded after its children); close it with [`Tracer::close`].
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span under an id reserved by [`Tracer::open`].
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, false, 0);
        assert_eq!(t.record("x", 1, None, origin, origin), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_name_their_parent_and_blocks_keep_ids_apart() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true, 0);
        let mut b = Tracer::new(origin, true, 1);
        let parent = a.open();
        let c1 = a.record("child", 7, Some(parent), origin, origin + Duration::from_nanos(10));
        a.close(parent, "parent", 7, None, origin, origin + Duration::from_nanos(30));
        let other = b.record("other", 8, None, origin, origin);
        assert_ne!(c1, other);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        let child = a.spans().iter().find(|s| s.id == c1).unwrap();
        assert_eq!((child.parent, child.end_ns), (Some(parent), 10));
        let p = a.spans().iter().find(|s| s.id == parent).unwrap();
        assert_eq!(p.end_ns - p.start_ns, 30);
    }
}
