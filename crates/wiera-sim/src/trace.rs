//! Structured, sim-clock-aware event tracing.
//!
//! A [`Tracer`] holds a bounded ring buffer of events stamped with *modeled*
//! time (microseconds on the [`crate::SimInstant`] axis), so a trace of a
//! compressed 600-second experiment reads in experiment time, not wall
//! time. Spans measure an operation's modeled duration and record one event
//! when closed.
//!
//! Recording is on the data path of every RPC and every history-tracked
//! item, so the ring stores compact records rather than [`TraceEvent`]s:
//! subsystem, op and region are `&'static str`, the node is a shared
//! `Arc<str>`, and an object detail keeps its key text and two integers.
//! A labeled span therefore allocates nothing, an object-detail span only
//! its key. [`Tracer::events`] and [`Tracer::to_jsonl`] render the records
//! into `TraceEvent`s on export.
//!
//! Events export as JSONL — one JSON object per line — which streams well
//! and diffs well, and round-trips through the serde shim.

use crate::time::SimInstant;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// One traced event on the modeled-time axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Modeled timestamp, µs since the simulation epoch.
    pub t_us: u64,
    /// Subsystem that recorded the event (`net`, `tiers`, `coord`, ...).
    pub subsystem: String,
    /// Operation or event name (`rpc`, `put`, `lock_acquire`, ...).
    pub op: String,
    /// Region the event happened in, if meaningful.
    pub region: Option<String>,
    /// Node / instance identifier, if meaningful.
    pub node: Option<String>,
    /// Modeled duration in µs for span-shaped events; `None` for points.
    pub dur_us: Option<u64>,
    /// Free-form detail (error kind, queue depth, object key, ...).
    pub detail: Option<String>,
}

/// Bounded ring buffer of trace events. When full, the oldest events are
/// dropped (and counted), so tracing never grows without bound.
pub struct Tracer {
    inner: Mutex<Ring>,
}

struct Ring {
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

/// A buffered event as stored: borrowed and shared labels, the detail in
/// parts. [`Record::event`] renders it.
struct Record {
    t_us: u64,
    subsystem: &'static str,
    op: &'static str,
    region: Option<&'static str>,
    node: Option<Arc<str>>,
    dur_us: Option<u64>,
    detail: Option<Detail>,
}

enum Detail {
    Text(String),
    /// Rendered `key=K ver=N val=<digest as 16 hex digits>`, plus
    /// ` degraded=1` when set.
    Object {
        key: Box<str>,
        version: u64,
        digest: u64,
        degraded: bool,
    },
}

impl Detail {
    fn render(&self) -> String {
        match self {
            Detail::Text(text) => text.clone(),
            Detail::Object {
                key,
                version,
                digest,
                degraded,
            } => {
                let flag = if *degraded { " degraded=1" } else { "" };
                format!("key={key} ver={version} val={digest:016x}{flag}")
            }
        }
    }
}

impl Record {
    fn event(&self) -> TraceEvent {
        TraceEvent {
            t_us: self.t_us,
            subsystem: self.subsystem.to_string(),
            op: self.op.to_string(),
            region: self.region.map(str::to_string),
            node: self.node.as_deref().map(str::to_string),
            dur_us: self.dur_us,
            detail: self.detail.as_ref().map(Detail::render),
        }
    }
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Mutex::new(Ring {
                records: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                dropped: 0,
                enabled: true,
            }),
        }
    }

    /// The process-wide tracer (64k events ≈ 8 MB of records at peak).
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| Tracer::with_capacity(65_536))
    }

    /// Disable/enable recording (benchmarks that only want counters can
    /// turn tracing off wholesale).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.lock().enabled = enabled;
    }

    fn record(&self, record: Record) {
        let evicted = {
            let mut ring = self.inner.lock();
            if !ring.enabled {
                return;
            }
            let evicted = if ring.records.len() == ring.capacity {
                ring.dropped += 1;
                ring.records.pop_front()
            } else {
                None
            };
            ring.records.push_back(record);
            evicted
        };
        // Freed here, after the lock is released.
        drop(evicted);
    }

    /// Record a point event with just timestamps and identity labels.
    pub fn point(
        &self,
        now: SimInstant,
        subsystem: &'static str,
        op: &'static str,
        detail: Option<String>,
    ) {
        self.record(Record {
            t_us: now.as_micros(),
            subsystem,
            op,
            region: None,
            node: None,
            dur_us: None,
            detail: detail.map(Detail::Text),
        });
    }

    /// Open a span starting now; closing it records one event.
    pub fn span(&self, start: SimInstant, subsystem: &'static str, op: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            start,
            record: Record {
                t_us: start.as_micros(),
                subsystem,
                op,
                region: None,
                node: None,
                dur_us: None,
                detail: None,
            },
        }
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .records
            .iter()
            .map(Record::event)
            .collect()
    }

    /// Drop all buffered events and reset the drop counter.
    pub fn clear(&self) {
        let mut ring = self.inner.lock();
        ring.records.clear();
        ring.dropped = 0;
    }

    /// Export as JSONL: one compact JSON object per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            // An unserializable event is dropped rather than killing the
            // export (serialization of these plain structs cannot fail
            // today; this guards future event shapes).
            if let Ok(line) = serde_json::to_string(&event) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Parse a JSONL export back into events (inverse of [`Self::to_jsonl`]).
    pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).map_err(|e| e.to_string()))
            .collect()
    }
}

/// An in-flight traced operation. Build it up with the labeling methods,
/// then close it with [`Span::finish`] at the operation's modeled end time.
pub struct Span<'a> {
    tracer: &'a Tracer,
    start: SimInstant,
    record: Record,
}

impl Span<'_> {
    pub fn region(mut self, region: &'static str) -> Self {
        self.record.region = Some(region);
        self
    }

    /// Label the node; an `Arc<str>` is shared, not copied.
    pub fn node(mut self, node: impl Into<Arc<str>>) -> Self {
        self.record.node = Some(node.into());
        self
    }

    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.record.detail = Some(Detail::Text(detail.into()));
        self
    }

    /// Detail naming one version of an object, rendered on export as
    /// `key=K ver=N val=<digest as 16 hex digits>` with ` degraded=1`
    /// appended when `degraded`. Costs one allocation, for the key.
    pub fn object(mut self, key: &str, version: u64, digest: u64, degraded: bool) -> Self {
        self.record.detail = Some(Detail::Object {
            key: key.into(),
            version,
            digest,
            degraded,
        });
        self
    }

    /// Close the span at `end`, recording one event whose duration is the
    /// modeled elapsed time (saturating at zero if clocks ran backwards).
    pub fn finish(mut self, end: SimInstant) {
        self.record.dur_us = Some(end.elapsed_since(self.start).as_micros());
        self.tracer.record(self.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let tracer = Tracer::with_capacity(3);
        for i in 0..5 {
            tracer.point(at(i), "test", "tick", None);
        }
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.dropped(), 2);
        let times: Vec<u64> = tracer.events().iter().map(|e| e.t_us).collect();
        assert_eq!(times, [2, 3, 4]);
    }

    #[test]
    fn span_records_modeled_duration() {
        let tracer = Tracer::with_capacity(16);
        tracer
            .span(at(100), "net", "rpc")
            .region("UsEast")
            .node("replica-1")
            .detail("Put")
            .finish(at(350));
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_us, 100);
        assert_eq!(events[0].dur_us, Some(250));
        assert_eq!(events[0].region.as_deref(), Some("UsEast"));
    }

    #[test]
    fn jsonl_roundtrip() {
        let tracer = Tracer::with_capacity(16);
        tracer.point(at(1), "coord", "session_expired", Some("s-42".into()));
        tracer
            .span(at(2), "tiers", "put")
            .region("EuWest")
            .finish(at(9));
        let text = tracer.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = Tracer::parse_jsonl(&text).unwrap();
        assert_eq!(back, tracer.events());
    }

    /// The export of a fixed sequence of every record shape, byte for byte.
    /// The literal was produced by the `TraceEvent`-per-record ring this
    /// layout replaced (object details written there as the formatted
    /// text), so the stored layout is invisible in the output.
    #[test]
    fn export_is_byte_identical_to_the_event_per_record_ring() {
        let tracer = Tracer::with_capacity(16);
        let node: Arc<str> = Arc::from("chk/US-East/r0");
        tracer.point(at(5), "coord", "session_expired", Some("session 7".into()));
        tracer.point(at(6), "net", "rpc_timeout", None);
        tracer
            .span(at(10), "net", "rpc")
            .region("US-West")
            .node(node.clone())
            .finish(at(35_010));
        tracer
            .span(at(20), "history", "mput")
            .region("US-East")
            .node(node.clone())
            .object("k0000042", 3, 0x00ab_cdef_0123_4567, false)
            .finish(at(1_020));
        tracer
            .span(at(30), "history", "get")
            .region("US-East")
            .node(node)
            .object("obj-1", u64::MAX, 0x1, true)
            .finish(at(30));
        tracer
            .span(at(40), "wiera", "crash")
            .detail("say \"hi\"\\ \u{e9}")
            .finish(at(39));
        let expected = concat!(
            r#"{"detail":"session 7","dur_us":null,"node":null,"op":"session_expired","region":null,"subsystem":"coord","t_us":5}"#,
            "\n",
            r#"{"detail":null,"dur_us":null,"node":null,"op":"rpc_timeout","region":null,"subsystem":"net","t_us":6}"#,
            "\n",
            r#"{"detail":null,"dur_us":35000,"node":"chk/US-East/r0","op":"rpc","region":"US-West","subsystem":"net","t_us":10}"#,
            "\n",
            r#"{"detail":"key=k0000042 ver=3 val=00abcdef01234567","dur_us":1000,"node":"chk/US-East/r0","op":"mput","region":"US-East","subsystem":"history","t_us":20}"#,
            "\n",
            r#"{"detail":"key=obj-1 ver=18446744073709551615 val=0000000000000001 degraded=1","dur_us":0,"node":"chk/US-East/r0","op":"get","region":"US-East","subsystem":"history","t_us":30}"#,
            "\n",
            r#"{"detail":"say \"hi\"\\ é","dur_us":0,"node":null,"op":"crash","region":null,"subsystem":"wiera","t_us":40}"#,
            "\n",
        );
        assert_eq!(tracer.to_jsonl(), expected);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::with_capacity(4);
        tracer.set_enabled(false);
        tracer.point(at(5), "x", "y", None);
        assert!(tracer.is_empty());
    }
}
