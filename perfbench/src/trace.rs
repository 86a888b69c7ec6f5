//! Host-time tracing from outside the program: a `TraceSink` that
//! stamps wall time at every stage-boundary event, and an in-memory
//! span list for the benchmark's own calls into each layer.
//!
//! The sink attributes the host time between two consecutive boundary
//! events to the event that closes the interval: the work the runtime
//! did to reach a BE dispatch decision lands on `dispatch.be`, the work
//! before an admission ruling on `admission`, and so on. Sync ticks,
//! re-assurance and defrag emit no events of their own, so their host
//! time lands on whichever event follows them. The trailing interval,
//! from the last event to the end of the run, is `tail`.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tango::{TraceEvent, TraceLane, TraceSink};
use tango_types::SimTime;

/// Boundary kinds the sink tells apart, in report order.
pub const BOUNDARIES: [&str; 9] = [
    "arrival",
    "dispatch.lc",
    "dispatch.be",
    "delivery",
    "admission",
    "completion",
    "abandoned",
    "fault",
    "tail",
];

/// What the sink accumulated over one run.
#[derive(Debug, Clone)]
pub struct Stamps {
    last: Instant,
    /// Events seen per boundary kind (`BOUNDARIES` order).
    count: [u64; 9],
    /// Host seconds of the intervals each kind closed.
    host_s: [f64; 9],
    /// Deliveries that bounced off a crashed target.
    pub bounced: u64,
    /// Admission rulings that admitted the request.
    pub admitted: u64,
}

impl Stamps {
    fn new() -> Self {
        Stamps {
            last: Instant::now(),
            count: [0; 9],
            host_s: [0.0; 9],
            bounced: 0,
            admitted: 0,
        }
    }

    fn close(&mut self, kind: usize, now: Instant) {
        self.host_s[kind] += now.duration_since(self.last).as_secs_f64();
        self.count[kind] += 1;
        self.last = now;
    }

    /// Count of one boundary kind.
    pub fn count_of(&self, name: &str) -> u64 {
        self.count[index(name)]
    }

    /// Host seconds closed by one boundary kind.
    pub fn host_s_of(&self, name: &str) -> f64 {
        self.host_s[index(name)]
    }
}

fn index(name: &str) -> usize {
    BOUNDARIES
        .iter()
        .position(|b| *b == name)
        .expect("known boundary kind")
}

/// The stamping sink. It keeps its stamps to itself while the run is on
/// (no lock per event) and hands them to its reader when the system
/// drops it at the end of the run.
pub struct StampSink {
    stamps: Stamps,
    out: Arc<Mutex<Option<Stamps>>>,
}

/// Read end of a [`StampSink`].
pub struct StampReader(Arc<Mutex<Option<Stamps>>>);

impl StampSink {
    /// A sink whose first interval starts now, and its reader.
    pub fn new() -> (Self, StampReader) {
        let out = Arc::new(Mutex::new(None));
        let sink = StampSink {
            stamps: Stamps::new(),
            out: Arc::clone(&out),
        };
        (sink, StampReader(out))
    }
}

impl StampReader {
    /// The stamps of the finished run (`None` while the sink is alive).
    pub fn take(&self) -> Option<Stamps> {
        self.0.lock().expect("stamp slot poisoned").take()
    }
}

impl Drop for StampSink {
    fn drop(&mut self) {
        self.stamps.close(index("tail"), Instant::now());
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(self.stamps.clone());
        }
    }
}

impl TraceSink for StampSink {
    fn record(&mut self, _at: SimTime, event: TraceEvent) {
        let now = Instant::now();
        let s = &mut self.stamps;
        let kind = match event {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::DispatchDecision { lane, .. } => match lane {
                TraceLane::Lc => "dispatch.lc",
                TraceLane::Be => "dispatch.be",
            },
            TraceEvent::Delivery { bounced, .. } => {
                s.bounced += bounced as u64;
                "delivery"
            }
            TraceEvent::Admission { admitted, .. } => {
                s.admitted += admitted as u64;
                "admission"
            }
            TraceEvent::Completion { .. } => "completion",
            TraceEvent::Abandoned { .. } => "abandoned",
            TraceEvent::Fault { .. } => "fault",
        };
        s.close(index(kind), now);
    }
}

/// One benchmark-level span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index in the recorder).
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name.
    pub name: String,
    /// Start, seconds since the recorder was made.
    pub start_s: f64,
    /// End, seconds since the recorder was made.
    pub end_s: f64,
}

/// Spans kept in memory until the benchmark writes them out.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn within<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_s: now,
            end_s: now,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}
