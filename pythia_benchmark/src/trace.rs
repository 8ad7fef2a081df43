//! Outside-in span tracing: the harness brackets each call into a layer's
//! public function with [`Tracer::enter`]/[`Tracer::exit`]; nothing inside
//! the program under test is instrumented.
//!
//! Every bracketed call is timed and folded into its layer's self time
//! (its duration minus the part its child calls cover). Span *records* —
//! `{name, op_id, parent, start_ns, end_ns}` — are kept only for a
//! deterministic sample of operations, in a buffer allocated up front, and
//! written out when the run ends: a predict round makes 2.3 M calls, and
//! recording each would measure the recorder.

use std::time::Instant;

/// The span names: one per layer boundary the harness calls through, in
/// the order the per-layer `trace.self_ms.*` metrics are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One timed round; its self time is what no layer span covers (the
    /// harness itself plus timer cost), reported as `unexplained`.
    Round,
    /// `Recorder::durable`/`reserve`: opening a recording.
    RecordOpen,
    /// `Recorder::record_at`, in 64-event chunks.
    RecordEvents,
    /// `Recorder::finish_thread`.
    RecordFinish,
    /// `TraceData::from_threads` + `save`.
    TraceSave,
    /// `TraceData::load` (index prewarm included).
    TraceLoad,
    /// `HardenedOracle::event`.
    OracleEvent,
    /// `HardenedOracle::predict_event`.
    OracleQuery,
    /// `SocketClient::call`: encode, two socket hops, the server's work.
    ServeCall,
    /// `run_app` under `MpiMode::Vanilla`.
    MpiVanilla,
    /// `run_app` under `MpiMode::Record`.
    MpiRecord,
    /// `run_app` under `MpiMode::Predict`.
    MpiPredict,
    /// `PythiaComm::sendrecv` over the socket backend.
    CommSendrecv,
    /// `PythiaComm::allreduce` over the socket backend.
    CommAllreduce,
    /// `analyze_trace`.
    Analyze,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 15] = [
        Layer::Round,
        Layer::RecordOpen,
        Layer::RecordEvents,
        Layer::RecordFinish,
        Layer::TraceSave,
        Layer::TraceLoad,
        Layer::OracleEvent,
        Layer::OracleQuery,
        Layer::ServeCall,
        Layer::MpiVanilla,
        Layer::MpiRecord,
        Layer::MpiPredict,
        Layer::CommSendrecv,
        Layer::CommAllreduce,
        Layer::Analyze,
    ];

    /// The span name written to the trace file and used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::RecordOpen => "core.record.open",
            Layer::RecordEvents => "core.record.events",
            Layer::RecordFinish => "core.record.finish",
            Layer::TraceSave => "core.trace.save",
            Layer::TraceLoad => "core.trace.load",
            Layer::OracleEvent => "core.resilience.event",
            Layer::OracleQuery => "core.resilience.query",
            Layer::ServeCall => "serve.call",
            Layer::MpiVanilla => "minimpi.run_app",
            Layer::MpiRecord => "runtime_mpi.record_app",
            Layer::MpiPredict => "runtime_mpi.predict_app",
            Layer::CommSendrecv => "minimpi.socket.sendrecv",
            Layer::CommAllreduce => "minimpi.socket.allreduce",
            Layer::Analyze => "core.analyze",
        }
    }
}

/// Index of a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary crossed.
    pub layer: Layer,
    /// The operation the call belongs to; spans of one operation share it.
    pub op_id: u64,
    /// Index of the enclosing recorded span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Self time of each span: its duration minus the durations of the spans
/// that name it as parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Time and calls accumulated for one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Bracketed calls.
    pub calls: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    children_ns: u64,
    /// Index in `spans` when this call is being recorded.
    record: u32,
}

/// Accumulates per-layer self time for every bracketed call and records
/// spans for sampled operations.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    totals: [LayerTotal; Layer::ALL.len()],
    spans: Vec<Span>,
    op_id: u64,
    sampling: bool,
    /// Spans that did not fit the buffer.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer whose span buffer holds `capacity` records; it never
    /// grows, so tracing allocates nothing while a round runs.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            totals: [LayerTotal::default(); Layer::ALL.len()],
            spans: Vec::with_capacity(capacity),
            op_id: 0,
            sampling: false,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the operation the following calls belong to; `sample` selects
    /// whether their spans are recorded (their time is counted either way).
    pub fn operation(&mut self, op_id: u64, sample: bool) {
        self.op_id = op_id;
        self.sampling = sample;
    }

    /// Opens a span around a call into `layer`.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        let mut record = NO_PARENT;
        if self.sampling || layer == Layer::Round {
            if self.spans.len() < self.spans.capacity() {
                record = self.spans.len() as u32;
                let parent = self
                    .open
                    .iter()
                    .rev()
                    .map(|o| o.record)
                    .find(|&r| r != NO_PARENT)
                    .unwrap_or(NO_PARENT);
                self.spans.push(Span {
                    layer,
                    op_id: self.op_id,
                    parent,
                    start_ns,
                    end_ns: start_ns,
                });
            } else {
                self.dropped += 1;
            }
        }
        self.open.push(Open {
            layer,
            start_ns,
            children_ns: 0,
            record,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("exit without enter");
        let duration = end_ns - o.start_ns;
        let total = &mut self.totals[o.layer as usize];
        total.calls += 1;
        total.self_ns += duration.saturating_sub(o.children_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
        }
        if o.record != NO_PARENT {
            self.spans[o.record as usize].end_ns = end_ns;
        }
    }

    /// Accumulated calls and self time of `layer`.
    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as a JSON document (one object per span, with
    /// the self time worked out so the file can be read on its own).
    pub fn to_json(&self, workload: &str) -> String {
        let own = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"dropped_spans\":{},\"spans\":[\n",
            self.dropped
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}\n",
                s.layer.name(),
                s.op_id,
                s.start_ns,
                s.end_ns,
                own[i],
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            op_id: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // round [0,100) ── event [10,40) ── (no children)
        //               └─ call  [50,90) ── load [60,70), save [70,85)
        let spans = [
            span(Layer::Round, NO_PARENT, 0, 100),
            span(Layer::OracleEvent, 0, 10, 40),
            span(Layer::ServeCall, 0, 50, 90),
            span(Layer::TraceLoad, 2, 60, 70),
            span(Layer::TraceSave, 2, 70, 85),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 15, 10, 15]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_totals_agree_with_recorded_spans() {
        let mut t = Tracer::new(64);
        t.operation(1, true);
        t.enter(Layer::Round);
        for _ in 0..3 {
            t.enter(Layer::ServeCall);
            t.enter(Layer::TraceLoad);
            std::hint::black_box((0..2_000).sum::<u64>());
            t.exit();
            t.exit();
        }
        t.exit();
        assert_eq!(t.spans().len(), 7);
        assert_eq!(t.total(Layer::ServeCall).calls, 3);
        let own = self_times(t.spans());
        for layer in [Layer::Round, Layer::ServeCall, Layer::TraceLoad] {
            let from_spans: u64 = t
                .spans()
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.layer == layer)
                .map(|(_, &ns)| ns)
                .sum();
            assert_eq!(from_spans, t.total(layer).self_ns, "{layer:?}");
        }
        // Nesting is reconstructed from the open stack.
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].parent, 1);
        assert!(t.to_json("w").contains("\"name\":\"serve.call\""));
    }

    #[test]
    fn unsampled_calls_are_timed_but_not_recorded() {
        let mut t = Tracer::new(2);
        t.operation(1, false);
        t.enter(Layer::Round);
        t.enter(Layer::OracleEvent);
        t.exit();
        t.operation(2, true);
        t.enter(Layer::OracleEvent);
        t.exit();
        t.enter(Layer::OracleQuery); // buffer full: counted, not kept
        t.exit();
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].op_id, 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.total(Layer::OracleEvent).calls, 2);
        assert_eq!(t.total(Layer::OracleQuery).calls, 1);
    }

    #[test]
    fn layer_table_is_in_declaration_order() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }
}
