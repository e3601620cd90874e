//! In-memory spans around the calls into each layer's public functions.
//!
//! Nothing inside `crates/` is instrumented: a span opens before the runner
//! calls a layer and closes when the call returns. Spans stay in memory and
//! are written as Chrome-trace JSON when the run ends.

use qtnsim_core::json::{array, JsonObject};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans when `recording`, and times calls either way, so the
/// traced and the untraced pass run the same code.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    recording: Cell<bool>,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(workload: &'static str, recording: bool) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            recording: Cell::new(recording),
            state: RefCell::default(),
        }
    }

    /// Switch recording on or off (the overhead probe alternates).
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    /// Spans opened by `f` become children of this one.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let recording = self.recording.get();
        let start = Instant::now();
        let id = recording.then(|| {
            let mut state = self.state.borrow_mut();
            let id = state.spans.len();
            let parent = state.open.last().copied();
            let start_us = (start - self.epoch).as_secs_f64() * 1e6;
            state.spans.push(Span { name, start_us, end_us: start_us, parent });
            state.open.push(id);
            id
        });
        let result = f();
        let seconds = start.elapsed().as_secs_f64();
        if let Some(id) = id {
            let mut state = self.state.borrow_mut();
            state.spans[id].end_us = state.spans[id].start_us + seconds * 1e6;
            state.open.pop();
        }
        (result, seconds)
    }

    /// Add a span measured elsewhere (a request timed on a client thread)
    /// as a child of the innermost open span.
    pub fn add(&self, name: &'static str, start: Instant, seconds: f64) {
        if !self.recording.get() {
            return;
        }
        let mut state = self.state.borrow_mut();
        let parent = state.open.last().copied();
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        state.spans.push(Span { name, start_us, end_us: start_us + seconds * 1e6, parent });
    }

    pub fn span_count(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Write every span as one Chrome-trace "complete" event.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let state = self.state.borrow();
        let events = state.spans.iter().enumerate().map(|(id, span)| {
            let mut args = JsonObject::new();
            args.field_usize("id", id).field_str("workload", self.workload);
            if let Some(parent) = span.parent {
                args.field_usize("parent", parent);
            }
            let mut event = JsonObject::new();
            event
                .field_str("name", span.name)
                .field_str("ph", "X")
                .field_f64("ts", span.start_us)
                .field_f64("dur", span.end_us - span.start_us)
                .field_u64("pid", 1)
                .field_u64("tid", 1)
                .field_raw("args", &args.finish());
            event.finish()
        });
        let mut top = JsonObject::new();
        top.field_raw("traceEvents", &array(events));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, top.finish())
    }
}
