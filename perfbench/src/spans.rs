//! The benchmark's own span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name (`<layer>.<call>`), start, end, parent span and unit id. Spans stay
//! in memory and are written once, when the run ends. A layer's self time
//! is the sum over its spans of the duration minus the part of that
//! interval covered by child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub unit: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub failed: bool,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Starts recording. The untraced runs never call this, so their span
/// guards cost one relaxed load.
pub fn enable() {
    *RECORDER.lock().expect("span recorder lock") = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    });
    ON.store(true, Ordering::Relaxed);
}

/// Stops recording and returns every finished span, in start order.
pub fn take() -> Vec<SpanRecord> {
    ON.store(false, Ordering::Relaxed);
    let mut spans = RECORDER
        .lock()
        .expect("span recorder lock")
        .take()
        .map(|r| r.spans)
        .unwrap_or_default();
    spans.sort_by_key(|s| s.id);
    spans
}

/// An open span; records itself when dropped.
pub struct Span {
    id: Option<usize>,
    name: &'static str,
    unit: usize,
    parent: Option<usize>,
    start_ns: u64,
    failed: bool,
}

/// Opens a span named `<layer>.<call>` for workload unit `unit`.
pub fn span(name: &'static str, unit: usize) -> Span {
    let off = Span {
        id: None,
        name,
        unit,
        parent: None,
        start_ns: 0,
        failed: false,
    };
    if !ON.load(Ordering::Relaxed) {
        return off;
    }
    let mut guard = RECORDER.lock().expect("span recorder lock");
    let Some(recorder) = guard.as_mut() else {
        return off;
    };
    // Ids are allocated by pushing a placeholder; the record is completed
    // when the span ends.
    let id = recorder.spans.len();
    let start_ns = recorder.epoch.elapsed().as_nanos() as u64;
    let parent = STACK.with(|s| s.borrow().last().copied());
    recorder.spans.push(SpanRecord {
        id,
        parent,
        name,
        unit,
        start_ns,
        end_ns: start_ns,
        failed: false,
    });
    drop(guard);
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        id: Some(id),
        name,
        unit,
        parent,
        start_ns,
        failed: false,
    }
}

impl Span {
    pub fn fail(&mut self) {
        self.failed = true;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&id) {
                stack.pop();
            }
        });
        if let Ok(mut guard) = RECORDER.lock() {
            if let Some(recorder) = guard.as_mut() {
                let end_ns = recorder.epoch.elapsed().as_nanos() as u64;
                recorder.spans[id] = SpanRecord {
                    id,
                    parent: self.parent,
                    name: self.name,
                    unit: self.unit,
                    start_ns: self.start_ns,
                    end_ns,
                    failed: self.failed,
                };
            }
        }
    }
}

/// Per-layer totals: calls, self time and failed calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub failures: u64,
}

/// The layer of a span: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per span: duration minus the union of its children's
/// intervals (clipped to the parent).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn layer_totals(spans: &[SpanRecord]) -> BTreeMap<String, LayerTotals> {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = totals.entry(layer_of(s.name).to_owned()).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        t.failures += s.failed as u64;
    }
    totals
}

/// One JSON object per line, for offline inspection.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"failed\": {}}}\n",
            s.id, s.name, s.unit, s.start_ns, s.end_ns, s.failed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "core.x",
            unit: 0,
            start_ns: start,
            end_ns: end,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_union() {
        let spans = vec![
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 40),
            rec(2, Some(0), 30, 50),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 20]);
    }
}
