//! In-memory spans around the public calls the benchmark makes into the
//! engine's layers. Off by default: an untraced run pays one relaxed atomic
//! load per call site. Spans of one thread nest through a thread-local
//! stack; spans of one request share its request id across threads.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One timed call. The layer is the part of `name` before the first dot.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Outcome label (`hit`, `miss`, `partial`, `error`), empty when none.
    pub label: &'static str,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been entered but not yet closed.
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    start_ns: u64,
}

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Opens a span for request `req` when tracing is on. Every `enter` must be
/// matched by one [`exit`] on the same thread, on every path.
pub fn enter(req: u64) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Open {
        id,
        parent,
        req,
        start_ns: now_ns(),
    })
}

/// Closes a span opened by [`enter`].
pub fn exit(open: Option<Open>, name: &'static str, label: &'static str) {
    let Some(open) = open else {
        return;
    };
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    push(Span {
        id: open.id,
        parent: open.parent,
        name,
        req: open.req,
        start_ns: open.start_ns,
        end_ns,
        label,
    });
}

/// Records a root span measured by the caller (a request whose send and
/// reply happen on different threads).
pub fn record(name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        name,
        req,
        start_ns,
        end_ns,
        label: "",
    });
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Per-layer totals: spans, wall time and self time (span time minus the
/// time its children on the same thread cover), in milliseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = table.entry(s.layer()).or_default();
        row.0 += 1;
        row.1 += s.dur_ns() as f64 / 1e6;
        row.2 += own as f64 / 1e6;
    }
    table
}

/// Renders the self-time table, one layer per line.
pub fn self_time_table(spans: &[Span]) -> String {
    let table = self_times(spans);
    let total_self: f64 = table.values().map(|r| r.2).sum();
    let mut out = format!(
        "{:<12} {:>9} {:>12} {:>12} {:>7}\n",
        "layer", "spans", "total_ms", "self_ms", "self%"
    );
    for (layer, (n, total, own)) in &table {
        let share = if total_self > 0.0 {
            100.0 * own / total_self
        } else {
            0.0
        };
        out.push_str(&format!(
            "{layer:<12} {n:>9} {total:>12.3} {own:>12.3} {share:>6.1}%\n"
        ));
    }
    out
}

/// Writes the spans (one JSON object per line) and the self-time table.
pub fn write_files(spans: &[Span], spans_path: &Path, table_path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(spans_path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"label\":\"{}\"}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns, s.label
        )?;
    }
    out.flush()?;
    std::fs::write(table_path, self_time_table(spans))
}
