//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its own calls into each
//! layer's public API; nothing inside the crates is instrumented. A
//! span's layer is its name up to the first `.` (`ml.fit` → `ml`).
//! With tracing off every call is a no-op apart from one atomic load,
//! which is how end-to-end numbers are measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are ns since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id for spans of one served request.
    pub req: Option<u64>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts an `Instant` to recorder time.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a span that was timed elsewhere (e.g. on another thread
/// from a request's due time). Returns its id, or 0 when tracing is off.
pub fn record(
    name: &'static str,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    req: Option<u64>,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req,
    });
    id
}

/// Reserves a span id before the span's end is known, so children can
/// name their parent while it is still open.
pub fn reserve() -> u64 {
    if enabled() {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Closes a span whose id came from [`reserve`].
pub fn close(id: u64, name: &'static str, parent: Option<u64>, start_ns: u64) {
    if id == 0 || !enabled() {
        return;
    }
    let end_ns = now_ns();
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req: None,
    });
}

/// Runs `f` inside a span named `name` under `parent`; returns the
/// result and the call's wall time in seconds (measured whether or not
/// tracing is on).
pub fn timed<R>(
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> (R, f64) {
    let id = reserve();
    let start = Instant::now();
    let start_ns = ns_of(start);
    let out = f(if id == 0 { None } else { Some(id) });
    let secs = start.elapsed().as_secs_f64();
    close(id, name, parent, start_ns);
    (out, secs)
}

/// Takes every recorded span, leaving the store empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per-layer self time in seconds over the subtree rooted at `root`: a
/// span's self time is its duration minus the union of its children's
/// intervals (children of one span may overlap, e.g. concurrent
/// requests under one load phase).
pub fn layer_self_times(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut stack: Vec<&Span> = spans.iter().filter(|s| s.id == root).collect();
    while let Some(s) = stack.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut iv: Vec<(u64, u64)> = kids
            .iter()
            .map(|k| (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        *out.entry(s.layer()).or_insert(0.0) += dur.saturating_sub(covered) as f64 / 1e9;
        stack.extend(kids.iter().copied());
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns,
            opt(s.req)
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench.run", 0, 1_000_000_000),
            span(2, Some(1), "ml.fit", 100_000_000, 600_000_000),
            // Two overlapping children cover 0.2..0.5 s once, not twice.
            span(3, Some(2), "pvqnn.generate", 200_000_000, 400_000_000),
            span(4, Some(2), "pvqnn.generate", 300_000_000, 500_000_000),
            span(5, None, "qsim.replay", 0, 7_000_000_000),
        ];
        let t = layer_self_times(&spans, 1);
        assert!((t["bench"] - 0.5).abs() < 1e-12);
        assert!((t["ml"] - 0.2).abs() < 1e-12);
        assert!((t["pvqnn"] - 0.4).abs() < 1e-12);
        assert!(
            !t.contains_key("qsim"),
            "spans outside the root are ignored"
        );
    }
}
