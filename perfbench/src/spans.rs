//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing is traced inside the program. Spans
//! stay in memory until the run ends, then go to an NDJSON file, and the
//! per-layer self time (a span's duration minus the part its children
//! cover) is computed from them.

use metaopt_server::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// A handle to an open span; pass it as the parent of nested spans.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: a root span.
    pub const ROOT: SpanId = SpanId(None);
}

/// Records spans when enabled; when disabled every call only runs the
/// closure and times it, so traced and untraced code paths are the same.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-layer totals derived from the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span (a no-op when disabled).
    pub fn open(&self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_s = self.epoch.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            op,
            parent: parent.0,
            start_s,
            end_s: f64::NAN,
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_s = self.epoch.elapsed().as_secs_f64();
            self.spans.lock().expect("span list poisoned")[i].end_s = end_s;
        }
    }

    /// Runs `f` inside a span and returns its result with its wall seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, op, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// Self and total time per span name. Children of one span may
    /// overlap (they come from several threads), so the covered part is
    /// the union of their intervals.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_s, s.end_s));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_s - s.start_s;
            let mut kids = std::mem::take(&mut children[i]);
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach).max(s.start_s);
                let b = b.min(s.end_s);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += total;
            e.self_s += total - covered;
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut text = String::new();
        for (i, s) in spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(i as f64)),
                ("name", Json::str(s.name)),
                ("op", Json::Num(s.op as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let r = Recorder::new(true);
        let mut spans = r.spans.lock().unwrap();
        let mk = |name, parent, start_s, end_s| Span {
            name,
            op: 0,
            parent,
            start_s,
            end_s,
        };
        spans.push(mk("job", None, 0.0, 10.0));
        spans.push(mk("a", Some(0), 1.0, 4.0));
        spans.push(mk("b", Some(0), 3.0, 6.0));
        drop(spans);
        let layers = r.layers();
        assert!((layers["job"].self_s - 5.0).abs() < 1e-12);
        assert!((layers["job"].total_s - 10.0).abs() < 1e-12);
        assert_eq!(layers["a"].count, 1);
        assert!((layers["b"].self_s - 3.0).abs() < 1e-12);
    }
}
