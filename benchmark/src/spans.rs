//! In-memory spans recorded around the calls into each layer.
//!
//! A span is `{id, parent, cell, name, start_ns, end_ns}`; spans of one grid
//! cell share the `cell` index. Nothing is written until the run ends. A
//! layer's self time is its span minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span (ids start at 1).
    pub parent: u32,
    /// Grid-cell index, or -1 for spans that belong to no cell.
    pub cell: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, cell: i64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            cell,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = end_ns;
        s.dur_ns() as f64 * 1e-9
    }

    /// Time `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, cell: i64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, cell);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"id\":{},\"parent\":{},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                sp.id, sp.parent, sp.cell, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time per span: duration minus the part of its interval that its
/// direct children cover (children are clipped to the parent and overlapping
/// children are counted once). Index `i` belongs to `spans[i]`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize - 1].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time in seconds by span name, in first-seen order.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
    for (s, ns) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += ns as f64 * 1e-9;
                e.2 += 1;
            }
            None => out.push((s.name, ns as f64 * 1e-9, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            cell: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(1, 0, "cell", 0, 100),
            span(2, 1, "core.reset", 0, 10),
            span(3, 1, "kernels.drive", 10, 90), // adjacent to the reset
            span(4, 3, "inner", 20, 50),         // nested two deep
            span(5, 1, "uarch.finish", 95, 100),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![100 - 10 - 80 - 5, 10, 80 - 30, 30, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(1, 0, "sweep", 100, 200),
            span(2, 1, "a", 110, 150),
            span(3, 1, "b", 140, 160), // overlaps a by 10
            span(4, 1, "c", 190, 250), // overhangs the parent by 50
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_links_children_to_the_innermost_open_span() {
        let mut r = Recorder::new();
        let cell = r.open("cell", 7);
        let (v, _) = r.time("core.reset", 7, || 42);
        assert_eq!(v, 42);
        let drive = r.open("kernels.drive", 7);
        r.close(drive);
        r.close(cell);
        let s = r.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        assert!(r.to_json("w").contains("\"name\":\"kernels.drive\""));
        let by_name = self_seconds_by_name(s);
        assert_eq!(
            by_name.iter().map(|e| e.0).collect::<Vec<_>>(),
            ["cell", "core.reset", "kernels.drive"]
        );
    }
}
