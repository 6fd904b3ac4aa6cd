//! Zero-cost-when-off observability probes.
//!
//! A [`Probe`] is an optional recording sink a hardware model owns next to
//! its hot-path counters. When disabled (the default) it is a single `None`
//! box — every record call is one never-taken branch, the same pattern the
//! fault injector uses (`Option<ArmedFault>`), so the perf baseline shows no
//! regression with observability off. When enabled it can collect:
//!
//! * **occupancy histograms** ([`Probe::sample`]) — e.g. MSHR occupancy or
//!   DRAM queue depth, published into a [`Stats`] registry at report time,
//! * **timeline events** ([`Probe::span`] / [`Probe::counter`]) — rendered
//!   as Chrome `trace_event` JSON by [`chrome_trace_json`] and loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) (one trace
//!   microsecond = one simulated cycle).
//!
//! Probes are *pure observers*: they read cycle values the model already
//! computed and never feed back into timing, so simulated cycle counts are
//! bit-identical with probes on or off (see the `probes_are_pure_observers`
//! test in `sdv-uarch`).

use crate::clock::Cycle;
use crate::stats::{Histogram, Stats};

/// Which probe facilities to enable. The default is everything off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Collect occupancy histograms (MSHR files, DRAM queue, VPU window).
    pub sample: bool,
    /// Record timeline trace events (Chrome `trace_event` JSON).
    pub trace: bool,
}

impl ProbeConfig {
    /// Histogram sampling only.
    pub fn sampling() -> Self {
        Self { sample: true, trace: false }
    }

    /// Full tracing (implies sampling).
    pub fn tracing() -> Self {
        Self { sample: true, trace: true }
    }

    /// True when any facility is enabled.
    pub fn any(&self) -> bool {
        self.sample || self.trace
    }
}

/// One recorded timeline event, in the Chrome `trace_event` model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event category (`"vpu"`, `"mem"`, ...).
    pub cat: &'static str,
    /// Event name (shown on the slice or counter track).
    pub name: &'static str,
    /// Track the event renders on (Perfetto `tid`).
    pub track: u32,
    /// Start cycle.
    pub ts: Cycle,
    /// Duration in cycles for a span; `None` marks a counter sample.
    pub dur: Option<Cycle>,
    /// Counter value, or an auxiliary argument for spans (e.g. `vl`).
    pub value: u64,
}

#[derive(Debug, Default, Clone)]
struct ProbeData {
    sample: bool,
    trace: bool,
    hists: Vec<(&'static str, Histogram)>,
    events: Vec<TraceEvent>,
}

/// An optional recording sink (see the module docs). `Probe::default()` is
/// off; [`Probe::new`] with an all-off [`ProbeConfig`] is also off and
/// allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    inner: Option<Box<ProbeData>>,
}

impl Probe {
    /// A disabled probe (no allocation, every call a no-op).
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// A probe with the requested facilities; disabled if `cfg` enables none.
    pub fn new(cfg: ProbeConfig) -> Self {
        if !cfg.any() {
            return Self::off();
        }
        Self {
            inner: Some(Box::new(ProbeData {
                sample: cfg.sample,
                trace: cfg.trace,
                ..ProbeData::default()
            })),
        }
    }

    /// True when histogram sampling is enabled. Models use this to skip
    /// maintaining sampling-only state (e.g. completion-time heaps).
    #[inline]
    pub fn sampling(&self) -> bool {
        self.inner.as_ref().is_some_and(|p| p.sample)
    }

    /// True when timeline tracing is enabled.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|p| p.trace)
    }

    /// Record one occupancy sample into the histogram named `key`
    /// (created with the default power-of-two ladder on first use).
    #[inline]
    pub fn sample(&mut self, key: &'static str, v: u64) {
        let Some(p) = self.inner.as_deref_mut() else { return };
        if !p.sample {
            return;
        }
        match p.hists.iter_mut().find(|(k, _)| *k == key) {
            Some((_, h)) => h.record(v),
            None => {
                let mut h = Histogram::default_pow2();
                h.record(v);
                p.hists.push((key, h));
            }
        }
    }

    /// Record a span event: something named `name` occupied `track` from
    /// `ts` for `dur` cycles. `value` is an auxiliary argument (e.g. `vl`).
    #[inline]
    pub fn span(
        &mut self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts: Cycle,
        dur: Cycle,
        value: u64,
    ) {
        let Some(p) = self.inner.as_deref_mut() else { return };
        if !p.trace {
            return;
        }
        p.events.push(TraceEvent { cat, name, track, ts, dur: Some(dur), value });
    }

    /// Record a counter sample: the quantity named `name` had `value` at
    /// cycle `ts`. Counters render as stepped area tracks in Perfetto.
    #[inline]
    pub fn counter(&mut self, name: &'static str, ts: Cycle, value: u64) {
        let Some(p) = self.inner.as_deref_mut() else { return };
        if !p.trace {
            return;
        }
        p.events.push(TraceEvent { cat: "counter", name, track: 0, ts, dur: None, value });
    }

    /// Publish the collected histograms into a [`Stats`] registry.
    pub fn export(&self, s: &mut Stats) {
        let Some(p) = self.inner.as_deref() else { return };
        for (k, h) in &p.hists {
            s.put_histogram(k, h);
        }
    }

    /// The recorded timeline events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        self.inner.as_deref().map_or(&[], |p| p.events.as_slice())
    }
}

/// Render timeline events as a Chrome `trace_event` JSON document, sorted by
/// timestamp. Spans become complete (`"ph":"X"`) events with a `vl` arg;
/// counters become `"ph":"C"` events. `tracks` names the span tracks
/// (`(track id, name)`), emitted as `thread_name` metadata so Perfetto
/// labels them.
pub fn chrome_trace_json(events: &[TraceEvent], tracks: &[(u32, &str)]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts);
    let mut out = String::with_capacity(64 + 96 * sorted.len());
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"longvec-sdv\"}}",
    );
    for (tid, name) in tracks {
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for e in sorted {
        match e.dur {
            Some(dur) => out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"vl\":{}}}}}",
                e.track, e.cat, e.name, e.ts, dur, e.value
            )),
            None => out.push_str(&format!(
                ",\n{{\"ph\":\"C\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\
                 \"ts\":{},\"args\":{{\"value\":{}}}}}",
                e.track, e.name, e.ts, e.value
            )),
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_records_nothing() {
        let mut p = Probe::off();
        p.sample("x", 1);
        p.span("c", "n", 1, 0, 10, 2);
        p.counter("n", 0, 3);
        assert!(!p.sampling() && !p.tracing());
        assert!(p.events().is_empty());
        let mut s = Stats::new();
        p.export(&mut s);
        assert!(s.histogram("x").is_none());
        assert!(
            Probe::new(ProbeConfig::default()).inner.is_none(),
            "all-off config allocates nothing"
        );
    }

    #[test]
    fn sampling_probe_builds_histograms() {
        let mut p = Probe::new(ProbeConfig::sampling());
        p.sample("occ", 3);
        p.sample("occ", 300);
        p.span("c", "n", 1, 0, 10, 2); // trace off: dropped
        let mut s = Stats::new();
        p.export(&mut s);
        let h = s.histogram("occ").unwrap();
        assert_eq!(h.samples(), 2);
        assert_eq!(h.max(), 300);
        assert!(p.events().is_empty());
    }

    #[test]
    fn tracing_probe_collects_events() {
        let mut p = Probe::new(ProbeConfig::tracing());
        p.span("vpu", "vload", 1, 100, 50, 256);
        p.counter("depth", 120, 7);
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.events()[0].dur, Some(50));
        assert_eq!(p.events()[1].dur, None);
    }

    #[test]
    fn chrome_json_shape() {
        let mut p = Probe::new(ProbeConfig::tracing());
        p.counter("depth", 120, 7);
        p.span("vpu", "vload", 1, 100, 50, 256);
        let json = chrome_trace_json(p.events(), &[(1, "VPU instructions")]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"dur\":50"));
        assert!(json.contains("\"ph\":\"C\"") && json.contains("\"value\":7"));
        assert!(json.contains("\"thread_name\""));
        let x = json.find("\"vload\"").unwrap();
        let c = json.find("\"depth\"").unwrap();
        assert!(x < c, "events are sorted by timestamp");
    }
}
