//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `{req, name, start_ns, end_ns, parent}`; spans of one request
//! share `req` (the op's index in the seeded stream). Every span adds to a
//! per-name total; the spans of the first [`KEPT_REQUESTS`] requests of each
//! name are also kept whole and written as JSON lines when the run ends —
//! a 20-second run makes ten million spans, which is a budget table, not a
//! file anyone reads.

use std::io::Write;
use std::time::Instant;

use prism_obs::json::JsonObject;

/// Requests per span name whose spans are kept whole for the dump.
pub const KEPT_REQUESTS: u64 = 10_000;

/// The layer boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One closed-loop iteration: generate, call, check.
    Request,
    WorkloadsNextOp,
    CoreGet,
    CorePut,
    CoreScan,
    FrontendSubmit,
    FrontendWait,
    NetEncode,
    NetSend,
    NetWait,
    NetDecode,
}

/// Number of span names (the enum's discriminants are `0..SPAN_KINDS`).
const SPAN_KINDS: usize = SpanName::NetDecode as usize + 1;

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Request => "request",
            SpanName::WorkloadsNextOp => "workloads.next_op",
            SpanName::CoreGet => "core.get",
            SpanName::CorePut => "core.put",
            SpanName::CoreScan => "core.scan",
            SpanName::FrontendSubmit => "frontend.submit",
            SpanName::FrontendWait => "frontend.wait",
            SpanName::NetEncode => "net.encode",
            SpanName::NetSend => "net.send",
            SpanName::NetWait => "net.wait",
            SpanName::NetDecode => "net.decode",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    req: u64,
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanName>,
}

/// Count and total duration of the spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
}

impl SpanTotal {
    pub fn mean_ns(&self) -> f64 {
        crate::stats::mean(self.total_ns, self.count)
    }
}

/// Span recorder of one run. All times are nanoseconds since the recorder
/// was created.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    kept: Vec<Span>,
    totals: [SpanTotal; SPAN_KINDS],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::since(Instant::now())
    }
}

impl Tracer {
    /// A recorder whose times count from `epoch`, so that the recorders of
    /// several client threads share one time axis.
    pub fn since(epoch: Instant) -> Self {
        Tracer {
            epoch,
            kept: Vec::new(),
            totals: [SpanTotal::default(); SPAN_KINDS],
        }
    }

    /// Fold in the spans another client recorded against the same epoch.
    pub fn absorb(&mut self, other: Tracer) {
        self.kept.extend(other.kept);
        for (total, theirs) in self.totals.iter_mut().zip(other.totals) {
            total.count += theirs.count;
            total.total_ns += theirs.total_ns;
        }
    }

    /// Record one span.
    pub fn span(
        &mut self,
        req: u64,
        name: SpanName,
        parent: Option<SpanName>,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        let total = &mut self.totals[name as usize];
        if total.count < KEPT_REQUESTS {
            self.kept.push(Span {
                req,
                name,
                start_ns,
                end_ns,
                parent,
            });
        }
        total.count += 1;
        total.total_ns += end_ns - start_ns;
    }

    pub fn total(&self, name: SpanName) -> SpanTotal {
        self.totals[name as usize]
    }

    /// Spans recorded, kept or not.
    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    /// Write the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error of the writer.
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        for span in &self.kept {
            let mut line = JsonObject::new();
            line.number("req", span.req);
            line.string("name", span.name.as_str());
            line.number("start_ns", span.start_ns);
            line.number("end_ns", span.end_ns);
            match span.parent {
                Some(parent) => line.string("parent", parent.as_str()),
                None => line.raw("parent", "null"),
            }
            writeln!(out, "{}", line.finish())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use std::time::Duration;

    #[test]
    fn spans_total_by_name_and_dump_as_json_lines() {
        let mut tracer = Tracer::default();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_nanos(300);
        let t2 = t0 + Duration::from_nanos(1_000);
        tracer.span(7, SpanName::CoreGet, Some(SpanName::Request), t0, t1);
        tracer.span(7, SpanName::Request, None, t0, t2);
        tracer.span(8, SpanName::CoreGet, Some(SpanName::Request), t1, t2);
        assert_eq!(tracer.span_count(), 3);
        let gets = tracer.total(SpanName::CoreGet);
        assert_eq!((gets.count, gets.total_ns), (2, 1_000));
        assert_eq!(gets.mean_ns(), 500.0);

        let mut out = Vec::new();
        tracer.dump(&mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].get("name").and_then(Json::as_str),
            Some("core.get")
        );
        assert_eq!(
            lines[0].get("parent").and_then(Json::as_str),
            Some("request")
        );
        assert_eq!(lines[1].get("parent"), Some(&Json::Null));
        let duration = |l: &Json| {
            l.get("end_ns").and_then(Json::as_f64).unwrap()
                - l.get("start_ns").and_then(Json::as_f64).unwrap()
        };
        assert_eq!(duration(&lines[0]), 300.0);
        assert_eq!(duration(&lines[1]), 1_000.0);
    }

    #[test]
    fn only_the_first_requests_of_a_name_are_kept_whole() {
        let mut tracer = Tracer::default();
        let now = Instant::now();
        for req in 0..KEPT_REQUESTS + 5 {
            tracer.span(req, SpanName::CorePut, None, now, now);
        }
        assert_eq!(tracer.total(SpanName::CorePut).count, KEPT_REQUESTS + 5);
        assert_eq!(tracer.kept.len() as u64, KEPT_REQUESTS);
    }
}
