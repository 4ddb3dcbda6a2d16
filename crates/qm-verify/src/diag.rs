//! Diagnostic codes, records and report rendering.
//!
//! Every finding of the verifier is a [`Diagnostic`] with a stable
//! [`Code`], a severity, and an optional program point (context label,
//! PC, source line). A [`Report`] collects the findings of one run and
//! renders them either rustc-style for humans or as JSON for tools.

use qm_core::json::{Envelope, JsonBuf};
use qm_isa::UWord;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: explains an analysis limit (why a pass produced
    /// no facts here) without alleging anything wrong with the program.
    /// Notes never make a report unclean and never block `Strict`.
    Note,
    /// A lint: suspicious but not provably fatal. Reported, never
    /// rejected.
    Warning,
    /// A proved queue-discipline violation (or a statically guaranteed
    /// runtime failure). Rejected under `Strict`.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// `QV00xx` — abstract queue-state dataflow (per-context), `QV01xx` —
/// control-flow/decoding, `QV02xx` — splice/channel wiring, `QV03xx` —
/// analysis-gave-up notes, `QV04xx` — deep-pass (whole-program) verdicts.
/// `QV0301` and `QV0302` named the retired valid-sequence check against
/// a DFG; they are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the variants are documented by `description`
pub enum Code {
    QueueUnderflow,
    UndefinedWindowRead,
    DupOutsideWindow,
    JoinDepthMismatch,
    DupWithoutResult,
    SlotOverwrite,
    TrapArityMismatch,
    Unanalyzable,
    BadBranchTarget,
    Undecodable,
    RunsOffEnd,
    BadForkTarget,
    DanglingChannel,
    StaticDeadlock,
    ChannelNeverRead,
    DoublyConnectedChannel,
    WiringUndecidable,
    DeepDeadlockFree,
    DeepCyclic,
    DeepUnknown,
}

impl Code {
    /// The stable code string (`QV0001` …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::QueueUnderflow => "QV0001",
            Code::UndefinedWindowRead => "QV0002",
            Code::DupOutsideWindow => "QV0003",
            Code::JoinDepthMismatch => "QV0004",
            Code::DupWithoutResult => "QV0005",
            Code::SlotOverwrite => "QV0006",
            Code::TrapArityMismatch => "QV0007",
            Code::Unanalyzable => "QV0101",
            Code::BadBranchTarget => "QV0102",
            Code::Undecodable => "QV0103",
            Code::RunsOffEnd => "QV0104",
            Code::BadForkTarget => "QV0105",
            Code::DanglingChannel => "QV0201",
            Code::StaticDeadlock => "QV0202",
            Code::ChannelNeverRead => "QV0203",
            Code::DoublyConnectedChannel => "QV0204",
            Code::WiringUndecidable => "QV0303",
            Code::DeepDeadlockFree => "QV0401",
            Code::DeepCyclic => "QV0402",
            Code::DeepUnknown => "QV0403",
        }
    }

    /// Default severity of the code.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::QueueUnderflow
            | Code::UndefinedWindowRead
            | Code::DupOutsideWindow
            | Code::TrapArityMismatch
            | Code::BadBranchTarget
            | Code::Undecodable
            | Code::RunsOffEnd
            | Code::BadForkTarget
            | Code::DanglingChannel
            | Code::StaticDeadlock
            | Code::DeepCyclic => Severity::Error,
            Code::JoinDepthMismatch
            | Code::DupWithoutResult
            | Code::SlotOverwrite
            | Code::Unanalyzable
            | Code::ChannelNeverRead
            | Code::DoublyConnectedChannel => Severity::Warning,
            Code::WiringUndecidable | Code::DeepDeadlockFree | Code::DeepUnknown => Severity::Note,
        }
    }

    /// One-line description of what the code means.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Code::QueueUnderflow => "queue underflow: consuming slots never produced",
            Code::UndefinedWindowRead => "read of a queue slot with no value on some path",
            Code::DupOutsideWindow => "dup offset reaches outside the queue page",
            Code::JoinDepthMismatch => "paths reach a join with different live queue slots",
            Code::DupWithoutResult => "dup with no preceding value-producing instruction",
            Code::SlotOverwrite => "write to a queue slot already holding a live value",
            Code::TrapArityMismatch => "trap destination the kernel entry never writes",
            Code::Unanalyzable => "control flow or queue pointer escapes static analysis",
            Code::BadBranchTarget => "branch target outside the code or misaligned",
            Code::Undecodable => "execution reaches an undecodable word",
            Code::RunsOffEnd => "execution can run off the end of the code",
            Code::BadForkTarget => "fork target is not a code entry point",
            Code::DanglingChannel => "receive on a channel no context ever sends on",
            Code::StaticDeadlock => "wait-for cycle: contexts statically guaranteed to deadlock",
            Code::ChannelNeverRead => "channel is sent on but never received from",
            Code::DoublyConnectedChannel => "channel receives in more than one context",
            Code::WiringUndecidable => "wiring analysis gave up: splice not statically decidable",
            Code::DeepDeadlockFree => "deep pass proves the channel graph deadlock-free",
            Code::DeepCyclic => "deep pass proves a wait-for cycle: guaranteed deadlock",
            Code::DeepUnknown => "deep pass cannot decide the channel graph",
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// Label of the context the finding belongs to (`main`, `fan.2`, …).
    pub ctx: Option<String>,
    /// Byte address of the offending program point.
    pub pc: Option<UWord>,
    /// 1-based source line (when the point is an instruction start).
    pub line: Option<usize>,
    /// Human-readable message.
    pub message: String,
    /// Extra note lines (wait-for edges, joined paths, …).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no location.
    #[must_use]
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            ctx: None,
            pc: None,
            line: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attach a context label.
    #[must_use]
    pub fn in_ctx(mut self, ctx: impl Into<String>) -> Self {
        self.ctx = Some(ctx.into());
        self
    }

    /// Attach a program counter.
    #[must_use]
    pub fn at_pc(mut self, pc: UWord) -> Self {
        self.pc = Some(pc);
        self
    }

    /// Attach a source line.
    #[must_use]
    pub fn at_line(mut self, line: Option<usize>) -> Self {
        self.line = line;
        self
    }

    /// Append a note line.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render rustc-style:
    ///
    /// ```text
    /// error[QV0001]: queue underflow: consuming 2 slots, 1 live
    ///   --> main+0x8 (line 3)
    ///   = note: …
    /// ```
    #[must_use]
    pub fn render(&self, symbols: &[(String, UWord)]) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let mut loc = String::new();
        if let Some(pc) = self.pc {
            loc = crate::names::pc_span(symbols, pc);
            if let Some(line) = self.line {
                loc.push_str(&format!(" (line {line})"));
            }
        }
        if let Some(ctx) = &self.ctx {
            if loc.is_empty() {
                loc = format!("context {ctx}");
            } else {
                loc.push_str(&format!(", context {ctx}"));
            }
        }
        if !loc.is_empty() {
            out.push_str(&format!("\n  --> {loc}"));
        }
        for n in &self.notes {
            out.push_str(&format!("\n  = note: {n}"));
        }
        out
    }

    fn render_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.str_field("code", &self.code.to_string());
        j.str_field("severity", &self.severity.to_string());
        j.str_field("message", &self.message);
        if let Some(ctx) = &self.ctx {
            j.str_field("ctx", ctx);
        }
        if let Some(pc) = self.pc {
            j.u64_field("pc", u64::from(pc));
        }
        if let Some(line) = self.line {
            j.u64_field("line", line as u64);
        }
        if !self.notes.is_empty() {
            j.key("notes");
            j.begin_arr();
            for n in &self.notes {
                j.str_val(n);
            }
            j.end_arr();
        }
        j.end_obj();
    }
}

/// The findings of one verifier run.
#[must_use = "a verification report carries errors that should be checked"]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in program order.
    pub diags: Vec<Diagnostic>,
    /// Symbol table of the verified object, for span rendering
    /// (`(name, address)` pairs, sorted by address).
    pub symbols: Vec<(String, UWord)>,
}

impl Report {
    /// An empty report with a symbol table for rendering.
    pub fn with_symbols(symbols: Vec<(String, UWord)>) -> Self {
        Report { diags: Vec::new(), symbols }
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Merge another report's findings (keeping this report's symbols
    /// when the other has none).
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
        if self.symbols.is_empty() {
            self.symbols = other.symbols;
        }
    }

    /// True when nothing wrong was found. Note-severity findings (pure
    /// analysis-limit information, e.g. [`Code::WiringUndecidable`]) do
    /// not make a report unclean — `Strict` builds still accept it.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diags.iter().all(|d| d.severity == Severity::Note)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// The note-severity findings.
    pub fn notes(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Note)
    }

    /// True when at least one error-severity finding exists (the
    /// `Strict` rejection condition).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Sort findings by (context, pc, code) for stable output.
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            (&a.ctx, a.pc, a.code, &a.message).cmp(&(&b.ctx, b.pc, b.code, &b.message))
        });
    }

    /// Render all findings rustc-style, one block per finding.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&d.render(&self.symbols));
            out.push('\n');
        }
        out
    }

    /// Render as a bare JSON array of diagnostic objects (the `diags`
    /// body of [`to_json`](Self::to_json), without the envelope).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut j = JsonBuf::new();
        self.write_diags(&mut j);
        j.finish()
    }

    fn write_diags(&self, j: &mut JsonBuf) {
        j.begin_arr();
        for d in &self.diags {
            d.render_json(j);
        }
        j.end_arr();
    }

    /// Serialise as a `qm-api/v1` `verify_report` envelope (the
    /// machine-readable mode of the `qm-verify` bin, and the verify
    /// section of `qm-serve` job results): overall verdict, severity
    /// counts and the full diagnostic list.
    #[must_use]
    pub fn to_json(&self) -> String {
        Envelope::render("verify_report", |j| self.write_envelope_body(j))
    }

    /// Write the `data` body of the `verify_report` envelope into an
    /// open object (shared with `qm-serve`, which embeds it in job
    /// results).
    pub fn write_envelope_body(&self, j: &mut JsonBuf) {
        j.bool_field("clean", self.is_clean());
        j.u64_field("errors", self.errors().count() as u64);
        j.u64_field("warnings", self.warnings().count() as u64);
        j.u64_field("notes", self.notes().count() as u64);
        self.fast_path_certificate().write_field(j);
        j.key("diags");
        self.write_diags(j);
    }

    /// One-line summary: `2 error(s), 1 warning(s)`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!("{} error(s), {} warning(s)", self.errors().count(), self.warnings().count())
    }

    /// The machine-readable fast-path certificate derived from this
    /// report: whether the program's queue discipline and channel
    /// wiring were proven clean on every statically reachable path. No
    /// engine is gated on it — `qm-sim` translates every program,
    /// whatever the verify level — but it rides in the `verify_report`
    /// envelope as the `fast_path` field for wire compatibility.
    #[must_use]
    pub fn fast_path_certificate(&self) -> FastPathCertificate {
        FastPathCertificate {
            eligible: self.is_clean(),
            blocking: self.diags.iter().filter(|d| d.severity > Severity::Note).count(),
            passes: FAST_PATH_PASSES,
        }
    }
}

/// Verifier passes whose clean result a [`FastPathCertificate`] rests
/// on (the complete pass list of [`verify_object_at`](crate::verify_object_at)).
pub const FAST_PATH_PASSES: &[&str] = &["queue", "wiring"];

/// The certificate a clean verification confers: the program's queue
/// discipline and channel wiring hold on every statically reachable
/// path. See [`Report::fast_path_certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastPathCertificate {
    /// The program may run on a verified fast path.
    pub eligible: bool,
    /// Findings standing in the way (0 when eligible).
    pub blocking: usize,
    /// The passes the certificate rests on.
    pub passes: &'static [&'static str],
}

impl FastPathCertificate {
    /// Write the certificate as the `fast_path` object field of an open
    /// JSON object.
    pub fn write_field(&self, j: &mut JsonBuf) {
        j.key("fast_path");
        j.begin_obj();
        j.bool_field("eligible", self.eligible);
        j.u64_field("blocking", self.blocking as u64);
        j.key("passes");
        j.begin_arr();
        for p in self.passes {
            j.str_val(p);
        }
        j.end_arr();
        j.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::QueueUnderflow,
            Code::UndefinedWindowRead,
            Code::DupOutsideWindow,
            Code::JoinDepthMismatch,
            Code::DupWithoutResult,
            Code::SlotOverwrite,
            Code::TrapArityMismatch,
            Code::Unanalyzable,
            Code::BadBranchTarget,
            Code::Undecodable,
            Code::RunsOffEnd,
            Code::BadForkTarget,
            Code::DanglingChannel,
            Code::StaticDeadlock,
            Code::ChannelNeverRead,
            Code::DoublyConnectedChannel,
            Code::WiringUndecidable,
            Code::DeepDeadlockFree,
            Code::DeepCyclic,
            Code::DeepUnknown,
        ];
        let strs: std::collections::BTreeSet<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs.len(), all.len(), "codes collide");
        assert_eq!(Code::QueueUnderflow.as_str(), "QV0001");
        assert_eq!(Code::WiringUndecidable.as_str(), "QV0303");
        assert_eq!(Code::DeepDeadlockFree.as_str(), "QV0401");
        assert_eq!(Code::DeepCyclic.as_str(), "QV0402");
        assert_eq!(Code::DeepUnknown.as_str(), "QV0403");
    }

    #[test]
    fn notes_do_not_block_cleanliness_or_the_fast_path() {
        let mut r = Report::default();
        r.push(Diagnostic::new(Code::WiringUndecidable, "branch at 0x8"));
        assert!(r.is_clean(), "notes alone keep the report clean");
        assert!(!r.has_errors());
        assert_eq!(r.notes().count(), 1);
        let cert = r.fast_path_certificate();
        assert!(cert.eligible, "a note must not block the fast path");
        assert_eq!(cert.blocking, 0);
        let json = r.to_json();
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"notes\":1"), "{json}");
        // A warning on top flips everything.
        r.push(Diagnostic::new(Code::SlotOverwrite, "w"));
        assert!(!r.is_clean());
        assert_eq!(r.fast_path_certificate().blocking, 1, "only the warning blocks");
    }

    #[test]
    fn render_carries_code_span_and_notes() {
        let syms = vec![("main".to_string(), 0u32)];
        let d = Diagnostic::new(Code::QueueUnderflow, "consuming 2 slots, 1 live")
            .in_ctx("main")
            .at_pc(8)
            .at_line(Some(3))
            .note("produced by plus at 0x0");
        let text = d.render(&syms);
        assert!(text.starts_with("error[QV0001]:"), "{text}");
        assert!(text.contains("main+0x8"), "{text}");
        assert!(text.contains("(line 3)"), "{text}");
        assert!(text.contains("note: produced"), "{text}");
    }

    #[test]
    fn json_mode_is_parseable_shape() {
        let mut r = Report::default();
        r.push(Diagnostic::new(Code::DanglingChannel, "say \"hi\"").at_pc(4));
        let json = r.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"code\":\"QV0201\""), "{json}");
        assert!(json.contains("say \\\"hi\\\""), "{json}");
        let envelope = r.to_json();
        assert!(
            envelope.starts_with("{\"schema\":\"qm-api/v1\",\"kind\":\"verify_report\""),
            "{envelope}"
        );
        assert!(envelope.contains("\"clean\":false"), "{envelope}");
        assert!(envelope.contains("\"errors\":1"), "{envelope}");
        assert!(envelope.contains(&format!("\"diags\":{json}")), "{envelope}");
        qm_core::json::parse(&envelope).expect("envelope is valid JSON");
    }

    #[test]
    fn fast_path_certificate_follows_cleanliness() {
        let clean = Report::default();
        let cert = clean.fast_path_certificate();
        assert!(cert.eligible);
        assert_eq!(cert.blocking, 0);
        assert_eq!(cert.passes, FAST_PATH_PASSES);
        assert!(clean.to_json().contains(
            "\"fast_path\":{\"eligible\":true,\"blocking\":0,\"passes\":[\"queue\",\"wiring\"]}"
        ));

        let mut dirty = Report::default();
        dirty.push(Diagnostic::new(Code::SlotOverwrite, "w"));
        let cert = dirty.fast_path_certificate();
        assert!(!cert.eligible, "warnings block the fast path too");
        assert_eq!(cert.blocking, 1);
        assert!(dirty.to_json().contains("\"fast_path\":{\"eligible\":false"));
    }

    #[test]
    fn report_partitions_by_severity() {
        let mut r = Report::default();
        r.push(Diagnostic::new(Code::QueueUnderflow, "e"));
        r.push(Diagnostic::new(Code::SlotOverwrite, "w"));
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        assert_eq!(r.summary(), "1 error(s), 1 warning(s)");
    }
}
