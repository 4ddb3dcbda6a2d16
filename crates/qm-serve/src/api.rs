//! The `qm-api/v1` request/response surface: job-submission parsing and
//! the `job` / `health` / `error` envelopes. Everything the wire carries
//! is specified in `docs/API.md`; this module is the single place those
//! shapes are produced and consumed.

use qm_core::json::{parse, Envelope, JsonValue};
use qm_verify::VerifyLevel;
use qm_workloads::Workload;

/// Hard cap on simulated PEs per job (matches `SystemConfig::with_pes`).
pub const MAX_PES: usize = 1024;

/// What a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Program {
    /// OCCAM source text, compiled server-side (through the cache).
    Occam(String),
    /// Queue-machine assembly text, assembled server-side.
    Assembly(String),
    /// A bundled named workload with its size parameter — runs with
    /// input initialisation and result verification, like
    /// `qm_workloads::WorkloadRun`.
    Workload {
        /// Bundled workload name (`matmul`, `fft`, `cholesky`,
        /// `congruence`, `reduction`).
        name: String,
        /// Size parameter passed to the workload constructor.
        param: usize,
    },
}

/// One validated job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Program to run.
    pub program: Program,
    /// Tenant identity (fair-share accounting key).
    pub tenant: String,
    /// Simulated PEs.
    pub pes: usize,
    /// Verification policy applied to the (possibly cached) report.
    pub verify: VerifyLevel,
    /// Run the deep verification tier (`"deep":true`): the job's
    /// verify report becomes the whole-program `deep_report` envelope,
    /// and repeat submissions reuse the stored analysis (`/v1/health` counts deep
    /// cache hits). Requires `verify` ≠ `off`.
    pub deep: bool,
    /// Per-job cycle budget override (`None` = server default).
    pub max_cycles: Option<u64>,
    /// Per-job preemption slice override (`None` = server default).
    pub slice_cycles: Option<u64>,
}

/// A request rejection: HTTP status plus a machine-readable code, ready
/// to render as an `error` envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (`docs/API.md` lists them).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Construct an error.
    #[must_use]
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError { status, code, message: message.into() }
    }

    /// Render as the `qm-api/v1` `error` envelope.
    #[must_use]
    pub fn to_json(&self) -> String {
        Envelope::render("error", |j| {
            j.str_field("code", self.code);
            j.str_field("message", &self.message);
        })
    }
}

fn bad(message: impl Into<String>) -> ApiError {
    ApiError::new(400, "bad_request", message)
}

/// Instantiate a bundled workload by name.
///
/// # Errors
///
/// [`ApiError`] (`bad_request`) for unknown names and for sizes outside
/// the workload's range (its constructor would panic on them).
pub fn bundled_workload(name: &str, param: usize) -> Result<Workload, ApiError> {
    let (make, fits, sizes): (fn(usize) -> Workload, bool, &str) = match name {
        "matmul" => (qm_workloads::matmul, (1..=16).contains(&param), "1..=16"),
        "fft" => (
            qm_workloads::fft,
            param.is_power_of_two() && (4..=32).contains(&param),
            "4, 8, 16 or 32",
        ),
        "cholesky" => (qm_workloads::cholesky, (2..=12).contains(&param), "2..=12"),
        "congruence" => (qm_workloads::congruence, (1..=16).contains(&param), "1..=16"),
        "reduction" => (qm_workloads::reduction, (4..=64).contains(&param), "4..=64"),
        other => {
            return Err(bad(format!(
            "unknown workload {other:?} (expected matmul, fft, cholesky, congruence or reduction)"
        )))
        }
    };
    if !fits {
        return Err(bad(format!("{name} param must be {sizes}, not {param}")));
    }
    Ok(make(param))
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, ApiError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n) => {
            n.as_u64().map(Some).ok_or_else(|| bad(format!("{key} must be a non-negative integer")))
        }
    }
}

/// Parse and validate a `POST /v1/jobs` body.
///
/// # Errors
///
/// [`ApiError`] (`bad_request`) for unparseable JSON, missing or
/// conflicting program fields, out-of-range knobs or unknown workloads.
pub fn parse_job(body: &[u8]) -> Result<JobSpec, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let v = parse(text).map_err(|e| bad(format!("body is not JSON: {e}")))?;
    if !matches!(v, JsonValue::Obj(_)) {
        return Err(bad("body must be a JSON object"));
    }

    let occam = v.get("occam").and_then(JsonValue::as_str);
    let assembly = v.get("assembly").and_then(JsonValue::as_str);
    let workload = v.get("workload").and_then(JsonValue::as_str);
    let program = match (occam, assembly, workload) {
        (Some(src), None, None) => Program::Occam(src.to_string()),
        (None, Some(src), None) => Program::Assembly(src.to_string()),
        (None, None, Some(name)) => {
            let param =
                opt_u64(&v, "param")?.ok_or_else(|| bad("workload jobs need a \"param\" size"))?;
            usize::try_from(param).map_err(|_| bad("param out of range"))?;
            #[allow(clippy::cast_possible_truncation)]
            let param = param as usize;
            // Validate the name eagerly so submission, not execution,
            // reports the typo.
            bundled_workload(name, param)?;
            Program::Workload { name: name.to_string(), param }
        }
        (None, None, None) => {
            return Err(bad("provide exactly one of \"occam\", \"assembly\" or \"workload\""));
        }
        _ => return Err(bad("\"occam\", \"assembly\" and \"workload\" are mutually exclusive")),
    };

    let tenant = match v.get("tenant") {
        None => "anonymous".to_string(),
        Some(t) => {
            let t = t.as_str().ok_or_else(|| bad("tenant must be a string"))?;
            if t.is_empty() || t.len() > 64 {
                return Err(bad("tenant must be 1..=64 bytes"));
            }
            t.to_string()
        }
    };

    let pes = opt_u64(&v, "pes")?.unwrap_or(1);
    if !(1..=MAX_PES as u64).contains(&pes) {
        return Err(bad(format!("pes must be 1..={MAX_PES}")));
    }

    let verify = match v.get("verify") {
        None => VerifyLevel::Strict,
        Some(level) => match level.as_str() {
            Some("off") => VerifyLevel::Off,
            Some("warn") => VerifyLevel::Warn,
            Some("strict") => VerifyLevel::Strict,
            _ => return Err(bad("verify must be \"off\", \"warn\" or \"strict\"")),
        },
    };

    let deep = match v.get("deep") {
        None | Some(JsonValue::Null) => false,
        Some(d) => d.as_bool().ok_or_else(|| bad("deep must be a boolean"))?,
    };
    if deep && verify == VerifyLevel::Off {
        return Err(bad("\"deep\":true needs verification on (\"verify\":\"warn\" or \"strict\")"));
    }

    let max_cycles = opt_u64(&v, "max_cycles")?;
    if max_cycles == Some(0) {
        return Err(bad("max_cycles must be positive"));
    }
    let slice_cycles = opt_u64(&v, "slice_cycles")?;

    #[allow(clippy::cast_possible_truncation)]
    Ok(JobSpec { program, tenant, pes: pes as usize, verify, deep, max_cycles, slice_cycles })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_workload_job_with_defaults() {
        let spec = parse_job(br#"{"workload":"matmul","param":4}"#).unwrap();
        assert_eq!(spec.program, Program::Workload { name: "matmul".into(), param: 4 });
        assert_eq!(spec.tenant, "anonymous");
        assert_eq!(spec.pes, 1);
        assert_eq!(spec.verify, VerifyLevel::Strict);
        assert!(!spec.deep);
        assert_eq!(spec.max_cycles, None);
    }

    #[test]
    fn deep_knob_parses() {
        let spec = parse_job(br#"{"workload":"matmul","param":4,"deep":true}"#).unwrap();
        assert!(spec.deep);
        assert_eq!(spec.verify, VerifyLevel::Strict, "defaulted verify satisfies the deep gate");
    }

    #[test]
    fn retired_backend_and_shards_fields_are_ignored() {
        let plain = parse_job(br#"{"assembly":"x","verify":"warn"}"#).unwrap();
        let legacy =
            parse_job(br#"{"assembly":"x","verify":"warn","backend":"jit","shards":65}"#).unwrap();
        assert_eq!(legacy, plain, "unknown fields change nothing");
    }

    #[test]
    fn parses_an_occam_job_with_knobs() {
        let spec = parse_job(
            br#"{"occam":"seq\n  skip","tenant":"team-a","pes":8,"verify":"warn","max_cycles":1000,"slice_cycles":50}"#,
        )
        .unwrap();
        assert!(matches!(spec.program, Program::Occam(_)));
        assert_eq!(spec.tenant, "team-a");
        assert_eq!(spec.pes, 8);
        assert_eq!(spec.verify, VerifyLevel::Warn);
        assert_eq!(spec.max_cycles, Some(1000));
        assert_eq!(spec.slice_cycles, Some(50));
    }

    #[test]
    fn rejects_bad_submissions() {
        for (body, want) in [
            (&br#"not json"#[..], "not JSON"),
            (br#"[]"#, "must be a JSON object"),
            (br#"{}"#, "exactly one of"),
            (br#"{"occam":"x","assembly":"y"}"#, "mutually exclusive"),
            (br#"{"workload":"matmul"}"#, "need a \"param\""),
            (br#"{"workload":"quicksort","param":4}"#, "unknown workload"),
            (br#"{"workload":"matmul","param":0}"#, "matmul param must be 1..=16"),
            (br#"{"workload":"fft","param":12}"#, "fft param must be 4, 8, 16 or 32"),
            (br#"{"workload":"reduction","param":65}"#, "reduction param must be 4..=64"),
            (br#"{"assembly":"x","pes":0}"#, "pes must be"),
            (br#"{"assembly":"x","pes":2000}"#, "pes must be"),
            (br#"{"assembly":"x","verify":"maybe"}"#, "verify must be"),
            (br#"{"assembly":"x","tenant":""}"#, "tenant must be"),
            (br#"{"assembly":"x","max_cycles":0}"#, "must be positive"),
            (br#"{"assembly":"x","deep":"yes"}"#, "deep must be"),
            (br#"{"assembly":"x","deep":true,"verify":"off"}"#, "needs verification on"),
        ] {
            let err = parse_job(body).unwrap_err();
            assert_eq!(err.status, 400, "{want}");
            assert!(err.message.contains(want), "{}: missing {want:?}", err.message);
        }
    }

    #[test]
    fn workload_sizes_are_checked_before_construction() {
        for name in ["matmul", "fft", "cholesky", "congruence", "reduction"] {
            let accepted: Vec<usize> =
                (0..=70).filter(|&n| bundled_workload(name, n).is_ok()).collect();
            assert!(!accepted.is_empty(), "{name} accepts some size");
            assert!(bundled_workload(name, usize::MAX).is_err(), "{name}");
        }
    }

    #[test]
    fn error_envelope_shape() {
        let e = ApiError::new(429, "queue_full", "the job queue is full");
        assert_eq!(
            e.to_json(),
            r#"{"schema":"qm-api/v1","kind":"error","data":{"code":"queue_full","message":"the job queue is full"}}"#
        );
    }
}
