//! The crash-safe tuning daemon behind `yasksite serve`.
//!
//! The daemon accepts line-delimited JSON requests on stdin (or a Unix
//! socket) and answers each with one JSON line. Five operations exist:
//!
//! * `tune` — run a tuning session and return the winner;
//! * `predict` — one analytic prediction through the shared cache;
//! * `report` — daemon status (counters, cache and store sizes);
//! * `status` — the full observability snapshot (schema-v1 JSON, or the
//!   Prometheus text exposition with `"format":"prom"`): queue depth,
//!   rolling-window latency percentiles per request kind and tenant,
//!   tier mix, drift-SUSPECT count, pool occupancy;
//! * `shutdown` — drain queued requests, snapshot state, exit.
//!
//! ```text
//! {"id":"t1","op":"tune","stencil":"heat-3d-r1","domain":"32x16x16",
//!  "machine":"clx","cores":2,"strategy":"hybrid","samples":2,
//!  "tenant":"ci","deadline_ms":5000}
//! ```
//!
//! # Robustness properties
//!
//! * **Admission control** — per-tenant [`TrialBudget`]-style caps on
//!   measurement runs and target seconds; an exhausted tenant is rejected
//!   with `"kind":"tenant_budget_exhausted"` before any work starts, and
//!   a session never receives more budget than the tenant has left.
//! * **Backpressure** — requests flow through a bounded queue. When it is
//!   full the reader rejects immediately with `"kind":"overloaded"`
//!   instead of buffering without bound or blocking the pipe.
//! * **Deadlines** — `deadline_ms` (or the daemon-wide default) becomes
//!   the [`TrialConfig::deadline`] watchdog: a stuck trial is cancelled
//!   at the deadline and degrades to its analytic fallback.
//! * **Panic isolation** — each tuning session runs under
//!   `catch_unwind`; a panicking measurement backend degrades that one
//!   request to a purely analytic session (`"degraded":true`) instead of
//!   killing the daemon.
//! * **Persistence** — with `--state-dir`, predictions and drift history
//!   live in the crash-safe journals of [`PersistentStore`]; on SIGTERM
//!   or `shutdown` the daemon finishes in-flight requests, compacts the
//!   journals and exits 0. A restart warm-starts the cache (verified
//!   against the live model) so repeated requests are served from memory.
//!
//! The protocol handler ([`ServeState::handle_line`]) is a pure
//! line-in/line-out function so every policy above is unit-testable
//! without process machinery.
//!
//! # Observability
//!
//! Every request gets a stable id (`r000001`, …) and — while the
//! head-sampling budget ([`ServeConfig::trace_sample`]) lasts — a span
//! tree (`request` → `admission`/`tune`/`predict`/`persist`) plus
//! `request_start`/`request_end` events through the configured
//! telemetry sink. Requests past the budget run with a *quiet*
//! telemetry handle ([`yasksite_telemetry::Telemetry::quiet`]): no
//! events or spans, but counters and histograms keep aggregating, so
//! the trace stream stays bounded while `status` stays complete.
//! Queue wait, service time and end-to-end latency land in 60-second
//! rolling windows per request kind (and per tenant), which the
//! `status` operation digests to p50/p95/p99. With `--state-dir` the
//! same snapshot is rewritten atomically to `status.json` after every
//! request, so `yasksite top <state-dir>` can watch a daemon without a
//! socket. Telemetry stays purely observational: responses are bitwise
//! identical whether tracing is off, sampled, or full.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use yasksite_arch::Machine;
use yasksite_telemetry::json::{parse, write_escaped, write_f64, Json};
use yasksite_telemetry::{Level, RollingCounter, RollingHistogram, SpanGuard, Telemetry};

use crate::cache::PredictionCache;
use crate::cli::{parse_triple, stencil_by_name};
use crate::drift::DriftLedger;
use crate::persist::PersistentStore;
use crate::request::TuneRequest;
use crate::solution::Solution;
use crate::space::SearchSpace;
use crate::status::{
    CalibrationStatus, LatencyDigest, StatusSnapshot, TenantUsage, PROM_CONTENT_TYPE,
};
use crate::trial::{FallbackReason, FaultPlan, Provenance, TrialBudget, TrialConfig};
use crate::tuner::TuneStrategy;

/// Daemon-wide shutdown flag, set by the binary's SIGTERM/SIGINT handler
/// (and by tests). The serve loops poll it between requests.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The process-wide shutdown flag the signal handler stores into.
#[must_use]
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for the crash-safe journals; `None` serves from memory
    /// only.
    pub state_dir: Option<PathBuf>,
    /// Bound on queued (accepted but unprocessed) requests; further
    /// requests are rejected with `"kind":"overloaded"`.
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds when the request
    /// carries none; `None` never cancels.
    pub default_deadline_ms: Option<u64>,
    /// Per-tenant cap on measurement runs across the daemon's lifetime.
    pub tenant_runs: Option<usize>,
    /// Per-tenant cap on accumulated target seconds.
    pub tenant_secs: Option<f64>,
    /// Cap on drift records per `(stencil, params, cores)` key in the
    /// daemon's long-lived ledger (oldest evicted first).
    pub drift_cap: Option<usize>,
    /// Head-sampling budget: the first N requests are traced in full
    /// (spans + events); later requests run with a quiet handle that
    /// still aggregates metrics. `None` traces every request.
    pub trace_sample: Option<u64>,
    /// Telemetry handle all sessions record into.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: None,
            queue_capacity: 16,
            default_deadline_ms: None,
            tenant_runs: None,
            tenant_secs: None,
            drift_cap: Some(64),
            trace_sample: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Counters the daemon accumulates over its lifetime (returned when the
/// serve loop exits, and reported live by the `report` operation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that reached the protocol handler.
    pub received: usize,
    /// Requests answered with `"ok":true`.
    pub completed: usize,
    /// Requests rejected because the queue was full.
    pub rejected_overload: usize,
    /// Requests rejected by tenant admission control.
    pub rejected_budget: usize,
    /// Requests answered with `"ok":false` for any other reason.
    pub rejected_bad: usize,
    /// Tuning sessions that degraded to analytic after a worker panic.
    pub degraded: usize,
    /// Journal appends or snapshots that failed (state kept in memory).
    pub persist_errors: usize,
}

/// Per-tenant consumption, charged after each tuning session.
#[derive(Debug, Clone, Copy, Default)]
struct TenantUse {
    runs: usize,
    seconds: f64,
}

/// Width of the rolling latency/rate window the `status` snapshot
/// covers, in seconds.
const STATUS_WINDOW_SECS: f64 = 60.0;

/// Cap on distinct tenant keys in the per-tenant latency windows;
/// further tenants aggregate under `"other"` so a tenant-per-request
/// client cannot grow the daemon without bound.
const MAX_TENANT_WINDOWS: usize = 32;

/// The daemon's rolling observability windows: request rate plus
/// queue-wait / service / end-to-end latency histograms per request
/// kind and per tenant. Memory is bounded: kinds come from the fixed
/// protocol vocabulary, tenants are capped at [`MAX_TENANT_WINDOWS`],
/// and every histogram holds at most its slot budget.
struct ServeWindows {
    requests: RollingCounter,
    queue_wait_ms: BTreeMap<String, RollingHistogram>,
    service_ms: BTreeMap<String, RollingHistogram>,
    e2e_ms: BTreeMap<String, RollingHistogram>,
    tenant_e2e_ms: BTreeMap<String, RollingHistogram>,
}

fn window_entry<'a>(
    map: &'a mut BTreeMap<String, RollingHistogram>,
    key: &str,
) -> &'a mut RollingHistogram {
    if !map.contains_key(key) {
        map.insert(
            key.to_string(),
            RollingHistogram::for_latency_ms(STATUS_WINDOW_SECS),
        );
    }
    map.get_mut(key).expect("just inserted")
}

impl ServeWindows {
    fn new() -> Self {
        ServeWindows {
            requests: RollingCounter::new(STATUS_WINDOW_SECS, 8),
            queue_wait_ms: BTreeMap::new(),
            service_ms: BTreeMap::new(),
            e2e_ms: BTreeMap::new(),
            tenant_e2e_ms: BTreeMap::new(),
        }
    }

    fn record(
        &mut self,
        now: f64,
        kind: &str,
        tenant: Option<&str>,
        wait_ms: f64,
        service_ms: f64,
    ) {
        self.requests.add_at(now, 1);
        window_entry(&mut self.queue_wait_ms, kind).observe_at(now, wait_ms);
        window_entry(&mut self.service_ms, kind).observe_at(now, service_ms);
        window_entry(&mut self.e2e_ms, kind).observe_at(now, wait_ms + service_ms);
        if let Some(t) = tenant {
            let key = if self.tenant_e2e_ms.contains_key(t)
                || self.tenant_e2e_ms.len() < MAX_TENANT_WINDOWS
            {
                t
            } else {
                "other"
            };
            window_entry(&mut self.tenant_e2e_ms, key).observe_at(now, wait_ms + service_ms);
        }
    }

    fn digest(
        map: &BTreeMap<String, RollingHistogram>,
        now: f64,
    ) -> BTreeMap<String, LatencyDigest> {
        map.iter()
            .filter_map(|(k, h)| {
                let s = h.snapshot_at(now);
                s.percentiles().map(|p| {
                    (
                        k.clone(),
                        LatencyDigest {
                            count: p.count,
                            sum: s.sum,
                            p50: p.p50,
                            p95: p.p95,
                            p99: p.p99,
                        },
                    )
                })
            })
            .collect()
    }
}

/// The daemon's long-lived state plus the protocol handler. One request
/// is processed at a time; the queue in front provides the backpressure.
pub struct ServeState {
    config: ServeConfig,
    store: Option<PersistentStore>,
    cache: Arc<PredictionCache>,
    ledger: DriftLedger,
    tenants: HashMap<String, TenantUse>,
    warmed: HashSet<u64>,
    stats: ServeStats,
    shutdown_requested: bool,
    /// Monotone request sequence; the source of request ids and of the
    /// head-sampling decision.
    seq: u64,
    /// When this state was built — the epoch of the rolling windows.
    started: Instant,
    windows: ServeWindows,
    /// Completed tuning sessions per winning tier name.
    tier_ran: BTreeMap<String, u64>,
    /// Completed tuning sessions whose winner planned onto a degraded
    /// tier, keyed by the planner's reason (a small fixed vocabulary).
    tier_degraded: BTreeMap<String, u64>,
    /// Live queue depth, shared with the serve loop (`None` when the
    /// state is driven directly, e.g. the Unix-socket path or tests).
    queue_depth: Option<Arc<AtomicUsize>>,
    /// Overload rejections counted by the reader thread.
    overloads: Option<Arc<AtomicUsize>>,
    /// Calibration provenance of `<state-dir>/machine.calibrated`, when
    /// the daemon found one at startup. `age_secs` holds the file's age
    /// at load; snapshots add the uptime since.
    calibration: Option<CalibrationStatus>,
}

/// Name of the calibrated machine file a daemon looks for in its state
/// directory (the conventional `yasksite calibrate --out` target).
pub const CALIBRATED_MACHINE_FILE: &str = "machine.calibrated";

/// Loads the calibration provenance of `<dir>/machine.calibrated`, if
/// present and valid. Invalid files are reported, not fatal.
fn load_calibration(dir: &std::path::Path, tel: &Telemetry) -> Option<CalibrationStatus> {
    let path = dir.join(CALIBRATED_MACHINE_FILE);
    let text = std::fs::read_to_string(&path).ok()?;
    let age_secs = std::fs::metadata(&path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .map_or(0.0, |d| d.as_secs_f64());
    match yasksite_arch::parse_machine(&text) {
        Ok(m) => m.calibration.map(|c| CalibrationStatus {
            rev: c.rev,
            seed: c.seed,
            date: c.date,
            probes: c.measurements.len(),
            age_secs,
        }),
        Err(e) => {
            tel.error(&format!(
                "calibrated machine file '{}' unusable: {e}",
                path.display()
            ));
            tel.inc("serve.calibration_unusable");
            None
        }
    }
}

/// Incremental JSON-object writer for responses (hand-rolled; the
/// workspace has no serde derive machinery).
struct JsonOut {
    buf: String,
}

impl JsonOut {
    fn new(id: &str, ok: bool) -> Self {
        let mut buf = String::with_capacity(128);
        buf.push_str("{\"id\":");
        write_escaped(&mut buf, id);
        buf.push_str(",\"ok\":");
        buf.push_str(if ok { "true" } else { "false" });
        JsonOut { buf }
    }

    fn key(&mut self, k: &str) {
        self.buf.push(',');
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        write_escaped(&mut self.buf, v);
        self
    }

    fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        write_f64(&mut self.buf, v);
        self
    }

    fn uint(mut self, k: &str, v: usize) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    fn boolean(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn error_response(id: &str, kind: &str, message: &str) -> String {
    JsonOut::new(id, false)
        .str("kind", kind)
        .str("error", message)
        .finish()
}

/// Extracts the request id from a raw line (string ids verbatim, numeric
/// ids stringified, everything else empty).
fn extract_id(parsed: &Json) -> String {
    match parsed.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => {
            let mut s = String::new();
            write_f64(&mut s, *n);
            s
        }
        _ => String::new(),
    }
}

/// The rejection the reader writes when the request queue is full. Public
/// so the backpressure contract is directly testable.
#[must_use]
pub fn overload_response(line: &str) -> String {
    let id = parse(line).map(|j| extract_id(&j)).unwrap_or_default();
    error_response(&id, "overloaded", "request queue is full; retry later")
}

fn get_str<'a>(req: &'a Json, key: &str) -> Option<&'a str> {
    req.get(key).and_then(Json::as_str)
}

fn get_u64(req: &Json, key: &str) -> Option<u64> {
    req.get(key).and_then(Json::as_u64)
}

fn get_f64(req: &Json, key: &str) -> Option<f64> {
    req.get(key).and_then(Json::as_f64)
}

/// Builds a [`FaultPlan`] from the optional `"faults"` object of a tune
/// request (testing hook: lets harnesses exercise fallback, panic
/// isolation and I/O degradation through the protocol).
fn faults_from_json(obj: &Json) -> FaultPlan {
    let f = |key: &str, default: f64| get_f64(obj, key).unwrap_or(default);
    let base = FaultPlan::none();
    FaultPlan {
        seed: get_u64(obj, "seed").unwrap_or(base.seed),
        fail_prob: f("fail_prob", base.fail_prob),
        nan_prob: f("nan_prob", base.nan_prob),
        spike_prob: f("spike_prob", base.spike_prob),
        spike_factor: f("spike_factor", base.spike_factor),
        panic_prob: f("panic_prob", base.panic_prob),
        io_short_prob: f("io_short_prob", base.io_short_prob),
        io_corrupt_prob: f("io_corrupt_prob", base.io_corrupt_prob),
        io_enospc_prob: f("io_enospc_prob", base.io_enospc_prob),
    }
}

/// Resolves `stencil`/`domain`/`machine` request fields into a
/// [`Solution`].
fn solution_from_request(req: &Json) -> Result<(Solution, Machine, [usize; 3]), String> {
    let sname = get_str(req, "stencil").ok_or("'stencil' is required")?;
    let stencil = stencil_by_name(sname).ok_or_else(|| format!("unknown stencil '{sname}'"))?;
    let domain = parse_triple(get_str(req, "domain").ok_or("'domain' is required (AxBxC)")?)?;
    let mname = get_str(req, "machine").unwrap_or("clx");
    let machine = Machine::by_short_name(mname)
        .ok_or_else(|| format!("unknown machine '{mname}' (clx|rome|host)"))?;
    let sol = Solution::new(stencil, domain, machine.clone());
    Ok((sol, machine, domain))
}

impl ServeState {
    /// Builds the daemon state, opening (and if necessary recovering) the
    /// persistent store. A store that cannot be opened degrades the
    /// daemon to memory-only serving rather than failing startup.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let tel = config.telemetry.clone();
        let store =
            config
                .state_dir
                .as_ref()
                .and_then(|dir| match PersistentStore::open(dir, &tel) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        tel.error(&format!("state dir '{}' unusable: {e}", dir.display()));
                        tel.inc("serve.state_degraded");
                        None
                    }
                });
        let state_degraded = config.state_dir.is_some() && store.is_none();
        let ledger = match config.drift_cap {
            Some(cap) => DriftLedger::bounded(cap),
            None => DriftLedger::new(),
        };
        let calibration = config
            .state_dir
            .as_ref()
            .and_then(|dir| load_calibration(dir, &tel));
        if let Some(c) = &calibration {
            tel.event(
                Level::Info,
                "calibration_loaded",
                0,
                &[
                    ("rev", c.rev.as_str().into()),
                    ("seed", c.seed.into()),
                    ("date", c.date.as_str().into()),
                    ("probes", c.probes.into()),
                    ("age_secs", c.age_secs.into()),
                ],
            );
        }
        let mut state = ServeState {
            config,
            store,
            cache: Arc::new(PredictionCache::new()),
            ledger,
            tenants: HashMap::new(),
            warmed: HashSet::new(),
            stats: ServeStats::default(),
            shutdown_requested: false,
            seq: 0,
            started: Instant::now(),
            windows: ServeWindows::new(),
            tier_ran: BTreeMap::new(),
            tier_degraded: BTreeMap::new(),
            queue_depth: None,
            overloads: None,
            calibration,
        };
        if state_degraded {
            state.stats.persist_errors += 1;
        }
        state
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Whether a `shutdown` request has been handled (the serve loop
    /// drains and exits once this is set).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// The shared prediction cache (exposed for tests).
    #[must_use]
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Attaches the serve loop's live queue-depth and overload counters
    /// so `status` snapshots can report them.
    pub fn attach_queue_gauges(&mut self, depth: Arc<AtomicUsize>, overloads: Arc<AtomicUsize>) {
        self.queue_depth = Some(depth);
        self.overloads = Some(overloads);
    }

    /// Handles one request line, returning the response line (`None` for
    /// blank lines). Never panics and never exits: every failure becomes
    /// an `"ok":false` response.
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        self.handle_line_at(line, None)
    }

    /// [`ServeState::handle_line`] with the time the request spent in
    /// the admission queue (the serve loop measures it; direct callers
    /// pass `None`, recorded as zero wait).
    pub fn handle_line_at(&mut self, line: &str, queue_wait: Option<Duration>) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        self.seq += 1;
        self.stats.received += 1;
        // Head sampling: the first `trace_sample` requests trace fully;
        // the rest run quiet (metrics aggregate, no events/spans), so a
        // long-lived daemon's trace stream stays bounded.
        let sampled = self.config.trace_sample.is_none_or(|n| self.seq <= n);
        let tel = if sampled {
            self.config.telemetry.clone()
        } else {
            self.config.telemetry.quiet()
        };
        tel.inc("serve.requests");
        if !sampled {
            tel.inc("serve.trace_unsampled");
        }
        let rid = format!("r{:06}", self.seq);
        let wait_ms = queue_wait.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let service_start = Instant::now();
        let span = tel.span("request");
        tel.event(
            Level::Info,
            "request_start",
            span.id(),
            &[
                ("rid", rid.as_str().into()),
                ("queue_wait_ms", wait_ms.into()),
                ("sampled", sampled.into()),
            ],
        );
        let (kind, tenant, response) = match parse(line) {
            Err(e) => {
                self.stats.rejected_bad += 1;
                (
                    "bad",
                    None,
                    error_response("", "bad_request", &format!("invalid JSON: {e}")),
                )
            }
            Ok(parsed) => {
                let id = extract_id(&parsed);
                match get_str(&parsed, "op") {
                    Some("tune") => {
                        let tenant = get_str(&parsed, "tenant")
                            .unwrap_or("anonymous")
                            .to_string();
                        let resp = self.op_tune(&id, &parsed, &tel, &span);
                        ("tune", Some(tenant), resp)
                    }
                    Some("predict") => {
                        let resp = self.op_predict(&id, &parsed, &tel, &span);
                        ("predict", None, resp)
                    }
                    Some("report") => ("report", None, self.op_report(&id)),
                    Some("status") => ("status", None, self.op_status(&id, &parsed)),
                    Some("shutdown") => {
                        self.shutdown_requested = true;
                        self.stats.completed += 1;
                        let resp = JsonOut::new(&id, true)
                            .str("op", "shutdown")
                            .boolean("draining", true)
                            .finish();
                        ("shutdown", None, resp)
                    }
                    Some(other) => {
                        self.stats.rejected_bad += 1;
                        (
                            "bad",
                            None,
                            error_response(&id, "bad_request", &format!("unknown op '{other}'")),
                        )
                    }
                    None => {
                        self.stats.rejected_bad += 1;
                        (
                            "bad",
                            None,
                            error_response(&id, "bad_request", "'op' is required"),
                        )
                    }
                }
            }
        };
        let service_ms = service_start.elapsed().as_secs_f64() * 1e3;
        let now = self.started.elapsed().as_secs_f64();
        self.windows
            .record(now, kind, tenant.as_deref(), wait_ms, service_ms);
        tel.observe("serve.service_ms", service_ms);
        tel.event(
            Level::Info,
            "request_end",
            span.id(),
            &[
                ("rid", rid.as_str().into()),
                ("kind", kind.into()),
                ("queue_wait_ms", wait_ms.into()),
                ("service_ms", service_ms.into()),
                ("e2e_ms", (wait_ms + service_ms).into()),
            ],
        );
        drop(span);
        self.refresh_status_file();
        Some(response)
    }

    /// Warm-starts the cache for `sol` from the persistent store, once
    /// per solution per daemon lifetime. Returns `(loaded, stale)`.
    fn ensure_warm(&mut self, sol: &Solution) -> (usize, usize) {
        let Some(store) = &self.store else {
            return (0, 0);
        };
        if !self.warmed.insert(sol.signature()) {
            return (0, 0);
        }
        let stats = store.warm_solution(sol, &self.cache);
        if stats.stale > 0 {
            self.config
                .telemetry
                .add("serve.warm_stale", stats.stale as u64);
        }
        self.config
            .telemetry
            .add("serve.warm_loaded", stats.loaded as u64);
        (stats.loaded, stats.stale)
    }

    /// Remaining budget for `tenant` under the daemon caps.
    fn tenant_remaining(&self, tenant: &str) -> TrialBudget {
        let used = self.tenants.get(tenant).copied().unwrap_or_default();
        TrialBudget {
            max_runs: self
                .config
                .tenant_runs
                .map(|cap| cap.saturating_sub(used.runs)),
            max_seconds: self
                .config
                .tenant_secs
                .map(|cap| (cap - used.seconds).max(0.0)),
            runs_used: 0,
            seconds_used: 0.0,
        }
    }

    fn op_tune(&mut self, id: &str, req: &Json, tel: &Telemetry, parent: &SpanGuard) -> String {
        let (sol, machine, domain) = match solution_from_request(req) {
            Ok(t) => t,
            Err(e) => {
                self.stats.rejected_bad += 1;
                return error_response(id, "bad_request", &e);
            }
        };
        let strategy = match get_str(req, "strategy").unwrap_or("analytic") {
            "analytic" => TuneStrategy::Analytic,
            "hybrid" => TuneStrategy::Hybrid { shortlist: 3 },
            "empirical" => TuneStrategy::Empirical,
            other => {
                self.stats.rejected_bad += 1;
                return error_response(id, "bad_request", &format!("unknown strategy '{other}'"));
            }
        };
        let tenant = get_str(req, "tenant").unwrap_or("anonymous").to_string();

        // Admission control: reject before any work when the tenant has
        // nothing left; otherwise the session budget is capped at the
        // intersection of the request's asks and the tenant's remainder.
        let remaining = {
            let _admission = parent.child("admission");
            self.tenant_remaining(&tenant)
        };
        if remaining.max_runs == Some(0) || remaining.max_seconds.is_some_and(|s| s <= 0.0) {
            self.stats.rejected_budget += 1;
            tel.inc("serve.rejected_budget");
            return error_response(
                id,
                "tenant_budget_exhausted",
                &format!("tenant '{tenant}' has no measurement budget left"),
            );
        }
        let mut budget = remaining;
        if let Some(r) = get_u64(req, "budget_runs") {
            let r = r as usize;
            budget.max_runs = Some(budget.max_runs.map_or(r, |m| m.min(r)));
        }
        if let Some(s) = get_f64(req, "budget_secs") {
            budget.max_seconds = Some(budget.max_seconds.map_or(s, |m| m.min(s)));
        }

        let mut trial = match get_u64(req, "samples") {
            Some(n) => TrialConfig {
                samples: (n as usize).max(1),
                ..TrialConfig::default()
            },
            None => TrialConfig::single_shot(),
        };
        let deadline_ms = get_u64(req, "deadline_ms").or(self.config.default_deadline_ms);
        if let Some(ms) = deadline_ms {
            trial = trial.deadline_at(Instant::now() + Duration::from_millis(ms));
        }

        let mut tune_req = TuneRequest::new(strategy)
            .cores(get_u64(req, "cores").unwrap_or(1).max(1) as usize)
            .trial(trial)
            .budget(budget)
            .cache(Arc::clone(&self.cache))
            .telemetry(tel.clone());
        if let Some(cap) = self.config.drift_cap {
            tune_req = tune_req.drift_cap(cap);
        }
        if let Some(j) = get_u64(req, "jobs") {
            tune_req = tune_req.jobs((j as usize).max(1));
        }
        if let Some(obj) = req.get("faults") {
            tune_req = tune_req.faults(faults_from_json(obj));
        }

        let (warm_loaded, warm_stale) = self.ensure_warm(&sol);
        let space = SearchSpace::standard(sol.stencil(), domain, &machine);

        // Panic isolation: a poisoned measurement backend may panic
        // mid-session. Catch it and degrade this one request to a purely
        // analytic session (which runs no backend) instead of dying.
        let span = parent.child("tune");
        let attempt = catch_unwind(AssertUnwindSafe(|| sol.tune_space_with(&space, &tune_req)));
        let (result, degraded) = match attempt {
            Ok(r) => (r, false),
            Err(_) => {
                self.stats.degraded += 1;
                tel.inc("serve.panics");
                tel.event(
                    Level::Error,
                    "serve_panic_degraded",
                    span.id(),
                    &[("stencil", sol.stencil().name().into())],
                );
                let analytic = tune_req
                    .clone()
                    .budget(TrialBudget::runs(0))
                    .trial(TrialConfig::single_shot());
                let analytic = TuneRequest {
                    strategy: TuneStrategy::Analytic,
                    faults: None,
                    ..analytic
                };
                (sol.tune_space_with(&space, &analytic), true)
            }
        };
        drop(span);
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.stats.rejected_bad += 1;
                return error_response(id, "internal", &e.to_string());
            }
        };

        // Charge the tenant what the session actually consumed.
        let use_entry = self.tenants.entry(tenant.clone()).or_default();
        use_entry.runs += result.budget.runs_used;
        use_entry.seconds += result.budget.seconds_used;

        // Tier mix: which execution tier the winner plans onto, and why
        // (the status snapshot's `tier_ran` / `tier_degraded` counters;
        // the shared registry's `tier.*` counters are bumped by the
        // tuner itself).
        *self.tier_ran.entry(result.tier.to_string()).or_insert(0) += 1;
        if result.tier_degraded() {
            *self
                .tier_degraded
                .entry(result.tier_reason.as_str().to_string())
                .or_insert(0) += 1;
        }

        // Fold the session's drift audit into the daemon ledger and the
        // journals; absorb new predictions into the store.
        self.ledger.absorb(&result.drift);
        let mut persisted = 0usize;
        if let Some(store) = &mut self.store {
            let _persist = parent.child("persist");
            for rec in result.drift.records() {
                if store.record_drift(rec).is_err() {
                    self.stats.persist_errors += 1;
                }
            }
            let absorb = store.absorb_cache(&self.cache);
            persisted = absorb.persisted;
            self.stats.persist_errors += absorb.errors;
        }

        let deadline_fallbacks = result
            .provenances
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Provenance::PredictedFallback {
                        reason: FallbackReason::DeadlineExceeded
                    }
                )
            })
            .count();
        self.stats.completed += 1;
        let mut out = JsonOut::new(id, true)
            .str("op", "tune")
            .str("best", &result.best.to_string())
            .num("best_mlups", result.best_score)
            .str("tier", &result.tier.to_string())
            .str("tier_reason", result.tier_reason.as_str())
            .boolean("tier_degraded", result.tier_degraded())
            .boolean("degraded", degraded)
            .uint("warm_loaded", warm_loaded)
            .uint("warm_stale", warm_stale)
            .uint("cache_hits", result.cost.cache_hits)
            .uint("engine_runs", result.cost.engine_runs)
            .uint("runs_used", result.budget.runs_used)
            .uint("deadline_fallbacks", deadline_fallbacks)
            .uint("drift_records", result.drift.len())
            .uint("persisted", persisted)
            .str("tenant", &tenant);
        if let Some(p) = result.best_provenance {
            out = out.str("provenance", &p.to_string());
        }
        out.finish()
    }

    fn op_predict(&mut self, id: &str, req: &Json, _tel: &Telemetry, parent: &SpanGuard) -> String {
        let (sol, machine, domain) = match solution_from_request(req) {
            Ok(t) => t,
            Err(e) => {
                self.stats.rejected_bad += 1;
                return error_response(id, "bad_request", &e);
            }
        };
        let cores = get_u64(req, "cores").unwrap_or(1).max(1) as usize;
        let block = match get_str(req, "block").map(parse_triple).transpose() {
            Ok(b) => b.unwrap_or(domain),
            Err(e) => {
                self.stats.rejected_bad += 1;
                return error_response(id, "bad_request", &e);
            }
        };
        let fold = yasksite_grid::Fold::new(machine.lanes(), 1, 1);
        let wavefront = get_u64(req, "wavefront").unwrap_or(1).max(1) as usize;
        let params = yasksite_engine::TuningParams::new(block, fold)
            .threads(cores)
            .wavefront(wavefront);

        self.ensure_warm(&sol);
        let (perf, warm) = {
            let _predict = parent.child("predict");
            self.cache.predict(&sol, &params, cores)
        };
        if let Some(store) = &mut self.store {
            let _persist = parent.child("persist");
            let absorb = store.absorb_cache(&self.cache);
            self.stats.persist_errors += absorb.errors;
        }
        self.stats.completed += 1;
        JsonOut::new(id, true)
            .str("op", "predict")
            .str("params", &params.to_string())
            .num("mlups", perf.mlups)
            .num("seconds_per_sweep", perf.seconds_per_sweep)
            .boolean("wavefront_effective", perf.wavefront_effective)
            .boolean("warm", warm)
            .finish()
    }

    fn op_report(&mut self, id: &str) -> String {
        let s = self.stats;
        let mut out = JsonOut::new(id, true)
            .str("op", "report")
            .uint("received", s.received)
            .uint("completed", s.completed)
            .uint("rejected_overload", s.rejected_overload)
            .uint("rejected_budget", s.rejected_budget)
            .uint("rejected_bad", s.rejected_bad)
            .uint("degraded", s.degraded)
            .uint("persist_errors", s.persist_errors)
            .uint("cache_entries", self.cache.len())
            .uint("drift_records", self.ledger.len())
            .uint("drift_evictions", self.ledger.evictions())
            .uint("tenants", self.tenants.len());
        if let Some(store) = &self.store {
            out = out
                .boolean("store_healthy", store.healthy())
                .uint("store_predictions", store.prediction_count())
                .uint("store_drift", store.drift_count())
                .uint("store_recoveries", store.recoveries().len());
        }
        self.stats.completed += 1;
        out.finish()
    }

    fn op_status(&mut self, id: &str, req: &Json) -> String {
        self.stats.completed += 1;
        let snap = self.status_snapshot();
        if get_str(req, "format") == Some("prom") {
            JsonOut::new(id, true)
                .str("op", "status")
                .str("content_type", PROM_CONTENT_TYPE)
                .str("body", &snap.to_prometheus())
                .finish()
        } else {
            snap.to_json_response(id)
        }
    }

    /// The current observability snapshot: lifetime counters plus the
    /// rolling-window latency digests, as one plain-data struct (see
    /// [`StatusSnapshot`] for the rendered forms).
    #[must_use]
    pub fn status_snapshot(&self) -> StatusSnapshot {
        let now = self.started.elapsed().as_secs_f64();
        let pool = yasksite_engine::ExecPool::global().stats();
        StatusSnapshot {
            uptime_secs: now,
            window_secs: self.windows.requests.window_secs(),
            queue_depth: self
                .queue_depth
                .as_ref()
                .map_or(0, |d| d.load(Ordering::Relaxed)),
            queue_capacity: self.config.queue_capacity.max(1),
            received: self.stats.received,
            completed: self.stats.completed,
            rejected_overload: self.stats.rejected_overload
                + self
                    .overloads
                    .as_ref()
                    .map_or(0, |o| o.load(Ordering::Relaxed)),
            rejected_budget: self.stats.rejected_budget,
            rejected_bad: self.stats.rejected_bad,
            degraded: self.stats.degraded,
            persist_errors: self.stats.persist_errors,
            rate_per_sec: self.windows.requests.rate_at(now),
            cache_entries: self.cache.len(),
            drift_records: self.ledger.len(),
            drift_suspects: self.ledger.suspect_count(),
            drift_evictions: self.ledger.evictions(),
            corrected_keys: self.ledger.per_key_corrections().len(),
            calibration: self.calibration.as_ref().map(|c| CalibrationStatus {
                age_secs: c.age_secs + now,
                ..c.clone()
            }),
            tenants: self.tenants.len(),
            trace_sample: self.config.trace_sample,
            queue_wait_ms: ServeWindows::digest(&self.windows.queue_wait_ms, now),
            service_ms: ServeWindows::digest(&self.windows.service_ms, now),
            e2e_ms: ServeWindows::digest(&self.windows.e2e_ms, now),
            tenant_e2e_ms: ServeWindows::digest(&self.windows.tenant_e2e_ms, now),
            tier_ran: self.tier_ran.clone(),
            tier_degraded: self.tier_degraded.clone(),
            tenant_use: self
                .tenants
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        TenantUsage {
                            runs: v.runs,
                            seconds: v.seconds,
                        },
                    )
                })
                .collect(),
            pool_workers: pool.workers,
            pool_sweeps: pool.sweeps,
            pool_jobs: pool.jobs,
            store_healthy: self.store.as_ref().map(PersistentStore::healthy),
        }
    }

    /// Rewrites `status.json` in the state directory (atomically, via a
    /// temp file + rename) so `yasksite top <state-dir>` can watch the
    /// daemon without a socket. A no-op when serving from memory only.
    fn refresh_status_file(&mut self) {
        if self.store.is_none() {
            return;
        }
        let Some(dir) = self.config.state_dir.clone() else {
            return;
        };
        let body = self.status_snapshot().to_json_response("daemon");
        let tmp = dir.join("status.json.tmp");
        let path = dir.join("status.json");
        let wrote =
            std::fs::write(&tmp, body.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if wrote.is_err() {
            self.stats.persist_errors += 1;
        }
    }

    /// Graceful teardown: snapshot-compact the journals and emit the
    /// final telemetry. Called once after the serve loop drains.
    pub fn finish(&mut self) {
        if let Some(store) = &mut self.store {
            if store.compact().is_err() {
                self.stats.persist_errors += 1;
            }
        }
        self.refresh_status_file();
        let tel = &self.config.telemetry;
        tel.event(
            Level::Info,
            "serve_shutdown",
            0,
            &[
                ("received", self.stats.received.into()),
                ("completed", self.stats.completed.into()),
                ("rejected_overload", self.stats.rejected_overload.into()),
                ("degraded", self.stats.degraded.into()),
            ],
        );
    }
}

/// Shared response writer: the worker writes answers and the reader
/// thread writes overload rejections, each as one flushed line.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<Box<dyn Write + Send>>>);

impl SharedWriter {
    fn send(&self, line: &str) {
        let mut w = self.0.lock().expect("writer poisoned");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Runs the daemon over an arbitrary line source and sink until EOF, a
/// `shutdown` request, or `shutdown_when` becomes true (the SIGTERM
/// path). Queued requests are drained before teardown; state is
/// compacted on the way out.
///
/// # Errors
/// Currently infallible (all I/O degradation is absorbed into
/// [`ServeStats`]); the `Result` keeps room for fatal setup errors.
pub fn serve<R>(
    config: ServeConfig,
    input: R,
    output: Box<dyn Write + Send>,
    shutdown_when: &AtomicBool,
) -> io::Result<ServeStats>
where
    R: BufRead + Send + 'static,
{
    let queue = config.queue_capacity.max(1);
    let tel = config.telemetry.clone();
    let writer = SharedWriter(Arc::new(Mutex::new(output)));
    let mut state = ServeState::new(config);
    // Each queued line carries its enqueue time so the worker can charge
    // the true queue wait to the request's latency windows.
    let (tx, rx) = mpsc::sync_channel::<(String, Instant)>(queue);
    let overloads = Arc::new(AtomicUsize::new(0));
    let depth = Arc::new(AtomicUsize::new(0));
    state.attach_queue_gauges(Arc::clone(&depth), Arc::clone(&overloads));

    // Reader thread: accept lines, enqueue them, and reject immediately
    // (never block, never buffer unboundedly) when the queue is full. It
    // is detached — a reader blocked on a quiet pipe must not prevent
    // daemon shutdown, and the process exits when the main loop returns.
    {
        let writer = writer.clone();
        let overloads = Arc::clone(&overloads);
        let depth = Arc::clone(&depth);
        let tel = tel.clone();
        std::thread::spawn(move || {
            for line in input.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                // Increment *before* try_send so a worker that dequeues
                // immediately always observes its matching increment —
                // the gauge can momentarily read one high, never drift.
                let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
                tel.gauge("queue.depth", d as f64);
                match tx.try_send((line, Instant::now())) {
                    Ok(()) => {}
                    Err(TrySendError::Full((line, _))) => {
                        depth.fetch_sub(1, Ordering::Relaxed);
                        overloads.fetch_add(1, Ordering::Relaxed);
                        tel.inc("serve.rejected_overload");
                        writer.send(&overload_response(&line));
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        });
    }

    // Dequeue bookkeeping shared by the main loop and the drain below:
    // update the live depth gauge and surface the measured queue wait.
    let dequeue = |line_at: (String, Instant)| {
        let (line, enqueued) = line_at;
        // The reader increments before try_send, so every dequeued line
        // has a matching increment; saturate anyway for safety.
        let _ = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            Some(d.saturating_sub(1))
        });
        tel.gauge("queue.depth", depth.load(Ordering::Relaxed) as f64);
        let wait = enqueued.elapsed();
        tel.observe("queue.wait_ms", wait.as_secs_f64() * 1e3);
        (line, wait)
    };

    loop {
        if shutdown_when.load(Ordering::Relaxed) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line_at) => {
                let (line, wait) = dequeue(line_at);
                if let Some(resp) = state.handle_line_at(&line, Some(wait)) {
                    writer.send(&resp);
                }
                if state.shutdown_requested() {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Graceful drain: finish everything already accepted into the queue.
    // A short timeout (not `try_recv`) catches lines the reader is
    // pushing right now; the iteration bound keeps shutdown prompt even
    // against an input that never stops producing.
    for _ in 0..queue {
        match rx.recv_timeout(Duration::from_millis(250)) {
            Ok(line_at) => {
                let (line, wait) = dequeue(line_at);
                if let Some(resp) = state.handle_line_at(&line, Some(wait)) {
                    writer.send(&resp);
                }
            }
            Err(_) => break,
        }
    }
    state.finish();
    let mut stats = state.stats();
    stats.rejected_overload += overloads.load(Ordering::Relaxed);
    Ok(stats)
}

/// Runs the daemon over stdin/stdout (the `yasksite serve` default).
///
/// # Errors
/// See [`serve`].
pub fn serve_stdin(config: ServeConfig, shutdown_when: &AtomicBool) -> io::Result<ServeStats> {
    serve(
        config,
        io::BufReader::new(io::stdin()),
        Box::new(io::stdout()),
        shutdown_when,
    )
}

/// Runs the daemon on a Unix socket: connections are served one at a
/// time, each as a line-delimited request/response stream. The socket
/// file is created fresh and removed on exit.
///
/// # Errors
/// Propagates socket bind/configuration errors; per-connection I/O
/// errors only end that connection.
#[cfg(unix)]
pub fn serve_unix(
    config: ServeConfig,
    socket: &std::path::Path,
    shutdown_when: &AtomicBool,
) -> io::Result<ServeStats> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;
    let mut state = ServeState::new(config);

    'daemon: while !shutdown_when.load(Ordering::Relaxed) && !state.shutdown_requested() {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
            Err(e) => return Err(e),
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let mut reader = io::BufReader::new(peer);
        let mut out = stream;
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) => break, // connection closed
                Ok(_) => {
                    if let Some(resp) = state.handle_line(&buf) {
                        let _ = writeln!(out, "{resp}");
                        let _ = out.flush();
                    }
                    if state.shutdown_requested() {
                        break 'daemon;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shutdown_when.load(Ordering::Relaxed) {
                        break 'daemon;
                    }
                }
                Err(_) => break,
            }
        }
    }
    state.finish();
    let _ = std::fs::remove_file(socket);
    Ok(state.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "yasksite-serve-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const NULL: Json = Json::Null;

    fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
        resp.get(key).unwrap_or(&NULL)
    }

    fn handle(state: &mut ServeState, line: &str) -> Json {
        let resp = state.handle_line(line).expect("non-empty line");
        parse(&resp).expect("response is valid JSON")
    }

    const TUNE: &str =
        r#"{"id":"t1","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}"#;

    #[test]
    fn malformed_and_unknown_requests_are_rejected_not_fatal() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(&mut state, "{nope");
        assert_eq!(field(&r, "ok"), &Json::Bool(false));
        assert_eq!(field(&r, "kind").as_str(), Some("bad_request"));

        let r = handle(&mut state, r#"{"id":"x","op":"frobnicate"}"#);
        assert_eq!(field(&r, "kind").as_str(), Some("bad_request"));
        assert_eq!(field(&r, "id").as_str(), Some("x"));

        let r = handle(
            &mut state,
            r#"{"id":"y","op":"tune","stencil":"nope","domain":"8x8x8"}"#,
        );
        assert!(field(&r, "error")
            .as_str()
            .unwrap()
            .contains("unknown stencil"));
        assert_eq!(state.stats().rejected_bad, 3);
        assert_eq!(state.stats().completed, 0);
    }

    #[test]
    fn tune_and_predict_answer_and_share_the_cache() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(&mut state, TUNE);
        assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert!(field(&r, "best").as_str().unwrap().starts_with("b="));
        assert!(field(&r, "best_mlups").as_f64().unwrap() > 0.0);
        assert_eq!(field(&r, "degraded"), &Json::Bool(false));
        assert!(!state.cache().is_empty(), "tune populated the shared cache");

        // The identical tune again is served from the cache.
        let r2 = handle(&mut state, TUNE);
        assert!(field(&r2, "cache_hits").as_u64().unwrap() > 0);
        assert_eq!(
            field(&r2, "best").as_str(),
            field(&r, "best").as_str(),
            "cached session picks the same winner"
        );

        let p = handle(
            &mut state,
            r#"{"id":"p1","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2,"block":"64x8x1"}"#,
        );
        assert_eq!(field(&p, "ok"), &Json::Bool(true));
        assert!(field(&p, "mlups").as_f64().unwrap() > 0.0);
        let p2 = handle(
            &mut state,
            r#"{"id":"p2","op":"predict","stencil":"heat-2d-r1","domain":"64x64x1","cores":2,"block":"64x8x1"}"#,
        );
        assert_eq!(field(&p2, "warm"), &Json::Bool(true), "second predict hits");
    }

    #[test]
    fn tenant_admission_rejects_when_exhausted_and_caps_sessions() {
        let config = ServeConfig {
            tenant_runs: Some(6),
            ..ServeConfig::default()
        };
        let mut state = ServeState::new(config);
        let tune = |id: &str| {
            format!(
                r#"{{"id":"{id}","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","tenant":"ci"}}"#
            )
        };
        let mut total_runs = 0usize;
        let mut rejected = false;
        for i in 0..6 {
            let r = handle(&mut state, &tune(&format!("t{i}")));
            if field(&r, "ok") == &Json::Bool(true) {
                total_runs += field(&r, "runs_used").as_u64().unwrap() as usize;
            } else {
                assert_eq!(
                    field(&r, "kind").as_str(),
                    Some("tenant_budget_exhausted"),
                    "{r:?}"
                );
                rejected = true;
                break;
            }
        }
        assert!(rejected, "the tenant cap must eventually reject");
        assert!(total_runs <= 6, "sessions never exceed the tenant cap");

        // A different tenant still gets service.
        let r = handle(
            &mut state,
            r#"{"id":"o","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","tenant":"other"}"#,
        );
        assert_eq!(field(&r, "ok"), &Json::Bool(true));
    }

    #[test]
    fn panicking_backend_degrades_to_analytic_and_daemon_survives() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(
            &mut state,
            r#"{"id":"boom","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","faults":{"seed":7,"panic_prob":1.0}}"#,
        );
        assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(field(&r, "degraded"), &Json::Bool(true));
        assert!(field(&r, "best_mlups").as_f64().unwrap() > 0.0);
        assert_eq!(state.stats().degraded, 1);

        // The daemon still serves the next request normally.
        let r = handle(&mut state, TUNE);
        assert_eq!(field(&r, "ok"), &Json::Bool(true));
        assert_eq!(field(&r, "degraded"), &Json::Bool(false));
    }

    #[test]
    fn expired_deadline_cancels_trials_into_fallbacks() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(
            &mut state,
            r#"{"id":"d","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","strategy":"empirical","deadline_ms":0}"#,
        );
        assert_eq!(field(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert!(
            field(&r, "deadline_fallbacks").as_u64().unwrap() > 0,
            "an already-expired deadline cancels every trial: {r:?}"
        );
        assert_eq!(field(&r, "runs_used").as_u64(), Some(0));
    }

    #[test]
    fn status_snapshot_reports_queue_latency_tiers_and_drift() {
        let mut state = ServeState::new(ServeConfig::default());
        let _ = handle(&mut state, TUNE);
        let r = handle(&mut state, r#"{"id":"st","op":"status"}"#);
        assert_eq!(field(&r, "op").as_str(), Some("status"));
        let check = crate::status::validate_status_json(&r).expect("snapshot validates");
        assert!(
            check.latency_samples >= 1,
            "the tune request left latency samples in the window: {r:?}"
        );
        assert_eq!(field(&r, "schema").as_u64(), Some(1));
        assert_eq!(field(&r, "queue_capacity").as_u64(), Some(16));
        let Json::Obj(tiers) = field(&r, "tier_ran") else {
            panic!("tier_ran must be an object: {r:?}");
        };
        assert_eq!(
            tiers.iter().map(|(_, n)| n.as_u64().unwrap()).sum::<u64>(),
            1,
            "one tuning session → one tier_ran entry: {tiers:?}"
        );

        let p = handle(&mut state, r#"{"id":"pm","op":"status","format":"prom"}"#);
        assert_eq!(field(&p, "ok"), &Json::Bool(true));
        assert!(field(&p, "content_type")
            .as_str()
            .unwrap()
            .starts_with("text/plain"));
        let body = field(&p, "body").as_str().expect("prom body is a string");
        let samples = crate::status::validate_prometheus_text(body).expect("exposition validates");
        assert!(samples > 10, "exposition has real content: {samples}");
        assert!(body.contains("yasksite_queue_depth"));
        assert!(body.contains("yasksite_drift_suspects"));
        assert!(body.contains("yasksite_request_latency_ms{kind=\"tune\""));
        assert!(body.contains("yasksite_tier_ran_total{tier="));
    }

    #[test]
    fn tune_response_names_the_winning_tier() {
        let mut state = ServeState::new(ServeConfig::default());
        let r = handle(&mut state, TUNE);
        let tier = field(&r, "tier").as_str().expect("tier field present");
        assert!(
            ["folded", "scalar", "tape", "generic"].contains(&tier),
            "{r:?}"
        );
        assert!(!field(&r, "tier_reason").as_str().unwrap().is_empty());
        assert!(matches!(field(&r, "tier_degraded"), Json::Bool(_)));
    }

    #[test]
    fn head_sampling_bounds_the_trace_but_never_changes_responses() {
        let run = |trace_sample: Option<u64>| {
            let (tel, sink) = Telemetry::recording(Level::Debug);
            let mut state = ServeState::new(ServeConfig {
                trace_sample,
                telemetry: tel.clone(),
                ..ServeConfig::default()
            });
            let mut responses = Vec::new();
            for i in 0..3 {
                let line = format!(
                    r#"{{"id":"t{i}","op":"tune","stencil":"heat-2d-r1","domain":"64x64x1","cores":2}}"#
                );
                responses.push(state.handle_line(&line).unwrap());
            }
            tel.finish();
            let starts = sink
                .lines()
                .iter()
                .filter(|l| l.contains("\"ev\":\"request_start\""))
                .count();
            (responses, starts)
        };
        let (full, full_starts) = run(None);
        let (sampled, sampled_starts) = run(Some(1));
        assert_eq!(full, sampled, "sampling must never change responses");
        assert_eq!(full_starts, 3);
        assert_eq!(
            sampled_starts, 1,
            "only the first request is inside the head-sampling budget"
        );
    }

    #[test]
    fn status_file_lands_in_the_state_dir() {
        let dir = tmp_dir("statusfile");
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let _ = handle(&mut state, TUNE);
        let text = std::fs::read_to_string(dir.join("status.json"))
            .expect("daemon rewrote status.json after the request");
        let j = parse(&text).expect("status.json is valid JSON");
        crate::status::validate_status_json(&j).expect("status.json validates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_surfaces_calibration_from_the_state_dir() {
        let dir = tmp_dir("calibrated");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = crate::calibrate::CalibrateConfig {
            synthetic: true,
            quick: true,
            ..crate::calibrate::CalibrateConfig::new(7)
        };
        let outcome = crate::calibrate::calibrate(&cfg, &Telemetry::disabled())
            .expect("synthetic calibration is total");
        std::fs::write(
            dir.join(CALIBRATED_MACHINE_FILE),
            yasksite_arch::format_machine(&outcome.machine),
        )
        .unwrap();
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let r = handle(&mut state, r#"{"id":"c","op":"status"}"#);
        let cal = field(&r, "calibration");
        assert_eq!(cal.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(
            cal.get("probes").and_then(Json::as_u64),
            Some(crate::calibrate::PROBE_NAMES.len() as u64)
        );
        assert!(cal.get("age_secs").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(field(&r, "corrected_keys").as_u64(), Some(0));
        crate::status::validate_status_json(&r).expect("calibrated status validates");

        // A garbage machine file degrades to "no calibration", not a crash.
        std::fs::write(dir.join(CALIBRATED_MACHINE_FILE), "not a machine file").unwrap();
        let mut state = ServeState::new(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let r = handle(&mut state, r#"{"id":"c2","op":"status"}"#);
        assert!(r.get("calibration").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_and_shutdown_round_trip() {
        let mut state = ServeState::new(ServeConfig::default());
        let _ = handle(&mut state, TUNE);
        let r = handle(&mut state, r#"{"id":"r","op":"report"}"#);
        assert_eq!(field(&r, "ok"), &Json::Bool(true));
        assert_eq!(field(&r, "completed").as_u64(), Some(1));
        assert!(field(&r, "cache_entries").as_u64().unwrap() > 0);

        assert!(!state.shutdown_requested());
        let r = handle(&mut state, r#"{"id":"s","op":"shutdown"}"#);
        assert_eq!(field(&r, "draining"), &Json::Bool(true));
        assert!(state.shutdown_requested());
    }

    #[test]
    fn overload_response_carries_the_request_id() {
        let r = parse(&overload_response(r#"{"id":"q9","op":"tune"}"#)).unwrap();
        assert_eq!(field(&r, "ok"), &Json::Bool(false));
        assert_eq!(field(&r, "kind").as_str(), Some("overloaded"));
        assert_eq!(field(&r, "id").as_str(), Some("q9"));
        // Garbage lines still get a well-formed rejection.
        let r = parse(&overload_response("{oops")).unwrap();
        assert_eq!(field(&r, "kind").as_str(), Some("overloaded"));
    }

    /// An output sink tests can read back after the daemon exits.
    #[derive(Clone, Default)]
    struct VecOut(Arc<Mutex<Vec<u8>>>);

    impl Write for VecOut {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run_serve(config: ServeConfig, script: &str) -> (ServeStats, Vec<Json>) {
        let out = VecOut::default();
        let shutdown = AtomicBool::new(false);
        let stats = serve(
            config,
            io::Cursor::new(script.to_string()),
            Box::new(out.clone()),
            &shutdown,
        )
        .expect("serve runs");
        let bytes = out.0.lock().unwrap().clone();
        let lines = String::from_utf8(bytes).unwrap();
        let responses = lines
            .lines()
            .map(|l| parse(l).expect("every response line is JSON"))
            .collect();
        (stats, responses)
    }

    #[test]
    fn serve_loop_processes_to_eof_and_persists_for_warm_restart() {
        let dir = tmp_dir("loop");
        let config = ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let script = format!("{TUNE}\n{}\n", r#"{"id":"r","op":"report"}"#);
        let (stats, responses) = run_serve(config.clone(), &script);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected_overload, 0);
        assert_eq!(responses.len(), 2);
        assert_eq!(field(&responses[0], "warm_loaded").as_u64(), Some(0));
        assert!(field(&responses[1], "store_predictions").as_u64().unwrap() > 0);

        // Restart against the same state dir: the first tune warm-loads.
        let (stats2, responses2) = run_serve(config, &script);
        assert_eq!(stats2.completed, 2);
        assert!(
            field(&responses2[0], "warm_loaded").as_u64().unwrap() > 0,
            "restart warm-starts from the journals: {:?}",
            responses2[0]
        );
        assert!(field(&responses2[0], "cache_hits").as_u64().unwrap() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_request_drains_queued_work_before_exit() {
        // The shutdown line arrives before the last tune is processed;
        // the drain still answers everything already accepted.
        let script = format!(
            "{}\n{}\n{}\n",
            r#"{"id":"s","op":"shutdown"}"#, TUNE, r#"{"id":"r","op":"report"}"#
        );
        let (stats, responses) = run_serve(ServeConfig::default(), &script);
        assert_eq!(stats.received, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(responses.len(), 3);
        assert_eq!(field(&responses[0], "draining"), &Json::Bool(true));
        assert_eq!(field(&responses[1], "ok"), &Json::Bool(true));
    }
}
