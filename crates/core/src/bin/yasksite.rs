//! The `yasksite` command-line tool: predict, measure, tune and generate
//! stencil kernels against the built-in machine models. Run with no
//! arguments for usage.

use std::process::ExitCode;

use yasksite::cli::{
    machine_from_flags, params_from_flags, parse_flags, parse_triple, request_from_flags,
    serve_config_from_flags, stencil_by_name, telemetry_from_flags, top_options_from_flags,
    trials_from_flags, ErrorReport, TopOptions, USAGE,
};
use yasksite::telemetry::json::Json;
use yasksite::telemetry::Telemetry;
use yasksite::{
    calibrate, check_calibration, render_report, render_top, validate_prometheus_text,
    validate_status_json, CalibrateConfig, Provenance, SearchSpace, Solution,
};
use yasksite_arch::{format_machine, machine_table, parse_machine, Machine};
use yasksite_stencil::{paper_suite, stencil_table};

fn run(args: &[String], tel: &Telemetry) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let Some(cmd) = pos.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "machines" => {
            println!(
                "{}",
                machine_table(&[Machine::cascade_lake(), Machine::rome(), Machine::host()])
            );
            Ok(())
        }
        "stencils" => {
            println!("{}", stencil_table(&paper_suite()));
            Ok(())
        }
        "report" => {
            let path = pos
                .get(1)
                .map(String::as_str)
                .or_else(|| flags.get("trace").map(String::as_str))
                .ok_or_else(|| {
                    "usage: yasksite report <trace.jsonl> [--baseline <trace.jsonl>]".to_string()
                })?;
            let trace = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace file '{path}': {e}"))?;
            let baseline = flags
                .get("baseline")
                .map(|b| {
                    std::fs::read_to_string(b)
                        .map_err(|e| format!("cannot read trace file '{b}': {e}"))
                })
                .transpose()?;
            print!("{}", render_report(&trace, baseline.as_deref())?);
            Ok(())
        }
        "serve" => {
            let (mut config, socket) = serve_config_from_flags(&flags)?;
            config.telemetry = tel.clone();
            install_signal_handlers();
            let stats = match socket {
                Some(path) => serve_on_socket(config, &path),
                None => yasksite::serve_stdin(config, yasksite::shutdown_flag()),
            }
            .map_err(|e| format!("serve failed: {e}"))?;
            // Stdout carries only JSON responses; the exit summary goes
            // to stderr.
            eprintln!(
                "serve: {} received, {} completed, {} overloaded, \
                 {} budget-rejected, {} degraded, {} persist errors",
                stats.received,
                stats.completed,
                stats.rejected_overload,
                stats.rejected_budget,
                stats.degraded,
                stats.persist_errors
            );
            Ok(())
        }
        "calibrate" => run_calibrate(&pos, &flags, tel),
        "top" => {
            let target = pos.get(1).map(String::as_str).ok_or_else(|| {
                "usage: yasksite top <socket|state-dir> [--once] [--check] \
                 [--interval SECS] [--format json|prom]"
                    .to_string()
            })?;
            let opts = top_options_from_flags(&flags)?;
            run_top(target, &opts)
        }
        "predict" | "measure" | "codegen" | "tune" => {
            let machine = machine_from_flags(&flags).map_err(|e| e.to_string())?;
            let sname = flags
                .get("stencil")
                .ok_or_else(|| "--stencil <name> is required".to_string())?;
            let stencil =
                stencil_by_name(sname).ok_or_else(|| format!("unknown stencil '{sname}'"))?;
            let domain = parse_triple(
                flags
                    .get("domain")
                    .ok_or_else(|| "--domain AxBxC is required".to_string())?,
            )?;
            let sol = Solution::new(stencil, domain, machine.clone());
            match cmd.as_str() {
                "predict" => {
                    let params = params_from_flags(&flags, domain, &machine)?;
                    let cores = params.threads;
                    let p = sol.predict(&params, cores);
                    println!("configuration: {params} on {}", machine.tag());
                    println!("ECM: {}", p.ecm.summary());
                    println!(
                        "prediction @ {cores} cores: {:.0} MLUP/s, {:.4} s/sweep{}",
                        p.mlups,
                        p.seconds_per_sweep,
                        if p.wavefront_effective {
                            " (wavefront active)"
                        } else {
                            ""
                        }
                    );
                }
                "measure" => {
                    let params = params_from_flags(&flags, domain, &machine)?;
                    let m = sol.measure(&params).map_err(|e| e.to_string())?;
                    println!(
                        "measured ({}): {:.0} MLUP/s, {:.4} s/sweep",
                        if m.simulated { "simulated" } else { "native" },
                        m.mlups,
                        m.seconds_per_sweep
                    );
                    if let Some(st) = m.stats {
                        println!(
                            "memory traffic: {:.1} MB read, {:.1} MB written",
                            st.mem_read_lines as f64 * 64.0 / 1e6,
                            st.mem_write_lines as f64 * 64.0 / 1e6
                        );
                    }
                }
                "codegen" => {
                    let params = params_from_flags(&flags, domain, &machine)?;
                    print!("{}", sol.codegen(&params).source);
                }
                "tune" => {
                    let req = request_from_flags(&flags)?.telemetry(tel.clone());
                    let space = SearchSpace::standard(sol.stencil(), domain, &machine);
                    let r = sol
                        .tune_space_with(&space, &req)
                        .map_err(|e| e.to_string())?;
                    println!("best: {}  ({:.0} MLUP/s)", r.best, r.best_score);
                    println!(
                        "tier: {} — {}{}",
                        r.tier,
                        r.tier_reason.as_str(),
                        if r.tier_degraded() {
                            "  [degraded]"
                        } else {
                            ""
                        }
                    );
                    if matches!(r.best_provenance, Some(p) if p.is_fallback()) {
                        println!(
                            "warning: the winner rests on the analytic fallback \
                             (no successful measurement)"
                        );
                    }
                    println!("cost: {}", r.cost.summary());
                    if r.trials.trials > 0 {
                        println!("trials: {}", r.trials);
                    }
                    if !r.drift.is_empty() {
                        print!("{}", r.drift.render_table());
                    }
                    if let Some(prof) = &r.profile {
                        print!("{}", prof.render());
                    }
                    println!("top candidates:");
                    for (i, (p, s)) in r.ranked.iter().take(5).enumerate() {
                        let tag = match r.provenances.get(i) {
                            Some(pr) if pr.is_fallback() => "  [predicted fallback]",
                            Some(Provenance::Retried { .. }) => "  [retried]",
                            _ => "",
                        };
                        println!("  {p:<40} {s:>8.0} MLUP/s{tag}");
                    }
                    if flags.contains_key("metrics") {
                        if let Some(snap) = tel.metrics_snapshot() {
                            println!();
                            print!("{}", snap.render());
                        }
                        let spans = tel.span_report();
                        if !spans.is_empty() {
                            println!();
                            print!("{spans}");
                        }
                    }
                }
                _ => unreachable!(),
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

/// The `yasksite calibrate` command: measure the host into a calibrated
/// machine file, or (with `--check`) validate one that was emitted
/// earlier.
fn run_calibrate(
    pos: &[String],
    flags: &std::collections::HashMap<String, String>,
    tel: &Telemetry,
) -> Result<(), String> {
    if flags.contains_key("check") {
        let path = pos
            .get(1)
            .map(String::as_str)
            .ok_or_else(|| "usage: yasksite calibrate --check <machine-file>".to_string())?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read machine file '{path}': {e}"))?;
        let machine = parse_machine(&text).map_err(|e| e.to_string())?;
        let c = check_calibration(&machine)?;
        println!(
            "calibration ok: {} probes, {} samples, {} rejected outliers, \
             {} fallback probes",
            c.probes, c.samples, c.rejected, c.fallback_probes
        );
        return Ok(());
    }
    let seed = flags
        .get("seed")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'")))
        .transpose()?
        .unwrap_or(42);
    let (trial, budget) = trials_from_flags(flags)?;
    let mut cfg = CalibrateConfig::new(seed);
    // `trials_from_flags` defaults to the legacy single-shot protocol;
    // calibration wants the robust default unless the user asked
    // otherwise.
    if flags.contains_key("samples")
        || flags.contains_key("warmup")
        || flags.contains_key("retries")
    {
        cfg.trial = trial;
    }
    cfg.budget = budget;
    cfg.quick = flags.contains_key("quick");
    cfg.synthetic = flags.contains_key("synthetic");
    let out = calibrate(&cfg, tel).map_err(|e| e.to_string())?;
    let text = format_machine(&out.machine);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| format!("cannot write machine file '{path}': {e}"))?;
            println!("calibrated machine written to {path}");
            print!("{}", out.render_table());
            println!("cost: {}", out.cost.summary());
        }
        None => {
            // Stdout carries the machine file; the evidence goes to
            // stderr so the output stays pipeable.
            print!("{text}");
            eprint!("{}", out.render_table());
            eprintln!("cost: {}", out.cost.summary());
        }
    }
    if flags.contains_key("metrics") {
        if let Some(snap) = tel.metrics_snapshot() {
            println!();
            print!("{}", snap.render());
        }
    }
    Ok(())
}

/// Routes SIGTERM and SIGINT into the daemon's shutdown flag so `yasksite
/// serve` drains in-flight requests, snapshots its state and exits 0
/// instead of dying mid-write. The handler only stores an atomic — the
/// signal-safety minimum.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        yasksite::shutdown_flag().store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

#[cfg(unix)]
fn serve_on_socket(
    config: yasksite::ServeConfig,
    path: &std::path::Path,
) -> std::io::Result<yasksite::ServeStats> {
    yasksite::serve_unix(config, path, yasksite::shutdown_flag())
}

#[cfg(not(unix))]
fn serve_on_socket(
    _config: yasksite::ServeConfig,
    _path: &std::path::Path,
) -> std::io::Result<yasksite::ServeStats> {
    Err(std::io::Error::other(
        "--socket requires a Unix platform; use stdin mode instead",
    ))
}

/// Fetches one status response line: over the daemon's Unix socket when
/// `target` is a socket, or from `<state-dir>/status.json` when it is a
/// directory. The Prometheus exposition needs a live daemon — the status
/// file only carries the JSON snapshot.
fn fetch_status(target: &str, prometheus: bool) -> Result<String, String> {
    let path = std::path::Path::new(target);
    if path.is_dir() {
        if prometheus {
            return Err("--format prom needs a live socket, not a state dir".to_string());
        }
        let file = path.join("status.json");
        if !file.exists() {
            // A state dir without a snapshot is an expected state, not an
            // io accident: the daemon was never started against this dir,
            // or the dir predates status files.
            return Err(format!(
                "no status.json in state dir '{}' (daemon not started, or the \
                 state dir predates status snapshots)",
                path.display()
            ));
        }
        return std::fs::read_to_string(&file).map_err(|e| {
            format!(
                "cannot read '{}': {e} (is the daemon running?)",
                file.display()
            )
        });
    }
    fetch_status_from_socket(path, prometheus)
}

#[cfg(unix)]
fn fetch_status_from_socket(path: &std::path::Path, prometheus: bool) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let mut stream = UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to '{}': {e}", path.display()))?;
    let request = if prometheus {
        "{\"id\":\"top\",\"op\":\"status\",\"format\":\"prom\"}\n"
    } else {
        "{\"id\":\"top\",\"op\":\"status\"}\n"
    };
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send status request: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read status response: {e}"))?;
    if line.trim().is_empty() {
        return Err("daemon closed the connection without answering".to_string());
    }
    Ok(line)
}

#[cfg(not(unix))]
fn fetch_status_from_socket(path: &std::path::Path, _prometheus: bool) -> Result<String, String> {
    Err(format!(
        "'{}' is not a state directory, and sockets need a Unix platform",
        path.display()
    ))
}

/// Parses one fetched status line and extracts the Prometheus body when
/// the exposition was requested (the daemon wraps it in a JSON envelope).
fn parse_status(line: &str, prometheus: bool) -> Result<(Json, Option<String>), String> {
    let parsed = yasksite::telemetry::json::parse(line.trim())
        .map_err(|e| format!("status response is not valid JSON: {e}"))?;
    if !prometheus {
        return Ok((parsed, None));
    }
    let body = parsed
        .get("body")
        .and_then(Json::as_str)
        .ok_or("prom status response carries no 'body' field")?
        .to_string();
    Ok((parsed, Some(body)))
}

/// The `yasksite top` command: live dashboard, single frame, raw
/// Prometheus dump, or `--check` validation of the daemon's output.
fn run_top(target: &str, opts: &TopOptions) -> Result<(), String> {
    loop {
        let line = fetch_status(target, opts.prometheus)?;
        let (parsed, prom_body) = parse_status(&line, opts.prometheus)?;
        if opts.check {
            if let Some(body) = &prom_body {
                let samples = validate_prometheus_text(body)
                    .map_err(|e| format!("prometheus exposition invalid: {e}"))?;
                println!("prometheus ok: {samples} samples");
            } else {
                let c = validate_status_json(&parsed)
                    .map_err(|e| format!("status snapshot invalid: {e}"))?;
                println!(
                    "status ok: {} kinds, {} latency samples, queue depth {}, \
                     {} drift suspects",
                    c.kinds, c.latency_samples, c.queue_depth, c.drift_suspects
                );
            }
            return Ok(());
        }
        if let Some(body) = prom_body {
            print!("{body}");
        } else {
            if !opts.once {
                // Clear the terminal between frames for a stable dashboard.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top(&parsed, target));
        }
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(opts.interval_secs));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The telemetry handle is built before dispatch so even failures land
    // in the trace. A flag-parse failure here is re-detected (and
    // reported) by `run` below with a disabled handle.
    let tel = match parse_flags(&args).and_then(|(_, flags)| telemetry_from_flags(&flags)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}", ErrorReport::classify(&e).render());
            return ExitCode::FAILURE;
        }
    };
    match run(&args, &tel) {
        Ok(()) => {
            tel.finish();
            ExitCode::SUCCESS
        }
        Err(e) => {
            tel.error(&e);
            tel.finish();
            eprintln!("{}", ErrorReport::classify(&e).render());
            ExitCode::FAILURE
        }
    }
}
