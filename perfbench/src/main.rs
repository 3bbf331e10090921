//! Wall-clock benchmark of the post-variational pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` for why each exists), checks its
//! outputs, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, measured with tracing off; with
//! `--trace 1` they are the per-layer set from a traced run, whose spans
//! are also written to `perfbench/traces/<workload>-<seed>.jsonl`.

mod paper;
mod serving;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("train_loss", "nat"),
    ("train_acc", "fraction"),
    ("test_acc", "fraction"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports each one; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qdata.synth_s", "s"),
    ("pvqnn.generate_s", "s"),
    ("pvqnn.rows_per_s", "1/s"),
    ("ml.fit_s", "s"),
    ("ml.fit_share", "fraction"),
    ("ml.predict_us_per_row", "us"),
    ("hpcq.execute_batch_s", "s"),
    ("hpcq.jobs_per_s", "1/s"),
    ("hpcq.jobs", "count"),
    ("hpcq.failed_jobs", "count"),
    ("hpcq.retries", "count"),
    ("qsim.kernel_s", "s"),
    ("qsim.amp_ops", "count"),
    ("serve.submit_us", "us"),
    ("serve.cache_us_per_lookup", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.unique_simulations", "count"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.rejected_queue_full", "count"),
    ("serve.rejected_shed", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.rejected_other", "count"),
    ("rayon.steal_ops", "count"),
    ("rayon.tasks_moved", "count"),
    ("rayon.max_live_workers", "count"),
    ("tail.p99_ms", "ms"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.invalid_windows", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("qdata.share", "fraction"),
    ("pvqnn.share", "fraction"),
    ("ml.share", "fraction"),
    ("hpcq.share", "fraction"),
    ("serve.share", "fraction"),
    ("loadgen.share", "fraction"),
    ("bench.share", "fraction"),
];

/// Layers whose `<layer>.share` the traced run reports.
pub const SHARE_LAYERS: &[&str] = &["qdata", "pvqnn", "ml", "hpcq", "serve", "loadgen", "bench"];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["table4_fit", "table3_pool", "serve_hot"];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs did not check out; empty when correct.
    pub errors: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds a batch of operations to the attempted/failed tally.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Run parameters from the command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the run started; load rounds end `seconds` after it.
    pub started: std::time::Instant,
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        started: std::time::Instant::now(),
    })
}

/// Derives the per-layer shares from the traced run's spans.
fn add_shares(out: &mut Outcome, spans: &[trace::Span], root: u64) {
    let self_times = trace::layer_self_times(spans, root);
    // Replay spans time the harness's own re-measurements; they are not
    // part of the workload, so they stay out of the shares.
    let total: f64 = SHARE_LAYERS.iter().filter_map(|l| self_times.get(l)).sum();
    for layer in SHARE_LAYERS {
        let t = self_times.get(layer).copied().unwrap_or(0.0);
        let name: &'static str = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_suffix(".share") == Some(layer))
            .expect("every share layer is declared");
        out.layers
            .insert(name, if total > 0.0 { t / total } else { 0.0 });
    }
}

fn json_result(
    out: &Outcome,
    declared: &[(&str, &str)],
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let body: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(cfg.trace);
    rayon::reset_max_live_workers();
    let steals0 = rayon::executor_steal_stats();
    let root = trace::reserve();
    let root_start = trace::now_ns();

    let mut out = match cfg.workload.as_str() {
        "table4_fit" => paper::table4_fit(&cfg, root),
        "table3_pool" => paper::table3_pool(&cfg, root),
        "serve_hot" => serving::serve_hot(&cfg, root),
        _ => unreachable!("workload validated by parse_args"),
    };

    out.e2e.insert("peak_rss_mb", util::peak_rss_mb());
    let steals1 = rayon::executor_steal_stats();
    out.layers
        .insert("rayon.steal_ops", (steals1.0 - steals0.0) as f64);
    out.layers
        .insert("rayon.tasks_moved", (steals1.1 - steals0.1) as f64);
    out.layers
        .insert("rayon.max_live_workers", rayon::max_live_workers() as f64);
    trace::close(root, "bench.run", None, root_start);
    let spans = trace::drain();
    out.layers.insert("trace.spans", spans.len() as f64);
    add_shares(&mut out, &spans, root);

    let (declared, metrics) = if cfg.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            out.errors.push(format!("writing {}: {e}", path.display()));
        }
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    for (name, _) in declared {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => out.errors.push(format!("metric {name} is {v}")),
            None => out.errors.push(format!("metric {name} was not measured")),
        }
    }
    if out.attempted == 0 {
        out.errors.push("no operation was attempted".into());
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut metrics = metrics.clone();
    for (name, _) in declared {
        let v = metrics.entry(name).or_insert(0.0);
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    println!("{}", json_result(&out, declared, &metrics));
    ExitCode::SUCCESS
}
