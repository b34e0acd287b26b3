//! One benchmark run: set-up, timed passes, checks, metrics.

use crate::host;
use crate::ledger::{self, Ledger};
use crate::stats::{median, percentile, run_percentile};
use crate::workload::{Pass, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-up repeats past [`SETUP_REPS`] until their total reaches this many
/// seconds (or [`SETUP_MAX_REPS`]), so a set-up of a few milliseconds is
/// still a median over a steady sample.
pub const SETUP_MIN_S: f64 = 0.5;
/// Most set-ups per run.
pub const SETUP_MAX_REPS: usize = 100;
/// Fewest passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p99", "ms"),
    ("peak_rss_mb", "MiB"),
    ("races_confirmed", "count"),
    ("succeeded_pct", "%"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("lang.compile_ms", "ms"),
    ("lang.lower_ms", "ms"),
    ("lang.self_ms", "ms"),
    ("core.synth_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.pairs", "count"),
    ("core.tests", "count"),
    ("screen.ms", "ms"),
    ("screen.self_ms", "ms"),
    ("screen.discharged", "count"),
    ("detect.self_ms", "ms"),
    ("detect.test_ms.p50", "ms"),
    ("detect.test_ms.p90", "ms"),
    ("detect.trials", "count"),
    ("detect.confirm_trials", "count"),
    ("detect.confirm_yield", "ratio"),
    ("vm.decisions", "count"),
    ("vm.preemptions", "count"),
    ("vm.ns_per_decision", "ns"),
    ("explore.forks", "count"),
    ("explore.probes", "count"),
    ("explore.snapshot_bytes", "bytes"),
    ("explore.prefix_steps_saved", "count"),
    ("explore.prefix_rng_fallbacks", "count"),
    ("serve.self_ms", "ms"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.stage.compile_ms.p50", "ms"),
    ("serve.stage.synth_ms.p50", "ms"),
    ("serve.stage.detect_ms.p50", "ms"),
    ("front_pct", "%"),
    ("host.steal_pct", "%"),
    ("host.cpu_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: e2e-bench --workload corpus|lattice|serve [--seed N] \
[--seconds S] [--trace 0|1]\n       e2e-bench --emit-expected";

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: crate::inputs::DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
        let bad = || format!("{flag}: bad value `{val}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => out.workload = val.clone(),
            "--seed" => out.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = val.parse().map_err(|_| bad())?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if out.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(out)
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (classes or jobs, over every pass).
    pub attempted: u64,
    /// Operations that failed a check, panicked or were refused.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}

/// Where runs write span dumps and the serve port file.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = out_dir();
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let mut notes = Vec::new();

    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let w = Workload::setup(&args.workload, args.seed, &scratch)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(old) = workload.replace(w) {
            old.discard()?;
        }
    }
    let mut workload = workload.expect("at least one set-up");

    let jiffies0 = host::cpu_jiffies();
    let cpu0 = host::cpu_seconds();
    let window = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let enough = plain.len() >= MIN_PASSES && (!args.trace || !traced.is_empty());
        if enough && window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // The traced run interleaves untraced and traced passes so both
        // see the same host phases.
        let trace_this = args.trace && traced.len() < plain.len();
        let pass = workload.pass(&Ledger::new(trace_this))?;
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }
    let steal = host::steal_pct(jiffies0, host::cpu_jiffies());
    let cpu_s = host::cpu_seconds() - cpu0;
    let peak_rss = host::peak_rss_mb();
    let late_failures = workload.finish()?;

    let all = || plain.iter().chain(traced.iter());
    let attempted: u64 = all().map(|p| p.attempted).sum();
    let mut failures: Vec<String> = all().flat_map(|p| p.failures.iter().cloned()).collect();
    failures.extend(late_failures);
    let races = plain[0].races_confirmed;
    if let Some(p) = all().find(|p| p.races_confirmed != races) {
        failures.push(format!(
            "races_confirmed differs between passes: {races} vs {}",
            p.races_confirmed
        ));
    }
    let failed = failures.len() as u64;

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    notes.push(format!(
        "workload {} seed {}: {} untraced pass(es), {} traced, wall_s {:?}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        walls
    ));
    notes.push(format!(
        "setup_s: {} set-up(s), min {:.6} s, max {:.6} s",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max)
    ));
    notes.push(format!(
        "host: steal_pct={steal:.3} cpu_s={cpu_s:.3} window_s={:.3}",
        window.elapsed().as_secs_f64()
    ));
    for f in failures.iter().take(10) {
        notes.push(format!("FAILED {f}"));
    }

    let metrics = if args.trace {
        per_layer(args, &plain, &traced, steal, cpu_s, &mut notes)?
    } else {
        let verdicts: Vec<&[f64]> = plain.iter().map(|p| p.verdict_ms.as_slice()).collect();
        let mut pct = |q: f64| -> Result<f64, String> {
            let p = run_percentile(&verdicts, q)
                .ok_or_else(|| format!("verdict_ms p{}: too few samples", q * 100.0))?;
            let how = if p.group == 0 {
                "per-item medians".to_string()
            } else {
                format!("groups of {} pooled passes", p.group)
            };
            let (samples, beyond) = (p.readings[0].samples, p.readings[0].beyond);
            notes.push(format!(
                "verdict_ms.p{} = {:.4} ms: median of {} reading(s) over {how}, \
                 {samples} samples and {beyond} beyond each",
                (q * 100.0).round(),
                p.value,
                p.readings.len(),
            ));
            Ok(p.value)
        };
        let values = [
            median(&setup_s).unwrap_or(0.0),
            median(&walls).unwrap_or(0.0),
            pct(0.50)?,
            pct(0.99)?,
            peak_rss,
            races as f64,
            100.0 * attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, u.to_string()))
            .collect()
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Per-layer metrics from the traced passes: each metric is its median
/// over the traced passes; `trace.overhead_pct` compares their median
/// wall time with the untraced passes'.
fn per_layer(
    args: &Args,
    plain: &[Pass],
    traced: &[Pass],
    steal: f64,
    cpu_s: f64,
    notes: &mut Vec<String>,
) -> Result<Vec<(String, f64, String)>, String> {
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    for p in traced {
        let mut m = p.layer.clone();
        let self_ns = ledger::self_time_by_layer(&p.spans);
        let own = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64;
        let total_ms = |name: &str| ledger::total_ns(&p.spans, name) as f64 / 1e6;
        m.insert("lang.compile_ms".into(), total_ms("lang.compile"));
        m.insert("lang.lower_ms".into(), total_ms("lang.lower"));
        m.insert("core.synth_ms".into(), total_ms("core.synth"));
        m.insert("screen.ms".into(), total_ms("screen.pairs"));
        for layer in ["lang", "core", "screen", "detect", "serve"] {
            m.insert(format!("{layer}.self_ms"), own(layer) / 1e6);
        }
        let front = own("lang") + own("core") + own("screen");
        m.insert("front_pct".into(), 100.0 * front / (p.wall_s * 1e9));
        let decisions = m.get("vm.decisions").copied().unwrap_or(0.0);
        m.insert(
            "vm.ns_per_decision".into(),
            if decisions > 0.0 {
                own("detect") / decisions
            } else {
                0.0
            },
        );
        per_pass.push(m);
    }
    let test_ms: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.test_ms.iter().copied())
        .collect();
    let mut test_pct = |q: f64| -> Result<f64, String> {
        if test_ms.is_empty() {
            // The layer is not observable from outside on this workload.
            return Ok(0.0);
        }
        let p = percentile(&test_ms, q)
            .ok_or_else(|| format!("detect.test_ms: {} samples are too few", test_ms.len()))?;
        notes.push(format!(
            "detect.test_ms.p{} = {:.4} ms over {} samples ({} beyond)",
            (q * 100.0).round(),
            p.value,
            p.samples,
            p.beyond
        ));
        Ok(p.value)
    };
    let p50 = test_pct(0.50)?;
    let p90 = test_pct(0.90)?;
    // Per-class detect time exists on `corpus` only; it goes to the notes.
    if let Some(first) = per_pass.first() {
        let classes: Vec<String> = first
            .keys()
            .filter_map(|k| k.strip_prefix("detect.class_s."))
            .map(|c| {
                let key = format!("detect.class_s.{c}");
                let vals: Vec<f64> = per_pass
                    .iter()
                    .filter_map(|m| m.get(&key).copied())
                    .collect();
                format!("{c}={:.4}", median(&vals).unwrap_or(0.0))
            })
            .collect();
        if !classes.is_empty() {
            notes.push(format!("detect.class_s: {}", classes.join(" ")));
        }
    }

    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    if let Some(first) = traced.first() {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, ledger::to_jsonl(&first.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!(
            "wrote {} span(s) of the first traced pass to {}",
            first.spans.len(),
            path.display()
        ));
    }

    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "detect.test_ms.p50" => p50,
            "detect.test_ms.p90" => p90,
            "host.steal_pct" => steal,
            "host.cpu_s" => cpu_s,
            "trace.overhead_pct" if plain_wall > 0.0 => 100.0 * (traced_wall / plain_wall - 1.0),
            _ => {
                let vals: Vec<f64> = per_pass
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&vals).unwrap_or(0.0)
            }
        };
        out.push((name.to_string(), value, unit.to_string()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strs(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse_args(&strs(&["--seed", "7"])).is_err());
        assert!(parse_args(&strs(&["--workload", "corpus", "--trace", "2"])).is_err());
        assert!(parse_args(&strs(&["--workload", "corpus", "--seconds"])).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.0), "1");
        assert_eq!(json_num(0.123456789012), "0.123456789012");
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
