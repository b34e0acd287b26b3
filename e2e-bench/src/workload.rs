//! The three workloads. Each is set up from the workload seed, then
//! drains the same fixed work once per pass; a run repeats passes.

use crate::inputs::{self, ServeInputs, DEFAULT_SEED};
use crate::ledger::{Ledger, Span};
use crate::pipeline::{run_class, ClassVerdict, Knobs, CLI_DETECT_SEED};
use narada_corpus::CorpusEntry;
use narada_difftest::ClassSpec;
use narada_obs::{Json, Obs};
use narada_serve::{Client, JobOptions, ServeConfig};
use narada_vm::rng::derive_seed;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Expected verdicts for [`DEFAULT_SEED`].
pub const EXPECTED: &str = include_str!("../expected/verdicts.txt");

/// Workload names. `BENCHMARK.json` gates `lattice` and `serve`; `corpus`
/// runs the same way but is not gated (see README.md).
pub const NAMES: [&str; 3] = ["corpus", "lattice", "serve"];

/// What one pass drained and how long it took.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// One latency sample per verdict, in milliseconds.
    pub verdict_ms: Vec<f64>,
    /// Coarse races reproduced, summed over the pass's classes or jobs.
    pub races_confirmed: u64,
    /// Operations attempted (classes or jobs).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Per-layer counters and times observed by this pass.
    pub layer: BTreeMap<String, f64>,
    /// Samples of `detect.test` wall time in milliseconds.
    pub test_ms: Vec<f64>,
    /// Spans recorded by the ledger (empty when it is off).
    pub spans: Vec<Span>,
}

/// A set-up workload.
pub enum Workload {
    /// C1–C9 detected at the CLI's result knobs on one worker.
    Corpus(Corpus),
    /// Generated difftest classes from source to verdict on one worker.
    Lattice(Lattice),
    /// An in-process `narada serve` driven by two closed-loop clients.
    Serve(Serve),
}

impl Workload {
    /// Generates and checks the inputs for `name` at `seed`; for `serve`
    /// also starts the server and waits until it answers.
    pub fn setup(name: &str, seed: u64, scratch: &std::path::Path) -> Result<Workload, String> {
        match name {
            "corpus" => Corpus::setup(seed).map(Workload::Corpus),
            "lattice" => Lattice::setup(seed).map(Workload::Lattice),
            "serve" => Serve::setup(seed, scratch).map(Workload::Serve),
            _ => Err(format!(
                "unknown workload `{name}` (expected one of {NAMES:?})"
            )),
        }
    }

    /// Drains the workload's fixed work once.
    pub fn pass(&mut self, ledger: &Ledger) -> Result<Pass, String> {
        let mut pass = match self {
            Workload::Corpus(w) => w.pass(ledger),
            Workload::Lattice(w) => w.pass(ledger),
            Workload::Serve(w) => w.pass(ledger)?,
        };
        pass.spans = ledger.take();
        Ok(pass)
    }

    /// Checks that cannot run inside the timed passes; returns one message
    /// per failed operation.
    pub fn finish(self) -> Result<Vec<String>, String> {
        match self {
            Workload::Serve(w) => w.finish(),
            _ => Ok(Vec::new()),
        }
    }

    /// Releases a set-up that will not be measured (stops its server).
    pub fn discard(self) -> Result<(), String> {
        match self {
            Workload::Serve(mut w) => w.server.take().map_or(Ok(()), Server::stop),
            _ => Ok(()),
        }
    }
}

/// Parses the `corpus`/`lattice` lines of [`EXPECTED`] into
/// `(workload, key) -> "detected harmful benign unreproduced"`, plus the
/// `serve` reproduced total.
pub fn expected() -> (BTreeMap<(String, String), String>, Option<u64>) {
    let mut classes = BTreeMap::new();
    let mut serve = None;
    for line in EXPECTED.lines().filter(|l| !l.starts_with('#')) {
        let mut f = line.splitn(3, ' ');
        match (f.next(), f.next(), f.next()) {
            (Some("serve"), Some("reproduced"), Some(n)) => serve = n.parse().ok(),
            (Some(w), Some(k), Some(rest)) => {
                classes.insert((w.to_string(), k.to_string()), rest.to_string());
            }
            _ => {}
        }
    }
    (classes, serve)
}

/// Counters the program already exposes through `Obs`, under their
/// benchmark names.
fn obs_counters(obs: &Obs, layer: &mut BTreeMap<String, f64>) {
    let m = &obs.metrics;
    for (ours, theirs) in [
        ("detect.trials", "detect.trials"),
        ("detect.confirm_trials", "detect.confirm_trials"),
        ("vm.decisions", "sched.decisions"),
        ("vm.preemptions", "sched.preemptions"),
        ("explore.forks", "explore.forks"),
        ("explore.probes", "explore.probes"),
        ("explore.snapshot_bytes", "explore.snapshot_bytes"),
        ("explore.prefix_steps_saved", "explore.prefix_steps_saved"),
        (
            "explore.prefix_rng_fallbacks",
            "explore.prefix_rng_fallbacks",
        ),
    ] {
        layer.insert(ours.to_string(), m.scalar(theirs) as f64);
    }
    let detected = m.scalar("detect.races_detected");
    let confirmed = m.scalar("detect.confirmed");
    layer.insert(
        "detect.confirm_yield".to_string(),
        if detected == 0 {
            0.0
        } else {
            confirmed as f64 / detected as f64
        },
    );
}

/// Adds a class verdict's synthesis tallies to the pass's counters.
fn add_synth_counts(layer: &mut BTreeMap<String, f64>, v: &ClassVerdict) {
    for (k, n) in [
        ("core.pairs", v.pairs),
        ("core.tests", v.tests),
        ("screen.discharged", v.discharged),
    ] {
        *layer.entry(k.to_string()).or_default() += n as f64;
    }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<R>(what: &str, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// The `corpus` workload.
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    knobs: Knobs,
    expected: BTreeMap<(String, String), String>,
}

impl Corpus {
    fn setup(seed: u64) -> Result<Corpus, String> {
        let entries = inputs::corpus_entries(seed);
        for e in &entries {
            narada_lang::compile(e.source).map_err(|d| format!("{}: {d}", e.id))?;
        }
        Ok(Corpus {
            entries,
            knobs: Knobs::cli(),
            expected: expected().0,
        })
    }

    fn pass(&self, ledger: &Ledger) -> Pass {
        let start = Instant::now();
        let obs = Obs::new();
        let mut pass = Pass::default();
        for (job, e) in self.entries.iter().enumerate() {
            let first = pass.test_ms.len();
            let result = ledger.span("bench.class", None, job as u64, |root| {
                guarded(e.id, || {
                    run_class(
                        e.source,
                        job as u64,
                        &self.knobs,
                        CLI_DETECT_SEED,
                        ledger,
                        root,
                        &obs,
                        &mut pass.test_ms,
                    )
                })
            });
            let class_s: f64 = pass.test_ms[first..].iter().sum::<f64>() / 1e3;
            pass.layer
                .insert(format!("detect.class_s.{}", e.id), class_s);
            pass.attempted += 1;
            match result {
                Ok(v) => {
                    add_synth_counts(&mut pass.layer, &v);
                    pass.races_confirmed += v.reproduced() as u64;
                    let want = self.expected.get(&("corpus".to_string(), e.id.to_string()));
                    if want != Some(&v.counts()) {
                        pass.failures.push(format!(
                            "{}: verdict `{}`, expected `{}`",
                            e.id,
                            v.counts(),
                            want.map_or("<missing>", String::as_str)
                        ));
                    } else if v.setup_errors > 0 {
                        pass.failures
                            .push(format!("{}: {} test set-up error(s)", e.id, v.setup_errors));
                    }
                }
                Err(err) => pass.failures.push(err),
            }
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.verdict_ms = pass.test_ms.clone();
        obs_counters(&obs, &mut pass.layer);
        pass
    }

    /// Runs every class once, returning `(id, verdict)` (for
    /// `--emit-expected`).
    pub fn verdicts(&self) -> Vec<(&'static str, Result<ClassVerdict, String>)> {
        let obs = Obs::new();
        let ledger = Ledger::new(false);
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|e| e.id);
        sorted
            .iter()
            .map(|e| {
                let v = run_class(
                    e.source,
                    0,
                    &self.knobs,
                    CLI_DETECT_SEED,
                    &ledger,
                    None,
                    &obs,
                    &mut Vec::new(),
                );
                (e.id, v)
            })
            .collect()
    }
}

/// The `lattice` workload.
pub struct Lattice {
    seed: u64,
    classes: Vec<(ClassSpec, String)>,
    knobs: Knobs,
    expected: BTreeMap<(String, String), String>,
}

impl Lattice {
    fn setup(seed: u64) -> Result<Lattice, String> {
        let classes = inputs::lattice_classes(seed);
        for (spec, src) in &classes {
            narada_lang::compile(src).map_err(|d| format!("{}: {d}", spec.label()))?;
        }
        Ok(Lattice {
            seed,
            classes,
            knobs: Knobs::difftest(),
            expected: expected().0,
        })
    }

    /// The detection seed for a class, as the difftest harness derives it.
    pub fn detect_seed(spec: &ClassSpec) -> u64 {
        derive_seed(spec.seed, &[0xde7ec7])
    }

    /// Runs every class once, returning the verdicts (for `--emit-expected`).
    pub fn verdicts(&self) -> Vec<Result<ClassVerdict, String>> {
        let obs = Obs::new();
        let ledger = Ledger::new(false);
        self.classes
            .iter()
            .enumerate()
            .map(|(job, (spec, src))| {
                run_class(
                    src,
                    job as u64,
                    &self.knobs,
                    Self::detect_seed(spec),
                    &ledger,
                    None,
                    &obs,
                    &mut Vec::new(),
                )
            })
            .collect()
    }

    fn pass(&self, ledger: &Ledger) -> Pass {
        let pass_start = Instant::now();
        let obs = Obs::new();
        let mut pass = Pass::default();
        let check_expected = self.seed == DEFAULT_SEED;
        for (job, (spec, src)) in self.classes.iter().enumerate() {
            let start = Instant::now();
            let result = ledger.span("bench.class", None, job as u64, |root| {
                guarded(&spec.label(), || {
                    run_class(
                        src,
                        job as u64,
                        &self.knobs,
                        Self::detect_seed(spec),
                        ledger,
                        root,
                        &obs,
                        &mut pass.test_ms,
                    )
                })
            });
            pass.verdict_ms.push(start.elapsed().as_secs_f64() * 1e3);
            pass.attempted += 1;
            match result {
                Ok(v) => {
                    add_synth_counts(&mut pass.layer, &v);
                    pass.races_confirmed += v.reproduced() as u64;
                    let want = self.expected.get(&("lattice".to_string(), job.to_string()));
                    if v.disagreements > 0 {
                        pass.failures.push(format!(
                            "{}: {} race(s) confirmed on MustNotRace pairs",
                            spec.label(),
                            v.disagreements
                        ));
                    } else if check_expected && want != Some(&v.counts()) {
                        pass.failures.push(format!(
                            "{}: verdict `{}`, expected `{}`",
                            spec.label(),
                            v.counts(),
                            want.map_or("<missing>", String::as_str)
                        ));
                    } else if v.setup_errors > 0 {
                        pass.failures.push(format!(
                            "{}: {} test set-up error(s)",
                            spec.label(),
                            v.setup_errors
                        ));
                    }
                }
                Err(err) => pass.failures.push(err),
            }
        }
        pass.wall_s = pass_start.elapsed().as_secs_f64();
        obs_counters(&obs, &mut pass.layer);
        pass
    }
}

/// A running in-process server.
struct Server {
    addr: String,
    thread: std::thread::JoinHandle<Result<u64, String>>,
}

impl Server {
    /// Starts `narada serve` at its defaults (2 workers, cache capacity
    /// 64) on an ephemeral localhost port and waits until it answers.
    fn start(port_file: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_file(&port_file);
        let config = ServeConfig {
            port_file: Some(port_file.clone()),
            ..ServeConfig::default()
        };
        let thread = std::thread::spawn(move || narada_serve::serve(config));
        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            if thread.is_finished() || Instant::now() > deadline {
                let err = match thread.join() {
                    Ok(Err(e)) => e,
                    _ => "server did not start".to_string(),
                };
                return Err(err);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let addr = format!("127.0.0.1:{port}");
        narada_serve::wait_ready(&addr, Duration::from_secs(30))?;
        Ok(Server { addr, thread })
    }

    /// Drains and stops the server, waiting for its thread to end.
    fn stop(self) -> Result<(), String> {
        let sent = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let joined = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        sent.map(|_| ()).and(joined.map(|_| ()))
    }
}

/// What the serve checks keep per distinct source: the first report
/// served for it and how many jobs returned that source.
#[derive(Default)]
struct Served {
    report: Option<String>,
    jobs: u64,
}

/// The `serve` workload.
pub struct Serve {
    inputs: ServeInputs,
    port_file: PathBuf,
    server: Option<Server>,
    served: Vec<Mutex<Served>>,
    /// The committed reproduced total per pass, at the default seed.
    expected_reproduced: Option<u64>,
}

/// Closed-loop client connections.
const SERVE_CLIENTS: usize = 2;

/// One served job: `(verdict_ms, submit_ms, queue_wait_ms, reproduced)`.
type JobSample = (f64, f64, f64, u64);

/// Client threads only push to these mutexes; a poisoned one means a
/// client thread panicked, which is a bug in this benchmark.
const POISONED: &str = "a serve client thread panicked";

impl Serve {
    fn setup(seed: u64, scratch: &std::path::Path) -> Result<Serve, String> {
        let inputs = inputs::serve_inputs(seed);
        for src in &inputs.sources {
            narada_lang::compile(src).map_err(|d| format!("serve input: {d}"))?;
        }
        let port_file = scratch.join(format!("serve-{}.port", std::process::id()));
        let server = Server::start(port_file.clone())?;
        let served = inputs.sources.iter().map(|_| Mutex::default()).collect();
        Ok(Serve {
            inputs,
            port_file,
            server: Some(server),
            served,
            expected_reproduced: expected().1.filter(|_| seed == DEFAULT_SEED),
        })
    }

    /// One pass against a fresh server, so every pass starts cold and
    /// the server's job table never outgrows one pass. The server of
    /// the set-up serves the first pass.
    fn pass(&mut self, ledger: &Ledger) -> Result<Pass, String> {
        let server = match self.server.take() {
            Some(s) => s,
            None => Server::start(self.port_file.clone())?,
        };
        let result = self.drain(&server.addr, ledger);
        let stopped = server.stop();
        let pass = result?;
        stopped?;
        Ok(pass)
    }

    fn drain(&self, addr: &str, ledger: &Ledger) -> Result<Pass, String> {
        let opts = JobOptions::default();
        let next = AtomicUsize::new(0);
        let samples: Mutex<Vec<(usize, JobSample)>> = Mutex::new(Vec::new());
        let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let mut stats_client = Client::connect(addr)?;
        let stats_before = stats_client.stats()?;

        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..SERVE_CLIENTS {
                s.spawn(|| {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            failures
                                .lock()
                                .expect(POISONED)
                                .push(format!("connect: {e}"));
                            None
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= self.inputs.jobs.len() {
                            break;
                        }
                        let Some(c) = client.as_mut() else {
                            failures
                                .lock()
                                .expect(POISONED)
                                .push(format!("job {i}: no connection"));
                            continue;
                        };
                        match self.job(c, i, &opts, ledger) {
                            Ok(sample) => samples.lock().expect(POISONED).push((i, sample)),
                            Err(e) => failures
                                .lock()
                                .expect(POISONED)
                                .push(format!("job {i}: {e}")),
                        }
                    }
                });
            }
        });
        let wall_s = start.elapsed().as_secs_f64();

        let stats_after = stats_client.stats()?;
        let health = stats_client.health()?;
        // Job order, so every pass lists the same items in the same order.
        let mut samples = samples.into_inner().expect(POISONED);
        samples.sort_by_key(|&(i, _)| i);
        let mut pass = Pass {
            wall_s,
            attempted: self.inputs.jobs.len() as u64,
            failures: failures.into_inner().expect(POISONED),
            ..Pass::default()
        };
        let mut submit = Vec::new();
        let mut queue = Vec::new();
        for (_, (verdict, sub, wait, races)) in samples {
            pass.verdict_ms.push(verdict);
            submit.push(sub);
            queue.push(wait);
            pass.races_confirmed += races;
        }
        if let Some(want) = self.expected_reproduced {
            if pass.races_confirmed != want {
                pass.failures.push(format!(
                    "pass reproduced {} races, expected {want}",
                    pass.races_confirmed
                ));
            }
        }
        let layer = &mut pass.layer;
        layer.insert(
            "serve.submit_ms.p50".into(),
            crate::stats::median(&submit).unwrap_or(0.0),
        );
        layer.insert(
            "serve.queue_wait_ms.p50".into(),
            crate::stats::median(&queue).unwrap_or(0.0),
        );
        let cache = |doc: &Json, key: &str| {
            doc.get("cache")
                .and_then(|c| c.get(key))
                .and_then(Json::as_i64)
                .unwrap_or(0) as f64
        };
        let delta = |key: &str| cache(&stats_after, key) - cache(&stats_before, key);
        let (hits, misses) = (delta("program_hits"), delta("program_misses"));
        layer.insert(
            "serve.cache.hit_ratio".into(),
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        layer.insert("serve.cache.evictions".into(), delta("evictions"));
        for stage in ["compile", "synth", "detect"] {
            let p50_ns = health
                .get("latency")
                .and_then(|l| l.get("stages"))
                .and_then(|s| s.get(stage))
                .and_then(|s| s.get("p50"))
                .and_then(Json::as_i64)
                .unwrap_or(0);
            layer.insert(format!("serve.stage.{stage}_ms.p50"), p50_ns as f64 / 1e6);
        }
        Ok(pass)
    }

    /// Submits job `i`, waits for its report, and records it for the
    /// batch-identity check.
    fn job(
        &self,
        client: &mut Client,
        i: usize,
        opts: &JobOptions,
        ledger: &Ledger,
    ) -> Result<JobSample, String> {
        let src_idx = self.inputs.jobs[i];
        let source = &self.inputs.sources[src_idx];
        let t0 = Instant::now();
        let (report, t1, started) = ledger.span("bench.job", None, i as u64, |root| {
            let id = ledger.span("serve.submit", root, i as u64, |_| {
                client.submit(source, opts)
            })?;
            let t1 = Instant::now();
            let mut started = None;
            let resp = ledger.span("serve.fetch", root, i as u64, |_| {
                client.fetch(id, true, &mut |frame| {
                    if frame.get("event").and_then(Json::as_str) == Some("started") {
                        started.get_or_insert_with(Instant::now);
                    }
                })
            })?;
            let report = resp
                .get("report")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    let status = resp.get("status").and_then(Json::as_str).unwrap_or("?");
                    let err = resp.get("error").and_then(Json::as_str).unwrap_or("");
                    format!("{status}: {err}")
                })?;
            Ok::<_, String>((report, t1, started))
        })?;
        let t3 = Instant::now();
        let reproduced =
            report_reproduced(&report).ok_or_else(|| "report has no summary line".to_string())?;
        let mut served = self.served[src_idx].lock().expect(POISONED);
        served.jobs += 1;
        match &served.report {
            Some(first) if *first != report => {
                return Err("report differs from an earlier report of the same source".into())
            }
            Some(_) => {}
            None => served.report = Some(report),
        }
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        Ok((
            ms(t0, t3),
            ms(t0, t1),
            ms(t1, started.unwrap_or(t1)),
            reproduced,
        ))
    }

    /// Compares every distinct served report with `batch_report` on the
    /// same source; a mismatch fails every job that served it.
    fn finish(self) -> Result<Vec<String>, String> {
        if let Some(server) = self.server {
            server.stop()?;
        }
        let _ = std::fs::remove_file(&self.port_file);
        let opts = JobOptions::default();
        let mut failures = Vec::new();
        for (idx, cell) in self.served.into_iter().enumerate() {
            let served = cell.into_inner().expect(POISONED);
            let Some(report) = served.report else {
                continue;
            };
            let src = &self.inputs.sources[idx];
            let batch = guarded("batch_report", || narada_serve::batch_report(src, &opts));
            let ok = matches!(&batch, Ok(b) if b.report == report);
            if !ok {
                for _ in 0..served.jobs {
                    failures.push(format!("source {idx}: served report differs from batch"));
                }
            }
        }
        Ok(failures)
    }
}

/// The `reproduced=` count of a report's summary line.
fn report_reproduced(report: &str) -> Option<u64> {
    let line = report.lines().rev().find(|l| l.starts_with("summary "))?;
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix("reproduced="))?
        .parse()
        .ok()
}
