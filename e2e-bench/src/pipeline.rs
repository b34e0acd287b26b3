//! One class from source to verdict, composed from the layers' public
//! functions exactly as `narada detect` composes them, with a ledger span
//! around each call.

use crate::ledger::Ledger;
use narada_core::pairs::PairSet;
use narada_core::{StaticVerdict, SynthesisOptions};
use narada_detect::{evaluate_test_observed, CoarseRaceKey, DetectConfig};
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_obs::Obs;
use narada_vm::ScheduleStrategy;
use std::collections::BTreeSet;
use std::time::Instant;

/// A class's verdict tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassVerdict {
    /// Racing pairs generated.
    pub pairs: usize,
    /// Pairs the screener discharged (`MustNotRace`); 0 when unscreened.
    pub discharged: usize,
    /// Synthesized tests executed.
    pub tests: usize,
    /// Distinct coarse races detected across all tests.
    pub detected: usize,
    /// Distinct coarse races reproduced and judged harmful.
    pub harmful: usize,
    /// Distinct coarse races reproduced and judged benign.
    pub benign: usize,
    /// Detected but never reproduced.
    pub unreproduced: usize,
    /// Per-test reproduced races, summed without deduplication (the
    /// difftest harness's `confirmed`).
    pub confirmed_per_test: usize,
    /// Reproduced races whose pair the screener discharged.
    pub disagreements: usize,
    /// Tests whose set-up failed.
    pub setup_errors: usize,
}

impl ClassVerdict {
    /// Coarse races reproduced.
    pub fn reproduced(&self) -> usize {
        self.harmful + self.benign
    }

    /// The expected-verdict line body: `detected harmful benign unreproduced`.
    pub fn counts(&self) -> String {
        format!(
            "{} {} {} {}",
            self.detected, self.harmful, self.benign, self.unreproduced
        )
    }
}

/// Synthesis and detection knobs for one workload.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Synthesis options (one worker).
    pub synth: SynthesisOptions,
    /// Detection options (one worker); [`run_class`] supplies the seed.
    pub detect: DetectConfig,
}

/// The detection seed `narada detect` and `narada corpus` use by default.
pub const CLI_DETECT_SEED: u64 = 42;

impl Knobs {
    /// The CLI's result knobs (6 schedules, 4 confirms) on one worker;
    /// engine and explorer stay at the library defaults.
    pub fn cli() -> Knobs {
        Knobs {
            synth: SynthesisOptions {
                threads: 1,
                ..SynthesisOptions::default()
            },
            detect: DetectConfig {
                schedule_trials: 6,
                confirm_trials: 4,
                threads: 1,
                ..DetectConfig::default()
            },
        }
    }

    /// The difftest oracle's knobs on one worker: the screener ranks
    /// (never filters) pairs, so a wrongly discharged pair still gets a
    /// test and can be caught; detection explores with PCT at depth 3.
    pub fn difftest() -> Knobs {
        Knobs {
            synth: SynthesisOptions {
                static_rank: true,
                threads: 1,
                ..SynthesisOptions::default()
            },
            detect: DetectConfig {
                schedule_trials: 6,
                confirm_trials: 4,
                threads: 1,
                strategy: ScheduleStrategy::Pct { depth: 3 },
                ..DetectConfig::default()
            },
        }
    }
}

/// Compiles, lowers, synthesizes (with the static screener plugged in, as
/// the CLI does) and detects one class. Each detected test's wall time in
/// milliseconds is appended to `test_ms`.
#[allow(clippy::too_many_arguments)]
pub fn run_class(
    src: &str,
    job: u64,
    knobs: &Knobs,
    detect_seed: u64,
    ledger: &Ledger,
    root: Option<u64>,
    obs: &Obs,
    test_ms: &mut Vec<f64>,
) -> Result<ClassVerdict, String> {
    let prog = ledger
        .span("lang.compile", root, job, |_| narada_lang::compile(src))
        .map_err(|d| format!("compile failed: {d}"))?;
    let mir = ledger.span("lang.lower", root, job, |_| lower_program(&prog));
    let out = ledger.span("core.synth", root, job, |synth| {
        let screener = |m: &MirProgram, p: &PairSet| {
            ledger.span("screen.pairs", synth, job, |_| {
                narada_screen::screen_pairs(m, p)
            })
        };
        narada_core::synthesize_observed(&prog, &mir, &knobs.synth, Some(&screener), obs)
    });

    let cfg = DetectConfig {
        seed: detect_seed,
        ..knobs.detect.clone()
    };
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut v = ClassVerdict {
        pairs: out.pair_count(),
        discharged: out
            .verdicts
            .as_deref()
            .map_or(0, |vs| vs.iter().filter(|v| !v.may_race()).count()),
        tests: out.test_count(),
        ..ClassVerdict::default()
    };
    let mut detected: BTreeSet<CoarseRaceKey> = BTreeSet::new();
    let mut reproduced: BTreeSet<CoarseRaceKey> = BTreeSet::new();
    for (ti, t) in out.tests.iter().enumerate() {
        let start = Instant::now();
        let rep = ledger.span("detect.test", root, job, |_| {
            evaluate_test_observed(&prog, &mir, &seeds, &t.plan, &cfg, ti as u64, obs)
        });
        test_ms.push(start.elapsed().as_secs_f64() * 1e3);
        v.setup_errors += usize::from(!rep.setup_errors.is_empty());
        detected.extend(rep.detected.iter().copied());
        for (key, race) in &rep.reproduced {
            v.confirmed_per_test += 1;
            if reproduced.insert(*key) {
                if race.benign {
                    v.benign += 1;
                } else {
                    v.harmful += 1;
                }
            }
            if let Some(StaticVerdict::MustNotRace { .. }) =
                out.static_verdict_for(ti, race.key.span_a, race.key.span_b)
            {
                v.disagreements += 1;
            }
        }
    }
    v.detected = detected.len();
    v.unreproduced = detected.len().saturating_sub(reproduced.len());
    Ok(v)
}
