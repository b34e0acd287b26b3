//! The benchmark's own composition of the layers must agree with the
//! library's entry points, and its committed expectations must match the
//! metrics it declares.

use narada_detect::{evaluate_suite_full, DetectConfig};
use narada_difftest::{check_agreement, DiffConfig};
use narada_e2e_bench::inputs::{lattice_classes, DEFAULT_SEED, LATTICE_CLASSES};
use narada_e2e_bench::ledger::Ledger;
use narada_e2e_bench::pipeline::{run_class, Knobs, CLI_DETECT_SEED};
use narada_e2e_bench::run::{END_TO_END, PER_LAYER};
use narada_e2e_bench::workload::{expected, Lattice};
use narada_obs::{Json, Obs};

#[test]
fn lattice_composition_matches_the_difftest_oracle() {
    let ledger = Ledger::new(true);
    for (spec, src) in lattice_classes(DEFAULT_SEED).into_iter().take(12) {
        let ours = run_class(
            &src,
            spec.index as u64,
            &Knobs::difftest(),
            Lattice::detect_seed(&spec),
            &ledger,
            None,
            &Obs::new(),
            &mut Vec::new(),
        )
        .unwrap();
        let prog = narada_lang::compile(&src).unwrap();
        let theirs = check_agreement(&prog, spec.seed, &DiffConfig::default());
        let label = spec.label();
        assert_eq!(ours.pairs, theirs.pairs, "{label}");
        assert_eq!(ours.discharged, theirs.discharged, "{label}");
        assert_eq!(ours.tests, theirs.tests, "{label}");
        assert_eq!(ours.confirmed_per_test, theirs.confirmed, "{label}");
        assert_eq!(ours.disagreements, theirs.disagreements.len(), "{label}");
    }
    let spans = ledger.take();
    for name in [
        "lang.compile",
        "lang.lower",
        "core.synth",
        "screen.pairs",
        "detect.test",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
}

#[test]
fn corpus_composition_matches_evaluate_suite_full() {
    let (want, _) = expected();
    let knobs = Knobs::cli();
    let cfg = DetectConfig {
        seed: CLI_DETECT_SEED,
        ..knobs.detect.clone()
    };
    for id in ["C3", "C7", "C9"] {
        let entry = narada_corpus::by_id(id).unwrap();
        let ours = run_class(
            entry.source,
            0,
            &knobs,
            CLI_DETECT_SEED,
            &Ledger::new(false),
            None,
            &Obs::new(),
            &mut Vec::new(),
        )
        .unwrap();
        let prog = entry.compile().unwrap();
        let mir = narada_lang::lower::lower_program(&prog);
        let out = narada_core::synthesize(&prog, &mir, &knobs.synth);
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
        let (_, agg) = evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &Obs::new());
        assert_eq!(
            ours.counts(),
            format!(
                "{} {} {} {}",
                agg.races_detected, agg.harmful, agg.benign, agg.unreproduced
            ),
            "{id}"
        );
        assert_eq!(
            want.get(&("corpus".to_string(), id.to_string())),
            Some(&ours.counts()),
            "{id} expected line"
        );
    }
}

#[test]
fn expected_file_covers_every_class() {
    let (classes, serve) = expected();
    for i in 1..=9 {
        assert!(classes.contains_key(&("corpus".to_string(), format!("C{i}"))));
    }
    let lattice = classes.keys().filter(|(w, _)| w == "lattice").count();
    assert_eq!(lattice, LATTICE_CLASSES);
    assert!(serve.unwrap_or(0) > 0);
}

#[test]
fn benchmark_json_declares_what_the_run_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(workloads
        .iter()
        .all(|w| narada_e2e_bench::workload::NAMES.contains(&w.as_str())));
}
