//! Seeded input generators. Every workload's inputs are a pure function
//! of the workload seed; the program under test sees only their output.

use narada_corpus::CorpusEntry;
use narada_difftest::{emit, ClassSpec};
use narada_vm::rng::{derive_seed, SplitMix64};

/// The seed used when `--seed` is not given; the committed expected
/// verdicts are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Generated classes per `lattice` pass.
pub const LATTICE_CLASSES: usize = 3000;

/// Jobs per `serve` pass.
pub const SERVE_JOBS: usize = 1200;
/// Sources that recur across a `serve` pass (cache hits once warm).
/// Below the default artifact-cache capacity of 64, so they fit
/// together, but novel sources keep evicting them. The hot set is the
/// same at every seed, like a fixed set of popular libraries; the seed
/// picks the novel classes and the submission order.
pub const SERVE_HOT: usize = 48;
/// Share of `serve` jobs that resubmit a hot source rather than a novel
/// class.
pub const SERVE_HOT_SHARE: f64 = 0.6;

const TAG_CORPUS: u64 = 0xc0;
const TAG_LATTICE: u64 = 0x1a;
const TAG_SERVE_HOT: u64 = 0x5e1;
const TAG_SERVE_NOVEL: u64 = 0x5e2;
const TAG_SERVE_MIX: u64 = 0x5e3;

/// The corpus classes C1–C9 in a seed-dependent order. Each class's
/// verdict depends only on its own source and the detection seed, so the
/// order changes the job list but not the results.
pub fn corpus_entries(seed: u64) -> Vec<CorpusEntry> {
    let mut entries = narada_corpus::all();
    let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, &[TAG_CORPUS]));
    shuffle(&mut entries, &mut rng);
    entries
}

/// The `lattice` workload's classes: the first [`LATTICE_CLASSES`] points
/// of a difftest sweep rooted at a seed-derived base.
pub fn lattice_classes(seed: u64) -> Vec<(ClassSpec, String)> {
    let base = derive_seed(seed, &[TAG_LATTICE]);
    (0..LATTICE_CLASSES)
        .map(|i| {
            let spec = ClassSpec::nth(base, i);
            (spec, emit(spec).source())
        })
        .collect()
}

/// The `serve` workload's inputs: distinct sources and the job list as
/// indices into them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeInputs {
    /// Every distinct source; the first [`SERVE_HOT`] are the hot set.
    pub sources: Vec<String>,
    /// One entry per job, in submission order.
    pub jobs: Vec<usize>,
}

/// Builds the `serve` job mix: [`SERVE_HOT_SHARE`] of the jobs resubmit
/// one of the hot sources, the rest each submit the next novel lattice
/// class. Every hot source recurs equally often (within one), so the
/// work per pass barely depends on the seed; the seed shuffles which jobs
/// are hot and which hot source each one resubmits, so reuse distances
/// vary and some repeats hit the cache while others find their entry
/// evicted. The mix is synthetic: there is no recorded traffic.
pub fn serve_inputs(seed: u64) -> ServeInputs {
    let hot_base = derive_seed(DEFAULT_SEED, &[TAG_SERVE_HOT]);
    let novel_base = derive_seed(seed, &[TAG_SERVE_NOVEL]);
    let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, &[TAG_SERVE_MIX]));
    let hot_jobs = (SERVE_JOBS as f64 * SERVE_HOT_SHARE).round() as usize;
    let mut is_hot: Vec<bool> = (0..SERVE_JOBS).map(|i| i < hot_jobs).collect();
    shuffle(&mut is_hot, &mut rng);
    let mut hot_picks: Vec<usize> = (0..hot_jobs).map(|k| k % SERVE_HOT).collect();
    shuffle(&mut hot_picks, &mut rng);

    let mut sources: Vec<String> = (0..SERVE_HOT)
        .map(|i| emit(ClassSpec::nth(hot_base, i)).source())
        .collect();
    let mut hot_picks = hot_picks.into_iter();
    let mut novel = 0usize;
    let jobs = is_hot
        .into_iter()
        .map(|h| {
            if h {
                hot_picks.next().expect("one pick per hot job")
            } else {
                sources.push(emit(ClassSpec::nth(novel_base, novel)).source());
                novel += 1;
                sources.len() - 1
            }
        })
        .collect();
    ServeInputs { sources, jobs }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}
