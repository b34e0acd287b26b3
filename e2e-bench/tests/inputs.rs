//! Generator determinism: the same seed gives byte-identical inputs for
//! every workload, and a different seed gives different ones.

use narada_e2e_bench::inputs::{
    corpus_entries, lattice_classes, serve_inputs, LATTICE_CLASSES, SERVE_HOT, SERVE_HOT_SHARE,
    SERVE_JOBS,
};

fn corpus(seed: u64) -> Vec<(String, String)> {
    corpus_entries(seed)
        .iter()
        .map(|e| (e.id.to_string(), e.source.to_string()))
        .collect()
}

fn lattice(seed: u64) -> Vec<String> {
    lattice_classes(seed)
        .into_iter()
        .map(|(_, src)| src)
        .collect()
}

#[test]
fn corpus_job_list_is_a_function_of_the_seed() {
    assert_eq!(corpus(7), corpus(7));
    assert_ne!(corpus(7), corpus(8));
    let mut ids: Vec<String> = corpus(7).into_iter().map(|(id, _)| id).collect();
    ids.sort();
    assert_eq!(ids, ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"]);
}

#[test]
fn lattice_sources_are_a_function_of_the_seed() {
    let a = lattice(7);
    assert_eq!(a.len(), LATTICE_CLASSES);
    assert_eq!(a, lattice(7));
    let b = lattice(8);
    assert_ne!(a, b);
    // Not just reordered: the seed changes the class bodies themselves.
    assert_ne!(a[0], b[0]);
}

#[test]
fn serve_jobs_are_a_function_of_the_seed() {
    let a = serve_inputs(7);
    assert_eq!(a, serve_inputs(7));
    let b = serve_inputs(8);
    assert_ne!(a.jobs, b.jobs);
    assert_ne!(a.sources, b.sources);
}

#[test]
fn serve_mix_straddles_the_cache_capacity() {
    let cache_capacity = narada_serve::ServeConfig::default().cache_capacity;
    let s = serve_inputs(7);
    assert_eq!(s.jobs.len(), SERVE_JOBS);
    assert!(SERVE_HOT < cache_capacity, "the hot set fits the cache");
    assert!(
        s.sources.len() > 4 * cache_capacity,
        "novel sources overflow the cache: {}",
        s.sources.len()
    );
    let mut per_hot = vec![0usize; SERVE_HOT];
    for &i in s.jobs.iter().filter(|&&i| i < SERVE_HOT) {
        per_hot[i] += 1;
    }
    let hot_jobs: usize = per_hot.iter().sum();
    assert_eq!(
        hot_jobs,
        (SERVE_JOBS as f64 * SERVE_HOT_SHARE).round() as usize
    );
    let (lo, hi) = (per_hot.iter().min().unwrap(), per_hot.iter().max().unwrap());
    assert!(hi - lo <= 1, "hot sources recur equally often: {lo}..{hi}");
    // Novel sources are submitted exactly once, in order.
    let novel: Vec<usize> = s.jobs.iter().copied().filter(|&i| i >= SERVE_HOT).collect();
    assert_eq!(novel, (SERVE_HOT..s.sources.len()).collect::<Vec<_>>());
}
