//! `e2e-bench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints human-readable notes, then the result as one JSON object on the
//! last line of standard output. `--emit-expected` prints the expected
//! verdict file for the default seed instead.

use narada_e2e_bench::inputs::DEFAULT_SEED;
use narada_e2e_bench::run::{parse_args, run};
use narada_e2e_bench::workload::Workload;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--emit-expected") {
        return match emit_expected() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2e-bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for n in &outcome.notes {
                println!("{n}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The expected-verdict file for [`DEFAULT_SEED`]: per-class counts for
/// `corpus` and `lattice`, and the reproduced total of one `serve` pass.
fn emit_expected() -> Result<String, String> {
    let scratch = narada_e2e_bench::run::out_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut out = format!(
        "# Expected verdicts at seed {DEFAULT_SEED}: workload key detected harmful benign unreproduced.\n\
         # Corpus lines hold at every seed. Regenerate with `e2e-bench --emit-expected`.\n"
    );
    let Workload::Corpus(corpus) = Workload::setup("corpus", DEFAULT_SEED, &scratch)? else {
        unreachable!()
    };
    for (id, v) in corpus.verdicts() {
        out.push_str(&format!("corpus {id} {}\n", v?.counts()));
    }
    let Workload::Lattice(lattice) = Workload::setup("lattice", DEFAULT_SEED, &scratch)? else {
        unreachable!()
    };
    for (i, v) in lattice.verdicts().into_iter().enumerate() {
        out.push_str(&format!("lattice {i} {}\n", v?.counts()));
    }
    let mut serve = Workload::setup("serve", DEFAULT_SEED, &scratch)?;
    let pass = serve.pass(&narada_e2e_bench::ledger::Ledger::new(false))?;
    serve.finish()?;
    out.push_str(&format!("serve reproduced {}\n", pass.races_confirmed));
    Ok(out)
}
