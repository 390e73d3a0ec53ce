//! Regenerates the paper's figures by name, plus the charger-failure
//! extension experiment (not a paper figure; see EXPERIMENTS.md):
//!
//! ```text
//! figures <name>… | all [--paper | --quick | --topologies N] [--seed S] [--threads T] [--out DIR]
//! ```
//!
//! Each name prints its table(s) and writes one CSV per table; `all` runs
//! every name in registry order. `--quick` smoke-tests, `--paper` runs
//! the paper's 100 topologies per point.

use haste::sim::{experiments as exp, ExperimentCtx, FigureTable};
use haste::testbed;

/// One registry entry: a name and the table(s) it regenerates.
type Figure = (&'static str, fn(&ExperimentCtx) -> Vec<FigureTable>);

/// Every figure, in `all` order. Figs. 21–22 and 24–25 are the offline
/// and online halves of one testbed topology each, so one name emits
/// both tables.
const FIGURES: [Figure; 19] = [
    ("fig04", |ctx| vec![exp::fig04(ctx)]),
    ("fig05", |ctx| vec![exp::fig05(ctx)]),
    ("fig06", |ctx| vec![exp::fig06(ctx)]),
    ("fig07", |ctx| vec![exp::fig07(ctx)]),
    ("fig08", |ctx| vec![exp::fig08(ctx)]),
    ("fig09", |ctx| vec![exp::fig09(ctx)]),
    ("fig10", |ctx| vec![exp::fig10(ctx)]),
    ("fig11", |ctx| vec![exp::fig11(ctx)]),
    ("fig12", |ctx| vec![exp::fig12(ctx)]),
    ("fig13", |ctx| vec![exp::fig13(ctx)]),
    ("fig14", |ctx| vec![exp::fig14(ctx)]),
    ("fig15", |ctx| vec![exp::fig15(ctx)]),
    ("fig16", |ctx| vec![exp::fig16(ctx)]),
    ("fig17", |ctx| vec![exp::fig17(ctx)]),
    ("fig18", |ctx| vec![exp::fig18(ctx)]),
    ("headline", |ctx| vec![exp::headline(ctx)]),
    ("fig21_22", |_| vec![testbed::fig21(), testbed::fig22()]),
    ("fig24_25", |_| vec![testbed::fig24(), testbed::fig25()]),
    ("failures", |ctx| vec![exp::fig_failures(ctx)]),
];

fn main() {
    let (config, names) = haste_bench::parse_args_with_names();
    let selected: Vec<&Figure> = if names == ["all"] {
        FIGURES.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                FIGURES
                    .iter()
                    .find(|(known, _)| known == name)
                    .unwrap_or_else(|| unknown(name))
            })
            .collect()
    };
    if selected.is_empty() {
        unknown("");
    }
    let ctx = &config.ctx;
    println!(
        "regenerating {} figure(s) with {} topologies per point on {} threads\n",
        selected.len(),
        ctx.topologies,
        ctx.threads
    );
    for (name, run) in selected {
        let start = std::time::Instant::now();
        for table in run(ctx) {
            haste_bench::emit(&table, &config);
        }
        eprintln!("[{name} done in {:.1?}]\n", start.elapsed());
    }
}

/// Exits 2 naming the figures this binary knows.
fn unknown(name: &str) -> ! {
    if !name.is_empty() {
        eprintln!("error: unknown figure {name}");
    }
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: figures <name>… | all [flags]; names: {}",
        names.join(" ")
    );
    std::process::exit(2);
}
