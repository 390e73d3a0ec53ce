//! Shared plumbing for the figure-regeneration binaries (`figures`,
//! `headline`, `ablation`, `offline_solve`).
//!
//! Every binary accepts the same flags:
//!
//! * `--topologies N` — random topologies per data point (default 30),
//! * `--paper` — paper fidelity (100 topologies),
//! * `--quick` — smoke test (4 topologies),
//! * `--seed S` — base RNG seed (default 42),
//! * `--threads T` — worker threads (default: all cores),
//! * `--out DIR` — where CSVs are written (default `results/`).
//!
//! Results are printed as aligned tables and saved as CSV.

use std::path::{Path, PathBuf};

use haste::sim::{ExperimentCtx, FigureTable};

/// Default output directory: `results/` under the workspace root, so the
/// binaries write to the same place no matter which directory they are
/// launched from (`cargo run` from a crate directory used to scatter
/// `results/` folders into the source tree).
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
        .join("results")
}

/// Parsed command-line configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Experiment context (topologies, threads, seed).
    pub ctx: ExperimentCtx,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

/// Parses `std::env::args`; exits with a usage message on error.
pub fn parse_args() -> RunConfig {
    let (config, names) = parse_args_with_names();
    if let Some(name) = names.first() {
        usage(&format!("unknown flag {name}"));
    }
    config
}

/// [`parse_args`] for binaries that also take positional names (the
/// `figures` binary): returns them in command-line order.
pub fn parse_args_with_names() -> (RunConfig, Vec<String>) {
    let mut names = Vec::new();
    let mut ctx = ExperimentCtx::default();
    let mut out_dir = default_out_dir();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => ctx = ExperimentCtx::paper(),
            "--quick" => ctx = ExperimentCtx::quick(),
            "--topologies" => {
                ctx.topologies = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--topologies needs a number"));
            }
            "--seed" => {
                ctx.base_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--threads" => {
                ctx.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--out" => {
                out_dir = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => usage(""),
            name if !name.starts_with('-') => names.push(name.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    (RunConfig { ctx, out_dir }, names)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <binary> [--paper | --quick | --topologies N] \
         [--seed S] [--threads T] [--out DIR] (`figures` also takes figure names or `all`)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Prints a table and writes its CSV next to the others.
pub fn emit(table: &FigureTable, config: &RunConfig) {
    print!("{}", table.render());
    if let Err(e) = std::fs::create_dir_all(&config.out_dir) {
        eprintln!("warning: cannot create {}: {e}", config.out_dir.display());
        return;
    }
    let path = config.out_dir.join(format!("{}.csv", table.id));
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => println!("(saved {})\n", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste::sim::Series;

    #[test]
    fn default_out_dir_is_anchored_at_the_workspace_root() {
        let dir = default_out_dir();
        assert!(dir.is_absolute(), "default out dir must not depend on CWD");
        assert!(dir.ends_with("results"));
        assert!(
            dir.parent().unwrap().join("Cargo.toml").exists(),
            "{} is not under the workspace root",
            dir.display()
        );
    }

    #[test]
    fn emit_writes_csv() {
        let dir = std::env::temp_dir().join(format!("haste-bench-test-{}", std::process::id()));
        let cfg = RunConfig {
            ctx: ExperimentCtx::quick(),
            out_dir: dir.clone(),
        };
        let table = FigureTable {
            id: "figtest".into(),
            title: "t".into(),
            x_label: "x".into(),
            x: vec![1.0],
            series: vec![Series {
                name: "s".into(),
                values: vec![0.5],
            }],
        };
        emit(&table, &cfg);
        let csv = std::fs::read_to_string(dir.join("figtest.csv")).unwrap();
        assert!(csv.starts_with("x,s"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
