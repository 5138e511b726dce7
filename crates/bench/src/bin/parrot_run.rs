//! The unified experiment entry point: runs any subset of the paper's
//! experiments (`parrot-run table1 fig8 …`, default all) on the harness
//! scheduler, with `--jobs N` parallelism and a `--cache-dir`
//! content-addressed artifact cache making re-runs and interrupted
//! sweeps resumable.

use bench::{drive, Options};

fn main() {
    let opts = Options::from_args();
    std::process::exit(drive::run(&opts));
}
