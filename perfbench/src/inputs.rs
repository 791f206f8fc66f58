//! Input set-up shared by the graph workloads: generate the Table II
//! stand-ins from the seed, write them as METIS files and read them back
//! through the memory-mapped loader, as a user loading files would.

use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::{PaperGraph, SuiteScale};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Scratch directory for the run's files, inside the benchmark package.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Host seconds of one set-up.
pub struct SetupTimes {
    /// Generate + write + load, all graphs.
    pub total_s: f64,
    /// `read_metis_mmap` alone, all graphs.
    pub load_s: f64,
}

/// Generate `graphs` at `scale` from `seed`, round-trip them through
/// METIS files in `dir`, and check that the loaded graphs equal the
/// generated ones.
pub fn load_suite(
    graphs: &[PaperGraph],
    scale: SuiteScale,
    seed: u64,
    dir: &Path,
) -> Result<(Vec<(PaperGraph, CsrGraph)>, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let mut load_s = 0.0;
    let mut out = Vec::new();
    for &pg in graphs {
        let g = pg.generate(scale, seed);
        let path = dir.join(format!("{}.graph", pg.name().replace(' ', "_")));
        gpm_graph::io::write_metis_file(&g, &path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let t = Instant::now();
        let loaded = gpm_graph::stream::read_metis_mmap(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        load_s += t.elapsed().as_secs_f64();
        if loaded != g {
            return Err(format!("{} did not survive the METIS round trip", pg.name()));
        }
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        out.push((pg, loaded));
    }
    Ok((out, SetupTimes { total_s: t0.elapsed().as_secs_f64(), load_s }))
}

/// [`load_suite`] repeated [`SETUP_REPS`] times; returns the last graph
/// set and the median set-up and load times.
pub fn load_suite_reps(
    graphs: &[PaperGraph],
    scale: SuiteScale,
    seed: u64,
    reps: usize,
) -> Result<(Vec<(PaperGraph, CsrGraph)>, SetupTimes), String> {
    let dir = work_dir().join(format!("inputs-{}", std::process::id()));
    let mut totals = Vec::new();
    let mut loads = Vec::new();
    let mut last = Vec::new();
    for _ in 0..reps {
        // Drop the previous set first so peak memory holds one copy.
        last.clear();
        let (gs, t) = load_suite(graphs, scale, seed, &dir)?;
        totals.push(t.total_s);
        loads.push(t.load_s);
        last = gs;
    }
    let _ = std::fs::remove_dir(&dir);
    let times =
        SetupTimes { total_s: crate::stats::median(&totals), load_s: crate::stats::median(&loads) };
    Ok((last, times))
}
