//! The pass loop shared by the batch workloads (`table2-small`,
//! `multigpu-d4`): repeat a pass over the loaded graphs for the run's
//! duration, check every partition, and require bit-identical
//! deterministic numbers in every pass.

use crate::report::Report;
use crate::stats::median;
use gpm_gpu_sim::OverlapReport;
use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::PaperGraph;
use std::time::Instant;

/// One partition call of a pass.
pub struct Op<R> {
    pub graph: PaperGraph,
    /// Host seconds of the partition call alone.
    pub wall_s: f64,
    /// Modeled serialized-ledger total.
    pub modeled_s: f64,
    /// Modeled overlap critical path.
    pub makespan_s: f64,
    pub cut: u64,
    pub out: R,
}

/// What a partitioner call reports back to the pass loop.
pub struct Outcome<R> {
    pub part: Vec<u32>,
    pub edge_cut: u64,
    pub modeled_s: f64,
    pub makespan_s: f64,
    /// Every deterministic number of the call, rendered as text; passes
    /// must produce identical digests.
    pub digest: String,
    pub out: R,
}

/// Run one pass: call `run` on every graph and validate each partition
/// (labels in `0..k`, balance within the cap, recomputed cut equal to the
/// reported one). Failed calls are counted and left out of the pass.
pub fn pass<R>(
    graphs: &[(PaperGraph, CsrGraph)],
    k: usize,
    ubfactor: f64,
    rep: &mut Report,
    digest: &mut String,
    mut run: impl FnMut(&CsrGraph) -> Result<Outcome<R>, String>,
) -> Vec<Op<R>> {
    let mut ops = Vec::new();
    for (pg, g) in graphs {
        let t = Instant::now();
        let res = run(g);
        let wall_s = t.elapsed().as_secs_f64();
        let checked = res.and_then(|o| {
            gpm_graph::metrics::validate_partition(g, &o.part, k, ubfactor)
                .map_err(|e| format!("{}: invalid partition: {e}", pg.name()))?;
            let cut = gpm_graph::metrics::edge_cut(g, &o.part);
            if cut != o.edge_cut {
                return Err(format!(
                    "{}: reported cut {} != recomputed {cut}",
                    pg.name(),
                    o.edge_cut
                ));
            }
            Ok(o)
        });
        match checked {
            Ok(o) => {
                digest.push_str(&format!("{}|{}\n", pg.name(), o.digest));
                rep.op(Ok(()));
                ops.push(Op {
                    graph: *pg,
                    wall_s,
                    modeled_s: o.modeled_s,
                    makespan_s: o.makespan_s,
                    cut: o.edge_cut,
                    out: o.out,
                });
            }
            Err(e) => rep.op(Err(e)),
        }
    }
    ops
}

/// Repeat [`pass`] for `seconds`, checking that the passes agree bit for
/// bit. The first two passes always run, since the second is the
/// determinism check; a later pass starts only if it would end within
/// `seconds`, judged by the length of the pass before it. Sets
/// `peak_rss_mb` after the second pass, so that it covers the same work
/// however many passes the host's speed allows. Returns the passes and the
/// first pass's digest.
pub fn passes<R>(
    graphs: &[(PaperGraph, CsrGraph)],
    k: usize,
    ubfactor: f64,
    seconds: f64,
    rep: &mut Report,
    mut run: impl FnMut(&CsrGraph) -> Result<Outcome<R>, String>,
) -> (Vec<Vec<Op<R>>>, String) {
    let t0 = Instant::now();
    let mut all = Vec::new();
    let mut first: Option<String> = None;
    loop {
        let t = Instant::now();
        let mut digest = String::new();
        all.push(pass(graphs, k, ubfactor, rep, &mut digest, &mut run));
        let last = t.elapsed().as_secs_f64();
        match &first {
            None => first = Some(digest),
            Some(d) if *d != digest => {
                rep.error(format!("pass {} differs from pass 1:\n{d}---\n{digest}", all.len()))
            }
            Some(_) => {}
        }
        if all.len() == 2 {
            match crate::report::peak_rss_mb() {
                Ok(mb) => rep.set("peak_rss_mb", mb),
                Err(e) => rep.error(e),
            }
        }
        if all.len() >= 2 && t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    (all, first.unwrap_or_default())
}

/// Set the end-to-end metrics every batch workload shares.
pub fn end_to_end<R>(passes: &[Vec<Op<R>>], rep: &mut Report) {
    let ops: Vec<&Op<R>> = passes.iter().flatten().collect();
    let Some(first) = passes.first().filter(|p| !p.is_empty()) else {
        rep.error("no partition succeeded");
        return;
    };
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.iter().map(|o| o.wall_s).sum()).collect();
    rep.set("wall_s", median(&pass_walls));
    rep.set("modeled_s", first.iter().map(|o| o.modeled_s).sum());
    rep.set("makespan_s", first.iter().map(|o| o.makespan_s).sum());
    let cuts: Vec<f64> = first.iter().map(|o| o.cut as f64).collect();
    rep.set("cut_geomean", crate::stats::geomean(&cuts));
    rep.set("jobs_per_s", first.len() as f64 / median(&pass_walls));
    // A batch run has far fewer than the 100 samples a p99 needs, and its
    // partition walls cluster by graph. Both latencies read the per-graph
    // medians: p50 is their median, the tail the slowest graph's.
    let per_graph: Vec<f64> = first
        .iter()
        .map(|o| {
            let same: Vec<f64> =
                ops.iter().filter(|p| p.graph == o.graph).map(|p| p.wall_s).collect();
            median(&same)
        })
        .collect();
    rep.set("latency_p50_ms", 1e3 * median(&per_graph));
    rep.set("latency_p99_ms", 1e3 * per_graph.iter().copied().fold(0.0, f64::max));
    eprintln!("perfbench: {} passes of {pass_walls:?} s", passes.len());
}

/// Set `overlap.*` over a pass's schedules: serialized over critical-path
/// seconds, and the makespan-weighted share of compute time stalled on
/// transfers.
pub fn set_overlap<'a>(rep: &mut Report, ovs: impl Iterator<Item = &'a OverlapReport>) {
    let (mut serialized, mut makespan, mut stall) = (0.0, 0.0, 0.0);
    for o in ovs {
        serialized += o.serialized;
        makespan += o.makespan;
        stall += o.transfer_stall_fraction() * o.makespan;
    }
    rep.set("overlap.speedup", serialized / makespan);
    rep.set("overlap.compute_stall_frac", stall / makespan);
}

/// FNV-1a hash of a digest, printed so runs can be compared across
/// thread counts.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}
