//! `multigpu-d4`: the sharded pipeline on four simulated devices joined
//! by the default PCIe-gen2 fabric, on the Hugebubbles and USA Roads
//! stand-ins at 2/5 of Small scale.

use crate::batch::{self, Op, Outcome};
use crate::inputs::{load_suite_reps, SETUP_REPS};
use crate::report::Report;
use crate::trace::Tracer;
use gp_metis::multi_gpu::{partition_multi, MultiGpuConfig, MultiGpuResult};
use gpm_graph::csr::CsrGraph;
use gpm_graph::gen::{PaperGraph, SuiteScale};

const DEVICES: usize = 4;
const GRAPHS: [PaperGraph; 2] = [PaperGraph::Hugebubbles, PaperGraph::UsaRoads];
/// 2/5 of Small: a pass takes about 5 s instead of 11 s on a two-core
/// host, so a run holds enough passes for a median.
const SCALE: SuiteScale = SuiteScale::Fraction(0.02);

fn config(seed: u64) -> MultiGpuConfig {
    MultiGpuConfig::new(crate::table2::config(seed), DEVICES)
}

fn run_one(g: &CsrGraph, cfg: &MultiGpuConfig) -> Result<Outcome<MultiGpuResult>, String> {
    let r = partition_multi(g, cfg).map_err(|e| format!("partition_multi: {e}"))?;
    let ov = r.overlap.as_ref().ok_or("multi-GPU run returned no overlap report")?;
    let digest = format!(
        "modeled={:x} makespan={:x} cut={} levels={:?} peak={:?} bytes={} ic_bytes={} ic_s={:x} \
         boundary={}",
        r.result.modeled_seconds().to_bits(),
        ov.makespan.to_bits(),
        r.result.edge_cut,
        r.gpu_levels,
        r.peak_device_bytes,
        r.transfer_bytes,
        r.interconnect_bytes,
        r.interconnect_seconds.to_bits(),
        r.boundary_vertices
    );
    Ok(Outcome {
        part: r.result.part.clone(),
        edge_cut: r.result.edge_cut,
        modeled_s: r.result.modeled_seconds(),
        makespan_s: ov.makespan,
        digest,
        out: r,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let reps = if trace { 1 } else { SETUP_REPS };
    let (graphs, setup) = match load_suite_reps(&GRAPHS, SCALE, seed, reps) {
        Ok(v) => v,
        Err(e) => return rep.error(format!("setup: {e}")),
    };
    let cfg = config(seed);
    let (k, ub) = (cfg.base.k, cfg.base.ubfactor);
    if !trace {
        rep.set("setup_s", setup.total_s);
        let (passes, digest) = batch::passes(&graphs, k, ub, seconds, rep, |g| run_one(g, &cfg));
        eprintln!("determinism-digest: {:016x}", batch::fnv64(&digest));
        batch::end_to_end(&passes, rep);
        return;
    }

    let pool0 = gpm_pool::stats();
    let mut digest = String::new();
    let ops = batch::pass(&graphs, k, ub, rep, &mut digest, |g| run_one(g, &cfg));
    let pool1 = gpm_pool::stats();
    eprintln!("determinism-digest: {:016x}", batch::fnv64(&digest));
    if ops.len() != graphs.len() {
        return;
    }
    rep.set("graph.load_s", setup.load_s);
    crate::report::set_pool_delta(rep, &pool0, &pool1);
    layers(&ops, rep);

    // The traced pass: one span per partition_multi call. The sharded
    // pipeline's layers run inside the call, so the spans time the run
    // as a whole and give the tracing overhead.
    let mut tr = Tracer::new("multigpu-d4");
    let mut traced = 0.0;
    for (op, (pg, g)) in ops.iter().zip(&graphs) {
        tr.set_op(pg.name());
        let (res, id) = tr.span("partition_multi", |_| run_one(g, &cfg));
        traced += tr.spans()[id].duration();
        match res {
            Ok(o) if o.out.result.part == op.out.result.part => {}
            Ok(_) => rep.error(format!("{}: traced partition differs", pg.name())),
            Err(e) => rep.error(format!("{}: traced pass: {e}", pg.name())),
        }
    }
    let untraced: f64 = ops.iter().map(|o| o.wall_s).sum();
    rep.set("trace.overhead_s", traced - untraced);
    crate::write_trace(&tr, "multigpu-d4", seed, rep);
}

fn layers(ops: &[Op<MultiGpuResult>], rep: &mut Report) {
    let rs: Vec<&MultiGpuResult> = ops.iter().map(|o| &o.out).collect();
    let max_peak = rs.iter().flat_map(|r| r.peak_device_bytes.iter().copied()).max().unwrap_or(0);
    let max_levels = rs.iter().flat_map(|r| r.gpu_levels.iter().copied()).max().unwrap_or(0);
    rep.set("mg.ic_bytes", rs.iter().map(|r| r.interconnect_bytes).sum::<u64>() as f64);
    rep.set("mg.ic_modeled_s", rs.iter().map(|r| r.interconnect_seconds).sum());
    rep.set("mg.transfer_bytes", rs.iter().map(|r| r.transfer_bytes).sum::<u64>() as f64);
    rep.set("mg.peak_device_mb_max", max_peak as f64 / (1024.0 * 1024.0));
    rep.set("mg.gpu_levels_max", max_levels as f64);
    rep.set("mg.boundary_vertices", rs.iter().map(|r| r.boundary_vertices).sum::<usize>() as f64);
    batch::set_overlap(rep, rs.iter().filter_map(|r| r.overlap.as_ref()));
}
