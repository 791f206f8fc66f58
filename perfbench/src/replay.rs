//! Traced replay of one GP-metis V-cycle through the library's public
//! functions, with the pipeline's own configuration and per-level seeds.
//!
//! `gp_metis::partition` runs its layers internally, so the benchmark
//! cannot time them from outside. The replay makes the same calls in the
//! same order as the pipeline's clean path (upload; matching, cmap and
//! contraction per level down to the switchover; download; the mt-metis
//! middle; projection and refinement per level back up; download) and
//! records a span around each. It must launch exactly the kernels the
//! untraced run launched and produce the same partition; the caller
//! checks both.

use crate::kernels::{family_totals, FamilyTotals};
use crate::trace::Tracer;
use gp_metis::gpu_graph::GpuCsr;
use gp_metis::kernels::cmap::gpu_cmap_ws;
use gp_metis::kernels::contract::{gpu_contract_ws, GpuCoarsenScratch};
use gp_metis::kernels::matching::gpu_matching;
use gp_metis::kernels::refine::{gpu_part_weights, gpu_project, gpu_refine};
use gp_metis::GpMetisConfig;
use gpm_gpu_sim::{DBuf, Device, DeviceError, KernelStats};
use gpm_graph::csr::CsrGraph;
use gpm_metis::coarsen::{CoarsenConfig, Hierarchy};
use gpm_metis::cost::{CostLedger, CpuModel};
use gpm_mtmetis::MtMetisConfig;

/// What a replay returns besides its spans.
pub struct Replay {
    pub part: Vec<u32>,
    pub kernel_log: Vec<KernelStats>,
}

/// Run `f` in a span and attach the per-family kernel-log delta it caused.
fn dev_span<T>(
    tr: &mut Tracer,
    dev: &Device,
    name: &str,
    f: impl FnOnce(&mut Tracer) -> Result<T, DeviceError>,
) -> Result<T, String> {
    let before = dev.kernel_log().len();
    let (out, id) = tr.span(name, f);
    let out = out.map_err(|e| format!("replay {name}: {e}"))?;
    let delta: [FamilyTotals; 6] = family_totals(&dev.kernel_log()[before..])?;
    tr.add_counters(
        id,
        crate::kernels::counts(&delta).into_iter().filter(|(_, v)| *v > 0).collect(),
    );
    Ok(out)
}

/// Replay the clean-path V-cycle of `gp_metis::partition(g, cfg)`.
pub fn replay_vcycle(g: &CsrGraph, cfg: &GpMetisConfig, tr: &mut Tracer) -> Result<Replay, String> {
    let dev = Device::new(cfg.gpu.clone());
    let ccfg = CoarsenConfig::for_k(cfg.k);
    let max_vwgt = ccfg.max_vwgt(g.total_vwgt());
    let (d, mt_threads) = (cfg.distribution, cfg.max_threads);

    let (part, _) = tr.span("vcycle", |tr| -> Result<Vec<u32>, String> {
        let g0 = dev_span(tr, &dev, "upload", |_| GpuCsr::upload(&dev, g))?;

        // Down: matching, cmap and contraction per level until the graph
        // drops below the switchover or matching stalls.
        let mut uniform = g.uniform_edge_weights();
        let mut levels: Vec<(GpuCsr, DBuf<u32>)> = Vec::new();
        let mut cur = g0;
        let mut scratch = GpuCoarsenScratch::new();
        while cur.n > cfg.gpu_threshold && levels.len() < ccfg.max_levels {
            let lvl = levels.len();
            let seed = cfg.seed.wrapping_add(lvl as u64);
            let (mat, _) = dev_span(tr, &dev, &format!("match:l{lvl}"), |_| {
                gpu_matching(&dev, &cur, max_vwgt, cfg.match_rounds, uniform, seed, d, mt_threads)
            })?;
            let (cmap, nc) = dev_span(tr, &dev, &format!("cmap:l{lvl}"), |_| {
                gpu_cmap_ws(&dev, &mat, d, mt_threads, &mut scratch)
            })?;
            if nc as f64 / cur.n as f64 > ccfg.reduction_cutoff {
                break;
            }
            let coarse = dev_span(tr, &dev, &format!("contract:l{lvl}"), |_| {
                gpu_contract_ws(&dev, &cur, &mat, &cmap, nc, cfg.merge, mt_threads, &mut scratch)
            })?;
            uniform = false;
            levels.push((std::mem::replace(&mut cur, coarse), cmap));
        }
        drop(scratch);
        let coarse_host = dev_span(tr, &dev, "download:coarse", |_| cur.download(&dev))?;

        // Middle: mt-metis coarsening, initial partition and refinement
        // back up to the switchover level.
        let (part_at_entry, _) = tr.span("mtmetis", |_| {
            let mt = MtMetisConfig {
                k: cfg.k,
                threads: cfg.cpu_threads,
                ubfactor: cfg.ubfactor,
                seed: cfg.seed,
                ..MtMetisConfig::new(cfg.k)
            };
            let model = CpuModel::xeon_e5540(cfg.cpu_threads);
            let mut ledger = CostLedger::new();
            let hierarchy: Hierarchy =
                gpm_mtmetis::parallel_coarsen(&coarse_host, &mt, &model, &mut ledger);
            let (cpart, _) = gpm_mtmetis::pinit::parallel_init_partition(
                hierarchy.coarsest(),
                cfg.k,
                cfg.ubfactor,
                mt.gggp_trials,
                mt.fm_passes,
                cfg.seed,
                cfg.cpu_threads,
            );
            gpm_mtmetis::uncoarsen_with_refine(&hierarchy, cpart, &mt, &model, &mut ledger)
        });

        // Up: projection and refinement per level, then the download.
        let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), cfg.k, cfg.ubfactor);
        let maxw = u32::try_from(maxw).map_err(|_| "balance cap exceeds u32".to_string())?;
        let mut dpart = dev_span(tr, &dev, "upload:part", |_| dev.h2d(&part_at_entry))?;
        for lvl in (0..levels.len()).rev() {
            let (fine, cmap) = &levels[lvl];
            dpart = dev_span(tr, &dev, &format!("project:l{lvl}"), |_| {
                gpu_project(&dev, cmap, &dpart, d, mt_threads)
            })?;
            dev_span(tr, &dev, &format!("refine:l{lvl}"), |_| {
                let pw = gpu_part_weights(&dev, fine, &dpart, cfg.k, d, mt_threads)?;
                gpu_refine(&dev, fine, &dpart, &pw, cfg.k, maxw, cfg.refine_passes, d, mt_threads)
            })?;
        }
        dev_span(tr, &dev, "download:part", |_| dev.d2h(&dpart))
    });
    Ok(Replay { part: part?, kernel_log: dev.kernel_log() })
}

/// Family of a replay span name (`match:l3` → `match`), for the kernel
/// spans only.
pub fn span_family(name: &str) -> Option<&'static str> {
    let stem = name.split(':').next()?;
    crate::report::WALL_FAMILIES.into_iter().find(|f| *f == stem)
}
