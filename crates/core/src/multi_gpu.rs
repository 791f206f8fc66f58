//! Multi-GPU partitioning — the paper's stated future work ("partitioning
//! of bigger graphs that do not fit to the global memory can be done on a
//! cluster of GPUs").
//!
//! The pipeline (DESIGN.md §15) shards the vertex range into one
//! contiguous block per device ([`gpm_graph::subgraph::halo_shards`]) and
//! runs the per-device loops as **real concurrent tasks** on `gpm-pool`
//! workers, joined by an [`Interconnect`] cost model
//! ([`gpm_gpu_sim::DeviceGroup`]):
//!
//! * **Coarsening supersteps** — each device contracts its local block
//!   one level per superstep (the single-GPU path's per-level step, with
//!   its kernels and per-level seeds); after every superstep, neighboring
//!   shards exchange boundary-cmap updates (each device keeps a `bmap`:
//!   border slot → current coarse id, composed on-device through the
//!   level's cmap), so every shard always knows the coarse identity of its
//!   ghosts. Modeled superstep time = max over devices + the slowest
//!   link's halo traffic.
//! * **Merge** — the coarsest shard graphs are downloaded and stitched
//!   with the cross-shard edges mapped through the exchanged bmaps (cross
//!   edges are *never dropped*; they are carried at every granularity),
//!   and the CPU partitions the merged coarse graph with mt-metis.
//! * **Uncoarsening supersteps** — devices refine back up level-locked
//!   from the coarse end (a device with fewer levels idles at its
//!   coarsest until the deeper devices catch up, so all reach the finest
//!   level together). Each superstep builds a device-local *halo graph*
//!   (ghost vertices appended with zero weight, reverse edges for
//!   re-marking) and runs ghost-aware refinement passes
//!   ([`crate::kernels::halo::HaloRefine`]): between passes the
//!   orchestrator ships only the moved border labels to the devices that
//!   ghost them and allreduces the partition weights; per-partition
//!   headroom caps (each device may claim `1/D` of the remaining balance
//!   headroom, the `gpm-parmetis` trick) keep concurrent commits jointly
//!   balance-safe. There is no trailing CPU seam-repair pass — the halo
//!   exchange is the seam repair.
//!
//! Determinism: shards, halo layouts and exchange routes are sorted
//! host-side; merges and moved-list consumption are index-ordered or
//! set-idempotent; device kernels carry the single-GPU path's
//! thread-count-independence guarantees. Partitions and modeled-time
//! ledgers are therefore byte-identical for any `GPM_THREADS`.
//!
//! The original fold-and-stitch prototype (cross edges held out of
//! coarsening, blind per-device refinement, CPU seam cleanup) is a
//! test-only reference: the unit tests check that the halo path never
//! cuts more edges than it does.

use crate::gpu_graph::{h2d_idx, GpuCsr};
use crate::kernels::halo::{
    gpu_build_halo_graph, gpu_compose_bmap, gpu_project_halo, HaloLayout, HaloRefine,
};
use crate::{Coarsening, GpMetisConfig, GpuLevel, PartitionError, RunReport};
use gpm_gpu_sim::{
    DBuf, Device, DeviceError, DeviceGroup, EngineId, EventId, LinkConfig, LinkStats,
    OverlapReport, Timeline,
};
use gpm_graph::boundary::BoundaryTracker;
use gpm_graph::builder::GraphBuilder;
use gpm_graph::csr::{CsrGraph, Vid};
use gpm_graph::subgraph::{halo_shards, HaloShard};
use gpm_metis::coarsen::CoarsenConfig;
use gpm_metis::cost::{CostLedger, CpuModel, Work};
use gpm_metis::PartitionResult;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Chunks per shard slice on the overlap timeline: device `i`'s copy
/// engine uploads chunk `c` while the host cuts chunk `c+1`
/// (double-buffered H2D transfers, DESIGN.md §16). Accounting only —
/// the real upload is one call either way.
const UPLOAD_CHUNKS: usize = 8;

/// Configuration: a per-device [`GpMetisConfig`], the device count, and
/// the fabric joining the devices.
#[derive(Debug, Clone)]
pub struct MultiGpuConfig {
    /// Per-device settings (including each device's memory capacity).
    pub base: GpMetisConfig,
    /// Number of simulated devices.
    pub devices: usize,
    /// Interconnect cost model (default: PCIe gen2, staged through host).
    pub link: LinkConfig,
}

impl MultiGpuConfig {
    /// `devices` GPUs with the given per-device base configuration on the
    /// default PCIe-gen2 fabric. A zero device count is reported as a
    /// typed [`PartitionError::Config`] by [`partition_multi`], not here.
    pub fn new(base: GpMetisConfig, devices: usize) -> Self {
        MultiGpuConfig { base, devices, link: LinkConfig::pcie_gen2() }
    }

    /// Builder-style interconnect override.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }
}

/// Result of a multi-GPU run.
#[derive(Debug, Clone)]
pub struct MultiGpuResult {
    /// The partition and modeled-time ledger.
    pub result: PartitionResult,
    /// Devices used.
    pub devices: usize,
    /// GPU coarsening levels per device.
    pub gpu_levels: Vec<usize>,
    /// Peak device memory per device (each must fit its own capacity).
    pub peak_device_bytes: Vec<u64>,
    /// Total PCIe bytes moved (all devices, host transfers).
    pub transfer_bytes: u64,
    /// Per-ordered-link interconnect traffic ledger.
    pub link_stats: Vec<(u32, u32, LinkStats)>,
    /// Total device-to-device payload bytes.
    pub interconnect_bytes: u64,
    /// Total modeled interconnect seconds.
    pub interconnect_seconds: f64,
    /// Cross-partition boundary vertices of the final partition
    /// ([`BoundaryTracker`] over the whole graph).
    pub boundary_vertices: usize,
    /// Fault/degradation record (the multi-GPU path runs clean: fault
    /// plans target the single-device pipeline).
    pub report: RunReport,
    /// Overlap-aware schedule (critical-path makespan over per-device
    /// compute/copy engines, per-link comm engines and the host CPU lane).
    /// Always present for two or more devices; one device delegates to the
    /// single-GPU pipeline, whose degraded paths carry none.
    pub overlap: Option<OverlapReport>,
}

/// Per-superstep communication: modeled seconds per ordered link, folded
/// into the ledger as the *slowest link* (links are full-duplex and
/// mutually independent, so a superstep's exchange completes when its
/// busiest link drains).
#[derive(Default)]
struct CommStep {
    per_link: BTreeMap<(u32, u32), f64>,
}

impl CommStep {
    fn add(&mut self, secs: f64, src: u32, dst: u32) {
        *self.per_link.entry((src, dst)).or_default() += secs;
    }

    fn max(&self) -> f64 {
        self.per_link.values().fold(0.0, |a, &b| a.max(b))
    }
}

/// Orchestrator-side state of one device's pipeline.
struct DevState {
    shard: HaloShard,
    /// Coarsening in progress; taken when the coarsest shard downloads.
    coarsen: Option<Coarsening>,
    /// Border slot → current coarse id, composed per level on-device.
    /// Stays allocated until the run ends (it counts toward every peak).
    bmap: Option<DBuf<u32>>,
    /// Host snapshot of `bmap` after each completed level (the payload of
    /// the per-level boundary-cmap halo exchange).
    bmap_levels: Vec<Vec<u32>>,
    /// Level hierarchy; uncoarsening *pops* levels as it walks back up,
    /// so coarser levels' device buffers are released as soon as they
    /// have been projected through (the per-device peak stays ~1/D).
    levels: Vec<GpuLevel>,
    /// Total coarsening levels (recorded before uncoarsening pops them).
    total_levels: usize,
    peak: u64,
    /// Partition vector at the device's current granularity (augmented
    /// with ghost slots while a refinement level is in flight).
    part: Option<DBuf<u32>>,
    /// Local (non-ghost) vertex count at the current granularity.
    n_local: usize,
    /// Refinement state of the uncoarsening superstep in flight.
    refine: Option<HaloStep>,
}

impl DevState {
    fn part(&self) -> &DBuf<u32> {
        self.part.as_ref().expect("the coarse partition was scattered")
    }
}

/// A device's halo refinement state for one uncoarsening superstep,
/// released in the superstep epilogue.
struct HaloStep {
    /// The level's graph with its ghost vertices appended.
    halo: GpuCsr,
    refine: HaloRefine,
    pw: DBuf<u32>,
    caps: DBuf<u32>,
}

fn lock_all<'a>(states: &'a [Mutex<DevState>]) -> Vec<MutexGuard<'a, DevState>> {
    states.iter().map(|m| m.lock().unwrap()).collect()
}

/// One concurrent superstep: `f` runs on every device's state as a
/// `gpm-pool` task. The devices run concurrently, so the superstep costs
/// as much as its slowest device; that maximum is added to `*secs`. `op`
/// then receives each device's own modeled seconds, to record that
/// device's share on the overlap timeline.
fn superstep<T: Send>(
    group: &DeviceGroup,
    states: &[Mutex<DevState>],
    secs: &mut f64,
    f: impl Fn(usize, &Device, &mut DevState) -> Result<T, DeviceError> + Sync,
    mut op: impl FnMut(usize, f64),
) -> Result<Vec<T>, DeviceError> {
    let before: Vec<f64> = group.devices().iter().map(Device::elapsed).collect();
    let out = gpm_pool::scoped_blocking(states.len(), |i| {
        f(i, group.device(i), &mut states[i].lock().expect("a device task panicked"))
    });
    let out = out.into_iter().collect::<Result<Vec<T>, _>>()?;
    let deltas: Vec<f64> =
        group.devices().iter().zip(&before).map(|(dv, &b)| dv.elapsed() - b).collect();
    *secs += deltas.iter().copied().fold(0.0, f64::max);
    for (i, &dur) in deltas.iter().enumerate() {
        op(i, dur);
    }
    Ok(out)
}

/// The current coarse id of border slot `b` once `lvls` levels have been
/// composed (0 levels = the border vertex's own local id).
#[allow(clippy::unnecessary_cast)] // `Vid as u32` is a real narrowing under idx64
fn border_id(st: &DevState, b: usize, lvls: usize) -> u32 {
    if lvls == 0 {
        st.shard.border[b] as u32
    } else {
        st.bmap_levels[lvls - 1][b]
    }
}

/// Partition `g` across `cfg.devices` simulated GPUs joined by
/// `cfg.link`. Each device only ever holds `~1/devices` of the graph
/// (plus its halo), so graphs exceeding a single device's memory become
/// partitionable; cross-shard edges participate in every phase through
/// the halo exchange.
pub fn partition_multi(
    g: &CsrGraph,
    cfg: &MultiGpuConfig,
) -> Result<MultiGpuResult, PartitionError> {
    if cfg.devices == 0 {
        return Err(PartitionError::Config("device count must be at least 1".to_string()));
    }
    if cfg.devices == 1 {
        // One device is exactly the single-GPU pipeline: delegate so the
        // partition AND the modeled-time ledger are byte-identical.
        let r = crate::partition(g, &cfg.base)?;
        let boundary_vertices = BoundaryTracker::build(g, &r.result.part).boundary_count();
        return Ok(MultiGpuResult {
            devices: 1,
            gpu_levels: vec![r.gpu.gpu_levels],
            peak_device_bytes: vec![r.gpu.peak_device_bytes],
            transfer_bytes: r.gpu.transfer_bytes,
            link_stats: Vec::new(),
            interconnect_bytes: 0,
            interconnect_seconds: 0.0,
            boundary_vertices,
            report: r.report,
            overlap: r.overlap,
            result: r.result,
        });
    }

    let t0 = std::time::Instant::now();
    let base = &cfg.base;
    let k = base.k;
    let n = g.n();
    let d = cfg.devices.min(n.max(1));
    let model = CpuModel::xeon_e5540(base.cpu_threads);
    let max_vwgt = CoarsenConfig::for_k(k).max_vwgt(g.total_vwgt());
    let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), k, base.ubfactor);
    let maxw = u32::try_from(maxw).map_err(|_| PartitionError::WeightOverflow)?;
    let mut ledger = CostLedger::new();
    let group = DeviceGroup::new(d, &base.gpu, cfg.link.clone());
    let ic = group.interconnect();

    // Overlap timeline (DESIGN.md §16): every phase records its ops where
    // the serialized ledger charges it, with explicit event dependencies,
    // and the schedule is evaluated into a critical-path makespan at the
    // end. The pipeline never consults it.
    let mut tl = Timeline::new();
    // last device-side op per device (the dep target for cross-engine
    // edges: halo exchanges, downloads, allreduce legs)
    let mut last_comp: Vec<EventId> = Vec::with_capacity(d);

    // --- shard with halo bookkeeping -----------------------------------
    let shards = halo_shards(g, d);
    // Shard extraction runs as d concurrent pool tasks (see halo_shards);
    // the scans are sequential copies over the block's CSR slice (vertex
    // rate), the ghost lookups per cross edge are gathers (edge rate).
    let shard_works: Vec<Work> = shards
        .iter()
        .map(|sh| {
            Work::new(sh.stubs.len() as u64, (sh.sub.adjncy.len() + 2 * sh.sub.n()) as u64)
                .with_ws(sh.sub.bytes())
        })
        .collect();
    ledger.parallel("cpu:mg:shard", &model, &shard_works, 1);
    // The CPU lane cuts the shards one block after another, in chunks:
    // device i's copy engine uploads chunk c while the lane cuts chunk
    // c+1 (double-buffered transfers). Equal slices of the phase charge
    // keep the lane's busy time exactly the ledger value; chunk
    // granularity treats bandwidth as dominant (PCIe latency is µs
    // against ms-scale shard uploads).
    let chunk = ledger.phases.last().map_or(0.0, |(_, s)| *s) / (d * UPLOAD_CHUNKS) as f64;
    let shard_chunk_ids: Vec<Vec<EventId>> = (0..d)
        .map(|_| {
            (0..UPLOAD_CHUNKS)
                .map(|_| tl.record(EngineId::Cpu, "cpu:mg:shard", chunk, &[]))
                .collect()
        })
        .collect();
    // Distinct border slots receiver j references on owner i — the
    // per-level payload of the boundary-cmap exchange.
    let mut needed: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (j, sh) in shards.iter().enumerate() {
        let mut per_owner: BTreeMap<usize, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for (gi, &own) in sh.ghost_owner.iter().enumerate() {
            per_owner.entry(own as usize).or_default().insert(sh.ghost_owner_border[gi]);
        }
        for (i, slots) in per_owner {
            needed.insert((i, j), slots.len() as u64);
        }
    }
    let states: Vec<Mutex<DevState>> = shards
        .into_iter()
        .map(|shard| {
            Mutex::new(DevState {
                shard,
                coarsen: None,
                bmap: None,
                bmap_levels: Vec::new(),
                levels: Vec::new(),
                total_levels: 0,
                peak: 0,
                part: None,
                n_local: 0,
                refine: None,
            })
        })
        .collect();

    // --- upload (concurrent) -------------------------------------------
    let mut h2d_graph_secs = 0.0;
    superstep(
        &group,
        &states,
        &mut h2d_graph_secs,
        |_, dev, st| {
            let g0 = GpuCsr::upload(dev, &st.shard.sub)?;
            if !st.shard.border.is_empty() {
                st.bmap = Some(h2d_idx(dev, &st.shard.border)?);
            }
            let uniform = st.shard.sub.uniform_edge_weights();
            st.coarsen = Some(Coarsening::new(g0, uniform, max_vwgt));
            Ok(())
        },
        |i, dur| {
            // One op per shard chunk; copy-engine chaining serializes the
            // chunks while each waits only for its slice of the shard cut.
            let ids: Vec<EventId> = shard_chunk_ids[i]
                .iter()
                .map(|&sid| {
                    let secs = dur / UPLOAD_CHUNKS as f64;
                    tl.record(EngineId::H2D(i as u32), "xfer:h2d:graph", secs, &[sid])
                })
                .collect();
            last_comp.push(ids[UPLOAD_CHUNKS - 1]);
        },
    )?;
    ledger.seconds("xfer:h2d:graph(multi,max)", h2d_graph_secs);

    // --- coarsening supersteps (concurrent, one level each) ------------
    let mut gpu_coarsen_secs = 0.0;
    let mut ic_coarsen_secs = 0.0;
    // Exchange payloads (bmap snapshots) are consumed host-side at merge
    // time, not by the next superstep's kernels — so on the timeline the
    // exchanges feed the merge, and each device's levels form one
    // uninterrupted compute chain (comm/compute overlap replacing the
    // serialized superstep fold).
    let mut coarsen_exchange_ids: Vec<EventId> = Vec::new();
    while lock_all(&states)
        .iter()
        .any(|st| st.coarsen.as_ref().is_some_and(|co| co.wants_level(base)))
    {
        let stepped = superstep(
            &group,
            &states,
            &mut gpu_coarsen_secs,
            |_, dev, st| {
                let Some(co) = st.coarsen.as_mut().filter(|co| co.wants_level(base)) else {
                    return Ok(false);
                };
                let lvl = co.levels.len();
                if !co.step(dev, base)? {
                    return Ok(false); // stalled; this shard hands over early
                }
                let snap = match &st.bmap {
                    Some(bmap) => {
                        let cmap = &co.levels[lvl].cmap;
                        gpu_compose_bmap(dev, cmap, bmap, base.distribution, base.max_threads)?;
                        (0..bmap.len()).map(|s| bmap.load(s)).collect()
                    }
                    None => Vec::new(),
                };
                st.bmap_levels.push(snap);
                Ok(true)
            },
            |i, dur| {
                if dur > 0.0 {
                    let after = [last_comp[i]];
                    last_comp[i] =
                        tl.record(EngineId::Compute(i as u32), "gpu:coarsen", dur, &after);
                }
            },
        )?;
        // Boundary-cmap halo exchange: every device that finished a level
        // ships its changed border slots to each neighbor that ghosts
        // them (coarse ids renumber every level, so all needed slots are
        // changed slots).
        let mut comm = CommStep::default();
        for (i, &did) in stepped.iter().enumerate() {
            if !did {
                continue;
            }
            for (&(_, j), &slots) in needed.range((i, 0)..(i + 1, 0)) {
                let secs = ic.record(i as u32, j as u32, 4 * slots);
                comm.add(secs, i as u32, j as u32);
                let link = EngineId::Link(i as u32, j as u32);
                coarsen_exchange_ids.push(tl.record(
                    link,
                    "ic:coarsen:halo",
                    secs,
                    &[last_comp[i]],
                ));
            }
        }
        ic_coarsen_secs += comm.max();
    }
    ledger.seconds("gpu:coarsen(multi,max)", gpu_coarsen_secs);
    ledger.seconds("ic:coarsen:halo", ic_coarsen_secs);

    // --- download coarsest shards (concurrent) -------------------------
    let mut d2h_coarse_secs = 0.0;
    let mut d2h_coarse_ids: Vec<EventId> = Vec::with_capacity(d);
    let coarse_hosts = superstep(
        &group,
        &states,
        &mut d2h_coarse_secs,
        |_, dev, st| {
            // `into_outcome` frees the contraction scratch before the
            // download, so the peak below does not count it
            let co = st.coarsen.take().expect("every device coarsened").into_outcome();
            let host = co.coarsest.download(dev)?;
            st.peak = co.peak_mem.max(dev.mem_used());
            st.total_levels = co.levels.len();
            st.levels = co.levels;
            Ok(host)
        },
        |i, dur| {
            let after = [last_comp[i]];
            d2h_coarse_ids.push(tl.record(EngineId::D2H(i as u32), "xfer:d2h:coarse", dur, &after));
        },
    )?;
    ledger.seconds("xfer:d2h:coarse(multi,max)", d2h_coarse_secs);

    // --- merge coarsest shards + cross edges on the host ---------------
    let (merged, offsets) = {
        let sts = lock_all(&states);
        let mut offsets = vec![0 as Vid; d + 1];
        for (i, ch) in coarse_hosts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + ch.n() as Vid;
        }
        let nc_total = offsets[d] as usize;
        let mut b = GraphBuilder::new(nc_total);
        let mut vwgt = vec![0u32; nc_total];
        for (ch, &off) in coarse_hosts.iter().zip(&offsets) {
            for c in 0..ch.n() as Vid {
                vwgt[(off + c) as usize] = ch.vwgt[c as usize];
                for (x, w) in ch.edges(c) {
                    if c < x {
                        b.add_edge(off + c, off + x, w);
                    }
                }
            }
        }
        for i in 0..d {
            let li = sts[i].levels.len();
            for s in &sts[i].shard.stubs {
                let gu = sts[i].shard.new_to_old[s.u as usize];
                let gv = sts[i].shard.ghosts[s.ghost as usize];
                if gu >= gv {
                    continue; // each cross edge once, from its low endpoint
                }
                let j = sts[i].shard.ghost_owner[s.ghost as usize] as usize;
                let js = sts[i].shard.ghost_owner_border[s.ghost as usize] as usize;
                let cu = offsets[i] + border_id(&sts[i], s.u_border as usize, li) as Vid;
                let cv = offsets[j] + border_id(&sts[j], js, sts[j].levels.len()) as Vid;
                b.add_edge(cu, cv, s.w);
            }
        }
        (b.vertex_weights(vwgt).build(), offsets)
    };
    ledger.serial(
        "cpu:mg:merge",
        &model,
        Work::new(merged.adjncy.len() as u64, merged.n() as u64).with_ws(merged.bytes()),
    );
    // the merge needs every coarse shard and every exchanged bmap
    let deps: Vec<EventId> = d2h_coarse_ids.iter().chain(&coarsen_exchange_ids).copied().collect();
    let secs = ledger.phases.last().map_or(0.0, |(_, s)| *s);
    tl.record(EngineId::Cpu, "cpu:mg:merge", secs, &deps);

    // --- CPU partitions the merged coarse graph ------------------------
    let mid = gpm_mtmetis::partition(&merged, &crate::mt_config(base));
    let mut mt_done: Option<EventId> = None;
    for (name, secs) in &mid.ledger.phases {
        let name = format!("cpu:{name}");
        ledger.seconds(&name, *secs);
        mt_done = Some(tl.record(EngineId::Cpu, &name, *secs, &[]));
    }
    let mut global_pw = vec![0u32; k];
    for (c, &p) in mid.part.iter().enumerate() {
        global_pw[p as usize] += merged.vwgt[c];
    }

    // --- scatter coarse partition slices (concurrent) ------------------
    let mut h2d_part_secs = 0.0;
    let mut scatter_ids: Vec<EventId> = Vec::with_capacity(d);
    superstep(
        &group,
        &states,
        &mut h2d_part_secs,
        |i, dev, st| {
            let slice: Vec<u32> =
                (offsets[i]..offsets[i + 1]).map(|c| mid.part[c as usize]).collect();
            st.part = Some(dev.h2d(&slice)?);
            Ok(())
        },
        |i, dur| {
            let h2d = EngineId::H2D(i as u32);
            scatter_ids.push(tl.record(h2d, "xfer:h2d:part", dur, mt_done.as_slice()));
        },
    )?;
    ledger.seconds("xfer:h2d:part(multi,max)", h2d_part_secs);

    // --- uncoarsening supersteps ---------------------------------------
    // Level-locked from the coarse end: device i idles at its coarsest
    // until superstep `lmax - levels_i`, then walks one level per
    // superstep; every device reaches level 0 on the final superstep.
    let lmax = lock_all(&states).iter().map(|s| s.total_levels).max().unwrap_or(0);
    let mut gpu_uncoarsen_secs = 0.0;
    let mut ic_label_secs = 0.0;
    let mut ic_allreduce_secs = 0.0;
    // per-device host-side layout work: stub aggregation (gathers) and
    // prefix-sum/fill passes (sequential writes)
    let mut halo_edge_works = vec![0u64; d];
    let mut halo_vert_works = vec![0u64; d];
    // Timeline bookkeeping: layout ops get provisional durations
    // (rescaled to the cpu:mg:halo charge once it is known), and events
    // that gate a device's next refinement pass accumulate here between
    // passes — split by what they actually gate: allreduce results
    // (capacity headroom) gate the whole pass, incoming label ships only
    // its boundary portion (interior/boundary comm/compute overlap).
    let mut halo_ops: Vec<(EventId, f64)> = Vec::new();
    let mut caps_deps: Vec<Vec<EventId>> = vec![Vec::new(); d];
    let mut ghost_deps: Vec<Vec<EventId>> = vec![Vec::new(); d];
    for step in 0..lmax {
        // Orchestrator: schedule, ghost views and halo layouts.
        let mut active = vec![false; d];
        let mut lvl = vec![0usize; d];
        // per active device: its sorted (owner, coarse-id) ghost slots
        let mut gviews: Vec<Option<Vec<(u32, u32)>>> = vec![None; d];
        // per active device: its halo layout and the CPU-lane op building it
        let mut layouts: Vec<Option<(HaloLayout, EventId)>> = (0..d).map(|_| None).collect();
        let mut routes: Vec<BTreeMap<u32, Vec<(usize, u32)>>> =
            (0..d).map(|_| BTreeMap::new()).collect();
        {
            let sts = lock_all(&states);
            for i in 0..d {
                let li = sts[i].total_levels;
                if li > 0 && step >= lmax - li {
                    active[i] = true;
                    lvl[i] = li - 1 - (step - (lmax - li));
                }
            }
            // Granularity each device's partition sits at after this
            // superstep's projection (idle devices stay at the coarsest).
            let cl: Vec<usize> =
                (0..d).map(|i| if active[i] { lvl[i] } else { sts[i].total_levels }).collect();
            for j in 0..d {
                if !active[j] {
                    continue;
                }
                let sh = &sts[j].shard;
                // Ghost slots: distinct (owner, owner-current-id) pairs.
                let pairs: Vec<(u32, u32)> = (0..sh.ghosts.len())
                    .map(|gi| {
                        let own = sh.ghost_owner[gi] as usize;
                        let b = sh.ghost_owner_border[gi] as usize;
                        (own as u32, border_id(&sts[own], b, cl[own]))
                    })
                    .collect();
                let mut slots = pairs.clone();
                slots.sort_unstable();
                slots.dedup();
                let fine_to_slot: Vec<u32> =
                    pairs.iter().map(|p| slots.binary_search(p).unwrap() as u32).collect();
                for (slotno, &(own, cur)) in slots.iter().enumerate() {
                    routes[own as usize].entry(cur).or_default().push((j, slotno as u32));
                }
                // Halo edges at this granularity, aggregated per
                // (local coarse id, ghost slot) like contraction does.
                // (`lvl[j]` is always the last remaining level: the
                // device phase pops one per superstep, coarse end first.)
                let fine_gpu = &sts[j].levels[lvl[j]].graph;
                let n_local = fine_gpu.n;
                let n_ghost = slots.len();
                let n_aug = n_local + n_ghost;
                let mut agg: BTreeMap<(u32, u32), u32> = BTreeMap::new();
                for s in &sh.stubs {
                    let cu = border_id(&sts[j], s.u_border as usize, lvl[j]);
                    let slot = fine_to_slot[s.ghost as usize];
                    *agg.entry((cu, slot)).or_default() += s.w;
                }
                let mut fwd_cnt = vec![0u32; n_local];
                let mut rev_cnt = vec![0u32; n_ghost];
                for &(cu, slot) in agg.keys() {
                    fwd_cnt[cu as usize] += 1;
                    rev_cnt[slot as usize] += 1;
                }
                let old_xadj = fine_gpu.xadj.to_vec();
                let mut aug_xadj = vec![0u32; n_aug + 1];
                let mut extra_off = vec![0u32; n_aug + 1];
                for u in 0..n_local {
                    let deg = old_xadj[u + 1] - old_xadj[u];
                    aug_xadj[u + 1] = aug_xadj[u] + deg + fwd_cnt[u];
                    extra_off[u + 1] = extra_off[u] + fwd_cnt[u];
                }
                for t in 0..n_ghost {
                    aug_xadj[n_local + t + 1] = aug_xadj[n_local + t] + rev_cnt[t];
                    extra_off[n_local + t + 1] = extra_off[n_local + t] + rev_cnt[t];
                }
                let total_extra = extra_off[n_aug] as usize;
                let mut extra_adj = vec![0u32; total_extra];
                let mut extra_w = vec![0u32; total_extra];
                let mut cursor = extra_off.clone();
                for (&(cu, slot), &w) in &agg {
                    let c = cursor[cu as usize] as usize;
                    extra_adj[c] = n_local as u32 + slot;
                    extra_w[c] = w;
                    cursor[cu as usize] += 1;
                }
                let mut rev: Vec<(u32, u32, u32)> =
                    agg.iter().map(|(&(cu, slot), &w)| (slot, cu, w)).collect();
                rev.sort_unstable();
                for (slot, cu, w) in rev {
                    let c = cursor[n_local + slot as usize] as usize;
                    extra_adj[c] = cu;
                    extra_w[c] = w;
                    cursor[n_local + slot as usize] += 1;
                }
                let e_inc = (sh.stubs.len() + total_extra) as u64;
                let v_inc = n_aug as u64;
                halo_edge_works[j] += e_inc;
                halo_vert_works[j] += v_inc;
                // Layouts read only coarsening-era data (shard stubs and
                // bmap snapshots), so the CPU lane prepares step s+1's
                // layouts while the devices still refine step s.
                let w = Work::new(e_inc, v_inc).seconds(&model);
                let id = tl.record(EngineId::Cpu, "cpu:mg:halo", w, &[]);
                halo_ops.push((id, w));
                layouts[j] = Some((HaloLayout { aug_xadj, extra_off, extra_adj, extra_w }, id));
                gviews[j] = Some(slots);
            }
        }

        // Devices: project, assemble halo graph, allocate pass state.
        superstep(
            &group,
            &states,
            &mut gpu_uncoarsen_secs,
            |i, dev, st| {
                let Some((layout, _)) = &layouts[i] else { return Ok(()) };
                let level = st.levels.pop().expect("an active device has a level left");
                let n_local = level.graph.n;
                let n_ghost = layout.aug_xadj.len() - 1 - n_local;
                let coarse_part = st.part.take().expect("the coarse partition was scattered");
                let part = gpu_project_halo(
                    dev,
                    &level.cmap,
                    &coarse_part,
                    n_ghost,
                    base.distribution,
                    base.max_threads,
                )?;
                drop(coarse_part);
                let halo = gpu_build_halo_graph(
                    dev,
                    &level.graph,
                    layout,
                    base.distribution,
                    base.max_threads,
                )?;
                // in-superstep memory peak: fine graph + halo copy coexist
                // only here; dropping the level frees the fine graph and its
                // cmap before the refinement pass state is allocated
                st.peak = st.peak.max(dev.mem_used());
                drop(level);
                let refine = HaloRefine::new(dev, &halo, n_local, k)?;
                let pw = dev.alloc::<u32>(k)?;
                let caps = dev.alloc::<u32>(k)?;
                st.n_local = n_local;
                st.part = Some(part);
                st.refine = Some(HaloStep { halo, refine, pw, caps });
                Ok(())
            },
            |i, dur| {
                // projection + halo-graph assembly: needs this step's
                // layout (CPU lane) and, on the first active step, the
                // scattered coarse slice
                if let Some((_, layout_id)) = &layouts[i] {
                    let deps = [*layout_id, scatter_ids[i]];
                    let compute = EngineId::Compute(i as u32);
                    last_comp[i] = tl.record(compute, "gpu:uncoarsen:project", dur, &deps);
                }
            },
        )?;

        // Full ghost-label exchange: after projection every active device
        // needs its ghosts' labels at the new granularity.
        let mut bfrac = vec![0.0f64; d];
        {
            let sts = lock_all(&states);
            // Boundary share of each device's pass work at this
            // granularity: ghost slots plus ghosted border vertices over
            // the augmented vertex count. Splits the modeled pass op so
            // only this fraction waits on label traffic.
            for j in 0..d {
                let Some(slots) = &gviews[j] else { continue };
                let ghosts = slots.len() as f64;
                let border = routes[j].len() as f64;
                let aug = sts[j].n_local as f64 + ghosts;
                if aug > 0.0 {
                    bfrac[j] = ((ghosts + border) / aug).min(1.0);
                }
            }
            let mut comm = CommStep::default();
            for j in 0..d {
                let Some(slots) = &gviews[j] else { continue };
                let base_slot = sts[j].n_local;
                let jpart = sts[j].part();
                let mut per_owner: BTreeMap<u32, u64> = BTreeMap::new();
                for (slotno, &(own, cur)) in slots.iter().enumerate() {
                    let label = sts[own as usize].part().load(cur as usize);
                    jpart.store(base_slot + slotno, label);
                    *per_owner.entry(own).or_default() += 4;
                }
                for (own, bytes) in per_owner {
                    let secs = ic.record(own, j as u32, bytes);
                    comm.add(secs, own, j as u32);
                    // reads the owner's projected labels, lands in the
                    // receiver's ghost slots
                    let deps = [last_comp[own as usize], last_comp[j]];
                    let link = EngineId::Link(own, j as u32);
                    ghost_deps[j].push(tl.record(link, "ic:refine:labels", secs, &deps));
                }
            }
            ic_label_secs += comm.max();
        }

        // Refinement passes: all active devices run one pass concurrently,
        // then the orchestrator ships moved border labels and allreduces
        // the partition weights.
        let mut pending_gchg: Vec<Vec<u32>> = vec![Vec::new(); d];
        for pass in 0..base.refine_passes {
            let dir_up = (pass % 2 == 0) as u32;
            for st in lock_all(&states).iter() {
                let Some(hs) = &st.refine else { continue };
                for (q, &w) in global_pw.iter().enumerate() {
                    hs.pw.store(q, w);
                    // This device's share of the remaining headroom:
                    // D concurrent committers can't jointly overshoot.
                    let headroom = maxw.saturating_sub(w);
                    hs.caps.store(q, w.saturating_add(headroom / d as u32));
                }
            }
            let snap = global_pw.clone();
            let gchg: Vec<Vec<u32>> = pending_gchg.iter_mut().map(std::mem::take).collect();
            let res = superstep(
                &group,
                &states,
                &mut gpu_uncoarsen_secs,
                |i, dev, st| {
                    let DevState { refine: Some(hs), part: Some(part), n_local, .. } = st else {
                        return Ok((0, Vec::new()));
                    };
                    hs.refine.pass(
                        dev,
                        &hs.halo,
                        *n_local,
                        part,
                        &hs.pw,
                        &hs.caps,
                        k,
                        dir_up,
                        &gchg[i],
                        base.distribution,
                        base.max_threads,
                    )
                },
                |i, dur| {
                    if !active[i] {
                        return;
                    }
                    // Interior vertices carry no ghost edges, so their
                    // share of the pass needs only the previous pass's
                    // allreduce result (capacity headroom) and runs while
                    // the boundary's label traffic is still in flight; the
                    // boundary portion then consumes the shipped labels
                    // (two kernel launches, interior first).
                    let f = bfrac[i];
                    let compute = EngineId::Compute(i as u32);
                    let caps = std::mem::take(&mut caps_deps[i]);
                    tl.record(compute, "gpu:uncoarsen:pass", dur * (1.0 - f), &caps);
                    let ghosts = std::mem::take(&mut ghost_deps[i]);
                    last_comp[i] =
                        tl.record(compute, "gpu:uncoarsen:pass:boundary", dur * f, &ghosts);
                },
            )?;
            let total: u64 = res.iter().map(|r| r.0).sum();
            {
                let sts = lock_all(&states);
                // Ship each moved border label to every device that
                // ghosts it; receivers remember the changed slots for the
                // next pass's incremental re-mark.
                let mut ship: BTreeMap<(usize, usize), Vec<(u32, u32)>> = BTreeMap::new();
                for (i, (_, moved)) in res.iter().enumerate() {
                    for &u in moved {
                        if let Some(targets) = routes[i].get(&u) {
                            let label = sts[i].part().load(u as usize);
                            for &(j, slot) in targets {
                                ship.entry((i, j)).or_default().push((slot, label));
                            }
                        }
                    }
                }
                let mut comm = CommStep::default();
                for ((i, j), mut entries) in ship {
                    entries.sort_unstable();
                    let secs = ic.record(i as u32, j as u32, 4 * entries.len() as u64);
                    comm.add(secs, i as u32, j as u32);
                    let link = EngineId::Link(i as u32, j as u32);
                    ghost_deps[j].push(tl.record(link, "ic:refine:labels", secs, &[last_comp[i]]));
                    let base_slot = sts[j].n_local;
                    let jpart = sts[j].part();
                    for (slot, label) in entries {
                        jpart.store(base_slot + slot as usize, label);
                        pending_gchg[j].push(slot);
                    }
                }
                for l in &mut pending_gchg {
                    l.sort_unstable();
                    l.dedup();
                }
                ic_label_secs += comm.max();
                // Partition-weight allreduce (star through the lowest
                // active device): gather per-device deltas, scatter the
                // new global weights. The orchestrator (host) performs the
                // reduction itself, so each leg is host-terminated and
                // pays one link traversal — not a full device-to-device
                // staged hop (see `Interconnect::record_host_leg`).
                let root = active.iter().position(|&a| a).unwrap() as u32;
                let mut comm = CommStep::default();
                let mut next: Vec<i64> = snap.iter().map(|&v| v as i64).collect();
                let mut gather_ids: Vec<EventId> = Vec::new();
                for (i, st) in sts.iter().enumerate() {
                    let Some(hs) = &st.refine else { continue };
                    for (q, nw) in next.iter_mut().enumerate() {
                        *nw += hs.pw.load(q) as i64 - snap[q] as i64;
                    }
                    if i as u32 != root {
                        let secs = ic.record_host_leg(i as u32, root, 4 * k as u64);
                        comm.add(secs, i as u32, root);
                        let link = EngineId::Link(i as u32, root);
                        let after = [last_comp[i]];
                        gather_ids.push(tl.record(link, "ic:refine:allreduce", secs, &after));
                    }
                }
                // scatter legs: the reduced weights leave only after every
                // gather arrived, and the next pass waits for its copy
                for i in 0..d {
                    if !active[i] || i as u32 == root {
                        continue;
                    }
                    let secs = ic.record_host_leg(root, i as u32, 4 * k as u64);
                    comm.add(secs, root, i as u32);
                    let link = EngineId::Link(root, i as u32);
                    caps_deps[i].push(tl.record(link, "ic:refine:allreduce", secs, &gather_ids));
                }
                caps_deps[root as usize].extend(gather_ids);
                ic_allreduce_secs += comm.max();
                for (q, nw) in next.iter().enumerate() {
                    global_pw[q] = *nw as u32;
                }
            }
            if total == 0 {
                break;
            }
        }

        // Superstep epilogue: release the level's halo state.
        for (i, st) in lock_all(&states).iter_mut().enumerate() {
            if active[i] {
                st.peak = st.peak.max(group.device(i).mem_used());
                st.refine = None;
            }
        }
    }
    // layouts for different devices are independent host-side work
    let works: Vec<Work> =
        halo_edge_works.iter().zip(&halo_vert_works).map(|(&e, &v)| Work::new(e, v)).collect();
    ledger.parallel("cpu:mg:halo", &model, &works, lmax as u64);
    // Rescale the provisional layout ops so the CPU lane's busy time
    // equals the phase charge exactly (the ledger models the layouts as
    // thread-parallel; the lane runs at that wall-clock rate).
    let t_halo = ledger.phases.last().map_or(0.0, |(_, s)| *s);
    let wsum: f64 = halo_ops.iter().map(|&(_, w)| w).sum();
    for &(id, w) in &halo_ops {
        tl.set_duration(id, if wsum > 0.0 { t_halo * (w / wsum) } else { 0.0 });
    }
    ledger.seconds("gpu:uncoarsen(multi,max)", gpu_uncoarsen_secs);
    ledger.seconds("ic:refine:labels", ic_label_secs);
    ledger.seconds("ic:refine:allreduce", ic_allreduce_secs);

    // --- gather fine partitions (concurrent) ---------------------------
    let mut d2h_part_secs = 0.0;
    let fins = superstep(
        &group,
        &states,
        &mut d2h_part_secs,
        |_, dev, st| dev.d2h(&st.part.take().expect("every device holds its fine partition")),
        |i, dur| {
            tl.record(EngineId::D2H(i as u32), "xfer:d2h:part", dur, &[last_comp[i]]);
        },
    )?;
    ledger.seconds("xfer:d2h:part(multi,max)", d2h_part_secs);
    let mut part = vec![0u32; n];
    let (gpu_levels, peaks, transfer_bytes) = {
        let sts = lock_all(&states);
        for (i, st) in sts.iter().enumerate() {
            for (lu, &old) in st.shard.new_to_old.iter().enumerate() {
                part[old as usize] = fins[i][lu];
            }
        }
        let gpu_levels: Vec<usize> = sts.iter().map(|s| s.total_levels).collect();
        let peaks: Vec<u64> =
            sts.iter().enumerate().map(|(i, s)| s.peak.max(group.device(i).mem_used())).collect();
        let xfer: u64 = group.devices().iter().map(Device::transfer_bytes_total).sum();
        (gpu_levels, peaks, xfer)
    };

    // diagnostics (like edge_cut/imbalance below, not a pipeline phase)
    let tracker = BoundaryTracker::build(g, &part);
    let edge_cut = gpm_graph::metrics::edge_cut(g, &part);
    let imbalance = gpm_graph::metrics::imbalance(g, &part, k);
    let levels = gpu_levels.iter().max().copied().unwrap_or(0) + mid.levels;
    let overlap = tl.report(ledger.total());
    Ok(MultiGpuResult {
        result: PartitionResult {
            part,
            k,
            edge_cut,
            imbalance,
            ledger,
            wall_seconds: t0.elapsed().as_secs_f64(),
            levels,
        },
        devices: d,
        gpu_levels,
        peak_device_bytes: peaks,
        transfer_bytes,
        link_stats: ic.links(),
        interconnect_bytes: ic.total_bytes(),
        interconnect_seconds: ic.total_seconds(),
        boundary_vertices: tracker.boundary_count(),
        report: RunReport::default(),
        overlap: Some(overlap),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gpu_coarsen_loop, gpu_uncoarsen_loop};
    use gpm_gpu_sim::GpuConfig;
    use gpm_graph::gen::{delaunay_like, grid2d, hugebubbles_like, usa_roads_like};
    use gpm_graph::metrics::validate_partition;
    use gpm_graph::subgraph::induced_subgraph;

    /// The original fold-and-stitch prototype, kept as the quality
    /// reference: cross-shard edges are held out of coarsening, devices
    /// refine blind to each other, and a final CPU pass repairs the seams.
    /// The halo pipeline ([`partition_multi`]) must never produce a worse
    /// cut than this. Returns the partition only: the reference's modeled
    /// time is not reported anywhere.
    fn partition_multi_stitch(g: &CsrGraph, cfg: &MultiGpuConfig) -> Vec<u32> {
        let d = cfg.devices;
        let base = &cfg.base;
        let n = g.n();
        let max_vwgt = CoarsenConfig::for_k(base.k).max_vwgt(g.total_vwgt());

        // --- split into contiguous blocks and hold out cross edges ---------
        let block_of = |u: usize| (u * d / n.max(1)).min(d - 1);
        let mut cross: Vec<(Vid, Vid, u32)> = Vec::new();
        for u in 0..n as Vid {
            for (v, w) in g.edges(u) {
                if u < v && block_of(u as usize) != block_of(v as usize) {
                    cross.push((u, v, w));
                }
            }
        }
        let mut subgraphs: Vec<(CsrGraph, Vec<Vid>)> = Vec::with_capacity(d);
        for dev_id in 0..d {
            let select: Vec<bool> = (0..n).map(|u| block_of(u) == dev_id).collect();
            subgraphs.push(induced_subgraph(g, &select));
        }
        // old -> (device, local id)
        let mut local_of = vec![(0u32, 0u32); n];
        for (dev_id, (_, map)) in subgraphs.iter().enumerate() {
            for (lid, &old) in map.iter().enumerate() {
                local_of[old as usize] = (dev_id as u32, lid as u32);
            }
        }

        // --- per-device GPU coarsening --------------------------------------
        struct DeviceState {
            dev: Device,
            levels: Vec<GpuLevel>,
            coarse_host: CsrGraph,
            composed_cmap: Vec<u32>,
        }
        // the reference reports no schedule; its loops record into a scratch
        // timeline
        let mut tl = Timeline::new();
        let mut last = tl.record(EngineId::Cpu, "stitch", 0.0, &[]);
        let mut states: Vec<DeviceState> = Vec::with_capacity(d);
        for (sub, _) in &subgraphs {
            let dev = Device::new(base.gpu.clone());
            let g0 = GpuCsr::upload(&dev, sub).unwrap();
            let co = Coarsening::new(g0, sub.uniform_edge_weights(), max_vwgt);
            let outcome = gpu_coarsen_loop(&dev, co, base, None, &mut tl, &mut last).unwrap();
            // compose the cmap chain on the host (the merge step needs the
            // fine-to-coarsest mapping for the held-out cross edges)
            let mut composed: Vec<u32> = (0..sub.n() as u32).collect();
            for level in &outcome.levels {
                let cm = dev.d2h(&level.cmap).unwrap();
                for c in composed.iter_mut() {
                    *c = cm[*c as usize];
                }
            }
            let coarse_host = outcome.coarsest.download(&dev).unwrap();
            states.push(DeviceState {
                dev,
                levels: outcome.levels,
                coarse_host,
                composed_cmap: composed,
            });
        }

        // --- merge the coarse subgraphs + cross edges on the host -----------
        let mut offsets = vec![0 as Vid; d + 1];
        for (i, s) in states.iter().enumerate() {
            offsets[i + 1] = offsets[i] + s.coarse_host.n() as Vid;
        }
        let nc_total = offsets[d] as usize;
        let mut b = GraphBuilder::new(nc_total);
        let mut vwgt = vec![0u32; nc_total];
        for (i, s) in states.iter().enumerate() {
            let off = offsets[i];
            for c in 0..s.coarse_host.n() as Vid {
                vwgt[(off + c) as usize] = s.coarse_host.vwgt[c as usize];
                for (x, w) in s.coarse_host.edges(c) {
                    if c < x {
                        b.add_edge(off + c, off + x, w);
                    }
                }
            }
        }
        for &(u, v, w) in &cross {
            let (du, lu) = local_of[u as usize];
            let (dv, lv) = local_of[v as usize];
            let cu = offsets[du as usize] + states[du as usize].composed_cmap[lu as usize] as Vid;
            let cv = offsets[dv as usize] + states[dv as usize].composed_cmap[lv as usize] as Vid;
            if cu != cv {
                b.add_edge(cu, cv, w);
            }
        }
        let merged = b.vertex_weights(vwgt).build();

        // --- CPU partitions the merged coarse graph --------------------------
        let merged_part = gpm_mtmetis::partition(&merged, &crate::mt_config(base)).part;

        // --- per-device GPU uncoarsening -------------------------------------
        let maxw = gpm_graph::metrics::max_part_weight(g.total_vwgt(), base.k, base.ubfactor);
        let maxw = u32::try_from(maxw).unwrap();
        let mut part = vec![0u32; n];
        for (i, s) in states.iter().enumerate() {
            let slice: Vec<u32> =
                (offsets[i]..offsets[i + 1]).map(|c| merged_part[c as usize]).collect();
            let dpart = s.dev.h2d(&slice).unwrap();
            let (dpart, _) =
                gpu_uncoarsen_loop(&s.dev, &s.levels, dpart, maxw, base, &mut tl, &mut last)
                    .unwrap();
            let fine = s.dev.d2h(&dpart).unwrap();
            for (lid, &old) in subgraphs[i].1.iter().enumerate() {
                part[old as usize] = fine[lid];
            }
        }

        // --- final CPU pass over the cross-device boundaries -----------------
        // devices never saw each other's blocks, so both balance and the
        // cross-block cut need one host-side repair + refinement pass
        let mut w = Work::default().with_ws(g.bytes());
        gpm_metis::kway::kway_balance(g, &mut part, base.k, base.ubfactor, &mut w);
        gpm_mtmetis::prefine::parallel_refine(
            g,
            &mut part,
            base.k,
            base.ubfactor,
            2,
            base.cpu_threads,
        );
        part
    }

    fn base(k: usize) -> GpMetisConfig {
        GpMetisConfig::new(k).with_seed(1).with_gpu_threshold(500)
    }

    #[test]
    fn rejects_zero_devices() {
        let g = delaunay_like(1_000, 5);
        match partition_multi(&g, &MultiGpuConfig::new(base(4), 0)) {
            Err(PartitionError::Config(msg)) => assert!(msg.contains("device")),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn idle_interconnect_reports_positive_zero_seconds() {
        // Below the GPU threshold no shard coarsens, so no link carries
        // traffic; n < devices also shrinks the device count.
        for (n, devices) in [(300, 2), (3, 4)] {
            let g = grid2d(1, n);
            let r =
                partition_multi(&g, &MultiGpuConfig::new(GpMetisConfig::new(2), devices)).unwrap();
            assert_eq!(r.devices, devices.min(n));
            assert_eq!(r.interconnect_bytes, 0);
            assert_eq!(r.interconnect_seconds.to_bits(), 0.0f64.to_bits(), "n={n}");
        }
    }

    #[test]
    fn single_device_is_byte_identical_to_single_gpu() {
        let g = delaunay_like(3_000, 4);
        let single = crate::partition(&g, &base(8)).unwrap();
        let multi = partition_multi(&g, &MultiGpuConfig::new(base(8), 1)).unwrap();
        assert_eq!(multi.devices, 1);
        assert_eq!(multi.result.part, single.result.part, "partition must match");
        assert_eq!(
            multi.result.modeled_seconds().to_bits(),
            single.result.modeled_seconds().to_bits(),
            "modeled-time ledger must match bit-for-bit"
        );
        assert_eq!(multi.result.ledger.phases, single.result.ledger.phases);
        assert_eq!(multi.gpu_levels, vec![single.gpu.gpu_levels]);
        assert_eq!(multi.peak_device_bytes, vec![single.gpu.peak_device_bytes]);
        assert!(multi.link_stats.is_empty());
        assert_eq!(multi.interconnect_bytes, 0);
    }

    #[test]
    fn partitions_across_two_devices() {
        let g = delaunay_like(4_000, 3);
        let r = partition_multi(&g, &MultiGpuConfig::new(base(8), 2)).unwrap();
        validate_partition(&g, &r.result.part, 8, 1.15).unwrap();
        assert_eq!(r.devices, 2);
        assert_eq!(r.gpu_levels.len(), 2);
        assert!(r.gpu_levels.iter().all(|&l| l >= 1));
        assert!(r.interconnect_bytes > 0, "halo exchange must move bytes");
        assert!(r.interconnect_seconds > 0.0);
        assert!(!r.link_stats.is_empty());
        assert!(r.boundary_vertices > 0);
    }

    #[test]
    fn graph_too_big_for_one_device_fits_on_four() {
        let g = hugebubbles_like(6_000);
        // capacity: enough for the graph but not the level hierarchy a
        // single device needs; a quarter-block plus its hierarchy fits
        let cap = g.bytes() + g.bytes() / 8;
        let mut b = base(8);
        b.gpu = GpuConfig::tiny(cap);
        // single GPU fails mid-pipeline
        assert!(crate::partition(&g, &b).is_err(), "single device should OOM");
        // four devices succeed, each within its own capacity
        let r = partition_multi(&g, &MultiGpuConfig::new(b, 4)).unwrap();
        validate_partition(&g, &r.result.part, 8, 1.20).unwrap();
        for &p in &r.peak_device_bytes {
            assert!(p <= cap);
        }
    }

    #[test]
    fn halo_never_worse_than_stitch_on_generator_suite() {
        let suite: Vec<(CsrGraph, &str)> = vec![
            (delaunay_like(4_000, 3), "delaunay"),
            (hugebubbles_like(6_000), "hugebubbles"),
            (usa_roads_like(4_000, 5), "usa-roads"),
        ];
        for (g, name) in &suite {
            let cfg = MultiGpuConfig::new(base(8), 2);
            let halo = partition_multi(g, &cfg).unwrap();
            let stitch = partition_multi_stitch(g, &cfg);
            validate_partition(g, &stitch, 8, 1.15).unwrap();
            let stitch_cut = gpm_graph::metrics::edge_cut(g, &stitch);
            assert!(
                halo.result.edge_cut <= stitch_cut,
                "{name}: halo {} vs stitch {stitch_cut}",
                halo.result.edge_cut
            );
        }
    }

    #[test]
    fn quality_in_league_of_single_gpu() {
        let g = delaunay_like(4_000, 7);
        let single = crate::partition(&g, &base(8)).unwrap();
        let multi = partition_multi(&g, &MultiGpuConfig::new(base(8), 3)).unwrap();
        assert!(
            (multi.result.edge_cut as f64) < 1.6 * single.result.edge_cut as f64,
            "multi {} vs single {}",
            multi.result.edge_cut,
            single.result.edge_cut
        );
    }

    #[test]
    fn reruns_are_byte_identical() {
        let g = delaunay_like(3_000, 9);
        let cfg = MultiGpuConfig::new(base(8), 3);
        let a = partition_multi(&g, &cfg).unwrap();
        let b = partition_multi(&g, &cfg).unwrap();
        assert_eq!(a.result.part, b.result.part);
        assert_eq!(
            a.result.modeled_seconds().to_bits(),
            b.result.modeled_seconds().to_bits(),
            "modeled ledger must replay bit-for-bit"
        );
        assert_eq!(a.interconnect_bytes, b.interconnect_bytes);
        assert_eq!(a.link_stats, b.link_stats);
    }

    #[test]
    fn nvlink_same_partition_cheaper_comm_than_pcie() {
        let g = delaunay_like(3_000, 6);
        let pcie = partition_multi(&g, &MultiGpuConfig::new(base(8), 2)).unwrap();
        let nv =
            partition_multi(&g, &MultiGpuConfig::new(base(8), 2).with_link(LinkConfig::nvlink()))
                .unwrap();
        // the fabric prices transfers, it never changes the answer
        assert_eq!(pcie.result.part, nv.result.part);
        assert_eq!(pcie.interconnect_bytes, nv.interconnect_bytes);
        assert!(
            nv.interconnect_seconds < pcie.interconnect_seconds,
            "nvlink p2p {} should beat staged pcie {}",
            nv.interconnect_seconds,
            pcie.interconnect_seconds
        );
    }

    #[test]
    fn ledger_shows_multi_phases() {
        let g = delaunay_like(3_000, 9);
        let r = partition_multi(&g, &MultiGpuConfig::new(base(8), 2)).unwrap();
        let l = &r.result.ledger;
        assert!(l.total_for("gpu:coarsen(multi") > 0.0);
        assert!(l.total_for("ic:") > 0.0);
        assert!(l.total_for("cpu:mg:merge") > 0.0);
        assert!(l.total_for("gpu:uncoarsen(multi") > 0.0);
        assert!(l.total_for("ic:refine:") > 0.0);
        // the halo path has no CPU seam-repair phase
        assert_eq!(l.total_for("cpu:boundary-refine"), 0.0);
    }
}
