//! Per-family totals over a simulated device's kernel log.

use gpm_gpu_sim::KernelStats;

/// The kernel families of the single-GPU V-cycle, keyed by launch-name
/// prefix.
pub const FAMILIES: [(&str, &str); 6] = [
    ("match", "gp:match:"),
    ("cmap", "gp:cmap:"),
    ("contract", "gp:contract:"),
    ("project", "gp:project"),
    ("refine", "gp:refine:"),
    ("scan", "scan:"),
];

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FamilyTotals {
    pub launches: u64,
    pub transactions: u64,
    pub accesses: u64,
    pub warp_instr: u64,
    pub lane_instr: u64,
    /// Modeled kernel seconds.
    pub modeled_s: f64,
}

/// Totals per family, in [`FAMILIES`] order. Fails on a launch that
/// belongs to no family, so a new kernel cannot go uncounted.
pub fn family_totals(log: &[KernelStats]) -> Result<[FamilyTotals; 6], String> {
    let mut out = [FamilyTotals::default(); 6];
    for k in log {
        let i = FAMILIES
            .iter()
            .position(|(_, prefix)| k.name.starts_with(prefix))
            .ok_or_else(|| format!("kernel {:?} belongs to no family", k.name))?;
        let t = &mut out[i];
        t.launches += 1;
        t.transactions += k.transactions;
        t.accesses += k.accesses;
        t.warp_instr += k.warp_instr;
        t.lane_instr += k.lane_instr;
        t.modeled_s += k.seconds;
    }
    Ok(out)
}

/// The integer counts of `totals` as `(name, value)` pairs, for span
/// counters and determinism digests.
pub fn counts(totals: &[FamilyTotals; 6]) -> Vec<(String, u64)> {
    FAMILIES
        .iter()
        .zip(totals)
        .flat_map(|((f, _), t)| {
            [
                (format!("{f}.launches"), t.launches),
                (format!("{f}.transactions"), t.transactions),
                (format!("{f}.accesses"), t.accesses),
            ]
        })
        .collect()
}

/// Element-wise sum.
pub fn add(acc: &mut [FamilyTotals; 6], other: &[FamilyTotals; 6]) {
    for (a, b) in acc.iter_mut().zip(other) {
        a.launches += b.launches;
        a.transactions += b.transactions;
        a.accesses += b.accesses;
        a.warp_instr += b.warp_instr;
        a.lane_instr += b.lane_instr;
        a.modeled_s += b.modeled_s;
    }
}
