//! Grouping of the single-GPU pipeline's serialized cost ledger into the
//! five V-cycle phases the benchmark reports as `phase.*`.
//!
//! Ledger entry names the pipeline emits (see `gp_metis::partition_with_plan`):
//! `xfer:h2d:graph`, `gpu:coarsen`, `xfer:d2h:coarse`, `cpu:<mt-metis
//! phase>`, `xfer:h2d:part`, `gpu:uncoarsen` and `xfer:d2h:part` on the
//! clean path. The CPU middle phase re-prefixes mt-metis's own `cpu:`
//! entries, so refinement shows up double-prefixed as
//! `cpu:cpu:refine:l<level>`. A device failure adds `<entry>(aborted)` for
//! the partial phase and `cpufb:<phase>` for the CPU fallback.

/// Modeled seconds per V-cycle phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    pub h2d: f64,
    pub gpu_coarsen: f64,
    pub d2h: f64,
    pub cpu: f64,
    pub gpu_uncoarsen: f64,
}

impl Phases {
    pub fn add(&mut self, o: &Phases) {
        self.h2d += o.h2d;
        self.gpu_coarsen += o.gpu_coarsen;
        self.d2h += o.d2h;
        self.cpu += o.cpu;
        self.gpu_uncoarsen += o.gpu_uncoarsen;
    }

    pub fn total(&self) -> f64 {
        self.h2d + self.gpu_coarsen + self.d2h + self.cpu + self.gpu_uncoarsen
    }

    /// The phases as `(metric name, seconds)` pairs.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("phase.h2d_s", self.h2d),
            ("phase.gpu_coarsen_s", self.gpu_coarsen),
            ("phase.d2h_s", self.d2h),
            ("phase.cpu_s", self.cpu),
            ("phase.gpu_uncoarsen_s", self.gpu_uncoarsen),
        ]
    }
}

/// Group ledger entries into phases. Fails on an entry that belongs to no
/// phase, and on a grouping whose sum differs from the ledger total, so a
/// new ledger name can never be dropped silently.
pub fn group_phases(entries: &[(String, f64)]) -> Result<Phases, String> {
    let mut p = Phases::default();
    for (name, secs) in entries {
        let base = name.strip_suffix("(aborted)").unwrap_or(name);
        let slot = if base.starts_with("xfer:h2d:") {
            &mut p.h2d
        } else if base.starts_with("xfer:d2h:") {
            &mut p.d2h
        } else if base == "gpu:coarsen" {
            &mut p.gpu_coarsen
        } else if base == "gpu:uncoarsen" {
            &mut p.gpu_uncoarsen
        } else if base.starts_with("cpu:") || base.starts_with("cpufb:") {
            &mut p.cpu
        } else {
            return Err(format!("ledger entry {name:?} belongs to no phase"));
        };
        *slot += secs;
    }
    let total: f64 = entries.iter().map(|(_, s)| s).sum();
    if (p.total() - total).abs() > 1e-12 * total.abs().max(1e-9) {
        return Err(format!("phases sum to {} but the ledger totals {total}", p.total()));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|&(n, s)| (n.to_string(), s)).collect()
    }

    #[test]
    fn clean_run_groups_every_entry() {
        let l = ledger(&[
            ("xfer:h2d:graph", 1.0),
            ("gpu:coarsen", 10.0),
            ("xfer:d2h:coarse", 0.5),
            ("cpu:coarsen:match:l0", 0.25),
            ("cpu:initpart", 2.0),
            ("cpu:cpu:balance:l0", 0.125),
            ("cpu:cpu:refine:l0", 0.375),
            ("xfer:h2d:part", 0.25),
            ("gpu:uncoarsen", 20.0),
            ("xfer:d2h:part", 0.75),
        ]);
        let p = group_phases(&l).unwrap();
        assert_eq!(
            p,
            Phases { h2d: 1.25, gpu_coarsen: 10.0, d2h: 1.25, cpu: 2.75, gpu_uncoarsen: 20.0 }
        );
        assert_eq!(p.total(), 35.25);
    }

    #[test]
    fn degraded_run_maps_aborted_and_fallback_entries() {
        let l = ledger(&[
            ("xfer:h2d:graph", 1.0),
            ("gpu:coarsen(aborted)", 3.0),
            ("cpufb:coarsen:match:l0", 0.5),
            ("cpufb:initpart", 2.0),
            ("cpufb:cpu:refine:l1", 0.5),
        ]);
        let p = group_phases(&l).unwrap();
        assert_eq!(p.gpu_coarsen, 3.0);
        assert_eq!(p.cpu, 3.0);
        assert_eq!(p.total(), 7.0);
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let l = ledger(&[("gpu:coarsen", 1.0), ("mg:superstep:l0", 2.0)]);
        assert!(group_phases(&l).unwrap_err().contains("mg:superstep:l0"));
    }

    #[test]
    fn named_lists_all_five_phases() {
        let p = Phases { h2d: 1.0, gpu_coarsen: 2.0, d2h: 3.0, cpu: 4.0, gpu_uncoarsen: 5.0 };
        let sum: f64 = p.named().iter().map(|(_, s)| s).sum();
        assert_eq!(sum, p.total());
    }
}
