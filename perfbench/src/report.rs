//! The metric catalogue and the result line.
//!
//! Every run prints one human-readable line per metric (name, value,
//! unit, clock) and then, as the last line of standard output, the JSON
//! result object.

use crate::trace::json_str;
use std::collections::BTreeMap;

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Host wall clock: what running the simulator costs on this machine.
    Host,
    /// The modeled paper-testbed clock (GTX Titan + 8-core Xeon).
    Modeled,
    /// Not a time: a count, a ratio or a partition-quality number.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
}

fn def(name: impl Into<String>, unit: &'static str, clock: Clock) -> MetricDef {
    MetricDef { name: name.into(), unit, clock }
}

/// End-to-end metrics: every workload reports all of them (see
/// `perfbench/METRICS.md` for how each is defined per workload).
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", Clock::Host),
        def("wall_s", "s", Clock::Host),
        def("modeled_s", "s", Clock::Modeled),
        def("makespan_s", "s", Clock::Modeled),
        def("cut_geomean", "edges", Clock::Count),
        def("peak_rss_mb", "MiB", Clock::Host),
        def("jobs_per_s", "1/s", Clock::Host),
        def("latency_p50_ms", "ms", Clock::Host),
        def("latency_p99_ms", "ms", Clock::Host),
    ]
}

/// Kernel families whose wall time the traced replay can separate (scan
/// kernels run inside the cmap and contract calls).
pub const WALL_FAMILIES: [&str; 5] = ["match", "cmap", "contract", "project", "refine"];

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports its metrics as 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for (f, _) in crate::kernels::FAMILIES {
        v.push(def(format!("gpu.{f}.launches"), "count", Clock::Count));
        v.push(def(format!("gpu.{f}.transactions"), "count", Clock::Count));
        v.push(def(format!("gpu.{f}.accesses"), "count", Clock::Count));
        v.push(def(format!("gpu.{f}.modeled_s"), "s", Clock::Modeled));
    }
    for f in WALL_FAMILIES {
        v.push(def(format!("gpu.{f}.wall_s"), "s", Clock::Host));
    }
    v.extend([
        def("gpu.coalescing", "accesses/txn", Clock::Count),
        def("gpu.divergence", "ratio", Clock::Count),
        def("gpu.wall_ns_per_access", "ns", Clock::Host),
        def("gpu.wall_us_per_launch", "us", Clock::Host),
        def("phase.h2d_s", "s", Clock::Modeled),
        def("phase.gpu_coarsen_s", "s", Clock::Modeled),
        def("phase.d2h_s", "s", Clock::Modeled),
        def("phase.cpu_s", "s", Clock::Modeled),
        def("phase.gpu_uncoarsen_s", "s", Clock::Modeled),
        def("core.gpu_levels", "count", Clock::Count),
        def("core.cpu_levels", "count", Clock::Count),
        def("core.match_conflicts", "count", Clock::Count),
        def("core.refine_moves", "count", Clock::Count),
        def("core.transfer_bytes", "bytes", Clock::Count),
        def("core.peak_device_mb", "MiB", Clock::Count),
        def("core.self_wall_s", "s", Clock::Host),
        def("overlap.speedup", "ratio", Clock::Modeled),
        def("overlap.compute_stall_frac", "ratio", Clock::Modeled),
        def("mtmetis.wall_s", "s", Clock::Host),
        def("mg.ic_bytes", "bytes", Clock::Count),
        def("mg.ic_modeled_s", "s", Clock::Modeled),
        def("mg.transfer_bytes", "bytes", Clock::Count),
        def("mg.peak_device_mb_max", "MiB", Clock::Count),
        def("mg.gpu_levels_max", "count", Clock::Count),
        def("mg.boundary_vertices", "count", Clock::Count),
        def("pool.batches", "count", Clock::Count),
        def("pool.chunks", "count", Clock::Count),
        def("pool.blocking_tasks", "count", Clock::Count),
        def("serve.cache_hit_ratio", "ratio", Clock::Count),
        def("serve.engine_ms_p50", "ms", Clock::Host),
        def("serve.overhead_ms_p50", "ms", Clock::Host),
        def("serve.request_bytes", "bytes", Clock::Count),
        def("serve.reply_bytes", "bytes", Clock::Count),
        def("serve.degraded", "count", Clock::Count),
        def("serve.breaker_trips", "count", Clock::Count),
        def("faults.injected", "count", Clock::Count),
        def("faults.device_retries", "count", Clock::Count),
        def("graph.load_s", "s", Clock::Host),
        def("trace.overhead_s", "s", Clock::Host),
    ]);
    v
}

/// Outcome of one benchmark run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness failure, in the order found.
    pub errors: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns -0.0 into 0.0, so a zero prints without a sign
        // (`partition_multi` reports -0.0 interconnect seconds when a shard
        // stays below the device threshold).
        self.values.insert(name.to_string(), value + 0.0);
    }

    /// Record a failed check.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: check failed: {msg}");
        self.errors.push(msg);
    }

    /// Record one attempted operation and whether it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.error(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Print the metric lines and the result object for the given catalogue.
    /// `zero_ok` names metrics the workload may leave unset (reported as 0).
    pub fn print(&mut self, defs: &[MetricDef], zero_ok: impl Fn(&str) -> bool) {
        let mut json = Vec::new();
        for d in defs {
            let v = match self.values.get(&d.name) {
                Some(&v) => v,
                None if self.correct() && !zero_ok(&d.name) => {
                    self.error(format!("metric {} was not measured", d.name));
                    continue;
                }
                None => 0.0,
            };
            if !v.is_finite() {
                self.error(format!("metric {} is not finite: {v}", d.name));
                continue;
            }
            println!("metric {:<28} {:>22} {:<12} [{}]", d.name, v, d.unit, d.clock.label());
            json.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(&d.name),
                json_str(d.unit)
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(",")
        );
    }
}

/// Set the `pool.*` metrics to the executor's work between two snapshots.
pub fn set_pool_delta(rep: &mut Report, before: &gpm_pool::PoolStats, after: &gpm_pool::PoolStats) {
    rep.set("pool.batches", (after.batches - before.batches) as f64);
    rep.set("pool.chunks", (after.chunks - before.chunks) as f64);
    rep.set("pool.blocking_tasks", (after.blocking_tasks - before.blocking_tasks) as f64);
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_is_stored_as_zero() {
        let mut r = Report::default();
        r.set("x", -0.0);
        let v = r.values["x"];
        assert!(v == 0.0 && v.is_sign_positive());
        assert_eq!(format!("{v}"), "0");
    }

    #[test]
    fn a_run_without_operations_is_not_correct() {
        let mut r = Report::default();
        assert!(!r.correct());
        r.op(Ok(()));
        assert!(r.correct());
        r.op(Err("lost".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
