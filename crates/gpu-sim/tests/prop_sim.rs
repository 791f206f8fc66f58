//! Property tests of the GPU simulator: primitives agree with host
//! references for arbitrary inputs, and the accounting invariants hold.
//! (Runs on the in-repo `gpm-testkit` harness.)

use gpm_gpu_sim::{
    exclusive_scan_u32, inclusive_scan_u32, reduce_max_u32, reduce_sum_u32, Device, GpuConfig,
};
use gpm_testkit::{check, tk_assert, tk_assert_eq};
use std::collections::BTreeSet;

fn dev() -> Device {
    Device::new(GpuConfig::gtx_titan())
}

#[test]
fn inclusive_scan_matches_host() {
    check("inclusive_scan_matches_host", 32, |src| {
        let data = src.vec_of(0, 2000, |s| s.u32_in(0, 1000));
        let d = dev();
        let buf = d.h2d(&data).unwrap();
        let total = inclusive_scan_u32(&d, &buf).unwrap();
        let mut acc = 0u32;
        let expect: Vec<u32> = data
            .iter()
            .map(|&x| {
                acc = acc.wrapping_add(x);
                acc
            })
            .collect();
        tk_assert_eq!(buf.to_vec(), expect);
        tk_assert_eq!(total, acc);
        Ok(())
    });
}

#[test]
fn exclusive_scan_matches_host() {
    check("exclusive_scan_matches_host", 32, |src| {
        let data = src.vec_of(0, 2000, |s| s.u32_in(0, 1000));
        let d = dev();
        let buf = d.h2d(&data).unwrap();
        let total = exclusive_scan_u32(&d, &buf).unwrap();
        let mut acc = 0u32;
        let expect: Vec<u32> = data
            .iter()
            .map(|&x| {
                let prev = acc;
                acc = acc.wrapping_add(x);
                prev
            })
            .collect();
        tk_assert_eq!(buf.to_vec(), expect);
        tk_assert_eq!(total, acc);
        Ok(())
    });
}

#[test]
fn reduce_matches_host() {
    check("reduce_matches_host", 32, |src| {
        let data = src.vec_of(0, 3000, |s| s.u32_in(0, 10_000));
        let d = dev();
        let buf = d.h2d(&data).unwrap();
        let sum: u32 = data.iter().copied().fold(0u32, u32::wrapping_add);
        tk_assert_eq!(reduce_sum_u32(&d, &buf).unwrap(), sum);
        tk_assert_eq!(reduce_max_u32(&d, &buf).unwrap(), data.iter().copied().max().unwrap_or(0));
        Ok(())
    });
}

#[test]
fn kernel_touches_every_element() {
    check("kernel_touches_every_element", 32, |src| {
        let n = src.usize_in(1, 5000);
        let d = dev();
        let buf = d.alloc::<u32>(n).unwrap();
        let stats = d
            .launch("fill", n, |lane| {
                lane.st(&buf, lane.tid, lane.tid as u32 ^ 0xABCD);
            })
            .unwrap();
        for i in 0..n {
            tk_assert_eq!(buf.load(i), i as u32 ^ 0xABCD);
        }
        // accounting invariants
        tk_assert!(stats.transactions <= stats.accesses);
        tk_assert!(stats.lane_instr <= stats.warp_instr * 32);
        let dv = stats.divergence();
        tk_assert!((0.0..=1.0).contains(&dv));
        tk_assert!(stats.seconds >= d.config().kernel_launch_overhead);
        Ok(())
    });
}

#[test]
fn atomic_counter_exact_under_racing() {
    check("atomic_counter_exact_under_racing", 32, |src| {
        let n = src.usize_in(1, 20_000);
        let d = dev();
        let counter = d.alloc::<u32>(1).unwrap();
        d.launch("count", n, |lane| {
            lane.atomic_add(&counter, 0, 1);
        })
        .unwrap();
        tk_assert_eq!(counter.load(0) as usize, n);
        Ok(())
    });
}

/// SplitMix64 finalizer: a pure hash, so a kernel's access pattern is a
/// seeded function of `(tid, k)` and runs the same on any host worker.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The access plan of one randomized coalescing case: thread `tid` makes
/// `len(tid)` loads, the `k`-th from `access(tid, k)` = (buffer, word).
struct Plan {
    seed: u64,
    max_len: u64,
    words: usize,
    hot_segs: usize,
}

impl Plan {
    fn len(&self, tid: usize) -> usize {
        (mix(self.seed ^ tid as u64) % (self.max_len + 1)) as usize
    }

    fn access(&self, tid: usize, k: usize) -> (usize, usize) {
        let h = mix(self.seed.wrapping_add(((tid as u64) << 32) | k as u64));
        let r = (h >> 8) as usize;
        let word = match (h >> 1) % 3 {
            0 => (tid + 32 * k) % self.words, // coalesced across the warp
            1 => (r % self.hot_segs) * 32,    // a few hot segments: heavy duplicates
            _ => r % self.words,              // scattered
        };
        ((h & 1) as usize, word)
    }
}

/// Test-local reference of the coalescing model: per lane, a 4-entry
/// ring of recent segments absorbs repeats and the trace keeps at most
/// `cap` entries (the rest are charged one transaction each); per warp,
/// each lockstep position costs its number of distinct segments.
/// Returns (transactions, accesses, lane_instr, warp_instr).
fn reference(plan: &Plan, n: usize, cap: usize, seg_words: usize) -> (u64, u64, u64, u64) {
    let (mut txns, mut accesses, mut lane_instr, mut warp_instr) = (0, 0, 0, 0);
    for base in (0..n).step_by(32) {
        let mut traces: Vec<Vec<(usize, usize)>> = Vec::new();
        let (mut overflow, mut max_instr) = (0, 0);
        for tid in base..(base + 32).min(n) {
            let len = plan.len(tid);
            lane_instr += len as u64;
            max_instr = max_instr.max(len as u64);
            let (mut recent, mut pos) = ([None; 4], 0);
            let mut trace = Vec::new();
            for k in 0..len {
                let (b, word) = plan.access(tid, k);
                let seg = (b, word / seg_words);
                if recent.contains(&Some(seg)) {
                    continue;
                }
                recent[pos] = Some(seg);
                pos = (pos + 1) % 4;
                if trace.len() < cap {
                    trace.push(seg);
                } else {
                    overflow += 1;
                }
            }
            traces.push(trace);
        }
        warp_instr += max_instr;
        let maxlen = traces.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..maxlen {
            let distinct: BTreeSet<_> = traces.iter().filter_map(|t| t.get(k)).collect();
            txns += distinct.len() as u64;
        }
        txns += overflow;
        accesses += traces.iter().map(|t| t.len() as u64).sum::<u64>() + overflow;
    }
    (txns, accesses, lane_instr, warp_instr)
}

#[test]
fn coalescing_dedup_matches_reference_model() {
    check("coalescing_dedup_matches_reference_model", 64, |src| {
        // never a whole number of warps: the last warp is always partial
        let n = 32 * src.usize_in(0, 12) + src.usize_in(1, 32);
        let cap = src.usize_in(1, 24);
        let plan = Plan {
            seed: src.next_u64(),
            max_len: src.u64_in(0, 40), // often past `cap`
            words: 32 * src.usize_in(1, 96),
            hot_segs: src.usize_in(1, 4),
        };
        let d = Device::new(GpuConfig { trace_cap: cap, ..GpuConfig::gtx_titan() });
        let bufs = [d.alloc::<u32>(plan.words).unwrap(), d.alloc::<u32>(plan.words).unwrap()];
        let stats = d
            .launch("coalesce", n, |lane| {
                for k in 0..plan.len(lane.tid) {
                    let (b, word) = plan.access(lane.tid, k);
                    let _ = lane.ld(&bufs[b], word);
                }
            })
            .unwrap();
        let seg_words = d.config().segment_bytes as usize / 4;
        let (txns, accesses, lane_instr, warp_instr) = reference(&plan, n, cap, seg_words);
        tk_assert_eq!(stats.transactions, txns);
        tk_assert_eq!(stats.accesses, accesses);
        tk_assert_eq!(stats.lane_instr, lane_instr);
        tk_assert_eq!(stats.warp_instr, warp_instr);
        Ok(())
    });
}
