//! Reuse-distance profiling — the instrumentation behind Figure 10.
//!
//! The paper measures, per source variable, "the average number of
//! instructions between two consecutive accesses", observes that tiled
//! k-NN variables cluster into **three** classes and NB-training variables
//! into **two**, and derives the HotBuf / ColdBuf / OutputBuf split from
//! that clustering. [`ReuseProfiler`] reproduces the measurement and
//! [`ReuseSummary::classes`] the clustering.

use crate::access::{Access, Addr, VarClass};
use std::collections::BTreeMap;
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
struct Slot {
    class: VarClass,
    last_touch: u64,
    reuses: u64,
    distance_sum: u64,
}

/// Tracks per-variable reuse distances over an access stream.
///
/// A "variable" is one element-sized slot of memory (`elem_bytes` wide);
/// the profiler counts every touch as one instruction, mirroring the
/// paper's x86 instrumentation (loop variables are simply never fed in).
///
/// # Examples
///
/// ```
/// use pudiannao_memsim::{Addr, ReuseProfiler, VarClass};
///
/// let mut p = ReuseProfiler::new(4);
/// p.touch(Addr(0), VarClass::Hot);
/// p.touch(Addr(4), VarClass::Hot);
/// p.touch(Addr(0), VarClass::Hot); // distance 2
/// let summary = p.summary();
/// assert_eq!(summary.variables().len(), 2);
/// assert_eq!(summary.variables()[0].mean_distance, 2.0);
/// ```
#[derive(Debug)]
pub struct ReuseProfiler {
    elem_bytes: u32,
    counter: u64,
    slots: HashMap<u64, Slot>,
}

impl ReuseProfiler {
    /// Creates a profiler tracking variables of `elem_bytes` granularity
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(elem_bytes: u32) -> ReuseProfiler {
        ReuseProfiler { elem_bytes: elem_bytes.max(1), counter: 0, slots: HashMap::new() }
    }

    /// Clears all recorded touches, keeping the slot table's allocation so
    /// repeated profiling runs reuse one hash table.
    pub fn reset(&mut self) {
        self.counter = 0;
        self.slots.clear();
    }

    /// Records one touch of the element containing `addr`.
    pub fn touch(&mut self, addr: Addr, class: VarClass) {
        self.counter += 1;
        let key = addr.0 / u64::from(self.elem_bytes);
        let counter = self.counter;
        let slot = self.slots.entry(key).or_insert(Slot {
            class,
            last_touch: counter,
            reuses: 0,
            distance_sum: 0,
        });
        if slot.last_touch != counter {
            slot.reuses += 1;
            slot.distance_sum += counter - slot.last_touch;
            slot.last_touch = counter;
        }
    }

    /// Records a multi-byte access as touches of each element it covers.
    /// Like the cache's line spans, an access past the top of the
    /// address ring wraps to address 0.
    pub fn touch_access(&mut self, access: &Access) {
        let step = self.elem_bytes as usize;
        for offset in (0..u64::from(access.bytes.max(1))).step_by(step) {
            self.touch(access.addr.offset(offset), access.class);
        }
    }

    /// Total touches recorded.
    #[must_use]
    pub fn touches(&self) -> u64 {
        self.counter
    }

    /// Produces the per-variable summary, sorted by address.
    #[must_use]
    pub fn summary(&self) -> ReuseSummary {
        let mut variables: Vec<VariableReuse> = self
            .slots
            .iter()
            .map(|(&key, slot)| VariableReuse {
                addr: Addr(key * u64::from(self.elem_bytes)),
                class: slot.class,
                uses: slot.reuses + 1,
                mean_distance: if slot.reuses == 0 {
                    0.0
                } else {
                    slot.distance_sum as f64 / slot.reuses as f64
                },
            })
            .collect();
        variables.sort_by_key(|v| v.addr);
        ReuseSummary { variables }
    }
}

/// Reuse statistics for one variable (one element of memory).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VariableReuse {
    /// Element base address.
    pub addr: Addr,
    /// Class tag supplied by the trace generator.
    pub class: VarClass,
    /// Total number of touches.
    pub uses: u64,
    /// Average instruction distance between consecutive touches
    /// (0 when the variable was touched once).
    pub mean_distance: f64,
}

/// One cluster of variables with similar average reuse distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReuseClass {
    /// Smallest mean reuse distance in the cluster.
    pub min_distance: f64,
    /// Largest mean reuse distance in the cluster.
    pub max_distance: f64,
    /// Number of variables in the cluster.
    pub members: usize,
}

/// Summary over all profiled variables.
#[derive(Clone, Debug, Default)]
pub struct ReuseSummary {
    variables: Vec<VariableReuse>,
}

impl ReuseSummary {
    /// All variables, sorted by address.
    #[must_use]
    pub fn variables(&self) -> &[VariableReuse] {
        &self.variables
    }

    /// Clusters reused variables (those touched more than once) by mean
    /// reuse distance: the sorted distances are split wherever consecutive
    /// values differ by more than `gap_ratio`x. The paper's Figure 10
    /// shows 3 such classes for tiled k-NN and 2 for NB training.
    #[must_use]
    pub fn classes(&self, gap_ratio: f64) -> Vec<ReuseClass> {
        let mut distances: Vec<f64> = self
            .variables
            .iter()
            .filter(|v| v.uses > 1)
            .map(|v| v.mean_distance.max(1.0))
            .collect();
        distances.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
        let mut classes = Vec::new();
        let mut start = 0;
        for i in 1..=distances.len() {
            let split = i == distances.len() || distances[i] > distances[i - 1] * gap_ratio;
            if split && i > start {
                classes.push(ReuseClass {
                    min_distance: distances[start],
                    max_distance: distances[i - 1],
                    members: i - start,
                });
                start = i;
            }
        }
        classes
    }

    /// Mean reuse distance per declared [`VarClass`], over reused
    /// variables only. Lets tests assert that e.g. `Hot` variables really
    /// have shorter distances than `Cold` ones.
    #[must_use]
    pub fn mean_distance_by_class(&self) -> BTreeMap<VarClass, f64> {
        let mut sums: BTreeMap<VarClass, (f64, u64)> = BTreeMap::new();
        for v in &self.variables {
            if v.uses > 1 {
                let e = sums.entry(v.class).or_insert((0.0, 0));
                e.0 += v.mean_distance;
                e.1 += 1;
            }
        }
        sums.into_iter().map(|(k, (s, n))| (k, s / n as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_touch_has_zero_distance() {
        let mut p = ReuseProfiler::new(4);
        p.touch(Addr(100), VarClass::Stream);
        let s = p.summary();
        assert_eq!(s.variables().len(), 1);
        assert_eq!(s.variables()[0].uses, 1);
        assert_eq!(s.variables()[0].mean_distance, 0.0);
    }

    #[test]
    fn element_granularity_merges_addresses() {
        let mut p = ReuseProfiler::new(4);
        p.touch(Addr(0), VarClass::Hot);
        p.touch(Addr(3), VarClass::Hot); // same 4-byte element
        let s = p.summary();
        assert_eq!(s.variables().len(), 1);
        assert_eq!(s.variables()[0].uses, 2);
        assert_eq!(s.variables()[0].mean_distance, 1.0);
    }

    #[test]
    fn touch_access_expands_elements() {
        let mut p = ReuseProfiler::new(4);
        p.touch_access(&Access::read(Addr(0), 16, VarClass::Cold));
        assert_eq!(p.summary().variables().len(), 4);
        assert_eq!(p.touches(), 4);
    }

    #[test]
    fn touch_access_wraps_past_the_top_of_the_ring() {
        let mut p = ReuseProfiler::new(4);
        p.touch_access(&Access::read(Addr(u64::MAX - 3), 12, VarClass::Cold));
        let addrs: Vec<Addr> = p.summary().variables().iter().map(|v| v.addr).collect();
        assert_eq!(addrs, [Addr(0), Addr(4), Addr(u64::MAX - 3)]);
        assert_eq!(p.touches(), 3);
    }

    #[test]
    fn mean_distance_accumulates() {
        let mut p = ReuseProfiler::new(4);
        // Touch pattern: A . . A . A  -> distances 3 and 2, mean 2.5.
        p.touch(Addr(0), VarClass::Hot); // 1
        p.touch(Addr(8), VarClass::Hot); // 2
        p.touch(Addr(16), VarClass::Hot); // 3
        p.touch(Addr(0), VarClass::Hot); // 4 -> d=3
        p.touch(Addr(8), VarClass::Hot); // 5
        p.touch(Addr(0), VarClass::Hot); // 6 -> d=2
        let s = p.summary();
        let a = s.variables().iter().find(|v| v.addr == Addr(0)).unwrap();
        assert_eq!(a.uses, 3);
        assert!((a.mean_distance - 2.5).abs() < 1e-12);
    }

    #[test]
    fn classes_split_on_gaps() {
        let mut p = ReuseProfiler::new(4);
        // Two variables with distance ~2, two with distance ~1000.
        for round in 0..50u64 {
            p.touch(Addr(0), VarClass::Hot);
            p.touch(Addr(4), VarClass::Hot);
            if round % 25 == 24 {
                p.touch(Addr(1000), VarClass::Cold);
                p.touch(Addr(1004), VarClass::Cold);
            }
        }
        let s = p.summary();
        let classes = s.classes(8.0);
        assert_eq!(classes.len(), 2, "classes: {classes:?}");
        assert!(classes[0].max_distance < classes[1].min_distance);
        assert_eq!(classes[0].members, 2);
        let by_class = s.mean_distance_by_class();
        assert!(by_class[&VarClass::Hot] < by_class[&VarClass::Cold]);
    }

    #[test]
    fn classes_of_empty_summary() {
        let p = ReuseProfiler::new(4);
        assert!(p.summary().classes(8.0).is_empty());
    }
}
