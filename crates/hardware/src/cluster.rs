//! Cluster topology: machines, the GPUs they host, and link selection.
//!
//! The paper's testbed is "a cluster with 46 GPUs spread across 26
//! machines", each machine holding one or more of {A6000, V100, P100, K80},
//! PCIe within a machine and 10 GbE between machines. [`ClusterSpec`]
//! captures exactly that, plus the preset clusters used by the evaluation.

use std::collections::BTreeMap;

use crate::gpu::GpuKind;
use crate::interconnect::LinkKind;

/// One GPU in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuInstance {
    /// Cluster-unique identifier (dense, 0-based).
    pub id: usize,
    /// Which machine hosts this device.
    pub machine: usize,
    /// Device model.
    pub kind: GpuKind,
}

/// One server and its devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// GPUs installed in this machine.
    pub gpus: Vec<GpuKind>,
}

/// A full cluster description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    machines: Vec<MachineSpec>,
    gpus: Vec<GpuInstance>,
}

impl ClusterSpec {
    /// Builds a cluster from per-machine GPU lists.
    ///
    /// # Panics
    ///
    /// Panics if the cluster would contain no GPUs.
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        let mut gpus = Vec::new();
        for (m, spec) in machines.iter().enumerate() {
            for kind in &spec.gpus {
                gpus.push(GpuInstance {
                    id: gpus.len(),
                    machine: m,
                    kind: *kind,
                });
            }
        }
        assert!(!gpus.is_empty(), "cluster must contain at least one GPU");
        ClusterSpec { machines, gpus }
    }

    /// A homogeneous cluster of `n` GPUs of one kind, `per_machine` GPUs
    /// per server.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `per_machine == 0`.
    pub fn homogeneous(kind: GpuKind, n: usize, per_machine: usize) -> Self {
        assert!(n > 0 && per_machine > 0, "empty cluster");
        let mut machines = Vec::new();
        let mut left = n;
        while left > 0 {
            let take = left.min(per_machine);
            machines.push(MachineSpec {
                gpus: vec![kind; take],
            });
            left -= take;
        }
        ClusterSpec::new(machines)
    }

    /// The paper's homogeneous evaluation cluster: 16 V100s, two per
    /// machine (§5.1.1).
    pub fn paper_homogeneous_v100() -> Self {
        ClusterSpec::homogeneous(GpuKind::V100, 16, 2)
    }

    /// The paper's equal-cost heterogeneous cluster: 6 V100 + 8 P100 +
    /// 15 K80 (§5.2), spread over machines of two devices each.
    pub fn paper_heterogeneous() -> Self {
        let mut machines = Vec::new();
        let mut push_pairs = |kind: GpuKind, n: usize| {
            let mut left = n;
            while left > 0 {
                let take = left.min(2);
                machines.push(MachineSpec {
                    gpus: vec![kind; take],
                });
                left -= take;
            }
        };
        push_pairs(GpuKind::V100, 6);
        push_pairs(GpuKind::P100, 8);
        push_pairs(GpuKind::K80, 15);
        ClusterSpec::new(machines)
    }

    /// The paper's full testbed: 46 GPUs across 26 machines
    /// (4 A6000 + 16 V100 + 11 P100 + 15 K80).
    pub fn paper_full_testbed() -> Self {
        let mut machines = Vec::new();
        let mut push = |kind: GpuKind, n: usize, per: usize| {
            let mut left = n;
            while left > 0 {
                let take = left.min(per);
                machines.push(MachineSpec {
                    gpus: vec![kind; take],
                });
                left -= take;
            }
        };
        push(GpuKind::A6000, 4, 2);
        push(GpuKind::V100, 16, 2);
        push(GpuKind::P100, 11, 2);
        push(GpuKind::K80, 15, 2);
        let c = ClusterSpec::new(machines);
        debug_assert_eq!(c.num_gpus(), 46);
        c
    }

    /// The 4×A6000 cluster of the LLM experiments (§5.1.3).
    pub fn paper_llm_cluster() -> Self {
        ClusterSpec::homogeneous(GpuKind::A6000, 4, 2)
    }

    /// All GPU instances, id-ordered.
    pub fn gpus(&self) -> &[GpuInstance] {
        &self.gpus
    }

    /// All machines.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Total GPU count.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Count of GPUs per kind, in capability order.
    pub fn gpu_counts(&self) -> BTreeMap<GpuKind, usize> {
        let mut counts = BTreeMap::new();
        for g in &self.gpus {
            *counts.entry(g.kind).or_insert(0) += 1;
        }
        counts
    }

    /// The distinct GPU kinds present.
    pub fn kinds(&self) -> Vec<GpuKind> {
        self.gpu_counts().into_keys().collect()
    }

    /// Total dollar cost per second of keeping every device allocated.
    pub fn cost_per_sec(&self) -> f64 {
        self.gpus.iter().map(|g| g.kind.cost_per_sec()).sum()
    }

    /// The link between two GPUs: local, PCIe (same machine), or Ethernet.
    pub fn link_between(&self, a: usize, b: usize) -> LinkKind {
        if a == b {
            LinkKind::Local
        } else if self.gpus[a].machine == self.gpus[b].machine {
            LinkKind::Pcie
        } else {
            LinkKind::Ethernet10G
        }
    }

    /// True if the cluster contains more than one GPU kind.
    pub fn is_heterogeneous(&self) -> bool {
        self.kinds().len() > 1
    }

    /// The cluster with `count` GPUs of `kind` removed (from the
    /// highest-numbered machines first) — how the control loop models a
    /// cluster shrunk by permanently crashed replicas when it re-plans.
    /// Removes as many as exist if fewer than `count` are present.
    ///
    /// # Panics
    ///
    /// Panics if removal would leave the cluster empty.
    pub fn without(&self, kind: GpuKind, count: usize) -> Self {
        let mut machines = self.machines.clone();
        let mut left = count;
        for m in machines.iter_mut().rev() {
            while left > 0 {
                let Some(pos) = m.gpus.iter().rposition(|&g| g == kind) else {
                    break;
                };
                m.gpus.remove(pos);
                left -= 1;
            }
        }
        machines.retain(|m| !m.gpus.is_empty());
        ClusterSpec::new(machines)
    }

    /// Splits the cluster into disjoint sub-clusters, one per entry of
    /// `shares` (a per-kind GPU count each). This is the tenancy layer's
    /// realization step: an allocator decides *how many* GPUs of each
    /// kind every tenant gets, and `partition` decides *which* physical
    /// devices those are, deterministically.
    ///
    /// Devices are handed out in id order per kind — tenant 0 takes the
    /// lowest-id GPUs of each kind it was granted, tenant 1 the next,
    /// and so on — so equal inputs always produce identical partitions.
    /// Machine grouping is preserved: two GPUs sharing a machine in the
    /// parent cluster still share one in the sub-cluster (tenants keep
    /// their PCIe locality where the grant allows it). GPUs left over
    /// after all shares are satisfied are simply unassigned.
    ///
    /// # Panics
    ///
    /// Panics if any share is empty (a tenant must hold at least one
    /// GPU — `ClusterSpec` cannot represent an empty cluster) or if the
    /// shares oversubscribe any kind.
    pub fn partition(&self, shares: &[BTreeMap<GpuKind, usize>]) -> Vec<ClusterSpec> {
        let available = self.gpu_counts();
        let mut demanded: BTreeMap<GpuKind, usize> = BTreeMap::new();
        for (t, share) in shares.iter().enumerate() {
            assert!(
                share.values().sum::<usize>() > 0,
                "partition: tenant {t} granted zero GPUs"
            );
            for (&kind, &n) in share {
                *demanded.entry(kind).or_insert(0) += n;
            }
        }
        for (&kind, &n) in &demanded {
            assert!(
                n <= available.get(&kind).copied().unwrap_or(0),
                "partition: shares oversubscribe {kind:?}: want {n}, have {}",
                available.get(&kind).copied().unwrap_or(0)
            );
        }

        // owner[gpu id] = tenant index, assigned in id order per kind.
        let mut owner: Vec<Option<usize>> = vec![None; self.gpus.len()];
        let mut remaining: Vec<BTreeMap<GpuKind, usize>> = shares.to_vec();
        for g in &self.gpus {
            for (t, share) in remaining.iter_mut().enumerate() {
                let left = share.entry(g.kind).or_insert(0);
                if *left > 0 {
                    *left -= 1;
                    owner[g.id] = Some(t);
                    break;
                }
            }
        }

        // Rebuild each tenant's machines from the parent's machine list,
        // keeping only the devices it owns.
        (0..shares.len())
            .map(|t| {
                let machines: Vec<MachineSpec> = self
                    .machines
                    .iter()
                    .enumerate()
                    .map(|(m, _)| MachineSpec {
                        gpus: self
                            .gpus
                            .iter()
                            .filter(|g| g.machine == m && owner[g.id] == Some(t))
                            .map(|g| g.kind)
                            .collect(),
                    })
                    .filter(|m| !m.gpus.is_empty())
                    .collect();
                ClusterSpec::new(machines)
            })
            .collect()
    }

    /// Partitions the cluster into `n` near-even disjoint sub-clusters:
    /// each kind's devices are dealt round-robin (in capability order),
    /// so a heterogeneous cluster divides its strong *and* weak devices
    /// evenly rather than giving tenant 0 all the A6000s. The first
    /// `count % n` tenants of each kind receive the extra device.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > num_gpus()` (every sub-cluster needs at
    /// least one device).
    pub fn partition_even(&self, n: usize) -> Vec<ClusterSpec> {
        assert!(n > 0, "partition_even: need at least one part");
        assert!(
            n <= self.num_gpus(),
            "partition_even: {n} parts but only {} GPUs",
            self.num_gpus()
        );
        let mut shares: Vec<BTreeMap<GpuKind, usize>> = vec![BTreeMap::new(); n];
        for (&kind, &count) in &self.gpu_counts() {
            for (t, share) in shares.iter_mut().enumerate() {
                let take = count / n + usize::from(t < count % n);
                if take > 0 {
                    *share.entry(kind).or_insert(0) += take;
                }
            }
        }
        // Round-robin dealing can leave a tenant with zero devices when
        // kinds are scarcer than tenants; backfill from the largest
        // holder so every sub-cluster is non-empty.
        while let Some(empty) = shares.iter().position(|s| s.values().sum::<usize>() == 0) {
            let richest = (0..n)
                .max_by_key(|&t| shares[t].values().sum::<usize>())
                .expect("n > 0");
            let (&kind, _) = shares[richest]
                .iter()
                .find(|(_, &c)| c > 0)
                .expect("richest tenant holds a GPU");
            *shares[richest].get_mut(&kind).expect("present") -= 1;
            *shares[empty].entry(kind).or_insert(0) += 1;
        }
        self.partition(&shares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builder_counts() {
        let c = ClusterSpec::homogeneous(GpuKind::V100, 5, 2);
        assert_eq!(c.num_gpus(), 5);
        assert_eq!(c.machines().len(), 3);
        assert_eq!(c.machines()[2].gpus.len(), 1);
        assert!(!c.is_heterogeneous());
    }

    #[test]
    fn paper_clusters_have_equal_cost() {
        let homo = ClusterSpec::paper_homogeneous_v100();
        let hetero = ClusterSpec::paper_heterogeneous();
        assert!((homo.cost_per_sec() - 0.013).abs() < 1e-9);
        assert!((hetero.cost_per_sec() - 0.013).abs() < 1e-9);
        assert_eq!(hetero.num_gpus(), 29);
        assert!(hetero.is_heterogeneous());
    }

    #[test]
    fn full_testbed_matches_paper_scale() {
        let c = ClusterSpec::paper_full_testbed();
        assert_eq!(c.num_gpus(), 46);
        assert!(c.machines().len() <= 26);
        let counts = c.gpu_counts();
        assert_eq!(counts[&GpuKind::A6000], 4);
        assert_eq!(counts[&GpuKind::V100], 16);
        assert_eq!(counts[&GpuKind::P100], 11);
        assert_eq!(counts[&GpuKind::K80], 15);
    }

    #[test]
    fn links_follow_topology() {
        let c = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
        assert_eq!(c.link_between(0, 0), LinkKind::Local);
        assert_eq!(c.link_between(0, 1), LinkKind::Pcie);
        assert_eq!(c.link_between(0, 2), LinkKind::Ethernet10G);
    }

    #[test]
    fn gpu_ids_are_dense() {
        let c = ClusterSpec::paper_heterogeneous();
        for (i, g) in c.gpus().iter().enumerate() {
            assert_eq!(g.id, i);
        }
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_rejected() {
        let _ = ClusterSpec::homogeneous(GpuKind::V100, 0, 2);
    }

    #[test]
    fn without_shrinks_and_renumbers() {
        let c = ClusterSpec::homogeneous(GpuKind::V100, 6, 2);
        let s = c.without(GpuKind::V100, 2);
        assert_eq!(s.num_gpus(), 4);
        assert_eq!(s.machines().len(), 2);
        for (i, g) in s.gpus().iter().enumerate() {
            assert_eq!(g.id, i);
        }
        // Removing a kind that isn't present changes nothing.
        let same = c.without(GpuKind::A6000, 3);
        assert_eq!(same.num_gpus(), 6);
    }

    #[test]
    fn partition_is_disjoint_and_deterministic() {
        let c = ClusterSpec::paper_heterogeneous();
        let shares = vec![
            BTreeMap::from([(GpuKind::V100, 4), (GpuKind::K80, 3)]),
            BTreeMap::from([(GpuKind::V100, 2), (GpuKind::P100, 8)]),
            BTreeMap::from([(GpuKind::K80, 12)]),
        ];
        let parts = c.partition(&shares);
        assert_eq!(parts.len(), 3);
        // Each part holds exactly its share.
        assert_eq!(parts[0].gpu_counts()[&GpuKind::V100], 4);
        assert_eq!(parts[0].gpu_counts()[&GpuKind::K80], 3);
        assert_eq!(parts[1].gpu_counts()[&GpuKind::P100], 8);
        assert_eq!(parts[2].gpu_counts()[&GpuKind::K80], 12);
        // Disjoint and within budget: per-kind totals never exceed the parent.
        let mut total: BTreeMap<GpuKind, usize> = BTreeMap::new();
        for p in &parts {
            for (k, n) in p.gpu_counts() {
                *total.entry(k).or_insert(0) += n;
            }
        }
        for (k, n) in &total {
            assert!(n <= &c.gpu_counts()[k]);
        }
        // Ids are dense per sub-cluster (each is a well-formed ClusterSpec).
        for p in &parts {
            for (i, g) in p.gpus().iter().enumerate() {
                assert_eq!(g.id, i);
            }
        }
        // Deterministic: same shares, same partition.
        assert_eq!(c.partition(&shares), parts);
    }

    #[test]
    fn partition_preserves_machine_locality() {
        // 4 V100s, 2 per machine; one tenant takes 2 — it must get both
        // devices of machine 0, still co-located.
        let c = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
        let parts = c.partition(&[
            BTreeMap::from([(GpuKind::V100, 2)]),
            BTreeMap::from([(GpuKind::V100, 2)]),
        ]);
        for p in &parts {
            assert_eq!(p.machines().len(), 1);
            assert_eq!(p.link_between(0, 1), LinkKind::Pcie);
        }
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn partition_rejects_oversubscription() {
        let c = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
        let _ = c.partition(&[BTreeMap::from([(GpuKind::V100, 5)])]);
    }

    #[test]
    #[should_panic(expected = "zero GPUs")]
    fn partition_rejects_empty_share() {
        let c = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
        let _ = c.partition(&[BTreeMap::new()]);
    }

    #[test]
    fn partition_even_spreads_kinds() {
        let c = ClusterSpec::paper_heterogeneous(); // 6 V100 + 8 P100 + 15 K80
        let parts = c.partition_even(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].gpu_counts()[&GpuKind::V100], 3);
        assert_eq!(parts[1].gpu_counts()[&GpuKind::V100], 3);
        assert_eq!(parts[0].gpu_counts()[&GpuKind::P100], 4);
        // The odd K80 goes to the first part.
        assert_eq!(parts[0].gpu_counts()[&GpuKind::K80], 8);
        assert_eq!(parts[1].gpu_counts()[&GpuKind::K80], 7);
        assert_eq!(
            parts.iter().map(ClusterSpec::num_gpus).sum::<usize>(),
            c.num_gpus()
        );
    }

    #[test]
    fn partition_even_backfills_scarce_kinds() {
        // 3 GPUs over 3 tenants: everyone ends up with exactly one.
        let c = ClusterSpec::homogeneous(GpuKind::V100, 3, 2);
        let parts = c.partition_even(3);
        assert!(parts.iter().all(|p| p.num_gpus() == 1));
    }

    #[test]
    fn without_prefers_highest_machines_and_caps_at_present() {
        let c = ClusterSpec::paper_heterogeneous();
        let s = c.without(GpuKind::K80, 100);
        assert!(!s.gpu_counts().contains_key(&GpuKind::K80));
        assert_eq!(s.gpu_counts()[&GpuKind::V100], 6);
        assert_eq!(s.gpu_counts()[&GpuKind::P100], 8);
    }
}
