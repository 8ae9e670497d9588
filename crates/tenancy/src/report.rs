//! Per-tenant and aggregate accounting for multi-tenant runs.

use std::collections::BTreeMap;

use e3::WindowReport;
use e3_hardware::GpuKind;
use e3_simcore::stats::{jain_fairness_index, weighted_jain_fairness_index};
use e3_simcore::SimDuration;

/// One allocation epoch's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// First global window the epoch covers.
    pub start_window: usize,
    /// Per-tenant, per-kind GPU grants for the epoch.
    pub shares: Vec<BTreeMap<GpuKind, usize>>,
}

/// What one tenant experienced across the whole run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Priority weight (copied from the spec for fairness accounting).
    pub weight: f64,
    /// Offered load in samples/s.
    pub demand_rate: f64,
    /// Per-window control-loop details, on the tenant's own timeline,
    /// with `window` renumbered to the global window index.
    pub windows: Vec<WindowReport>,
    /// Total serving time on the tenant's clock.
    pub elapsed: SimDuration,
}

impl TenantReport {
    /// Requests completed within the tenant's SLO.
    pub fn within_slo(&self) -> u64 {
        self.windows.iter().map(|w| w.run.within_slo).sum()
    }

    /// Requests offered (completed + dropped).
    pub fn offered(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.run.completed + w.run.dropped)
            .sum()
    }

    /// Goodput on the tenant's own timeline (samples/s).
    pub fn goodput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.within_slo() as f64 / secs
        }
    }

    /// Fraction of offered requests that completed within SLO.
    pub fn slo_attainment(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.within_slo() as f64 / offered as f64
        }
    }
}

/// One full multi-tenant run under one allocation policy.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// The allocator that produced this run.
    pub allocator: String,
    /// Per-tenant accounting, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// The allocation decision of every epoch.
    pub allocations: Vec<AllocationRecord>,
    /// The SLO-attainment floor the run was configured with.
    pub slo_floor: f64,
}

impl MultiTenantReport {
    /// The shared horizon: tenants serve concurrently on one global
    /// clock, so the run lasts as long as its slowest tenant.
    pub fn horizon(&self) -> SimDuration {
        self.tenants
            .iter()
            .map(|t| t.elapsed)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Cluster-wide goodput over the shared horizon (samples/s). GPUs
    /// granted to a tenant that drains its demand early sit idle for the
    /// rest of the horizon — misallocation shows up here directly.
    pub fn aggregate_goodput(&self) -> f64 {
        let secs = self.horizon().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.tenants
            .iter()
            .map(|t| t.within_slo() as f64)
            .sum::<f64>()
            / secs
    }

    /// Jain fairness index over per-tenant goodputs.
    pub fn jain(&self) -> f64 {
        let xs: Vec<f64> = self.tenants.iter().map(|t| t.goodput()).collect();
        jain_fairness_index(&xs)
    }

    /// Weight-normalized Jain index: 1.0 means goodput proportional to
    /// priority weight.
    pub fn weighted_jain(&self) -> f64 {
        let xs: Vec<f64> = self.tenants.iter().map(|t| t.goodput()).collect();
        let ws: Vec<f64> = self.tenants.iter().map(|t| t.weight).collect();
        weighted_jain_fairness_index(&xs, &ws)
    }

    /// The worst per-tenant SLO attainment — the number an operator
    /// holds against the floor.
    pub fn min_attainment(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.slo_attainment())
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Whether every tenant's SLO attainment cleared the configured
    /// floor.
    pub fn floor_held(&self) -> bool {
        self.min_attainment() >= self.slo_floor
    }

    /// Human-readable per-tenant GPU grant for the final epoch, e.g.
    /// `"4×V100+2×K80"`.
    pub fn final_grant(&self, tenant: usize) -> String {
        let Some(last) = self.allocations.last() else {
            return String::new();
        };
        format_share(&last.shares[tenant])
    }
}

/// Renders a per-kind share as `"2×V100+3×K80"` (capability order).
pub fn format_share(share: &BTreeMap<GpuKind, usize>) -> String {
    let parts: Vec<String> = GpuKind::ALL
        .iter()
        .filter_map(|k| {
            let n = share.get(k).copied().unwrap_or(0);
            (n > 0).then(|| format!("{n}\u{00d7}{k:?}"))
        })
        .collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_share_orders_by_capability() {
        let share = BTreeMap::from([(GpuKind::K80, 3), (GpuKind::V100, 2)]);
        assert_eq!(format_share(&share), "2\u{00d7}V100+3\u{00d7}K80");
        assert_eq!(format_share(&BTreeMap::new()), "-");
    }
}
