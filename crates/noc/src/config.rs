//! NoC configuration: mesh geometry, buffering, and big-router deployment.

use crate::coord::Coord;
use crate::fault::FaultPlan;
use inpg_sim::ConfigError;

/// How big routers are distributed over the mesh.
///
/// The paper's default (Figure 3) deploys one big router between every two
/// normal routers — 32 big routers on the 8×8 mesh. Figure 14 sweeps the
/// count from 0 to 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BigRouterPlacement {
    /// No big routers: the Original / OCOR baselines.
    None,
    /// A checkerboard pattern: a router at `(x, y)` is big when
    /// `(x + y)` is odd — one big router interleaved with every normal
    /// router, the paper's default deployment.
    #[default]
    Checkerboard,
    /// Every router is big (the paper's 64-big-router point).
    All,
    /// `count` big routers spread evenly over the mesh in row-major
    /// order (the paper's 4- and 16-router points in Figure 14).
    Spread(usize),
}

impl BigRouterPlacement {
    /// Whether the router at `coord` is big under this placement.
    pub fn is_big(self, coord: Coord, width: u8, height: u8) -> bool {
        match self {
            BigRouterPlacement::None => false,
            BigRouterPlacement::Checkerboard => (coord.x() + coord.y()) % 2 == 1,
            BigRouterPlacement::All => true,
            BigRouterPlacement::Spread(count) => {
                let total = width as usize * height as usize;
                if count == 0 {
                    return false;
                }
                if count >= total {
                    return true;
                }
                // Spread evenly in row-major order: position `idx` hosts a
                // big router iff the cumulative quota floor((idx+1)·count/total)
                // increments there, which selects exactly `count` positions.
                let idx = coord.y() as usize * width as usize + coord.x() as usize;
                ((idx + 1) * count) / total > (idx * count) / total
            }
        }
    }

    /// Number of big routers this placement yields on a mesh.
    pub fn count(self, width: u8, height: u8) -> usize {
        let mut n = 0;
        for y in 0..height {
            for x in 0..width {
                if self.is_big(Coord::new(x, y), width, height) {
                    n += 1;
                }
            }
        }
        n
    }
}

/// Static NoC parameters.
///
/// Defaults follow Table 1 of the paper: an 8×8 mesh, XY routing,
/// 2-stage pipelined routers, 4 virtual networks, 4-flit VC buffers,
/// 128-bit links (one cache block = one 8-flit packet, one control
/// message = one single-flit packet), checkerboard big-router deployment
/// and a 16-entry locking barrier table with a 128-cycle TTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh width (columns).
    pub width: u8,
    /// Mesh height (rows).
    pub height: u8,
    /// Number of virtual networks (message classes).
    pub vnets: u8,
    /// Virtual channels per virtual network per port.
    pub vcs_per_vnet: u8,
    /// Buffer depth of each VC, in flits.
    pub vc_depth: u8,
    /// Flits in a data (cache-block) packet.
    pub data_flits: u8,
    /// Big router deployment pattern.
    pub placement: BigRouterPlacement,
    /// Lock-barrier entries (and early-invalidation entries) per big
    /// router's locking barrier table.
    pub barrier_entries: usize,
    /// Barrier time-to-live, in cycles.
    pub barrier_ttl: u32,
    /// Whether routers arbitrate by OCOR packet priority.
    pub ocor_arbitration: bool,
    /// Deterministic fault-injection schedule (empty = none).
    pub faults: FaultPlan,
}

impl NocConfig {
    /// The paper's Table-1 configuration for iNPG.
    pub fn paper_default() -> Self {
        NocConfig {
            width: 8,
            height: 8,
            vnets: 4,
            vcs_per_vnet: 2,
            vc_depth: 4,
            data_flits: 8,
            placement: BigRouterPlacement::Checkerboard,
            barrier_entries: 16,
            barrier_ttl: 128,
            ocor_arbitration: false,
            faults: FaultPlan::none(),
        }
    }

    /// The paper's baseline (Original) configuration: no big routers.
    pub fn baseline() -> Self {
        NocConfig { placement: BigRouterPlacement::None, ..Self::paper_default() }
    }

    /// Total routers on the mesh.
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total VCs per port.
    pub fn vcs_per_port(&self) -> usize {
        self.vnets as usize * self.vcs_per_vnet as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any dimension or buffer parameter is
    /// zero, a port has more than 12 VCs, or the barrier table is
    /// configured on a mesh with no routers.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 || self.height == 0 {
            return Err(ConfigError::new("mesh dimensions must be nonzero"));
        }
        if self.vnets == 0 {
            return Err(ConfigError::new("at least one virtual network is required"));
        }
        if self.vcs_per_vnet == 0 {
            return Err(ConfigError::new("at least one VC per virtual network is required"));
        }
        if self.vcs_per_port() > 12 {
            // Each router tracks its 5 ports' occupied VCs in one u64.
            return Err(ConfigError::new("at most 12 VCs per port (vnets x VCs per vnet)"));
        }
        if self.vc_depth == 0 {
            return Err(ConfigError::new("VC buffers must hold at least one flit"));
        }
        if self.data_flits == 0 {
            return Err(ConfigError::new("data packets must have at least one flit"));
        }
        if self.barrier_entries == 0 && self.placement != BigRouterPlacement::None {
            return Err(ConfigError::new(
                "big routers require at least one locking barrier entry",
            ));
        }
        if self.barrier_ttl == 0 && self.placement != BigRouterPlacement::None {
            return Err(ConfigError::new("barrier TTL must be nonzero"));
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcs_per_port_must_fit_the_occupancy_mask() {
        let ok = NocConfig { vnets: 4, vcs_per_vnet: 3, ..NocConfig::paper_default() };
        assert!(ok.validate().is_ok());
        let too_many = NocConfig { vnets: 4, vcs_per_vnet: 4, ..NocConfig::paper_default() };
        assert!(too_many.validate().is_err());
    }

    #[test]
    fn checkerboard_places_half() {
        assert_eq!(BigRouterPlacement::Checkerboard.count(8, 8), 32);
    }

    #[test]
    fn all_and_none_counts() {
        assert_eq!(BigRouterPlacement::All.count(8, 8), 64);
        assert_eq!(BigRouterPlacement::None.count(8, 8), 0);
    }

    #[test]
    fn spread_counts_match() {
        for count in [0usize, 1, 4, 16, 32, 63, 64] {
            assert_eq!(
                BigRouterPlacement::Spread(count).count(8, 8),
                count.min(64),
                "spread({count})"
            );
        }
    }

    #[test]
    fn spread_is_actually_spread() {
        // 4 big routers on an 8x8 mesh should not all sit in row 0.
        let rows: std::collections::HashSet<u8> = (0..8u8)
            .flat_map(|y| (0..8u8).map(move |x| Coord::new(x, y)))
            .filter(|c| BigRouterPlacement::Spread(4).is_big(*c, 8, 8))
            .map(|c| c.y())
            .collect();
        assert!(rows.len() >= 2, "4 spread big routers should span rows, got {rows:?}");
    }

    #[test]
    fn paper_default_validates() {
        assert!(NocConfig::paper_default().validate().is_ok());
        assert!(NocConfig::baseline().validate().is_ok());
        assert_eq!(NocConfig::paper_default().nodes(), 64);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = NocConfig::paper_default();
        cfg.width = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::paper_default();
        cfg.vc_depth = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::paper_default();
        cfg.barrier_entries = 0;
        assert!(cfg.validate().is_err());
        cfg.placement = BigRouterPlacement::None;
        assert!(cfg.validate().is_ok());
    }
}
