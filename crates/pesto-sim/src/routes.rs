//! The device-pair → link table every transfer is routed through.

use crate::error::SimError;
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, LinkId, LinkType};

/// The directed link a transfer between two devices takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    /// The link itself.
    pub link: LinkId,
    link_type: LinkType,
    speed: f64,
}

impl Route {
    /// Transfer time of `bytes` on this link, µs (before any injected
    /// link degradation).
    pub fn transfer_us(&self, comm: &CommModel, bytes: u64) -> f64 {
        comm.transfer_us(self.link_type, bytes) / self.speed
    }
}

/// Dense device-pair → [`Route`] table: the link [`Cluster::link_between`]
/// finds for each ordered pair, looked up in O(1) instead of a scan over
/// the cluster's links. [`Simulator::new`](crate::Simulator::new) builds
/// one, and list schedulers built on the simulator route their transfer
/// estimates through the same table ([`Simulator::routes`](crate::Simulator::routes)).
#[derive(Debug, Clone)]
pub struct Routes {
    devices: usize,
    table: Vec<Option<Route>>,
}

impl Routes {
    /// The table of `cluster`'s links.
    pub fn new(cluster: &Cluster) -> Self {
        let devices = cluster.device_count();
        let mut table = vec![None; devices * devices];
        // Reverse, so the first link of a pair wins, as in `link_between`.
        for l in cluster.links().iter().rev() {
            let (src, dst) = (l.src().index(), l.dst().index());
            if src < devices && dst < devices {
                let info = cluster.link(l.id());
                table[src * devices + dst] = Some(Route {
                    link: l.id(),
                    link_type: info.link_type(),
                    speed: info.speed(),
                });
            }
        }
        Routes { devices, table }
    }

    /// The route from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingLink`] if the cluster does not connect the pair.
    pub fn get(&self, src: DeviceId, dst: DeviceId) -> Result<Route, SimError> {
        let (s, d) = (src.index(), dst.index());
        (s < self.devices && d < self.devices)
            .then(|| self.table[s * self.devices + d])
            .flatten()
            .ok_or(SimError::MissingLink { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_agrees_with_link_between() {
        let cluster = Cluster::homogeneous(4, 1 << 30);
        let routes = Routes::new(&cluster);
        for s in 0..cluster.device_count() {
            for d in 0..cluster.device_count() {
                let (src, dst) = (DeviceId::from_index(s), DeviceId::from_index(d));
                let found = routes.get(src, dst).ok().map(|r| r.link);
                assert_eq!(found, cluster.link_between(src, dst), "{s} -> {d}");
            }
        }
        let outside = DeviceId::from_index(cluster.device_count());
        assert_eq!(
            routes.get(outside, cluster.gpu(0)),
            Err(SimError::MissingLink {
                src: outside,
                dst: cluster.gpu(0)
            })
        );
    }
}
