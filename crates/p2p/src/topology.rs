//! Hierarchical cloud → site → node topologies.
//!
//! The flat [`ClusterConfig`](crate::ClusterConfig) models one LAN behind
//! one uplink. A fleet is a *tree*: a cloud registry at the root, edge
//! **sites** below it (each with its own uplink), and **nodes** inside each
//! site joined by the site's LAN. Sites talk to each other over a shared
//! backbone — the EdgePier-style hierarchy where a layer crosses the WAN
//! once per site, then fans out locally.
//!
//! [`TopologyConfig`] describes the tree; [`Topology`] is the built form
//! answering placement queries (which site owns node *n*, whether two
//! nodes share a site, which links join them).

use gear_client::ClientConfig;
use gear_simnet::Link;

use crate::cluster::NodeId;

/// One edge site: a node count plus the uplink joining it to the cloud.
#[derive(Debug, Clone, Copy)]
pub struct SiteConfig {
    /// Nodes in the site.
    pub nodes: usize,
    /// The site's link to the cloud registry.
    pub uplink: Link,
}

/// A hierarchical topology description.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Edge sites, in id order.
    pub sites: Vec<SiteConfig>,
    /// Node ↔ node link within every site.
    pub lan: Link,
    /// Site ↔ site link.
    pub backbone: Link,
    /// Per-node client cost model.
    pub client: ClientConfig,
}

impl TopologyConfig {
    /// `sites` identical sites of `nodes_per_site` nodes each.
    pub fn symmetric(
        sites: usize,
        nodes_per_site: usize,
        lan: Link,
        uplink: Link,
        backbone: Link,
    ) -> Self {
        TopologyConfig {
            sites: vec![SiteConfig { nodes: nodes_per_site, uplink }; sites.max(1)],
            lan,
            backbone,
            client: ClientConfig::default(),
        }
    }

    /// An edge fleet in the regime where cooperative caching matters most:
    /// 1 Gbps site LANs, thin 20 Mbps uplinks (the flat
    /// [`ClusterConfig::edge`](crate::ClusterConfig::edge) numbers), and a
    /// 100 Mbps backbone between sites.
    pub fn edge_fleet(sites: usize, nodes_per_site: usize) -> Self {
        Self::symmetric(
            sites,
            nodes_per_site,
            Link::mbps(1_000.0),
            Link::mbps(20.0),
            Link::mbps(100.0),
        )
    }

    /// Replaces the per-node client config.
    #[must_use]
    pub fn with_client(mut self, client: ClientConfig) -> Self {
        self.client = client;
        self
    }
}

/// A built topology: placement and link queries over the tree.
#[derive(Debug, Clone)]
pub struct Topology {
    config: TopologyConfig,
    /// Site of each node, indexed by node id (sites own contiguous id
    /// ranges in site order).
    site_of: Vec<u32>,
    /// First node id of each site.
    first_node: Vec<usize>,
}

impl Topology {
    /// Builds the tree; node ids are assigned contiguously site by site.
    pub fn new(config: TopologyConfig) -> Self {
        let mut site_of = Vec::new();
        let mut first_node = Vec::with_capacity(config.sites.len());
        for (site, sc) in config.sites.iter().enumerate() {
            first_node.push(site_of.len());
            site_of.extend(std::iter::repeat_n(site as u32, sc.nodes));
        }
        Topology { config, site_of, first_node }
    }

    /// The description this topology was built from.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Total nodes across all sites.
    pub fn nodes(&self) -> usize {
        self.site_of.len()
    }

    /// Sites in the tree.
    pub fn sites(&self) -> usize {
        self.config.sites.len()
    }

    /// The site owning `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn site_of(&self, node: NodeId) -> u32 {
        self.site_of[node]
    }

    /// Site of every node, indexed by node id — the shape site-scoped
    /// peer discovery consumes.
    pub fn site_map(&self) -> &[u32] {
        &self.site_of
    }

    /// The contiguous node-id range of `site`.
    pub fn site_nodes(&self, site: u32) -> std::ops::Range<NodeId> {
        let start = self.first_node[site as usize];
        start..start + self.config.sites[site as usize].nodes
    }

    /// The uplink of `site`.
    pub fn uplink(&self, site: u32) -> &Link {
        &self.config.sites[site as usize].uplink
    }

    /// The intra-site LAN link.
    pub fn lan(&self) -> &Link {
        &self.config.lan
    }

    /// The inter-site backbone link.
    pub fn backbone(&self) -> &Link {
        &self.config.backbone
    }

    /// Whether two nodes share a site.
    pub fn same_site(&self, a: NodeId, b: NodeId) -> bool {
        self.site_of[a] == self.site_of[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_assigned_contiguously_site_by_site() {
        let topo = Topology::new(TopologyConfig::edge_fleet(3, 4));
        assert_eq!(topo.nodes(), 12);
        assert_eq!(topo.sites(), 3);
        for site in 0..3u32 {
            let range = topo.site_nodes(site);
            assert_eq!(range.len(), 4);
            for node in range {
                assert_eq!(topo.site_of(node), site);
            }
        }
    }

    #[test]
    fn same_site_follows_the_tree() {
        let topo = Topology::new(TopologyConfig::edge_fleet(2, 3));
        assert!(topo.same_site(0, 2));
        assert!(!topo.same_site(0, 3));
        assert!(topo.same_site(3, 5));
        assert!(!topo.same_site(2, 3));
    }

    #[test]
    fn heterogeneous_sites_keep_their_own_uplinks() {
        let mut config = TopologyConfig::edge_fleet(2, 2);
        config.sites[1].uplink = Link::mbps(5.0);
        let topo = Topology::new(config);
        let slow = topo.uplink(1).bandwidth.transfer_time(1_000_000);
        let fast = topo.uplink(0).bandwidth.transfer_time(1_000_000);
        assert!(slow > fast.mul_f64(3.0), "5 Mbps uplink must dwarf 20 Mbps");
    }
}
