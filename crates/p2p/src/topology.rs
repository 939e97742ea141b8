//! Hierarchical cloud → site → node topologies.
//!
//! The flat [`ClusterConfig`] models one LAN behind one uplink. A fleet is
//! a *tree*: a cloud registry at the root, edge **sites** below it (each
//! with its own uplink), and **nodes** inside each site joined by the
//! site's LAN. Sites talk to each other over a shared backbone — the
//! EdgePier-style hierarchy where a layer crosses the WAN once per site,
//! then fans out locally.
//!
//! [`TopologyConfig`] describes the tree; [`Topology`] is the built form
//! answering placement queries (which site owns node *n*, which link class
//! joins two nodes). [`Topology::from_cluster`] embeds the historical flat
//! configs — `ClusterConfig::lan` / `ClusterConfig::edge` — as canonical
//! two-level instances (one site, the cluster's registry link as its
//! uplink), with arithmetically identical link pricing.

use std::time::Duration;

use gear_client::ClientConfig;
use gear_simnet::Link;

use crate::cluster::{ClusterConfig, NodeId};

/// Which class of wire a transfer crosses in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Node ↔ node inside one site.
    Lan,
    /// Site ↔ cloud registry.
    Uplink,
    /// Site ↔ site.
    Backbone,
}

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
    /// [`ClusterConfig::edge`] numbers), and a 100 Mbps backbone between
    /// sites.
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

/// A built topology: placement and link-class queries over the tree.
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

    /// Embeds a flat cluster as a canonical two-level topology: one site
    /// holding every node, the cluster's peer link as the LAN, its
    /// registry link as the uplink (and, vacuously, as the backbone —
    /// there is no second site to reach). Link pricing is the same
    /// [`Link`] arithmetic, so schedules stay bit-identical.
    pub fn from_cluster(config: &ClusterConfig) -> Self {
        Self::new(TopologyConfig {
            sites: vec![SiteConfig { nodes: config.nodes, uplink: config.registry_link }],
            lan: config.peer_link,
            backbone: config.registry_link,
            client: config.client,
        })
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

    /// The link class (and link) a transfer between two nodes crosses:
    /// [`LinkClass::Lan`] within a site, [`LinkClass::Backbone`] across
    /// sites.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> (LinkClass, &Link) {
        if self.same_site(a, b) {
            (LinkClass::Lan, &self.config.lan)
        } else {
            (LinkClass::Backbone, &self.config.backbone)
        }
    }

    /// Time for `bytes` to cross the link joining `a` and `b`, amplified
    /// by the client's request amplification — the same formula the flat
    /// cluster charges for peer transfers.
    pub fn peer_time(&self, a: NodeId, b: NodeId, bytes: u64) -> Duration {
        let (_, link) = self.link_between(a, b);
        self.config.client.with_link(*link).request_time(bytes)
    }

    /// Time for `bytes` to cross `site`'s uplink, amplified like a
    /// registry transfer in the flat cluster.
    pub fn uplink_time(&self, site: u32, bytes: u64) -> Duration {
        self.config.client.with_link(*self.uplink(site)).request_time(bytes)
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
    fn link_classes_follow_the_tree() {
        let topo = Topology::new(TopologyConfig::edge_fleet(2, 3));
        assert_eq!(topo.link_between(0, 2).0, LinkClass::Lan);
        assert_eq!(topo.link_between(0, 3).0, LinkClass::Backbone);
        assert!(topo.same_site(3, 5));
        assert!(!topo.same_site(2, 3));
    }

    #[test]
    fn flat_cluster_embeds_as_one_site_with_identical_pricing() {
        for flat in [ClusterConfig::lan(6), ClusterConfig::edge(6)] {
            let topo = Topology::from_cluster(&flat);
            assert_eq!(topo.sites(), 1);
            assert_eq!(topo.nodes(), 6);
            for &bytes in &[0u64, 999, 250_000, 7_000_000] {
                // Peer pricing: same Duration arithmetic as the flat
                // cluster's peer_link_time, bit for bit.
                let amp = flat.client.request_amplification.max(0.0);
                let expected_peer = (flat.peer_link.rtt + flat.peer_link.request_overhead)
                    .mul_f64(amp)
                    + flat.peer_link.bandwidth.transfer_time(bytes);
                assert_eq!(topo.peer_time(0, 5, bytes), expected_peer);
                let expected_up = (flat.registry_link.rtt
                    + flat.registry_link.request_overhead)
                    .mul_f64(amp)
                    + flat.registry_link.bandwidth.transfer_time(bytes);
                assert_eq!(topo.uplink_time(0, bytes), expected_up);
            }
        }
    }

    #[test]
    fn heterogeneous_sites_keep_their_own_uplinks() {
        let mut config = TopologyConfig::edge_fleet(2, 2);
        config.sites[1].uplink = Link::mbps(5.0);
        let topo = Topology::new(config);
        let slow = topo.uplink_time(1, 1_000_000);
        let fast = topo.uplink_time(0, 1_000_000);
        assert!(slow > fast.mul_f64(3.0), "5 Mbps uplink must dwarf 20 Mbps");
    }
}
