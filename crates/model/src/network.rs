//! Network substrate: nodes, undirected links, attached resource capacities.
//!
//! The planner treats links as traversable in both directions (a `cross`
//! action exists per direction); capacities are shared between directions,
//! matching the paper's model where crossing consumes the link's bandwidth
//! regardless of orientation.

use crate::ids::{DirLink, LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Coarse link classification used by scenario definitions and the
/// "reserved LAN bandwidth" metric of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LinkClass {
    /// Local-area link (150 units in the paper's experiment).
    Lan,
    /// Wide-area link (70 units in the paper's experiment).
    Wan,
    /// Anything else.
    #[default]
    Other,
}

/// A network node with named resource capacities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeData {
    /// Human-readable name (unique within the network).
    pub name: String,
    /// Resource capacities by catalog name (e.g. `cpu -> 30`).
    pub resources: BTreeMap<String, f64>,
}

/// An undirected network link with named resource capacities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkData {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Resource capacities by catalog name (e.g. `lbw -> 70`).
    pub resources: BTreeMap<String, f64>,
    /// LAN / WAN classification.
    pub class: LinkClass,
}

/// An undirected network graph with resource-annotated nodes and links.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<NodeData>,
    links: Vec<LinkData>,
    /// adjacency[n] = links incident to node n
    #[serde(skip)]
    adjacency: Vec<Vec<LinkId>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Add a node with the given name and resource capacities.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        resources: impl IntoIterator<Item = (impl Into<String>, f64)>,
    ) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData {
            name: name.into(),
            resources: resources.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add an undirected link between `a` and `b`.
    ///
    /// Panics if either endpoint is out of range or `a == b` (self-links
    /// make no sense for stream crossing).
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: LinkClass,
        resources: impl IntoIterator<Item = (impl Into<String>, f64)>,
    ) -> LinkId {
        assert!(a.index() < self.nodes.len(), "link endpoint {a} out of range");
        assert!(b.index() < self.nodes.len(), "link endpoint {b} out of range");
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId::from_index(self.links.len());
        self.links.push(LinkData {
            a,
            b,
            resources: resources.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            class,
        });
        self.adjacency[a.index()].push(id);
        self.adjacency[b.index()].push(id);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node data by id.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Link data by id.
    pub fn link(&self, id: LinkId) -> &LinkData {
        &self.links[id.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// All link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId::from_index)
    }

    /// All nodes with data.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &NodeData)> {
        self.nodes.iter().enumerate().map(|(i, d)| (NodeId::from_index(i), d))
    }

    /// All links with data.
    pub fn links(&self) -> impl ExactSizeIterator<Item = (LinkId, &LinkData)> {
        self.links.iter().enumerate().map(|(i, d)| (LinkId::from_index(i), d))
    }

    /// Find a node by name (linear scan; fine for construction-time use).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId::from_index)
    }

    /// Links incident to a node.
    pub fn incident(&self, n: NodeId) -> &[LinkId] {
        &self.adjacency[n.index()]
    }

    /// Neighbor on `link` opposite to `n` (None if `n` is not an endpoint).
    pub fn opposite(&self, link: LinkId, n: NodeId) -> Option<NodeId> {
        let l = self.link(link);
        if l.a == n {
            Some(l.b)
        } else if l.b == n {
            Some(l.a)
        } else {
            None
        }
    }

    /// All directed traversals (two per undirected link).
    pub fn directed_links(&self) -> impl Iterator<Item = DirLink> + '_ {
        self.links().flat_map(|(id, l)| {
            [DirLink { link: id, from: l.a, to: l.b }, DirLink { link: id, from: l.b, to: l.a }]
        })
    }

    /// The undirected link between two nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.index()].iter().copied().find(|&l| self.opposite(l, a) == Some(b))
    }

    /// Capacity of a node resource (0 when absent, matching "no resource
    /// declared" semantics).
    pub fn node_capacity(&self, n: NodeId, res: &str) -> f64 {
        self.node(n).resources.get(res).copied().unwrap_or(0.0)
    }

    /// Capacity of a link resource (0 when absent).
    pub fn link_capacity(&self, l: LinkId, res: &str) -> f64 {
        self.link(l).resources.get(res).copied().unwrap_or(0.0)
    }

    /// Set the capacity of a node resource, inserting it when absent.
    ///
    /// The mutation entry point for dynamic environments (churn, failure
    /// injection, adaptation markers): structure is immutable after
    /// construction, capacities are not.
    pub fn set_node_capacity(&mut self, n: NodeId, res: impl Into<String>, value: f64) {
        self.nodes[n.index()].resources.insert(res.into(), value);
    }

    /// Set the capacity of a link resource, inserting it when absent.
    pub fn set_link_capacity(&mut self, l: LinkId, res: impl Into<String>, value: f64) {
        self.links[l.index()].resources.insert(res.into(), value);
    }

    /// Rebuild the adjacency index (needed after deserialization, where the
    /// index is skipped).
    pub fn rebuild_adjacency(&mut self) {
        self.adjacency = vec![Vec::new(); self.nodes.len()];
        for (i, l) in self.links.iter().enumerate() {
            self.adjacency[l.a.index()].push(LinkId::from_index(i));
            self.adjacency[l.b.index()].push(LinkId::from_index(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::names::{CPU, LBW};

    fn two_node() -> (Network, NodeId, NodeId, LinkId) {
        let mut net = Network::new();
        let a = net.add_node("n0", [(CPU, 30.0)]);
        let b = net.add_node("n1", [(CPU, 30.0)]);
        let l = net.add_link(a, b, LinkClass::Wan, [(LBW, 70.0)]);
        (net, a, b, l)
    }

    #[test]
    fn construction_and_lookup() {
        let (net, a, b, l) = two_node();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_links(), 1);
        assert_eq!(net.node(a).name, "n0");
        assert_eq!(net.node_by_name("n1"), Some(b));
        assert_eq!(net.node_by_name("zzz"), None);
        assert_eq!(net.link(l).class, LinkClass::Wan);
        assert_eq!(net.node_capacity(a, CPU), 30.0);
        assert_eq!(net.node_capacity(a, "mem"), 0.0);
        assert_eq!(net.link_capacity(l, LBW), 70.0);
    }

    #[test]
    fn adjacency_and_direction() {
        let (net, a, b, l) = two_node();
        assert_eq!(net.incident(a), &[l]);
        assert_eq!(net.opposite(l, a), Some(b));
        assert_eq!(net.opposite(l, b), Some(a));
        assert_eq!(net.link_between(a, b), Some(l));
        assert_eq!(net.link_between(b, a), Some(l));
        let dirs: Vec<_> = net.directed_links().collect();
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].from, a);
        assert_eq!(dirs[1].from, b);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut net = Network::new();
        let a = net.add_node("n0", [(CPU, 1.0)]);
        net.add_link(a, a, LinkClass::Lan, [(LBW, 1.0)]);
    }

    #[test]
    fn rebuild_adjacency_after_clear() {
        let (mut net, a, b, l) = two_node();
        net.adjacency.clear();
        net.rebuild_adjacency();
        assert_eq!(net.incident(a), &[l]);
        assert_eq!(net.incident(b), &[l]);
    }

    #[test]
    fn capacity_mutation() {
        let (mut net, a, _, l) = two_node();
        net.set_node_capacity(a, CPU, 12.5);
        assert_eq!(net.node_capacity(a, CPU), 12.5);
        net.set_node_capacity(a, "gpu", 4.0); // insert-when-absent
        assert_eq!(net.node_capacity(a, "gpu"), 4.0);
        net.set_link_capacity(l, LBW, 0.0);
        assert_eq!(net.link_capacity(l, LBW), 0.0);
        // structure untouched
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.incident(a), &[l]);
    }

    #[test]
    fn opposite_of_nonincident_is_none() {
        let (mut net, _, _, l) = two_node();
        let c = net.add_node("n2", [(CPU, 1.0)]);
        assert_eq!(net.opposite(l, c), None);
    }
}
