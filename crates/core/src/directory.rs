//! The execution-replica registry / system directory (§3.1, §3.6).
//!
//! The paper maintains an *execution-replica registry* as a BFT service
//! hosted by the agreement group: clients query it for the locations and
//! addresses of active execution replicas, and agreement replicas update
//! it when the composition changes. In the simulation, name resolution is
//! represented by this shared [`Directory`]: agreement replicas write to
//! it exactly when the paper would update the registry (on ordered
//! `AddGroup`/`RemoveGroup` commands), and clients read it to find their
//! group's replicas. The *control path* (ordering of reconfigurations) is
//! fully faithful; only the lookup RPC is collapsed into shared memory,
//! which costs no simulated time and no messages.

use crate::keys::AGREEMENT_GROUP;
use parking_lot::RwLock;
use spider_types::{GroupId, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Membership record of one execution group.
#[derive(Debug, Clone)]
pub struct GroupInfo {
    /// The group's replicas (node ids), in replica-index order.
    pub replicas: Vec<NodeId>,
    /// Whether the group is currently active (registered via `AddGroup`).
    pub active: bool,
}

/// A registered execution group; the membership is shared, not copied,
/// with everyone who asks for it.
#[derive(Debug)]
struct Group {
    replicas: Arc<[NodeId]>,
    active: bool,
}

#[derive(Debug, Default)]
struct Inner {
    agreement: Arc<[NodeId]>,
    groups: BTreeMap<GroupId, Group>,
    /// The ids of the active `groups`, in id order; rebuilt whenever a
    /// group is registered, activated or deactivated.
    active: Arc<[GroupId]>,
    clients: BTreeMap<spider_types::ClientId, NodeId>,
    client_groups: BTreeMap<spider_types::ClientId, GroupId>,
}

impl Inner {
    fn list_active(&mut self) {
        self.active = self.groups.iter().filter(|(_, g)| g.active).map(|(id, _)| *id).collect();
    }
}

/// Shared, cheaply cloneable handle to the system directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    inner: Arc<RwLock<Inner>>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Registers the agreement group's replicas.
    pub fn set_agreement(&self, replicas: Vec<NodeId>) {
        self.inner.write().agreement = replicas.into();
    }

    /// The agreement group's replicas, in replica-index order.
    pub fn agreement(&self) -> Arc<[NodeId]> {
        self.inner.read().agreement.clone()
    }

    /// Registers an execution group (initially inactive until the
    /// `AddGroup` command is ordered, unless `active` is set).
    pub fn register_group(&self, group: GroupId, info: GroupInfo) {
        let GroupInfo { replicas, active } = info;
        let mut inner = self.inner.write();
        inner.groups.insert(group, Group { replicas: replicas.into(), active });
        inner.list_active();
    }

    /// Marks a group active (called by agreement replicas when `AddGroup`
    /// commits).
    pub fn activate_group(&self, group: GroupId) {
        self.set_active(group, true);
    }

    /// Marks a group inactive (`RemoveGroup` committed).
    pub fn deactivate_group(&self, group: GroupId) {
        self.set_active(group, false);
    }

    fn set_active(&self, group: GroupId, active: bool) {
        let mut inner = self.inner.write();
        if let Some(g) = inner.groups.get_mut(&group) {
            g.active = active;
            inner.list_active();
        }
    }

    /// Replicas of a group (whether active or not), in replica-index
    /// order: the agreement group under [`AGREEMENT_GROUP`], and nobody
    /// for a group never registered — group ids arrive in frames, so the
    /// lookup is total.
    pub fn group_replicas(&self, group: GroupId) -> Arc<[NodeId]> {
        let inner = self.inner.read();
        if group == AGREEMENT_GROUP {
            return inner.agreement.clone();
        }
        inner.groups.get(&group).map_or_else(|| Arc::from([]), |g| g.replicas.clone())
    }

    /// Which replica of `group` the node `node` is, if it is one.
    pub fn replica_index(&self, group: GroupId, node: NodeId) -> Option<usize> {
        self.group_replicas(group).iter().position(|n| *n == node)
    }

    /// Whether a group is currently active.
    pub fn is_active(&self, group: GroupId) -> bool {
        self.inner.read().groups.get(&group).is_some_and(|g| g.active)
    }

    /// All currently active groups, in id order; shared, not copied.
    pub fn active_groups(&self) -> Arc<[GroupId]> {
        self.inner.read().active.clone()
    }

    /// Registers a client's transport address.
    pub fn register_client(&self, client: spider_types::ClientId, node: NodeId) {
        self.inner.write().clients.insert(client, node);
    }

    /// Transport address of a client, if registered.
    pub fn client_node(&self, client: spider_types::ClientId) -> Option<NodeId> {
        self.inner.read().clients.get(&client).copied()
    }

    /// Records which group (site) a client is attached to.
    pub fn register_client_group(&self, client: spider_types::ClientId, group: GroupId) {
        self.inner.write().client_groups.insert(client, group);
    }

    /// The group a client is attached to, if recorded.
    pub fn client_group(&self, client: spider_types::ClientId) -> Option<GroupId> {
        self.inner.read().client_groups.get(&client).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_lifecycle() {
        let d = Directory::new();
        d.register_group(
            GroupId(3),
            GroupInfo { replicas: vec![NodeId(1), NodeId(2), NodeId(3)], active: false },
        );
        assert!(!d.is_active(GroupId(3)));
        assert!(d.active_groups().is_empty());
        d.activate_group(GroupId(3));
        assert!(d.is_active(GroupId(3)));
        assert_eq!(*d.active_groups(), [GroupId(3)]);
        d.deactivate_group(GroupId(3));
        assert!(!d.is_active(GroupId(3)));
    }

    #[test]
    fn clones_share_state() {
        let d = Directory::new();
        let d2 = d.clone();
        d.set_agreement(vec![NodeId(9)]);
        assert_eq!(*d2.agreement(), [NodeId(9)]);
    }

    #[test]
    fn membership_lookups_are_total() {
        let d = Directory::new();
        d.set_agreement(vec![NodeId(0), NodeId(1)]);
        d.register_group(
            GroupId(2),
            GroupInfo { replicas: vec![NodeId(5), NodeId(6)], active: false },
        );
        assert_eq!(*d.group_replicas(GroupId(2)), [NodeId(5), NodeId(6)]);
        assert_eq!(d.replica_index(GroupId(2), NodeId(6)), Some(1));
        assert_eq!(d.replica_index(GroupId(2), NodeId(0)), None);
        // The agreement group is one more group; an unknown one is empty.
        assert_eq!(d.replica_index(AGREEMENT_GROUP, NodeId(1)), Some(1));
        assert!(d.group_replicas(GroupId(999)).is_empty());
        assert_eq!(d.replica_index(GroupId(999), NodeId(5)), None);
    }

    #[test]
    fn groups_listed_in_id_order() {
        let d = Directory::new();
        for id in [5u16, 1, 3, 4] {
            d.register_group(GroupId(id), GroupInfo { replicas: vec![], active: id != 4 });
        }
        assert_eq!(*d.active_groups(), [GroupId(1), GroupId(3), GroupId(5)]);
        d.activate_group(GroupId(4));
        d.deactivate_group(GroupId(1));
        assert_eq!(*d.active_groups(), [GroupId(3), GroupId(4), GroupId(5)]);
    }
}
