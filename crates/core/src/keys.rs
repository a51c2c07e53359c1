//! Logical signing identities.
//!
//! Crypto identities are decoupled from transport addresses: a replica's
//! [`KeyId`] is a function of its *role* (group + index), not of the
//! simulator node id. This lets endpoints and checkpoint components be
//! constructed before the deployment's node ids exist, and lets any party
//! compute the verification keys of any group.

use spider_crypto::KeyId;
use spider_types::{ClientId, GroupId};

/// Seed of the simulated PKI every replica and baseline shares: the
/// agreement and execution replicas and the Steward baseline build their
/// keyrings from it.
pub const KEY_SEED: u64 = 7;

/// Group id reserved for the agreement group.
pub const AGREEMENT_GROUP: GroupId = GroupId(u16::MAX);

/// Key of agreement replica `i`.
pub fn agreement_key(i: usize) -> KeyId {
    KeyId(10_000 + i as u32)
}

/// Keys of the whole agreement group (`n = 3fa + 1`).
pub fn agreement_keys(n: usize) -> Vec<KeyId> {
    (0..n).map(agreement_key).collect()
}

/// Key of replica `i` of execution group `g`.
pub fn exec_key(g: GroupId, i: usize) -> KeyId {
    KeyId(100_000 + g.0 as u32 * 100 + i as u32)
}

/// Keys of execution group `g` (`n = 2fe + 1`).
pub fn exec_keys(g: GroupId, n: usize) -> Vec<KeyId> {
    (0..n).map(|i| exec_key(g, i)).collect()
}

/// Key of a client.
pub fn client_key(c: ClientId) -> KeyId {
    KeyId(1_000_000 + c.0)
}

/// Key of the privileged admin client (§3.6).
pub fn admin_key() -> KeyId {
    KeyId(999)
}

/// Keys of an arbitrary group (agreement or execution).
pub fn group_keys(group: GroupId, n: usize) -> Vec<KeyId> {
    if group == AGREEMENT_GROUP {
        agreement_keys(n)
    } else {
        exec_keys(group, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_across_roles() {
        let mut all = vec![admin_key(), client_key(ClientId(0))];
        all.extend(exec_keys(GroupId(0), 3));
        all.extend(exec_keys(GroupId(1), 3));
        all.extend(agreement_keys(4));
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "no collisions");
    }

    #[test]
    fn group_keys_dispatches_on_group() {
        assert_eq!(group_keys(AGREEMENT_GROUP, 2), agreement_keys(2));
        assert_eq!(group_keys(GroupId(3), 2), exec_keys(GroupId(3), 2));
    }
}
