//! Peering / maintenance protocol primitives.
//!
//! The overlay's self-healing behaviour is driven by small maintenance
//! messages exchanged between peers: peering requests (with a declared
//! degree), address announcements after rotation, and keep-alives. The
//! acceptance policy implemented here is the one the paper describes and the
//! one SOAP (§VI-B) exploits: a node prefers low-degree peers, and when it is
//! already full it replaces its highest-degree peer with a lower-degree
//! requester.

use onion_graph::graph::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

use tor_sim::onion::OnionAddress;

/// Maintenance messages exchanged between overlay peers.
///
/// On the wire every variant is serialized and wrapped in a fixed-size
/// uniform cell, so observers cannot distinguish a peering request from a
/// keep-alive or an attack command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceMessage {
    /// Ask to become a peer, declaring the sender's (claimed) degree.
    PeeringRequest {
        /// The requester's current onion address.
        from: OnionAddress,
        /// The degree the requester claims to have (unverifiable).
        declared_degree: usize,
    },
    /// Positive answer to a peering request.
    PeeringAccept {
        /// The acceptor's onion address.
        from: OnionAddress,
    },
    /// Negative answer to a peering request.
    PeeringReject {
        /// The rejecting node's onion address.
        from: OnionAddress,
    },
    /// Announce a rotated onion address to current peers (the "forgetting"
    /// mechanism's counterpart: peers must learn the new address before the
    /// old one disappears).
    AddressAnnounce {
        /// The address being replaced.
        old: OnionAddress,
        /// The address valid for the next period.
        new: OnionAddress,
        /// Period index the new address belongs to.
        period: u64,
    },
    /// Liveness probe.
    KeepAlive {
        /// Sender address.
        from: OnionAddress,
    },
}

/// Outcome of evaluating a peering request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeeringDecision {
    /// Accept the new peer outright (the node is below `d_max`).
    Accept,
    /// Accept the new peer and drop this existing peer to make room.
    Replace(NodeId),
    /// Reject the request.
    Reject,
}

/// Picks the peer to displace under the paper's "replace the
/// highest-degree peer" rule: the highest-degree entry of `peers`, ties
/// broken at random. That peer has the most alternative paths, so
/// dropping it "maintains the reachability of all nodes" (§IV-C).
///
/// This is the one shared implementation of the rule — the peering
/// acceptance policy below, the overlay's sequential prune loop
/// (`DdsrOverlay::prune_node`) and the sharded frozen-degree prune
/// planner (`shard::sharded_wave_repair`) all select victims through
/// [`highest_degree_index`], which allocates nothing and consumes exactly
/// one `gen_range(0..ties)` draw per selection — the same draw `choose`
/// over the collected ties would make, so the RNG streams match the
/// collect-then-`choose` form it replaced.
pub fn highest_degree_victim<R: Rng + ?Sized>(
    peers: &[(NodeId, usize)],
    rng: &mut R,
) -> Option<NodeId> {
    highest_degree_index(peers, rng).map(|i| peers[i].0)
}

/// The position in `peers` of [`highest_degree_victim`]'s pick: count the
/// entries tied at the maximum degree, draw one index below that count,
/// and return the position of that tie in list order. `None` for an
/// empty list. Callers that keep a scratch list of remaining peers use
/// the position to take the victim out without a search.
///
/// No `d_min` pre-filter is needed in front of it: if any peer sits above
/// `d_min`, the maximum does too, so the whole tie class survives such a
/// filter in the same order and the pick cannot change.
pub fn highest_degree_index<R: Rng + ?Sized>(
    peers: &[(NodeId, usize)],
    rng: &mut R,
) -> Option<usize> {
    let (mut max_degree, mut ties) = (0usize, 0usize);
    for &(_, d) in peers {
        if ties == 0 || d > max_degree {
            (max_degree, ties) = (d, 1);
        } else if d == max_degree {
            ties += 1;
        }
    }
    if ties == 0 {
        return None;
    }
    let nth = rng.gen_range(0..ties);
    peers
        .iter()
        .enumerate()
        .filter(|&(_, &(_, d))| d == max_degree)
        .nth(nth)
        .map(|(i, _)| i)
}

/// The pre-filter-plus-`choose` victim rule that [`highest_degree_index`]
/// replaced, kept as the golden reference for equivalence tests: drop the
/// peers at or below `d_min` unless that leaves none, collect the
/// max-degree ties, and `choose` among them.
#[cfg(test)]
pub(crate) fn reference_victim<R: Rng + ?Sized>(
    peers: &[(NodeId, usize)],
    d_min: usize,
    rng: &mut R,
) -> Option<NodeId> {
    use rand::seq::SliceRandom;
    let above_min: Vec<(NodeId, usize)> =
        peers.iter().copied().filter(|&(_, d)| d > d_min).collect();
    let eligible = if above_min.is_empty() {
        peers.to_vec()
    } else {
        above_min
    };
    let max_degree = eligible.iter().map(|&(_, d)| d).max()?;
    let candidates: Vec<NodeId> = eligible
        .iter()
        .filter(|&&(_, d)| d == max_degree)
        .map(|&(id, _)| id)
        .collect();
    candidates.choose(rng).copied()
}

/// Decides how a node with the given peers responds to a peering request.
///
/// * Below `d_max`: accept.
/// * At or above `d_max`: if the requester's declared degree is strictly
///   lower than the highest degree among current peers, replace that peer
///   (ties broken at random); otherwise reject.
pub fn decide_peering<R: Rng + ?Sized>(
    current_peers: &[(NodeId, usize)],
    declared_degree: usize,
    d_max: usize,
    rng: &mut R,
) -> PeeringDecision {
    if current_peers.len() < d_max {
        return PeeringDecision::Accept;
    }
    let Some(&max_degree) = current_peers.iter().map(|(_, d)| d).max() else {
        return PeeringDecision::Accept;
    };
    if declared_degree < max_degree {
        match highest_degree_victim(current_peers, rng) {
            Some(victim) => PeeringDecision::Replace(victim),
            None => PeeringDecision::Reject,
        }
    } else {
        PeeringDecision::Reject
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn peers(degrees: &[usize]) -> Vec<(NodeId, usize)> {
        degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| (NodeId(i), d))
            .collect()
    }

    #[test]
    fn below_capacity_always_accepts() {
        let mut rng = StdRng::seed_from_u64(1);
        let decision = decide_peering(&peers(&[5, 5]), 100, 5, &mut rng);
        assert_eq!(decision, PeeringDecision::Accept);
    }

    #[test]
    fn at_capacity_low_degree_requester_displaces_highest_peer() {
        let mut rng = StdRng::seed_from_u64(2);
        let decision = decide_peering(&peers(&[4, 9, 6]), 2, 3, &mut rng);
        assert_eq!(decision, PeeringDecision::Replace(NodeId(1)));
    }

    #[test]
    fn at_capacity_high_degree_requester_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let decision = decide_peering(&peers(&[4, 9, 6]), 9, 3, &mut rng);
        assert_eq!(decision, PeeringDecision::Reject);
        let decision2 = decide_peering(&peers(&[4, 9, 6]), 20, 3, &mut rng);
        assert_eq!(decision2, PeeringDecision::Reject);
    }

    #[test]
    fn ties_are_broken_among_highest_degree_peers_only() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            match decide_peering(&peers(&[7, 3, 7]), 1, 3, &mut rng) {
                PeeringDecision::Replace(victim) => {
                    assert!(victim == NodeId(0) || victim == NodeId(2));
                }
                other => panic!("expected replacement, got {other:?}"),
            }
        }
    }

    #[test]
    fn victim_selection_is_shared_and_uniform_over_ties() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(highest_degree_victim(&[], &mut rng), None);
        assert_eq!(
            highest_degree_victim(&peers(&[3, 9, 5]), &mut rng),
            Some(NodeId(1))
        );
        let mut seen = [false; 3];
        for _ in 0..40 {
            match highest_degree_victim(&peers(&[7, 7, 7]), &mut rng) {
                Some(NodeId(i)) => seen[i] = true,
                None => panic!("non-empty list must yield a victim"),
            }
        }
        assert!(seen.iter().all(|&s| s), "all tied peers must be reachable");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The allocation-free picker, with no `d_min` pre-filter,
            /// picks the same victim as the filter-plus-`choose` rule and
            /// leaves the RNG in the same state, for any peer list and any
            /// `d_min`.
            #[test]
            fn picker_equals_filter_plus_choose(
                degrees in prop::collection::vec(0usize..8, 0..24),
                d_min in 0usize..10,
                seed in 0u64..1_000_000,
            ) {
                let list = peers(&degrees);
                let mut new_rng = StdRng::seed_from_u64(seed);
                let mut old_rng = StdRng::seed_from_u64(seed);
                prop_assert_eq!(
                    highest_degree_victim(&list, &mut new_rng),
                    reference_victim(&list, d_min, &mut old_rng)
                );
                prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
            }
        }
    }

    #[test]
    fn empty_peer_list_accepts() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            decide_peering(&[], 50, 0, &mut rng),
            PeeringDecision::Accept
        );
    }

    #[test]
    fn maintenance_messages_serialize() {
        let msg = MaintenanceMessage::PeeringRequest {
            from: OnionAddress::from_identifier([1u8; 10]),
            declared_degree: 2,
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: MaintenanceMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
        let rotate = MaintenanceMessage::AddressAnnounce {
            old: OnionAddress::from_identifier([1u8; 10]),
            new: OnionAddress::from_identifier([2u8; 10]),
            period: 9,
        };
        assert_ne!(serde_json::to_string(&rotate).unwrap(), json);
    }
}
