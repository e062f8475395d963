//! Epoch-stamped GSP leases.
//!
//! A [`Lease`] records that an application has committed a coalition
//! of GSPs to a live VO. While a lease is live its members leave the
//! candidate pool: market-aware formation only sees the free
//! sub-pool, and a second application cannot lease the same GSP. The
//! table is deterministic plain data — lease ids come from a
//! monotone counter and every mutation is driven by the caller — so
//! journal replay reproduces the exact live set.

use serde::{Deserialize, Serialize};

/// One live commitment: `members` are global GSP ids held by `app`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Monotone lease id, unique across the table's lifetime.
    pub id: u64,
    /// The application holding the coalition.
    pub app: String,
    /// Sorted, deduplicated global GSP ids committed to this VO.
    pub members: Vec<usize>,
    /// Registry epoch at which the lease was acquired.
    pub acquired_epoch: u64,
}

/// Why an acquire was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    /// The requested coalition was empty.
    Empty,
    /// A requested member is already committed to a live VO.
    Held {
        /// The contested GSP id.
        gsp: usize,
        /// The lease currently holding it.
        lease: u64,
    },
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Empty => write!(f, "cannot lease an empty coalition"),
            LeaseError::Held { gsp, lease } => {
                write!(f, "GSP {gsp} is already committed to lease {lease}")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// The set of live leases over a GSP pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseTable {
    leases: Vec<Lease>,
    next_id: u64,
}

impl Default for LeaseTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LeaseTable {
    /// An empty table; the first lease gets id 1.
    pub fn new() -> Self {
        Self { leases: Vec::new(), next_id: 1 }
    }

    /// True when no lease was ever acquired: a pristine table needs
    /// no persistence (snapshots omit it for backward compatibility).
    pub fn is_pristine(&self) -> bool {
        self.leases.is_empty() && self.next_id == 1
    }

    /// Live leases, in acquisition order.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// Number of live leases.
    pub fn live(&self) -> usize {
        self.leases.len()
    }

    /// The live lease holding `gsp`, if any.
    pub fn holder_of(&self, gsp: usize) -> Option<&Lease> {
        self.leases.iter().find(|l| l.members.contains(&gsp))
    }

    /// Commit `members` to `app` at `epoch`. Members are sorted and
    /// deduplicated; the assigned lease id is returned.
    pub fn acquire(&mut self, app: &str, members: &[usize], epoch: u64) -> Result<u64, LeaseError> {
        let mut sorted: Vec<usize> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() {
            return Err(LeaseError::Empty);
        }
        for &gsp in &sorted {
            if let Some(held) = self.holder_of(gsp) {
                return Err(LeaseError::Held { gsp, lease: held.id });
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.leases.push(Lease {
            id,
            app: app.to_string(),
            members: sorted,
            acquired_epoch: epoch,
        });
        Ok(id)
    }

    /// Release lease `id`, returning it, or `None` if it is not live.
    pub fn release(&mut self, id: u64) -> Option<Lease> {
        let at = self.leases.iter().position(|l| l.id == id)?;
        Some(self.leases.remove(at))
    }

    /// All committed GSP ids, sorted ascending.
    pub fn committed(&self) -> Vec<usize> {
        let mut ids: Vec<usize> =
            self.leases.iter().flat_map(|l| l.members.iter().copied()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The free sub-pool: global ids in `0..pool` held by no lease.
    pub fn free_members(&self, pool: usize) -> Vec<usize> {
        let committed = self.committed();
        (0..pool).filter(|id| committed.binary_search(id).is_err()).collect()
    }

    /// FNV-1a digest of the committed set; 0 when nothing is
    /// committed. The daemon does not read it (a market solve-cache
    /// key hashes the free sub-pool's own instance); the daemon
    /// benchmark does.
    pub fn free_digest(&self) -> u64 {
        let committed = self.committed();
        if committed.is_empty() {
            return 0;
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for id in committed {
            for byte in (id as u64).to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash.max(1) // never collide with the idle-market 0
    }

    /// Renumber members after GSP `removed` left the registry: every
    /// id above it shifts down by one. The caller must have verified
    /// that `removed` itself is not held by any live lease.
    pub fn shift_down(&mut self, removed: usize) {
        for lease in &mut self.leases {
            debug_assert!(!lease.members.contains(&removed));
            for member in &mut lease.members {
                if *member > removed {
                    *member -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_round_trip() {
        let mut t = LeaseTable::new();
        assert!(t.is_pristine());
        let a = t.acquire("alice", &[2, 0, 2], 5).unwrap();
        assert_eq!(a, 1);
        assert!(!t.is_pristine());
        assert_eq!(t.leases()[0].members, vec![0, 2]);
        assert_eq!(t.leases()[0].acquired_epoch, 5);
        let b = t.acquire("bob", &[1], 6).unwrap();
        assert_eq!(b, 2);
        assert_eq!(t.committed(), vec![0, 1, 2]);
        assert_eq!(t.free_members(5), vec![3, 4]);
        let released = t.release(a).unwrap();
        assert_eq!(released.app, "alice");
        assert_eq!(t.free_members(5), vec![0, 2, 3, 4]);
        assert!(t.release(a).is_none());
        // Ids are never reused, so replay stays deterministic.
        assert_eq!(t.acquire("carol", &[0], 7).unwrap(), 3);
    }

    #[test]
    fn conflicting_member_is_refused() {
        let mut t = LeaseTable::new();
        let a = t.acquire("alice", &[1, 2], 1).unwrap();
        assert_eq!(t.acquire("bob", &[2, 3], 2), Err(LeaseError::Held { gsp: 2, lease: a }));
        assert_eq!(t.acquire("bob", &[], 2), Err(LeaseError::Empty));
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn digest_tracks_committed_set_only() {
        let mut t = LeaseTable::new();
        assert_eq!(t.free_digest(), 0);
        let a = t.acquire("alice", &[1], 1).unwrap();
        let d1 = t.free_digest();
        assert_ne!(d1, 0);
        let b = t.acquire("bob", &[3], 2).unwrap();
        assert_ne!(t.free_digest(), d1);
        t.release(b).unwrap();
        // Same committed set, same digest, regardless of history.
        assert_eq!(t.free_digest(), d1);
        t.release(a).unwrap();
        assert_eq!(t.free_digest(), 0);
    }

    #[test]
    fn shift_down_renumbers_members() {
        let mut t = LeaseTable::new();
        t.acquire("alice", &[1, 4], 1).unwrap();
        t.shift_down(2);
        assert_eq!(t.leases()[0].members, vec![1, 3]);
        assert_eq!(t.holder_of(4), None);
        assert!(t.holder_of(3).is_some());
    }

    #[test]
    fn serde_round_trip() {
        let mut t = LeaseTable::new();
        t.acquire("alice", &[0, 2], 3).unwrap();
        t.acquire("bob", &[1], 4).unwrap();
        t.release(1).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: LeaseTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // next_id survives, so replayed acquires keep matching ids.
        let mut back = back;
        assert_eq!(back.acquire("carol", &[0], 5).unwrap(), 3);
    }
}
