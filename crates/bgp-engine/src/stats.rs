//! Counters the engine accumulates while it runs.

use bgp_types::SimTime;

/// Counters accumulated while the simulation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Announcement messages delivered.
    pub announcements: u64,
    /// Withdrawal messages delivered.
    pub withdrawals: u64,
    /// Updates superseded inside an MRAI window before ever being sent.
    pub mrai_coalesced: u64,
    /// Updates held back (deferred) by a closed MRAI window; a deferral that
    /// is later superseded also counts toward `mrai_coalesced`.
    pub mrai_deferred: u64,
    /// Messages dropped because their link failed — or their session was
    /// reset — while they were in flight.
    pub dropped_on_failed_links: u64,
    /// Messages that arrived corrupted and were discarded by the receiver.
    pub corrupted_dropped: u64,
    /// Simulated time when the network last went quiescent.
    pub converged_at: SimTime,
}

impl NetworkStats {
    /// Total update messages delivered.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.announcements + self.withdrawals
    }
}

/// Update counters for one directed BGP session.
///
/// "Sent" counts messages handed to the link (before the fault model decides
/// their fate); "received" counts messages actually delivered to the peer's
/// decision process, so `sent - received` on a session is the traffic lost
/// to drops, corruption, failures and stale epochs on that link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Announcements handed to the link by the sending router.
    pub sent_announcements: u64,
    /// Withdrawals handed to the link by the sending router.
    pub sent_withdrawals: u64,
    /// Announcements delivered to the receiving router.
    pub recv_announcements: u64,
    /// Withdrawals delivered to the receiving router.
    pub recv_withdrawals: u64,
}

impl SessionCounters {
    /// `true` when the session never carried a message.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == SessionCounters::default()
    }
}
