//! The ticket lock (Figure 7) at machine scale.
//!
//! The relaxed-memory correctness of this lock — mutual exclusion under
//! Promising Arm given the acquire/release barriers — is established at
//! litmus scale by `vrm_core::paper_examples::example2` and the push/pull
//! checker. Here the lock provides *semantics* (FIFO fairness, spin
//! accounting) for the multiprocessor machine: a CPU draws a ticket with
//! `fetch_and_inc` and enters when `now` reaches it.

/// A FIFO ticket lock with contention statistics.
#[derive(Debug, Clone, Default)]
pub struct TicketLock {
    ticket: u64,
    now: u64,
    /// CPU currently holding the lock, if any.
    holder: Option<usize>,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Total spin iterations observed across all waiters.
    pub total_spins: u64,
}

/// A drawn ticket, waiting for its turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(pub u64);

impl TicketLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// `fetch_and_inc(ticket)`: draws a ticket (the acquire path's RMW).
    pub fn draw(&mut self) -> Ticket {
        let t = self.ticket;
        self.ticket += 1;
        Ticket(t)
    }

    /// One spin-loop iteration: does `now` match the ticket yet?
    ///
    /// On success the CPU becomes the holder.
    pub fn try_enter(&mut self, cpu: usize, ticket: Ticket) -> bool {
        if self.now == ticket.0 {
            debug_assert!(self.holder.is_none(), "lock already held");
            self.holder = Some(cpu);
            self.acquisitions += 1;
            true
        } else {
            self.total_spins += 1;
            false
        }
    }

    /// `now++` with release semantics.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is not the holder — the machine-level analogue of
    /// the push/pull model's panic on pushing an unowned location.
    pub fn release(&mut self, cpu: usize) {
        assert_eq!(self.holder, Some(cpu), "release by non-holder");
        self.holder = None;
        self.now += 1;
    }

    /// The current holder.
    pub fn holder(&self) -> Option<usize> {
        self.holder
    }

    /// Renames the holding CPU `c` to `perm[c]`.
    pub(crate) fn relabel(&mut self, perm: &[usize]) {
        self.holder = self.holder.map(|c| perm[c]);
    }

    /// Is the lock held at all?
    pub fn is_held(&self) -> bool {
        self.holder.is_some()
    }

    /// Tickets drawn but not yet served (queue depth, including holder).
    pub fn queue_depth(&self) -> u64 {
        self.ticket - self.now
    }

    /// How many releases a drawn ticket still has to wait for (0 = next
    /// to enter). Relative positions are schedule-independent where the
    /// absolute counters are not.
    pub fn position(&self, ticket: Ticket) -> u64 {
        ticket.0 - self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut l = TicketLock::new();
        let t0 = l.draw();
        let t1 = l.draw();
        // Second ticket cannot enter first.
        assert!(!l.try_enter(1, t1));
        assert!(l.try_enter(0, t0));
        assert_eq!(l.holder(), Some(0));
        l.release(0);
        assert!(l.try_enter(1, t1));
        l.release(1);
        assert!(!l.is_held());
        assert_eq!(l.acquisitions, 2);
        assert_eq!(l.total_spins, 1);
    }

    #[test]
    #[should_panic(expected = "release by non-holder")]
    fn release_by_non_holder_panics() {
        let mut l = TicketLock::new();
        let t = l.draw();
        assert!(l.try_enter(0, t));
        l.release(1);
    }

    #[test]
    fn queue_depth_tracks_waiters() {
        let mut l = TicketLock::new();
        let t0 = l.draw();
        let _t1 = l.draw();
        let _t2 = l.draw();
        assert_eq!(l.queue_depth(), 3);
        assert!(l.try_enter(0, t0));
        l.release(0);
        assert_eq!(l.queue_depth(), 2);
    }
}
