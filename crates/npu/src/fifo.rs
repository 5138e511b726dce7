//! The speculative CPU↔NPU FIFOs (paper Section 5.2, Figure 3).
//!
//! The input FIFO distinguishes a *speculative tail* (entries pushed by
//! `enq.d` instructions that have executed but not committed) from its
//! committed prefix; entries are recycled only once their `enq.d` has
//! committed **and** the NPU has finished the invocation that consumed
//! them. The output FIFO keeps a *speculative head* (advanced by issued
//! `deq.d`s) and a *non-speculative head* (advanced at commit), so a
//! misspeculated dequeue can be replayed.
//!
//! NPU timing never depends on the values that flow through the FIFOs
//! (the bus schedule is static), so both FIFOs are modelled as absolute,
//! monotonically increasing positions alone: push, commit, read, process
//! and free counts. That also makes rollback across multiple in-flight
//! invocations straightforward for the simulator.

use crate::NpuError;

/// The CPU→NPU input FIFO with speculative-tail semantics.
#[derive(Debug, Clone)]
pub struct InputFifo {
    /// Absolute count of pushes (committed and speculative).
    pushed: u64,
    /// Absolute count of entries freed (recycled) so far.
    freed: u64,
    /// Absolute count of committed pushes.
    committed: u64,
    /// Absolute read cursor (entries the NPU has consumed).
    consumed: u64,
    /// Absolute count of entries whose consuming invocation completed.
    processed: u64,
    capacity: usize,
}

impl InputFifo {
    /// Creates an empty FIFO with the given capacity.
    pub fn new(capacity: usize) -> Self {
        InputFifo {
            pushed: 0,
            freed: 0,
            committed: 0,
            consumed: 0,
            processed: 0,
            capacity,
        }
    }

    /// Absolute count of pushes so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Absolute count of committed pushes so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Absolute read cursor.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Absolute count of entries whose consuming invocation completed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Occupied entries (committed + speculative).
    pub fn len(&self) -> usize {
        (self.pushed - self.freed) as usize
    }

    /// Whether the FIFO holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.pushed == self.freed
    }

    /// Whether a further `enq.d` would find space (the scheduler "only
    /// issues an enqueue instruction if the corresponding FIFO is not
    /// full").
    pub fn has_space(&self) -> bool {
        self.len() < self.capacity
    }

    /// Whether the NPU has an unread entry available.
    pub fn readable(&self) -> bool {
        self.consumed < self.pushed
    }

    /// Speculatively pushes an entry (at `enq.d` execute).
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::FifoFull`] when at capacity.
    pub fn push_spec(&mut self) -> Result<(), NpuError> {
        if !self.has_space() {
            return Err(NpuError::FifoFull("input"));
        }
        self.pushed += 1;
        Ok(())
    }

    /// Marks the oldest speculative entry committed (at `enq.d` commit).
    ///
    /// # Panics
    ///
    /// Panics if there is no speculative entry to commit.
    pub fn commit_push(&mut self) {
        assert!(
            self.committed < self.pushed,
            "commit without matching speculative push"
        );
        self.committed += 1;
        self.try_free();
    }

    /// NPU-side: reads the next unconsumed entry, advancing the cursor.
    /// Returns whether an entry existed.
    pub fn read_next(&mut self) -> bool {
        let readable = self.readable();
        if readable {
            self.consumed += 1;
        }
        readable
    }

    /// NPU-side: declares that the invocation consuming the oldest `n`
    /// read-but-unprocessed entries has completed, making them eligible
    /// for recycling once committed.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of read entries.
    pub fn mark_processed(&mut self, n: usize) {
        assert!(
            self.processed + n as u64 <= self.consumed,
            "cannot process more entries than were read"
        );
        self.processed += n as u64;
        self.try_free();
    }

    fn try_free(&mut self) {
        self.freed = self.freed.max(self.processed.min(self.committed));
    }

    /// Misspeculation rollback: removes the youngest `n` (speculative)
    /// entries. Returns how many of the removed entries the NPU had
    /// already read (the caller resets in-flight state accordingly).
    ///
    /// # Panics
    ///
    /// Panics if asked to squash committed entries.
    pub fn squash_pushes(&mut self, n: usize) -> u64 {
        assert!(
            self.pushed - self.committed >= n as u64,
            "cannot squash committed entries"
        );
        self.pushed -= n as u64;
        let overrun = self.consumed.saturating_sub(self.pushed);
        self.consumed = self.consumed.min(self.pushed);
        self.processed = self.processed.min(self.pushed);
        overrun
    }

    /// Moves the read cursor to absolute position `to`: back to the start
    /// of a reset invocation, or forward over entries the NPU has read.
    ///
    /// # Panics
    ///
    /// Panics if `to` points at already-freed or not-yet-pushed entries.
    pub fn rewind_to(&mut self, to: u64) {
        assert!(to >= self.freed && to <= self.pushed, "rewind out of range");
        self.consumed = to;
    }
}

/// The NPU→CPU output FIFO with speculative-head semantics.
#[derive(Debug, Clone)]
pub struct OutputFifo {
    /// Absolute count of outputs pushed (less any invalidated).
    pushed: u64,
    /// Absolute speculative head: entries read by issued `deq.d`s,
    /// committed or not.
    spec_head: u64,
    /// Absolute non-speculative head: entries whose `deq.d` committed,
    /// and which are therefore freed.
    head: u64,
    capacity: usize,
}

impl OutputFifo {
    /// Creates an empty FIFO with the given capacity.
    pub fn new(capacity: usize) -> Self {
        OutputFifo {
            pushed: 0,
            spec_head: 0,
            head: 0,
            capacity,
        }
    }

    /// Occupied entries (including speculatively read ones, which are
    /// retained until their `deq.d` commits).
    pub fn len(&self) -> usize {
        (self.pushed - self.head) as usize
    }

    /// Whether the FIFO holds no entries.
    pub fn is_empty(&self) -> bool {
        self.pushed == self.head
    }

    /// Whether the NPU can push another output.
    pub fn has_space(&self) -> bool {
        self.len() < self.capacity
    }

    /// Whether a `deq.d` can issue (an unread entry exists).
    pub fn available(&self) -> bool {
        self.spec_head < self.pushed
    }

    /// Entries read by issued `deq.d`s that have not committed yet.
    pub fn uncommitted_reads(&self) -> usize {
        (self.spec_head - self.head) as usize
    }

    /// NPU-side: appends a computed output.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::FifoFull`] when at capacity.
    pub fn push(&mut self) -> Result<(), NpuError> {
        if !self.has_space() {
            return Err(NpuError::FifoFull("output"));
        }
        self.pushed += 1;
        Ok(())
    }

    /// Speculatively reads the next entry (at `deq.d` issue): advances the
    /// speculative head but keeps the entry for possible replay. Returns
    /// whether an entry existed.
    pub fn pop_spec(&mut self) -> bool {
        let available = self.available();
        if available {
            self.spec_head += 1;
        }
        available
    }

    /// Commits the oldest speculative read (at `deq.d` commit), actually
    /// freeing the slot ("the non-speculative head pointer is only updated
    /// when the instruction commits").
    ///
    /// # Panics
    ///
    /// Panics if no speculative read is outstanding.
    pub fn commit_pop(&mut self) {
        assert!(
            self.spec_head > self.head,
            "commit_pop without speculative read"
        );
        self.head += 1;
    }

    /// Misspeculation rollback: undoes the youngest `n` speculative reads
    /// (restores the speculative head toward the non-speculative head).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` speculative reads are outstanding.
    pub fn squash_pops(&mut self, n: usize) {
        assert!(
            n as u64 <= self.spec_head - self.head,
            "cannot squash committed pops"
        );
        self.spec_head -= n as u64;
    }

    /// Removes the youngest `n` entries — outputs computed from inputs
    /// that were invalidated by a squash ("adjusts the output FIFO tail
    /// pointer to invalidate any outputs that are based on the invalidated
    /// inputs").
    ///
    /// # Panics
    ///
    /// Panics if that would remove speculatively read entries (run
    /// [`squash_pops`](Self::squash_pops) first).
    pub fn invalidate_tail(&mut self, n: usize) {
        assert!(
            n as u64 <= self.pushed - self.spec_head,
            "invalidating entries that were already read"
        );
        self.pushed -= n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_fifo_basic_flow() {
        let mut f = InputFifo::new(4);
        f.push_spec().unwrap();
        f.push_spec().unwrap();
        assert!(f.read_next());
        assert!(f.read_next());
        assert!(!f.read_next());
        // Invocation done but nothing committed: entries stay.
        f.mark_processed(2);
        assert_eq!(f.len(), 2);
        f.commit_push();
        assert_eq!(f.len(), 1); // first freed
        f.commit_push();
        assert!(f.is_empty());
    }

    #[test]
    fn input_fifo_commit_before_processing_frees_lazily() {
        let mut f = InputFifo::new(4);
        f.push_spec().unwrap();
        f.commit_push();
        assert_eq!(f.len(), 1); // committed but NPU hasn't finished with it
        assert!(f.read_next());
        f.mark_processed(1);
        assert!(f.is_empty());
    }

    #[test]
    fn input_fifo_reports_full() {
        let mut f = InputFifo::new(2);
        f.push_spec().unwrap();
        f.push_spec().unwrap();
        assert_eq!(f.push_spec(), Err(NpuError::FifoFull("input")));
        assert!(!f.has_space());
    }

    #[test]
    fn input_squash_of_unread_entries_is_clean() {
        let mut f = InputFifo::new(8);
        for _ in 0..3 {
            f.push_spec().unwrap();
        }
        f.commit_push();
        assert!(f.read_next());
        // Squash the two speculative entries the NPU never read.
        assert_eq!(f.squash_pushes(2), 0);
        assert_eq!(f.len(), 1);
        assert!(!f.readable());
    }

    #[test]
    fn input_squash_of_read_entries_reports_overrun() {
        let mut f = InputFifo::new(8);
        for _ in 0..3 {
            f.push_spec().unwrap();
        }
        for _ in 0..3 {
            assert!(f.read_next());
        }
        let overrun = f.squash_pushes(2); // NPU had read all three
        assert_eq!(overrun, 2);
        f.rewind_to(0);
        assert!(f.read_next()); // re-reads the surviving input
        assert!(!f.read_next());
    }

    #[test]
    fn absolute_counters_survive_freeing() {
        let mut f = InputFifo::new(2);
        for _ in 0..5 {
            f.push_spec().unwrap();
            f.commit_push();
            assert!(f.read_next());
            f.mark_processed(1);
        }
        assert_eq!(f.pushed(), 5);
        assert_eq!(f.consumed(), 5);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot squash committed")]
    fn input_squash_cannot_touch_committed() {
        let mut f = InputFifo::new(8);
        f.push_spec().unwrap();
        f.commit_push();
        f.squash_pushes(1);
    }

    #[test]
    fn output_fifo_speculative_read_replay() {
        let mut f = OutputFifo::new(4);
        f.push().unwrap();
        f.push().unwrap();
        assert!(f.pop_spec());
        assert!(f.pop_spec());
        assert!(!f.pop_spec());
        // Misspeculation: both dequeues squashed; entries must replay.
        f.squash_pops(2);
        assert!(f.pop_spec());
        f.commit_pop();
        assert_eq!(f.len(), 1);
        assert!(f.pop_spec());
    }

    #[test]
    fn output_fifo_invalidate_tail_drops_unread() {
        let mut f = OutputFifo::new(4);
        for _ in 0..3 {
            f.push().unwrap();
        }
        assert!(f.pop_spec());
        f.invalidate_tail(2);
        assert_eq!(f.len(), 1);
        assert!(!f.available());
    }

    #[test]
    #[should_panic(expected = "already read")]
    fn output_invalidate_cannot_remove_read_entries() {
        let mut f = OutputFifo::new(4);
        f.push().unwrap();
        f.pop_spec();
        f.invalidate_tail(1);
    }

    #[test]
    fn output_fifo_capacity() {
        let mut f = OutputFifo::new(1);
        f.push().unwrap();
        assert_eq!(f.push(), Err(NpuError::FifoFull("output")));
    }
}
