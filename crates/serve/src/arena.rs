//! Dense struct-of-arrays store for active sessions, in admission order.
//!
//! The server's hot loop touches every active session a handful of
//! times per slot (enqueue, water-fill, grant application), and at
//! mega-scale that working set dwarfs the cache. [`SessionArena`] keeps
//! each field in its own column, and position `i` of every column is
//! the `i`-th session in admission order, so each per-slot pass is a
//! sequential stream over exactly the bytes it needs.
//!
//! Determinism: walking positions `0..len` *is* admission order, which
//! preserves the exact float-accumulation and crash-victim order of the
//! original `Vec<ActiveSession>` loop (`ReferenceServerSim` pins this
//! differentially).
//!
//! Addressing: every (re)admission draws a fresh activation id from a
//! counter, and every insert appends, so the `acts` column is strictly
//! increasing. A departure finds its session by binary search on
//! `act`; a miss (already compacted away) or a dead entry (crashed or
//! timed out) is a no-op, so a stale `Depart` can never kill a later
//! activation. Departures and timeouts only mark entries dead; the
//! once-per-slot [`SessionArena::compact`] moves the live entries down
//! over the dead ones, so k same-slot departures cost O(k log n + n)
//! rather than the seed engine's O(k·n) `retain` scans.
//! Retries re-offer under the workload id (`ids`), so no entry points
//! back into the engine's offer queue.

/// One crash victim's fields, copied out before its entry is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Victim {
    /// Workload session id, which a retry re-offers under.
    pub id: u64,
    /// Slot the crashed activation would have departed at.
    pub depart_slot: u64,
    /// Retry attempts consumed to reach the crashed activation.
    pub attempt: u32,
    /// Playout-buffer backlog lost with the session, bits.
    pub backlog: u64,
}

/// Per-session state in columns; position `i` is the `i`-th session in
/// admission order (live, or dead awaiting [`SessionArena::compact`]).
#[derive(Debug, Default)]
pub(crate) struct SessionArena {
    /// Workload session id (unique among live sessions).
    pub ids: Vec<u64>,
    /// Activation id, unique per (re)admission; strictly increasing.
    pub acts: Vec<u64>,
    /// Slot this activation departs at.
    pub depart_slots: Vec<u64>,
    /// Consecutive deadline-missed slots (playout-timeout trigger).
    pub misses: Vec<u64>,
    /// Retry attempts consumed to reach this activation.
    pub attempts: Vec<u32>,
    /// Playout-buffer backlog, bits — the water-filling hot field.
    pub backlogs: Vec<u64>,
    /// Whether the entry is still live (dead entries await compaction).
    alive: Vec<bool>,
    /// Live session count (`len()` minus dead entries).
    live: usize,
}

impl SessionArena {
    /// Creates an arena with room for `capacity` concurrent sessions.
    pub fn with_capacity(capacity: usize) -> Self {
        SessionArena {
            ids: Vec::with_capacity(capacity),
            acts: Vec::with_capacity(capacity),
            depart_slots: Vec::with_capacity(capacity),
            misses: Vec::with_capacity(capacity),
            attempts: Vec::with_capacity(capacity),
            backlogs: Vec::with_capacity(capacity),
            alive: Vec::with_capacity(capacity),
            live: 0,
        }
    }

    /// Live session count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Entries held, live and dead; after [`SessionArena::compact`]
    /// this equals [`SessionArena::live`].
    pub fn len(&self) -> usize {
        self.acts.len()
    }

    /// Admits a session at the end of admission order. `act` must
    /// exceed every activation id inserted before it.
    pub fn insert(&mut self, id: u64, act: u64, depart_slot: u64, attempt: u32) {
        debug_assert!(
            self.acts.last().is_none_or(|&last| last < act),
            "activation ids must be strictly increasing"
        );
        self.ids.push(id);
        self.acts.push(act);
        self.depart_slots.push(depart_slot);
        self.misses.push(0);
        self.attempts.push(attempt);
        self.backlogs.push(0);
        self.alive.push(true);
        self.live += 1;
    }

    /// Departure by activation id: kills the entry holding `act` if it
    /// is still live and returns its position, whose fields stay valid
    /// until the next [`SessionArena::compact`]. A stale `act` (entry
    /// compacted away, crashed or timed out) is a no-op returning `None`.
    pub fn depart(&mut self, act: u64) -> Option<usize> {
        let pos = self.acts.binary_search(&act).ok()?;
        if !self.alive[pos] {
            return None;
        }
        self.kill(pos);
        Some(pos)
    }

    /// Marks the live entry at `pos` dead in place (the timeout sweep);
    /// the next [`SessionArena::compact`] drops it.
    pub fn kill(&mut self, pos: usize) {
        debug_assert!(self.alive[pos]);
        self.alive[pos] = false;
        self.live -= 1;
    }

    /// Removes the `count` newest live sessions, copying their fields
    /// into `buf` in *admission order* (oldest victim first — the order
    /// the reference implementation's `drain(len - victims..)` yields).
    /// Dead entries among the removed tail are dropped with it.
    pub fn take_newest(&mut self, count: usize, buf: &mut Vec<Victim>) {
        debug_assert!(count <= self.live);
        buf.clear();
        if count == 0 {
            return;
        }
        let mut cut = self.len();
        let mut found = 0usize;
        while found < count {
            cut -= 1;
            if self.alive[cut] {
                found += 1;
            }
        }
        for pos in cut..self.len() {
            if self.alive[pos] {
                buf.push(Victim {
                    id: self.ids[pos],
                    depart_slot: self.depart_slots[pos],
                    attempt: self.attempts[pos],
                    backlog: self.backlogs[pos],
                });
            }
        }
        self.live -= count;
        self.truncate(cut);
    }

    /// Drops dead entries, moving the live ones down from the first
    /// dead position, and sums the live backlogs in the same pass.
    /// After this every position `0..len()` is live, in admission order.
    pub fn compact(&mut self) -> u64 {
        let first_dead = self.alive.iter().position(|&a| !a).unwrap_or(self.len());
        let mut carried: u64 = self.backlogs[..first_dead].iter().sum();
        // Runs of live entries between dead ones move down column by
        // column (one `copy_within` each), not field by field.
        let len = self.len();
        let (mut w, mut r) = (first_dead, first_dead);
        while r < len {
            while r < len && !self.alive[r] {
                r += 1;
            }
            let start = r;
            while r < len && self.alive[r] {
                r += 1;
            }
            self.ids.copy_within(start..r, w);
            self.acts.copy_within(start..r, w);
            self.depart_slots.copy_within(start..r, w);
            self.misses.copy_within(start..r, w);
            self.attempts.copy_within(start..r, w);
            self.backlogs.copy_within(start..r, w);
            carried += self.backlogs[w..w + (r - start)].iter().sum::<u64>();
            w += r - start;
        }
        self.alive[first_dead..w].fill(true);
        self.truncate(w);
        carried
    }

    fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.acts.truncate(len);
        self.depart_slots.truncate(len);
        self.misses.truncate(len);
        self.attempts.truncate(len);
        self.backlogs.truncate(len);
        self.alive.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_of(n: u64) -> SessionArena {
        let mut a = SessionArena::with_capacity(n as usize);
        for i in 0..n {
            a.insert(10 + i, i, 100 + i, 0);
        }
        a
    }

    #[test]
    fn depart_compact_keeps_admission_order() {
        let mut a = arena_of(3);
        assert_eq!(a.live(), 3);

        // A stale or unknown act must not kill anything.
        assert_eq!(a.depart(99), None);
        assert_eq!(a.depart(1), Some(1));
        assert_eq!(a.depart(1), None, "double departure is a no-op");
        assert_eq!(a.live(), 2);

        // The dead entry keeps its position (and readable fields)
        // until compaction...
        assert_eq!(a.len(), 3);
        assert_eq!(a.ids[1], 11);
        a.backlogs[0] = 7;
        a.backlogs[2] = 5;
        assert_eq!(a.compact(), 12, "carried sums live backlogs only");
        // ...which closes the gap in admission order.
        assert_eq!(a.acts, vec![0, 2]);
        assert_eq!(a.ids, vec![10, 12]);
        assert_eq!(a.backlogs, vec![7, 5]);
        assert_eq!(a.depart(1), None, "compacted act is a binary-search miss");

        // New admissions append behind the survivors.
        a.insert(13, 3, 9, 1);
        assert_eq!(a.acts, vec![0, 2, 3]);
        assert_eq!(a.backlogs[2], 0, "fresh entry state starts empty");
        assert_eq!(a.attempts[2], 1);
    }

    #[test]
    fn departure_finds_session_after_compaction_moved_it() {
        let mut a = arena_of(6);
        a.attempts[4] = 2;
        a.misses[4] = 3;
        a.backlogs[4] = 40;
        assert_eq!(a.depart(0), Some(0));
        assert_eq!(a.depart(2), Some(2));
        a.compact();
        assert_eq!(a.acts, vec![1, 3, 4, 5]);
        // act 4 moved from position 4 to 2, carrying every column.
        assert_eq!(a.ids[2], 14);
        assert_eq!(a.depart_slots[2], 104);
        assert_eq!(a.attempts[2], 2);
        assert_eq!(a.misses[2], 3);
        assert_eq!(a.backlogs[2], 40);
        assert_eq!(a.depart(4), Some(2));
        a.compact();
        assert_eq!(a.acts, vec![1, 3, 5]);
    }

    #[test]
    fn stale_act_is_a_no_op_after_crash_or_timeout() {
        let mut a = arena_of(4);
        // Timeout: marked dead in place, departure is a no-op both
        // before and after compaction.
        a.kill(1);
        assert_eq!(a.depart(1), None);
        a.compact();
        assert_eq!(a.depart(1), None);
        // Crash: the victim's entry is gone; its later `Depart` must
        // not kill whatever was admitted after it.
        let mut buf = Vec::new();
        a.take_newest(1, &mut buf);
        assert_eq!(buf.len(), 1);
        a.insert(20, 4, 9, 1);
        assert_eq!(a.depart(3), None, "crashed act must not match");
        assert_eq!(a.live(), 3);
        assert_eq!(a.acts, vec![0, 2, 4]);
    }

    #[test]
    fn take_newest_yields_victims_oldest_first_with_fields() {
        let mut a = arena_of(5);
        for (pos, b) in a.backlogs.iter_mut().enumerate() {
            *b = 100 * pos as u64;
        }
        a.attempts[3] = 2;
        // Kill one mid-list so a dead entry sits between live ones,
        // then one at the tail so take_newest has to skip past it.
        assert!(a.depart(2).is_some());
        assert!(a.depart(4).is_some());
        let mut buf = Vec::new();
        a.take_newest(2, &mut buf);
        // Newest two live sessions are acts 1 and 3, oldest first.
        assert_eq!(
            buf,
            vec![
                Victim {
                    id: 11,
                    depart_slot: 101,
                    attempt: 0,
                    backlog: 100,
                },
                Victim {
                    id: 13,
                    depart_slot: 103,
                    attempt: 2,
                    backlog: 300,
                },
            ]
        );
        assert_eq!(a.live(), 1);
        assert_eq!(a.len(), 1, "the removed tail takes its dead entries along");
        assert_eq!(a.compact(), 0);
        assert_eq!(a.acts, vec![0]);
        a.take_newest(0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(a.live(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_act_trips_debug_assert() {
        let mut a = arena_of(2);
        a.insert(30, 1, 9, 0);
    }
}
