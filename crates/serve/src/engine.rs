//! The incremental server engine: the one slotted loop behind every
//! [`ServerSim`](crate::ServerSim) runner, exposed as a stepper.
//!
//! [`ServerEngine`] is the *offer-source seam*: synthetic workloads
//! ([`ServerSim::run`](crate::ServerSim::run) offers each slot's
//! [`SessionRequest`]s just before stepping it) and socket-delivered
//! offers (`dms-net`'s lockstep driver offers each one as its frame
//! arrives) feed the exact same admission/multiplexing/recovery code
//! path through [`ServerEngine::offer`] + [`ServerEngine::step_slot`].
//!
//! Offers are not events. The engine queues the offers it has not
//! decided yet, slot-ordered by construction ([`ServerEngine::offer`]
//! never lets a stamp go backwards): each slot first pops and decides
//! the queued offers whose slot has come, in queue order, and only
//! then drains the timing wheel, which carries the dynamic events —
//! departures and retries — alone. Same-slot arrivals therefore
//! precede same-slot departures and retries under any injection
//! schedule, so "offer everything, then step to the horizon" and
//! "offer each slot just before stepping it" make identical decisions.
//! That is the order the seed `run_core` loop used, pinned by the
//! `ReferenceServerSim` differential proptests and the golden run-logs.
//!
//! A decided offer is dropped: retries and crash victims carry the
//! session id, so a lockstep run holds one slot's offers plus the live
//! set, however long it runs.
//!
//! The engine advances one slot per [`ServerEngine::step_slot`] call
//! and never looks at a wall clock: whoever drives it (a `for` loop or
//! a network driver pacing real time through `dms_sim::TickClock`)
//! owns the mapping from ticks to slots. That inversion is what keeps
//! socket-fed runs byte-deterministic — the simulation only ever sees
//! the slot numbers stamped on the offers.
//!
//! Each slot's sweep over the live set streams: the session arena
//! keeps its columns dense in admission order, so compaction,
//! enqueue, grant application and the timeout sweep all walk
//! positions `0..live` sequentially, and the grant-apply pass
//! memoises the last `(delivered bits, utility)` pair so the FGS
//! utility curve is evaluated only when the delivered bit count
//! changes from one session to the next.

use std::collections::VecDeque;

use dms_sim::{EventQueue, FaultEvent, FaultPlan, ScheduledFault, SimTime};

use crate::admission::{AdmissionController, AdmissionMemo};
use crate::arena::{SessionArena, Victim};
use crate::degrade::LayerController;
use crate::error::ServeError;
use crate::faults::{FaultReport, RecoveryConfig};
use crate::metrics::ServeMetricsSink;
use crate::session::{ServerConfig, ServerReport};
use crate::workload::{SessionRequest, SessionTemplate};

/// Event payload of the server's slotted event loop. Only dynamic
/// events live on the wheel; arrivals wait in the offer queue.
#[derive(Debug, Clone, Copy)]
enum ServerEvent {
    /// Activation to deactivate. Activation ids are strictly increasing
    /// in admission order, so [`SessionArena::depart`] finds the entry
    /// by binary search; an activation that already crashed or timed
    /// out is a miss or a dead entry, and the departure is a no-op.
    Depart { act: u64 },
    /// A crashed or timed-out session re-offering itself after backoff.
    Retry {
        /// Workload session id.
        id: u64,
        /// Retry attempts consumed before this one fires.
        attempt: u32,
        /// Service slots the session still wants.
        remaining: u64,
    },
}

/// One first-offer admission verdict, recorded when
/// [`ServerEngine::record_verdicts`] is on: `(session id, admitted)`.
pub type Verdict = (u64, bool);

/// The incremental slotted server: offers in, verdicts and a
/// [`FaultReport`] out, one slot per [`ServerEngine::step_slot`].
///
/// `faults: None` takes the exact nominal path (fault state pinned at
/// "no fault", zero extra arithmetic on the served bits). The loop
/// itself draws no randomness — all of it lives pre-compiled inside
/// the [`FaultPlan`] — which is what keeps runs deterministic at any
/// `DMS_THREADS` and lets socket-fed runs byte-match direct injection.
#[derive(Debug)]
pub struct ServerEngine {
    template: SessionTemplate,
    full_bits: u64,
    buffer_bits: u64,
    miss_bits: u64,
    nominal_bits: u64,
    slots: u64,
    recovery: Option<RecoveryConfig>,

    admission: AdmissionController,
    degrade: Option<LayerController>,
    memo: AdmissionMemo,
    queue: EventQueue<ServerEvent>,
    arena: SessionArena,

    /// Offers not yet decided, stamped with the slot they land on;
    /// the stamps never decrease, so the front is the next arrival.
    pending: VecDeque<SessionRequest>,
    /// Offers injected so far, decided or not.
    offered: u64,

    // Per-slot scratch hoisted out of the loop.
    due: Vec<ServerEvent>,
    grants: Vec<u64>,
    sorted: Vec<u32>,
    crash_buf: Vec<Victim>,

    // Fault state. The plan's events are walked with a cursor, not
    // spliced into `queue`, so the departure/retry FIFO order within
    // a slot is untouched by fault injection.
    fault_events: Vec<ScheduledFault>,
    fault_cursor: usize,
    link_factor: f64,
    next_act: u64,
    stall_streak: u64,

    /// Arrivals before this slot are rejected outright (the warm-up
    /// cost of a freshly provisioned shard); `0` = always warm.
    warmup_slots: u64,
    /// Previous slot's deadline-miss count / active-set size — the
    /// measurement the PI shedding law closes its loop on.
    prev_misses: u64,
    prev_active: u64,

    /// Next slot to step; slots `0..slot` are already simulated.
    slot: u64,
    report: FaultReport,
    verdicts: Option<Vec<Verdict>>,
}

impl ServerEngine {
    /// Builds a nominal (fault-free, no-recovery) engine for `slots`
    /// slots of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates template/config validation; fails if the config's
    /// buffer/deadline thresholds overflow at this template's demand
    /// ([`ServerConfig::validate_for`]).
    pub fn new(
        config: &ServerConfig,
        template: SessionTemplate,
        slots: u64,
    ) -> Result<Self, ServeError> {
        Self::with_faults(config, template, slots, None, None)
    }

    /// Builds an engine that applies `faults` while stepping and (with
    /// `Some(recovery)`) retries crashed/timed-out sessions with
    /// exponential backoff.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServerEngine::new`]; additionally propagates
    /// [`RecoveryConfig::validate`] failures.
    pub fn with_faults(
        config: &ServerConfig,
        template: SessionTemplate,
        slots: u64,
        faults: Option<&FaultPlan>,
        recovery: Option<&RecoveryConfig>,
    ) -> Result<Self, ServeError> {
        template.validate()?;
        if let Some(rec) = recovery {
            rec.validate()?;
        }
        let full_bits = template.full_bits();
        let (buffer_bits, miss_bits) = config.validate_for(full_bits)?;
        let admission = AdmissionController::new(config.capacity, config.policy, full_bits)?;
        let degrade = config.degrade.map(LayerController::new).transpose()?;
        Ok(ServerEngine {
            template,
            full_bits,
            buffer_bits,
            miss_bits,
            nominal_bits: config.capacity.link_bits_per_slot,
            slots,
            recovery: recovery.copied(),
            admission,
            degrade,
            memo: AdmissionMemo::new(),
            queue: EventQueue::with_capacity(1024),
            arena: SessionArena::with_capacity(1024),
            pending: VecDeque::new(),
            offered: 0,
            due: Vec::new(),
            grants: Vec::new(),
            sorted: Vec::new(),
            crash_buf: Vec::new(),
            fault_events: faults.map_or_else(Vec::new, |f| f.events().to_vec()),
            fault_cursor: 0,
            link_factor: 1.0,
            next_act: 0,
            stall_streak: 0,
            warmup_slots: config.degrade.map_or(0, |d| d.warmup_slots),
            prev_misses: 0,
            prev_active: 0,
            slot: 0,
            report: FaultReport::default(),
            verdicts: None,
        })
    }

    /// Pre-sizes the offer queue (purely an allocation hint).
    pub fn reserve(&mut self, additional: usize) {
        self.pending.reserve(additional);
    }

    /// Injects one offer. It lands on slot
    /// `max(arrival_slot, slot(), previous offer's slot)`:
    ///
    /// * an offer stamped for a slot already stepped arrives at the
    ///   next unstepped slot — the socket driver's "late frame lands
    ///   now" rule;
    /// * an offer stamped before the previous offer is decided at the
    ///   previous offer's slot, so the queue stays slot-ordered.
    ///
    /// Offers within one slot keep injection order (FIFO) and are all
    /// decided before that slot's departures and retries, whenever
    /// they were injected — a caller that offers everything up front
    /// and a lockstep driver that offers each slot just before stepping
    /// it make the same decisions. An admitted offer with a zero
    /// `duration_slots` (reachable from the wire) departs in its
    /// admission slot, before that slot's service.
    pub fn offer(&mut self, request: SessionRequest) {
        // Decided offers all landed before `slot()`.
        let floor = self
            .pending
            .back()
            .map_or(self.slot, |prev| prev.arrival_slot.max(self.slot));
        self.pending.push_back(SessionRequest {
            arrival_slot: request.arrival_slot.max(floor),
            ..request
        });
        self.offered += 1;
    }

    /// Next slot [`ServerEngine::step_slot`] will simulate (slots
    /// `0..slot()` are done).
    #[must_use]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The simulation horizon in slots.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.slots
    }

    /// Offers injected so far.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// First offers admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admission.admitted()
    }

    /// First offers rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.admission.rejected()
    }

    /// Offers whose arrival slot has not been stepped yet — the
    /// sessions a shutdown drains without a verdict. The driver's
    /// conservation assertion is
    /// `admitted + rejected + undecided == offered` at every step
    /// boundary (`offered` is counted apart from the queue).
    #[must_use]
    pub fn undecided(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Total bits delivered so far (for per-slot `Data` telemetry).
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        self.report.base.delivered_bits
    }

    /// Turns first-offer verdict recording on or off. While on, every
    /// offer decided by [`ServerEngine::step_slot`] appends
    /// `(id, admitted)` to the buffer drained by
    /// [`ServerEngine::take_verdicts`]. Retries are re-admissions of
    /// already-decided sessions and are deliberately not re-reported —
    /// the wire ledger counts each session's first offer once, like
    /// the `admitted + rejected == offered` report invariant.
    pub fn record_verdicts(&mut self, on: bool) {
        if on {
            if self.verdicts.is_none() {
                self.verdicts = Some(Vec::new());
            }
        } else {
            self.verdicts = None;
        }
    }

    /// Moves the verdicts recorded since the last call into `out`.
    pub fn take_verdicts(&mut self, out: &mut Vec<Verdict>) {
        if let Some(v) = self.verdicts.as_mut() {
            out.append(v);
        }
    }

    /// Simulates one slot; returns `false` (and does nothing) once the
    /// horizon is reached. The body follows the seed `run_core` slot
    /// loop step for step over the dense arena — auditable against
    /// [`crate::ReferenceServerSim`].
    #[allow(clippy::too_many_lines)] // one slot loop, kept linear for auditability
    pub fn step_slot(&mut self, mut sink: Option<&mut ServeMetricsSink>) -> bool {
        if self.slot >= self.slots {
            return false;
        }
        let slot = self.slot;
        let now = SimTime::from_ticks(slot);
        let template = self.template;
        let full_bits = self.full_bits;
        let admitted_before = self.admission.admitted();
        let misses_before = self.report.base.deadline_misses;
        let utility_before = self.report.base.utility_sum;

        // 1. Apply this slot's scheduled faults, in plan order.
        //    Crashes strike the sessions active at the slot edge —
        //    newest first, they hold the freshest reservations.
        let mut stalled = false;
        let mut corrupt_loss = 0.0f64;
        while self.fault_cursor < self.fault_events.len()
            && self.fault_events[self.fault_cursor].slot <= slot
        {
            match self.fault_events[self.fault_cursor].event {
                FaultEvent::LinkRate { factor } => self.link_factor = factor,
                FaultEvent::LinkRestore => self.link_factor = 1.0,
                FaultEvent::SlotStall => stalled = true,
                FaultEvent::Corrupt { loss } => corrupt_loss = loss,
                FaultEvent::SessionCrash { fraction } => {
                    let victims = ((self.arena.live() as f64 * fraction).ceil() as usize)
                        .min(self.arena.live());
                    let mut crashed = std::mem::take(&mut self.crash_buf);
                    self.arena.take_newest(victims, &mut crashed);
                    for victim in &crashed {
                        self.report.crashed += 1;
                        self.report.lost_to_fault_bits += victim.backlog;
                        let remaining = victim.depart_slot.saturating_sub(slot);
                        self.retry(slot, victim.id, victim.attempt, remaining);
                    }
                    self.crash_buf = crashed;
                }
                // Component faults belong to population consumers
                // (the E11 sensor census); the server has none.
                FaultEvent::ComponentDown { .. } | FaultEvent::ComponentUp { .. } => {}
            }
            self.fault_cursor += 1;
        }

        // 2. Decide this slot's arrivals: the queued offers whose
        //    slot has come, in queue order, ahead of every departure
        //    and retry due this slot — whenever they were injected.
        while let Some(req) = self.pending.pop_front_if(|r| r.arrival_slot <= slot) {
            let admitted = if slot < self.warmup_slots {
                // Warm-up gate: the shard exists but is not ready to
                // serve; the rejection is recorded so
                // `admitted + rejected == offered` stays exact.
                self.admission.record_rejection();
                false
            } else {
                self.memo
                    .decide(&mut self.admission, self.arena.live() as u64)
            };
            if let Some(v) = self.verdicts.as_mut() {
                v.push((req.id, admitted));
            }
            if admitted {
                self.activate(req.id, slot, req.duration_slots, 0);
            }
        }

        // 3. Drain due departures / retries (FIFO within the slot).
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        due.extend(self.queue.drain_ready(now).map(|ev| ev.payload));
        for &ev in &due {
            match ev {
                ServerEvent::Depart { act } => {
                    if let Some(pos) = self.arena.depart(act) {
                        // The entry's fields stay valid until the
                        // compaction below: read the departed session's
                        // trace for the bounded sink's reservoir.
                        if let Some(s) = sink.as_deref_mut() {
                            s.record_departure(self.arena.ids[pos], self.arena.misses[pos]);
                        }
                    }
                }
                ServerEvent::Retry {
                    id,
                    attempt,
                    remaining,
                } => {
                    // Re-admissions preview the predicate without
                    // recording: the `admitted + rejected == offered`
                    // ledger counts each session's first offer once.
                    if slot >= self.warmup_slots
                        && self
                            .memo
                            .would_admit(&self.admission, self.arena.live() as u64)
                    {
                        self.report.readmitted += 1;
                        self.activate(id, slot, remaining, attempt + 1);
                    } else {
                        self.report.retry_rejected += 1;
                        self.retry(slot, id, attempt + 1, remaining);
                    }
                }
            }
        }
        self.due = due;

        let full_demand = self.arena.live() as u64 * full_bits;
        self.report.base.predicted_occupancy += self
            .memo
            .predicted_occupancy(&self.admission, self.arena.live() as u64);

        // 4. This slot's effective capacity under the fault state.
        let capacity_now = if stalled {
            self.report.stall_slots += 1;
            0
        } else if self.link_factor >= 1.0 {
            self.nominal_bits
        } else {
            self.report.degraded_slots += 1;
            (self.nominal_bits as f64 * self.link_factor).round() as u64
        };

        // One sweep pass: close the gaps left by this slot's
        // departures (and last slot's timeouts) and sum the carried
        // backlog. After this, arena positions `0..live` are exactly
        // the live set in admission order.
        let carried = self.arena.compact();
        let active_now = self.arena.live() as u64;
        let layers = match self.degrade.as_mut() {
            // Closed loop: the previous slot's measured miss rate
            // feeds the PI law; without a PI block this is the
            // hysteresis `observe` path, bit for bit.
            Some(ctl) => ctl.observe_feedback(
                full_demand,
                capacity_now,
                carried,
                self.prev_misses,
                self.prev_active,
            ),
            None => template.max_layers,
        };
        self.report.base.mean_layers += layers.min(template.max_layers) as f64;

        let demand = template.demand_bits(layers);
        let enqueued = demand * self.arena.live() as u64;
        let mut backlog_after = 0u64;
        let mut served = 0u64;
        if self.arena.live() > 0 {
            // Enqueue this slot's demand into each playout buffer,
            // tracking the total so the uncontended shortcut below
            // can skip the sort.
            let mut total_backlog = 0u64;
            for b in &mut self.arena.backlogs {
                let want = *b + demand;
                let capped = want.min(self.buffer_bits);
                self.report.base.buffer_dropped_bits += want - capped;
                *b = capped;
                // Saturating: a saturated total can only exceed any
                // real link capacity, which routes to the sorted
                // (contended) path below.
                total_backlog = total_backlog.saturating_add(capped);
            }

            // Uncontended slot: max-min fair trivially grants every
            // session its whole backlog, so the apply pass reads the
            // grant straight from `backlogs` and the sort is skipped.
            // At the admission knee most slots land here (bit-identical
            // by construction — the water-fill loop yields grant =
            // backlog whenever the link covers the total).
            let contended = total_backlog > capacity_now;
            if contended {
                // Max-min fair water-filling: ascending backlog,
                // ties by id, so small sessions are satisfied first
                // and the slack flows to the backlogged ones.
                // Integer division truncation leaves at most `n`
                // bits per slot unallocated. `(backlog, id)` is a
                // total order (ids are unique among live sessions),
                // so the unstable sort is deterministic.
                let n = u32::try_from(self.arena.len()).expect("live set exceeds u32 positions");
                self.sorted.clear();
                self.sorted.extend(0..n);
                let arena = &self.arena;
                self.sorted
                    .sort_unstable_by_key(|&p| (arena.backlogs[p as usize], arena.ids[p as usize]));
                self.grants.resize(arena.len(), 0);
                let mut remaining = capacity_now;
                let mut left = u64::from(n);
                for &p in &self.sorted {
                    let share = remaining / left;
                    let grant = arena.backlogs[p as usize].min(share);
                    self.grants[p as usize] = grant;
                    remaining -= grant;
                    left -= 1;
                }
            }

            self.report.base.session_slots += self.arena.live() as u64;
            // Grants apply in admission order — the float
            // accumulation order the reference implementation pins.
            // Utility memo: `template.utility` is pure and most
            // sessions in a slot are delivered the same bit count, so
            // one cached `(bits, utility)` entry replaces nearly every
            // call while `utility_sum` still gets one addition per
            // session, in order.
            let (mut memo_bits, mut memo_utility) = (full_bits, template.utility(full_bits));
            for p in 0..self.arena.len() {
                let grant = if contended {
                    self.grants[p]
                } else {
                    self.arena.backlogs[p]
                };
                self.arena.backlogs[p] -= grant;
                served += grant;
                // In a corruption-burst slot, a fraction of the
                // transmitted bits is lost in flight: they leave the
                // buffer (the sender cannot tell) but never arrive.
                let corrupted = if corrupt_loss > 0.0 {
                    ((grant as f64 * corrupt_loss).round() as u64).min(grant)
                } else {
                    0
                };
                self.report.base.delivered_bits += grant - corrupted;
                self.report.lost_to_fault_bits += corrupted;
                if self.arena.backlogs[p] > self.miss_bits {
                    // Too far behind the deadline: the client skips
                    // ahead, stale bits are worthless.
                    self.report.base.deadline_misses += 1;
                    self.report.base.purged_bits += self.arena.backlogs[p] - self.miss_bits;
                    self.arena.backlogs[p] = self.miss_bits;
                    self.arena.misses[p] += 1;
                } else {
                    self.arena.misses[p] = 0;
                    let bits = (grant - corrupted).min(full_bits);
                    if bits != memo_bits {
                        memo_bits = bits;
                        memo_utility = template.utility(bits);
                    }
                    self.report.base.utility_sum += memo_utility;
                }
                backlog_after += self.arena.backlogs[p];
            }

            // 5. Playout-deadline timeout: a session that missed its
            //    deadline for a full timeout window aborts (the
            //    client gave up) and retries after backoff. The sweep
            //    walks admission order and marks victims dead in
            //    place; the next slot's compaction drops them.
            if let Some(rec) = self.recovery {
                for p in 0..self.arena.len() {
                    if self.arena.misses[p] < rec.timeout_miss_slots {
                        continue;
                    }
                    self.report.timed_out += 1;
                    backlog_after -= self.arena.backlogs[p];
                    self.report.lost_to_fault_bits += self.arena.backlogs[p];
                    let remaining = self.arena.depart_slots[p].saturating_sub(slot + 1);
                    self.retry(slot, self.arena.ids[p], self.arena.attempts[p], remaining);
                    self.arena.kill(p);
                }
            }

            self.report.base.measured_occupancy += backlog_after as f64 / full_bits as f64;
        }

        // 6. Stall detection + capacity re-estimation (recovery
        //    only): when the link is not keeping up, admission
        //    control re-plans against what was actually served; a
        //    zero estimate fails closed until service resumes.
        if let Some(rec) = self.recovery {
            if full_demand > 0 && served == 0 {
                self.stall_streak += 1;
                if self.stall_streak == rec.stall_window_slots {
                    self.report.stalls_detected += 1;
                }
            } else {
                self.stall_streak = 0;
            }
            let estimate = if backlog_after > 0 {
                served
            } else {
                self.nominal_bits
            };
            if estimate != self.admission.effective_capacity() {
                self.admission.set_effective_capacity(estimate);
                self.report.capacity_reestimates += 1;
            }
        }

        if let Some(s) = sink {
            s.record_slot(
                self.admission.admitted() - admitted_before,
                self.arena.live() as u64,
                backlog_after,
                layers.min(template.max_layers) as u64,
                self.report.base.deadline_misses - misses_before,
                self.report.base.utility_sum - utility_before,
                enqueued,
            );
        }

        self.prev_misses = self.report.base.deadline_misses - misses_before;
        self.prev_active = active_now;
        self.slot += 1;
        true
    }

    /// Admits session `id` at `slot` for `hold` slots of service as
    /// its `attempt`-th activation and schedules its departure.
    fn activate(&mut self, id: u64, slot: u64, hold: u64, attempt: u32) {
        let act = self.next_act;
        self.next_act += 1;
        // Saturating: a hostile `duration_slots` near `u64::MAX`
        // departs "never", not in the past.
        let depart_slot = slot.saturating_add(hold);
        self.arena.insert(id, act, depart_slot, attempt);
        self.queue.schedule(
            SimTime::from_ticks(depart_slot),
            ServerEvent::Depart { act },
        );
    }

    /// Schedules retry `attempt` of session `id` one backoff after
    /// `slot`, when recovery is on, the session has `remaining`
    /// service left and the retry budget is not spent.
    fn retry(&mut self, slot: u64, id: u64, attempt: u32, remaining: u64) {
        let Some(rec) = self.recovery else { return };
        if attempt < rec.max_retries && remaining > 0 {
            self.report.retries += 1;
            self.queue.schedule(
                SimTime::from_ticks(slot.saturating_add(rec.backoff_slots(attempt))),
                ServerEvent::Retry {
                    id,
                    attempt,
                    remaining,
                },
            );
        }
    }

    /// Steps every remaining slot to the horizon (the drain leg of a
    /// graceful shutdown: admitted sessions play out, late offers get
    /// their verdicts).
    pub fn drain(&mut self, mut sink: Option<&mut ServeMetricsSink>) {
        while self.step_slot(sink.as_deref_mut()) {}
    }

    /// Finalises the run and returns the report. Mean fields are
    /// normalised over the slots actually stepped (a full run steps
    /// exactly the horizon, matching the batch runners byte for byte).
    #[must_use]
    pub fn finish(mut self) -> FaultReport {
        self.report.base = ServerReport {
            offered: self.offered,
            admitted: self.admission.admitted(),
            rejected: self.admission.rejected(),
            slots: self.slot,
            ..self.report.base
        };
        if self.report.base.slots > 0 {
            self.report.base.predicted_occupancy /= self.report.base.slots as f64;
            self.report.base.measured_occupancy /= self.report.base.slots as f64;
            self.report.base.mean_layers /= self.report.base.slots as f64;
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::session::ServerSim;
    use crate::workload::{rate_for_load, ArrivalProcess, Workload};
    use crate::CapacityModel;
    use crate::RecoveryConfig;

    fn setup(load: f64, slots: u64, seed: u64) -> (ServerConfig, Workload) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 20 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(crate::DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
            .expect("valid");
        (cfg, workload)
    }

    /// The seam contract: injecting offers incrementally — interleaved
    /// with stepping, exactly as the socket driver and `ServerSim::run`
    /// do — must be bit-identical to injecting the whole trace before
    /// the first step. The overloaded 4000-slot input admits more
    /// sessions if lockstep arrivals are decided after the slot's
    /// departures instead of before them.
    #[test]
    fn incremental_injection_matches_batch_run() {
        for (load, slots, seed) in [(1.2, 400, 21), (2.5, 4000, 23)] {
            let (cfg, workload) = setup(load, slots, seed);
            let mut engine =
                ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
            for req in &workload.sessions {
                engine.offer(*req);
            }
            engine.drain(None);
            let batch = engine.finish();

            let mut engine =
                ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
            // Feed each offer only once the engine has stepped up to
            // (but not past) its arrival slot — the lockstep driver's
            // schedule.
            for req in &workload.sessions {
                while engine.slot() < req.arrival_slot {
                    assert!(engine.step_slot(None));
                }
                engine.offer(*req);
            }
            engine.drain(None);
            let incremental = engine.finish();
            assert_eq!(
                incremental, batch,
                "seam must not perturb the run at load {load}, seed {seed}"
            );
        }
    }

    /// The engine keeps only undecided offers. Fed slot by slot over a
    /// long overloaded run with crashes and retries, its queue never
    /// holds an offer stamped before `slot()` after a step, nor more
    /// than the busiest slot's batch before one, and the first-offer
    /// ledger balances at every step boundary.
    #[test]
    fn lockstep_queue_holds_only_undecided_offers() {
        use dms_sim::FaultSpec;

        let (cfg, workload) = setup(1.5, 3000, 31);
        let plan = FaultPlan::compile(
            &[FaultSpec::CrashBurst {
                slot: 1000,
                fraction: 0.3,
            }],
            3000,
            7,
        )
        .expect("valid plan");
        let offers = workload.arrival_order();
        let busiest = offers
            .chunk_by(|a, b| a.arrival_slot == b.arrival_slot)
            .map(<[_]>::len)
            .max()
            .expect("non-empty trace");
        assert!(busiest * 100 < offers.len(), "trace spans many slots");

        let mut engine = ServerEngine::with_faults(
            &cfg,
            workload.template,
            workload.slots,
            Some(&plan),
            Some(&RecoveryConfig::default()),
        )
        .expect("valid");
        let mut rest = &offers[..];
        while engine.slot() < engine.horizon() {
            let due = rest.partition_point(|r| r.arrival_slot <= engine.slot());
            for &req in &rest[..due] {
                engine.offer(req);
            }
            rest = &rest[due..];
            assert!(engine.pending.len() <= busiest, "slot {}", engine.slot());
            engine.step_slot(None);
            assert!(
                engine
                    .pending
                    .iter()
                    .all(|r| r.arrival_slot >= engine.slot()),
                "decided offer kept after slot {}",
                engine.slot() - 1
            );
            assert_eq!(
                engine.offered(),
                engine.admitted() + engine.rejected() + engine.undecided()
            );
        }
        let report = engine.finish();
        assert_eq!(report.base.offered, offers.len() as u64);
        assert!(report.crashed > 0 && report.readmitted > 0, "retries ran");
    }

    #[test]
    fn verdicts_ledger_matches_report() {
        let (cfg, workload) = setup(1.3, 300, 9);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        engine.record_verdicts(true);
        for req in &workload.sessions {
            engine.offer(*req);
        }
        let mut verdicts = Vec::new();
        while engine.step_slot(None) {
            engine.take_verdicts(&mut verdicts);
        }
        assert_eq!(engine.undecided(), 0, "horizon drains every offer");
        let admitted = verdicts.iter().filter(|(_, ok)| *ok).count() as u64;
        let rejected = verdicts.len() as u64 - admitted;
        let report = engine.finish();
        assert_eq!(verdicts.len() as u64, report.base.offered);
        assert_eq!(admitted, report.base.admitted);
        assert_eq!(rejected, report.base.rejected);
    }

    /// A late offer (slot already stepped) is not lost: it arrives at
    /// the next unstepped slot.
    #[test]
    fn late_offer_lands_on_the_next_slot() {
        let (cfg, workload) = setup(0.5, 100, 3);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        for _ in 0..10 {
            engine.step_slot(None);
        }
        engine.offer(crate::SessionRequest {
            id: 1,
            arrival_slot: 4, // stale stamp: slots 0..10 already ran
            duration_slots: 5,
        });
        engine.record_verdicts(true);
        let mut verdicts = Vec::new();
        engine.step_slot(None);
        engine.take_verdicts(&mut verdicts);
        assert_eq!(verdicts, vec![(1, true)], "late offer decided at slot 10");
    }

    /// An offer stamped before the previous offer is decided at the
    /// previous offer's slot, behind it: the queue stays slot-ordered.
    #[test]
    fn offer_stamped_before_the_previous_lands_on_its_slot() {
        let (cfg, workload) = setup(0.5, 100, 3);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        engine.record_verdicts(true);
        for (id, arrival_slot) in [(1, 6), (2, 2)] {
            engine.offer(crate::SessionRequest {
                id,
                arrival_slot,
                duration_slots: 5,
            });
        }
        let mut verdicts = Vec::new();
        for slot in 0..7 {
            engine.step_slot(None);
            engine.take_verdicts(&mut verdicts);
            let expected = if slot < 6 { 2 } else { 0 };
            assert_eq!(engine.undecided(), expected, "after slot {slot}");
        }
        assert_eq!(
            verdicts,
            vec![(1, true), (2, true)],
            "both decided at slot 6"
        );
    }

    /// A wire-reachable `duration_slots` of `u64::MAX` must neither
    /// overflow (a debug-build panic) nor wrap into a departure in the
    /// past (a release-build session that leaves at once): the
    /// departure saturates and the session plays out to the horizon.
    #[test]
    fn huge_duration_saturates_departure() {
        let (cfg, workload) = setup(0.5, 100, 3);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        engine.offer(crate::SessionRequest {
            id: 7,
            arrival_slot: 3,
            duration_slots: u64::MAX,
        });
        engine.drain(None);
        assert_eq!(
            engine.arena.live(),
            1,
            "session still active at the horizon"
        );
        let report = engine.finish();
        assert_eq!(report.base.admitted, 1);
        assert_eq!(report.base.session_slots, 97, "active in every slot 3..100");
    }

    /// A zero holding time is admitted and leaves before any service.
    #[test]
    fn zero_duration_departs_before_service() {
        let (cfg, workload) = setup(0.5, 100, 3);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        engine.offer(crate::SessionRequest {
            id: 7,
            arrival_slot: 3,
            duration_slots: 0,
        });
        engine.drain(None);
        let report = engine.finish();
        assert_eq!(report.base.admitted, 1);
        assert_eq!(report.base.session_slots, 0);
    }

    /// Overload plus a corruption burst: the water-fill is contended and
    /// delivered bits differ from session to session within a slot, so
    /// the grant path, the corruption path and the utility memo all see
    /// changing inputs. The arena engine must still match the seed
    /// reference exactly, field for field.
    #[test]
    fn contended_corrupted_slots_match_reference() {
        use crate::ReferenceServerSim;
        use dms_sim::FaultSpec;

        let (mut cfg, workload) = setup(1.6, 600, 11);
        cfg.policy = AdmissionPolicy::AdmitAll;
        cfg.degrade = None;
        let plan = FaultPlan::compile(
            &[
                FaultSpec::CorruptionBurst {
                    start_slot: 100,
                    duration_slots: 400,
                    p_good_to_bad: 0.3,
                    p_bad_to_good: 0.3,
                    loss_good: 0.05,
                    loss_bad: 0.4,
                },
                FaultSpec::CrashBurst {
                    slot: 300,
                    fraction: 0.2,
                },
            ],
            600,
            5,
        )
        .expect("valid plan");
        let recovery = RecoveryConfig::default();
        let mut fast_sink = ServeMetricsSink::with_capacity(600);
        let fast = ServerSim::new(cfg)
            .expect("valid")
            .run_faulted(&workload, &plan, Some(&recovery), Some(&mut fast_sink))
            .expect("runs");
        let mut oracle_sink = ServeMetricsSink::with_capacity(600);
        let oracle = ReferenceServerSim::new(cfg)
            .expect("valid")
            .run_faulted(&workload, &plan, Some(&recovery), Some(&mut oracle_sink))
            .expect("runs");

        assert!(fast.base.deadline_misses > 0, "contended path must run");
        assert!(fast.lost_to_fault_bits > 0, "corruption path must run");
        assert!(fast.crashed > 0 && fast.timed_out > 0);
        assert_eq!(fast, oracle);
        assert_eq!(
            fast.base.utility_sum.to_bits(),
            oracle.base.utility_sum.to_bits()
        );
        assert_eq!(fast_sink.active(), oracle_sink.active());
        assert_eq!(fast_sink.deadline_misses(), oracle_sink.deadline_misses());
    }
}
