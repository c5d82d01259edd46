//! The incremental fleet endpoint: the cluster's one dispatch loop.
//!
//! [`FleetEndpoint`] is the dispatch pass of
//! [`ClusterSim`](crate::ClusterSim) turned inside out: instead of
//! consuming a complete [`Workload`] in one sequential sweep, it
//! accepts offers one at a time in non-decreasing slot order —
//! `dms-net`'s socket driver feeds it frames, the batch
//! [`ClusterSim::dispatch`](crate::ClusterSim::dispatch) and
//! [`AdaptiveSim::dispatch`](crate::AdaptiveSim::dispatch) feed it a
//! sorted workload — and all of them produce the same routing because
//! they *are* the same code path. Retries and crash re-offers flow
//! through one timing wheel under a `(slot, arrival-order)` merge
//! discipline: the wheel drains same-slot offers in push order, a
//! dynamic offer strictly earlier than the next injected offer routes
//! first, and ties go to the injected offer (initial offers precede
//! dynamic ones at equal slots).
//!
//! The adaptive fleet (E17) is this endpoint plus a crate-private
//! control hook. The hook runs at every control boundary the offer
//! stream passes (occupancy sample, scale-up or drain, bandit window
//! close and arm switch) and counts the bandit's reward on every
//! routed offer. A drained shard's victims re-offer through the same
//! function as a crashed shard's. Without a hook — [`ClusterSim`],
//! the tier fleets, `dms-net` — the endpoint routes with its one
//! balancer and keeps the in-flight ledger only for shards that die.
//!
//! A graceful [`FleetEndpoint::shutdown`] drops the retries still in
//! backoff (counted as `drained`) and releases every reserved
//! admission bit exactly like crash harvesting releases a dead shard's
//! in-flight reservations — nothing leaks, and the conservation ledger
//! `dispatched + balancer_rejected + drained == offered + rerouted`
//! stays exact.
//!
//! [`ClusterSim`]: crate::ClusterSim

use dms_serve::{RecoveryConfig, ServeError, SessionRequest, SessionTemplate, Workload};
use dms_sim::{EventQueue, SimTime};

use crate::adaptive::ControlLoop;
use crate::balancer::{Balancer, Route, ShardState};
use crate::cluster::{ClusterConfig, DispatchReport, ShardFault};

/// One offer in the dispatch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Offer {
    slot: u64,
    id: u64,
    duration_slots: u64,
    attempt: u32,
}

/// Routing outcome of one processed offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetVerdict {
    /// Routed to this shard index.
    Dispatched {
        /// Receiving shard.
        shard: usize,
    },
    /// Refused by every live mirror; backing off to retry.
    Retrying {
        /// Slot of the scheduled re-attempt.
        next_slot: u64,
    },
    /// Refused with no retry budget left, expired past the horizon,
    /// or dropped by a shutdown while still in backoff.
    Rejected,
}

/// One entry of the endpoint's outcome stream (only recorded while
/// [`FleetEndpoint::record_outcomes`] is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferOutcome {
    /// Session id of the offer.
    pub id: u64,
    /// Slot the offer was processed at.
    pub slot: u64,
    /// What routing decided.
    pub verdict: FleetVerdict,
}

/// The incremental cluster dispatcher: offers in (non-decreasing slot
/// order), per-shard workloads and a routing ledger out.
#[derive(Debug)]
pub struct FleetEndpoint {
    slots: u64,
    full_bits: u64,
    template: SessionTemplate,
    recovery: RecoveryConfig,
    states: Vec<ShardState>,
    /// One balancer per policy the fleet may route with; only a
    /// control hook ever holds more than one.
    balancers: Vec<Balancer>,
    /// Index of the balancer routing now.
    active: usize,
    /// Shard deaths in slot order; each harvested for re-offers exactly
    /// once, when the offer stream passes its slot.
    deaths: Vec<(u64, usize)>,
    next_death: usize,
    /// Dynamic offers (retries, crash re-offers) keyed by retry slot.
    dynamic: EventQueue<Offer>,
    sessions: Vec<Vec<SessionRequest>>,
    /// Per shard: `(arrival, depart, id)` of the sessions routed there,
    /// kept only where a crash or a drain may need to re-offer them.
    in_flight: Vec<Vec<(u64, u64, u64)>>,
    report: DispatchReport,
    last_offer_slot: u64,
    outcomes: Option<Vec<OfferOutcome>>,
    /// The closed-loop control hook; `None` for a static fleet.
    control: Option<ControlLoop>,
    done: bool,
}

impl FleetEndpoint {
    /// Builds a fault-free endpoint over `config`'s fleet for `slots`
    /// slots of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterConfig::validate`] and template validation.
    pub fn new(
        config: &ClusterConfig,
        template: SessionTemplate,
        slots: u64,
    ) -> Result<Self, ServeError> {
        Self::with_faults(config, template, slots, &[], 64)
    }

    /// Builds an endpoint whose balancer routes around the shard
    /// deaths in `faults` (empty, or one entry per shard).
    /// `per_shard_hint` pre-sizes the per-shard ledgers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] on a fault-list length
    /// mismatch; propagates config/template validation.
    pub fn with_faults(
        config: &ClusterConfig,
        template: SessionTemplate,
        slots: u64,
        faults: &[ShardFault],
        per_shard_hint: usize,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        template.validate()?;
        if !faults.is_empty() && faults.len() != config.shards.len() {
            return Err(ServeError::InvalidParameter("faults"));
        }
        let full_bits = template.full_bits();
        let shard_count = config.shards.len();
        let states: Vec<ShardState> = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                ShardState::new(
                    cfg.capacity,
                    full_bits,
                    faults.get(i).and_then(|f| f.down_from),
                    per_shard_hint,
                )
            })
            .collect::<Result<_, _>>()?;
        let mut deaths: Vec<(u64, usize)> = faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.down_from.map(|d| (d, i)))
            .collect();
        deaths.sort_unstable();
        Ok(FleetEndpoint {
            slots,
            full_bits,
            template,
            recovery: config.recovery,
            states,
            balancers: vec![Balancer::new(config.balancer, config.seed)],
            active: 0,
            deaths,
            next_death: 0,
            dynamic: EventQueue::with_capacity(64),
            sessions: (0..shard_count)
                .map(|_| Vec::with_capacity(per_shard_hint))
                .collect(),
            in_flight: vec![Vec::new(); shard_count],
            report: DispatchReport {
                shard_sessions: vec![0; shard_count],
                ..DispatchReport::default()
            },
            last_offer_slot: 0,
            outcomes: None,
            control: None,
            done: false,
        })
    }

    /// Builds a fault-free endpoint steered by `control`: the hook
    /// parks its spare shards and supplies the balancer arms, all
    /// seeded with `config.seed`.
    pub(crate) fn with_control(
        config: &ClusterConfig,
        template: SessionTemplate,
        slots: u64,
        per_shard_hint: usize,
        control: ControlLoop,
    ) -> Result<Self, ServeError> {
        let mut endpoint = Self::with_faults(config, template, slots, &[], per_shard_hint)?;
        endpoint.balancers = control.install(&mut endpoint.states, config.seed);
        endpoint.control = Some(control);
        Ok(endpoint)
    }

    /// The simulation horizon in slots.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.slots
    }

    /// The routing ledger so far.
    #[must_use]
    pub fn report(&self) -> &DispatchReport {
        &self.report
    }

    /// Turns routing-outcome recording on or off (drained with
    /// [`FleetEndpoint::take_outcomes`]). A session that backs off and
    /// later routes produces several entries — the last one is final;
    /// crash re-offers re-report the same id.
    pub fn record_outcomes(&mut self, on: bool) {
        if on {
            if self.outcomes.is_none() {
                self.outcomes = Some(Vec::new());
            }
        } else {
            self.outcomes = None;
        }
    }

    /// Moves the outcomes recorded since the last call into `out`.
    pub fn take_outcomes(&mut self, out: &mut Vec<OfferOutcome>) {
        if let Some(o) = self.outcomes.as_mut() {
            out.append(o);
        }
    }

    /// Offers one session to the fleet. Offers must arrive in
    /// non-decreasing `slot` order — same-slot offers keep call order,
    /// exactly like the batch pass keeps workload order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] if `slot` goes
    /// backwards.
    pub fn offer(&mut self, id: u64, slot: u64, duration_slots: u64) -> Result<(), ServeError> {
        if self.done {
            return Err(ServeError::InvalidParameter("offer_after_shutdown"));
        }
        if slot < self.last_offer_slot {
            return Err(ServeError::InvalidParameter("offer_slot"));
        }
        self.last_offer_slot = slot;
        self.advance(Some(slot));
        self.report.offered += 1;
        self.route_one(Offer {
            slot,
            id,
            duration_slots,
            attempt: 0,
        });
        Ok(())
    }

    /// Runs the stream to completion — remaining deaths harvested,
    /// remaining retries resolved, a control hook's final partial
    /// window closed at the horizon — leaving only the
    /// [`FleetEndpoint::finish`] conversion. Split from `finish` so a
    /// caller recording outcomes can still
    /// [`FleetEndpoint::take_outcomes`] the end-of-stream resolutions.
    pub fn drain_pending(&mut self) {
        self.advance(None);
        if self.control.as_ref().is_some_and(ControlLoop::window_open) {
            self.control_step(self.slots, false);
        }
        self.done = true;
    }

    /// Returns the per-shard workloads plus the ledger. The batch
    /// [`ClusterSim::dispatch`](crate::ClusterSim::dispatch) is
    /// exactly `offer()` over a sorted workload followed by this.
    /// Implies [`FleetEndpoint::drain_pending`] unless a shutdown
    /// already ended the stream.
    #[must_use]
    pub fn finish(self) -> (Vec<Workload>, DispatchReport) {
        let (workloads, report, _) = self.finish_with_control();
        (workloads, report)
    }

    /// [`FleetEndpoint::finish`] that also hands back the control hook
    /// (and with it the control-plane trace).
    pub(crate) fn finish_with_control(
        mut self,
    ) -> (Vec<Workload>, DispatchReport, Option<ControlLoop>) {
        if !self.done {
            self.drain_pending();
        }
        let template = self.template;
        let slots = self.slots;
        let workloads = self
            .sessions
            .into_iter()
            .map(|s| Workload {
                sessions: s,
                template,
                slots,
            })
            .collect();
        (workloads, self.report, self.control)
    }

    /// Gracefully shuts the endpoint down at `slot`: dynamic offers
    /// due before `slot` still route, retries left in backoff are
    /// dropped as `drained` (with a [`FleetVerdict::Rejected`]
    /// outcome), and every reserved admission bit is released exactly
    /// like crash harvesting releases a dead shard's in-flight
    /// reservations. On return the conservation ledger
    /// `dispatched + balancer_rejected + drained == offered + rerouted`
    /// holds exactly (debug-asserted here, re-checked by the net
    /// driver). Call [`FleetEndpoint::finish`] afterwards for the
    /// workloads.
    pub fn shutdown(&mut self, slot: u64) {
        self.advance(Some(slot));
        self.done = true;
        // Harvest deaths at or before the shutdown edge so their
        // victims are accounted (as rerouted-then-drained) rather than
        // silently vanishing with the endpoint.
        while let Some(&(death_slot, _)) = self.deaths.get(self.next_death) {
            if death_slot > slot {
                break;
            }
            self.harvest_death();
        }
        while let Some(ev) = self.dynamic.pop() {
            self.report.drained += 1;
            let offer = ev.payload;
            if let Some(o) = self.outcomes.as_mut() {
                o.push(OfferOutcome {
                    id: offer.id,
                    slot,
                    verdict: FleetVerdict::Rejected,
                });
            }
        }
        let mut still_reserved = 0u64;
        for state in &mut self.states {
            still_reserved += state.release_all();
        }
        debug_assert!(
            still_reserved.is_multiple_of(self.full_bits),
            "reservations are whole frames"
        );
        debug_assert_eq!(
            self.report.dispatched + self.report.balancer_rejected + self.report.drained,
            self.report.offered + self.report.rerouted,
            "shutdown conservation"
        );
    }

    /// Processes deaths, control boundaries and dynamic offers that
    /// must precede the next injected offer (`upcoming = Some(slot)`)
    /// or the end of the stream (`None`). The merge discipline is the
    /// batch pass's: a death is harvested and a control boundary
    /// closed once no offer before its slot remains, a dynamic offer
    /// routes only while strictly earlier than the next injected one.
    fn advance(&mut self, upcoming: Option<u64>) {
        loop {
            let dynamic_slot = self.dynamic.peek_time().map(SimTime::ticks);
            let next_slot = upcoming.into_iter().chain(dynamic_slot).min();
            if let Some(&(death_slot, _)) = self.deaths.get(self.next_death) {
                if next_slot.is_none_or(|s| s >= death_slot) {
                    self.harvest_death();
                    continue;
                }
            }
            if let Some(b) = self
                .control
                .as_mut()
                .and_then(|c| c.take_boundary(next_slot, self.slots))
            {
                self.control_step(b, true);
                continue;
            }
            if dynamic_slot.is_none_or(|t| upcoming.is_some_and(|u| t >= u)) {
                break;
            }
            let offer = self.dynamic.pop().expect("peeked non-empty").payload;
            self.route_one(offer);
        }
    }

    /// Harvests the next shard death.
    fn harvest_death(&mut self) {
        let (death_slot, shard) = self.deaths[self.next_death];
        self.next_death += 1;
        self.reoffer_victims(shard, death_slot);
    }

    /// Runs the control hook's boundary step at `b`, re-offering the
    /// victims of a shard it drains.
    fn control_step(&mut self, b: u64, scale: bool) {
        let Some(control) = self.control.as_mut() else {
            return;
        };
        if let Some(drained) = control.close_window(b, scale, &mut self.states, &mut self.active) {
            self.reoffer_victims(drained, b);
        }
    }

    /// Re-offers the sessions in flight on `shard` across `edge` (its
    /// crash or drain slot) to the survivors after the first backoff
    /// delay, with their remaining playout — the cross-shard leg of
    /// the retry path. A victim is active at the edge like in the
    /// in-shard crash burst: arrived before it, with playout left
    /// past it.
    fn reoffer_victims(&mut self, shard: usize, edge: u64) {
        let slot = edge + self.recovery.backoff_slots(0);
        for &(arrival, depart, id) in &self.in_flight[shard] {
            if arrival < edge && depart > edge {
                self.report.rerouted += 1;
                self.dynamic.schedule(
                    SimTime::from_ticks(slot),
                    Offer {
                        slot,
                        id,
                        duration_slots: depart - edge,
                        attempt: 1,
                    },
                );
            }
        }
        self.in_flight[shard].clear();
    }

    /// Routes one offer — the batch pass's loop body.
    fn route_one(&mut self, offer: Offer) {
        if offer.slot >= self.slots || offer.duration_slots == 0 {
            // Backed off past the end of the run (or nothing left to
            // play): an expired offer is a rejection, never a session
            // the shards saw — keeps `admitted + rejected == offered`
            // exact at the cluster level.
            self.report.balancer_rejected += 1;
            self.push_outcome(&offer, FleetVerdict::Rejected);
            return;
        }
        for state in &mut self.states {
            state.release_until(offer.slot);
        }
        let route = self.balancers[self.active].route(&mut self.states, offer.slot, self.full_bits);
        if let Some(control) = self.control.as_mut() {
            // Dispatch-time reward oracle: would the receiving shard's
            // mirror have admitted this session? For jsq/p2c the route
            // already implies yes; for the oblivious rr this is
            // exactly where overload shows.
            let good =
                matches!(route, Route::To(shard) if self.states[shard].would_admit(self.full_bits));
            control.record_offer(good);
        }
        match route {
            Route::To(shard) => {
                // Saturating: a wire-supplied duration must not wrap
                // into a departure in the past.
                let depart = offer.slot.saturating_add(offer.duration_slots);
                self.states[shard].reserve(depart, self.full_bits);
                self.sessions[shard].push(SessionRequest {
                    id: offer.id,
                    arrival_slot: offer.slot,
                    duration_slots: offer.duration_slots,
                });
                self.report.shard_sessions[shard] += 1;
                self.report.dispatched += 1;
                if self.control.is_some() || self.states[shard].dies() {
                    self.in_flight[shard].push((offer.slot, depart, offer.id));
                }
                self.push_outcome(&offer, FleetVerdict::Dispatched { shard });
            }
            Route::Refused => {
                if offer.attempt < self.recovery.max_retries {
                    self.report.retries += 1;
                    let slot = offer.slot + self.recovery.backoff_slots(offer.attempt);
                    self.dynamic.schedule(
                        SimTime::from_ticks(slot),
                        Offer {
                            slot,
                            attempt: offer.attempt + 1,
                            ..offer
                        },
                    );
                    self.push_outcome(&offer, FleetVerdict::Retrying { next_slot: slot });
                } else {
                    self.report.balancer_rejected += 1;
                    self.push_outcome(&offer, FleetVerdict::Rejected);
                }
            }
        }
    }

    fn push_outcome(&mut self, offer: &Offer, verdict: FleetVerdict) {
        if let Some(o) = self.outcomes.as_mut() {
            o.push(OfferOutcome {
                id: offer.id,
                slot: offer.slot,
                verdict,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerPolicy;
    use crate::cluster::ClusterSim;
    use dms_serve::{
        rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, ServerConfig,
    };
    use dms_sim::FaultPlan;

    fn shard_config(sessions: u64, template: &SessionTemplate) -> ServerConfig {
        ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: sessions * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::AdmitAll,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        }
    }

    fn workload(load: f64, capacity_sessions: u64, slots: u64, seed: u64) -> Workload {
        let mut template = SessionTemplate::streaming_default().expect("preset valid");
        template.mean_duration_slots = 40.0;
        let rate = rate_for_load(load, &template, capacity_sessions * template.full_bits());
        Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
            .expect("valid workload")
    }

    fn config(shards: Vec<ServerConfig>, balancer: BalancerPolicy) -> ClusterConfig {
        ClusterConfig {
            shards,
            balancer,
            recovery: RecoveryConfig::default(),
            seed: 99,
        }
    }

    /// The seam contract, cluster edition: incremental offers through
    /// the endpoint must reproduce the batch dispatch bit for bit —
    /// including under shard deaths and every balancer policy.
    #[test]
    fn endpoint_matches_batch_dispatch() {
        let wl = workload(1.3, 200, 120, 42);
        let template = wl.template;
        let faults = [
            ShardFault::default(),
            ShardFault {
                plan: FaultPlan::none(120),
                down_from: Some(60),
            },
        ];
        for balancer in [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::PowerOfTwoChoices,
        ] {
            for fault_arm in [&[][..], &faults[..]] {
                let cfg = config(
                    vec![shard_config(150, &template), shard_config(50, &template)],
                    balancer,
                );
                let sim = ClusterSim::new(cfg.clone()).expect("valid");
                let (batch_wls, batch_report) =
                    sim.dispatch(&wl, fault_arm).expect("dispatch runs");

                let mut ep = FleetEndpoint::with_faults(&cfg, template, wl.slots, fault_arm, 64)
                    .expect("valid");
                for s in wl.arrival_order().iter() {
                    ep.offer(s.id, s.arrival_slot, s.duration_slots)
                        .expect("sorted offers");
                }
                let (ep_wls, ep_report) = ep.finish();
                assert_eq!(ep_report, batch_report, "{balancer:?}");
                assert_eq!(ep_wls.len(), batch_wls.len());
                for (a, b) in ep_wls.iter().zip(&batch_wls) {
                    assert_eq!(a.sessions, b.sessions, "{balancer:?}");
                }
            }
        }
    }

    #[test]
    fn offers_must_not_go_backwards() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = config(
            vec![shard_config(100, &template)],
            BalancerPolicy::RoundRobin,
        );
        let mut ep = FleetEndpoint::new(&cfg, template, 100).expect("valid");
        ep.offer(1, 10, 5).expect("in order");
        assert_eq!(
            ep.offer(2, 9, 5).unwrap_err(),
            ServeError::InvalidParameter("offer_slot")
        );
    }

    /// Shutdown releases every reserved admission bit (like crash
    /// harvesting) and the drained ledger balances exactly.
    #[test]
    fn shutdown_releases_reservations_and_conserves() {
        let wl = workload(1.5, 80, 200, 7);
        let template = wl.template;
        // A small saturated fleet so refusals (and thus in-backoff
        // retries at the shutdown edge) actually occur.
        let cfg = config(
            vec![shard_config(40, &template), shard_config(40, &template)],
            BalancerPolicy::JoinShortestQueue,
        );
        let mut ep = FleetEndpoint::with_faults(&cfg, template, wl.slots, &[], 64).expect("valid");
        let mut fed = 0u64;
        for s in wl.arrival_order().iter() {
            if s.arrival_slot >= 100 {
                break;
            }
            ep.offer(s.id, s.arrival_slot, s.duration_slots)
                .expect("sorted offers");
            fed += 1;
        }
        ep.shutdown(100);
        let (_, report) = ep.finish();
        assert_eq!(report.offered, fed);
        assert!(report.drained > 0, "a 1.5x-load fleet has retries pending");
        assert_eq!(
            report.dispatched + report.balancer_rejected + report.drained,
            report.offered + report.rerouted,
            "shutdown conservation ledger"
        );
    }

    /// A wire-supplied `duration_slots` of `u64::MAX` must neither
    /// overflow nor wrap into a departure in the past: the session
    /// holds its reservation, is re-offered when its shard crashes,
    /// and the ledger closes.
    #[test]
    fn huge_duration_saturates_departure() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = config(
            vec![shard_config(100, &template), shard_config(100, &template)],
            BalancerPolicy::RoundRobin,
        );
        let faults = [
            ShardFault {
                plan: FaultPlan::none(100),
                down_from: Some(20),
            },
            ShardFault::default(),
        ];
        let mut ep = FleetEndpoint::with_faults(&cfg, template, 100, &faults, 8).expect("valid");
        ep.offer(1, 5, u64::MAX).expect("in order"); // round-robin: shard 0
        ep.offer(2, 50, 1).expect("in order");
        // Shard 0 died at slot 20; session 1 moved to shard 1 and
        // still holds its reservation next to session 2's.
        assert_eq!(ep.states[1].reserved_bits(), 2 * template.full_bits());
        ep.shutdown(60);
        let (wls, report) = ep.finish();
        assert_eq!(report.rerouted, 1);
        assert_eq!(
            report.dispatched + report.balancer_rejected + report.drained,
            report.offered + report.rerouted,
            "ledger closes"
        );
        assert_eq!(wls[1].sessions[0].id, 1);
        assert_eq!(wls[1].sessions[0].duration_slots, u64::MAX - 20);
    }

    #[test]
    fn outcome_stream_covers_every_offer() {
        let wl = workload(1.4, 60, 150, 11);
        let template = wl.template;
        let cfg = config(
            vec![shard_config(30, &template), shard_config(30, &template)],
            BalancerPolicy::JoinShortestQueue,
        );
        let mut ep = FleetEndpoint::new(&cfg, template, wl.slots).expect("valid");
        ep.record_outcomes(true);
        let mut outcomes = Vec::new();
        for s in wl.arrival_order().iter() {
            ep.offer(s.id, s.arrival_slot, s.duration_slots)
                .expect("sorted offers");
            ep.take_outcomes(&mut outcomes);
        }
        ep.drain_pending();
        ep.take_outcomes(&mut outcomes);
        let (_, report) = ep.finish();
        let dispatched = outcomes
            .iter()
            .filter(|o| matches!(o.verdict, FleetVerdict::Dispatched { .. }))
            .count() as u64;
        let rejected = outcomes
            .iter()
            .filter(|o| o.verdict == FleetVerdict::Rejected)
            .count() as u64;
        let retrying = outcomes
            .iter()
            .filter(|o| matches!(o.verdict, FleetVerdict::Retrying { .. }))
            .count() as u64;
        assert_eq!(dispatched, report.dispatched);
        assert_eq!(rejected, report.balancer_rejected);
        assert_eq!(retrying, report.retries);
    }
}
