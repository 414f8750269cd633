//! The fault plan: a seeded description of every fault a simulated run
//! will experience.

use crate::rng::{splitmix64, unit_f64, PlanRng};

/// Draw-stream separators: each decision family hashes from a disjoint
/// stream so message-loss draws never correlate with failover draws.
const STREAM_MESSAGE_LOSS: u64 = 0x4D45_5353_4C4F_5353; // "MESSLOSS"
const STREAM_DRAW_BASE: u64 = 0x4652_4545_4452_5721; // generic keyed draws

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Machine `machine` crashes at simulated time `at_ns`, losing its
    /// queue and in-flight work. With `recovery_ns = Some(d)` it comes
    /// back (empty-queued) at `at_ns + d`; `None` is permanent.
    Crash {
        /// Crashed machine index.
        machine: u32,
        /// Simulated crash time, nanoseconds.
        at_ns: u64,
        /// Downtime before the machine rejoins; `None` = permanent.
        recovery_ns: Option<u64>,
    },
    /// Machine `machine` serves requests `slowdown`× slower during
    /// `[from_ns, until_ns)`.
    Straggler {
        /// Slowed machine index.
        machine: u32,
        /// Window start, nanoseconds.
        from_ns: u64,
        /// Window end (exclusive), nanoseconds.
        until_ns: u64,
        /// Service-time multiplier, ≥ 1.
        slowdown: f64,
    },
    /// A cluster-membership change: the cluster's working
    /// set of machines grows, shrinks, or loses-then-regains a member.
    /// Unlike [`FaultEvent::Crash`], a membership event obliges the
    /// system to *rebalance* — the simulators charge a bounded-movement
    /// migration and run degraded until it completes.
    Membership {
        /// Affected machine index.
        machine: u32,
        /// Simulated time of the membership change, nanoseconds.
        at_ns: u64,
        /// What kind of change this is.
        kind: MembershipKind,
        /// Downtime before a [`MembershipKind::CrashRejoin`] machine
        /// rejoins; must be `Some(> 0)` for that kind and `None` for
        /// the others.
        rejoin_ns: Option<u64>,
    },
}

/// The three membership-change shapes of [`FaultEvent::Membership`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipKind {
    /// The machine joins the cluster at `at_ns` (it is *down* — not yet
    /// a member — before then).
    ScaleOut,
    /// The machine leaves the cluster permanently at `at_ns`.
    ScaleIn,
    /// The machine crashes at `at_ns` and rejoins, state intact but
    /// stale, after `rejoin_ns` of downtime.
    CrashRejoin,
}

impl FaultEvent {
    fn machine(&self) -> u32 {
        match *self {
            FaultEvent::Crash { machine, .. }
            | FaultEvent::Straggler { machine, .. }
            | FaultEvent::Membership { machine, .. } => machine,
        }
    }

    fn start_ns(&self) -> u64 {
        match *self {
            FaultEvent::Crash { at_ns, .. } | FaultEvent::Membership { at_ns, .. } => at_ns,
            FaultEvent::Straggler { from_ns, .. } => from_ns,
        }
    }
}

/// A plan is invalid: the variant says why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan targets a machine index ≥ the declared cluster size.
    MachineOutOfRange {
        /// Offending machine index.
        machine: u32,
        /// Declared cluster size.
        machines: usize,
    },
    /// A straggler window is empty or its slowdown is < 1 / non-finite.
    BadStragglerWindow,
    /// `message_loss` is outside `[0, 1]` or non-finite.
    BadLossProbability,
    /// The plan declares a zero-machine cluster.
    NoMachines,
    /// A membership event is malformed: a crash-then-rejoin without a
    /// positive downtime, or a scale-out/scale-in carrying one.
    BadMembershipEvent,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MachineOutOfRange { machine, machines } => {
                write!(f, "fault targets machine {machine} but the plan covers {machines}")
            }
            PlanError::BadStragglerWindow => {
                write!(f, "straggler window must be non-empty with finite slowdown >= 1")
            }
            PlanError::BadLossProbability => {
                write!(f, "message-loss probability must be a finite value in [0, 1]")
            }
            PlanError::NoMachines => write!(f, "plan covers zero machines"),
            PlanError::BadMembershipEvent => {
                write!(
                    f,
                    "membership event malformed: crash-then-rejoin needs a positive downtime, \
                     scale-out/scale-in must not carry one"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A seeded fault plan for a `machines`-node cluster.
///
/// Construct with [`FaultPlan::healthy`] and the `with_*` builders, or
/// generate a randomized plan from a seed with [`FaultPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every runtime draw (message loss, failover) and
    /// generated event flows.
    pub seed: u64,
    /// Cluster size the plan covers.
    pub machines: usize,
    /// Drop probability per cross-machine message, in `[0, 1]`.
    pub message_loss: f64,
    /// Scheduled faults, sorted by (start time, machine).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the baseline both simulators reduce to).
    pub fn healthy(machines: usize, seed: u64) -> Self {
        FaultPlan { seed, machines, message_loss: 0.0, events: Vec::new() }
    }

    /// Adds a permanent crash of `machine` at `at_ns`.
    pub fn with_crash(mut self, machine: u32, at_ns: u64) -> Self {
        self.events.push(FaultEvent::Crash { machine, at_ns, recovery_ns: None });
        self.sort_events();
        self
    }

    /// Adds a crash of `machine` at `at_ns` that recovers after
    /// `recovery_ns` of downtime.
    pub fn with_recovering_crash(mut self, machine: u32, at_ns: u64, recovery_ns: u64) -> Self {
        self.events.push(FaultEvent::Crash { machine, at_ns, recovery_ns: Some(recovery_ns) });
        self.sort_events();
        self
    }

    /// Adds a straggler window on `machine`.
    pub fn with_straggler(
        mut self,
        machine: u32,
        from_ns: u64,
        until_ns: u64,
        slowdown: f64,
    ) -> Self {
        self.events.push(FaultEvent::Straggler { machine, from_ns, until_ns, slowdown });
        self.sort_events();
        self
    }

    /// Sets the per-message drop probability for cross-machine traffic.
    pub fn with_message_loss(mut self, probability: f64) -> Self {
        self.message_loss = probability;
        self
    }

    /// Adds a scale-out: `machine` joins the cluster at `at_ns` (before
    /// then it is not a member and serves nothing).
    pub fn with_scale_out(mut self, machine: u32, at_ns: u64) -> Self {
        self.events.push(FaultEvent::Membership {
            machine,
            at_ns,
            kind: MembershipKind::ScaleOut,
            rejoin_ns: None,
        });
        self.sort_events();
        self
    }

    /// Adds a scale-in: `machine` leaves the cluster permanently at
    /// `at_ns`, and its data must migrate to the survivors.
    pub fn with_scale_in(mut self, machine: u32, at_ns: u64) -> Self {
        self.events.push(FaultEvent::Membership {
            machine,
            at_ns,
            kind: MembershipKind::ScaleIn,
            rejoin_ns: None,
        });
        self.sort_events();
        self
    }

    /// Adds a crash-then-rejoin: `machine` crashes at `at_ns` and
    /// rejoins, stale, after `rejoin_ns > 0` of downtime.
    pub fn with_crash_rejoin(mut self, machine: u32, at_ns: u64, rejoin_ns: u64) -> Self {
        self.events.push(FaultEvent::Membership {
            machine,
            at_ns,
            kind: MembershipKind::CrashRejoin,
            rejoin_ns: Some(rejoin_ns),
        });
        self.sort_events();
        self
    }

    fn sort_events(&mut self) {
        self.events.sort_by_key(|e| (e.start_ns(), e.machine()));
    }

    /// Generates a randomized plan: `cfg.crashes` distinct victims with
    /// seeded crash times, `cfg.stragglers` distinct slowed machines,
    /// and `cfg.message_loss`. Deterministic in `(cfg, machines, seed)`.
    pub fn generate(cfg: &FaultPlanConfig, machines: usize, seed: u64) -> Self {
        let mut rng = PlanRng::new(seed);
        let mut plan = FaultPlan::healthy(machines, seed).with_message_loss(cfg.message_loss);
        let mut victims: Vec<u32> = Vec::new();
        let wanted = cfg.crashes.min(machines.saturating_sub(1));
        while victims.len() < wanted {
            let m = rng.range_u64(0, machines as u64) as u32;
            if !victims.contains(&m) {
                victims.push(m);
            }
        }
        for &m in &victims {
            let at = rng.range_u64(cfg.crash_window_ns.0, cfg.crash_window_ns.1);
            let recovery = if rng.unit() < cfg.permanent_fraction {
                None
            } else {
                Some(rng.range_u64(cfg.recovery_window_ns.0, cfg.recovery_window_ns.1))
            };
            plan.events.push(FaultEvent::Crash { machine: m, at_ns: at, recovery_ns: recovery });
        }
        let mut slowed: Vec<u32> = Vec::new();
        let wanted = cfg.stragglers.min(machines.saturating_sub(victims.len()));
        while slowed.len() < wanted {
            let m = rng.range_u64(0, machines as u64) as u32;
            if !victims.contains(&m) && !slowed.contains(&m) {
                slowed.push(m);
            }
        }
        for &m in &slowed {
            let from = rng.range_u64(cfg.crash_window_ns.0, cfg.crash_window_ns.1);
            let span = cfg.straggler_duration_ns.max(1);
            let slowdown = cfg.slowdown_range.0
                + rng.unit() * (cfg.slowdown_range.1 - cfg.slowdown_range.0).max(0.0);
            plan.events.push(FaultEvent::Straggler {
                machine: m,
                from_ns: from,
                until_ns: from.saturating_add(span),
                slowdown: slowdown.max(1.0),
            });
        }
        // Membership draws come last so a `memberships = 0` config
        // reproduces the exact v1 draw stream for crashes/stragglers.
        let mut members: Vec<u32> = Vec::new();
        let wanted = cfg.memberships.min(machines.saturating_sub(victims.len() + 1));
        while members.len() < wanted {
            let m = rng.range_u64(0, machines as u64) as u32;
            if !victims.contains(&m) && !members.contains(&m) {
                members.push(m);
            }
        }
        for &m in &members {
            let at = rng.range_u64(cfg.crash_window_ns.0, cfg.crash_window_ns.1);
            let (kind, rejoin) = match rng.range_u64(0, 3) {
                0 => (MembershipKind::ScaleOut, None),
                1 => (MembershipKind::ScaleIn, None),
                _ => (
                    MembershipKind::CrashRejoin,
                    Some(rng.range_u64(cfg.recovery_window_ns.0, cfg.recovery_window_ns.1).max(1)),
                ),
            };
            plan.events.push(FaultEvent::Membership {
                machine: m,
                at_ns: at,
                kind,
                rejoin_ns: rejoin,
            });
        }
        plan.sort_events();
        plan
    }

    /// Checks internal consistency; both simulators call this before
    /// running.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.machines == 0 {
            return Err(PlanError::NoMachines);
        }
        if !self.message_loss.is_finite() || !(0.0..=1.0).contains(&self.message_loss) {
            return Err(PlanError::BadLossProbability);
        }
        for e in &self.events {
            if e.machine() as usize >= self.machines {
                return Err(PlanError::MachineOutOfRange {
                    machine: e.machine(),
                    machines: self.machines,
                });
            }
            if let FaultEvent::Straggler { from_ns, until_ns, slowdown, .. } = *e {
                if until_ns <= from_ns || !slowdown.is_finite() || slowdown < 1.0 {
                    return Err(PlanError::BadStragglerWindow);
                }
            }
            if let FaultEvent::Membership { kind, rejoin_ns, .. } = *e {
                let ok = match kind {
                    MembershipKind::CrashRejoin => matches!(rejoin_ns, Some(d) if d > 0),
                    MembershipKind::ScaleOut | MembershipKind::ScaleIn => rejoin_ns.is_none(),
                };
                if !ok {
                    return Err(PlanError::BadMembershipEvent);
                }
            }
        }
        Ok(())
    }

    /// Is `machine` up (a live cluster member) at simulated time `t_ns`?
    pub(crate) fn is_up(&self, machine: u32, t_ns: u64) -> bool {
        for e in &self.events {
            match *e {
                FaultEvent::Crash { machine: m, at_ns, recovery_ns }
                    if m == machine && t_ns >= at_ns =>
                {
                    match recovery_ns {
                        None => return false,
                        Some(d) => {
                            if t_ns < at_ns.saturating_add(d) {
                                return false;
                            }
                        }
                    }
                }
                FaultEvent::Membership { machine: m, at_ns, kind, rejoin_ns } if m == machine => {
                    match kind {
                        // Not a member until it joins.
                        MembershipKind::ScaleOut => {
                            if t_ns < at_ns {
                                return false;
                            }
                        }
                        // Gone for good once it leaves.
                        MembershipKind::ScaleIn => {
                            if t_ns >= at_ns {
                                return false;
                            }
                        }
                        MembershipKind::CrashRejoin => {
                            let d = rejoin_ns.unwrap_or(0);
                            if t_ns >= at_ns && t_ns < at_ns.saturating_add(d) {
                                return false;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Service-time multiplier of `machine` at `t_ns` (product of all
    /// active straggler windows; 1.0 when healthy).
    pub fn slowdown(&self, machine: u32, t_ns: u64) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultEvent::Straggler { machine: m, from_ns, until_ns, slowdown } = *e {
                if m == machine && (from_ns..until_ns).contains(&t_ns) {
                    factor *= slowdown;
                }
            }
        }
        factor
    }

    /// True when every machine is permanently dead from t = 0 — the
    /// degenerate plan the DES rejects with a typed error.
    pub fn all_machines_dead_from_start(&self) -> bool {
        self.machines > 0 && (0..self.machines as u32).all(|m| !self.is_up(m, 0) && {
            // Dead at t=0 *and* never recovering.
            self.events.iter().any(|e| {
                matches!(*e, FaultEvent::Crash { machine, at_ns: 0, recovery_ns: None } if machine == m)
                    || matches!(*e, FaultEvent::Membership { machine, at_ns: 0, kind: MembershipKind::ScaleIn, .. } if machine == m)
            })
        })
    }

    /// Seeded per-message drop decision: message `msg_id` (a monotonic
    /// cross-machine send counter) is dropped with probability
    /// [`FaultPlan::message_loss`]. Pure in `(seed, msg_id)`.
    pub fn drop_message(&self, msg_id: u64) -> bool {
        if self.message_loss <= 0.0 {
            return false;
        }
        unit_f64(splitmix64(self.seed ^ STREAM_MESSAGE_LOSS ^ splitmix64(msg_id)))
            < self.message_loss
    }

    /// A generic keyed uniform draw in `[0, 1)` — used by the DES for
    /// mirror-failover decisions. Pure in `(seed, key)`.
    pub fn unit_draw(&self, key: u64) -> f64 {
        unit_f64(splitmix64(self.seed ^ STREAM_DRAW_BASE ^ splitmix64(key)))
    }
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanConfig {
    /// Number of distinct crash victims (capped at `machines - 1` so a
    /// generated plan never kills the whole cluster).
    pub crashes: usize,
    /// Probability a generated crash is permanent (vs recovering).
    pub permanent_fraction: f64,
    /// Crash/straggler start times are drawn from this window, ns.
    pub crash_window_ns: (u64, u64),
    /// Recovery downtimes are drawn from this window, ns.
    pub recovery_window_ns: (u64, u64),
    /// Number of distinct straggler machines (disjoint from victims).
    pub stragglers: usize,
    /// Straggler slowdown factor range (values < 1 are clamped to 1).
    pub slowdown_range: (f64, f64),
    /// Length of each straggler window, ns.
    pub straggler_duration_ns: u64,
    /// Per-message drop probability for cross-machine traffic.
    pub message_loss: f64,
    /// Number of membership events to draw (kinds drawn uniformly;
    /// machines disjoint from crash victims so a generated plan never
    /// strands the cluster). `0` reproduces the v1 draw stream exactly.
    pub memberships: usize,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            crashes: 1,
            permanent_fraction: 0.5,
            crash_window_ns: (1_000_000, 10_000_000),
            recovery_window_ns: (5_000_000, 20_000_000),
            stragglers: 1,
            slowdown_range: (1.5, 4.0),
            straggler_duration_ns: 50_000_000,
            message_loss: 0.005,
            memberships: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many membership events the plan schedules.
    fn membership_events(plan: &FaultPlan) -> usize {
        plan.events.iter().filter(|e| matches!(e, FaultEvent::Membership { .. })).count()
    }

    #[test]
    fn healthy_plan_validates_and_is_quiet() {
        let p = FaultPlan::healthy(4, 1);
        assert!(p.validate().is_ok());
        assert!(p.is_up(0, 0) && p.is_up(3, u64::MAX));
        assert_eq!(p.slowdown(0, 0), 1.0);
        assert!(!p.drop_message(0));
        assert!(!p.all_machines_dead_from_start());
    }

    #[test]
    fn crash_windows_respect_recovery() {
        let p = FaultPlan::healthy(2, 1).with_recovering_crash(1, 100, 50);
        assert!(p.is_up(1, 99));
        assert!(!p.is_up(1, 100));
        assert!(!p.is_up(1, 149));
        assert!(p.is_up(1, 150));
        let p = FaultPlan::healthy(2, 1).with_crash(0, 10);
        assert!(!p.is_up(0, u64::MAX));
    }

    #[test]
    fn straggler_windows_multiply() {
        let p =
            FaultPlan::healthy(2, 1).with_straggler(0, 0, 100, 2.0).with_straggler(0, 50, 150, 3.0);
        assert_eq!(p.slowdown(0, 10), 2.0);
        assert_eq!(p.slowdown(0, 60), 6.0);
        assert_eq!(p.slowdown(0, 120), 3.0);
        assert_eq!(p.slowdown(0, 150), 1.0);
        assert_eq!(p.slowdown(1, 60), 1.0);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert_eq!(FaultPlan::healthy(0, 1).validate(), Err(PlanError::NoMachines));
        let out = FaultPlan::healthy(2, 1).with_crash(2, 0);
        assert!(matches!(out.validate(), Err(PlanError::MachineOutOfRange { .. })));
        let loss = FaultPlan::healthy(2, 1).with_message_loss(1.5);
        assert_eq!(loss.validate(), Err(PlanError::BadLossProbability));
        let bad = FaultPlan::healthy(2, 1).with_straggler(0, 10, 10, 2.0);
        assert_eq!(bad.validate(), Err(PlanError::BadStragglerWindow));
        let slow = FaultPlan::healthy(2, 1).with_straggler(0, 0, 10, 0.5);
        assert_eq!(slow.validate(), Err(PlanError::BadStragglerWindow));
        let no_rejoin = FaultPlan::healthy(2, 1).with_crash_rejoin(0, 10, 0);
        assert_eq!(no_rejoin.validate(), Err(PlanError::BadMembershipEvent));
        let mut stray = FaultPlan::healthy(2, 1).with_scale_in(0, 10);
        if let Some(FaultEvent::Membership { rejoin_ns, .. }) = stray.events.first_mut() {
            *rejoin_ns = Some(5);
        }
        assert_eq!(stray.validate(), Err(PlanError::BadMembershipEvent));
    }

    #[test]
    fn membership_events_shape_liveness() {
        let p = FaultPlan::healthy(4, 1)
            .with_scale_out(3, 100)
            .with_scale_in(2, 200)
            .with_crash_rejoin(1, 50, 25);
        assert!(p.validate().is_ok());
        // Scale-out: down before the join, up after.
        assert!(!p.is_up(3, 0) && !p.is_up(3, 99) && p.is_up(3, 100));
        // Scale-in: up before the departure, down forever after.
        assert!(p.is_up(2, 199) && !p.is_up(2, 200) && !p.is_up(2, u64::MAX));
        // Crash-rejoin: a bounded outage.
        assert!(p.is_up(1, 49) && !p.is_up(1, 50) && !p.is_up(1, 74) && p.is_up(1, 75));
        // Untouched machine stays up throughout.
        assert!(p.is_up(0, 0) && p.is_up(0, u64::MAX));
        assert_eq!(membership_events(&p), 3);
    }

    #[test]
    fn generated_membership_plans_are_deterministic_and_valid() {
        let cfg = FaultPlanConfig { memberships: 2, ..Default::default() };
        let a = FaultPlan::generate(&cfg, 8, 7);
        let b = FaultPlan::generate(&cfg, 8, 7);
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
        assert_eq!(membership_events(&a), 2);
        // memberships = 0 reproduces the v1 draw stream: the non-
        // membership prefix of the plan is unchanged.
        let v1_cfg = FaultPlanConfig { memberships: 0, ..Default::default() };
        let base = FaultPlan::generate(&v1_cfg, 8, 7);
        let non_membership: Vec<_> = a
            .events
            .iter()
            .filter(|e| !matches!(e, FaultEvent::Membership { .. }))
            .cloned()
            .collect();
        assert_eq!(non_membership, base.events);
    }

    #[test]
    fn all_dead_detection_requires_permanent_t0_crashes() {
        let dead = FaultPlan::healthy(2, 1).with_crash(0, 0).with_crash(1, 0);
        assert!(dead.all_machines_dead_from_start());
        let recovers = FaultPlan::healthy(2, 1).with_crash(0, 0).with_recovering_crash(1, 0, 10);
        assert!(!recovers.all_machines_dead_from_start());
        let partial = FaultPlan::healthy(2, 1).with_crash(0, 0);
        assert!(!partial.all_machines_dead_from_start());
    }

    #[test]
    fn message_drops_are_pure_and_roughly_calibrated() {
        let p = FaultPlan::healthy(2, 9).with_message_loss(0.25);
        let drops: usize = (0..10_000).filter(|&i| p.drop_message(i)).count();
        assert!((1_500..3_500).contains(&drops), "{drops} drops at p=0.25");
        for i in 0..100 {
            assert_eq!(p.drop_message(i), p.drop_message(i));
        }
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(&cfg, 8, 42);
        let b = FaultPlan::generate(&cfg, 8, 42);
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
        assert!(!a.events.is_empty());
        let c = FaultPlan::generate(&cfg, 8, 43);
        assert_ne!(a.events, c.events, "different seeds should schedule different faults");
    }

    #[test]
    fn generate_never_kills_the_whole_cluster() {
        let cfg = FaultPlanConfig { crashes: 99, ..Default::default() };
        for seed in 0..20 {
            let p = FaultPlan::generate(&cfg, 4, seed);
            let crashes = p.events.iter().filter(|e| matches!(e, FaultEvent::Crash { .. })).count();
            assert!(crashes <= 3);
            assert!(!p.all_machines_dead_from_start());
        }
    }
}
