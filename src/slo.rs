//! The SLO watchdog: declarative cycle-budget rules over the control
//! plane's streaming metrics, evaluated on a deterministic tick.
//!
//! A serverless host lives by a handful of latency and capacity promises —
//! clones stay an order of magnitude cheaper than boots, fragmentation
//! stalls recover within a bounded pause, the PCID space never runs dry.
//! [`SloWatchdog`] makes those promises explicit: each [`SloRule`] names a
//! signal (a quantile of a [`obs::QuantileSketch`], the worst single
//! observation in the current window, or a point-in-time gauge) and a
//! [`Budget`] it must respect. The host calls [`SloWatchdog::tick`] at
//! operation boundaries; once per [`SloWatchdog::interval`] simulated
//! cycles the rules are evaluated against an [`SloProbe`] (implemented by
//! [`crate::CloudHost`]), and each rule that transitions into breach emits
//! an [`Incident`] carrying the rule, observed-vs-budget, the offending
//! container, and that container's flight-recorder dump.
//!
//! Everything is driven by the simulated clock, so two identical seeded
//! runs produce identical incident streams — a breach is a reproducible
//! artifact, not a flaky alert.

use obs::export::json_escape;

/// How a rule's budget is expressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// An absolute simulated-cycle (or count) bound.
    Cycles(u64),
    /// A multiple of another sketch's quantile at evaluation time — e.g.
    /// "clone p99 stays under 25× the warm-invoke median". Resolved fresh
    /// on every tick; the rule is skipped while the reference sketch is
    /// empty.
    MultipleOf {
        /// The reference sketch.
        sketch: &'static str,
        /// The reference quantile (`0.0 ..= 1.0`).
        q: f64,
        /// The allowed multiple.
        factor: u64,
    },
}

/// What a rule constrains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// A quantile of a sketch must stay **below** the budget. Skipped
    /// until the sketch holds [`SloWatchdog::min_samples`] observations.
    QuantileUnder {
        /// Sketch name (e.g. `"cloud.clone_cycles"`).
        sketch: &'static str,
        /// Quantile (`0.0 ..= 1.0`).
        q: f64,
        /// The bound.
        budget: Budget,
    },
    /// The worst single observation in the current watchdog window must
    /// stay **below** the budget (e.g. one fragmentation-stall recovery).
    MaxUnder {
        /// Sketch name whose per-window worst is tracked by the host.
        sketch: &'static str,
        /// The bound.
        budget: Budget,
    },
    /// A point-in-time gauge must stay **at or above** `min` (e.g.
    /// `cloud.pcid_free > 0`).
    GaugeAtLeast {
        /// Gauge name, resolved by the probe.
        gauge: &'static str,
        /// The floor.
        min: u64,
    },
}

/// One declarative budget rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloRule {
    /// Stable rule name, quoted in incidents (e.g. `"clone_p99"`).
    pub name: &'static str,
    /// The constraint.
    pub kind: RuleKind,
}

/// A structured breach report: which rule fired, what was observed against
/// what budget, which container is implicated, and that container's
/// flight-recorder dump at the moment of evaluation.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Name of the breached [`SloRule`].
    pub rule: &'static str,
    /// Simulated cycle count at evaluation.
    pub at_cycles: u64,
    /// The observed value (cycles or count).
    pub observed: u64,
    /// The resolved budget it violated.
    pub budget: u64,
    /// Offending container, when the signal is attributable to one.
    pub container: Option<u32>,
    /// JSONL flight dump of the offending container (header + events).
    pub flight_dump: Option<String>,
}

impl Incident {
    /// One-object JSON rendering (the flight dump is embedded as an
    /// escaped string so the incident stays a single JSON value).
    pub fn to_json(&self) -> String {
        let container = match self.container {
            Some(c) => format!("\"c{c}\""),
            None => "null".to_string(),
        };
        let dump = match &self.flight_dump {
            Some(d) => format!("\"{}\"", json_escape(d)),
            None => "null".to_string(),
        };
        format!(
            "{{\"rule\":\"{}\",\"at_cycles\":{},\"observed\":{},\"budget\":{},\
             \"container\":{container},\"flight_dump\":{dump}}}",
            json_escape(self.rule),
            self.at_cycles,
            self.observed,
            self.budget
        )
    }
}

/// The signals a watchdog evaluation reads. Implemented by the host that
/// owns the metrics ([`crate::CloudHost`]); keeping it a trait lets the
/// watchdog be unit-tested against a table of canned values.
pub trait SloProbe {
    /// Quantile of a named sketch, `None` if unregistered.
    fn quantile(&self, sketch: &'static str, q: f64) -> Option<u64>;
    /// Observations in a named sketch (0 if unregistered).
    fn samples(&self, sketch: &'static str) -> u64;
    /// Point-in-time gauge value, `None` if unknown.
    fn gauge(&self, gauge: &'static str) -> Option<u64>;
    /// Worst observation of `sketch` in the current window, with the
    /// container it came from (`None` if nothing was observed).
    fn worst(&self, sketch: &'static str) -> Option<(u64, u32)>;
    /// Flight dump for a container (live or recently retired).
    fn flight_dump(&self, container: u32) -> Option<String>;
}

/// The watchdog: rules + tick schedule + incident log.
#[derive(Debug, Clone)]
pub struct SloWatchdog {
    rules: Vec<SloRule>,
    /// Simulated cycles between evaluations.
    pub interval: u64,
    /// Quantile rules stay silent until their sketch holds this many
    /// observations (avoids firing on a cold, unrepresentative tail).
    pub min_samples: u64,
    next_tick: u64,
    /// Per-rule breach latch: an incident is emitted on the ok→breach
    /// transition only, so a sustained breach is one incident, not one
    /// per tick.
    breached: Vec<bool>,
    incidents: Vec<Incident>,
    ticks: u64,
}

impl SloWatchdog {
    /// A watchdog with no rules, evaluating every `interval` cycles.
    pub fn new(interval: u64) -> Self {
        Self {
            rules: Vec::new(),
            interval: interval.max(1),
            min_samples: 16,
            next_tick: interval.max(1),
            breached: Vec::new(),
            incidents: Vec::new(),
            ticks: 0,
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: SloRule) -> Self {
        self.rules.push(rule);
        self.breached.push(false);
        self
    }

    /// The default rule set for a [`crate::CloudHost`]: clone tail bounded
    /// by a multiple of the warm-invoke median, fragmentation-stall
    /// recovery bounded in absolute cycles, and a non-empty PCID pool.
    pub fn cloud_default(interval: u64) -> Self {
        Self::new(interval)
            .with_rule(SloRule {
                name: "clone_p99",
                kind: RuleKind::QuantileUnder {
                    sketch: "cloud.clone_cycles",
                    q: 0.99,
                    budget: Budget::MultipleOf {
                        sketch: "cloud.invoke_cycles",
                        q: 0.5,
                        factor: 25,
                    },
                },
            })
            .with_rule(SloRule {
                name: "frag_stall_recovery",
                kind: RuleKind::MaxUnder {
                    sketch: "cloud.stall_recovery_cycles",
                    budget: Budget::Cycles(50_000_000),
                },
            })
            .with_rule(SloRule {
                name: "pcid_free",
                kind: RuleKind::GaugeAtLeast {
                    gauge: "cloud.pcid_free",
                    min: 1,
                },
            })
    }

    /// The serving-latency rule for a networked host: the p99 of
    /// cross-container request round trips ([`crate::CloudHost::record_request`],
    /// feeding the `net.request_cycles` sketch) must stay under an
    /// absolute cycle budget. Inert until networking is enabled and the
    /// sketch holds [`SloWatchdog::min_samples`] observations.
    pub fn serving_p99(budget_cycles: u64) -> SloRule {
        SloRule {
            name: "serving_p99",
            kind: RuleKind::QuantileUnder {
                sketch: "net.request_cycles",
                q: 0.99,
                budget: Budget::Cycles(budget_cycles),
            },
        }
    }

    /// The registered rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluations performed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Incidents emitted so far (oldest first).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Whether an evaluation is due at `now`.
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_tick
    }

    /// Evaluates every rule against `probe` if an evaluation is due at
    /// `now`; returns `true` if one ran (the host then resets its
    /// per-window worst tracking and charges the tick's cycle cost).
    pub fn tick(&mut self, now: u64, probe: &dyn SloProbe) -> bool {
        if !self.due(now) {
            return false;
        }
        // Stay phase-aligned to the interval regardless of how late the
        // host called us — deterministic for a given op sequence.
        while self.next_tick <= now {
            self.next_tick += self.interval;
        }
        self.ticks += 1;
        for i in 0..self.rules.len() {
            let rule = self.rules[i];
            let Some((observed, budget, container)) = self.evaluate(&rule, probe) else {
                continue;
            };
            let breach = match rule.kind {
                RuleKind::GaugeAtLeast { .. } => observed < budget,
                _ => observed >= budget,
            };
            if breach && !self.breached[i] {
                let flight_dump = container.and_then(|c| probe.flight_dump(c));
                self.incidents.push(Incident {
                    rule: rule.name,
                    at_cycles: now,
                    observed,
                    budget,
                    container,
                    flight_dump,
                });
            }
            self.breached[i] = breach;
        }
        true
    }

    /// Resolves one rule to `(observed, budget, offender)`; `None` skips
    /// the rule this tick (insufficient samples / unknown signal).
    fn evaluate(&self, rule: &SloRule, probe: &dyn SloProbe) -> Option<(u64, u64, Option<u32>)> {
        match rule.kind {
            RuleKind::QuantileUnder { sketch, q, budget } => {
                if probe.samples(sketch) < self.min_samples {
                    return None;
                }
                let observed = probe.quantile(sketch, q)?;
                let budget = self.resolve(budget, probe)?;
                let container = probe.worst(sketch).map(|(_, c)| c);
                Some((observed, budget, container))
            }
            RuleKind::MaxUnder { sketch, budget } => {
                let (observed, container) = probe.worst(sketch)?;
                let budget = self.resolve(budget, probe)?;
                Some((observed, budget, Some(container)))
            }
            RuleKind::GaugeAtLeast { gauge, min } => {
                let observed = probe.gauge(gauge)?;
                Some((observed, min, None))
            }
        }
    }

    fn resolve(&self, budget: Budget, probe: &dyn SloProbe) -> Option<u64> {
        match budget {
            Budget::Cycles(n) => Some(n),
            Budget::MultipleOf { sketch, q, factor } => {
                if probe.samples(sketch) == 0 {
                    return None;
                }
                Some(probe.quantile(sketch, q)?.saturating_mul(factor))
            }
        }
    }

    /// The machine-readable verdict: rule count, tick count, and every
    /// incident, as one JSON object.
    pub fn verdict_json(&self) -> String {
        let incidents: Vec<String> = self.incidents.iter().map(|i| i.to_json()).collect();
        format!(
            "{{\"rules\":{},\"ticks\":{},\"ok\":{},\"incidents\":[{}]}}",
            self.rules.len(),
            self.ticks,
            self.incidents.is_empty(),
            incidents.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A probe over canned values.
    #[derive(Default)]
    struct Table {
        quantiles: BTreeMap<(&'static str, u64), u64>, // (sketch, q*1000)
        samples: BTreeMap<&'static str, u64>,
        gauges: BTreeMap<&'static str, u64>,
        worst: BTreeMap<&'static str, (u64, u32)>,
    }

    impl SloProbe for Table {
        fn quantile(&self, sketch: &'static str, q: f64) -> Option<u64> {
            self.quantiles.get(&(sketch, (q * 1000.0) as u64)).copied()
        }
        fn samples(&self, sketch: &'static str) -> u64 {
            self.samples.get(sketch).copied().unwrap_or(0)
        }
        fn gauge(&self, gauge: &'static str) -> Option<u64> {
            self.gauges.get(gauge).copied()
        }
        fn worst(&self, sketch: &'static str) -> Option<(u64, u32)> {
            self.worst.get(sketch).copied()
        }
        fn flight_dump(&self, container: u32) -> Option<String> {
            Some(format!("{{\"flight\":\"c{container}\"}}\n"))
        }
    }

    #[test]
    fn gauge_rule_fires_once_per_breach_episode() {
        let mut wd = SloWatchdog::new(100).with_rule(SloRule {
            name: "pcid_free",
            kind: RuleKind::GaugeAtLeast {
                gauge: "cloud.pcid_free",
                min: 1,
            },
        });
        let mut t = Table::default();
        t.gauges.insert("cloud.pcid_free", 5);
        assert!(!wd.tick(50, &t), "not due yet");
        assert!(wd.tick(100, &t));
        assert!(wd.incidents().is_empty());
        // Pool dries up: one incident, latched across repeated ticks.
        t.gauges.insert("cloud.pcid_free", 0);
        wd.tick(200, &t);
        wd.tick(300, &t);
        assert_eq!(wd.incidents().len(), 1);
        assert_eq!(wd.incidents()[0].rule, "pcid_free");
        assert_eq!(wd.incidents()[0].observed, 0);
        // Recovery re-arms the latch.
        t.gauges.insert("cloud.pcid_free", 2);
        wd.tick(400, &t);
        t.gauges.insert("cloud.pcid_free", 0);
        wd.tick(500, &t);
        assert_eq!(wd.incidents().len(), 2);
    }

    #[test]
    fn quantile_rule_waits_for_samples_and_names_offender() {
        let mut wd = SloWatchdog::new(10).with_rule(SloRule {
            name: "invoke_p99",
            kind: RuleKind::QuantileUnder {
                sketch: "cloud.invoke_cycles",
                q: 0.99,
                budget: Budget::Cycles(1000),
            },
        });
        let mut t = Table::default();
        t.quantiles.insert(("cloud.invoke_cycles", 990), 5000);
        t.worst.insert("cloud.invoke_cycles", (9000, 42));
        t.samples.insert("cloud.invoke_cycles", 3);
        wd.tick(10, &t);
        assert!(wd.incidents().is_empty(), "below min_samples");
        t.samples.insert("cloud.invoke_cycles", 100);
        wd.tick(20, &t);
        assert_eq!(wd.incidents().len(), 1);
        let i = &wd.incidents()[0];
        assert_eq!(i.container, Some(42));
        assert_eq!(i.observed, 5000);
        assert_eq!(i.budget, 1000);
        assert!(i.flight_dump.as_ref().unwrap().contains("c42"));
    }

    #[test]
    fn relative_budget_resolves_from_reference_sketch() {
        let mut wd = SloWatchdog::new(10).with_rule(SloRule {
            name: "clone_p99",
            kind: RuleKind::QuantileUnder {
                sketch: "cloud.clone_cycles",
                q: 0.99,
                budget: Budget::MultipleOf {
                    sketch: "cloud.invoke_cycles",
                    q: 0.5,
                    factor: 25,
                },
            },
        });
        let mut t = Table::default();
        t.samples.insert("cloud.clone_cycles", 100);
        t.quantiles.insert(("cloud.clone_cycles", 990), 30_000);
        // Reference sketch empty: rule skipped.
        wd.tick(10, &t);
        assert!(wd.incidents().is_empty());
        // Healthy: 30k < 25 × 25k.
        t.samples.insert("cloud.invoke_cycles", 100);
        t.quantiles.insert(("cloud.invoke_cycles", 500), 25_000);
        wd.tick(20, &t);
        assert!(wd.incidents().is_empty());
        // Clone tail blows past the multiple.
        t.quantiles.insert(("cloud.clone_cycles", 990), 700_000);
        wd.tick(30, &t);
        assert_eq!(wd.incidents().len(), 1);
        assert_eq!(wd.incidents()[0].budget, 625_000);
    }

    #[test]
    fn verdict_json_is_balanced_and_complete() {
        let mut wd = SloWatchdog::new(10).with_rule(SloRule {
            name: "frag_stall_recovery",
            kind: RuleKind::MaxUnder {
                sketch: "cloud.stall_recovery_cycles",
                budget: Budget::Cycles(100),
            },
        });
        let mut t = Table::default();
        t.worst.insert("cloud.stall_recovery_cycles", (500, 7));
        wd.tick(10, &t);
        let v = wd.verdict_json();
        assert!(obs::export::json_balanced(&v), "{v}");
        assert!(v.contains("\"ok\":false"));
        assert!(v.contains("\"rule\":\"frag_stall_recovery\""));
        assert!(v.contains("\"container\":\"c7\""));
        let clean = SloWatchdog::new(10).verdict_json();
        assert!(clean.contains("\"ok\":true"));
    }
}
