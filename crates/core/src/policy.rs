//! The policy plane: per-epoch / per-cohort defense policies.
//!
//! Historically every layer of the engine cloned one
//! [`GloveConfig`](crate::config::GloveConfig) / [`StreamConfig`] and
//! applied it uniformly to every subscriber and every
//! epoch. The policy plane generalizes that spine: a [`PolicyPlane`] maps
//! `(epoch index, cohort)` to an [`EffectivePolicy`] — the `k`, window
//! length, carry policy, under-k policy and suppression thresholds in force
//! for that slice of the run. [`PolicyPlane::uniform`] (the default,
//! an empty rule set) resolves every query to the base configuration
//! unchanged, and the engines are byte-identical to their pre-policy
//! behavior under it (anchored by tests in `api_properties.rs`).
//!
//! ## Resolution contract
//!
//! * Rules are applied in declaration order; a later rule overrides an
//!   earlier one for the fields it sets.
//! * A rule applies to epoch `e` when `from_epoch <= e` and either
//!   `to_epoch` is unset or `e < to_epoch` (half-open interval).
//! * Global rules (no cohort) may set any field. Cohort-scoped rules may
//!   only set `k`: window length, carry and under-k are stream-global
//!   properties — one clock and one ledger per stream — so a cohort cannot
//!   have its own epoch grid.
//! * Cohort `k` is a *floor raise*: the effective k of a cohort member is
//!   `max(global k, cohort k)`. A cohort can be hidden deeper than the
//!   population, never shallower — the k-anonymity guarantee of the base
//!   configuration is monotone under every plane.
//!
//! Per-epoch resolution happens at window boundaries only: a policy change
//! never splits an open window, and a [`SharedPolicy`] swapped mid-run
//! (the `serve` RECONFIG path) takes effect when the next window opens.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::api::json::{field_or, Json, JsonValue};
use crate::config::{CarryPolicy, StreamConfig, SuppressionThresholds, UnderKPolicy};
use crate::error::GloveError;
use crate::json_struct;
use crate::model::UserId;

/// The policy in force for one `(epoch, cohort)` slice of a run: the
/// resolved output of [`PolicyPlane::resolve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectivePolicy {
    /// Anonymity level in force.
    pub k: usize,
    /// Window (epoch) length in minutes in force when this epoch opened.
    pub window_min: u32,
    /// Cross-epoch continuity policy in force.
    pub carry: CarryPolicy,
    /// Under-k policy in force.
    pub under_k: UnderKPolicy,
    /// Suppression thresholds in force.
    pub suppression: SuppressionThresholds,
}

impl EffectivePolicy {
    /// The policy that reproduces `base` exactly (what the uniform plane
    /// resolves to for every query).
    pub fn of(base: &StreamConfig) -> Self {
        Self {
            k: base.glove.k,
            window_min: base.window_min,
            carry: base.carry,
            under_k: base.under_k,
            suppression: base.glove.suppression,
        }
    }

    fn apply(&mut self, set: &PolicyOverride) {
        if let Some(k) = set.k {
            self.k = k;
        }
        if let Some(w) = set.window_min {
            self.window_min = w;
        }
        if let Some(c) = set.carry {
            self.carry = c;
        }
        if let Some(u) = set.under_k {
            self.under_k = u;
        }
        if let Some(s) = set.suppression {
            self.suppression = s;
        }
    }
}

/// The fields a [`PolicyRule`] overrides. Unset fields inherit from the
/// base configuration (or from an earlier matching rule).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyOverride {
    /// Override the anonymity level. For cohort-scoped rules this is a
    /// floor raise over the global k, never a reduction.
    pub k: Option<usize>,
    /// Override the window length (global rules only).
    pub window_min: Option<u32>,
    /// Override the carry policy (global rules only).
    pub carry: Option<CarryPolicy>,
    /// Override the under-k policy (global rules only).
    pub under_k: Option<UnderKPolicy>,
    /// Override the suppression thresholds (global rules only).
    pub suppression: Option<SuppressionThresholds>,
}

impl PolicyOverride {
    /// True when no field is set (the rule is a no-op).
    pub fn is_empty(&self) -> bool {
        self.k.is_none()
            && self.window_min.is_none()
            && self.carry.is_none()
            && self.under_k.is_none()
            && self.suppression.is_none()
    }

    /// True when only `k` is set — the full budget of a cohort-scoped rule.
    pub fn is_k_only(&self) -> bool {
        self.window_min.is_none()
            && self.carry.is_none()
            && self.under_k.is_none()
            && self.suppression.is_none()
    }
}

/// One rule of the plane: an epoch interval, an optional cohort scope, and
/// the overrides in force there.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRule {
    /// First epoch (inclusive) the rule applies to.
    pub from_epoch: u64,
    /// First epoch the rule no longer applies to (exclusive); `None` means
    /// the rule applies to every epoch from `from_epoch` on.
    pub to_epoch: Option<u64>,
    /// Cohort the rule is scoped to; `None` scopes it to the whole
    /// population.
    pub cohort: Option<String>,
    /// The overridden fields.
    pub set: PolicyOverride,
}

impl PolicyRule {
    /// True when the rule's epoch interval covers `epoch`.
    pub fn applies_at(&self, epoch: u64) -> bool {
        self.from_epoch <= epoch && self.to_epoch.is_none_or(|to| epoch < to)
    }
}

/// A rule is one flat object: the overrides sit beside the interval, and
/// unset options are omitted rather than rendered as `null`. Every key is
/// optional on decode (`from_epoch` defaults to 0).
impl Json for PolicyRule {
    fn to_value(&self) -> JsonValue {
        let suppression = self.set.suppression.map(|s| {
            JsonValue::obj(vec![
                ("space_m", s.max_space_m.to_value()),
                ("time_min", s.max_time_min.to_value()),
            ])
        });
        let keys = [
            ("from_epoch", Some(self.from_epoch.to_value())),
            ("to_epoch", self.to_epoch.as_ref().map(Json::to_value)),
            ("cohort", self.cohort.as_ref().map(Json::to_value)),
            ("k", self.set.k.as_ref().map(Json::to_value)),
            (
                "window_min",
                self.set.window_min.as_ref().map(Json::to_value),
            ),
            ("carry", self.set.carry.as_ref().map(Json::to_value)),
            ("under_k", self.set.under_k.as_ref().map(Json::to_value)),
            ("suppression", suppression),
        ];
        JsonValue::Obj(
            keys.into_iter()
                .filter_map(|(key, value)| Some((key.to_string(), value?)))
                .collect(),
        )
    }

    fn from_value(v: &JsonValue) -> Result<Self, String> {
        let suppression = match v.get("suppression") {
            None => None,
            Some(s) => Some(SuppressionThresholds {
                max_space_m: field_or(s, "space_m", None)?,
                max_time_min: field_or(s, "time_min", None)?,
            }),
        };
        Ok(PolicyRule {
            from_epoch: field_or(v, "from_epoch", 0)?,
            to_epoch: field_or(v, "to_epoch", None)?,
            cohort: field_or(v, "cohort", None)?,
            set: PolicyOverride {
                k: field_or(v, "k", None)?,
                window_min: field_or(v, "window_min", None)?,
                carry: field_or(v, "carry", None)?,
                under_k: field_or(v, "under_k", None)?,
                suppression,
            },
        })
    }
}

/// A named set of subscribers the plane can scope k-rules to (night-shift
/// workers, hyper-mobile users, a tenant's premium tier, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSpec {
    /// Cohort name, referenced by [`PolicyRule::cohort`].
    pub name: String,
    /// The members. Order is irrelevant; duplicates are tolerated.
    pub users: Vec<UserId>,
}

json_struct!(CohortSpec {
    name,
    users = Vec::new(),
});

/// The policy plane: cohort declarations plus an ordered rule list.
///
/// The empty plane ([`PolicyPlane::uniform`]) resolves every query to the
/// base configuration and is the default everywhere — engines behave
/// exactly as they did before the plane existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyPlane {
    /// Declared cohorts.
    pub cohorts: Vec<CohortSpec>,
    /// Rules, applied in declaration order (later wins per field).
    pub rules: Vec<PolicyRule>,
}

impl PolicyPlane {
    /// The uniform plane: no cohorts, no rules. Every resolution returns
    /// the base configuration unchanged.
    pub fn uniform() -> Self {
        Self::default()
    }

    /// True when the plane carries no rules at all (cohort declarations
    /// alone change nothing).
    pub fn is_uniform(&self) -> bool {
        self.rules.is_empty()
    }

    /// Validates the plane: rule intervals are non-empty, overridden values
    /// are in range, cohort-scoped rules only touch `k`, and every cohort
    /// reference resolves to a declaration.
    pub fn validate(&self) -> Result<(), GloveError> {
        let mut seen = std::collections::HashSet::new();
        for c in &self.cohorts {
            if c.name.is_empty() {
                return Err(GloveError::InvalidConfig(
                    "policy cohort name must be non-empty".into(),
                ));
            }
            if !seen.insert(c.name.as_str()) {
                return Err(GloveError::InvalidConfig(format!(
                    "policy cohort '{}' declared twice",
                    c.name
                )));
            }
        }
        for r in &self.rules {
            if let Some(to) = r.to_epoch {
                if to <= r.from_epoch {
                    return Err(GloveError::InvalidConfig(format!(
                        "policy rule epoch interval [{}, {}) is empty",
                        r.from_epoch, to
                    )));
                }
            }
            if let Some(k) = r.set.k {
                if k < 2 {
                    return Err(GloveError::InvalidConfig(
                        "policy rule k must be at least 2".into(),
                    ));
                }
            }
            if let Some(w) = r.set.window_min {
                if w == 0 {
                    return Err(GloveError::InvalidConfig(
                        "policy rule window_min must be at least 1".into(),
                    ));
                }
            }
            if let Some(name) = &r.cohort {
                if !self.cohorts.iter().any(|c| &c.name == name) {
                    return Err(GloveError::InvalidConfig(format!(
                        "policy rule references undeclared cohort '{name}'"
                    )));
                }
                if !r.set.is_k_only() {
                    return Err(GloveError::InvalidConfig(format!(
                        "cohort-scoped rule on '{name}' may only override k \
                         (window/carry/under-k/suppression are stream-global)"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Resolves the policy in force at `epoch` for `cohort` (or the global
    /// population when `None`), starting from `base`.
    pub fn resolve(
        &self,
        epoch: u64,
        cohort: Option<&str>,
        base: &StreamConfig,
    ) -> EffectivePolicy {
        let mut eff = EffectivePolicy::of(base);
        for rule in &self.rules {
            if !rule.applies_at(epoch) {
                continue;
            }
            match &rule.cohort {
                None => eff.apply(&rule.set),
                Some(c) if Some(c.as_str()) == cohort => {
                    if let Some(k) = rule.set.k {
                        eff.k = eff.k.max(k);
                    }
                }
                Some(_) => {}
            }
        }
        eff
    }

    /// The name of the first declared cohort containing `user`, if any.
    pub fn cohort_of(&self, user: UserId) -> Option<&str> {
        self.cohorts
            .iter()
            .find(|c| c.users.contains(&user))
            .map(|c| c.name.as_str())
    }

    /// True when any rule overrides the window length — the streaming
    /// engine then tracks window boundaries cumulatively instead of by
    /// plain division.
    pub fn has_window_rules(&self) -> bool {
        self.rules.iter().any(|r| r.set.window_min.is_some())
    }

    /// The per-user k plan in force at `epoch`, or `None` when every user
    /// shares the global k (the common case, and the fast path downstream).
    pub fn kplan(&self, epoch: u64, base: &StreamConfig) -> Option<KPlan> {
        let global = self.resolve(epoch, None, base);
        let mut overrides: BTreeMap<UserId, usize> = BTreeMap::new();
        for cohort in &self.cohorts {
            let k = self.resolve(epoch, Some(&cohort.name), base).k;
            if k > global.k {
                for &u in &cohort.users {
                    let slot = overrides.entry(u).or_insert(k);
                    *slot = (*slot).max(k);
                }
            }
        }
        if overrides.is_empty() {
            None
        } else {
            Some(KPlan {
                base: global.k,
                overrides,
            })
        }
    }

    /// Serializes the plane to the dependency-free JSON tree of
    /// [`crate::api::json`].
    pub fn to_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("cohorts", self.cohorts.to_value()),
            ("rules", self.rules.to_value()),
        ])
    }

    /// Parses a plane from the JSON tree produced by
    /// [`PolicyPlane::to_value`] (lenient: unknown keys are ignored, absent
    /// arrays read as empty). The result is validated before it is
    /// returned.
    pub fn from_value(value: &JsonValue) -> Result<Self, GloveError> {
        let read = || -> Result<Self, String> {
            Ok(PolicyPlane {
                cohorts: field_or(value, "cohorts", Vec::new())?,
                rules: field_or(value, "rules", Vec::new())?,
            })
        };
        let plane = read().map_err(|e| GloveError::InvalidConfig(format!("policy plane: {e}")))?;
        plane.validate()?;
        Ok(plane)
    }

    /// Parses a plane from JSON text (see [`PolicyPlane::from_value`]).
    pub fn from_json(text: &str) -> Result<Self, GloveError> {
        let value = JsonValue::parse(text)
            .map_err(|e| GloveError::InvalidConfig(format!("policy plane: {e}")))?;
        Self::from_value(&value)
    }
}

/// A shareable, swappable handle to a plane: the streaming engine reads it
/// at every window boundary, so a writer (the `serve` RECONFIG path, the
/// adaptive loop) can retarget a live run between epochs.
pub type SharedPolicy = Arc<RwLock<PolicyPlane>>;

/// Wraps a plane into a [`SharedPolicy`] handle.
pub fn shared(plane: PolicyPlane) -> SharedPolicy {
    Arc::new(RwLock::new(plane))
}

/// The per-user k requirements in force for one epoch: the resolved output
/// of [`PolicyPlane::kplan`], consumed by the greedy loop. A fingerprint's
/// required k is the maximum requirement over its member users — a merged
/// group is done only once its deepest member is hidden.
#[derive(Debug, Clone, PartialEq)]
pub struct KPlan {
    base: usize,
    overrides: BTreeMap<UserId, usize>,
}

impl KPlan {
    /// A plan with explicit per-user overrides over `base`. Overrides below
    /// `base` are floors, not reductions: `k_of` never returns less than
    /// `base`.
    pub fn new(base: usize, overrides: BTreeMap<UserId, usize>) -> Self {
        Self { base, overrides }
    }

    /// The global k every user gets unless overridden.
    pub fn base(&self) -> usize {
        self.base
    }

    /// The k requirement of one user.
    pub fn k_of(&self, user: UserId) -> usize {
        self.overrides
            .get(&user)
            .map_or(self.base, |&k| k.max(self.base))
    }

    /// The k requirement of a group: the maximum over its members.
    pub fn required_k(&self, users: &[UserId]) -> usize {
        users
            .iter()
            .map(|&u| self.k_of(u))
            .max()
            .unwrap_or(self.base)
    }

    /// The largest requirement any user can have under this plan.
    pub fn max_k(&self) -> usize {
        self.overrides
            .values()
            .copied()
            .max()
            .unwrap_or(self.base)
            .max(self.base)
    }

    /// True when no user is overridden (the plan degenerates to uniform k).
    pub fn is_uniform(&self) -> bool {
        self.overrides.values().all(|&k| k <= self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GloveConfig;

    fn base() -> StreamConfig {
        StreamConfig::default()
    }

    fn k_rule(from: u64, to: Option<u64>, cohort: Option<&str>, k: usize) -> PolicyRule {
        PolicyRule {
            from_epoch: from,
            to_epoch: to,
            cohort: cohort.map(str::to_string),
            set: PolicyOverride {
                k: Some(k),
                ..PolicyOverride::default()
            },
        }
    }

    #[test]
    fn uniform_plane_resolves_to_base() {
        let plane = PolicyPlane::uniform();
        assert!(plane.is_uniform());
        let base = base();
        for epoch in [0, 1, 7, 10_000] {
            let eff = plane.resolve(epoch, None, &base);
            assert_eq!(eff, EffectivePolicy::of(&base));
        }
        assert!(plane.kplan(0, &base).is_none());
        assert!(!plane.has_window_rules());
    }

    #[test]
    fn later_rules_win_per_field() {
        let plane = PolicyPlane {
            cohorts: vec![],
            rules: vec![
                PolicyRule {
                    from_epoch: 0,
                    to_epoch: None,
                    cohort: None,
                    set: PolicyOverride {
                        k: Some(4),
                        carry: Some(CarryPolicy::Sticky),
                        ..PolicyOverride::default()
                    },
                },
                k_rule(2, None, None, 6),
            ],
        };
        plane.validate().unwrap();
        let base = base();
        let e1 = plane.resolve(1, None, &base);
        assert_eq!((e1.k, e1.carry), (4, CarryPolicy::Sticky));
        let e2 = plane.resolve(2, None, &base);
        // k overridden by the later rule; carry inherited from the earlier.
        assert_eq!((e2.k, e2.carry), (6, CarryPolicy::Sticky));
    }

    #[test]
    fn epoch_interval_is_half_open() {
        let rule = k_rule(2, Some(4), None, 5);
        assert!(!rule.applies_at(1));
        assert!(rule.applies_at(2));
        assert!(rule.applies_at(3));
        assert!(!rule.applies_at(4));
    }

    #[test]
    fn cohort_k_is_a_floor_raise() {
        let plane = PolicyPlane {
            cohorts: vec![CohortSpec {
                name: "night".into(),
                users: vec![3, 5],
            }],
            rules: vec![k_rule(0, None, Some("night"), 4)],
        };
        plane.validate().unwrap();
        let base = base(); // global k = 2
        assert_eq!(plane.resolve(0, Some("night"), &base).k, 4);
        assert_eq!(plane.resolve(0, None, &base).k, 2);
        let plan = plane.kplan(0, &base).expect("cohort raises k");
        assert_eq!(plan.base(), 2);
        assert_eq!(plan.k_of(3), 4);
        assert_eq!(plan.k_of(0), 2);
        assert_eq!(plan.required_k(&[0, 1]), 2);
        assert_eq!(plan.required_k(&[0, 5]), 4);
        assert_eq!(plan.max_k(), 4);
        assert!(!plan.is_uniform());

        // A cohort k below the global k never lowers anything.
        let mut higher_base = base;
        higher_base.glove.k = 6;
        assert_eq!(plane.resolve(0, Some("night"), &higher_base).k, 6);
        assert!(plane.kplan(0, &higher_base).is_none());
    }

    #[test]
    fn cohort_of_finds_first_declaration() {
        let plane = PolicyPlane {
            cohorts: vec![
                CohortSpec {
                    name: "a".into(),
                    users: vec![1, 2],
                },
                CohortSpec {
                    name: "b".into(),
                    users: vec![2, 3],
                },
            ],
            rules: vec![],
        };
        assert_eq!(plane.cohort_of(2), Some("a"));
        assert_eq!(plane.cohort_of(3), Some("b"));
        assert_eq!(plane.cohort_of(9), None);
    }

    #[test]
    fn validation_rejects_bad_planes() {
        // Empty interval.
        let plane = PolicyPlane {
            cohorts: vec![],
            rules: vec![k_rule(3, Some(3), None, 4)],
        };
        assert!(plane.validate().is_err());
        // k below 2.
        let plane = PolicyPlane {
            cohorts: vec![],
            rules: vec![k_rule(0, None, None, 1)],
        };
        assert!(plane.validate().is_err());
        // Undeclared cohort.
        let plane = PolicyPlane {
            cohorts: vec![],
            rules: vec![k_rule(0, None, Some("ghost"), 4)],
        };
        assert!(plane.validate().is_err());
        // Cohort rule touching a stream-global field.
        let plane = PolicyPlane {
            cohorts: vec![CohortSpec {
                name: "c".into(),
                users: vec![1],
            }],
            rules: vec![PolicyRule {
                from_epoch: 0,
                to_epoch: None,
                cohort: Some("c".into()),
                set: PolicyOverride {
                    carry: Some(CarryPolicy::Fresh),
                    ..PolicyOverride::default()
                },
            }],
        };
        assert!(plane.validate().is_err());
        // Duplicate cohort name.
        let plane = PolicyPlane {
            cohorts: vec![
                CohortSpec {
                    name: "c".into(),
                    users: vec![1],
                },
                CohortSpec {
                    name: "c".into(),
                    users: vec![2],
                },
            ],
            rules: vec![],
        };
        assert!(plane.validate().is_err());
        // Zero-length window.
        let plane = PolicyPlane {
            cohorts: vec![],
            rules: vec![PolicyRule {
                from_epoch: 0,
                to_epoch: None,
                cohort: None,
                set: PolicyOverride {
                    window_min: Some(0),
                    ..PolicyOverride::default()
                },
            }],
        };
        assert!(plane.validate().is_err());
    }

    #[test]
    fn json_round_trip_preserves_the_plane() {
        let plane = PolicyPlane {
            cohorts: vec![CohortSpec {
                name: "night-shift".into(),
                users: vec![7, 11, 13],
            }],
            rules: vec![
                PolicyRule {
                    from_epoch: 0,
                    to_epoch: Some(3),
                    cohort: None,
                    set: PolicyOverride {
                        k: Some(3),
                        window_min: Some(720),
                        carry: Some(CarryPolicy::Sticky),
                        under_k: Some(UnderKPolicy::Defer),
                        suppression: Some(SuppressionThresholds {
                            max_space_m: Some(15_000),
                            max_time_min: None,
                        }),
                    },
                },
                k_rule(3, None, Some("night-shift"), 6),
            ],
        };
        plane.validate().unwrap();
        let text = plane.to_value().render();
        let back = PolicyPlane::from_json(&text).unwrap();
        assert_eq!(back, plane);
        assert_eq!(
            text,
            concat!(
                r#"{"cohorts":[{"name":"night-shift","users":[7,11,13]}],"#,
                r#""rules":[{"from_epoch":0,"to_epoch":3,"k":3,"window_min":720,"#,
                r#""carry":"sticky","under_k":"defer","#,
                r#""suppression":{"space_m":15000,"time_min":null}},"#,
                r#"{"from_epoch":3,"cohort":"night-shift","k":6}]}"#,
            )
        );
    }

    #[test]
    fn from_json_rejects_invalid_planes() {
        assert!(PolicyPlane::from_json("not json").is_err());
        assert!(PolicyPlane::from_json(r#"{"rules":[{"from_epoch":0,"k":1}]}"#).is_err());
        assert!(
            PolicyPlane::from_json(r#"{"rules":[{"cohort":"ghost","k":4}]}"#).is_err(),
            "undeclared cohort must fail"
        );
        // Lenient: absent arrays mean the uniform plane.
        let plane = PolicyPlane::from_json("{}").unwrap();
        assert!(plane.is_uniform());
    }

    #[test]
    fn window_rules_are_detected() {
        let plane = PolicyPlane {
            cohorts: vec![],
            rules: vec![PolicyRule {
                from_epoch: 1,
                to_epoch: None,
                cohort: None,
                set: PolicyOverride {
                    window_min: Some(720),
                    ..PolicyOverride::default()
                },
            }],
        };
        assert!(plane.has_window_rules());
        assert_eq!(plane.resolve(0, None, &base()).window_min, 1_440);
        assert_eq!(plane.resolve(1, None, &base()).window_min, 720);
    }

    #[test]
    fn shared_policy_swaps_between_reads() {
        let handle = shared(PolicyPlane::uniform());
        assert!(handle.read().unwrap().is_uniform());
        let mut plane = PolicyPlane::uniform();
        plane.rules.push(k_rule(1, None, None, 4));
        *handle.write().unwrap() = plane;
        let base = base();
        assert_eq!(handle.read().unwrap().resolve(1, None, &base).k, 4);
    }

    #[test]
    fn glove_config_base_is_respected() {
        let mut base = base();
        base.glove = GloveConfig {
            k: 5,
            ..GloveConfig::default()
        };
        let eff = PolicyPlane::uniform().resolve(0, None, &base);
        assert_eq!(eff.k, 5);
    }
}
