//! JSON codec for [`StreamConfig`] / [`GloveConfig`], used by the `HELLO`
//! frame to inline a tenant's full configuration.
//!
//! Parsing is *tolerant*: every field defaults to the library default when
//! absent, so a minimal `{"k": 3}` glove section is a valid configuration,
//! and unknown keys are ignored. Serialization covers every deployment
//! setting — `to_value` followed by `from_value` returns the identical
//! configuration (f64 fields survive because the JSON renderer prints
//! shortest-round-trip floats) — except [`GloveConfig::pruning`] and
//! [`GloveConfig::columnar`]. Those pick test oracles whose output is
//! byte-identical, so they do not travel: a served tenant always runs the
//! library defaults. Older clients still send `pruning`, `cascade` and
//! `columnar`; the parser ignores them like any unknown key. Validation is
//! *not* done here; the session calls [`StreamConfig::validate`] after
//! decoding so invalid configurations fail with the engine's own error
//! text.

use glove_core::api::json::JsonValue;
use glove_core::config::{
    CarryPolicy, GloveConfig, ResidualPolicy, ShardBy, ShardPolicy, StreamConfig, StretchConfig,
    SuppressionThresholds, UnderKPolicy,
};

fn uint(v: u64) -> JsonValue {
    JsonValue::Int(i128::from(v))
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

/// Serializes a [`StreamConfig`] (including its inner [`GloveConfig`]).
pub fn stream_config_to_value(c: &StreamConfig) -> JsonValue {
    JsonValue::obj(vec![
        ("window_min", uint(u64::from(c.window_min))),
        (
            "carry",
            JsonValue::Str(
                match c.carry {
                    CarryPolicy::Fresh => "fresh",
                    CarryPolicy::Sticky => "sticky",
                }
                .to_string(),
            ),
        ),
        (
            "under_k",
            JsonValue::Str(
                match c.under_k {
                    UnderKPolicy::Suppress => "suppress",
                    UnderKPolicy::Defer => "defer",
                }
                .to_string(),
            ),
        ),
        ("glove", glove_config_to_value(&c.glove)),
    ])
}

/// Parses a [`StreamConfig`]; absent fields take library defaults.
pub fn stream_config_from_value(v: &JsonValue) -> Result<StreamConfig, String> {
    let mut config = StreamConfig::default();
    if let Some(w) = v.get("window_min") {
        config.window_min = w
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("window_min must be a u32")?;
    }
    if let Some(s) = v.get("carry") {
        config.carry = s.as_str().ok_or("carry must be a string")?.parse()?;
    }
    if let Some(s) = v.get("under_k") {
        config.under_k = s.as_str().ok_or("under_k must be a string")?.parse()?;
    }
    if let Some(g) = v.get("glove") {
        config.glove = glove_config_from_value(g)?;
    }
    Ok(config)
}

/// Serializes a [`GloveConfig`].
pub fn glove_config_to_value(c: &GloveConfig) -> JsonValue {
    JsonValue::obj(vec![
        ("k", uint(c.k as u64)),
        (
            "stretch",
            JsonValue::obj(vec![
                ("phi_max_space_m", num(c.stretch.phi_max_space_m)),
                ("phi_max_time_min", num(c.stretch.phi_max_time_min)),
                ("w_space", num(c.stretch.w_space)),
                ("w_time", num(c.stretch.w_time)),
                (
                    "population_weighting",
                    JsonValue::Bool(c.stretch.population_weighting),
                ),
            ]),
        ),
        (
            "suppression",
            JsonValue::obj(vec![
                (
                    "max_space_m",
                    c.suppression
                        .max_space_m
                        .map_or(JsonValue::Null, |n| uint(u64::from(n))),
                ),
                (
                    "max_time_min",
                    c.suppression
                        .max_time_min
                        .map_or(JsonValue::Null, |n| uint(u64::from(n))),
                ),
            ]),
        ),
        (
            "residual",
            JsonValue::Str(
                match c.residual {
                    ResidualPolicy::MergeIntoNearest => "merge",
                    ResidualPolicy::Suppress => "suppress",
                }
                .to_string(),
            ),
        ),
        ("reshape", JsonValue::Bool(c.reshape)),
        ("threads", uint(c.threads as u64)),
        (
            "shard",
            c.shard.map_or(JsonValue::Null, |p| {
                JsonValue::obj(vec![
                    ("shards", uint(p.shards as u64)),
                    (
                        "by",
                        JsonValue::Str(
                            match p.by {
                                ShardBy::Activity => "activity",
                                ShardBy::Spatial => "spatial",
                                ShardBy::TwoLevel => "two-level",
                            }
                            .to_string(),
                        ),
                    ),
                ])
            }),
        ),
    ])
}

fn opt_u32(v: &JsonValue, what: &str) -> Result<Option<u32>, String> {
    match v {
        JsonValue::Null => Ok(None),
        other => other
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("{what} must be null or a u32")),
    }
}

fn bool_field(v: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(b) => b.as_bool().ok_or_else(|| format!("{key} must be a bool")),
    }
}

/// Parses a [`GloveConfig`]; absent fields take library defaults.
pub fn glove_config_from_value(v: &JsonValue) -> Result<GloveConfig, String> {
    let mut config = GloveConfig::default();
    if let Some(k) = v.get("k") {
        config.k = k.as_usize().ok_or("k must be an unsigned integer")?;
    }
    if let Some(s) = v.get("stretch") {
        let d = StretchConfig::default();
        let f = |key: &str, default: f64| -> Result<f64, String> {
            match s.get(key) {
                None => Ok(default),
                Some(x) => x.as_f64().ok_or_else(|| format!("{key} must be a number")),
            }
        };
        config.stretch = StretchConfig {
            phi_max_space_m: f("phi_max_space_m", d.phi_max_space_m)?,
            phi_max_time_min: f("phi_max_time_min", d.phi_max_time_min)?,
            w_space: f("w_space", d.w_space)?,
            w_time: f("w_time", d.w_time)?,
            population_weighting: bool_field(s, "population_weighting", d.population_weighting)?,
        };
    }
    if let Some(s) = v.get("suppression") {
        config.suppression = SuppressionThresholds {
            max_space_m: s
                .get("max_space_m")
                .map_or(Ok(None), |x| opt_u32(x, "max_space_m"))?,
            max_time_min: s
                .get("max_time_min")
                .map_or(Ok(None), |x| opt_u32(x, "max_time_min"))?,
        };
    }
    if let Some(r) = v.get("residual") {
        config.residual = match r.as_str().ok_or("residual must be a string")? {
            "merge" => ResidualPolicy::MergeIntoNearest,
            "suppress" => ResidualPolicy::Suppress,
            other => return Err(format!("residual must be merge|suppress, got '{other}'")),
        };
    }
    config.reshape = bool_field(v, "reshape", config.reshape)?;
    if let Some(t) = v.get("threads") {
        config.threads = t.as_usize().ok_or("threads must be an unsigned integer")?;
    }
    if let Some(s) = v.get("shard") {
        config.shard = match s {
            JsonValue::Null => None,
            obj => Some(ShardPolicy {
                shards: obj
                    .get("shards")
                    .and_then(JsonValue::as_usize)
                    .ok_or("shard.shards must be an unsigned integer")?,
                by: match obj.get("by") {
                    None => ShardBy::default(),
                    Some(b) => b.as_str().ok_or("shard.by must be a string")?.parse()?,
                },
            }),
        };
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::config::Pruning;

    #[test]
    fn default_round_trips() {
        let c = StreamConfig::default();
        let back = stream_config_from_value(&stream_config_to_value(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn non_default_round_trips_exactly() {
        let c = StreamConfig {
            window_min: 720,
            carry: CarryPolicy::Sticky,
            under_k: UnderKPolicy::Defer,
            glove: GloveConfig {
                k: 7,
                stretch: StretchConfig {
                    phi_max_space_m: 12_345.678,
                    phi_max_time_min: 90.5,
                    w_space: 0.3,
                    w_time: 0.7,
                    population_weighting: false,
                },
                suppression: SuppressionThresholds::table2(),
                residual: ResidualPolicy::Suppress,
                reshape: false,
                threads: 3,
                shard: Some(ShardPolicy::two_level(9)),
                ..GloveConfig::default()
            },
        };
        let back = stream_config_from_value(&stream_config_to_value(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn minimal_json_takes_defaults() {
        let v = JsonValue::parse(r#"{"glove": {"k": 3}}"#).unwrap();
        let c = stream_config_from_value(&v).unwrap();
        assert_eq!(c.glove.k, 3);
        assert_eq!(c.window_min, StreamConfig::default().window_min);
        assert_eq!(c.glove.pruning, Pruning::Cascade);
    }

    #[test]
    fn old_clients_oracle_keys_are_ignored() {
        // An older `glove send` always sends the three oracle switches; the
        // tenant still runs the library defaults.
        let v = JsonValue::parse(
            r#"{"glove": {"k": 3, "pruning": false, "cascade": false, "columnar": false}}"#,
        )
        .unwrap();
        let c = stream_config_from_value(&v).unwrap();
        let defaults = GloveConfig::default();
        assert_eq!(c.glove.k, 3);
        assert_eq!(c.glove.pruning, defaults.pruning);
        assert_eq!(c.glove.columnar, defaults.columnar);
        assert_eq!(c.glove, GloveConfig { k: 3, ..defaults });
    }

    #[test]
    fn bad_fields_are_rejected() {
        for text in [
            r#"{"window_min": "day"}"#,
            r#"{"carry": "warm"}"#,
            r#"{"glove": {"residual": "drop"}}"#,
            r#"{"glove": {"shard": {"by": "geohash", "shards": 2}}}"#,
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert!(stream_config_from_value(&v).is_err(), "{text}");
        }
    }
}
