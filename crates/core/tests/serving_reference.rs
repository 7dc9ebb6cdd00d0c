//! The serving table against an ordered-map reference: random sequences
//! of publishes, torn publishes, retires and served days must give, for
//! every lookup and every decision, exactly what a `BTreeMap` of the
//! published entries implies. Request keys come in four kinds: published
//! keys, one-character mutations of them, prefixes and extensions of
//! them, and keys that are not bit strings at all; the table's group keys
//! share long prefixes, as real rule signatures do.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection;
use proptest::prelude::*;
use scope_exec::ServeFaultProfile;
use scope_optimizer::{RuleCatalog, RuleConfig};
use steer_core::{
    Decision, DecisionReason, Lookup, ServeRequest, ServiceConfig, ServingEntry, SteeringService,
};

/// Publishable keys: bit strings that differ in a few late positions,
/// plus one key that is not a bit string.
fn pool() -> Vec<String> {
    let mut keys: Vec<String> = (0..10u32)
        .map(|i| {
            (0..256u32)
                .map(|p| {
                    let late = (200..210).contains(&p) && (i >> ((p - 200) % 4)) & 1 == 1;
                    if p % 37 == 0 || late {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect()
        })
        .collect();
    keys.push("g1".to_string());
    keys
}

/// A request key of one of the four kinds, drawn from `pick`.
fn request_key(pool: &[String], pick: u32) -> String {
    let key = &pool[(pick >> 3) as usize % pool.len()];
    let at = (pick >> 8) as usize % key.len();
    match pick % 8 {
        // Published (or publishable) keys, twice as often as the rest.
        0 | 1 => key.clone(),
        // One character changed.
        2 => {
            let mut k = key.clone().into_bytes();
            k[at] = if k[at] == b'0' { b'1' } else { b'0' };
            String::from_utf8(k).expect("ASCII key")
        }
        // A prefix, or the key with one more bit.
        3 => key[..at].to_string(),
        4 => format!("{key}{}", pick & 1),
        // Not a bit string.
        5 => "g2".to_string(),
        6 => String::new(),
        _ => "x".repeat(256),
    }
}

fn config(pick: u32) -> RuleConfig {
    let optional: Vec<_> = RuleCatalog::global().non_required().iter().collect();
    let mut c = RuleConfig::default_config();
    let id = optional[pick as usize % optional.len()];
    if c.is_enabled(id) {
        c.disable(id);
    } else {
        c.enable(id);
    }
    c
}

/// Damage one field of `e` after its checksum was computed.
fn tear(e: &mut ServingEntry, pick: u32) {
    match pick % 4 {
        0 => e.exposure_pct ^= 1,
        1 => e.salt = e.salt.wrapping_add(1),
        2 => e.version += 1,
        _ => e.check ^= 1,
    }
}

/// The reference table: published entries by key, with whether each was
/// torn on the way in.
type Reference = BTreeMap<String, (ServingEntry, bool)>;

fn reference_lookup(reference: &Reference, key: &str) -> Lookup {
    match reference.get(key) {
        None => Lookup::Miss,
        Some((_, true)) => Lookup::Torn,
        Some((e, false)) => Lookup::Hit(Arc::new(e.clone())),
    }
}

/// The decision the reference implies for an admitted request; admission
/// fields (latency, mode) are the service's own.
fn reference_decision(reference: &Reference, r: &ServeRequest, served: &Decision) -> Decision {
    let (steered, group, config, reason) = match reference_lookup(reference, &r.group_key) {
        Lookup::Miss => (false, None, None, DecisionReason::NoHint),
        Lookup::Torn => (false, None, None, DecisionReason::TornEntry),
        Lookup::Hit(e) if scope_exec::in_rollout(r.job_id, e.salt, e.exposure_pct) => (
            true,
            Some(e.group.clone()),
            Some(e.config.clone()),
            DecisionReason::Steered,
        ),
        Lookup::Hit(_) => (false, None, None, DecisionReason::HeldBack),
    };
    Decision {
        job_id: r.job_id,
        arrival_us: r.arrival_us,
        latency_us: served.latency_us,
        steered,
        group,
        config: config.unwrap_or_else(RuleConfig::default_config),
        reason,
        mode: served.mode,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_table_answers_like_an_ordered_map(
        ops in collection::vec((0u32..4, any::<u32>(), any::<u32>(), any::<u32>()), 1..40),
    ) {
        let pool = pool();
        let mut service = SteeringService::new(ServiceConfig {
            // Nothing is shed, so every request reaches the table.
            max_inflight: usize::MAX,
            ..ServiceConfig::default()
        });
        let mut reference = Reference::new();
        let mut version = 0u64;
        let mut next_job = 0u64;
        for (step, &(op, a, b, c)) in ops.iter().enumerate() {
            match op {
                // Publish a subset of the pool; a torn publish damages one
                // of its entries.
                0 | 1 => {
                    version += 1;
                    let mut entries: Vec<ServingEntry> = pool
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| (a >> i) & 1 == 1)
                        .map(|(i, g)| {
                            let exposure = [1u8, 5, 25, 50, 100][(b as usize + i) % 5];
                            let salt = u64::from(c) ^ (i as u64) << 32;
                            let config = config(b ^ i as u32);
                            ServingEntry::new(g.clone(), config, exposure, salt, version)
                        })
                        .collect();
                    let torn = (op == 1 && !entries.is_empty())
                        .then(|| c as usize % entries.len());
                    if let Some(t) = torn {
                        tear(&mut entries[t], b);
                    }
                    reference = entries
                        .iter()
                        .enumerate()
                        .map(|(i, e)| (e.group.clone(), (e.clone(), torn == Some(i))))
                        .collect();
                    prop_assert_eq!(service.table.publish(entries), reference.len());
                }
                // Retire a key of any kind.
                2 => {
                    let key = request_key(&pool, a);
                    let retired = service.retire(&key);
                    let expected = reference.remove(&key).is_some();
                    prop_assert!(
                        retired == expected,
                        "retire {key}: {retired}, expected {expected}"
                    );
                }
                // Serve a day of requests.
                _ => {
                    let requests: Vec<ServeRequest> = (0..(a % 64) as u64)
                        .map(|i| {
                            next_job += 1;
                            ServeRequest {
                                job_id: next_job,
                                group_key: request_key(
                                    &pool,
                                    b.rotate_left(i as u32) ^ c.wrapping_mul(i as u32),
                                ),
                                arrival_us: i * 10_000,
                            }
                        })
                        .collect();
                    let none = ServeFaultProfile::none();
                    let report = service.serve_day(&requests, &none, step as u32, 1);
                    prop_assert_eq!(report.decisions.len(), requests.len());
                    for (r, d) in requests.iter().zip(&report.decisions) {
                        prop_assert_eq!(d, &reference_decision(&reference, r, d));
                    }
                }
            }
            prop_assert_eq!(service.table.len(), reference.len());
            for pick in 0..512u32 {
                let key = request_key(&pool, pick.wrapping_mul(0x9e37_79b9) ^ a);
                let got = service.table.lookup(&key);
                let expected = reference_lookup(&reference, &key);
                prop_assert!(got == expected, "lookup {key}: {got:?}, expected {expected:?}");
            }
        }
    }
}
