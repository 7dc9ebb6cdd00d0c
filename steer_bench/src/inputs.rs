//! Everything a workload is fed, made from `--seed`: the generated jobs,
//! the group keys and the request streams. The program under test only
//! ever receives these.

use std::collections::{BTreeMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_exec::ArrivalCurve;
use scope_ir::Job;
use scope_optimizer::{compile_job, RuleConfig, RuleSignature};
use scope_workload::{Workload, WorkloadProfile, WorkloadTag};
use steer_core::ServeRequest;

/// SplitMix64 finalizer: one independent stream per `(seed, stream)`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's workload `tag` at `scale`, with `seed` folded into the
/// profile's own seed so every tag draws its own template population.
pub fn generate(tag: WorkloadTag, scale: f64, seed: u64) -> Workload {
    let mut profile = WorkloadProfile::for_tag(tag, scale);
    profile.seed ^= mix(seed, 1);
    Workload::generate(profile)
}

/// One job's group key as the serving path sees it: the default plan's
/// rule signature and its 256-character rendering.
pub fn group_key(job: &Job) -> Option<(RuleSignature, String)> {
    let compiled = compile_job(job, &RuleConfig::default_config()).ok()?;
    Some((compiled.signature, compiled.signature.to_bit_string()))
}

/// The distinct group keys of some job-days, most requested first, and
/// the key of every job-day in arrival order (the production key mix).
pub struct KeyMix {
    pub distinct: Vec<(RuleSignature, String)>,
    pub stream: Vec<usize>,
}

pub fn key_mix(days: &[Vec<Job>]) -> KeyMix {
    let mut counts: BTreeMap<String, (RuleSignature, usize)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for job in days.iter().flatten() {
        if let Some((sig, key)) = group_key(job) {
            counts.entry(key.clone()).or_insert((sig, 0)).1 += 1;
            order.push(key);
        }
    }
    let mut ranked: Vec<(String, RuleSignature, usize)> =
        counts.into_iter().map(|(k, (s, n))| (k, s, n)).collect();
    ranked.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let rank: BTreeMap<&str, usize> = ranked
        .iter()
        .enumerate()
        .map(|(i, (k, _, _))| (k.as_str(), i))
        .collect();
    let stream = order.iter().map(|k| rank[k.as_str()]).collect();
    KeyMix {
        distinct: ranked.iter().map(|(k, s, _)| (*s, k.clone())).collect(),
        stream,
    }
}

/// A real-looking key no published hint has: `key` with one bit flipped.
fn unhinted(key: &str, taken: &HashSet<&str>, rng: &mut StdRng) -> String {
    loop {
        let mut bytes = key.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).expect("bit strings are ASCII");
        if !taken.contains(flipped.as_str()) {
            return flipped;
        }
    }
}

/// How a serving workload draws the key of each request.
#[derive(Clone, Copy)]
pub enum KeyDraw {
    /// Zipf(1.0) over the distinct keys by rank; `miss` of the requests
    /// carry an unhinted key instead.
    Zipf { miss: f64 },
    /// The production mix: a job-day drawn uniformly, so keys repeat as
    /// often as jobs share a signature; all but `hit` of the requests
    /// carry an unhinted variant of the drawn key.
    Production { hit: f64 },
}

/// `n_batches` batches of `batch` requests over `mix`, arrivals spread
/// over a virtual day each so admission control never sheds.
pub fn request_batches(
    mix: &KeyMix,
    draw: KeyDraw,
    n_batches: usize,
    batch: usize,
    seed: u64,
) -> Vec<Vec<ServeRequest>> {
    let mut rng = StdRng::seed_from_u64(self::mix(seed, 2));
    let taken: HashSet<&str> = mix.distinct.iter().map(|(_, k)| k.as_str()).collect();
    let mut cumulative = Vec::with_capacity(mix.distinct.len());
    let mut total = 0.0;
    for rank in 0..mix.distinct.len() {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    let curve = ArrivalCurve::new(seed);
    (0..n_batches)
        .map(|b| {
            (0..batch)
                .map(|i| {
                    let (rank, hit) = match draw {
                        KeyDraw::Zipf { miss } => {
                            let u = rng.gen::<f64>() * total;
                            let rank = cumulative.partition_point(|&c| c < u);
                            (rank.min(cumulative.len() - 1), !rng.gen_bool(miss))
                        }
                        KeyDraw::Production { hit } => (
                            mix.stream[rng.gen_range(0..mix.stream.len())],
                            rng.gen_bool(hit),
                        ),
                    };
                    let key = &mix.distinct[rank].1;
                    ServeRequest {
                        job_id: rng.gen(),
                        group_key: if hit {
                            key.clone()
                        } else {
                            unhinted(key, &taken, &mut rng)
                        },
                        arrival_us: curve.arrival_us(b as u32, i as u64, None),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        let a = generate(WorkloadTag::A, 0.05, 7).day(1);
        let b = generate(WorkloadTag::A, 0.05, 7).day(1);
        let c = generate(WorkloadTag::A, 0.05, 8).day(1);
        let hashes = |jobs: &[Job]| jobs.iter().map(|j| j.plan.plan_hash()).collect::<Vec<_>>();
        assert_eq!(hashes(&a), hashes(&b));
        assert_ne!(hashes(&a), hashes(&c));
    }

    #[test]
    fn request_streams_repeat_and_miss_as_often_as_asked() {
        let days = vec![generate(WorkloadTag::A, 0.1, 3).day(1)];
        let mix = key_mix(&days);
        assert!(!mix.distinct.is_empty());
        assert_eq!(mix.stream.len(), days[0].len());
        let taken: HashSet<&str> = mix.distinct.iter().map(|(_, k)| k.as_str()).collect();
        let batches = request_batches(&mix, KeyDraw::Zipf { miss: 0.1 }, 2, 2000, 3);
        let again = request_batches(&mix, KeyDraw::Zipf { miss: 0.1 }, 2, 2000, 3);
        assert_eq!(batches, again);
        let hits = batches
            .iter()
            .flatten()
            .filter(|r| taken.contains(r.group_key.as_str()))
            .count();
        assert!((3400..=3800).contains(&hits), "{hits} of 4000 hit");
        assert!(batches
            .iter()
            .flatten()
            .all(|r| r.group_key.len() == mix.distinct[0].1.len()));
    }
}
