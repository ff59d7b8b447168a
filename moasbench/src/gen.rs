//! Seeded workload generators: the one PRNG, the synthetic served table with
//! its query mix and reference verdicts, the churn batches, and the MRT
//! table-dump archive.
//!
//! Everything here is a pure function of its arguments, so one `--seed`
//! reproduces one set of inputs. The reference verdicts are computed from the
//! generator's own arithmetic (which synthetic entry covers a query), never
//! through the trie or `validate_detailed`, so a wrong answer from the program
//! cannot also be the expected one.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use bgp_wire::bgp::PathAttributes;
use bgp_wire::day_to_timestamp;
use bgp_wire::mrt::{
    MrtBody, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
};
use moas_daemon::{OriginTable, TableUpdate};

/// Deterministic xorshift64*, seeded through splitmix64 so that small
/// consecutive seeds (1, 2, 3 ...) give unrelated streams and seed 0 works.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        (self.next() >> 11) % bound
    }
}

/// An independent stream for one purpose (`salt`) of one `--seed`.
pub fn stream(seed: u64, salt: u64) -> Rng {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

// ---------------------------------------------------------------------------
// The served table
// ---------------------------------------------------------------------------

/// Shape of the synthetic served table: `dense` /24s packed from 16.0.0.0
/// upward plus every /16 and /8 that covers one of them, two origins each, so
/// a /24 query walks a covering chain of three.
#[derive(Debug, Clone, Copy)]
pub struct TableShape {
    pub dense: usize,
}

impl TableShape {
    /// 2^20 /24s fill 16.0.0.0/4 exactly: 4,096 covering /16s, 16 covering /8s.
    pub const FULL: TableShape = TableShape { dense: 1 << 20 };
    pub const SMOKE: TableShape = TableShape { dense: 1 << 12 };

    pub fn count16(self) -> usize {
        self.dense.div_ceil(256)
    }

    pub fn count8(self) -> usize {
        self.dense.div_ceil(65_536)
    }

    pub fn prefix_count(self) -> usize {
        self.dense + self.count16() + self.count8()
    }

    pub fn slash24(self, i: usize) -> (Ipv4Prefix, [Asn; 2]) {
        debug_assert!(i < self.dense);
        let prefix = Ipv4Prefix::new((16u32 << 24) | ((i as u32) << 8), 24);
        let i = i as u32;
        (prefix, [Asn(64_512 + i % 128), Asn(65_000 + i % 64)])
    }

    pub fn slash16(self, j: usize) -> (Ipv4Prefix, [Asn; 2]) {
        let prefix = Ipv4Prefix::new((16u32 << 24) | ((j as u32) << 16), 16);
        let j = j as u32;
        (prefix, [Asn(60_000 + j % 100), Asn(61_000 + j % 50)])
    }

    pub fn slash8(self, k: usize) -> (Ipv4Prefix, [Asn; 2]) {
        let prefix = Ipv4Prefix::new((16 + k as u32) << 24, 8);
        (prefix, [Asn(59_000 + k as u32), Asn(59_500 + k as u32)])
    }

    /// Every `(prefix, origins)` of the table, in no particular order.
    pub fn entries(self) -> impl Iterator<Item = (Ipv4Prefix, [Asn; 2])> {
        (0..self.count8())
            .map(move |k| self.slash8(k))
            .chain((0..self.count16()).map(move |j| self.slash16(j)))
            .chain((0..self.dense).map(move |i| self.slash24(i)))
    }

    /// Builds the table through the program's bulk-load entry point.
    pub fn build(self) -> OriginTable {
        let mut table = OriginTable::new(9);
        for (prefix, origins) in self.entries() {
            table.insert(prefix, origins.into_iter().collect::<MoasList>());
        }
        table
    }

    /// /24 indices with these low bits belong to the churn writer; readers
    /// never query them, so a reader's expected body does not depend on how
    /// far the writer has got.
    pub fn in_churn_lane(i: usize) -> bool {
        i & 15 == 7
    }
}

/// One `/validity` query with the body the daemon must answer.
#[derive(Debug, Clone)]
pub struct Query {
    pub path: String,
    pub prefix: Ipv4Prefix,
    pub asn: Asn,
    pub expected: String,
}

fn validity_body(prefix: Ipv4Prefix, asn: Asn, matched: Option<(Ipv4Prefix, [Asn; 2])>) -> String {
    let mut body = String::with_capacity(128);
    match matched {
        None => write!(
            body,
            "{{\"prefix\":\"{prefix}\",\"asn\":{},\"state\":\"not-found\"}}",
            asn.0
        ),
        Some((entry, mut origins)) => {
            origins.sort();
            let state = if origins.contains(&asn) {
                "valid"
            } else {
                "invalid"
            };
            write!(
                body,
                "{{\"prefix\":\"{prefix}\",\"asn\":{},\"state\":\"{state}\",\"matchedPrefix\":\"{entry}\",\"origins\":[{},{}]}}",
                asn.0, origins[0].0, origins[1].0
            )
        }
    }
    .expect("write to String cannot fail");
    body
}

/// `count` seeded queries: one third valid, one third invalid origin, one
/// third not-found. Of the hits, 3/4 ask for a stored /24, 1/8 for a /28
/// inside one (decided by the /24 above it) and 1/8 for a /20 (decided by the
/// /16 above it: the /24s below a query never legitimise it).
pub fn queries(shape: TableShape, seed: u64, count: usize) -> Vec<Query> {
    let mut rng = stream(seed, 1);
    (0..count)
        .map(|_| {
            let kind = rng.below(3);
            let roll = rng.next();
            let mut i = (roll >> 16) as usize % shape.dense;
            if TableShape::in_churn_lane(i) {
                i ^= 1;
            }
            let (prefix, asn, matched) = if kind == 2 {
                // Outside 16.0.0.0/4, so nothing covers it.
                let addr = (198u32 << 24) | (((roll >> 8) as u32 & 0xFFFF) << 8);
                (Ipv4Prefix::new(addr, 24), Asn(64_000), None)
            } else {
                let (p24, o24) = shape.slash24(i);
                let (prefix, entry) = match roll & 7 {
                    0 => (
                        Ipv4Prefix::new(p24.network() | ((roll >> 40) as u32 & 0xF0), 28),
                        (p24, o24),
                    ),
                    1 => (
                        Ipv4Prefix::new(p24.network() & 0xFFFF_F000, 20),
                        shape.slash16(i / 256),
                    ),
                    _ => (p24, (p24, o24)),
                };
                let asn = if kind == 0 {
                    entry.1[(roll >> 3) as usize & 1]
                } else {
                    Asn(64_000)
                };
                (prefix, asn, Some(entry))
            };
            Query {
                path: format!("/validity?prefix={prefix}&asn={}", asn.0),
                prefix,
                asn,
                expected: validity_body(prefix, asn, matched),
            }
        })
        .collect()
}

/// The churn writer's model of its lane: which `(prefix, origin)` pairs the
/// daemon must hold there, updated as batches are generated.
#[derive(Debug)]
pub struct ChurnModel {
    shape: TableShape,
    rng: Rng,
    lane: BTreeSet<(Ipv4Prefix, Asn)>,
}

impl ChurnModel {
    pub fn new(shape: TableShape, seed: u64) -> Self {
        let lane = (0..shape.dense)
            .filter(|&i| TableShape::in_churn_lane(i))
            .flat_map(|i| {
                let (prefix, origins) = shape.slash24(i);
                origins.map(|asn| (prefix, asn))
            })
            .collect();
        ChurnModel {
            shape,
            rng: stream(seed, 2),
            lane,
        }
    }

    /// The next batch: `size` distinct `(prefix, origin)` toggles inside the
    /// lane (withdraw when held, announce when not), each of which changes
    /// the table, so the feed diff must carry exactly `size` entries.
    pub fn next_batch(&mut self, size: usize) -> Vec<TableUpdate> {
        let lane_len = self.shape.dense / 16;
        let mut picked: Vec<(Ipv4Prefix, Asn)> = Vec::with_capacity(size);
        while picked.len() < size {
            let i = self.rng.below(lane_len as u64) as usize * 16 + 7;
            let (prefix, origins) = self.shape.slash24(i);
            let asn = match self.rng.below(4) {
                0 => origins[0],
                1 => origins[1],
                n => Asn(64_900 + n as u32),
            };
            if !picked.contains(&(prefix, asn)) {
                picked.push((prefix, asn));
            }
        }
        picked
            .into_iter()
            .map(|(prefix, asn)| {
                if self.lane.remove(&(prefix, asn)) {
                    TableUpdate::withdraw(prefix, asn)
                } else {
                    self.lane.insert((prefix, asn));
                    TableUpdate::announce(prefix, asn)
                }
            })
            .collect()
    }

    /// Every `(prefix, origin)` the daemon must hold now, ascending.
    pub fn expected_entries(&self) -> Vec<(Ipv4Prefix, Asn)> {
        let mut all: Vec<(Ipv4Prefix, Asn)> = self
            .shape
            .entries()
            .filter(|(prefix, _)| {
                prefix.len() != 24
                    || !TableShape::in_churn_lane((prefix.network() as usize >> 8) & 0xF_FFFF)
            })
            .flat_map(|(prefix, origins)| origins.map(|asn| (prefix, asn)))
            .chain(self.lane.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

// ---------------------------------------------------------------------------
// The MRT archive
// ---------------------------------------------------------------------------

/// Shape of the synthetic table-dump archive.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveShape {
    pub prefixes: usize,
    pub entries_per_prefix: usize,
    pub days: u32,
    pub distinct_paths: usize,
}

impl ArchiveShape {
    /// ~65 MiB: 200k prefixes x 3 peers x 2 days over 512 shared AS paths.
    pub const FULL: ArchiveShape = ArchiveShape {
        prefixes: 200_000,
        entries_per_prefix: 3,
        days: 2,
        distinct_paths: 512,
    };
    pub const SMOKE: ArchiveShape = ArchiveShape {
        prefixes: 2_000,
        entries_per_prefix: 3,
        days: 2,
        distinct_paths: 64,
    };

    pub fn rib_entries(self) -> usize {
        self.prefixes * self.entries_per_prefix * self.days as usize
    }
}

/// The archive's collector roster.
fn peers() -> Vec<PeerEntry> {
    [7018u32, 701, 1239, 3356, 2914, 174, 6453, 3257]
        .iter()
        .enumerate()
        .map(|(i, &asn)| PeerEntry {
            bgp_id: 0x0A00_0000 + i as u32,
            addr: 0xC0A8_0000 + i as u32,
            asn: Asn(asn),
        })
        .collect()
}

/// A pool of distinct AS paths. Real dumps repeat a modest set of paths
/// across a huge number of entries.
fn path_pool(rng: &mut Rng, size: usize) -> Vec<AsPath> {
    (0..size)
        .map(|_| {
            let hops = 3 + rng.below(4) as usize;
            AsPath::from_sequence((0..hops).map(|_| Asn(1 + rng.below(60_000) as u32)))
        })
        .collect()
}

/// Encodes the archive: each day re-announces every prefix from
/// `entries_per_prefix` peers with paths drawn from the pool, so most
/// prefixes end up multi-origin. Every fifth prefix is a /16.
pub fn make_archive(shape: ArchiveShape, seed: u64) -> Vec<u8> {
    let mut rng = stream(seed, 3);
    let pool = path_pool(&mut rng, shape.distinct_paths);
    let roster = peers();
    let mut writer = MrtWriter::new(Vec::new());
    for day in 0..shape.days {
        let timestamp = day_to_timestamp(day);
        writer
            .write_record(&MrtRecord {
                timestamp,
                body: MrtBody::PeerIndexTable(PeerIndexTable {
                    collector_id: 0x0A00_00FE,
                    view_name: "bench".into(),
                    peers: roster.clone(),
                }),
            })
            .expect("encode into memory");
        for i in 0..shape.prefixes {
            let prefix = Ipv4Prefix::new(
                (10u32 << 24).wrapping_add((i as u32) << 8),
                if i % 5 == 0 { 16 } else { 24 },
            );
            let entries: Vec<RibEntry> = (0..shape.entries_per_prefix)
                .map(|e| {
                    let path = &pool[rng.below(pool.len() as u64) as usize];
                    RibEntry {
                        peer_index: ((i + e) % roster.len()) as u16,
                        originated_time: timestamp,
                        attrs: PathAttributes::from_route(&Route::new(prefix, path.clone())),
                    }
                })
                .collect();
            writer
                .write_record(&MrtRecord {
                    timestamp,
                    body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                        sequence: i as u32,
                        prefix,
                        entries,
                    }),
                })
                .expect("encode into memory");
        }
    }
    writer.finish().expect("encode into memory")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moas_daemon::{validate_detailed, ExceptionSet};

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = queries(TableShape::SMOKE, 5, 64);
        let b = queries(TableShape::SMOKE, 5, 64);
        let c = queries(TableShape::SMOKE, 6, 64);
        let paths = |q: &[Query]| q.iter().map(|q| q.path.clone()).collect::<Vec<_>>();
        assert_eq!(paths(&a), paths(&b));
        assert_ne!(paths(&a), paths(&c));
        assert_eq!(
            make_archive(ArchiveShape::SMOKE, 5),
            make_archive(ArchiveShape::SMOKE, 5)
        );
    }

    /// The arithmetic reference agrees with a linear scan of the built
    /// table's snapshot: most specific stored prefix that contains the query.
    #[test]
    fn reference_bodies_match_a_linear_scan() {
        let shape = TableShape::SMOKE;
        let snapshot = shape.build().snapshot();
        for q in queries(shape, 11, 300) {
            let best = snapshot
                .iter()
                .filter(|(p, _)| p.contains(q.prefix))
                .map(|(p, _)| *p)
                .max_by_key(|p| p.len());
            let state = match best {
                None => "not-found",
                Some(p) if snapshot.contains(&(p, q.asn)) => "valid",
                Some(_) => "invalid",
            };
            assert!(
                q.expected.contains(&format!("\"state\":\"{state}\"")),
                "{} expected {}",
                q.path,
                q.expected
            );
            if let Some(p) = best {
                assert!(q.expected.contains(&format!("\"matchedPrefix\":\"{p}\"")));
            }
        }
    }

    #[test]
    fn reference_bodies_cover_all_three_verdicts_and_chain_depths() {
        let qs = queries(TableShape::SMOKE, 3, 600);
        for needle in [
            "\"valid\"",
            "\"invalid\"",
            "not-found",
            "/16\",\"origins",
            "/28\",\"asn",
        ] {
            assert!(qs.iter().any(|q| q.expected.contains(needle)), "{needle}");
        }
        let table = TableShape::SMOKE.build();
        let q = &qs[0];
        let v = validate_detailed(&table, &ExceptionSet::empty(), q.prefix, q.asn);
        assert!(q.expected.contains(v.verdict.as_str()));
    }

    #[test]
    fn churn_batches_always_change_the_table_and_the_model_tracks_it() {
        let shape = TableShape::SMOKE;
        let mut table = shape.build();
        let mut model = ChurnModel::new(shape, 9);
        for _ in 0..200 {
            let batch = model.next_batch(8);
            let delta = table.apply(&batch);
            assert_eq!(delta.announced.len() + delta.withdrawn.len(), 8);
        }
        assert_eq!(table.snapshot(), model.expected_entries());
    }
}
