//! The versioned prefix → origin-set table behind the daemon, plus the
//! bounded ring of per-serial deltas that makes incremental feed sync cheap.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;

use bgp_types::{Asn, Covering, Ipv4Prefix, MoasList, PrefixTrie};
use bgp_wire::mrt::{MrtBody, PeerIndexTable};
use bgp_wire::{MrtViewReader, TableDumpWalk, WireError, WireErrorKind};
use experiments::json::{Json, JsonError};

/// One `(prefix, origin)` change to apply to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableUpdate {
    /// `true` adds the origin to the prefix's MOAS list, `false` removes it.
    pub announce: bool,
    /// The prefix whose origin set changes.
    pub prefix: Ipv4Prefix,
    /// The origin AS being added or removed.
    pub asn: Asn,
}

impl TableUpdate {
    /// An announce update.
    #[must_use]
    pub fn announce(prefix: Ipv4Prefix, asn: Asn) -> Self {
        TableUpdate {
            announce: true,
            prefix,
            asn,
        }
    }

    /// A withdraw update.
    #[must_use]
    pub fn withdraw(prefix: Ipv4Prefix, asn: Asn) -> Self {
        TableUpdate {
            announce: false,
            prefix,
            asn,
        }
    }
}

/// The net effect of one applied update batch: the change set a client at
/// `serial - 1` must apply to reach `serial`.
///
/// Only *effective* changes are recorded — announcing an origin already in
/// the list, or withdrawing one that was never there, contributes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableDelta {
    /// The serial this delta produces.
    pub serial: u32,
    /// `(prefix, origin)` pairs added.
    pub announced: Vec<(Ipv4Prefix, Asn)>,
    /// `(prefix, origin)` pairs removed.
    pub withdrawn: Vec<(Ipv4Prefix, Asn)>,
}

impl TableDelta {
    /// `true` when the batch changed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

/// Half the 32-bit serial space. Spans larger than this are treated as the
/// client being *ahead* of the server (RFC 1982 serial-number arithmetic),
/// which is only answerable with a cache reset.
const SERIAL_HALF: u32 = u32::MAX / 2;

/// The number of forward applies separating serial `from` from serial `to`
/// in the wrapping 32-bit serial space (RFC 1982 arithmetic: the serial
/// after `u32::MAX` is `0`).
#[must_use]
pub fn serial_distance(from: u32, to: u32) -> u32 {
    to.wrapping_sub(from)
}

/// RFC 1982 ordering: `true` when `b` lies strictly ahead of `a` by fewer
/// than half the serial space — i.e. a client at `a` can catch up to `b`
/// with forward deltas. Distances of half the space or more are
/// indeterminate and answered with a cache reset, never a diff.
#[must_use]
pub fn serial_less(a: u32, b: u32) -> bool {
    let d = serial_distance(a, b);
    d != 0 && d <= SERIAL_HALF
}

/// The daemon's origin-validation table: MOAS lists in a prefix trie,
/// versioned by a serial that advances one step per effective apply.
///
/// The serial identifies a table *state*; every [`apply`](Self::apply) call
/// that changes something advances it by one, wrapping from `u32::MAX` to
/// `0` under RFC 1982 serial arithmetic ([`serial_less`] /
/// [`serial_distance`] — the feed keeps diffing straight across the wrap).
/// Pre-serving bulk loads go through [`insert`](Self::insert), which leaves
/// the serial alone — the loaded table **is** the current serial's state.
#[derive(Debug, Clone)]
pub struct OriginTable {
    trie: PrefixTrie<MoasList>,
    /// Sum of the stored lists' lengths, kept by every mutation so that
    /// [`entry_count`](Self::entry_count) is O(1).
    entry_count: usize,
    serial: u32,
    session_id: u16,
}

impl OriginTable {
    /// An empty table at serial 0 under the given feed session id.
    #[must_use]
    pub fn new(session_id: u16) -> Self {
        Self::with_serial(session_id, 0)
    }

    /// An empty table starting at an arbitrary serial — for restoring a
    /// persisted table at the serial it was saved under, and for exercising
    /// behavior near the `u32::MAX` wrap boundary.
    #[must_use]
    pub fn with_serial(session_id: u16, serial: u32) -> Self {
        OriginTable {
            trie: PrefixTrie::new(),
            entry_count: 0,
            serial,
            session_id,
        }
    }

    /// The current serial.
    #[must_use]
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The feed session id; a client holding serials from a different
    /// session must reset.
    #[must_use]
    pub fn session_id(&self) -> u16 {
        self.session_id
    }

    /// Number of prefixes with a non-empty origin set.
    #[must_use]
    pub fn prefix_count(&self) -> usize {
        self.trie.len()
    }

    /// Number of `(prefix, origin)` pairs — the feed's unit of transfer.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Replaces the origin set of `prefix` without touching the serial
    /// (bulk loading). An empty list removes the prefix.
    pub fn insert(&mut self, prefix: Ipv4Prefix, origins: MoasList) {
        let added = origins.len();
        let replaced = if origins.is_empty() {
            self.trie.remove(prefix)
        } else {
            self.trie.insert(prefix, origins)
        };
        self.entry_count -= replaced.map_or(0, |list| list.len());
        self.entry_count += added;
    }

    /// The origin set stored for exactly `prefix`.
    #[must_use]
    pub fn origins(&self, prefix: Ipv4Prefix) -> Option<&MoasList> {
        self.trie.get(prefix)
    }

    /// Every stored entry covering `prefix` (including `prefix` itself),
    /// least-specific first.
    #[must_use]
    pub fn covering(&self, prefix: Ipv4Prefix) -> Covering<'_, MoasList> {
        self.trie.covering_matches(prefix)
    }

    /// Every `(prefix, origin)` pair in deterministic order (ascending
    /// prefix, then ASN) — what a feed reset sync transfers, without
    /// collecting it first.
    pub fn entries(&self) -> impl Iterator<Item = (Ipv4Prefix, Asn)> + '_ {
        self.trie
            .iter()
            .flat_map(|(prefix, list)| list.iter().map(move |asn| (prefix, asn)))
    }

    /// [`entries`](Self::entries), collected.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Ipv4Prefix, Asn)> {
        let mut out = Vec::with_capacity(self.entry_count);
        out.extend(self.entries());
        out
    }

    /// Applies an update batch atomically, returning the effective delta.
    /// The serial increments only when the batch changed something.
    pub fn apply(&mut self, updates: &[TableUpdate]) -> TableDelta {
        let mut delta = TableDelta::default();
        for update in updates {
            // The list changes where it stands in the trie; only a new
            // prefix or a list's last withdrawal walks the trie again.
            if update.announce {
                let added = match self.trie.get_mut(update.prefix) {
                    Some(list) => list.insert(update.asn),
                    None => {
                        self.trie
                            .insert(update.prefix, MoasList::implicit(update.asn));
                        true
                    }
                };
                if added {
                    self.entry_count += 1;
                    delta.announced.push((update.prefix, update.asn));
                }
            } else if let Some(list) = self.trie.get_mut(update.prefix) {
                if list.remove(update.asn) {
                    if list.is_empty() {
                        self.trie.remove(update.prefix);
                    }
                    self.entry_count -= 1;
                    delta.withdrawn.push((update.prefix, update.asn));
                }
            }
        }
        if !delta.is_empty() {
            // RFC 1982 wrapping: the serial after u32::MAX is 0. `+= 1`
            // here would panic in debug builds after 2^32 applies and leave
            // release builds with a serial the ring could not diff from.
            self.serial = self.serial.wrapping_add(1);
        }
        delta.serial = self.serial;
        delta
    }

    /// Loads a table from a JSON MOAS-list file:
    ///
    /// ```json
    /// { "moasLists": [ { "prefix": "10.1.0.0/16", "origins": [64512, 64513] } ] }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON or entries missing
    /// `prefix`/`origins`.
    pub fn from_json(text: &str, session_id: u16) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let lists = doc.get("moasLists").ok_or_else(|| JsonError {
            message: "missing 'moasLists' array".to_string(),
            offset: 0,
        })?;
        let Json::Arr(items) = lists else {
            return Err(JsonError {
                message: "'moasLists' must be an array".to_string(),
                offset: 0,
            });
        };
        let mut table = OriginTable::new(session_id);
        for item in items {
            let prefix = parse_prefix_field(item, "prefix")?;
            let origins = item.get("origins").ok_or_else(|| JsonError {
                message: "entry missing 'origins'".to_string(),
                offset: 0,
            })?;
            let Json::Arr(asns) = origins else {
                return Err(JsonError {
                    message: "'origins' must be an array of AS numbers".to_string(),
                    offset: 0,
                });
            };
            let mut list = MoasList::new();
            for asn in asns {
                match asn {
                    Json::Num(n) if *n >= 0.0 && *n <= f64::from(u32::MAX) && n.fract() == 0.0 => {
                        list.insert(Asn(*n as u32));
                    }
                    _ => {
                        return Err(JsonError {
                            message: "origins must be 32-bit AS numbers".to_string(),
                            offset: 0,
                        })
                    }
                }
            }
            table.insert(prefix, list);
        }
        Ok(table)
    }

    /// Serializes the table back to the [`from_json`](Self::from_json)
    /// format, in snapshot order.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let items: Vec<Json> = self
            .trie
            .iter()
            .map(|(prefix, list)| {
                Json::Obj(vec![
                    ("prefix".to_string(), Json::Str(prefix.to_string())),
                    (
                        "origins".to_string(),
                        Json::Arr(list.iter().map(|a| Json::Num(f64::from(a.0))).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("moasLists".to_string(), Json::Arr(items))]).pretty()
    }

    /// Derives a table from an MRT table-dump archive: a prefix's MOAS list
    /// is the union, over every day, of each RIB entry's origin — the
    /// `AS_PATH` origin, else the reporting peer's ASN, as
    /// [`TableDumpWalk`] resolves it (the paper's derivation of MOAS lists
    /// from route collectors, applied archive-wide). MOAS lists carried in
    /// communities are not read.
    ///
    /// Runs on the allocation-free ingest path: records stream through one
    /// reusable buffer, each RIB entry's origin is read straight off the
    /// wire, and the `(prefix, origin)` pairs are sorted and bulk-loaded
    /// into the trie in one pass ([`PrefixTrie::extend_sorted`]).
    ///
    /// # Errors
    ///
    /// The [`TableDumpWalk`]'s first I/O or wire-decoding error.
    pub fn from_mrt<R: io::Read>(reader: R, session_id: u16) -> Result<Self, WireError> {
        let mut walk = TableDumpWalk::new(reader);
        let mut pairs: Vec<(Ipv4Prefix, Asn)> = Vec::new();
        while walk.advance()? {
            walk.visit(|prefix, origin, _| pairs.push((prefix, origin)))?;
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut table = OriginTable::new(session_id);
        table.entry_count = pairs.len();
        // Each prefix's list is built once from its run of sorted origins:
        // no allocation for up to two, one exactly-sized one beyond that.
        table
            .trie
            .extend_sorted(pairs.chunk_by(|a, b| a.0 == b.0).map(|run| {
                let origins: MoasList = run.iter().map(|&(_, asn)| asn).collect();
                (run[0].0, origins)
            }));
        Ok(table)
    }

    /// [`from_mrt`](Self::from_mrt) over owned records: every record is
    /// rebuilt by [`MrtViewReader::next_record`], origins accumulate in a
    /// `BTreeMap`, and prefixes load one at a time; the two return identical
    /// tables for any archive. It exists only because the frozen `moasbench`
    /// builds its `ingest_mrt` reference with it, and goes when that
    /// benchmark may next be edited.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O or wire-decoding error.
    pub fn from_mrt_owned<R: io::Read>(reader: R, session_id: u16) -> Result<Self, WireError> {
        let mut mrt = MrtViewReader::new(reader);
        let mut peer_table: Option<PeerIndexTable> = None;
        let mut origins: BTreeMap<Ipv4Prefix, BTreeSet<Asn>> = BTreeMap::new();
        while let Some(record) = mrt.next_record()? {
            match record.body {
                MrtBody::PeerIndexTable(table) => peer_table = Some(table),
                MrtBody::RibIpv4Unicast(rib) => {
                    let table = peer_table.as_ref().ok_or(WireError {
                        kind: WireErrorKind::MissingPeerIndexTable,
                        offset: 0,
                    })?;
                    for entry in rib.entries {
                        let peer =
                            table
                                .peers
                                .get(usize::from(entry.peer_index))
                                .ok_or(WireError {
                                    kind: WireErrorKind::BadPeerIndex(entry.peer_index),
                                    offset: 0,
                                })?;
                        let route = entry.attrs.to_route(rib.prefix);
                        let origin = route.origin_as().unwrap_or(peer.asn);
                        origins.entry(rib.prefix).or_default().insert(origin);
                    }
                }
                MrtBody::RibIpv6Unicast(_) => {}
                MrtBody::Bgp4mpMessage(_) => {}
            }
        }
        let mut table = OriginTable::new(session_id);
        for (prefix, set) in origins {
            table.insert(prefix, set.into_iter().collect());
        }
        Ok(table)
    }
}

fn parse_prefix_field(item: &Json, field: &str) -> Result<Ipv4Prefix, JsonError> {
    match item.get(field) {
        Some(Json::Str(s)) => s.parse().map_err(|e| JsonError {
            message: format!("bad {field} '{s}': {e}"),
            offset: 0,
        }),
        _ => Err(JsonError {
            message: format!("entry missing string '{field}'"),
            offset: 0,
        }),
    }
}

/// A bounded ring of the most recent [`TableDelta`]s, keyed by the serial
/// each one produces.
///
/// A client at serial `s` asking for the changes up to the current serial
/// gets the merged deltas `s+1 ..= current` if the ring still holds them
/// all; once `s+1` has aged out the only answer is a cache reset. This is
/// the RTR cache model: bounded server memory, cheap diffs for live
/// clients, full resync for stragglers.
#[derive(Debug, Clone)]
pub struct DeltaRing {
    capacity: usize,
    deltas: VecDeque<TableDelta>,
}

impl DeltaRing {
    /// A ring retaining at most `capacity` deltas (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DeltaRing {
            capacity: capacity.max(1),
            deltas: VecDeque::new(),
        }
    }

    /// Number of deltas currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when no delta is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The oldest serial a diff can still start *from* (i.e. the serial a
    /// client must at least hold), if any deltas are retained. Wrapping:
    /// when the oldest retained delta produced serial 0, the serial to hold
    /// is `u32::MAX`.
    #[must_use]
    pub fn oldest_reachable_serial(&self) -> Option<u32> {
        self.deltas.front().map(|d| d.serial.wrapping_sub(1))
    }

    /// Retains an applied delta. Callers skip no-op deltas.
    pub fn push(&mut self, delta: TableDelta) {
        if self.deltas.len() == self.capacity {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
    }

    /// The merged change set taking a client from `from_serial` to
    /// `current_serial`, or `None` if the ring no longer covers that span
    /// (→ cache reset).
    ///
    /// Serial comparisons use RFC 1982 wrapping arithmetic
    /// ([`serial_less`]), so spans crossing the `u32::MAX → 0` wrap diff
    /// normally; a `from_serial` *ahead* of `current_serial` (or more than
    /// half the serial space behind) is never diffable.
    ///
    /// Changes cancel pairwise: an origin announced and later withdrawn
    /// within the span disappears from the diff entirely, so clients apply
    /// the minimal set, in deterministic (prefix, ASN) order.
    #[must_use]
    pub fn diff_since(&self, from_serial: u32, current_serial: u32) -> Option<TableDelta> {
        if from_serial == current_serial {
            return Some(TableDelta {
                serial: current_serial,
                ..TableDelta::default()
            });
        }
        if !serial_less(from_serial, current_serial) {
            return None;
        }
        let span = serial_distance(from_serial, current_serial);
        // The span must be fully covered by retained deltas: the oldest
        // reachable serial must be at or behind `from_serial` on the walk
        // back from `current_serial`.
        match self.oldest_reachable_serial() {
            Some(oldest) if serial_distance(oldest, current_serial) >= span => {}
            _ => return None,
        }
        let mut net: BTreeMap<(Ipv4Prefix, Asn), bool> = BTreeMap::new();
        for delta in &self.deltas {
            let step = serial_distance(from_serial, delta.serial);
            if step == 0 || step > span {
                continue;
            }
            for &(prefix, asn) in &delta.announced {
                match net.remove(&(prefix, asn)) {
                    // withdraw then announce within the span: net nothing
                    Some(false) => {}
                    _ => {
                        net.insert((prefix, asn), true);
                    }
                }
            }
            for &(prefix, asn) in &delta.withdrawn {
                match net.remove(&(prefix, asn)) {
                    // announce then withdraw within the span: net nothing
                    Some(true) => {}
                    _ => {
                        net.insert((prefix, asn), false);
                    }
                }
            }
        }
        let mut merged = TableDelta {
            serial: current_serial,
            ..TableDelta::default()
        };
        for ((prefix, asn), announce) in net {
            if announce {
                merged.announced.push((prefix, asn));
            } else {
                merged.withdrawn.push((prefix, asn));
            }
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, AsPathSegment, Route};
    use bgp_wire::bgp::{PathAttributes, UpdateMessage};
    use bgp_wire::day_to_timestamp;
    use bgp_wire::export::peer_table;
    use bgp_wire::mrt::{
        Bgp4mpMessage, MrtRecord, MrtWriter, PeerEntry, RibEntry, RibIpv4Unicast, RibIpv6Unicast,
    };

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn mrt_record(day: u32, body: MrtBody) -> MrtRecord {
        MrtRecord {
            timestamp: day_to_timestamp(day),
            body,
        }
    }

    /// A three-peer `PEER_INDEX_TABLE`.
    fn mrt_peer_table(day: u32) -> MrtRecord {
        let peers = [701, 1239, 3356]
            .into_iter()
            .map(|asn| PeerEntry {
                bgp_id: asn,
                addr: asn,
                asn: Asn(asn),
            })
            .collect();
        mrt_record(
            day,
            MrtBody::PeerIndexTable(PeerIndexTable {
                collector_id: 0,
                view_name: String::from("table-test"),
                peers,
            }),
        )
    }

    fn mrt_entries(day: u32, prefix: Ipv4Prefix, paths: &[(u16, AsPath)]) -> Vec<RibEntry> {
        paths
            .iter()
            .map(|(peer_index, path)| RibEntry {
                peer_index: *peer_index,
                originated_time: day_to_timestamp(day),
                attrs: PathAttributes::from_route(&Route::new(prefix, path.clone())),
            })
            .collect()
    }

    fn mrt_rib(day: u32, prefix: Ipv4Prefix, paths: &[(u16, AsPath)]) -> MrtRecord {
        mrt_record(
            day,
            MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: 0,
                prefix,
                entries: mrt_entries(day, prefix, paths),
            }),
        )
    }

    fn mrt_bytes(records: &[MrtRecord]) -> Vec<u8> {
        let mut writer = MrtWriter::new(Vec::new());
        for record in records {
            writer.write_record(record).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn from_mrt_matches_the_owned_importer() {
        const DAYS: u32 = 3;
        const PREFIXES: u32 = 20;
        let aggregate = p("172.16.0.0/12");
        let mut records = Vec::new();
        for day in 0..DAYS {
            records.push(mrt_peer_table(day));
            for i in 0..PREFIXES {
                // One origin every day (duplicates must collapse) and one
                // that moves with the day (the list is the archive-wide
                // union), so skipping either entry of a record loses one.
                let steady = AsPath::from_sequence([Asn(701), Asn(1000 + i)]);
                let moving = AsPath::from_sequence([Asn(1239), Asn(7018), Asn(2000 + i + day)]);
                records.push(mrt_rib(
                    day,
                    Ipv4Prefix::new((10 << 24) | (i << 8), 24),
                    &[((i % 3) as u16, steady), (((i + 1) % 3) as u16, moving)],
                ));
            }
            // A path ending in an AS_SET has no single origin: both paths
            // fall back to the ASN of the peer that reported it.
            let aggregated = AsPath::from_segments([
                AsPathSegment::Sequence(vec![Asn(3356), Asn(7018)]),
                AsPathSegment::Set(vec![Asn(64_600), Asn(64_601)]),
            ]);
            records.push(mrt_rib(day, aggregate, &[(2, aggregated)]));
            // Neither an IPv6 RIB record nor a BGP4MP update is tabulated.
            let skipped = p("192.0.2.0/24");
            let path = AsPath::from_sequence([Asn(701), Asn(64_999)]);
            records.push(mrt_record(
                day,
                MrtBody::RibIpv6Unicast(RibIpv6Unicast {
                    sequence: 0,
                    prefix: "2001:db8::/32".parse().unwrap(),
                    entries: mrt_entries(day, skipped, &[(0, path.clone())]),
                }),
            ));
            records.push(mrt_record(
                day,
                MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                    peer_asn: Asn(701),
                    local_asn: Asn(65_000),
                    peer_addr: 701,
                    local_addr: 1,
                    message: UpdateMessage::announce(&Route::new(skipped, path)),
                }),
            ));
        }
        let bytes = mrt_bytes(&records);

        let viewed = OriginTable::from_mrt(&bytes[..], 1).unwrap();
        let owned = OriginTable::from_mrt_owned(&bytes[..], 1).unwrap();
        assert_eq!(viewed.snapshot(), owned.snapshot());
        assert_eq!(viewed.prefix_count(), owned.prefix_count());
        assert_eq!(viewed.entry_count(), owned.entry_count());
        // And the shared answer is the right one, not a shared omission.
        assert_eq!(viewed.prefix_count(), PREFIXES as usize + 1);
        assert_eq!(viewed.entry_count(), (PREFIXES * (1 + DAYS)) as usize + 1);
        assert_eq!(
            viewed.origins(aggregate).map(|list| list.iter().collect()),
            Some(vec![Asn(3356)])
        );
        assert_eq!(viewed.origins(p("192.0.2.0/24")), None);

        // Malformed archives fail the same way on both paths.
        let kinds = |bytes: &[u8]| {
            (
                OriginTable::from_mrt(bytes, 1).err().map(|e| e.kind),
                OriginTable::from_mrt_owned(bytes, 1).err().map(|e| e.kind),
            )
        };
        let (viewed, owned) = kinds(&bytes[..bytes.len() - 5]);
        assert!(
            matches!(viewed, Some(WireErrorKind::Truncated { .. })),
            "{viewed:?}"
        );
        assert_eq!(viewed, owned);

        let rib = mrt_rib(0, aggregate, &[(0, AsPath::origination(Asn(1)))]);
        let no_table = Some(WireErrorKind::MissingPeerIndexTable);
        assert_eq!(
            kinds(&mrt_bytes(std::slice::from_ref(&rib))),
            (no_table.clone(), no_table)
        );

        let stray = mrt_rib(0, aggregate, &[(3, AsPath::origination(Asn(1)))]);
        let bad_index = Some(WireErrorKind::BadPeerIndex(3));
        assert_eq!(
            kinds(&mrt_bytes(&[mrt_peer_table(0), stray])),
            (bad_index.clone(), bad_index)
        );
    }

    #[test]
    fn from_mrt_reports_peer_table_errors_at_the_rib_record() {
        let prefix = p("10.0.0.0/8");
        let rib =
            |day, peer_index| mrt_rib(day, prefix, &[(peer_index, AsPath::origination(Asn(1)))]);
        let one_peer = mrt_record(0, MrtBody::PeerIndexTable(peer_table(&[Asn(701)])));
        let update = mrt_record(
            0,
            MrtBody::Bgp4mpMessage(Bgp4mpMessage {
                peer_asn: Asn(701),
                local_asn: Asn(65_000),
                peer_addr: 701,
                local_addr: 1,
                message: UpdateMessage::withdraw(prefix),
            }),
        );
        // Each case: the records before the failing RIB record, that
        // record, and a valid tail that must not rescue the load.
        let cases = [
            (
                vec![update],
                rib(0, 0),
                WireErrorKind::MissingPeerIndexTable,
            ),
            (
                vec![one_peer.clone(), rib(0, 0), rib(1, 0)],
                rib(1, 7),
                WireErrorKind::BadPeerIndex(7),
            ),
        ];
        for (before, failing, kind) in cases {
            let offset = mrt_bytes(&before).len() as u64;
            let mut records = before;
            records.extend([failing, one_peer.clone(), rib(1, 0)]);
            let err = OriginTable::from_mrt(&mrt_bytes(&records)[..], 1).unwrap_err();
            assert_eq!((err.kind, err.offset), (kind, offset));
            assert!(offset > 0);
        }
    }

    #[test]
    fn from_mrt_loads_observed_origins_not_community_lists() {
        // The entry's MOAS-list community names AS 226, which is not on its
        // path: the loaded list holds the path's origin alone.
        let prefix = p("208.8.0.0/16");
        let list: MoasList = [Asn(4), Asn(226)].into_iter().collect();
        let route =
            Route::new(prefix, AsPath::from_sequence([Asn(701), Asn(4)])).with_moas_list(list);
        let rib = mrt_record(
            0,
            MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: 0,
                prefix,
                entries: vec![RibEntry {
                    peer_index: 0,
                    originated_time: day_to_timestamp(0),
                    attrs: PathAttributes::from_route(&route),
                }],
            }),
        );
        let table = OriginTable::from_mrt(&mrt_bytes(&[mrt_peer_table(0), rib])[..], 1).unwrap();
        assert_eq!(
            table.origins(prefix).map(|list| list.iter().collect()),
            Some(vec![Asn(4)])
        );
    }

    /// Sum of the stored lists' lengths, counted the slow way.
    fn recount(table: &OriginTable) -> usize {
        table.trie.iter().map(|(_, list)| list.len()).sum()
    }

    proptest::proptest! {
        #[test]
        fn entry_count_matches_a_recount(
            steps in proptest::prop::collection::vec((0u8..5, 0u32..6, 0u32..4, 0u32..4), 0..120),
        ) {
            // Six prefixes and four origins: announces of held origins,
            // withdrawals of absent ones and of a prefix's last origin all
            // happen, and so do bulk inserts of empty and of longer lists.
            let mut table = OriginTable::new(1);
            let mut batch = Vec::new();
            for (kind, i, asn, count) in steps {
                let prefix = Ipv4Prefix::new((10 << 24) | (i << 16), 16);
                match kind {
                    0 | 1 => batch.push(TableUpdate::announce(prefix, Asn(asn))),
                    2 => batch.push(TableUpdate::withdraw(prefix, Asn(asn))),
                    3 => table.insert(prefix, (asn..asn + count).map(Asn).collect()),
                    _ => {
                        table.apply(&std::mem::take(&mut batch));
                    }
                }
                proptest::prop_assert_eq!(table.entry_count(), recount(&table));
            }
            table.apply(&batch);
            proptest::prop_assert_eq!(table.entry_count(), recount(&table));
            proptest::prop_assert_eq!(table.snapshot().len(), table.entry_count());
        }
    }

    #[test]
    fn apply_tracks_effective_changes_only() {
        let mut table = OriginTable::new(1);
        let delta = table.apply(&[
            TableUpdate::announce(p("10.0.0.0/8"), Asn(1)),
            TableUpdate::announce(p("10.0.0.0/8"), Asn(1)), // duplicate: no-op
            TableUpdate::withdraw(p("11.0.0.0/8"), Asn(2)), // absent: no-op
        ]);
        assert_eq!(delta.serial, 1);
        assert_eq!(delta.announced, vec![(p("10.0.0.0/8"), Asn(1))]);
        assert!(delta.withdrawn.is_empty());
        assert_eq!(table.serial(), 1);

        // A batch with no effect leaves the serial alone.
        let delta = table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(1))]);
        assert!(delta.is_empty());
        assert_eq!(delta.serial, 1);
        assert_eq!(table.serial(), 1);
    }

    #[test]
    fn withdraw_last_origin_removes_the_prefix() {
        let mut table = OriginTable::new(1);
        table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(1))]);
        table.apply(&[TableUpdate::withdraw(p("10.0.0.0/8"), Asn(1))]);
        assert_eq!(table.prefix_count(), 0);
        assert_eq!(table.serial(), 2);
        assert!(table.origins(p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut table = OriginTable::new(1);
        table.insert(p("192.168.0.0/16"), [Asn(9), Asn(3)].into_iter().collect());
        table.insert(p("10.0.0.0/8"), [Asn(7)].into_iter().collect());
        assert_eq!(
            table.snapshot(),
            vec![
                (p("10.0.0.0/8"), Asn(7)),
                (p("192.168.0.0/16"), Asn(3)),
                (p("192.168.0.0/16"), Asn(9)),
            ]
        );
        assert_eq!(table.entry_count(), 3);
        assert_eq!(table.prefix_count(), 2);
    }

    #[test]
    fn json_round_trip() {
        let mut table = OriginTable::new(5);
        table.insert(
            p("10.1.0.0/16"),
            [Asn(64512), Asn(64513)].into_iter().collect(),
        );
        table.insert(p("10.2.0.0/16"), [Asn(64514)].into_iter().collect());
        let text = table.to_json_string();
        let back = OriginTable::from_json(&text, 5).unwrap();
        assert_eq!(back.snapshot(), table.snapshot());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(OriginTable::from_json("{}", 1).is_err());
        assert!(OriginTable::from_json(r#"{"moasLists": 3}"#, 1).is_err());
        assert!(
            OriginTable::from_json(r#"{"moasLists": [{"prefix": "nope", "origins": []}]}"#, 1)
                .is_err()
        );
        assert!(OriginTable::from_json(
            r#"{"moasLists": [{"prefix": "10.0.0.0/8", "origins": [-1]}]}"#,
            1
        )
        .is_err());
    }

    #[test]
    fn ring_diffs_within_capacity() {
        let mut table = OriginTable::new(1);
        let mut ring = DeltaRing::new(4);
        for i in 0..3u32 {
            let delta = table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(i))]);
            ring.push(delta);
        }
        // 0 -> 3: all three announcements.
        let diff = ring.diff_since(0, table.serial()).unwrap();
        assert_eq!(diff.announced.len(), 3);
        assert_eq!(diff.serial, 3);
        // 2 -> 3: just the last one.
        let diff = ring.diff_since(2, table.serial()).unwrap();
        assert_eq!(diff.announced, vec![(p("10.0.0.0/8"), Asn(2))]);
        // 3 -> 3: empty.
        assert!(ring.diff_since(3, 3).unwrap().is_empty());
    }

    #[test]
    fn ring_eviction_forces_reset() {
        let mut table = OriginTable::new(1);
        let mut ring = DeltaRing::new(2);
        for i in 0..4u32 {
            let delta = table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(i))]);
            ring.push(delta);
        }
        // Serials 1 and 2 have aged out of the 2-slot ring.
        assert_eq!(ring.oldest_reachable_serial(), Some(2));
        assert!(ring.diff_since(0, 4).is_none());
        assert!(ring.diff_since(1, 4).is_none());
        assert!(ring.diff_since(2, 4).is_some());
        // A serial from the future is never diffable.
        assert!(ring.diff_since(9, 4).is_none());
    }

    #[test]
    fn serial_wrap_apply_crosses_u32_max() {
        let mut table = OriginTable::with_serial(1, u32::MAX - 1);
        let mut ring = DeltaRing::new(8);
        let d1 = table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(1))]);
        assert_eq!(d1.serial, u32::MAX);
        ring.push(d1);
        let d2 = table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(2))]);
        assert_eq!(d2.serial, 0, "the serial after u32::MAX is 0");
        ring.push(d2);
        let d3 = table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(3))]);
        assert_eq!(d3.serial, 1);
        ring.push(d3);
        assert_eq!(table.serial(), 1);

        assert_eq!(ring.oldest_reachable_serial(), Some(u32::MAX - 1));
        // The full span straddling the wrap merges all three deltas.
        let diff = ring.diff_since(u32::MAX - 1, 1).unwrap();
        assert_eq!(diff.announced.len(), 3);
        assert_eq!(diff.serial, 1);
        // Partial spans crossing the boundary.
        assert_eq!(ring.diff_since(u32::MAX, 1).unwrap().announced.len(), 2);
        assert_eq!(
            ring.diff_since(0, 1).unwrap().announced,
            vec![(p("10.0.0.0/8"), Asn(3))]
        );
        // A client claiming a serial ahead of the server still resets.
        assert!(ring.diff_since(2, 1).is_none());
    }

    #[test]
    fn serial_wrap_oldest_reachable_does_not_underflow_at_zero() {
        // The ring holding exactly the delta that produced serial 0 (the
        // apply that wrapped) must name u32::MAX as the serial to hold —
        // the old `serial - 1` underflowed here.
        let mut table = OriginTable::with_serial(1, u32::MAX);
        let mut ring = DeltaRing::new(2);
        ring.push(table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(1))]));
        assert_eq!(table.serial(), 0);
        assert_eq!(ring.oldest_reachable_serial(), Some(u32::MAX));
        let diff = ring.diff_since(u32::MAX, 0).unwrap();
        assert_eq!(diff.announced.len(), 1);
        assert_eq!(diff.serial, 0);
    }

    #[test]
    fn serial_wrap_ordering_helpers() {
        assert!(serial_less(u32::MAX, 0));
        assert!(serial_less(u32::MAX - 1, 1));
        assert!(
            !serial_less(0, u32::MAX),
            "0 is ahead of u32::MAX, not behind"
        );
        assert!(!serial_less(5, 5));
        // Distances beyond half the space are indeterminate: not less.
        assert!(!serial_less(0, SERIAL_HALF + 1));
        assert!(serial_less(0, SERIAL_HALF));
        assert_eq!(serial_distance(u32::MAX, 1), 2);
    }

    #[test]
    fn diff_cancels_announce_withdraw_pairs() {
        let mut table = OriginTable::new(1);
        let mut ring = DeltaRing::new(8);
        ring.push(table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(1))]));
        ring.push(table.apply(&[TableUpdate::withdraw(p("10.0.0.0/8"), Asn(1))]));
        let diff = ring.diff_since(0, table.serial()).unwrap();
        assert!(diff.is_empty(), "announce+withdraw must cancel: {diff:?}");

        // And from serial 1 (after the announce), the net effect by now is a
        // re-announce.
        ring.push(table.apply(&[TableUpdate::announce(p("10.0.0.0/8"), Asn(1))]));
        let diff = ring.diff_since(1, table.serial()).unwrap();
        assert_eq!(diff.withdrawn, Vec::new());
        assert_eq!(diff.announced, Vec::new());
    }
}
