//! BGP and MRT wire codecs bridging the simulator and the measurement
//! pipeline.
//!
//! The paper's measurement study (§2) runs over Route Views archives —
//! BGP routing tables and update streams on disk in MRT format. This crate
//! gives the reproduction the same boundary: simulated networks export
//! their tables as real MRT bytes, and the measurement pipeline imports MRT
//! bytes (ours or anyone's IPv4 table dumps) back into its native
//! structures.
//!
//! The layers:
//!
//! * [`bgp`] / [`msg`] — RFC 4271 messages (UPDATE with the RFC 1997
//!   `COMMUNITIES` and RFC 8092 `LARGE_COMMUNITY` attributes; OPEN,
//!   KEEPALIVE, NOTIFICATION) as owned types, and their encoders. The
//!   paper's MOAS list rides in communities, one per list member: the
//!   classic `asn:0x4d4c` when the member fits 16 bits, else the large
//!   `asn:0x4d4c:0`. [`bgp::PathAttributes::from_route`] and
//!   [`bgp::PathAttributes::to_route`] are the only way between a route's
//!   list and that encoding, so a list attached by
//!   `bgp_types::Route::with_moas_list` survives a trip through real BGP
//!   bytes and back, 4-octet members included.
//! * [`mrt`] — RFC 6396 records, `TABLE_DUMP_V2` (`PEER_INDEX_TABLE`,
//!   `RIB_IPV4_UNICAST`) for table snapshots and `BGP4MP` (`MESSAGE`,
//!   `MESSAGE_AS4`) for update streams, written to any `io::Write` by
//!   [`mrt::MrtWriter`].
//! * [`view`] — the one decoder. Validated, borrowed views of messages and
//!   records; [`MrtViewReader`] reads any `io::Read`. Each wire element has
//!   one reader: validating a view runs it to completion, and the view's
//!   iterators and accessors run it again over the validated bytes. Each
//!   owned type is its view's `to_*` rebuild: [`bgp::UpdateMessage::decode`],
//!   [`msg::Message::decode`] and [`MrtViewReader::next_record`] are
//!   exactly that.
//! * [`export`] / [`import`] — the bridges: `bgp-engine` Loc-RIBs out to
//!   MRT (batched through [`mrt::MrtWriter`]'s reusable buffer), MRT back
//!   in through one table-dump reading ([`TableDumpWalk`], which resolves
//!   each RIB entry's origin) to `route_measurement::DailyDump`s and routes
//!   for the offline monitor, one day at a time in constant memory
//!   ([`DailyDumpStream`]).
//!
//! Decoding is panic-free on arbitrary input: every failure is a typed
//! [`WireError`] carrying the byte offset of the problem.
//!
//! # Example
//!
//! ```
//! use bgp_types::{AsPath, Asn, MoasList, Route};
//! use bgp_wire::bgp::{AsnEncoding, UpdateMessage};
//!
//! let mut list = MoasList::new();
//! list.insert(Asn(4));
//! list.insert(Asn(226));
//! let route = Route::new(
//!     "208.8.0.0/16".parse().unwrap(),
//!     AsPath::from_sequence([Asn(701), Asn(4)]),
//! )
//! .with_moas_list(list.clone());
//!
//! let bytes = UpdateMessage::announce(&route)
//!     .encode(AsnEncoding::FourOctet)
//!     .unwrap();
//! let back = UpdateMessage::decode(&bytes, AsnEncoding::FourOctet).unwrap();
//! let decoded = back.updates().remove(0).route().unwrap().clone();
//! assert_eq!(decoded.moas_list(), Some(&list));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
mod community;
mod error;
pub mod export;
pub mod import;
pub mod mrt;
pub mod msg;
pub mod view;

pub use community::{LargeCommunity, MOAS_LIST_VALUE};
pub use error::{WireError, WireErrorKind};
pub use export::{export_rib_snapshot, export_update_stream, ExportSummary};
pub use import::{DailyDumpStream, DayImport, TableDumpWalk};
pub use view::{
    AttrInterner, AttrsView, Bgp4mpView, CapabilityIter, MessageView, MrtBodyView, MrtRecordView,
    MrtViewReader, NotificationView, OpenView, PeerIndexTableView, RibEntryView, RibView,
    UpdateView,
};

use bgp_types::Asn;

/// The private ASN the synthetic collector peers under.
pub const COLLECTOR_ASN: Asn = Asn(64512);

/// Unix timestamp of simulated day 0: 2001-01-01T00:00:00Z, the start of
/// the paper's measurement window.
pub const DAY_ZERO_UNIX: u32 = 978_307_200;

/// Seconds per simulated day.
const SECONDS_PER_DAY: u32 = 86_400;

/// The MRT timestamp encoding simulated day `day`.
#[must_use]
pub fn day_to_timestamp(day: u32) -> u32 {
    DAY_ZERO_UNIX.saturating_add(day.saturating_mul(SECONDS_PER_DAY))
}

/// The simulated day an MRT timestamp falls on. Timestamps before day 0
/// (foreign archives predating the window) clamp to day 0.
#[must_use]
pub fn timestamp_to_day(timestamp: u32) -> u32 {
    timestamp.saturating_sub(DAY_ZERO_UNIX) / SECONDS_PER_DAY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_codec_round_trips() {
        for day in [0, 1, 29, 365, 10_000] {
            assert_eq!(timestamp_to_day(day_to_timestamp(day)), day);
        }
        // Mid-day timestamps land on the same day.
        assert_eq!(timestamp_to_day(day_to_timestamp(3) + 4000), 3);
        // Pre-window timestamps clamp instead of wrapping.
        assert_eq!(timestamp_to_day(0), 0);
    }
}
