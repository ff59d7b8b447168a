//! Typed decode errors with byte offsets.

use std::fmt;

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireErrorKind {
    /// Input ended before a field of `needed` bytes could be read.
    Truncated {
        /// Bytes the decoder needed at the failure offset.
        needed: usize,
    },
    /// The 16-byte BGP marker was not all-ones.
    BadMarker,
    /// The BGP header carried an impossible message length.
    BadMessageLength(u16),
    /// The message type is not UPDATE (2).
    UnsupportedMessageType(u8),
    /// A prefix length field exceeded its address family's width.
    BadPrefixLength(u8),
    /// An OPEN message carried a BGP version other than 4.
    BadVersion(u8),
    /// An OPEN hold time of 1 or 2 seconds, which RFC 4271 forbids.
    BadHoldTime(u16),
    /// A capability body length disagreed with its code's fixed size.
    BadCapabilityLength {
        /// Capability code.
        code: u8,
        /// Observed body length.
        length: u8,
    },
    /// A NOTIFICATION carried an undefined error code.
    BadNotificationCode(u8),
    /// A length field pointed past the end of its enclosing structure.
    BadFieldLength {
        /// The offending length value.
        length: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// An `ORIGIN` attribute carried an undefined code.
    BadOrigin(u8),
    /// An `AS_PATH` segment type was neither `AS_SET` nor `AS_SEQUENCE`.
    BadSegmentType(u8),
    /// A mandatory attribute was missing from an announcement.
    MissingAttribute(&'static str),
    /// An attribute body length disagreed with its type's fixed size.
    BadAttributeLength {
        /// Attribute type code.
        type_code: u8,
        /// Observed body length.
        length: usize,
    },
    /// An ASN does not fit the selected 2-octet encoding.
    AsnTooWide(u32),
    /// An encoder was handed data whose length does not fit the wire
    /// format's length field. Encoders fail with this instead of silently
    /// truncating the length (which would corrupt the stream).
    LengthOverflow {
        /// What was being encoded (e.g. `"path attribute body"`).
        field: &'static str,
        /// The length that was requested.
        length: usize,
        /// The largest length the format can carry.
        max: usize,
    },
    /// An MRT record type/subtype pair this crate does not decode.
    UnsupportedMrtType {
        /// MRT type field.
        mrt_type: u16,
        /// MRT subtype field.
        subtype: u16,
    },
    /// An MRT peer entry used an address family other than IPv4.
    UnsupportedPeerType(u8),
    /// A `BGP4MP` record named an address family (AFI) other than IPv4.
    UnsupportedAfi(u16),
    /// A RIB entry named a peer index absent from the peer index table.
    BadPeerIndex(u16),
    /// A RIB record arrived before any `PEER_INDEX_TABLE`.
    MissingPeerIndexTable,
    /// Bytes were left over after a complete message.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// The underlying reader or writer failed.
    Io(std::io::ErrorKind),
}

/// A decode (or encode) failure, carrying the absolute byte offset at which
/// the decoder gave up.
///
/// Offsets are relative to the start of whatever buffer or stream the
/// decoder was handed, so an MRT reader reports positions within the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub kind: WireErrorKind,
    /// Byte offset of the failure.
    pub offset: u64,
}

impl WireError {
    pub(crate) fn new(kind: WireErrorKind, offset: u64) -> Self {
        WireError { kind, offset }
    }

    /// Shifts the error's offset by `base` bytes (used when a decoder runs
    /// over a slice carved out of a larger stream).
    #[must_use]
    pub(crate) fn at_base(mut self, base: u64) -> Self {
        self.offset += base;
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            WireErrorKind::Truncated { needed } => {
                write!(f, "input truncated: needed {needed} more byte(s)")
            }
            WireErrorKind::BadMarker => write!(f, "BGP header marker is not all-ones"),
            WireErrorKind::BadMessageLength(len) => write!(f, "impossible BGP length {len}"),
            WireErrorKind::UnsupportedMessageType(t) => {
                write!(f, "unsupported BGP message type {t}")
            }
            WireErrorKind::BadPrefixLength(len) => {
                write!(f, "prefix length {len} exceeds the address width")
            }
            WireErrorKind::BadVersion(v) => write!(f, "unsupported BGP version {v}"),
            WireErrorKind::BadHoldTime(t) => {
                write!(f, "OPEN hold time {t} is forbidden by RFC 4271")
            }
            WireErrorKind::BadCapabilityLength { code, length } => {
                write!(f, "capability code {code} has impossible length {length}")
            }
            WireErrorKind::BadNotificationCode(code) => {
                write!(f, "undefined NOTIFICATION error code {code}")
            }
            WireErrorKind::BadFieldLength { length, available } => {
                write!(
                    f,
                    "field length {length} exceeds {available} available byte(s)"
                )
            }
            WireErrorKind::BadOrigin(code) => write!(f, "undefined ORIGIN code {code}"),
            WireErrorKind::BadSegmentType(t) => write!(f, "undefined AS_PATH segment type {t}"),
            WireErrorKind::MissingAttribute(name) => {
                write!(f, "announcement lacks mandatory {name} attribute")
            }
            WireErrorKind::BadAttributeLength { type_code, length } => {
                write!(
                    f,
                    "attribute type {type_code} has impossible length {length}"
                )
            }
            WireErrorKind::AsnTooWide(asn) => {
                write!(f, "AS{asn} does not fit a 2-octet AS_PATH")
            }
            WireErrorKind::LengthOverflow { field, length, max } => {
                write!(f, "{field} of {length} byte(s) exceeds the format's {max}")
            }
            WireErrorKind::UnsupportedMrtType { mrt_type, subtype } => {
                write!(
                    f,
                    "unsupported MRT record type {mrt_type} subtype {subtype}"
                )
            }
            WireErrorKind::UnsupportedPeerType(t) => {
                write!(f, "unsupported MRT peer type 0x{t:02x} (IPv4 only)")
            }
            WireErrorKind::UnsupportedAfi(afi) => {
                write!(f, "unsupported BGP4MP address family {afi} (IPv4 only)")
            }
            WireErrorKind::BadPeerIndex(i) => write!(f, "RIB entry names unknown peer index {i}"),
            WireErrorKind::MissingPeerIndexTable => {
                write!(f, "RIB record precedes any PEER_INDEX_TABLE")
            }
            WireErrorKind::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after message")
            }
            WireErrorKind::Io(kind) => write!(f, "I/O error: {kind}"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::new(WireErrorKind::Io(e.kind()), 0)
    }
}
