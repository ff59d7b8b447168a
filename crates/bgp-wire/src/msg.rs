//! RFC 4271 session messages: OPEN, KEEPALIVE and NOTIFICATION.
//!
//! [`crate::bgp`] covers the UPDATE message the measurement pipeline lives
//! on; this module adds the three message types a *live* session exchanges
//! around those updates: the OPEN handshake with RFC 3392/5492 capability
//! negotiation (4-octet AS per RFC 6793, multiprotocol per RFC 4760),
//! KEEPALIVE heartbeats, and typed NOTIFICATION errors. [`Message`] is the
//! dispatcher a session feeds raw bytes into.
//!
//! Decoding is [`MessageView`]'s job; [`Message::decode`] is its owned
//! rebuild, panic-free on arbitrary input.

use bgp_types::Asn;

use crate::bgp::{AsnEncoding, UpdateMessage, HEADER_LEN, MAX_MESSAGE_LEN, MESSAGE_TYPE_UPDATE};
use crate::error::{WireError, WireErrorKind};
use crate::view::MessageView;

/// BGP message type code for OPEN.
pub const MESSAGE_TYPE_OPEN: u8 = 1;
/// BGP message type code for NOTIFICATION.
pub const MESSAGE_TYPE_NOTIFICATION: u8 = 3;
/// BGP message type code for KEEPALIVE.
pub const MESSAGE_TYPE_KEEPALIVE: u8 = 4;

/// The BGP version every OPEN carries.
pub const BGP_VERSION: u8 = 4;
/// RFC 6793's placeholder 2-octet ASN for speakers whose real ASN needs
/// four octets.
pub const AS_TRANS: u16 = 23456;

/// Smallest legal OPEN: header + version, my-AS, hold-time, BGP id and the
/// optional-parameter length byte.
pub const MIN_OPEN_LEN: usize = HEADER_LEN + 10;
/// Smallest legal NOTIFICATION: header + error code and subcode.
pub const MIN_NOTIFICATION_LEN: usize = HEADER_LEN + 2;

pub(crate) const PARAM_CAPABILITIES: u8 = 2;
pub(crate) const CAP_MULTIPROTOCOL: u8 = 1;
pub(crate) const CAP_FOUR_OCTET_AS: u8 = 65;

/// NOTIFICATION error codes (RFC 4271 §6).
pub mod notif {
    /// Message Header Error.
    pub const MESSAGE_HEADER_ERROR: u8 = 1;
    /// OPEN Message Error.
    pub const OPEN_MESSAGE_ERROR: u8 = 2;
    /// UPDATE Message Error.
    pub const UPDATE_MESSAGE_ERROR: u8 = 3;
    /// Hold Timer Expired.
    pub const HOLD_TIMER_EXPIRED: u8 = 4;
    /// Finite State Machine Error.
    pub const FSM_ERROR: u8 = 5;
    /// Cease.
    pub const CEASE: u8 = 6;

    /// OPEN subcode: Unsupported Version Number.
    pub const UNSUPPORTED_VERSION: u8 = 1;
    /// OPEN subcode: Unacceptable Hold Time.
    pub const UNACCEPTABLE_HOLD_TIME: u8 = 6;
    /// OPEN subcode: Unsupported Capability (RFC 5492).
    pub const UNSUPPORTED_CAPABILITY: u8 = 7;
}

/// One negotiated capability (RFC 5492 encoding inside OPEN's optional
/// parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// Multiprotocol IPv4 unicast (RFC 4760; AFI 1, SAFI 1).
    MultiprotocolIpv4Unicast,
    /// Multiprotocol IPv6 unicast (RFC 4760; AFI 2, SAFI 1).
    MultiprotocolIpv6Unicast,
    /// 4-octet AS numbers (RFC 6793), carrying the speaker's real ASN.
    FourOctetAs(Asn),
    /// Any capability this crate does not interpret, kept verbatim so it
    /// round-trips.
    Unknown {
        /// Capability code.
        code: u8,
        /// Raw capability value bytes.
        data: Vec<u8>,
    },
}

impl Capability {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Capability::MultiprotocolIpv4Unicast => {
                out.extend_from_slice(&[CAP_MULTIPROTOCOL, 4, 0, 1, 0, 1]);
            }
            Capability::MultiprotocolIpv6Unicast => {
                out.extend_from_slice(&[CAP_MULTIPROTOCOL, 4, 0, 2, 0, 1]);
            }
            Capability::FourOctetAs(asn) => {
                out.extend_from_slice(&[CAP_FOUR_OCTET_AS, 4]);
                out.extend_from_slice(&asn.0.to_be_bytes());
            }
            Capability::Unknown { code, data } => {
                out.push(*code);
                // Capability bodies longer than 255 cannot exist on the
                // wire; constructors never build them, and decode cannot
                // produce them, so truncation is unreachable here.
                out.push(data.len().min(255) as u8);
                out.extend_from_slice(&data[..data.len().min(255)]);
            }
        }
    }
}

/// A BGP OPEN message: the session handshake's identity card.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMessage {
    /// The sender's ASN. Encoded into the 2-octet My-AS field directly when
    /// it fits, as [`AS_TRANS`] plus a [`Capability::FourOctetAs`] otherwise.
    pub asn: Asn,
    /// Proposed hold time in seconds: 0 (no keepalives) or >= 3.
    pub hold_time: u16,
    /// The sender's BGP identifier (an IPv4 address in practice).
    pub bgp_id: u32,
    /// Announced capabilities, in wire order.
    pub capabilities: Vec<Capability>,
}

impl OpenMessage {
    /// An OPEN announcing `asn` with the standard capability set this
    /// workspace speaks: 4-octet AS and multiprotocol IPv4 + IPv6 unicast.
    #[must_use]
    pub fn new(asn: Asn, hold_time: u16, bgp_id: u32) -> Self {
        OpenMessage {
            asn,
            hold_time,
            bgp_id,
            capabilities: vec![
                Capability::MultiprotocolIpv4Unicast,
                Capability::MultiprotocolIpv6Unicast,
                Capability::FourOctetAs(asn),
            ],
        }
    }

    /// The ASN the peer actually speaks for: the 4-octet capability value
    /// when announced, the My-AS field otherwise.
    #[must_use]
    pub fn effective_asn(&self) -> Asn {
        self.capabilities
            .iter()
            .find_map(|c| match c {
                Capability::FourOctetAs(asn) => Some(*asn),
                _ => None,
            })
            .unwrap_or(self.asn)
    }

    /// Encodes the full message, marker and header included.
    ///
    /// # Errors
    ///
    /// Fails with [`WireErrorKind::BadHoldTime`] for a hold time of 1 or 2,
    /// or [`WireErrorKind::LengthOverflow`] if the capabilities do not fit
    /// their one-byte length fields.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the encoded message to `out`; on error `out` is restored.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`OpenMessage::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        self.encode_into_unguarded(out)
            .inspect_err(|_| out.truncate(start))
    }

    fn encode_into_unguarded(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if self.hold_time == 1 || self.hold_time == 2 {
            return Err(WireError::new(
                WireErrorKind::BadHoldTime(self.hold_time),
                0,
            ));
        }
        let start = out.len();
        out.extend_from_slice(&[0xFF; 16]);
        let total_at = crate::bgp::reserve_u16(out);
        out.push(MESSAGE_TYPE_OPEN);
        out.push(BGP_VERSION);
        let my_as = u16::try_from(self.asn.0).unwrap_or(AS_TRANS);
        out.extend_from_slice(&my_as.to_be_bytes());
        out.extend_from_slice(&self.hold_time.to_be_bytes());
        out.extend_from_slice(&self.bgp_id.to_be_bytes());

        let mut caps = Vec::new();
        for cap in &self.capabilities {
            cap.encode_into(&mut caps);
        }
        if self.capabilities.is_empty() {
            out.push(0);
        } else {
            let cap_len = u8::try_from(caps.len()).map_err(|_| {
                WireError::new(
                    WireErrorKind::LengthOverflow {
                        field: "OPEN capabilities",
                        length: caps.len(),
                        max: 255,
                    },
                    0,
                )
            })?;
            // One optional parameter (type 2) holding every capability.
            out.push(cap_len + 2);
            out.push(PARAM_CAPABILITIES);
            out.push(cap_len);
            out.extend_from_slice(&caps);
        }

        let total = out.len() - start;
        if total > MAX_MESSAGE_LEN {
            return Err(WireError::new(
                WireErrorKind::LengthOverflow {
                    field: "BGP message",
                    length: total,
                    max: MAX_MESSAGE_LEN,
                },
                0,
            ));
        }
        crate::bgp::patch_u16(
            out,
            total_at,
            crate::bgp::checked_u16("BGP message", total)?,
        );
        Ok(())
    }
}

/// A BGP NOTIFICATION: the typed error that closes a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMessage {
    /// Error code (see [`notif`]).
    pub code: u8,
    /// Error subcode (0 when the code defines none).
    pub subcode: u8,
    /// Diagnostic data, verbatim.
    pub data: Vec<u8>,
}

impl NotificationMessage {
    /// A NOTIFICATION with no diagnostic data.
    #[must_use]
    pub fn new(code: u8, subcode: u8) -> Self {
        NotificationMessage {
            code,
            subcode,
            data: Vec::new(),
        }
    }

    /// The Hold Timer Expired notification (code 4).
    #[must_use]
    pub fn hold_timer_expired() -> Self {
        NotificationMessage::new(notif::HOLD_TIMER_EXPIRED, 0)
    }

    /// The administrative Cease notification (code 6).
    #[must_use]
    pub fn cease() -> Self {
        NotificationMessage::new(notif::CEASE, 0)
    }

    /// The FSM Error notification (code 5), for messages that arrive in a
    /// state that cannot accept them.
    #[must_use]
    pub fn fsm_error() -> Self {
        NotificationMessage::new(notif::FSM_ERROR, 0)
    }

    /// Encodes the full message, marker and header included.
    ///
    /// # Errors
    ///
    /// Fails with [`WireErrorKind::BadNotificationCode`] for a code outside
    /// 1..=6, or [`WireErrorKind::LengthOverflow`] if the data pushes the
    /// message past 4096 bytes.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the encoded message to `out`; on error `out` is restored.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`NotificationMessage::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if !(1..=6).contains(&self.code) {
            return Err(WireError::new(
                WireErrorKind::BadNotificationCode(self.code),
                0,
            ));
        }
        let total = MIN_NOTIFICATION_LEN + self.data.len();
        if total > MAX_MESSAGE_LEN {
            return Err(WireError::new(
                WireErrorKind::LengthOverflow {
                    field: "BGP message",
                    length: total,
                    max: MAX_MESSAGE_LEN,
                },
                0,
            ));
        }
        out.extend_from_slice(&[0xFF; 16]);
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.push(MESSAGE_TYPE_NOTIFICATION);
        out.push(self.code);
        out.push(self.subcode);
        out.extend_from_slice(&self.data);
        Ok(())
    }
}

/// Encodes the 19-byte KEEPALIVE message.
#[must_use]
pub fn encode_keepalive() -> [u8; HEADER_LEN] {
    let mut out = [0xFF; HEADER_LEN];
    out[16..18].copy_from_slice(&(HEADER_LEN as u16).to_be_bytes());
    out[18] = MESSAGE_TYPE_KEEPALIVE;
    out
}

/// Any of the four RFC 4271 message types, as a live session receives them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// An OPEN handshake message.
    Open(OpenMessage),
    /// An UPDATE carrying routes.
    Update(UpdateMessage),
    /// A NOTIFICATION closing the session.
    Notification(NotificationMessage),
    /// A KEEPALIVE heartbeat.
    Keepalive,
}

impl Message {
    /// The message's RFC 4271 type code.
    #[must_use]
    pub fn type_code(&self) -> u8 {
        match self {
            Message::Open(_) => MESSAGE_TYPE_OPEN,
            Message::Update(_) => MESSAGE_TYPE_UPDATE,
            Message::Notification(_) => MESSAGE_TYPE_NOTIFICATION,
            Message::Keepalive => MESSAGE_TYPE_KEEPALIVE,
        }
    }

    /// Encodes the full message, marker and header included.
    ///
    /// # Errors
    ///
    /// The failure modes of the per-type encoders.
    pub fn encode(&self, encoding: AsnEncoding) -> Result<Vec<u8>, WireError> {
        match self {
            Message::Open(open) => open.encode(),
            Message::Update(update) => update.encode(encoding),
            Message::Notification(n) => n.encode(),
            Message::Keepalive => Ok(encode_keepalive().to_vec()),
        }
    }

    /// Decodes one message from the start of `bytes`, returning it and the
    /// number of bytes it occupied (for reading back-to-back messages off a
    /// TCP stream): the owned rebuild of [`MessageView::parse`].
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem. A
    /// [`WireErrorKind::Truncated`] error means more bytes are needed — a
    /// session keeps buffering on it; anything else is fatal.
    pub fn decode_prefix_of(
        bytes: &[u8],
        encoding: AsnEncoding,
    ) -> Result<(Message, usize), WireError> {
        let (view, used) = MessageView::parse(bytes, encoding)?;
        Ok((view.to_message(), used))
    }

    /// Decodes one full message, requiring that nothing follows it: the
    /// owned rebuild of [`MessageView::parse_exact`].
    ///
    /// # Errors
    ///
    /// Never panics; returns a [`WireError`] locating the first problem.
    pub fn decode(bytes: &[u8], encoding: AsnEncoding) -> Result<Message, WireError> {
        MessageView::parse_exact(bytes, encoding).map(|view| view.to_message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_open() -> OpenMessage {
        OpenMessage::new(Asn(70_000), 90, 0x0A00_0001)
    }

    #[test]
    fn open_round_trips_with_capabilities() {
        let open = sample_open();
        let bytes = open.encode().unwrap();
        let Message::Open(back) = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap() else {
            panic!("expected OPEN");
        };
        // My-AS was AS_TRANS on the wire; the 4-octet capability restores it.
        assert_eq!(back.asn, Asn(u32::from(AS_TRANS)));
        assert_eq!(back.effective_asn(), Asn(70_000));
        assert_eq!(back.hold_time, 90);
        assert_eq!(back.bgp_id, 0x0A00_0001);
        assert_eq!(back.capabilities, open.capabilities);
    }

    #[test]
    fn narrow_asn_skips_as_trans() {
        let open = OpenMessage {
            capabilities: Vec::new(),
            ..OpenMessage::new(Asn(64512), 30, 7)
        };
        let bytes = open.encode().unwrap();
        let Message::Open(back) = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap() else {
            panic!("expected OPEN");
        };
        assert_eq!(back.asn, Asn(64512));
        assert_eq!(back.effective_asn(), Asn(64512));
        assert!(back.capabilities.is_empty());
    }

    #[test]
    fn keepalive_round_trips_and_rejects_bodies() {
        let bytes = encode_keepalive();
        assert_eq!(
            Message::decode(&bytes, AsnEncoding::FourOctet).unwrap(),
            Message::Keepalive
        );
        let mut fat = bytes.to_vec();
        fat.push(0);
        fat[16..18].copy_from_slice(&20u16.to_be_bytes());
        let err = Message::decode(&fat, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadMessageLength(20));
        assert_eq!(err.offset, 16);
    }

    #[test]
    fn notification_round_trips_with_data() {
        let n = NotificationMessage {
            code: notif::OPEN_MESSAGE_ERROR,
            subcode: notif::UNACCEPTABLE_HOLD_TIME,
            data: vec![0, 1],
        };
        let bytes = n.encode().unwrap();
        let Message::Notification(back) = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap()
        else {
            panic!("expected NOTIFICATION");
        };
        assert_eq!(back, n);
    }

    #[test]
    fn bad_version_and_hold_time_are_typed() {
        let mut bytes = sample_open().encode().unwrap();
        bytes[HEADER_LEN] = 3;
        let err = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadVersion(3));
        assert_eq!(err.offset, HEADER_LEN as u64);

        let err = OpenMessage::new(Asn(1), 2, 0).encode().unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadHoldTime(2));
        let mut bytes = sample_open().encode().unwrap();
        bytes[HEADER_LEN + 3] = 0;
        bytes[HEADER_LEN + 4] = 1;
        let err = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadHoldTime(1));
    }

    #[test]
    fn bad_capability_length_is_typed() {
        let mut bytes = sample_open().encode().unwrap();
        // First capability starts after version/as/hold/id/opt-len/ptype/plen.
        let cap_len_at = HEADER_LEN + 10 + 2 + 1;
        assert_eq!(bytes[cap_len_at - 1], CAP_MULTIPROTOCOL);
        bytes[cap_len_at] = 3;
        let err = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert!(
            matches!(
                err.kind,
                WireErrorKind::BadCapabilityLength { code: 1, .. }
                    | WireErrorKind::Truncated { .. }
            ),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn undefined_notification_code_is_rejected_both_ways() {
        let err = NotificationMessage::new(9, 0).encode().unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadNotificationCode(9));
        let mut bytes = NotificationMessage::cease().encode().unwrap();
        bytes[HEADER_LEN] = 0;
        let err = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadNotificationCode(0));
    }

    #[test]
    fn update_dispatches_through_message() {
        use bgp_types::{AsPath, Route};
        let route = Route::new("10.0.0.0/8".parse().unwrap(), AsPath::origination(Asn(9)));
        let bytes = UpdateMessage::announce(&route)
            .encode(AsnEncoding::FourOctet)
            .unwrap();
        let Message::Update(update) = Message::decode(&bytes, AsnEncoding::FourOctet).unwrap()
        else {
            panic!("expected UPDATE");
        };
        assert_eq!(update.nlri, vec![route.prefix()]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample_open().encode().unwrap();
        for cut in 0..bytes.len() {
            let err = Message::decode(&bytes[..cut], AsnEncoding::FourOctet).unwrap_err();
            assert!(err.offset <= cut as u64);
        }
    }

    #[test]
    fn back_to_back_messages_stream() {
        let mut stream = sample_open().encode().unwrap();
        stream.extend_from_slice(&encode_keepalive());
        stream.extend_from_slice(&NotificationMessage::cease().encode().unwrap());
        let mut at = 0;
        let mut kinds = Vec::new();
        while at < stream.len() {
            let (msg, used) =
                Message::decode_prefix_of(&stream[at..], AsnEncoding::FourOctet).unwrap();
            kinds.push(msg.type_code());
            at += used;
        }
        assert_eq!(kinds, vec![1, 4, 3]);
    }
}
