//! Wire formats: Ethernet, IPv4, ARP, UDP, TCP, and the Internet
//! checksum.
//!
//! Minimal but real codecs — headers are parsed from and serialised to
//! bytes, checksums are computed and verified (including the TCP
//! pseudo-header checksum), so protocol-processing components in the
//! experiments do genuine per-packet work. Every parser is total: no
//! input, however mangled, may panic — that contract is pinned by the
//! codec robustness property suite.

/// A MAC address.
pub type Mac = [u8; 6];

/// The Ethernet broadcast address.
pub const MAC_BROADCAST: Mac = [0xFF; 6];

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// EtherType for ARP.
pub const ETHERTYPE_ARP: u16 = 0x0806;

/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;

/// Ethernet header length.
pub const ETH_HLEN: usize = 14;

/// IPv4 header length (no options).
pub const IPV4_HLEN: usize = 20;

/// UDP header length.
pub const UDP_HLEN: usize = 8;

/// TCP header length (no options).
pub const TCP_HLEN: usize = 20;

/// ARP packet length (Ethernet/IPv4).
pub const ARP_PLEN: usize = 28;

/// Errors parsing packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the header demands.
    Truncated(&'static str),
    /// A field was invalid (version, length, checksum…).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated {what}"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The Internet checksum of `data` preceded by 16-bit words that are
/// not in memory beside it, given as their plain sum.
fn checksum_after(mut sum: u32, data: &[u8]) -> u16 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// The 16-bit ones'-complement Internet checksum (RFC 1071).
pub fn internet_checksum(data: &[u8]) -> u16 {
    checksum_after(0, data)
}

/// An Ethernet II header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// EtherType.
    pub ethertype: u16,
}

impl EthHeader {
    /// Parses the header, returning it and the payload offset.
    pub fn parse(frame: &[u8]) -> Result<(EthHeader, &[u8]), WireError> {
        if frame.len() < ETH_HLEN {
            return Err(WireError::Truncated("ethernet header"));
        }
        Ok((
            EthHeader {
                dst: frame[0..6].try_into().expect("6 bytes"),
                src: frame[6..12].try_into().expect("6 bytes"),
                ethertype: u16::from_be_bytes([frame[12], frame[13]]),
            },
            &frame[ETH_HLEN..],
        ))
    }

    /// Appends the header to `out`.
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst);
        out.extend_from_slice(&self.src);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
    }

    /// Serialises the header followed by `payload`.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETH_HLEN + payload.len());
        self.put(&mut out);
        out.extend_from_slice(payload);
        out
    }
}

/// An IPv4 header (no options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Payload protocol.
    pub proto: u8,
    /// Time to live.
    pub ttl: u8,
    /// Total length (header + payload).
    pub total_len: u16,
}

impl Ipv4Header {
    /// Parses and checksum-verifies the header, returning it and the
    /// payload.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8]), WireError> {
        if data.len() < IPV4_HLEN {
            return Err(WireError::Truncated("ipv4 header"));
        }
        if data[0] >> 4 != 4 {
            return Err(WireError::Invalid("ip version"));
        }
        let ihl = usize::from(data[0] & 0x0F) * 4;
        if ihl != IPV4_HLEN {
            return Err(WireError::Invalid("ip options unsupported"));
        }
        if internet_checksum(&data[..IPV4_HLEN]) != 0 {
            return Err(WireError::Invalid("ip checksum"));
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        if usize::from(total_len) < IPV4_HLEN || usize::from(total_len) > data.len() {
            return Err(WireError::Invalid("ip total length"));
        }
        let header = Ipv4Header {
            src: u32::from_be_bytes(data[12..16].try_into().expect("4 bytes")),
            dst: u32::from_be_bytes(data[16..20].try_into().expect("4 bytes")),
            proto: data[9],
            ttl: data[8],
            total_len,
        };
        Ok((header, &data[IPV4_HLEN..usize::from(total_len)]))
    }

    /// Appends the header of a `payload_len`-byte payload to `out`,
    /// total length and checksum filled in.
    fn put(&self, payload_len: usize, out: &mut Vec<u8>) {
        let total = (IPV4_HLEN + payload_len) as u16;
        let mut h = [0u8; IPV4_HLEN];
        h[0] = 0x45; // Version 4, IHL 5.
        h[2..4].copy_from_slice(&total.to_be_bytes());
        h[8] = self.ttl;
        h[9] = self.proto;
        h[12..16].copy_from_slice(&self.src.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst.to_be_bytes());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&h);
    }

    /// Serialises the header (checksum filled in) followed by `payload`.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(IPV4_HLEN + payload.len());
        self.put(payload.len(), &mut out);
        out.extend_from_slice(payload);
        out
    }
}

/// A UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length (header + payload).
    pub len: u16,
}

impl UdpHeader {
    /// Parses the header, returning it and the payload. (Checksum 0 = not
    /// computed, as UDP/IPv4 permits.)
    pub fn parse(data: &[u8]) -> Result<(UdpHeader, &[u8]), WireError> {
        if data.len() < UDP_HLEN {
            return Err(WireError::Truncated("udp header"));
        }
        let len = u16::from_be_bytes([data[4], data[5]]);
        if usize::from(len) < UDP_HLEN || usize::from(len) > data.len() {
            return Err(WireError::Invalid("udp length"));
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                len,
            },
            &data[UDP_HLEN..usize::from(len)],
        ))
    }

    /// Appends the header of a `payload_len`-byte datagram to `out`
    /// (length computed, checksum 0).
    fn put(src_port: u16, dst_port: u16, payload_len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&src_port.to_be_bytes());
        out.extend_from_slice(&dst_port.to_be_bytes());
        out.extend_from_slice(&((UDP_HLEN + payload_len) as u16).to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
    }

    /// Serialises the header (length computed, checksum 0) followed by
    /// `payload`.
    pub fn build(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(UDP_HLEN + payload.len());
        UdpHeader::put(src_port, dst_port, payload.len(), &mut out);
        out.extend_from_slice(payload);
        out
    }
}

/// ARP operation: request.
pub const ARP_OP_REQUEST: u16 = 1;

/// ARP operation: reply.
pub const ARP_OP_REPLY: u16 = 2;

/// An ARP packet (Ethernet/IPv4 flavour only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation: [`ARP_OP_REQUEST`] or [`ARP_OP_REPLY`].
    pub op: u16,
    /// Sender hardware address.
    pub sender_mac: Mac,
    /// Sender protocol address.
    pub sender_ip: u32,
    /// Target hardware address (zero in requests).
    pub target_mac: Mac,
    /// Target protocol address.
    pub target_ip: u32,
}

impl ArpPacket {
    /// Parses an ARP packet (the Ethernet payload).
    pub fn parse(data: &[u8]) -> Result<ArpPacket, WireError> {
        if data.len() < ARP_PLEN {
            return Err(WireError::Truncated("arp packet"));
        }
        if u16::from_be_bytes([data[0], data[1]]) != 1 {
            return Err(WireError::Invalid("arp hardware type"));
        }
        if u16::from_be_bytes([data[2], data[3]]) != ETHERTYPE_IPV4 {
            return Err(WireError::Invalid("arp protocol type"));
        }
        if data[4] != 6 || data[5] != 4 {
            return Err(WireError::Invalid("arp address lengths"));
        }
        let op = u16::from_be_bytes([data[6], data[7]]);
        if op != ARP_OP_REQUEST && op != ARP_OP_REPLY {
            return Err(WireError::Invalid("arp operation"));
        }
        Ok(ArpPacket {
            op,
            sender_mac: data[8..14].try_into().expect("6 bytes"),
            sender_ip: u32::from_be_bytes(data[14..18].try_into().expect("4 bytes")),
            target_mac: data[18..24].try_into().expect("6 bytes"),
            target_ip: u32::from_be_bytes(data[24..28].try_into().expect("4 bytes")),
        })
    }

    /// Serialises the packet.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ARP_PLEN);
        out.extend_from_slice(&1u16.to_be_bytes()); // Ethernet.
        out.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
        out.push(6);
        out.push(4);
        out.extend_from_slice(&self.op.to_be_bytes());
        out.extend_from_slice(&self.sender_mac);
        out.extend_from_slice(&self.sender_ip.to_be_bytes());
        out.extend_from_slice(&self.target_mac);
        out.extend_from_slice(&self.target_ip.to_be_bytes());
        out
    }

    /// Wraps the packet in an Ethernet frame from `src_mac` to `dst_mac`.
    pub fn to_frame(&self, src_mac: Mac, dst_mac: Mac) -> Vec<u8> {
        EthHeader {
            dst: dst_mac,
            src: src_mac,
            ethertype: ETHERTYPE_ARP,
        }
        .build(&self.build())
    }
}

/// TCP flag bits.
pub mod tcp_flags {
    /// No more data from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronise sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push function (ignored; carried for realism).
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field significant.
    pub const ACK: u8 = 0x10;
}

/// A TCP header (no options; data offset fixed at 5 words).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (valid when `flags & ACK != 0`).
    pub ack: u32,
    /// Flag bits (see [`tcp_flags`]).
    pub flags: u8,
    /// Receive window the sender advertises.
    pub window: u16,
}

/// The TCP checksum: over a pseudo-header (src/dst IP, protocol, TCP
/// length) plus the TCP header and payload (RFC 793). The pseudo-header
/// is summed field by field; the segment is read where it lies.
fn tcp_checksum(src_ip: u32, dst_ip: u32, segment: &[u8]) -> u16 {
    let pseudo = (src_ip >> 16)
        + (src_ip & 0xFFFF)
        + (dst_ip >> 16)
        + (dst_ip & 0xFFFF)
        + u32::from(IPPROTO_TCP)
        + u32::from(segment.len() as u16);
    checksum_after(pseudo, segment)
}

impl TcpHeader {
    /// Parses and checksum-verifies a TCP segment (needs the IP addresses
    /// for the pseudo-header). Returns the header and the payload.
    pub fn parse(data: &[u8], src_ip: u32, dst_ip: u32) -> Result<(TcpHeader, &[u8]), WireError> {
        if data.len() < TCP_HLEN {
            return Err(WireError::Truncated("tcp header"));
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if data_off != TCP_HLEN {
            return Err(WireError::Invalid("tcp options unsupported"));
        }
        if tcp_checksum(src_ip, dst_ip, data) != 0 {
            return Err(WireError::Invalid("tcp checksum"));
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes(data[4..8].try_into().expect("4 bytes")),
                ack: u32::from_be_bytes(data[8..12].try_into().expect("4 bytes")),
                flags: data[13] & 0x1F,
                window: u16::from_be_bytes([data[14], data[15]]),
            },
            &data[TCP_HLEN..],
        ))
    }

    /// Appends the header to `out` with a zero checksum, which
    /// [`seal_segment`] fills in once the payload has followed it.
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(5 << 4); // Data offset 5 words, no options.
        out.push(self.flags & 0x1F);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0u8; 4]); // Checksum + urgent pointer.
    }

    /// Serialises the segment (checksum filled in) followed by `payload`.
    pub fn build(&self, src_ip: u32, dst_ip: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(TCP_HLEN + payload.len());
        self.put(&mut out);
        out.extend_from_slice(payload);
        seal_segment(src_ip, dst_ip, &mut out);
        out
    }
}

/// Fills in the checksum of `segment`, a TCP header written by
/// [`TcpHeader::put`] and its payload.
fn seal_segment(src_ip: u32, dst_ip: u32, segment: &mut [u8]) {
    let csum = tcp_checksum(src_ip, dst_ip, segment);
    segment[16..18].copy_from_slice(&csum.to_be_bytes());
}

/// Starts a frame: a buffer sized for the whole of it, holding the
/// Ethernet and IPv4 headers of `l4_len` bytes of `proto` to follow.
fn frame_start(
    src_mac: Mac,
    dst_mac: Mac,
    src_ip: u32,
    dst_ip: u32,
    proto: u8,
    l4_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(ETH_HLEN + IPV4_HLEN + l4_len);
    EthHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: ETHERTYPE_IPV4,
    }
    .put(&mut out);
    Ipv4Header {
        src: src_ip,
        dst: dst_ip,
        proto,
        ttl: 64,
        total_len: 0, // Filled by put.
    }
    .put(l4_len, &mut out);
    out
}

/// Builds a full Ethernet/IPv4/TCP segment frame.
pub fn build_tcp_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src_ip: u32,
    dst_ip: u32,
    tcp: &TcpHeader,
    payload: &[u8],
) -> Vec<u8> {
    build_tcp_frame_parts(src_mac, dst_mac, src_ip, dst_ip, tcp, &[payload])
}

/// [`build_tcp_frame`] for a payload that lies in pieces (the halves of
/// a ring buffer): every byte is written once, into the one buffer the
/// frame leaves in.
pub(crate) fn build_tcp_frame_parts(
    src_mac: Mac,
    dst_mac: Mac,
    src_ip: u32,
    dst_ip: u32,
    tcp: &TcpHeader,
    payload: &[&[u8]],
) -> Vec<u8> {
    let len: usize = payload.iter().map(|part| part.len()).sum();
    let mut out = frame_start(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        IPPROTO_TCP,
        TCP_HLEN + len,
    );
    tcp.put(&mut out);
    for part in payload {
        out.extend_from_slice(part);
    }
    seal_segment(src_ip, dst_ip, &mut out[ETH_HLEN + IPV4_HLEN..]);
    out
}

/// Parses a frame down to its IPv4 payload, which must be `proto`: the
/// mirror of [`frame_start`].
fn parse_ip_frame(frame: &[u8], proto: u8) -> Result<(Ipv4Header, &[u8]), WireError> {
    let (eth, ip_bytes) = EthHeader::parse(frame)?;
    if eth.ethertype != ETHERTYPE_IPV4 {
        return Err(WireError::Invalid("ethertype"));
    }
    let (ip, l4_bytes) = Ipv4Header::parse(ip_bytes)?;
    if ip.proto != proto {
        return Err(WireError::Invalid("ip protocol"));
    }
    Ok((ip, l4_bytes))
}

/// Parses a full frame down to the TCP payload. Returns
/// `(ip, tcp, payload)`.
pub fn parse_tcp_frame(frame: &[u8]) -> Result<(Ipv4Header, TcpHeader, &[u8]), WireError> {
    let (ip, tcp_bytes) = parse_ip_frame(frame, IPPROTO_TCP)?;
    let (tcp, payload) = TcpHeader::parse(tcp_bytes, ip.src, ip.dst)?;
    Ok((ip, tcp, payload))
}

/// Builds a full Ethernet/IPv4/UDP datagram — the workload generator used
/// throughout tests and benches.
#[allow(clippy::too_many_arguments)]
pub fn build_udp_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let l4_len = UDP_HLEN + payload.len();
    let mut out = frame_start(src_mac, dst_mac, src_ip, dst_ip, IPPROTO_UDP, l4_len);
    UdpHeader::put(src_port, dst_port, payload.len(), &mut out);
    out.extend_from_slice(payload);
    out
}

/// Parses a full frame down to the UDP payload. Returns
/// `(ip, udp, payload)`.
pub fn parse_udp_frame(frame: &[u8]) -> Result<(Ipv4Header, UdpHeader, &[u8]), WireError> {
    let (ip, udp_bytes) = parse_ip_frame(frame, IPPROTO_UDP)?;
    let (udp, payload) = UdpHeader::parse(udp_bytes)?;
    Ok((ip, udp, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAC_A: Mac = [2, 0, 0, 0, 0, 1];
    const MAC_B: Mac = [2, 0, 0, 0, 0, 2];

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example data.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
        // Checksum over data including its checksum verifies to zero.
        let mut with = data.to_vec();
        let c = internet_checksum(&data);
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn odd_length_checksums_pad() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn full_frame_roundtrip() {
        let frame = build_udp_frame(MAC_A, MAC_B, 0x0A000001, 0x0A000002, 1234, 53, b"query");
        let (ip, udp, payload) = parse_udp_frame(&frame).unwrap();
        assert_eq!(ip.src, 0x0A000001);
        assert_eq!(ip.dst, 0x0A000002);
        assert_eq!(ip.proto, IPPROTO_UDP);
        assert_eq!(udp.src_port, 1234);
        assert_eq!(udp.dst_port, 53);
        assert_eq!(payload, b"query");
    }

    #[test]
    fn corrupted_ip_checksum_is_detected() {
        let mut frame = build_udp_frame(MAC_A, MAC_B, 1, 2, 10, 20, b"x");
        frame[ETH_HLEN + 8] ^= 0xFF; // Mangle the TTL.
        assert_eq!(
            parse_udp_frame(&frame),
            Err(WireError::Invalid("ip checksum"))
        );
    }

    #[test]
    fn truncations_are_rejected() {
        let frame = build_udp_frame(MAC_A, MAC_B, 1, 2, 10, 20, b"hello");
        for cut in [0, 5, ETH_HLEN - 1, ETH_HLEN + 3, ETH_HLEN + IPV4_HLEN - 1] {
            assert!(parse_udp_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_ip_and_non_udp_rejected() {
        let eth = EthHeader {
            dst: MAC_A,
            src: MAC_B,
            ethertype: 0x0806,
        };
        assert!(parse_udp_frame(&eth.build(&[0u8; 40])).is_err());
        // IPv4 but TCP.
        let ip = Ipv4Header {
            src: 1,
            dst: 2,
            proto: 6,
            ttl: 64,
            total_len: 0,
        }
        .build(&[0u8; 20]);
        let frame = EthHeader {
            dst: MAC_A,
            src: MAC_B,
            ethertype: ETHERTYPE_IPV4,
        }
        .build(&ip);
        assert_eq!(
            parse_udp_frame(&frame),
            Err(WireError::Invalid("ip protocol"))
        );
    }

    #[test]
    fn arp_roundtrip_and_validation() {
        let req = ArpPacket {
            op: ARP_OP_REQUEST,
            sender_mac: MAC_A,
            sender_ip: 0x0A00_0001,
            target_mac: [0; 6],
            target_ip: 0x0A00_0002,
        };
        let frame = req.to_frame(MAC_A, MAC_BROADCAST);
        let (eth, payload) = EthHeader::parse(&frame).unwrap();
        assert_eq!(eth.ethertype, ETHERTYPE_ARP);
        assert_eq!(ArpPacket::parse(payload).unwrap(), req);
        // A mangled hardware type is rejected.
        let mut bad = req.build();
        bad[0] = 9;
        assert!(ArpPacket::parse(&bad).is_err());
    }

    #[test]
    fn tcp_roundtrip_and_checksum() {
        let hdr = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: 0xDEAD_BEEF,
            ack: 0x0102_0304,
            flags: tcp_flags::SYN | tcp_flags::ACK,
            window: 8192,
        };
        let frame = build_tcp_frame(MAC_A, MAC_B, 1, 2, &hdr, b"hello tcp");
        let (ip, tcp, payload) = parse_tcp_frame(&frame).unwrap();
        assert_eq!(ip.proto, IPPROTO_TCP);
        assert_eq!(tcp, hdr);
        assert_eq!(payload, b"hello tcp");
        // The TCP checksum covers the payload: corrupting one payload
        // byte (untouched by the IP header checksum) must be caught.
        let mut mangled = frame.clone();
        let last = mangled.len() - 1;
        mangled[last] ^= 0x01;
        assert_eq!(
            parse_tcp_frame(&mangled),
            Err(WireError::Invalid("tcp checksum"))
        );
    }

    /// The construction `build_tcp_frame` replaced, kept as its oracle:
    /// each layer serialises its header in front of a copy of the layer
    /// above.
    fn layered_tcp_frame(src_ip: u32, dst_ip: u32, hdr: &TcpHeader, payload: &[u8]) -> Vec<u8> {
        let seg = hdr.build(src_ip, dst_ip, payload);
        let ip = Ipv4Header {
            src: src_ip,
            dst: dst_ip,
            proto: IPPROTO_TCP,
            ttl: 64,
            total_len: 0,
        }
        .build(&seg);
        EthHeader {
            dst: MAC_B,
            src: MAC_A,
            ethertype: ETHERTYPE_IPV4,
        }
        .build(&ip)
    }

    /// The TCP checksum as it used to be computed: pseudo-header and
    /// segment copied into one buffer, summed as plain data.
    fn pseudo_copy_checksum(src_ip: u32, dst_ip: u32, segment: &[u8]) -> u16 {
        let mut pseudo = Vec::with_capacity(12 + segment.len());
        pseudo.extend_from_slice(&src_ip.to_be_bytes());
        pseudo.extend_from_slice(&dst_ip.to_be_bytes());
        pseudo.push(0);
        pseudo.push(IPPROTO_TCP);
        pseudo.extend_from_slice(&(segment.len() as u16).to_be_bytes());
        pseudo.extend_from_slice(segment);
        internet_checksum(&pseudo)
    }

    proptest! {
        #[test]
        fn prop_single_pass_tcp_frame_equals_layered_construction(
            payload in proptest::collection::vec(any::<u8>(), 0..=1460),
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            seq in any::<u32>(),
            ack in any::<u32>(),
            flags in any::<u8>(),
            window in any::<u16>(),
            src_ip in any::<u32>(),
            dst_ip in any::<u32>(),
        ) {
            let hdr = TcpHeader { src_port, dst_port, seq, ack, flags, window };
            let layered = layered_tcp_frame(src_ip, dst_ip, &hdr, &payload);
            prop_assert_eq!(&build_tcp_frame(MAC_A, MAC_B, src_ip, dst_ip, &hdr, &payload), &layered);
            // A payload handed over as the two halves of a ring, for
            // every place the seam can fall (odd offsets included).
            for seam in 0..=payload.len() {
                let halves = [&payload[..seam], &payload[seam..]];
                let frame = build_tcp_frame_parts(MAC_A, MAC_B, src_ip, dst_ip, &hdr, &halves);
                prop_assert_eq!(&frame, &layered, "seam at {}", seam);
            }
            // The field-summed checksum is the pseudo-header-copy one.
            let mut segment = layered[ETH_HLEN + IPV4_HLEN..].to_vec();
            prop_assert_eq!(pseudo_copy_checksum(src_ip, dst_ip, &segment), 0);
            prop_assert_eq!(tcp_checksum(src_ip, dst_ip, &segment), 0);
            let stored = u16::from_be_bytes([segment[16], segment[17]]);
            segment[16..18].fill(0);
            prop_assert_eq!(pseudo_copy_checksum(src_ip, dst_ip, &segment), stored);
            prop_assert_eq!(tcp_checksum(src_ip, dst_ip, &segment), stored);
        }

        #[test]
        fn prop_roundtrip_arbitrary_payloads(
            payload in proptest::collection::vec(any::<u8>(), 0..1400),
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            src_ip in any::<u32>(),
            dst_ip in any::<u32>(),
        ) {
            let frame = build_udp_frame(MAC_A, MAC_B, src_ip, dst_ip, src_port, dst_port, &payload);
            let (ip, udp, got) = parse_udp_frame(&frame).unwrap();
            prop_assert_eq!(ip.src, src_ip);
            prop_assert_eq!(ip.dst, dst_ip);
            prop_assert_eq!(udp.src_port, src_port);
            prop_assert_eq!(udp.dst_port, dst_port);
            prop_assert_eq!(got, &payload[..]);
        }

        #[test]
        fn prop_ip_header_checksum_self_verifies(
            src in any::<u32>(), dst in any::<u32>(), ttl in any::<u8>(),
        ) {
            let built = Ipv4Header { src, dst, proto: IPPROTO_UDP, ttl, total_len: 0 }.build(b"payload");
            prop_assert_eq!(internet_checksum(&built[..IPV4_HLEN]), 0);
        }

        #[test]
        fn prop_single_bit_flips_in_ip_header_detected(
            payload in proptest::collection::vec(any::<u8>(), 8..64),
            bit in 0usize..(IPV4_HLEN * 8),
        ) {
            let frame = build_udp_frame(MAC_A, MAC_B, 0xC0A80001, 0xC0A80002, 7, 9, &payload);
            let mut mangled = frame.clone();
            mangled[ETH_HLEN + bit / 8] ^= 1 << (bit % 8);
            if mangled != frame {
                // Any single-bit error in the IP header must be caught.
                prop_assert!(parse_udp_frame(&mangled).is_err());
            }
        }
    }
}
