//! Wire-codec property suite.
//!
//! Three contracts, each pinned as a property:
//!
//! 1. **Round-trip**: `parse(serialize(x)) == x` for every codec —
//!    Ethernet, IPv4, UDP, ARP and TCP — over arbitrary field values and
//!    payloads.
//! 2. **Totality**: no parser may panic on any input. Both raw random
//!    bytes and randomly mutated *valid* frames are thrown at every
//!    parser; only `Ok`/`Err` may come back.
//! 3. **Checksum integrity end-to-end**: a frame whose IP or TCP
//!    checksum no longer verifies is counted `malformed` by the protocol
//!    objects and never reaches the application.
//!
//! Profiles: debug and release, the profiles of the TCP paths these codecs
//! feed (overflow checks in one, optimised arithmetic in the other).

use paramecium_netstack::tcp::{make_tcp, STAT_MALFORMED};
use paramecium_netstack::testkit::{self, test_driver, MY_IP, MY_MAC, PEER_IP, PEER_MAC};
use paramecium_netstack::wire::{
    build_tcp_frame, build_udp_frame, parse_tcp_frame, parse_udp_frame, tcp_flags, ArpPacket,
    EthHeader, Ipv4Header, TcpHeader, UdpHeader, ARP_OP_REPLY, ARP_OP_REQUEST, ETHERTYPE_IPV4,
    ETH_HLEN, IPPROTO_TCP, IPPROTO_UDP, IPV4_HLEN,
};
use paramecium_obj::Value;
use proptest::prelude::*;

fn mac(bytes: &[u8]) -> [u8; 6] {
    bytes[..6].try_into().unwrap()
}

proptest! {
    #[test]
    fn prop_eth_roundtrip(
        dst in proptest::collection::vec(any::<u8>(), 6..7),
        src in proptest::collection::vec(any::<u8>(), 6..7),
        ethertype in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let hdr = EthHeader { dst: mac(&dst), src: mac(&src), ethertype };
        let frame = hdr.build(&payload);
        let (parsed, rest) = EthHeader::parse(&frame).unwrap();
        prop_assert_eq!(parsed, hdr);
        prop_assert_eq!(rest, &payload[..]);
    }

    #[test]
    fn prop_ipv4_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in any::<u8>(),
        proto in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let built = Ipv4Header { src, dst, proto, ttl, total_len: 0 }.build(&payload);
        let (parsed, rest) = Ipv4Header::parse(&built).unwrap();
        prop_assert_eq!(parsed.src, src);
        prop_assert_eq!(parsed.dst, dst);
        prop_assert_eq!(parsed.ttl, ttl);
        prop_assert_eq!(parsed.proto, proto);
        prop_assert_eq!(usize::from(parsed.total_len), IPV4_HLEN + payload.len());
        prop_assert_eq!(rest, &payload[..]);
    }

    #[test]
    fn prop_udp_roundtrip(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let built = UdpHeader::build(src_port, dst_port, &payload);
        let (parsed, rest) = UdpHeader::parse(&built).unwrap();
        prop_assert_eq!(parsed.src_port, src_port);
        prop_assert_eq!(parsed.dst_port, dst_port);
        prop_assert_eq!(rest, &payload[..]);
    }

    #[test]
    fn prop_arp_roundtrip(
        request in any::<bool>(),
        sender_mac in proptest::collection::vec(any::<u8>(), 6..7),
        target_mac in proptest::collection::vec(any::<u8>(), 6..7),
        sender_ip in any::<u32>(),
        target_ip in any::<u32>(),
    ) {
        let pkt = ArpPacket {
            op: if request { ARP_OP_REQUEST } else { ARP_OP_REPLY },
            sender_mac: mac(&sender_mac),
            sender_ip,
            target_mac: mac(&target_mac),
            target_ip,
        };
        prop_assert_eq!(ArpPacket::parse(&pkt.build()).unwrap(), pkt);
    }

    #[test]
    fn prop_tcp_roundtrip(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        window in any::<u16>(),
        src_ip in any::<u32>(),
        dst_ip in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1000),
    ) {
        // The codec carries exactly the five RFC-793 flag bits.
        let hdr = TcpHeader { src_port, dst_port, seq, ack, flags: flags & 0x1F, window };
        let frame = build_tcp_frame(
            MY_MAC, PEER_MAC, src_ip, dst_ip, &hdr, &payload,
        );
        let (ip, parsed, rest) = parse_tcp_frame(&frame).unwrap();
        prop_assert_eq!(ip.src, src_ip);
        prop_assert_eq!(ip.dst, dst_ip);
        prop_assert_eq!(ip.proto, IPPROTO_TCP);
        prop_assert_eq!(parsed, hdr);
        prop_assert_eq!(rest, &payload[..]);
    }

    /// Totality over raw garbage: every parser must return, never panic.
    #[test]
    fn prop_parsers_never_panic_on_random_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        ip_a in any::<u32>(),
        ip_b in any::<u32>(),
    ) {
        let _ = EthHeader::parse(&data);
        let _ = Ipv4Header::parse(&data);
        let _ = UdpHeader::parse(&data);
        let _ = ArpPacket::parse(&data);
        let _ = TcpHeader::parse(&data, ip_a, ip_b);
        let _ = parse_udp_frame(&data);
        let _ = parse_tcp_frame(&data);
    }

    /// Totality over mutated *valid* frames: start from a well-formed
    /// TCP segment, apply arbitrary byte writes and a truncation, and
    /// every parser must still return without panicking.
    #[test]
    fn prop_parsers_never_panic_on_mutated_frames(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        writes in proptest::collection::vec(any::<u32>(), 0..8),
        cut in any::<u16>(),
    ) {
        let hdr = TcpHeader {
            src_port: 1, dst_port: 2, seq: 3, ack: 4,
            flags: tcp_flags::SYN | tcp_flags::ACK, window: 100,
        };
        let mut frame = build_tcp_frame(MY_MAC, PEER_MAC, PEER_IP, MY_IP, &hdr, &payload);
        for w in writes {
            let idx = (w as usize) % frame.len();
            frame[idx] = (w >> 16) as u8;
        }
        frame.truncate(usize::from(cut) % (frame.len() + 1));
        let _ = parse_tcp_frame(&frame);
        let _ = parse_udp_frame(&frame);
        let _ = EthHeader::parse(&frame);
        let _ = Ipv4Header::parse(&frame[ETH_HLEN.min(frame.len())..]);
        let _ = ArpPacket::parse(&frame);
    }

    /// End-to-end: corrupt any single byte past the Ethernet header of a
    /// valid TCP SYN — breaking the IP or TCP checksum — and the TCP
    /// object counts the frame `malformed` and never surfaces a
    /// connection.
    #[test]
    fn prop_checksum_corrupt_tcp_is_malformed_not_delivered(
        off_pick in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let (mem, driver) = test_driver();
        let machine = mem.machine().clone();
        let tcp = make_tcp(machine.clone(), driver, MY_IP, MY_MAC);
        tcp.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();

        let hdr = TcpHeader {
            src_port: 5555, dst_port: 80, seq: 1000, ack: 0,
            flags: tcp_flags::SYN, window: 4096,
        };
        let mut frame =
            build_tcp_frame(PEER_MAC, MY_MAC, PEER_IP, MY_IP, &hdr, &[]);
        // Any offset from the IP header onward is protected by a checksum.
        let off = ETH_HLEN + (off_pick as usize) % (frame.len() - ETH_HLEN);
        frame[off] ^= flip;
        testkit::inject_frame(&machine, frame);
        tcp.invoke("tcp", "pump", &[]).unwrap();

        let stats = tcp.invoke("tcp", "stats", &[]).unwrap();
        let malformed = stats.as_list().unwrap()[STAT_MALFORMED].as_int().unwrap();
        prop_assert_eq!(malformed, 1, "corrupt frame must be counted malformed");
        let accepted = tcp
            .invoke("tcp", "accept", &[Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        prop_assert_eq!(accepted, -1, "corrupt SYN must not open a connection");
    }

    /// Same contract on the UDP side: a frame whose IP header checksum
    /// fails is counted malformed by the UDP stack and never queued.
    #[test]
    fn prop_checksum_corrupt_udp_is_malformed_not_delivered(
        off_pick in any::<u32>(),
        flip in 1u8..=255,
    ) {
        use paramecium_netstack::make_udp_stack;

        let (mem, driver) = test_driver();
        let machine = mem.machine().clone();
        let stack = make_udp_stack(driver, MY_IP, MY_MAC);
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();

        let mut frame = build_udp_frame(
            PEER_MAC, MY_MAC, PEER_IP, MY_IP, 9999, 53, b"payload",
        );
        // UDP/IPv4 leaves the UDP checksum unset, so only the IP header
        // is integrity-protected; corrupt inside it.
        let off = ETH_HLEN + (off_pick as usize) % IPV4_HLEN;
        frame[off] ^= flip;
        testkit::inject_frame(&machine, frame);
        stack.invoke("udp", "pump", &[]).unwrap();

        let stats = stack.invoke("udp", "stats", &[]).unwrap();
        let s = stats.as_list().unwrap().to_vec();
        // stats: [delivered, no_listener, filtered, malformed]
        prop_assert_eq!(s[0].as_int().unwrap(), 0, "nothing may be delivered");
        prop_assert_eq!(s[3].as_int().unwrap(), 1, "must be counted malformed");
        let got = stack.invoke("udp", "recv_from", &[Value::Int(53)]).unwrap();
        prop_assert_eq!(got.as_list().unwrap().len(), 0);
    }
}

/// The flip side of the corruption properties: the exact same injection
/// path with an *untouched* frame is delivered, so the malformed
/// counters above are meaningful.
#[test]
fn pristine_syn_is_delivered_not_malformed() {
    let (mem, driver) = test_driver();
    let machine = mem.machine().clone();
    let tcp = make_tcp(machine.clone(), driver, MY_IP, MY_MAC);
    tcp.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
    let hdr = TcpHeader {
        src_port: 5555,
        dst_port: 80,
        seq: 1000,
        ack: 0,
        flags: tcp_flags::SYN,
        window: 4096,
    };
    let frame = build_tcp_frame(PEER_MAC, MY_MAC, PEER_IP, MY_IP, &hdr, &[]);
    testkit::inject_frame(&machine, frame);
    tcp.invoke("tcp", "pump", &[]).unwrap();
    let stats = tcp.invoke("tcp", "stats", &[]).unwrap();
    assert_eq!(
        stats.as_list().unwrap()[STAT_MALFORMED].as_int().unwrap(),
        0
    );
    // The endpoint answered with a SYN-ACK: the frame was delivered and
    // processed, not discarded.
    let reply = testkit::tx_take(&machine).expect("listener must answer the SYN");
    let (_, tcp_hdr, _) = parse_tcp_frame(&reply).unwrap();
    assert_eq!(tcp_hdr.flags, tcp_flags::SYN | tcp_flags::ACK);
    assert_eq!(tcp_hdr.ack, hdr.seq.wrapping_add(1));
}

/// Sanity pin for the constants the corruption properties rely on.
#[test]
fn ethertype_and_proto_constants_are_wire_values() {
    assert_eq!(ETHERTYPE_IPV4, 0x0800);
    assert_eq!(IPPROTO_TCP, 6);
    assert_eq!(IPPROTO_UDP, 17);
}
