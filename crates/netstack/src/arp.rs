//! The ARP object: address resolution as an interposable netdev layer.
//!
//! [`make_arp`] wraps any `netdev`-exporting object (the NIC driver, a
//! monitor, a [`crate::simlink`] endpoint) and exports **both** the same
//! `netdev` interface and an `arp` interface. Protocol objects above it
//! (`udp`, `tcp`) keep talking plain `netdev`; ARP traffic never reaches
//! them — requests addressed to this host are answered in-line from
//! `recv`, replies and gratuitous announcements populate the cache, and
//! everything else passes through untouched.
//!
//! The data path is the burst pair of [`crate::burst`]: `send_many`
//! classifies a burst in one pass and hands one with nothing to resolve
//! down as the caller's own list; `recv_many(max)` pulls from below until
//! it holds `max` non-ARP frames or the device runs dry, absorbing ARP
//! frames on the way and answering them in one burst per frame absorbed.
//! An absorb that fails (the lower refuses the reply) loses no frame
//! pulled with it: they stay here, are served first by the next call and
//! count in `netdev pending`.
//!
//! Outbound IPv4 frames addressed to the link-broadcast MAC — the
//! signature of an upper layer that could not resolve its next hop —
//! are **parked** per destination IP rather than flooded: the layer
//! drives resolution itself and releases the queue rewritten to the
//! learned unicast MAC when the reply lands. Each per-IP queue is
//! bounded at [`ARP_PENDING_MAX`] frames, dropping the oldest beyond
//! that, so an unresolvable peer costs bounded memory. So does a flood
//! of senders: the cache keeps the `ARP_CACHE_MAX` most recently learnt
//! bindings (a static `insert` is never evicted).
//!
//! The `arp` interface:
//! - `resolve(ip: int) -> bytes` — 6-byte MAC on a cache hit; on a miss
//!   broadcasts a request and returns empty (poll again after the reply
//!   has had time to arrive),
//! - `lookup(ip: int) -> bytes` — cache-only probe, no traffic,
//! - `insert(ip: int, mac: bytes) -> unit` — static entry,
//! - `announce() -> unit` — gratuitous ARP for our own address,
//! - `stats() -> list [requests_tx, replies_tx, replies_rx, hits, misses,
//!   entries, pending, pending_dropped, evicted]`.

use std::collections::{HashMap, VecDeque};

use paramecium_obj::{
    delegate_interface, InterfaceBuilder, ObjError, ObjRef, ObjectBuilder, TypeTag, Value,
};

use crate::burst::{self, netdev_methods, Drain};
use crate::wire::{
    self, ArpPacket, EthHeader, Ipv4Header, Mac, ARP_OP_REPLY, ARP_OP_REQUEST, ETHERTYPE_ARP,
    ETHERTYPE_IPV4, MAC_BROADCAST,
};

/// Cap on frames parked per unresolved IP; the oldest is dropped to
/// admit a newer one beyond this.
pub const ARP_PENDING_MAX: usize = 16;

/// Cap on bindings learnt from the wire; the oldest-learnt is evicted to
/// admit a newer one beyond this.
const ARP_CACHE_MAX: usize = 256;

/// ARP layer state.
struct ArpState {
    lower: ObjRef,
    ip: u32,
    mac: Mac,
    cache: HashMap<u32, Mac>,
    /// The learnt (not `insert`ed) IPs in `cache`, oldest first.
    learnt: VecDeque<u32>,
    /// Outbound frames awaiting resolution, keyed by destination IP.
    pending: HashMap<u32, VecDeque<bytes::Bytes>>,
    /// Inbound frames pulled from `lower` and not yet passed up.
    rx: Drain,
    requests_tx: u64,
    replies_tx: u64,
    replies_rx: u64,
    hits: u64,
    misses: u64,
    pending_dropped: u64,
    evicted: u64,
}

/// The IPv4 destination of a frame going out link-broadcast, which must
/// resolve before the frame leaves. Anything else — unicast, non-IP,
/// genuine broadcast IP traffic, which is meant to flood — is `None`.
fn unresolved_dst(frame: &[u8]) -> Option<u32> {
    match EthHeader::parse(frame) {
        Ok((eth, payload)) if eth.ethertype == ETHERTYPE_IPV4 && eth.dst == MAC_BROADCAST => {
            match Ipv4Header::parse(payload) {
                Ok((ip, _)) if ip.dst != u32::MAX => Some(ip.dst),
                _ => None,
            }
        }
        _ => None,
    }
}

fn is_arp(frame: &[u8]) -> bool {
    matches!(EthHeader::parse(frame), Ok((eth, _)) if eth.ethertype == ETHERTYPE_ARP)
}

/// `frame` readdressed to `mac`.
fn unicast(frame: &[u8], mac: &Mac) -> Value {
    let mut out = frame.to_vec();
    out[0..6].copy_from_slice(mac);
    Value::Bytes(out.into())
}

impl ArpState {
    /// An ARP request for `target_ip`, counted as sent.
    fn request(&mut self, target_ip: u32) -> Value {
        self.requests_tx += 1;
        let req = ArpPacket {
            op: ARP_OP_REQUEST,
            sender_mac: self.mac,
            sender_ip: self.ip,
            target_mac: [0; 6],
            target_ip,
        };
        Value::Bytes(req.to_frame(self.mac, MAC_BROADCAST).into())
    }

    /// One outbound frame of a burst with something to resolve, in its
    /// place in `out`: as it is, readdressed on a late cache hit, or
    /// parked behind the request that drives its resolution.
    fn classify(&mut self, frame: &bytes::Bytes, out: &mut Vec<Value>) {
        let Some(dst_ip) = unresolved_dst(frame) else {
            return out.push(Value::Bytes(frame.clone()));
        };
        if let Some(mac) = self.cache.get(&dst_ip) {
            return out.push(unicast(frame, mac));
        }
        let queue = self.pending.entry(dst_ip).or_default();
        if queue.len() >= ARP_PENDING_MAX {
            queue.pop_front();
            self.pending_dropped += 1;
        }
        let first = queue.is_empty();
        queue.push_back(frame.clone());
        if first {
            let req = self.request(dst_ip);
            out.push(req);
        }
    }

    /// Records a binding heard on the wire, evicting the oldest-learnt
    /// beyond the cap.
    fn learn(&mut self, ip: u32, mac: Mac) {
        if self.cache.insert(ip, mac).is_none() {
            self.learnt.push_back(ip);
        }
        if self.learnt.len() > ARP_CACHE_MAX {
            let oldest = self.learnt.pop_front().expect("over the cap");
            self.cache.remove(&oldest);
            self.evicted += 1;
        }
    }

    /// Absorbs an inbound ARP payload: what it asks for leaves as one
    /// burst.
    fn absorb(&mut self, payload: &[u8]) -> Result<(), ObjError> {
        // Malformed ARP is consumed (there is nowhere to deliver it).
        let Ok(pkt) = ArpPacket::parse(payload) else {
            return Ok(());
        };
        // Every valid ARP packet teaches us the sender's binding —
        // and releases any frames parked on it, rewritten to unicast.
        self.learn(pkt.sender_ip, pkt.sender_mac);
        let parked = self.pending.remove(&pkt.sender_ip).unwrap_or_default();
        let mut out: Vec<Value> = parked
            .iter()
            .map(|frame| unicast(frame, &pkt.sender_mac))
            .collect();
        match pkt.op {
            ARP_OP_REQUEST if pkt.target_ip == self.ip => {
                let reply = ArpPacket {
                    op: ARP_OP_REPLY,
                    sender_mac: self.mac,
                    sender_ip: self.ip,
                    target_mac: pkt.sender_mac,
                    target_ip: pkt.sender_ip,
                };
                out.push(Value::Bytes(
                    reply.to_frame(self.mac, pkt.sender_mac).into(),
                ));
                self.replies_tx += 1;
            }
            ARP_OP_REPLY => self.replies_rx += 1,
            _ => {}
        }
        burst::send_many(&self.lower, &mut out)
    }
}

/// Builds the ARP layer over `lower`, owning protocol address `ip` with
/// hardware address `mac`.
pub fn make_arp(lower: ObjRef, ip: u32, mac: Mac) -> ObjRef {
    let netdev = netdev_methods(
        InterfaceBuilder::new("netdev"),
        |this, tx| {
            this.with_state(|s: &mut ArpState| {
                // The common case, a burst already all unicast: the list
                // the upper layer built is the one the device gets.
                if tx.frames().all(|f| unresolved_dst(f).is_none()) {
                    return tx.forward(&s.lower);
                }
                let mut out = Vec::new();
                tx.frames().for_each(|f| s.classify(f, &mut out));
                burst::send_many(&s.lower, &mut out)
            })
        },
        |this, max, out| {
            this.with_state(|s: &mut ArpState| {
                s.rx.begin();
                while out.len() < max {
                    let held = s.rx.peek(&s.lower, max - out.len())?;
                    // The common case, a burst with no ARP in it: the
                    // list the device built is the one the upper gets.
                    let whole = out.is_empty() && !held.is_empty() && held.len() <= max;
                    if whole && held.iter().all(|f| f.as_bytes().is_ok_and(|f| !is_arp(f))) {
                        *out = s.rx.take();
                        continue;
                    }
                    let Some(frame) = s.rx.next(&s.lower, 0)? else {
                        break;
                    };
                    if !is_arp(&frame) {
                        out.push(Value::Bytes(frame));
                    } else if let Err(e) = s.absorb(&frame[wire::ETH_HLEN..]) {
                        s.rx.unread(out);
                        return Err(e);
                    }
                }
                Ok(())
            })
        },
    )
    .method("pending", &[], TypeTag::Int, |this, _| {
        this.with_state(|s: &mut ArpState| {
            let below = s.lower.invoke("netdev", "pending", &[])?.as_int()?;
            Ok(Value::Int(below + s.rx.held() as i64))
        })
    })
    .finish();
    ObjectBuilder::new("arp")
        // The rest of `netdev` (`stats`, ...) is the lower device's to
        // answer.
        .raw_interface(delegate_interface(netdev, lower.clone()))
        .state(ArpState {
            lower,
            ip,
            mac,
            cache: HashMap::new(),
            learnt: VecDeque::new(),
            pending: HashMap::new(),
            rx: Drain::default(),
            requests_tx: 0,
            replies_tx: 0,
            replies_rx: 0,
            hits: 0,
            misses: 0,
            pending_dropped: 0,
            evicted: 0,
        })
        .interface("arp", |i| {
            i.method("resolve", &[TypeTag::Int], TypeTag::Bytes, |this, args| {
                let ip = args[0].as_int()? as u32;
                this.with_state(|s: &mut ArpState| {
                    if let Some(mac) = s.cache.get(&ip) {
                        s.hits += 1;
                        return Ok(Value::Bytes(bytes::Bytes::copy_from_slice(mac)));
                    }
                    s.misses += 1;
                    let req = s.request(ip);
                    s.lower.invoke("netdev", "send", &[req])?;
                    Ok(Value::Bytes(bytes::Bytes::new()))
                })
            })
            .method("lookup", &[TypeTag::Int], TypeTag::Bytes, |this, args| {
                let ip = args[0].as_int()? as u32;
                this.with_state(|s: &mut ArpState| {
                    Ok(match s.cache.get(&ip) {
                        Some(mac) => Value::Bytes(bytes::Bytes::copy_from_slice(mac)),
                        None => Value::Bytes(bytes::Bytes::new()),
                    })
                })
            })
            .method(
                "insert",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                |this, args| {
                    let ip = args[0].as_int()? as u32;
                    let mac_bytes = args[1].as_bytes()?;
                    let mac: Mac = mac_bytes
                        .as_ref()
                        .try_into()
                        .map_err(|_| ObjError::failed("mac must be 6 bytes"))?;
                    this.with_state(|s: &mut ArpState| {
                        s.cache.insert(ip, mac);
                        // Static from here on, even if it was learnt.
                        s.learnt.retain(|&l| l != ip);
                        Ok(Value::Unit)
                    })
                },
            )
            .method("announce", &[], TypeTag::Unit, |this, _| {
                this.with_state(|s: &mut ArpState| {
                    // Gratuitous: a request for our own address.
                    let gratuitous = s.request(s.ip);
                    s.lower.invoke("netdev", "send", &[gratuitous])?;
                    Ok(Value::Unit)
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut ArpState| {
                    Ok(Value::List(vec![
                        Value::Int(s.requests_tx as i64),
                        Value::Int(s.replies_tx as i64),
                        Value::Int(s.replies_rx as i64),
                        Value::Int(s.hits as i64),
                        Value::Int(s.misses as i64),
                        Value::Int(s.cache.len() as i64),
                        Value::Int(s.pending.values().map(VecDeque::len).sum::<usize>() as i64),
                        Value::Int(s.pending_dropped as i64),
                        Value::Int(s.evicted as i64),
                    ]))
                })
            })
        })
        .build()
}

/// Resolves `ip` through an object exporting `arp`, returning the MAC to
/// address a frame to: the cached binding, or broadcast while resolution
/// is still in flight. Shared by the UDP and TCP layers.
pub fn resolve_or_broadcast(arp: &ObjRef, ip: u32) -> Result<Mac, ObjError> {
    let mac = arp.invoke("arp", "resolve", &[Value::Int(i64::from(ip))])?;
    let mac = mac.as_bytes()?;
    Ok(match mac.as_ref().try_into() {
        Ok(mac) => mac,
        Err(_) => wire::MAC_BROADCAST,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simlink::{make_simlink, LinkConfig};
    use paramecium_machine::Machine;
    use parking_lot::Mutex;
    use std::sync::Arc;

    const IP_A: u32 = 0x0A00_0001;
    const IP_B: u32 = 0x0A00_0002;
    const MAC_A: Mac = [2, 0, 0, 0, 0, 1];
    const MAC_B: Mac = [2, 0, 0, 0, 0, 2];

    fn two_hosts() -> (Arc<Mutex<Machine>>, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (la, lb) = make_simlink(machine.clone(), LinkConfig::perfect(3));
        let a = make_arp(la, IP_A, MAC_A);
        let b = make_arp(lb, IP_B, MAC_B);
        (machine, a, b)
    }

    fn resolve(host: &ObjRef, ip: u32) -> Vec<u8> {
        host.invoke("arp", "resolve", &[Value::Int(i64::from(ip))])
            .unwrap()
            .as_bytes()
            .unwrap()
            .to_vec()
    }

    fn pump(host: &ObjRef) {
        // Drain the netdev until idle; ARP frames are absorbed in-line.
        loop {
            let f = host.invoke("netdev", "recv", &[]).unwrap();
            if f.as_bytes().unwrap().is_empty() {
                break;
            }
        }
    }

    #[test]
    fn request_reply_populates_both_caches() {
        let (machine, a, b) = two_hosts();
        // Miss: request goes out, nothing cached yet.
        assert!(resolve(&a, IP_B).is_empty());
        machine.lock().tick(10);
        pump(&b); // B absorbs the request, learns A, replies.
        machine.lock().tick(10);
        pump(&a); // A absorbs the reply.
        assert_eq!(resolve(&a, IP_B), MAC_B.to_vec());
        // B learned A's binding from the request itself.
        assert_eq!(resolve(&b, IP_A), MAC_A.to_vec());
        let stats = a.invoke("arp", "stats", &[]).unwrap();
        let s = stats.as_list().unwrap().to_vec();
        assert_eq!(s[0], Value::Int(1)); // one request sent
        assert_eq!(s[2], Value::Int(1)); // one reply received
        assert_eq!(s[3], Value::Int(1)); // one later hit (on A)
        assert_eq!(s[4], Value::Int(1)); // one initial miss
    }

    #[test]
    fn non_arp_traffic_passes_through() {
        let (machine, a, b) = two_hosts();
        let frame = wire::build_udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"data");
        a.invoke(
            "netdev",
            "send",
            &[Value::Bytes(bytes::Bytes::from(frame.clone()))],
        )
        .unwrap();
        machine.lock().tick(10);
        let got = b.invoke("netdev", "recv", &[]).unwrap();
        assert_eq!(got.as_bytes().unwrap().as_ref(), &frame[..]);
    }

    #[test]
    fn gratuitous_announce_preloads_peers() {
        let (machine, a, b) = two_hosts();
        a.invoke("arp", "announce", &[]).unwrap();
        machine.lock().tick(10);
        pump(&b);
        // B resolved A without any request of its own.
        assert_eq!(resolve(&b, IP_A), MAC_A.to_vec());
        let s = b.invoke("arp", "stats", &[]).unwrap();
        assert_eq!(s.as_list().unwrap()[0], Value::Int(0), "no request sent");
    }

    fn arp_stats(host: &ObjRef) -> Vec<i64> {
        host.invoke("arp", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn unresolved_frames_park_then_flush_unicast_on_reply() {
        let (machine, a, b) = two_hosts();
        // An upper layer that failed to resolve sends link-broadcast.
        let frame = wire::build_udp_frame(MAC_A, wire::MAC_BROADCAST, IP_A, IP_B, 1, 2, b"held");
        a.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
            .unwrap();
        assert_eq!(arp_stats(&a)[6], 1, "frame parked awaiting resolution");
        machine.lock().tick(10);
        pump(&b); // B absorbs the request and replies; no data yet.
        machine.lock().tick(10);
        pump(&a); // A absorbs the reply and releases the parked frame.
        assert_eq!(arp_stats(&a)[6], 0, "queue drained on learn");
        machine.lock().tick(10);
        let got = b.invoke("netdev", "recv", &[]).unwrap();
        let got = got.as_bytes().unwrap();
        assert_eq!(&got[0..6], &MAC_B[..], "released frame went out unicast");
        assert_eq!(&got[got.len() - 4..], b"held");
    }

    #[test]
    fn pending_queue_is_bounded_dropping_oldest() {
        let (machine, a, b) = two_hosts();
        for i in 0..(ARP_PENDING_MAX as u8 + 3) {
            let frame = wire::build_udp_frame(MAC_A, wire::MAC_BROADCAST, IP_A, IP_B, 1, 2, &[i]);
            a.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
                .unwrap();
        }
        let s = arp_stats(&a);
        assert_eq!(s[6], ARP_PENDING_MAX as i64, "queue capped");
        assert_eq!(s[7], 3, "overflow counted as dropped");
        assert_eq!(s[0], 1, "one request per unresolved destination");
        // Resolution releases the survivors — the oldest three are gone.
        machine.lock().tick(10);
        pump(&b);
        machine.lock().tick(10);
        pump(&a);
        machine.lock().tick(10);
        let mut payloads = Vec::new();
        loop {
            let f = b.invoke("netdev", "recv", &[]).unwrap();
            let f = f.as_bytes().unwrap();
            if f.is_empty() {
                break;
            }
            payloads.push(f[f.len() - 1]);
        }
        let expect: Vec<u8> = (3..ARP_PENDING_MAX as u8 + 3).collect();
        assert_eq!(
            payloads, expect,
            "drop-oldest kept the newest frames in order"
        );
    }

    #[test]
    fn insert_and_lookup_are_cache_only() {
        let (_machine, a, _b) = two_hosts();
        assert!(a
            .invoke("arp", "lookup", &[Value::Int(i64::from(IP_B))])
            .unwrap()
            .as_bytes()
            .unwrap()
            .is_empty());
        a.invoke(
            "arp",
            "insert",
            &[
                Value::Int(i64::from(IP_B)),
                Value::Bytes(bytes::Bytes::copy_from_slice(&MAC_B)),
            ],
        )
        .unwrap();
        assert_eq!(
            a.invoke("arp", "lookup", &[Value::Int(i64::from(IP_B))])
                .unwrap()
                .as_bytes()
                .unwrap()
                .as_ref(),
            &MAC_B[..]
        );
        assert_eq!(resolve_or_broadcast(&a, IP_B).unwrap(), MAC_B);
        assert_eq!(
            resolve_or_broadcast(&a, 0x0909_0909).unwrap(),
            wire::MAC_BROADCAST
        );
    }

    #[test]
    fn a_flood_of_spoofed_senders_stays_at_the_cap_and_a_live_peer_still_resolves() {
        let (machine, a, b) = two_hosts();
        // A gateway configured by hand, then B learnt the ordinary way.
        let gw_ip = 0x0A00_00FE;
        let gw = Value::Bytes(bytes::Bytes::copy_from_slice(&[2, 0, 0, 0, 0, 0xFE]));
        a.invoke("arp", "insert", &[Value::Int(i64::from(gw_ip)), gw])
            .unwrap();
        assert!(resolve(&a, IP_B).is_empty());
        machine.lock().tick(10);
        pump(&b);
        machine.lock().tick(10);
        pump(&a);
        assert_eq!(resolve(&a, IP_B), MAC_B.to_vec());

        // Gratuitous ARP from four times the cap of made-up senders.
        let flood = 4 * ARP_CACHE_MAX as u32;
        let spoofed: Vec<Value> = (0..flood)
            .map(|n| {
                let mac = [6, 0, 0, 0, (n >> 8) as u8, n as u8];
                let pkt = ArpPacket {
                    op: ARP_OP_REQUEST,
                    sender_mac: mac,
                    sender_ip: 0x0B00_0000 + n,
                    target_mac: [0; 6],
                    target_ip: 0x0B00_0000 + n,
                };
                Value::Bytes(pkt.to_frame(mac, wire::MAC_BROADCAST).into())
            })
            .collect();
        b.with_state(|s: &mut ArpState| {
            s.lower
                .invoke("netdev", "send_many", &[Value::List(spoofed)])
        })
        .unwrap();
        machine.lock().tick(10);
        pump(&a);
        let s = arp_stats(&a);
        assert_eq!(
            s[5],
            ARP_CACHE_MAX as i64 + 1,
            "learnt entries capped, static one kept"
        );
        assert_eq!(
            s[8],
            i64::from(flood) + 1 - ARP_CACHE_MAX as i64,
            "evictions counted"
        );
        let lookup = |ip: u32| {
            a.invoke("arp", "lookup", &[Value::Int(i64::from(ip))])
                .unwrap()
        };
        assert!(
            !lookup(gw_ip).as_bytes().unwrap().is_empty(),
            "static entry survives"
        );
        // B was flushed out with the rest of the old entries — and comes
        // back with one request, because it is really there.
        assert!(resolve(&a, IP_B).is_empty());
        machine.lock().tick(10);
        pump(&b);
        machine.lock().tick(10);
        pump(&a);
        assert_eq!(resolve(&a, IP_B), MAC_B.to_vec());
        assert_eq!(
            arp_stats(&a)[5],
            ARP_CACHE_MAX as i64 + 1,
            "still at the cap"
        );
    }

    #[test]
    fn a_reply_the_lower_refuses_loses_no_frame_pulled_with_the_request() {
        use crate::burst::fakes::{fuse, Blown};
        use std::sync::atomic::Ordering;
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (la, lb) = make_simlink(machine.clone(), LinkConfig::perfect(3));
        let blown = Arc::new(Blown::default());
        let b = make_arp(fuse(lb, blown.clone()), IP_B, MAC_B);
        // On the wire towards B: data, an ARP request for B, more data.
        let data = |tag: &[u8]| wire::build_udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2, tag);
        let request = ArpPacket {
            op: ARP_OP_REQUEST,
            sender_mac: MAC_A,
            sender_ip: IP_A,
            target_mac: [0; 6],
            target_ip: IP_B,
        }
        .to_frame(MAC_A, wire::MAC_BROADCAST);
        for frame in [data(b"one"), request, data(b"two")] {
            la.invoke("netdev", "send", &[Value::Bytes(frame.into())])
                .unwrap();
        }
        machine.lock().tick(10);
        blown.tx.store(true, Ordering::Relaxed);
        let pulled = b.invoke("netdev", "recv_many", &[Value::Int(8)]);
        assert!(pulled.is_err(), "the reply could not leave");
        let pending = b.invoke("netdev", "pending", &[]).unwrap();
        assert_eq!(pending, Value::Int(2), "both data frames are still owed");
        // The request itself is spent, as a scalar `recv` would have
        // spent it; the frames around it come out next, in order.
        let got = b.invoke("netdev", "recv_many", &[Value::Int(8)]).unwrap();
        let tails: Vec<&[u8]> = got
            .as_list()
            .unwrap()
            .iter()
            .map(|f| {
                let f = f.as_bytes().unwrap();
                &f[f.len() - 3..]
            })
            .collect();
        assert_eq!(tails, [b"one", b"two"]);
        assert_eq!(b.invoke("netdev", "pending", &[]).unwrap(), Value::Int(0));
    }
}
