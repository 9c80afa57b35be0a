//! The routing object: one `netdev` spanning several NIC driver
//! instances.
//!
//! [`make_router`] takes N interfaces — each an ordinary `netdev` object
//! (a NIC driver on its own device, a monitor around one, a simulated
//! link endpoint) plus that interface's IP/MAC — and exports:
//!
//! - the plain `netdev` interface, so a protocol object (UDP/TCP stack)
//!   layers on the router exactly as it layers on a single driver. The
//!   data path is the burst pair of [`crate::burst`]: `send_many` picks
//!   each frame's egress interface by longest-prefix match on the IPv4
//!   destination and hands every interface its frames as one burst;
//!   `recv_many` merges the members' bursts in the order round-robin
//!   `recv` calls would have visited them, asking each member for no
//!   more than its fair share of the room left, so nothing is held
//!   between calls (a member found dry is not polled again within the
//!   burst — the one thing n scalar calls would have done differently);
//! - a `route` interface for the table itself:
//!   - `add_route(prefix: int, len: int, ifindex: int) -> unit`,
//!   - `del_route(prefix: int, len: int) -> unit` — runtime removal (the
//!     chaos drills' route-flap primitive),
//!   - `lookup(ip: int) -> int` — matching ifindex, `-1` if none,
//!   - `probe_window() -> int` / `set_if_up(ifindex, up)` /
//!     `if_health() -> list` — dead-gateway detection: an interface that
//!     transmits for [`DEAD_AFTER_WINDOWS`] consecutive windows without
//!     receiving anything is marked dead, traffic fails over to the next
//!     matching route, and any received frame heals it,
//!   - `forward() -> int` — transit forwarding: drain every member and
//!     re-emit frames routed to a *different* interface (TTL decremented,
//!     IP checksum recomputed, Ethernet rewritten); frames addressed to
//!     one of the router's own IPs queue for local `recv`. Returns frames
//!     moved,
//!   - `stats() -> list [forwarded, local, no_route, ttl_expired,
//!     malformed, failover, unreachable, dead_marks]`,
//!   - `route_stats() -> list of [prefix, len, ifindex, packets, bytes]`.
//!
//! Frames a `netdev send` cannot route (no matching prefix) are counted
//! and dropped rather than erroring: the router models a best-effort IP
//! hop, and per-route counters are the per-route stats the experiments
//! read.

use std::collections::VecDeque;

use paramecium_obj::{ObjError, ObjRef, ObjectBuilder, TypeTag, Value};

use crate::burst::{self, netdev_methods, Drain};
use crate::wire::{self, EthHeader, Ipv4Header, Mac, ETHERTYPE_IPV4};

/// One router interface: a netdev plus its L2/L3 identity.
pub struct RouteIf {
    /// The underlying `netdev` object.
    pub dev: ObjRef,
    /// IP address owned by this interface.
    pub ip: u32,
    /// Hardware address of this interface.
    pub mac: Mac,
}

/// A routing-table entry.
struct RouteEntry {
    prefix: u32,
    len: u8,
    ifindex: usize,
    packets: u64,
    bytes: u64,
}

impl RouteEntry {
    fn matches(&self, ip: u32) -> bool {
        let mask = if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(self.len))
        };
        (ip ^ self.prefix) & mask == 0
    }
}

/// Consecutive tx-without-rx probe windows before an interface's lower
/// driver is declared dead and traffic fails over (see `probe_window`).
pub const DEAD_AFTER_WINDOWS: u32 = 3;

/// Dead-gateway health for one interface. A *window* is the span between
/// two `probe_window` calls (the drill scheduler closes one per round or
/// per N rounds): transmitting all window without hearing anything back
/// is one miss; [`DEAD_AFTER_WINDOWS`] consecutive misses mark the lower
/// driver dead. Any received frame heals it instantly — receipt is proof
/// of life, so recovery needs no probe cycles.
#[derive(Default)]
struct IfHealth {
    tx_win: u64,
    rx_win: u64,
    misses: u32,
    dead: bool,
}

/// Router state.
struct RouterState {
    ifs: Vec<RouteIf>,
    /// Sorted by prefix length, longest first — lookup is first match.
    table: Vec<RouteEntry>,
    /// Per-interface dead-gateway detection state (parallel to `ifs`).
    health: Vec<IfHealth>,
    /// Frames pulled from each member and not yet passed on (parallel to
    /// `ifs`): empty between calls unless one failed mid-burst.
    rx: Vec<Drain>,
    /// Frames routed to each member, leaving as one burst at the end of
    /// the call (parallel to `ifs`); the buffers are kept.
    tx: Vec<Vec<Value>>,
    /// Frames addressed to one of our own IPs, surfaced through `recv`.
    local: VecDeque<Value>,
    /// Round-robin cursor for `recv`.
    next_if: usize,
    forwarded: u64,
    delivered_local: u64,
    no_route: u64,
    ttl_expired: u64,
    malformed: u64,
    /// Frames routed around a dead interface to a worse-matching route.
    failover: u64,
    /// Frames dropped because every matching route's interface was dead.
    unreachable: u64,
    /// Times an interface was marked dead.
    dead_marks: u64,
}

impl RouterState {
    fn lookup(&mut self, ip: u32) -> Option<usize> {
        self.table.iter().position(|r| r.matches(ip))
    }

    fn note_tx(&mut self, ifindex: usize) {
        self.health[ifindex].tx_win += 1;
    }

    /// A frame arrived on `ifindex`: proof of life, heal immediately.
    fn note_rx(&mut self, ifindex: usize) {
        let h = &mut self.health[ifindex];
        h.rx_win += 1;
        h.misses = 0;
        h.dead = false;
    }

    fn is_local(&self, ip: u32) -> bool {
        self.ifs.iter().any(|i| i.ip == ip)
    }

    /// The egress decision, for `netdev` sends and transit alike: the
    /// longest-prefix match that skips dead interfaces — the best route
    /// whose lower driver is alive wins, so a dead gateway fails over to
    /// the next matching (typically shorter-prefix) route — counted.
    /// Returns the route entry to charge.
    fn egress(&mut self, dst: u32) -> Option<usize> {
        let mut dead_match = false;
        for (entry, r) in self.table.iter().enumerate() {
            if !r.matches(dst) {
                continue;
            }
            if self.health[r.ifindex].dead {
                dead_match = true;
                continue;
            }
            // A better-matching route was skipped: its interface is dead.
            self.failover += u64::from(dead_match);
            return Some(entry);
        }
        if dead_match {
            // Routes match but every matching interface is dead.
            self.unreachable += 1;
        } else {
            self.no_route += 1;
        }
        None
    }

    /// Charges route `entry` for `frame` and queues it on the route's
    /// interface; it leaves with that interface's burst (`flush`).
    fn enqueue(&mut self, entry: usize, frame: bytes::Bytes) {
        let e = &mut self.table[entry];
        e.packets += 1;
        e.bytes += frame.len() as u64;
        let ifindex = e.ifindex;
        self.note_tx(ifindex);
        self.tx[ifindex].push(Value::Bytes(frame));
    }

    /// Hands every interface the frames queued on it as one burst. A
    /// burst an interface refuses is dropped and reported — best-effort,
    /// as an IP hop is — and the others still leave.
    fn flush(&mut self) -> Result<(), ObjError> {
        let mut sent = Ok(());
        for (rif, queue) in self.ifs.iter().zip(&mut self.tx) {
            sent = sent.and(burst::send_many(&rif.dev, queue));
            queue.clear();
        }
        sent
    }

    /// `netdev recv_many`: local frames first, then the members in the
    /// order round-robin `recv` calls would have visited them. A member
    /// is asked for no more than its fair share of the room left, so
    /// every frame pulled is passed up and nothing is held in between.
    fn recv_many(&mut self, max: usize, out: &mut Vec<Value>) -> Result<(), ObjError> {
        let local = self.local.len().min(max);
        out.extend(self.local.drain(..local));
        self.rx.iter_mut().for_each(Drain::begin);
        // Where the scalar cursor would rest: past the last member that
        // gave a frame, however many dry ones were polled after it.
        let mut resume = self.next_if;
        while out.len() < max {
            let live = self.rx.iter().filter(|m| !m.is_dry()).count();
            if live == 0 {
                break;
            }
            let idx = self.next_if;
            self.next_if = (idx + 1) % self.ifs.len();
            let share = (max - out.len()).div_ceil(live);
            if let Some(frame) = self.rx[idx].next(&self.ifs[idx].dev, share)? {
                self.note_rx(idx);
                out.reserve(1 + self.rx[idx].held());
                out.push(Value::Bytes(frame));
                resume = self.next_if;
            }
        }
        self.next_if = resume;
        Ok(())
    }

    /// Transit path for one inbound frame on interface `rx_if`. Returns
    /// whether it was queued to leave on another interface.
    fn forward_one(&mut self, rx_if: usize, frame: bytes::Bytes) -> bool {
        let Ok((eth, ip_bytes)) = EthHeader::parse(&frame) else {
            self.malformed += 1;
            return false;
        };
        if eth.ethertype != ETHERTYPE_IPV4 {
            // Non-IP (e.g. ARP handled by a layer below) — deliver locally.
            self.local.push_back(Value::Bytes(frame));
            self.delivered_local += 1;
            return false;
        }
        let Ok((ip, _)) = Ipv4Header::parse(ip_bytes) else {
            self.malformed += 1;
            return false;
        };
        if self.is_local(ip.dst) {
            self.local.push_back(Value::Bytes(frame));
            self.delivered_local += 1;
            return false;
        }
        let Some(entry) = self.egress(ip.dst) else {
            return false;
        };
        let out_if = self.table[entry].ifindex;
        if out_if == rx_if {
            // Routed back where it came from: count it as no-route rather
            // than ping-ponging on the same wire.
            self.no_route += 1;
            return false;
        }
        if ip.ttl <= 1 {
            self.ttl_expired += 1;
            return false;
        }
        // Rewrite: TTL-1, fresh IP checksum, our egress MAC as source.
        let mut out = frame.to_vec();
        out[wire::ETH_HLEN + 8] = ip.ttl - 1;
        out[wire::ETH_HLEN + 10] = 0;
        out[wire::ETH_HLEN + 11] = 0;
        let csum = wire::internet_checksum(&out[wire::ETH_HLEN..wire::ETH_HLEN + wire::IPV4_HLEN]);
        out[wire::ETH_HLEN + 10..wire::ETH_HLEN + 12].copy_from_slice(&csum.to_be_bytes());
        out[0..6].copy_from_slice(&wire::MAC_BROADCAST); // Next hop resolves L2.
        out[6..12].copy_from_slice(&self.ifs[out_if].mac);
        self.enqueue(entry, out.into());
        self.forwarded += 1;
        true
    }

    /// `route forward`: works through everything every member has.
    fn forward(&mut self) -> Result<i64, ObjError> {
        let mut moved = 0;
        for rx_if in 0..self.ifs.len() {
            self.rx[rx_if].begin();
            while let Some(frame) = self.rx[rx_if].next(&self.ifs[rx_if].dev, usize::MAX)? {
                self.note_rx(rx_if);
                moved += i64::from(self.forward_one(rx_if, frame));
            }
        }
        Ok(moved)
    }
}

/// Extracts the IPv4 destination from an Ethernet frame without full
/// validation (routing only needs the address; checksum verification
/// happens at the receiving host).
fn parse_ipv4_dst(frame: &[u8]) -> Option<u32> {
    let (eth, ip_bytes) = EthHeader::parse(frame).ok()?;
    if eth.ethertype != ETHERTYPE_IPV4 || ip_bytes.len() < wire::IPV4_HLEN {
        return None;
    }
    Some(u32::from_be_bytes(
        ip_bytes[16..20].try_into().expect("4 bytes"),
    ))
}

/// Builds a router over the given interfaces (≥1; two NIC driver
/// instances is the canonical gateway shape).
pub fn make_router(ifs: Vec<RouteIf>) -> ObjRef {
    assert!(!ifs.is_empty(), "router needs at least one interface");
    let health = ifs.iter().map(|_| IfHealth::default()).collect();
    let rx = ifs.iter().map(|_| Drain::default()).collect();
    let tx = ifs.iter().map(|_| Vec::new()).collect();
    ObjectBuilder::new("router")
        .state(RouterState {
            ifs,
            table: Vec::new(),
            health,
            rx,
            tx,
            local: VecDeque::new(),
            next_if: 0,
            forwarded: 0,
            delivered_local: 0,
            no_route: 0,
            ttl_expired: 0,
            malformed: 0,
            failover: 0,
            unreachable: 0,
            dead_marks: 0,
        })
        .interface("netdev", |i| {
            netdev_methods(
                i,
                // One LPM per frame, one `send_many` per egress interface.
                |this, tx| {
                    this.with_state(|s: &mut RouterState| {
                        for frame in tx.frames() {
                            match parse_ipv4_dst(frame) {
                                Some(dst) => {
                                    if let Some(entry) = s.egress(dst) {
                                        s.enqueue(entry, frame.clone());
                                    }
                                }
                                None => s.malformed += 1,
                            }
                        }
                        s.flush()
                    })
                },
                |this, max, out| {
                    this.with_state(|s: &mut RouterState| {
                        let pulled = s.recv_many(max, out);
                        if pulled.is_err() {
                            // Served first by the next call, in order.
                            out.drain(..).rev().for_each(|f| s.local.push_front(f));
                        }
                        pulled
                    })
                },
            )
            .method("pending", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut RouterState| {
                    let mut total = s.local.len() as i64;
                    for (rif, held) in s.ifs.iter().zip(&s.rx) {
                        total += held.held() as i64;
                        total += rif.dev.invoke("netdev", "pending", &[])?.as_int()?;
                    }
                    Ok(Value::Int(total))
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                // Aggregate member stats element-wise (they share the
                // driver's [rx, tx, rx_bytes, tx_bytes, dropped] shape).
                this.with_state(|s: &mut RouterState| {
                    let mut agg: Vec<i64> = Vec::new();
                    for rif in &s.ifs {
                        let stats = rif.dev.invoke("netdev", "stats", &[])?;
                        for (i, v) in stats.as_list()?.iter().enumerate() {
                            let n = v.as_int().unwrap_or(0);
                            if i < agg.len() {
                                agg[i] += n;
                            } else {
                                agg.push(n);
                            }
                        }
                    }
                    Ok(Value::List(agg.into_iter().map(Value::Int).collect()))
                })
            })
        })
        .interface("route", |i| {
            i.method(
                "add_route",
                &[TypeTag::Int, TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let prefix = args[0].as_int()? as u32;
                    let len = args[1].as_int()?;
                    let ifindex = args[2].as_int()?;
                    if !(0..=32).contains(&len) {
                        return Err(ObjError::failed("prefix length must be 0..=32"));
                    }
                    this.with_state(|s: &mut RouterState| {
                        if ifindex < 0 || ifindex as usize >= s.ifs.len() {
                            return Err(ObjError::failed(format!(
                                "ifindex {ifindex} out of range"
                            )));
                        }
                        let len = len as u8;
                        let entry = RouteEntry {
                            prefix,
                            len,
                            ifindex: ifindex as usize,
                            packets: 0,
                            bytes: 0,
                        };
                        // Keep longest-prefix-first order; replace an
                        // existing entry for the same prefix/len.
                        if let Some(old) = s
                            .table
                            .iter_mut()
                            .find(|r| r.prefix == prefix && r.len == len)
                        {
                            *old = entry;
                        } else {
                            let at = s.table.partition_point(|r| r.len >= len);
                            s.table.insert(at, entry);
                        }
                        Ok(Value::Unit)
                    })
                },
            )
            .method(
                "del_route",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let prefix = args[0].as_int()? as u32;
                    let len = args[1].as_int()?;
                    if !(0..=32).contains(&len) {
                        return Err(ObjError::failed("prefix length must be 0..=32"));
                    }
                    this.with_state(|s: &mut RouterState| {
                        let len = len as u8;
                        match s
                            .table
                            .iter()
                            .position(|r| r.prefix == prefix && r.len == len)
                        {
                            Some(at) => {
                                s.table.remove(at);
                                Ok(Value::Unit)
                            }
                            None => Err(ObjError::failed(format!(
                                "no route {prefix:#010x}/{len} to delete"
                            ))),
                        }
                    })
                },
            )
            .method("lookup", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let ip = args[0].as_int()? as u32;
                this.with_state(|s: &mut RouterState| {
                    Ok(Value::Int(match s.lookup(ip) {
                        Some(idx) => s.table[idx].ifindex as i64,
                        None => -1,
                    }))
                })
            })
            .method("forward", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut RouterState| {
                    // What was routed before a member failed still leaves.
                    let moved = s.forward();
                    let flushed = s.flush();
                    Ok(Value::Int(moved.and_then(|m| flushed.map(|()| m))?))
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut RouterState| {
                    Ok(Value::List(vec![
                        Value::Int(s.forwarded as i64),
                        Value::Int(s.delivered_local as i64),
                        Value::Int(s.no_route as i64),
                        Value::Int(s.ttl_expired as i64),
                        Value::Int(s.malformed as i64),
                        Value::Int(s.failover as i64),
                        Value::Int(s.unreachable as i64),
                        Value::Int(s.dead_marks as i64),
                    ]))
                })
            })
            // Closes one dead-gateway probe window (see [`IfHealth`]):
            // an interface that transmitted all window without receiving
            // takes a miss; `DEAD_AFTER_WINDOWS` consecutive misses mark
            // it dead. Returns how many interfaces are currently dead.
            .method("probe_window", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut RouterState| {
                    let mut dead = 0i64;
                    let mut marks = 0u64;
                    for h in &mut s.health {
                        if !h.dead && h.tx_win > 0 && h.rx_win == 0 {
                            h.misses += 1;
                            if h.misses >= DEAD_AFTER_WINDOWS {
                                h.dead = true;
                                marks += 1;
                            }
                        } else if h.rx_win > 0 {
                            h.misses = 0;
                        }
                        h.tx_win = 0;
                        h.rx_win = 0;
                        dead += i64::from(h.dead);
                    }
                    s.dead_marks += marks;
                    Ok(Value::Int(dead))
                })
            })
            // Administrative override for drills and operators: force an
            // interface dead (as a NIC blackout would eventually be
            // detected) or alive (clean slate, misses cleared).
            .method(
                "set_if_up",
                &[TypeTag::Int, TypeTag::Bool],
                TypeTag::Unit,
                |this, args| {
                    let ifindex = args[0].as_int()?;
                    let up = args[1].as_bool()?;
                    this.with_state(|s: &mut RouterState| {
                        let idx = usize::try_from(ifindex)
                            .ok()
                            .filter(|&i| i < s.ifs.len())
                            .ok_or_else(|| {
                                ObjError::failed(format!("ifindex {ifindex} out of range"))
                            })?;
                        let h = &mut s.health[idx];
                        if up {
                            h.dead = false;
                            h.misses = 0;
                        } else if !h.dead {
                            h.dead = true;
                            s.dead_marks += 1;
                        }
                        Ok(Value::Unit)
                    })
                },
            )
            // Per-interface health rows: `[ifindex, dead, misses]`.
            .method("if_health", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut RouterState| {
                    Ok(Value::List(
                        s.health
                            .iter()
                            .enumerate()
                            .map(|(i, h)| {
                                Value::List(vec![
                                    Value::Int(i as i64),
                                    Value::Int(i64::from(h.dead)),
                                    Value::Int(i64::from(h.misses)),
                                ])
                            })
                            .collect(),
                    ))
                })
            })
            .method("route_stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut RouterState| {
                    Ok(Value::List(
                        s.table
                            .iter()
                            .map(|r| {
                                Value::List(vec![
                                    Value::Int(i64::from(r.prefix)),
                                    Value::Int(i64::from(r.len)),
                                    Value::Int(r.ifindex as i64),
                                    Value::Int(r.packets as i64),
                                    Value::Int(r.bytes as i64),
                                ])
                            })
                            .collect(),
                    ))
                })
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simlink::{make_simlink, LinkConfig};
    use paramecium_machine::Machine;
    use parking_lot::Mutex;
    use std::sync::Arc;

    const IF0_IP: u32 = 0x0A00_0001; // 10.0.0.1
    const IF1_IP: u32 = 0x0A01_0001; // 10.1.0.1
    const NET0_HOST: u32 = 0x0A00_0002; // 10.0.0.2
    const NET1_HOST: u32 = 0x0A01_0002; // 10.1.0.2

    /// Two links, a router in the middle, the far ends returned for
    /// observation: `(machine, router, far0, far1)`.
    fn gateway() -> (Arc<Mutex<Machine>>, ObjRef, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (near0, far0) = make_simlink(machine.clone(), LinkConfig::perfect(1));
        let (near1, far1) = make_simlink(machine.clone(), LinkConfig::perfect(2));
        let router = make_router(vec![
            RouteIf {
                dev: near0,
                ip: IF0_IP,
                mac: [2, 0, 0, 0, 0, 0x10],
            },
            RouteIf {
                dev: near1,
                ip: IF1_IP,
                mac: [2, 0, 0, 0, 0, 0x11],
            },
        ]);
        let add = |prefix: u32, len: i64, ifi: i64| {
            router
                .invoke(
                    "route",
                    "add_route",
                    &[
                        Value::Int(i64::from(prefix)),
                        Value::Int(len),
                        Value::Int(ifi),
                    ],
                )
                .unwrap();
        };
        add(0x0A00_0000, 24, 0); // 10.0.0.0/24 -> if0
        add(0x0A01_0000, 24, 1); // 10.1.0.0/24 -> if1
        (machine, router, far0, far1)
    }

    fn send_via(dev: &ObjRef, frame: Vec<u8>) {
        dev.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
            .unwrap();
    }

    fn drain(dev: &ObjRef) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let f = dev.invoke("netdev", "recv", &[]).unwrap();
            let b = f.as_bytes().unwrap();
            if b.is_empty() {
                break;
            }
            out.push(b.to_vec());
        }
        out
    }

    #[test]
    fn longest_prefix_wins() {
        let (_m, router, _f0, _f1) = gateway();
        // A /32 host route overriding the /24.
        router
            .invoke(
                "route",
                "add_route",
                &[
                    Value::Int(i64::from(NET0_HOST)),
                    Value::Int(32),
                    Value::Int(1),
                ],
            )
            .unwrap();
        let lookup = |ip: u32| {
            router
                .invoke("route", "lookup", &[Value::Int(i64::from(ip))])
                .unwrap()
                .as_int()
                .unwrap()
        };
        assert_eq!(lookup(NET0_HOST), 1, "/32 beats /24");
        assert_eq!(lookup(0x0A00_0003), 0, "rest of 10.0.0.0/24 unaffected");
        assert_eq!(lookup(NET1_HOST), 1);
        assert_eq!(lookup(0x0808_0808), -1, "no default route");
    }

    #[test]
    fn egress_send_picks_interface_by_destination() {
        let (machine, router, far0, far1) = gateway();
        let f0 = wire::build_udp_frame([9; 6], [8; 6], IF0_IP, NET0_HOST, 1, 2, b"to-net0");
        let f1 = wire::build_udp_frame([9; 6], [8; 6], IF1_IP, NET1_HOST, 1, 2, b"to-net1");
        send_via(&router, f0.clone());
        send_via(&router, f1.clone());
        machine.lock().tick(10);
        assert_eq!(drain(&far0), vec![f0]);
        assert_eq!(drain(&far1), vec![f1]);
    }

    #[test]
    fn transit_forwarding_decrements_ttl_and_rewrites() {
        let (machine, router, far0, far1) = gateway();
        // A host on net0 sends to a host on net1 via the gateway.
        let frame = wire::build_udp_frame(
            [9; 6],
            [2, 0, 0, 0, 0, 0x10],
            NET0_HOST,
            NET1_HOST,
            1111,
            2222,
            b"across",
        );
        far0.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
            .unwrap();
        machine.lock().tick(10);
        let moved = router.invoke("route", "forward", &[]).unwrap();
        assert_eq!(moved, Value::Int(1));
        machine.lock().tick(10);
        let out = drain(&far1);
        assert_eq!(out.len(), 1);
        let (ip, udp, payload) = wire::parse_udp_frame(&out[0]).unwrap();
        assert_eq!(ip.ttl, 63, "TTL decremented");
        assert_eq!(ip.dst, NET1_HOST);
        assert_eq!(udp.dst_port, 2222);
        assert_eq!(payload, b"across");
        assert_eq!(&out[0][6..12], &[2, 0, 0, 0, 0, 0x11], "egress MAC");
        let rstats = router.invoke("route", "stats", &[]).unwrap();
        assert_eq!(rstats.as_list().unwrap()[0], Value::Int(1), "forwarded");
    }

    #[test]
    fn local_frames_surface_through_recv() {
        let (machine, router, far0, _f1) = gateway();
        let frame = wire::build_udp_frame(
            [9; 6],
            [2, 0, 0, 0, 0, 0x10],
            NET0_HOST,
            IF0_IP,
            5,
            6,
            b"for-router",
        );
        far0.invoke(
            "netdev",
            "send",
            &[Value::Bytes(bytes::Bytes::from(frame.clone()))],
        )
        .unwrap();
        machine.lock().tick(10);
        router.invoke("route", "forward", &[]).unwrap();
        assert_eq!(drain(&router), vec![frame]);
        let rstats = router.invoke("route", "stats", &[]).unwrap();
        assert_eq!(rstats.as_list().unwrap()[1], Value::Int(1), "local");
    }

    #[test]
    fn ttl_expiry_and_no_route_are_counted_not_forwarded() {
        let (machine, router, far0, far1) = gateway();
        // TTL 1: must die at the gateway.
        let mut dying = wire::build_udp_frame([9; 6], [2; 6], NET0_HOST, NET1_HOST, 1, 2, b"dying");
        dying[wire::ETH_HLEN + 8] = 1;
        let csum_off = wire::ETH_HLEN + 10;
        dying[csum_off] = 0;
        dying[csum_off + 1] = 0;
        let csum =
            wire::internet_checksum(&dying[wire::ETH_HLEN..wire::ETH_HLEN + wire::IPV4_HLEN]);
        dying[csum_off..csum_off + 2].copy_from_slice(&csum.to_be_bytes());
        // No route: destination outside both nets.
        let lost = wire::build_udp_frame([9; 6], [2; 6], NET0_HOST, 0x0808_0808, 1, 2, b"lost");
        for f in [dying, lost] {
            far0.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(f))])
                .unwrap();
        }
        machine.lock().tick(10);
        assert_eq!(
            router.invoke("route", "forward", &[]).unwrap(),
            Value::Int(0)
        );
        machine.lock().tick(10);
        assert!(drain(&far1).is_empty());
        let rstats = router.invoke("route", "stats", &[]).unwrap();
        let s = rstats.as_list().unwrap().to_vec();
        assert_eq!(s[2], Value::Int(1), "no_route");
        assert_eq!(s[3], Value::Int(1), "ttl_expired");
    }

    #[test]
    fn del_route_removes_at_runtime() {
        let (_m, router, _f0, _f1) = gateway();
        let lookup = |ip: u32| {
            router
                .invoke("route", "lookup", &[Value::Int(i64::from(ip))])
                .unwrap()
                .as_int()
                .unwrap()
        };
        assert_eq!(lookup(NET1_HOST), 1);
        router
            .invoke(
                "route",
                "del_route",
                &[Value::Int(0x0A01_0000), Value::Int(24)],
            )
            .unwrap();
        assert_eq!(lookup(NET1_HOST), -1, "flapped away");
        // Deleting twice is an error; re-adding restores service.
        assert!(router
            .invoke(
                "route",
                "del_route",
                &[Value::Int(0x0A01_0000), Value::Int(24)],
            )
            .is_err());
        router
            .invoke(
                "route",
                "add_route",
                &[Value::Int(0x0A01_0000), Value::Int(24), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(lookup(NET1_HOST), 1, "flapped back");
    }

    #[test]
    fn dead_gateway_fails_over_and_heals_on_rx() {
        let (machine, router, far0, far1) = gateway();
        // A default route through if1 is the failover path.
        router
            .invoke(
                "route",
                "add_route",
                &[Value::Int(0), Value::Int(0), Value::Int(1)],
            )
            .unwrap();
        let probe = || {
            router
                .invoke("route", "probe_window", &[])
                .unwrap()
                .as_int()
                .unwrap()
        };
        let to_net0 = wire::build_udp_frame([9; 6], [8; 6], IF0_IP, NET0_HOST, 1, 2, b"ping");
        // Three windows of tx-without-rx on if0 mark it dead.
        for w in 0..DEAD_AFTER_WINDOWS {
            send_via(&router, to_net0.clone());
            let dead = probe();
            assert_eq!(dead, i64::from(w + 1 == DEAD_AFTER_WINDOWS));
        }
        machine.lock().tick(10);
        drain(&far0); // The pre-death transmissions did reach the wire.
                      // Dead: the /24's traffic fails over to the default route.
        send_via(&router, to_net0.clone());
        machine.lock().tick(10);
        assert!(drain(&far0).is_empty(), "if0 skipped while dead");
        assert_eq!(drain(&far1).len(), 1, "failed over to if1");
        let s = router.invoke("route", "stats", &[]).unwrap();
        let s = s.as_list().unwrap().to_vec();
        assert_eq!(s[5], Value::Int(1), "failover counted");
        assert_eq!(s[7], Value::Int(1), "one dead mark");
        // A frame arriving on if0 is proof of life: instant heal.
        let inbound = wire::build_udp_frame(
            [9; 6],
            [2, 0, 0, 0, 0, 0x10],
            NET0_HOST,
            IF0_IP,
            5,
            6,
            b"alive",
        );
        far0.invoke(
            "netdev",
            "send",
            &[Value::Bytes(bytes::Bytes::from(inbound))],
        )
        .unwrap();
        machine.lock().tick(10);
        assert!(!drain(&router).is_empty());
        assert_eq!(probe(), 0, "healed");
        send_via(&router, to_net0);
        machine.lock().tick(10);
        assert_eq!(drain(&far0).len(), 1, "traffic back on the best route");
    }

    #[test]
    fn zero_healthy_routes_is_unreachable_not_a_panic() {
        let (machine, router, far0, far1) = gateway();
        for ifi in [0i64, 1] {
            router
                .invoke("route", "set_if_up", &[Value::Int(ifi), Value::Bool(false)])
                .unwrap();
        }
        let f = wire::build_udp_frame([9; 6], [8; 6], IF0_IP, NET0_HOST, 1, 2, b"void");
        send_via(&router, f); // Must return cleanly, not panic.
        machine.lock().tick(10);
        assert!(drain(&far0).is_empty() && drain(&far1).is_empty());
        let s = router.invoke("route", "stats", &[]).unwrap();
        let s = s.as_list().unwrap().to_vec();
        assert_eq!(s[6], Value::Int(1), "unreachable counted");
        assert_eq!(s[2], Value::Int(0), "distinct from no_route");
        let health = router.invoke("route", "if_health", &[]).unwrap();
        for row in health.as_list().unwrap() {
            assert_eq!(row.as_list().unwrap()[1], Value::Int(1), "marked dead");
        }
        // set_if_up(true) restores service without probe cycles.
        router
            .invoke("route", "set_if_up", &[Value::Int(0), Value::Bool(true)])
            .unwrap();
        let f = wire::build_udp_frame([9; 6], [8; 6], IF0_IP, NET0_HOST, 1, 2, b"back");
        send_via(&router, f);
        machine.lock().tick(10);
        assert_eq!(drain(&far0).len(), 1);
    }

    #[test]
    fn per_route_stats_account_traffic() {
        let (_m, router, _f0, _f1) = gateway();
        let f = wire::build_udp_frame([9; 6], [8; 6], IF0_IP, NET0_HOST, 1, 2, b"x");
        let len = f.len() as i64;
        send_via(&router, f.clone());
        send_via(&router, f);
        let rs = router.invoke("route", "route_stats", &[]).unwrap();
        let rows: Vec<Vec<Value>> = rs
            .as_list()
            .unwrap()
            .iter()
            .map(|r| r.as_list().unwrap().to_vec())
            .collect();
        let net0 = rows
            .iter()
            .find(|r| r[0] == Value::Int(0x0A00_0000))
            .unwrap();
        assert_eq!(net0[3], Value::Int(2), "packets");
        assert_eq!(net0[4], Value::Int(2 * len), "bytes");
    }

    #[test]
    fn a_member_that_fails_mid_burst_loses_no_frame_already_pulled() {
        use crate::burst::fakes::{fuse, Blown};
        use std::sync::atomic::Ordering;
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (near0, far0) = make_simlink(machine.clone(), LinkConfig::perfect(1));
        let (near1, far1) = make_simlink(machine.clone(), LinkConfig::perfect(2));
        let blown = Arc::new(Blown::default());
        let router = make_router(vec![
            RouteIf {
                dev: near0,
                ip: IF0_IP,
                mac: [2, 0, 0, 0, 0, 0x10],
            },
            RouteIf {
                dev: fuse(near1, blown.clone()),
                ip: IF1_IP,
                mac: [2, 0, 0, 0, 0, 0x11],
            },
        ]);
        let frame =
            |tag: u8| wire::build_udp_frame([9; 6], [8; 6], NET0_HOST, IF0_IP, 1, 2, &[tag]);
        for tag in [1, 2, 3] {
            send_via(&far0, frame(tag));
        }
        send_via(&far1, frame(9));
        machine.lock().tick(10);
        // if0 gives its first frame, then if1's turn fails.
        blown.rx.store(true, Ordering::Relaxed);
        assert!(router
            .invoke("netdev", "recv_many", &[Value::Int(8)])
            .is_err());
        let pending = router.invoke("netdev", "pending", &[]).unwrap();
        assert_eq!(
            pending,
            Value::Int(4),
            "held frames count with the devices'"
        );
        blown.rx.store(false, Ordering::Relaxed);
        let tags: Vec<u8> = drain(&router).iter().map(|f| f[f.len() - 1]).collect();
        assert_eq!(tags.len(), 4, "nothing lost");
        assert_eq!(tags[0], 1, "what had been pulled comes first");
        let if0: Vec<u8> = tags.iter().copied().filter(|&t| t != 9).collect();
        assert_eq!(if0, [1, 2, 3], "each member's frames stay in order");
    }
}
