//! A small UDP/IP endpoint object.
//!
//! Layers on any object exporting the `netdev` interface (the real driver,
//! a proxy to it, or an interposing monitor — they are interchangeable,
//! which is the point of the architecture). Exports the `udp` interface:
//!
//! - `bind(port: int) -> unit` — open a local port queue,
//! - `send_to(dst_ip: int, dst_port: int, src_port: int, payload: bytes)`,
//! - `pump() -> int` — drain the device, demultiplex to bound ports
//!   (running the installed filter first, if any); returns frames
//!   processed,
//! - `recv_from(port: int) -> list [src_ip, src_port, payload]`
//!   (empty list when the queue is empty),
//! - `set_filter(filter: handle) -> unit` — install a packet filter
//!   (possibly a cross-domain proxy: that is experiment E7),
//! - `stats() -> list [delivered, no_listener, filtered, malformed]`.

use std::collections::{HashMap, VecDeque};

use paramecium_obj::{ObjRef, ObjectBuilder, TypeTag, Value};

use crate::burst::Drain;
use crate::wire;

/// Queued datagram. The payload is a zero-copy view into the received
/// frame, which stays alive (refcounted) until the application reads it.
struct Datagram {
    src_ip: u32,
    src_port: u16,
    payload: bytes::Bytes,
}

/// Stack instance state.
struct StackState {
    netdev: ObjRef,
    /// Frames pulled from `netdev` a burst at a time; any a failed `pump`
    /// did not get to are the next one's first.
    rx: Drain,
    mac: wire::Mac,
    ip: u32,
    ports: HashMap<u16, VecDeque<Datagram>>,
    filter: Option<ObjRef>,
    delivered: u64,
    no_listener: u64,
    filtered: u64,
    malformed: u64,
}

/// Builds a UDP stack bound to `netdev`, with local address `ip`/`mac`.
pub fn make_udp_stack(netdev: ObjRef, ip: u32, mac: wire::Mac) -> ObjRef {
    ObjectBuilder::new("udp-stack")
        .state(StackState {
            netdev,
            rx: Drain::default(),
            mac,
            ip,
            ports: HashMap::new(),
            filter: None,
            delivered: 0,
            no_listener: 0,
            filtered: 0,
            malformed: 0,
        })
        .interface("udp", |i| {
            i.method("bind", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let port = args[0].as_int()? as u16;
                this.with_state(|s: &mut StackState| {
                    s.ports.entry(port).or_default();
                    Ok(Value::Unit)
                })
            })
            .method(
                "send_to",
                &[TypeTag::Int, TypeTag::Int, TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                |this, args| {
                    let dst_ip = args[0].as_int()? as u32;
                    let dst_port = args[1].as_int()? as u16;
                    let src_port = args[2].as_int()? as u16;
                    let payload = args[3].as_bytes()?.clone();
                    let (netdev, frame) = this.with_state(|s: &mut StackState| {
                        let frame = wire::build_udp_frame(
                            s.mac, [0xFF; 6], // We have no ARP; broadcast MAC.
                            s.ip, dst_ip, src_port, dst_port, &payload,
                        );
                        Ok((s.netdev.clone(), frame))
                    })?;
                    netdev.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])?;
                    Ok(Value::Unit)
                },
            )
            .method(
                "set_filter",
                &[TypeTag::Handle],
                TypeTag::Unit,
                |this, args| {
                    let f = args[0].as_handle()?.clone();
                    this.with_state(|s: &mut StackState| {
                        s.filter = Some(f);
                        Ok(Value::Unit)
                    })
                },
            )
            .method("clear_filter", &[], TypeTag::Unit, |this, _| {
                this.with_state(|s: &mut StackState| {
                    s.filter = None;
                    Ok(Value::Unit)
                })
            })
            .method("pump", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut StackState| {
                    let mut processed = 0i64;
                    s.rx.begin();
                    while let Some(frame) = s.rx.next(&s.netdev, usize::MAX)? {
                        processed += 1;
                        // The filter sees the raw frame first (it may be a
                        // cross-domain proxy — that crossing is the
                        // experiment).
                        if let Some(f) = &s.filter {
                            let ok = f
                                .invoke("filter", "check", &[Value::Bytes(frame.clone())])?
                                .as_bool()?;
                            if !ok {
                                s.filtered += 1;
                                continue;
                            }
                        }
                        match wire::parse_udp_frame(&frame) {
                            Ok((ip, udp, payload)) => match s.ports.get_mut(&udp.dst_port) {
                                Some(q) => {
                                    let off = wire::ETH_HLEN + wire::IPV4_HLEN + wire::UDP_HLEN;
                                    q.push_back(Datagram {
                                        src_ip: ip.src,
                                        src_port: udp.src_port,
                                        payload: frame.slice(off..off + payload.len()),
                                    });
                                    s.delivered += 1;
                                }
                                None => s.no_listener += 1,
                            },
                            Err(_) => s.malformed += 1,
                        }
                    }
                    Ok(Value::Int(processed))
                })
            })
            .method("recv_from", &[TypeTag::Int], TypeTag::List, |this, args| {
                let port = args[0].as_int()? as u16;
                this.with_state(|s: &mut StackState| {
                    match s.ports.get_mut(&port).and_then(VecDeque::pop_front) {
                        Some(d) => Ok(Value::List(vec![
                            Value::Int(i64::from(d.src_ip)),
                            Value::Int(i64::from(d.src_port)),
                            Value::Bytes(d.payload),
                        ])),
                        None => Ok(Value::List(vec![])),
                    }
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut StackState| {
                    Ok(Value::List(vec![
                        Value::Int(s.delivered as i64),
                        Value::Int(s.no_listener as i64),
                        Value::Int(s.filtered as i64),
                        Value::Int(s.malformed as i64),
                    ]))
                })
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::make_native_port_filter;
    use crate::testkit::{self, test_driver, MY_IP, MY_MAC};
    use paramecium_core::memsvc::MemService;
    use std::sync::Arc;

    fn setup() -> (Arc<MemService>, ObjRef) {
        let (mem, driver) = test_driver();
        let stack = make_udp_stack(driver, MY_IP, MY_MAC);
        (mem, stack)
    }

    fn inject_udp(mem: &Arc<MemService>, dst_port: u16, payload: &[u8]) {
        testkit::inject_udp(mem.machine(), dst_port, payload);
    }

    #[test]
    fn end_to_end_receive() {
        let (mem, stack) = setup();
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();
        inject_udp(&mem, 53, b"query-1");
        inject_udp(&mem, 53, b"query-2");
        let n = stack.invoke("udp", "pump", &[]).unwrap();
        assert_eq!(n, Value::Int(2));
        let d = stack.invoke("udp", "recv_from", &[Value::Int(53)]).unwrap();
        let items = d.as_list().unwrap();
        assert_eq!(items[0], Value::Int(0x0A00_0002));
        assert_eq!(items[1], Value::Int(4444));
        assert_eq!(items[2].as_bytes().unwrap().as_ref(), b"query-1");
        // Second datagram still queued.
        let d2 = stack.invoke("udp", "recv_from", &[Value::Int(53)]).unwrap();
        assert_eq!(
            d2.as_list().unwrap()[2].as_bytes().unwrap().as_ref(),
            b"query-2"
        );
        // Then empty.
        let d3 = stack.invoke("udp", "recv_from", &[Value::Int(53)]).unwrap();
        assert!(d3.as_list().unwrap().is_empty());
    }

    #[test]
    fn unbound_ports_count_no_listener() {
        let (mem, stack) = setup();
        inject_udp(&mem, 9999, b"nobody-home");
        stack.invoke("udp", "pump", &[]).unwrap();
        let stats = stack.invoke("udp", "stats", &[]).unwrap();
        assert_eq!(stats.as_list().unwrap()[1], Value::Int(1));
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let (mem, stack) = setup();
        testkit::inject_frame(mem.machine(), vec![0u8; 20]);
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();
        inject_udp(&mem, 53, b"good");
        stack.invoke("udp", "pump", &[]).unwrap();
        let stats = stack.invoke("udp", "stats", &[]).unwrap();
        let s = stats.as_list().unwrap();
        assert_eq!(s[0], Value::Int(1)); // delivered
        assert_eq!(s[3], Value::Int(1)); // malformed
    }

    #[test]
    fn filter_drops_unmatched_frames() {
        let (mem, stack) = setup();
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();
        stack.invoke("udp", "bind", &[Value::Int(80)]).unwrap();
        let filter = make_native_port_filter(53);
        stack
            .invoke("udp", "set_filter", &[Value::Handle(filter)])
            .unwrap();
        inject_udp(&mem, 53, b"pass");
        inject_udp(&mem, 80, b"drop");
        stack.invoke("udp", "pump", &[]).unwrap();
        let stats = stack.invoke("udp", "stats", &[]).unwrap();
        let s = stats.as_list().unwrap();
        assert_eq!(s[0], Value::Int(1)); // delivered (port 53)
        assert_eq!(s[2], Value::Int(1)); // filtered (port 80)
                                         // clear_filter lets everything through again.
        stack.invoke("udp", "clear_filter", &[]).unwrap();
        inject_udp(&mem, 80, b"now-passes");
        stack.invoke("udp", "pump", &[]).unwrap();
        let stats = stack.invoke("udp", "stats", &[]).unwrap();
        assert_eq!(stats.as_list().unwrap()[0], Value::Int(2));
    }

    #[test]
    fn send_to_emits_parseable_frame() {
        let (mem, stack) = setup();
        stack
            .invoke(
                "udp",
                "send_to",
                &[
                    Value::Int(0x0A00_0002),
                    Value::Int(53),
                    Value::Int(3333),
                    Value::Bytes(bytes::Bytes::from_static(b"hello")),
                ],
            )
            .unwrap();
        let frame = testkit::tx_take(mem.machine()).expect("frame sent");
        let (ip, udp, payload) = wire::parse_udp_frame(&frame).unwrap();
        assert_eq!(ip.src, MY_IP);
        assert_eq!(ip.dst, 0x0A00_0002);
        assert_eq!(udp.src_port, 3333);
        assert_eq!(udp.dst_port, 53);
        assert_eq!(payload, b"hello");
    }
}
