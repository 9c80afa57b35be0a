//! Integration: the full network scenario — driver, stack, filters,
//! interposition, placement.

use paramecium::core::CoreError;
use paramecium::netstack::driver::NicStats;
use paramecium::netstack::stack::UdpStats;
use paramecium::netstack::{
    filter::{adapt_bytecode_filter, udp_port_filter_program},
    install_driver, make_network_monitor, make_udp_stack,
    testkit::{self, MY_IP, MY_MAC, PEER_IP, PEER_PORT},
    wire,
};
use paramecium::obj::ObjError;
use paramecium::prelude::*;

fn inject_udp(n: &paramecium::core::Nucleus, dst_port: u16, payload: &[u8]) {
    testkit::inject_udp(n.machine(), dst_port, payload);
}

#[test]
fn udp_echo_end_to_end() {
    let world = World::boot();
    let n = &world.nucleus;
    install_driver(n, KERNEL_DOMAIN).unwrap();
    let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    let stack = make_udp_stack(dev, MY_IP, MY_MAC);
    stack.invoke("udp", "bind", &[Value::Int(7)]).unwrap();

    inject_udp(n, 7, b"ping");
    stack.invoke("udp", "pump", &[]).unwrap();
    let d = stack.invoke("udp", "recv_from", &[Value::Int(7)]).unwrap();
    let items = d.as_list().unwrap().to_vec();
    assert_eq!(items[2].as_bytes().unwrap().as_ref(), b"ping");

    // Echo it back; the reply appears on the wire, parseable.
    stack
        .invoke(
            "udp",
            "send_to",
            &[
                items[0].clone(),
                items[1].clone(),
                Value::Int(7),
                items[2].clone(),
            ],
        )
        .unwrap();
    let reply = testkit::tx_take(n.machine()).expect("echo reply transmitted");
    let (ip, udp, payload) = wire::parse_udp_frame(&reply).unwrap();
    assert_eq!(ip.dst, PEER_IP);
    assert_eq!(udp.dst_port, PEER_PORT);
    assert_eq!(payload, b"ping");
}

#[test]
fn certified_bytecode_filter_in_kernel_filters_packets() {
    let world = World::boot();
    let n = &world.nucleus;
    install_driver(n, KERNEL_DOMAIN).unwrap();
    let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    let stack = make_udp_stack(dev, MY_IP, MY_MAC);
    stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();
    stack.invoke("udp", "bind", &[Value::Int(80)]).unwrap();

    // Download, certify (compiler: it is verifiable) and load the filter.
    n.repository
        .add_bytecode("dns-only", &udp_port_filter_program(53));
    assert_eq!(world.certify("dns-only", &[Right::RunKernel]).unwrap(), 0);
    let report = n
        .load(
            "dns-only",
            &LoadOptions::kernel("/kernel/dns-only").strict(),
        )
        .unwrap();
    assert_eq!(report.protection, Protection::CertifiedNative);
    let filter = adapt_bytecode_filter(n.bind(KERNEL_DOMAIN, "/kernel/dns-only").unwrap());
    stack
        .invoke("udp", "set_filter", &[Value::Handle(filter)])
        .unwrap();

    inject_udp(n, 53, b"dns");
    inject_udp(n, 80, b"http");
    inject_udp(n, 53, b"dns2");
    stack.invoke("udp", "pump", &[]).unwrap();
    let stats = stack.invoke("udp", "stats", &[]).unwrap();
    let s = UdpStats::from_value(&stats).unwrap();
    assert_eq!(s.delivered, 2, "two DNS packets delivered");
    assert_eq!(s.filtered, 1, "one HTTP packet filtered");
}

#[test]
fn user_domain_filter_works_through_proxy_and_costs_more() {
    let world = World::boot();
    let n = &world.nucleus;
    install_driver(n, KERNEL_DOMAIN).unwrap();

    let run = |user_placed: bool| -> (u64, u64) {
        let world = World::boot();
        let n = &world.nucleus;
        install_driver(n, KERNEL_DOMAIN).unwrap();
        let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
        let stack = make_udp_stack(dev, MY_IP, MY_MAC);
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();
        let filter = if user_placed {
            let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
            let f = paramecium::netstack::make_native_port_filter(53);
            n.register_shared(app.id, "/app/filter", f).unwrap();
            n.bind(KERNEL_DOMAIN, "/app/filter").unwrap()
        } else {
            let f = paramecium::netstack::make_native_port_filter(53);
            n.register(KERNEL_DOMAIN, "/kernel/filter", f).unwrap();
            n.bind(KERNEL_DOMAIN, "/kernel/filter").unwrap()
        };
        stack
            .invoke("udp", "set_filter", &[Value::Handle(filter)])
            .unwrap();
        for _ in 0..20 {
            inject_udp(n, 53, b"x");
        }
        let t0 = n.now();
        stack.invoke("udp", "pump", &[]).unwrap();
        let cost = n.now() - t0;
        let stats = stack.invoke("udp", "stats", &[]).unwrap();
        let delivered = UdpStats::from_value(&stats).unwrap().delivered;
        (cost, delivered)
    };

    let (kernel_cost, kd) = run(false);
    let (user_cost, ud) = run(true);
    assert_eq!(kd, 20);
    assert_eq!(ud, 20, "user-placed filter must still work");
    assert!(
        user_cost > kernel_cost * 2,
        "cross-domain filtering ({user_cost}) should dwarf in-kernel ({kernel_cost})"
    );
}

#[test]
fn interposed_monitor_sees_traffic_of_existing_and_new_clients() {
    let world = World::boot();
    let n = &world.nucleus;
    install_driver(n, KERNEL_DOMAIN).unwrap();

    // Interpose.
    let target = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    let (agent, stats) = make_network_monitor(target);
    let old = n
        .interpose(KERNEL_DOMAIN, "/shared/network", agent)
        .unwrap();
    assert_eq!(old.class(), "nic-driver");

    // A stack built after interposition.
    let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    assert_eq!(dev.class(), "netmon-agent");
    let stack = make_udp_stack(dev, MY_IP, MY_MAC);
    stack.invoke("udp", "bind", &[Value::Int(9)]).unwrap();
    inject_udp(n, 9, b"observed");
    stack.invoke("udp", "pump", &[]).unwrap();

    use std::sync::atomic::Ordering;
    assert_eq!(stats.rx_frames.load(Ordering::Relaxed), 1);
    assert!(stats.rx_bytes.load(Ordering::Relaxed) > 42);

    // The driver cannot interpose on the agent: it lacks the agent's
    // `netmon`, which a client of the path may have bound.
    let refused = n.interpose(KERNEL_DOMAIN, "/shared/network", old.clone());
    assert!(matches!(refused, Err(CoreError::Obj(ObjError::Binding(_)))));

    // De-interpose in the name space: unbind the agent and bind the
    // original driver again; traffic is no longer counted.
    let ns = &n.domain(KERNEL_DOMAIN).unwrap().namespace;
    let agent = ns.unregister("/shared/network").unwrap();
    assert_eq!(agent.obj.class(), "netmon-agent");
    n.register(KERNEL_DOMAIN, "/shared/network", old).unwrap();
    let dev2 = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    assert_eq!(dev2.class(), "nic-driver");
    let stack2 = make_udp_stack(dev2, MY_IP, MY_MAC);
    stack2.invoke("udp", "bind", &[Value::Int(9)]).unwrap();
    inject_udp(n, 9, b"unobserved");
    stack2.invoke("udp", "pump", &[]).unwrap();
    assert_eq!(stats.rx_frames.load(Ordering::Relaxed), 1);
}

#[test]
fn driver_stats_remain_consistent_under_mixed_traffic() {
    let world = World::boot();
    let n = &world.nucleus;
    install_driver(n, KERNEL_DOMAIN).unwrap();
    let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    let stack = make_udp_stack(dev.clone(), MY_IP, MY_MAC);
    stack.invoke("udp", "bind", &[Value::Int(1)]).unwrap();

    let total = 50usize;
    for i in 0..total {
        inject_udp(n, if i % 2 == 0 { 1 } else { 2 }, &vec![i as u8; 10 + i]);
    }
    stack.invoke("udp", "pump", &[]).unwrap();
    let dstats = dev.invoke("netdev", "stats", &[]).unwrap();
    let d = NicStats::from_value(&dstats).unwrap();
    assert_eq!(d.rx_frames, total as u64, "all frames received");
    let sstats = stack.invoke("udp", "stats", &[]).unwrap();
    let s = UdpStats::from_value(&sstats).unwrap();
    // Half delivered (port 1), half with no listener (port 2).
    assert_eq!((s.delivered, s.no_listener), (25, 25));
}

#[test]
fn out_of_range_arguments_are_refused_not_truncated() {
    // A port is 16 bits and an address 32; an `Int` argument that does not
    // fit is an error at the object boundary. Truncated, 65 589 would bind
    // port 53, -1 would look up 255.255.255.255 and 1 << 32 would teach
    // ARP a binding for 0.0.0.0.
    use paramecium::netstack::arp::make_arp;
    use paramecium::netstack::route::{make_router, RouteIf};
    use paramecium::netstack::simlink::{make_simlink, LinkConfig};
    use paramecium::obj::ObjError;

    let machine = std::sync::Arc::new(parking_lot::Mutex::new(Machine::new()));
    let link = || make_simlink(machine.clone(), LinkConfig::perfect(5)).0;
    let udp = make_udp_stack(link(), MY_IP, MY_MAC);
    let arp = make_arp(link(), MY_IP, MY_MAC);
    let router = make_router(vec![RouteIf {
        dev: link(),
        ip: MY_IP,
        mac: MY_MAC,
    }]);
    let mac = Value::Bytes(bytes::Bytes::copy_from_slice(&MY_MAC));

    for (obj, iface, method, args) in [
        (&udp, "udp", "bind", vec![Value::Int(65_589)]),
        (&router, "route", "lookup", vec![Value::Int(-1)]),
        (
            &arp,
            "arp",
            "insert",
            vec![Value::Int(1 << 32), mac.clone()],
        ),
    ] {
        let r = obj.invoke(iface, method, &args);
        assert!(
            matches!(r, Err(ObjError::Failed(ref m)) if m.contains("out of range")),
            "{iface}.{method}({:?}) answered {r:?}",
            args[0]
        );
    }
    assert_eq!(
        arp.invoke("arp", "lookup", &[Value::Int(0)]).unwrap(),
        Value::Bytes(bytes::Bytes::new()),
        "the refused insert left no binding behind"
    );

    // The edges of each range are still accepted.
    udp.invoke("udp", "bind", &[Value::Int(65_535)]).unwrap();
    router
        .invoke("route", "lookup", &[Value::Int(0xFFFF_FFFF)])
        .unwrap();
    arp.invoke("arp", "insert", &[Value::Int(0xFFFF_FFFF), mac])
        .unwrap();
}
