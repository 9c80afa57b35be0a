//! A burst of n is observably n scalar calls in the same order.
//!
//! Every `netdev` layer derives `send` / `recv` from its burst pair, so
//! the two forms cannot drift apart by construction — but the burst
//! bodies take one lock, read the clock once and classify in one pass,
//! and that is where an ordering or an RNG draw could slip. Each twin
//! test here builds the same seeded stack twice and drives one copy with
//! scalar calls and the other with bursts cut at arbitrary points; after
//! every step both must have handed up and down the same frames and show
//! the same `stats` at every layer — down to the link's
//! `dropped/duplicated/reordered/corrupted`, i.e. the RNG stream.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! deque arithmetic and iterator fusion are optimisation-sensitive.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;

use paramecium_machine::Machine;
use paramecium_netstack::arp::make_arp;
use paramecium_netstack::burst::netdev_methods;
use paramecium_netstack::monitor::make_network_monitor;
use paramecium_netstack::route::{make_router, RouteIf};
use paramecium_netstack::simlink::{make_simlink, LinkConfig};
use paramecium_netstack::tcp::{make_tcp, BASE_RTO, STAT_DIGEST, STAT_RETRANSMITS};
use paramecium_netstack::testkit::{self, test_driver};
use paramecium_netstack::wire::{self, ArpPacket, Mac, MAC_BROADCAST};
use paramecium_obj::{delegate_interface, InterfaceBuilder, ObjRef, ObjectBuilder, Value};

const IP_A: u32 = 0x0A00_0001;
const IP_B: u32 = 0x0A00_0002;
const IP_NOBODY: u32 = 0x0A00_0063;
const MAC_A: Mac = [2, 0, 0, 0, 0, 0xAA];
const MAC_B: Mac = [2, 0, 0, 0, 0, 0xBB];

/// How a twin talks to the `netdev` under test.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Scalar,
    /// Bursts, cut where `cut` (stepped per burst) says.
    Burst,
}

/// Sizes of the pieces `n` is cut into: 1..=5 each, steered by `cut`.
fn pieces(n: usize, mut cut: u8) -> impl Iterator<Item = usize> {
    let mut left = n;
    std::iter::from_fn(move || {
        let take = (1 + usize::from(cut % 5)).min(left);
        cut = cut.wrapping_mul(31).wrapping_add(7);
        left -= take;
        (take > 0).then_some(take)
    })
}

fn call(dev: &ObjRef, iface: &str, method: &str, args: &[Value]) -> Value {
    dev.invoke(iface, method, args)
        .unwrap_or_else(|e| panic!("{iface}.{method}: {e}"))
}

fn send(dev: &ObjRef, frames: &[Vec<u8>], mode: Mode, cut: u8) {
    let value = |f: &Vec<u8>| Value::Bytes(Bytes::from(f.clone()));
    match mode {
        Mode::Scalar => frames.iter().for_each(|f| {
            call(dev, "netdev", "send", &[value(f)]);
        }),
        Mode::Burst => {
            let mut rest = frames;
            for take in pieces(frames.len(), cut) {
                let burst = rest[..take].iter().map(value).collect();
                call(dev, "netdev", "send_many", &[Value::List(burst)]);
                rest = &rest[take..];
            }
        }
    }
}

/// Up to `k` frames: scalar `recv` until it answers empty, or
/// `recv_many` in pieces until one comes back short.
fn recv(dev: &ObjRef, k: usize, mode: Mode, cut: u8) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    match mode {
        Mode::Scalar => {
            for _ in 0..k {
                let f = call(dev, "netdev", "recv", &[]);
                let f = f.as_bytes().unwrap();
                if f.is_empty() {
                    break;
                }
                got.push(f.to_vec());
            }
        }
        Mode::Burst => {
            for take in pieces(k, cut) {
                let burst = call(dev, "netdev", "recv_many", &[Value::Int(take as i64)]);
                let burst = burst.as_list().unwrap();
                got.extend(burst.iter().map(|f| f.as_bytes().unwrap().to_vec()));
                if burst.len() < take {
                    break;
                }
            }
        }
    }
    got
}

fn machine() -> Arc<Mutex<Machine>> {
    Arc::new(Mutex::new(Machine::new()))
}

fn link_cfg(seed: u64, adversarial: bool) -> LinkConfig {
    match adversarial {
        true => LinkConfig {
            corrupt_permille: 50,
            ..LinkConfig::adversarial(seed)
        },
        false => LinkConfig::perfect(seed),
    }
}

/// `n` distinguishable non-empty frames.
fn raw_frames(serial: &mut u32, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            *serial += 1;
            let mut f = serial.to_be_bytes().to_vec();
            f.resize(4 + (*serial % 40) as usize, 0xEE);
            f
        })
        .collect()
}

// ------------------------------------------------------------------ simlink

struct LinkTwin {
    mode: Mode,
    machine: Arc<Mutex<Machine>>,
    ends: [ObjRef; 2],
    serial: u32,
}

impl LinkTwin {
    /// Applies one op; returns everything observable afterwards.
    fn step(&mut self, (op, arg, cut): (u8, u8, u8)) -> Vec<Value> {
        let mut heard = Vec::new();
        match op {
            0 | 1 => {
                let frames = raw_frames(&mut self.serial, usize::from(arg % 12));
                send(&self.ends[usize::from(op)], &frames, self.mode, cut);
            }
            2 => self.machine.lock().tick(u64::from(arg) * 40),
            _ => {
                heard = recv(
                    &self.ends[usize::from(op % 2)],
                    usize::from(arg % 10),
                    self.mode,
                    cut,
                )
            }
        }
        let mut seen: Vec<Value> = heard.into_iter().map(|f| Value::Bytes(f.into())).collect();
        for end in &self.ends {
            seen.push(call(end, "netdev", "stats", &[]));
            seen.push(call(end, "netdev", "pending", &[]));
        }
        seen
    }
}

proptest! {
    #[test]
    fn prop_simlink_bursts_are_scalar_calls_down_to_the_rng_stream(
        seed in any::<u64>(),
        adversarial in any::<bool>(),
        ops in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 1..80),
    ) {
        let mut twins = [Mode::Scalar, Mode::Burst].map(|mode| {
            let machine = machine();
            let (a, b) = make_simlink(machine.clone(), link_cfg(seed, adversarial));
            LinkTwin { mode, machine, ends: [a, b], serial: 0 }
        });
        for (step, op) in ops.into_iter().enumerate() {
            let [scalar, burst] = twins.each_mut().map(|t| t.step(op));
            prop_assert_eq!(scalar, burst, "step {}: {:?}", step, op);
        }
    }
}

// ---------------------------------------------------------------------- arp

struct ArpTwin {
    mode: Mode,
    machine: Arc<Mutex<Machine>>,
    /// Host A and host B, each `arp` over its end of one link.
    hosts: [ObjRef; 2],
    serial: u32,
}

impl ArpTwin {
    fn new(mode: Mode, seed: u64, adversarial: bool, warm: bool) -> ArpTwin {
        let machine = machine();
        let (la, lb) = make_simlink(machine.clone(), link_cfg(seed, adversarial));
        let hosts = [make_arp(la, IP_A, MAC_A), make_arp(lb, IP_B, MAC_B)];
        if warm {
            for (host, ip, mac) in [(&hosts[0], IP_B, MAC_B), (&hosts[1], IP_A, MAC_A)] {
                let mac = Value::Bytes(Bytes::copy_from_slice(&mac));
                call(host, "arp", "insert", &[Value::Int(i64::from(ip)), mac]);
            }
        }
        ArpTwin {
            mode,
            machine,
            hosts,
            serial: 0,
        }
    }

    /// Outbound frames of every kind the layer tells apart.
    fn outbound(&mut self, from: usize, n: usize, kinds: u8) -> Vec<Vec<u8>> {
        let (src_mac, src_ip, dst_mac, dst_ip) = match from {
            0 => (MAC_A, IP_A, MAC_B, IP_B),
            _ => (MAC_B, IP_B, MAC_A, IP_A),
        };
        (0..n)
            .map(|i| {
                self.serial += 1;
                let tag = self.serial.to_be_bytes();
                let udp = |mac, ip| wire::build_udp_frame(src_mac, mac, src_ip, ip, 1, 2, &tag);
                match (usize::from(kinds) + i) % 5 {
                    0 | 1 => udp(dst_mac, dst_ip),
                    // Unresolved by the upper layer: parks, or goes out
                    // readdressed on a late cache hit.
                    2 => udp(MAC_BROADCAST, dst_ip),
                    // Nobody will ever answer for this one.
                    3 => udp(MAC_BROADCAST, IP_NOBODY),
                    // Genuine IP broadcast floods as it is.
                    _ => udp(MAC_BROADCAST, u32::MAX),
                }
            })
            .collect()
    }

    fn step(&mut self, (op, arg, cut): (u8, u8, u8)) -> Vec<Value> {
        let mut heard = Vec::new();
        let host = usize::from(op % 2);
        match op {
            0 | 1 => {
                let frames = self.outbound(host, usize::from(arg % 10), cut);
                send(&self.hosts[host], &frames, self.mode, cut);
            }
            2 | 3 => self.machine.lock().tick(u64::from(arg) * 40),
            4 | 5 => heard = recv(&self.hosts[host], usize::from(arg % 10), self.mode, cut),
            _ => {
                let peer = [IP_B, IP_A][host];
                call(
                    &self.hosts[host],
                    "arp",
                    "resolve",
                    &[Value::Int(i64::from(peer))],
                );
            }
        }
        let mut seen: Vec<Value> = heard.into_iter().map(|f| Value::Bytes(f.into())).collect();
        for host in &self.hosts {
            seen.push(call(host, "arp", "stats", &[]));
            // The link's counters, through the layer's delegation.
            seen.push(call(host, "netdev", "stats", &[]));
            seen.push(call(host, "netdev", "pending", &[]));
            for ip in [IP_A, IP_B, IP_NOBODY] {
                seen.push(call(host, "arp", "lookup", &[Value::Int(i64::from(ip))]));
            }
        }
        seen
    }
}

proptest! {
    #[test]
    fn prop_arp_bursts_are_scalar_calls_cold_and_warm(
        seed in any::<u64>(),
        adversarial in any::<bool>(),
        warm in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..80),
    ) {
        let mut twins = [Mode::Scalar, Mode::Burst]
            .map(|mode| ArpTwin::new(mode, seed, adversarial, warm));
        for (step, op) in ops.into_iter().enumerate() {
            let [scalar, burst] = twins.each_mut().map(|t| t.step(op));
            prop_assert_eq!(scalar, burst, "step {}: {:?}", step, op);
        }
    }
}

// ------------------------------------------------------------------- router

struct RouterTwin {
    mode: Mode,
    machine: Arc<Mutex<Machine>>,
    router: ObjRef,
    /// Far end of each member link: where arrivals come from and where
    /// routed frames end up.
    far: Vec<ObjRef>,
    near: Vec<ObjRef>,
    serial: u32,
}

fn if_ip(i: usize) -> u32 {
    0x0A00_0001 + ((i as u32) << 16)
}

impl RouterTwin {
    fn new(mode: Mode, seed: u64, n_if: usize) -> RouterTwin {
        let machine = machine();
        let (mut near, mut far, mut ifs) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n_if {
            // Jittered delays: each interface's arrivals come due at
            // their own times.
            let (n, f) = make_simlink(machine.clone(), link_cfg(seed + i as u64, true));
            ifs.push(RouteIf {
                dev: n.clone(),
                ip: if_ip(i),
                mac: [2, 0, 0, 0, 1, i as u8],
            });
            near.push(n);
            far.push(f);
        }
        let router = make_router(ifs);
        for i in 0..n_if {
            let prefix = Value::Int(i64::from(if_ip(i) & 0xFFFF_0000));
            call(
                &router,
                "route",
                "add_route",
                &[prefix, Value::Int(16), Value::Int(i as i64)],
            );
        }
        // A default route, so a dead interface has somewhere to fail over.
        call(
            &router,
            "route",
            "add_route",
            &[Value::Int(0), Value::Int(0), Value::Int(0)],
        );
        RouterTwin {
            mode,
            machine,
            router,
            far,
            near,
            serial: 0,
        }
    }

    /// `n` frames towards hosts on every member net, one off every net,
    /// and one that is not IP at all.
    fn frames(&mut self, n: usize, kinds: u8) -> Vec<Vec<u8>> {
        let n_if = self.far.len();
        (0..n)
            .map(|i| {
                self.serial += 1;
                let tag = self.serial.to_be_bytes();
                let kind = (usize::from(kinds) + i) % (n_if + 2);
                if kind == n_if + 1 {
                    return tag.repeat(5);
                }
                // `kind == n_if` is off every member net: the default route.
                let dst = if_ip(kind) + 7;
                wire::build_udp_frame([9; 6], [8; 6], if_ip(0) + 9, dst, 1, 2, &tag)
            })
            .collect()
    }

    fn step(&mut self, (op, arg, cut): (u8, u8, u8)) -> Vec<Value> {
        let n_if = self.far.len();
        let member = usize::from(cut) % n_if;
        let mut heard = Vec::new();
        match op {
            // Arrivals on one interface (not the form under test).
            0 | 1 => {
                let frames = self.frames(usize::from(arg % 8), cut);
                send(&self.far[member], &frames, Mode::Scalar, 0);
            }
            2 => self.machine.lock().tick(u64::from(arg) * 40),
            3 | 4 => heard = recv(&self.router, usize::from(arg % 12), self.mode, cut),
            5 => {
                let frames = self.frames(usize::from(arg % 10), cut);
                send(&self.router, &frames, self.mode, cut);
            }
            6 => {
                let up = Value::Bool(arg % 3 != 0);
                call(
                    &self.router,
                    "route",
                    "set_if_up",
                    &[Value::Int(member as i64), up],
                );
            }
            _ => {
                call(&self.router, "route", "forward", &[]);
            }
        }
        let mut seen: Vec<Value> = heard.into_iter().map(|f| Value::Bytes(f.into())).collect();
        for method in ["stats", "route_stats", "if_health"] {
            seen.push(call(&self.router, "route", method, &[]));
        }
        seen.push(call(&self.router, "netdev", "pending", &[]));
        for end in self.near.iter().chain(&self.far) {
            seen.push(call(end, "netdev", "stats", &[]));
        }
        seen
    }
}

proptest! {
    #[test]
    fn prop_router_bursts_are_scalar_round_robin_and_per_frame_lpm(
        seed in any::<u64>(),
        n_if in 2usize..=3,
        ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..80),
    ) {
        let mut twins = [Mode::Scalar, Mode::Burst].map(|mode| RouterTwin::new(mode, seed, n_if));
        for (step, op) in ops.into_iter().enumerate() {
            let [scalar, burst] = twins.each_mut().map(|t| t.step(op));
            prop_assert_eq!(scalar, burst, "step {}: {:?}", step, op);
        }
        // What left through the router reached the far ends alike.
        for t in &twins {
            t.machine.lock().tick(1_000_000);
        }
        let [scalar, burst] = twins.each_ref().map(|t| {
            t.far.iter().map(|f| recv(f, usize::MAX, Mode::Scalar, 0)).collect::<Vec<_>>()
        });
        prop_assert_eq!(scalar, burst);
    }
}

// --------------------------------------------- the degenerate and the malformed

type Layer = (
    &'static str,
    ObjRef,
    Arc<Mutex<Machine>>,
    Box<dyn Fn() -> Vec<Value>>,
);

/// One of every layer with three frames waiting to be received, its
/// clock, and what shows whether the layer did anything.
fn loaded_layers() -> Vec<Layer> {
    let frames: Vec<Vec<u8>> = (1..=3u8)
        .map(|tag| wire::build_udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2, &[tag]))
        .collect();
    let stats_of = |objs: Vec<(ObjRef, &'static str)>| -> Box<dyn Fn() -> Vec<Value>> {
        Box::new(move || {
            objs.iter()
                .map(|(o, iface)| call(o, iface, "stats", &[]))
                .collect()
        })
    };
    let mut layers = Vec::new();

    let m = machine();
    let (a, b) = make_simlink(m.clone(), LinkConfig::adversarial(11));
    (0..4).for_each(|_| send(&a, &frames, Mode::Scalar, 0));
    m.lock().tick(100_000);
    let seen = stats_of(vec![(a, "netdev"), (b.clone(), "netdev")]);
    layers.push(("simlink", b, m, seen));

    let m = machine();
    let (a, b) = make_simlink(m.clone(), LinkConfig::perfect(12));
    let arp = make_arp(b.clone(), IP_B, MAC_B);
    send(&a, &frames, Mode::Scalar, 0);
    m.lock().tick(10);
    let seen = stats_of(vec![(arp.clone(), "arp"), (a, "netdev"), (b, "netdev")]);
    layers.push(("arp", arp, m, seen));

    let m = machine();
    let (near, far) = make_simlink(m.clone(), LinkConfig::perfect(13));
    let router = make_router(vec![RouteIf {
        dev: near.clone(),
        ip: IP_B,
        mac: MAC_B,
    }]);
    call(
        &router,
        "route",
        "add_route",
        &[Value::Int(0), Value::Int(0), Value::Int(0)],
    );
    send(&far, &frames, Mode::Scalar, 0);
    m.lock().tick(10);
    let seen = stats_of(vec![
        (router.clone(), "route"),
        (near, "netdev"),
        (far, "netdev"),
    ]);
    layers.push(("router", router, m, seen));

    let (mem, driver) = test_driver();
    frames
        .iter()
        .for_each(|f| testkit::inject_frame(mem.machine(), f.clone()));
    let (monitor, _) = make_network_monitor(driver.clone());
    let tx = mem.clone();
    let seen = stats_of(vec![
        (driver.clone(), "netdev"),
        (monitor.clone(), "netmon"),
    ]);
    let seen: Box<dyn Fn() -> Vec<Value>> = Box::new(move || {
        let mut seen = seen();
        let sent = testkit::tx_take(tx.machine()).is_some();
        seen.push(Value::Bool(sent));
        seen
    });
    layers.push(("monitor over driver", monitor, mem.machine().clone(), seen));
    layers
}

#[test]
fn a_malformed_burst_moves_nothing_at_any_layer() {
    let good = Value::Bytes(Bytes::from_static(&[7; 60]));
    for (name, dev, clock, observe) in loaded_layers() {
        let before = observe();
        let pending = call(&dev, "netdev", "pending", &[]);
        let started = clock.lock().now();
        for bad in [
            Value::List(vec![good.clone(), Value::Int(1), good.clone()]),
            Value::List(vec![Value::List(vec![good.clone()])]),
            good.clone(),
        ] {
            assert!(dev.invoke("netdev", "send_many", &[bad]).is_err(), "{name}");
        }
        for bad in [Value::Int(-1), Value::Int(i64::MIN), good.clone()] {
            assert!(dev.invoke("netdev", "recv_many", &[bad]).is_err(), "{name}");
        }
        assert_eq!(clock.lock().now(), started, "{name}: cycles were charged");
        assert_eq!(observe(), before, "{name}: a counter moved or a frame left");
        assert_eq!(call(&dev, "netdev", "pending", &[]), pending, "{name}");
    }
    // No RNG draw either: a link that turned a malformed burst away deals
    // the next frames the fate its twin, which never saw it, deals them.
    let fates = |insult: bool| {
        let m = machine();
        let (a, b) = make_simlink(m.clone(), link_cfg(5, true));
        if insult {
            let bad = Value::List(vec![good.clone(), Value::Unit]);
            assert!(a.invoke("netdev", "send_many", &[bad]).is_err());
        }
        send(&a, &raw_frames(&mut 0, 60), Mode::Burst, 3);
        m.lock().tick(100_000);
        (
            recv(&b, usize::MAX, Mode::Burst, 0),
            call(&a, "netdev", "stats", &[]),
        )
    };
    assert_eq!(fates(true), fates(false));
}

#[test]
fn recv_many_of_one_is_recv_and_of_none_consumes_nothing() {
    for ((name, dev, clock, observe), (_, twin, ..)) in
        loaded_layers().into_iter().zip(loaded_layers())
    {
        let before = observe();
        let started = clock.lock().now();
        let none = call(&dev, "netdev", "recv_many", &[Value::Int(0)]);
        assert_eq!(none, Value::List(vec![]), "{name}");
        // The driver charges per take attempt, and made none.
        assert_eq!(clock.lock().now(), started, "{name}: cycles were charged");
        assert_eq!(
            observe(),
            before,
            "{name}: asking for nothing did something"
        );
        loop {
            let one = call(&dev, "netdev", "recv_many", &[Value::Int(1)]);
            let scalar = call(&twin, "netdev", "recv", &[]);
            match one.as_list().unwrap() {
                [] => assert_eq!(scalar, Value::Bytes(Bytes::new()), "{name}"),
                [frame] => assert_eq!(*frame, scalar, "{name}"),
                more => panic!("{name}: asked for one, got {}", more.len()),
            }
            if scalar.as_bytes().unwrap().is_empty() {
                break;
            }
        }
    }
}

// --------------------------------------------------------------- end to end

/// `inner` with every burst replayed as scalar calls, `arp` passed
/// through: what a TCP endpoint's lower looked like before bursts.
fn scalarized(inner: ObjRef) -> ObjRef {
    let (tx_inner, rx_inner) = (inner.clone(), inner.clone());
    let netdev = netdev_methods(
        move |_, tx| {
            tx.frames().try_for_each(|f| {
                tx_inner
                    .invoke("netdev", "send", &[Value::Bytes(f.clone())])
                    .map(drop)
            })
        },
        move |_, max, out| {
            while out.len() < max {
                let frame = rx_inner.invoke("netdev", "recv", &[])?;
                if frame.as_bytes()?.is_empty() {
                    break;
                }
                out.push(frame);
            }
            Ok(())
        },
    );
    ObjectBuilder::new("scalarized")
        .raw_interface(delegate_interface(netdev.finish(), inner.clone()))
        .raw_interface(delegate_interface(
            InterfaceBuilder::new("arp").finish(),
            inner,
        ))
        .build()
}

/// Two TCP endpoints over `arp` over an adversarial link, driven for 200
/// steps. Returns what the run showed: per endpoint the digest, segment
/// and retransmit counters, then every byte B's application received.
fn tcp_run(seed: u64, wrap: fn(ObjRef) -> ObjRef) -> (Vec<i64>, Vec<u8>) {
    let machine = machine();
    let (la, lb) = make_simlink(machine.clone(), LinkConfig::adversarial(seed));
    let a = make_tcp(
        machine.clone(),
        wrap(make_arp(la, IP_A, MAC_A)),
        IP_A,
        MAC_A,
    );
    let b = make_tcp(
        machine.clone(),
        wrap(make_arp(lb, IP_B, MAC_B)),
        IP_B,
        MAC_B,
    );
    call(&b, "tcp", "listen", &[Value::Int(80)]);
    let ids: Vec<Value> = (0..3)
        .map(|_| {
            call(
                &a,
                "tcp",
                "connect",
                &[Value::Int(i64::from(IP_B)), Value::Int(80)],
            )
        })
        .collect();
    let mut accepted = Vec::new();
    let mut delivered = Vec::new();
    for step in 0..200u32 {
        let id = &ids[step as usize % ids.len()];
        if step % 3 == 0 {
            let chunk: Vec<u8> = (0..700 + step % 900).map(|i| (i ^ step) as u8).collect();
            // (A connection the adversary has killed refuses the write.)
            let _ = a.invoke("tcp", "send", &[id.clone(), Value::Bytes(chunk.into())]);
        }
        for ep in [&a, &b] {
            call(ep, "tcp", "pump", &[]);
        }
        let fresh = call(&b, "tcp", "accept", &[Value::Int(80)]);
        if fresh != Value::Int(-1) {
            accepted.push(fresh);
        }
        for id in &accepted {
            let got = call(&b, "tcp", "recv", &[id.clone(), Value::Int(1 << 16)]);
            delivered.extend_from_slice(got.as_bytes().unwrap());
        }
        machine.lock().tick(BASE_RTO / 4);
    }
    let mut shown = Vec::new();
    for ep in [&a, &b] {
        let stats = call(ep, "tcp", "stats", &[]);
        let stats = stats.as_list().unwrap();
        for at in [STAT_DIGEST, 0, 1, STAT_RETRANSMITS] {
            shown.push(stats[at].as_int().unwrap());
        }
    }
    (shown, delivered)
}

#[test]
fn tcp_over_scalarized_lowers_runs_the_same_exchange() {
    for seed in [3, 4] {
        let bursts = tcp_run(seed, |lower| lower);
        let scalars = tcp_run(seed, scalarized);
        assert_eq!(
            bursts.0, scalars.0,
            "seed {seed}: digest, segs tx/rx, retransmits"
        );
        assert_eq!(bursts.1, scalars.1, "seed {seed}: delivered bytes");
        assert!(
            bursts.1.len() > 10_000,
            "seed {seed}: the exchange carried data"
        );
        assert!(
            bursts.0[3] > 0,
            "seed {seed}: the link really was adversarial"
        );
    }
}

/// The ARP frame layout the `outbound` kinds rely on: a frame to the
/// broadcast MAC is only "unresolved" when it is IPv4.
#[test]
fn an_arp_request_is_not_mistaken_for_an_unresolved_frame() {
    let m = machine();
    let (la, lb) = make_simlink(m.clone(), LinkConfig::perfect(1));
    let arp = make_arp(la, IP_A, MAC_A);
    let request = ArpPacket {
        op: wire::ARP_OP_REQUEST,
        sender_mac: MAC_A,
        sender_ip: IP_A,
        target_mac: [0; 6],
        target_ip: IP_B,
    }
    .to_frame(MAC_A, MAC_BROADCAST);
    send(&arp, std::slice::from_ref(&request), Mode::Burst, 0);
    m.lock().tick(10);
    assert_eq!(recv(&lb, 4, Mode::Burst, 0), vec![request]);
}
