//! The interposing network monitor.
//!
//! "building an interposing agent for a network device,
//! `/shared/network`, consists of building an interposing object … and
//! replace the object handle in the name space. All further lookups for
//! `/shared/network` will result in a reference to the interposing agent."
//! (paper, section 2). This module builds that object with the generic
//! [`InterposerBuilder`]; installing it is one
//! [`Nucleus::interpose`](paramecium_core::Nucleus::interpose) call.
//!
//! The monitor is transparent to `netdev` clients and exports an extra
//! `netmon` interface — the "superset of the original object's interfaces".

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use paramecium_obj::{interpose::InterposerBuilder, InterfaceBuilder, ObjRef, TypeTag, Value};

use crate::burst;

/// Shared monitor counters.
#[derive(Debug, Default)]
pub struct NetMonStats {
    /// Frames seen going out.
    pub tx_frames: AtomicU64,
    /// Bytes seen going out.
    pub tx_bytes: AtomicU64,
    /// Frames seen coming in.
    pub rx_frames: AtomicU64,
    /// Bytes seen coming in.
    pub rx_bytes: AtomicU64,
    /// Size histogram buckets: <128, <512, <1024, >=1024.
    pub size_buckets: [AtomicU64; 4],
}

/// Bumps a monitoring counter with a plain load/store instead of a locked
/// RMW: a `fetch_add` costs more than the rest of a monitor hop on some
/// hosts, and these are statistics — racing writers may drop a count, the
/// values are exact in the deterministic single-threaded simulation.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

impl NetMonStats {
    /// Counts one frame of `len` bytes into a direction's counters.
    fn note(&self, frames: &AtomicU64, bytes: &AtomicU64, len: usize) {
        bump(frames, 1);
        bump(bytes, len as u64);
        let idx = match len {
            0..=127 => 0,
            128..=511 => 1,
            512..=1023 => 2,
            _ => 3,
        };
        bump(&self.size_buckets[idx], 1);
    }

    /// Counts what a `send` or `send_many` carries, frame by frame.
    fn note_tx(&self, sent: &Value) {
        burst::frames(sent).for_each(|f| self.note(&self.tx_frames, &self.tx_bytes, f.len()));
    }

    /// Counts what a `recv` or `recv_many` answered; the empty frame of
    /// an idle `recv` is not one.
    fn note_rx(&self, got: &Value) {
        burst::frames(got)
            .filter(|f| !f.is_empty())
            .for_each(|f| self.note(&self.rx_frames, &self.rx_bytes, f.len()));
    }
}

/// Builds a monitoring agent around a `netdev` object. Returns the agent
/// and its shared counters.
pub fn make_network_monitor(target: ObjRef) -> (ObjRef, Arc<NetMonStats>) {
    let stats = Arc::new(NetMonStats::default());

    // The extra `netmon` interface (the superset part).
    let mon_stats = stats.clone();
    let netmon =
        InterfaceBuilder::new("netmon").method("stats", &[], TypeTag::List, move |_, _| {
            Ok(Value::List(vec![
                Value::Int(mon_stats.tx_frames.load(Ordering::Relaxed) as i64),
                Value::Int(mon_stats.tx_bytes.load(Ordering::Relaxed) as i64),
                Value::Int(mon_stats.rx_frames.load(Ordering::Relaxed) as i64),
                Value::Int(mon_stats.rx_bytes.load(Ordering::Relaxed) as i64),
                Value::List(
                    mon_stats
                        .size_buckets
                        .iter()
                        .map(|b| Value::Int(b.load(Ordering::Relaxed) as i64))
                        .collect(),
                ),
            ]))
        });

    // Both forms of each direction count through the same function, so
    // traffic is seen whether a client speaks bursts or single frames.
    // Outbound, the arguments the target accepted are observed (a burst
    // it turns away whole moved no frame); inbound the frames are in the
    // *result*. Overrides (rather than hooks) keep the
    // hook wrapper off every other method's hot path.
    let mut agent = InterposerBuilder::new(target).class("netmon-agent");
    for method in ["send", "send_many"] {
        let tx_stats = stats.clone();
        agent = agent.override_method("netdev", method, move |forward, args| {
            let sent = forward.call(args)?;
            if let Some(out) = args.first() {
                tx_stats.note_tx(out);
            }
            Ok(sent)
        });
    }
    for method in ["recv", "recv_many"] {
        let rx_stats = stats.clone();
        agent = agent.override_method("netdev", method, move |forward, args| {
            let result = forward.call(args)?;
            rx_stats.note_rx(&result);
            Ok(result)
        });
    }
    let agent = agent.extra_interface(netmon.finish()).build();

    (agent, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::make_udp_stack;
    use crate::testkit::{inject_frame, test_driver};
    use paramecium_core::memsvc::MemService;

    fn setup() -> (Arc<MemService>, ObjRef, Arc<NetMonStats>) {
        let (mem, driver) = test_driver();
        let (agent, stats) = make_network_monitor(driver);
        (mem, agent, stats)
    }

    fn inject(mem: &Arc<MemService>, len: usize) {
        inject_frame(mem.machine(), vec![0u8; len]);
    }

    #[test]
    fn monitor_counts_both_directions() {
        let (mem, agent, stats) = setup();
        inject(&mem, 100);
        inject(&mem, 600);
        agent.invoke("netdev", "recv", &[]).unwrap();
        agent.invoke("netdev", "recv", &[]).unwrap();
        agent.invoke("netdev", "recv", &[]).unwrap(); // Empty: not counted.
        agent
            .invoke(
                "netdev",
                "send",
                &[Value::Bytes(bytes::Bytes::from(vec![0u8; 64]))],
            )
            .unwrap();
        assert_eq!(stats.rx_frames.load(Ordering::Relaxed), 2);
        assert_eq!(stats.rx_bytes.load(Ordering::Relaxed), 700);
        assert_eq!(stats.tx_frames.load(Ordering::Relaxed), 1);
        assert_eq!(stats.tx_bytes.load(Ordering::Relaxed), 64);
        // Histogram: 64→b0, 100→b0, 600→b2.
        assert_eq!(stats.size_buckets[0].load(Ordering::Relaxed), 2);
        assert_eq!(stats.size_buckets[2].load(Ordering::Relaxed), 1);

        // The same traffic as bursts — what TCP speaks — counts the same,
        // frame by frame.
        inject(&mem, 100);
        inject(&mem, 600);
        let got = agent.invoke("netdev", "recv_many", &[Value::Int(8)]);
        assert_eq!(got.unwrap().as_list().unwrap().len(), 2);
        let idle = agent.invoke("netdev", "recv_many", &[Value::Int(8)]);
        assert!(idle.unwrap().as_list().unwrap().is_empty());
        let burst = [64, 1200].map(|len| Value::Bytes(bytes::Bytes::from(vec![0u8; len])));
        agent
            .invoke("netdev", "send_many", &[Value::List(burst.into())])
            .unwrap();
        assert_eq!(stats.rx_frames.load(Ordering::Relaxed), 4);
        assert_eq!(stats.rx_bytes.load(Ordering::Relaxed), 1400);
        assert_eq!(stats.tx_frames.load(Ordering::Relaxed), 3);
        assert_eq!(stats.tx_bytes.load(Ordering::Relaxed), 64 + 64 + 1200);
        assert_eq!(stats.size_buckets[0].load(Ordering::Relaxed), 4);
        assert_eq!(stats.size_buckets[2].load(Ordering::Relaxed), 2);
        assert_eq!(stats.size_buckets[3].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn netmon_interface_reports_stats() {
        let (mem, agent, _) = setup();
        inject(&mem, 300);
        agent.invoke("netdev", "recv", &[]).unwrap();
        let v = agent.invoke("netmon", "stats", &[]).unwrap();
        let l = v.as_list().unwrap();
        assert_eq!(l[2], Value::Int(1)); // rx frames.
        assert_eq!(l[3], Value::Int(300)); // rx bytes.
    }

    #[test]
    fn monitor_is_transparent_to_a_udp_stack() {
        // The stack works identically through the agent — interposition is
        // invisible to clients.
        let (mem, agent, stats) = setup();
        let stack = make_udp_stack(agent, crate::testkit::MY_IP, crate::testkit::MY_MAC);
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();
        crate::testkit::inject_udp(mem.machine(), 53, b"through-monitor");
        stack.invoke("udp", "pump", &[]).unwrap();
        let d = stack.invoke("udp", "recv_from", &[Value::Int(53)]).unwrap();
        assert_eq!(
            d.as_list().unwrap()[2].as_bytes().unwrap().as_ref(),
            b"through-monitor"
        );
        assert_eq!(stats.rx_frames.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn monitors_stack_on_monitors() {
        let (mem, agent, inner_stats) = setup();
        let (outer, outer_stats) = make_network_monitor(agent);
        inject(&mem, 200);
        outer.invoke("netdev", "recv", &[]).unwrap();
        assert_eq!(inner_stats.rx_frames.load(Ordering::Relaxed), 1);
        assert_eq!(outer_stats.rx_frames.load(Ordering::Relaxed), 1);
        // A burst crosses both agents as one call and is counted by each.
        for _ in 0..3 {
            inject(&mem, 200);
        }
        outer
            .invoke("netdev", "recv_many", &[Value::Int(8)])
            .unwrap();
        let burst = vec![Value::Bytes(bytes::Bytes::from(vec![0u8; 90])); 2];
        outer
            .invoke("netdev", "send_many", &[Value::List(burst)])
            .unwrap();
        for stats in [&inner_stats, &outer_stats] {
            assert_eq!(stats.rx_frames.load(Ordering::Relaxed), 4);
            assert_eq!(stats.tx_frames.load(Ordering::Relaxed), 2);
            assert_eq!(stats.tx_bytes.load(Ordering::Relaxed), 180);
        }
    }
}
