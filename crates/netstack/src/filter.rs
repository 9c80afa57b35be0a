//! Packet filters — the downloadable protocol-processing components.
//!
//! "For example, inserting application components for fast protocol
//! processing into a shared network device driver is close to impossible
//! [under software-only protection]" (paper, section 1). These filters are
//! those application components. All export the `filter` interface:
//!
//! - `check(frame: bytes) -> bool` — should this frame be delivered?
//! - `stats() -> list`: a [`FilterStats`] block (a native filter) or an
//!   [`AdapterStats`] block (an adapted bytecode component).
//!
//! Three flavours:
//! - a **native** filter (Rust, part of the toolbox),
//! - a **bytecode** filter program written in the verifiable idiom
//!   (constant-offset loads), which a type-safe-compiler certifier will
//!   sign — and an adapter wrapping any loaded bytecode component object
//!   into the `filter` interface.

use paramecium_obj::{counters, ObjRef, ObjectBuilder, TypeTag, Value};
use paramecium_sfi::{asm::Asm, bytecode::Program, Reg};

use crate::wire;

counters! {
    /// The `filter stats` of a native filter.
    pub struct FilterStats {
        pub checked: u64,
        pub accepted: u64,
    }

    /// The `filter stats` of an adapted bytecode component.
    pub struct AdapterStats {
        /// Steps the component's last run took (its `component steps`).
        pub steps: u64,
    }
}

#[derive(Default)]
struct FilterState {
    port: u16,
    stats: FilterStats,
}

/// Builds a native filter accepting UDP datagrams to `port`.
pub fn make_native_port_filter(port: u16) -> ObjRef {
    make_port_filter("port-filter", port, |frame, port| {
        matches!(
            wire::parse_udp_frame(frame),
            Ok((_, udp, _)) if udp.dst_port == port
        )
    })
}

/// The native filter object: counts what it checks and what `accepts`
/// (a predicate over the frame and the port) lets through.
fn make_port_filter(
    class: &str,
    port: u16,
    accepts: impl Fn(&[u8], u16) -> bool + Send + Sync + 'static,
) -> ObjRef {
    ObjectBuilder::new(class)
        .state(FilterState {
            port,
            ..FilterState::default()
        })
        .interface("filter", |i| {
            i.method(
                "check",
                &[TypeTag::Bytes],
                TypeTag::Bool,
                move |this, args| {
                    let frame = args[0].as_bytes()?.clone();
                    this.with_state(|s: &mut FilterState| {
                        s.stats.checked += 1;
                        let ok = accepts(&frame, s.port);
                        s.stats.accepted += u64::from(ok);
                        Ok(Value::Bool(ok))
                    })
                },
            )
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut FilterState| Ok(s.stats.to_value()))
            })
        })
        .build()
}

/// Byte offset of the L4 destination port in an Ethernet/IPv4/{UDP,TCP}
/// frame with no IP options (the port sits at the same offset in both).
const DST_PORT_OFF: i64 = (wire::ETH_HLEN + wire::IPV4_HLEN + 2) as i64;

/// Data-segment size for filter programs (must hold a max-size frame; a
/// power of two for the verified idiom).
pub const FILTER_SEGMENT: u32 = 2048;

/// Builds a *verifiable* bytecode UDP-port filter: returns 1 in `r0` when
/// the frame in its data segment is addressed to `port`.
///
/// All loads use compile-time-constant addresses, so the load-time
/// verifier proves it safe — this is the component a type-safe-compiler
/// certifier signs automatically.
pub fn udp_port_filter_program(port: u16) -> Program {
    let r = Reg::new;
    let mut a = Asm::new(FILTER_SEGMENT);
    // r2 = frame[36] << 8 | frame[37] (big-endian dst port).
    a.li(r(1), DST_PORT_OFF);
    a.ldb(r(2), r(1), 0);
    a.li(r(3), 8);
    a.raw(paramecium_sfi::Insn::Shl {
        rd: r(2),
        rs1: r(2),
        rs2: r(3),
    });
    a.ldb(r(4), r(1), 1);
    a.raw(paramecium_sfi::Insn::Or {
        rd: r(2),
        rs1: r(2),
        rs2: r(4),
    });
    a.li(r(5), i64::from(port));
    a.li(r(0), 0);
    a.bne(r(2), r(5), "reject");
    a.li(r(0), 1);
    a.label("reject");
    a.halt();
    a.finish().expect("static labels")
}

/// Builds an *unverifiable* bytecode filter that additionally checksums
/// the whole frame with raw pointer arithmetic (accepts any non-zero-sum
/// frame to `port`). The verifier rejects it; only certification (or SFI)
/// gets it into the kernel.
pub fn checksumming_filter_program(port: u16) -> Program {
    let r = Reg::new;
    let mut a = Asm::new(FILTER_SEGMENT);
    // First the port check, as above.
    a.li(r(1), DST_PORT_OFF);
    a.ldb(r(2), r(1), 0);
    a.li(r(3), 8);
    a.raw(paramecium_sfi::Insn::Shl {
        rd: r(2),
        rs1: r(2),
        rs2: r(3),
    });
    a.ldb(r(4), r(1), 1);
    a.raw(paramecium_sfi::Insn::Or {
        rd: r(2),
        rs1: r(2),
        rs2: r(4),
    });
    a.li(r(5), i64::from(port));
    a.li(r(0), 0);
    a.bne(r(2), r(5), "reject");
    // Then a raw byte-sum over the first 64 bytes (r1 is a moving
    // pointer: unverifiable).
    a.li(r(1), 0);
    a.li(r(6), 64);
    a.li(r(7), 0);
    a.label("sum");
    a.ldb(r(8), r(1), 0);
    a.add(r(7), r(7), r(8));
    a.addi(r(1), r(1), 1);
    a.bltu(r(1), r(6), "sum");
    a.li(r(9), 0);
    a.li(r(0), 0);
    a.beq(r(7), r(9), "reject");
    a.li(r(0), 1);
    a.label("reject");
    a.halt();
    a.finish().expect("static labels")
}

/// Wraps a loaded bytecode component object (exporting `component`) into
/// the `filter` interface, so the UDP stack can use native and bytecode
/// filters interchangeably.
pub fn adapt_bytecode_filter(component: ObjRef) -> ObjRef {
    ObjectBuilder::new(format!("filter-adapter<{}>", component.class()))
        .interface("filter", |i| {
            let for_stats = component.clone();
            i.method("check", &[TypeTag::Bytes], TypeTag::Bool, move |_, args| {
                let frame = args[0].clone();
                let r = component.invoke("component", "run", &[frame, Value::Int(0)])?;
                Ok(Value::Bool(r.as_int()? != 0))
            })
            .method("stats", &[], TypeTag::List, move |_, _| {
                let steps = for_stats.invoke("component", "steps", &[])?.as_int()? as u64;
                Ok(AdapterStats { steps }.to_value())
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::udp_frame_to;
    use paramecium_sfi::{analysis, interp::Interp, verifier};

    fn frame_to(port: u16) -> Vec<u8> {
        udp_frame_to(port, b"payload")
    }

    #[test]
    fn native_filter_matches_port() {
        let f = make_native_port_filter(53);
        let yes = f
            .invoke(
                "filter",
                "check",
                &[Value::Bytes(bytes::Bytes::from(frame_to(53)))],
            )
            .unwrap();
        let no = f
            .invoke(
                "filter",
                "check",
                &[Value::Bytes(bytes::Bytes::from(frame_to(80)))],
            )
            .unwrap();
        assert_eq!(yes, Value::Bool(true));
        assert_eq!(no, Value::Bool(false));
        let stats = f.invoke("filter", "stats", &[]).unwrap();
        let want = FilterStats {
            checked: 2,
            accepted: 1,
        };
        assert_eq!(FilterStats::from_value(&stats).unwrap(), want);
    }

    #[test]
    fn native_filter_rejects_garbage() {
        let f = make_native_port_filter(53);
        let r = f
            .invoke(
                "filter",
                "check",
                &[Value::Bytes(bytes::Bytes::from(vec![0u8; 10]))],
            )
            .unwrap();
        assert_eq!(r, Value::Bool(false));
    }

    #[test]
    fn bytecode_port_filter_is_verifiable_and_correct() {
        let p = udp_port_filter_program(53);
        verifier::verify(&p).expect("port filter must verify");
        for (port, want) in [(53u16, 1u64), (80, 0)] {
            let mut i = Interp::new(&p);
            i.load_data(0, &frame_to(port));
            assert_eq!(i.run(10_000).unwrap().result, want, "port {port}");
        }
    }

    #[test]
    fn checksumming_filter_is_not_verifiable_but_works() {
        let p = checksumming_filter_program(53);
        assert!(verifier::verify(&p).is_err());
        let mut i = Interp::new(&p);
        i.load_data(0, &frame_to(53));
        assert_eq!(i.run(10_000).unwrap().result, 1);
        let mut i = Interp::new(&p);
        i.load_data(0, &frame_to(80));
        assert_eq!(i.run(10_000).unwrap().result, 0);
    }

    /// The loader analyses a filter on every softened load; neither may
    /// come near the `TooComplex` budget, and the straight-line port filter
    /// is three block visits.
    #[test]
    fn filter_programs_converge_within_a_quarter_of_their_budget() {
        let [port, _] = [udp_port_filter_program(7), checksumming_filter_program(7)].map(|p| {
            let report = analysis::analyze(&p).expect("converges").report;
            let budget = analysis::default_budget(&p);
            assert!(report.evaluations <= budget / 4, "{report:?} of {budget}");
            report
        });
        assert_eq!((port.iterations, port.evaluations), (3, 22));
    }

    #[test]
    fn adapter_bridges_component_to_filter_interface() {
        let machine =
            std::sync::Arc::new(parking_lot::Mutex::new(paramecium_machine::Machine::new()));
        let component = paramecium_core::loader::make_bytecode_object(
            "port-filter-bc",
            udp_port_filter_program(53),
            paramecium_core::loader::Protection::CertifiedNative,
            machine,
            1 << 20,
        );
        let filter = adapt_bytecode_filter(component);
        let yes = filter
            .invoke(
                "filter",
                "check",
                &[Value::Bytes(bytes::Bytes::from(frame_to(53)))],
            )
            .unwrap();
        assert_eq!(yes, Value::Bool(true));
        let no = filter
            .invoke(
                "filter",
                "check",
                &[Value::Bytes(bytes::Bytes::from(frame_to(80)))],
            )
            .unwrap();
        assert_eq!(no, Value::Bool(false));
    }
}
