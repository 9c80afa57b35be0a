//! Every layer's `stats` list is a `counters!` block: this suite pins
//! the positions outside readers index, and checks each block's decoder.
//!
//! - `benchmark_positions_are_pinned`: the end-to-end ledger
//!   (`benchmark/src/adapt.rs`) reads some lists by position. A block
//!   whose fields are reordered fails here, in tier-1, rather than only
//!   in the benchmark's smoke run.
//! - `every_block_round_trips`: for every block, `from_value(to_value(x))
//!   == x`, the list is the one `to_value` always built (field order,
//!   `Value::Int(field as i64)`), and a short list, a long list, a list
//!   holding a non-`Int` and a non-list all come back as typed errors;
//!   the TCP block's newest counters (`acks_tx`, `acks_delayed`) are its
//!   last fields.

use paramecium::cert::store::StoreStats;
use paramecium::core::certsvc::CertStats;
use paramecium::core::events::EventStats;
use paramecium::core::memsvc::MemStats;
use paramecium::netstack::arp::ArpStats;
use paramecium::netstack::driver::NicStats;
use paramecium::netstack::filter::{AdapterStats, FilterStats};
use paramecium::netstack::route::{IfHealthRow, RouteRow, RouterStats};
use paramecium::netstack::simlink::LinkStats;
use paramecium::netstack::stack::UdpStats;
use paramecium::netstack::tcp::{self, TcpStats};
use paramecium::obj::{ObjError, Value};
use paramecium::store::cache::CacheStats;
use paramecium::store::driver::DriverStats;
use paramecium::store::journal::JournalStats;
use paramecium::store::retry::{self, RetryStats};

/// `fields[i]` for each `i` in `at`.
fn names(fields: &[&'static str], at: &[usize]) -> Vec<&'static str> {
    at.iter().map(|&i| fields[i]).collect()
}

#[test]
fn benchmark_positions_are_pinned() {
    // The store.
    assert_eq!(names(DriverStats::FIELDS, &[0, 1]), ["reads", "writes"]);
    assert_eq!(
        names(JournalStats::FIELDS, &[0, 1, 2, 3]),
        [
            "commits",
            "group_appends",
            "appended_records",
            "checkpoints"
        ]
    );
    assert_eq!(
        names(CacheStats::FIELDS, &[0, 1, 2, 3]),
        ["hits", "misses", "writebacks", "resident"]
    );
    assert_eq!((retry::RETRY_STAT_OPS, retry::RETRY_STAT_RETRIES), (0, 1));
    assert_eq!(
        names(
            RetryStats::FIELDS,
            &[retry::RETRY_STAT_OPS, retry::RETRY_STAT_RETRIES]
        ),
        ["ops", "retries"]
    );

    // The netstack.
    assert_eq!(
        names(TcpStats::FIELDS, &[0, 1, 2, 6]),
        ["segs_tx", "segs_rx", "bytes_tx", "filtered"]
    );
    let constants = [tcp::STAT_RETRANSMITS, tcp::STAT_MALFORMED, tcp::STAT_DIGEST];
    assert_eq!(constants, [4, 5, 9]);
    assert_eq!(
        names(TcpStats::FIELDS, &constants),
        ["retransmits", "malformed", "digest"]
    );
    assert_eq!(names(ArpStats::FIELDS, &[3, 4]), ["hits", "misses"]);
    assert_eq!(
        names(RouterStats::FIELDS, &[2, 5]),
        ["no_route", "failover"]
    );
    assert_eq!(names(LinkStats::FIELDS, &[0, 2]), ["sent", "dropped"]);
    assert_eq!(names(AdapterStats::FIELDS, &[0]), ["steps"]);

    // The certification service's counters are read by name, and the
    // `certification stats` block mirrors them field for field. Both
    // literals are exhaustive: a field added to either fails to compile.
    let store = StoreStats {
        full_validations: 1,
        cache_hits: 2,
        signature_checks: 3,
    };
    let block = CertStats {
        full_validations: 1,
        cache_hits: 2,
        signature_checks: 3,
    };
    assert_eq!(CertStats::from(store), block);
}

/// A list entry that uses all 64 bits for some `i`, so a field that only
/// round-trips through `i64` by accident would show.
fn entry(i: usize) -> i64 {
    (i as i64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)
}

macro_rules! check_blocks {
    ($($block:ty),* $(,)?) => {$({
        let name = stringify!($block);
        let n = <$block>::FIELDS.len();
        let list: Vec<Value> = (0..n).map(|i| Value::Int(entry(i))).collect();
        let wire = Value::List(list.clone());
        let x = <$block>::from_value(&wire).unwrap();
        assert_eq!(x.to_value(), wire, "{name}: the list is field order");
        assert_eq!(<$block>::from_value(&x.to_value()).unwrap(), x, "{name}");

        let short = Value::List(list[..n - 1].to_vec());
        let long = Value::List([list.clone(), vec![Value::Int(0)]].concat());
        for bad in [short, long] {
            let e = <$block>::from_value(&bad).unwrap_err();
            assert!(matches!(e, ObjError::Failed(_)), "{name}: {e}");
        }
        let mut not_int = list.clone();
        not_int[n - 1] = Value::Str("7".into());
        let e = <$block>::from_value(&Value::List(not_int)).unwrap_err();
        assert!(matches!(e, ObjError::TypeMismatch { .. }), "{name}: {e}");
        let e = <$block>::from_value(&Value::Int(0)).unwrap_err();
        assert!(matches!(e, ObjError::TypeMismatch { .. }), "{name}: {e}");
    })*};
}

#[test]
fn every_block_round_trips() {
    check_blocks!(
        NicStats,
        FilterStats,
        AdapterStats,
        LinkStats,
        TcpStats,
        UdpStats,
        ArpStats,
        RouterStats,
        RouteRow,
        IfHealthRow,
        DriverStats,
        JournalStats,
        CacheStats,
        RetryStats,
        EventStats,
        MemStats,
        CertStats,
    );

    // The TCP endpoint's ACK counters came last, so no position the
    // ledger reads moved; each decodes from its own entry.
    let n = TcpStats::FIELDS.len();
    assert_eq!(TcpStats::FIELDS[n - 2..], ["acks_tx", "acks_delayed"]);
    let list = Value::List((0..n).map(|i| Value::Int(entry(i))).collect());
    let x = TcpStats::from_value(&list).unwrap();
    assert_eq!(
        (x.acks_tx, x.acks_delayed),
        (entry(n - 2) as u64, entry(n - 1) as u64)
    );
}

#[test]
fn a_full_width_digest_survives_the_list() {
    let x = TcpStats {
        digest: u64::MAX - 5,
        ..TcpStats::default()
    };
    let wire = x.to_value();
    assert_eq!(wire.as_list().unwrap()[tcp::STAT_DIGEST], Value::Int(-6));
    assert_eq!(TcpStats::from_value(&wire).unwrap(), x);
}
