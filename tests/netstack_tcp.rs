//! TCP property suite: random operation sequences over an adversarial,
//! seeded lossy link, checked against an in-memory byte-stream oracle.
//!
//! Each case builds two TCP endpoints joined by a [`simlink`] configured
//! with ≥10 % drop, ≥10 % duplication and ≥10 % reordering, opens a few
//! connections, then interleaves random sends, receives, pumps and clock
//! ticks on both sides. The oracle is trivial: every byte `send` accepts
//! is appended to a growing `Vec` per direction. After teardown the bytes
//! each application received must equal the oracle **exactly** — same
//! content, same order, nothing missing, nothing duplicated — no matter
//! what the wire did.
//!
//! Determinism rides along: the whole exchange is a pure function of the
//! machine clock and the seeds, so replaying a session must reproduce
//! bit-identical endpoint stats — including the `sum64` digest folded over
//! every transmitted and received segment (the segment trace).
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! the retransmission timing paths exercise optimised arithmetic.
//!
//! The ACK-policy cases at the end count what each pump sends on a
//! perfect link: a lone in-order segment's ACK waits one pump for data to
//! carry it, everything else is acknowledged at the pump that received
//! it, and `recv` owes a window update only once it frees an MSS.
//!
//! [`simlink`]: paramecium::netstack::simlink

use paramecium::machine::Machine;
use paramecium::netstack::simlink::{make_simlink, LinkConfig};
use paramecium::netstack::tcp::{make_tcp, TcpStats, BASE_RTO, RECV_WND, TCP_MSS};
use paramecium::prelude::*;
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

const IP_A: u32 = 0x0A00_0001;
const IP_B: u32 = 0x0A00_0002;
const MAC_A: [u8; 6] = [2, 0, 0, 0, 0, 0xAA];
const MAC_B: [u8; 6] = [2, 0, 0, 0, 0, 0xBB];
const PORT: i64 = 3000;

fn tcp(ep: &ObjRef, method: &str, args: &[Value]) -> Value {
    ep.invoke("tcp", method, args).unwrap()
}

fn state_of(ep: &ObjRef, id: i64) -> String {
    tcp(ep, "state", &[Value::Int(id)])
        .as_str()
        .unwrap()
        .to_string()
}

/// The full observable outcome of a session, compared across replays.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    stats_a: TcpStats,
    stats_b: TcpStats,
    delivered_to_b: Vec<Vec<u8>>,
    delivered_to_a: Vec<Vec<u8>>,
}

/// Runs one random session over a link with every impairment at 10 %.
/// Panics if any stream diverges from its oracle or a connection fails
/// to open or close.
fn run_session(seed: u64) -> Outcome {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let (end_a, end_b) = make_simlink(machine.clone(), LinkConfig::adversarial(seed));
    let a = make_tcp(machine.clone(), end_a, IP_A, MAC_A);
    let b = make_tcp(machine.clone(), end_b, IP_B, MAC_B);
    tcp(&b, "listen", &[Value::Int(PORT)]);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7C15_5EED);
    let pump_round = |ticks: u64| {
        tcp(&a, "pump", &[]);
        tcp(&b, "pump", &[]);
        machine.lock().tick(ticks);
    };

    // Open connections one at a time so the a-side/b-side id pairing is
    // unambiguous even when the wire reorders handshakes.
    let n_conns = rng.gen_range(1usize..3);
    let mut conns: Vec<(i64, i64)> = Vec::new();
    for _ in 0..n_conns {
        let ida = tcp(&a, "connect", &[Value::Int(IP_B as i64), Value::Int(PORT)])
            .as_int()
            .unwrap();
        let idb = loop {
            let idb = tcp(&b, "accept", &[Value::Int(PORT)]).as_int().unwrap();
            if idb >= 0 {
                break idb;
            }
            pump_round(BASE_RTO / 4);
        };
        conns.push((ida, idb));
    }

    // Oracles and receive logs, one per connection per direction.
    let mut oracle_ab = vec![Vec::new(); n_conns];
    let mut oracle_ba = vec![Vec::new(); n_conns];
    let mut got_at_b = vec![Vec::new(); n_conns];
    let mut got_at_a = vec![Vec::new(); n_conns];

    let steps = rng.gen_range(30usize..100);
    for _ in 0..steps {
        let c = rng.gen_range(0usize..n_conns);
        let (ida, idb) = conns[c];
        match rng.gen_range(0u32..6) {
            // Send a..=b: only the bytes `send` accepts enter the oracle.
            dir @ (0 | 1) => {
                let len = rng.gen_range(1usize..1800);
                let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                let (ep, id, oracle) = if dir == 0 {
                    (&a, ida, &mut oracle_ab[c])
                } else {
                    (&b, idb, &mut oracle_ba[c])
                };
                let accepted = tcp(
                    ep,
                    "send",
                    &[
                        Value::Int(id),
                        Value::Bytes(bytes::Bytes::from(data.clone())),
                    ],
                )
                .as_int()
                .unwrap() as usize;
                oracle.extend_from_slice(&data[..accepted]);
            }
            dir @ (2 | 3) => {
                let max = rng.gen_range(1i64..8192);
                let (ep, id, log) = if dir == 2 {
                    (&b, idb, &mut got_at_b[c])
                } else {
                    (&a, ida, &mut got_at_a[c])
                };
                let chunk = tcp(ep, "recv", &[Value::Int(id), Value::Int(max)]);
                log.extend_from_slice(chunk.as_bytes().unwrap());
            }
            4 => pump_round(rng.gen_range(1u64..BASE_RTO)),
            _ => machine.lock().tick(rng.gen_range(1u64..BASE_RTO / 2)),
        }
    }

    // Teardown: close every connection from both ends, then keep the
    // network moving (draining receivers so flow control cannot stall)
    // until everything reaches CLOSED.
    for &(ida, idb) in &conns {
        tcp(&a, "close", &[Value::Int(ida)]);
        tcp(&b, "close", &[Value::Int(idb)]);
    }
    for round in 0.. {
        assert!(round < 4_000, "connections failed to close");
        pump_round(BASE_RTO / 2);
        for (c, &(ida, idb)) in conns.iter().enumerate() {
            let chunk = tcp(&b, "recv", &[Value::Int(idb), Value::Int(1 << 16)]);
            got_at_b[c].extend_from_slice(chunk.as_bytes().unwrap());
            let chunk = tcp(&a, "recv", &[Value::Int(ida), Value::Int(1 << 16)]);
            got_at_a[c].extend_from_slice(chunk.as_bytes().unwrap());
        }
        let all_closed = conns
            .iter()
            .all(|&(ida, idb)| state_of(&a, ida) == "closed" && state_of(&b, idb) == "closed");
        if all_closed {
            break;
        }
    }

    // The delivered streams must match the oracles exactly: in order,
    // complete, duplicate-free — despite ≥10 % drop/dup/reorder.
    for c in 0..n_conns {
        assert_eq!(
            got_at_b[c], oracle_ab[c],
            "conn {c}: a→b stream diverged from oracle (seed {seed})"
        );
        assert_eq!(
            got_at_a[c], oracle_ba[c],
            "conn {c}: b→a stream diverged from oracle (seed {seed})"
        );
    }

    Outcome {
        stats_a: TcpStats::from_value(&tcp(&a, "stats", &[])).unwrap(),
        stats_b: TcpStats::from_value(&tcp(&b, "stats", &[])).unwrap(),
        delivered_to_b: got_at_b,
        delivered_to_a: got_at_a,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed: the delivered byte streams equal the oracle exactly
    /// (checked inside `run_session`), and replaying the same seed
    /// reproduces bit-identical stats — including the segment-trace
    /// digest — on both endpoints.
    #[test]
    fn prop_random_ops_match_oracle_and_replay_identically(seed in any::<u64>()) {
        let first = run_session(seed);
        let second = run_session(seed);
        prop_assert_eq!(&first, &second);
    }
}

/// A fixed seed chosen so the wire demonstrably hurt the exchange: the
/// oracle still matches (asserted inside), and the endpoints really did
/// retransmit — the suite is not accidentally testing a clean link.
#[test]
fn lossy_link_forces_retransmissions_yet_streams_survive() {
    let outcome = run_session(7);
    let retransmits = outcome.stats_a.retransmits + outcome.stats_b.retransmits;
    assert!(
        retransmits > 0,
        "a 10% lossy link must force retransmissions, stats: {outcome:?}"
    );
    let moved: usize = outcome
        .delivered_to_b
        .iter()
        .chain(&outcome.delivered_to_a)
        .map(Vec::len)
        .sum();
    assert!(moved > 0, "the session must actually move data");
}

/// Different seeds must take different fates — if every run produced the
/// same digest the determinism check above would be vacuous.
#[test]
fn different_seeds_diverge() {
    let a = run_session(1001);
    let b = run_session(1002);
    assert_ne!(
        (a.stats_a, a.stats_b),
        (b.stats_a, b.stats_b),
        "distinct seeds should produce distinct segment traces"
    );
}

// ---------------------------------------------------------------------------
// The ACK policy, pinned by the segments each pump sends.
// ---------------------------------------------------------------------------

/// Two endpoints on a perfect link, `a` the client and `b` the server.
struct Wire {
    machine: Arc<Mutex<Machine>>,
    a: ObjRef,
    b: ObjRef,
    end_a: ObjRef,
}

impl Wire {
    fn new(seed: u64) -> Wire {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (end_a, end_b) = make_simlink(machine.clone(), LinkConfig::perfect(seed));
        let a = make_tcp(machine.clone(), end_a.clone(), IP_A, MAC_A);
        let b = make_tcp(machine.clone(), end_b, IP_B, MAC_B);
        tcp(&b, "listen", &[Value::Int(PORT)]);
        Wire {
            machine,
            a,
            b,
            end_a,
        }
    }

    /// A wire with one established connection: `(client id, server id)`.
    /// The handshake is acknowledged in the pump that receives each step.
    fn with_conn(seed: u64) -> (Wire, i64, i64) {
        let w = Wire::new(seed);
        let ia = tcp(
            &w.a,
            "connect",
            &[Value::Int(IP_B as i64), Value::Int(PORT)],
        )
        .as_int()
        .unwrap();
        assert_eq!(w.pump(&w.b), 1, "the SYN is answered at once");
        assert_eq!(w.pump(&w.a), 1, "the SYN-ACK is acknowledged at once");
        assert_eq!(w.pump(&w.b), 0);
        let ib = tcp(&w.b, "accept", &[Value::Int(PORT)]).as_int().unwrap();
        assert!(ib > 0, "handshake completes");
        assert_eq!((w.pump(&w.a), w.pump(&w.b)), (0, 0), "both sides idle");
        (w, ia, ib)
    }

    /// Ticks the clock a little, pumps `ep` once and returns the segments
    /// that pump sent.
    fn pump(&self, ep: &ObjRef) -> u64 {
        self.machine.lock().tick(BASE_RTO / 8);
        let before = stats(ep).segs_tx;
        tcp(ep, "pump", &[]);
        stats(ep).segs_tx - before
    }
}

fn stats(ep: &ObjRef) -> TcpStats {
    TcpStats::from_value(&tcp(ep, "stats", &[])).unwrap()
}

fn send(ep: &ObjRef, id: i64, data: &[u8]) {
    let n = tcp(
        ep,
        "send",
        &[Value::Int(id), Value::Bytes(data.to_vec().into())],
    );
    assert_eq!(n, Value::Int(data.len() as i64));
}

fn recv(ep: &ObjRef, id: i64, max: usize) -> Vec<u8> {
    tcp(ep, "recv", &[Value::Int(id), Value::Int(max as i64)])
        .as_bytes()
        .unwrap()
        .to_vec()
}

/// `(acks_tx, acks_delayed)` of `ep`.
fn acks(ep: &ObjRef) -> (u64, u64) {
    let s = stats(ep);
    (s.acks_tx, s.acks_delayed)
}

#[test]
fn a_lone_segment_answered_before_the_next_pump_has_its_ack_ride_on_the_reply() {
    let (w, ia, ib) = Wire::with_conn(1);
    send(&w.a, ia, &[1; 100]);
    assert_eq!(w.pump(&w.a), 1);
    assert_eq!(w.pump(&w.b), 0, "the ACK waits for data");
    assert_eq!(recv(&w.b, ib, 1 << 16), [1; 100]);
    send(&w.b, ib, &[2; 100]);
    assert_eq!(w.pump(&w.b), 1, "the reply carries the ACK");
    assert_eq!(w.pump(&w.b), 0, "and no pure ACK follows it");
    assert_eq!(acks(&w.b), (0, 1));
    // The client's side of the exchange is the same lone segment.
    assert_eq!(w.pump(&w.a), 0);
    assert_eq!(recv(&w.a, ia, 1 << 16), [2; 100]);
    assert_eq!(w.pump(&w.a), 1, "nothing to carry it: the ACK goes alone");
    assert_eq!(acks(&w.a), (2, 0), "the handshake's ACK and this one");
    assert_eq!(stats(&w.a).retransmits + stats(&w.b).retransmits, 0);
}

#[test]
fn an_unanswered_lone_segment_is_acknowledged_at_the_next_pump() {
    let (w, ia, _) = Wire::with_conn(2);
    send(&w.a, ia, &[1; 100]);
    assert_eq!(w.pump(&w.a), 1);
    assert_eq!(w.pump(&w.b), 0, "no ACK in the pump that received it");
    assert_eq!(w.pump(&w.b), 1, "one pure ACK at the next");
    assert_eq!(w.pump(&w.b), 0);
    assert_eq!(acks(&w.b), (1, 0));
    assert_eq!(w.pump(&w.a), 0, "the sender has nothing to retransmit");
    assert_eq!(stats(&w.a).retransmits, 0);
}

#[test]
fn two_segments_in_one_pump_are_acknowledged_in_that_pump() {
    let (w, ia, _) = Wire::with_conn(3);
    send(&w.a, ia, &[1; 2 * TCP_MSS]);
    assert_eq!(w.pump(&w.a), 2);
    assert_eq!(w.pump(&w.b), 1);
    assert_eq!(w.pump(&w.b), 0);
    assert_eq!(acks(&w.b), (1, 0));
}

#[test]
fn out_of_order_data_is_acknowledged_in_the_same_pump() {
    let (w, ia, ib) = Wire::with_conn(4);
    send(&w.a, ia, &[1; TCP_MSS]);
    set_drop(&w.end_a, 1000);
    assert_eq!(w.pump(&w.a), 1, "lost on the wire");
    set_drop(&w.end_a, 0);
    send(&w.a, ia, &[2; 100]);
    assert_eq!(w.pump(&w.a), 1);
    assert_eq!(w.pump(&w.b), 1, "a hole is reported at once");
    // The retransmission fills the hole: also acknowledged at once.
    let mut rounds = 0;
    while stats(&w.a).retransmits == 0 {
        assert_eq!(w.pump(&w.b), 0);
        w.pump(&w.a);
        rounds += 1;
        assert!(rounds < 20, "the sender retransmits");
    }
    assert_eq!(w.pump(&w.b), 1);
    let got = recv(&w.b, ib, 1 << 16);
    assert_eq!(got, [vec![1; TCP_MSS], vec![2; 100]].concat());
}

#[test]
fn a_duplicate_keepalive_probe_is_acknowledged_in_the_same_pump() {
    let (w, ia, _) = Wire::with_conn(5);
    tcp(&w.a, "set_keepalive", &[Value::Int(ia), Value::Int(10_000)]);
    assert_eq!(w.pump(&w.a), 1, "the probe");
    assert_eq!(
        w.pump(&w.b),
        1,
        "its byte is a duplicate, acknowledged at once"
    );
    assert_eq!(acks(&w.b), (1, 0));
}

#[test]
fn a_fin_is_acknowledged_in_the_same_pump() {
    let (w, ia, ib) = Wire::with_conn(6);
    tcp(&w.a, "close", &[Value::Int(ia)]);
    assert_eq!(w.pump(&w.a), 1, "the FIN");
    assert_eq!(w.pump(&w.b), 1);
    assert_eq!(state_of(&w.b, ib), "close-wait");
    assert_eq!(acks(&w.b), (1, 0));
}

#[test]
fn a_recv_owes_a_window_update_only_once_it_frees_an_mss() {
    let (w, ia, ib) = Wire::with_conn(7);
    send(&w.a, ia, &[1; 3 * TCP_MSS]);
    assert_eq!(w.pump(&w.a), 3);
    assert_eq!(w.pump(&w.b), 1);
    assert_eq!(recv(&w.b, ib, TCP_MSS - 1).len(), TCP_MSS - 1);
    assert_eq!(w.pump(&w.b), 0, "a read of less than an MSS owes nothing");
    assert_eq!(recv(&w.b, ib, 1).len(), 1);
    assert_eq!(w.pump(&w.b), 1, "an MSS freed since the last advertisement");
    assert_eq!(recv(&w.b, ib, TCP_MSS).len(), TCP_MSS);
    assert_eq!(w.pump(&w.b), 1, "a read of an MSS owes one");
    assert_eq!(acks(&w.b), (3, 0));
}

#[test]
fn a_filled_window_drained_in_small_reads_gets_the_stream_moving() {
    let (w, ia, ib) = Wire::with_conn(8);
    let data: Vec<u8> = (0..2 * RECV_WND + 500).map(|i| i as u8).collect();
    send(&w.a, ia, &data);
    for _ in 0..6 {
        w.pump(&w.a);
        w.pump(&w.b);
    }
    let mut got = Vec::new();
    for _ in 0..2_000 {
        got.extend(recv(&w.b, ib, 300));
        if got.len() == data.len() {
            break;
        }
        w.pump(&w.a);
        w.pump(&w.b);
    }
    assert_eq!(got.len(), data.len(), "the whole stream arrives");
    assert!(got == data, "in order");
}

#[test]
fn idle_connections_echoing_once_each_never_retransmit() {
    // `req_many`'s shape: many open connections, a few active at a time,
    // one echo each, then silence until the next lap.
    const CONNS: usize = 64;
    const ACTIVE: usize = 8;
    let w = Wire::new(9);
    let ids: Vec<i64> = (0..CONNS)
        .map(|_| {
            tcp(
                &w.a,
                "connect",
                &[Value::Int(IP_B as i64), Value::Int(PORT)],
            )
            .as_int()
            .unwrap()
        })
        .collect();
    let mut sids = Vec::new();
    for _ in 0..10 {
        w.pump(&w.b);
        w.pump(&w.a);
        w.pump(&w.b);
        loop {
            let sid = tcp(&w.b, "accept", &[Value::Int(PORT)]).as_int().unwrap();
            if sid < 0 {
                break;
            }
            sids.push(sid);
        }
    }
    assert_eq!(sids.len(), CONNS, "every handshake completes");
    let segs = |w: &Wire| stats(&w.a).segs_tx + stats(&w.b).segs_tx;
    let before = segs(&w);
    for lap in 0..2u8 {
        for batch in (0..CONNS).step_by(ACTIVE) {
            let conns = batch..batch + ACTIVE;
            for k in conns.clone() {
                send(&w.a, ids[k], &[lap ^ k as u8; 256]);
            }
            w.pump(&w.a);
            w.pump(&w.b);
            for k in conns.clone() {
                let request = recv(&w.b, sids[k], 1 << 16);
                assert_eq!(request, [lap ^ k as u8; 256]);
                send(&w.b, sids[k], &request);
            }
            w.pump(&w.b);
            w.pump(&w.a);
            for k in conns {
                assert_eq!(recv(&w.a, ids[k], 1 << 16), [lap ^ k as u8; 256]);
            }
        }
    }
    w.pump(&w.a);
    assert_eq!(
        segs(&w) - before,
        3 * 2 * CONNS as u64,
        "request, echo and the echo's delayed ACK"
    );
    assert_eq!(stats(&w.a).retransmits + stats(&w.b).retransmits, 0);
    for ep in [&w.a, &w.b] {
        assert_eq!(w.pump(ep), 0, "nothing is left owed");
    }
}

/// Sets the drop rate of `end`'s transmit direction.
fn set_drop(end: &ObjRef, permille: i64) {
    let mut knobs = end
        .invoke("link", "config", &[])
        .unwrap()
        .as_list()
        .unwrap()
        .to_vec();
    knobs[0] = Value::Int(permille);
    end.invoke("link", "set_config", &[Value::List(knobs)])
        .unwrap();
}
