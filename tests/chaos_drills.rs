//! PR 10 headline drill: a deterministic chaos storm across the whole
//! stack — TCP clients echoing through a two-interface router while a
//! journaled store commits what the server hears — with a seeded
//! [`ChaosPlan`] partitioning a link mid-stream, degrading the other,
//! flapping a route, injecting disk fault windows and finally cutting
//! power, and the paired recovery machinery (retransmission, user
//! timeouts, keepalive, `store::retry`, [`Supervisor`] reboot + journal
//! remount) healing all of it.
//!
//! Invariants, checked inside every run:
//!
//! - **No acked byte is lost or reordered**: every connection that
//!   completes delivers exactly its payload back; an aborted connection
//!   delivers a strict prefix.
//! - **Connections complete or fail cleanly**: every endpoint ends in
//!   `closed` with either no error or a typed abort reason — never a
//!   wedged state, never a panic.
//! - **The recovered store equals the oracle's committed prefix**:
//!   every `write` that returned Ok before the power cut (and after the
//!   reboot) reads back intact from the remounted stack.
//! - **Replay is bit-identical**: the same seed reproduces the same
//!   audit log, digests, stats and outcomes; a different seed diverges.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! the retransmission backoff arithmetic is optimisation-sensitive.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

use paramecium::chaos::{ChaosController, ChaosPlan, Fault, Supervisor};
use paramecium::core::domain::KERNEL_DOMAIN;
use paramecium::core::memsvc::MemService;
use paramecium::machine::Machine;
use paramecium::netstack::route::{make_router, RouteIf, RouterStats};
use paramecium::netstack::simlink::{make_simlink, LinkConfig};
use paramecium::netstack::tcp::{make_tcp, TcpStats};
use paramecium::obj::{sum64, ObjRef, Value};
use paramecium::store::retry::RetryStats;
use paramecium::store::{JournalConfig, RetryConfig, StackBuilder, StoreStack};

const SERVER_IP: u32 = 0x0A00_0001; // 10.0.0.1 (router if0, server TCP)
const IF1_IP: u32 = 0x0A01_0001; // 10.1.0.1 (router if1)
const CLIENT_A_IP: u32 = 0x0A00_0002; // 10.0.0.2, behind link0
const CLIENT_B_IP: u32 = 0x0A01_0002; // 10.1.0.2, behind link1
const PORT: i64 = 7;

/// Per-connection payload; 8 store sectors exactly.
const PAYLOAD: usize = 4096;
/// Bytes each client feeds its connection per round — slow enough that
/// every connection still has unacknowledged data when the storm hits.
const DRIBBLE: usize = 128;
/// One pump round advances the clock this much.
const TICK: u64 = 25_000;
const SECTOR: usize = 512;
/// Sector allocation stride per server connection.
const STRIDE: usize = 16;
/// Server-side RFC 5482 user timeout: longer than the partition, so
/// live-but-stalled connections survive to be healed.
const SERVER_UTO: i64 = 3_000_000;
/// Server-side keepalive interval; three unanswered probes abort the
/// orphaned peer of a client that died mid-partition.
const SERVER_KEEPALIVE: i64 = 500_000;
/// The doomed client connection's user timeout — fires mid-partition.
const SHORT_UTO: i64 = 700_000;
const MAX_ROUNDS: usize = 1_000;

fn tcp_int(obj: &ObjRef, method: &str, args: &[Value]) -> i64 {
    obj.invoke("tcp", method, args).unwrap().as_int().unwrap()
}

fn conn_state(obj: &ObjRef, id: i64) -> String {
    let v = obj.invoke("tcp", "state", &[Value::Int(id)]).unwrap();
    v.as_str().unwrap().to_string()
}

fn conn_error(obj: &ObjRef, id: i64) -> String {
    let v = obj.invoke("tcp", "error", &[Value::Int(id)]).unwrap();
    v.as_str().unwrap().to_string()
}

fn tcp_stats(obj: &ObjRef) -> TcpStats {
    TcpStats::from_value(&obj.invoke("tcp", "stats", &[]).unwrap()).unwrap()
}

/// Everything a drill run produces; `PartialEq` so two runs of the same
/// seed can be compared wholesale.
#[derive(Debug, PartialEq)]
struct Report {
    rounds: usize,
    audit: Vec<String>,
    audit_digest: u64,
    reboots: u64,
    /// Per client connection: (state, error, echoed byte count).
    outcomes: Vec<(String, String, usize)>,
    stats_a: TcpStats,
    stats_b: TcpStats,
    stats_server: TcpStats,
    route_stats: RouterStats,
    oracle_sectors: usize,
    store_digest: u64,
    /// The store's `retry stats`, one per stack generation: the stack
    /// the power cut killed, then each one the supervisor rebuilt.
    retry: Vec<RetryStats>,
}

/// The `retry stats` of a stack built with a retry layer.
fn retry_stats(stack: &StoreStack) -> RetryStats {
    let retry = stack.retry.as_ref().expect("the drill's stacks retry");
    RetryStats::from_value(&retry.invoke("retry", "stats", &[]).unwrap()).unwrap()
}

/// One client-side connection under drill.
struct Client {
    tcp: ObjRef,
    id: i64,
    payload: Vec<u8>,
    sent: usize,
    echo: Vec<u8>,
    closed: bool,
}

/// One server-side (accepted) connection: received bytes and how many
/// complete sectors of them have been committed to the store.
struct Served {
    id: i64,
    rx: Vec<u8>,
    written: usize,
}

fn run_drill(seed: u64) -> Report {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine.clone()));

    // Wires: perfect links whose knobs the chaos plan will mangle.
    let (near0, far0) = make_simlink(machine.clone(), LinkConfig::perfect(seed));
    let (near1, far1) = make_simlink(machine.clone(), LinkConfig::perfect(seed ^ 0x9e37));
    let router = make_router(vec![
        RouteIf {
            dev: near0.clone(),
            ip: SERVER_IP,
            mac: [2, 0, 0, 0, 0, 0x01],
        },
        RouteIf {
            dev: near1.clone(),
            ip: IF1_IP,
            mac: [2, 0, 0, 0, 0, 0x02],
        },
    ]);
    for (prefix, ifindex) in [(0x0A00_0000u32, 0i64), (0x0A01_0000, 1)] {
        router
            .invoke(
                "route",
                "add_route",
                &[
                    Value::Int(i64::from(prefix)),
                    Value::Int(24),
                    Value::Int(ifindex),
                ],
            )
            .unwrap();
    }

    let server = make_tcp(
        machine.clone(),
        router.clone(),
        SERVER_IP,
        [2, 0, 0, 0, 0, 0x51],
    );
    let tcp_a = make_tcp(
        machine.clone(),
        far0.clone(),
        CLIENT_A_IP,
        [2, 0, 0, 0, 0, 0xA1],
    );
    let tcp_b = make_tcp(
        machine.clone(),
        far1.clone(),
        CLIENT_B_IP,
        [2, 0, 0, 0, 0, 0xB1],
    );
    server.invoke("tcp", "listen", &[Value::Int(PORT)]).unwrap();

    // Store half: driver → retry → journal, plus the supervisor that
    // rebuilds it after the power cut.
    let retry = RetryConfig::default();
    let journal = JournalConfig::default();
    let mut stack: StoreStack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .retry(retry)
        .journal(journal)
        .build()
        .unwrap();
    let mut sup = Supervisor::new(&mem, KERNEL_DOMAIN, retry, journal);

    // Chaos targets.
    let mut ctl = ChaosController::new(machine.clone());
    let link0 = ctl.register_link(near0, far0);
    let link1 = ctl.register_link(near1, far1);
    let rt = ctl.register_router(router.clone());

    // Seeded inputs: event jitter first, then payload bytes, so the RNG
    // stream is consumed in a fixed order.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jit = [0u64; 9];
    for j in jit.iter_mut() {
        *j = rng.gen_range(0..50_000);
    }
    let mut clients: Vec<Client> = Vec::new();
    for (tcp, n) in [(&tcp_a, 2usize), (&tcp_b, 2)] {
        for _ in 0..n {
            let mut payload = vec![0u8; PAYLOAD];
            rng.fill(payload.as_mut_slice());
            let id = tcp_int(
                tcp,
                "connect",
                &[Value::Int(i64::from(SERVER_IP)), Value::Int(PORT)],
            );
            clients.push(Client {
                tcp: tcp.clone(),
                id,
                payload,
                sent: 0,
                echo: Vec::new(),
                closed: false,
            });
        }
    }
    // Client 3 (second connection from B) is doomed: its user timeout is
    // shorter than the partition it is about to sit through.
    clients[3]
        .tcp
        .invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(clients[3].id), Value::Int(SHORT_UTO)],
        )
        .unwrap();

    // Let the handshakes complete on pristine wires.
    for _ in 0..16 {
        for t in [&tcp_a, &tcp_b, &server] {
            t.invoke("tcp", "pump", &[]).unwrap();
        }
        machine.lock().tick(TICK);
    }

    // The storm, anchored at "now": degrade A's uplink, partition B,
    // flap B's route, pepper the disk, cut power, then heal everything.
    let t0 = machine.lock().now();
    ctl.arm(
        ChaosPlan::new()
            .at(
                t0 + 100_000 + jit[0],
                Fault::Impair {
                    link: link0,
                    dir: 1, // client A → router
                    drop_permille: 120,
                    dup_permille: 50,
                    reorder_permille: 80,
                    corrupt_permille: 30,
                },
            )
            .at(t0 + 400_000 + jit[1], Fault::Partition { link: link1 })
            .at(
                t0 + 550_000 + jit[2],
                Fault::RouteDel {
                    router: rt,
                    prefix: 0x0A01_0000,
                    len: 24,
                },
            )
            .at(
                t0 + 700_000 + jit[3],
                Fault::DiskTransientErrors {
                    disk: "disk".into(),
                    count: 3,
                },
            )
            .at(
                t0 + 850_000 + jit[4],
                Fault::DiskLatency {
                    disk: "disk".into(),
                    extra: 20_000,
                    ops: 4,
                },
            )
            .at(
                t0 + 1_000_000 + jit[5],
                Fault::PowerCrash { after_charges: 1 },
            )
            .at(
                t0 + 1_250_000 + jit[6],
                Fault::RouteAdd {
                    router: rt,
                    prefix: 0x0A01_0000,
                    len: 24,
                    ifindex: 1,
                },
            )
            .at(t0 + 1_600_000 + jit[7], Fault::Heal { link: link1 })
            .at(t0 + 1_800_000 + jit[8], Fault::Heal { link: link0 }),
    );

    // The drill loop. Every round: apply due faults, recover a crashed
    // machine, pump everyone, echo + journal, advance the clock.
    let mut served: Vec<Served> = Vec::new();
    let mut oracle: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
    let mut rounds = 0;
    let mut retry = Vec::new();
    for round in 0..MAX_ROUNDS {
        rounds = round + 1;
        ctl.poll().unwrap();
        if let Some(fresh) = sup.ensure_up().unwrap() {
            retry.push(retry_stats(&stack));
            stack = fresh;
        }

        for c in clients.iter_mut() {
            if c.sent < c.payload.len() && conn_state(&c.tcp, c.id) != "closed" {
                let take = DRIBBLE.min(c.payload.len() - c.sent);
                let chunk = Bytes::copy_from_slice(&c.payload[c.sent..c.sent + take]);
                if let Ok(v) = c
                    .tcp
                    .invoke("tcp", "send", &[Value::Int(c.id), Value::Bytes(chunk)])
                {
                    c.sent += v.as_int().unwrap() as usize;
                }
            }
            c.tcp.invoke("tcp", "pump", &[]).unwrap();
            let got = c
                .tcp
                .invoke("tcp", "recv", &[Value::Int(c.id), Value::Int(65_536)])
                .unwrap();
            c.echo.extend_from_slice(got.as_bytes().unwrap());
            if c.echo.len() == PAYLOAD && !c.closed {
                c.tcp.invoke("tcp", "close", &[Value::Int(c.id)]).unwrap();
                c.closed = true;
            }
        }

        server.invoke("tcp", "pump", &[]).unwrap();
        loop {
            let id = tcp_int(&server, "accept", &[Value::Int(PORT)]);
            if id < 0 {
                break;
            }
            server
                .invoke(
                    "tcp",
                    "set_user_timeout",
                    &[Value::Int(id), Value::Int(SERVER_UTO)],
                )
                .unwrap();
            server
                .invoke(
                    "tcp",
                    "set_keepalive",
                    &[Value::Int(id), Value::Int(SERVER_KEEPALIVE)],
                )
                .unwrap();
            served.push(Served {
                id,
                rx: Vec::new(),
                written: 0,
            });
        }
        for (i, s) in served.iter_mut().enumerate() {
            let got = server
                .invoke("tcp", "recv", &[Value::Int(s.id), Value::Int(65_536)])
                .unwrap();
            let got = got.as_bytes().unwrap();
            if !got.is_empty() {
                // Echo; refusals (the peer died) are the peer's problem.
                let _ = server.invoke(
                    "tcp",
                    "send",
                    &[Value::Int(s.id), Value::Bytes(got.clone())],
                );
                s.rx.extend_from_slice(got);
            }
            // Commit every complete sector. A write that returns Ok is
            // durable (journaled) and enters the oracle; a failed write
            // is retried next round — possibly on the rebuilt stack.
            while s.rx.len() >= (s.written + 1) * SECTOR && !machine.lock().crashed() {
                let sec = (i * STRIDE + s.written) as i64;
                let chunk = &s.rx[s.written * SECTOR..(s.written + 1) * SECTOR];
                match stack.top.invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), Value::Bytes(Bytes::copy_from_slice(chunk))],
                ) {
                    Ok(_) => {
                        oracle.insert(sec, chunk.to_vec());
                        s.written += 1;
                    }
                    Err(_) => break,
                }
            }
            if conn_state(&server, s.id) == "close-wait" {
                server.invoke("tcp", "close", &[Value::Int(s.id)]).unwrap();
            }
        }
        // Background scrub: one charged store read per healthy round,
        // so an armed power crash always fires promptly.
        let _ = stack.top.invoke("blockdev", "read", &[Value::Int(4_000)]);
        server.invoke("tcp", "pump", &[]).unwrap();
        machine.lock().tick(TICK);

        let quiet = clients.iter().all(|c| conn_state(&c.tcp, c.id) == "closed")
            && served.len() == clients.len()
            && served.iter().all(|s| conn_state(&server, s.id) == "closed");
        if quiet {
            break;
        }
    }

    // ---- In-run invariants ----------------------------------------
    assert!(rounds < MAX_ROUNDS, "drill failed to quiesce");
    assert_eq!(ctl.pending(), 0, "every planned fault applied");
    assert_eq!(ctl.audit().len(), 9);
    assert_eq!(sup.reboots(), 1, "the power cut forced exactly one reboot");

    // Connections completed or failed cleanly.
    let outcomes: Vec<(String, String, usize)> = clients
        .iter()
        .map(|c| {
            (
                conn_state(&c.tcp, c.id),
                conn_error(&c.tcp, c.id),
                c.echo.len(),
            )
        })
        .collect();
    for (i, c) in clients.iter().enumerate() {
        let err = &outcomes[i].1;
        if err.is_empty() {
            assert_eq!(c.echo, c.payload, "conn {i}: acked bytes echoed intact");
        } else {
            assert_eq!(err, "user-timeout", "conn {i}: typed abort reason");
            assert!(
                c.payload.starts_with(&c.echo),
                "conn {i}: aborted mid-stream but never corrupted"
            );
        }
    }
    assert_eq!(
        outcomes.iter().filter(|o| o.1.is_empty()).count(),
        3,
        "three connections ride out the storm"
    );
    assert_eq!(outcomes[3].1, "user-timeout", "the doomed one dies cleanly");
    // A client that aborted no longer owns its tuple, so whatever the
    // server sends it next (a retransmission, a keepalive probe) draws
    // an RST: the doomed connection's server side may learn of the death
    // that way instead of timing out on its own.
    let mut server_errs = Vec::new();
    for s in &served {
        let err = conn_error(&server, s.id);
        assert!(
            ["", "keepalive-timeout", "user-timeout", "reset"].contains(&err.as_str()),
            "server conn ended dirty: {err:?}"
        );
        server_errs.push(err);
        assert_eq!(s.written, s.rx.len() / SECTOR, "all heard data committed");
    }
    assert_eq!(
        server_errs.iter().filter(|e| e.is_empty()).count(),
        3,
        "the survivors' server sides close cleanly: {server_errs:?}"
    );

    // The recovered store equals the oracle's committed prefix.
    stack.top.invoke("blockdev", "flush", &[]).unwrap();
    let mut store_digest = 0u64;
    for (&sec, expect) in &oracle {
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(
            v.as_bytes().unwrap().as_ref(),
            expect.as_slice(),
            "sector {sec} lost or corrupted across the power cut"
        );
        store_digest = sum64::fold(store_digest, &sec.to_le_bytes());
        store_digest = sum64::fold(store_digest, expect);
    }
    assert!(
        oracle.len() >= 3 * (PAYLOAD / SECTOR),
        "completed connections were fully committed"
    );

    let route_stats = router.invoke("route", "stats", &[]).unwrap();
    let route_stats = RouterStats::from_value(&route_stats).unwrap();
    assert!(
        route_stats.no_route > 0,
        "route flap blackholed traffic (no_route)"
    );
    let stats_server = tcp_stats(&server);
    assert!(
        stats_server.retransmits > 0,
        "the storm forced retransmissions"
    );

    Report {
        rounds,
        audit: ctl.audit().to_vec(),
        audit_digest: ctl.audit_digest(),
        reboots: sup.reboots(),
        outcomes,
        stats_a: tcp_stats(&tcp_a),
        stats_b: tcp_stats(&tcp_b),
        stats_server,
        route_stats,
        oracle_sectors: oracle.len(),
        store_digest,
        retry: [retry, vec![retry_stats(&stack)]].concat(),
    }
}

#[test]
fn chaos_storm_heals_and_loses_nothing() {
    let r = run_drill(7);
    // The structural assertions live inside run_drill; spot-check the
    // shape of the report here.
    assert_eq!(r.reboots, 1);
    assert_eq!(r.audit.len(), 9);
    assert!(r.oracle_sectors >= 24 && r.oracle_sectors <= 32);
    // The three armed disk transients fall on the stack the power cut
    // kills: retry re-issues through all three and none is exhausted
    // (the power failure itself is not retried). The rebuilt stack
    // sees none.
    let counts: Vec<_> = r.retry.iter().map(|s| (s.retries, s.exhausted)).collect();
    assert_eq!(counts, [(3, 0), (0, 0)], "{:?}", r.retry);
}

#[test]
fn chaos_drill_replays_bit_identically() {
    let first = run_drill(11);
    let second = run_drill(11);
    assert_eq!(first, second, "same seed, same drill, bit for bit");
}

#[test]
fn different_seeds_produce_different_storms() {
    let a = run_drill(11);
    let b = run_drill(12);
    assert_ne!(a.audit_digest, b.audit_digest, "jitter differs");
    assert_ne!(a.store_digest, b.store_digest, "payloads differ");
}
