//! The one file that touches the repo's APIs.
//!
//! Everything the workloads need from `paramecium` — building the request
//! path, the store stack and the extension lifecycle, invoking objects,
//! reading `stats` lists by position, and the direct calls of the probes —
//! goes through the functions here, so a later PR that renames a
//! constructor or reorders a `stats` list has one file to fix. Where a
//! crate exports `STAT_*` constants they are used; the other positions
//! follow the layouts the crates document on their `stats` methods.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium::cert::Right;
use paramecium::core::domain::KERNEL_DOMAIN;
use paramecium::core::memsvc::MemService;
use paramecium::core::{DomainId, LoadOptions, Protection};
use paramecium::harness::World;
use paramecium::machine::dev::disk::SECTOR_SIZE;
use paramecium::machine::Machine;
use paramecium::netstack::arp::make_arp;
use paramecium::netstack::filter::{adapt_bytecode_filter, udp_port_filter_program};
use paramecium::netstack::route::{make_router, RouteIf};
use paramecium::netstack::simlink::{make_simlink, LinkConfig};
use paramecium::netstack::tcp::{self, make_tcp};
use paramecium::netstack::wire;
use paramecium::obj::{InterposerBuilder, ObjRef, ObjectBuilder, TypeTag, Value};
use paramecium::sfi::{self, workloads, Program};
use paramecium::store::vectored::{pairs_arg, sectors_arg};
use paramecium::store::{
    self, make_retry, mount_journal, JournalConfig, RetryConfig, StackBuilder,
};

use crate::trace::{self, Layer};

pub type Res<T> = Result<T, String>;
type MachineRef = Arc<Mutex<Machine>>;

pub const SECTOR: usize = SECTOR_SIZE;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn call(obj: &ObjRef, iface: &str, method: &str, args: &[Value]) -> Res<Value> {
    obj.invoke(iface, method, args)
        .map_err(|e| format!("{iface}.{method}: {e}"))
}

fn stats(obj: &ObjRef, iface: &str) -> Res<Vec<i64>> {
    call(obj, iface, "stats", &[])?
        .as_list()
        .map_err(err)?
        .iter()
        .map(|v| v.as_int().map_err(err))
        .collect()
}

/// Slides a timing interposer in front of `obj` when `on`: every call
/// through the returned handle opens a span booked to `layer`.
fn traced(obj: ObjRef, layer: Layer, on: bool) -> ObjRef {
    if !on {
        return obj;
    }
    InterposerBuilder::new(obj)
        .before(move |_, method, _| trace::enter(layer, method))
        .after(|_, _, _| trace::exit())
        .build()
}

// ---------------------------------------------------------------- machine

/// The virtual machine's clock and counters.
#[derive(Clone)]
pub struct Clock(MachineRef);

#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MachineCounters {
    pub cycles: i64,
    pub charge_events: i64,
    pub context_switches: i64,
    pub tlb_misses: i64,
}

impl Clock {
    pub fn now(&self) -> u64 {
        self.0.lock().now()
    }

    pub fn tick(&self, cycles: u64) {
        self.0.lock().tick(cycles);
    }

    pub fn counters(&self) -> MachineCounters {
        let m = self.0.lock();
        MachineCounters {
            cycles: m.now() as i64,
            charge_events: m.charge_events() as i64,
            context_switches: m.mmu.switch_count() as i64,
            tlb_misses: m.mmu.tlb.stats().misses as i64,
        }
    }

    /// The cycle reader the span recorder calls at span edges.
    pub fn reader(&self) -> Box<dyn Fn() -> u64> {
        let m = self.0.clone();
        Box::new(move || m.lock().now())
    }
}

// ------------------------------------------------------------ store stack

/// `driver → retry → journal [→ cache]`, each boundary traceable.
pub struct Store {
    mem: Arc<MemService>,
    pub top: Blockdev,
    driver: ObjRef,
    retry: ObjRef,
    journal: ObjRef,
    cache: Option<ObjRef>,
}

/// A `blockdev` handle with typed calls.
#[derive(Clone)]
pub struct Blockdev(ObjRef);

#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct StoreCounters {
    pub disk_reads: i64,
    pub disk_writes: i64,
    pub retry_ops: i64,
    pub retries: i64,
    pub commits: i64,
    pub group_appends: i64,
    pub appended_records: i64,
    pub checkpoints: i64,
    pub cache_hits: i64,
    pub cache_misses: i64,
    pub cache_writebacks: i64,
    pub cache_resident: i64,
}

/// Cache geometry of the store workloads: 256 sectors in 4 shards.
pub const CACHE_SECTORS: usize = 256;
const CACHE_SHARDS: usize = 4;

impl Store {
    /// Builds the stack on `mem`'s disk. With `cache` the sharded cache
    /// tops it; with `on` a timing interposer sits at every boundary.
    pub fn build(mem: &Arc<MemService>, cache: bool, on: bool) -> Res<Store> {
        let machine = mem.machine().clone();
        let driver = StackBuilder::disk(mem, KERNEL_DOMAIN)
            .build()
            .map_err(err)?
            .top;
        let retry = make_retry(
            machine,
            traced(driver.clone(), Layer::Driver, on),
            RetryConfig::default(),
        );
        let journal = mount_journal(
            traced(retry.clone(), Layer::Retry, on),
            JournalConfig::default(),
        )
        .map_err(err)?;
        let below_cache = traced(journal.clone(), Layer::Journal, on);
        let (cache, top) = if cache {
            let c = StackBuilder::on(below_cache)
                .sharded_cache(CACHE_SECTORS, CACHE_SHARDS)
                .build()
                .map_err(err)?
                .top;
            (Some(c.clone()), traced(c, Layer::Cache, on))
        } else {
            (None, below_cache)
        };
        Ok(Store {
            mem: mem.clone(),
            top: Blockdev(top),
            driver,
            retry,
            journal,
            cache,
        })
    }

    /// A store on a machine of its own (the store workloads).
    pub fn standalone(cache: bool, on: bool) -> Res<(Store, Clock)> {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine.clone()));
        Ok((Store::build(&mem, cache, on)?, Clock(machine)))
    }

    pub fn counters(&self) -> Res<StoreCounters> {
        let d = stats(&self.driver, "blockdev")?;
        let r = stats(&self.retry, "retry")?;
        let j = stats(&self.journal, "journal")?;
        // Documented on `cache::build_sharded_block_cache`.
        let c = match &self.cache {
            Some(c) => stats(c, "cache")?,
            None => vec![0; 4],
        };
        Ok(StoreCounters {
            disk_reads: d[0],
            disk_writes: d[1],
            retry_ops: r[store::retry::RETRY_STAT_OPS],
            retries: r[store::retry::RETRY_STAT_RETRIES],
            // Documented on `journal::mount_journal`.
            commits: j[0],
            group_appends: j[1],
            appended_records: j[2],
            checkpoints: j[3],
            cache_hits: c[0],
            cache_misses: c[1],
            cache_writebacks: c[2],
            cache_resident: c[3],
        })
    }

    /// Sectors a client may address (the journal reserves the tail).
    pub fn sectors(&self) -> Res<i64> {
        call(&self.top.0, "blockdev", "sectors", &[])?
            .as_int()
            .map_err(err)
    }

    /// Drops this stack and mounts a fresh `driver → retry → journal` on
    /// the same disk: what a restart would see.
    pub fn remount(self) -> Res<Blockdev> {
        let mem = self.mem.clone();
        drop(self);
        Ok(Store::build(&mem, false, false)?.top)
    }
}

impl Blockdev {
    pub fn read(&self, sector: i64) -> Res<Bytes> {
        let v = call(&self.0, "blockdev", "read", &[Value::Int(sector)])?;
        v.as_bytes().map_err(err).cloned()
    }

    pub fn write(&self, sector: i64, data: Bytes) -> Res<()> {
        call(
            &self.0,
            "blockdev",
            "write",
            &[Value::Int(sector), Value::Bytes(data)],
        )
        .map(drop)
    }

    pub fn read_many(&self, sectors: &[i64]) -> Res<Vec<Bytes>> {
        let v = call(
            &self.0,
            "blockdev",
            "read_many",
            &[sectors_arg(sectors.iter().copied())],
        )?;
        v.as_list()
            .map_err(err)?
            .iter()
            .map(|b| b.as_bytes().map_err(err).cloned())
            .collect()
    }

    /// One atomic multi-sector transaction.
    pub fn write_many(&self, pairs: Vec<(i64, Bytes)>) -> Res<()> {
        call(&self.0, "blockdev", "write_many", &[pairs_arg(pairs)]).map(drop)
    }

    pub fn flush(&self) -> Res<i64> {
        call(&self.0, "blockdev", "flush", &[])?
            .as_int()
            .map_err(err)
    }
}

// ----------------------------------------------------------- request path

const SERVER_IP: u32 = 0x0A00_0001; // 10.0.0.1, router if0 and server tcp
const IF1_IP: u32 = 0x0A01_0001; // 10.1.0.1, router if1
const CLIENT_IPS: [u32; 2] = [0x0A00_0002, 0x0A01_0002];
const IF_MACS: [wire::Mac; 2] = [[2, 0, 0, 0, 0, 0x01], [2, 0, 0, 0, 0, 0x02]];
const CLIENT_MACS: [wire::Mac; 2] = [[2, 0, 0, 0, 0, 0xA1], [2, 0, 0, 0, 0, 0xB1]];
const PORT: i64 = 7;
const FILTER_PATH: &str = "/kernel/portfilter";

/// The request path of `req_few`, `req_many` and `bulk`:
///
/// ```text
/// client 0  tcp ─ arp ─ simlink0 ═╗
///                                 ╠═ arp ─┐
///                                 router ─┴─ tcp (server) ─ filter ─ sfi component
/// client 1  tcp ─ arp ─ simlink1 ═╩═ arp ─┘            └─ app ─ retry ─ journal ─ driver
/// ```
///
/// One `World`, one machine. The filter is the bytecode port filter,
/// loaded into the kernel through `Nucleus::load` (uncertified, so
/// `soften` verifies it) and adapted to the `filter` interface.
pub struct ReqNet {
    /// Owns the nucleus the filter component is registered with.
    _world: World,
    pub clock: Clock,
    clients: [ObjRef; 2],
    server: ObjRef,
    pub store: Store,
    raw: ReqRaw,
}

/// Untraced handles, for reading stats without opening spans.
struct ReqRaw {
    tcps: [ObjRef; 3],
    arps: [ObjRef; 4],
    router: ObjRef,
    /// The four simlink endpoints; each reports its transmit direction.
    links: [ObjRef; 4],
    filter: ObjRef,
}

#[derive(Clone, Copy, Debug)]
pub enum Ep {
    Client(usize),
    Server,
}

#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NetCounters {
    pub segs_tx: i64,
    pub segs_rx: i64,
    pub bytes_tx: i64,
    pub retransmits: i64,
    pub malformed: i64,
    /// Frames the server's filter saw, and how many it turned away.
    pub filter_checked: i64,
    pub filtered: i64,
    /// XOR of the three endpoints' segment-trace digests.
    pub seg_digest: u64,
    pub arp_hits: i64,
    pub arp_misses: i64,
    pub no_route: i64,
    pub failover: i64,
    pub link_sent: i64,
    pub link_dropped: i64,
    pub filter_last_steps: i64,
}

impl ReqNet {
    pub fn build(link_seeds: [u64; 2], on: bool) -> Res<ReqNet> {
        let world = World::boot();
        let n = &world.nucleus;
        let machine = n.machine().clone();

        let (near0, far0) = make_simlink(machine.clone(), LinkConfig::perfect(link_seeds[0]));
        let (near1, far1) = make_simlink(machine.clone(), LinkConfig::perfect(link_seeds[1]));
        let link = |o: &ObjRef| traced(o.clone(), Layer::Simlink, on);

        // Server side: an ARP layer per router interface answers for the
        // interface's address; the router spans both.
        let arp_if0 = make_arp(link(&near0), SERVER_IP, IF_MACS[0]);
        let arp_if1 = make_arp(link(&near1), IF1_IP, IF_MACS[1]);
        let router = make_router(vec![
            RouteIf {
                dev: traced(arp_if0.clone(), Layer::Arp, on),
                ip: SERVER_IP,
                mac: IF_MACS[0],
            },
            RouteIf {
                dev: traced(arp_if1.clone(), Layer::Arp, on),
                ip: IF1_IP,
                mac: IF_MACS[1],
            },
        ]);
        for (prefix, ifindex) in [(0x0A00_0000i64, 0i64), (0x0A01_0000, 1)] {
            call(
                &router,
                "route",
                "add_route",
                &[Value::Int(prefix), Value::Int(24), Value::Int(ifindex)],
            )?;
        }
        let server = make_tcp(
            machine.clone(),
            traced(router.clone(), Layer::Route, on),
            SERVER_IP,
            IF_MACS[0],
        );

        // The paper's packet-filter example: bytecode into the kernel.
        n.repository
            .add_bytecode("portfilter", &udp_port_filter_program(PORT as u16));
        let report = n
            .load("portfilter", &LoadOptions::kernel(FILTER_PATH))
            .map_err(err)?;
        if report.protection != Protection::Verified {
            return Err(format!(
                "port filter loaded as {:?}, expected Verified",
                report.protection
            ));
        }
        if on {
            let component = n.root_namespace().lookup(FILTER_PATH).map_err(err)?.obj;
            n.interpose(
                KERNEL_DOMAIN,
                FILTER_PATH,
                traced(component, Layer::Sfi, on),
            )
            .map_err(err)?;
        }
        let component = n.bind(KERNEL_DOMAIN, FILTER_PATH).map_err(err)?;
        let filter = adapt_bytecode_filter(component);
        call(
            &server,
            "tcp",
            "set_filter",
            &[Value::Handle(traced(filter.clone(), Layer::Filter, on))],
        )?;
        call(&server, "tcp", "listen", &[Value::Int(PORT)])?;

        // Clients: tcp over arp over the far end of each link. Client 1 is
        // off the server's subnet, so it holds a static gateway entry.
        let arp_c0 = make_arp(link(&far0), CLIENT_IPS[0], CLIENT_MACS[0]);
        let arp_c1 = make_arp(link(&far1), CLIENT_IPS[1], CLIENT_MACS[1]);
        call(
            &arp_c1,
            "arp",
            "insert",
            &[
                Value::Int(i64::from(SERVER_IP)),
                Value::Bytes(Bytes::copy_from_slice(&IF_MACS[1])),
            ],
        )?;
        let client = |arp: &ObjRef, i: usize| {
            make_tcp(
                machine.clone(),
                traced(arp.clone(), Layer::Arp, on),
                CLIENT_IPS[i],
                CLIENT_MACS[i],
            )
        };
        let c0 = client(&arp_c0, 0);
        let c1 = client(&arp_c1, 1);

        let store = Store::build(&n.mem, false, on)?;
        let tcp_traced = |o: &ObjRef| traced(o.clone(), Layer::Tcp, on);
        Ok(ReqNet {
            clock: Clock(machine),
            clients: [tcp_traced(&c0), tcp_traced(&c1)],
            server: tcp_traced(&server),
            store,
            raw: ReqRaw {
                tcps: [c0, c1, server],
                arps: [arp_c0, arp_c1, arp_if0, arp_if1],
                router,
                links: [near0, far0, near1, far1],
                filter,
            },
            _world: world,
        })
    }

    fn ep(&self, ep: Ep) -> &ObjRef {
        match ep {
            Ep::Client(i) => &self.clients[i],
            Ep::Server => &self.server,
        }
    }

    pub fn connect(&self, client: usize) -> Res<i64> {
        call(
            &self.clients[client],
            "tcp",
            "connect",
            &[Value::Int(i64::from(SERVER_IP)), Value::Int(PORT)],
        )?
        .as_int()
        .map_err(err)
    }

    /// Next established server-side connection, if any.
    pub fn accept(&self) -> Res<Option<i64>> {
        let id = call(&self.server, "tcp", "accept", &[Value::Int(PORT)])?
            .as_int()
            .map_err(err)?;
        Ok((id >= 0).then_some(id))
    }

    pub fn pump(&self, ep: Ep) -> Res<()> {
        call(self.ep(ep), "tcp", "pump", &[]).map(drop)
    }

    /// Bytes accepted into the send buffer.
    pub fn send(&self, ep: Ep, id: i64, data: Bytes) -> Res<usize> {
        let n = call(
            self.ep(ep),
            "tcp",
            "send",
            &[Value::Int(id), Value::Bytes(data)],
        )?
        .as_int()
        .map_err(err)?;
        Ok(n as usize)
    }

    pub fn recv(&self, ep: Ep, id: i64) -> Res<Bytes> {
        let v = call(
            self.ep(ep),
            "tcp",
            "recv",
            &[Value::Int(id), Value::Int(1 << 16)],
        )?;
        v.as_bytes().map_err(err).cloned()
    }

    pub fn counters(&self) -> Res<NetCounters> {
        let mut c = NetCounters::default();
        for (i, t) in self.raw.tcps.iter().enumerate() {
            let s = stats(t, "tcp")?;
            // Positions 0..=3 and 6 are documented on `TcpStats`.
            c.segs_tx += s[0];
            c.segs_rx += s[1];
            c.bytes_tx += s[2];
            c.retransmits += s[tcp::STAT_RETRANSMITS];
            c.malformed += s[tcp::STAT_MALFORMED];
            c.seg_digest ^= s[tcp::STAT_DIGEST] as u64;
            if i == 2 {
                // Only the server has a filter; a frame that passed it was
                // then counted as a segment or as malformed.
                c.filtered = s[6];
                c.filter_checked = s[1] + s[tcp::STAT_MALFORMED] + s[6];
            }
        }
        for a in &self.raw.arps {
            // [requests_tx, replies_tx, replies_rx, hits, misses, ...]
            let s = stats(a, "arp")?;
            c.arp_hits += s[3];
            c.arp_misses += s[4];
        }
        // [forwarded, local, no_route, ttl_expired, malformed, failover, ...]
        let r = stats(&self.raw.router, "route")?;
        c.no_route = r[2];
        c.failover = r[5];
        for l in &self.raw.links {
            // `LinkStats` order: [sent, delivered, dropped, ...]
            let s = stats(l, "netdev")?;
            c.link_sent += s[0];
            c.link_dropped += s[2];
        }
        c.filter_last_steps = stats(&self.raw.filter, "filter")?[0];
        Ok(c)
    }

    /// A data segment from client 0 to the server carrying `payload`, built
    /// as the endpoints build theirs: input for the `netstack.wire` probes.
    pub fn tcp_frame(payload: &[u8]) -> Vec<u8> {
        let hdr = wire::TcpHeader {
            src_port: 49152,
            dst_port: PORT as u16,
            seq: 1000,
            ack: 2000,
            flags: wire::tcp_flags::ACK | wire::tcp_flags::PSH,
            window: 16384,
        };
        wire::build_tcp_frame(
            CLIENT_MACS[0],
            IF_MACS[0],
            CLIENT_IPS[0],
            SERVER_IP,
            &hdr,
            payload,
        )
    }
}

// ------------------------------------------------------ extension lifecycle

/// Frame size of the `kernel_ext` invocations; also the components' data
/// segment.
pub const EXT_FRAME: usize = 256;
/// Depth of the interposer chain in front of the certified component.
pub const CHAIN_DEPTH: usize = 4;
const CERT_NAME: &str = "ext-cert";
const SOFT_NAME: &str = "ext-soft";
const CERT_PATH: &str = "/kernel/ext-cert";
const SOFT_PATH: &str = "/kernel/ext-soft";

/// The paper's extension lifecycle on one `World`.
pub struct ExtWorld {
    world: World,
    pub clock: Clock,
    certified: Program,
    unverifiable: Program,
    on: bool,
}

/// Sizes that must end each lifecycle where they started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtSizes {
    pub names: usize,
    pub components: usize,
    pub domains: usize,
}

/// One lifecycle's live objects, between `ExtWorld::open` and `close`.
pub struct Lifecycle {
    domain: DomainId,
    /// The sandboxed component as seen from the user domain (a proxy).
    pub cross: Component,
    /// The certified component behind the interposer chain.
    pub chained: Component,
}

#[derive(Clone)]
pub struct Component(ObjRef);

#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ExtCounters {
    pub proxy_crossings: i64,
    pub proxy_bytes: i64,
    pub full_validations: i64,
    pub cache_hits: i64,
    pub last_steps: i64,
}

impl ExtWorld {
    pub fn boot(on: bool) -> ExtWorld {
        let world = World::boot();
        let clock = Clock(world.nucleus.machine().clone());
        ExtWorld {
            world,
            clock,
            certified: workloads::checksum_loop_verified(EXT_FRAME as u32, 1),
            unverifiable: workloads::checksum_loop(EXT_FRAME as u32, 1),
            on,
        }
    }

    pub fn sizes(&self) -> ExtSizes {
        let n = &self.world.nucleus;
        ExtSizes {
            names: n.root_namespace().local_len(),
            components: n.repository.list().len(),
            domains: n.domains().len(),
        }
    }

    /// Register, certify and load the certified component; load the
    /// unverifiable one under software protection; create a user domain;
    /// bind both. Asserts the protection regime the loader chose.
    pub fn open(&self) -> Res<Lifecycle> {
        let n = &self.world.nucleus;
        let on = self.on;
        let load = |name: &str, path: &str, want: Protection| {
            trace::manual(Layer::Nucleus, "load", || {
                let r = n.load(name, &LoadOptions::kernel(path)).map_err(err)?;
                if r.protection != want {
                    return Err(format!(
                        "{name} loaded as {:?}, expected {want:?}",
                        r.protection
                    ));
                }
                Ok(())
            })
        };

        n.repository.add_bytecode(CERT_NAME, &self.certified);
        trace::manual(Layer::Certify, "certify", || {
            self.world.certify(CERT_NAME, &[Right::RunKernel])
        })
        .map_err(err)?;
        load(CERT_NAME, CERT_PATH, Protection::CertifiedNative)?;
        n.repository.add_bytecode(SOFT_NAME, &self.unverifiable);
        load(SOFT_NAME, SOFT_PATH, Protection::Sandboxed)?;

        let domain = trace::manual(Layer::Nucleus, "create_domain", || {
            n.create_domain("app", KERNEL_DOMAIN, [])
        })
        .map_err(err)?
        .id;

        // Spans: harness → core.proxy → sfi for the crossing, harness →
        // obj.interpose (the chain) → sfi for the same-domain calls. The
        // inner interposer goes where the paper puts it: in the name space
        // (fetched by `lookup`, which unlike `bind` charges no cycles, so
        // traced and untraced runs count the same).
        if on {
            for path in [SOFT_PATH, CERT_PATH] {
                let c = n.root_namespace().lookup(path).map_err(err)?.obj;
                n.interpose(KERNEL_DOMAIN, path, traced(c, Layer::Sfi, on))
                    .map_err(err)?;
            }
        }
        let (cross, local) = trace::manual(Layer::Nucleus, "bind", || {
            Ok::<_, String>((
                n.bind(domain, SOFT_PATH).map_err(err)?,
                n.bind(KERNEL_DOMAIN, CERT_PATH).map_err(err)?,
            ))
        })?;
        let mut chained = local;
        for _ in 0..CHAIN_DEPTH {
            chained = InterposerBuilder::new(chained).build();
        }
        Ok(Lifecycle {
            domain,
            cross: Component(traced(cross, Layer::Proxy, on)),
            chained: Component(traced(chained, Layer::Interpose, on)),
        })
    }

    /// Unregister, remove and destroy what `open` created.
    pub fn close(&self, life: Lifecycle) -> Res<()> {
        let n = &self.world.nucleus;
        trace::manual(Layer::Nucleus, "teardown", || {
            for (name, path) in [(CERT_NAME, CERT_PATH), (SOFT_NAME, SOFT_PATH)] {
                n.root_namespace().unregister(path).map_err(err)?;
                if !n.repository.remove(name) {
                    return Err(format!("{name} was not in the repository"));
                }
            }
            n.destroy_domain(life.domain).map_err(err)
        })
    }

    pub fn counters(&self, life: &Lifecycle) -> Res<ExtCounters> {
        let n = &self.world.nucleus;
        let cert = n.certsvc.stats();
        Ok(ExtCounters {
            proxy_crossings: n.proxy_stats().crossings() as i64,
            proxy_bytes: n.proxy_stats().bytes() as i64,
            full_validations: cert.full_validations as i64,
            cache_hits: cert.cache_hits as i64,
            last_steps: life.cross.steps()?,
        })
    }
}

impl Component {
    /// `component.run(frame, 0)`: the byte sum of `frame`.
    pub fn run(&self, frame: Bytes) -> Res<i64> {
        call(
            &self.0,
            "component",
            "run",
            &[Value::Bytes(frame), Value::Int(0)],
        )?
        .as_int()
        .map_err(err)
    }

    fn steps(&self) -> Res<i64> {
        call(&self.0, "component", "steps", &[])?
            .as_int()
            .map_err(err)
    }
}

/// What `Component::run` must return for `frame`.
pub fn reference_sum(frame: &[u8]) -> i64 {
    frame.iter().map(|&b| i64::from(b)).sum()
}

// ------------------------------------------------------------------ probes

/// Direct calls on single layers, for the probe metrics. Each returns a
/// closure to time; building it is set-up.
pub mod probe {
    use super::*;
    use paramecium::crypto::{rsa, sha256};

    pub fn checksum(data: Vec<u8>) -> impl FnMut() -> u64 {
        move || u64::from(wire::internet_checksum(std::hint::black_box(&data)))
    }

    pub fn tcp_build(payload: Vec<u8>) -> impl FnMut() -> u64 {
        move || ReqNet::tcp_frame(std::hint::black_box(&payload)).len() as u64
    }

    pub fn tcp_parse(frame: Vec<u8>) -> impl FnMut() -> u64 {
        move || match wire::parse_tcp_frame(std::hint::black_box(&frame)) {
            Ok((_, hdr, payload)) => u64::from(hdr.seq) + payload.len() as u64,
            Err(_) => 0,
        }
    }

    pub fn sha256_of(data: Vec<u8>) -> impl FnMut() -> u64 {
        move || u64::from(sha256(std::hint::black_box(&data))[0])
    }

    /// One RSA public-key operation on a 512-bit key (the harness key
    /// size): what each link of a certificate chain costs to check.
    pub fn rsa_verify(rng: &mut rand::rngs::StdRng) -> Res<impl FnMut() -> u64> {
        let keys = rsa::generate(rng, paramecium::harness::HARNESS_KEY_BITS);
        let digest = sha256(b"probe");
        let sig = rsa::sign(&keys.private, &digest).map_err(err)?;
        Ok(move || {
            u64::from(rsa::verify(&keys.public, std::hint::black_box(&digest), &sig).is_ok())
        })
    }

    /// A full chain validation: the validation cache is off.
    pub fn cert_validate() -> Res<impl FnMut() -> u64> {
        let world = World::boot();
        let n = world.nucleus.clone();
        let image = n
            .repository
            .add_bytecode("probe", &workloads::checksum_loop_verified(64, 1));
        world.certify("probe", &[Right::RunKernel]).map_err(err)?;
        n.certsvc.set_cache_enabled(false);
        Ok(move || u64::from(n.certsvc.validate_for(&image, Right::RunKernel).is_ok()))
    }

    pub fn sfi_analyze() -> impl FnMut() -> u64 {
        let p = workloads::checksum_loop_verified(EXT_FRAME as u32, 1);
        move || match sfi::analysis::analyze(std::hint::black_box(&p)) {
            Ok(a) => a.report.evaluations,
            Err(_) => 0,
        }
    }

    /// The verified checksum through the proof-elided interpreter.
    pub fn sfi_run_elided(frame: Vec<u8>) -> Res<impl FnMut() -> u64> {
        let p = workloads::checksum_loop_verified(EXT_FRAME as u32, 1);
        let a = sfi::analysis::analyze(&p).map_err(err)?;
        let e = sfi::ElidedProgram::compile(&p, &a);
        Ok(move || {
            let mut i = sfi::ElidedInterp::new(&e);
            i.load_data(0, &frame);
            i.run(1 << 20).map_or(0, |o| o.result)
        })
    }

    /// The unverifiable checksum, SFI-rewritten, through the checked
    /// interpreter.
    pub fn sfi_run_sandboxed(frame: Vec<u8>) -> impl FnMut() -> u64 {
        let (p, _) = sfi::sandbox_rewrite(&workloads::checksum_loop(EXT_FRAME as u32, 1));
        move || {
            let mut i = sfi::Interp::new(&p);
            i.load_data(0, &frame);
            i.run(1 << 20).map_or(0, |o| o.result)
        }
    }

    /// One `invoke` through `depth` hook-less interposers.
    pub fn dispatch(depth: usize) -> impl FnMut() -> u64 {
        let mut obj = ObjectBuilder::new("counter")
            .state(0i64)
            .interface("ctr", |i| {
                i.method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
                    let by = args[0].as_int()?;
                    this.with_state(|n: &mut i64| {
                        *n += by;
                        Ok(Value::Int(*n))
                    })
                })
            })
            .build();
        for _ in 0..depth {
            obj = InterposerBuilder::new(obj).build();
        }
        let args = [Value::Int(1)];
        move || {
            obj.invoke("ctr", "incr", &args)
                .map_or(0, |v| v.as_int().unwrap_or(0) as u64)
        }
    }

    /// `bind` of a kernel object from the kernel domain, a cross-domain
    /// invocation of a trivial method, and the two kernel loads.
    pub struct Core {
        world: World,
        proxy: ObjRef,
        cert: paramecium::cert::PolicyOutcome,
    }

    impl Core {
        pub fn boot() -> Res<Core> {
            let world = World::boot();
            let n = &world.nucleus;
            n.repository.add_bytecode(
                CERT_NAME,
                &workloads::checksum_loop_verified(EXT_FRAME as u32, 1),
            );
            let image = n.repository.image_of(CERT_NAME).map_err(err)?;
            let cert = world
                .policy
                .certify(CERT_NAME, &image, &[Right::RunKernel])
                .map_err(err)?;
            n.repository
                .add_bytecode(SOFT_NAME, &workloads::checksum_loop(EXT_FRAME as u32, 1));
            let app = n.create_domain("app", KERNEL_DOMAIN, []).map_err(err)?.id;
            let proxy = n.bind(app, "/nucleus/events").map_err(err)?;
            Ok(Core { world, proxy, cert })
        }

        pub fn bind(&self) -> u64 {
            let n = &self.world.nucleus;
            u64::from(n.bind(KERNEL_DOMAIN, "/nucleus/events").is_ok())
        }

        pub fn proxy_invoke(&self) -> u64 {
            self.proxy
                .invoke("events", "callbacks", &[Value::Int(1)])
                .map_or(0, |v| v.as_int().unwrap_or(0) as u64)
        }

        /// Loads `ext-cert` (certificate path, validation cache cold) or
        /// `ext-soft` (`soften`), then unregisters it again.
        pub fn load(&self, certified: bool) -> u64 {
            let n = &self.world.nucleus;
            let (name, path) = if certified {
                // Re-installing the certificate drops its cached validation.
                n.certsvc
                    .install(self.cert.certificate.clone(), self.cert.chain.clone());
                (CERT_NAME, CERT_PATH)
            } else {
                (SOFT_NAME, SOFT_PATH)
            };
            let ok = n.load(name, &LoadOptions::kernel(path)).is_ok();
            let _ = n.root_namespace().unregister(path);
            u64::from(ok)
        }
    }
}
