//! A seeded, adversarial simulated link.
//!
//! [`make_simlink`] builds two endpoint objects joined by a full-duplex
//! "wire". Each endpoint exports the same `netdev` interface as the real
//! NIC driver, so any protocol object (the UDP stack, the TCP object, an
//! interposing monitor) layers on a lossy wire exactly as it layers on
//! hardware — interchangeability is the architecture's point, and this is
//! the object that turns it into an adversarial test fixture.
//!
//! Every impairment — drop, duplication, reordering, corruption, delay —
//! is a pure function of the link's seed and the (deterministic) order
//! frames are sent in, and all delays are expressed in the machine's
//! virtual clock, so a property test that replays the same seed observes
//! bit-identical behaviour down to each corrupted byte. A `send_many`
//! burst meets the RNG frame by frame in burst order, so it draws what
//! the same frames sent one `send` at a time would (see [`crate::burst`]
//! for the `netdev` method table and the equivalence contract).
//!
//! Reordering falls out of randomized per-frame delays; the explicit
//! `reorder_permille` knob additionally holds a frame back long enough
//! that later traffic overtakes it even at a fixed base delay.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

use paramecium_machine::Machine;
use paramecium_obj::{ObjRef, ObjectBuilder, TypeTag, Value};

use crate::burst::netdev_methods;

/// Impairment knobs, all in permille (so 100 = 10 %).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Seed for the link's private RNG; every impairment derives from it.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop_permille: u16,
    /// Probability a frame is delivered twice.
    pub dup_permille: u16,
    /// Probability a frame is held back behind later traffic.
    pub reorder_permille: u16,
    /// Probability one random byte of the frame is flipped.
    pub corrupt_permille: u16,
    /// Minimum propagation delay in machine cycles.
    pub delay_min: u64,
    /// Maximum propagation delay in machine cycles (inclusive).
    pub delay_max: u64,
}

impl LinkConfig {
    /// A perfect wire: no loss, no reordering, fixed 1-cycle delay.
    pub fn perfect(seed: u64) -> Self {
        LinkConfig {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 0,
            corrupt_permille: 0,
            delay_min: 1,
            delay_max: 1,
        }
    }

    /// The adversarial default used by the property suite: 10 % drop,
    /// 10 % duplication, 10 % reordering, plus jittered delay.
    pub fn adversarial(seed: u64) -> Self {
        LinkConfig {
            seed,
            drop_permille: 100,
            dup_permille: 100,
            reorder_permille: 100,
            corrupt_permille: 0,
            delay_min: 10,
            delay_max: 5_000,
        }
    }

    /// A fully partitioned wire: every frame is dropped. Chaos drills
    /// apply this at runtime (via `link set_config`) to cut a link
    /// mid-stream, then restore the saved config to heal it.
    pub fn partitioned(seed: u64) -> Self {
        LinkConfig {
            drop_permille: 1000,
            ..LinkConfig::perfect(seed)
        }
    }

    /// Checks the knobs are meaningful: permille fields are
    /// probabilities (≤ 1000) and the delay envelope is ordered.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("drop_permille", self.drop_permille),
            ("dup_permille", self.dup_permille),
            ("reorder_permille", self.reorder_permille),
            ("corrupt_permille", self.corrupt_permille),
        ] {
            if v > 1000 {
                return Err(format!("{name} = {v} exceeds 1000 (permille)"));
            }
        }
        if self.delay_min > self.delay_max {
            return Err(format!(
                "delay_min {} exceeds delay_max {}",
                self.delay_min, self.delay_max
            ));
        }
        Ok(())
    }

    /// The runtime-settable knobs as the `link config`/`set_config` wire
    /// list: `[drop, dup, reorder, corrupt, delay_min, delay_max]`. The
    /// seed is deliberately absent — a live link's RNG stream never
    /// restarts, so replays stay bit-identical across reconfigs.
    pub(crate) fn to_knobs(self) -> Vec<Value> {
        vec![
            Value::Int(i64::from(self.drop_permille)),
            Value::Int(i64::from(self.dup_permille)),
            Value::Int(i64::from(self.reorder_permille)),
            Value::Int(i64::from(self.corrupt_permille)),
            Value::Int(self.delay_min as i64),
            Value::Int(self.delay_max as i64),
        ]
    }

    /// Parses the `set_config` knob list (see [`LinkConfig::to_knobs`])
    /// onto `self`, validating ranges.
    fn apply_knobs(&mut self, knobs: &[Value]) -> paramecium_obj::ObjResult<()> {
        use paramecium_obj::ObjError;
        if knobs.len() != 6 {
            return Err(ObjError::failed(format!(
                "link config takes 6 knobs, got {}",
                knobs.len()
            )));
        }
        let mut ints = [0i64; 6];
        for (slot, v) in ints.iter_mut().zip(knobs) {
            *slot = v.as_int()?;
            if *slot < 0 {
                return Err(ObjError::failed("link config knobs must be non-negative"));
            }
        }
        let next = LinkConfig {
            seed: self.seed,
            drop_permille: ints[0].min(i64::from(u16::MAX)) as u16,
            dup_permille: ints[1].min(i64::from(u16::MAX)) as u16,
            reorder_permille: ints[2].min(i64::from(u16::MAX)) as u16,
            corrupt_permille: ints[3].min(i64::from(u16::MAX)) as u16,
            delay_min: ints[4] as u64,
            delay_max: ints[5] as u64,
        };
        next.validate().map_err(ObjError::failed)?;
        *self = next;
        Ok(())
    }
}

paramecium_obj::counters! {
    /// Per-direction counters, readable via `netdev stats` on the *sending*
    /// endpoint of the direction.
    pub struct LinkStats {
        /// Frames accepted by `send`.
        pub sent: u64,
        /// Frames handed to the receiver by `recv`.
        pub delivered: u64,
        /// Frames the wire dropped.
        pub dropped: u64,
        /// Extra copies the wire created.
        pub duplicated: u64,
        /// Frames held back behind later traffic.
        pub reordered: u64,
        /// Frames with a flipped byte.
        pub corrupted: u64,
    }
}

/// One direction of the wire: frames in flight ordered by delivery time.
/// Each direction owns its impairment config, so drills can impair (or
/// cut) one direction while the other keeps flowing.
struct Direction {
    cfg: LinkConfig,
    rng: StdRng,
    /// `(deliver_at, frame)`, sorted by time, equal times in the order
    /// they were sent: an in-order wire pushes at the back and pops at
    /// the front.
    in_flight: VecDeque<(u64, bytes::Bytes)>,
    stats: LinkStats,
}

impl Direction {
    fn new(cfg: LinkConfig, seed: u64) -> Self {
        Direction {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            in_flight: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    fn delay(&mut self, cfg: &LinkConfig) -> u64 {
        if cfg.delay_max > cfg.delay_min {
            self.rng.gen_range(cfg.delay_min..cfg.delay_max + 1)
        } else {
            cfg.delay_min
        }
    }

    fn enqueue(&mut self, deliver_at: u64, frame: bytes::Bytes) {
        let at = self.in_flight.partition_point(|e| e.0 <= deliver_at);
        self.in_flight.insert(at, (deliver_at, frame));
    }

    fn transmit(&mut self, now: u64, frame: bytes::Bytes) {
        // Copy out the (Copy) config so the roll closure can borrow the
        // RNG mutably while the knobs are read.
        let cfg = self.cfg;
        let cfg = &cfg;
        self.stats.sent += 1;
        let roll = |rng: &mut StdRng, permille: u16| -> bool {
            permille > 0 && rng.gen_range(0u32..1000) < u32::from(permille)
        };
        if roll(&mut self.rng, cfg.drop_permille) {
            self.stats.dropped += 1;
            return;
        }
        let frame = if roll(&mut self.rng, cfg.corrupt_permille) && !frame.is_empty() {
            self.stats.corrupted += 1;
            let mut bytes = frame.to_vec();
            let idx = self.rng.gen_range(0..bytes.len());
            let mut flip = (self.rng.next_u64() & 0xFF) as u8;
            if flip == 0 {
                flip = 1; // XOR by zero would not corrupt.
            }
            bytes[idx] ^= flip;
            bytes::Bytes::from(bytes)
        } else {
            frame
        };
        let mut delay = self.delay(cfg);
        if roll(&mut self.rng, cfg.reorder_permille) {
            // Hold the frame back past the whole delay envelope so frames
            // sent after it (at any legal delay) overtake it.
            self.stats.reordered += 1;
            delay += cfg.delay_max + 1;
        }
        let deliver_at = now + delay;
        if roll(&mut self.rng, cfg.dup_permille) {
            self.stats.duplicated += 1;
            let dup_delay = self.delay(cfg);
            self.enqueue(now + dup_delay, frame.clone());
        }
        self.enqueue(deliver_at, frame);
    }

    fn deliverable(&self, now: u64) -> usize {
        self.in_flight.partition_point(|e| e.0 <= now)
    }

    fn receive(&mut self, now: u64) -> Option<bytes::Bytes> {
        if self.in_flight.front()?.0 > now {
            return None;
        }
        self.stats.delivered += 1;
        self.in_flight.pop_front().map(|(_, frame)| frame)
    }
}

/// The shared wire: direction 0 carries endpoint A→B, direction 1 B→A.
struct LinkCore {
    dirs: [Direction; 2],
}

/// Endpoint state: which direction it transmits into.
struct EndpointState {
    core: Arc<Mutex<LinkCore>>,
    machine: Arc<Mutex<Machine>>,
    tx_dir: usize,
}

impl EndpointState {
    fn now(&self) -> u64 {
        self.machine.lock().now()
    }
}

fn make_endpoint(
    core: Arc<Mutex<LinkCore>>,
    machine: Arc<Mutex<Machine>>,
    tx_dir: usize,
) -> ObjRef {
    ObjectBuilder::new("simlink-endpoint")
        .state(EndpointState {
            core,
            machine,
            tx_dir,
        })
        .raw_interface({
            // One state lock, one clock read and one link lock per
            // burst; each frame meets the wire's RNG in burst order.
            netdev_methods(
                |this, tx| {
                    this.with_state(|s: &mut EndpointState| {
                        let now = s.now();
                        let mut core = s.core.lock();
                        let dir = &mut core.dirs[s.tx_dir];
                        tx.frames().for_each(|f| dir.transmit(now, f.clone()));
                        Ok(())
                    })
                },
                |this, max, out| {
                    this.with_state(|s: &mut EndpointState| {
                        let now = s.now();
                        let mut core = s.core.lock();
                        let dir = &mut core.dirs[1 - s.tx_dir];
                        out.reserve(dir.deliverable(now).min(max));
                        out.extend(
                            std::iter::from_fn(|| dir.receive(now))
                                .take(max)
                                .map(Value::Bytes),
                        );
                        Ok(())
                    })
                },
            )
            .provide("pending", |this, _| {
                this.with_state(|s: &mut EndpointState| {
                    let now = s.now();
                    let core = s.core.lock();
                    Ok(Value::Int(core.dirs[1 - s.tx_dir].deliverable(now) as i64))
                })
            })
            .provide("stats", |this, _| {
                this.with_state(|s: &mut EndpointState| {
                    let core = s.core.lock();
                    Ok(core.dirs[s.tx_dir].stats.to_value())
                })
            })
            .finish()
        })
        // Runtime impairment control over this endpoint's *transmit*
        // direction. The RNG stream is untouched by reconfig, so a drill
        // that partitions and heals replays bit-identically.
        .interface("link", |i| {
            i.method(
                "set_config",
                &[TypeTag::List],
                TypeTag::Unit,
                |this, args| {
                    let knobs = args[0].as_list()?.to_vec();
                    this.with_state(|s: &mut EndpointState| {
                        let mut core = s.core.lock();
                        core.dirs[s.tx_dir].cfg.apply_knobs(&knobs)?;
                        Ok(Value::Unit)
                    })
                },
            )
            .method("config", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut EndpointState| {
                    let core = s.core.lock();
                    Ok(Value::List(core.dirs[s.tx_dir].cfg.to_knobs()))
                })
            })
        })
        .build()
}

/// Builds the two endpoints of a lossy link. Frames sent on the first
/// endpoint arrive (maybe, eventually, possibly twice or corrupted) at the
/// second, and vice versa; delivery times are measured on `machine`'s
/// virtual clock, so `recv` only yields a frame once the clock has passed
/// its arrival time.
pub fn make_simlink(machine: Arc<Mutex<Machine>>, cfg: LinkConfig) -> (ObjRef, ObjRef) {
    if let Err(e) = cfg.validate() {
        panic!("invalid LinkConfig: {e}");
    }
    let core = Arc::new(Mutex::new(LinkCore {
        dirs: [
            Direction::new(cfg, cfg.seed.wrapping_mul(2).wrapping_add(1)),
            Direction::new(cfg, cfg.seed.wrapping_mul(2).wrapping_add(2)),
        ],
    }));
    let a = make_endpoint(core.clone(), machine.clone(), 0);
    let b = make_endpoint(core, machine, 1);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cfg: LinkConfig) -> (Arc<Mutex<Machine>>, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (a, b) = make_simlink(machine.clone(), cfg);
        (machine, a, b)
    }

    fn send(dev: &ObjRef, frame: &[u8]) {
        dev.invoke(
            "netdev",
            "send",
            &[Value::Bytes(bytes::Bytes::copy_from_slice(frame))],
        )
        .unwrap();
    }

    fn recv(dev: &ObjRef) -> Vec<u8> {
        dev.invoke("netdev", "recv", &[])
            .unwrap()
            .as_bytes()
            .unwrap()
            .to_vec()
    }

    #[test]
    fn perfect_link_delivers_in_order_after_delay() {
        let (machine, a, b) = setup(LinkConfig::perfect(7));
        send(&a, &[1]);
        send(&a, &[2]);
        // Nothing deliverable before the clock advances.
        assert!(recv(&b).is_empty());
        machine.lock().tick(10);
        assert_eq!(b.invoke("netdev", "pending", &[]).unwrap(), Value::Int(2));
        assert_eq!(recv(&b), vec![1]);
        assert_eq!(recv(&b), vec![2]);
        assert!(recv(&b).is_empty());
    }

    #[test]
    fn directions_are_independent() {
        let (machine, a, b) = setup(LinkConfig::perfect(7));
        send(&a, &[1]);
        send(&b, &[9]);
        machine.lock().tick(10);
        assert_eq!(recv(&b), vec![1]);
        assert_eq!(recv(&a), vec![9]);
        assert!(recv(&b).is_empty());
    }

    #[test]
    fn same_seed_same_fate() {
        let run = |seed: u64| -> (Vec<Vec<u8>>, LinkStats) {
            let (machine, a, b) = setup(LinkConfig {
                corrupt_permille: 100,
                ..LinkConfig::adversarial(seed)
            });
            for i in 0..200u32 {
                send(&a, &i.to_be_bytes());
            }
            machine.lock().tick(100_000);
            let mut got = Vec::new();
            loop {
                let f = recv(&b);
                if f.is_empty() {
                    break;
                }
                got.push(f);
            }
            let stats = a.invoke("netdev", "stats", &[]).unwrap();
            let stats = LinkStats::from_value(&stats).unwrap();
            (got, stats)
        };
        let (got1, stats1) = run(42);
        let (got2, stats2) = run(42);
        assert_eq!(got1, got2, "same seed must replay bit-identically");
        assert_eq!(stats1, stats2);
        let (got3, stats3) = run(43);
        assert!(
            got3 != got1 || stats3 != stats1,
            "different seeds should take different fates"
        );
        // The adversarial profile actually exercises every impairment.
        assert!(stats1.dropped > 0, "{stats1:?}");
        assert!(stats1.duplicated > 0, "{stats1:?}");
        assert!(stats1.reordered > 0, "{stats1:?}");
        assert!(stats1.corrupted > 0, "{stats1:?}");
        assert_eq!(
            stats1.sent + stats1.duplicated - stats1.dropped,
            stats1.delivered
        );
    }

    #[test]
    fn permille_fields_validate_at_construction() {
        let mut cfg = LinkConfig::perfect(1);
        cfg.drop_permille = 1001;
        assert!(cfg.validate().is_err());
        cfg.drop_permille = 1000;
        assert!(cfg.validate().is_ok());
        cfg.corrupt_permille = 2000;
        assert!(cfg.validate().is_err());
        let mut inverted = LinkConfig::perfect(1);
        inverted.delay_min = 10;
        inverted.delay_max = 5;
        assert!(inverted.validate().is_err());
        assert!(LinkConfig::partitioned(3).validate().is_ok());
        assert_eq!(LinkConfig::partitioned(3).drop_permille, 1000);
    }

    #[test]
    #[should_panic(expected = "invalid LinkConfig")]
    fn make_simlink_rejects_invalid_config() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mut cfg = LinkConfig::perfect(1);
        cfg.dup_permille = 9999;
        let _ = make_simlink(machine, cfg);
    }

    #[test]
    fn runtime_set_config_partitions_and_heals_one_direction() {
        let (machine, a, b) = setup(LinkConfig::perfect(5));
        // Save the healthy config, then cut only A→B.
        let healthy = a.invoke("link", "config", &[]).unwrap();
        a.invoke(
            "link",
            "set_config",
            &[Value::List(LinkConfig::partitioned(5).to_knobs())],
        )
        .unwrap();
        send(&a, &[1]);
        send(&b, &[9]);
        machine.lock().tick(10);
        assert!(recv(&b).is_empty(), "A→B is cut");
        assert_eq!(recv(&a), vec![9], "B→A still flows");
        // Heal: restore the saved knobs; traffic resumes.
        a.invoke("link", "set_config", &[healthy]).unwrap();
        send(&a, &[2]);
        machine.lock().tick(10);
        assert_eq!(recv(&b), vec![2]);
        // The partition was counted as drops on the sender's stats.
        let stats = a.invoke("netdev", "stats", &[]).unwrap();
        assert_eq!(LinkStats::from_value(&stats).unwrap().dropped, 1);
    }

    #[test]
    fn runtime_set_config_rejects_bad_knobs() {
        let (_machine, a, _b) = setup(LinkConfig::perfect(5));
        let mut knobs = LinkConfig::perfect(5).to_knobs();
        knobs[0] = Value::Int(1001);
        assert!(a
            .invoke("link", "set_config", &[Value::List(knobs)])
            .is_err());
        let short = vec![Value::Int(0); 3];
        assert!(a
            .invoke("link", "set_config", &[Value::List(short)])
            .is_err());
        // The failed reconfigs left the link untouched.
        assert_eq!(
            a.invoke("link", "config", &[]).unwrap(),
            Value::List(LinkConfig::perfect(5).to_knobs())
        );
    }

    #[test]
    fn reordering_overtakes() {
        // Half the frames are held back past the delay envelope, so with a
        // fixed base delay the delivery order must differ from the send
        // order (while losing and duplicating nothing).
        let (machine, a, b) = setup(LinkConfig {
            seed: 11,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 500,
            corrupt_permille: 0,
            delay_min: 1,
            delay_max: 1,
        });
        let sent: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i]).collect();
        for f in &sent {
            send(&a, f);
        }
        machine.lock().tick(1_000);
        let mut got = Vec::new();
        loop {
            let f = recv(&b);
            if f.is_empty() {
                break;
            }
            got.push(f);
        }
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(sorted, sent, "nothing lost or duplicated");
        assert_ne!(got, sent, "delivery order must differ from send order");
    }

    proptest::proptest! {
        /// The deque wire against the map it replaced: frames keyed by
        /// `(deliver_at, arrival number)`, under delays that put new
        /// frames anywhere in the queue and readers that take some of
        /// what is due, all of it, or find nothing.
        #[test]
        fn prop_deque_wire_matches_a_map_keyed_by_time_then_arrival(
            ops in proptest::collection::vec((0u8..3, 0u64..40), 0..200),
        ) {
            use std::collections::BTreeMap;
            let mut wire = Direction::new(LinkConfig::perfect(1), 1);
            let mut model: BTreeMap<(u64, u64), bytes::Bytes> = BTreeMap::new();
            let (mut now, mut arrivals) = (0u64, 0u64);
            for (op, arg) in ops {
                match op {
                    0 => {
                        let frame = bytes::Bytes::from(arrivals.to_be_bytes().to_vec());
                        wire.enqueue(now + arg, frame.clone());
                        model.insert((now + arg, arrivals), frame);
                        arrivals += 1;
                    }
                    1 => now += arg,
                    _ => {
                        for _ in 0..arg {
                            let due = model.range(..=(now, u64::MAX)).next().map(|(&k, _)| k);
                            let want = due.map(|k| model.remove(&k).expect("key just seen"));
                            proptest::prop_assert_eq!(wire.receive(now), want);
                        }
                    }
                }
                let due = model.range(..=(now, u64::MAX)).count();
                proptest::prop_assert_eq!(wire.deliverable(now), due);
            }
        }
    }
}
