//! The span recorder behind the traced run.
//!
//! A span is one call across a layer boundary. Spans are opened and closed
//! by the timing interposers `adapt::traced` slides between objects (and by
//! [`manual`] around the nucleus calls that are not object invocations), are
//! aggregated into the per-layer ledger as they close, and the span trees of
//! the first [`RAW_ROOTS`] root spans are kept whole for the trace file.
//!
//! Self time is a span's duration minus the intervals its children cover.
//! The time the hooks themselves take is measured (two clock reads on each
//! side of a span) and booked to [`Layer::Trace`], so the ledger rows sum
//! exactly to the time inside the root spans.

use std::cell::RefCell;
use std::time::Instant;

/// Ledger rows. Names are the repo's module names; `bench.*` is the
/// benchmark's own cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Tcp,
    Arp,
    Route,
    Simlink,
    Filter,
    Sfi,
    Cache,
    Journal,
    Retry,
    Driver,
    Proxy,
    Nucleus,
    Certify,
    Interpose,
    Trace,
    Harness,
}

pub const LAYERS: [Layer; 16] = [
    Layer::Tcp,
    Layer::Arp,
    Layer::Route,
    Layer::Simlink,
    Layer::Filter,
    Layer::Sfi,
    Layer::Cache,
    Layer::Journal,
    Layer::Retry,
    Layer::Driver,
    Layer::Proxy,
    Layer::Nucleus,
    Layer::Certify,
    Layer::Interpose,
    Layer::Trace,
    Layer::Harness,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tcp => "netstack.tcp",
            Layer::Arp => "netstack.arp",
            Layer::Route => "netstack.route",
            Layer::Simlink => "netstack.simlink",
            Layer::Filter => "netstack.filter",
            Layer::Sfi => "sfi",
            Layer::Cache => "store.cache",
            Layer::Journal => "store.journal",
            Layer::Retry => "store.retry",
            Layer::Driver => "store.driver",
            Layer::Proxy => "core.proxy",
            Layer::Nucleus => "core.nucleus",
            Layer::Certify => "cert.certify",
            Layer::Interpose => "obj.interpose",
            Layer::Trace => "bench.trace",
            Layer::Harness => "bench.harness",
        }
    }
}

/// Root spans whose whole tree is kept for the trace file.
pub const RAW_ROOTS: u64 = 32;
/// Room for the raw spans of those roots; recording stops, and says so,
/// when it is used up.
const RAW_CAPACITY: usize = 1 << 16;
/// Distinct method names a run may see.
const METHODS: usize = 64;
/// Method-name strings remembered by address.
const SEEN: usize = 48;

/// One recorded span, as written to the trace file.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub method: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub start_cycle: u64,
    pub end_cycle: u64,
    /// Index of the parent span in the raw vector; `u32::MAX` for a root.
    pub parent: u32,
    /// The root span (batch of ops) this span belongs to.
    pub root: u64,
}

#[derive(Clone, Copy, Default, Debug)]
pub struct Row {
    pub calls: u64,
    pub self_ns: u64,
    pub self_cycles: u64,
}

struct Open {
    layer: Layer,
    method: u16,
    /// Hook entry: where the parent stops being charged.
    enter_ns: u64,
    /// Hook exit: where this span's own time starts.
    start_ns: u64,
    start_cycle: u64,
    child_ns: u64,
    child_cycles: u64,
    raw: u32,
}

pub struct Recorder {
    epoch: Instant,
    clock: Option<Box<dyn Fn() -> u64>>,
    stack: Vec<Open>,
    rows: [Row; LAYERS.len()],
    /// Rows by `(layer, method)`, for the trace file: `METHODS` per layer.
    by_method: Vec<Row>,
    methods: Vec<String>,
    /// `(address, length)` of method-name strings already resolved: an
    /// interposer passes the same string on every call.
    seen: Vec<(usize, usize, u16)>,
    raw: Vec<Span>,
    raw_truncated: bool,
    roots: u64,
    root_ns: u64,
    root_cycles: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn cycles(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c())
    }

    fn method_id(&mut self, name: &str) -> u16 {
        let key = (name.as_ptr() as usize, name.len());
        // The address alone is not proof: a freed interposer's string may
        // be reused by another name of the same length.
        if let Some(hit) = self.seen.iter().find(|s| (s.0, s.1) == key) {
            if self.methods[hit.2 as usize] == name {
                return hit.2;
            }
            self.seen.retain(|s| (s.0, s.1) != key);
        }
        let id = match self.methods.iter().position(|m| m == name) {
            Some(i) => i as u16,
            None => {
                assert!(
                    self.methods.len() < METHODS,
                    "more than {METHODS} method names"
                );
                self.methods.push(name.to_owned());
                (self.methods.len() - 1) as u16
            }
        };
        // Short-lived interposers (one set per `kernel_ext` lifecycle) bring
        // fresh strings; keep the scan short.
        if self.seen.len() == SEEN {
            self.seen.clear();
        }
        self.seen.push((key.0, key.1, id));
        id
    }

    fn open(&mut self, layer: Layer, method: &str) {
        let enter_ns = self.now_ns();
        let method = self.method_id(method);
        let start_cycle = self.cycles();
        let keep = self.roots <= RAW_ROOTS && !self.raw_truncated;
        let raw = if keep && self.raw.len() < RAW_CAPACITY {
            let parent = self.stack.last().map_or(u32::MAX, |p| p.raw);
            self.raw.push(Span {
                layer,
                method,
                start_ns: 0,
                end_ns: 0,
                start_cycle,
                end_cycle: 0,
                parent,
                root: self.roots,
            });
            (self.raw.len() - 1) as u32
        } else {
            self.raw_truncated |= keep;
            u32::MAX
        };
        self.stack.push(Open {
            layer,
            method,
            enter_ns,
            start_ns: 0,
            start_cycle,
            child_ns: 0,
            child_cycles: 0,
            raw,
        });
        let start_ns = self.now_ns();
        self.stack.last_mut().expect("just pushed").start_ns = start_ns;
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let end_cycle = self.cycles();
        let o = self.stack.pop().expect("close without open");
        let dur = end_ns - o.start_ns;
        let cyc = end_cycle - o.start_cycle;
        let row = Row {
            calls: 1,
            self_ns: dur - o.child_ns,
            self_cycles: cyc - o.child_cycles,
        };
        add(&mut self.rows[o.layer as usize], row);
        add(
            &mut self.by_method[o.layer as usize * METHODS + o.method as usize],
            row,
        );
        if let Some(s) = self.raw.get_mut(o.raw as usize) {
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
            s.end_cycle = end_cycle;
        }
        let exit_ns = self.now_ns();
        let hook_ns = (o.start_ns - o.enter_ns) + (exit_ns - end_ns);
        self.rows[Layer::Trace as usize].self_ns += hook_ns;
        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += exit_ns - o.enter_ns;
                parent.child_cycles += cyc;
            }
            None => {
                self.root_ns += exit_ns - o.enter_ns;
                self.root_cycles += cyc;
            }
        }
    }
}

fn add(into: &mut Row, r: Row) {
    into.calls += r.calls;
    into.self_ns += r.self_ns;
    into.self_cycles += r.self_cycles;
}

/// Starts recording on this thread. `clock` reads the machine's virtual
/// cycle counter.
pub fn start(clock: Box<dyn Fn() -> u64>) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            clock: Some(clock),
            stack: Vec::with_capacity(64),
            rows: [Row::default(); LAYERS.len()],
            by_method: vec![Row::default(); LAYERS.len() * METHODS],
            methods: Vec::with_capacity(METHODS),
            seen: Vec::with_capacity(SEEN),
            raw: Vec::with_capacity(RAW_CAPACITY),
            raw_truncated: false,
            roots: 0,
            root_ns: 0,
            root_cycles: 0,
        })
    });
}

/// Hook body: a call into `layer` begins. A no-op when not recording.
pub fn enter(layer: Layer, method: &str) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.open(layer, method);
        }
    });
}

/// Hook body: the innermost open call returned.
pub fn exit() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.close();
        }
    });
}

/// Runs `f` inside a span opened from the benchmark's own code: the root
/// span of a batch of ops ([`Layer::Harness`]) or a nucleus call that is
/// not an object invocation.
pub fn manual<T>(layer: Layer, method: &str, f: impl FnOnce() -> T) -> T {
    let recording = REC.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            if rec.stack.is_empty() {
                rec.roots += 1;
            }
            true
        }
        None => false,
    });
    if !recording {
        return f();
    }
    enter(layer, method);
    let out = f();
    exit();
    out
}

/// What a traced phase recorded.
pub struct Ledger {
    pub rows: [Row; LAYERS.len()],
    pub by_method: Vec<(Layer, String, Row)>,
    pub methods: Vec<String>,
    pub raw: Vec<Span>,
    pub raw_truncated: bool,
    pub roots: u64,
    /// Wall time and virtual cycles inside root spans.
    pub root_ns: u64,
    pub root_cycles: u64,
}

impl Ledger {
    /// The ledger's defining property: rows sum to the time in root spans.
    pub fn check_sums(&self) -> Result<(), String> {
        let ns: u64 = self.rows.iter().map(|r| r.self_ns).sum();
        let cy: u64 = self.rows.iter().map(|r| r.self_cycles).sum();
        if ns != self.root_ns || cy != self.root_cycles {
            return Err(format!(
                "ledger rows sum to {ns} ns / {cy} cycles, root spans cover {} ns / {} cycles",
                self.root_ns, self.root_cycles
            ));
        }
        Ok(())
    }
}

/// Stops recording and returns the ledger.
pub fn finish() -> Ledger {
    let rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start");
    assert!(rec.stack.is_empty(), "spans still open at finish");
    let by_method = LAYERS
        .iter()
        .flat_map(|&l| (0..rec.methods.len()).map(move |m| (l, m)))
        .map(|(l, m)| {
            (
                l,
                rec.methods[m].clone(),
                rec.by_method[l as usize * METHODS + m],
            )
        })
        .filter(|(_, _, r)| r.calls > 0)
        .collect();
    Ledger {
        rows: rec.rows,
        by_method,
        methods: rec.methods,
        raw: rec.raw,
        raw_truncated: rec.raw_truncated,
        roots: rec.roots,
        root_ns: rec.root_ns,
        root_cycles: rec.root_cycles,
    }
}
