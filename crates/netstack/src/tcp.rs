//! A minimal-but-correct TCP endpoint object.
//!
//! [`make_tcp`] layers a TCP state machine on any object exporting the
//! `netdev` interface — a NIC driver, the ARP layer, a monitor, a router
//! or a simulated lossy link — and exports a `tcp` interface:
//!
//! - `listen(port: int)`, `connect(ip: int, port: int) -> int` (id),
//!   `accept(port: int) -> int` (id, `-1` when the backlog is empty),
//! - `send(id: int, data: bytes) -> int` (bytes accepted into the send
//!   buffer), `recv(id: int, max: int) -> bytes`, `close(id: int)`,
//! - `state(id: int) -> str`, `error(id: int) -> str` (why a dead
//!   connection died: `"reset"`, `"user-timeout"`,
//!   `"keepalive-timeout"`, `"retries-exhausted"`, or `""`),
//! - `set_user_timeout(id: int, cycles: int)` — RFC 5482 bound on how
//!   long data may sit unacknowledged before the connection aborts
//!   cleanly (default [`DEFAULT_USER_TIMEOUT`], 0 disables),
//! - `set_keepalive(id: int, interval: int)` — probe an idle
//!   connection every `interval` cycles; [`KEEPALIVE_PROBES`]
//!   unanswered probes abort it (0 disables),
//! - `set_backlog(port: int, n: int)` — cap the accept queue (default
//!   [`DEFAULT_BACKLOG`]); handshakes completing against a full queue
//!   are refused with an RST and counted in `backlog_dropped`,
//! - `stats() -> list`, `set_filter(handle)`,
//! - `pump() -> int` — the engine: drains the lower netdev a burst at a
//!   time (`recv_many` until one comes back short), then services, in
//!   ascending id order, exactly the connections that are
//!   *ready* (an event touched them since their last visit: a segment,
//!   `connect`, `send`, a `recv` that freed window, `close`, a timer
//!   knob) or *due* (their next wake-up on the machine's **virtual
//!   clock** — retransmit, TIME-WAIT expiry, user timeout, keepalive —
//!   has passed), running the timers and emitting whatever is owed (data
//!   within the peer's window, pure ACKs, FINs, zero-window probes). A
//!   connection that is neither would have been a no-op, so a pump costs
//!   O(active), not O(open), and the segment trace is the one a full
//!   scan in id order would produce. Segments are not handed down one
//!   by one: every one built during the pump — counted and digested as
//!   it is built — joins an output queue that leaves as a single
//!   `send_many` when the pump ends. Everything is driven by explicit
//!   `pump` calls, so a whole multi-host exchange is a deterministic
//!   function of the machine clock and the link seed.
//!
//! The implementation covers the three-way handshake, sequence/ack
//! tracking, retransmission with exponential RTO backoff, sliding-window
//! flow control (including zero-window probes), out-of-order reassembly
//! and the FIN teardown handshake with TIME-WAIT. Sequence arithmetic is
//! done on unsigned 64-bit *stream offsets* relative to the ISS/IRS, so
//! 32-bit wire wrap-around cannot corrupt the state machine.
//!
//! Every transmitted and received frame is folded, whole, into a running
//! [`sum64`] digest exposed through `stats`, which is what the
//! determinism tests compare across replays.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use paramecium_machine::Machine;
use paramecium_obj::{sum64, ObjError, ObjRef, ObjectBuilder, TypeTag, Value};
use parking_lot::Mutex;

use crate::arp::resolve_or_broadcast;
use crate::burst::{self, Drain};
use crate::wire::{self, tcp_flags, Mac, TcpHeader, MAC_BROADCAST};

/// Maximum segment payload.
pub const TCP_MSS: usize = 1000;
/// Send-buffer capacity per connection.
pub const SEND_BUF_MAX: usize = 64 * 1024;
/// Receive window per connection.
pub const RECV_WND: usize = 16 * 1024;
/// Initial retransmission timeout, in machine cycles.
pub const BASE_RTO: u64 = 200_000;
/// RTO ceiling (backoff stops doubling here).
pub const MAX_RTO: u64 = BASE_RTO << 8;
/// Retransmissions before the connection is aborted.
pub const MAX_RETRIES: u32 = 12;
/// TIME-WAIT linger, in machine cycles.
pub const TIME_WAIT_CYCLES: u64 = 800_000;
/// Default user timeout (RFC 5482), in machine cycles: a connection
/// with data continuously unacknowledged for this long is aborted into
/// a clean `"user-timeout"` error state. Zero disables the timer;
/// `set_user_timeout` adjusts it per connection.
pub const DEFAULT_USER_TIMEOUT: u64 = 100_000_000;
/// Unanswered keepalive probes before an idle connection is aborted.
pub const KEEPALIVE_PROBES: u32 = 3;
/// Default cap on established-but-unaccepted connections per listening
/// port; completions beyond it are refused with an RST.
pub const DEFAULT_BACKLOG: usize = 64;
/// First ephemeral port `connect` hands out; the range runs to 65535.
const EPHEMERAL_BASE: u16 = 49152;
/// Segments kept for a lower `netdev` that refused them; the oldest are
/// dropped (and counted in `tx_dropped`) beyond this.
const TX_QUEUE_MAX: usize = 256;

/// Connection states (RFC 793 names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
    Closed,
}

impl State {
    fn name(self) -> &'static str {
        match self {
            State::SynSent => "syn-sent",
            State::SynRcvd => "syn-rcvd",
            State::Established => "established",
            State::FinWait1 => "fin-wait-1",
            State::FinWait2 => "fin-wait-2",
            State::CloseWait => "close-wait",
            State::Closing => "closing",
            State::LastAck => "last-ack",
            State::TimeWait => "time-wait",
            State::Closed => "closed",
        }
    }
}

/// One connection. All sequence bookkeeping is in u64 stream offsets:
/// byte `i` of our outgoing stream has wire sequence `iss + 1 + i`
/// (wrapping), and symmetrically for the peer via `irs`.
struct Conn {
    state: State,
    peer_ip: u32,
    peer_port: u16,
    local_port: u16,
    peer_mac: Option<Mac>,
    iss: u32,
    irs: u32,
    /// Lowest unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to transmit.
    snd_nxt: u64,
    /// Bytes from offset `snd_una` onward not yet acknowledged.
    send_buf: VecDeque<u8>,
    /// Stream length once `close` fixes it; our FIN occupies this offset.
    stream_end: Option<u64>,
    fin_sent: bool,
    fin_acked: bool,
    /// Right edge of the peer's advertised window as a stream offset
    /// (kept monotonic: a receiver may not revoke window it granted).
    peer_wnd_edge: u64,
    /// Next expected incoming stream offset.
    rcv_nxt: u64,
    /// In-order bytes ready for the application.
    recv_buf: VecDeque<u8>,
    /// Out-of-order segments keyed by stream offset.
    ooo: BTreeMap<u64, Vec<u8>>,
    /// Offset of the peer's FIN, once seen.
    peer_fin: Option<u64>,
    peer_fin_rcvd: bool,
    ack_pending: bool,
    rto: u64,
    rtx_at: Option<u64>,
    retries: u32,
    timewait_at: u64,
    /// User timeout (RFC 5482), cycles; 0 disables.
    user_timeout: u64,
    /// Clock reading when data first went unacknowledged; rearmed on
    /// every forward ack so only a *continuous* stall trips the timer.
    stalled_since: Option<u64>,
    /// Keepalive probe interval, cycles; 0 disables.
    keepalive: u64,
    /// Clock reading of the last keepalive probe sent.
    ka_sent_at: u64,
    /// Probes sent since the peer was last heard from.
    ka_probes: u32,
    /// Clock reading of the last segment received on this connection.
    last_rx: u64,
    /// Why the connection died, for `error(id)`; `None` while healthy
    /// or after a clean close.
    err: Option<&'static str>,
    /// On the endpoint's ready list, awaiting the next `pump`.
    queued: bool,
}

impl Conn {
    fn new(peer_ip: u32, peer_port: u16, local_port: u16, iss: u32, state: State) -> Conn {
        Conn {
            state,
            peer_ip,
            peer_port,
            local_port,
            peer_mac: None,
            iss,
            irs: 0,
            snd_una: 0,
            snd_nxt: 0,
            send_buf: VecDeque::new(),
            stream_end: None,
            fin_sent: false,
            fin_acked: false,
            peer_wnd_edge: 0,
            rcv_nxt: 0,
            recv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            peer_fin: None,
            peer_fin_rcvd: false,
            ack_pending: false,
            rto: BASE_RTO,
            rtx_at: None,
            retries: 0,
            timewait_at: 0,
            user_timeout: DEFAULT_USER_TIMEOUT,
            stalled_since: None,
            keepalive: 0,
            ka_sent_at: 0,
            ka_probes: 0,
            last_rx: 0,
            err: None,
            queued: false,
        }
    }

    fn tuple(&self) -> (u32, u16, u16) {
        (self.peer_ip, self.peer_port, self.local_port)
    }

    /// Data is in flight but the user-timeout stall clock is not yet
    /// running: the very next `pump_timer` latches it, whatever the time.
    fn stall_unlatched(&self) -> bool {
        self.state != State::Closed
            && self.user_timeout > 0
            && self.snd_una < self.snd_nxt
            && self.stalled_since.is_none()
    }

    /// Earliest clock reading at which `pump_timer` could act with no
    /// further event: the minimum over exactly the timers it consults.
    fn next_deadline(&self) -> Option<u64> {
        if self.state == State::Closed {
            return None;
        }
        let mut due = self.rtx_at;
        let mut fold = |at: u64| due = Some(due.map_or(at, |d| d.min(at)));
        if self.state == State::TimeWait {
            fold(self.timewait_at);
        }
        // Latched only with the timer enabled and data in flight, and
        // cleared by whatever ends either.
        if let Some(since) = self.stalled_since {
            fold(since.saturating_add(self.user_timeout));
        }
        if self.keepalive > 0 && self.state == State::Established && self.snd_una == self.snd_nxt {
            fold(self.last_rx.max(self.ka_sent_at) + self.keepalive);
        }
        due
    }

    /// Wire sequence number for stream offset `off`.
    fn wire_seq(&self, off: u64) -> u32 {
        self.iss.wrapping_add(1).wrapping_add(off as u32)
    }

    /// Wire ack number acknowledging everything up to `rcv_nxt`.
    fn wire_ack(&self) -> u32 {
        self.irs.wrapping_add(1).wrapping_add(self.rcv_nxt as u32)
    }

    /// Maps an incoming wire sequence number to a stream offset near
    /// `rcv_nxt` (wrap-safe). Negative offsets (ancient duplicates far
    /// behind the window) come back as `None`.
    fn seq_to_off(&self, seq: u32) -> Option<u64> {
        let off32 = seq.wrapping_sub(self.irs.wrapping_add(1));
        let diff = i64::from(off32.wrapping_sub(self.rcv_nxt as u32) as i32);
        let off = self.rcv_nxt as i64 + diff;
        u64::try_from(off).ok()
    }

    /// Maps an incoming wire ack number to a stream offset near
    /// `snd_una` (wrap-safe).
    fn ack_to_off(&self, ack: u32) -> Option<u64> {
        let off32 = ack.wrapping_sub(self.iss.wrapping_add(1));
        let diff = i64::from(off32.wrapping_sub(self.snd_una as u32) as i32);
        let off = self.snd_una as i64 + diff;
        u64::try_from(off).ok()
    }

    /// Window we advertise: free receive-buffer space.
    fn adv_window(&self) -> u16 {
        let used = self.recv_buf.len();
        RECV_WND.saturating_sub(used).min(usize::from(u16::MAX)) as u16
    }

    /// Header of the segment about to leave with `flags` at `seq`. It
    /// carries the current ack and window, so no separate ACK is owed.
    fn header(&mut self, flags: u8, seq: u32) -> TcpHeader {
        self.ack_pending = false;
        TcpHeader {
            src_port: self.local_port,
            dst_port: self.peer_port,
            seq,
            ack: if flags & tcp_flags::ACK != 0 {
                self.wire_ack()
            } else {
                0
            },
            flags,
            window: self.adv_window(),
        }
    }
}

/// Aggregate endpoint counters; `digest` folds every frame on the wire
/// (both directions) through [`sum64`] and is the replay fingerprint.
#[derive(Default)]
struct TcpStats {
    segs_tx: u64,
    segs_rx: u64,
    bytes_tx: u64,
    bytes_rx: u64,
    retransmits: u64,
    malformed: u64,
    filtered: u64,
    rst_tx: u64,
    aborted: u64,
    digest: u64,
    backlog_dropped: u64,
    /// Connection visits made by `pump` (timer + output pass).
    serviced: u64,
    /// Segments dropped from a full output queue the lower kept refusing.
    tx_dropped: u64,
}

impl TcpStats {
    fn fold(&mut self, frame: &[u8]) {
        self.digest = sum64::fold(self.digest, frame);
    }
}

struct TcpState {
    machine: Arc<Mutex<Machine>>,
    lower: ObjRef,
    ip: u32,
    mac: Mac,
    filter: Option<ObjRef>,
    /// Frames pulled from `lower` a burst at a time; any a failed `pump`
    /// did not get to are the next one's first.
    rx: Drain,
    /// Output queue: every segment built since the last hand-down, which
    /// leaves as one `send_many` when `pump` (or `connect`) ends. A burst
    /// the lower refuses stays, so no segment is lost to a lower that
    /// says no.
    txq: Vec<Value>,
    /// Slab indexed by connection id: ids are handed out sequentially
    /// from 1 and never reused, so every data-path access is one bounds
    /// check. A closed connection keeps its slot (`state`/`error` still
    /// answer); only a handshake refused at a full backlog empties one.
    conns: Vec<Option<Conn>>,
    /// Ids an event has touched since their last visit (`Conn::queued`
    /// dedupes). `pump` sorts and drains it, keeping the allocation.
    ready: Vec<i64>,
    /// `Conn::next_deadline` of every connection that has one, as of
    /// its last visit; `pump` pops the prefix that is due.
    deadlines: Deadlines,
    /// Test oracle: service every connection on every pump, which is
    /// what the endpoint did before it became event-driven.
    #[cfg(test)]
    scan_all: bool,
    /// (peer ip, peer port, local port) -> connection id.
    demux: HashMap<(u32, u16, u16), i64>,
    /// Listening port -> accept queue.
    listeners: HashMap<u16, Listener>,
    next_port: u16,
    stats: TcpStats,
}

/// One listening port: established-but-unaccepted connections queue
/// here until `accept`, and completions past `cap` are refused with an
/// RST so a slow acceptor sheds load instead of growing without bound.
struct Listener {
    backlog: VecDeque<i64>,
    cap: usize,
}

impl Default for Listener {
    fn default() -> Listener {
        Listener {
            backlog: VecDeque::new(),
            cap: DEFAULT_BACKLOG,
        }
    }
}

/// The deadline index: each connection's single next wake-up, as a
/// binary min-heap of `(deadline, id)`. A `Vec` heap with every id's
/// position tracked beside it moves or cancels a wake-up in O(log n) and,
/// unlike a tree's nodes, allocates nothing as timers are armed and
/// cancelled segment after segment — only when a new id first appears.
#[derive(Default)]
struct Deadlines {
    heap: Vec<(u64, i64)>,
    /// Heap position by connection id; `ABSENT` for an id with no wake-up.
    pos: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl Deadlines {
    /// The earliest `(deadline, id)`.
    fn first(&self) -> Option<(u64, i64)> {
        self.heap.first().copied()
    }

    /// Sets, moves or (with `None`) cancels the wake-up of `id`.
    fn set(&mut self, id: i64, at: Option<u64>) {
        let id_ix = id as usize;
        if self.pos.len() <= id_ix {
            self.pos.resize(id_ix + 1, ABSENT);
        }
        let pos = self.pos[id_ix];
        match at {
            Some(at) if pos == ABSENT => {
                self.heap.push((at, id));
                self.settle(self.heap.len() - 1);
            }
            Some(at) => {
                self.heap[pos].0 = at;
                self.settle(pos);
            }
            None if pos == ABSENT => {}
            None => {
                self.pos[id_ix] = ABSENT;
                let last = self.heap.pop().expect("pos points into the heap");
                if pos < self.heap.len() {
                    self.heap[pos] = last;
                    self.settle(pos);
                }
            }
        }
    }

    /// Restores heap order around the entry at `pos`, which may be out
    /// of place in either direction, and records where entries land.
    fn settle(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent] <= entry {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        loop {
            let mut child = 2 * pos + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if entry <= self.heap[child] {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, entry);
    }

    fn place(&mut self, pos: usize, entry: (u64, i64)) {
        self.heap[pos] = entry;
        self.pos[entry.1 as usize] = pos;
    }
}

/// The live connection in slab slot `id`. Takes the slab rather than the
/// endpoint so callers keep `stats`, `demux` and the rest borrowable.
fn slot(conns: &mut [Option<Conn>], id: i64) -> &mut Conn {
    conns[id as usize].as_mut().expect("conn exists")
}

/// `buf[range]` of a ring buffer, in place: the part in each of its two
/// contiguous halves.
fn ring_range(buf: &VecDeque<u8>, range: Range<usize>) -> [&[u8]; 2] {
    let (front, back) = buf.as_slices();
    let seam = front.len();
    [
        &front[range.start.min(seam)..range.end.min(seam)],
        &back[range.start.saturating_sub(seam)..range.end.saturating_sub(seam)],
    ]
}

/// Deterministic initial sequence number for connection `id`.
fn isn(id: i64) -> u32 {
    ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

impl TcpState {
    fn now(&self) -> u64 {
        self.machine.lock().now()
    }

    fn dst_mac(&mut self, id: i64) -> Result<Mac, ObjError> {
        let conn = slot(&mut self.conns, id);
        if let Some(mac) = conn.peer_mac {
            return Ok(mac);
        }
        let peer_ip = conn.peer_ip;
        let mac = if self.lower.has_interface("arp") {
            resolve_or_broadcast(&self.lower, peer_ip)?
        } else {
            MAC_BROADCAST
        };
        if mac != MAC_BROADCAST {
            slot(&mut self.conns, id).peer_mac = Some(mac);
        }
        Ok(mac)
    }

    /// Builds and transmits one segment for connection `id` whose
    /// payload, if any, comes from outside the send buffer.
    fn emit(&mut self, id: i64, flags: u8, seq: u32, payload: &[u8]) -> Result<(), ObjError> {
        let dst_mac = self.dst_mac(id)?;
        let conn = slot(&mut self.conns, id);
        let hdr = conn.header(flags, seq);
        let frame = wire::build_tcp_frame(self.mac, dst_mac, self.ip, conn.peer_ip, &hdr, payload);
        self.transmit(frame, payload.len());
        Ok(())
    }

    /// Builds and transmits the data segment carrying `send_buf[range]`
    /// at `seq`. The frame is assembled straight from the ring's halves.
    fn emit_data(&mut self, id: i64, seq: u32, range: Range<usize>) -> Result<(), ObjError> {
        let dst_mac = self.dst_mac(id)?;
        let conn = slot(&mut self.conns, id);
        let hdr = conn.header(tcp_flags::ACK | tcp_flags::PSH, seq);
        let len = range.len();
        let frame = wire::build_tcp_frame_parts(
            self.mac,
            dst_mac,
            self.ip,
            conn.peer_ip,
            &hdr,
            &ring_range(&conn.send_buf, range),
        );
        self.transmit(frame, len);
        Ok(())
    }

    /// Counts, digests and queues a frame carrying `payload_len` bytes
    /// of stream data.
    fn transmit(&mut self, frame: Vec<u8>, payload_len: usize) {
        self.stats.segs_tx += 1;
        self.stats.bytes_tx += payload_len as u64;
        self.stats.fold(&frame);
        self.txq.push(Value::Bytes(frame.into()));
    }

    /// Hands the output queue down as one burst. A refused burst stays
    /// queued, trimmed to its newest `TX_QUEUE_MAX`, and goes out ahead
    /// of whatever the next pump emits.
    fn flush(&mut self) -> Result<(), ObjError> {
        let sent = burst::send_many(&self.lower, &mut self.txq);
        let over = self.txq.len().saturating_sub(TX_QUEUE_MAX);
        self.txq.drain(..over);
        self.stats.tx_dropped += over as u64;
        sent
    }

    /// Sends an RST in reply to a stray segment.
    fn emit_rst(&mut self, peer_mac: Mac, peer_ip: u32, hdr: &TcpHeader) {
        let rst = TcpHeader {
            src_port: hdr.dst_port,
            dst_port: hdr.src_port,
            seq: hdr.ack,
            ack: hdr.seq.wrapping_add(1),
            flags: tcp_flags::RST | tcp_flags::ACK,
            window: 0,
        };
        let frame = wire::build_tcp_frame(self.mac, peer_mac, self.ip, peer_ip, &rst, &[]);
        self.stats.rst_tx += 1;
        self.transmit(frame, 0);
    }

    fn arm_rtx(&mut self, id: i64, now: u64) {
        let conn = slot(&mut self.conns, id);
        conn.rtx_at = Some(now + conn.rto);
    }

    /// Puts `id` on the ready list: an event has changed something the
    /// next `pump` must look at.
    fn mark_ready(&mut self, id: i64) {
        let conn = slot(&mut self.conns, id);
        if !conn.queued {
            conn.queued = true;
            self.ready.push(id);
        }
    }

    /// Every transition to `Closed` ends here: the tuple leaves `demux`,
    /// so a later SYN on it opens a fresh connection and anything else
    /// draws an RST. The slab slot stays for `state`/`error`.
    fn closed(&mut self, id: i64) {
        let conn = slot(&mut self.conns, id);
        conn.state = State::Closed;
        self.demux.remove(&conn.tuple());
    }

    /// Kills connection `id` with a diagnostic reason. Idempotent: a
    /// connection that already died keeps its first cause.
    fn abort(&mut self, id: i64, reason: &'static str) {
        let conn = slot(&mut self.conns, id);
        if conn.state != State::Closed {
            conn.err = Some(reason);
            self.stats.aborted += 1;
            self.closed(id);
        }
    }

    /// Opens a connection in `state`: the next id (sequential, never
    /// reused) and its slab slot, the tuple bound in `demux`, and a
    /// first visit owed so its timers get indexed.
    fn open(&mut self, peer_ip: u32, peer_port: u16, local_port: u16, state: State) -> i64 {
        let id = self.conns.len() as i64;
        let conn = Conn::new(peer_ip, peer_port, local_port, isn(id), state);
        self.demux.insert(conn.tuple(), id);
        self.conns.push(Some(conn));
        self.mark_ready(id);
        id
    }

    /// Forgets connection `id` entirely (a handshake refused at a full
    /// backlog): slab slot, tuple and wake-up all go. A stale entry on
    /// the ready list is skipped by `pump`.
    fn drop_conn(&mut self, id: i64) {
        if let Some(conn) = self.conns[id as usize].take() {
            self.demux.remove(&conn.tuple());
            self.deadlines.set(id, None);
        }
    }

    /// Our FIN was acknowledged — advance the close handshake.
    fn on_fin_acked(&mut self, id: i64, now: u64) {
        let conn = slot(&mut self.conns, id);
        conn.fin_acked = true;
        match conn.state {
            State::FinWait1 => conn.state = State::FinWait2,
            State::Closing => {
                conn.state = State::TimeWait;
                conn.timewait_at = now + TIME_WAIT_CYCLES;
            }
            State::LastAck => self.closed(id),
            _ => {}
        }
    }

    /// The peer's FIN has been consumed in order — advance teardown.
    fn on_peer_fin(&mut self, id: i64, now: u64) {
        let conn = slot(&mut self.conns, id);
        conn.peer_fin_rcvd = true;
        match conn.state {
            State::SynRcvd | State::Established => conn.state = State::CloseWait,
            State::FinWait1 => {
                if conn.fin_acked {
                    conn.state = State::TimeWait;
                    conn.timewait_at = now + TIME_WAIT_CYCLES;
                } else {
                    conn.state = State::Closing;
                }
            }
            State::FinWait2 => {
                conn.state = State::TimeWait;
                conn.timewait_at = now + TIME_WAIT_CYCLES;
            }
            _ => {}
        }
    }

    /// Handles one parsed inbound segment addressed to connection `id`.
    fn segment_in(
        &mut self,
        id: i64,
        hdr: &TcpHeader,
        payload: &[u8],
        now: u64,
    ) -> Result<(), ObjError> {
        self.mark_ready(id);
        let conn = slot(&mut self.conns, id);
        conn.last_rx = now;
        conn.ka_probes = 0;
        if hdr.flags & tcp_flags::RST != 0 {
            // RFC 1337: an RST does not cut TIME-WAIT short. The peer's
            // side is closed by then and answers any late duplicate with
            // one, which must not turn a clean close into an error.
            if conn.state != State::TimeWait {
                self.abort(id, "reset");
            }
            return Ok(());
        }

        // Handshake states first.
        match conn.state {
            State::SynSent => {
                let syn_ack = tcp_flags::SYN | tcp_flags::ACK;
                if hdr.flags & syn_ack == syn_ack && hdr.ack == conn.iss.wrapping_add(1) {
                    conn.irs = hdr.seq;
                    conn.rcv_nxt = 0;
                    conn.peer_wnd_edge = u64::from(hdr.window);
                    conn.state = State::Established;
                    conn.ack_pending = true;
                    conn.rtx_at = None;
                    conn.rto = BASE_RTO;
                    conn.retries = 0;
                }
                // Anything else in SYN-SENT (e.g. a delayed duplicate) is
                // dropped; the SYN retransmit timer covers us.
                return Ok(());
            }
            State::SynRcvd => {
                if hdr.flags & tcp_flags::SYN != 0 {
                    // Duplicate SYN: re-ack it via the SYN-ACK timer.
                    return Ok(());
                }
                if hdr.flags & tcp_flags::ACK == 0 || hdr.ack != conn.iss.wrapping_add(1) {
                    return Ok(());
                }
                let port = conn.local_port;
                let peer_mac = conn.peer_mac.unwrap_or(MAC_BROADCAST);
                let peer_ip = conn.peer_ip;
                let lst = self.listeners.entry(port).or_default();
                if lst.backlog.len() >= lst.cap {
                    // Accept queue full: refuse the completed handshake
                    // with an RST so the peer fails fast instead of
                    // sitting established against a stalled acceptor.
                    self.stats.backlog_dropped += 1;
                    self.drop_conn(id);
                    self.emit_rst(peer_mac, peer_ip, hdr);
                    return Ok(());
                }
                lst.backlog.push_back(id);
                let conn = slot(&mut self.conns, id);
                conn.state = State::Established;
                conn.peer_wnd_edge = u64::from(hdr.window);
                conn.rtx_at = None;
                conn.rto = BASE_RTO;
                conn.retries = 0;
                // Fall through to process any piggybacked payload.
            }
            State::Closed => return Ok(()),
            _ => {}
        }

        let conn = slot(&mut self.conns, id);

        // A retransmitted SYN/SYN-ACK means our ACK was lost: re-ack.
        if hdr.flags & tcp_flags::SYN != 0 {
            conn.ack_pending = true;
        }

        // ACK processing: advance snd_una, free send buffer, reset RTO.
        let mut fin_acked_now = false;
        if hdr.flags & tcp_flags::ACK != 0 {
            if let Some(ack_off) = conn.ack_to_off(hdr.ack) {
                let limit = conn.snd_nxt;
                if ack_off > conn.snd_una && ack_off <= limit {
                    let data_acked =
                        (ack_off - conn.snd_una).min(conn.send_buf.len() as u64) as usize;
                    conn.send_buf.drain(..data_acked);
                    conn.snd_una = ack_off;
                    conn.rto = BASE_RTO;
                    conn.retries = 0;
                    // Forward progress restarts the user timeout.
                    conn.stalled_since = None;
                    if let Some(end) = conn.stream_end {
                        if conn.fin_sent && ack_off == end + 1 {
                            fin_acked_now = true;
                        }
                    }
                    conn.rtx_at = if conn.snd_una == conn.snd_nxt {
                        None
                    } else {
                        Some(now + conn.rto)
                    };
                }
                // Window update (right edge is monotonic).
                let edge = ack_off + u64::from(hdr.window);
                conn.peer_wnd_edge = conn.peer_wnd_edge.max(edge);
            }
        }

        // Payload processing: in-order append, out-of-order buffering,
        // duplicate trimming — all within our advertised window.
        if !payload.is_empty() {
            if let Some(off) = conn.seq_to_off(hdr.seq) {
                let limit = conn.rcv_nxt + (RECV_WND - conn.recv_buf.len()) as u64;
                let end = (off + payload.len() as u64).min(limit);
                if end > conn.rcv_nxt && off < limit {
                    if off <= conn.rcv_nxt {
                        // Overlaps the expected offset: take the new part.
                        let skip = (conn.rcv_nxt - off) as usize;
                        let take = (end - conn.rcv_nxt) as usize;
                        conn.recv_buf.extend(&payload[skip..skip + take]);
                        conn.rcv_nxt = end;
                        // Drain any out-of-order data that now fits.
                        while let Some((&o, _)) = conn.ooo.iter().next() {
                            if o > conn.rcv_nxt {
                                break;
                            }
                            let (o, seg) = conn.ooo.pop_first().expect("checked");
                            let seg_end = o + seg.len() as u64;
                            if seg_end > conn.rcv_nxt {
                                let skip = (conn.rcv_nxt - o) as usize;
                                conn.recv_buf.extend(&seg[skip..]);
                                conn.rcv_nxt = seg_end;
                            }
                        }
                    } else {
                        let take = (end - off) as usize;
                        conn.ooo
                            .entry(off)
                            .or_insert_with(|| payload[..take].to_vec());
                    }
                }
            }
            // Data (new, duplicate or out of order) always provokes an ACK.
            conn.ack_pending = true;
            self.stats.bytes_rx += payload.len() as u64;
        }

        // FIN processing: the FIN occupies the offset right after the
        // segment's payload and is consumed only once in order.
        let mut peer_fin_now = false;
        if hdr.flags & tcp_flags::FIN != 0 {
            if let Some(off) = conn.seq_to_off(hdr.seq) {
                conn.peer_fin = Some(off + payload.len() as u64);
            }
        }
        if let Some(fin_off) = conn.peer_fin {
            if !conn.peer_fin_rcvd && conn.rcv_nxt == fin_off {
                conn.rcv_nxt = fin_off + 1;
                conn.ack_pending = true;
                peer_fin_now = true;
            } else if conn.peer_fin_rcvd && hdr.flags & tcp_flags::FIN != 0 {
                // Retransmitted FIN: our final ACK was lost — re-ack.
                conn.ack_pending = true;
            }
        }

        if fin_acked_now {
            self.on_fin_acked(id, now);
        }
        if peer_fin_now {
            self.on_peer_fin(id, now);
        }
        Ok(())
    }

    /// One inbound frame: filtered, demultiplexed, or counted malformed.
    fn frame_in(&mut self, frame: bytes::Bytes, now: u64) -> Result<(), ObjError> {
        if let Some(f) = &self.filter {
            let ok = f
                .invoke("filter", "check", &[Value::Bytes(frame.clone())])?
                .as_bool()?;
            if !ok {
                self.stats.filtered += 1;
                return Ok(());
            }
        }
        let (ip, hdr, payload) = match wire::parse_tcp_frame(&frame) {
            Ok(parsed) if parsed.0.dst == self.ip => parsed,
            _ => {
                self.stats.malformed += 1;
                return Ok(());
            }
        };
        self.stats.segs_rx += 1;
        self.stats.fold(&frame);
        let key = (ip.src, hdr.src_port, hdr.dst_port);
        if let Some(&id) = self.demux.get(&key) {
            return self.segment_in(id, &hdr, payload, now);
        }
        // No connection: a SYN to a listening port opens one.
        if hdr.flags & tcp_flags::SYN != 0
            && hdr.flags & tcp_flags::ACK == 0
            && self.listeners.contains_key(&hdr.dst_port)
        {
            let id = self.open(ip.src, hdr.src_port, hdr.dst_port, State::SynRcvd);
            let conn = slot(&mut self.conns, id);
            conn.irs = hdr.seq;
            conn.peer_wnd_edge = u64::from(hdr.window);
            let src_mac: Mac = frame[6..12].try_into().expect("6 bytes");
            conn.peer_mac = Some(src_mac);
            // SYN-ACK, covered by the retransmit timer.
            let seq = isn(id);
            self.emit(id, tcp_flags::SYN | tcp_flags::ACK, seq, &[])?;
            self.arm_rtx(id, now);
            return Ok(());
        }
        if hdr.flags & tcp_flags::RST == 0 {
            let src_mac: Mac = frame[6..12].try_into().expect("6 bytes");
            self.emit_rst(src_mac, ip.src, &hdr);
        }
        Ok(())
    }

    /// Retransmission / TIME-WAIT / user-timeout / keepalive timer pass
    /// for one connection.
    fn pump_timer(&mut self, id: i64, now: u64) -> Result<(), ObjError> {
        let conn = slot(&mut self.conns, id);
        if conn.state == State::TimeWait && now >= conn.timewait_at {
            self.closed(id);
            return Ok(());
        }
        if conn.state == State::Closed {
            return Ok(());
        }
        // User timeout (RFC 5482): the timer runs only while data is
        // continuously unacknowledged, so an idle-but-healthy
        // connection is never at risk.
        if conn.user_timeout > 0 && conn.snd_una < conn.snd_nxt {
            let since = *conn.stalled_since.get_or_insert(now);
            if now.saturating_sub(since) >= conn.user_timeout {
                self.abort(id, "user-timeout");
                return Ok(());
            }
        } else {
            conn.stalled_since = None;
        }
        // Keepalive: probe an idle established connection; too many
        // unanswered probes abort it into a clean error state. The
        // probe carries one byte just below `snd_una`, which the peer
        // discards as a duplicate but must acknowledge.
        if conn.keepalive > 0 && conn.state == State::Established && conn.snd_una == conn.snd_nxt {
            let due = conn.last_rx.max(conn.ka_sent_at) + conn.keepalive;
            if now >= due {
                if conn.ka_probes >= KEEPALIVE_PROBES {
                    self.abort(id, "keepalive-timeout");
                    return Ok(());
                }
                conn.ka_probes += 1;
                conn.ka_sent_at = now;
                let seq = conn.wire_seq(conn.snd_una).wrapping_sub(1);
                self.emit(id, tcp_flags::ACK, seq, &[0])?;
            }
        }
        let conn = slot(&mut self.conns, id);
        let Some(due) = conn.rtx_at else {
            return Ok(());
        };
        if now < due {
            return Ok(());
        }
        conn.retries += 1;
        if conn.retries > MAX_RETRIES {
            self.abort(id, "retries-exhausted");
            return Ok(());
        }
        conn.rto = (conn.rto * 2).min(MAX_RTO);
        conn.rtx_at = Some(now + conn.rto);
        self.stats.retransmits += 1;
        let state = conn.state;
        match state {
            State::SynSent => {
                let seq = conn.iss;
                self.emit(id, tcp_flags::SYN, seq, &[])?;
            }
            State::SynRcvd => {
                let seq = conn.iss;
                self.emit(id, tcp_flags::SYN | tcp_flags::ACK, seq, &[])?;
            }
            _ => {
                // Resend from snd_una: one MSS of data, or the FIN.
                let unacked =
                    (conn.snd_nxt - conn.snd_una).min(conn.send_buf.len() as u64) as usize;
                let take = if unacked > 0 {
                    unacked.min(TCP_MSS)
                } else if conn.fin_sent && !conn.fin_acked {
                    let end = conn.stream_end.expect("fin implies stream end");
                    let seq = conn.wire_seq(end);
                    return self.emit(id, tcp_flags::FIN | tcp_flags::ACK, seq, &[]);
                } else if conn.send_buf.is_empty() {
                    conn.rtx_at = None;
                    return Ok(());
                } else {
                    // Zero-window probe: nothing in flight but data is
                    // queued — push one byte past the edge.
                    conn.snd_nxt = conn.snd_nxt.max(conn.snd_una + 1);
                    1
                };
                let seq = conn.wire_seq(conn.snd_una);
                self.emit_data(id, seq, 0..take)?;
            }
        }
        Ok(())
    }

    /// Output pass: new data within the peer's window, the FIN once the
    /// stream is drained, else a pure ACK if one is owed.
    fn pump_tx(&mut self, id: i64, now: u64) -> Result<i64, ObjError> {
        let mut sent = 0i64;
        loop {
            let conn = slot(&mut self.conns, id);
            if matches!(conn.state, State::Closed | State::SynSent | State::SynRcvd) {
                break;
            }
            if conn.state == State::TimeWait {
                // Only re-acks (e.g. for a retransmitted FIN) leave here.
                if conn.ack_pending {
                    let seq = conn.wire_seq(conn.snd_nxt);
                    self.emit(id, tcp_flags::ACK, seq, &[])?;
                    sent += 1;
                }
                break;
            }
            let data_end = conn.snd_una + conn.send_buf.len() as u64;
            let usable = conn.peer_wnd_edge.saturating_sub(conn.snd_nxt);
            if conn.snd_nxt < data_end && usable > 0 && !conn.fin_sent {
                let start = (conn.snd_nxt - conn.snd_una) as usize;
                let take = ((data_end - conn.snd_nxt).min(usable) as usize).min(TCP_MSS);
                let seq = conn.wire_seq(conn.snd_nxt);
                conn.snd_nxt += take as u64;
                self.emit_data(id, seq, start..start + take)?;
                self.arm_rtx(id, now);
                sent += 1;
                continue;
            }
            if let Some(end) = conn.stream_end {
                if !conn.fin_sent && conn.snd_nxt == end {
                    conn.fin_sent = true;
                    conn.snd_nxt = end + 1;
                    match conn.state {
                        State::Established => conn.state = State::FinWait1,
                        State::CloseWait => conn.state = State::LastAck,
                        _ => {}
                    }
                    let seq = conn.wire_seq(end);
                    self.emit(id, tcp_flags::FIN | tcp_flags::ACK, seq, &[])?;
                    self.arm_rtx(id, now);
                    sent += 1;
                    continue;
                }
            }
            // Queued data but a closed window and nothing in flight:
            // arm the probe timer so we learn when it reopens.
            if conn.snd_nxt == conn.snd_una && !conn.send_buf.is_empty() && conn.rtx_at.is_none() {
                conn.rtx_at = Some(now + conn.rto);
            }
            if conn.ack_pending {
                let seq = conn.wire_seq(conn.snd_nxt);
                self.emit(id, tcp_flags::ACK, seq, &[])?;
                sent += 1;
            }
            break;
        }
        Ok(sent)
    }

    /// One visit: timer pass, output pass, then re-index the
    /// connection's next wake-up, which either pass may have moved.
    fn service(&mut self, id: i64, now: u64) -> Result<i64, ObjError> {
        self.pump_timer(id, now)?;
        let sent = self.pump_tx(id, now)?;
        self.stats.serviced += 1;
        let conn = slot(&mut self.conns, id);
        conn.queued = conn.stall_unlatched();
        if conn.queued {
            self.ready.push(id);
        }
        self.deadlines.set(id, conn.next_deadline());
        Ok(sent)
    }

    fn pump(&mut self) -> Result<i64, ObjError> {
        let now = self.now();
        // Drain the lower netdev, a burst at a time.
        let mut handled = 0i64;
        self.rx.begin();
        while let Some(frame) = self.rx.next(&self.lower, usize::MAX)? {
            handled += 1;
            self.frame_in(frame, now)?;
        }
        #[cfg(test)]
        {
            if self.scan_all {
                for id in 1..self.conns.len() as i64 {
                    if self.conns[id as usize].is_some() {
                        self.mark_ready(id);
                    }
                }
            }
        }
        while let Some((at, id)) = self.deadlines.first() {
            if at > now {
                break;
            }
            self.deadlines.set(id, None);
            self.mark_ready(id);
        }
        // Everyone else would have been a no-op: nothing has touched
        // them and no timer of theirs has run out. Ascending id order is
        // part of the endpoint's contract — replay tests compare segment
        // traces bit for bit. A visit may put its own connection back on
        // the list, behind this pump's batch, for the next pump.
        let batch = self.ready.len();
        self.ready[..batch].sort_unstable();
        let mut done = 0;
        let result = loop {
            if done == batch {
                break Ok(handled);
            }
            let id = self.ready[done];
            if self.conns[id as usize].is_some() {
                match self.service(id, now) {
                    Ok(sent) => handled += sent,
                    Err(e) => break Err(e),
                }
            }
            done += 1;
        };
        // A visit that failed, and those behind it, stay ready.
        self.ready.drain(..done);
        result
    }

    fn conn_mut(&mut self, id: i64) -> Result<&mut Conn, ObjError> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.conns.get_mut(i))
            .and_then(Option::as_mut)
            .ok_or_else(|| ObjError::failed(format!("no such connection {id}")))
    }

    /// `conn_mut` for the API calls that are events: `id` goes on the
    /// ready list, so the next `pump` acts on what the caller changes.
    fn conn_event(&mut self, id: i64) -> Result<&mut Conn, ObjError> {
        self.conn_mut(id)?;
        self.mark_ready(id);
        Ok(slot(&mut self.conns, id))
    }

    /// The next ephemeral port whose tuple towards `(ip, port)` is not
    /// held by a live connection.
    fn ephemeral_port(&mut self, ip: u32, port: u16) -> Result<u16, ObjError> {
        for _ in EPHEMERAL_BASE..=u16::MAX {
            let local = self.next_port;
            self.next_port = local.wrapping_add(1).max(EPHEMERAL_BASE);
            if !self.demux.contains_key(&(ip, port, local)) {
                return Ok(local);
            }
        }
        Err(ObjError::failed("no free ephemeral port"))
    }
}

/// Builds a TCP endpoint object over `lower` (any `netdev`), owning IP
/// address `ip` and hardware address `mac`. If `lower` also exports the
/// `arp` interface, destination MACs are resolved through it; otherwise
/// segments go out link-broadcast.
pub fn make_tcp(machine: Arc<Mutex<Machine>>, lower: ObjRef, ip: u32, mac: Mac) -> ObjRef {
    ObjectBuilder::new("tcp")
        .state(TcpState {
            machine,
            lower,
            ip,
            mac,
            filter: None,
            rx: Drain::default(),
            txq: Vec::new(),
            // Ids start at 1; slot 0 is never occupied.
            conns: vec![None],
            ready: Vec::new(),
            deadlines: Deadlines::default(),
            #[cfg(test)]
            scan_all: false,
            demux: HashMap::new(),
            listeners: HashMap::new(),
            next_port: EPHEMERAL_BASE,
            stats: TcpStats::default(),
        })
        .interface("tcp", |i| {
            i.method("listen", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let port = args[0].as_int()?;
                let port =
                    u16::try_from(port).map_err(|_| ObjError::failed("port out of range"))?;
                this.with_state(|s: &mut TcpState| {
                    s.listeners.entry(port).or_default();
                    Ok(Value::Unit)
                })
            })
            .method(
                "connect",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Int,
                |this, args| {
                    let dst_ip = args[0].as_int()? as u32;
                    let dst_port = u16::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("port out of range"))?;
                    this.with_state(|s: &mut TcpState| {
                        let local_port = s.ephemeral_port(dst_ip, dst_port)?;
                        let id = s.open(dst_ip, dst_port, local_port, State::SynSent);
                        let now = s.now();
                        let seq = isn(id);
                        s.emit(id, tcp_flags::SYN, seq, &[])?;
                        s.arm_rtx(id, now);
                        // A SYN the lower refuses stays queued for the
                        // next pump to hand down, or to report: the
                        // connection exists either way, so the caller
                        // gets its id.
                        let _ = s.flush();
                        Ok(Value::Int(id))
                    })
                },
            )
            .method("accept", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let port = u16::try_from(args[0].as_int()?)
                    .map_err(|_| ObjError::failed("port out of range"))?;
                this.with_state(|s: &mut TcpState| {
                    let id = s
                        .listeners
                        .get_mut(&port)
                        .and_then(|l| l.backlog.pop_front())
                        .unwrap_or(-1);
                    Ok(Value::Int(id))
                })
            })
            .method(
                "send",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Int,
                |this, args| {
                    let id = args[0].as_int()?;
                    let data = args[1].as_bytes()?.clone();
                    this.with_state(|s: &mut TcpState| {
                        let conn = s.conn_event(id)?;
                        if conn.stream_end.is_some()
                            || !matches!(
                                conn.state,
                                State::SynSent
                                    | State::SynRcvd
                                    | State::Established
                                    | State::CloseWait
                            )
                        {
                            return Err(ObjError::failed("connection not writable"));
                        }
                        let room = SEND_BUF_MAX - conn.send_buf.len();
                        let take = room.min(data.len());
                        conn.send_buf.extend(&data[..take]);
                        Ok(Value::Int(take as i64))
                    })
                },
            )
            .method(
                "recv",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Bytes,
                |this, args| {
                    let id = args[0].as_int()?;
                    let max = usize::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("max must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        let conn = s.conn_mut(id)?;
                        let take = conn.recv_buf.len().min(max);
                        let out = ring_range(&conn.recv_buf, 0..take).concat();
                        conn.recv_buf.drain(..take);
                        if take > 0 {
                            // Freed window: owe the peer an update.
                            conn.ack_pending = true;
                            s.mark_ready(id);
                        }
                        Ok(Value::Bytes(bytes::Bytes::from(out)))
                    })
                },
            )
            .method("close", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let id = args[0].as_int()?;
                this.with_state(|s: &mut TcpState| {
                    let conn = s.conn_event(id)?;
                    if conn.stream_end.is_none() {
                        conn.stream_end = Some(conn.snd_una + conn.send_buf.len() as u64);
                    }
                    Ok(Value::Unit)
                })
            })
            .method("state", &[TypeTag::Int], TypeTag::Str, |this, args| {
                let id = args[0].as_int()?;
                this.with_state(|s: &mut TcpState| {
                    Ok(Value::Str(s.conn_mut(id)?.state.name().into()))
                })
            })
            .method("error", &[TypeTag::Int], TypeTag::Str, |this, args| {
                let id = args[0].as_int()?;
                this.with_state(|s: &mut TcpState| {
                    Ok(Value::Str(s.conn_mut(id)?.err.unwrap_or("").into()))
                })
            })
            .method(
                "set_user_timeout",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let id = args[0].as_int()?;
                    let cycles = u64::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("timeout must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        let conn = s.conn_event(id)?;
                        conn.user_timeout = cycles;
                        conn.stalled_since = None;
                        Ok(Value::Unit)
                    })
                },
            )
            .method(
                "set_keepalive",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let id = args[0].as_int()?;
                    let interval = u64::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("interval must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        let now = s.now();
                        let conn = s.conn_event(id)?;
                        conn.keepalive = interval;
                        conn.ka_probes = 0;
                        // Start the idle clock here, not at connection
                        // birth, so the first probe is one full
                        // interval out.
                        conn.last_rx = conn.last_rx.max(now);
                        Ok(Value::Unit)
                    })
                },
            )
            .method(
                "set_backlog",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let port = u16::try_from(args[0].as_int()?)
                        .map_err(|_| ObjError::failed("port out of range"))?;
                    let cap = usize::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("backlog must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        s.listeners.entry(port).or_default().cap = cap;
                        Ok(Value::Unit)
                    })
                },
            )
            .method("pump", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut TcpState| {
                    // Whatever was emitted leaves, also past a failed visit.
                    let handled = s.pump();
                    let flushed = s.flush();
                    Ok(Value::Int(handled.and_then(|n| flushed.map(|()| n))?))
                })
            })
            .method(
                "set_filter",
                &[TypeTag::Handle],
                TypeTag::Unit,
                |this, args| {
                    let f = args[0].as_handle()?.clone();
                    this.with_state(|s: &mut TcpState| {
                        s.filter = Some(f.clone());
                        Ok(Value::Unit)
                    })
                },
            )
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut TcpState| {
                    let st = &s.stats;
                    Ok(Value::List(vec![
                        Value::Int(st.segs_tx as i64),
                        Value::Int(st.segs_rx as i64),
                        Value::Int(st.bytes_tx as i64),
                        Value::Int(st.bytes_rx as i64),
                        Value::Int(st.retransmits as i64),
                        Value::Int(st.malformed as i64),
                        Value::Int(st.filtered as i64),
                        Value::Int(st.rst_tx as i64),
                        Value::Int(st.aborted as i64),
                        Value::Int(st.digest as i64),
                        Value::Int(st.backlog_dropped as i64),
                        Value::Int(st.serviced as i64),
                        Value::Int(st.tx_dropped as i64),
                    ]))
                })
            })
        })
        .build()
}

/// Position of the digest in the `stats` list (for tests).
pub const STAT_DIGEST: usize = 9;
/// Position of the malformed counter in the `stats` list.
pub const STAT_MALFORMED: usize = 5;
/// Position of the retransmit counter in the `stats` list.
pub const STAT_RETRANSMITS: usize = 4;
/// Position of the aborted-connections counter in the `stats` list.
pub const STAT_ABORTED: usize = 8;
/// Position of the backlog-overflow counter in the `stats` list.
pub const STAT_BACKLOG_DROPPED: usize = 10;
/// Position of the connection-visits counter (`conns_serviced`) in the
/// `stats` list: how many timer + output passes `pump` has run.
pub const STAT_SERVICED: usize = 11;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::fakes::{fuse, Blown};
    use crate::simlink::{make_simlink, LinkConfig};
    use proptest::prelude::*;
    use std::sync::atomic::Ordering;

    const IP_A: u32 = 0x0A00_0001;
    const IP_B: u32 = 0x0A00_0002;
    const MAC_A: Mac = [2, 0, 0, 0, 0, 0xAA];
    const MAC_B: Mac = [2, 0, 0, 0, 0, 0xBB];

    fn pair(cfg: LinkConfig) -> (Arc<Mutex<Machine>>, ObjRef, ObjRef) {
        let (machine, a, b, _, _) = pair_with_link(cfg);
        (machine, a, b)
    }

    /// Like `pair`, but also returns the raw link endpoints so tests
    /// can partition / heal directions at runtime via `set_config`.
    fn pair_with_link(cfg: LinkConfig) -> (Arc<Mutex<Machine>>, ObjRef, ObjRef, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (end_a, end_b) = make_simlink(machine.clone(), cfg);
        let a = make_tcp(machine.clone(), end_a.clone(), IP_A, MAC_A);
        let b = make_tcp(machine.clone(), end_b.clone(), IP_B, MAC_B);
        (machine, a, b, end_a, end_b)
    }

    /// Sets the drop rate of `end`'s transmit direction, leaving the
    /// other knobs as configured.
    fn set_drop(end: &ObjRef, permille: i64) {
        let knobs = end.invoke("link", "config", &[]).unwrap();
        let mut knobs = knobs.as_list().unwrap().to_vec();
        knobs[0] = Value::Int(permille);
        end.invoke("link", "set_config", &[Value::List(knobs)])
            .unwrap();
    }

    fn establish(machine: &Arc<Mutex<Machine>>, a: &ObjRef, b: &ObjRef, port: i64) -> (i64, i64) {
        b.invoke("tcp", "listen", &[Value::Int(port)]).unwrap();
        let id_a = a
            .invoke(
                "tcp",
                "connect",
                &[Value::Int(IP_B as i64), Value::Int(port)],
            )
            .unwrap()
            .as_int()
            .unwrap();
        pump_net(machine, &[a, b], 4);
        let id_b = b
            .invoke("tcp", "accept", &[Value::Int(port)])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(id_b >= 0, "handshake completes");
        (id_a, id_b)
    }

    fn conn_state(ep: &ObjRef, id: i64) -> String {
        ep.invoke("tcp", "state", &[Value::Int(id)])
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    fn conn_error(ep: &ObjRef, id: i64) -> String {
        ep.invoke("tcp", "error", &[Value::Int(id)])
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    fn pump_net(machine: &Arc<Mutex<Machine>>, eps: &[&ObjRef], rounds: usize) {
        for _ in 0..rounds {
            for ep in eps {
                ep.invoke("tcp", "pump", &[]).unwrap();
            }
            machine.lock().tick(BASE_RTO / 4);
        }
    }

    fn tcp_stats(ep: &ObjRef) -> Vec<i64> {
        ep.invoke("tcp", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn handshake_data_exchange_and_teardown() {
        let (machine, a, b) = pair(LinkConfig::perfect(7));
        b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
        let id_a = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        pump_net(&machine, &[&a, &b], 4);
        let id_b = b
            .invoke("tcp", "accept", &[Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(id_b >= 0, "handshake completes");
        assert_eq!(
            a.invoke("tcp", "state", &[Value::Int(id_a)]).unwrap(),
            Value::Str("established".into())
        );

        // A large message: forces segmentation (> MSS).
        let msg: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
        let accepted = a
            .invoke(
                "tcp",
                "send",
                &[
                    Value::Int(id_a),
                    Value::Bytes(bytes::Bytes::from(msg.clone())),
                ],
            )
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(accepted, msg.len() as i64);
        pump_net(&machine, &[&a, &b], 8);
        let got = b
            .invoke("tcp", "recv", &[Value::Int(id_b), Value::Int(1 << 20)])
            .unwrap();
        assert_eq!(got.as_bytes().unwrap().to_vec(), msg);

        // Full close in both directions.
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        b.invoke("tcp", "close", &[Value::Int(id_b)]).unwrap();
        pump_net(&machine, &[&a, &b], 12);
        machine.lock().tick(TIME_WAIT_CYCLES + 1);
        pump_net(&machine, &[&a, &b], 2);
        let sa = a.invoke("tcp", "state", &[Value::Int(id_a)]).unwrap();
        let sb = b.invoke("tcp", "state", &[Value::Int(id_b)]).unwrap();
        assert_eq!(sa, Value::Str("closed".into()));
        assert_eq!(sb, Value::Str("closed".into()));
    }

    #[test]
    fn data_survives_a_lossy_link_via_retransmission() {
        let mut cfg = LinkConfig::perfect(21);
        cfg.drop_permille = 250;
        cfg.dup_permille = 100;
        cfg.reorder_permille = 100;
        let (machine, a, b) = pair(cfg);
        b.invoke("tcp", "listen", &[Value::Int(9)]).unwrap();
        let id_a = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(9)])
            .unwrap()
            .as_int()
            .unwrap();
        let msg: Vec<u8> = (0..8000u32).map(|i| (i * 7 % 256) as u8).collect();
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(msg.clone())),
            ],
        )
        .unwrap();
        let mut got = Vec::new();
        let mut id_b = -1;
        for _ in 0..400 {
            pump_net(&machine, &[&a, &b], 1);
            if id_b < 0 {
                id_b = b
                    .invoke("tcp", "accept", &[Value::Int(9)])
                    .unwrap()
                    .as_int()
                    .unwrap();
            }
            if id_b >= 0 {
                let chunk = b
                    .invoke("tcp", "recv", &[Value::Int(id_b), Value::Int(4096)])
                    .unwrap();
                got.extend_from_slice(chunk.as_bytes().unwrap());
                if got.len() == msg.len() {
                    break;
                }
            }
        }
        assert_eq!(got, msg, "stream is exact despite loss/dup/reorder");
        assert!(
            tcp_stats(&a)[STAT_RETRANSMITS] > 0,
            "loss actually exercised the retransmit path"
        );
    }

    #[test]
    fn same_seed_yields_identical_digest() {
        let run = |seed: u64| -> (Vec<i64>, Vec<i64>) {
            let mut cfg = LinkConfig::perfect(seed);
            cfg.drop_permille = 120;
            cfg.reorder_permille = 80;
            let (machine, a, b) = pair(cfg);
            b.invoke("tcp", "listen", &[Value::Int(5)]).unwrap();
            let id = a
                .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(5)])
                .unwrap()
                .as_int()
                .unwrap();
            let msg = vec![0x5A; 4000];
            a.invoke(
                "tcp",
                "send",
                &[Value::Int(id), Value::Bytes(bytes::Bytes::from(msg))],
            )
            .unwrap();
            pump_net(&machine, &[&a, &b], 40);
            (tcp_stats(&a), tcp_stats(&b))
        };
        assert_eq!(run(99), run(99), "replay is bit-identical");
        assert_ne!(
            run(99).0[STAT_DIGEST],
            run(100).0[STAT_DIGEST],
            "different seed takes a different trace"
        );
    }

    #[test]
    fn corrupted_segments_count_malformed_and_never_deliver() {
        let mut cfg = LinkConfig::perfect(33);
        cfg.corrupt_permille = 200;
        let (machine, a, b) = pair(cfg);
        b.invoke("tcp", "listen", &[Value::Int(5)]).unwrap();
        let id_a = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(5)])
            .unwrap()
            .as_int()
            .unwrap();
        let msg: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(msg.clone())),
            ],
        )
        .unwrap();
        let mut got = Vec::new();
        let mut id_b = -1;
        for _ in 0..400 {
            pump_net(&machine, &[&a, &b], 1);
            if id_b < 0 {
                id_b = b
                    .invoke("tcp", "accept", &[Value::Int(5)])
                    .unwrap()
                    .as_int()
                    .unwrap();
            }
            if id_b >= 0 {
                let chunk = b
                    .invoke("tcp", "recv", &[Value::Int(id_b), Value::Int(4096)])
                    .unwrap();
                got.extend_from_slice(chunk.as_bytes().unwrap());
                if got.len() == msg.len() {
                    break;
                }
            }
        }
        assert_eq!(got, msg, "corruption never corrupts the stream");
        let malformed: i64 = tcp_stats(&a)[STAT_MALFORMED] + tcp_stats(&b)[STAT_MALFORMED];
        assert!(
            malformed > 0,
            "corrupted frames were counted, not delivered"
        );
    }

    #[test]
    fn listen_backlog_overflow_draws_rst_and_counts() {
        let (machine, a, b) = pair(LinkConfig::perfect(11));
        b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
        b.invoke("tcp", "set_backlog", &[Value::Int(80), Value::Int(2)])
            .unwrap();
        let ids: Vec<i64> = (0..4)
            .map(|_| {
                a.invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(80)])
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(
            tcp_stats(&b)[STAT_BACKLOG_DROPPED],
            2,
            "completions past the cap were shed"
        );
        let reset: Vec<i64> = ids
            .iter()
            .copied()
            .filter(|&id| conn_state(&a, id) == "closed")
            .collect();
        assert_eq!(reset.len(), 2, "exactly the overflow was refused");
        for id in reset {
            assert_eq!(conn_error(&a, id), "reset", "refusal is a clean error");
        }
        for _ in 0..2 {
            let id = b
                .invoke("tcp", "accept", &[Value::Int(80)])
                .unwrap()
                .as_int()
                .unwrap();
            assert!(id >= 0, "queued connections still accept");
        }
        assert_eq!(
            b.invoke("tcp", "accept", &[Value::Int(80)])
                .unwrap()
                .as_int()
                .unwrap(),
            -1,
            "nothing beyond the cap was queued"
        );
    }

    #[test]
    fn user_timeout_aborts_a_partitioned_connection_cleanly() {
        let (machine, a, b, end_a, _end_b) = pair_with_link(LinkConfig::perfect(17));
        let (id_a, _id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(id_a), Value::Int(1_000_000)],
        )
        .unwrap();
        // Partition the A->B direction mid-stream: B never acks again.
        set_drop(&end_a, 1000);
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(vec![7u8; 2000])),
            ],
        )
        .unwrap();
        for _ in 0..40 {
            pump_net(&machine, &[&a, &b], 1);
            if conn_state(&a, id_a) == "closed" {
                break;
            }
        }
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        assert!(
            tcp_stats(&a)[STAT_RETRANSMITS] > 0,
            "the stall was a real retransmit stall, not instant death"
        );
        // Further pumps must not re-abort, and healing the link must
        // not resurrect the dead connection.
        set_drop(&end_a, 0);
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
    }

    #[test]
    fn keepalive_probes_detect_a_dead_peer_but_spare_a_live_one() {
        let (machine, a, b, end_a, end_b) = pair_with_link(LinkConfig::perfect(23));
        let (id_a, _id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_keepalive",
            &[Value::Int(id_a), Value::Int(300_000)],
        )
        .unwrap();
        // Live peer: probes are answered, the idle connection survives
        // far past several keepalive intervals.
        pump_net(&machine, &[&a, &b], 30);
        assert_eq!(conn_state(&a, id_a), "established");
        // Dead peer: full partition. Probes go unanswered and the
        // connection aborts into a clean error state.
        set_drop(&end_a, 1000);
        set_drop(&end_b, 1000);
        for _ in 0..60 {
            pump_net(&machine, &[&a, &b], 1);
            if conn_state(&a, id_a) == "closed" {
                break;
            }
        }
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "keepalive-timeout");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
    }

    #[test]
    fn user_timeout_during_teardown_does_not_double_free_the_conn() {
        let (machine, a, b, end_a, _end_b) = pair_with_link(LinkConfig::perfect(29));
        let (id_a, _id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(id_a), Value::Int(800_000)],
        )
        .unwrap();
        // Partition, then close with data still queued: the connection
        // walks into FIN-WAIT-1 retransmitting against a dead link.
        set_drop(&end_a, 1000);
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(vec![9u8; 1500])),
            ],
        )
        .unwrap();
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        for _ in 0..40 {
            pump_net(&machine, &[&a, &b], 1);
            if conn_state(&a, id_a) == "closed" {
                break;
            }
        }
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        // The id stays valid — state/error remain callable and extra
        // timer passes neither re-abort nor panic.
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        assert_eq!(conn_state(&a, id_a), "closed");
        // Healing the link does not resurrect the dead connection.
        set_drop(&end_a, 0);
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
    }

    #[test]
    fn user_timeout_never_fires_in_time_wait() {
        let (machine, a, b) = pair(LinkConfig::perfect(31));
        let (id_a, id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(id_a), Value::Int(150_000)],
        )
        .unwrap();
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        b.invoke("tcp", "close", &[Value::Int(id_b)]).unwrap();
        pump_net(&machine, &[&a, &b], 8);
        assert_eq!(conn_state(&a, id_a), "time-wait");
        // Sit in TIME-WAIT for several user-timeout periods: with no
        // data outstanding the timer must never fire.
        pump_net(&machine, &[&a, &b], 10);
        assert_eq!(conn_state(&a, id_a), "time-wait");
        assert_eq!(conn_error(&a, id_a), "");
        machine.lock().tick(TIME_WAIT_CYCLES + 1);
        pump_net(&machine, &[&a, &b], 2);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(
            conn_error(&a, id_a),
            "",
            "expiry is a clean close, not an abort"
        );
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 0);
    }

    #[test]
    fn stray_segment_draws_rst() {
        let (machine, a, b) = pair(LinkConfig::perfect(3));
        // No listener on B: A's SYN must be refused.
        let id = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(7)])
            .unwrap()
            .as_int()
            .unwrap();
        pump_net(&machine, &[&a, &b], 4);
        assert_eq!(
            a.invoke("tcp", "state", &[Value::Int(id)]).unwrap(),
            Value::Str("closed".into())
        );
        assert!(tcp_stats(&b)[7] > 0, "B sent an RST");
    }

    fn connect(ep: &ObjRef, port: i64) -> Result<i64, ObjError> {
        ep.invoke(
            "tcp",
            "connect",
            &[Value::Int(IP_B as i64), Value::Int(port)],
        )?
        .as_int()
    }

    fn send(ep: &ObjRef, id: i64, data: Vec<u8>) {
        ep.invoke(
            "tcp",
            "send",
            &[Value::Int(id), Value::Bytes(bytes::Bytes::from(data))],
        )
        .unwrap();
    }

    /// A bare ACK from A's side of tuple `(IP_A, src_port) -> (IP_B,
    /// dst_port)`, put on the wire at A's end of the link.
    fn inject_stray_ack(end_a: &ObjRef, src_port: u16, dst_port: u16) {
        let hdr = TcpHeader {
            src_port,
            dst_port,
            seq: 1,
            ack: 1,
            flags: tcp_flags::ACK,
            window: 0,
        };
        let frame = wire::build_tcp_frame(MAC_A, MAC_B, IP_A, IP_B, &hdr, &[]);
        end_a
            .invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
            .unwrap();
    }

    #[test]
    fn closed_tuple_answers_strays_with_rst_and_is_free_for_reuse() {
        let (machine, a, b, end_a, _end_b) = pair_with_link(LinkConfig::perfect(41));
        let (id_a, id_b) = establish(&machine, &a, &b, 80);
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        pump_net(&machine, &[&a, &b], 2);
        b.invoke("tcp", "close", &[Value::Int(id_b)]).unwrap();
        pump_net(&machine, &[&a, &b], 3);
        assert_eq!(conn_state(&a, id_a), "time-wait");
        assert_eq!(conn_state(&b, id_b), "closed");

        // B's side of the tuple is dead: a stray non-SYN on it is
        // refused with an RST, not swallowed by the closed connection.
        let rst_before = tcp_stats(&b)[7];
        inject_stray_ack(&end_a, EPHEMERAL_BASE, 80);
        pump_net(&machine, &[&b], 2);
        assert_eq!(tcp_stats(&b)[7], rst_before + 1, "B refused the stray");
        // ...and that RST does not turn A's clean close into an error.
        let heard = tcp_stats(&a)[1];
        pump_net(&machine, &[&a], 2);
        assert_eq!(tcp_stats(&a)[1], heard + 1, "the RST reached A");
        assert_eq!(conn_state(&a, id_a), "time-wait");
        machine.lock().tick(TIME_WAIT_CYCLES);
        pump_net(&machine, &[&a, &b], 1);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 0);

        // A rebooted client: a fresh endpoint with the same address,
        // whose ephemeral ports start over, lands on the very tuple the
        // dead connection held — and must get a new connection.
        let a2 = make_tcp(machine.clone(), end_a, IP_A, MAC_A);
        let id_a2 = connect(&a2, 80).unwrap();
        pump_net(&machine, &[&a2, &b], 4);
        let id_b2 = b
            .invoke("tcp", "accept", &[Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(id_b2 > id_b, "the SYN opened a fresh connection on B");
        assert_eq!(conn_state(&a2, id_a2), "established");
        assert_eq!(conn_state(&b, id_b2), "established");
        assert_eq!(conn_state(&b, id_b), "closed", "the old id still answers");
    }

    #[test]
    fn ephemeral_port_wrap_skips_live_tuples_and_reports_exhaustion() {
        let (_machine, a, _b) = pair(LinkConfig::perfect(43));
        let local_port = |id: i64| {
            a.with_state(|s: &mut TcpState| Ok(slot(&mut s.conns, id).local_port))
                .unwrap()
        };
        let first = connect(&a, 80).unwrap();
        assert_eq!(local_port(first), EPHEMERAL_BASE);
        a.with_state(|s: &mut TcpState| {
            s.next_port = u16::MAX;
            Ok(())
        })
        .unwrap();
        let last = connect(&a, 80).unwrap();
        assert_eq!(local_port(last), u16::MAX);
        let wrapped = connect(&a, 80).unwrap();
        assert_eq!(
            local_port(wrapped),
            EPHEMERAL_BASE + 1,
            "the wrap stepped over the live connection on the first port"
        );
        assert_eq!(conn_state(&a, first), "syn-sent", "which is untouched");
        // The same local port towards another destination is a
        // different tuple, so it is not skipped.
        a.with_state(|s: &mut TcpState| {
            s.next_port = EPHEMERAL_BASE;
            Ok(())
        })
        .unwrap();
        let other = connect(&a, 81).unwrap();
        assert_eq!(local_port(other), EPHEMERAL_BASE);

        // Take every remaining port towards :80; the next connect has
        // nowhere to go and says so instead of stealing a tuple.
        let range = usize::from(u16::MAX - EPHEMERAL_BASE) + 1;
        for _ in 3..range {
            connect(&a, 80).unwrap();
        }
        let err = connect(&a, 80).unwrap_err();
        assert!(
            err.to_string().contains("no free ephemeral port"),
            "got: {err}"
        );
        assert_eq!(conn_state(&a, first), "syn-sent");
    }

    #[test]
    fn ring_range_reads_across_the_ring_seam() {
        // Wrap the ring: fill, drain the front, refill past the seam.
        let mut ring: VecDeque<u8> = VecDeque::with_capacity(16);
        ring.extend(0..12u8);
        ring.drain(..8);
        ring.extend(12..22u8);
        let (front, back) = ring.as_slices();
        assert!(!front.is_empty() && !back.is_empty(), "ring is wrapped");
        let flat: Vec<u8> = ring.iter().copied().collect();
        for start in 0..=flat.len() {
            for len in 0..=flat.len() - start {
                let range = start..start + len;
                assert_eq!(ring_range(&ring, range.clone()).concat(), flat[range]);
            }
        }
    }

    proptest! {
        /// The deadline heap against a sorted-set model: any sequence
        /// of arm / move / cancel leaves the same earliest entry, and
        /// draining pops `(deadline, id)` in ascending order.
        #[test]
        fn prop_deadline_index_matches_a_sorted_set(
            ops in proptest::collection::vec((1i64..24, 0u64..40), 0..200),
        ) {
            let mut index = Deadlines::default();
            let mut model = std::collections::BTreeMap::new();
            for (id, at) in ops {
                // `at` 0 cancels; anything else arms or moves.
                let at = (at > 0).then_some(at);
                index.set(id, at);
                match at {
                    Some(at) => model.insert(id, at),
                    None => model.remove(&id),
                };
                let earliest = model.iter().map(|(&id, &at)| (at, id)).min();
                prop_assert_eq!(index.first(), earliest);
            }
            let mut sorted: Vec<(u64, i64)> = model.iter().map(|(&id, &at)| (at, id)).collect();
            sorted.sort_unstable();
            for want in sorted {
                prop_assert_eq!(index.first(), Some(want));
                index.set(want.1, None);
            }
            prop_assert_eq!(index.first(), None);
        }
    }

    /// Two stacks built alike and driven alike; `scan` makes the second
    /// one the oracle that services every connection on every pump.
    struct Twin {
        machine: Arc<Mutex<Machine>>,
        a: ObjRef,
        b: ObjRef,
        end_a: ObjRef,
    }

    fn twins(cfg: LinkConfig) -> [Twin; 2] {
        [false, true].map(|scan| {
            let (machine, a, b, end_a, _) = pair_with_link(cfg);
            for ep in [&a, &b] {
                ep.with_state(|s: &mut TcpState| {
                    s.scan_all = scan;
                    Ok(())
                })
                .unwrap();
            }
            Twin {
                machine,
                a,
                b,
                end_a,
            }
        })
    }

    /// Everything an endpoint shows the outside, bar the visit counter:
    /// `stats` 0..=10 (digest included), then `state` and `error` of
    /// every id it has ever handed out.
    fn observe(ep: &ObjRef) -> (Vec<i64>, Vec<String>) {
        let ids = ep
            .with_state(|s: &mut TcpState| Ok(s.conns.len() as i64))
            .unwrap();
        let conns = (1..ids)
            .map(|id| match ep.invoke("tcp", "state", &[Value::Int(id)]) {
                Ok(state) => format!("{}/{}", state.as_str().unwrap(), conn_error(ep, id)),
                Err(_) => "dropped".to_string(),
            })
            .collect();
        (tcp_stats(ep)[..STAT_SERVICED].to_vec(), conns)
    }

    fn serviced(ep: &ObjRef) -> i64 {
        tcp_stats(ep)[STAT_SERVICED]
    }

    /// Every interval and clock step the differential test picks is a
    /// multiple of this (as `BASE_RTO` and `TIME_WAIT_CYCLES` are), so
    /// pumps keep landing on the very cycle a timer expires and a
    /// wake-up indexed one cycle late shows.
    const QUANTUM: i64 = 10_000;

    /// One random step of the differential test, applied to one twin.
    /// Returns what the call answered, which must match across twins.
    fn apply(t: &Twin, kind: u8, conn: usize, arg: u16, n_conns: usize) -> String {
        let id = Value::Int((conn % n_conns) as i64 + 1);
        let arg64 = i64::from(arg);
        let tcp = |ep: &ObjRef, method: &str, args: &[Value]| {
            format!("{:?}", ep.invoke("tcp", method, args))
        };
        let payload = || {
            let data: Vec<u8> = (0..1 + arg % 2500).map(|i| (i ^ arg) as u8).collect();
            Value::Bytes(bytes::Bytes::from(data))
        };
        match kind {
            0 => tcp(&t.a, "send", &[id, payload()]),
            1 => tcp(&t.b, "send", &[id, payload()]),
            2 => tcp(&t.a, "recv", &[id, Value::Int(arg64)]),
            3 => tcp(&t.b, "recv", &[id, Value::Int(arg64)]),
            4 => tcp(&t.a, "close", &[id]),
            5 => tcp(&t.b, "close", &[id]),
            6 => tcp(
                &t.a,
                "set_keepalive",
                &[id, Value::Int(arg64 % 64 * QUANTUM)],
            ),
            7 => tcp(
                &t.a,
                "set_user_timeout",
                &[id, Value::Int(arg64 % 128 * 4 * QUANTUM)],
            ),
            8 | 9 => tcp(&t.a, "pump", &[]),
            10 | 11 => tcp(&t.b, "pump", &[]),
            // Short ticks stay inside an RTO; long ones cross RTO
            // backoff, keepalive and TIME-WAIT deadlines.
            12 => {
                t.machine.lock().tick(((1 + arg64 % 16) * QUANTUM) as u64);
                String::new()
            }
            _ => {
                t.machine
                    .lock()
                    .tick(((1 + arg64 % 64) * 4 * QUANTUM) as u64);
                String::new()
            }
        }
    }

    proptest! {
        /// The event-driven engine against the scan-everything oracle
        /// over an adversarial link (drop, duplication, reordering,
        /// corruption, jitter): after every step both stacks show the
        /// same stats — segment-trace digest included — and the same
        /// state and error for every connection, so each visit the
        /// engine skipped was one that would have done nothing.
        #[test]
        fn prop_event_driven_pump_matches_full_scan(
            seed in any::<u64>(),
            n_conns in 1usize..=6,
            ops in proptest::collection::vec((0u8..14, 0usize..6, any::<u16>()), 20..160),
        ) {
            let mut cfg = LinkConfig::adversarial(seed);
            cfg.corrupt_permille = 50;
            let pair = twins(cfg);
            for t in &pair {
                t.b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
                for _ in 0..n_conns {
                    connect(&t.a, 80).unwrap();
                }
                pump_net(&t.machine, &[&t.a, &t.b], 3);
            }
            for (step, &(kind, conn, arg)) in ops.iter().enumerate() {
                let [event, scan] = pair.each_ref().map(|t| apply(t, kind, conn, arg, n_conns));
                prop_assert_eq!(event, scan, "step {}: call results differ", step);
                let [event, scan] = pair.each_ref().map(|t| (observe(&t.a), observe(&t.b)));
                prop_assert_eq!(event, scan, "step {}: endpoints (a, b) diverged", step);
            }
            let [event, scan] = pair.each_ref().map(|t| serviced(&t.a) + serviced(&t.b));
            prop_assert!(event <= scan, "the engine never visits more than the scan");
        }
    }

    #[test]
    fn a_pump_costs_the_active_connections_not_the_open_ones() {
        const IDLE: usize = 1024;
        let (machine, a, b) = pair(LinkConfig::perfect(47));
        b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
        b.invoke(
            "tcp",
            "set_backlog",
            &[Value::Int(80), Value::Int(IDLE as i64 + 1)],
        )
        .unwrap();
        let ids: Vec<i64> = (0..=IDLE).map(|_| connect(&a, 80).unwrap()).collect();
        pump_net(&machine, &[&a, &b], 6);
        for &id in &ids {
            assert_eq!(conn_state(&a, id), "established");
        }
        let active_b = b
            .invoke("tcp", "accept", &[Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        let active_a = ids[0];
        assert_eq!(active_b, 1, "ids pair up in connect order");

        // Nothing to do: a pump visits nobody, however many are open.
        for ep in [&a, &b] {
            let before = serviced(ep);
            ep.invoke("tcp", "pump", &[]).unwrap();
            assert_eq!(serviced(ep), before, "an idle pump services nothing");
        }
        // One connection echoing: every pump on either side visits it
        // and nothing else.
        for round in 0..8 {
            send(&a, active_a, vec![round; 256]);
            for _ in 0..6 {
                for ep in [&a, &b] {
                    let before = serviced(ep);
                    ep.invoke("tcp", "pump", &[]).unwrap();
                    let visits = serviced(ep) - before;
                    assert!(visits <= 2, "{visits} visits for one active connection");
                }
                let heard = b
                    .invoke("tcp", "recv", &[Value::Int(active_b), Value::Int(4096)])
                    .unwrap();
                let heard = heard.as_bytes().unwrap();
                if !heard.is_empty() {
                    send(&b, active_b, heard.to_vec());
                }
                machine.lock().tick(BASE_RTO / 8);
            }
            let echoed = a
                .invoke("tcp", "recv", &[Value::Int(active_a), Value::Int(4096)])
                .unwrap();
            assert_eq!(echoed.as_bytes().unwrap().to_vec(), vec![round; 256]);
        }
        assert_eq!(tcp_stats(&a)[STAT_RETRANSMITS], 0);
    }

    /// A pair whose A side sits on a fuse: `(machine, a, b, blown, end_a)`.
    fn fused_pair(seed: u64) -> (Arc<Mutex<Machine>>, ObjRef, ObjRef, Arc<Blown>, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (end_a, end_b) = make_simlink(machine.clone(), LinkConfig::perfect(seed));
        let blown = Arc::new(Blown::default());
        let lower = fuse(end_a.clone(), blown.clone());
        let a = make_tcp(machine.clone(), lower, IP_A, MAC_A);
        let b = make_tcp(machine.clone(), end_b, IP_B, MAC_B);
        (machine, a, b, blown, end_a)
    }

    fn link_sent(end: &ObjRef) -> i64 {
        let stats = end.invoke("netdev", "stats", &[]).unwrap();
        stats.as_list().unwrap()[0].as_int().unwrap()
    }

    #[test]
    fn connections_behind_a_failed_visit_stay_ready() {
        // A's lower netdev refuses to send while the fuse is blown.
        let (machine, a, b, blown, end_a) = fused_pair(71);
        b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
        for _ in 0..3 {
            connect(&a, 80).unwrap();
        }
        pump_net(&machine, &[&a, &b], 4);

        for id in 1..=3 {
            send(&a, id, vec![id as u8; 100]);
        }
        blown.tx.store(true, Ordering::Relaxed);
        assert!(
            a.invoke("tcp", "pump", &[]).is_err(),
            "the refusal is reported"
        );
        blown.tx.store(false, Ordering::Relaxed);
        pump_net(&machine, &[&a, &b], 3);
        // Nothing the pump emitted was lost to the refusal — not the
        // segments behind the first one, and not the first one either:
        // the whole burst stayed queued and left with the next pump.
        for id in 1..=3 {
            let heard = b
                .invoke("tcp", "recv", &[Value::Int(id), Value::Int(4096)])
                .unwrap();
            assert_eq!(heard.as_bytes().unwrap().to_vec(), vec![id as u8; 100]);
        }
        assert_eq!(tcp_stats(&a)[STAT_RETRANSMITS], 0, "no timer had to help");
        assert_eq!(
            link_sent(&end_a),
            tcp_stats(&a)[0],
            "every segment reached the wire exactly once"
        );
        assert_eq!(tcp_stats(&a)[12], 0, "nothing dropped from the queue");
    }

    #[test]
    fn a_lower_that_keeps_refusing_costs_a_bounded_queue() {
        let (_machine, a, _b, blown, end_a) = fused_pair(73);
        blown.tx.store(true, Ordering::Relaxed);
        // Each `connect` emits a SYN and tries to hand the queue down.
        for _ in 0..TX_QUEUE_MAX + 5 {
            connect(&a, 80).expect("the connection exists, its SYN queued");
        }
        assert_eq!(tcp_stats(&a)[12], 5, "oldest dropped beyond the bound");
        assert_eq!(link_sent(&end_a), 0);
        assert!(a.invoke("tcp", "pump", &[]).is_err(), "still refused");
        blown.tx.store(false, Ordering::Relaxed);
        a.invoke("tcp", "pump", &[]).unwrap();
        assert_eq!(link_sent(&end_a), TX_QUEUE_MAX as i64, "the rest left");
        assert_eq!(tcp_stats(&a)[12], 5);
        a.invoke("tcp", "pump", &[]).unwrap();
        assert_eq!(link_sent(&end_a), TX_QUEUE_MAX as i64, "exactly once");
    }

    #[test]
    fn a_filter_that_fails_mid_burst_loses_no_frame_behind_it() {
        let (machine, _a, b, end_a, end_b) = pair_with_link(LinkConfig::perfect(79));
        // A filter that fails on its second call and passes the rest.
        let failing = ObjectBuilder::new("flaky-filter")
            .state(0u32)
            .interface("filter", |i| {
                i.method("check", &[TypeTag::Bytes], TypeTag::Bool, |this, _| {
                    this.with_state(|calls: &mut u32| {
                        *calls += 1;
                        match *calls {
                            2 => Err(ObjError::failed("filter crashed")),
                            _ => Ok(Value::Bool(true)),
                        }
                    })
                })
            })
            .build();
        b.invoke("tcp", "set_filter", &[Value::Handle(failing)])
            .unwrap();
        // Three strays arrive as one burst; each would draw an RST.
        for port in [1000, 1001, 1002] {
            inject_stray_ack(&end_a, port, 80);
        }
        machine.lock().tick(10);
        assert!(b.invoke("tcp", "pump", &[]).is_err(), "the second check");
        assert_eq!(tcp_stats(&b)[7], 1, "the first frame was answered");
        let pending = end_b.invoke("netdev", "pending", &[]).unwrap();
        assert_eq!(pending, Value::Int(0), "all three had been pulled");
        // The frame the filter died on is gone, as it always was; the one
        // behind it is the next pump's first.
        b.invoke("tcp", "pump", &[]).unwrap();
        assert_eq!(tcp_stats(&b)[7], 2, "the third frame was not lost");
        assert_eq!(tcp_stats(&b)[1], 2, "two segments heard in all");
    }

    /// Steps both twins' clocks `steps` times by `tick`, pumping A then
    /// B each step, and checks the engine's visit count against what
    /// the pump visibly did: `due` visits on a pump that changed
    /// anything the endpoint shows (the scan twin must show the same
    /// change at the same step), none on a pump that did not. Returns
    /// how many of A's pumps did something.
    fn step_twins(pair: &[Twin; 2], steps: usize, tick: u64, due: i64) -> usize {
        let [event, scan] = pair;
        let mut acted = 0;
        for step in 0..steps {
            for (ep, oracle) in [(&event.a, &scan.a), (&event.b, &scan.b)] {
                let (seen, visits) = (observe(ep), serviced(ep));
                ep.invoke("tcp", "pump", &[]).unwrap();
                oracle.invoke("tcp", "pump", &[]).unwrap();
                assert_eq!(observe(ep), observe(oracle), "step {step}: twins diverged");
                let changed = observe(ep) != seen;
                let want = if changed { due } else { 0 };
                assert_eq!(serviced(ep) - visits, want, "step {step}: visits");
                acted += usize::from(changed && Arc::ptr_eq(ep, &event.a));
            }
            for t in pair {
                t.machine.lock().tick(tick);
            }
        }
        acted
    }

    /// Opens `n` connections on both twins and lets every first-visit
    /// and stall-clock latch drain, so later visits are timers only.
    fn settled_twins(seed: u64, n: usize) -> [Twin; 2] {
        let pair = twins(LinkConfig::perfect(seed));
        for t in &pair {
            t.b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
            for _ in 0..n {
                connect(&t.a, 80).unwrap();
            }
            pump_net(&t.machine, &[&t.a, &t.b], 6);
        }
        pair
    }

    #[test]
    fn keepalive_wakes_exactly_the_due_connections_on_the_scan_s_cycle() {
        let pair = settled_twins(53, 4);
        for t in &pair {
            for id in [2, 4] {
                t.a.invoke(
                    "tcp",
                    "set_keepalive",
                    &[Value::Int(id), Value::Int(300_000)],
                )
                .unwrap();
            }
            pump_net(&t.machine, &[&t.a, &t.b], 1);
        }
        // Two of four connections probe, in the same pump; the two
        // replies come back in one pump too.
        let acted = step_twins(&pair, 40, 50_000, 2);
        assert!(acted >= 6, "several probe rounds went by, saw {acted}");
        assert_eq!(conn_state(&pair[0].a, 2), "established");
    }

    #[test]
    fn retransmit_timer_wakes_only_the_stalled_connection_on_the_scan_s_cycle() {
        let pair = settled_twins(59, 3);
        for t in &pair {
            set_drop(&t.end_a, 1000);
            send(&t.a, 2, vec![5; 500]);
            // First visit transmits, second latches the stall clock.
            pump_net(&t.machine, &[&t.a, &t.b], 2);
        }
        let before = tcp_stats(&pair[0].a)[STAT_RETRANSMITS];
        let acted = step_twins(&pair, 40, 50_000, 1);
        let resent = tcp_stats(&pair[0].a)[STAT_RETRANSMITS] - before;
        assert!(resent >= 2, "backoff fired more than once, saw {resent}");
        assert_eq!(acted as i64, resent, "A acted exactly when it resent");
    }

    #[test]
    fn user_timeout_set_mid_stall_wakes_the_connection_on_the_scan_s_cycle() {
        let pair = settled_twins(67, 3);
        for t in &pair {
            set_drop(&t.end_a, 1000);
            send(&t.a, 2, vec![6; 500]);
            pump_net(&t.machine, &[&t.a, &t.b], 2);
            // Shorter than the RTO, so no retransmit visit covers for
            // it, and set while the stall clock runs: the knob restarts
            // the clock at the next pump, which must therefore visit.
            t.a.invoke(
                "tcp",
                "set_user_timeout",
                &[Value::Int(2), Value::Int(150_000)],
            )
            .unwrap();
            pump_net(&t.machine, &[&t.a, &t.b], 1);
        }
        let acted = step_twins(&pair, 12, 50_000, 1);
        assert_eq!(acted, 2, "one retransmission, then the abort");
        assert_eq!(conn_state(&pair[0].a, 2), "closed");
        assert_eq!(conn_error(&pair[0].a, 2), "user-timeout");
        assert_eq!(tcp_stats(&pair[0].a)[STAT_RETRANSMITS], 1);
    }

    #[test]
    fn time_wait_expiry_wakes_the_connection_on_the_scan_s_cycle() {
        let pair = settled_twins(61, 3);
        for t in &pair {
            t.a.invoke("tcp", "close", &[Value::Int(2)]).unwrap();
            pump_net(&t.machine, &[&t.a, &t.b], 2);
            t.b.invoke("tcp", "close", &[Value::Int(2)]).unwrap();
            pump_net(&t.machine, &[&t.a, &t.b], 2);
            assert_eq!(conn_state(&t.a, 2), "time-wait");
        }
        let acted = step_twins(&pair, 30, 50_000, 1);
        assert_eq!(acted, 1, "one pump, the expiry, did anything");
        assert_eq!(conn_state(&pair[0].a, 2), "closed");
        assert_eq!(conn_error(&pair[0].a, 2), "");
    }
}
