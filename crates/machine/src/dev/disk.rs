//! A simple sector-addressed disk.
//!
//! Synchronous (polled) on purpose: the interesting costs for the
//! shared-cache experiments are the per-sector transfer latencies, which
//! drivers charge through the cost model when they issue operations.
//!
//! The platter keeps what it is handed. It is a sparse table of shared
//! sector buffers: a write stores the caller's [`Bytes`] as it is, and a
//! read hands that same buffer back (a reference-count bump, no copy and
//! no allocation). A sector's buffer is one object from the client to the
//! platter, so the disk holds no copy of its own beside the ones the
//! block cache and the journal's overlay already share. The table is
//! allocated in chunks of 64 sectors, each on its first write, and a
//! sector never written reads as one shared zero sector.

use std::sync::OnceLock;

use bytes::Bytes;

use crate::{cost::Cycles, irq::IrqController, MachineError, MachineResult};

use super::Device;

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

/// Simulated cost of one sector transfer (seek amortised away; early-90s
/// SCSI moved ~1 sector per ~10⁴ cycles).
pub const SECTOR_TRANSFER_COST: Cycles = 10_000;

/// Simulated cost of each *additional* sector in one batched request. A
/// batch pays the full request setup once ([`SECTOR_TRANSFER_COST`]) and
/// then streams: the controller overlaps seek/rotation with transfer, so
/// follow-on sectors cost only the media rate.
pub const SECTOR_STREAM_COST: Cycles = 2_000;

/// Cost of transferring `sectors` sectors in one batched request:
/// full setup for the first sector, streaming rate for the rest.
pub fn batch_transfer_cost(sectors: usize) -> Cycles {
    match sectors {
        0 => 0,
        n => SECTOR_TRANSFER_COST + (n as Cycles - 1) * SECTOR_STREAM_COST,
    }
}

/// Register offsets.
pub mod regs {
    /// R: total sectors.
    pub const SECTOR_COUNT: u64 = 0x0;
    /// R: completed reads.
    pub const READS: u64 = 0x4;
    /// R: completed writes.
    pub const WRITES: u64 = 0x8;
}

/// Sectors per chunk of the platter's table. An untouched chunk costs one
/// empty pointer: a flat slot per sector would cost every `Machine` a
/// quarter MiB whether or not its disk is ever written.
const CHUNK_SECTORS: usize = 64;

/// One chunk of the platter: a slot per sector, empty until written.
type Chunk = [Option<Bytes>; CHUNK_SECTORS];

/// What every sector never written holds: one zero sector, shared by
/// every disk.
fn zero_sector() -> Bytes {
    static ZERO: OnceLock<Bytes> = OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0; SECTOR_SIZE]))
        .clone()
}

/// Refuses a sector write whose buffer is not exactly one sector.
fn check_len(buf: &[u8]) -> MachineResult<()> {
    if buf.len() != SECTOR_SIZE {
        return Err(MachineError::Device(format!(
            "disk: a sector write takes {SECTOR_SIZE} bytes, got {}",
            buf.len()
        )));
    }
    Ok(())
}

/// The disk device.
pub struct Disk {
    sectors: usize,
    /// The platter: chunk `c` holds sectors `c * CHUNK_SECTORS ..`, and
    /// is `None` until one of them is written.
    chunks: Vec<Option<Box<Chunk>>>,
    reads: u64,
    writes: u64,
    /// Injected fault window: the next N sector transfers fail with a
    /// *transient* error (the retryable class — a recoverable media or
    /// bus hiccup, not a power loss or a bad address).
    transient_errors: u64,
    /// Injected latency spike: extra cycles per sector transfer...
    latency_extra: Cycles,
    /// ...for this many more transfers.
    latency_ops: u64,
}

impl Disk {
    /// Creates a zeroed disk with `sectors` sectors.
    pub fn new(sectors: usize) -> Self {
        Disk {
            sectors,
            chunks: vec![None; sectors.div_ceil(CHUNK_SECTORS)],
            reads: 0,
            writes: 0,
            transient_errors: 0,
            latency_extra: 0,
            latency_ops: 0,
        }
    }

    /// Arms a transient-fault window: the next `n` sector reads/writes
    /// fail with [`MachineError::Transient`] (the class `store::retry`
    /// retries). Torn crash writes are unaffected — a power failure is
    /// not a transient condition.
    pub fn inject_transient_errors(&mut self, n: u64) {
        self.transient_errors = n;
    }

    /// Arms a latency spike: the next `ops` sector transfers each take
    /// `extra` additional cycles (charged by the driver issuing them).
    pub fn inject_latency(&mut self, extra: Cycles, ops: u64) {
        self.latency_extra = extra;
        self.latency_ops = ops;
    }

    /// Clears any armed fault windows — what a power cycle does to a
    /// transient condition. [`crate::Machine::reboot`] does not know
    /// about devices, so supervisors call this explicitly.
    pub fn clear_faults(&mut self) {
        self.transient_errors = 0;
        self.latency_extra = 0;
        self.latency_ops = 0;
    }

    /// Driver side: extra cycles the next sector transfer costs under the
    /// armed latency spike (0 once the window is exhausted). Consumes one
    /// op from the window.
    pub fn take_op_latency(&mut self) -> Cycles {
        if self.latency_ops == 0 {
            return 0;
        }
        self.latency_ops -= 1;
        self.latency_extra
    }

    /// Consumes one armed transient fault, if any, as a [`MachineError::Transient`].
    fn fault_check(&mut self) -> MachineResult<()> {
        if self.transient_errors > 0 {
            self.transient_errors -= 1;
            return Err(MachineError::Transient("disk"));
        }
        Ok(())
    }

    /// Number of sectors.
    pub fn sectors(&self) -> usize {
        self.sectors
    }

    /// Sector `idx`'s index into the platter, checked against the bounds.
    fn locate(&self, idx: u64) -> MachineResult<usize> {
        usize::try_from(idx)
            .ok()
            .filter(|&i| i < self.sectors)
            .ok_or(MachineError::SectorOutOfRange {
                sector: i64::try_from(idx).unwrap_or(i64::MAX),
                sectors: self.sectors as i64,
            })
    }

    /// What sector `i` holds: the buffer last written there, or the
    /// shared zero sector.
    fn stored(&self, i: usize) -> Bytes {
        self.chunks[i / CHUNK_SECTORS]
            .as_ref()
            .and_then(|chunk| chunk[i % CHUNK_SECTORS].clone())
            .unwrap_or_else(zero_sector)
    }

    /// Sector `i`'s slot, allocating its chunk on the chunk's first write.
    fn slot(&mut self, i: usize) -> &mut Option<Bytes> {
        let chunk = self.chunks[i / CHUNK_SECTORS]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        &mut chunk[i % CHUNK_SECTORS]
    }

    /// Reads one sector (driver side; the driver charges transfer cost).
    /// The answer is the buffer the sector was last written with, shared:
    /// no copy and no allocation.
    pub fn read_sector(&mut self, idx: u64) -> MachineResult<Bytes> {
        self.fault_check()?;
        let i = self.locate(idx)?;
        self.reads += 1;
        Ok(self.stored(i))
    }

    /// Writes one sector by keeping `data` itself, which must be exactly
    /// [`SECTOR_SIZE`] bytes. A `Bytes` view pins its whole backing
    /// buffer: a sector written as a 512-byte slice of a larger request
    /// keeps all of that request alive until every sector holding a
    /// slice of it is overwritten. So the disk's memory is bounded not by
    /// `sectors × SECTOR_SIZE` but by `sectors ×` the largest buffer a
    /// writer slices a sector from. The writers today keep that small:
    /// the store journal slices a commit group's record headers from one
    /// buffer of that group's headers, at most the log's length, and the
    /// benchmark's clients write one-sector buffers or (`bulk`) 512-byte
    /// slices of a 4 KiB request. A writer that slices sectors out of
    /// something larger, a whole received frame say, should copy them.
    pub fn write_sector(&mut self, idx: u64, data: Bytes) -> MachineResult<()> {
        self.fault_check()?;
        let i = self.locate(idx)?;
        check_len(&data)?;
        self.writes += 1;
        *self.slot(i) = Some(data);
        Ok(())
    }

    /// Writes only the first `prefix` bytes of `buf` (one sector) over a
    /// sector, leaving the rest as it was — the *torn write* a power
    /// failure leaves behind when it interrupts a sector transfer
    /// mid-stream. The torn sector is a new buffer, built here: this is
    /// the only path that copies, and only crash injection takes it. A
    /// torn sector is exactly what journal checksums exist to detect and
    /// reject at recovery.
    pub fn write_sector_prefix(
        &mut self,
        idx: u64,
        buf: &[u8],
        prefix: usize,
    ) -> MachineResult<()> {
        let i = self.locate(idx)?;
        check_len(buf)?;
        let prefix = prefix.min(SECTOR_SIZE);
        let mut torn = self.stored(i).to_vec();
        torn[..prefix].copy_from_slice(&buf[..prefix]);
        *self.slot(i) = Some(Bytes::from(torn));
        Ok(())
    }

    /// Completed write count.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

impl Device for Disk {
    fn name(&self) -> &str {
        "disk"
    }

    fn read_reg(&mut self, offset: u64) -> MachineResult<u32> {
        match offset {
            regs::SECTOR_COUNT => Ok(self.sectors() as u32),
            regs::READS => Ok(self.reads as u32),
            regs::WRITES => Ok(self.writes as u32),
            _ => Err(MachineError::BadRegister("disk", offset)),
        }
    }

    fn write_reg(&mut self, offset: u64, _value: u32) -> MachineResult<()> {
        Err(MachineError::BadRegister("disk", offset))
    }

    fn tick(&mut self, _now: Cycles, _irq: &mut IrqController) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sector_of(byte: u8) -> Bytes {
        Bytes::from(vec![byte; SECTOR_SIZE])
    }

    fn chunks_allocated(d: &Disk) -> usize {
        d.chunks.iter().flatten().count()
    }

    #[test]
    fn sector_roundtrip() {
        // A read hands back the written buffer itself, not a copy of it.
        let mut d = Disk::new(8);
        let buf = sector_of(0xAA);
        d.write_sector(3, buf.clone()).unwrap();
        let got = d.read_sector(3).unwrap();
        assert_eq!(got, buf);
        assert_eq!(got.as_ptr(), buf.as_ptr());
        assert_eq!((d.reads, d.write_count()), (1, 1));
    }

    #[test]
    fn unwritten_sectors_read_zero_without_allocating_a_chunk() {
        let mut d = Disk::new(256);
        let zero = d.read_sector(200).unwrap();
        assert_eq!(zero, vec![0u8; SECTOR_SIZE]);
        assert_eq!(chunks_allocated(&d), 0);
        // Every unwritten sector, on every disk, is the same buffer.
        let other = Disk::new(4).read_sector(1).unwrap();
        assert_eq!(other.as_ptr(), zero.as_ptr());
        // A write allocates its own chunk and no other; its neighbours
        // in that chunk still read zero.
        d.write_sector(70, sector_of(1)).unwrap();
        assert_eq!(chunks_allocated(&d), 1);
        assert!(d.chunks[70 / CHUNK_SECTORS].is_some());
        assert_eq!(d.read_sector(71).unwrap().as_ptr(), zero.as_ptr());
    }

    #[test]
    fn wrong_length_write_is_refused() {
        let mut d = Disk::new(4);
        for len in [0, SECTOR_SIZE - 1, SECTOR_SIZE + 1] {
            let e = d.write_sector(0, Bytes::from(vec![1; len])).unwrap_err();
            assert!(matches!(e, MachineError::Device(_)), "{e}");
            assert!(d.write_sector_prefix(0, &vec![1; len], 8).is_err());
        }
        assert_eq!(d.write_count(), 0);
        assert_eq!(chunks_allocated(&d), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Disk::new(4);
        assert!(d.read_sector(4).is_err());
        assert!(d.read_sector(u64::MAX).is_err());
        assert!(d.write_sector(4, sector_of(0)).is_err());
        assert!(d.write_sector(u64::MAX, sector_of(0)).is_err());
        assert!(d.write_sector_prefix(4, &sector_of(0), 1).is_err());
        assert_eq!((d.reads, d.write_count()), (0, 0));
    }

    #[test]
    fn torn_write_leaves_a_mixed_sector() {
        // Over a written sector: new bytes, then the old ones. The torn
        // sector is a new buffer; the one written before is untouched.
        let mut d = Disk::new(4);
        let old = sector_of(0xAA);
        d.write_sector(2, old.clone()).unwrap();
        d.write_sector_prefix(2, &sector_of(0xBB), 100).unwrap();
        let s = d.read_sector(2).unwrap();
        assert!(s[..100].iter().all(|&b| b == 0xBB));
        assert!(s[100..].iter().all(|&b| b == 0xAA));
        assert!(old.iter().all(|&b| b == 0xAA));
        // Over an unwritten sector: new bytes, then zeros.
        d.write_sector_prefix(3, &sector_of(0xCC), 100).unwrap();
        let s = d.read_sector(3).unwrap();
        assert!(s[..100].iter().all(|&b| b == 0xCC));
        assert!(s[100..].iter().all(|&b| b == 0));
        // A torn write is not a completed one.
        assert_eq!(d.write_count(), 1);
    }

    #[test]
    fn batch_cost_amortises_setup() {
        assert_eq!(batch_transfer_cost(0), 0);
        assert_eq!(batch_transfer_cost(1), SECTOR_TRANSFER_COST);
        assert!(batch_transfer_cost(256) < 256 * SECTOR_TRANSFER_COST);
        assert_eq!(
            batch_transfer_cost(4),
            SECTOR_TRANSFER_COST + 3 * SECTOR_STREAM_COST
        );
    }

    #[test]
    fn injected_faults_fire_then_clear() {
        let mut d = Disk::new(4);
        d.inject_transient_errors(2);
        let e = d.read_sector(0).unwrap_err();
        assert_eq!(e, MachineError::Transient("disk"));
        assert_eq!(
            e.to_string(),
            "device error: disk: transient I/O error (injected)"
        );
        assert!(d.write_sector(0, sector_of(0)).is_err());
        // Window exhausted: back to normal.
        d.read_sector(0).unwrap();
        // Torn crash writes bypass the transient window entirely.
        d.inject_transient_errors(1);
        d.write_sector_prefix(1, &sector_of(0xCC), 8).unwrap();
        // Latency spikes decay per consumed op, and clear_faults drops
        // everything armed.
        d.inject_latency(5_000, 2);
        assert_eq!(d.take_op_latency(), 5_000);
        d.clear_faults();
        assert_eq!(d.take_op_latency(), 0);
        d.read_sector(2).unwrap();
    }

    #[test]
    fn registers_report_counts() {
        let mut d = Disk::new(16);
        d.read_sector(0).unwrap();
        assert_eq!(d.read_reg(regs::SECTOR_COUNT).unwrap(), 16);
        assert_eq!(d.read_reg(regs::READS).unwrap(), 1);
        assert!(d.write_reg(regs::READS, 9).is_err());
        let e = d.read_reg(0x40).unwrap_err();
        assert_eq!(e, MachineError::BadRegister("disk", 0x40));
        assert_eq!(e.to_string(), "device error: disk: bad register 0x40");
    }
}
