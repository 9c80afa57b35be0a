//! Physical memory: frames and a frame allocator.

use crate::{mmu::PAGE_SIZE, MachineError, MachineResult};

/// A physical page-frame number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// Physical memory: a flat array of page frames plus a free list.
pub struct PhysMem {
    mem: Vec<u8>,
    /// Allocation state per frame.
    used: Vec<bool>,
    /// Number of allocated frames.
    allocated: usize,
    /// Low-water mark for the next-fit allocator.
    next: usize,
}

impl PhysMem {
    /// Creates physical memory with `frames` page frames.
    pub fn new(frames: usize) -> Self {
        PhysMem {
            mem: vec![0u8; frames * PAGE_SIZE],
            used: vec![false; frames],
            allocated: 0,
            next: 0,
        }
    }

    /// Number of currently allocated frames.
    pub fn allocated_frames(&self) -> usize {
        self.allocated
    }

    /// Allocates one zeroed frame.
    pub fn alloc_frame(&mut self) -> MachineResult<FrameId> {
        let n = self.used.len();
        for probe in 0..n {
            let idx = (self.next + probe) % n;
            if !self.used[idx] {
                self.used[idx] = true;
                self.allocated += 1;
                self.next = (idx + 1) % n;
                let off = idx * PAGE_SIZE;
                self.mem[off..off + PAGE_SIZE].fill(0);
                return Ok(FrameId(idx as u32));
            }
        }
        Err(MachineError::OutOfFrames)
    }

    /// Frees a frame.
    ///
    /// # Panics
    ///
    /// Panics on double free or an out-of-range frame — both are kernel
    /// bugs, not recoverable conditions.
    pub fn free_frame(&mut self, frame: FrameId) {
        let idx = frame.0 as usize;
        assert!(idx < self.used.len(), "free of out-of-range frame {idx}");
        assert!(self.used[idx], "double free of frame {idx}");
        self.used[idx] = false;
        self.allocated -= 1;
    }

    /// True if `frame` is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        self.used.get(frame.0 as usize).copied().unwrap_or(false)
    }

    /// Reads `buf.len()` bytes starting at physical address `paddr`.
    pub fn read(&self, paddr: u64, buf: &mut [u8]) -> MachineResult<()> {
        let start = paddr as usize;
        let end = start
            .checked_add(buf.len())
            .ok_or(MachineError::BadPhysAddr(paddr))?;
        let src = self
            .mem
            .get(start..end)
            .ok_or(MachineError::BadPhysAddr(paddr))?;
        buf.copy_from_slice(src);
        Ok(())
    }

    /// Writes `buf` starting at physical address `paddr`.
    pub fn write(&mut self, paddr: u64, buf: &[u8]) -> MachineResult<()> {
        let start = paddr as usize;
        let end = start
            .checked_add(buf.len())
            .ok_or(MachineError::BadPhysAddr(paddr))?;
        let dst = self
            .mem
            .get_mut(start..end)
            .ok_or(MachineError::BadPhysAddr(paddr))?;
        dst.copy_from_slice(buf);
        Ok(())
    }

    /// Physical byte address of the start of `frame`.
    pub fn frame_base(&self, frame: FrameId) -> u64 {
        u64::from(frame.0) * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(pm.allocated_frames(), 2);
        pm.free_frame(a);
        assert_eq!(pm.allocated_frames(), 1);
        assert!(!pm.is_allocated(a));
        assert!(pm.is_allocated(b));
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut pm = PhysMem::new(2);
        pm.alloc_frame().unwrap();
        pm.alloc_frame().unwrap();
        assert_eq!(pm.alloc_frame(), Err(MachineError::OutOfFrames));
    }

    #[test]
    fn freed_frames_are_reusable() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        let b = pm.alloc_frame().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn frames_are_zeroed_on_alloc() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.write(pm.frame_base(a), &[0xAB; 16]).unwrap();
        pm.free_frame(a);
        let b = pm.alloc_frame().unwrap();
        let mut buf = [0xFFu8; 16];
        pm.read(pm.frame_base(b), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        pm.free_frame(a);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut pm = PhysMem::new(2);
        let f = pm.alloc_frame().unwrap();
        let base = pm.frame_base(f);
        pm.write(base + 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        pm.read(base + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn out_of_range_access_fails() {
        let mut pm = PhysMem::new(1);
        let mut buf = [0u8; 8];
        assert!(pm.read(PAGE_SIZE as u64 - 4, &mut buf).is_err());
        assert!(pm.write(u64::MAX - 2, &[1, 2, 3]).is_err());
        assert!(pm.read(PAGE_SIZE as u64, &mut []).is_ok());
    }
}
