//! Physical memory: frames and a frame allocator.

use std::ops::Range;

use crate::{mmu::PAGE_SIZE, MachineError, MachineResult};

/// A physical page-frame number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// Physical memory: a frame-indexed table of pages plus a next-fit frame
/// allocator. A frame's page appears on the frame's first write; until
/// then the frame reads as zeros and costs one empty slot, so a machine
/// holds the memory it has touched, not the memory it could address.
pub struct PhysMem {
    /// Per frame: its page, once written.
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
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
            pages: vec![None; frames],
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
                if let Some(page) = &mut self.pages[idx] {
                    page.fill(0);
                }
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

    /// Reads `buf.len()` bytes starting at physical address `paddr`.
    pub fn read(&self, paddr: u64, buf: &mut [u8]) -> MachineResult<()> {
        let start = self.start_of(paddr, buf.len())?;
        for (frame, off, part) in pieces(start, buf.len()) {
            let dst = &mut buf[part];
            match &self.pages[frame] {
                Some(page) => dst.copy_from_slice(&page[off..off + dst.len()]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    /// Writes `buf` starting at physical address `paddr`. A range that
    /// leaves memory is refused whole: nothing of it is written.
    pub fn write(&mut self, paddr: u64, buf: &[u8]) -> MachineResult<()> {
        let start = self.start_of(paddr, buf.len())?;
        for (frame, off, part) in pieces(start, buf.len()) {
            let src = &buf[part];
            let page = self.pages[frame].get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
            page[off..off + src.len()].copy_from_slice(src);
        }
        Ok(())
    }

    /// The byte index of `paddr`, if `len` bytes from there are memory.
    fn start_of(&self, paddr: u64, len: usize) -> MachineResult<usize> {
        let start = usize::try_from(paddr).map_err(|_| MachineError::BadPhysAddr(paddr))?;
        match start.checked_add(len) {
            Some(end) if end <= self.pages.len() * PAGE_SIZE => Ok(start),
            _ => Err(MachineError::BadPhysAddr(paddr)),
        }
    }
}

/// Splits `len` bytes from byte index `start` at frame boundaries: per
/// piece, its frame, its offset in that frame, and its range in the buffer.
fn pieces(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let at = start + done;
        let take = (len - done).min(PAGE_SIZE - at % PAGE_SIZE);
        let piece = (at / PAGE_SIZE, at % PAGE_SIZE, done..done + take);
        done += take;
        (take > 0).then_some(piece)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_base(frame: FrameId) -> u64 {
        u64::from(frame.0) * PAGE_SIZE as u64
    }

    #[test]
    fn alloc_free_cycle() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(pm.allocated_frames(), 2);
        pm.free_frame(a);
        assert_eq!(pm.allocated_frames(), 1);
        assert!(!pm.used[a.0 as usize]);
        assert!(pm.used[b.0 as usize]);
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
        pm.write(frame_base(a), &[0xAB; 16]).unwrap();
        pm.free_frame(a);
        let b = pm.alloc_frame().unwrap();
        let mut buf = [0xFFu8; 16];
        pm.read(frame_base(b), &mut buf).unwrap();
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
        let base = frame_base(f);
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
        assert!(pm.read(PAGE_SIZE as u64 + 1, &mut []).is_err());
    }

    #[test]
    fn unwritten_frames_read_zero_and_hold_no_page() {
        let mut pm = PhysMem::new(2);
        let f = pm.alloc_frame().unwrap();
        let mut buf = [0xFFu8; PAGE_SIZE];
        pm.read(frame_base(f), &mut buf).unwrap();
        assert_eq!(buf, [0u8; PAGE_SIZE]);
        assert!(pm.pages.iter().all(Option::is_none));
    }

    #[test]
    fn a_write_across_a_frame_boundary_lands_in_both_frames() {
        let mut pm = PhysMem::new(3);
        let boundary = PAGE_SIZE as u64;
        pm.write(boundary - 3, b"abcdef").unwrap();
        let mut buf = [0u8; 8];
        pm.read(boundary - 4, &mut buf).unwrap();
        assert_eq!(&buf, b"\0abcdef\0");
        let mut tail = [0u8; 3];
        pm.read(boundary, &mut tail).unwrap();
        assert_eq!(&tail, b"def");
        assert!(pm.pages[0].is_some() && pm.pages[1].is_some() && pm.pages[2].is_none());
    }

    #[test]
    fn a_write_that_leaves_memory_writes_nothing() {
        let mut pm = PhysMem::new(2);
        let end = 2 * PAGE_SIZE as u64;
        assert_eq!(
            pm.write(end - 2, &[7; 4]),
            Err(MachineError::BadPhysAddr(end - 2))
        );
        assert!(pm.pages.iter().all(Option::is_none));
        let mut buf = [1u8; 4];
        assert_eq!(
            pm.read(end - 2, &mut buf),
            Err(MachineError::BadPhysAddr(end - 2))
        );
    }
}
