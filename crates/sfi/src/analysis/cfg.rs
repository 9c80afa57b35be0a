//! Explicit control-flow graph over verified bytecode.
//!
//! Basic blocks are maximal straight-line instruction runs; edges follow
//! branch targets, fall-throughs, and indirect jumps. Because [`Insn::Jr`]
//! may (when code-masked) land on *any* instruction, a program containing
//! an indirect jump makes every instruction a block leader — the graph
//! degenerates gracefully to per-instruction granularity instead of
//! guessing targets.

use crate::bytecode::{Insn, Program};

/// One basic block: instructions `start..end` (instruction indices).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Successor block ids.
    pub succs: Vec<u32>,
    /// Predecessor block ids.
    pub preds: Vec<u32>,
}

/// The control-flow graph of a program.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Blocks in ascending `start` order; block 0 (if any) is the entry.
    pub blocks: Vec<Block>,
    /// Map from instruction index to its block id.
    pub block_of: Vec<u32>,
    /// Per-block: reachable from the entry along CFG edges?
    pub reachable: Vec<bool>,
}

/// True for instructions that end a basic block.
pub(crate) fn is_terminator(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Beq { .. }
            | Insn::Bne { .. }
            | Insn::Bltu { .. }
            | Insn::Jmp { .. }
            | Insn::Jr { .. }
            | Insn::Halt
    )
}

impl Cfg {
    /// Builds the CFG. Branch targets must already be validated (the
    /// analysis rejects out-of-range static targets before building).
    pub fn build(program: &Program) -> Cfg {
        let code = &program.code;
        let n = code.len();
        if n == 0 {
            return Cfg {
                blocks: Vec::new(),
                block_of: Vec::new(),
                reachable: Vec::new(),
            };
        }

        // Leaders: entry, every static branch target, every instruction
        // after a terminator — and, if any indirect jump exists, every
        // instruction (a code-masked register can reach all of them).
        let has_jr = code.iter().any(|i| matches!(i, Insn::Jr { .. }));
        let mut leader = vec![false; n];
        leader[0] = true;
        if has_jr {
            leader.iter_mut().for_each(|l| *l = true);
        } else {
            for (pc, insn) in code.iter().enumerate() {
                match insn {
                    Insn::Beq { target, .. }
                    | Insn::Bne { target, .. }
                    | Insn::Bltu { target, .. }
                    | Insn::Jmp { target } => {
                        if (*target as usize) < n {
                            leader[*target as usize] = true;
                        }
                        if pc + 1 < n {
                            leader[pc + 1] = true;
                        }
                    }
                    Insn::Halt if pc + 1 < n => leader[pc + 1] = true,
                    _ => {}
                }
            }
        }

        // Carve blocks.
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut start = 0usize;
        for pc in 0..n {
            block_of[pc] = blocks.len() as u32;
            let block_ends = pc + 1 == n || is_terminator(&code[pc]) || leader[pc + 1];
            if block_ends {
                blocks.push(Block {
                    start: start as u32,
                    end: (pc + 1) as u32,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = pc + 1;
            }
        }

        // Edges.
        let nb = blocks.len();
        for b in 0..nb {
            let last = blocks[b].end - 1;
            let mut succs: Vec<u32> = Vec::new();
            let push = |t: u32, succs: &mut Vec<u32>| {
                if (t as usize) < n {
                    let s = block_of[t as usize];
                    if !succs.contains(&s) {
                        succs.push(s);
                    }
                }
            };
            match code[last as usize] {
                Insn::Jmp { target } => push(target, &mut succs),
                Insn::Beq { target, .. } | Insn::Bne { target, .. } | Insn::Bltu { target, .. } => {
                    push(target, &mut succs);
                    push(last + 1, &mut succs);
                }
                Insn::Jr { .. } => {
                    // Any instruction is a potential target; with `has_jr`
                    // every instruction is its own block leader.
                    for t in 0..n as u32 {
                        push(t, &mut succs);
                    }
                }
                Insn::Halt => {}
                _ => push(last + 1, &mut succs), // Fall-through (or off the end).
            }
            for &s in &succs {
                blocks[s as usize].preds.push(b as u32);
            }
            blocks[b].succs = succs;
        }

        // Reachability from the entry block.
        let mut reachable = vec![false; nb];
        let mut stack = vec![0u32];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &blocks[b as usize].succs {
                if !reachable[s as usize] {
                    reachable[s as usize] = true;
                    stack.push(s);
                }
            }
        }

        Cfg {
            blocks,
            block_of,
            reachable,
        }
    }

    /// True if `block` has an incoming back edge (a predecessor that does
    /// not strictly precede it in layout order) — the widening points.
    pub(crate) fn is_loop_head(&self, block: u32) -> bool {
        self.blocks[block as usize]
            .preds
            .iter()
            .any(|&p| p >= block)
    }

    /// Iterates the instruction indices of reachable blocks in layout
    /// order.
    pub(crate) fn reachable_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(b, _)| self.reachable[*b])
            .flat_map(|(_, blk)| blk.start..blk.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::bytecode::Reg;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut a = Asm::new(0);
        a.li(r(0), 1).li(r(1), 2).halt();
        let cfg = Cfg::build(&a.finish().unwrap());
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].start, 0);
        assert_eq!(cfg.blocks[0].end, 3);
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(cfg.reachable[0]);
    }

    #[test]
    fn loop_has_back_edge_and_loop_head() {
        let mut a = Asm::new(0);
        a.li(r(0), 0).li(r(1), 10);
        a.label("loop");
        a.addi(r(0), r(0), 1);
        a.bltu(r(0), r(1), "loop");
        a.halt();
        let cfg = Cfg::build(&a.finish().unwrap());
        // Blocks: [li,li] [addi(li+add),bltu] [halt].
        assert_eq!(cfg.blocks.len(), 3);
        let head = cfg.block_of[2];
        assert!(cfg.is_loop_head(head));
        assert!(!cfg.is_loop_head(0));
        // The loop block's successors: itself and the halt block.
        let loop_block = &cfg.blocks[head as usize];
        assert!(loop_block.succs.contains(&head));
        assert!(cfg.reachable.iter().all(|&b| b));
    }

    #[test]
    fn code_after_halt_is_unreachable() {
        let mut a = Asm::new(0);
        a.li(r(0), 1);
        a.halt();
        a.li(r(0), 99); // Dead.
        a.halt();
        let cfg = Cfg::build(&a.finish().unwrap());
        assert_eq!(cfg.blocks.len(), 2);
        assert!(cfg.reachable[0]);
        assert!(!cfg.reachable[1]);
        assert_eq!(cfg.reachable_pcs().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn jr_degenerates_to_single_instruction_blocks() {
        let mut a = Asm::new(0);
        a.raw(Insn::MaskCode { r: r(1) });
        a.jr(r(1));
        a.halt();
        let cfg = Cfg::build(&a.finish().unwrap());
        assert_eq!(cfg.blocks.len(), 3);
        // The Jr block reaches every block.
        let jr_block = &cfg.blocks[cfg.block_of[1] as usize];
        assert_eq!(jr_block.succs.len(), 3);
        assert!(cfg.reachable.iter().all(|&b| b));
    }

    #[test]
    fn branch_targets_split_blocks() {
        let mut a = Asm::new(0);
        a.li(r(0), 0);
        a.jmp("target");
        a.li(r(0), 1); // Unreachable block.
        a.label("target");
        a.li(r(0), 2);
        a.halt();
        let cfg = Cfg::build(&a.finish().unwrap());
        assert_eq!(cfg.blocks.len(), 3);
        assert!(!cfg.reachable[cfg.block_of[2] as usize]);
        assert!(cfg.reachable[cfg.block_of[3] as usize]);
    }
}
