/**
 * @file
 * The block executor (docs/ARCHITECTURE.md §5a-§5c): retires cached
 * superblocks through one handler table, and chains block to block
 * through trace links without returning to runBlocks.
 *
 * Each handler body is written once.  The VVAX_TARGET/VVAX_DISPATCH
 * macros (the CPython ceval pattern) turn the table into a
 * computed-goto chain under GCC and Clang - one indirect jump per
 * retired instruction, straight from handler to handler - and into a
 * plain `switch` on any other C++20 compiler.  The builder
 * (block_cache.cc) has already resolved every operand shape into the
 * BlockOp, so the fused bodies are branch-free.
 *
 * Everything architectural must stay bit-identical to the reference
 * interpreter: per-instruction Stats counters and cycle charges
 * (including the timer-off deferred batch, which spans trace-link
 * crossings - legal because ICCS writes stop blocks, so the batching
 * predicate cannot flip mid-chain), the mid-block hazard checks (page
 * generation + byte memcmp after stores, window-TLB tag after any
 * data access, pending-interrupt re-check when the interval timer
 * could fire), and the fault path (flush the retired prefix, then
 * dispatch).  The lockstep suites in tests/test_equivalence.cc pin
 * this against the reference interpreter, with links on and off.
 */

#include <cassert>
#include <cstring>

#include "cpu/cpu.h"

namespace vvax {

#if defined(__GNUC__) // labels-as-values: GCC and Clang
#define VVAX_TARGET(op) L_##op: case BlockOp::op
#define VVAX_DISPATCH() goto *kTargets[static_cast<int>(bi->op)]
#define VVAX_SWITCH() switch (bi->op)
#else
#define VVAX_TARGET(op) case BlockOp::op
#define VVAX_DISPATCH() goto dispatch
#define VVAX_SWITCH()                                                 \
  dispatch:                                                           \
    switch (bi->op)
#endif

/*
 * Per-instruction commit: with the timer off, sum into the deferred
 * batch; with it live, count and charge immediately so ICR advances
 * exactly where the reference path puts it.
 */
#define VVAX_ACCOUNT(charge_v)                                        \
    do {                                                              \
        if (defer) {                                                  \
            ++done;                                                   \
            if (run_state_ != RunState::Halted)                       \
                acc += (charge_v);                                    \
        } else {                                                      \
            stats_.instructions++;                                    \
            stats_.threadedInstructions++;                            \
            if (run_state_ != RunState::Halted)                       \
                chargeCycles(CycleCategory::GuestExec, (charge_v));   \
        }                                                             \
    } while (0)

/* On to the next instruction of the block, or to the block exit. */
#define VVAX_NEXT()                                                   \
    do {                                                              \
        if (++bi == end)                                              \
            goto block_done;                                          \
        instr_pc = regs_[PC];                                         \
        VVAX_DISPATCH();                                              \
    } while (0)

#define VVAX_BAIL(reason)                                             \
    do {                                                              \
        why = BlockBail::reason;                                      \
        goto bail;                                                    \
    } while (0)

/* Epilogue for handlers that cannot touch memory (flags == 0 by
 * construction): only the timer can make an interrupt deliverable. */
#define VVAX_EPI_NOMEM(charge_v)                                      \
    do {                                                              \
        VVAX_ACCOUNT(charge_v);                                       \
        if (timer_live && pendingDeliverable())                       \
            VVAX_BAIL(Interrupt);                                     \
        VVAX_NEXT();                                                  \
    } while (0)

/* Epilogue for loads (kTouchesMem): the data walk may have evicted
 * the window's TLB entry; the reference would then take a TLB miss
 * on the next instruction fetch. */
#define VVAX_EPI_TOUCH(charge_v)                                      \
    do {                                                              \
        VVAX_ACCOUNT(charge_v);                                       \
        if (timer_live && pendingDeliverable())                       \
            VVAX_BAIL(Interrupt);                                     \
        if (win_entry && win_entry->tag != win_tag)                   \
            VVAX_BAIL(TlbEvict);                                      \
        VVAX_NEXT();                                                  \
    } while (0)

/* Epilogue for stores (kWritesMem | kTouchesMem): re-check the page
 * generation (the store may have rewritten this very block), the run
 * state and pending summaries (MMIO can raise device lines
 * synchronously), then the window tag. */
#define VVAX_EPI_WRITE(charge_v)                                      \
    do {                                                              \
        VVAX_ACCOUNT(charge_v);                                       \
        if (*blk->genCell != gen) {                                   \
            if (std::memcmp(blk->hostPage +                           \
                                (blk->pc & kPageOffsetMask),          \
                            blk->bytes.data(), blk->byteLen) != 0)    \
                VVAX_BAIL(Smc);                                       \
            gen = *blk->genCell;                                      \
            blk->validGen = gen; /* bytes re-validated just now */    \
        }                                                             \
        if (run_state_ != RunState::Running || pendingDeliverable())  \
            VVAX_BAIL(Interrupt);                                     \
        if (win_entry && win_entry->tag != win_tag)                   \
            VVAX_BAIL(TlbEvict);                                      \
        VVAX_NEXT();                                                  \
    } while (0)

#define VVAX_FETCHES()                                                \
    do {                                                              \
        if (mapped)                                                   \
            stats_.tlbHits += bi->fetchesPre;                         \
    } while (0)

#define VVAX_OVERFLOW_TRAP()                                          \
    do {                                                              \
        if (psl_.v() && psl_.flag(Psl::kIv)) {                        \
            throw GuestFault::withParam(ScbVector::Arithmetic,        \
                                        arithcode::kIntegerOverflow,  \
                                        /*abort=*/false);             \
        }                                                             \
    } while (0)

/* Branch epilogue: branches are always block-final, so the handler
 * names the trace-link slot the architectural successor belongs in. */
#define VVAX_BRANCH(takenexpr)                                        \
    do {                                                              \
        const bool taken = (takenexpr);                               \
        regs_[PC] = taken ? static_cast<VirtAddr>(bi->imm)            \
                          : instr_pc + bi->len;                       \
        exit_kind = taken ? BlockExit::Taken : BlockExit::Fall;       \
    } while (0)

#define VVAX_CONDBR(op, expr)                                         \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        VVAX_BRANCH(expr);                                            \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

/* Dyadic ALU families, source pre-resolved as a register or an
 * immediate. */
#define VVAX_ADD(op, srcexpr)                                         \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const Longword a = (srcexpr);                                 \
        const Longword b = regs_[bi->b];                              \
        const Longword sum = a + b;                                   \
        regs_[bi->b] = sum;                                           \
        regs_[PC] = instr_pc + bi->len;                               \
        psl_.setNzvc((sum & 0x80000000u) != 0, sum == 0,              \
                     addOverflows(a, b, sum), sum < a);               \
        VVAX_OVERFLOW_TRAP();                                         \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

#define VVAX_SUB(op, srcexpr)                                         \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const Longword sub = (srcexpr);                               \
        const Longword min = regs_[bi->b];                            \
        const Longword dif = min - sub;                               \
        regs_[bi->b] = dif;                                           \
        regs_[PC] = instr_pc + bi->len;                               \
        psl_.setNzvc((dif & 0x80000000u) != 0, dif == 0,              \
                     subOverflows(min, sub, dif), min < sub);         \
        VVAX_OVERFLOW_TRAP();                                         \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

#define VVAX_LOGIC(op, rexpr)                                         \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const Longword r = (rexpr);                                   \
        regs_[bi->b] = r;                                             \
        regs_[PC] = instr_pc + bi->len;                               \
        setCcLogical(r, OpSize::L);                                   \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

#define VVAX_CMP(op, xexpr, yexpr)                                    \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const Longword x = (xexpr);                                   \
        const Longword y = (yexpr);                                   \
        regs_[PC] = instr_pc + bi->len;                               \
        psl_.setNzvc(static_cast<std::int32_t>(x) <                   \
                         static_cast<std::int32_t>(y),                \
                     x == y, false, x < y);                           \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

#define VVAX_SOB(op, takenexpr)                                       \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const Longword orig = regs_[bi->a];                           \
        const Longword index = orig - 1;                              \
        regs_[bi->a] = index;                                         \
        const auto si = static_cast<std::int32_t>(index);             \
        VVAX_BRANCH(takenexpr);                                       \
        psl_.setNzvc(si < 0, si == 0, subOverflows(orig, 1, index),   \
                     psl_.c());                                       \
        VVAX_OVERFLOW_TRAP();                                         \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

#define VVAX_BLB(op, takenexpr)                                       \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const bool bit = (regs_[bi->a] & 1) != 0;                     \
        VVAX_BRANCH(takenexpr);                                       \
        VVAX_EPI_NOMEM(bi->charge);                                   \
    }

/* MOVL mem, Rd: the destination specifier is fetched after the
 * load, which may have evicted the code page's TLB entry. */
#define VVAX_MOVMR(op, addrexpr)                                      \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const Longword v = mmu_.readV32((addrexpr), mode);            \
        if (mapped)                                                   \
            countFetchesAfterAccess(instr_pc, bi->fetchesPost);       \
        regs_[bi->a] = v;                                             \
        regs_[PC] = instr_pc + bi->len;                               \
        setCcLogical(v, OpSize::L);                                   \
        VVAX_EPI_TOUCH(bi->charge);                                   \
    }

#define VVAX_MOVXM(op, addrexpr, valexpr)                             \
    VVAX_TARGET(op) : {                                               \
        VVAX_FETCHES();                                               \
        const VirtAddr addr = (addrexpr);                             \
        validateOperandWrite(addr, OpSize::L, mode);                  \
        const Longword v = (valexpr);                                 \
        mmu_.writeV32(addr, v, mode);                                 \
        regs_[PC] = instr_pc + bi->len;                               \
        setCcLogical(v, OpSize::L);                                   \
        VVAX_EPI_WRITE(bi->charge);                                   \
    }

/*
 * Retire @p blk, then keep following trace links (Threaded tier) for
 * as long as they validate.  Invariants the builder established: no
 * instruction in a block can change IPL, mode, mapping, TLB context
 * or ICCS (those opcodes stop translation), so the pending-interrupt
 * check hoists to the block edges - re-armed mid-block only after the
 * events that can create a deliverable interrupt: a store (MMIO can
 * raise a device line synchronously; any store can also overwrite the
 * block's own code, hence the generation re-check) and, when the
 * interval timer could fire within this block's worst-case charge,
 * any instruction at all.  Likewise the instruction bytes were
 * memcmp-validated at entry, so per-instruction revalidation drops
 * out.
 *
 * The return value reports how the last block entered ended, and
 * @p blk_ref names that block, so runBlocks can form the next link:
 * Taken/Fall only when every instruction retired and the final
 * control transfer's direction is known; Bailed on any abnormal exit
 * (fault, mid-block hazard, budget cut).
 */
Cpu::BlockExit
Cpu::executeBlock(Block *&blk_ref, Tlb::Entry *win_entry,
                  std::uint64_t limit)
{
#if defined(__GNUC__)
    // Handler addresses in BlockOp order; static because label
    // addresses are stable for the process lifetime.
    static const void *const kTargets[] = {
#define VVAX_BLOCK_OP_LABEL(name) &&L_##name,
        VVAX_BLOCK_OPS(VVAX_BLOCK_OP_LABEL)
#undef VVAX_BLOCK_OP_LABEL
    };
#endif

    Block *blk = blk_ref;
    // Invariants hoisted per chain: no in-block opcode can change the
    // mode or ICCS, so the current mode and the batching predicate
    // are stable across every trace-link crossing.
    const AccessMode mode = psl_.currentMode();
    const bool links = exec_tier_ == ExecTier::Threaded;
    // Timer-off accounting batch.  With ICCS<RUN> clear, advanceTimer
    // only ever sums into TODR and the cycle counters - commutative,
    // so retiring a run of instructions and charging once at every
    // exit is bit-identical to per-instruction accounting.  With the
    // timer running, ICR must advance per instruction so a reload
    // lands exactly where the reference puts it.
    const bool defer = !(iccs_ & iccs::kRun);
    int done = 0;   // instructions retired but not yet counted
    Cycles acc = 0; // their cycle charges, not yet applied
    const auto flush = [&] {
        stats_.instructions += static_cast<std::uint64_t>(done);
        stats_.threadedInstructions += static_cast<std::uint64_t>(done);
        done = 0;
        if (acc != 0) {
            chargeCycles(CycleCategory::GuestExec, acc);
            acc = 0;
        }
    };

    // Per-block state, (re)established at `enter` for every block in
    // the chain.  Declared up front: the computed gotos and the
    // chain-crossing `goto enter` must not jump over initializations.
    const BlockInstr *bi = nullptr;
    const BlockInstr *end = nullptr;
    bool mapped = false;
    std::uint64_t win_tag = 0;
    bool timer_live = false;
    std::uint32_t gen = 0;
    BlockExit exit_kind = BlockExit::Fall;
    bool truncated = false;
    BlockBail why = BlockBail::Fault;
    VirtAddr instr_pc = 0;

    try {
    enter:
        blk->runs++;
        stats_.threadedExecutions++;
        mapped = win_entry != nullptr;
        win_tag = mapped ? win_entry->tag : 0;
        // Can the timer fire inside this block?  icr_ only moves by
        // our own charges, and totalCharge bounds them.
        timer_live =
            (iccs_ & iccs::kRun) &&
            icr_ + static_cast<std::int64_t>(blk->totalCharge) >= 0;
        gen = *blk->genCell;
        // Everything that is not a fused branch (fall-through into
        // the next PC, or a Generic block-final transfer like JSB/
        // RSB/JMP/CASE whose target is data-dependent) uses the Fall
        // slot as a monomorphic inline cache keyed by the PC.
        exit_kind = BlockExit::Fall;
        {
            // Remaining budget; the deferred batch is still on the
            // books, so it counts against the limit here.  Callers
            // guarantee at least one instruction remains.
            const std::uint64_t remaining =
                limit - stats_.instructions -
                static_cast<std::uint64_t>(done);
            int n = blk->count;
            truncated = remaining < static_cast<std::uint64_t>(n);
            if (truncated)
                n = static_cast<int>(remaining);
            assert(n > 0);
            bi = blk->instrs.data();
            end = bi + n;
        }
        instr_pc = regs_[PC];
        VVAX_DISPATCH();

        VVAX_SWITCH()
        {
        VVAX_TARGET(Generic) : {
            Decoded &d = decode_scratch_;
            d.regsAfter = regs_scratch_;
            std::memcpy(d.regsAfter, regs_, sizeof(Longword) * kNumRegs);
            d.extraCharge = 0;
            d.suppressBase = false;
            replayTemplate(blk->tmpls[bi->tmplIndex], instr_pc, mapped,
                           d);
            execute(d);
            Cycles charge = d.extraCharge;
            if (!d.suppressBase) {
                charge +=
                    d.info->baseCycles * cost_.instructionScalePct / 100;
            }
            // Hazard flags are dynamic only here: fused ops bake
            // their epilogue into the handler.
            if (bi->flags & BlockInstr::kWritesMem)
                VVAX_EPI_WRITE(charge);
            if (bi->flags & BlockInstr::kTouchesMem)
                VVAX_EPI_TOUCH(charge);
            VVAX_EPI_NOMEM(charge);
        }

        VVAX_TARGET(MovRR) : {
            VVAX_FETCHES();
            const Longword v = regs_[bi->a];
            regs_[bi->b] = v;
            regs_[PC] = instr_pc + bi->len;
            setCcLogical(v, OpSize::L);
            VVAX_EPI_NOMEM(bi->charge);
        }
        VVAX_TARGET(MovIR) : {
            VVAX_FETCHES();
            const Longword v = bi->imm;
            regs_[bi->b] = v;
            regs_[PC] = instr_pc + bi->len;
            setCcLogical(v, OpSize::L);
            VVAX_EPI_NOMEM(bi->charge);
        }

        VVAX_MOVMR(MovMRreg, regs_[bi->b] + bi->imm)
        VVAX_MOVMR(MovMRabs, static_cast<VirtAddr>(bi->imm))
        VVAX_MOVXM(MovRMreg, regs_[bi->b] + bi->imm, regs_[bi->a])
        VVAX_MOVXM(MovRMabs, static_cast<VirtAddr>(bi->imm), regs_[bi->a])
        VVAX_MOVXM(MovIMreg, regs_[bi->b] + bi->imm, bi->imm2)
        VVAX_MOVXM(MovIMabs, static_cast<VirtAddr>(bi->imm), bi->imm2)

        VVAX_TARGET(ClrR) : {
            VVAX_FETCHES();
            regs_[bi->b] = 0;
            regs_[PC] = instr_pc + bi->len;
            psl_.setNzvc(false, true, false, psl_.c());
            VVAX_EPI_NOMEM(bi->charge);
        }
        VVAX_TARGET(TstR) : {
            VVAX_FETCHES();
            const Longword v = regs_[bi->a];
            regs_[PC] = instr_pc + bi->len;
            setCcLogical(v, OpSize::L);
            psl_.setFlag(Psl::kC, false);
            VVAX_EPI_NOMEM(bi->charge);
        }
        VVAX_TARGET(IncR) : {
            VVAX_FETCHES();
            const Longword a = regs_[bi->b];
            const Longword r = a + 1;
            regs_[bi->b] = r;
            regs_[PC] = instr_pc + bi->len;
            psl_.setNzvc((r & 0x80000000u) != 0, r == 0,
                         addOverflows(a, 1, r), r < a);
            VVAX_OVERFLOW_TRAP();
            VVAX_EPI_NOMEM(bi->charge);
        }
        VVAX_TARGET(DecR) : {
            VVAX_FETCHES();
            const Longword a = regs_[bi->b];
            const Longword r = a - 1;
            regs_[bi->b] = r;
            regs_[PC] = instr_pc + bi->len;
            psl_.setNzvc((r & 0x80000000u) != 0, r == 0,
                         subOverflows(a, 1, r), a < 1);
            VVAX_OVERFLOW_TRAP();
            VVAX_EPI_NOMEM(bi->charge);
        }

        VVAX_ADD(AddRR, regs_[bi->a])
        VVAX_ADD(AddIR, bi->imm)
        VVAX_SUB(SubRR, regs_[bi->a])
        VVAX_SUB(SubIR, bi->imm)
        VVAX_LOGIC(BisRR, regs_[bi->a] | regs_[bi->b])
        VVAX_LOGIC(BisIR, bi->imm | regs_[bi->b])
        VVAX_LOGIC(BicRR, ~regs_[bi->a] & regs_[bi->b])
        VVAX_LOGIC(BicIR, ~bi->imm & regs_[bi->b])
        VVAX_LOGIC(XorRR, regs_[bi->a] ^ regs_[bi->b])
        VVAX_LOGIC(XorIR, bi->imm ^ regs_[bi->b])
        VVAX_CMP(CmpRR, regs_[bi->a], regs_[bi->b])
        VVAX_CMP(CmpIR, bi->imm, regs_[bi->b])
        VVAX_CMP(CmpRI, regs_[bi->a], bi->imm)

        VVAX_CONDBR(Bra, true)
        VVAX_CONDBR(Bneq, !psl_.z())
        VVAX_CONDBR(Beql, psl_.z())
        VVAX_CONDBR(Bgtr, !(psl_.n() || psl_.z()))
        VVAX_CONDBR(Bleq, psl_.n() || psl_.z())
        VVAX_CONDBR(Bgeq, !psl_.n())
        VVAX_CONDBR(Blss, psl_.n())
        VVAX_CONDBR(Bgtru, !(psl_.c() || psl_.z()))
        VVAX_CONDBR(Blequ, psl_.c() || psl_.z())
        VVAX_CONDBR(Bvc, !psl_.v())
        VVAX_CONDBR(Bvs, psl_.v())
        VVAX_CONDBR(Bcc, !psl_.c())
        VVAX_CONDBR(Bcs, psl_.c())

        VVAX_SOB(SobGeq, si >= 0)
        VVAX_SOB(SobGtr, si > 0)
        VVAX_BLB(Blbc, !bit)
        VVAX_BLB(Blbs, bit)
        }

    block_done:
        if (truncated)
            VVAX_BAIL(Budget); // out of instruction budget mid-block
        {
            // Chain block -> block through the trace links: stop on
            // anything deliverable, score the lastDir prediction,
            // then re-run followLink's full guard set.
            if (run_state_ != RunState::Running || pendingDeliverable()) {
                flush();
                blk_ref = blk;
                return exit_kind;
            }
            const int slot = exit_kind == BlockExit::Taken
                                 ? Block::kLinkTaken
                                 : Block::kLinkFall;
            if (static_cast<int>(blk->lastDir) != slot)
                stats_.traceLinkMispredicts++;
            Block *next = nullptr;
            Tlb::Entry *nentry = nullptr;
            const bool chained =
                links &&
                stats_.instructions + static_cast<std::uint64_t>(done) <
                    limit &&
                followLink(*blk, &next, &nentry);
            blk->lastDir = static_cast<Byte>(slot);
            if (!chained) {
                flush();
                blk_ref = blk;
                return exit_kind;
            }
            blk = next;
            win_entry = nentry;
        }
        goto enter;

    bail:
        // A store changed the block's own bytes (stop before the stale
        // tail; the slow path re-validates and rebuilds), a hazard
        // made an interrupt deliverable, a data walk evicted the
        // window's TLB entry, or the budget ran out.
        flush();
        blk->bails[static_cast<int>(why)]++;
        stats_.threadedBails++;
        blk_ref = blk;
        return BlockExit::Bailed;
    } catch (const GuestFault &fault) {
        // The faulting instruction never entered the batch; the
        // retired prefix must be on the books before the fault
        // dispatch charges its own cycles.
        flush();
        dispatchFault(fault, instr_pc, regs_[PC]);
        blk->bails[static_cast<int>(BlockBail::Fault)]++;
        stats_.threadedBails++;
        blk_ref = blk;
        return BlockExit::Bailed;
    }
}

} // namespace vvax
