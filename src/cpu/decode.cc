/**
 * @file
 * Generic operand decoder for all 16 VAX addressing modes.
 *
 * The decoder is side-effect free with respect to architectural
 * registers: addressing side effects (autoincrement/autodecrement)
 * are applied to a working copy committed only after the whole
 * instruction has decoded and executed, which makes every fault
 * restartable.  Write and modify operands are access-validated during
 * decode so the execute phase's stores cannot fault.
 *
 * Decoding is allocation-free: the specifier recursion (index mode
 * nests one level) is a plain member function of DecodeContext, and
 * the result lands in the CPU's reusable Decoded scratch object.
 * Instruction-stream bytes come from a zero-copy instruction window
 * when possible (a host pointer straight into the RAM page the PC
 * sits in, re-derived each instruction so TLB and MAPEN changes can
 * never be missed) and otherwise go through the MMU's virtual
 * accessors, which keep the architectural counters bit-identical
 * either way.
 */

#include "cpu/cpu.h"

namespace vvax {

namespace {

constexpr Longword
sext8(Byte b)
{
    return static_cast<Longword>(static_cast<std::int32_t>(
        static_cast<std::int8_t>(b)));
}

constexpr Longword
sext16(Word w)
{
    return static_cast<Longword>(static_cast<std::int32_t>(
        static_cast<std::int16_t>(w)));
}

constexpr Longword
sizeBytes(OpSize s)
{
    return static_cast<Longword>(s);
}

} // namespace

/**
 * One instruction's worth of decoding state: the stream cursor, the
 * access mode, and references into the CPU.  Lives on the stack of
 * Cpu::decode(); all specifier work is plain member-function calls.
 */
class DecodeContext
{
  public:
    DecodeContext(Cpu &cpu, Cpu::Decoded &d)
        : cpu_(cpu), mmu_(cpu.mmu_), d_(d), cursor_(cpu.regs_[PC]),
          mode_(cpu.psl_.currentMode())
    {
    }

    void
    run()
    {
        d_.regsAfter = cpu_.regs_scratch_;
        std::memcpy(d_.regsAfter, cpu_.regs_, sizeof(Longword) * kNumRegs);
        d_.extraCharge = 0;
        d_.suppressBase = false;

        if (cpu_.icache_.empty())
            cpu_.icache_.resize(Cpu::kICacheEntries);
        PredecodedInstr &slot =
            cpu_.icache_[Cpu::icacheIndex(cursor_)];
        if (slot.pc == cursor_ && tryReplay(slot))
            return;

        const VirtAddr pc = cursor_;

        Word opcode = fetch8();
        if (opcode == 0xFD)
            opcode = 0xFD00 | fetch8();
        d_.opcode = opcode;
        d_.info = instrInfo(opcode);
        if (!d_.info)
            throw GuestFault::simple(ScbVector::ReservedInstruction);

        for (int i = 0; i < d_.info->nOperands; ++i) {
            DecodedOperand &op = d_.operands[i];
            op = DecodedOperand{};
            op.access = d_.info->operands[i].access;
            op.size = d_.info->operands[i].size;
            if (op.access == OpAccess::Branch) {
                Longword disp;
                if (op.size == OpSize::B)
                    disp = sext8(fetch8());
                else
                    disp = sext16(fetch16());
                op.value = cursor_ + disp; // branch target
            } else {
                decodeSpecifier(op, /*allow_index=*/true);
            }
        }

        d_.nextPc = cursor_;
        record(slot, pc);
    }

  private:
    /**
     * Sentinel for "no window": not page-aligned, so it can never
     * compare equal to (va & ~kPageOffsetMask).
     */
    static constexpr VirtAddr kNoWindow = ~VirtAddr{0};

    /**
     * Point the window at @p va's page if the MMU allows it, without
     * touching any counter.  Unmapped: a host pointer straight into
     * RAM (counter-free either way).  Mapped: latch the TLB entry -
     * the window then stands in for a translate-per-fetch, so each
     * window fetch must count one TLB hit (see windowHit()).  The
     * entry can be evicted mid-decode by an operand-access walk that
     * conflicts in the direct-mapped TLB, which windowHit() detects
     * by the tag; its permissions cannot change while the tag
     * matches, because decoding performs no TLB maintenance and no
     * stores, and a modify-bit re-insert keeps pfn and read rights.
     */
    bool
    refillWindow(VirtAddr va)
    {
        win_entry_ = nullptr;
        if (const Byte *base = mmu_.instrPage(va)) {
            win_base_ = base;
            win_page_ = va & ~kPageOffsetMask;
            return true;
        }
        if (Tlb::Entry *e = mmu_.tlbLookup(va)) {
            if (e->hostPage &&
                (e->permMask & Tlb::permBit(mode_, AccessType::Read))) {
                win_entry_ = e;
                win_tag_ = e->tag;
                win_base_ = e->hostPage;
                win_page_ = va & ~kPageOffsetMask;
                return true;
            }
        }
        win_page_ = kNoWindow;
        return false;
    }

    /** refillWindow() plus the TLB-hit count a mapped latch implies. */
    bool
    refillWindowCounted(VirtAddr va)
    {
        if (!refillWindow(va))
            return false;
        if (win_entry_)
            cpu_.stats_.tlbHits++;
        return true;
    }

    /**
     * True when @p va can be served from the window; counts the TLB
     * hit for mapped windows (exactly what readV* would count).
     */
    bool
    windowHit(VirtAddr va)
    {
        if ((va & ~kPageOffsetMask) != win_page_)
            return false;
        if (win_entry_) {
            if (win_entry_->tag != win_tag_) { // evicted mid-decode
                win_page_ = kNoWindow;
                return false;
            }
            cpu_.stats_.tlbHits++;
        }
        return true;
    }

    Byte
    fetch8()
    {
        if (windowHit(cursor_) || refillWindowCounted(cursor_)) {
            const Byte b = win_base_[cursor_ & kPageOffsetMask];
            cursor_ += 1;
            return b;
        }
        const Byte b = mmu_.readV8(cursor_, mode_);
        refillWindow(cursor_); // the read filled the TLB; latch uncounted
        cursor_ += 1;
        return b;
    }

    Word
    fetch16()
    {
        if ((cursor_ & kPageOffsetMask) <= kPageSize - 2 &&
            (windowHit(cursor_) || refillWindowCounted(cursor_))) {
            Word w;
            std::memcpy(&w, win_base_ + (cursor_ & kPageOffsetMask), 2);
            cursor_ += 2;
            return w;
        }
        const Word w = mmu_.readV16(cursor_, mode_);
        cursor_ += 2;
        return w;
    }

    Longword
    fetch32()
    {
        if ((cursor_ & kPageOffsetMask) <= kPageSize - 4 &&
            (windowHit(cursor_) || refillWindowCounted(cursor_))) {
            Longword l;
            std::memcpy(&l, win_base_ + (cursor_ & kPageOffsetMask), 4);
            cursor_ += 4;
            return l;
        }
        const Longword l = mmu_.readV32(cursor_, mode_);
        cursor_ += 4;
        return l;
    }

    // ----- Predecoded-instruction cache -----------------------------

    /**
     * Replay @p ci for the instruction at the cursor.  Returns false
     * (leaving no observable trace) when the entry cannot be used:
     * the window will not latch, the instruction straddles the page,
     * or the live bytes differ from the recorded ones.  On success the
     * template replay (Cpu::replayTemplate) performs exactly the data
     * accesses, register side effects and tlbHits updates the
     * byte-level decode would, in the same order.
     */
    bool
    tryReplay(PredecodedInstr &ci)
    {
        const VirtAddr pc = cursor_;
        if (!refillWindow(pc))
            return false;
        const Longword off = pc & kPageOffsetMask;
        if (off + ci.len > kPageSize)
            return false;
        // Revalidate the live bytes (self-modified or remapped code
        // falls back to a full decode, which re-records).
        if (ci.fastMask != 0 && off + 8 <= kPageSize) {
            std::uint64_t live;
            std::memcpy(&live, win_base_ + off, 8);
            if ((live & ci.fastMask) != ci.fastBytes)
                return false;
        } else if (std::memcmp(win_base_ + off, ci.bytes.data(),
                               ci.len) != 0) {
            return false;
        }

        cpu_.replayTemplate(ci, pc, win_entry_ != nullptr, d_);
        cursor_ = pc + ci.len;
        return true;
    }

    /**
     * After a successful full decode of the instruction at @p pc,
     * capture its bytes and operand template into @p slot when it is
     * single-page, short enough, and the window covers it.  The
     * template is rebuilt from the captured bytes, so the entry is
     * self-consistent even if the page changed under the decode.
     */
    void
    record(PredecodedInstr &slot, VirtAddr pc)
    {
        const Longword len = d_.nextPc - pc;
        const Longword off = pc & kPageOffsetMask;
        if (len == 0 || len > PredecodedInstr::kMaxBytes ||
            off + len > kPageSize)
            return;
        if ((pc & ~kPageOffsetMask) != win_page_ ||
            (win_entry_ && win_entry_->tag != win_tag_))
            return; // window unavailable: fetched via readV*
        slot.pc = ~VirtAddr{0};
        slot.len = static_cast<Byte>(len);
        std::memcpy(slot.bytes.data(), win_base_ + off, len);
        slot.fastMask = 0;
        if (len <= 8) {
            slot.fastMask = len == 8
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << (8 * len)) - 1;
            std::uint64_t b = 0;
            std::memcpy(&b, slot.bytes.data(), len);
            slot.fastBytes = b;
        }
        if (predecode(slot, pc))
            slot.pc = pc;
    }

    /**
     * Build the operand template from slot.bytes.  Pure function of
     * the bytes (PC-relative forms fold to absolute addresses using
     * @p pc); returns false when the instruction is not
     * representable.  Must consume exactly slot.len bytes.
     */
    static bool
    predecode(PredecodedInstr &slot, VirtAddr pc)
    {
        const Byte *b = slot.bytes.data();
        int pos = 0;
        Word opcode = b[pos++];
        slot.opcodeFetches = 1;
        if (opcode == 0xFD) {
            opcode = 0xFD00 | b[pos++];
            slot.opcodeFetches = 2;
        }
        slot.opcode = opcode;
        slot.info = instrInfo(opcode);
        if (!slot.info)
            return false;

        for (int i = 0; i < slot.info->nOperands; ++i) {
            PredecodedOp &t = slot.ops[i];
            t = PredecodedOp{};
            const OperandSpec &spec = slot.info->operands[i];
            if (spec.access == OpAccess::Branch) {
                t.kind = PdKind::Branch;
                t.fetches = 1;
                Longword disp;
                if (spec.size == OpSize::B) {
                    if (pos + 1 > slot.len)
                        return false;
                    disp = sext8(b[pos]);
                    pos += 1;
                } else {
                    if (pos + 2 > slot.len)
                        return false;
                    Word w;
                    std::memcpy(&w, b + pos, 2);
                    disp = sext16(w);
                    pos += 2;
                }
                t.disp = pc + pos + disp; // branch target
                continue;
            }
            if (!predecodeSpecifier(t, b, pos, slot.len, pc, spec.size,
                                    /*allow_index=*/true))
                return false;
        }
        return pos == slot.len;
    }

    /** One specifier for predecode(); mirrors decodeSpecifier(). */
    static bool
    predecodeSpecifier(PredecodedOp &t, const Byte *b, int &pos,
                       int len, VirtAddr pc, OpSize size,
                       bool allow_index)
    {
        if (pos + 1 > len)
            return false;
        const Byte spec = b[pos++];
        const Byte rn = spec & 0xF;
        const Byte m = spec >> 4;
        t.reg = rn;
        t.fetches++;

        auto le16 = [&](int p) {
            Word w;
            std::memcpy(&w, b + p, 2);
            return w;
        };
        auto le32 = [&](int p) {
            Longword l;
            std::memcpy(&l, b + p, 4);
            return l;
        };

        switch (m) {
          case 0x0: case 0x1: case 0x2: case 0x3:
            t.kind = PdKind::Literal;
            t.disp = spec & 0x3F;
            return true;
          case 0x4: { // index [Rx]: base specifier follows
            if (!allow_index)
                return false;
            const Byte idx = rn;
            if (!predecodeSpecifier(t, b, pos, len, pc, size,
                                    /*allow_index=*/false))
                return false;
            // The base must be a memory-addressing form.
            if (t.kind == PdKind::Literal ||
                t.kind == PdKind::Immediate ||
                t.kind == PdKind::Register)
                return false;
            t.indexReg = idx;
            return true;
          }
          case 0x5:
            t.kind = PdKind::Register;
            return true;
          case 0x6:
            t.kind = PdKind::RegDeferred;
            return true;
          case 0x7:
            t.kind = PdKind::AutoDec;
            return true;
          case 0x8:
            if (rn == PC) { // immediate
                t.kind = PdKind::Immediate;
                t.off = static_cast<Byte>(pos);
                switch (size) {
                  case OpSize::B:
                    if (pos + 1 > len)
                        return false;
                    t.disp = b[pos];
                    pos += 1;
                    t.fetches++;
                    break;
                  case OpSize::W:
                    if (pos + 2 > len)
                        return false;
                    t.disp = le16(pos);
                    pos += 2;
                    t.fetches++;
                    break;
                  case OpSize::L:
                    if (pos + 4 > len)
                        return false;
                    t.disp = le32(pos);
                    pos += 4;
                    t.fetches++;
                    break;
                  case OpSize::Q:
                    if (pos + 8 > len)
                        return false;
                    t.disp = le32(pos);
                    t.imm2 = le32(pos + 4);
                    pos += 8;
                    t.fetches += 2;
                    break;
                }
                return true;
            }
            t.kind = PdKind::AutoInc;
            return true;
          case 0x9:
            if (rn == PC) { // absolute
                if (pos + 4 > len)
                    return false;
                t.kind = PdKind::Absolute;
                t.disp = le32(pos);
                pos += 4;
                t.fetches++;
                return true;
            }
            t.kind = PdKind::AutoIncDeferred;
            return true;
          case 0xA: case 0xB: case 0xC: case 0xD: case 0xE:
          case 0xF: {
            Longword disp;
            if (m <= 0xB) {
                if (pos + 1 > len)
                    return false;
                disp = sext8(b[pos]);
                pos += 1;
            } else if (m <= 0xD) {
                if (pos + 2 > len)
                    return false;
                disp = sext16(le16(pos));
                pos += 2;
            } else {
                if (pos + 4 > len)
                    return false;
                disp = le32(pos);
                pos += 4;
            }
            t.fetches++;
            const bool deferred = (m & 1) != 0;
            if (rn == PC) {
                // PC-relative: the base is the cursor after the
                // displacement, a constant for these bytes.
                t.kind = deferred ? PdKind::AbsoluteDeferred
                                  : PdKind::Absolute;
                t.disp = pc + pos + disp;
            } else {
                t.kind = deferred ? PdKind::DispDeferred
                                  : PdKind::Disp;
                t.disp = disp;
            }
            return true;
          }
        }
        return false;
    }

    Longword
    fetchValue(VirtAddr addr, OpSize size)
    {
        return cpu_.fetchOperandValue(addr, size, mode_);
    }

    void
    validateWrite(VirtAddr addr, OpSize size)
    {
        cpu_.validateOperandWrite(addr, size, mode_);
    }

    /**
     * Decode one operand specifier into @p op.  @p allow_index guards
     * against index-mode recursion ([Rx] base must itself be a
     * memory-addressing specifier).
     */
    void
    decodeSpecifier(DecodedOperand &op, bool allow_index)
    {
        const OpSize size = op.size;
        const Byte spec = fetch8();
        const Byte rn = spec & 0xF;
        const Byte m = spec >> 4;

        switch (m) {
          case 0x0: case 0x1: case 0x2: case 0x3: // short literal
            if (op.access != OpAccess::Read)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            op.isLiteral = true;
            op.value = spec & 0x3F;
            return;

          case 0x4: { // index [Rx]
            if (!allow_index || rn == PC)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            DecodedOperand base;
            base.access = OpAccess::Address; // EA only for the base
            base.size = size;
            decodeSpecifier(base, /*allow_index=*/false);
            if (base.isRegister || base.isLiteral)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            op.addr = base.addr + d_.regsAfter[rn] * sizeBytes(size);
            break;
          }

          case 0x5: // register
            if (rn == PC || op.access == OpAccess::Address ||
                (size == OpSize::Q && rn >= SP)) {
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            }
            op.isRegister = true;
            op.reg = rn;
            if (op.access == OpAccess::Read ||
                op.access == OpAccess::Modify ||
                op.access == OpAccess::VField) {
                Longword v = d_.regsAfter[rn];
                if (size == OpSize::B)
                    v &= 0xFF;
                else if (size == OpSize::W)
                    v &= 0xFFFF;
                op.value = v;
                if (size == OpSize::Q)
                    op.value2 = d_.regsAfter[rn + 1];
            }
            return;

          case 0x6: // register deferred (Rn)
            if (rn == PC)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            op.addr = d_.regsAfter[rn];
            break;

          case 0x7: // autodecrement -(Rn)
            if (rn == PC)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            d_.regsAfter[rn] -= sizeBytes(size);
            op.addr = d_.regsAfter[rn];
            break;

          case 0x8: // autoincrement (Rn)+ / immediate
            if (rn == PC) {
                if (op.access == OpAccess::Write ||
                    op.access == OpAccess::Modify) {
                    throw GuestFault::simple(
                        ScbVector::ReservedAddressingMode);
                }
                op.isLiteral = true;
                op.addr = cursor_;
                switch (size) {
                  case OpSize::B: op.value = fetch8(); break;
                  case OpSize::W: op.value = fetch16(); break;
                  case OpSize::L: op.value = fetch32(); break;
                  case OpSize::Q:
                    op.value = fetch32();
                    op.value2 = fetch32();
                    break;
                }
                return;
            }
            op.addr = d_.regsAfter[rn];
            d_.regsAfter[rn] += sizeBytes(size);
            break;

          case 0x9: // autoincrement deferred @(Rn)+ / absolute
            if (rn == PC) {
                op.addr = fetch32();
            } else {
                const VirtAddr ptr = d_.regsAfter[rn];
                d_.regsAfter[rn] += 4;
                op.addr = mmu_.readV32(ptr, mode_);
            }
            break;

          case 0xA: case 0xB: { // byte displacement (deferred)
            const Longword disp = sext8(fetch8());
            const Longword base =
                rn == PC ? cursor_ : d_.regsAfter[rn];
            op.addr = base + disp;
            if (m == 0xB)
                op.addr = mmu_.readV32(op.addr, mode_);
            break;
          }
          case 0xC: case 0xD: { // word displacement (deferred)
            const Longword disp = sext16(fetch16());
            const Longword base =
                rn == PC ? cursor_ : d_.regsAfter[rn];
            op.addr = base + disp;
            if (m == 0xD)
                op.addr = mmu_.readV32(op.addr, mode_);
            break;
          }
          case 0xE: case 0xF: { // long displacement (deferred)
            const Longword disp = fetch32();
            const Longword base =
                rn == PC ? cursor_ : d_.regsAfter[rn];
            op.addr = base + disp;
            if (m == 0xF)
                op.addr = mmu_.readV32(op.addr, mode_);
            break;
          }
        }

        // Memory operand: fetch and/or validate now so execution
        // cannot fault after state has been committed.
        switch (op.access) {
          case OpAccess::Read:
            op.value = fetchValue(op.addr, size);
            if (size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode_);
            break;
          case OpAccess::Modify:
            op.value = fetchValue(op.addr, size);
            if (size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode_);
            validateWrite(op.addr, size);
            break;
          case OpAccess::Write:
            validateWrite(op.addr, size);
            break;
          case OpAccess::Address:
          case OpAccess::VField:
            break;
          case OpAccess::Branch:
            break; // handled by the caller
        }
    }

    Cpu &cpu_;
    Mmu &mmu_;
    Cpu::Decoded &d_;
    VirtAddr cursor_;
    const AccessMode mode_;
    // Zero-copy instruction window: host pointer into the RAM page
    // the cursor is fetching from (see refillWindow()).  win_entry_
    // is non-null for mapped windows: the latched TLB entry, checked
    // against win_tag_ on every fetch to detect mid-decode eviction.
    const Byte *win_base_ = nullptr;
    VirtAddr win_page_ = kNoWindow;
    Tlb::Entry *win_entry_ = nullptr;
    std::uint64_t win_tag_ = 0;
};

Cpu::Decoded &
Cpu::decode()
{
    DecodeContext ctx(*this, decode_scratch_);
    ctx.run();
    return decode_scratch_;
}

Longword
Cpu::fetchOperandValue(VirtAddr addr, OpSize size, AccessMode mode)
{
    switch (size) {
      case OpSize::B: return mmu_.readV8(addr, mode);
      case OpSize::W: return mmu_.readV16(addr, mode);
      case OpSize::L:
      case OpSize::Q: return mmu_.readV32(addr, mode);
    }
    return 0;
}

/*
 * Within an operand every stream fetch precedes every data access, so
 * charging the operand's fetch hits up front before its (possibly
 * faulting) memory work preserves counter identity even for
 * instructions that fault mid-decode.  Once an operand has reached
 * memory, the next operand's fetches go through
 * countFetchesAfterAccess: the access may have evicted the code
 * page's TLB entry, and the reference then misses on the next
 * specifier fetch.  The byte validation against
 * the live page is the caller's job (tryReplay for the
 * per-instruction cache, the block entry/generation checks for the
 * superblock executor).
 */
void
Cpu::replayTemplate(const PredecodedInstr &ci, VirtAddr pc, bool mapped,
                    Decoded &d)
{
    const AccessMode mode = psl_.currentMode();
    if (mapped)
        stats_.tlbHits += ci.opcodeFetches;
    d.opcode = ci.opcode;
    d.info = ci.info;
    bool accessed = false; // an earlier operand addressed memory

    for (int i = 0; i < ci.info->nOperands; ++i) {
        const PredecodedOp &t = ci.ops[i];
        DecodedOperand &op = d.operands[i];
        // Scratch reuse: only the routing flags need clearing,
        // every kind below sets the fields it is read through.
        op.isRegister = false;
        op.isLiteral = false;
        op.access = ci.info->operands[i].access;
        op.size = ci.info->operands[i].size;
        if (mapped) {
            if (accessed)
                countFetchesAfterAccess(pc, t.fetches);
            else
                stats_.tlbHits += t.fetches;
        }

        const Longword sb = sizeBytes(op.size);
        VirtAddr addr = 0;
        switch (t.kind) {
          case PdKind::Branch:
            op.value = t.disp;
            continue;
          case PdKind::Literal:
            op.isLiteral = true;
            op.value = t.disp;
            continue;
          case PdKind::Immediate:
            op.isLiteral = true;
            op.addr = pc + t.off;
            op.value = t.disp;
            op.value2 = t.imm2;
            continue;
          case PdKind::Register:
            op.isRegister = true;
            op.reg = t.reg;
            if (op.access == OpAccess::Read ||
                op.access == OpAccess::Modify ||
                op.access == OpAccess::VField) {
                Longword v = d.regsAfter[t.reg];
                if (op.size == OpSize::B)
                    v &= 0xFF;
                else if (op.size == OpSize::W)
                    v &= 0xFFFF;
                op.value = v;
                if (op.size == OpSize::Q)
                    op.value2 = d.regsAfter[t.reg + 1];
            }
            continue;
          case PdKind::RegDeferred:
            addr = d.regsAfter[t.reg];
            break;
          case PdKind::AutoDec:
            d.regsAfter[t.reg] -= sb;
            addr = d.regsAfter[t.reg];
            break;
          case PdKind::AutoInc:
            addr = d.regsAfter[t.reg];
            d.regsAfter[t.reg] += sb;
            break;
          case PdKind::AutoIncDeferred: {
            const VirtAddr ptr = d.regsAfter[t.reg];
            d.regsAfter[t.reg] += 4;
            addr = mmu_.readV32(ptr, mode);
            break;
          }
          case PdKind::Disp:
            addr = d.regsAfter[t.reg] + t.disp;
            break;
          case PdKind::DispDeferred:
            addr = mmu_.readV32(d.regsAfter[t.reg] + t.disp, mode);
            break;
          case PdKind::Absolute:
            addr = t.disp;
            break;
          case PdKind::AbsoluteDeferred:
            addr = mmu_.readV32(t.disp, mode);
            break;
        }
        if (t.indexReg != 0xFF)
            addr += d.regsAfter[t.indexReg] * sb;
        op.addr = addr;
        accessed = true;

        switch (op.access) {
          case OpAccess::Read:
            op.value = fetchOperandValue(op.addr, op.size, mode);
            if (op.size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode);
            break;
          case OpAccess::Modify:
            op.value = fetchOperandValue(op.addr, op.size, mode);
            if (op.size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode);
            validateOperandWrite(op.addr, op.size, mode);
            break;
          case OpAccess::Write:
            validateOperandWrite(op.addr, op.size, mode);
            break;
          case OpAccess::Address:
          case OpAccess::VField:
          case OpAccess::Branch:
            break;
        }
    }

    d.nextPc = pc + ci.len;
}

} // namespace vvax
