/**
 * @file
 * The mg5 guest ISA ("MRV"): a 64-bit RISC with fixed 8-byte
 * instruction words.
 *
 * The ISA follows gem5's decomposition: raw machine words are decoded
 * into StaticInst objects; CPU models execute them through an abstract
 * ExecContext so one instruction definition serves the Atomic, Timing,
 * Minor, and O3 CPUs. Per-opcode execute() specializations are
 * instrumented individually (FuncKind::InstExecute), modeling the way
 * gem5's generated per-instruction classes blow up the code footprint.
 *
 * Encoding (64-bit word):
 *   [63:56] opcode   [55:48] rd   [47:40] rs1   [39:32] rs2
 *   [31:0]  imm (signed 32-bit)
 */

#ifndef G5P_ISA_INST_HH
#define G5P_ISA_INST_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hh"

namespace g5p::isa
{

/** Size of one encoded instruction in guest memory. */
constexpr unsigned instBytes = 8;

/** Number of architectural integer registers (x0 hardwired to 0). */
constexpr unsigned numArchRegs = 32;

/** Guest ABI register assignments (RISC-V-like). */
enum AbiReg : RegIndex
{
    RegZero = 0,  ///< always zero
    RegRa   = 1,  ///< return address
    RegSp   = 2,  ///< stack pointer
    RegA0   = 10, ///< arg0 / return value
    RegA1   = 11,
    RegA2   = 12,
    RegA3   = 13,
    RegA7   = 17, ///< syscall number
    RegT0   = 5,
    RegT1   = 6,
    RegT2   = 7,
    RegS0   = 8,
    RegS1   = 9,
    RegT3   = 28,
    RegT4   = 29,
    RegT5   = 30,
    RegT6   = 31,
};

/** All guest opcodes. */
enum class Opcode : std::uint8_t
{
    // Integer ALU, register-register.
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    // Integer ALU, register-immediate.
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Lui,
    // Multiply / divide.
    Mul, Mulh, Div, Rem,
    // Floating point (operates on the integer file, double bits).
    Fadd, Fsub, Fmul, Fdiv,
    // Loads.
    Lb, Lh, Lw, Ld, Lbu, Lhu, Lwu,
    // Stores.
    Sb, Sh, Sw, Sd,
    // Control.
    Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr,
    // System.
    Ecall, Halt, Nop,
    NumOpcodes
};

/** Mnemonic for @p op. */
const char *opcodeName(Opcode op);

/** Instruction classification flags. */
struct InstFlags
{
    bool isMemRef : 1 = false;
    bool isLoad : 1 = false;
    bool isStore : 1 = false;
    bool isControl : 1 = false;
    bool isCall : 1 = false;
    bool isIndirect : 1 = false;
    bool isCondCtrl : 1 = false;
    bool isFloat : 1 = false;
    bool isMul : 1 = false;
    bool isDiv : 1 = false;
    bool isSyscall : 1 = false;
    bool isHalt : 1 = false;
    bool isNop : 1 = false;
};

/** Execution outcome of one instruction. */
enum class Fault : std::uint8_t
{
    None,        ///< completed (or memory access initiated)
    PageFault,   ///< translation failed
    AccessFault, ///< address outside mapped memory
    Syscall,     ///< ECALL: CPU must invoke the syscall layer
    Halt,        ///< HALT: workload finished
};

/** Fault name for diagnostics. */
const char *faultName(Fault fault);

/**
 * Abstract view of CPU state given to StaticInst::execute. Each CPU
 * model provides its own implementation (gem5's ExecContext).
 */
class ExecContext
{
  public:
    virtual ~ExecContext() = default;

    /** @{ Register file access; x0 reads as zero, writes ignored. */
    virtual std::uint64_t readReg(RegIndex reg) const = 0;
    virtual void setReg(RegIndex reg, std::uint64_t value) = 0;
    /** @} */

    /** PC of the executing instruction. */
    virtual Addr pc() const = 0;

    /** Set the next PC (taken branches/jumps). */
    virtual void setNextPc(Addr npc) = 0;

    /**
     * Initiate a data read of @p size bytes at virtual @p addr.
     * Atomic contexts complete immediately and the loaded value is
     * available via memData() on return; timing contexts return
     * Fault::None and deliver data later via completeAcc.
     */
    virtual Fault readMem(Addr addr, unsigned size) = 0;

    /** Initiate a data write. */
    virtual Fault writeMem(Addr addr, unsigned size,
                           std::uint64_t data) = 0;

    /** Data returned by the most recent completed read. */
    virtual std::uint64_t memData() const = 0;
};

/**
 * Decoded, immutable instruction. One StaticInst is shared by every
 * dynamic instance of the same machine word (gem5 decode cache).
 */
class StaticInst
{
  public:
    StaticInst(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
               std::int32_t imm, InstFlags flags)
        : op_(op), rd_(rd), rs1_(rs1), rs2_(rs2), imm_(imm),
          flags_(flags)
    {}

    virtual ~StaticInst() = default;

    /**
     * Execute the non-memory semantics (or, for memory instructions,
     * compute the effective address and initiate the access).
     */
    virtual Fault execute(ExecContext &ctx) const = 0;

    /**
     * Complete a load: write @p data (already loaded) to the
     * destination. No-op for non-loads.
     */
    virtual void completeAcc(ExecContext &ctx,
                             std::uint64_t data) const;

    /** Effective address for memory instructions. */
    Addr
    effAddr(const ExecContext &ctx) const
    {
        return ctx.readReg(rs1_) + (std::int64_t)imm_;
    }

    /** Disassembly like "addi x5, x5, 1". */
    std::string disassemble() const;

    Opcode opcode() const { return op_; }
    RegIndex rd() const { return rd_; }
    RegIndex rs1() const { return rs1_; }
    RegIndex rs2() const { return rs2_; }
    std::int32_t imm() const { return imm_; }
    const InstFlags &flags() const { return flags_; }

    /** Access size in bytes for memory instructions (else 0). */
    unsigned memSize() const;

  protected:
    Opcode op_;
    RegIndex rd_, rs1_, rs2_;
    std::int32_t imm_;
    InstFlags flags_;
};

using StaticInstPtr = std::shared_ptr<const StaticInst>;

/** Integer ALU operations (reg-reg and reg-imm, LUI). */
class IntAluInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;
};

/** Multiply / divide. */
class MulDivInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;
};

/** Floating point (double bits in integer registers). */
class FloatInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;
};

/** Loads and stores. */
class MemInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;
    void completeAcc(ExecContext &ctx,
                     std::uint64_t data) const override;
};

/** Conditional branches. */
class BranchInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;

    /** Branch condition without side effects (for BP studies). */
    bool taken(const ExecContext &ctx) const;
};

/** JAL / JALR. */
class JumpInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;
};

/** ECALL / HALT / NOP. */
class SysInst : public StaticInst
{
  public:
    using StaticInst::StaticInst;
    Fault execute(ExecContext &ctx) const override;
};

/** Encode fields into a machine word. */
std::uint64_t encode(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
                     std::int32_t imm);

} // namespace g5p::isa

#endif // G5P_ISA_INST_HH
