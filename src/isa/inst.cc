#include "isa/inst.hh"

#include <bit>
#include <cstring>
#include <limits>

#include "base/logging.hh"
#include "trace/recorder.hh"

namespace g5p::isa
{

const char *
opcodeName(Opcode op)
{
    static const char *names[] = {
        "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
        "sltu",
        "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti",
        "lui",
        "mul", "mulh", "div", "rem",
        "fadd", "fsub", "fmul", "fdiv",
        "lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
        "sb", "sh", "sw", "sd",
        "beq", "bne", "blt", "bge", "bltu", "bgeu", "jal", "jalr",
        "ecall", "halt", "nop",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                  (std::size_t)Opcode::NumOpcodes);
    auto idx = (std::size_t)op;
    return idx < (std::size_t)Opcode::NumOpcodes ? names[idx] : "?";
}

const char *
faultName(Fault fault)
{
    switch (fault) {
      case Fault::None:        return "none";
      case Fault::PageFault:   return "page fault";
      case Fault::AccessFault: return "access fault";
      case Fault::Syscall:     return "syscall";
      case Fault::Halt:        return "halt";
    }
    return "?";
}

std::uint64_t
encode(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
       std::int32_t imm)
{
    return ((std::uint64_t)op << 56) |
           ((std::uint64_t)rd << 48) |
           ((std::uint64_t)rs1 << 40) |
           ((std::uint64_t)rs2 << 32) |
           (std::uint64_t)(std::uint32_t)imm;
}

void
StaticInst::completeAcc(ExecContext &ctx, std::uint64_t data) const
{
}

unsigned
StaticInst::memSize() const
{
    switch (op_) {
      case Opcode::Lb: case Opcode::Lbu: case Opcode::Sb: return 1;
      case Opcode::Lh: case Opcode::Lhu: case Opcode::Sh: return 2;
      case Opcode::Lw: case Opcode::Lwu: case Opcode::Sw: return 4;
      case Opcode::Ld: case Opcode::Sd: return 8;
      default: return 0;
    }
}

std::string
StaticInst::disassemble() const
{
    std::string out = opcodeName(op_);
    auto reg = [](RegIndex r) { return "x" + std::to_string(r); };
    if (flags_.isNop || flags_.isHalt || flags_.isSyscall)
        return out;
    if (flags_.isLoad) {
        return out + " " + reg(rd_) + ", " + std::to_string(imm_) +
            "(" + reg(rs1_) + ")";
    }
    if (flags_.isStore) {
        return out + " " + reg(rs2_) + ", " + std::to_string(imm_) +
            "(" + reg(rs1_) + ")";
    }
    if (flags_.isCondCtrl) {
        return out + " " + reg(rs1_) + ", " + reg(rs2_) + ", " +
            std::to_string(imm_);
    }
    if (op_ == Opcode::Jal)
        return out + " " + reg(rd_) + ", " + std::to_string(imm_);
    if (op_ == Opcode::Jalr) {
        return out + " " + reg(rd_) + ", " + std::to_string(imm_) +
            "(" + reg(rs1_) + ")";
    }
    if (op_ == Opcode::Lui)
        return out + " " + reg(rd_) + ", " + std::to_string(imm_);
    return out + " " + reg(rd_) + ", " + reg(rs1_) + ", " +
        (op_ >= Opcode::Addi && op_ <= Opcode::Slti
             ? std::to_string(imm_) : "x" + std::to_string(rs2_));
}

namespace
{

double
asDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
asBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace

Fault
IntAluInst::execute(ExecContext &ctx) const
{
    // Keyed instrumentation: each opcode is a distinct simulator
    // "function", as gem5's generated per-instruction classes are.
    G5P_TRACE_SCOPE_KEYED("IntAluInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    std::uint64_t a = ctx.readReg(rs1_);
    std::uint64_t b = ctx.readReg(rs2_);
    std::uint64_t i = (std::uint64_t)(std::int64_t)imm_;
    std::uint64_t r = 0;
    switch (op_) {
      case Opcode::Add:  r = a + b; break;
      case Opcode::Sub:  r = a - b; break;
      case Opcode::And:  r = a & b; break;
      case Opcode::Or:   r = a | b; break;
      case Opcode::Xor:  r = a ^ b; break;
      case Opcode::Sll:  r = a << (b & 63); break;
      case Opcode::Srl:  r = a >> (b & 63); break;
      case Opcode::Sra:  r = (std::uint64_t)((std::int64_t)a >>
                                             (b & 63)); break;
      case Opcode::Slt:  r = (std::int64_t)a < (std::int64_t)b; break;
      case Opcode::Sltu: r = a < b; break;
      case Opcode::Addi: r = a + i; break;
      case Opcode::Andi: r = a & i; break;
      case Opcode::Ori:  r = a | i; break;
      case Opcode::Xori: r = a ^ i; break;
      case Opcode::Slli: r = a << (imm_ & 63); break;
      case Opcode::Srli: r = a >> (imm_ & 63); break;
      case Opcode::Srai: r = (std::uint64_t)((std::int64_t)a >>
                                             (imm_ & 63)); break;
      case Opcode::Slti: r = (std::int64_t)a < (std::int64_t)imm_;
                         break;
      case Opcode::Lui:  r = (std::uint64_t)(std::int64_t)imm_ << 14;
                         break;
      default:
        g5p_panic("bad IntAlu opcode %s", opcodeName(op_));
    }
    ctx.setReg(rd_, r);
    return Fault::None;
}

Fault
MulDivInst::execute(ExecContext &ctx) const
{
    G5P_TRACE_SCOPE_KEYED("MulDivInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    std::int64_t a = (std::int64_t)ctx.readReg(rs1_);
    std::int64_t b = (std::int64_t)ctx.readReg(rs2_);
    std::uint64_t r = 0;
    switch (op_) {
      case Opcode::Mul:
        // Unsigned multiply for defined wraparound; same low 64 bits.
        r = (std::uint64_t)a * (std::uint64_t)b;
        break;
      case Opcode::Mulh:
        r = (std::uint64_t)(((__int128)a * b) >> 64);
        break;
      case Opcode::Div:
        if (!b)
            r = ~0ULL; // RISC-V div-by-zero
        else if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            r = (std::uint64_t)a; // RISC-V signed-overflow case
        else
            r = (std::uint64_t)(a / b);
        break;
      case Opcode::Rem:
        if (!b)
            r = (std::uint64_t)a;
        else if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            r = 0; // RISC-V signed-overflow case
        else
            r = (std::uint64_t)(a % b);
        break;
      default:
        g5p_panic("bad MulDiv opcode %s", opcodeName(op_));
    }
    ctx.setReg(rd_, r);
    return Fault::None;
}

Fault
FloatInst::execute(ExecContext &ctx) const
{
    G5P_TRACE_SCOPE_KEYED("FloatInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    double a = asDouble(ctx.readReg(rs1_));
    double b = asDouble(ctx.readReg(rs2_));
    double r = 0;
    switch (op_) {
      case Opcode::Fadd: r = a + b; break;
      case Opcode::Fsub: r = a - b; break;
      case Opcode::Fmul: r = a * b; break;
      case Opcode::Fdiv: r = a / b; break;
      default:
        g5p_panic("bad Float opcode %s", opcodeName(op_));
    }
    ctx.setReg(rd_, asBits(r));
    return Fault::None;
}

Fault
MemInst::execute(ExecContext &ctx) const
{
    G5P_TRACE_SCOPE_KEYED("MemInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    Addr addr = effAddr(ctx);
    unsigned size = memSize();
    if (flags_.isLoad)
        return ctx.readMem(addr, size);

    std::uint64_t data = ctx.readReg(rs2_);
    if (size < 8)
        data &= (1ULL << (size * 8)) - 1;
    return ctx.writeMem(addr, size, data);
}

void
MemInst::completeAcc(ExecContext &ctx, std::uint64_t data) const
{
    if (!flags_.isLoad)
        return;
    // Sign extension for the signed narrow loads.
    switch (op_) {
      case Opcode::Lb:
        data = (std::uint64_t)(std::int64_t)(std::int8_t)data;
        break;
      case Opcode::Lh:
        data = (std::uint64_t)(std::int64_t)(std::int16_t)data;
        break;
      case Opcode::Lw:
        data = (std::uint64_t)(std::int64_t)(std::int32_t)data;
        break;
      default:
        break;
    }
    ctx.setReg(rd_, data);
}

bool
BranchInst::taken(const ExecContext &ctx) const
{
    std::uint64_t a = ctx.readReg(rs1_);
    std::uint64_t b = ctx.readReg(rs2_);
    switch (op_) {
      case Opcode::Beq:  return a == b;
      case Opcode::Bne:  return a != b;
      case Opcode::Blt:  return (std::int64_t)a < (std::int64_t)b;
      case Opcode::Bge:  return (std::int64_t)a >= (std::int64_t)b;
      case Opcode::Bltu: return a < b;
      case Opcode::Bgeu: return a >= b;
      default:
        g5p_panic("bad Branch opcode %s", opcodeName(op_));
    }
}

Fault
BranchInst::execute(ExecContext &ctx) const
{
    G5P_TRACE_SCOPE_KEYED("BranchInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    if (taken(ctx))
        ctx.setNextPc(ctx.pc() + (std::int64_t)imm_);
    return Fault::None;
}

Fault
JumpInst::execute(ExecContext &ctx) const
{
    G5P_TRACE_SCOPE_KEYED("JumpInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    Addr ret = ctx.pc() + instBytes;
    if (op_ == Opcode::Jal) {
        ctx.setNextPc(ctx.pc() + (std::int64_t)imm_);
    } else {
        Addr target = ctx.readReg(rs1_) + (std::int64_t)imm_;
        ctx.setNextPc(target & ~(Addr)7);
    }
    ctx.setReg(rd_, ret);
    return Fault::None;
}

Fault
SysInst::execute(ExecContext &ctx) const
{
    G5P_TRACE_SCOPE_KEYED("SysInst::execute", InstExecute, true,
                          (std::uint32_t)op_);
    switch (op_) {
      case Opcode::Ecall: return Fault::Syscall;
      case Opcode::Halt:  return Fault::Halt;
      case Opcode::Nop:   return Fault::None;
      default:
        g5p_panic("bad Sys opcode %s", opcodeName(op_));
    }
}

} // namespace g5p::isa
