/**
 * @file
 * Trace pre-lowering: the micro-op execution format.
 *
 * At Backend::compile time every optimized trace is translated once into
 * a compact linear micro-op program — one fixed-size struct per IR op,
 * 1:1 with Trace::ops, with the dispatch handler slot pre-resolved
 * (patched to a computed-goto label by the executor on first entry),
 * operand references pre-decoded to direct register-file indices (trace
 * constants are materialized into the tail of the register file, so
 * operand fetch is a single indexed load with no const/box branch), and
 * all per-op simulation metadata (code offset, global IR-node id,
 * snapshot index) baked in. The opcode is the IrOp itself: the executor
 * has one handler per IR op, the same granularity at which the backend
 * models code (loweredInstCount) and the profiler charges cost.
 */

#ifndef XLVM_JIT_LOWER_H
#define XLVM_JIT_LOWER_H

#include <vector>

#include "jit/ir.h"

namespace xlvm {
namespace jit {

/** MicroOp::opcode of the sentinel that ends every program: one past
 *  the IrOp range, so it owns the last slot of the executor's table. */
constexpr IrOp kTrapOpcode = IrOp::NumOps;

/**
 * One pre-decoded micro-op (fixed size, cache-line friendly). Operand
 * slots index the unified register file directly; everything the
 * executor needs per dispatch is inline.
 */
struct MicroOp
{
    /** Dispatch handler: the computed-goto label address, patched by
     *  the executor on the program's first entry. */
    const void *handler = nullptr;
    IrOp opcode = IrOp::Label; ///< the IR op, or kTrapOpcode
    uint8_t argMask = 0; ///< bit i set when ResOp arg i was present
    uint8_t callInsts = 0; ///< loweredInstCount for Call* ops
    uint32_t arg[kMaxOpArgs] = {0, 0, 0, 0}; ///< register-file indices
    int32_t res = -1;    ///< result register, or -1
    uint32_t aux = 0;    ///< ResOp::aux (field, class id, callee, ...)
    uint64_t expect = 0; ///< GuardValue bits / call semantic tag
    uint32_t pcOff = 0;  ///< byte offset of the op's code from codePc
    int32_t nodeId = -1; ///< global IR-node id (-1: not counted)
    int32_t snapshotIdx = -1;
    uint32_t origIdx = 0;  ///< index of the op in Trace::ops
    uint32_t extraOff = 0; ///< into MicroProgram::extra (jump/call args)
    uint32_t extraLen = 0;
};

/**
 * Provenance for one guard site, recorded at lowering time so deopt
 * attribution can name the guard (IR op) and point back at the bytecode
 * that produced it (the nearest preceding debug_merge_point's dispatch
 * payload). Joined at collection time with the trace's GuardState fail
 * counters — see report/profile_export.h.
 */
struct GuardProvenance
{
    uint32_t guardIdx = 0; ///< Trace::ops index of the guard
    IrOp op = IrOp::GuardTrue; ///< the guard's IR opcode
    /** Bytecode pc of the nearest preceding merge point (0 when the
     *  guard precedes the first merge point, e.g. entry type guards). */
    uint32_t originPc = 0;
};

/** The pre-lowered form of one compiled trace. */
struct MicroProgram
{
    std::vector<MicroOp> ops;
    /** Pre-decoded register indices for Jump / CallAssembler argument
     *  lists (the anchor snapshot's frames[0].stack refs). */
    std::vector<uint32_t> extra;
    /** One entry per guard site, in trace order (see GuardProvenance). */
    std::vector<GuardProvenance> guards;
    uint32_t numRegs = 0;   ///< boxes + materialized consts
    uint32_t constBase = 0; ///< first constant register (== num boxes)
    uint32_t numConsts = 0; ///< consts materialized at trace entry
    bool resolved = false; ///< handler pointers patched
};

/**
 * Lower @p trace into a micro-op program: ops[i] is trace.ops[i], and
 * one kTrapOpcode sentinel follows the last op. @p offsets / @p node_ids
 * are the backend's per-op code offsets and global IR-node ids
 * (parallel to trace.ops).
 */
MicroProgram lowerTrace(const Trace &trace,
                        const std::vector<uint32_t> &offsets,
                        const std::vector<int32_t> &node_ids);

} // namespace jit
} // namespace xlvm

#endif // XLVM_JIT_LOWER_H
