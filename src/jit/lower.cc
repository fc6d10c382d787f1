#include "jit/lower.h"

#include "jit/backend.h"

namespace xlvm {
namespace jit {

MicroProgram
lowerTrace(const Trace &trace, const std::vector<uint32_t> &offsets,
           const std::vector<int32_t> &node_ids)
{
    XLVM_ASSERT(offsets.size() == trace.ops.size(),
                "offsets not parallel to ops");
    XLVM_ASSERT(node_ids.size() == trace.ops.size(),
                "node ids not parallel to ops");

    MicroProgram prog;
    prog.constBase = uint32_t(trace.boxTypes.size());
    prog.numConsts = uint32_t(trace.consts.size());
    prog.numRegs = prog.constBase + prog.numConsts;
    prog.ops.reserve(trace.ops.size() + 1);

    auto decode = [&](int32_t ref) -> uint32_t {
        if (ref >= 0) {
            XLVM_ASSERT(uint32_t(ref) < prog.constBase,
                        "operand box out of range");
            return uint32_t(ref);
        }
        XLVM_ASSERT(isConstRef(ref),
                    "operand is neither a box nor a constant");
        return prog.constBase + uint32_t(constIndex(ref));
    };

    auto decodeArgs = [&](const ResOp &op, MicroOp &m) {
        for (int i = 0; i < kMaxOpArgs; ++i) {
            if (op.args[i] == kNoArg)
                continue;
            m.argMask |= uint8_t(1u << i);
            m.arg[i] = decode(op.args[i]);
        }
    };

    auto decodeSnapshotArgs = [&](const ResOp &op, MicroOp &m) {
        // Jump / CallAssembler pass the anchor snapshot's frames[0]
        // stack as arguments; pre-decode those refs once.
        const Snapshot &snap = trace.snapshots[op.snapshotIdx];
        const std::vector<int32_t> &refs = snap.frames[0].stack;
        m.extraOff = uint32_t(prog.extra.size());
        m.extraLen = uint32_t(refs.size());
        for (int32_t r : refs)
            prog.extra.push_back(decode(r));
    };

    // Deopt-attribution provenance: guards inherit the bytecode pc of
    // the nearest preceding merge point (its aux is the dispatch pc).
    uint32_t lastMergePc = 0;

    for (size_t i = 0; i < trace.ops.size(); ++i) {
        const ResOp &op = trace.ops[i];
        if (op.op == IrOp::DebugMergePoint)
            lastMergePc = op.aux;
        MicroOp m;
        m.opcode = op.op;
        m.aux = op.aux;
        m.expect = op.expect;
        m.snapshotIdx = op.snapshotIdx;
        m.pcOff = offsets[i] * 4;
        m.nodeId = node_ids[i];
        m.origIdx = uint32_t(i);
        m.res = op.result;
        decodeArgs(op, m);

        if (isGuard(op.op))
            prog.guards.push_back({uint32_t(i), op.op, lastMergePc});
        switch (op.op) {
          case IrOp::Jump:
            decodeSnapshotArgs(op, m);
            break;
          case IrOp::CallAssembler:
            decodeSnapshotArgs(op, m);
            m.callInsts = uint8_t(loweredInstCount(op.op));
            break;
          case IrOp::Call:
          case IrOp::CallPure:
          case IrOp::CallMayForce:
            m.callInsts = uint8_t(loweredInstCount(op.op));
            break;
          default:
            break;
        }
        prog.ops.push_back(m);
    }

    // Sentinel: a well-formed trace ends in Jump/Finish and never falls
    // through, but a corrupt program should trap loudly, not run wild.
    MicroOp trap;
    trap.opcode = kTrapOpcode;
    prog.ops.push_back(trap);
    return prog;
}

} // namespace jit
} // namespace xlvm
