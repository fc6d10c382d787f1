/**
 * @file
 * Micro-op pre-lowering tests.
 *
 * The lowered program is 1:1 with Trace::ops — each micro-op's opcode is
 * its IR op — plus one trap sentinel, and the executor's handler table
 * sends every IR op without semantics to a panic that names it. These
 * tests pin that shape and the pre-decoder's register-file layout; the
 * tests/golden/ gate pins the counters the executor emits.
 */

#include <gtest/gtest.h>

#include "jit/opt.h"
#include "jit/recorder.h"
#include "vm/context.h"

namespace xlvm {
namespace vm {
namespace {

using jit::BoxType;
using jit::IrOp;
using jit::kNoArg;
using jit::RtVal;

jit::Snapshot
frameSnap(void *code, uint32_t pc, std::vector<int32_t> stack)
{
    jit::Snapshot s;
    jit::FrameSnapshot f;
    f.code = code;
    f.pc = pc;
    f.stack = std::move(stack);
    s.frames.push_back(std::move(f));
    return s;
}

/** The canonical boxed counting loop (see test_vm.cc). */
jit::Trace *
registerCountingLoop(VmContext &ctx, void *code, int64_t limit)
{
    jit::Recorder rec(code, 7, false);
    rec.setAnchorLocals(1);
    obj::W_Int *seed = ctx.space.newInt(0);
    int32_t in0 = rec.addInputRef(seed);
    EXPECT_TRUE(rec.atMergePoint(0, [&] {
        return frameSnap(code, 7, {in0});
    }));
    rec.guardClass(in0, obj::kTypeInt);
    int32_t v = rec.emitTyped(IrOp::GetfieldGc, BoxType::Int, in0,
                              kNoArg, kNoArg, obj::kFieldValue);
    int32_t cmp = rec.emit(IrOp::IntLt, v, rec.constInt(limit));
    rec.guardTrue(cmp);
    int32_t next = rec.emit(IrOp::IntAddOvf, v, rec.constInt(1));
    rec.guardNoOverflow();
    int32_t box = rec.emit(IrOp::NewWithVtable, kNoArg, kNoArg, kNoArg,
                           obj::kTypeInt);
    rec.emit(IrOp::SetfieldGc, box, next, kNoArg, obj::kFieldValue);
    rec.closeLoop({box});

    jit::OptParams op;
    op.classOf = [](void *p) {
        return p ? uint32_t(static_cast<obj::W_Object *>(p)->typeId())
                 : 0u;
    };
    auto optimized =
        std::make_unique<jit::Trace>(jit::optimize(rec.take(), op));
    optimized->id = ctx.registry.nextId();
    ctx.backend.compile(*optimized);
    return ctx.registry.add(std::move(optimized));
}

// ---- pre-decoder unit tests ------------------------------------------

TEST(MicroOpLowering, RegisterFileLayoutAndConstMapping)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 10);
    const jit::MicroProgram &prog = ctx.backend.program(t->id);

    // Unified register file: boxes first, then materialized constants.
    EXPECT_EQ(prog.constBase, t->boxTypes.size());
    EXPECT_EQ(prog.numConsts, t->consts.size());
    EXPECT_EQ(prog.numRegs, prog.constBase + prog.numConsts);

    // Every pre-decoded operand index is in range, and const operands
    // landed in the tail: int_lt's second arg is the constant limit.
    bool sawConstOperand = false;
    for (const jit::MicroOp &m : prog.ops) {
        for (int i = 0; i < jit::kMaxOpArgs; ++i) {
            if (!(m.argMask & (1u << i)))
                continue;
            EXPECT_LT(m.arg[i], prog.numRegs);
            if (m.arg[i] >= prog.constBase)
                sawConstOperand = true;
        }
    }
    EXPECT_TRUE(sawConstOperand);
}

TEST(MicroOpLowering, ProgramEndsInTrapSentinel)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 10);
    const jit::MicroProgram &prog = ctx.backend.program(t->id);
    ASSERT_FALSE(prog.ops.empty());
    EXPECT_EQ(prog.ops.back().opcode, jit::kTrapOpcode);
}

TEST(MicroOpLowering, OneMicroOpPerIrOp)
{
    VmContext ctx;
    int code;
    jit::Trace *t = registerCountingLoop(ctx, &code, 10);
    const jit::MicroProgram &prog = ctx.backend.program(t->id);

    // ops[i] is trace.ops[i]; the trap sentinel is the only extra op.
    ASSERT_EQ(prog.ops.size(), t->ops.size() + 1);
    for (size_t i = 0; i < t->ops.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(prog.ops[i].opcode, t->ops[i].op);
        EXPECT_EQ(prog.ops[i].origIdx, i);
    }
    EXPECT_EQ(prog.ops.back().opcode, jit::kTrapOpcode);
}

TEST(MicroOpLoweringDeathTest, OpWithoutSemanticsPanicsWithItsName)
{
    // new_array has no executor handler, so its table slot keeps the
    // Unimpl default. Compile the raw recording (no optimizer pass) so
    // the op reaches the program.
    EXPECT_DEATH(
        {
            VmContext ctx;
            int code;
            jit::Recorder rec(&code, 3, false);
            rec.setAnchorLocals(1);
            int32_t in0 = rec.addInputRef(ctx.space.newInt(0));
            rec.atMergePoint(0, [&] { return frameSnap(&code, 3, {in0}); });
            rec.emit(IrOp::NewArray, rec.constInt(4));
            rec.closeLoop({in0});
            auto raw = std::make_unique<jit::Trace>(rec.take());
            raw->id = ctx.registry.nextId();
            ctx.backend.compile(*raw);
            jit::Trace *t = ctx.registry.add(std::move(raw));
            ctx.executor.run(*t, {RtVal::fromRef(ctx.space.newInt(0))});
        },
        "unhandled op new_array");
}

} // namespace
} // namespace vm
} // namespace xlvm
