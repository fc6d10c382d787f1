#include <gtest/gtest.h>

#include "jit/backend.h"
#include "jit/eval.h"
#include "jit/ir.h"
#include "jit/recorder.h"

namespace xlvm {
namespace jit {
namespace {

TEST(IrOps, CategoriesMatchPaperTaxonomy)
{
    EXPECT_EQ(irCategory(IrOp::GetfieldGc), IrCategory::MemOp);
    EXPECT_EQ(irCategory(IrOp::SetfieldGc), IrCategory::MemOp);
    EXPECT_EQ(irCategory(IrOp::GuardClass), IrCategory::Guard);
    EXPECT_EQ(irCategory(IrOp::Call), IrCategory::CallOverhead);
    EXPECT_EQ(irCategory(IrOp::CallAssembler), IrCategory::CallOverhead);
    EXPECT_EQ(irCategory(IrOp::IntAddOvf), IrCategory::Int);
    EXPECT_EQ(irCategory(IrOp::FloatMul), IrCategory::Float);
    EXPECT_EQ(irCategory(IrOp::NewWithVtable), IrCategory::New);
    EXPECT_EQ(irCategory(IrOp::Strgetitem), IrCategory::Str);
    EXPECT_EQ(irCategory(IrOp::PtrEq), IrCategory::Ptr);
    EXPECT_EQ(irCategory(IrOp::Jump), IrCategory::Ctrl);
}

TEST(IrOps, NamesMatchRPythonVocabulary)
{
    EXPECT_STREQ(irOpName(IrOp::GetfieldGc), "getfield_gc");
    EXPECT_STREQ(irOpName(IrOp::GuardNoOverflow), "guard_no_overflow");
    EXPECT_STREQ(irOpName(IrOp::CallAssembler), "call_assembler");
    EXPECT_STREQ(irOpName(IrOp::DebugMergePoint), "debug_merge_point");
}

TEST(IrOps, PurityClassification)
{
    EXPECT_TRUE(isPure(IrOp::IntAdd));
    EXPECT_TRUE(isPure(IrOp::FloatMul));
    EXPECT_TRUE(isPure(IrOp::PtrEq));
    EXPECT_TRUE(isPure(IrOp::CallPure));
    EXPECT_FALSE(isPure(IrOp::Call));
    EXPECT_FALSE(isPure(IrOp::SetfieldGc));
    EXPECT_FALSE(isPure(IrOp::GuardTrue));
    EXPECT_FALSE(isPure(IrOp::IntFloordiv)); // may trap
}

TEST(Eval, IntOps)
{
    RtVal out;
    EXPECT_TRUE(evalPure(IrOp::IntAdd, RtVal::fromInt(2),
                         RtVal::fromInt(3), &out));
    EXPECT_EQ(out.i, 5);
    EXPECT_TRUE(evalPure(IrOp::IntLt, RtVal::fromInt(2),
                         RtVal::fromInt(3), &out));
    EXPECT_EQ(out.i, 1);
}

TEST(Eval, OverflowRefusesToFold)
{
    RtVal out;
    EXPECT_FALSE(evalPure(IrOp::IntAddOvf, RtVal::fromInt(INT64_MAX),
                          RtVal::fromInt(1), &out));
    EXPECT_TRUE(evalPure(IrOp::IntAddOvf, RtVal::fromInt(1),
                         RtVal::fromInt(2), &out));
    EXPECT_EQ(out.i, 3);
    EXPECT_FALSE(evalPure(IrOp::IntMulOvf, RtVal::fromInt(INT64_MAX / 2),
                          RtVal::fromInt(3), &out));
}

TEST(Eval, FloatOps)
{
    RtVal out;
    EXPECT_TRUE(evalPure(IrOp::FloatMul, RtVal::fromFloat(2.5),
                         RtVal::fromFloat(4.0), &out));
    EXPECT_DOUBLE_EQ(out.f, 10.0);
    EXPECT_FALSE(evalPure(IrOp::FloatTruediv, RtVal::fromFloat(1.0),
                          RtVal::fromFloat(0.0), &out));
    EXPECT_TRUE(evalPure(IrOp::CastIntToFloat, RtVal::fromInt(3),
                         RtVal(), &out));
    EXPECT_DOUBLE_EQ(out.f, 3.0);
}

TEST(Trace, ConstDeduplication)
{
    Trace t;
    int32_t a = t.addConst(RtVal::fromInt(42));
    int32_t b = t.addConst(RtVal::fromInt(42));
    int32_t c = t.addConst(RtVal::fromInt(43));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_TRUE(isConstRef(a));
    EXPECT_EQ(t.constAt(a).i, 42);
}

TEST(Trace, RefEncodingRanges)
{
    EXPECT_TRUE(isConstRef(makeConstRef(0)));
    EXPECT_TRUE(isConstRef(makeConstRef(1000)));
    EXPECT_FALSE(isConstRef(0));
    EXPECT_FALSE(isConstRef(kNoArg));
    EXPECT_EQ(constIndex(makeConstRef(7)), 7);
}

// --------------------------------------------------------------- Recorder

Snapshot
emptySnapshot()
{
    Snapshot s;
    FrameSnapshot f;
    f.code = nullptr;
    f.pc = 0;
    s.frames.push_back(f);
    return s;
}

TEST(Recorder, RecordsSimpleLoop)
{
    Recorder rec(nullptr, 0, false);
    int dummy1, dummy2;
    int32_t in0 = rec.addInputRef(&dummy1);
    int32_t in1 = rec.addInputRef(&dummy2);
    ASSERT_TRUE(rec.atMergePoint(7, emptySnapshot));

    rec.guardClass(in0, 5);
    int32_t v = rec.emitTyped(IrOp::GetfieldGc, BoxType::Int, in0,
                              kNoArg, kNoArg, 0);
    int32_t sum = rec.emit(IrOp::IntAddOvf, v, rec.constInt(1));
    rec.guardNoOverflow();
    (void)in1;
    rec.closeLoop({in0, in1});
    EXPECT_TRUE(rec.closed());

    Trace t = rec.take();
    EXPECT_EQ(t.numInputs, 2u);
    EXPECT_GE(t.ops.size(), 6u); // label, dmp, guard, getfield, add, jump
    EXPECT_EQ(t.ops.front().op, IrOp::Label);
    EXPECT_EQ(t.ops.back().op, IrOp::Jump);
    EXPECT_GE(sum, 0);
    EXPECT_FALSE(t.dump().empty());
}

TEST(Recorder, ConstantFoldingAtRecordTime)
{
    Recorder rec(nullptr, 0, false);
    ASSERT_TRUE(rec.atMergePoint(0, emptySnapshot));
    int32_t r = rec.emit(IrOp::IntAdd, rec.constInt(2), rec.constInt(3));
    EXPECT_TRUE(isConstRef(r));
    EXPECT_EQ(rec.constVal(r).i, 5);
    // No IntAdd op was recorded.
    for (const ResOp &op : rec.trace().ops)
        EXPECT_NE(op.op, IrOp::IntAdd);
}

TEST(Recorder, RedundantGuardClassElided)
{
    Recorder rec(nullptr, 0, false);
    int dummy;
    int32_t in0 = rec.addInputRef(&dummy);
    ASSERT_TRUE(rec.atMergePoint(0, emptySnapshot));
    rec.guardClass(in0, 5);
    rec.guardClass(in0, 5); // should be elided
    int guards = 0;
    for (const ResOp &op : rec.trace().ops) {
        if (op.op == IrOp::GuardClass)
            ++guards;
    }
    EXPECT_EQ(guards, 1);
}

TEST(Recorder, GuardsOnConstantsElided)
{
    Recorder rec(nullptr, 0, false);
    ASSERT_TRUE(rec.atMergePoint(0, emptySnapshot));
    rec.guardTrue(rec.constInt(1));
    rec.guardClass(rec.constRef(&rec), 9);
    int guards = 0;
    for (const ResOp &op : rec.trace().ops) {
        if (isGuard(op.op))
            ++guards;
    }
    EXPECT_EQ(guards, 0);
}

TEST(Recorder, SnapshotSharedWithinBytecode)
{
    Recorder rec(nullptr, 0, false);
    int dummy;
    int32_t in0 = rec.addInputRef(&dummy);
    int calls = 0;
    auto snap = [&]() {
        ++calls;
        return emptySnapshot();
    };
    ASSERT_TRUE(rec.atMergePoint(0, snap));
    rec.guardTrue(in0);
    rec.guardNonnull(in0);
    EXPECT_EQ(calls, 1); // captured lazily, shared by both guards
    ASSERT_TRUE(rec.atMergePoint(1, snap));
    rec.guardTrue(rec.emit(IrOp::IntIsTrue, in0));
    EXPECT_EQ(calls, 2); // new bytecode, new snapshot
}

TEST(Recorder, NewWithVtableTracksClass)
{
    Recorder rec(nullptr, 0, false);
    ASSERT_TRUE(rec.atMergePoint(0, emptySnapshot));
    int32_t obj = rec.emit(IrOp::NewWithVtable, kNoArg, kNoArg, kNoArg, 17);
    rec.guardClass(obj, 17); // must be elided: class is known
    int guards = 0;
    for (const ResOp &op : rec.trace().ops) {
        if (op.op == IrOp::GuardClass)
            ++guards;
    }
    EXPECT_EQ(guards, 0);
}

TEST(Recorder, AbortsOnLengthLimit)
{
    RecorderLimits lims;
    lims.maxOps = 10;
    Recorder rec(nullptr, 0, false, lims);
    int dummy;
    int32_t in0 = rec.addInputRef(&dummy);
    bool ok = true;
    for (int i = 0; i < 20 && ok; ++i) {
        ok = rec.atMergePoint(0, emptySnapshot);
        if (ok)
            rec.emit(IrOp::IntAdd, in0 >= 0 ? rec.constInt(1) : kNoArg,
                     rec.constInt(2));
    }
    EXPECT_FALSE(ok);
}

TEST(Recorder, RefEncodingUnknownBecomesConst)
{
    Recorder rec(nullptr, 0, false);
    int known, unknown;
    int32_t in0 = rec.addInputRef(&known);
    EXPECT_EQ(rec.refEncoding(&known), in0);
    int32_t c = rec.refEncoding(&unknown);
    EXPECT_TRUE(isConstRef(c));
    EXPECT_EQ(rec.constVal(c).r, &unknown);
}

TEST(Recorder, LiveRefsEnumerated)
{
    Recorder rec(nullptr, 0, false);
    int a, b;
    rec.addInputRef(&a);
    ASSERT_TRUE(rec.atMergePoint(0, emptySnapshot));
    rec.constRef(&b);
    std::vector<void *> seen;
    rec.forEachLiveRef([&](void *p) { seen.push_back(p); });
    EXPECT_NE(std::find(seen.begin(), seen.end(), &a), seen.end());
    EXPECT_NE(std::find(seen.begin(), seen.end(), &b), seen.end());
}

// --------------------------------------------------------------- Backend

TEST(Backend, LoweringCountsMatchFigure9Shape)
{
    // call_assembler is the most expensive; calls > 15; common memory
    // ops are 1-2 instructions.
    EXPECT_GT(loweredInstCount(IrOp::CallAssembler), 30u);
    EXPECT_GE(loweredInstCount(IrOp::Call), 15u);
    EXPECT_GT(loweredInstCount(IrOp::CallMayForce),
              loweredInstCount(IrOp::Call));
    EXPECT_LE(loweredInstCount(IrOp::GetfieldGc), 2u);
    EXPECT_LE(loweredInstCount(IrOp::IntAdd), 2u);
    EXPECT_GT(loweredInstCount(IrOp::NewWithVtable), 4u);
    EXPECT_EQ(loweredInstCount(IrOp::DebugMergePoint), 0u);
}

TEST(Backend, CompileAssignsCodeAndNodeIds)
{
    sim::CodeSpace cs;
    Backend backend(cs);

    Recorder rec(nullptr, 0, false);
    int dummy;
    int32_t in0 = rec.addInputRef(&dummy);
    EXPECT_TRUE(rec.atMergePoint(0, emptySnapshot));
    rec.guardClass(in0, 3);
    rec.emitTyped(IrOp::GetfieldGc, BoxType::Int, in0, kNoArg, kNoArg, 0);
    rec.closeLoop({in0});
    Trace t = rec.take();
    t.id = 0;
    backend.compile(t);

    EXPECT_GT(t.codePc, 0u);
    EXPECT_GT(t.codeInsts, 0u);
    // One micro-op per IR op plus the trap sentinel.
    EXPECT_EQ(backend.program(0).ops.size(), t.ops.size() + 1);
    // Countable nodes exclude label + debug_merge_point.
    EXPECT_EQ(backend.totalIrNodesCompiled(), t.countIrNodes());
    for (const auto &m : backend.nodeMeta())
        EXPECT_EQ(m.traceId, 0u);
}

TEST(Backend, SequentialTracesGetDisjointCode)
{
    sim::CodeSpace cs;
    Backend backend(cs);
    uint64_t prev_end = 0;
    for (uint32_t id = 0; id < 3; ++id) {
        Recorder rec(nullptr, 0, false);
        int dummy;
        int32_t in0 = rec.addInputRef(&dummy);
        EXPECT_TRUE(rec.atMergePoint(0, emptySnapshot));
        rec.emit(IrOp::IntAdd, in0 * 0 + rec.constInt(1), rec.constInt(2));
        rec.guardNonnull(in0);
        rec.closeLoop({in0});
        Trace t = rec.take();
        t.id = id;
        backend.compile(t);
        EXPECT_GE(t.codePc, prev_end);
        prev_end = t.codePc + t.codeInsts * 4;
    }
}

} // namespace
} // namespace jit
} // namespace xlvm
