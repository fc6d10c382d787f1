/**
 * @file
 * Guarded repro cases for known, documented engine bugs.
 *
 * Each test here pins a bug we know about but have not fixed yet, as an
 * EXPECTED failure: the test passes while the bug reproduces and FAILS
 * the moment the bug is fixed — the signal to delete the repro, close
 * the matching ROADMAP entry, and land the coordinated golden update.
 * Keep this file small; it is a ledger, not a dumping ground.
 *
 * Closed entries graduate into regression tests below the ledger: the
 * inverted assertion (the bug must NOT reproduce) stays here so the
 * file remains the single place where the engine's failure history is
 * executable.
 */

#include <gtest/gtest.h>

#include "driver/runner.h"

namespace xlvm {
namespace {

driver::RunOptions
hexiom2At130(vm::TierMode mode)
{
    driver::RunOptions o;
    o.workload = "hexiom2";
    o.vm = driver::VmKind::PyPyJit;
    // The bench sweep configuration (bench_common.h baseOptions) with
    // the hotness threshold moved to the historically crashing value:
    // loopThreshold=130 in the default tier, tier1Threshold=130 in
    // tier1/multi.
    o.loopThreshold = 130;
    o.bridgeThreshold = 40;
    o.tierMode = mode;
    o.tier1Threshold = 130;
    o.tier2Threshold = 160;
    o.maxInstructions = 400u * 1000 * 1000;
    return o;
}

/**
 * OPEN — ROADMAP "go aborts in multi-tier mode at the differential
 * thresholds": go at scale 7 with loop/bridge thresholds 25/12 (the
 * tests/test_workloads.cc JIT-vs-interpreter configuration) dies in
 * multi mode with the default tier thresholds (130/100) on "pop index
 * out of range" in the object space. The same program completes with
 * the interpreter's output in tier1 and tier2, in multi with promotion
 * out of reach (tier2Threshold 10^6), and in multi with tier1Threshold
 * 60, 100 or 200, so the promotion path is implicated. Every other
 * pypy-suite workload agrees in both modes at 25/12.
 */
TEST(KnownIssuesDeathTest, GoMultiTierAbortsOnPopIndex)
{
    driver::RunOptions o;
    o.workload = "go";
    o.vm = driver::VmKind::PyPyJit;
    o.scale = 7;
    o.loopThreshold = 25;
    o.bridgeThreshold = 12;
    o.tierMode = vm::TierMode::Multi;
    EXPECT_DEATH(driver::runWorkload(o), "pop index out of range");
}

/**
 * CLOSED — ROADMAP "Latent recording bug at high loop thresholds":
 * hexiom2 used to die with a type-confusion panic ("unsupported []= on
 * int") when the trace threshold was exactly 130, in every tier mode.
 * Root cause: maybeCallAssembler captured the outer resume frames of a
 * call_assembler io snapshot with post-call encodings, so a mismatched
 * inner exit rebuilt the outer frame from the exit contract's fresh
 * boxes and resumed the interpreter on type-confused slots. The fix
 * captures frames[2..] with pre-call encodings (and verifyTrace now
 * rejects the malformed shape outright, so a recurrence degrades to a
 * kMalformedTrace safe bailout instead of a heap-corrupting crash).
 *
 * The regression guard runs the exact repro in all three JIT tier
 * modes and requires clean completion.
 */
TEST(KnownIssues, Hexiom2Threshold130CompletesInAllTierModes)
{
    for (vm::TierMode mode : {vm::TierMode::Tier2, vm::TierMode::Tier1,
                              vm::TierMode::Multi}) {
        driver::RunResult r = driver::runWorkload(hexiom2At130(mode));
        EXPECT_TRUE(r.completed)
            << "tier mode " << vm::tierModeName(mode);
        EXPECT_TRUE(r.error.empty()) << r.error;
        // The run must finish because the bug is fixed — not because a
        // containment path papered over it: no malformed-trace bailout
        // may fire on the healthy engine.
        EXPECT_EQ(
            r.abortReasons[uint32_t(jit::AbortReason::kMalformedTrace)],
            0u)
            << "tier mode " << vm::tierModeName(mode);
    }
}

} // namespace
} // namespace xlvm
