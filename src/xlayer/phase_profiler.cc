#include "xlayer/phase_profiler.h"

#include "common/logging.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace xlayer {

PhaseProfiler::PhaseProfiler(AnnotationBus &bus, uint64_t bin_instrs)
    : bus_(bus), binInstrs(bin_instrs)
{
    stack.push_back(Phase::Interpreter);
    bus_.core().setBucket(0);
    bus_.addListener(this);
    if (binInstrs) {
        nextBinEnd = binInstrs;
        binStartCycles = cyclesNow();
    }
}

PhaseProfiler::~PhaseProfiler()
{
    bus_.removeListener(this);
}

std::array<double, kNumPhases>
PhaseProfiler::cyclesNow() const
{
    std::array<double, kNumPhases> c{};
    for (uint32_t p = 0; p < kNumPhases; ++p)
        c[p] = bus_.core().bucketCounters(p).cycles();
    return c;
}

void
PhaseProfiler::maybeCloseBin()
{
    if (!binInstrs)
        return;
    uint64_t instr = bus_.core().totalInstructions();
    while (instr >= nextBinEnd) {
        auto now = cyclesNow();
        PhaseTimelineBin bin;
        bin.instrEnd = nextBinEnd;
        for (uint32_t p = 0; p < kNumPhases; ++p)
            bin.cycles[p] = now[p] - binStartCycles[p];
        bins.push_back(bin);
        binStartCycles = now;
        nextBinEnd += binInstrs;
    }
}

bool
PhaseProfiler::ignoresTag(uint32_t tag) const
{
    // Timeline bins close on whatever annotation follows the boundary
    // (maybeCloseBin below), so a binning profiler takes every tag.
    return binInstrs == 0 && tag != kPhaseEnter && tag != kPhaseExit;
}

void
PhaseProfiler::onAnnot(uint32_t tag, uint32_t payload)
{
    switch (tag) {
      case kPhaseEnter:
        XLVM_ASSERT(payload < kNumPhases, "bad phase payload");
        stack.push_back(static_cast<Phase>(payload));
        bus_.core().setBucket(payload);
        break;
      case kPhaseExit:
        if (stack.size() <= 1) {
            // A kPhaseExit with nothing but the Interpreter sentinel on
            // the stack is a malformed event stream (e.g. an exit
            // emitted twice). Popping the sentinel would leave
            // currentPhase() reading an empty stack, so reject the
            // event: count it, warn once, and keep the sentinel.
            ++underflows_;
            if (underflows_ == 1) {
                XLVM_WARN("phase exit (", phaseName(Phase(payload)),
                          ") on bottomed-out phase stack; ignored");
            }
            break;
        }
        XLVM_ASSERT(static_cast<uint32_t>(stack.back()) == payload,
                    "mismatched phase exit: in ",
                    phaseName(stack.back()), " exiting ",
                    phaseName(static_cast<Phase>(payload)));
        stack.pop_back();
        bus_.core().setBucket(static_cast<uint32_t>(stack.back()));
        break;
      default:
        break;
    }
    maybeCloseBin();
}

Phase
PhaseProfiler::currentPhase() const
{
    return stack.back();
}

std::array<double, kNumPhases>
PhaseProfiler::phaseCycleShares() const
{
    std::array<double, kNumPhases> shares{};
    double total = 0.0;
    for (uint32_t p = 0; p < kNumPhases; ++p) {
        shares[p] = bus_.core().bucketCounters(p).cycles();
        total += shares[p];
    }
    if (total > 0) {
        for (auto &s : shares)
            s /= total;
    }
    return shares;
}

} // namespace xlayer
} // namespace xlvm
