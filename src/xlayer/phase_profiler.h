/**
 * @file
 * Phase breakdown and phase timeline profiler (Figures 2, 3, 4; Table IV).
 *
 * Maintains the phase stack from kPhaseEnter/kPhaseExit annotations,
 * switches the core's active counter bucket accordingly (the PAPI-on-
 * annotation mechanism of Section III), and records a binned timeline of
 * cycles-per-phase for the phase diagrams of Figure 3.
 */

#ifndef XLVM_XLAYER_PHASE_PROFILER_H
#define XLVM_XLAYER_PHASE_PROFILER_H

#include <array>
#include <cstdint>
#include <vector>

#include "xlayer/bus.h"
#include "xlayer/phase.h"

namespace xlvm {
namespace xlayer {

/** One timeline bin: cycle share of each phase within the bin. */
struct PhaseTimelineBin
{
    uint64_t instrEnd = 0; ///< cumulative instruction count at bin end
    std::array<double, kNumPhases> cycles{};
};

class PhaseProfiler : public AnnotListener
{
  public:
    /**
     * @param bus          annotation bus to subscribe to
     * @param bin_instrs   timeline bin width in retired instructions
     *                     (0 disables timeline recording)
     */
    explicit PhaseProfiler(AnnotationBus &bus, uint64_t bin_instrs = 0);
    ~PhaseProfiler() override;

    void onAnnot(uint32_t tag, uint32_t payload) override;

    /** Phase tags only, or every tag while recording a timeline. */
    bool ignoresTag(uint32_t tag) const override;

    Phase currentPhase() const;

    /** Final per-phase counters (valid after the run). */
    const sim::PerfCounters &
    phaseCounters(Phase p) const
    {
        return bus_.core().bucketCounters(static_cast<uint32_t>(p));
    }

    /** Fraction of total cycles spent in each phase. */
    std::array<double, kNumPhases> phaseCycleShares() const;

    const std::vector<PhaseTimelineBin> &timeline() const { return bins; }

    /** Depth of the phase stack (for tests). */
    size_t stackDepth() const { return stack.size(); }

    /** kPhaseExit events rejected on a bottomed-out phase stack. */
    uint64_t phaseUnderflows() const { return underflows_; }

  private:
    void maybeCloseBin();
    std::array<double, kNumPhases> cyclesNow() const;

    AnnotationBus &bus_;
    std::vector<Phase> stack;
    const uint64_t binInstrs;
    std::vector<PhaseTimelineBin> bins;
    std::array<double, kNumPhases> binStartCycles{};
    uint64_t nextBinEnd = 0;
    uint64_t underflows_ = 0;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_PHASE_PROFILER_H
