#include "xlayer/event_profiler.h"

#include "xlayer/annot.h"

namespace xlvm {
namespace xlayer {

EventProfiler::EventProfiler(AnnotationBus &bus) : bus_(bus)
{
    bus_.addListener(this);
}

EventProfiler::~EventProfiler()
{
    bus_.removeListener(this);
}

bool
EventProfiler::ignoresTag(uint32_t tag) const
{
    // Exactly the cases of the switch in onAnnot.
    constexpr uint32_t kCounted =
        1u << kLoopCompiled | 1u << kBridgeCompiled | 1u << kTraceAborted |
        1u << kTraceBlacklisted | 1u << kTraceRearmed |
        1u << kTraceEvicted | 1u << kCompileDowngrade | 1u << kTraceEnter |
        1u << kDeopt | 1u << kGcMinor | 1u << kGcMajor | 1u << kAppEvent |
        1u << kTierUp | 1u << kTier1Compile;
    return tag >= 32 || !((kCounted >> tag) & 1u);
}

void
EventProfiler::onAnnot(uint32_t tag, uint32_t payload)
{
    (void)payload;
    switch (tag) {
      case kLoopCompiled:
        ++loopsCompiled;
        break;
      case kBridgeCompiled:
        ++bridgesCompiled;
        break;
      case kTraceAborted:
        ++tracesAborted;
        // v7: payload is a jit::AbortReason; unknown values land in
        // slot 0 ("none") so pre-v7 streams still aggregate cleanly.
        ++abortReasons[payload < kNumAbortReasons ? payload : 0];
        break;
      case kTraceBlacklisted:
        ++tracesBlacklisted;
        break;
      case kTraceRearmed:
        ++tracesRearmed;
        break;
      case kTraceEvicted:
        ++tracesEvicted;
        break;
      case kCompileDowngrade:
        ++compileDowngrades;
        break;
      case kTraceEnter:
        ++traceEnters;
        break;
      case kDeopt:
        ++deopts;
        break;
      case kGcMinor:
        ++gcMinor;
        break;
      case kGcMajor:
        ++gcMajor;
        break;
      case kAppEvent:
        ++appEvents;
        break;
      case kTierUp:
        ++tierUps;
        break;
      case kTier1Compile:
        ++tier1Compiles;
        break;
      default:
        break;
    }
}

} // namespace xlayer
} // namespace xlvm
