/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * SpanRecorder keeps a stack of open spans and, as each one closes,
 * adds its self time (duration minus the time its child spans cover) to
 * its layer's total. It also keeps the first closed spans in memory
 * (name, start, end, parent, run id) for one Chrome trace-event file
 * written at exit.
 *
 * PhaseSpans is the benchmark-owned AnnotListener that opens and closes
 * phase spans on the kPhaseEnter/kPhaseExit annotations of one
 * VmContext's bus: the paper's PinTool method, pointed at host time. It
 * ignores every other tag, so block-memo purity is unchanged.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "xlayer/bus.h"
#include "xlayer/phase.h"

namespace perfbench {

/** Span names: the run's steps, then one per xlayer::Phase. */
enum class Layer : uint8_t
{
    Run,
    VmContext,
    MinipyCompile,
    MinirktCompile,
    MinipyRun,
    ReportExport,
    ReportCompare,
    PhaseFirst, ///< Phase p maps to PhaseFirst + p
    NumLayers = PhaseFirst + xlvm::xlayer::kNumPhases
};

constexpr size_t kNumLayers = size_t(Layer::NumLayers);

/** Span name of a layer ("vm.context", "vm.jit", ...). */
const char *layerName(Layer l);

inline Layer
phaseLayer(xlvm::xlayer::Phase p)
{
    return Layer(uint32_t(Layer::PhaseFirst) + uint32_t(p));
}

class SpanRecorder
{
  public:
    /** Open a span as a child of the innermost open one. */
    void open(Layer layer);

    /** Close the innermost open span. */
    void close();

    size_t depth() const { return stack_.size(); }

    /** Run id stamped into the spans opened from now on. */
    void setRun(uint32_t id) { run_ = id; }

    /** Keep up to @p limit closed spans in memory (0 = keep none). */
    void keepUpTo(size_t limit) { keepLimit_ = limit; }

    /** Self time per layer, in ns, since the last resetTotals(). */
    const std::array<int64_t, kNumLayers> &selfNs() const { return self_; }

    /** Summed duration of closed root spans, in ns. */
    int64_t rootNs() const { return rootNs_; }

    void
    resetTotals()
    {
        self_.fill(0);
        rootNs_ = 0;
    }

    size_t keptSpans() const { return spans_.size(); }
    uint64_t droppedSpans() const { return dropped_; }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool write(const std::string &path, std::string *err) const;

  private:
    struct Frame
    {
        Layer layer;
        int64_t start;
        int64_t childNs;
        int32_t kept; ///< index into spans_, or -1
    };

    struct Span
    {
        Layer layer;
        uint32_t run;
        int32_t parent; ///< index into spans_, or -1 for a root
        int64_t start;
        int64_t end;
    };

    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    size_t keepLimit_ = 0;
    uint64_t dropped_ = 0;
    uint32_t run_ = 0;
    std::array<int64_t, kNumLayers> self_{};
    int64_t rootNs_ = 0;
};

class PhaseSpans : public xlvm::xlayer::AnnotListener
{
  public:
    PhaseSpans(xlvm::xlayer::AnnotationBus &bus, SpanRecorder &rec);
    ~PhaseSpans() override;
    PhaseSpans(const PhaseSpans &) = delete;
    PhaseSpans &operator=(const PhaseSpans &) = delete;

    void onAnnot(uint32_t tag, uint32_t payload) override;

    bool
    ignoresTag(uint32_t tag) const override
    {
        return tag != xlvm::xlayer::kPhaseEnter &&
               tag != xlvm::xlayer::kPhaseExit;
    }

    /** Close phase spans still open (a run cut by its budget). */
    void closeAll();

    /** Phase exits seen with no phase span open (malformed stream). */
    uint64_t underflows() const { return underflows_; }

  private:
    xlvm::xlayer::AnnotationBus &bus_;
    SpanRecorder &rec_;
    uint32_t open_ = 0;
    uint64_t underflows_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
