#include "spans.h"

#include <chrono>
#include <cstdio>

#include "xlayer/annot.h"

namespace perfbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
layerName(Layer l)
{
    using xlvm::xlayer::Phase;
    switch (l) {
      case Layer::Run:
        return "run";
      case Layer::VmContext:
        return "vm.context";
      case Layer::MinipyCompile:
        return "minipy.compile";
      case Layer::MinirktCompile:
        return "minirkt.compile";
      case Layer::MinipyRun:
        return "minipy.run";
      case Layer::ReportExport:
        return "report.export";
      case Layer::ReportCompare:
        return "report.compare";
      default:
        break;
    }
    switch (Phase(uint32_t(l) - uint32_t(Layer::PhaseFirst))) {
      case Phase::Interpreter:
        return "minipy.interp";
      case Phase::Tracing:
        return "jit.tracing";
      case Phase::Jit:
        return "vm.jit";
      case Phase::JitCall:
        return "rt.jitcall";
      case Phase::Gc:
        return "gc";
      case Phase::Blackhole:
        return "vm.blackhole";
      case Phase::Native:
        return "native";
      default:
        return "?";
    }
}

void
SpanRecorder::open(Layer layer)
{
    int32_t kept = -1;
    if (spans_.size() < keepLimit_) {
        int32_t parent = stack_.empty() ? -1 : stack_.back().kept;
        kept = int32_t(spans_.size());
        spans_.push_back({layer, run_, parent, 0, 0});
    } else if (keepLimit_ != 0) {
        ++dropped_;
    }
    stack_.push_back({layer, nowNs(), 0, kept});
    if (kept >= 0)
        spans_[size_t(kept)].start = stack_.back().start;
}

void
SpanRecorder::close()
{
    int64_t end = nowNs();
    Frame f = stack_.back();
    stack_.pop_back();
    int64_t dur = end - f.start;
    self_[size_t(f.layer)] += dur - f.childNs;
    if (stack_.empty())
        rootNs_ += dur;
    else
        stack_.back().childNs += dur;
    if (f.kept >= 0)
        spans_[size_t(f.kept)].end = end;
}

bool
SpanRecorder::write(const std::string &path, std::string *err) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        *err = "cannot write " + path;
        return false;
    }
    // Chrome trace events ("X" = complete span, times in us); one
    // process per run so Perfetto shows each run as its own track.
    int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"droppedSpans\": %llu,"
                    "\n\"traceEvents\": [",
                 (unsigned long long)dropped_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, "
                     "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}",
                     i ? "," : "", layerName(s.layer), s.run,
                     double(s.start - origin) / 1e3,
                     double(s.end - s.start) / 1e3, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
        *err = "error writing " + path;
        return false;
    }
    return true;
}

PhaseSpans::PhaseSpans(xlvm::xlayer::AnnotationBus &bus, SpanRecorder &rec)
    : bus_(bus), rec_(rec)
{
    bus_.addListener(this);
}

PhaseSpans::~PhaseSpans()
{
    bus_.removeListener(this);
}

void
PhaseSpans::onAnnot(uint32_t tag, uint32_t payload)
{
    if (tag == xlvm::xlayer::kPhaseEnter &&
        payload < xlvm::xlayer::kNumPhases) {
        rec_.open(phaseLayer(xlvm::xlayer::Phase(payload)));
        ++open_;
    } else if (tag == xlvm::xlayer::kPhaseExit) {
        if (open_ == 0) {
            ++underflows_;
            return;
        }
        rec_.close();
        --open_;
    }
}

void
PhaseSpans::closeAll()
{
    for (; open_ > 0; --open_)
        rec_.close();
}

} // namespace perfbench
