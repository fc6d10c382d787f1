#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/core.h"
#include "sim/emitter.h"
#include "xlayer/annot.h"
#include "xlayer/aot_profiler.h"
#include "xlayer/bus.h"
#include "xlayer/event_profiler.h"
#include "xlayer/irnode_profiler.h"
#include "xlayer/phase_profiler.h"
#include "xlayer/tracer.h"
#include "xlayer/work_profiler.h"

namespace xlvm {
namespace xlayer {
namespace {

struct Fixture
{
    sim::Core core;
    AnnotationBus bus{core};
};

using Log = std::vector<std::pair<int, uint32_t>>;

/** Logs (id, tag) of every delivery; subscribes to the tags in a mask. */
class Probe : public AnnotListener
{
  public:
    Probe(AnnotationBus &bus, int id, uint32_t mask, Log &log)
        : bus_(bus), id_(id), mask_(mask), log_(log)
    {
        bus_.addListener(this);
    }
    ~Probe() override { bus_.removeListener(this); }

    void
    onAnnot(uint32_t tag, uint32_t /*payload*/) override
    {
        log_.emplace_back(id_, tag);
    }

    bool
    ignoresTag(uint32_t tag) const override
    {
        return !((mask_ >> tag) & 1u);
    }

  private:
    AnnotationBus &bus_;
    const int id_;
    const uint32_t mask_;
    Log &log_;
};

TEST(Bus, FansOutToAllListeners)
{
    Fixture f;
    EventProfiler a(f.bus), b(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kDeopt, 1);
    EXPECT_EQ(a.deopts, 1u);
    EXPECT_EQ(b.deopts, 1u);

    // The listeners on one tag receive it in registration order (the
    // tracer's "phase after the event" relies on the phase profiler
    // running first; see TracerRing.RecordsPhaseAfterTransitionAndRunId),
    // and a listener only receives the tags it subscribes to.
    Log log;
    Probe p0(f.bus, 0, ~0u, log);
    Probe p1(f.bus, 1, 1u << kDeopt, log);
    Probe p2(f.bus, 2, ~0u, log);
    e.annot(kDeopt, 2);
    e.annot(kDispatch, 0);
    EXPECT_EQ(log, (Log{{0, kDeopt}, {1, kDeopt}, {2, kDeopt},
                        {0, kDispatch}, {2, kDispatch}}));
    EXPECT_EQ(a.deopts, 2u);

    // A tag the routed range does not cover reaches every listener,
    // subscribed or not; the profilers' own tag tests drop it.
    log.clear();
    Probe none(f.bus, 3, 0u, log);
    const uint32_t wide = AnnotationBus::kRoutedTags + 8;
    e.annot(wide, 5);
    EXPECT_EQ(log, (Log{{0, wide}, {1, wide}, {2, wide}, {3, wide}}));
    EXPECT_EQ(a.deopts, 2u);
}

TEST(Bus, RemoveListenerStopsDelivery)
{
    Fixture f;
    auto *p = new EventProfiler(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kDeopt, 1);
    EXPECT_EQ(p->deopts, 1u);
    delete p; // unsubscribes
    sim::BlockEmitter e2(f.core, 0x400000);
    e2.annot(kDeopt, 2); // must not crash

    // A listener added or removed mid-run is routed from that point on,
    // as when a phase-span listener attaches for one run and detaches.
    Log log;
    EventProfiler ev(f.bus);
    Probe first(f.bus, 0, ~0u, log);
    const uint32_t phaseTags = 1u << kPhaseEnter | 1u << kPhaseExit;
    for (int run = 0; run < 3; ++run) {
        e2.annot(kPhaseEnter, 1); // before the span listener attaches
        auto spans = std::make_unique<Probe>(f.bus, 1, phaseTags, log);
        e2.annot(kPhaseEnter, 1);
        e2.annot(kDeopt, 0);
        e2.annot(kPhaseExit, 1);
        spans.reset();
        e2.annot(kPhaseExit, 1); // after it detached
    }
    Log want;
    for (int run = 0; run < 3; ++run) {
        want.insert(want.end(), {{0, kPhaseEnter},
                                 {0, kPhaseEnter},
                                 {1, kPhaseEnter},
                                 {0, kDeopt},
                                 {0, kPhaseExit},
                                 {1, kPhaseExit},
                                 {0, kPhaseExit}});
    }
    EXPECT_EQ(log, want);
    EXPECT_EQ(ev.deopts, 3u);

    // Removing one listener keeps the others in registration order.
    log.clear();
    auto mid = std::make_unique<Probe>(f.bus, 1, ~0u, log);
    Probe last(f.bus, 2, ~0u, log);
    e2.annot(kGcMinor, 0);
    mid.reset();
    e2.annot(kGcMinor, 1);
    EXPECT_EQ(log, (Log{{0, kGcMinor}, {1, kGcMinor}, {2, kGcMinor},
                        {0, kGcMinor}, {2, kGcMinor}}));
}

TEST(PhaseProfiler, BucketsFollowPhaseStack)
{
    Fixture f;
    PhaseProfiler phases(f.bus);
    EXPECT_EQ(phases.currentPhase(), Phase::Interpreter);

    sim::BlockEmitter e(f.core, 0x400000);
    e.alu(10); // interpreter
    e.annot(kPhaseEnter, uint32_t(Phase::Jit));
    e.alu(20); // jit
    e.annot(kPhaseEnter, uint32_t(Phase::Gc));
    e.alu(5); // gc inside jit
    e.annot(kPhaseExit, uint32_t(Phase::Gc));
    e.alu(1); // back to jit
    e.annot(kPhaseExit, uint32_t(Phase::Jit));
    e.alu(2); // interpreter again

    EXPECT_EQ(phases.currentPhase(), Phase::Interpreter);
    EXPECT_EQ(phases.phaseCounters(Phase::Interpreter).instructions, 12u);
    EXPECT_EQ(phases.phaseCounters(Phase::Jit).instructions, 21u);
    EXPECT_EQ(phases.phaseCounters(Phase::Gc).instructions, 5u);
}

TEST(PhaseProfiler, SharesSumToOne)
{
    Fixture f;
    PhaseProfiler phases(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);
    e.alu(10);
    e.annot(kPhaseEnter, uint32_t(Phase::Jit));
    e.alu(30);
    e.annot(kPhaseExit, uint32_t(Phase::Jit));
    auto shares = phases.phaseCycleShares();
    double sum = 0;
    for (double s : shares)
        sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GT(shares[uint32_t(Phase::Jit)],
              shares[uint32_t(Phase::Interpreter)]);
}

TEST(PhaseProfiler, TimelineBinsCoverRun)
{
    Fixture f;
    PhaseProfiler phases(f.bus, 100);
    sim::BlockEmitter e(f.core, 0x400000);
    for (int i = 0; i < 50; ++i) {
        e.alu(10);
        e.annot(kAppEvent, 0); // gives the profiler a chance to bin
    }
    EXPECT_GE(phases.timeline().size(), 4u);
    EXPECT_EQ(phases.timeline()[0].instrEnd, 100u);
}

TEST(WorkRate, CountsDispatchQuanta)
{
    Fixture f;
    WorkRateProfiler work(f.bus, 50);
    sim::BlockEmitter e(f.core, 0x400000);
    for (int i = 0; i < 30; ++i) {
        e.annot(kDispatch, i % 3);
        e.alu(10);
    }
    work.finalize();
    EXPECT_EQ(work.totalWork(), 30u);
    ASSERT_GE(work.opcodeHistogram().size(), 3u);
    EXPECT_EQ(work.opcodeHistogram()[0], 10u);
    EXPECT_FALSE(work.samples().empty());
    EXPECT_EQ(work.samples().back().work, 30u);
}

TEST(WorkRate, BreakEvenFound)
{
    // Build a synthetic curve: slow first (0.5 work/instr below baseline
    // of 1.0), then fast.
    std::vector<WorkSample> curve;
    curve.push_back({100, 0, 50});   // behind
    curve.push_back({200, 0, 150});  // behind (needs 200)
    curve.push_back({300, 0, 320});  // ahead
    EXPECT_EQ(breakEvenInstructions(curve, 1.0), 300u);
}

TEST(WorkRate, BreakEvenNeverReached)
{
    std::vector<WorkSample> curve = {{100, 0, 10}, {200, 0, 20}};
    EXPECT_EQ(breakEvenInstructions(curve, 1.0), UINT64_MAX);
}

TEST(WorkRate, BreakEvenImmediate)
{
    std::vector<WorkSample> curve = {{100, 0, 200}};
    EXPECT_EQ(breakEvenInstructions(curve, 1.0), 100u);
}

TEST(AotProfiler, AttributesOutermostEntry)
{
    Fixture f;
    AotCallProfiler aot(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);

    e.annot(kAotEnter, 5);
    e.alu(100);
    e.annot(kAotEnter, 9); // nested call
    e.alu(50);
    e.annot(kAotExit, 9);
    e.annot(kAotExit, 5);

    auto fns = aot.significantFunctions();
    ASSERT_EQ(fns.size(), 1u); // nested call folded into entry point
    EXPECT_EQ(fns[0].fnId, 5u);
    EXPECT_EQ(fns[0].calls, 1u);
    EXPECT_GT(fns[0].cycles, 0.0);
}

TEST(AotProfiler, MinShareFilters)
{
    Fixture f;
    AotCallProfiler aot(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kAotEnter, 1);
    e.alu(1000);
    e.annot(kAotExit, 1);
    e.annot(kAotEnter, 2);
    e.alu(1);
    e.annot(kAotExit, 2);
    e.alu(10);

    auto all = aot.significantFunctions(0.0);
    EXPECT_EQ(all.size(), 2u);
    auto big = aot.significantFunctions(0.5);
    ASSERT_EQ(big.size(), 1u);
    EXPECT_EQ(big[0].fnId, 1u);
}

TEST(IrNodeProfiler, CountsPerNode)
{
    Fixture f;
    IrNodeProfiler ir(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);
    for (int i = 0; i < 5; ++i)
        e.annot(kIrNode, 3);
    e.annot(kIrNode, 10);
    EXPECT_EQ(ir.totalExecuted(), 6u);
    EXPECT_EQ(ir.execCounts()[3], 5u);
    EXPECT_EQ(ir.execCounts()[10], 1u);
}

TEST(EventProfiler, CountsAllKinds)
{
    Fixture f;
    EventProfiler ev(f.bus);
    sim::BlockEmitter e(f.core, 0x400000);
    e.annot(kLoopCompiled, 0);
    e.annot(kBridgeCompiled, 1);
    e.annot(kTraceAborted, 2);
    e.annot(kTraceEnter, 0);
    e.annot(kTraceEnter, 0);
    e.annot(kDeopt, 7);
    e.annot(kGcMinor, 0);
    e.annot(kGcMajor, 0);
    e.annot(kAppEvent, 3);
    e.annot(kTraceBlacklisted, 4);
    e.annot(kTraceRearmed, 4);
    e.annot(kTraceRearmed, 4);
    e.annot(kTraceEvicted, 5);
    e.annot(kCompileDowngrade, 6);
    e.annot(kTierUp, 7);
    e.annot(kTier1Compile, 8);
    e.annot(kTier1Compile, 9);
    EXPECT_EQ(ev.loopsCompiled, 1u);
    EXPECT_EQ(ev.bridgesCompiled, 1u);
    EXPECT_EQ(ev.tracesAborted, 1u);
    EXPECT_EQ(ev.abortReasons[2], 1u);
    EXPECT_EQ(ev.traceEnters, 2u);
    EXPECT_EQ(ev.deopts, 1u);
    EXPECT_EQ(ev.gcMinor, 1u);
    EXPECT_EQ(ev.gcMajor, 1u);
    EXPECT_EQ(ev.appEvents, 1u);
    EXPECT_EQ(ev.tracesBlacklisted, 1u);
    EXPECT_EQ(ev.tracesRearmed, 2u);
    EXPECT_EQ(ev.tracesEvicted, 1u);
    EXPECT_EQ(ev.compileDowngrades, 1u);
    EXPECT_EQ(ev.tierUps, 1u);
    EXPECT_EQ(ev.tier1Compiles, 2u);
}

// ---- routing is exact per listener -------------------------------------
//
// Each built-in listener runs twice on one stream: once through the
// routed bus, and once, as the reference, on a core whose sink hands it
// every annotation unfiltered. A tag a listener ignores but acts on
// would make the two disagree.

/** Sink that forwards every annotation to one listener, unfiltered. */
class Unrouted : public sim::AnnotSink
{
  public:
    explicit Unrouted(AnnotListener &l) : l_(l) {}
    void
    onAnnot(uint32_t tag, uint32_t payload) override
    {
        l_.onAnnot(tag, payload);
    }

  private:
    AnnotListener &l_;
};

/**
 * Instructions on both consume paths mixed with every tag 0-31. Phase
 * and AOT tags stay balanced, since their profilers assert on malformed
 * nesting, and payloads stay small so the histograms do.
 */
void
feedEveryTag(sim::Core &core)
{
    Rng rng(23);
    std::vector<uint32_t> phases, aots;
    uint64_t data[16] = {};
    for (int i = 0; i < 6000; ++i) {
        sim::BlockEmitter e(core, 0x400000 + rng.nextBelow(64) * 0x40);
        e.alu(uint32_t(1 + rng.nextBelow(12)));
        if (rng.nextBelow(3) == 0)
            e.loadPtr(&data[rng.nextBelow(16)]);
        if (rng.nextBelow(2) == 0)
            e.branch(rng.next() & 1);
        uint32_t tag = uint32_t(i < 32 ? i : rng.nextBelow(32));
        uint32_t payload = uint32_t(rng.nextBelow(24));
        if (tag == kPhaseEnter || tag == kPhaseExit) {
            if (phases.empty() || (tag == kPhaseEnter && phases.size() < 4)) {
                phases.push_back(payload % kNumPhases);
                e.annot(kPhaseEnter, phases.back());
            } else {
                e.annot(kPhaseExit, phases.back());
                phases.pop_back();
            }
        } else if (tag == kAotEnter || tag == kAotExit) {
            if (aots.empty() || (tag == kAotEnter && aots.size() < 3)) {
                aots.push_back(payload % 8);
                e.annot(kAotEnter, aots.back());
            } else {
                e.annot(kAotExit, aots.back());
                aots.pop_back();
            }
        } else {
            e.annot(tag, payload);
        }
    }
    sim::BlockEmitter e(core, 0x500000);
    for (; !aots.empty(); aots.pop_back())
        e.annot(kAotExit, aots.back());
    for (; !phases.empty(); phases.pop_back())
        e.annot(kPhaseExit, phases.back());
}

void
expectSameCore(const sim::Core &a, const sim::Core &b)
{
    for (uint32_t k = 0; k < sim::kMaxBuckets; ++k) {
        const sim::PerfCounters &x = a.bucketCounters(k);
        const sim::PerfCounters &y = b.bucketCounters(k);
        EXPECT_EQ(x.instructions, y.instructions) << "bucket " << k;
        EXPECT_EQ(x.cyclesFp, y.cyclesFp) << "bucket " << k;
        EXPECT_EQ(x.annotations, y.annotations) << "bucket " << k;
    }
    EXPECT_EQ(a.currentBucket(), b.currentBucket());
}

/**
 * Run @p make's listener routed and unrouted over feedEveryTag, check
 * its kDispatch subscription, and hand both to @p same for comparison.
 */
template <typename Make, typename Same>
void
expectRoutingExact(Make make, bool takesDispatch, Same same)
{
    Fixture routed, unrouted;
    auto a = make(routed.bus);
    auto b = make(unrouted.bus);
    Unrouted forward(*b);
    unrouted.core.setAnnotSink(&forward);
    feedEveryTag(routed.core);
    feedEveryTag(unrouted.core);
    EXPECT_EQ(a->ignoresTag(kDispatch), !takesDispatch);
    EXPECT_GT(routed.core.totalInstructions(), 0u);
    expectSameCore(routed.core, unrouted.core);
    same(*a, *b);
}

void
expectSamePhases(const PhaseProfiler &a, const PhaseProfiler &b)
{
    EXPECT_EQ(a.currentPhase(), b.currentPhase());
    EXPECT_EQ(a.stackDepth(), b.stackDepth());
    EXPECT_EQ(a.phaseUnderflows(), b.phaseUnderflows());
    ASSERT_EQ(a.timeline().size(), b.timeline().size());
    for (size_t i = 0; i < a.timeline().size(); ++i) {
        EXPECT_EQ(a.timeline()[i].instrEnd, b.timeline()[i].instrEnd);
        EXPECT_EQ(a.timeline()[i].cycles, b.timeline()[i].cycles);
    }
}

TEST(BusRouting, PhaseProfilerExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return std::make_unique<PhaseProfiler>(bus);
        },
        false, expectSamePhases);
}

TEST(BusRouting, BinningPhaseProfilerExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return std::make_unique<PhaseProfiler>(bus, 100);
        },
        true, [](const PhaseProfiler &a, const PhaseProfiler &b) {
            EXPECT_GT(a.timeline().size(), 100u);
            expectSamePhases(a, b);
        });
}

TEST(BusRouting, WorkRateProfilerExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return std::make_unique<WorkRateProfiler>(bus, 500);
        },
        true, [](WorkRateProfiler &a, WorkRateProfiler &b) {
            a.finalize();
            b.finalize();
            EXPECT_GT(a.totalWork(), 0u);
            EXPECT_EQ(a.totalWork(), b.totalWork());
            EXPECT_EQ(a.opcodeHistogram(), b.opcodeHistogram());
            ASSERT_EQ(a.samples().size(), b.samples().size());
            for (size_t i = 0; i < a.samples().size(); ++i) {
                EXPECT_EQ(a.samples()[i].instructions,
                          b.samples()[i].instructions);
                EXPECT_EQ(a.samples()[i].cycles, b.samples()[i].cycles);
                EXPECT_EQ(a.samples()[i].work, b.samples()[i].work);
            }
        });
}

TEST(BusRouting, AotCallProfilerExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return std::make_unique<AotCallProfiler>(bus);
        },
        false, [](const AotCallProfiler &a, const AotCallProfiler &b) {
            EXPECT_GT(a.totalCalls(), 0u);
            EXPECT_EQ(a.totalCalls(), b.totalCalls());
            auto fa = a.significantFunctions();
            auto fb = b.significantFunctions();
            ASSERT_EQ(fa.size(), fb.size());
            for (size_t i = 0; i < fa.size(); ++i) {
                EXPECT_EQ(fa[i].fnId, fb[i].fnId);
                EXPECT_EQ(fa[i].calls, fb[i].calls);
                EXPECT_EQ(fa[i].cycles, fb[i].cycles);
            }
        });
}

TEST(BusRouting, IrNodeProfilerExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return std::make_unique<IrNodeProfiler>(bus);
        },
        false, [](const IrNodeProfiler &a, const IrNodeProfiler &b) {
            EXPECT_GT(a.totalExecuted(), 0u);
            EXPECT_EQ(a.totalExecuted(), b.totalExecuted());
            EXPECT_EQ(a.execCounts(), b.execCounts());
        });
}

TEST(BusRouting, EventProfilerExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return std::make_unique<EventProfiler>(bus);
        },
        false, [](const EventProfiler &a, const EventProfiler &b) {
            const uint64_t EventProfiler::*fields[] = {
                &EventProfiler::loopsCompiled,
                &EventProfiler::bridgesCompiled,
                &EventProfiler::tracesAborted,
                &EventProfiler::traceEnters,
                &EventProfiler::deopts,
                &EventProfiler::gcMinor,
                &EventProfiler::gcMajor,
                &EventProfiler::appEvents,
                &EventProfiler::tierUps,
                &EventProfiler::tier1Compiles,
                &EventProfiler::tracesBlacklisted,
                &EventProfiler::tracesRearmed,
                &EventProfiler::tracesEvicted,
                &EventProfiler::compileDowngrades,
            };
            for (size_t i = 0; i < std::size(fields); ++i) {
                EXPECT_GT(a.*fields[i], 0u) << "field " << i;
                EXPECT_EQ(a.*fields[i], b.*fields[i]) << "field " << i;
            }
            for (uint32_t r = 0; r < EventProfiler::kNumAbortReasons; ++r)
                EXPECT_EQ(a.abortReasons[r], b.abortReasons[r]);
        });
}

/** A tracer with a ring large enough for the whole stream and a gauge. */
std::unique_ptr<EventTracer>
makeTracer(AnnotationBus &bus, uint32_t mask)
{
    TracerOptions to;
    to.capacityEvents = 1u << 14;
    to.tagMask = mask;
    to.runId = 3;
    auto t = std::make_unique<EventTracer>(bus, to);
    sim::Core &core = bus.core();
    t->setCounterSampler([&core] {
        TraceCounterSample s{};
        s.heapBytes = core.totalInstructions();
        return s;
    });
    return t;
}

void
expectSameTrace(const EventTracer &a, const EventTracer &b)
{
    EXPECT_GT(a.recordedEvents(), 0u);
    EXPECT_EQ(a.recordedEvents(), b.recordedEvents());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const TraceRecord &x = a.at(i), &y = b.at(i);
        EXPECT_EQ(x.cyclesFp, y.cyclesFp) << "record " << i;
        EXPECT_EQ(x.tag, y.tag) << "record " << i;
        EXPECT_EQ(x.payload, y.payload) << "record " << i;
        EXPECT_EQ(x.phase, y.phase) << "record " << i;
        EXPECT_EQ(x.runId, y.runId) << "record " << i;
    }
    ASSERT_EQ(a.counterSamples().size(), b.counterSamples().size());
    for (size_t i = 0; i < a.counterSamples().size(); ++i) {
        EXPECT_EQ(a.counterSamples()[i].cyclesFp,
                  b.counterSamples()[i].cyclesFp);
        EXPECT_EQ(a.counterSamples()[i].heapBytes,
                  b.counterSamples()[i].heapBytes);
    }
}

TEST(BusRouting, EventTracerDefaultMaskExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) {
            return makeTracer(bus, kDefaultTraceTagMask);
        },
        false, expectSameTrace);
}

TEST(BusRouting, EventTracerAllTagsExact)
{
    expectRoutingExact(
        [](AnnotationBus &bus) { return makeTracer(bus, ~0u); }, true,
        [](const EventTracer &a, const EventTracer &b) {
            // Every annotation of the stream, phase and AOT closers too.
            EXPECT_GE(a.recordedEvents(), 6000u);
            expectSameTrace(a, b);
        });
}

} // namespace
} // namespace xlayer
} // namespace xlvm
