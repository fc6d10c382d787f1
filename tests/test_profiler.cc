/**
 * @file
 * Sampling profiler stack: histogram bucket math, deterministic
 * cycle-sampling (bit-identical profiles across repeated runs), the
 * zero-perturbation differential guarantee (profiler on vs off leaves
 * every modeled counter bit-identical), guard-failure attribution
 * provenance, and the profile-export document/aggregation helpers
 * behind xlvm-prof.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/histogram.h"
#include "driver/runner.h"
#include "report/metrics.h"
#include "report/profile_export.h"
#include "xlayer/phase.h"
#include "xlayer/sampler.h"

namespace xlvm {
namespace {

using common::Histogram;

// ---- histogram bucket math -------------------------------------------

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (uint64_t v = 0; v < Histogram::kSubCount; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), uint64_t(Histogram::kSubCount));
    for (uint64_t v = 0; v < Histogram::kSubCount; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), uint32_t(v));
        EXPECT_EQ(Histogram::bucketLow(uint32_t(v)), v);
        EXPECT_EQ(Histogram::bucketHigh(uint32_t(v)), v);
    }
}

TEST(Histogram, BucketBoundsBracketEveryProbe)
{
    // lo(idx) <= v <= hi(idx), and both bounds map back to idx — the
    // bucket table is a partition of the value range.
    std::vector<uint64_t> probes = {0,    1,     15,        16,
                                    17,   100,   1023,      1024,
                                    4097, 65535, 1u << 20,  123456789,
                                    (1ull << 40) + 7, UINT64_MAX / 3};
    for (uint64_t v : probes) {
        uint32_t idx = Histogram::bucketIndex(v);
        ASSERT_LT(idx, Histogram::kNumBuckets) << v;
        EXPECT_LE(Histogram::bucketLow(idx), v) << v;
        EXPECT_GE(Histogram::bucketHigh(idx), v) << v;
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketLow(idx)), idx);
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketHigh(idx)),
                  idx);
    }
}

TEST(Histogram, PercentilesMonotonicAndClamped)
{
    Histogram h;
    for (uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 1000u);
    uint64_t p50 = h.percentile(50.0);
    uint64_t p90 = h.percentile(90.0);
    uint64_t p99 = h.percentile(99.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Clamped into [min, max]: extremes are never over-stated.
    EXPECT_GE(p50, h.min());
    EXPECT_LE(h.percentile(100.0), h.max());
    // Log-linear resolution: the median of 1..1000 is within one
    // bucket (~6% relative) of 500.
    EXPECT_GE(p50, 470u);
    EXPECT_LE(p50, 540u);
}

TEST(Histogram, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_TRUE(h.nonzeroBuckets().empty());
}

TEST(Histogram, MergeMatchesCombinedStream)
{
    Histogram a, b, both;
    for (uint64_t v = 1; v < 500; v += 3) {
        a.record(v);
        both.record(v);
    }
    for (uint64_t v = 100000; v < 200000; v += 777) {
        b.recordN(v, 2);
        both.recordN(v, 2);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_EQ(a.percentile(50.0), both.percentile(50.0));
    EXPECT_EQ(a.percentile(99.0), both.percentile(99.0));
    std::vector<Histogram::Bucket> ba = a.nonzeroBuckets();
    std::vector<Histogram::Bucket> bb = both.nonzeroBuckets();
    ASSERT_EQ(ba.size(), bb.size());
    for (size_t i = 0; i < ba.size(); ++i) {
        EXPECT_EQ(ba[i].lo, bb[i].lo);
        EXPECT_EQ(ba[i].count, bb[i].count);
    }
}

// ---- sampler determinism and zero perturbation -----------------------

driver::RunOptions
smallJitRun()
{
    driver::RunOptions o;
    o.workload = "richards";
    o.vm = driver::VmKind::PyPyJit;
    o.loopThreshold = 120;
    o.bridgeThreshold = 40;
    o.maxInstructions = 2u * 1000 * 1000;
    return o;
}

driver::RunOptions
profiledRun(uint64_t interval = 5000)
{
    driver::RunOptions o = smallJitRun();
    o.profileIntervalCycles = interval;
    return o;
}

TEST(Sampler, ProfileBitIdenticalAcrossRepeatedRuns)
{
    driver::RunResult r1 = driver::runWorkload(profiledRun());
    driver::RunResult r2 = driver::runWorkload(profiledRun());
    ASSERT_TRUE(r1.completed);
    ASSERT_GT(r1.profile.samples, 0u);
    EXPECT_EQ(r1.profile.samples, r2.profile.samples);
    ASSERT_EQ(r1.profile.sites.size(), r2.profile.sites.size());
    for (size_t i = 0; i < r1.profile.sites.size(); ++i) {
        EXPECT_EQ(r1.profile.sites[i].phase, r2.profile.sites[i].phase);
        EXPECT_EQ(r1.profile.sites[i].ctx, r2.profile.sites[i].ctx);
        EXPECT_EQ(r1.profile.sites[i].pc, r2.profile.sites[i].pc);
        EXPECT_EQ(r1.profile.sites[i].count, r2.profile.sites[i].count);
    }
    EXPECT_EQ(r1.profile.phaseSeq, r2.profile.phaseSeq);

    // The exported documents are byte-identical too.
    report::ProfileBuilder b1("t"), b2("t");
    b1.addRun(profiledRun(), r1);
    b2.addRun(profiledRun(), r2);
    EXPECT_EQ(b1.toJson().dump(2), b2.toJson().dump(2));
    EXPECT_EQ(b1.toFolded(), b2.toFolded());
}

TEST(Sampler, CountersBitIdenticalOnVsOff)
{
    driver::RunResult off = driver::runWorkload(smallJitRun());
    driver::RunResult on = driver::runWorkload(profiledRun());
    ASSERT_TRUE(off.completed);
    ASSERT_TRUE(on.completed);
    EXPECT_EQ(off.profile.samples, 0u);
    ASSERT_GT(on.profile.samples, 0u);

    EXPECT_EQ(off.output, on.output);
    EXPECT_EQ(off.instructions, on.instructions);
    EXPECT_EQ(off.cycles, on.cycles);
    for (uint32_t p = 0; p < xlayer::kNumPhases; ++p) {
        const sim::PerfCounters &a = off.phaseCounters[p];
        const sim::PerfCounters &b = on.phaseCounters[p];
        EXPECT_EQ(a.instructions, b.instructions) << "phase " << p;
        EXPECT_EQ(a.cyclesFp, b.cyclesFp) << "phase " << p;
        EXPECT_EQ(a.branches, b.branches);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        EXPECT_EQ(a.loads, b.loads);
        EXPECT_EQ(a.stores, b.stores);
        EXPECT_EQ(a.icacheMisses, b.icacheMisses);
        EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    }

    // Latency histograms are modeled statistics, not sampler output:
    // they must agree between the two runs as well.
    EXPECT_EQ(off.iterationLatency.count(), on.iterationLatency.count());
    EXPECT_EQ(off.iterationLatency.sum(), on.iterationLatency.sum());
    EXPECT_EQ(off.executionLength.count(), on.executionLength.count());
    EXPECT_EQ(off.executionLength.sum(), on.executionLength.sum());
}

TEST(Sampler, EverySampleCarriesPhaseAndContext)
{
    driver::RunResult r = driver::runWorkload(profiledRun());
    ASSERT_GT(r.profile.samples, 0u);
    uint64_t attributed = 0;
    uint64_t lastKey[3] = {0, 0, 0};
    bool first = true;
    for (const xlayer::SampleSite &s : r.profile.sites) {
        EXPECT_LT(s.phase, xlayer::kNumPhases);
        EXPECT_GT(s.count, 0u);
        attributed += s.count;
        if (!first) {
            // Ascending (phase, ctx, pc) order — the determinism
            // contract the exporters rely on.
            bool ascending =
                std::make_tuple(lastKey[0], lastKey[1], lastKey[2]) <
                std::make_tuple(uint64_t(s.phase), s.ctx, s.pc);
            EXPECT_TRUE(ascending);
        }
        lastKey[0] = s.phase;
        lastKey[1] = s.ctx;
        lastKey[2] = s.pc;
        first = false;
    }
    // 100% attribution: every sample lands in a (phase, context) cell.
    EXPECT_EQ(attributed, r.profile.samples);

    // The RLE phase timeline covers exactly the same samples.
    uint64_t seqTotal = 0;
    for (const auto &pr : r.profile.phaseSeq)
        seqTotal += pr.second;
    EXPECT_EQ(seqTotal, r.profile.samples);

    // A JIT-heavy run samples both interpreter and trace contexts.
    bool sawInterp = false, sawTrace = false;
    for (const xlayer::SampleSite &s : r.profile.sites) {
        sim::SampleCtxKind k = sim::sampleCtxKind(s.ctx);
        if (k == sim::SampleCtxKind::Interp)
            sawInterp = true;
        if (k == sim::SampleCtxKind::Trace ||
            k == sim::SampleCtxKind::Bridge)
            sawTrace = true;
    }
    EXPECT_TRUE(sawInterp);
    EXPECT_TRUE(sawTrace);
}

// ---- guard-failure attribution ---------------------------------------

TEST(DeoptAttribution, SitesCarryProvenance)
{
    driver::RunResult r = driver::runWorkload(smallJitRun());
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.deopts, 0u);
    ASSERT_FALSE(r.deoptSites.empty());
    for (const driver::DeoptSite &d : r.deoptSites) {
        EXPECT_GT(d.failCount, 0u);
        EXPECT_FALSE(d.guardOp.empty());
        EXPECT_GE(d.tier, 1u);
    }
    // Symbols cover every registered trace; every deopt site's trace
    // has a symbol.
    ASSERT_FALSE(r.traceSymbols.empty());
    for (const driver::DeoptSite &d : r.deoptSites) {
        bool found = false;
        for (const driver::TraceSymbol &s : r.traceSymbols)
            if (s.traceId == d.traceId)
                found = true;
        EXPECT_TRUE(found) << "trace " << d.traceId;
    }
}

// ---- export document and aggregations --------------------------------

TEST(ProfileExport, DocumentRoundTripsWithProvenance)
{
    driver::RunOptions o = profiledRun();
    driver::RunResult r = driver::runWorkload(o);
    report::ProfileBuilder b("unit");
    b.addRun(o, r);
    ASSERT_EQ(b.runCount(), 1u);

    std::string err;
    report::Json doc = report::Json::parse(b.toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_NE(doc.get("kind"), nullptr);
    EXPECT_EQ(doc.get("kind")->asString(), "xlvm-profile");
    EXPECT_EQ(doc.get("schema_version")->asUInt(),
              uint64_t(report::MetricsRegistry::kSchemaVersion));

    const report::Json *runs = doc.get("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 1u);
    const report::Json &run = runs->items()[0];
    EXPECT_EQ(run.get("workload")->asString(), o.workload);
    EXPECT_EQ(run.get("interval_cycles")->asUInt(),
              o.profileIntervalCycles);

    // Provenance block: schema version, tier mode, sampler interval,
    // workload/VM config — asserted field by field (the round-trip
    // contract the folded headers and Chrome export reuse).
    const report::Json *prov = run.get("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_EQ(prov->get("schema_version")->asUInt(),
              uint64_t(report::MetricsRegistry::kSchemaVersion));
    EXPECT_EQ(prov->get("tier_mode")->asString(),
              std::string(vm::tierModeName(o.tierMode)));
    EXPECT_EQ(prov->get("interval_cycles")->asUInt(),
              o.profileIntervalCycles);
    EXPECT_EQ(prov->get("workload")->asString(), o.workload);
    EXPECT_EQ(prov->get("vm")->asString(),
              std::string(driver::vmKindName(o.vm)));
    EXPECT_EQ(prov->get("loop_threshold")->asUInt(), o.loopThreshold);
    EXPECT_EQ(prov->get("bridge_threshold")->asUInt(),
              o.bridgeThreshold);

    // Site counts in the document sum to the sample total.
    uint64_t total = 0;
    for (const report::Json &s : run.get("sites")->items())
        total += s.get("count")->asUInt();
    EXPECT_EQ(total, run.get("samples")->asUInt());

    // Latency section carries the histogram stats.
    const report::Json *lat = run.get("latency");
    ASSERT_NE(lat, nullptr);
    ASSERT_NE(lat->get("iteration"), nullptr);
    EXPECT_EQ(lat->get("iteration")->get("count")->asUInt(),
              r.iterationLatency.count());
}

TEST(ProfileExport, FoldedHeadersAndStackLines)
{
    driver::RunOptions o = profiledRun();
    driver::RunResult r = driver::runWorkload(o);
    report::ProfileBuilder b("unit");
    b.addRun(o, r);
    std::string folded = b.toFolded();
    ASSERT_FALSE(folded.empty());
    // Provenance rides along as '# key: value' comments.
    EXPECT_NE(folded.find("# tier_mode: "), std::string::npos);
    EXPECT_NE(folded.find("# workload: richards"), std::string::npos);
    // Stack lines: workload@vm;phase;context;pc count.
    EXPECT_NE(folded.find("richards@"), std::string::npos);
    uint64_t total = 0;
    size_t start = 0;
    while (start < folded.size()) {
        size_t end = folded.find('\n', start);
        if (end == std::string::npos)
            end = folded.size();
        std::string line = folded.substr(start, end - start);
        start = end + 1;
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_NE(line.find(';'), std::string::npos) << line;
        total += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    }
    EXPECT_EQ(total, r.profile.samples);
}

TEST(ProfileExport, TopTreeAndDeoptAggregations)
{
    driver::RunOptions o = profiledRun();
    driver::RunResult r = driver::runWorkload(o);
    report::ProfileBuilder b("unit");
    b.addRun(o, r);
    report::Json doc = b.toJson();

    // top with no cap: counts sum to the sample total (the >=95%
    // attribution acceptance is trivially 100% by construction; this
    // pins it).
    report::Json top = report::profileTop(doc, 0);
    uint64_t topTotal = 0;
    for (const report::Json &row : top.items())
        topTotal += row.get("count")->asUInt();
    EXPECT_EQ(topTotal, r.profile.samples);
    EXPECT_FALSE(report::formatProfileTop(top).empty());

    // tree: per-phase rollups also sum to the total.
    report::Json tree = report::profileTree(doc);
    uint64_t treeTotal = 0;
    for (const report::Json &run : tree.items())
        for (const report::Json &ph : run.get("phases")->items())
            treeTotal += ph.get("count")->asUInt();
    EXPECT_EQ(treeTotal, r.profile.samples);
    EXPECT_FALSE(report::formatProfileTree(tree).empty());

    // top-deopts: descending fail counts with provenance columns.
    report::Json deopts = report::profileTopDeopts(doc, 0);
    ASSERT_EQ(deopts.size(), r.deoptSites.size());
    uint64_t prev = UINT64_MAX;
    for (const report::Json &d : deopts.items()) {
        uint64_t fails = d.get("fail_count")->asUInt();
        EXPECT_LE(fails, prev);
        prev = fails;
        EXPECT_NE(d.get("guard_op"), nullptr);
        EXPECT_NE(d.get("origin_pc"), nullptr);
        EXPECT_NE(d.get("trace"), nullptr);
    }
    EXPECT_FALSE(report::formatProfileDeopts(deopts).empty());
    EXPECT_FALSE(report::formatProfileDump(doc).empty());
}

TEST(ProfileExport, ChromeCounterTracksWellFormed)
{
    driver::RunOptions o = profiledRun();
    driver::RunResult r = driver::runWorkload(o);
    ASSERT_GT(r.profile.samples, 0u);
    report::ProfileBuilder b("unit");
    b.addRun(o, r);

    report::Json counters = report::profileChromeCounters(b.toJson());
    std::string err;
    report::Json parsed = report::Json::parse(counters.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    const report::Json *events = parsed.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    size_t counterEvents = 0;
    double lastTs = -1.0;
    for (const report::Json &ev : events->items()) {
        const std::string &ph = ev.get("ph")->asString();
        if (ph != "C")
            continue;
        ++counterEvents;
        double ts = ev.get("ts")->asDouble();
        EXPECT_GE(ts, lastTs); // time axis is monotone per track merge
        lastTs = ts;
    }
    EXPECT_EQ(counterEvents, r.profile.phaseSeq.size());
}

TEST(ProfileExport, SampleCtxLabels)
{
    using sim::sampleCtxPack;
    using sim::SampleCtxKind;
    EXPECT_EQ(report::sampleCtxLabel(
                  sampleCtxPack(SampleCtxKind::Interp, 0, 0)),
              "interp");
    EXPECT_EQ(report::sampleCtxLabel(
                  sampleCtxPack(SampleCtxKind::Trace, 2, 7)),
              "trace:7@t2");
    EXPECT_EQ(report::sampleCtxLabel(
                  sampleCtxPack(SampleCtxKind::Bridge, 1, 9)),
              "bridge:9@t1");
    EXPECT_EQ(report::sampleCtxLabel(
                  sampleCtxPack(SampleCtxKind::Gc, 0, 3)),
              "gc:3");
    EXPECT_EQ(report::sampleCtxLabel(
                  sampleCtxPack(SampleCtxKind::Compile, 0, 5)),
              "compile:5");
}

// ---- latency histograms from a real run ------------------------------

TEST(Latency, IterationHistogramPopulatedOnJitRun)
{
    driver::RunResult r = driver::runWorkload(smallJitRun());
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.iterationLatency.count(), 0u);
    EXPECT_GT(r.iterationLatency.max(), 0u);
    EXPECT_LE(r.iterationLatency.percentile(50.0),
              r.iterationLatency.percentile(99.0));
    ASSERT_GT(r.executionLength.count(), 0u);
    // Executions happen at all only because traces compiled; their
    // recorded count can't exceed trace entries.
    EXPECT_LE(r.executionLength.count(), r.traceEnters);
}

} // namespace
} // namespace xlvm
