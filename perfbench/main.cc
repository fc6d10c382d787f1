/**
 * @file
 * xlvm host-time benchmark driver.
 *
 *   xlvm_perfbench --workload interp|jit_steady|jit_deopt --seed N
 *                  --seconds S --trace 0|1 [--root DIR]
 *                  [--spans-out PATH] [--perturb-loop-threshold N]
 *   xlvm_perfbench --record-refs PATH
 *
 * Closed loop, one client: the runs of a workload execute one after
 * another in this process through driver::runWorkload/runRktWorkload,
 * in an order the seed shuffles anew for every pass. Every run is
 * checked: its output against the interpreter-only reference, and its
 * metrics report against the golden twin (report::compareReports, which
 * skips only the host-only sim_memo, sim_superblock and profiler
 * sections). A failed run counts into "failed" and prints its first
 * drift to stderr.
 *
 * --trace 0 times whole passes and reports the end-to-end metrics.
 * --trace 1 alternates untraced passes with traced ones, in which the
 * benchmark builds each VmContext itself, wraps every step of a run in
 * a span and attaches PhaseSpans to the context's annotation bus; it
 * reports per-layer self times and counts. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "minipy/compiler.h"
#include "minipy/interp.h"
#include "minirkt/compiler.h"
#include "plan.h"
#include "report/golden.h"
#include "report/metrics.h"
#include "spans.h"
#include "vm/context.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using xlvm::driver::RunOptions;
using xlvm::driver::RunResult;
using xlvm::driver::VmKind;
using xlvm::report::Json;
using xlvm::xlayer::Phase;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 10;
constexpr int kMinUntracedPasses = 3;
constexpr int kMinTracedPairs = 2;
constexpr size_t kKeptSpans = 1u << 16;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Quantile by linear interpolation between closest ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Args
{
    std::string workload;
    std::string root = ".";
    std::string spansOut;
    std::string recordRefs;
    uint64_t seed = 1;
    double seconds = 0;
    int trace = 0;
    uint32_t perturbLoopThreshold = 0;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value\n", flag.c_str());
            return false;
        }
        const char *v = argv[++i];
        if (flag == "--workload")
            a->workload = v;
        else if (flag == "--seed")
            a->seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a->seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            a->trace = std::atoi(v);
        else if (flag == "--root")
            a->root = v;
        else if (flag == "--spans-out")
            a->spansOut = v;
        else if (flag == "--record-refs")
            a->recordRefs = v;
        else if (flag == "--perturb-loop-threshold")
            a->perturbLoopThreshold = uint32_t(std::strtoul(v, nullptr, 10));
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    if (a->recordRefs.empty() &&
        (a->workload.empty() || a->seconds <= 0 ||
         (a->trace != 0 && a->trace != 1))) {
        std::fprintf(stderr, "usage: xlvm_perfbench --workload NAME "
                             "--seed N --seconds S --trace 0|1\n");
        return false;
    }
    return true;
}

/** The driver's VM configuration for @p o, rebuilt from the public
 *  VmConfig fields (the driver keeps its own configFor private); the
 *  traced run's modeled totals are checked against the untraced run's,
 *  so any divergence from the driver shows as a failed run. */
xlvm::vm::VmConfig
configFor(const RunOptions &o)
{
    xlvm::vm::VmConfig cfg;
    bool jit = o.vm == VmKind::PyPyJit || o.vm == VmKind::PycketJit;
    bool refInterp =
        o.vm == VmKind::CPythonLike || o.vm == VmKind::RacketLike;
    cfg.flavor = refInterp ? xlvm::obj::VmFlavor::RefInterp
                           : xlvm::obj::VmFlavor::RPython;
    cfg.jit.enableJit = jit && o.tierMode != xlvm::vm::TierMode::Off;
    cfg.jit.loopThreshold = o.loopThreshold;
    cfg.jit.bridgeThreshold = o.bridgeThreshold;
    cfg.jit.irNodeAnnotations = o.irAnnotations;
    cfg.jit.fuseMicroOps = o.jitFuseMicroOps;
    cfg.jit.optVirtualize = o.optVirtualize;
    cfg.jit.optHeapCache = o.optHeapCache;
    cfg.jit.optElideGuards = o.optElideGuards;
    cfg.jit.optFoldConstants = o.optFoldConstants;
    cfg.jit.tierMode = o.tierMode;
    cfg.jit.tier1Threshold = o.tier1Threshold;
    cfg.jit.tier2Threshold = o.tier2Threshold;
    cfg.jit.stormThreshold = o.stormThreshold;
    cfg.jit.blacklistCooldown = o.blacklistCooldown;
    cfg.jit.compileBudgetOps = o.compileBudgetOps;
    cfg.jit.maxTraces = o.maxTraces;
    cfg.inject = o.inject;
    cfg.core.simMemo = o.simMemo;
    cfg.core.simSuperblock = o.simSuperblock;
    cfg.maxInstructions = o.maxInstructions;
    cfg.phaseTimelineBin = o.timelineBin;
    cfg.workSampleInstrs = o.workSampleInstrs;
    return cfg;
}

/** Benchmark state shared by the untraced and the traced passes. */
class Bench
{
  public:
    Bench(const Args &args, Plan plan)
        : plan_(std::move(plan)), rng_(args.seed),
          last_(plan_.runs.size()), reportBytes_(plan_.runs.size())
    {
        for (RunSpec &s : plan_.runs) {
            if (args.perturbLoopThreshold)
                s.opts.loopThreshold = args.perturbLoopThreshold;
        }
    }

    /** Per-pass run order: a fresh shuffle from the seeded stream. */
    std::vector<size_t>
    nextOrder()
    {
        std::vector<size_t> order(plan_.runs.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng_);
        return order;
    }

    /** One untraced pass; returns its host seconds and, if asked, stores
     *  each run's milliseconds in @p run_ms, indexed like the plan. */
    double
    untracedPass(const std::vector<size_t> &order, int pass,
                 std::vector<double> *run_ms)
    {
        double total = 0;
        if (run_ms)
            run_ms->assign(order.size(), 0.0);
        for (size_t idx : order) {
            Clock::time_point t0 = Clock::now();
            bool ok = untracedRun(idx, pass);
            double s = secondsBetween(t0, Clock::now());
            total += s;
            if (run_ms)
                (*run_ms)[idx] = s * 1e3;
            count(ok);
        }
        return total;
    }

    /** One traced pass; per-layer self times land in @p rec. */
    void
    tracedPass(const std::vector<size_t> &order, int pass,
               SpanRecorder &rec)
    {
        for (size_t idx : order) {
            rec.setRun(uint32_t(idx));
            count(tracedRun(idx, pass, rec));
        }
    }

    const Plan &plan() const { return plan_; }
    /** Latest untraced result of each run (modeled, so any pass). */
    const std::vector<RunResult> &lastResults() const { return last_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    /** Bytes of one pass's exported reports. */
    uint64_t
    reportBytes() const
    {
        uint64_t sum = 0;
        for (uint64_t b : reportBytes_)
            sum += b;
        return sum;
    }

  private:
    void
    count(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
    }

    void
    fail(size_t idx, int pass, const std::string &why)
    {
        std::fprintf(stderr, "FAIL %s (pass %d): %s\n",
                     plan_.runs[idx].label.c_str(), pass, why.c_str());
    }

    bool
    untracedRun(size_t idx, int pass)
    {
        const RunSpec &s = plan_.runs[idx];
        try {
            last_[idx] = s.rkt ? xlvm::driver::runRktWorkload(s.opts)
                               : xlvm::driver::runWorkload(s.opts);
        } catch (const std::exception &e) {
            fail(idx, pass, std::string("threw: ") + e.what());
            return false;
        }
        std::string why = check(idx, last_[idx], nullptr);
        if (!why.empty())
            fail(idx, pass, why);
        return why.empty();
    }

    /**
     * The correctness check of one result: completion, output against
     * the interpreter-only reference, then export and golden compare.
     * Returns the first failure, or "" for a good run.
     */
    std::string
    check(size_t idx, const RunResult &r, SpanRecorder *rec)
    {
        const RunSpec &s = plan_.runs[idx];
        std::string why;
        if (!r.error.empty())
            why = "error: " + r.error;
        else if (!r.completed)
            why = "did not complete";
        else if (r.output != s.reference)
            why = "output differs from the interpreter-only reference";

        if (rec)
            rec->open(Layer::ReportExport);
        xlvm::report::MetricsRegistry registry(s.goldenReport);
        registry.addRun(s.opts, r);
        Json fresh = registry.toJson();
        reportBytes_[idx] = fresh.dump().size();
        if (rec) {
            rec->close();
            rec->open(Layer::ReportCompare);
        }
        xlvm::report::GoldenOptions gopts;
        gopts.ignoreKeys = {"sim_memo", "sim_superblock", "profiler"};
        std::vector<xlvm::report::Drift> drifts =
            xlvm::report::compareReports(s.golden, fresh, gopts);
        if (rec)
            rec->close();
        if (why.empty() && !drifts.empty()) {
            const xlvm::report::Drift &d = drifts.front();
            why = "golden drift at " + d.path + ": golden " + d.golden +
                  ", fresh " + d.fresh + " (" +
                  std::to_string(drifts.size()) + " drifts)";
        }
        return why;
    }

    /**
     * One traced run. The root span covers what an untraced run does,
     * except result collection: context setup, frontend, Interp::run,
     * teardown, and the report steps. Collecting a RunResult is private
     * to the driver, so the report steps re-check the untraced result
     * of this run, and the traced run's own modeled totals must equal
     * that result's. The untraced side pays for collection, so
     * trace.overhead_pct understates the cost of tracing by its share.
     */
    bool
    tracedRun(size_t idx, int pass, SpanRecorder &rec)
    {
        const RunSpec &s = plan_.runs[idx];
        const RunResult &untraced = last_[idx];
        std::string why;
        rec.open(Layer::Run);
        size_t runDepth = rec.depth();
        try {
            rec.open(Layer::VmContext);
            xlvm::vm::VmContext ctx(configFor(s.opts));
            rec.close();
            PhaseSpans phases(ctx.bus, rec);

            rec.open(s.rkt ? Layer::MinirktCompile : Layer::MinipyCompile);
            const xlvm::workloads::Workload *w =
                xlvm::workloads::findWorkload(s.opts.workload);
            if (!w)
                throw std::invalid_argument("unknown program " +
                                            s.opts.workload);
            xlvm::workloads::Workload tmp = *w;
            if (s.rkt)
                tmp.source = tmp.rktSource;
            std::string src = xlvm::workloads::instantiate(tmp,
                                                           s.opts.scale);
            std::unique_ptr<xlvm::minipy::Program> prog =
                s.rkt ? xlvm::minirkt::compileRkt(src, ctx.space)
                      : xlvm::minipy::compileSource(src, ctx.space);
            rec.close();

            rec.open(Layer::MinipyRun);
            xlvm::minipy::Interp interp(ctx, *prog);
            bool completed = interp.run();
            phases.closeAll();
            rec.close();

            why = compareTotals(ctx, untraced);
            if (why.empty() && (!completed || interp.output() != s.reference))
                why = "traced run output differs from the reference";
            if (why.empty() && phases.underflows())
                why = "unbalanced phase annotations";
        } catch (const std::exception &e) {
            why = std::string("threw: ") + e.what();
        }
        while (rec.depth() > runDepth)
            rec.close();
        std::string reportWhy = check(idx, untraced, &rec);
        rec.close();
        if (why.empty())
            why = reportWhy;
        if (!why.empty())
            fail(idx, pass, "traced: " + why);
        return why.empty();
    }

    static std::string
    compareTotals(const xlvm::vm::VmContext &ctx, const RunResult &r)
    {
        xlvm::sim::PerfCounters total = ctx.core.totalCounters();
        uint64_t cyclesFp = 0;
        for (uint32_t p = 0; p < xlvm::xlayer::kNumPhases; ++p) {
            const xlvm::sim::PerfCounters &pc = ctx.core.bucketCounters(p);
            cyclesFp += r.phaseCounters[p].cyclesFp;
            if (pc.instructions != r.phaseCounters[p].instructions)
                return std::string("instructions in phase ") +
                       xlvm::xlayer::phaseName(Phase(p)) +
                       " differ from the untraced run";
        }
        if (total.instructions != r.instructions)
            return "total instructions differ from the untraced run";
        if (total.cyclesFp != cyclesFp)
            return "cycles_fp differ from the untraced run";
        return "";
    }

    Plan plan_;
    std::mt19937_64 rng_;
    std::vector<RunResult> last_;
    std::vector<uint64_t> reportBytes_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Metrics of the result line, in print order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        Json m = Json::object();
        m.set("value", Json(value));
        m.set("unit", Json(unit));
        doc_.set(name, std::move(m));
    }

    const Json &json() const { return doc_; }

  private:
    Json doc_ = Json::object();
};

/** Peak resident memory of this process image, in MB. VmHWM, unlike
 *  getrusage's ru_maxrss, does not carry over the peak of the process
 *  that exec'ed this one (the Python launcher). */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return double(kb) / 1024.0;
}

/**
 * Moves this process from CPU to CPU of its affinity mask, one CPU per
 * pass. On a shared host a virtual CPU can run xlvm at half speed for
 * seconds at a time; rotating keeps one such CPU from holding every pass
 * of a run, so a run's fastest pass comes from a CPU that was free.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
            }
        }
    }

    /** Pin to the next CPU; returns it, or -1 if there is only one. */
    int
    next()
    {
        if (cpus_.size() < 2)
            return -1;
        int cpu = cpus_[next_++ % cpus_.size()];
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
    }

    size_t size() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** Fastest of kSetupReps back-to-back set-ups, in seconds, or a negative
 *  value if one fails. */
double
timeSetup(const Args &args)
{
    double best = -1.0;
    for (int i = 0; i < kSetupReps; ++i) {
        Clock::time_point t0 = Clock::now();
        Plan plan;
        std::string err;
        if (!buildPlan(args.workload, args.root, &plan, &err))
            return -1.0;
        double s = secondsBetween(t0, Clock::now());
        if (best < 0 || s < best)
            best = s;
    }
    return best;
}

/**
 * Untraced mode: the end-to-end metrics. Each pass runs on the next CPU
 * of the rotation, and each run's host time is its fastest pass: the
 * modeled work of a run is fixed, so a slower pass only shows a CPU that
 * was busy with other work. sweep_s is the sum of those times. By the
 * same rule setup_s is the fastest set-up: kSetupReps of them are timed
 * before every pass. @p firstSetup, timed from process start, is
 * printed.
 */
void
measureEndToEnd(Bench &bench, const Args &args, double firstSetup,
                Metrics *m)
{
    CpuRotation cpus;
    Clock::time_point start = Clock::now();
    bench.untracedPass(bench.nextOrder(), 0, nullptr); // warm-up
    size_t runs = bench.plan().runs.size();
    std::vector<double> passes, best(runs, 0.0), runMs, setups;
    double rssMb = 0;
    int minPasses = std::max<int>(kMinUntracedPasses, int(cpus.size()));
    while (int(passes.size()) < minPasses ||
           secondsBetween(start, Clock::now()) < args.seconds) {
        int pass = int(passes.size()) + 1;
        cpus.next();
        double t = timeSetup(args);
        if (t >= 0)
            setups.push_back(t);
        passes.push_back(bench.untracedPass(bench.nextOrder(), pass,
                                            &runMs));
        for (size_t i = 0; i < runs; ++i) {
            if (pass == 1 || runMs[i] < best[i])
                best[i] = runMs[i];
        }
        // Fixed work (set-up, warm-up and one timed pass), so the peak
        // does not grow with the number of passes a run fits in.
        if (pass == 1)
            rssMb = peakRssMb();
    }

    uint64_t insts = 0;
    for (const RunResult &r : bench.lastResults())
        insts += r.instructions;
    double sweep = 0;
    for (double ms : best)
        sweep += ms / 1e3;
    double p50 = quantile(best, 0.5), p90 = quantile(best, 0.9);
    double setup = setups.empty()
                       ? firstSetup
                       : *std::min_element(setups.begin(), setups.end());
    std::printf("sweep_s: %.4f (sum of each run's fastest pass) over %zu "
                "passes on %zu CPUs; whole passes:",
                sweep, passes.size(), cpus.size());
    for (double x : passes)
        std::printf(" %.4f", x);
    std::printf("\nrun_ms: p50 %.3f p90 %.3f over %zu runs' fastest "
                "passes:",
                p50, p90, runs);
    for (size_t i = 0; i < runs; ++i)
        std::printf(" %s %.1f", bench.plan().runs[i].label.c_str(), best[i]);
    std::printf("\n");
    std::printf("setup_s: fastest %.6f; median of %zu samples (each the "
                "fastest of %d) %.6f; first %.6f\n",
                setup, setups.size(), kSetupReps, median(setups), firstSetup);
    std::printf("sim.insts per pass: %llu\n", (unsigned long long)insts);

    m->add("sweep_s", sweep, "s");
    m->add("sim_mips", double(insts) / sweep / 1e6, "Minst/s");
    m->add("setup_s", setup, "s");
    m->add("peak_rss_mb", rssMb, "MB");
}

/** Traced mode: per-layer self times from the spans, counts from the
 *  untraced results, and the tracing overhead. */
bool
measurePerLayer(Bench &bench, const Args &args, Metrics *m)
{
    SpanRecorder rec;
    CpuRotation cpus;
    Clock::time_point start = Clock::now();
    bench.untracedPass(bench.nextOrder(), 0, nullptr); // warm-up
    std::vector<double> untraced, traced;
    std::vector<std::array<int64_t, kNumLayers>> selfPerPass;
    bool balanced = true;
    while (int(traced.size()) < kMinTracedPairs ||
           secondsBetween(start, Clock::now()) < args.seconds) {
        int pass = int(traced.size()) + 1;
        cpus.next(); // both passes of a pair on one CPU
        std::vector<size_t> order = bench.nextOrder();
        untraced.push_back(bench.untracedPass(order, pass, nullptr));
        rec.resetTotals();
        rec.keepUpTo(pass == 1 && !args.spansOut.empty() ? kKeptSpans : 0);
        bench.tracedPass(order, pass, rec);
        traced.push_back(double(rec.rootNs()) / 1e9);
        selfPerPass.push_back(rec.selfNs());
        // Self times tile the root spans exactly (integer ns).
        int64_t sum = 0;
        for (int64_t ns : rec.selfNs())
            sum += ns;
        if (sum != rec.rootNs() || rec.depth() != 0) {
            std::fprintf(stderr, "FAIL pass %d: self times sum to %lld ns, "
                                 "traced runs took %lld ns\n",
                         pass, (long long)sum, (long long)rec.rootNs());
            balanced = false;
        }
    }
    if (!args.spansOut.empty()) {
        std::string err;
        if (!rec.write(args.spansOut, &err))
            std::fprintf(stderr, "spans: %s\n", err.c_str());
        else
            std::fprintf(stderr, "[spans: %s, %zu kept, %llu dropped]\n",
                         args.spansOut.c_str(), rec.keptSpans(),
                         (unsigned long long)rec.droppedSpans());
    }

    auto layerMs = [&](std::initializer_list<Layer> layers) {
        std::vector<double> perPass;
        for (const auto &self : selfPerPass) {
            int64_t ns = 0;
            for (Layer l : layers)
                ns += self[size_t(l)];
            perPass.push_back(double(ns) / 1e6);
        }
        return median(perPass);
    };

    // Modeled counts per pass, from the untraced results.
    uint64_t phaseInsts[xlvm::xlayer::kNumPhases] = {};
    uint64_t insts = 0, dispatches = 0, loops = 0, bridges = 0, aborted = 0;
    uint64_t tier1 = 0, promotions = 0, enters = 0, deopts = 0;
    uint64_t gcMinor = 0, gcMajor = 0, allocs = 0;
    uint64_t memoHits = 0, memoMisses = 0, memoInval = 0, sbHits = 0;
    uint64_t sbMisses = 0, sbDiverge = 0, replayed = 0;
    for (const RunResult &r : bench.lastResults()) {
        for (uint32_t p = 0; p < xlvm::xlayer::kNumPhases; ++p)
            phaseInsts[p] += r.phaseCounters[p].instructions;
        insts += r.instructions;
        dispatches += r.work;
        loops += r.loopsCompiled;
        bridges += r.bridgesCompiled;
        aborted += r.tracesAborted;
        tier1 += r.tier1Compiles;
        promotions += r.tierPromotions;
        enters += r.traceEnters;
        deopts += r.deopts;
        gcMinor += r.gcMinor;
        gcMajor += r.gcMajor;
        allocs += r.gcAllocations;
        memoHits += r.memoHits;
        memoMisses += r.memoMisses;
        memoInval += r.memoInvalidations;
        sbHits += r.sbHits;
        sbMisses += r.sbMisses;
        sbDiverge += r.sbDivergences;
        replayed += r.memoReplayedInstructions + r.sbReplayedInstructions;
    }
    auto phaseInstsOf = [&](Phase p) { return double(phaseInsts[size_t(p)]); };

    double interpMs =
        layerMs({Layer::MinipyRun, phaseLayer(Phase::Interpreter)});
    double jitMs = layerMs({phaseLayer(Phase::Jit)});
    double untracedS = median(untraced), tracedS = median(traced);

    m->add("vm.context_ms", layerMs({Layer::VmContext}), "ms");
    m->add("minipy.compile_ms", layerMs({Layer::MinipyCompile}), "ms");
    m->add("minirkt.compile_ms", layerMs({Layer::MinirktCompile}), "ms");
    m->add("minipy.interp_ms", interpMs, "ms");
    m->add("minipy.interp_insts", phaseInstsOf(Phase::Interpreter), "inst");
    m->add("minipy.interp_ns_per_inst",
           ratio(interpMs * 1e6, phaseInstsOf(Phase::Interpreter)), "ns/inst");
    m->add("minipy.dispatches", double(dispatches), "count");
    m->add("jit.tracing_ms", layerMs({phaseLayer(Phase::Tracing)}), "ms");
    m->add("jit.tracing_insts", phaseInstsOf(Phase::Tracing), "inst");
    m->add("jit.loops_compiled", double(loops), "count");
    m->add("jit.bridges_compiled", double(bridges), "count");
    m->add("jit.traces_aborted", double(aborted), "count");
    m->add("jit.tier1_compiles", double(tier1), "count");
    m->add("jit.tier_promotions", double(promotions), "count");
    m->add("jit.compile_success_ratio",
           ratio(double(loops + bridges), double(loops + bridges + aborted)),
           "ratio");
    m->add("vm.jit_ms", jitMs, "ms");
    m->add("vm.jit_insts", phaseInstsOf(Phase::Jit), "inst");
    m->add("vm.jit_ns_per_inst", ratio(jitMs * 1e6, phaseInstsOf(Phase::Jit)),
           "ns/inst");
    m->add("vm.trace_enters", double(enters), "count");
    m->add("vm.blackhole_ms", layerMs({phaseLayer(Phase::Blackhole)}), "ms");
    m->add("vm.blackhole_insts", phaseInstsOf(Phase::Blackhole), "inst");
    m->add("vm.deopts", double(deopts), "count");
    m->add("rt.jitcall_ms", layerMs({phaseLayer(Phase::JitCall)}), "ms");
    m->add("rt.jitcall_insts", phaseInstsOf(Phase::JitCall), "inst");
    m->add("gc.ms", layerMs({phaseLayer(Phase::Gc)}), "ms");
    m->add("gc.minor", double(gcMinor), "count");
    m->add("gc.major", double(gcMajor), "count");
    m->add("gc.allocations", double(allocs), "count");
    m->add("sim.memo_hit_rate",
           ratio(double(memoHits), double(memoHits + memoMisses)), "ratio");
    m->add("sim.memo_invalidations", double(memoInval), "count");
    m->add("sim.sb_hit_rate", ratio(double(sbHits), double(sbHits + sbMisses)),
           "ratio");
    m->add("sim.sb_divergences", double(sbDiverge), "count");
    m->add("sim.replayed_inst_share", ratio(double(replayed), double(insts)),
           "ratio");
    m->add("sim.insts", double(insts), "inst");
    m->add("report.export_ms", layerMs({Layer::ReportExport}), "ms");
    m->add("report.compare_ms", layerMs({Layer::ReportCompare}), "ms");
    m->add("report.bytes", double(bench.reportBytes()), "B");
    m->add("trace.overhead_pct", 100.0 * (tracedS - untracedS) / untracedS,
           "%");
    m->add("trace.unattributed_ms", layerMs({Layer::Run}), "ms");
    m->add("fail_share",
           ratio(double(bench.failed()), double(bench.attempted())), "ratio");

    std::printf("traced pairs %zu: untraced %.4f s, traced %.4f s per pass\n",
                traced.size(), untracedS, tracedS);
    std::printf("sim.insts per pass: %llu\n", (unsigned long long)insts);
    return balanced;
}

int
benchMain(int argc, char **argv)
{
    Clock::time_point processStart = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, &args))
        return 2;

    std::string err;
    if (!args.recordRefs.empty()) {
        if (!recordReferences(args.recordRefs, &err)) {
            std::fprintf(stderr, "record-refs: %s\n", err.c_str());
            return 1;
        }
        return 0;
    }

    // Set-up: load and parse the goldens and the output references and
    // build the run list. This first one also covers process start-up.
    Plan plan;
    if (!buildPlan(args.workload, args.root, &plan, &err)) {
        std::fprintf(stderr, "setup: %s\n", err.c_str());
        return 1;
    }
    double firstSetup = secondsBetween(processStart, Clock::now());

    Bench bench(args, std::move(plan));
    std::printf("perfbench: workload %s seed %llu trace %d runs/pass %zu\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                args.trace, bench.plan().runs.size());
    Metrics metrics;
    bool integrity = true;
    if (args.trace == 0)
        measureEndToEnd(bench, args, firstSetup, &metrics);
    else
        integrity = measurePerLayer(bench, args, &metrics);

    std::printf("seed %llu: attempted %llu failed %llu\n",
                (unsigned long long)args.seed,
                (unsigned long long)bench.attempted(),
                (unsigned long long)bench.failed());
    Json result = Json::object();
    result.set("correct", Json(integrity && bench.failed() == 0));
    result.set("attempted", Json(bench.attempted()));
    result.set("failed", Json(bench.failed()));
    result.set("metrics", metrics.json());
    std::printf("%s\n", result.dump(0).c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
