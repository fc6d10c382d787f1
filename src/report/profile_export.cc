#include "report/profile_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "report/metrics.h"
#include "sim/core.h"
#include "xlayer/phase.h"

namespace xlvm {
namespace report {

namespace {

std::string
fmt(const char *f, ...)
{
    char buf[128];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

/** Histogram → JSON: summary stats plus the populated buckets. */
Json
histJson(const common::Histogram &h)
{
    Json j = Json::object();
    j.set("count", Json(h.count()));
    j.set("min", Json(h.min()));
    j.set("max", Json(h.max()));
    j.set("mean", Json(h.mean()));
    j.set("p50", Json(h.percentile(50.0)));
    j.set("p90", Json(h.percentile(90.0)));
    j.set("p99", Json(h.percentile(99.0)));
    Json buckets = Json::array();
    for (const common::Histogram::Bucket &b : h.nonzeroBuckets()) {
        Json e = Json::array();
        e.push(Json(b.lo));
        e.push(Json(b.hi));
        e.push(Json(b.count));
        buckets.push(std::move(e));
    }
    j.set("buckets", std::move(buckets));
    return j;
}

} // namespace

Json
runProvenance(const driver::RunOptions &opts)
{
    Json p = Json::object();
    p.set("generator", Json("xlvm"));
    p.set("schema_version", Json(MetricsRegistry::kSchemaVersion));
    p.set("tier_mode", Json(vm::tierModeName(opts.tierMode)));
    p.set("interval_cycles", Json(opts.profileIntervalCycles));
    p.set("workload", Json(opts.workload));
    p.set("vm", Json(driver::vmKindName(opts.vm)));
    p.set("scale", Json(uint64_t(opts.scale)));
    p.set("loop_threshold", Json(opts.loopThreshold));
    p.set("bridge_threshold", Json(opts.bridgeThreshold));
    p.set("ir_annotations", Json(opts.irAnnotations));
    p.set("inject", Json(opts.inject.empty() ? "off" : opts.inject));
    return p;
}

namespace {

const char *
phaseLabel(uint32_t phase)
{
    return phase < xlayer::kNumPhases
               ? xlayer::phaseName(xlayer::Phase(phase))
               : "?";
}

/** Emit one run's provenance as '# key: value' folded-header lines. */
void
foldedHeader(const Json &run, std::string &out)
{
    const Json *prov = run.get("provenance");
    if (!prov || !prov->isObject())
        return;
    for (const auto &kv : prov->members()) {
        out += "# ";
        out += kv.first;
        out += ": ";
        switch (kv.second.kind()) {
          case Json::Kind::String:
            out += kv.second.asString();
            break;
          case Json::Kind::Bool:
            out += kv.second.asBool() ? "true" : "false";
            break;
          case Json::Kind::Float:
            out += Json::formatDouble(kv.second.asDouble());
            break;
          default:
            out += fmt("%" PRIu64, kv.second.asUInt());
            break;
        }
        out.push_back('\n');
    }
}

uint64_t
getU(const Json &j, const char *key)
{
    const Json *v = j.get(key);
    return v && v->isNumber() ? v->asUInt() : 0;
}

std::string
getS(const Json &j, const char *key)
{
    const Json *v = j.get(key);
    return v && v->kind() == Json::Kind::String ? v->asString() : "";
}

/** runs array of a profile document, or nullptr if malformed. */
const Json *
docRuns(const Json &doc)
{
    const Json *runs = doc.get("runs");
    return runs && runs->isArray() ? runs : nullptr;
}

} // namespace

std::string
sampleCtxLabel(uint64_t ctx)
{
    const uint32_t id = sim::sampleCtxId(ctx);
    const uint32_t tier = sim::sampleCtxTier(ctx);
    switch (sim::sampleCtxKind(ctx)) {
      case sim::SampleCtxKind::Interp:
        return "interp";
      case sim::SampleCtxKind::Trace:
        return fmt("trace:%u@t%u", id, tier);
      case sim::SampleCtxKind::Bridge:
        return fmt("bridge:%u@t%u", id, tier);
      case sim::SampleCtxKind::Gc:
        return fmt("gc:%u", id);
      case sim::SampleCtxKind::Compile:
        return fmt("compile:%u", id);
    }
    return fmt("ctx:%" PRIu64, ctx);
}

ProfileBuilder::ProfileBuilder(std::string report_name)
    : name_(std::move(report_name)), runs_(Json::array())
{
}

void
ProfileBuilder::addRun(const driver::RunOptions &opts,
                       const driver::RunResult &r)
{
    Json run = Json::object();
    run.set("workload", Json(opts.workload));
    run.set("vm", Json(driver::vmKindName(opts.vm)));
    run.set("provenance", runProvenance(opts));
    run.set("interval_cycles", Json(r.profile.intervalCycles));
    run.set("samples", Json(r.profile.samples));

    Json sites = Json::array();
    for (const xlayer::SampleSite &s : r.profile.sites) {
        Json e = Json::object();
        e.set("phase", Json(phaseLabel(s.phase)));
        e.set("phase_id", Json(uint64_t(s.phase)));
        e.set("context", Json(sampleCtxLabel(s.ctx)));
        e.set("ctx", Json(s.ctx));
        e.set("pc", Json(s.pc));
        e.set("count", Json(s.count));
        sites.push(std::move(e));
    }
    run.set("sites", std::move(sites));

    Json seq = Json::array();
    for (const auto &pr : r.profile.phaseSeq) {
        Json e = Json::array();
        e.push(Json(uint64_t(pr.first)));
        e.push(Json(pr.second));
        seq.push(std::move(e));
    }
    run.set("phase_seq", std::move(seq));

    Json deopts = Json::array();
    for (const driver::DeoptSite &d : r.deoptSites) {
        Json e = Json::object();
        e.set("trace", Json(uint64_t(d.traceId)));
        e.set("bridge", Json(d.traceIsBridge));
        e.set("tier", Json(uint64_t(d.tier)));
        e.set("guard_idx", Json(uint64_t(d.guardIdx)));
        e.set("guard_op", Json(d.guardOp));
        e.set("origin_pc", Json(uint64_t(d.originPc)));
        e.set("fail_count", Json(d.failCount));
        e.set("bridge_trace", Json(int64_t(d.bridgeTraceId)));
        deopts.push(std::move(e));
    }
    run.set("deopts", std::move(deopts));

    Json syms = Json::array();
    for (const driver::TraceSymbol &s : r.traceSymbols) {
        Json e = Json::object();
        e.set("trace", Json(uint64_t(s.traceId)));
        e.set("bridge", Json(s.isBridge));
        e.set("tier", Json(uint64_t(s.tier)));
        e.set("code_pc", Json(s.codePc));
        e.set("code_insts", Json(uint64_t(s.codeInsts)));
        e.set("anchor_pc", Json(uint64_t(s.anchorPc)));
        syms.push(std::move(e));
    }
    run.set("symbols", std::move(syms));

    Json latency = Json::object();
    latency.set("iteration", histJson(r.iterationLatency));
    latency.set("execution", histJson(r.executionLength));
    run.set("latency", std::move(latency));

    // Failure provenance (schema v7): why recordings died and which
    // containment paths ran, so a deopt-heavy profile can be read next
    // to its abort story. Only non-zero reasons are emitted.
    Json rob = Json::object();
    Json aborts = Json::object();
    for (uint32_t rr = 1; rr < jit::kNumAbortReasons; ++rr) {
        if (r.abortReasons[rr]) {
            aborts.set(jit::abortReasonName(jit::AbortReason(rr)),
                       Json(r.abortReasons[rr]));
        }
    }
    rob.set("aborts", std::move(aborts));
    rob.set("traces_blacklisted", Json(r.tracesBlacklisted));
    rob.set("traces_rearmed", Json(r.tracesRearmed));
    rob.set("traces_evicted", Json(r.tracesEvicted));
    rob.set("compile_downgrades", Json(r.compileDowngrades));
    rob.set("live_traces", Json(r.liveTraces));
    run.set("robustness", std::move(rob));

    runs_.push(std::move(run));
}

Json
ProfileBuilder::toJson() const
{
    Json doc = Json::object();
    doc.set("kind", Json("xlvm-profile"));
    doc.set("schema_version", Json(MetricsRegistry::kSchemaVersion));
    doc.set("generator", Json("xlvm"));
    doc.set("report", Json(name_));
    doc.set("runs", runs_);
    return doc;
}

std::string
ProfileBuilder::toFolded() const
{
    return profileFolded(toJson());
}

bool
ProfileBuilder::write(const std::string &path, std::string *err) const
{
    return writeProfileText(toJson().dump(2) + "\n", path, err);
}

bool
writeProfileText(const std::string &text, const std::string &path,
                 std::string *err)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    f.write(text.data(), std::streamsize(text.size()));
    f.flush();
    if (!f) {
        if (err)
            *err = "write failed for " + path;
        return false;
    }
    return true;
}

std::string
profileFolded(const Json &doc)
{
    std::string out;
    const Json *runs = docRuns(doc);
    if (!runs)
        return out;
    for (const Json &run : runs->items()) {
        foldedHeader(run, out);
        const std::string stackBase =
            getS(run, "workload") + "@" + getS(run, "vm");
        const Json *sites = run.get("sites");
        if (!sites || !sites->isArray())
            continue;
        for (const Json &s : sites->items()) {
            out += stackBase;
            out.push_back(';');
            out += getS(s, "phase");
            out.push_back(';');
            out += getS(s, "context");
            out.push_back(';');
            out += fmt("pc:0x%" PRIx64, getU(s, "pc"));
            out.push_back(' ');
            out += fmt("%" PRIu64, getU(s, "count"));
            out.push_back('\n');
        }
    }
    return out;
}

Json
profileChromeCounters(const Json &doc, double frequency_ghz)
{
    Json events = Json::array();
    Json runsMeta = Json::array();
    const Json *runs = docRuns(doc);
    int pid = 0;
    if (runs) {
        for (const Json &run : runs->items()) {
            const uint64_t interval = getU(run, "interval_cycles");
            const std::string name =
                getS(run, "workload") + " @ " + getS(run, "vm");

            Json meta = Json::object();
            meta.set("name", Json("process_name"));
            meta.set("ph", Json("M"));
            meta.set("pid", Json(pid));
            Json margs = Json::object();
            margs.set("name", Json(name));
            meta.set("args", std::move(margs));
            events.push(std::move(meta));

            // One counter series per phase: at each run-length boundary
            // of the sample sequence emit the number of samples the
            // ending run contributed, so Perfetto shows phase pressure
            // over simulated time.
            const Json *seq = run.get("phase_seq");
            uint64_t sampleOrd = 0;
            if (seq && seq->isArray() && interval) {
                for (const Json &rl : seq->items()) {
                    if (!rl.isArray() || rl.size() != 2)
                        continue;
                    const uint32_t phase = uint32_t(rl.at(0).asUInt());
                    const uint64_t len = rl.at(1).asUInt();
                    const uint64_t startCycle = (sampleOrd + 1) * interval;
                    Json c = Json::object();
                    c.set("name", Json(std::string("samples:") +
                                       phaseLabel(phase)));
                    c.set("ph", Json("C"));
                    c.set("pid", Json(pid));
                    c.set("ts", Json(double(startCycle) /
                                     (frequency_ghz * 1e3)));
                    Json cargs = Json::object();
                    cargs.set("value", Json(len));
                    c.set("args", std::move(cargs));
                    events.push(std::move(c));
                    sampleOrd += len;
                }
            }

            Json rm = Json::object();
            rm.set("pid", Json(pid));
            rm.set("name", Json(name));
            const Json *prov = run.get("provenance");
            if (prov)
                rm.set("provenance", *prov);
            runsMeta.push(std::move(rm));
            ++pid;
        }
    }

    Json out = Json::object();
    out.set("traceEvents", std::move(events));
    out.set("displayTimeUnit", Json("ms"));
    Json other = Json::object();
    other.set("generator", Json("xlvm"));
    other.set("kind", Json("xlvm-profile-counters"));
    other.set("schema_version", Json(MetricsRegistry::kSchemaVersion));
    other.set("frequency_ghz", Json(frequency_ghz));
    other.set("runs", std::move(runsMeta));
    out.set("otherData", std::move(other));
    return out;
}

Json
profileTop(const Json &doc, size_t top_n)
{
    struct Cell
    {
        std::string workload, vm, phase, context;
        uint64_t count = 0;
        uint64_t runSamples = 0;
    };
    std::vector<Cell> cells;
    const Json *runs = docRuns(doc);
    if (runs) {
        for (const Json &run : runs->items()) {
            const uint64_t samples = getU(run, "samples");
            const Json *sites = run.get("sites");
            if (!sites || !sites->isArray())
                continue;
            for (const Json &s : sites->items()) {
                const std::string phase = getS(s, "phase");
                const std::string context = getS(s, "context");
                Cell *hit = nullptr;
                for (Cell &c : cells) {
                    if (c.phase == phase && c.context == context &&
                        c.workload == getS(run, "workload") &&
                        c.vm == getS(run, "vm")) {
                        hit = &c;
                        break;
                    }
                }
                if (!hit) {
                    cells.push_back({getS(run, "workload"),
                                     getS(run, "vm"), phase, context, 0,
                                     samples});
                    hit = &cells.back();
                }
                hit->count += getU(s, "count");
            }
        }
    }
    std::stable_sort(cells.begin(), cells.end(),
                     [](const Cell &a, const Cell &b) {
                         return a.count > b.count;
                     });
    if (top_n && cells.size() > top_n)
        cells.resize(top_n);

    Json out = Json::array();
    for (const Cell &c : cells) {
        Json e = Json::object();
        e.set("workload", Json(c.workload));
        e.set("vm", Json(c.vm));
        e.set("phase", Json(c.phase));
        e.set("context", Json(c.context));
        e.set("count", Json(c.count));
        e.set("share", Json(c.runSamples
                                ? double(c.count) / double(c.runSamples)
                                : 0.0));
        out.push(std::move(e));
    }
    return out;
}

Json
profileTree(const Json &doc)
{
    Json out = Json::array();
    const Json *runs = docRuns(doc);
    if (!runs)
        return out;
    for (const Json &run : runs->items()) {
        Json jr = Json::object();
        jr.set("workload", Json(getS(run, "workload")));
        jr.set("vm", Json(getS(run, "vm")));
        jr.set("samples", Json(getU(run, "samples")));

        // Sites arrive in ascending (phase, ctx, pc) order, so one
        // linear walk builds the phase → context → pc hierarchy.
        struct PcCell
        {
            uint64_t pc, count;
        };
        struct CtxCell
        {
            std::string context;
            uint64_t count = 0;
            std::vector<PcCell> pcs;
        };
        struct PhaseCell
        {
            std::string phase;
            uint64_t count = 0;
            std::vector<CtxCell> ctxs;
        };
        std::vector<PhaseCell> cells;
        const Json *sites = run.get("sites");
        if (sites && sites->isArray()) {
            for (const Json &s : sites->items()) {
                const std::string phase = getS(s, "phase");
                const std::string context = getS(s, "context");
                if (cells.empty() || cells.back().phase != phase) {
                    cells.push_back(PhaseCell());
                    cells.back().phase = phase;
                }
                PhaseCell &pc = cells.back();
                if (pc.ctxs.empty() ||
                    pc.ctxs.back().context != context) {
                    pc.ctxs.push_back(CtxCell());
                    pc.ctxs.back().context = context;
                }
                const uint64_t n = getU(s, "count");
                pc.count += n;
                pc.ctxs.back().count += n;
                pc.ctxs.back().pcs.push_back({getU(s, "pc"), n});
            }
        }
        Json phases = Json::array();
        for (const PhaseCell &p : cells) {
            Json jp = Json::object();
            jp.set("phase", Json(p.phase));
            jp.set("count", Json(p.count));
            Json ctxs = Json::array();
            for (const CtxCell &c : p.ctxs) {
                Json jc = Json::object();
                jc.set("context", Json(c.context));
                jc.set("count", Json(c.count));
                Json pcs = Json::array();
                for (const PcCell &e : c.pcs) {
                    Json jpc = Json::object();
                    jpc.set("pc", Json(e.pc));
                    jpc.set("count", Json(e.count));
                    pcs.push(std::move(jpc));
                }
                jc.set("pcs", std::move(pcs));
                ctxs.push(std::move(jc));
            }
            jp.set("contexts", std::move(ctxs));
            phases.push(std::move(jp));
        }
        jr.set("phases", std::move(phases));
        out.push(std::move(jr));
    }
    return out;
}

Json
profileTopDeopts(const Json &doc, size_t top_n)
{
    Json all = Json::array();
    const Json *runs = docRuns(doc);
    if (runs) {
        for (const Json &run : runs->items()) {
            const Json *deopts = run.get("deopts");
            if (!deopts || !deopts->isArray())
                continue;
            for (const Json &d : deopts->items()) {
                Json e = d;
                e.set("workload", Json(getS(run, "workload")));
                e.set("vm", Json(getS(run, "vm")));
                all.push(std::move(e));
            }
        }
    }
    std::vector<Json> items = all.items();
    std::stable_sort(items.begin(), items.end(),
                     [](const Json &a, const Json &b) {
                         return getU(a, "fail_count") >
                                getU(b, "fail_count");
                     });
    if (top_n && items.size() > top_n)
        items.resize(top_n);
    Json out = Json::array();
    for (Json &e : items)
        out.push(std::move(e));
    return out;
}

std::string
formatProfileTop(const Json &top)
{
    std::string out =
        fmt("%-12s %-10s %-10s %-16s %10s %8s\n", "workload", "vm",
            "phase", "context", "samples", "share");
    for (const Json &e : top.items()) {
        out += fmt("%-12s %-10s %-10s %-16s %10" PRIu64 " %7.2f%%\n",
                   getS(e, "workload").c_str(), getS(e, "vm").c_str(),
                   getS(e, "phase").c_str(), getS(e, "context").c_str(),
                   getU(e, "count"),
                   100.0 * (e.get("share") ? e.get("share")->asDouble()
                                           : 0.0));
    }
    return out;
}

std::string
formatProfileTree(const Json &tree)
{
    std::string out;
    for (const Json &run : tree.items()) {
        out += fmt("%s @ %s (%" PRIu64 " samples)\n",
                   getS(run, "workload").c_str(), getS(run, "vm").c_str(),
                   getU(run, "samples"));
        const uint64_t total = getU(run, "samples");
        const Json *phases = run.get("phases");
        if (!phases)
            continue;
        for (const Json &p : phases->items()) {
            const uint64_t pc = getU(p, "count");
            out += fmt("  %-10s %10" PRIu64 "  %5.1f%%\n",
                       getS(p, "phase").c_str(), pc,
                       total ? 100.0 * double(pc) / double(total) : 0.0);
            const Json *ctxs = p.get("contexts");
            if (!ctxs)
                continue;
            for (const Json &c : ctxs->items()) {
                out += fmt("    %-14s %8" PRIu64 "\n",
                           getS(c, "context").c_str(), getU(c, "count"));
            }
        }
    }
    return out;
}

std::string
formatProfileDeopts(const Json &deopts)
{
    std::string out = fmt("%-12s %6s %5s %6s %-18s %10s %8s %7s\n",
                          "workload", "trace", "tier", "guard", "guard_op",
                          "origin_pc", "fails", "bridge");
    for (const Json &e : deopts.items()) {
        const int64_t bridge =
            e.get("bridge_trace") ? e.get("bridge_trace")->asInt() : -1;
        out += fmt("%-12s %6" PRIu64 " %5" PRIu64 " %6" PRIu64
                   " %-18s %10" PRIu64 " %8" PRIu64 " %7s\n",
                   getS(e, "workload").c_str(), getU(e, "trace"),
                   getU(e, "tier"), getU(e, "guard_idx"),
                   getS(e, "guard_op").c_str(),
                   getU(e, "origin_pc"), getU(e, "fail_count"),
                   bridge >= 0 ? fmt("%" PRId64, bridge).c_str() : "-");
    }
    return out;
}

std::string
formatProfileDump(const Json &doc)
{
    std::string out;
    const Json *runs = docRuns(doc);
    if (!runs)
        return out;
    for (const Json &run : runs->items()) {
        const Json *sites = run.get("sites");
        if (!sites || !sites->isArray())
            continue;
        for (const Json &s : sites->items()) {
            out += fmt("%-12s %-10s %-10s %-16s pc=0x%-10" PRIx64
                       " %8" PRIu64 "\n",
                       getS(run, "workload").c_str(),
                       getS(run, "vm").c_str(), getS(s, "phase").c_str(),
                       getS(s, "context").c_str(), getU(s, "pc"),
                       getU(s, "count"));
        }
    }
    return out;
}

} // namespace report
} // namespace xlvm
