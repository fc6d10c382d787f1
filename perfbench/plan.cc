#include "plan.h"

#include <fstream>
#include <map>

#include "bench_common.h"
#include "report/golden.h"

namespace perfbench {

using xlvm::driver::VmKind;
using xlvm::report::Json;
using xlvm::vm::TierMode;

namespace {

/** Output references, relative to the checkout root. */
constexpr const char *kReferencePath = "perfbench/refs/outputs.json";

/** Programs run on some VMs in one tier mode, twinned in one golden. */
struct Group
{
    const char *golden; ///< golden report, relative to the checkout root
    std::vector<const char *> programs;
    std::vector<VmKind> vms;
    TierMode mode;
};

struct WorkloadDef
{
    const char *name;
    std::vector<Group> groups;
};

const std::vector<WorkloadDef> &
definitions()
{
    static const std::vector<WorkloadDef> defs = {
        // Interpreter-only VMs: the minipy dispatch loop and GC, with the
        // jit and sim-replay layers idle.
        {"interp",
         {{"tests/golden/table1.json",
           {"richards", "crypto_pyaes", "chaos", "telco", "spectral_norm",
            "django", "twisted_iteration", "spitfire_cstringio",
            "raytrace_simple", "float"},
           {VmKind::CPythonLike, VmKind::PyPyNoJit},
           TierMode::Tier2}}},
        // Few long-lived tier-2 traces: the trace executor and the replay
        // caches in steady state, on both frontends.
        {"jit_steady",
         {{"tests/golden/fig2.json",
           {"spectral_norm", "pyflate_fast", "raytrace_simple", "chaos",
            "crypto_pyaes"},
           {VmKind::PyPyJit},
           TierMode::Tier2},
          {"tests/golden/table2.json",
           {"spectralnorm", "mandelbrot", "meteor", "threadring",
            "knucleotide"},
           {VmKind::PycketJit},
           TierMode::Tier2}}},
        // Multi-tier policy: tier-1 compiles, promotions, bridges and
        // blackhole deopts, so the jit and sim layers are mostly written.
        {"jit_deopt",
         {{"tests/golden/multi/fig2.json",
           {"go", "fannkuch", "ai", "eparse", "bm_mako", "django",
            "pidigits", "spambayes", "json_bench", "sympy_str"},
           {VmKind::PyPyJit},
           TierMode::Multi},
          {"tests/golden/multi/table2.json",
           {"fannkuchredux"},
           {VmKind::PycketJit},
           TierMode::Multi}}},
    };
    return defs;
}

bool
isRkt(VmKind vm)
{
    return vm == VmKind::RacketLike || vm == VmKind::PycketJit;
}

const char *
frontendKey(bool rkt)
{
    return rkt ? "minirkt" : "minipy";
}

/** The golden document with its runs array reduced to @p twin. */
Json
oneRunDocument(const Json &golden, const Json &twin)
{
    Json doc = Json::object();
    for (const auto &kv : golden.members()) {
        if (kv.first != "runs")
            doc.set(kv.first, kv.second);
    }
    Json runs = Json::array();
    runs.push(twin);
    doc.set("runs", std::move(runs));
    return doc;
}

const Json *
findTwin(const Json &golden, const std::string &program, VmKind vm)
{
    const Json *runs = golden.get("runs");
    if (!runs || !runs->isArray())
        return nullptr;
    for (const Json &r : runs->items()) {
        const Json *w = r.get("workload");
        const Json *v = r.get("vm");
        if (w && v && w->asString() == program &&
            v->asString() == xlvm::driver::vmKindName(vm))
            return &r;
    }
    return nullptr;
}

} // namespace

bool
buildPlan(const std::string &workload, const std::string &root, Plan *out,
          std::string *err)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : definitions()) {
        if (workload == d.name)
            def = &d;
    }
    if (!def) {
        *err = "unknown workload '" + workload + "'";
        return false;
    }

    Json refs;
    if (!xlvm::report::loadReport(root + "/" + kReferencePath, &refs, err))
        return false;

    Plan plan;
    for (const Group &g : def->groups) {
        Json golden;
        if (!xlvm::report::loadReport(root + "/" + g.golden, &golden, err))
            return false;
        const Json *report = golden.get("report");
        for (const char *program : g.programs) {
            for (VmKind vm : g.vms) {
                RunSpec spec;
                spec.opts = xlvm::bench::baseOptions(program, vm);
                spec.opts.tierMode = g.mode;
                spec.rkt = isRkt(vm);
                spec.label = std::string(program) + "/" +
                             xlvm::driver::vmKindName(vm) + "/" +
                             xlvm::vm::tierModeName(g.mode);
                const Json *twin = findTwin(golden, program, vm);
                if (!twin || !report) {
                    *err = spec.label + ": no golden twin in " + g.golden;
                    return false;
                }
                spec.goldenReport = report->asString();
                spec.golden = oneRunDocument(golden, *twin);
                const Json *byProgram = refs.get(frontendKey(spec.rkt));
                const Json *ref = byProgram ? byProgram->get(program)
                                            : nullptr;
                if (!ref) {
                    *err = spec.label + ": no output reference in " +
                           kReferencePath;
                    return false;
                }
                spec.reference = ref->asString();
                plan.runs.push_back(std::move(spec));
            }
        }
    }
    *out = std::move(plan);
    return true;
}

bool
recordReferences(const std::string &path, std::string *err)
{
    // program -> output, per frontend; std::map keeps the file sorted.
    std::map<std::string, std::string> outputs[2];
    for (const WorkloadDef &d : definitions()) {
        for (const Group &g : d.groups) {
            for (VmKind vm : g.vms) {
                bool rkt = isRkt(vm);
                for (const char *program : g.programs) {
                    if (outputs[rkt].count(program))
                        continue;
                    xlvm::driver::RunOptions o = xlvm::bench::baseOptions(
                        program,
                        rkt ? VmKind::RacketLike : VmKind::CPythonLike);
                    o.maxInstructions = 0;
                    xlvm::driver::RunResult r =
                        rkt ? xlvm::driver::runRktWorkload(o)
                            : xlvm::driver::runWorkload(o);
                    if (!r.completed || !r.error.empty()) {
                        *err = std::string(program) + ": reference run "
                               "did not complete " + r.error;
                        return false;
                    }
                    outputs[rkt][program] = r.output;
                }
            }
        }
    }
    Json doc = Json::object();
    for (bool rkt : {false, true}) {
        Json byProgram = Json::object();
        for (const auto &kv : outputs[rkt])
            byProgram.set(kv.first, Json(kv.second));
        doc.set(frontendKey(rkt), std::move(byProgram));
    }
    std::ofstream f(path);
    f << doc.dump(2) << "\n";
    if (!f) {
        *err = "cannot write " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
