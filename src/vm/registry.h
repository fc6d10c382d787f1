/**
 * @file
 * Trace registry: owns every compiled trace, indexes loop traces by merge
 * point (code object, pc), and keeps trace constants alive for the GC.
 */

#ifndef XLVM_VM_REGISTRY_H
#define XLVM_VM_REGISTRY_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "gc/heap.h"
#include "jit/ir.h"

namespace xlvm {
namespace vm {

/** Compilation-tier policy (multi-tier JIT; arXiv 2504.17460 analog). */
enum class TierMode : uint8_t
{
    Off,   ///< JIT disabled entirely (driver maps this to enableJit=false)
    Tier1, ///< baseline compiles only: raw traces lowered, never optimized
    Tier2, ///< optimizing compiles only (the pre-tiering default)
    Multi, ///< baseline at tier1Threshold, promote at tier2Threshold
};

inline const char *
tierModeName(TierMode m)
{
    switch (m) {
      case TierMode::Off:   return "off";
      case TierMode::Tier1: return "tier1";
      case TierMode::Tier2: return "tier2";
      case TierMode::Multi: return "multi";
    }
    return "?";
}

/** Parse "off|tier1|tier2|multi"; returns false on an unknown name. */
inline bool
tierModeFromString(const char *s, TierMode *out)
{
    for (TierMode m : {TierMode::Off, TierMode::Tier1, TierMode::Tier2,
                       TierMode::Multi}) {
        const char *n = tierModeName(m);
        const char *p = s;
        while (*n && *p == *n) {
            ++p;
            ++n;
        }
        if (!*n && !*p) {
            *out = m;
            return true;
        }
    }
    return false;
}

struct JitParams
{
    /** Loop-header hotness threshold before tracing (PyPy: 1039). */
    uint32_t loopThreshold = 1039;
    /** Guard-failure count before a bridge is attempted (PyPy: 200). */
    uint32_t bridgeThreshold = 200;
    /** Trace-length abort limit (ops). */
    uint32_t maxTraceOps = 6000;
    /** After an abort, back off before retrying this merge point. */
    uint32_t abortPenalty = 4000;
    /** Emit kIrNode annotations during trace execution. */
    bool irNodeAnnotations = false;
    bool enableJit = true;
    /** Read by nothing in the VM: perfbench/ is its only user and
     *  copies the matching driver::RunOptions field into it. It named
     *  the trace executor's superinstruction fusion, which was removed
     *  (DESIGN.md section 5). */
    bool fuseMicroOps = true;
    /** Optimizer toggles (ablations). */
    bool optFoldConstants = true;
    bool optElideGuards = true;
    bool optHeapCache = true;
    bool optVirtualize = true;
    /**
     * Compilation-tier policy. Tier2 (the default) is the pre-tiering
     * single-tier pipeline and keeps every golden bit-identical. Tier1
     * and Multi compile raw recordings at tier1Threshold without the
     * optimizer; Multi additionally re-optimizes a tier-1 trace in
     * place once its execution count crosses tier2Threshold.
     */
    TierMode tierMode = TierMode::Tier2;
    /** Loop-header hotness threshold for a baseline (tier-1) compile. */
    uint32_t tier1Threshold = 130;
    /** Tier-1 trace executions before promotion to the optimizing tier. */
    uint32_t tier2Threshold = 100;

    /**
     * Deopt-storm blacklisting: consecutive zero-progress trace entries
     * (a run that fails a guard before completing one back-edge) before
     * the trace is demoted to the interpreter. Re-armed after
     * blacklistCooldown merge-point visits, doubling per generation
     * (exponential backoff, capped). 0 disables detection. The default
     * sits above bridgeThreshold so bridge compilation gets the first
     * shot at fixing a hot exit.
     */
    uint32_t stormThreshold = 600;
    uint32_t blacklistCooldown = 4000;
    /** Cap on blacklist backoff doublings (cooldown << generation). */
    uint32_t blacklistBackoffCap = 6;
    /**
     * Compile budget: recordings longer than this many ops skip the
     * optimizing tier and retry as a tier-1 baseline compile (the
     * optimizer's cost is superlinear in trace length). 0 = unlimited.
     */
    uint32_t compileBudgetOps = 0;
    /**
     * Trace-cache capacity in live traces (roots + bridges). At
     * registration pressure the coldest unreferenced loop root (lowest
     * execution count, then lowest id) is evicted together with its
     * bridge closure; if nothing is evictable the new recording aborts
     * with kTraceCacheFull. 0 = unlimited.
     */
    uint32_t maxTraces = 0;
};

class TraceRegistry : public gc::RootProvider
{
  public:
    explicit TraceRegistry(gc::Heap &heap) : heap_(heap)
    {
        heap.addRootProvider(this);
    }

    ~TraceRegistry() override { heap_.removeRootProvider(this); }

    /** Register a compiled trace; takes ownership. Returns the trace. */
    jit::Trace *
    add(std::unique_ptr<jit::Trace> t)
    {
        jit::Trace *raw = t.get();
        if (!raw->isBridge)
            loops[key(raw->anchorCode, raw->anchorPc)] = raw;
        traces.push_back(std::move(t));
        return raw;
    }

    /** Loop trace anchored at (code, pc), or nullptr. */
    jit::Trace *
    loopFor(void *code, uint32_t pc) const
    {
        auto it = loops.find(key(code, pc));
        return it == loops.end() ? nullptr : it->second;
    }

    /** Trace by id; nullptr when the slot was evicted. */
    jit::Trace *
    byId(uint32_t id)
    {
        XLVM_ASSERT(id < traces.size(), "bad trace id");
        return traces[id].get();
    }

    uint32_t nextId() const { return uint32_t(traces.size()); }
    size_t size() const { return traces.size(); }

    /** Live (non-evicted) trace count. */
    size_t
    liveCount() const
    {
        size_t n = 0;
        for (const auto &t : traces)
            if (t)
                ++n;
        return n;
    }

    /**
     * Drop trace @p id under cache pressure. Ids are stable (the slot
     * stays, holding nullptr) so bridgeTraceId / call_assembler targets
     * of surviving traces never dangle — callers pick eviction
     * candidates that are unreferenced. Backend code is append-only
     * arena memory and is intentionally not reclaimed.
     */
    void
    evict(uint32_t id)
    {
        XLVM_ASSERT(id < traces.size(), "bad trace id");
        jit::Trace *t = traces[id].get();
        if (!t)
            return;
        if (!t->isBridge) {
            auto it = loops.find(key(t->anchorCode, t->anchorPc));
            if (it != loops.end() && it->second == t)
                loops.erase(it);
        }
        rawTraces.erase(id);
        traces[id].reset();
    }

    /** All slots, in id order; evicted slots hold nullptr. */
    const std::vector<std::unique_ptr<jit::Trace>> &all() const
    {
        return traces;
    }

    /**
     * Retain the raw (unoptimized) recording of trace @p id so a later
     * tier-up can re-optimize it from the original ops (multi-tier mode
     * only; the raw copy is dropped once consumed by promotion).
     */
    void
    retainRaw(uint32_t id, std::unique_ptr<jit::Trace> raw)
    {
        rawTraces[id] = std::move(raw);
    }

    /** Take (and drop) the retained raw recording, or nullptr. */
    std::unique_ptr<jit::Trace>
    takeRaw(uint32_t id)
    {
        auto it = rawTraces.find(id);
        if (it == rawTraces.end())
            return nullptr;
        std::unique_ptr<jit::Trace> raw = std::move(it->second);
        rawTraces.erase(it);
        return raw;
    }

    /** Keep every trace constant alive (retained raws included). */
    void
    forEachRoot(gc::GcVisitor &v) override
    {
        for (const auto &t : traces) {
            if (!t)
                continue;
            for (const jit::RtVal &c : t->consts) {
                if (c.kind == jit::RtVal::Kind::Ref && c.r)
                    v.visit(static_cast<gc::GcObject *>(c.r));
            }
        }
        for (const auto &kv : rawTraces) {
            for (const jit::RtVal &c : kv.second->consts) {
                if (c.kind == jit::RtVal::Kind::Ref && c.r)
                    v.visit(static_cast<gc::GcObject *>(c.r));
            }
        }
    }

  private:
    static uint64_t
    key(void *code, uint32_t pc)
    {
        return reinterpret_cast<uint64_t>(code) ^
               (uint64_t(pc) * 0x9e3779b97f4a7c15ull);
    }

    gc::Heap &heap_;
    std::vector<std::unique_ptr<jit::Trace>> traces;
    std::unordered_map<uint64_t, jit::Trace *> loops;
    /** Raw recordings kept for promotion, keyed by trace id. */
    std::unordered_map<uint32_t, std::unique_ptr<jit::Trace>> rawTraces;
};

} // namespace vm
} // namespace xlvm

#endif // XLVM_VM_REGISTRY_H
