/**
 * @file
 * Cross-layer annotation tag vocabulary.
 *
 * An annotation is a (tag, payload) pair carried by a sim::InstClass::Annot
 * instruction — the analog of the paper's x86 `nop` with a unique address
 * serving as the tag. Annotations are *inserted* at higher layers
 * (application, interpreter dispatch loop, JIT framework, IR lowering) and
 * *collected* at the instruction layer by the AnnotationBus, the analog of
 * the custom PinTool.
 */

#ifndef XLVM_XLAYER_ANNOT_H
#define XLVM_XLAYER_ANNOT_H

#include <cstdint>

namespace xlvm {
namespace xlayer {

enum AnnotTag : uint32_t
{
    /** Framework level: phase transitions. payload = Phase. */
    kPhaseEnter = 1,
    kPhaseExit = 2,

    /**
     * Interpreter level: beginning of one dispatch-loop iteration.
     * payload = opcode. This is the paper's unit of "work" that stays
     * valid across interpreter, tracing, and JIT execution.
     */
    kDispatch = 3,

    /** Framework level: JIT compilation lifecycle. payload = trace id. */
    kLoopCompiled = 4,
    kBridgeCompiled = 5,
    kTraceAborted = 6,

    /** Framework level: trace execution entry/exit. payload = trace id. */
    kTraceEnter = 7,
    kTraceLeave = 8,

    /** Framework level: deoptimization. payload = guard id. */
    kDeopt = 9,

    /** Framework level: GC events. payload = collection ordinal. */
    kGcMinor = 10,
    kGcMajor = 11,

    /**
     * Runtime level: AOT-compiled function entry/exit.
     * payload = AOT function id.
     */
    kAotEnter = 12,
    kAotExit = 13,

    /**
     * JIT-IR level: emitted when the lowered code of one IR node begins
     * executing. payload = global IR node id.
     */
    kIrNode = 14,

    /** Application level: user-defined event. payload = event id. */
    kAppEvent = 15,

    // 16-18, 21 and 22 carried the removed sim replay layers' telemetry.
    // They stay unassigned: reusing one would change what that tag means
    // in traces recorded before the removal.

    /**
     * Framework level: multi-tier JIT lifecycle. kTier1Compile marks a
     * baseline (unoptimized) compile — emitted alongside kLoopCompiled /
     * kBridgeCompiled, which keep meaning "a trace was registered".
     * kTierUp marks a tier-1 trace re-optimized in place to tier 2.
     * payload = trace id.
     */
    kTierUp = 19,
    kTier1Compile = 20,

    /**
     * Framework level: fault containment (schema v7). kTraceAborted
     * (tag 6) carries a jit::AbortReason as payload from v7 on.
     * kTraceBlacklisted marks a compiled trace demoted to the
     * interpreter after a deopt storm, kTraceRearmed its re-enable
     * after cooldown, kTraceEvicted a root (plus bridges) dropped
     * under trace-cache pressure, and kCompileDowngrade a compile
     * retried at tier 1 (budget cap, optimizer failure or injected
     * fault). payload = trace id.
     */
    kTraceBlacklisted = 23,
    kTraceRearmed = 24,
    kTraceEvicted = 25,
    kCompileDowngrade = 26,
};

/** The largest assigned AnnotTag; move it when adding a larger one. */
constexpr uint32_t kMaxAnnotTag = kCompileDowngrade;

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_ANNOT_H
