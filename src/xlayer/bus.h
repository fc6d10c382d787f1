/**
 * @file
 * AnnotationBus — the PinTool analog.
 *
 * The bus receives every annotation the core observes and hands it to the
 * registered listeners (profilers) that subscribe to its tag. Listeners
 * are the analysis "tools" of the methodology: phase breakdown,
 * work-rate/warmup tracking, AOT-call attribution, IR-node statistics.
 */

#ifndef XLVM_XLAYER_BUS_H
#define XLVM_XLAYER_BUS_H

#include <algorithm>
#include <array>
#include <vector>

#include "sim/core.h"
#include "xlayer/annot.h"

namespace xlvm {
namespace xlayer {

/** One instrumentation tool subscribed to the bus. */
class AnnotListener
{
  public:
    virtual ~AnnotListener() = default;
    virtual void onAnnot(uint32_t tag, uint32_t payload) = 0;

    /**
     * The listener's subscription: the bus delivers a tag below
     * AnnotationBus::kRoutedTags only to the listeners that do not ignore
     * it. The bus reads it whenever a listener is added or removed, so the
     * answer must depend only on state fixed at construction. A listener
     * that ignores a tag its onAnnot acts on loses those events; one that
     * takes a tag it does nothing with only costs a call. The default
     * takes every tag.
     */
    virtual bool ignoresTag(uint32_t /*tag*/) const { return false; }
};

class AnnotationBus : public sim::AnnotSink
{
  public:
    /** Tags below this are routed by subscription; the rest reach all. */
    static constexpr uint32_t kRoutedTags = 32;
    static_assert(kMaxAnnotTag < kRoutedTags,
                  "every AnnotTag must be routed by subscription");

    explicit AnnotationBus(sim::Core &core) : core_(core)
    {
        core.setAnnotSink(this);
    }

    void
    onAnnot(uint32_t tag, uint32_t payload) override
    {
        for (AnnotListener *l : tag < kRoutedTags ? byTag[tag] : listeners)
            l->onAnnot(tag, payload);
    }

    void
    addListener(AnnotListener *l)
    {
        listeners.push_back(l);
        route();
    }

    void
    removeListener(AnnotListener *l)
    {
        auto it = std::find(listeners.begin(), listeners.end(), l);
        if (it != listeners.end())
            listeners.erase(it);
        route();
    }

    sim::Core &core() { return core_; }

  private:
    /** Rebuild every tag's list from ignoresTag, in registration order. */
    void
    route()
    {
        for (uint32_t tag = 0; tag < kRoutedTags; ++tag) {
            byTag[tag].clear();
            for (AnnotListener *l : listeners) {
                if (!l->ignoresTag(tag))
                    byTag[tag].push_back(l);
            }
        }
    }

    sim::Core &core_;
    std::vector<AnnotListener *> listeners; ///< registration order
    std::array<std::vector<AnnotListener *>, kRoutedTags> byTag;
};

} // namespace xlayer
} // namespace xlvm

#endif // XLVM_XLAYER_BUS_H
