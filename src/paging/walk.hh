/**
 * @file
 * Walk traces: the raw material of the paper's cost analysis.
 *
 * Every simulated page walk produces a WalkTrace listing each memory
 * reference (tagged with which dimension and level issued it) and
 * each base-bound calculation.  Fig. 2's "24 references" and Table
 * I/II's "4 accesses + 5 calculations" drop straight out of these
 * traces; the cost model then prices them.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace emv::paging {

/** Which table a walk reference read. */
enum class RefStage : std::uint8_t {
    GuestTable,   //!< gVA→gPA guest page-table entry (read via hPA).
    NestedTable,  //!< gPA→hPA nested page-table entry.
    NativeTable,  //!< Native (unvirtualized) page-table entry.
    ShadowTable,  //!< Shadow (gVA→hPA) page-table entry.
};

/** Printable stage name for trace records. */
inline const char *
refStageName(RefStage stage)
{
    switch (stage) {
      case RefStage::GuestTable: return "guest";
      case RefStage::NestedTable: return "nested";
      case RefStage::NativeTable: return "native";
      case RefStage::ShadowTable: return "shadow";
    }
    return "?";
}

/** One memory reference made by the page-walk hardware. */
struct WalkRef
{
    Addr hpa = 0;        //!< Host physical address actually read.
    RefStage stage = RefStage::NativeTable;
    std::int8_t level = 0;  //!< Radix level (4..1) of the entry.
};

/**
 * The references of one walk, stored inline.  A 2D walk makes at
 * most 5 x 4 + 4 = 24 (Fig. 2: each of the four guest levels and the
 * final gPA needs a four-level nested walk, plus the four guest
 * entries themselves), and no mode adds references beyond that, so
 * a fixed array replaces a heap vector per walk.  The interface is
 * the subset of std::vector the walkers and cost model use; a 25th
 * reference means the model is broken and panics.
 */
class WalkRefs
{
  public:
    static constexpr std::size_t kCapacity = 24;

    void
    push_back(const WalkRef &ref)
    {
        emv_assert(count < kCapacity,
                   "walk made more than %zu references", kCapacity);
        slots[count++] = ref;
    }

    /** Capacity is fixed; only checks that @p n fits. */
    void
    reserve(std::size_t n) const
    {
        emv_assert(n <= kCapacity,
                   "walk trace cannot hold %zu references", n);
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    void clear() { count = 0; }

    const WalkRef &operator[](std::size_t i) const { return slots[i]; }

    const WalkRef *begin() const { return slots.data(); }
    const WalkRef *end() const { return slots.data() + count; }

  private:
    std::array<WalkRef, kCapacity> slots;
    std::size_t count = 0;
};

/** Full record of one translation's walk activity. */
struct WalkTrace
{
    WalkRefs refs;
    unsigned calculations = 0;  //!< Base-bound checks / segment adds.

    void
    addRef(Addr hpa, RefStage stage, int level)
    {
        refs.push_back(WalkRef{hpa, stage,
                               static_cast<std::int8_t>(level)});
    }

    std::size_t
    countStage(RefStage stage) const
    {
        std::size_t n = 0;
        for (const auto &ref : refs)
            n += ref.stage == stage ? 1 : 0;
        return n;
    }

    void
    clear()
    {
        refs.clear();
        calculations = 0;
    }
};

/** Result of a simulated walk. */
struct WalkOutcome
{
    Addr pa = 0;                       //!< Translated address.
    PageSize size = PageSize::Size4K;  //!< Granule of the mapping.
    bool ok = false;                   //!< False on a page fault.
};

} // namespace emv::paging

