/**
 * @file
 * Set-associative TLB with LRU replacement.
 *
 * One structure serves two entry kinds, mirroring the evaluation
 * platform (Table VI: "EPT TLB/NTLB shares the TLB — no separate
 * structure"):
 *
 *  - Guest entries: complete gVA→hPA translations;
 *  - Nested entries: gPA→hPA translations cached during 2D walks.
 *
 * Because nested entries occupy the same ways as guest entries, a
 * virtualized run loses effective TLB capacity — the mechanism
 * behind the paper's observed 1.3–1.6x TLB-miss inflation (§IX.A).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::tlb {

/** What a TLB entry translates. */
enum class EntryKind : std::uint8_t {
    Guest,   //!< gVA→hPA (or native VA→PA).
    Nested,  //!< gPA→hPA, cached by the 2D walker.
};

/** Successful lookup result. */
struct TlbHit
{
    Addr frame = 0;           //!< Base of the translated page.
    PageSize size = PageSize::Size4K;
};

/**
 * A single set-associative translation buffer.  Entries carry their
 * page size; lookups probe one size class at a time (the caller
 * decides which classes this structure holds).
 */
class Tlb
{
  public:
    Tlb(std::string name, unsigned sets, unsigned ways);

    /**
     * Probe for the page of @p size containing @p addr.
     * @return The mapping on a hit (LRU updated).
     */
    std::optional<TlbHit> lookup(EntryKind kind, Addr addr,
                                 PageSize size);

    /** Probe all three size classes, largest benefit first. */
    std::optional<TlbHit> lookupAny(EntryKind kind, Addr addr);

    /** Install a mapping (replaces LRU in the set). */
    void insert(EntryKind kind, Addr addr, Addr frame, PageSize size);

    /** Invalidate one page. */
    void flushPage(EntryKind kind, Addr addr, PageSize size);

    /** Invalidate all entries of @p kind. */
    void flushKind(EntryKind kind);

    /** Invalidate everything. */
    void flushAll();

    /** Number of valid entries of @p kind (occupancy accounting). */
    std::size_t occupancy(EntryKind kind) const;

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint entries, LRU clock and stats.  deserialize() fails
     * (structured, no UB) if the saved geometry differs.
     */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        Addr frame = 0;
        std::uint64_t lru = 0;
        PageSize size = PageSize::Size4K;
        EntryKind kind = EntryKind::Guest;
        bool valid = false;
    };

    unsigned setOf(std::uint64_t vpn, EntryKind kind,
                   PageSize size) const;

    std::string name;
    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
    // False only when no entry can be valid: set by insert(), cleared
    // by flushAll().  A lookup in an empty TLB (the 1G and 2M L1s of
    // a 4K workload) then counts its miss without probing a set.
    bool anyValid = false;
    StatGroup _stats;

    // Hot-path counters bound once (std::map references are stable).
    Counter *hitsCtr;
    Counter *missesCtr;
    Counter *insertsCtr;
    Counter *evictionsCtr;
};

} // namespace emv::tlb

