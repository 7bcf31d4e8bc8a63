/**
 * @file
 * MMU caches: paging-structure cache and PTE-line cache.
 *
 * The paper's measured 2D walks cost ~2.4x native per miss, not the
 * worst-case 6x, because real hardware caches intermediate
 * translations (translation caching [7], large-reach MMU caches
 * [12]) and holds hot PTE cache lines in the data-cache hierarchy.
 * Two structures model this:
 *
 *  - WalkCache: a paging-structure cache mapping (level, va-prefix)
 *    to the next table base, letting walks skip upper levels;
 *  - LineCache: a small cache of 64-byte PTE lines deciding whether
 *    each remaining walk reference is priced as a cache hit or a
 *    memory access.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
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

/**
 * Set-associative cache of page-walk intermediate results.
 *
 * A hit for key (level L, va prefix) yields the base address of the
 * table to be indexed at level L-1, skipping reads of levels > L-1.
 */
class WalkCache
{
  public:
    WalkCache(unsigned sets, unsigned ways,
              std::string name = "walkcache");

    /** Compose the lookup key for @p level and address @p va. */
    static std::uint64_t
    key(int level, Addr va)
    {
        // Prefix consumed by levels above and including this one.
        // Levels run 1..4, so the tag needs three bits — two would
        // alias level 4 into the prefix and confuse neighbouring
        // 512 GB regions.
        const unsigned shift = 12 + 9 * static_cast<unsigned>(level - 1);
        return ((va >> shift) << 3) | static_cast<unsigned>(level);
    }

    std::optional<Addr> lookup(std::uint64_t key);
    void insert(std::uint64_t key, Addr next_table);
    void flush();

    StatGroup &stats() { return _stats; }

    /** Checkpoint entries, LRU clock and stats. */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        Addr value = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    unsigned setOf(std::uint64_t key) const;

    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
    StatGroup _stats;
    Counter *hitsCtr;
    Counter *missesCtr;
};

/** Allocator that starts every array on a 64-byte boundary. */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &) {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T *p, std::size_t) { ::operator delete(p, kAlign); }

    bool operator==(const CacheLineAllocator &) const { return true; }
};

/**
 * Small set-associative cache of 64-byte lines standing in for PTE
 * residency in the data-cache hierarchy.  access() returns whether
 * the line was already present and inserts it.
 *
 * The hit test reads a separate tag array in which an invalid way
 * holds an all-ones sentinel (no line number reaches it), so the
 * eight tags of a set share one host cache line.  The entries keep
 * their own tag and valid bit because checkpoints record both,
 * stale tags of invalid ways included.
 */
class LineCache
{
  public:
    LineCache(unsigned sets, unsigned ways,
              std::string name = "linecache");

    /** Touch the line containing @p pa; @return true on hit. */
    bool access(Addr pa);
    void flush();

    StatGroup &stats() { return _stats; }

    /** Checkpoint entries, LRU clock and stats. */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    static constexpr std::uint64_t kNoLine = ~0ull;

    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
    // entries[i].valid ? entries[i].tag : kNoLine, for the hit test.
    std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>> lineTags;
    StatGroup _stats;
    Counter *hitsCtr;
    Counter *missesCtr;
};

} // namespace emv::tlb

