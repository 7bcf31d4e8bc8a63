/**
 * @file
 * Exact-equivalence tests for the TLB and PTE-line cache probes.
 *
 * Tlb skips probing while it holds no valid entry, and LineCache
 * tests hits against a separate sentinel tag array.  Both are
 * host-speed changes only: the reference classes below are the
 * plain full-scan versions of the same structures, and a long seeded
 * stream of mixed operations must produce the same hit/miss
 * sequence, counters and checkpoint bytes from both, across
 * checkpoint round trips of the fast implementation mid-stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "tlb/tlb.hh"
#include "tlb/walk_cache.hh"
#include "../test_support.hh"

namespace emv::tlb {
namespace {

constexpr int kOps = 1'000'000;
// The fast implementation is checkpointed and restored into a fresh
// object once in every window of this many operations.
constexpr int kRoundTripEvery = 250'000;

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

/** Full-scan TLB: every probe reads its set, empty or not. */
class RefTlb
{
  public:
    RefTlb(std::string name, unsigned sets, unsigned ways)
        : name(std::move(name)), numSets(sets), numWays(ways),
          entries(sets * ways), stats(this->name),
          hits(&stats.counter("hits")),
          misses(&stats.counter("misses")),
          inserts(&stats.counter("inserts")),
          evictions(&stats.counter("evictions"))
    {
    }

    std::optional<TlbHit>
    lookup(EntryKind kind, Addr addr, PageSize size)
    {
        if (auto hit = probe(kind, addr, size))
            return hit;
        ++*misses;
        return std::nullopt;
    }

    std::optional<TlbHit>
    lookupAny(EntryKind kind, Addr addr)
    {
        for (PageSize size : {PageSize::Size1G, PageSize::Size2M,
                              PageSize::Size4K}) {
            if (auto hit = probe(kind, addr, size))
                return hit;
        }
        ++*misses;
        return std::nullopt;
    }

    void
    insert(EntryKind kind, Addr addr, Addr frame, PageSize size)
    {
        const std::uint64_t vpn = addr >> pageShift(size);
        Entry *set = &entries[setOf(vpn, kind, size) * numWays];
        Entry *victim = &set[0];
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.valid && e.kind == kind && e.size == size &&
                e.vpn == vpn) {
                e.frame = frame;
                e.lru = ++tick;
                return;
            }
            if (!e.valid) {
                victim = &e;
                continue;
            }
            if (victim->valid && e.lru < victim->lru)
                victim = &e;
        }
        if (victim->valid)
            ++*evictions;
        *victim = Entry{vpn, frame, ++tick, size, kind, true};
        ++*inserts;
    }

    void
    flushPage(EntryKind kind, Addr addr, PageSize size)
    {
        const std::uint64_t vpn = addr >> pageShift(size);
        Entry *set = &entries[setOf(vpn, kind, size) * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.valid && e.kind == kind && e.size == size &&
                e.vpn == vpn)
                e.valid = false;
        }
    }

    void
    flushKind(EntryKind kind)
    {
        for (auto &e : entries) {
            if (e.kind == kind)
                e.valid = false;
        }
        ++stats.counter("kind_flushes");
    }

    void
    flushAll()
    {
        for (auto &e : entries)
            e.valid = false;
        ++stats.counter("full_flushes");
    }

    void
    serialize(ckpt::Encoder &enc) const
    {
        enc.u32(numSets);
        enc.u32(numWays);
        enc.u64(tick);
        enc.u64(entries.size());
        for (const auto &e : entries) {
            enc.u64(e.vpn);
            enc.u64(e.frame);
            enc.u64(e.lru);
            enc.u8(static_cast<std::uint8_t>(e.size));
            enc.u8(static_cast<std::uint8_t>(e.kind));
            enc.u8(e.valid ? 1 : 0);
        }
        stats.serialize(enc);
    }

    const StatGroup &statGroup() const { return stats; }

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

    unsigned
    setOf(std::uint64_t vpn, EntryKind kind, PageSize size) const
    {
        if (numSets == 1)
            return 0;
        const std::uint64_t k =
            (vpn << 4) | (static_cast<std::uint64_t>(kind) << 2) |
            static_cast<std::uint64_t>(size);
        return static_cast<unsigned>(mix(k) & (numSets - 1));
    }

    std::optional<TlbHit>
    probe(EntryKind kind, Addr addr, PageSize size)
    {
        const std::uint64_t vpn = addr >> pageShift(size);
        Entry *set = &entries[setOf(vpn, kind, size) * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.valid && e.kind == kind && e.size == size &&
                e.vpn == vpn) {
                e.lru = ++tick;
                ++*hits;
                return TlbHit{e.frame, e.size};
            }
        }
        return std::nullopt;
    }

    std::string name;
    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
    StatGroup stats;
    Counter *hits;
    Counter *misses;
    Counter *inserts;
    Counter *evictions;
};

/** Line cache whose hit test reads each way's valid bit and tag. */
class RefLineCache
{
  public:
    RefLineCache(unsigned sets, unsigned ways)
        : numSets(sets), numWays(ways), entries(sets * ways),
          stats("linecache"), hits(&stats.counter("hits")),
          misses(&stats.counter("misses"))
    {
    }

    bool
    access(Addr pa)
    {
        const std::uint64_t line = pa >> 6;
        const unsigned set_idx =
            static_cast<unsigned>(mix(line) & (numSets - 1));
        Entry *set = &entries[set_idx * numWays];
        Entry *victim = &set[0];
        for (unsigned w = 0; w < numWays; ++w) {
            if (set[w].valid && set[w].tag == line) {
                set[w].lru = ++tick;
                ++*hits;
                return true;
            }
            if (!set[w].valid) {
                victim = &set[w];
                continue;
            }
            if (victim->valid && set[w].lru < victim->lru)
                victim = &set[w];
        }
        *victim = Entry{line, ++tick, true};
        ++*misses;
        return false;
    }

    void
    flush()
    {
        for (auto &entry : entries)
            entry.valid = false;
        ++stats.counter("flushes");
    }

    void
    serialize(ckpt::Encoder &enc) const
    {
        enc.u32(numSets);
        enc.u32(numWays);
        enc.u64(tick);
        enc.u64(entries.size());
        for (const auto &e : entries) {
            enc.u64(e.tag);
            enc.u64(e.lru);
            enc.u8(e.valid ? 1 : 0);
        }
        stats.serialize(enc);
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
    StatGroup stats;
    Counter *hits;
    Counter *misses;
};

PageSize
pickSize(Rng &rng)
{
    // Mostly 4K, as in the workloads, with enough large pages that
    // every size class fills and evicts.
    const std::uint64_t r = rng.nextBelow(8);
    return r < 5 ? PageSize::Size4K
                 : r < 7 ? PageSize::Size2M : PageSize::Size1G;
}

EntryKind
pickKind(Rng &rng)
{
    return rng.nextBool(0.7) ? EntryKind::Guest : EntryKind::Nested;
}

/**
 * An address whose page number, at every size, falls in a small
 * range, so lookups hit as well as miss and sets overflow.
 */
Addr
pickAddr(Rng &rng)
{
    return (rng.nextBelow(4) << 30) | (rng.nextBelow(8) << 21) |
           (rng.nextBelow(16) << 12) | rng.nextBelow(4096);
}

TEST(FastPathEquivalenceTest, TlbMatchesFullScanReference)
{
    Rng rng(4242);
    auto fast = std::make_unique<Tlb>("eq", 16, 4);
    RefTlb ref("eq", 16, 4);
    std::uint64_t outcomes = 0;
    std::uint64_t empty_probes = 0;
    bool empty = true;  // No insert since the last flushAll().
    for (int op = 0; op < kOps; ++op) {
        if (op % kRoundTripEvery == kRoundTripEvery / 2) {
            // Resume the fast TLB from its own checkpoint, then probe
            // it before any insert can repopulate it.
            const auto bytes = test::ckptBytes(*fast);
            ASSERT_EQ(bytes, test::ckptBytes(ref));
            fast = std::make_unique<Tlb>("eq", 16, 4);
            ASSERT_TRUE(test::ckptRestore(bytes, *fast));
            for (int i = 0; i < 64; ++i) {
                const EntryKind kind = pickKind(rng);
                const Addr addr = pickAddr(rng);
                const auto a = fast->lookupAny(kind, addr);
                ASSERT_EQ(a.has_value(),
                          ref.lookupAny(kind, addr).has_value())
                    << "op " << op << " probe " << i;
                outcomes += a.has_value();
            }
        }
        const std::uint64_t r = rng.nextBelow(1000);
        const EntryKind kind = pickKind(rng);
        const Addr addr = pickAddr(rng);
        if (r < 450) {
            const PageSize size = pickSize(rng);
            empty_probes += empty;
            const auto a = fast->lookup(kind, addr, size);
            const auto b = ref.lookup(kind, addr, size);
            ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
            if (a) {
                ASSERT_EQ(a->frame, b->frame) << "op " << op;
                ASSERT_EQ(a->size, b->size) << "op " << op;
            }
            outcomes += a.has_value();
        } else if (r < 550) {
            const auto a = fast->lookupAny(kind, addr);
            const auto b = ref.lookupAny(kind, addr);
            ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
            if (a) {
                ASSERT_EQ(a->frame, b->frame) << "op " << op;
                ASSERT_EQ(a->size, b->size) << "op " << op;
            }
            outcomes += a.has_value();
        } else if (r < 940) {
            const PageSize size = pickSize(rng);
            const Addr frame =
                alignDown(rng.next() >> 16, pageBytes(size));
            fast->insert(kind, addr, frame, size);
            ref.insert(kind, addr, frame, size);
            empty = false;
        } else if (r < 985) {
            const PageSize size = pickSize(rng);
            fast->flushPage(kind, addr, size);
            ref.flushPage(kind, addr, size);
        } else if (r < 993) {
            fast->flushKind(kind);
            ref.flushKind(kind);
        } else {
            fast->flushAll();
            ref.flushAll();
            empty = true;
        }
    }
    // The stream must have exercised both hits and the empty-TLB
    // path, or the comparison proves little.
    EXPECT_GT(outcomes, static_cast<std::uint64_t>(kOps) / 20);
    EXPECT_GT(empty_probes, 1000u);

    for (const char *name : {"hits", "misses", "inserts", "evictions",
                             "kind_flushes", "full_flushes"}) {
        EXPECT_EQ(fast->stats().counterValue(name),
                  ref.statGroup().counterValue(name))
            << name;
    }
    EXPECT_EQ(test::ckptBytes(*fast), test::ckptBytes(ref));
}

TEST(FastPathEquivalenceTest, LineCacheMatchesFullScanReference)
{
    Rng rng(42);
    auto fast = std::make_unique<LineCache>(64, 8);
    RefLineCache ref(64, 8);
    std::uint64_t hits = 0;
    for (int op = 0; op < kOps; ++op) {
        if (op % kRoundTripEvery == kRoundTripEvery / 2) {
            const auto bytes = test::ckptBytes(*fast);
            ASSERT_EQ(bytes, test::ckptBytes(ref));
            fast = std::make_unique<LineCache>(64, 8);
            ASSERT_TRUE(test::ckptRestore(bytes, *fast));
        }
        if (rng.nextBelow(2000) == 0) {
            fast->flush();
            ref.flush();
            continue;
        }
        // Mostly a working set near the cache's 512-line capacity,
        // sometimes far lines: hits, cold misses and LRU evictions.
        const Addr pa = rng.nextBool(0.9)
                            ? rng.nextBelow(768) << 6
                            : rng.nextBelow(1ull << 30) & ~7ull;
        const bool a = fast->access(pa);
        const bool b = ref.access(pa);
        ASSERT_EQ(a, b) << "op " << op << " pa " << pa;
        hits += a;
    }
    EXPECT_GT(hits, static_cast<std::uint64_t>(kOps) / 4);
    EXPECT_LT(hits, static_cast<std::uint64_t>(kOps) * 9 / 10);

    for (const char *name : {"hits", "misses", "flushes"}) {
        EXPECT_EQ(fast->stats().counterValue(name),
                  ref.statGroup().counterValue(name))
            << name;
    }
    EXPECT_EQ(fast->stats().counterValue("hits"), hits);
    EXPECT_EQ(test::ckptBytes(*fast), test::ckptBytes(ref));
}

} // namespace
} // namespace emv::tlb
