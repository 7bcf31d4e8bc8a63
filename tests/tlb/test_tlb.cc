/** @file Unit tests for the set-associative TLB. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tlb/tlb.hh"
#include "../test_support.hh"

namespace emv::tlb {
namespace {

TEST(TlbTest, MissOnEmpty)
{
    Tlb tlb("t", 16, 4);
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x1000,
                            PageSize::Size4K));
}

TEST(TlbTest, HitAfterInsert)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    auto hit = tlb.lookup(EntryKind::Guest, 0x1abc,
                          PageSize::Size4K);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->frame, 0xa000u);
    EXPECT_EQ(hit->size, PageSize::Size4K);
}

TEST(TlbTest, KindsAreIsolated)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(EntryKind::Nested, 0x1000,
                            PageSize::Size4K));
    tlb.insert(EntryKind::Nested, 0x1000, 0xb000, PageSize::Size4K);
    EXPECT_EQ(tlb.lookup(EntryKind::Guest, 0x1000,
                         PageSize::Size4K)->frame, 0xa000u);
    EXPECT_EQ(tlb.lookup(EntryKind::Nested, 0x1000,
                         PageSize::Size4K)->frame, 0xb000u);
}

TEST(TlbTest, SizesAreIsolated)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x200000, 0x400000,
               PageSize::Size2M);
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x200000,
                            PageSize::Size4K));
    auto hit = tlb.lookup(EntryKind::Guest, 0x3fffff,
                          PageSize::Size2M);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->frame, 0x400000u);
}

TEST(TlbTest, LookupAnyFindsAllSizes)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0, 0x40000000, PageSize::Size1G);
    auto hit = tlb.lookupAny(EntryKind::Guest, 0x12345678);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size, PageSize::Size1G);
}

TEST(TlbTest, LruEvictionWithinSet)
{
    Tlb tlb("t", 1, 2);  // Single set, 2 ways.
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x2000, 0xb000, PageSize::Size4K);
    // Touch the first so the second becomes LRU.
    tlb.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x3000, 0xc000, PageSize::Size4K);
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x1000,
                           PageSize::Size4K));
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x2000,
                            PageSize::Size4K));
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x3000,
                           PageSize::Size4K));
}

TEST(TlbTest, ReinsertUpdatesFrame)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x1000, 0xb000, PageSize::Size4K);
    EXPECT_EQ(tlb.lookup(EntryKind::Guest, 0x1000,
                         PageSize::Size4K)->frame, 0xb000u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 1u);
}

TEST(TlbTest, FlushPage)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x2000, 0xb000, PageSize::Size4K);
    tlb.flushPage(EntryKind::Guest, 0x1000, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x1000,
                            PageSize::Size4K));
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x2000,
                           PageSize::Size4K));
}

TEST(TlbTest, FlushKindLeavesOtherKind)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Nested, 0x1000, 0xb000, PageSize::Size4K);
    tlb.flushKind(EntryKind::Guest);
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 0u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Nested), 1u);
}

TEST(TlbTest, FlushAll)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Nested, 0x2000, 0xb000, PageSize::Size4K);
    tlb.flushAll();
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 0u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Nested), 0u);
}

TEST(TlbTest, CapacityIsSetsTimesWays)
{
    Tlb tlb("t", 4, 4);
    for (Addr page = 0; page < 64; ++page) {
        tlb.insert(EntryKind::Guest, page * kPage4K, page * kPage4K,
                   PageSize::Size4K);
    }
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 16u);
}

TEST(TlbTest, SharedCapacityPressure)
{
    // Nested entries evict guest entries in a shared structure —
    // the miss-inflation mechanism of §IX.A.
    Tlb tlb("t", 1, 4);
    for (int i = 0; i < 4; ++i) {
        tlb.insert(EntryKind::Guest, static_cast<Addr>(i) * kPage4K,
                   0, PageSize::Size4K);
    }
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 4u);
    for (int i = 0; i < 3; ++i) {
        tlb.insert(EntryKind::Nested,
                   static_cast<Addr>(i + 100) * kPage4K, 0,
                   PageSize::Size4K);
    }
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 1u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Nested), 3u);
}

TEST(TlbTest, StatsCountHitsAndMisses)
{
    Tlb tlb("t", 16, 4);
    tlb.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    EXPECT_EQ(tlb.stats().counterValue("misses"), 1u);
    EXPECT_EQ(tlb.stats().counterValue("hits"), 1u);
    EXPECT_EQ(tlb.stats().counterValue("inserts"), 1u);
}

TEST(TlbDeathTest, MisalignedFramePanics)
{
    Tlb tlb("t", 16, 4);
    EXPECT_DEATH(tlb.insert(EntryKind::Guest, 0x200000, 0x1000,
                            PageSize::Size2M),
                 "not aligned");
}

TEST(TlbTest, CheckpointRoundTripPreservesEntriesAndLru)
{
    Tlb a("t", 1, 2);  // Single set so LRU order is observable.
    a.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    a.insert(EntryKind::Guest, 0x2000, 0xb000, PageSize::Size4K);
    a.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    const auto bytes = test::ckptBytes(a);

    Tlb b("t", 1, 2);
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    // The restored LRU clock must evict the same victim the saved
    // TLB would: 0x2000 is least recently used.
    b.insert(EntryKind::Guest, 0x3000, 0xc000, PageSize::Size4K);
    EXPECT_TRUE(b.lookup(EntryKind::Guest, 0x1000,
                         PageSize::Size4K).has_value());
    EXPECT_FALSE(b.lookup(EntryKind::Guest, 0x2000,
                          PageSize::Size4K).has_value());
}

TEST(TlbTest, CheckpointRejectsGeometryMismatch)
{
    Tlb a("t", 16, 4);
    Tlb b("t", 8, 4);
    EXPECT_FALSE(test::ckptRestore(test::ckptBytes(a), b));
}

// Encoding layout: u32 sets, u32 ways, u64 tick, u64 entry count,
// then per entry u64 vpn, frame, lru and u8 size, kind, valid.
constexpr std::size_t kFirstSizeByte = 4 + 4 + 8 + 8 + 3 * 8;

std::string
restoreError(const std::vector<std::uint8_t> &bytes, Tlb &tlb)
{
    ckpt::Decoder dec(bytes.data(), bytes.size());
    EXPECT_FALSE(tlb.deserialize(dec));
    return dec.error();
}

TEST(TlbTest, CheckpointRejectsBadPageSize)
{
    Tlb a("t", 1, 2);
    a.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    auto bytes = test::ckptBytes(a);
    bytes.at(kFirstSizeByte) = 3;  // One past Size1G.
    Tlb b("t", 1, 2);
    EXPECT_EQ(restoreError(bytes, b), "tlb 't': bad page size");
}

TEST(TlbTest, CheckpointRejectsBadEntryKind)
{
    Tlb a("t", 1, 2);
    a.insert(EntryKind::Nested, 0x1000, 0xa000, PageSize::Size4K);
    auto bytes = test::ckptBytes(a);
    bytes.at(kFirstSizeByte + 1) = 2;  // One past Nested.
    Tlb b("t", 1, 2);
    EXPECT_EQ(restoreError(bytes, b), "tlb 't': bad entry kind");
}

TEST(TlbTest, EmptyTlbCountsMissesWithoutProbing)
{
    Tlb tlb("t", 16, 4);
    EXPECT_FALSE(tlb.lookupAny(EntryKind::Guest, 0x1000));
    EXPECT_FALSE(tlb.lookup(EntryKind::Nested, 0x1000,
                            PageSize::Size2M));
    EXPECT_EQ(tlb.stats().counterValue("misses"), 2u);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    EXPECT_TRUE(tlb.lookupAny(EntryKind::Guest, 0x1000));
    tlb.flushAll();
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x1000,
                            PageSize::Size4K));
    EXPECT_EQ(tlb.stats().counterValue("hits"), 1u);
    EXPECT_EQ(tlb.stats().counterValue("misses"), 3u);

    // A restored TLB recomputes emptiness from its entries.
    Tlb full("t", 16, 4);
    full.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    Tlb restored("t", 16, 4);
    ASSERT_TRUE(test::ckptRestore(test::ckptBytes(full), restored));
    EXPECT_TRUE(restored.lookup(EntryKind::Guest, 0x1000,
                                PageSize::Size4K));
    ASSERT_TRUE(test::ckptRestore(test::ckptBytes(tlb), restored));
    EXPECT_FALSE(restored.lookup(EntryKind::Guest, 0x1000,
                                 PageSize::Size4K));
}

} // namespace
} // namespace emv::tlb
