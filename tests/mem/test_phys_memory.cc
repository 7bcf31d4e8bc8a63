/** @file Unit tests for simulated physical memory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/phys_memory.hh"
#include "../test_support.hh"

namespace emv::mem {
namespace {

TEST(PhysMemoryTest, UntouchedReadsZero)
{
    PhysMemory mem(1 * MiB);
    EXPECT_EQ(mem.read64(0), 0u);
    EXPECT_EQ(mem.read64(0x8000), 0u);
    EXPECT_EQ(mem.residentFrames(), 0u);
}

TEST(PhysMemoryTest, WriteThenRead)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1000, 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(0x1000), 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(0x1008), 0u);
    EXPECT_EQ(mem.residentFrames(), 1u);
}

TEST(PhysMemoryTest, SparseMaterialization)
{
    PhysMemory mem(1 * GiB);
    mem.write64(0, 1);
    mem.write64(512 * MiB, 2);
    EXPECT_EQ(mem.residentFrames(), 2u);
}

TEST(PhysMemoryTest, ZeroFrame)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x2000, 7);
    mem.write64(0x2ff8, 9);
    mem.zeroFrame(0x2000);
    EXPECT_EQ(mem.read64(0x2000), 0u);
    EXPECT_EQ(mem.read64(0x2ff8), 0u);
}

TEST(PhysMemoryTest, CopyFrame)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1000, 11);
    mem.write64(0x1ff8, 22);
    mem.copyFrame(0x3000, 0x1000);
    EXPECT_EQ(mem.read64(0x3000), 11u);
    EXPECT_EQ(mem.read64(0x3ff8), 22u);
}

TEST(PhysMemoryTest, CopyFromUntouchedZeroes)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x3000, 5);
    mem.copyFrame(0x3000, 0x7000);
    EXPECT_EQ(mem.read64(0x3000), 0u);
}

TEST(PhysMemoryTest, HashDistinguishesContent)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1000, 1);
    mem.write64(0x2000, 2);
    EXPECT_NE(mem.hashFrame(0x1000), mem.hashFrame(0x2000));
}

TEST(PhysMemoryTest, HashEqualForEqualContent)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1008, 42);
    mem.write64(0x2008, 42);
    EXPECT_EQ(mem.hashFrame(0x1000), mem.hashFrame(0x2000));
    // Untouched frames hash like all-zero frames.
    EXPECT_EQ(mem.hashFrame(0x4000), mem.hashFrame(0x5000));
}

TEST(PhysMemoryTest, BadFrames)
{
    PhysMemory mem(1 * MiB);
    EXPECT_FALSE(mem.isBad(0x5000));
    mem.markBad(0x5123);
    EXPECT_TRUE(mem.isBad(0x5000));
    EXPECT_TRUE(mem.isBad(0x5fff));
    EXPECT_FALSE(mem.isBad(0x6000));
    EXPECT_EQ(mem.badFrameCount(), 1u);
    mem.clearBad(0x5000);
    EXPECT_FALSE(mem.isBad(0x5000));
}

TEST(PhysMemoryTest, AnyBadInRange)
{
    PhysMemory mem(1 * MiB);
    mem.markBad(0x40000);
    EXPECT_TRUE(mem.anyBadInRange(0x40000, kPage4K));
    EXPECT_TRUE(mem.anyBadInRange(0x3f000, 2 * kPage4K));
    EXPECT_FALSE(mem.anyBadInRange(0x41000, kPage4K));
}

TEST(PhysMemoryTest, BadFramesInRangeSorted)
{
    PhysMemory mem(1 * MiB);
    mem.markBad(0x9000);
    mem.markBad(0x3000);
    mem.markBad(0x6000);
    auto bad = mem.badFramesInRange(0, 1 * MiB);
    ASSERT_EQ(bad.size(), 3u);
    EXPECT_EQ(bad[0], 0x3000u);
    EXPECT_EQ(bad[1], 0x6000u);
    EXPECT_EQ(bad[2], 0x9000u);
}

TEST(PhysMemoryTest, CountsAccesses)
{
    PhysMemory mem(1 * MiB);
    mem.read64(0);
    mem.read64(8);
    mem.write64(16, 1);
    EXPECT_EQ(mem.stats().counterValue("reads"), 2u);
    EXPECT_EQ(mem.stats().counterValue("writes"), 1u);
}

TEST(PhysMemoryDeathTest, OutOfBoundsPanics)
{
    PhysMemory mem(1 * MiB);
    EXPECT_DEATH(mem.read64(2 * MiB), "beyond memory");
}

TEST(PhysMemoryDeathTest, MisalignedPanics)
{
    PhysMemory mem(1 * MiB);
    EXPECT_DEATH(mem.read64(4), "misaligned");
}

TEST(PhysMemoryTest, CheckpointRoundTripReplacesFrames)
{
    PhysMemory a(1 * MiB);
    a.write64(0x1000, 0xdeadbeefcafebabeull);
    a.write64(0x8ff8, 7);
    const auto bytes = test::ckptBytes(a);

    PhysMemory b(1 * MiB);
    b.write64(0x2000, 5);  // Stale resident frame; dropped.
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    EXPECT_EQ(b.read64(0x1000), 0xdeadbeefcafebabeull);
    EXPECT_EQ(b.read64(0x8ff8), 7u);
    EXPECT_EQ(b.read64(0x2000), 0u);
    EXPECT_EQ(b.residentFrames(), a.residentFrames());
}

TEST(PhysMemoryTest, CheckpointRejectsSizeMismatch)
{
    PhysMemory a(1 * MiB);
    PhysMemory b(2 * MiB);
    EXPECT_FALSE(test::ckptRestore(test::ckptBytes(a), b));
}

/** Overwrite the little-endian u64 at @p offset of an encoding. */
void
patchU64(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        bytes.at(offset + i) = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Restore @p bytes into @p mem; @return the decoder's error text. */
std::string
restoreError(const std::vector<std::uint8_t> &bytes, PhysMemory &mem)
{
    ckpt::Decoder dec(bytes.data(), bytes.size());
    EXPECT_FALSE(mem.deserialize(dec));
    return dec.error();
}

// Encoding layout: u64 size, u64 frame count, then per frame a u64
// index followed by 512 u64 words.
constexpr std::size_t kFirstIndexOffset = 16;
constexpr std::size_t kFrameRecordBytes = 8 + 512 * 8;

TEST(PhysMemoryTest, CheckpointRejectsFrameIndexOutOfRange)
{
    PhysMemory a(1 * MiB);
    a.write64(0x1000, 1);
    auto bytes = test::ckptBytes(a);
    // 1 MB holds frames 0..255; 256 lies in the same 2 MB directory
    // leaf but beyond the memory.
    patchU64(bytes, kFirstIndexOffset, 256);
    PhysMemory b(1 * MiB);
    EXPECT_EQ(restoreError(bytes, b), "physmem: frame index out of range");
    patchU64(bytes, kFirstIndexOffset, ~0ull);
    PhysMemory c(1 * MiB);
    EXPECT_EQ(restoreError(bytes, c), "physmem: frame index out of range");
}

TEST(PhysMemoryTest, CheckpointRejectsDuplicateFrameIndex)
{
    PhysMemory a(1 * MiB);
    a.write64(0x1000, 1);
    a.write64(0x2000, 2);
    auto bytes = test::ckptBytes(a);
    // The second record (frame 2) claims frame 1 again.
    patchU64(bytes, kFirstIndexOffset + kFrameRecordBytes, 1);
    PhysMemory b(1 * MiB);
    EXPECT_EQ(restoreError(bytes, b), "physmem: duplicate frame index");
}

TEST(PhysMemoryTest, LastFrameOfPartialDirectoryLeaf)
{
    // 2 MB + 4 KB: the second directory leaf covers one real frame.
    const Addr size = 2 * MiB + kPage4K;
    PhysMemory mem(size);
    EXPECT_EQ(mem.read64(size - 8), 0u);
    EXPECT_EQ(mem.residentFrames(), 0u);
    mem.write64(size - 8, 0x1234);
    mem.write64(2 * MiB, 0x5678);
    EXPECT_EQ(mem.read64(size - 8), 0x1234u);
    EXPECT_EQ(mem.read64(2 * MiB), 0x5678u);
    EXPECT_EQ(mem.residentFrames(), 1u);

    PhysMemory copy(size);
    ASSERT_TRUE(test::ckptRestore(test::ckptBytes(mem), copy));
    EXPECT_EQ(test::ckptBytes(copy), test::ckptBytes(mem));
    EXPECT_EQ(copy.read64(size - 8), 0x1234u);
}

TEST(PhysMemoryTest, RandomOrderWritesSerializeInAscendingOrder)
{
    // Frames spread over four 2 MB leaves, leaf edges included.
    std::vector<std::uint64_t> frames = {0,    1,    511,  512,  513,
                                         700,  1023, 1024, 1500, 2047};
    Rng rng(7);
    for (std::size_t i = frames.size() - 1; i > 0; --i)
        std::swap(frames[i], frames[rng.nextBelow(i + 1)]);

    PhysMemory mem(8 * MiB);
    for (std::uint64_t frame : frames) {
        mem.write64((frame << 12) + 8, frame + 1);
        mem.write64((frame << 12) + 4088, ~frame);
    }
    mem.markBad(0x5000);

    std::sort(frames.begin(), frames.end());
    ckpt::Encoder enc;
    enc.u64(8 * MiB);
    enc.u64(frames.size());
    for (std::uint64_t frame : frames) {
        enc.u64(frame);
        for (unsigned word = 0; word < 512; ++word) {
            enc.u64(word == 1     ? frame + 1
                    : word == 511 ? ~frame
                                  : 0);
        }
    }
    enc.u64(1);
    enc.u64(5);
    mem.stats().serialize(enc);
    EXPECT_EQ(test::ckptBytes(mem), enc.buffer());
}

TEST(PhysMemoryTest, ResidentFramesCountsEachFrameOnce)
{
    PhysMemory mem(4 * MiB);
    mem.zeroFrame(0x1000);
    mem.zeroFrame(0x1000);
    EXPECT_EQ(mem.residentFrames(), 1u);
    mem.write64(0x1008, 3);
    EXPECT_EQ(mem.residentFrames(), 1u);
    mem.copyFrame(0x2000, 0x1000);
    mem.copyFrame(0x2000, 0x1000);
    EXPECT_EQ(mem.residentFrames(), 2u);
    // Copying an untouched source zeroes (and so materializes) the
    // destination, but not the source.
    mem.copyFrame(0x3000, 0x9000);
    EXPECT_EQ(mem.residentFrames(), 3u);
    mem.write64(3 * MiB, 1);
    mem.write64(3 * MiB + 8, 2);
    mem.read64(0x7000);
    EXPECT_EQ(mem.residentFrames(), 4u);
}

} // namespace
} // namespace emv::mem
