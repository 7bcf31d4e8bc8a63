/**
 * @file
 * Simulated physical memory.
 *
 * Page tables in emv are not abstract maps: they are genuine radix
 * trees of x86-64-encoded 64-bit entries stored in a PhysMemory, and
 * the walkers load each entry with read64().  That keeps the paper's
 * headline count — up to 24 memory references per 2D walk (Fig. 2) —
 * an emergent property rather than an assertion.
 *
 * The store is sparse (4 KB frames materialized on first touch) so a
 * simulated multi-GB machine costs only what the page tables and
 * touched data actually occupy.  Frames hang off a two-level radix
 * directory: the top level has one slot per 2 MB region (addr >> 21)
 * and a region's leaf of 512 frame pointers is allocated on the first
 * write inside it, so read64() is two indexed loads with no hashing.
 * A dense per-frame array would be simpler still but costs 8 bytes
 * per 4 KB of simulated memory up front, several MB per host.
 * PhysMemory also owns the hard-fault model: frames can be marked
 * bad (paper §V), and the escape filter machinery consults that
 * registry.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::mem {

/**
 * Sparse word-addressable physical memory of a fixed size with a
 * bad-frame (hard fault) registry.
 */
class PhysMemory
{
  public:
    /** @param size_bytes Total physical address space size. */
    explicit PhysMemory(Addr size_bytes);

    Addr size() const { return sizeBytes; }

    /** Load a naturally aligned 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /** Store a naturally aligned 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /** Zero a whole 4 KB frame (used for fresh page tables). */
    void zeroFrame(Addr frame_base);

    /** Copy a 4 KB frame (compaction / page migration). */
    void copyFrame(Addr dst_base, Addr src_base);

    /** 64-bit FNV-1a content hash of a 4 KB frame. */
    std::uint64_t hashFrame(Addr frame_base) const;

    /** Mark the 4 KB frame containing @p addr as having hard faults. */
    void markBad(Addr addr);
    /** Clear a bad-frame mark. */
    void clearBad(Addr addr);
    /** True if the frame containing @p addr is faulty. */
    bool isBad(Addr addr) const;
    /** True if any 4 KB frame in [base, base+len) is faulty. */
    bool anyBadInRange(Addr base, Addr len) const;
    /** Frame bases of faulty frames in [base, base+len), sorted. */
    std::vector<Addr> badFramesInRange(Addr base, Addr len) const;
    /** Number of faulty frames. */
    std::size_t badFrameCount() const { return badFrames.size(); }

    /** Number of frames actually materialized. */
    std::size_t residentFrames() const { return resident; }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint all resident frame contents plus the bad-frame
     * registry (sorted, so files are byte-stable across runs).  This
     * is the chunk that captures every page-table radix tree.
     */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    using Frame = std::array<std::uint64_t, 512>;
    /** The frames of one 2 MB region, by frame number mod 512. */
    using Leaf = std::array<std::unique_ptr<Frame>, 512>;

    Frame &frameFor(Addr addr);
    const Frame *frameForConst(Addr addr) const;

    Addr sizeBytes;
    mutable StatGroup _stats{"physmem"};
    // Cached so read64()/write64() bump them without a lookup.
    Counter *readsCtr;
    Counter *writesCtr;
    // Radix frame directory: dir[addr >> 21] is the leaf of that
    // 2 MB region, null until something is written there.
    std::vector<std::unique_ptr<Leaf>> dir;
    std::size_t resident = 0;
    std::unordered_set<std::uint64_t> badFrames;
};

} // namespace emv::mem

