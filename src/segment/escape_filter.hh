/**
 * @file
 * Escape filter (§V): holes in a direct segment.
 *
 * A single bad physical page would otherwise forbid a multi-GB
 * direct segment.  The escape filter is a small hardware Bloom
 * filter checked in parallel with the segment registers: pages whose
 * page number hits the filter "escape" to conventional paging, where
 * the OS/VMM has remapped them to healthy frames.  False positives
 * are safe (the VMM maps those pages too) and merely cost a walk.
 *
 * The paper's configuration — a 256-bit parallel Bloom filter with
 * four H3 hash functions [44] — keeps the false-positive penalty
 * near zero for up to 16 faulty pages (Fig. 13).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/h3_hash.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::segment {

/** Bloom filter over page numbers. */
class EscapeFilter
{
  public:
    /**
     * @param bits       Filter size in bits (power of two; paper: 256).
     * @param num_hashes H3 hash functions (paper: 4).
     * @param seed       Seed for the H3 matrices.
     */
    explicit EscapeFilter(unsigned bits = 256, unsigned num_hashes = 4,
                          std::uint64_t seed = 0x1234);

    /** Add the page containing @p addr to the filter. */
    void insertPage(Addr addr);

    /** True if the page containing @p addr *may* be escaped. */
    bool mayContain(Addr addr) const;

    /** Drop all escaped pages (segment rebuilt). */
    void clear();

    /** Bits set (for occupancy diagnostics). */
    unsigned popcount() const;

    /** Fraction of filter bits set, popcount() / sizeBits(). */
    double fillRatio() const;

    /**
     * True once fillRatio() reaches @p max_fill: the popcount bound
     * past which lookups degenerate into false positives and the
     * filter no longer discriminates — the trigger for retiring the
     * segment it guards (Table III downgrade).
     */
    bool saturated(double max_fill) const
    { return fillRatio() >= max_fill; }

    /** Number of pages inserted since the last clear(). */
    unsigned insertedPages() const { return inserted; }

    /**
     * Analytic false-positive probability for the current number of
     * inserted pages: (1 - e^(-k*n/m))^k.
     */
    double expectedFalsePositiveRate() const;

    unsigned sizeBits() const { return bits; }
    unsigned numHashes() const { return hashes.size(); }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint the bit words, insert count and stats.  The H3
     * matrices are rebuilt deterministically from the construction
     * seed and are intentionally not stored.
     */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    unsigned bits;
    unsigned inserted = 0;
    H3Family hashes;
    std::vector<std::uint64_t> words;
    mutable StatGroup _stats{"escape_filter"};
    // Cached so the probe and insert paths bump them without a lookup.
    Counter *insertsCtr;
    Counter *positivesCtr;
};

} // namespace emv::segment

