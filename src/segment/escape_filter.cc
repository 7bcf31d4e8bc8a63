#include "segment/escape_filter.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace emv::segment {

namespace {

unsigned
log2Bits(unsigned bits)
{
    unsigned out = 0;
    while ((1u << out) < bits)
        ++out;
    return out;
}

} // namespace

EscapeFilter::EscapeFilter(unsigned bits, unsigned num_hashes,
                           std::uint64_t seed)
    : bits(bits), hashes(num_hashes, log2Bits(bits), seed),
      words((bits + 63) / 64, 0),
      insertsCtr(&_stats.counter("inserts")),
      positivesCtr(&_stats.counter("positives"))
{
    emv_assert(bits >= 64 && (bits & (bits - 1)) == 0,
               "escape filter size must be a power of two >= 64");
    emv_assert(num_hashes >= 1, "escape filter needs >= 1 hash");
}

void
EscapeFilter::insertPage(Addr addr)
{
    const std::uint64_t page = addr >> 12;
    for (unsigned h = 0; h < hashes.size(); ++h) {
        const unsigned bit = hashes.hash(h, page) & (bits - 1);
        words[bit >> 6] |= 1ull << (bit & 63);
    }
    ++inserted;
    ++*insertsCtr;
    // A Bloom filter may report false positives (harmless: the page
    // escapes to paging) but never false negatives — a miss on an
    // inserted page would translate through the stale segment mapping.
    EMV_CHECK(mayContain(addr),
              "escape filter false negative for page %s",
              hexAddr(addr).c_str());
    EMV_INVARIANT(popcount() <= std::min<unsigned>(
                      bits, inserted * numHashes()),
                  "escape filter has %u bits set after %u inserts "
                  "with %u hashes", popcount(), inserted, numHashes());
    EMV_TRACE(Filter, "insert page=%s inserted=%llu set_bits=%u",
              hexAddr(addr).c_str(),
              static_cast<unsigned long long>(inserted), popcount());
}

bool
EscapeFilter::mayContain(Addr addr) const
{
    if (inserted == 0)
        return false;
    const std::uint64_t page = addr >> 12;
    for (unsigned h = 0; h < hashes.size(); ++h) {
        const unsigned bit = hashes.hash(h, page) & (bits - 1);
        if (!(words[bit >> 6] & (1ull << (bit & 63))))
            return false;
    }
    ++*positivesCtr;
    return true;
}

void
EscapeFilter::clear()
{
    EMV_TRACE(Filter, "clear (had %llu pages)",
              static_cast<unsigned long long>(inserted));
    for (auto &word : words)
        word = 0;
    inserted = 0;
}

unsigned
EscapeFilter::popcount() const
{
    unsigned total = 0;
    for (auto word : words)
        total += static_cast<unsigned>(std::popcount(word));
    return total;
}

double
EscapeFilter::fillRatio() const
{
    return static_cast<double>(popcount()) /
           static_cast<double>(bits);
}

double
EscapeFilter::expectedFalsePositiveRate() const
{
    const double k = static_cast<double>(hashes.size());
    const double n = static_cast<double>(inserted);
    const double m = static_cast<double>(bits);
    const double fill = 1.0 - std::exp(-k * n / m);
    return std::pow(fill, k);
}

void
EscapeFilter::serialize(ckpt::Encoder &enc) const
{
    enc.u32(bits);
    enc.u32(inserted);
    enc.u64(words.size());
    for (std::uint64_t w : words)
        enc.u64(w);
    _stats.serialize(enc);
}

bool
EscapeFilter::deserialize(ckpt::Decoder &dec)
{
    const unsigned savedBits = dec.u32();
    if (dec.ok() && savedBits != bits) {
        dec.fail("escape_filter: size mismatch");
        return false;
    }
    inserted = dec.u32();
    const std::uint64_t n = dec.u64();
    if (dec.ok() && n != words.size()) {
        dec.fail("escape_filter: word count mismatch");
        return false;
    }
    for (auto &w : words)
        w = dec.u64();
    if (!_stats.deserialize(dec))
        return false;
    return dec.ok();
}

} // namespace emv::segment
