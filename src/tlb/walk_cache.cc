#include "tlb/walk_cache.hh"

#include <algorithm>
#include <utility>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::tlb {

namespace {

/** Cheap 64-bit mix for set indexing. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

} // namespace

WalkCache::WalkCache(unsigned sets, unsigned ways, std::string name)
    : numSets(sets), numWays(ways), entries(sets * ways),
      _stats(std::move(name)),
      hitsCtr(&_stats.counter("hits")),
      missesCtr(&_stats.counter("misses"))
{
    emv_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "walk cache sets must be a power of two");
    emv_assert(ways > 0, "walk cache needs at least one way");
}

unsigned
WalkCache::setOf(std::uint64_t key) const
{
    return static_cast<unsigned>(mix(key) & (numSets - 1));
}

std::optional<Addr>
WalkCache::lookup(std::uint64_t key)
{
    Entry *set = &entries[setOf(key) * numWays];
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].valid && set[w].key == key) {
            set[w].lru = ++tick;
            ++*hitsCtr;
            return set[w].value;
        }
    }
    ++*missesCtr;
    return std::nullopt;
}

void
WalkCache::insert(std::uint64_t key, Addr next_table)
{
    EMV_CHECK(isAligned(next_table, kPage4K),
              "%s: cached table pointer %s not 4K aligned",
              _stats.name().c_str(), hexAddr(next_table).c_str());
    Entry *set = &entries[setOf(key) * numWays];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].valid && set[w].key == key) {
            set[w].value = next_table;
            set[w].lru = ++tick;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    victim->key = key;
    victim->value = next_table;
    victim->lru = ++tick;
    victim->valid = true;
}

void
WalkCache::flush()
{
    for (auto &entry : entries)
        entry.valid = false;
    ++_stats.counter("flushes");
}

LineCache::LineCache(unsigned sets, unsigned ways, std::string name)
    : numSets(sets), numWays(ways), entries(sets * ways),
      lineTags(sets * ways, kNoLine), _stats(std::move(name)),
      hitsCtr(&_stats.counter("hits")),
      missesCtr(&_stats.counter("misses"))
{
    emv_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "line cache sets must be a power of two");
    emv_assert(ways > 0, "line cache needs at least one way");
}

bool
LineCache::access(Addr pa)
{
    const std::uint64_t line = pa >> 6;
    const std::size_t base =
        static_cast<std::size_t>(mix(line) & (numSets - 1)) * numWays;
    const std::uint64_t *tags = &lineTags[base];
    Entry *set = &entries[base];
    for (unsigned w = 0; w < numWays; ++w) {
        if (tags[w] == line) {
            set[w].lru = ++tick;
            ++*hitsCtr;
            return true;
        }
    }
    // Victim: the last invalid way, else the least recently used.
    // The way replaced decides which lines stay cached, and so which
    // later walk references are priced as hits: this choice is part
    // of the model and must not change.
    Entry *victim = &set[0];
    for (unsigned w = 0; w < numWays; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            continue;
        }
        if (victim->valid && set[w].lru < victim->lru)
            victim = &set[w];
    }
    victim->tag = line;
    victim->lru = ++tick;
    victim->valid = true;
    lineTags[base + static_cast<std::size_t>(victim - set)] = line;
    ++*missesCtr;
    return false;
}

void
LineCache::flush()
{
    for (auto &entry : entries)
        entry.valid = false;
    std::fill(lineTags.begin(), lineTags.end(), kNoLine);
    ++_stats.counter("flushes");
}

void
WalkCache::serialize(ckpt::Encoder &enc) const
{
    enc.u32(numSets);
    enc.u32(numWays);
    enc.u64(tick);
    enc.u64(entries.size());
    for (const auto &e : entries) {
        enc.u64(e.key);
        enc.u64(e.value);
        enc.u64(e.lru);
        enc.u8(e.valid ? 1 : 0);
    }
    _stats.serialize(enc);
}

bool
WalkCache::deserialize(ckpt::Decoder &dec)
{
    const unsigned savedSets = dec.u32();
    const unsigned savedWays = dec.u32();
    if (dec.ok() && (savedSets != numSets || savedWays != numWays)) {
        dec.fail("walkcache: geometry mismatch");
        return false;
    }
    tick = dec.u64();
    const std::uint64_t n = dec.u64();
    if (dec.ok() && n != entries.size()) {
        dec.fail("walkcache: entry count mismatch");
        return false;
    }
    for (std::uint64_t i = 0; dec.ok() && i < n; ++i) {
        Entry &e = entries[static_cast<std::size_t>(i)];
        e.key = dec.u64();
        e.value = dec.u64();
        e.lru = dec.u64();
        e.valid = dec.u8() != 0;
    }
    if (!_stats.deserialize(dec))
        return false;
    return dec.ok();
}

void
LineCache::serialize(ckpt::Encoder &enc) const
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
    _stats.serialize(enc);
}

bool
LineCache::deserialize(ckpt::Decoder &dec)
{
    const unsigned savedSets = dec.u32();
    const unsigned savedWays = dec.u32();
    if (dec.ok() && (savedSets != numSets || savedWays != numWays)) {
        dec.fail("linecache: geometry mismatch");
        return false;
    }
    tick = dec.u64();
    const std::uint64_t n = dec.u64();
    if (dec.ok() && n != entries.size()) {
        dec.fail("linecache: entry count mismatch");
        return false;
    }
    for (std::uint64_t i = 0; dec.ok() && i < n; ++i) {
        Entry &e = entries[static_cast<std::size_t>(i)];
        e.tag = dec.u64();
        e.lru = dec.u64();
        e.valid = dec.u8() != 0;
        lineTags[static_cast<std::size_t>(i)] = e.valid ? e.tag : kNoLine;
    }
    if (!_stats.deserialize(dec))
        return false;
    return dec.ok();
}

} // namespace emv::tlb
