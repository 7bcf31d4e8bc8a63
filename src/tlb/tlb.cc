#include "tlb/tlb.hh"

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::tlb {

namespace {

inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

} // namespace

Tlb::Tlb(std::string name, unsigned sets, unsigned ways)
    : name(std::move(name)), numSets(sets), numWays(ways),
      entries(sets * ways), _stats(this->name),
      hitsCtr(&_stats.counter("hits")),
      missesCtr(&_stats.counter("misses")),
      insertsCtr(&_stats.counter("inserts")),
      evictionsCtr(&_stats.counter("evictions"))
{
    emv_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "TLB sets must be a power of two");
    emv_assert(ways > 0, "TLB needs at least one way");
}

unsigned
Tlb::setOf(std::uint64_t vpn, EntryKind kind, PageSize size) const
{
    if (numSets == 1)
        return 0;
    const std::uint64_t k =
        (vpn << 4) | (static_cast<std::uint64_t>(kind) << 2) |
        static_cast<std::uint64_t>(size);
    return static_cast<unsigned>(mix(k) & (numSets - 1));
}

std::optional<TlbHit>
Tlb::lookup(EntryKind kind, Addr addr, PageSize size)
{
    if (!anyValid) {
        ++*missesCtr;
        return std::nullopt;
    }
    const std::uint64_t vpn = addr >> pageShift(size);
    Entry *set = &entries[setOf(vpn, kind, size) * numWays];
    for (unsigned w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.valid && e.kind == kind && e.size == size &&
            e.vpn == vpn) {
            e.lru = ++tick;
            ++*hitsCtr;
            return TlbHit{e.frame, e.size};
        }
    }
    ++*missesCtr;
    return std::nullopt;
}

std::optional<TlbHit>
Tlb::lookupAny(EntryKind kind, Addr addr)
{
    if (!anyValid) {
        ++*missesCtr;
        return std::nullopt;
    }
    for (PageSize size : {PageSize::Size1G, PageSize::Size2M,
                          PageSize::Size4K}) {
        // lookupAny counts a single logical probe; suppress the
        // per-size miss counting by probing manually.
        const std::uint64_t vpn = addr >> pageShift(size);
        Entry *set = &entries[setOf(vpn, kind, size) * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.valid && e.kind == kind && e.size == size &&
                e.vpn == vpn) {
                e.lru = ++tick;
                ++*hitsCtr;
                return TlbHit{e.frame, e.size};
            }
        }
    }
    ++*missesCtr;
    return std::nullopt;
}

void
Tlb::insert(EntryKind kind, Addr addr, Addr frame, PageSize size)
{
    emv_assert(isAligned(frame, pageBytes(size)),
               "TLB insert: frame %s not aligned to %s",
               hexAddr(frame).c_str(), pageSizeName(size));
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
        ++*evictionsCtr;
    victim->vpn = vpn;
    victim->frame = frame;
    victim->size = size;
    victim->kind = kind;
    victim->lru = ++tick;
    victim->valid = true;
    anyValid = true;
    ++*insertsCtr;
    EMV_INVARIANT([&] {
                      unsigned copies = 0;
                      for (unsigned w = 0; w < numWays; ++w) {
                          const Entry &e = set[w];
                          copies += e.valid && e.kind == kind &&
                                    e.size == size && e.vpn == vpn;
                      }
                      return copies == 1;
                  }(),
                  "%s: duplicate entries for vpn %s after insert",
                  name.c_str(), hexAddr(vpn).c_str());
}

void
Tlb::flushPage(EntryKind kind, Addr addr, PageSize size)
{
    const std::uint64_t vpn = addr >> pageShift(size);
    Entry *set = &entries[setOf(vpn, kind, size) * numWays];
    for (unsigned w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.valid && e.kind == kind && e.size == size &&
            e.vpn == vpn) {
            e.valid = false;
        }
    }
}

void
Tlb::flushKind(EntryKind kind)
{
    for (auto &e : entries) {
        if (e.kind == kind)
            e.valid = false;
    }
    ++_stats.counter("kind_flushes");
}

void
Tlb::flushAll()
{
    for (auto &e : entries)
        e.valid = false;
    anyValid = false;
    ++_stats.counter("full_flushes");
}

std::size_t
Tlb::occupancy(EntryKind kind) const
{
    std::size_t n = 0;
    for (const auto &e : entries)
        n += (e.valid && e.kind == kind) ? 1 : 0;
    return n;
}

void
Tlb::serialize(ckpt::Encoder &enc) const
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
    _stats.serialize(enc);
}

bool
Tlb::deserialize(ckpt::Decoder &dec)
{
    const unsigned savedSets = dec.u32();
    const unsigned savedWays = dec.u32();
    if (dec.ok() && (savedSets != numSets || savedWays != numWays)) {
        dec.fail("tlb '" + name + "': geometry mismatch");
        return false;
    }
    tick = dec.u64();
    const std::uint64_t n = dec.u64();
    if (dec.ok() && n != entries.size()) {
        dec.fail("tlb '" + name + "': entry count mismatch");
        return false;
    }
    anyValid = false;
    for (std::uint64_t i = 0; dec.ok() && i < n; ++i) {
        Entry &e = entries[static_cast<std::size_t>(i)];
        e.vpn = dec.u64();
        e.frame = dec.u64();
        e.lru = dec.u64();
        const std::uint8_t size = dec.u8();
        const std::uint8_t kind = dec.u8();
        e.valid = dec.u8() != 0;
        if (!dec.ok())
            break;
        if (size > static_cast<std::uint8_t>(PageSize::Size1G)) {
            dec.fail("tlb '" + name + "': bad page size");
            return false;
        }
        if (kind > static_cast<std::uint8_t>(EntryKind::Nested)) {
            dec.fail("tlb '" + name + "': bad entry kind");
            return false;
        }
        e.size = static_cast<PageSize>(size);
        e.kind = static_cast<EntryKind>(kind);
        anyValid = anyValid || e.valid;
    }
    if (!_stats.deserialize(dec))
        return false;
    return dec.ok();
}

} // namespace emv::tlb
