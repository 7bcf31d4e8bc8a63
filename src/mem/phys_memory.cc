#include "mem/phys_memory.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::mem {

PhysMemory::PhysMemory(Addr size_bytes)
    : sizeBytes(size_bytes),
      readsCtr(&_stats.counter("reads")),
      writesCtr(&_stats.counter("writes")),
      dir((size_bytes + kPage2M - 1) / kPage2M)
{
    emv_assert(size_bytes > 0 && isAligned(size_bytes, kPage4K),
               "physical memory size must be a positive multiple of 4K");
}

PhysMemory::Frame &
PhysMemory::frameFor(Addr addr)
{
    emv_assert(addr < sizeBytes,
               "physical access %s beyond memory size %s",
               hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    auto &leaf = dir[addr >> 21];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    auto &frame = (*leaf)[(addr >> 12) & 511];
    if (!frame) {
        frame = std::make_unique<Frame>();
        ++resident;
    }
    return *frame;
}

const PhysMemory::Frame *
PhysMemory::frameForConst(Addr addr) const
{
    emv_assert(addr < sizeBytes,
               "physical access %s beyond memory size %s",
               hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    const Leaf *leaf = dir[addr >> 21].get();
    return leaf ? (*leaf)[(addr >> 12) & 511].get() : nullptr;
}

std::uint64_t
PhysMemory::read64(Addr addr) const
{
    emv_assert(isAligned(addr, 8), "misaligned 64-bit read at %s",
               hexAddr(addr).c_str());
    EMV_CHECK(addr < sizeBytes, "read of %s beyond physical size %s",
              hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    ++*readsCtr;
    const Frame *frame = frameForConst(addr);
    if (!frame)
        return 0;  // Untouched memory reads as zero.
    return (*frame)[(addr & (kPage4K - 1)) >> 3];
}

void
PhysMemory::write64(Addr addr, std::uint64_t value)
{
    emv_assert(isAligned(addr, 8), "misaligned 64-bit write at %s",
               hexAddr(addr).c_str());
    EMV_CHECK(addr < sizeBytes, "write of %s beyond physical size %s",
              hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    ++*writesCtr;
    frameFor(addr)[(addr & (kPage4K - 1)) >> 3] = value;
}

void
PhysMemory::zeroFrame(Addr frame_base)
{
    emv_assert(isAligned(frame_base, kPage4K),
               "zeroFrame base %s not 4K aligned",
               hexAddr(frame_base).c_str());
    frameFor(frame_base).fill(0);
}

void
PhysMemory::copyFrame(Addr dst_base, Addr src_base)
{
    emv_assert(isAligned(dst_base, kPage4K) &&
               isAligned(src_base, kPage4K),
               "copyFrame bases must be 4K aligned");
    ++_stats.counter("frame_copies");
    const Frame *src = frameForConst(src_base);
    if (!src) {
        zeroFrame(dst_base);
        return;
    }
    frameFor(dst_base) = *src;
}

std::uint64_t
PhysMemory::hashFrame(Addr frame_base) const
{
    emv_assert(isAligned(frame_base, kPage4K),
               "hashFrame base %s not 4K aligned",
               hexAddr(frame_base).c_str());
    const Frame *frame = frameForConst(frame_base);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    constexpr std::uint64_t prime = 0x100000001b3ull;
    if (!frame) {
        // All-zero frame: hash 512 zero words.
        for (int i = 0; i < 512; ++i)
            hash = (hash ^ 0) * prime;
        return hash;
    }
    for (std::uint64_t word : *frame)
        hash = (hash ^ word) * prime;
    return hash;
}

void
PhysMemory::markBad(Addr addr)
{
    emv_assert(addr < sizeBytes, "bad-frame mark beyond memory");
    badFrames.insert(addr >> 12);
}

void
PhysMemory::clearBad(Addr addr)
{
    badFrames.erase(addr >> 12);
}

bool
PhysMemory::isBad(Addr addr) const
{
    return badFrames.count(addr >> 12) != 0;
}

std::vector<Addr>
PhysMemory::badFramesInRange(Addr base, Addr len) const
{
    std::vector<Addr> out;
    const std::uint64_t lo = base >> 12;
    const std::uint64_t hi = (base + len - 1) >> 12;
    for (std::uint64_t frame : badFrames) {
        if (frame >= lo && frame <= hi)
            out.push_back(frame << 12);
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
PhysMemory::anyBadInRange(Addr base, Addr len) const
{
    // The bad-frame set is tiny (a handful of hard faults); scan it
    // rather than the range.
    const std::uint64_t lo = base >> 12;
    const std::uint64_t hi = (base + len - 1) >> 12;
    for (std::uint64_t frame : badFrames) {
        if (frame >= lo && frame <= hi)
            return true;
    }
    return false;
}

void
PhysMemory::serialize(ckpt::Encoder &enc) const
{
    enc.u64(sizeBytes);

    // The directory is ordered by frame number, so a straight walk
    // emits frames in ascending index order.
    enc.u64(resident);
    for (std::size_t top = 0; top < dir.size(); ++top) {
        if (!dir[top])
            continue;
        for (std::size_t slot = 0; slot < 512; ++slot) {
            const Frame *frame = (*dir[top])[slot].get();
            if (!frame)
                continue;
            enc.u64((top << 9) | slot);
            for (std::uint64_t word : *frame)
                enc.u64(word);
        }
    }

    std::vector<std::uint64_t> bad(badFrames.begin(),
                                   badFrames.end());
    std::sort(bad.begin(), bad.end());
    enc.u64(bad.size());
    for (std::uint64_t frame : bad)
        enc.u64(frame);

    _stats.serialize(enc);
}

bool
PhysMemory::deserialize(ckpt::Decoder &dec)
{
    const Addr savedSize = dec.u64();
    if (dec.ok() && savedSize != sizeBytes) {
        dec.fail("physmem: size mismatch");
        return false;
    }

    for (auto &leaf : dir)
        leaf.reset();
    resident = 0;
    const std::uint64_t nframes = dec.u64();
    for (std::uint64_t i = 0; dec.ok() && i < nframes; ++i) {
        const std::uint64_t index = dec.u64();
        if (!dec.ok())
            break;
        if (index >= sizeBytes >> 12) {
            dec.fail("physmem: frame index out of range");
            return false;
        }
        if (frameForConst(index << 12)) {
            dec.fail("physmem: duplicate frame index");
            return false;
        }
        Frame &frame = frameFor(index << 12);
        for (auto &word : frame)
            word = dec.u64();
    }

    badFrames.clear();
    const std::uint64_t nbad = dec.u64();
    for (std::uint64_t i = 0; dec.ok() && i < nbad; ++i)
        badFrames.insert(dec.u64());

    if (!_stats.deserialize(dec))
        return false;
    return dec.ok();
}

} // namespace emv::mem
