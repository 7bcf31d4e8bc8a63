/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths:
 * per-mode translation throughput of the Mmu, TLB lookups,
 * escape-filter probes, and the physical-memory reads and PTE-line
 * cache accesses a 2D walk makes.  These measure the
 * *library's* speed (simulation throughput), complementing the
 * figure benches that measure the *modeled* cycles.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.hh"
#include "paging/nested_walker.hh"
#include "paging/walker.hh"
#include "segment/escape_filter.hh"
#include "sim/machine.hh"
#include "tlb/tlb.hh"
#include "tlb/walk_cache.hh"
#include "vmm/vmm.hh"
#include "workload/workload.hh"

using namespace emv;

namespace {

struct Rig
{
    std::unique_ptr<workload::Workload> wl;
    std::unique_ptr<sim::Machine> machine;
};

Rig
makeRig(core::Mode mode)
{
    setQuietLogging(true);
    Rig rig;
    rig.wl = workload::makeWorkload(workload::WorkloadKind::Gups, 3,
                                    0.02);
    sim::MachineConfig cfg;
    cfg.mode = mode;
    rig.machine = std::make_unique<sim::Machine>(cfg, *rig.wl);
    rig.machine->run(20000);  // Warm.
    return rig;
}

void
translateLoop(benchmark::State &state, core::Mode mode)
{
    auto rig = makeRig(mode);
    for (auto _ : state) {
        auto op = rig.wl->next();
        if (op.kind == workload::Op::Kind::Remap)
            continue;
        auto result = rig.machine->mmu().translate(op.va);
        benchmark::DoNotOptimize(result.hpa);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TranslateNative(benchmark::State &state)
{
    translateLoop(state, core::Mode::Native);
}

void
BM_TranslateBaseVirtualized(benchmark::State &state)
{
    translateLoop(state, core::Mode::BaseVirtualized);
}

void
BM_TranslateVmmDirect(benchmark::State &state)
{
    translateLoop(state, core::Mode::VmmDirect);
}

void
BM_TranslateDualDirect(benchmark::State &state)
{
    translateLoop(state, core::Mode::DualDirect);
}

void
BM_TlbLookupHit(benchmark::State &state)
{
    tlb::Tlb tlb("bench", 128, 4);
    tlb.insert(tlb::EntryKind::Guest, 0x1000, 0xa000,
               PageSize::Size4K);
    for (auto _ : state) {
        auto hit = tlb.lookup(tlb::EntryKind::Guest, 0x1abc,
                              PageSize::Size4K);
        benchmark::DoNotOptimize(hit);
    }
}

void
BM_EscapeFilterProbe(benchmark::State &state)
{
    segment::EscapeFilter filter;
    for (int i = 0; i < 16; ++i)
        filter.insertPage(static_cast<Addr>(i * 997) << 12);
    Addr addr = 0;
    for (auto _ : state) {
        addr += kPage4K;
        benchmark::DoNotOptimize(filter.mayContain(addr));
    }
}

/** gPA→hPA by an uncached walk of the nested page table. */
class NestedTableTranslator : public paging::GpaTranslator
{
  public:
    NestedTableTranslator(const paging::Walker &walker, Addr root)
        : walker(walker), root(root)
    {
    }

    paging::WalkOutcome
    toHost(Addr gpa, paging::WalkTrace &trace) override
    {
        return walker.walk(root, gpa, paging::RefStage::NestedTable,
                           trace);
    }

  private:
    const paging::Walker &walker;
    Addr root;
};

/**
 * The hPAs that uncached 2D walks of the workload's next accesses
 * read on a warmed 4K+4K machine, in walk order.
 */
std::vector<Addr>
walkRefHpas(Rig &rig)
{
    sim::Machine &m = *rig.machine;
    const paging::Walker walker(m.hostMem());
    const paging::NestedWalker nested(m.hostMem());
    NestedTableTranslator tx(walker, m.vm()->nestedRoot());
    const Addr guest_root = m.process().pageTable().root();
    std::vector<Addr> hpas;
    paging::WalkTrace trace;
    for (int i = 0; i < 4096; ++i) {
        const auto op = rig.wl->next();
        if (op.kind == workload::Op::Kind::Remap)
            continue;
        trace.clear();
        if (!nested.walk(guest_root, op.va, tx, trace).ok)
            continue;
        for (const auto &ref : trace.refs)
            hpas.push_back(ref.hpa);
    }
    return hpas;
}

void
BM_PhysMemoryRead64WalkRefs(benchmark::State &state)
{
    auto rig = makeRig(core::Mode::BaseVirtualized);
    const std::vector<Addr> hpas = walkRefHpas(rig);
    const mem::PhysMemory &host = rig.machine->hostMem();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(host.read64(hpas[i]));
        if (++i == hpas.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_LineCacheAccessWalkRefs(benchmark::State &state)
{
    auto rig = makeRig(core::Mode::BaseVirtualized);
    const std::vector<Addr> hpas = walkRefHpas(rig);
    const core::MmuConfig geometry;
    tlb::LineCache lines(geometry.pteLineSets, geometry.pteLineWays);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lines.access(hpas[i]));
        if (++i == hpas.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_TranslateNative);
BENCHMARK(BM_TranslateBaseVirtualized);
BENCHMARK(BM_TranslateVmmDirect);
BENCHMARK(BM_TranslateDualDirect);
BENCHMARK(BM_TlbLookupHit);
BENCHMARK(BM_EscapeFilterProbe);
BENCHMARK(BM_PhysMemoryRead64WalkRefs);
BENCHMARK(BM_LineCacheAccessWalkRefs);

} // namespace

BENCHMARK_MAIN();
