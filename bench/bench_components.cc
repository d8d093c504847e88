/**
 * @file
 * Component microbenchmarks (google-benchmark): raw throughput of the
 * simulator's building blocks — cache accesses, branch prediction,
 * store-set lookups, functional execution, mapping-session scoring and
 * full-pipeline simulation. Useful for tracking simulator performance
 * regressions; not part of the paper's evaluation.
 */

#include <benchmark/benchmark.h>

#include <atomic>

#include "core/session.hh"
#include "isa/executor.hh"
#include "memory/cache.hh"
#include "memory/functional_mem.hh"
#include "ooo/bpred.hh"
#include "ooo/cpu.hh"
#include "ooo/storesets.hh"
#include "runner/thread_pool.hh"
#include "workloads/workload.hh"

using namespace dynaspam;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    mem::MemoryHierarchy hierarchy;
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hierarchy.dataAccess(addr, false));
        addr = (addr + 64) % (1 << 22);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    ooo::BranchPredictor bp;
    isa::StaticInst br;
    br.op = isa::Opcode::BNE;
    br.src1 = isa::intReg(1);
    br.src2 = isa::intReg(2);
    br.imm = 42;
    InstAddr pc = 0;
    for (auto _ : state) {
        auto pred = bp.predict(pc, br);
        bp.update(pc, br, !pred.taken, 42, true);
        pc = (pc + 7) % 4096;
    }
}
BENCHMARK(BM_BranchPredict);

void
BM_StoreSetLookup(benchmark::State &state)
{
    ooo::StoreSetPredictor ssp;
    for (InstAddr pc = 0; pc < 128; pc += 2)
        ssp.recordViolation(pc, pc + 1);
    InstAddr pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ssp.lookupDependence(pc));
        pc = (pc + 3) % 1024;
    }
}
BENCHMARK(BM_StoreSetLookup);

void
BM_FunctionalExecution(benchmark::State &state)
{
    workloads::Workload wl = workloads::makeKm();
    for (auto _ : state) {
        mem::FunctionalMemory memory = wl.initialMemory;
        auto result = isa::Executor::run(wl.program, memory);
        benchmark::DoNotOptimize(result.instCount);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_FunctionalExecution);

void
BM_PipelineSimulation(benchmark::State &state)
{
    workloads::Workload wl = workloads::makeKm();
    mem::FunctionalMemory memory = wl.initialMemory;
    isa::DynamicTrace trace(wl.program);
    isa::Executor::run(wl.program, memory, &trace);
    for (auto _ : state) {
        mem::MemoryHierarchy hierarchy;
        ooo::OooCpu cpu(ooo::OooParams{}, trace, hierarchy);
        benchmark::DoNotOptimize(cpu.run());
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations() * trace.size()));
}
BENCHMARK(BM_PipelineSimulation);

void
BM_MappingSessionScore(benchmark::State &state)
{
    fabric::FabricParams params;
    core::MappingSession session(params, 0, 32, 1);
    isa::StaticInst add;
    add.op = isa::Opcode::ADD;
    add.dest = isa::intReg(3);
    add.src1 = isa::intReg(1);
    add.src2 = isa::intReg(2);
    ooo::DynInst d;
    d.inst = &add;
    d.src1Phys = 100;
    d.src2Phys = 101;
    d.destPhys = 102;
    d.mappingInst = true;
    unsigned pe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.priorityScore(pe, d));
        pe = (pe + 1) % params.pesPerStripe();
    }
}
BENCHMARK(BM_MappingSessionScore);

void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    // Scheduling overhead of the runner's FIFO pool: how fast can a
    // batch of trivial tasks be queued, claimed and retired.
    runner::ThreadPool pool(unsigned(state.range(0)));
    const std::size_t tasks = 256;
    for (auto _ : state) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(tasks, [&](std::size_t i) { sum += i; });
        benchmark::DoNotOptimize(sum.load());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations() * tasks));
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

} // namespace

BENCHMARK_MAIN();
