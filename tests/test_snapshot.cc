/**
 * @file
 * Snapshot/fork correctness: the tentpole invariant is that
 * snapshot -> restore -> run is BYTE-identical to running straight
 * through. These tests pin that for every workload on both the host
 * pipeline and the DynaSpAM-accelerated configuration, at
 * mid-invocation boundaries, across fork divergence (including fabric
 * pools of different sizes), and for the sampled fidelity tier.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/binio.hh"
#include "common/fields.hh"
#include "common/logging.hh"
#include "common/ring.hh"
#include "ooo/params.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/snapshot_io.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace dynaspam;

namespace
{

std::shared_ptr<const sim::SimInput>
inputFor(const std::string &workload, unsigned scale = 1)
{
    workloads::Workload wl = workloads::makeWorkload(workload, scale);
    return sim::SimInput::make(wl.program, wl.initialMemory);
}

std::string
resultBytes(sim::RunResult result)
{
    // commitsChecked varies with DYNASPAM_CHECK settings in checked CI
    // configurations; everything else must match bit-for-bit.
    result.commitsChecked = 0;
    return runner::resultToJson(result).dump();
}

/** @p contents in a ring of the same capacity whose head sits in the
 *  last slot, so two or more entries wrap past the end of the slots. */
template <typename T>
Ring<T>
wrapped(const Ring<T> &contents)
{
    Ring<T> ring(contents.capacity());
    for (std::size_t i = 0; i + 1 < ring.capacity(); i++) {
        ring.push_back(T{});
        ring.pop_front();
    }
    for (const T &entry : contents)
        ring.push_back(entry);
    return ring;
}

std::string
runStraight(const sim::SystemConfig &cfg,
            std::shared_ptr<const sim::SimInput> input)
{
    sim::Simulation simu(cfg, std::move(input));
    simu.runToCompletion();
    return resultBytes(simu.collectResult());
}

/** Run with a snapshot taken mid-flight, restore it into a fresh
 *  simulation, finish both, and return (continued, restored) bytes. */
std::pair<std::string, std::string>
runWithSnapshotAt(const sim::SystemConfig &cfg,
                  std::shared_ptr<const sim::SimInput> input,
                  std::uint64_t snap_insts)
{
    sim::Simulation simu(cfg, input);
    while (!simu.done() && simu.committedInsts() < snap_insts)
        simu.tick();
    sim::Snapshot snap;
    simu.snapshot(snap);

    simu.runToCompletion();
    std::string continued = resultBytes(simu.collectResult());

    sim::Simulation restored(cfg, std::move(input));
    restored.restore(snap);
    restored.runToCompletion();
    std::string forked = resultBytes(restored.collectResult());
    return {continued, forked};
}

/**
 * FNV-1a over the snapshot's shape: every field-list entry's name and
 * the leaf rule the codec (sim/snapshot_io.hh) encodes it with,
 * recursively, by type alone — independent of any simulated state.
 */
class LayoutHasher
{
    using ConfigPtr = std::shared_ptr<const fabric::FabricConfig>;

  public:
    std::uint64_t hash = bits::FNV1A_OFFSET;

    template <typename T>
    void
    type()
    {
        using U = std::remove_cv_t<T>;
        if constexpr (std::is_same_v<U, bool>) {
            tag("bool");
        } else if constexpr (std::is_enum_v<U>) {
            tag("enum" + std::to_string(enumCount(U{})));
        } else if constexpr (std::is_same_v<U, std::uint8_t>) {
            tag("u8");
        } else if constexpr (std::is_integral_v<U>) {
            tag(std::is_signed_v<U> ? "i64" : sizeof(U) <= 4 ? "u32" : "u64");
        } else if constexpr (fields::isStdArray<U>) {
            tag("array" + std::to_string(std::tuple_size_v<U>));
            type<typename U::value_type>();
        } else if constexpr (std::is_array_v<U>) {
            tag("array" + std::to_string(std::extent_v<U>));
            type<std::remove_extent_t<U>>();
        } else if constexpr (fields::isSequence<U> || fields::isKeyed<U> ||
                             fields::isOptional<U>) {
            tag(fields::isSequence<U> ? "sequence"
                : fields::isKeyed<U>  ? "keyed"
                                      : "optional");
            type<typename U::value_type>();
        } else if constexpr (fields::isPair<U>) {
            tag("pair");
            type<typename U::first_type>();
            type<typename U::second_type>();
        } else if constexpr (std::is_same_v<U, ConfigPtr>) {
            tag("config-pool");
            type<fabric::FabricConfig>();
        } else {
            tag("{");
            auto entry = [&](const char *name, auto member, auto... derived) {
                tag(name);
                if constexpr (sizeof...(derived) == 0)
                    type<fields::MemberType<decltype(member)>>();
                else
                    tag("derived");
            };
            U::fields(entry);
            tag("}");
        }
    }

  private:
    void
    tag(const std::string &text)
    {
        hash = bits::fnv1a(text.data(), text.size(), hash);
        hash = bits::fnv1aStep(hash, 0);
    }
};

} // namespace

TEST(Snapshot, RestoreRunIsByteIdenticalEverywhere)
{
    for (const std::string &workload : workloads::allWorkloadNames()) {
        for (sim::SystemMode mode :
             {sim::SystemMode::BaselineOoo, sim::SystemMode::AccelSpec}) {
            const sim::SystemConfig cfg = sim::SystemConfig::make(mode);
            auto input = inputFor(workload);
            const std::string straight = runStraight(cfg, input);
            const std::uint64_t mid = input->trace().size() / 2;
            auto [continued, forked] =
                runWithSnapshotAt(cfg, input, mid);
            EXPECT_EQ(continued, straight)
                << workload << "/" << sim::modeName(mode)
                << ": taking a snapshot perturbed the run";
            EXPECT_EQ(forked, straight)
                << workload << "/" << sim::modeName(mode)
                << ": snapshot->restore->run diverged";
        }
    }
}

TEST(Snapshot, MidInvocationBoundariesRestoreExactly)
{
    // knn offloads most of its instructions, so snapshots at arbitrary
    // commit counts land inside/around in-flight fabric invocations.
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::AccelSpec);
    auto input = inputFor("knn");
    const std::string straight = runStraight(cfg, input);
    const std::uint64_t total = input->trace().size();
    for (std::uint64_t frac : {1ull, 3ull, 5ull, 7ull}) {
        auto [continued, forked] =
            runWithSnapshotAt(cfg, input, total * frac / 8);
        EXPECT_EQ(continued, straight) << "boundary at " << frac << "/8";
        EXPECT_EQ(forked, straight) << "boundary at " << frac << "/8";
    }
}

TEST(Snapshot, ForkAfterPipelineRingsWrapIsByteIdentical)
{
    // The ROB and store-queue rings reuse their slots, so by mid-run
    // their heads sit anywhere in the slot array. A snapshot must copy
    // them in age order and a restored run, in memory or through the
    // codec, must finish byte-identical to the straight one.
    const ooo::OooParams ooo_params;
    for (sim::SystemMode mode :
         {sim::SystemMode::AccelNoSpec, sim::SystemMode::AccelSpec}) {
        const sim::SystemConfig cfg = sim::SystemConfig::make(mode);
        auto input = inputFor("bfs");
        const std::string straight = runStraight(cfg, input);

        sim::Simulation warm(cfg, input);
        while (!warm.done() &&
               warm.committedInsts() < input->trace().size() / 2)
            warm.tick();
        sim::Snapshot snap;
        warm.snapshot(snap);

        // Both rings have wrapped. Every host commit pops the 256-slot
        // ROB ring; BFS commits over 33k records on the host by this
        // point. The 128-slot store-queue ring pops once per
        // host-committed store: 3,677 (accel-nospec) and 3,389
        // (accel-spec) here, measured with a counter at that pop.
        const ooo::PipelineState &pipe = snap.cpu.pipeline;
        ASSERT_GT(pipe.pstats.committedOnHost, 1000u);
        ASSERT_GT(pipe.pstats.committedOnHost, 4u * ooo_params.robEntries);
        ASSERT_EQ(pipe.storeBuffer.size(), 16u) << sim::modeName(mode);

        sim::Simulation restored(cfg, input);
        restored.restore(snap);
        restored.runToCompletion();
        EXPECT_EQ(resultBytes(restored.collectResult()), straight)
            << sim::modeName(mode) << ": in-process fork diverged";

        std::string bytes;
        sim::serializeSnapshot(snap, bytes);
        sim::Snapshot decoded;
        ASSERT_TRUE(sim::deserializeSnapshot(bytes, input, decoded));
        sim::Simulation reloaded(cfg, input);
        reloaded.restore(decoded);
        reloaded.runToCompletion();
        EXPECT_EQ(resultBytes(reloaded.collectResult()), straight)
            << sim::modeName(mode) << ": serialized fork diverged";

        warm.runToCompletion();
        EXPECT_EQ(resultBytes(warm.collectResult()), straight)
            << sim::modeName(mode) << ": taking the snapshot perturbed";
    }
}

TEST(SnapshotIo, WrappedRingsSerializeInAgeOrder)
{
    // A live ring's head sits anywhere in its slot array. The codec
    // writes ring entries in age order, so a snapshot whose rings wrap
    // past the end of their slot arrays writes the same bytes as one
    // whose rings start at slot 0.
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::AccelSpec);
    auto input = inputFor("bfs");
    sim::Simulation warm(cfg, input);
    while (!warm.done() && warm.committedInsts() < 20000)
        warm.tick();
    sim::Snapshot snap;
    warm.snapshot(snap);
    std::string bytes;
    sim::serializeSnapshot(snap, bytes);

    sim::Snapshot turned = snap;
    ooo::PipelineState &pipe = turned.cpu.pipeline;
    pipe.frontEnd = wrapped(pipe.frontEnd);
    pipe.rob = wrapped(pipe.rob);
    pipe.loadQueue = wrapped(pipe.loadQueue);
    pipe.storeQueue = wrapped(pipe.storeQueue);
    pipe.storeBuffer = wrapped(pipe.storeBuffer);
    // The youngest entry sits in a lower slot than the oldest.
    ASSERT_GE(pipe.rob.size(), 2u);
    ASSERT_LT(&pipe.rob.back(), &pipe.rob.front());
    ASSERT_GE(pipe.storeBuffer.size(), 2u);
    ASSERT_LT(&pipe.storeBuffer.back(), &pipe.storeBuffer.front());

    std::string turned_bytes;
    sim::serializeSnapshot(turned, turned_bytes);
    EXPECT_EQ(turned_bytes, bytes);
}

TEST(Snapshot, RestoreAcrossInputsIsFatal)
{
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::BaselineOoo);
    auto a = inputFor("bfs");
    auto b = inputFor("bfs");    // same workload, different object
    sim::Simulation source(cfg, a);
    sim::Snapshot snap;
    source.snapshot(snap);
    sim::Simulation other(cfg, b);
    EXPECT_THROW(other.restore(snap), FatalError);
}

TEST(Snapshot, ForkedSweepMatchesStraightThrough)
{
    // A fig8-style group (4 modes, shared warmup) plus a cross-pool
    // pair (1 vs 4 fabrics): the forked runner path must reproduce the
    // straight-through report entries byte-for-byte, including the
    // cache bookkeeping counters.
    std::vector<runner::Job> jobs;
    for (sim::SystemMode mode :
         {sim::SystemMode::BaselineOoo, sim::SystemMode::MappingOnly,
          sim::SystemMode::AccelNoSpec, sim::SystemMode::AccelSpec}) {
        runner::Job job;
        job.workload = "bfs";
        job.mode = mode;
        job.warmupInsts = 60000;
        jobs.push_back(job);
    }
    {
        runner::Job job;
        job.workload = "knn";
        job.mode = sim::SystemMode::AccelSpec;
        job.numFabrics = 4;
        job.warmupInsts = 40000;
        jobs.push_back(job);
        job.numFabrics = 1;
        jobs.push_back(job);
    }

    runner::RunnerOptions forkOpts;
    forkOpts.jobs = 2;
    runner::Runner forked(forkOpts);
    auto forkedOut = forked.runAll(jobs);

    runner::RunnerOptions straightOpts;
    straightOpts.jobs = 2;
    straightOpts.forkSweeps = false;
    runner::Runner straight(straightOpts);
    auto straightOut = straight.runAll(jobs);

    ASSERT_EQ(forkedOut.size(), straightOut.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(runner::sweepEntryJson(forkedOut[i]).dump(),
                  runner::sweepEntryJson(straightOut[i]).dump())
            << jobs[i].key();
    }
    for (const char *counter :
         {"runner.jobs_total", "runner.cache_hits", "runner.cache_misses",
          "runner.jobs_executed"}) {
        EXPECT_EQ(forked.stats().get(counter), straight.stats().get(counter))
            << counter;
    }
}

TEST(SnapshotIo, SerializedForkMatchesInProcessForkEverywhere)
{
    // The on-disk round trip must be invisible: serializing the warmed
    // snapshot, deserializing it against a FRESH SimInput (as a restarted
    // process or a cluster worker would), and forking from the decoded
    // copy has to produce the same bytes as forking from the in-memory
    // snapshot — for every workload, host pipeline and fabric config.
    for (const std::string &workload : workloads::allWorkloadNames()) {
        for (sim::SystemMode mode :
             {sim::SystemMode::BaselineOoo, sim::SystemMode::AccelSpec}) {
            const sim::SystemConfig cfg = sim::SystemConfig::make(mode);
            auto input = inputFor(workload);
            const std::uint64_t mid = input->trace().size() / 2;

            sim::Simulation warm(cfg, input);
            while (!warm.done() && warm.committedInsts() < mid)
                warm.tick();
            sim::Snapshot snap;
            warm.snapshot(snap);

            sim::Simulation direct(cfg, input);
            direct.restore(snap);
            direct.runToCompletion();
            const std::string inProcess = resultBytes(direct.collectResult());

            std::string bytes;
            sim::serializeSnapshot(snap, bytes);
            // A fresh input object, as a restarted process would build.
            auto rebuilt = inputFor(workload);
            ASSERT_EQ(sim::simInputIdentityHash(*input),
                      sim::simInputIdentityHash(*rebuilt));
            sim::Snapshot decoded;
            ASSERT_TRUE(sim::deserializeSnapshot(bytes, rebuilt, decoded))
                << workload << "/" << sim::modeName(mode);

            sim::Simulation fresh(cfg, rebuilt);
            fresh.restore(decoded);
            fresh.runToCompletion();
            EXPECT_EQ(resultBytes(fresh.collectResult()), inProcess)
                << workload << "/" << sim::modeName(mode)
                << ": on-disk snapshot round trip diverged";
        }
    }
}

TEST(SnapshotIo, CorruptBytesFallBackCleanly)
{
    const sim::SystemConfig cfg =
        sim::SystemConfig::make(sim::SystemMode::AccelSpec);
    auto input = inputFor("bfs");
    sim::Simulation warm(cfg, input);
    while (!warm.done() && warm.committedInsts() < 20000)
        warm.tick();
    sim::Snapshot snap;
    warm.snapshot(snap);
    std::string bytes;
    sim::serializeSnapshot(snap, bytes);

    // Pristine bytes decode.
    sim::Snapshot pristine;
    EXPECT_TRUE(sim::deserializeSnapshot(bytes, input, pristine));
    // Every truncation point fails soft — returns false, never crashes.
    for (std::size_t len : {std::size_t(0), std::size_t(1),
                            bytes.size() / 4, bytes.size() / 2,
                            bytes.size() - 1}) {
        sim::Snapshot out;
        EXPECT_FALSE(
            sim::deserializeSnapshot(bytes.substr(0, len), input, out))
            << "truncated to " << len << " bytes";
    }
    // Bit flips across the buffer either fail soft or decode to some
    // state; what they must never do is crash. Flip a spread of bytes
    // including trace indices and container lengths. A mutant that
    // decodes and fits the simulation is restored and run: fits() is
    // the whole precondition of restore, so the run must not crash.
    // Under DYNASPAM_CHECKS the snapshot also carries the lockstep
    // golden model. A flip in its state decodes and fits, and the
    // restored run either never reads the flipped value or reports the
    // golden-model divergence the checker exists to catch, which aborts
    // by design. Such a mutant runs in a death-test child that must end
    // one of those two ways.
    const auto clean_or_aborted = [](int status) {
        return (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
               (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
    };
    unsigned ran = 0;
    for (std::size_t pos = 0; pos < bytes.size();
         pos += bytes.size() / 64 + 1) {
        std::string corrupt = bytes;
        corrupt[pos] ^= 0xff;
        sim::Snapshot out;
        if (!sim::deserializeSnapshot(corrupt, input, out))
            continue;
        sim::Simulation mutant(cfg, input);
        if (!mutant.fits(out))
            continue;
        const auto run = [&] {
            mutant.restore(out);
            for (int cycle = 0; cycle < 10000 && !mutant.done(); cycle++)
                mutant.tick();
        };
        if (out.verifier == pristine.verifier) {
            run();
        } else {
            EXPECT_EXIT(
                {
                    run();
                    std::fprintf(stderr, "mutant ran clean\n");
                    std::exit(0);
                },
                clean_or_aborted, "mutant ran clean|golden-model divergence")
                << "golden-model state flipped at byte " << pos;
        }
        ran++;
    }
    EXPECT_GT(ran, 0u) << "no mutant got as far as a restored run";
    // Garbage that never was a snapshot.
    {
        sim::Snapshot out;
        EXPECT_FALSE(sim::deserializeSnapshot(
            std::string(1024, '\xee'), input, out));
    }
}

TEST(SnapshotIo, LayoutDigestMatchesFormatVersion)
{
    LayoutHasher layout;
    layout.type<sim::Snapshot>();
    EXPECT_EQ(layout.hash, sim::kSnapshotLayoutDigest)
        << "the snapshot field lists changed (digest 0x" << std::hex
        << layout.hash
        << "): bump kSnapshotFormatVersion and record the new digest as "
           "kSnapshotLayoutDigest in sim/snapshot_io.hh, so files in the "
           "old layout re-warm instead of being misread";
}

TEST(SnapshotIo, DecodedSnapshotThatDoesNotFitIsRejected)
{
    // A checksum-valid snapshot file whose geometry does not match the
    // simulation (here: an empty store-set table, as a changed default
    // without an epoch bump would produce) decodes fine. It must be
    // rejected and re-warmed, not restored into a crash.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("dynaspam-test-fits-" + std::to_string(getpid())))
            .string();
    std::filesystem::remove_all(dir);

    std::vector<runner::Job> jobs;
    for (sim::SystemMode mode :
         {sim::SystemMode::AccelNoSpec, sim::SystemMode::AccelSpec}) {
        runner::Job job;
        job.workload = "bfs";
        job.mode = mode;
        job.warmupInsts = 20000;
        jobs.push_back(job);
    }
    runner::RunnerOptions opts;
    opts.jobs = 1;
    opts.snapshotCacheDir = dir;
    runner::Runner(opts).runAll(jobs);

    // Re-store the warmed body with the store-set table emptied.
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    ASSERT_EQ(files.size(), 1u);
    std::ifstream file(files.front(), std::ios::binary);
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string frame = buffer.str();
    binio::Reader in(frame);
    char magic[4];
    in.raw(magic, 4);
    (void)in.u32();
    (void)in.str();
    const std::string group_key = in.str();
    const std::uint64_t input_hash = in.u64();
    (void)in.u64();
    const std::string body = in.str();
    ASSERT_TRUE(in.ok());

    sim::Snapshot snap;
    ASSERT_TRUE(sim::deserializeSnapshot(body, inputFor("bfs"), snap));
    snap.cpu.storeSets.ssit.clear();
    std::string bad;
    sim::serializeSnapshot(snap, bad);
    runner::SnapshotCache(dir).store(group_key, input_hash, bad);

    runner::Runner again(opts);
    const auto reloaded = again.runAll(jobs);
    EXPECT_EQ(again.forkStats().snapshotRejects.load(), 1u);
    EXPECT_EQ(again.forkStats().snapshotHits.load(), 0u);
    EXPECT_EQ(again.forkStats().warmups.load(), 1u);

    runner::RunnerOptions straightOpts;
    straightOpts.jobs = 1;
    straightOpts.forkSweeps = false;
    const auto straight = runner::Runner(straightOpts).runAll(jobs);
    ASSERT_EQ(reloaded.size(), straight.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(runner::sweepEntryJson(reloaded[i]).dump(),
                  runner::sweepEntryJson(straight[i]).dump())
            << jobs[i].key();
    }
    std::filesystem::remove_all(dir);
}

TEST(Snapshot, SampledFidelityIsDeterministicAndMarked)
{
    runner::Job job;
    job.workload = "pf";
    job.mode = sim::SystemMode::AccelSpec;
    job.fidelity = runner::Fidelity::Sampled;
    job.warmupInsts = 20000;

    sim::RunResult first = runner::execute(job);
    sim::RunResult second = runner::execute(job);
    EXPECT_TRUE(first.sampled);
    EXPECT_GT(first.sampledInsts, 0u);
    EXPECT_EQ(resultBytes(first), resultBytes(second));

    // The sampled block round-trips through the cache format, and the
    // full-fidelity serialization is unchanged (no "sampled" key).
    sim::RunResult back = runner::resultFromJson(runner::resultToJson(first));
    EXPECT_TRUE(back.sampled);
    EXPECT_EQ(back.sampledInsts, first.sampledInsts);
    EXPECT_EQ(back.sampledCycles, first.sampledCycles);

    job.fidelity = runner::Fidelity::Full;
    sim::RunResult full = runner::execute(job);
    EXPECT_FALSE(full.sampled);
    EXPECT_EQ(runner::resultToJson(full).find("sampled"), nullptr);

    // A short program sampled to its end is exact, flagged or not.
    EXPECT_EQ(first.instsTotal, full.instsTotal);
}
