/**
 * @file
 * Property-based tests: randomized struct layouts, randomized guest
 * programs executed cross-architecture, randomized page-sync patterns
 * through the offload runtime, and randomized compressor inputs. Each
 * property sweeps seeds via parameterized gtest.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "compress/lz.hpp"
#include "core/nativeoffloader.hpp"
#include "frontend/codegen.hpp"
#include "interp/externals.hpp"
#include "interp/interp.hpp"
#include "interp/loader.hpp"
#include "ir/datalayout.hpp"
#include "support/rng.hpp"
#include "synth.hpp"

using namespace nol;

// ---------------------------------------------------------------------------
// Property: for ANY struct, the unified layout (a) equals the mobile
// natural layout, (b) has monotonically increasing, properly aligned
// field offsets, (c) is at least as large as the sum of field sizes.
// ---------------------------------------------------------------------------

class StructLayoutProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(StructLayoutProperty, UnifiedLayoutIsSaneMobileLayout)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
    ir::Module mod("m");
    ir::TypeContext &types = mod.types();

    std::vector<const ir::Type *> scalar_pool = {
        types.i8(), types.i16(), types.i32(), types.i64(),
        types.f32(), types.f64(), types.pointerTo(types.i8()),
    };

    int num_fields = static_cast<int>(rng.range(1, 12));
    std::vector<ir::StructType::Field> fields;
    for (int i = 0; i < num_fields; ++i) {
        const ir::Type *ty =
            scalar_pool[rng.below(scalar_pool.size())];
        if (rng.chance(0.2))
            ty = types.arrayOf(ty, static_cast<uint64_t>(rng.range(1, 9)));
        fields.push_back({"f" + std::to_string(i), ty});
    }
    ir::StructType *st = types.createStruct("S", fields);

    ir::DataLayout mobile(arch::makeArm32());
    ir::StructLayout natural = mobile.naturalLayout(st);
    st->setExplicitLayout(natural);

    // (a) every other architecture now answers with the mobile layout.
    for (const arch::ArchSpec &spec :
         {arch::makeIa32(), arch::makeX86_64(), arch::makeMips32be()}) {
        ir::DataLayout dl(spec);
        EXPECT_EQ(dl.sizeOf(st), natural.size) << spec.name;
        for (size_t i = 0; i < fields.size(); ++i)
            EXPECT_EQ(dl.fieldOffset(st, i), natural.offsets[i])
                << spec.name << " field " << i;
    }

    // (b) offsets are increasing and aligned; fields do not overlap.
    uint64_t prev_end = 0;
    uint64_t min_size = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
        uint64_t size = mobile.sizeOf(fields[i].type);
        uint32_t align = mobile.alignOf(fields[i].type);
        EXPECT_EQ(natural.offsets[i] % align, 0u) << "field " << i;
        EXPECT_GE(natural.offsets[i], prev_end) << "field " << i;
        prev_end = natural.offsets[i] + size;
        min_size += size;
    }
    // (c) total size covers the last field and the sum of sizes.
    EXPECT_GE(natural.size, prev_end);
    EXPECT_GE(natural.size, min_size);
    EXPECT_EQ(natural.size % natural.alignment, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructLayoutProperty,
                         ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Property: a randomly generated arithmetic program computes the same
// result on every architecture (the interpreter's semantics are
// ABI-independent for well-defined C).
// ---------------------------------------------------------------------------

namespace {

int64_t
runOn(const std::string &src, const arch::ArchSpec &spec,
      sim::MachineRole role)
{
    auto mod = frontend::compileSource(src, "prop.c");
    sim::SimMachine machine(role, spec);
    interp::ProgramImage image = interp::loadProgram(*mod, machine);
    interp::DefaultEnv env;
    interp::Interp interp(machine, *mod, image, env);
    return interp.call(mod->functionByName("main"), {}).i;
}

} // namespace

class CrossArchExecutionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CrossArchExecutionProperty, SameResultEverywhere)
{
    std::string src =
        synthesizeProgram(static_cast<uint64_t>(GetParam()) * 31 + 5);
    int64_t arm = runOn(src, arch::makeArm32(), sim::MachineRole::Mobile);
    EXPECT_EQ(arm, runOn(src, arch::makeX86_64(),
                         sim::MachineRole::Server))
        << src;
    EXPECT_EQ(arm, runOn(src, arch::makeIa32(), sim::MachineRole::Mobile))
        << src;
    EXPECT_EQ(arm, runOn(src, arch::makeMips32be(),
                         sim::MachineRole::Mobile))
        << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossArchExecutionProperty,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Property: randomized offloaded page-sync patterns — a target that
// mutates a pseudo-random subset of a large buffer must leave the
// mobile memory identical to a local run (prefetch + copy-on-demand +
// dirty write-back compose correctly).
// ---------------------------------------------------------------------------

namespace {

std::string
synthesizeSyncProgram(uint64_t seed)
{
    Rng rng(seed);
    int len = static_cast<int>(rng.range(2000, 8000));
    int stride = static_cast<int>(rng.range(1, 37));
    std::ostringstream src;
    src << "long* buf;\n"
        << "long mutate() {\n"
        << "    long sum = 0;\n"
        << "    for (int r = 0; r < 40; r++) {\n"
        << "        for (int i = 0; i < " << len << "; i += " << stride
        << ") {\n"
        << "            buf[i] = buf[i] * 3 + r;\n"
        << "            sum += buf[i];\n"
        << "        }\n"
        << "    }\n"
        << "    return sum;\n"
        << "}\n"
        << "int main() {\n"
        << "    scanf(\"%d\", 0);\n"
        << "    buf = (long*)malloc(sizeof(long) * " << len << ");\n"
        << "    for (int i = 0; i < " << len << "; i++) buf[i] = i;\n"
        << "    long s = mutate();\n"
        << "    long check = 0;\n"
        << "    for (int i = 0; i < " << len
        << "; i++) check = check * 31 + buf[i];\n"
        << "    printf(\"%ld %ld\\n\", s, check);\n"
        << "    return (int)((check % 89 + 89) % 89);\n"
        << "}\n";
    return src.str();
}

} // namespace

class PageSyncProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PageSyncProperty, DirtyWriteBackPreservesMemory)
{
    std::string src =
        synthesizeSyncProgram(static_cast<uint64_t>(GetParam()) * 101 + 7);
    core::CompileRequest req;
    req.name = "sync";
    req.source = src;
    req.profilingInput.stdinText = "1";
    core::Program prog = core::Program::compile(req);
    if (!prog.hasTargets())
        GTEST_SKIP() << "no profitable target for this seed";

    runtime::RunInput input;
    input.stdinText = "1";
    runtime::RunReport local = prog.runLocal(input);

    // Both with and without prefetch (stressing CoD).
    for (bool prefetch : {true, false}) {
        runtime::SystemConfig cfg;
        cfg.prefetchEnabled = prefetch;
        runtime::RunReport off = prog.run(cfg, input);
        EXPECT_EQ(off.exitValue, local.exitValue)
            << "prefetch=" << prefetch << "\n" << src;
        EXPECT_EQ(off.console, local.console) << "prefetch=" << prefetch;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageSyncProperty, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Property: the compressor round-trips page-like content (sparse,
// repetitive, binary) of every size class.
// ---------------------------------------------------------------------------

class CompressorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CompressorProperty, PageContentRoundTrips)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 1);
    size_t pages = static_cast<size_t>(rng.range(1, 6));
    std::vector<uint8_t> data(pages * 4096, 0);
    // Sparse dirty words over zero pages, like real write-back payloads.
    size_t touches = static_cast<size_t>(rng.range(10, 600));
    for (size_t t = 0; t < touches; ++t) {
        size_t at = rng.below(data.size() - 8);
        for (int b = 0; b < 8; ++b)
            data[at + static_cast<size_t>(b)] =
                static_cast<uint8_t>(rng.next());
    }
    auto packed = compress::lzCompress(data);
    EXPECT_EQ(compress::lzDecompress(packed), data);
    // Sparse pages compress well.
    if (touches < 100) {
        EXPECT_LT(packed.size(), data.size() / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressorProperty,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Property: fault injection never changes program behavior, retried
// traffic only ever adds wire bytes, and the mobile power timeline
// stays monotone through retries and failovers (no time travel).
// ---------------------------------------------------------------------------

namespace {

/** One shared page-sync program + fault-free baselines, built once. */
struct FaultPropertyFixture {
    core::Program program;
    runtime::RunReport local;
    runtime::RunReport clean;
};

const FaultPropertyFixture &
faultPropertyFixture()
{
    static FaultPropertyFixture *fix = [] {
        core::CompileRequest req;
        req.name = "faultprop";
        req.source = synthesizeSyncProgram(424243);
        req.profilingInput.stdinText = "1";
        auto *f = new FaultPropertyFixture{
            core::Program::compile(req), {}, {}};
        runtime::RunInput input;
        input.stdinText = "1";
        f->local = f->program.runLocal(input);
        f->clean = f->program.run(runtime::SystemConfig{}, input);
        return f;
    }();
    return *fix;
}

} // namespace

class FaultRetryProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FaultRetryProperty, DropsOnlyAddBytesNeverChangeBehavior)
{
    const FaultPropertyFixture &fix = faultPropertyFixture();
    ASSERT_TRUE(fix.program.hasTargets());

    // Drop/spike/bandwidth faults only — no disconnects, so the retry
    // budget (not failover) absorbs every loss... unless a message
    // loses 5 straight coin flips, which is a legal failover too.
    Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 11);
    runtime::SystemConfig cfg;
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.seed = rng.next();
    cfg.faultPlan.dropRate = rng.uniform() * 0.35;
    cfg.faultPlan.latencySpikeRate = rng.uniform() * 0.25;
    cfg.faultPlan.latencySpikeFactor = 2.0 + rng.uniform() * 20.0;
    cfg.faultPlan.bandwidthFactor = 1.0 + rng.uniform() * 3.0;

    runtime::RunInput input;
    input.stdinText = "1";
    runtime::RunReport faulty = fix.program.run(cfg, input);

    EXPECT_EQ(faulty.exitValue, fix.local.exitValue);
    EXPECT_EQ(faulty.console, fix.local.console);

    if (faulty.failovers == 0) {
        // Same offload schedule as the clean run, plus retried bytes:
        // wire traffic is monotone in the fault rate.
        EXPECT_GE(faulty.wireBytes, fix.clean.wireBytes);
        if (faulty.retries > 0) {
            EXPECT_GT(faulty.wireBytes, fix.clean.wireBytes);
        }
        // Faults cost time, never save it.
        EXPECT_GE(faulty.mobileSeconds, fix.clean.mobileSeconds * 0.999);
    }
}

TEST_P(FaultRetryProperty, MobileTimelineIsMonotoneUnderFaults)
{
    const FaultPropertyFixture &fix = faultPropertyFixture();

    // Full fault schedule from the sweep generator, disconnects and
    // all: failovers must keep the power timeline physically sane.
    runtime::SystemConfig cfg;
    cfg.faultPlan = net::FaultPlan::fromSeed(
        static_cast<uint64_t>(GetParam()) * 28657 + 5);

    runtime::RunInput input;
    input.stdinText = "1";
    runtime::RunReport faulty = fix.program.run(cfg, input);

    EXPECT_EQ(faulty.exitValue, fix.local.exitValue);
    EXPECT_EQ(faulty.console, fix.local.console);

    ASSERT_FALSE(faulty.powerTimeline.empty());
    const auto &timeline = faulty.powerTimeline;
    for (size_t i = 0; i < timeline.size(); ++i) {
        EXPECT_LE(timeline[i].startNs, timeline[i].endNs) << "segment " << i;
        EXPECT_GT(timeline[i].milliwatts, 0.0) << "segment " << i;
        if (i > 0) {
            // Segments are recorded in mobile-clock order; the merge
            // tolerance in PowerModel::accumulate is 1 ns.
            EXPECT_GE(timeline[i].startNs, timeline[i - 1].endNs - 1.0)
                << "segment " << i;
        }
    }
    // The timeline covers the whole run: last segment ends at the
    // final mobile clock (the report's wall time).
    EXPECT_NEAR(timeline.back().endNs * 1e-9, faulty.mobileSeconds,
                faulty.mobileSeconds * 0.01 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultRetryProperty, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Property: for ANY same-binary fleet shape (client count, network,
// arrival stagger), turning the page cache on changes no client's
// output and never adds prefetch or medium bytes.
// ---------------------------------------------------------------------------

namespace {

uint64_t
fleetBytes(const runtime::FleetReport &fleet, const std::string &category)
{
    uint64_t total = 0;
    for (const runtime::FleetClientResult &result : fleet.clients) {
        auto it = result.report.bytesByCategory.find(category);
        if (it != result.report.bytesByCategory.end())
            total += it->second;
    }
    return total;
}

} // namespace

class PageCacheFleetProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PageCacheFleetProperty, CacheChangesBytesNeverResults)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 2179 + 17);
    core::CompileRequest req;
    req.name = "cacheprop";
    req.source = synthesizeSyncProgram(rng.next());
    req.profilingInput.stdinText = "1";
    core::Program prog = core::Program::compile(req);
    if (!prog.hasTargets())
        GTEST_SKIP() << "no profitable target for this seed";

    // Random fleet shape. Faults stay off: the byte inequality relies
    // on cache-on and cache-off taking the same offload schedule.
    size_t n = static_cast<size_t>(rng.range(2, 7));
    runtime::SystemConfig cfg;
    if (rng.chance(0.5))
        cfg.network = net::makeWifi80211n();
    std::vector<runtime::FleetClient> clients;
    for (size_t i = 0; i < n; ++i) {
        runtime::FleetClient client;
        client.name = "p" + std::to_string(i);
        client.config = cfg;
        client.input.stdinText = "1";
        client.startSeconds =
            static_cast<double>(i) * (0.0001 + rng.uniform() * 0.002);
        clients.push_back(client);
    }

    runtime::FleetReport off = prog.runFleet(clients);
    for (runtime::FleetClient &client : clients)
        client.config.pageCacheEnabled = true;
    runtime::FleetReport on = prog.runFleet(clients);

    ASSERT_EQ(on.clients.size(), off.clients.size());
    for (size_t i = 0; i < on.clients.size(); ++i) {
        EXPECT_EQ(on.clients[i].report.console,
                  off.clients[i].report.console)
            << "client " << i;
        EXPECT_EQ(on.clients[i].report.exitValue,
                  off.clients[i].report.exitValue)
            << "client " << i;
    }
    EXPECT_LE(fleetBytes(on, "prefetch"), fleetBytes(off, "prefetch"));
    EXPECT_LE(on.mediumBytes, off.mediumBytes);

    // Conservation: every offered page was either carried or served.
    uint64_t sent = 0, cached = 0;
    for (const runtime::FleetClientResult &result : on.clients) {
        sent += result.report.prefetchPagesSent;
        cached += result.report.prefetchPagesCached;
    }
    EXPECT_EQ(on.cache.missPages, sent);
    EXPECT_EQ(on.cache.hitPages + on.cache.coalescedPages, cached);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheFleetProperty,
                         ::testing::Range(0, 8));
