/**
 * @file
 * Native-C backend tests: the differential oracle between the
 * interpreter and the compiled backend. The two must agree bit-exactly
 * — guest outputs AND every charged simulated-time unit — across the
 * full 17-workload suite, both networks, solo and fleet, faults on and
 * off. A host toolchain is a hard requirement here: falling back to
 * the interpreter would silently turn every oracle check into a
 * tautology, so its absence is a test failure, not a skip.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "codegen/artifact.hpp"
#include "codegen/cemitter.hpp"
#include "codegen/nativeexec.hpp"
#include "core/nativeoffloader.hpp"
#include "frontend/codegen.hpp"
#include "interp/loader.hpp"
#include "profile/profiler.hpp"
#include "runtime/server.hpp"
#include "synth.hpp"
#include "workloads/workloads.hpp"

using namespace nol;
using namespace nol::runtime;
using namespace nol::workloads;

namespace {

core::Program
compileWorkload(const WorkloadSpec &spec)
{
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    return core::Program::compile(req);
}

runtime::RunInput
evalInput(const WorkloadSpec &spec)
{
    runtime::RunInput input;
    input.stdinText = spec.evalInput.stdinText;
    input.files = spec.evalInput.files;
    return input;
}

SystemConfig
backendConfig(interp::BackendKind backend, bool slow_network)
{
    SystemConfig cfg;
    cfg.network = slow_network ? net::makeWifi80211n()
                               : net::makeWifi80211ac();
    cfg.backend = backend;
    return cfg;
}

void
expectIdentical(const RunReport &interp_report, const RunReport &native_report)
{
    std::string why;
    EXPECT_TRUE(reportsBitIdentical(interp_report, native_report, &why))
        << "first divergent field: " << why;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Field-by-field bit identity of two profiles. */
void
expectSameProfile(const profile::ProfileResult &interp_profile,
                  const profile::ProfileResult &native_profile)
{
    EXPECT_EQ(interp_profile.exitValue, native_profile.exitValue);
    EXPECT_TRUE(sameBits(interp_profile.totalNs, native_profile.totalNs))
        << interp_profile.totalNs << " vs " << native_profile.totalNs;
    ASSERT_EQ(interp_profile.regions.size(), native_profile.regions.size());
    for (const auto &[name, want] : interp_profile.regions) {
        SCOPED_TRACE("region " + name);
        const profile::RegionProfile *got = native_profile.byName(name);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(want.isLoop, got->isLoop);
        EXPECT_EQ(want.fn, got->fn);
        EXPECT_EQ(want.loop, got->loop);
        EXPECT_TRUE(sameBits(want.execNs, got->execNs))
            << want.execNs << " vs " << got->execNs;
        EXPECT_EQ(want.invocations, got->invocations);
        EXPECT_EQ(want.memPages, got->memPages);
    }
}

/** Profile @p source on the mobile ARM spec under both engines. */
void
expectEnginesProfileAlike(const std::string &source, const std::string &name,
                          const profile::ProfileInput &input)
{
    auto module = frontend::compileSource(source, name);
    // The native profile must really run natively: a profiling artifact
    // that failed to build would fall back and compare the interpreter
    // with itself.
    std::string why;
    ir::DataLayout dl(arch::makeArm32());
    ASSERT_NE(codegen::PreparedModule::prepare(
                  *module, dl, codegen::EmitFlavour::Profile, &why),
              nullptr)
        << why;
    profile::ProfileResult interp_profile = profile::profileModule(
        *module, arch::makeArm32(), input, "main",
        interp::BackendKind::Interpreter);
    profile::ProfileResult native_profile = profile::profileModule(
        *module, arch::makeArm32(), input, "main",
        interp::BackendKind::NativeC);
    EXPECT_FALSE(interp_profile.regions.empty());
    expectSameProfile(interp_profile, native_profile);
}

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::string old_;
    bool had_ = false;
};

/** A fresh directory under the system temp dir, removed at scope end. */
class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        std::string templ = (std::filesystem::temp_directory_path() /
                             "nol-codegen-test-XXXXXX")
                                .string();
        if (::mkdtemp(templ.data()) != nullptr)
            path_ = templ;
    }
    ~ScopedTempDir()
    {
        if (!path_.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(path_, ignored);
        }
    }
    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    /** Empty when the directory could not be made. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

// ---------------------------------------------------------------------------
// Toolchain + lowering units
// ---------------------------------------------------------------------------

TEST(CodegenToolchain, HostCompilerIsAvailable)
{
    // Hard requirement, not a skip: without a toolchain every oracle
    // test below would silently degrade into interp-vs-interp.
    ASSERT_TRUE(codegen::toolchainAvailable())
        << "no host C compiler found (tried $NOL_CC, $CC, cc, gcc, clang)";
}

TEST(CodegenLowering, DigestIsStableAcrossEmissions)
{
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id);
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);

    codegen::LoweredModule a = codegen::emitModule(*module, dl);
    codegen::LoweredModule b = codegen::emitModule(*module, dl);
    EXPECT_FALSE(a.source.empty());
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.functions.size(), module->functions().size());
}

TEST(CodegenLowering, ArtifactCacheReusesIdenticalModules)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id);
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);

    codegen::LoweredModule lowered = codegen::emitModule(*module, dl);
    auto first = codegen::getOrCompile(lowered);
    auto second = codegen::getOrCompile(lowered);
    ASSERT_NE(first, nullptr);
    // Same digest → the registry hands back the very same artifact;
    // fleet sessions sharing a partition compile once.
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(first->count(), lowered.functions.size());
}

TEST(CodegenLowering, PreparedModuleMatchesFunctionTable)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id);
    sim::SimMachine machine(sim::MachineRole::Server, arch::makeX86_64());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);

    auto prepared = codegen::PreparedModule::prepare(*module, dl);
    ASSERT_NE(prepared, nullptr);
    ASSERT_NE(prepared->artifact, nullptr);
    EXPECT_EQ(prepared->artifact->count(), prepared->lowered.functions.size());
}

TEST(CodegenLowering, BackendKindParsesAndNames)
{
    interp::BackendKind kind = interp::BackendKind::Default;
    EXPECT_TRUE(interp::parseBackendKind("interp", &kind));
    EXPECT_EQ(kind, interp::BackendKind::Interpreter);
    EXPECT_TRUE(interp::parseBackendKind("native", &kind));
    EXPECT_EQ(kind, interp::BackendKind::NativeC);
    EXPECT_TRUE(interp::parseBackendKind("default", &kind));
    EXPECT_EQ(kind, interp::BackendKind::Default);
    EXPECT_FALSE(interp::parseBackendKind("jit", &kind));
    EXPECT_STREQ(interp::backendKindName(interp::BackendKind::NativeC),
                 "native-c");
}

// ---------------------------------------------------------------------------
// Backend selection plumbing
// ---------------------------------------------------------------------------

TEST(CodegenSelection, CompileRequestBackendReachesProgram)
{
    WorkloadSpec spec = makeChess(2);
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    req.backend = interp::BackendKind::NativeC;
    core::Program prog = core::Program::compile(req);
    EXPECT_EQ(prog.compiled().backend, interp::BackendKind::NativeC);

    // The program preference is live: a Default-config run of this
    // program uses the native backend and still matches the interpreter.
    ASSERT_TRUE(codegen::toolchainAvailable());
    RunReport native_report =
        prog.run(backendConfig(interp::BackendKind::Default, false),
                 evalInput(spec));
    RunReport interp_report =
        prog.run(backendConfig(interp::BackendKind::Interpreter, false),
                 evalInput(spec));
    expectIdentical(interp_report, native_report);
}

TEST(CodegenSelection, SystemConfigOverridesProgramPreference)
{
    WorkloadSpec spec = makeChess(2);
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    req.backend = interp::BackendKind::NativeC;
    core::Program prog = core::Program::compile(req);

    // Forcing the interpreter at run time must work even for a program
    // compiled with a native preference — the interpreter stays
    // selectable as the reference semantics.
    RunReport a = prog.run(
        backendConfig(interp::BackendKind::Interpreter, false),
        evalInput(spec));
    RunReport b = prog.run(
        backendConfig(interp::BackendKind::Interpreter, false),
        evalInput(spec));
    expectIdentical(a, b);
}

// ---------------------------------------------------------------------------
// Differential oracle: all 17 workloads x 2 networks, solo
// ---------------------------------------------------------------------------

class CodegenOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CodegenOracle, CompiledMatchesInterpretedOnBothNetworks)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    for (bool slow : {false, true}) {
        SCOPED_TRACE(spec->id + (slow ? " @802.11n" : " @802.11ac"));
        RunReport interp_report = prog.run(
            backendConfig(interp::BackendKind::Interpreter, slow),
            evalInput(*spec));
        RunReport native_report = prog.run(
            backendConfig(interp::BackendKind::NativeC, slow),
            evalInput(*spec));
        expectIdentical(interp_report, native_report);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CodegenOracle,
    ::testing::ValuesIn([] {
        std::vector<std::string> ids;
        for (const WorkloadSpec &spec : allWorkloads())
            ids.push_back(spec.id);
        return ids;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (ch == '.')
                ch = '_';
        return name;
    });

// ---------------------------------------------------------------------------
// Differential oracle: fleet with faults enabled
// ---------------------------------------------------------------------------

namespace {

FleetReport
runBackendFleet(const compiler::CompiledProgram &prog,
                interp::BackendKind backend, const RunInput &input,
                size_t n_clients)
{
    SystemConfig cfg;
    cfg.network = net::makeWifi80211n();
    cfg.backend = backend;
    cfg.faultPlan.enabled = true;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.dropRate = 0.10;
    cfg.faultPlan.latencySpikeRate = 0.05;

    std::vector<FleetClient> clients;
    for (size_t i = 0; i < n_clients; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input = input;
        client.startSeconds = static_cast<double>(i) * 0.0005;
        clients.push_back(client);
    }
    ServerRuntime server(prog);
    return server.run(clients);
}

} // namespace

TEST(CodegenOracleFleet, FleetWithFaultsMatchesInterpreter)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById("458.sjeng");
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    FleetReport interp_fleet =
        runBackendFleet(prog.compiled(), interp::BackendKind::Interpreter,
                        evalInput(*spec), 4);
    FleetReport native_fleet =
        runBackendFleet(prog.compiled(), interp::BackendKind::NativeC,
                        evalInput(*spec), 4);

    ASSERT_EQ(interp_fleet.clients.size(), native_fleet.clients.size());
    for (size_t i = 0; i < interp_fleet.clients.size(); ++i) {
        SCOPED_TRACE("client " + std::to_string(i));
        expectIdentical(interp_fleet.clients[i].report,
                        native_fleet.clients[i].report);
    }
}

TEST(CodegenOracleFleet, MixedBackendFleetSharesOneTimeline)
{
    // Clients may disagree on backend within one fleet; each client's
    // report must still match an all-interpreter fleet bit-exactly,
    // because backends only change wall-clock, never simulated time.
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById("462.libquantum");
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);

    SystemConfig base;
    base.network = net::makeWifi80211ac();

    std::vector<FleetClient> mixed;
    for (size_t i = 0; i < 4; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = base;
        client.config.backend = (i % 2 == 0)
                                    ? interp::BackendKind::NativeC
                                    : interp::BackendKind::Interpreter;
        client.input = evalInput(*spec);
        client.startSeconds = static_cast<double>(i) * 0.0005;
        mixed.push_back(client);
    }
    std::vector<FleetClient> reference = mixed;
    for (FleetClient &client : reference)
        client.config.backend = interp::BackendKind::Interpreter;

    ServerRuntime mixed_server(prog.compiled());
    FleetReport mixed_fleet = mixed_server.run(mixed);
    ServerRuntime ref_server(prog.compiled());
    FleetReport ref_fleet = ref_server.run(reference);

    ASSERT_EQ(mixed_fleet.clients.size(), ref_fleet.clients.size());
    for (size_t i = 0; i < mixed_fleet.clients.size(); ++i) {
        SCOPED_TRACE("client " + std::to_string(i));
        expectIdentical(ref_fleet.clients[i].report,
                        mixed_fleet.clients[i].report);
    }
}

// ---------------------------------------------------------------------------
// Native-first resolution and program-owned artifacts
// ---------------------------------------------------------------------------

TEST(CodegenSelection, DefaultResolvesToNativeC)
{
    using interp::BackendKind;
    EXPECT_EQ(interp::resolveBackend(BackendKind::Default,
                                     BackendKind::Default),
              BackendKind::NativeC);
    EXPECT_EQ(interp::resolveBackend(BackendKind::Default,
                                     BackendKind::Interpreter),
              BackendKind::Interpreter);
    EXPECT_EQ(interp::resolveBackend(BackendKind::Interpreter,
                                     BackendKind::NativeC),
              BackendKind::Interpreter);
    EXPECT_EQ(interp::resolveBackend(BackendKind::NativeC,
                                     BackendKind::Interpreter),
              BackendKind::NativeC);

    // A Default run of a Default program runs natively: it prepares the
    // program's mobile artifact.
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById("462.libquantum");
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);
    ASSERT_EQ(prog.compiled().backend, interp::BackendKind::Default);
    EXPECT_EQ(prog.compiled().native->mobile.peek(), nullptr);
    RunReport native_report = prog.run(
        backendConfig(interp::BackendKind::Default, false), evalInput(*spec));
    EXPECT_NE(prog.compiled().native->mobile.peek(), nullptr);
    RunReport interp_report = prog.run(
        backendConfig(interp::BackendKind::Interpreter, false),
        evalInput(*spec));
    expectIdentical(interp_report, native_report);
}

TEST(CodegenArtifacts, SessionsOfOneProgramLowerEachModuleOnce)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById("458.sjeng");
    ASSERT_NE(spec, nullptr);
    core::Program prog = compileWorkload(*spec);
    const codegen::ProgramArtifacts &native = *prog.compiled().native;
    SystemConfig cfg = backendConfig(interp::BackendKind::NativeC, false);

    RunReport first = prog.run(cfg, evalInput(*spec));
    ASSERT_GT(first.offloads, 0u);
    auto mobile = native.mobile.peek();
    auto server = native.server.peek();
    ASSERT_NE(mobile, nullptr);
    ASSERT_NE(server, nullptr);
    // The artifact keeps its side tables, not its C text.
    EXPECT_TRUE(mobile->lowered.source.empty());
    EXPECT_FALSE(mobile->lowered.functions.empty());

    // A repeated run, a second session and a two-client fleet all bind
    // to the very same prepared modules.
    RunReport again = prog.run(cfg, evalInput(*spec));
    OffloadSystem second(prog.compiled(), cfg);
    RunReport other = second.run(evalInput(*spec));
    std::vector<FleetClient> clients(2);
    for (size_t i = 0; i < clients.size(); ++i) {
        clients[i].name = "client-" + std::to_string(i);
        clients[i].config = cfg;
        clients[i].input = evalInput(*spec);
    }
    prog.runFleet(clients);
    EXPECT_EQ(native.mobile.peek(), mobile);
    EXPECT_EQ(native.server.peek(), server);
    expectIdentical(first, again);
    expectIdentical(first, other);

    // Repair rewrites the partition in place: the artifacts go with it.
    prog.verifyAndRepair();
    EXPECT_EQ(native.mobile.peek(), nullptr);
    EXPECT_EQ(native.server.peek(), nullptr);
    expectIdentical(first, prog.run(cfg, evalInput(*spec)));
}

// ---------------------------------------------------------------------------
// Artifact cache: load without probing, and the toolchain failure path
// ---------------------------------------------------------------------------

TEST(CodegenArtifacts, WarmCacheLoadsWithoutSpawningTheCompiler)
{
    ScopedTempDir tmp;
    const std::string &dir = tmp.path();
    ASSERT_FALSE(dir.empty());
    ScopedEnv env("NOL_CODEGEN_DIR", dir);
    const WorkloadSpec spec = makeChess(2);
    auto module = frontend::compileSource(spec.source, spec.id + "-warm");
    sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
    ir::DataLayout dl = interp::effectiveLayout(*module, machine);
    codegen::LoweredModule lowered = codegen::emitModule(*module, dl);

    // Fill the cache from a child process, so this process's registry
    // stays empty and its compiler stays unprobed.
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(codegen::getOrCompile(lowered) != nullptr ? 0 : 1);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "could not fill the artifact cache in " << dir;

    uint64_t spawns = codegen::compilerSpawns();
    std::string why;
    auto artifact = codegen::getOrCompile(lowered, &why);
    ASSERT_NE(artifact, nullptr) << why;
    EXPECT_EQ(artifact->count(), lowered.functions.size());
    EXPECT_EQ(codegen::compilerSpawns(), spawns);
}

TEST(CodegenArtifacts, UnwritableCacheFallsBackQuietlyForDefault)
{
    // NOL_CODEGEN_DIR beneath a regular file: no artifact can be
    // written, so nothing can run natively. A program no other test
    // compiles keeps this process's artifact registry out of it.
    ScopedTempDir tmp;
    ASSERT_FALSE(tmp.path().empty());
    std::string file = tmp.path() + "/not-a-dir";
    std::ofstream(file) << "x";
    ScopedEnv env("NOL_CODEGEN_DIR", file + "/cache");

    core::CompileRequest req;
    req.name = "unwritable-cache";
    req.source = R"(
        long table[64];
        long fill(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) { table[i % 64] = i * 3; s += table[i % 64]; }
            return s;
        }
        int main() { printf("%ld\n", fill(4000)); return 0; }
    )";
    testing::internal::CaptureStderr();
    core::Program prog = core::Program::compile(req);
    RunReport default_report =
        prog.run(backendConfig(interp::BackendKind::Default, false), {});
    std::string quiet = testing::internal::GetCapturedStderr();
    RunReport interp_report =
        prog.run(backendConfig(interp::BackendKind::Interpreter, false), {});
    expectIdentical(interp_report, default_report);
    EXPECT_EQ(default_report.console, "23994000\n");
    EXPECT_EQ(quiet.find("[warn]"), std::string::npos) << quiet;
    EXPECT_EQ(prog.compiled().native->mobile.peek(), nullptr);

    // Asked for explicitly, the fallback is reported once per program,
    // with the reason.
    testing::internal::CaptureStderr();
    RunReport native_report =
        prog.run(backendConfig(interp::BackendKind::NativeC, false), {});
    prog.run(backendConfig(interp::BackendKind::NativeC, true), {});
    std::string loud = testing::internal::GetCapturedStderr();
    expectIdentical(interp_report, native_report);
    size_t first = loud.find("[warn] native-c backend unavailable");
    ASSERT_NE(first, std::string::npos) << loud;
    EXPECT_EQ(loud.find("[warn]", first + 1), std::string::npos) << loud;
    EXPECT_NE(loud.find("Not a directory"), std::string::npos) << loud;
}

// ---------------------------------------------------------------------------
// Profiling on the native engine: bit-identical to the interpreter
// ---------------------------------------------------------------------------

class CodegenProfileOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CodegenProfileOracle, NativeProfileMatchesInterpreted)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    const WorkloadSpec *spec = workloadById(GetParam());
    ASSERT_NE(spec, nullptr);
    expectEnginesProfileAlike(spec->source, spec->id, spec->profilingInput);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CodegenProfileOracle,
    ::testing::ValuesIn([] {
        std::vector<std::string> ids;
        for (const WorkloadSpec &spec : allWorkloads())
            ids.push_back(spec.id);
        return ids;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (ch == '.')
                ch = '_';
        return name;
    });

TEST(CodegenProfileOracleChess, NativeProfileMatchesInterpreted)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    for (int depth : {2, 3}) {
        SCOPED_TRACE("chess depth " + std::to_string(depth));
        const WorkloadSpec spec = makeChess(depth);
        expectEnginesProfileAlike(spec.source, spec.id, spec.profilingInput);
    }
}

TEST(CodegenProfileOracleSynth, NativeProfileMatchesInterpreted)
{
    ASSERT_TRUE(codegen::toolchainAvailable());
    for (uint64_t seed : {5ull, 36ull, 67ull, 98ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectEnginesProfileAlike(synthesizeProgram(seed), "synth", {});
    }
}
