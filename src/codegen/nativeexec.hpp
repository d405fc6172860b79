/**
 * @file
 * The native-C execution backend: runs a module's compiled artifact
 * through the ExecBackend seam. All host interaction (guest memory,
 * external calls, indirect dispatch, cost charging) calls back into
 * this class, which reuses the exact interpreter-side helpers and
 * environments — the engine changes, the simulation does not.
 */
#ifndef NOL_CODEGEN_NATIVEEXEC_HPP
#define NOL_CODEGEN_NATIVEEXEC_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/abi.hpp"
#include "codegen/artifact.hpp"
#include "codegen/cemitter.hpp"
#include "interp/execbackend.hpp"

namespace nol::codegen {

/**
 * A module lowered and compiled, ready to attach to any (machine,
 * image, env). A compiled program owns one per partition module
 * (ProgramArtifacts), so backend construction — the server backend is
 * rebuilt every offload — costs a few maps, not a lowering.
 */
struct PreparedModule {
    /** The side tables of the lowering; its source is released once
     *  the artifact is loaded. */
    LoweredModule lowered;
    std::shared_ptr<const NativeArtifact> artifact;

    /**
     * Lower + compile @p module under @p dl. nullptr when no artifact
     * can be produced (see getOrCompile; the reason goes to @p error):
     * callers fall back to the interpreter.
     */
    static std::shared_ptr<const PreparedModule>
    prepare(const ir::Module &module, const ir::DataLayout &dl,
            EmitFlavour flavour = EmitFlavour::Run,
            std::string *error = nullptr);
};

/**
 * One module's PreparedModule, prepared by the first get() and bound by
 * every later one. Thread-safe. A failed preparation is remembered with
 * its reason, so a program without a usable toolchain does not retry
 * per session. reset() drops the artifact; call it whenever the module
 * is mutated.
 */
class PreparedSlot
{
  public:
    /** The prepared @p module under @p dl (always the same pair for
     *  one slot), or nullptr with the reason in @p error. */
    std::shared_ptr<const PreparedModule>
    get(const ir::Module &module, const ir::DataLayout &dl,
        std::string *error = nullptr);

    /** What get() prepared since the last reset(), without preparing. */
    std::shared_ptr<const PreparedModule> peek() const;

    void reset();

  private:
    mutable std::mutex mutex_;
    bool attempted_ = false;
    const ir::Module *module_ = nullptr;
    std::shared_ptr<const PreparedModule> prepared_;
    std::string error_;
};

/**
 * The native artifacts a compiled program owns: its partition's mobile
 * and server modules, prepared lazily by the first native session and
 * shared by all later sessions and offloads of the program.
 */
struct ProgramArtifacts {
    PreparedSlot mobile;
    PreparedSlot server;
    /** Set once a session has warned that it fell back to the
     *  interpreter, so a program warns once, not once per session. */
    std::atomic<bool> fallbackWarned{false};

    /** Drop both artifacts (the partition was mutated). */
    void reset();
};

/** Executes compiled functions on one simulated machine. */
class NativeExec final : public interp::ExecBackend
{
  public:
    NativeExec(std::shared_ptr<const PreparedModule> prepared,
               sim::SimMachine &machine, const ir::Module &module,
               const interp::ProgramImage &image, interp::ExecEnv &env);

    interp::RtVal call(ir::Function *fn,
                       const std::vector<interp::RtVal> &args) override;

    interp::BackendKind kind() const override
    {
        return interp::BackendKind::NativeC;
    }

  private:
    interp::RtVal invoke(NolFn fn_ptr, const ir::Function *fn,
                         const std::vector<interp::RtVal> &args);
    const char *fnName(uint32_t fn_id) const;
    interp::RtVal externalCall(const ir::Instruction *site,
                               const ir::Function *callee, NolVal *args,
                               uint32_t n);

    static void chargeThunk(NolCtx *ctx, const NolChargeItem *items,
                            uint32_t n, uint32_t fn_id);
    /** Charge one occurrence packed as cost << 2 | kind (fused path). */
    void chargeOne(uint32_t cost_kind, uint32_t fn_id);

    static uint64_t loadThunk(NolCtx *ctx, uint64_t addr, uint32_t size,
                              uint32_t cost_kind, uint32_t fn_id);
    static void storeThunk(NolCtx *ctx, uint64_t addr, uint32_t size,
                           uint64_t value, uint32_t cost_kind,
                           uint32_t fn_id);
    static NolVal callExternalThunk(NolCtx *ctx, uint32_t site,
                                    NolVal *args, uint32_t n);
    static NolVal callIndirectThunk(NolCtx *ctx, uint64_t target,
                                    uint32_t site, NolVal *args,
                                    uint32_t n);
    static void machineAsmThunk(NolCtx *ctx, uint32_t site);
    static void observeCallThunk(NolCtx *ctx, uint32_t fn_id,
                                 uint32_t entering);
    static void observeEdgeThunk(NolCtx *ctx, uint32_t site);
    [[noreturn]] static void trapThunk(NolCtx *ctx, uint32_t kind,
                                       uint32_t fn_id);

    std::shared_ptr<const PreparedModule> prepared_;
    std::vector<uint64_t> global_addrs_;
    std::vector<uint64_t> fn_addrs_;
    std::unordered_map<const ir::Function *, uint32_t> fn_index_;
    NolCtx ctx_;
};

} // namespace nol::codegen

#endif // NOL_CODEGEN_NATIVEEXEC_HPP
