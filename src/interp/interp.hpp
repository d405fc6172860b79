/**
 * @file
 * The IR interpreter — the stand-in for "back-end compiler + CPU" in
 * the reproduction, and the reference ExecBackend every other engine
 * is differentially tested against. Each machine runs its own backend
 * over its own module clone; all memory traffic goes through the
 * machine's paged memory with the *effective* ABI (native, or the
 * unified mobile ABI after memory unification), which is precisely how
 * the paper's address-size conversion and endianness translation
 * behave.
 */
#ifndef NOL_INTERP_INTERP_HPP
#define NOL_INTERP_INTERP_HPP

#include <string>
#include <vector>

#include "interp/execbackend.hpp"
#include "interp/loader.hpp"
#include "interp/rtval.hpp"
#include "sim/simmachine.hpp"

namespace nol::interp {

/** Executes IR functions on one simulated machine, one at a time. */
class Interp final : public ExecBackend
{
  public:
    Interp(sim::SimMachine &machine, const ir::Module &module,
           const ProgramImage &image, ExecEnv &env);

    /** Run @p fn with @p args; returns its return value. */
    RtVal call(ir::Function *fn, const std::vector<RtVal> &args) override;

    BackendKind kind() const override { return BackendKind::Interpreter; }

  private:
    struct Frame;

    RtVal execFunction(ir::Function *fn, const std::vector<RtVal> &args);
    RtVal evalValue(const ir::Value *v, Frame &frame);
    RtVal execCall(const ir::Instruction &inst, ir::Function *callee,
                   Frame &frame);

    uint64_t sp_;
};

} // namespace nol::interp

#endif // NOL_INTERP_INTERP_HPP
