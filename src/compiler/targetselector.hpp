/**
 * @file
 * Target selector (paper Sec. 3.1): combines the profiler, the function
 * filter and the static performance estimate to choose the offloading
 * targets — the profitable, machine-independent hot functions and
 * loops. Nested candidates collapse to the outermost profitable one
 * (the paper picks getAITurn over its inner for_i).
 *
 * Each profiled region is estimated with Equation 1 by calling
 * decision::evaluate (src/decision, the single home of the arithmetic
 * shared with the runtime's decision::Engine):
 *
 *   Tg = (Tm - Ts) - Tc = Tm * (1 - 1/R) - 2 * (M / BW) * Ninvo
 */
#ifndef NOL_COMPILER_TARGETSELECTOR_HPP
#define NOL_COMPILER_TARGETSELECTOR_HPP

#include <string>
#include <vector>

#include "compiler/functionfilter.hpp"
#include "decision/model.hpp"
#include "ir/callgraph.hpp"
#include "profile/profiler.hpp"

namespace nol::compiler {

/** Static estimation parameters. */
struct EstimatorParams {
    double speedRatio = 5.0;       ///< R: server is R times faster
    double bandwidthMbps = 80.0;   ///< BW in megabits per second

    /**
     * Hotness threshold: a candidate must account for at least this
     * fraction of the profiled program time to be a "heavy task"
     * (paper Sec. 3.1: the profiler *finds heavy tasks*; cold init
     * loops are never worth the offloading machinery).
     */
    double minCoverage = 0.10;
};

/** One candidate's fate. */
struct Candidate {
    std::string name;
    bool isLoop = false;
    ir::Function *fn = nullptr;     ///< enclosing (or self) function
    std::string loopName;           ///< for loops
    decision::Terms estimate;       ///< Table 3 columns (no queue term)
    bool machineSpecific = false;
    std::string filterReason;
    bool selected = false;
    std::string rejectReason;       ///< non-empty if considered and dropped
};

/** Selection outcome. */
struct SelectionResult {
    std::vector<Candidate> candidates; ///< every examined candidate
    std::vector<Candidate> targets;    ///< the chosen offload targets

    /** Candidate named @p name, or nullptr. */
    const Candidate *byName(const std::string &name) const;
};

/**
 * Choose offload targets for @p module from @p prof.
 * main() is never a target (it drives the whole application).
 */
SelectionResult selectTargets(ir::Module &module,
                              const profile::ProfileResult &prof,
                              const FilterResult &filter,
                              const ir::CallGraph &cg,
                              const EstimatorParams &params);

} // namespace nol::compiler

#endif // NOL_COMPILER_TARGETSELECTOR_HPP
