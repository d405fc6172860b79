#include "profile/profiler.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "codegen/nativeexec.hpp"
#include "interp/externals.hpp"
#include "interp/interp.hpp"

namespace nol::profile {

const RegionProfile *
ProfileResult::byName(const std::string &name) const
{
    auto it = regions.find(name);
    return it == regions.end() ? nullptr : &it->second;
}

std::vector<const RegionProfile *>
ProfileResult::hottest() const
{
    std::vector<const RegionProfile *> out;
    out.reserve(regions.size());
    for (const auto &[name, region] : regions)
        out.push_back(&region);
    std::sort(out.begin(), out.end(),
              [](const RegionProfile *a, const RegionProfile *b) {
                  return a->execNs > b->execNs;
              });
    return out;
}

double
ProfileResult::coverage(const std::string &name) const
{
    const RegionProfile *region = byName(name);
    if (region == nullptr || totalNs <= 0)
        return 0.0;
    return region->execNs / totalNs;
}

namespace {

/** Live activation of a region on the tracking stack. */
struct Activation {
    RegionProfile *region = nullptr;
    std::unordered_set<uint64_t> *pages = nullptr; ///< region's touched set
    double startNs = 0;
    bool timed = false; ///< false for recursive re-entry (time not doubled)
    int callDepth = 0;  ///< guest call depth at activation (for unwinding)
};

/**
 * Runs the program with region tracking. The same observer drives
 * either engine: the native one when a profiling-flavour artifact can
 * be prepared, else the interpreter. Both report calls and the loop
 * edges with the clock exact, so the result is bit-identical.
 */
class ProfilingSession final : public interp::ExecObserver
{
  public:
    ProfilingSession(const ir::Module &module, sim::SimMachine &machine,
                     interp::BackendKind engine)
        : module_(module), machine_(machine),
          engine_(interp::resolveBackend(engine,
                                         interp::BackendKind::Default))
    {
        // Pre-index loops by (function, header block).
        for (const auto &fn : module.functions()) {
            for (const ir::LoopMeta &loop : fn->loops())
                loop_by_header_[loop.header] = &loop;
        }
    }

    // The backend and the touch observer hold this session's address.
    ProfilingSession(const ProfilingSession &) = delete;
    ProfilingSession &operator=(const ProfilingSession &) = delete;

    ProfileResult
    run(const std::string &entry)
    {
        interp::ProgramImage image = interp::loadProgram(module_, machine_);
        interp::DefaultEnv env;
        std::unique_ptr<interp::ExecBackend> backend =
            makeBackend(image, env);
        backend->setObserver(this);
        machine_.mem().setTouchObserver(
            [this](uint64_t page_num, bool) { touch(page_num); });

        ir::Function *entry_fn = module_.functionByName(entry);
        if (entry_fn == nullptr)
            fatal("profiling entry function '%s' not found", entry.c_str());

        ProfileResult result;
        result.exitValue = backend->call(entry_fn, {}).i;

        // Close any regions still open (exit() mid-run).
        while (!stack_.empty())
            popRegion();

        machine_.mem().setTouchObserver(nullptr);
        result.totalNs = machine_.nowNs();
        result.regions = std::move(regions_);
        return result;
    }

    void
    onCall(const ir::Function *fn, bool entering) override
    {
        if (entering) {
            ++call_depth_;
            pushRegion(regionFor(fn, nullptr), call_depth_);
        } else {
            // Pop loop activations abandoned by an early return, then
            // the function activation itself.
            while (!stack_.empty() && stack_.back().callDepth >= call_depth_)
                popRegion();
            --call_depth_;
        }
    }

    void
    onBlockEntry(const ir::Function *fn, const ir::BasicBlock *to,
                 const ir::BasicBlock *from) override
    {
        // Loop exit: innermost active loop whose exit block is hit.
        if (!stack_.empty() && stack_.back().region->isLoop &&
            stack_.back().region->loop->exit == to &&
            stack_.back().callDepth == call_depth_) {
            popRegion();
        }
        // Loop entry: header reached from its preheader.
        auto it = loop_by_header_.find(to);
        if (it != loop_by_header_.end() && it->second->preheader == from)
            pushRegion(regionFor(fn, it->second), call_depth_);
    }

  private:
    std::unique_ptr<interp::ExecBackend>
    makeBackend(const interp::ProgramImage &image, interp::ExecEnv &env)
    {
        if (engine_ == interp::BackendKind::NativeC) {
            std::shared_ptr<const codegen::PreparedModule> prepared =
                codegen::PreparedModule::prepare(
                    module_, interp::effectiveLayout(module_, machine_),
                    codegen::EmitFlavour::Profile);
            if (prepared != nullptr) {
                return std::make_unique<codegen::NativeExec>(
                    prepared, machine_, module_, image, env);
            }
        }
        return std::make_unique<interp::Interp>(machine_, module_, image,
                                                env);
    }

    /** Page @p page_num touched: count it once for every active region. */
    void
    touch(uint64_t page_num)
    {
        // Every active region already holds the page the previous touch
        // recorded, unless an activation came or went since.
        if (page_num == last_page_ && stack_epoch_ == last_epoch_)
            return;
        last_page_ = page_num;
        last_epoch_ = stack_epoch_;
        for (Activation &act : stack_) {
            if (act.pages->insert(page_num).second)
                ++act.region->memPages;
        }
    }

    RegionProfile *
    regionFor(const ir::Function *fn, const ir::LoopMeta *loop)
    {
        std::string name = loop != nullptr ? loop->name : fn->name();
        auto it = regions_.find(name);
        if (it == regions_.end()) {
            RegionProfile region;
            region.name = name;
            region.isLoop = loop != nullptr;
            region.fn = fn;
            region.loop = loop;
            it = regions_.emplace(name, std::move(region)).first;
        }
        return &it->second;
    }

    void
    pushRegion(RegionProfile *region, int depth)
    {
        ++region->invocations;
        bool already_active = active_.count(region) != 0;
        active_.insert(region);
        stack_.push_back({region, &touched_[region], machine_.nowNs(),
                          !already_active, depth});
        ++stack_epoch_;
    }

    void
    popRegion()
    {
        Activation act = stack_.back();
        stack_.pop_back();
        ++stack_epoch_;
        if (act.timed) {
            act.region->execNs += machine_.nowNs() - act.startNs;
            active_.erase(act.region);
        }
    }

    const ir::Module &module_;
    sim::SimMachine &machine_;
    const interp::BackendKind engine_;
    std::unordered_map<const ir::BasicBlock *, const ir::LoopMeta *>
        loop_by_header_;
    std::map<std::string, RegionProfile> regions_;
    std::vector<Activation> stack_;
    std::unordered_set<RegionProfile *> active_;
    std::unordered_map<RegionProfile *, std::unordered_set<uint64_t>>
        touched_;
    int call_depth_ = 0;
    uint64_t stack_epoch_ = 1; ///< bumped by every push and pop
    uint64_t last_page_ = 0;   ///< page of the previous touch...
    uint64_t last_epoch_ = 0;  ///< ...and the stack it was recorded for
};

} // namespace

ProfileResult
profileModule(const ir::Module &module, const arch::ArchSpec &spec,
              const ProfileInput &input, const std::string &entry,
              interp::BackendKind engine)
{
    sim::SimMachine machine(sim::MachineRole::Mobile, spec);
    machine.setInput(input.stdinText);
    for (const auto &[path, contents] : input.files)
        machine.fs().putFile(path, contents);
    ProfilingSession session(module, machine, engine);
    return session.run(entry);
}

} // namespace nol::profile
