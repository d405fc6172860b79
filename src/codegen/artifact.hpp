/**
 * @file
 * Content-addressed native-artifact cache: a lowered module's C source
 * is compiled once per digest with the host toolchain and dlopen'd;
 * every holder of the same digest shares one loaded artifact while any
 * holds it (in-process registry), and processes share the on-disk
 * cache keyed by digest, populated with atomic renames.
 */
#ifndef NOL_CODEGEN_ARTIFACT_HPP
#define NOL_CODEGEN_ARTIFACT_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "codegen/abi.hpp"
#include "codegen/cemitter.hpp"

namespace nol::codegen {

/** A dlopen'd compiled module: the generated function table. */
class NativeArtifact
{
  public:
    ~NativeArtifact();

    NativeArtifact(const NativeArtifact &) = delete;
    NativeArtifact &operator=(const NativeArtifact &) = delete;

    const NolFn *fns() const { return fns_; }
    uint32_t count() const { return count_; }

  private:
    friend std::shared_ptr<const NativeArtifact>
    getOrCompile(const LoweredModule &lowered, std::string *error);

    NativeArtifact() = default;

    void *handle_ = nullptr;
    const NolFn *fns_ = nullptr;
    uint32_t count_ = 0;
};

/**
 * Fetch (or compile) the artifact for @p lowered: the in-process
 * registry first, then the on-disk cache, and only on a miss of both
 * the host compiler (probed on first need). Returns nullptr when no
 * artifact can be produced — no usable compiler, an unwritable cache
 * directory, a failing or hung compiler (killed after a bounded wait)
 * — and then describes why in @p error, with the compiler's stderr
 * when it ran. Callers fall back to the interpreter. Thread-safe and
 * safe against concurrent processes sharing the cache directory.
 */
std::shared_ptr<const NativeArtifact>
getOrCompile(const LoweredModule &lowered, std::string *error = nullptr);

/** True if a host C compiler usable for artifacts was found. */
bool toolchainAvailable();

/** Cache directory ($NOL_CODEGEN_DIR, default ./.nol-codegen). */
std::string artifactCacheDir();

/** Host compiler processes this process has started (probes included). */
uint64_t compilerSpawns();

} // namespace nol::codegen

#endif // NOL_CODEGEN_ARTIFACT_HPP
