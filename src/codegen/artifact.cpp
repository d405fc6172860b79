#include "codegen/artifact.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/logging.hpp"

extern char **environ;

namespace nol::codegen {

namespace {

/** Flags are part of the cache key: changing them must recompile. */
const char *kCompileFlags =
    "-O1 -fPIC -shared -fexceptions -fno-strict-aliasing "
    "-ffp-contract=off -w";

/** A compiler still running after this long is killed: a hung host
 *  toolchain must cost a bounded wait, then the interpreter. */
constexpr std::chrono::seconds kCompileTimeout{120};

/** Head of a failing compiler's stderr kept for the diagnostic. */
constexpr size_t kStderrLimit = 4096;

std::mutex g_mutex;
/** Loaded artifacts by key. Weak: an artifact lives as long as a
 *  program (or profiling run) holds it, then is unloaded; the disk
 *  cache makes a later load cheap. */
std::map<std::string, std::weak_ptr<const NativeArtifact>> g_registry;
std::atomic<uint64_t> g_spawns{0};

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
errnoText(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::string &why)
{
    std::string tmp =
        path + "." + std::to_string(static_cast<long>(::getpid())) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            why = errnoText("cannot write " + tmp);
            return false;
        }
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        if (!out) {
            why = errnoText("cannot write " + tmp);
            return false;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        why = errnoText("cannot rename " + tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

/** @p text split on blanks ("ccache gcc" is a two-word command). */
std::vector<std::string>
words(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string word;
    while (in >> word)
        out.push_back(word);
    return out;
}

/**
 * Run @p argv without a shell, in its own process group, with stdout
 * discarded and stderr captured into @p err. Waits at most
 * kCompileTimeout, then kills the whole group. True on exit status 0.
 */
bool
runProcess(const std::vector<std::string> &argv, std::string &err)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        err = errnoText("pipe");
        return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
    posix_spawnattr_setpgroup(&attr, 0);

    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    pid_t pid = 0;
    ++g_spawns;
    int rc = ::posix_spawnp(&pid, args[0], &actions, &attr, args.data(),
                            environ);
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        err = argv[0] + ": " + std::strerror(rc);
        return false;
    }

    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kCompileTimeout;
    auto remainingMs = [&deadline] {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        return static_cast<int>(std::max<int64_t>(0, left.count()));
    };
    // Drain stderr until every writer closed it (the compiler and its
    // subprocesses are done) or the deadline passes.
    bool timed_out = false;
    for (;;) {
        pollfd pfd{fds[0], POLLIN, 0};
        int ready = ::poll(&pfd, 1, remainingMs());
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0) {
            timed_out = true;
            break;
        }
        char buf[1024];
        ssize_t got = ::read(fds[0], buf, sizeof buf);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break;
        size_t room = kStderrLimit - std::min(kStderrLimit, err.size());
        err.append(buf, std::min(room, static_cast<size_t>(got)));
    }
    ::close(fds[0]);

    int status = 0;
    for (;;) {
        if (timed_out)
            ::kill(-pid, SIGKILL);
        pid_t done = ::waitpid(pid, &status, timed_out ? 0 : WNOHANG);
        if (done == pid)
            break;
        if (done < 0 && errno != EINTR) {
            err += errnoText("waitpid");
            return false;
        }
        if (done == 0) {
            // stderr closed but the process lives on: poll to the
            // deadline, then kill it.
            timed_out = remainingMs() == 0;
            if (!timed_out)
                ::poll(nullptr, 0, 5);
        }
    }
    if (timed_out) {
        err += "killed after " + std::to_string(kCompileTimeout.count()) +
               " s";
        return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** Compile @p src into shared object @p out_so with compiler @p cc. */
bool
runCompile(const std::vector<std::string> &cc, const std::string &src,
           const std::string &out_so, std::string &err)
{
    std::vector<std::string> argv = cc;
    for (const std::string &flag : words(kCompileFlags))
        argv.push_back(flag);
    argv.insert(argv.end(), {"-o", out_so, src});
    return runProcess(argv, err);
}

/**
 * The host compiler command, chosen on first need by building a probe
 * shared object with the real flag set in @p dir ($NOL_CC, $CC, then
 * cc, gcc, clang). Empty when none works, with @p why saying so. A
 * probe that could not even be written is not remembered: the next
 * call, perhaps with another cache directory, probes again. Caller
 * holds g_mutex.
 */
const std::vector<std::string> &
hostCompiler(const std::string &dir, std::string &why)
{
    static bool probed = false;
    static std::vector<std::string> found;
    static std::string failure;
    if (probed) {
        why = failure;
        return found;
    }

    std::vector<std::string> cands;
    if (const char *env = std::getenv("NOL_CC"))
        cands.push_back(env);
    if (const char *env = std::getenv("CC"))
        cands.push_back(env);
    cands.insert(cands.end(), {"cc", "gcc", "clang"});

    ::mkdir(dir.c_str(), 0777); // EEXIST is fine
    std::string probe_c = dir + "/probe." +
                          std::to_string(static_cast<long>(::getpid())) +
                          ".c";
    std::string probe_so = probe_c + ".so";
    if (!writeFileAtomic(probe_c, "int nol_probe(void){return 0;}\n", why))
        return found;
    std::string tried, first_err;
    for (const std::string &cand : cands) {
        std::vector<std::string> cc = words(cand);
        std::string err;
        if (!cc.empty() && runCompile(cc, probe_c, probe_so, err)) {
            found = cc;
            break;
        }
        tried += (tried.empty() ? "" : ", ") + cand;
        if (first_err.empty() && !err.empty())
            first_err = cand + ": " + err;
    }
    ::unlink(probe_c.c_str());
    ::unlink(probe_so.c_str());
    if (found.empty()) {
        failure = "no host C compiler found (tried " + tried + ")";
        if (!first_err.empty())
            failure += "; " + first_err;
    }
    probed = true;
    why = failure;
    return found;
}

/** Write, compile and publish @p lowered as @p so_path in @p dir. */
bool
compileArtifact(const LoweredModule &lowered, const std::string &dir,
                const std::string &key, const std::string &so_path,
                std::string &why)
{
    if (lowered.source.empty()) {
        why = "the module's C source was already released";
        return false;
    }
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
        why = errnoText("cannot create artifact cache " + dir);
        return false;
    }
    std::string c_path = dir + "/nol_" + key + ".c";
    if (!writeFileAtomic(c_path, lowered.source, why))
        return false;
    const std::vector<std::string> &cc = hostCompiler(dir, why);
    if (cc.empty())
        return false;
    // Compile to a private name, then rename: concurrent processes
    // racing on the same digest each publish a complete .so.
    std::string tmp_so =
        so_path + "." + std::to_string(static_cast<long>(::getpid())) +
        ".tmp";
    std::string err;
    if (!runCompile(cc, c_path, tmp_so, err)) {
        ::unlink(tmp_so.c_str());
        why = "host compiler failed on " + c_path + ": " + err;
        return false;
    }
    if (::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
        why = errnoText("cannot publish " + so_path);
        ::unlink(tmp_so.c_str());
        return false;
    }
    return true;
}

} // namespace

std::string
artifactCacheDir()
{
    if (const char *env = std::getenv("NOL_CODEGEN_DIR"))
        return env;
    return ".nol-codegen";
}

bool
toolchainAvailable()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::string why;
    return !hostCompiler(artifactCacheDir(), why).empty();
}

uint64_t
compilerSpawns()
{
    return g_spawns.load();
}

NativeArtifact::~NativeArtifact()
{
    if (handle_ != nullptr)
        ::dlclose(handle_);
}

std::shared_ptr<const NativeArtifact>
getOrCompile(const LoweredModule &lowered, std::string *error)
{
    std::string key = contentDigest(lowered.digest + "|" + kCompileFlags);

    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_registry.find(key);
    if (it != g_registry.end()) {
        if (std::shared_ptr<const NativeArtifact> live = it->second.lock())
            return live;
    }

    auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return nullptr;
    };
    std::string dir = artifactCacheDir();
    std::string so_path = dir + "/nol_" + key + ".so";
    std::string why;
    if (!fileExists(so_path) &&
        !compileArtifact(lowered, dir, key, so_path, why))
        return fail(why);

    void *handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr)
        return fail(std::string("dlopen failed: ") + ::dlerror());

    auto *fns = reinterpret_cast<const NolFn *>(
        ::dlsym(handle, "nol_fn_table"));
    auto *count =
        reinterpret_cast<const uint32_t *>(::dlsym(handle, "nol_fn_count"));
    if (fns == nullptr || count == nullptr) {
        ::dlclose(handle);
        return fail(so_path + " lacks the generated function table");
    }

    auto artifact =
        std::shared_ptr<NativeArtifact>(new NativeArtifact());
    artifact->handle_ = handle;
    artifact->fns_ = fns;
    artifact->count_ = *count;
    g_registry[key] = artifact;
    return artifact;
}

} // namespace nol::codegen
