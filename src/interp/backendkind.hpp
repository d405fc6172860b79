/**
 * @file
 * Execution-backend selector. Kept dependency-free so compile-time
 * layers (compiler driver, core facade) can carry a backend preference
 * without linking the execution engines themselves.
 */
#ifndef NOL_INTERP_BACKENDKIND_HPP
#define NOL_INTERP_BACKENDKIND_HPP

namespace nol::interp {

/** Which execution engine runs compute phases. */
enum class BackendKind {
    /** No explicit choice: inherit the program's preference; when that
     *  is Default too, run natively, falling back to the interpreter
     *  quietly when no native artifact can be prepared. */
    Default,
    /** The reference IR interpreter (differential oracle). */
    Interpreter,
    /** IR lowered to C, compiled with the host toolchain and executed
     *  natively; simulated time is charged from the same per-
     *  instruction cost model as the interpreter. Chosen explicitly, a
     *  fallback to the interpreter is reported with a warning. */
    NativeC,
};

/** Human-readable backend name ("default" / "interp" / "native-c"). */
const char *backendKindName(BackendKind kind);

/** Parse a backend name; returns false on an unknown name. */
bool parseBackendKind(const char *name, BackendKind *out);

/**
 * The engine a run asks for: @p run (a SystemConfig's choice) unless it
 * is Default, else @p program (the compiled program's preference)
 * unless that is Default, else NativeC. Never returns Default.
 */
BackendKind resolveBackend(BackendKind run, BackendKind program);

} // namespace nol::interp

#endif // NOL_INTERP_BACKENDKIND_HPP
