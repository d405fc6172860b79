/**
 * @file
 * Random but deterministic MiniC programs for property tests: a long
 * array, a handful of loops mixing reads, writes and branches over it,
 * and a small exit value. Shared by the cross-architecture execution
 * property and the profiling engine oracle.
 */
#ifndef NOL_TESTS_SYNTH_HPP
#define NOL_TESTS_SYNTH_HPP

#include <sstream>
#include <string>

#include "support/rng.hpp"

namespace nol {

/** Emit a random but deterministic MiniC program. */
inline std::string
synthesizeProgram(uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream src;
    int array_len = static_cast<int>(rng.range(8, 64));
    src << "long a[" << array_len << "];\n";
    src << "int main() {\n";
    src << "    for (int i = 0; i < " << array_len
        << "; i++) a[i] = (long)(i * " << rng.range(3, 99) << " + "
        << rng.range(0, 50) << ");\n";
    src << "    long acc = " << rng.range(0, 9) << ";\n";
    int statements = static_cast<int>(rng.range(3, 10));
    for (int s = 0; s < statements; ++s) {
        int idx_mul = static_cast<int>(rng.range(1, 13));
        const char *ops[] = {"+", "-", "^", "|", "&"};
        const char *op = ops[rng.below(5)];
        src << "    for (int i = 0; i < " << array_len << "; i++) {\n";
        switch (rng.below(3)) {
          case 0:
            src << "        acc = acc " << op << " a[(i * " << idx_mul
                << ") % " << array_len << "];\n";
            break;
          case 1:
            src << "        a[i] = a[i] " << op << " (long)(i % "
                << rng.range(1, 17) << " + 1);\n";
            break;
          default:
            src << "        if ((a[i] & " << rng.range(1, 15)
                << ") != 0) acc += " << rng.range(1, 7)
                << "; else acc -= " << rng.range(1, 7) << ";\n";
            break;
        }
        src << "    }\n";
    }
    src << "    return (int)(acc % 97 + 97) % 97;\n";
    src << "}\n";
    return src.str();
}

} // namespace nol

#endif // NOL_TESTS_SYNTH_HPP
