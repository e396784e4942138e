/**
 * @file
 * memo-trace-dump: inspect traces saved by `memo-sim --save-trace`.
 *
 * Usage:
 *   memo-trace-dump FILE [count]
 *       Print the class mix and first `count` records (default 20) of
 *       a saved trace. `count` is a decimal integer; 0 prints the
 *       mix alone.
 */

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>

#include "arith/fp.hh"
#include "exec/env.hh"
#include "trace/io.hh"

using namespace memo;

namespace
{

void
printRecord(size_t index, const Instruction &inst)
{
    std::printf("%8zu  %-9s pc=%08x", index,
                std::string(instClassName(inst.cls)).c_str(), inst.pc);
    switch (inst.cls) {
      case InstClass::Load:
      case InstClass::Store:
        std::printf("  addr=%#llx",
                    static_cast<unsigned long long>(inst.addr));
        break;
      case InstClass::IntMul:
        std::printf("  %lld * %lld = %lld",
                    static_cast<long long>(inst.a),
                    static_cast<long long>(inst.b),
                    static_cast<long long>(inst.result));
        break;
      case InstClass::FpMul:
      case InstClass::FpDiv:
      case InstClass::FpAdd:
        std::printf("  %g %c %g = %g", fpFromBits(inst.a),
                    inst.cls == InstClass::FpDiv   ? '/'
                    : inst.cls == InstClass::FpMul ? '*'
                                                   : '+',
                    fpFromBits(inst.b), fpFromBits(inst.result));
        break;
      case InstClass::FpSqrt:
      case InstClass::FpLog:
      case InstClass::FpSin:
      case InstClass::FpCos:
      case InstClass::FpExp:
        std::printf("  f(%g) = %g", fpFromBits(inst.a),
                    fpFromBits(inst.result));
        break;
      default:
        break;
    }
    std::printf("\n");
}

void
printTrace(const std::string &name, const Trace &trace, size_t count)
{
    std::printf("%s: %zu instructions\n\n", name.c_str(), trace.size());

    OpMix mix = trace.mix();
    std::printf("instruction mix:\n");
    for (unsigned c = 0; c < numInstClasses; c++) {
        InstClass cls = static_cast<InstClass>(c);
        if (mix[cls] == 0)
            continue;
        std::printf("  %-9s %10llu  (%.1f%%)\n",
                    std::string(instClassName(cls)).c_str(),
                    static_cast<unsigned long long>(mix[cls]),
                    100.0 * mix.fraction(cls));
    }

    std::printf("\nfirst %zu records:\n",
                std::min(count, trace.size()));
    for (size_t i = 0; i < trace.size() && i < count; i++)
        printRecord(i, trace[i]);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: memo-trace-dump FILE [count]\n");
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2 || argv[1][0] == '-')
            return usage();

        size_t count = 20;
        if (argc > 2) {
            auto n = exec::parseUnsigned(argv[2], SIZE_MAX);
            if (!n) {
                std::fprintf(stderr,
                             "memo-trace-dump: count must be a "
                             "decimal integer, got '%s'\n",
                             argv[2]);
                return usage();
            }
            count = static_cast<size_t>(*n);
        }
        printTrace(argv[1], readTrace(argv[1]), count);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memo-trace-dump: %s\n", e.what());
        return 1;
    }
}
