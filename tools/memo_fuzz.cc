/**
 * @file
 * Seeded differential fuzzer CLI.
 *
 *   memo_fuzz --seed 1 --iters 10000          # campaign
 *   memo_fuzz --seed 1 --iters 10000 --mutation
 *
 * Exit status 0 means the harness behaved as expected: no invariant
 * violations in a normal campaign, or (with --mutation) all four
 * injected bugs — the tag-comparison bug, the batched-replay
 * block-boundary off-by-one, the reference table's dropped LRU
 * refresh, and the memo-lint lexer newline-accounting fault — were
 * caught. Any other outcome exits 1,
 * printing a shrunk counterexample and a one-line repro.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "check/fuzz.hh"
#include "prof/heartbeat.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seed S] [--iters N] [--stream L] "
                 "[--mutation] [--verbose]\n"
                 "  --seed S     campaign seed (default 1)\n"
                 "  --iters N    fuzz cases to run (default 1000)\n"
                 "  --stream L   accesses per case (default 256)\n"
                 "  --mutation   self-test: inject a tag-comparison\n"
                 "               bug, a block-boundary off-by-one, a\n"
                 "               dropped reference LRU refresh and a\n"
                 "               lint-lexer fault; the harness must\n"
                 "               catch all four\n"
                 "  --verbose    progress output every 1000 cases\n"
                 "  --progress   stderr heartbeat (rate/ETA); stdout\n"
                 "               stays byte-identical\n",
                 argv0);
}

uint64_t
parseU64(const char *flag, const char *val)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(val, &end, 0);
    if (!end || *end != '\0') {
        std::fprintf(stderr, "memo_fuzz: bad value for %s: %s\n", flag,
                     val);
        std::exit(2);
    }
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    memo::check::FuzzOptions opts;
    bool mutation = false;
    bool progress = false;

    for (int i = 1; i < argc; i++) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "memo_fuzz: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--seed")) {
            opts.seed = parseU64("--seed", need("--seed"));
        } else if (!std::strcmp(argv[i], "--iters")) {
            opts.iters = parseU64("--iters", need("--iters"));
        } else if (!std::strcmp(argv[i], "--stream")) {
            opts.streamLen = static_cast<unsigned>(
                parseU64("--stream", need("--stream")));
        } else if (!std::strcmp(argv[i], "--mutation")) {
            mutation = true;
        } else if (!std::strcmp(argv[i], "--verbose")) {
            opts.verbose = true;
        } else if (!std::strcmp(argv[i], "--progress")) {
            progress = true;
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "memo_fuzz: unknown flag %s\n",
                         argv[i]);
            usage(argv[0]);
            return 2;
        }
    }

    if (mutation) {
        bool caught = memo::check::mutationSelfTest(opts, &std::cout);
        if (!caught) {
            std::cout << "FAIL: a differential harness did not "
                         "detect its injected bug\n";
            return 1;
        }
        std::cout << "ok: injected tag-comparison, block-boundary "
                     "and lint-lexer bugs detected\n";
        return 0;
    }

    // The heartbeat is stderr-only display: campaign verdicts and
    // stdout output are byte-identical with or without it.
    std::optional<memo::prof::Heartbeat> heartbeat;
    if (progress) {
        heartbeat.emplace("fuzz", opts.iters);
        opts.progress = &heartbeat->counter();
    }

    auto failure = memo::check::fuzz(opts, &std::cout);
    if (heartbeat)
        heartbeat->stop();
    return failure ? 1 : 0;
}
