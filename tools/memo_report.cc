/**
 * @file
 * Self-rendering experiment report driver.
 *
 *   memo-report --write DIR    # measure everything and rewrite
 *                              # DIR/EXPERIMENTS.md and
 *                              # DIR/docs/REPORT.html
 *   memo-report --check DIR    # re-render and diff against the
 *                              # committed artifacts (exit 1 on drift)
 *   memo-report --markdown     # render EXPERIMENTS.md to stdout
 *   memo-report --html         # render REPORT.html to stdout
 *
 * The report runs one measurement plan (check/plan.hh), the
 * computation behind the check::measure* entry points the bench_*
 * binaries and the golden snapshots use, so its numbers agree with
 * both by construction. Rendering is deterministic (no timestamps or
 * locale formatting), which is what lets the `report_drift` ctest
 * treat EXPERIMENTS.md like a golden file: any code change that moves
 * a reproduced paper value fails --check until the artifacts are
 * regenerated with --write and committed.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/plan.hh"
#include "check/report.hh"
#include "obs/report.hh"

namespace
{

struct Artifact
{
    const char *path; //!< repo-relative
    std::string (*render)(const memo::obs::Report &);
};

const Artifact artifacts[] = {
    {"EXPERIMENTS.md", memo::obs::renderMarkdown},
    {"docs/REPORT.html", memo::obs::renderHtml},
};

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

/** Print a minimal line diff of committed vs re-rendered. */
void
printDiff(const std::string &name, const std::string &want,
          const std::string &got)
{
    auto w = lines(want);
    auto g = lines(got);
    size_t n = std::max(w.size(), g.size());
    unsigned shown = 0;
    for (size_t i = 0; i < n && shown < 20; i++) {
        const std::string *wl = i < w.size() ? &w[i] : nullptr;
        const std::string *gl = i < g.size() ? &g[i] : nullptr;
        if (wl && gl && *wl == *gl)
            continue;
        if (wl)
            std::cout << "  -" << name << ":" << (i + 1) << ": " << *wl
                      << "\n";
        if (gl)
            std::cout << "  +" << name << ":" << (i + 1) << ": " << *gl
                      << "\n";
        shown++;
    }
    if (shown == 20)
        std::cout << "  ... (more differences suppressed)\n";
}

int
usage(int code)
{
    (code ? std::cerr : std::cout)
        << "usage: memo-report --write DIR | --check DIR | --markdown "
           "| --html\n";
    return code;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string mode, dir;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--markdown") ||
            !std::strcmp(argv[i], "--html")) {
            mode = argv[i] + 2;
        } else if (!std::strcmp(argv[i], "--write") ||
                   !std::strcmp(argv[i], "--check")) {
            mode = argv[i] + 2;
            if (i + 1 >= argc) {
                std::cerr << "memo-report: " << argv[i]
                          << " needs the repository root\n";
                return 2;
            }
            dir = argv[++i];
        } else {
            return usage(std::strcmp(argv[i], "--help") &&
                                 std::strcmp(argv[i], "-h")
                             ? 2
                             : 0);
        }
    }
    if (mode.empty())
        return usage(2);

    memo::obs::Report report = memo::check::buildExperimentsReport();

    if (mode == "markdown") {
        std::cout << memo::obs::renderMarkdown(report);
        return 0;
    }
    if (mode == "html") {
        std::cout << memo::obs::renderHtml(report);
        return 0;
    }

    bool ok = true;
    for (const Artifact &a : artifacts) {
        std::string path = dir + "/" + a.path;
        std::string current = a.render(report);

        if (mode == "write") {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            if (!out) {
                std::cerr << "memo-report: cannot write " << path
                          << "\n";
                return 2;
            }
            out << current;
            std::cout << "wrote " << path << "\n";
            continue;
        }

        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::cout << "MISSING " << path
                      << " (run memo-report --write)\n";
            ok = false;
            continue;
        }
        std::ostringstream committed;
        committed << in.rdbuf();
        if (committed.str() == current) {
            std::cout << "ok " << a.path << "\n";
        } else {
            std::cout << "DRIFT " << a.path
                      << ": committed report disagrees with measured "
                         "values\n";
            printDiff(a.path, committed.str(), current);
            ok = false;
        }
    }
    // The measurement plan's own counts: every trace key generated
    // once. Write/check stdout is operator-facing, so this never
    // touches the rendered artifacts (whose bytes --check just
    // compared).
    memo::check::PlanTotals plan = memo::check::planTotals();
    std::cout << "plan: " << plan.items << " work items, "
              << plan.generated << " traces generated, "
              << plan.uniqueKeys << " unique keys\n";

    if (!ok)
        std::cout << "report drift: if the change is intended, "
                     "regenerate with\n  memo-report --write "
                  << (dir.empty() ? "." : dir) << "\n";
    return ok ? 0 : 1;
}
