/**
 * @file
 * asymbench: one repetition of one benchmark workload.
 *
 *   asymbench --workload read_zipf|write_mix|tatp --seed N
 *             [--trace] [--trace-out PATH] [--smoke]
 *
 * Prints one JSON object on stdout: the virtual-time metrics ("virt",
 * a pure function of workload and seed), the host measurements ("host"),
 * and the oracle's verdict (attempted / failed / errors). perfbench/run.py
 * repeats it, checks determinism and reports the results.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: asymbench --workload read_zipf|write_mix|tatp "
                 "--seed N [--trace] [--trace-out PATH] [--smoke]\n");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

void
printMetrics(const perfbench::Metrics &m)
{
    std::printf("{");
    for (size_t i = 0; i < m.size(); ++i) {
        // %.17g round-trips a double exactly, keeping every digit.
        const double v = std::isfinite(m[i].second) ? m[i].second : 0.0;
        std::printf("%s%s: %.17g", i == 0 ? "" : ", ",
                    jsonString(m[i].first).c_str(), v);
    }
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_arg = i + 1 < argc;
        if (a == "--workload" && has_arg) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && has_arg) {
            char *end = nullptr;
            opt.seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end != nullptr && *end == '\0' && argv[i][0] != '-';
            if (!have_seed) {
                usage();
                return 2;
            }
        } else if (a == "--trace") {
            opt.trace = true;
        } else if (a == "--trace-out" && has_arg) {
            opt.trace_path = argv[++i];
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else {
            usage();
            return 2;
        }
    }
    if (!have_seed || !perfbench::knownWorkload(opt.workload)) {
        usage();
        return 2;
    }

    perfbench::RunResult r;
    try {
        r = perfbench::runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "asymbench: %s\n", e.what());
        return 1;
    }
    std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, \"errors\": [",
                jsonString(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.errors.size(); ++i)
        std::printf("%s%s", i == 0 ? "" : ", ",
                    jsonString(r.errors[i]).c_str());
    std::printf("], \"virt\": ");
    printMetrics(r.virt);
    std::printf(", \"host\": ");
    printMetrics(r.host);
    std::printf("}\n");
    return 0;
}
