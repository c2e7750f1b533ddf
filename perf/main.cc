/**
 * @file
 * assoc_perf: one run of one workload of the repository's end-to-end
 * benchmark (perf/README.md). perf/run.py builds it and does the
 * repetitions.
 *
 *   assoc_perf --workload=table4_synth --seed=1 --out=DIR
 *   assoc_perf --workload=svc_read --trace=1 --out=DIR
 *
 * Prints the machine stamp, every metric by name with its unit, and
 * as its last line one JSON object with exactly the keys correct,
 * attempted, failed and metrics. A failed output check exits 1, and
 * the run's operations then count as failed.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/kernels.h"
#include "exec/report.h"
#include "perf.h"
#include "util/argparse.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/logging.h"

using namespace assoc;
using namespace assoc::perf;

namespace {

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + exec::jsonEscape(s) + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i)
        s += (i ? ", " : "") + jsonString(ms[i].name) + ": {\"value\": " +
             num(ms[i].value) + ", \"unit\": " + jsonString(ms[i].unit) + "}";
    return s + "}";
}

/** The machine and settings a result was measured on. */
std::string
stampJson(const RunContext &ctx, const RunResult &res)
{
    return "{\"nproc\": " + std::to_string(ctx.nproc) +
           ", \"build_type\": " + jsonString(ASSOC_PERF_BUILD_TYPE) +
           ", \"compiler\": " + jsonString(ASSOC_PERF_COMPILER) +
           ", \"kernels\": " + jsonString(core::activeKernels().name) +
           ", \"git_rev\": " + jsonString(ASSOC_PERF_GIT_REV) +
           ", \"seed\": " + std::to_string(ctx.seed) +
           ", \"seconds\": " + num(ctx.seconds) +
           ", \"quick\": " + (ctx.quick ? "true" : "false") +
           ", \"jobs\": " + std::to_string(res.jobs) +
           ", \"clients\": " + std::to_string(res.clients) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("assoc_perf",
                   "one run of one end-to-end benchmark workload");
    args.addFlag("workload", "",
                 "table4_synth | ftr_replay | svc_read | svc_write");
    args.addFlag("seed", "1",
                 "input seed: the same seed gives the same inputs");
    args.addFlag("seconds", "10", "how long the timed region measures");
    args.addFlag("trace", "0",
                 "1 = the traced run: per-layer metrics instead of the "
                 "end-to-end ones");
    args.addSwitch("quick",
                   "small inputs for the self-test: table4 at one "
                   "segment, a 1M-reference corpus, 100k-op client "
                   "streams");
    args.addFlag("out", "",
                 "also write the result as JSON into this directory");
    args.addFlag("work", ASSOC_PERF_WORK_DIR,
                 "scratch directory for the outputs of the programs "
                 "under test; each run works in a subdirectory of its "
                 "own");
    if (!args.parse(argc, argv))
        return 0;

    return guardedMain("assoc_perf", [&]() -> int {
        RunContext ctx;
        ctx.workload = args.getString("workload");
        const std::vector<std::string> &names = workloadNames();
        fatalIf(std::find(names.begin(), names.end(), ctx.workload) ==
                    names.end(),
                "--workload must be table4_synth, ftr_replay, svc_read "
                "or svc_write");
        ctx.seed = args.getUint("seed");
        ctx.seconds = args.getDouble("seconds");
        fatalIf(!(ctx.seconds > 0.0 && ctx.seconds <= 600.0),
                "--seconds must be in (0, 600]");
        const bool traced = args.getUint("trace") != 0;
        ctx.quick = args.getBool("quick");
        if (ctx.quick) {
            ctx.sizes.table4_segments = 1;
            ctx.sizes.ftr_refs = 1'000'000;
            ctx.sizes.svc_stream = 100'000;
            ctx.sizes.svc_history = 10'000;
            ctx.sizes.slice_s = 0.1;
            ctx.sizes.passes = 1;
        }
        ctx.nproc = usableCpus();
        // A directory of this run's own, so runs at once in one
        // checkout never share an input or an output. Removed when
        // the run passes; a failed run's is kept for diagnosis.
        ctx.work_dir = args.getString("work") + "/" + ctx.workload +
                       ".seed" + std::to_string(ctx.seed) +
                       (traced ? ".traced." : ".timed.") +
                       std::to_string(getpid());
        std::filesystem::create_directories(ctx.work_dir);

        RunResult res = traced ? runTraced(ctx) : runTimed(ctx);
        for (const std::string &p : res.problems)
            warn("check failed: " + p);
        if (!res.correct())
            res.failed = res.attempted;

        const std::string stamp = stampJson(ctx, res);
        std::printf("stamp %s\n", stamp.c_str());
        for (const Metric &m : res.metrics)
            std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        for (const Metric &m : res.extra)
            std::printf("%-40s %.6g %s (reported, not gated)\n",
                        m.name.c_str(), m.value, m.unit.c_str());
        const std::string body =
            "\"correct\": " + std::string(res.correct() ? "true" : "false") +
            ", \"attempted\": " + std::to_string(res.attempted) +
            ", \"failed\": " + std::to_string(res.failed) +
            ", \"metrics\": " + metricsJson(res.metrics);

        const std::string out_dir = args.getString("out");
        if (!out_dir.empty()) {
            std::filesystem::create_directories(out_dir);
            std::string path =
                out_dir + "/" + ctx.workload +
                (traced ? ".layers.json"
                        : ".seed" + std::to_string(ctx.seed) + ".json");
            std::string problems = "[";
            for (std::size_t i = 0; i < res.problems.size(); ++i)
                problems += (i ? ", " : "") + jsonString(res.problems[i]);
            problems += "]";
            Expected<void> wrote =
                writeFileAtomic(path, [&](std::ostream &os) {
                    os << "{\"workload\": " << jsonString(ctx.workload)
                       << ",\n \"traced\": " << (traced ? "true" : "false")
                       << ",\n \"stamp\": " << stamp << ",\n " << body
                       << ",\n \"extra\": " << metricsJson(res.extra)
                       << ",\n \"problems\": " << problems << "}\n";
                });
            if (!wrote.ok())
                throwError(Error(wrote.error()).withContext("--out"));
        }
        if (res.correct())
            std::filesystem::remove_all(ctx.work_dir);
        std::printf("{%s}\n", body.c_str());
        return res.correct() ? 0 : 1;
    });
}
