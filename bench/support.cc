#include "support.h"

#include <fstream>
#include <limits>

#include "exec/journal.h"
#include "util/logging.h"

namespace assoc {
namespace bench {

void
addCommonFlags(ArgParser &parser)
{
    parser.addFlag("segments", "23",
                   "ATUM-like sub-traces to simulate (23 = the "
                   "paper's full concatenated trace)");
    parser.addFlag("seed", "0",
                   "trace generator seed (0 = built-in default)");
    parser.addFlag("output", "text",
                   "table format: text, csv, markdown or json");
    parser.addFlag("jobs", "0",
                   "parallel simulations (0 = all hardware "
                   "threads, 1 = serial)");
    parser.addSwitch("progress",
                     "print per-job completion lines to stderr");
    parser.addFlag("json", "",
                   "also write machine-readable sweep results to "
                   "this file");
    parser.addFlag("retries", "1",
                   "extra attempts per sweep job after a transient "
                   "failure");
    parser.addSwitch("keep-going",
                     "finish the sweep when jobs fail and render "
                     "the failed points as gaps (exit 2)");
    parser.addFlag("journal", "",
                   "checkpoint completed sweep jobs to this file "
                   "(^C drains and keeps it for --resume)");
    parser.addFlag("resume", "",
                   "restore completed jobs from this journal and "
                   "run only the missing ones (appends new "
                   "completions)");
    parser.addFlag("fail-job", "",
                   "deliberately fail this job index "
                   "(fault-injection testing)");
    parser.addFlag("job-timeout", "",
                   "cancel any sweep job that runs longer than this "
                   "(e.g. 30s, 500ms); a timed-out job is retried "
                   "per --retries, then rendered as a gap (exit 4)");
    parser.addFlag("sweep-deadline", "",
                   "give up on the whole sweep this long after it "
                   "starts (e.g. 5m); unfinished points become gaps "
                   "(exit 4)");
    parser.addFlag("mem-budget", "",
                   "byte budget for the sweep's big allocations "
                   "(e.g. 512M); a job pushing past it fails with a "
                   "budget error instead of summoning the OOM "
                   "killer (exit 4)");
}

namespace {

/** Parse an empty-defaulted duration flag ("" = 0 = disabled). */
std::uint64_t
durationFlag(const ArgParser &parser, const std::string &name)
{
    std::string text = parser.getString(name);
    if (text.empty())
        return 0;
    Expected<std::uint64_t> ns = parseDuration(text);
    if (!ns.ok())
        throwError(Error(ns.error()).withContext("--" + name));
    return ns.value();
}

/** Parse an empty-defaulted byte-size flag ("" = 0 = disabled). */
std::uint64_t
byteSizeFlag(const ArgParser &parser, const std::string &name)
{
    std::string text = parser.getString(name);
    if (text.empty())
        return 0;
    Expected<std::uint64_t> bytes = parseByteSize(text);
    if (!bytes.ok())
        throwError(Error(bytes.error()).withContext("--" + name));
    return bytes.value();
}

} // namespace

CommonArgs
readCommonFlags(const ArgParser &parser)
{
    CommonArgs args;
    std::uint64_t segments = parser.getUint("segments");
    // getUint hands back 64 bits; the config field is unsigned, so
    // reject anything the cast would silently truncate.
    constexpr std::uint64_t seg_max =
        std::numeric_limits<unsigned>::max();
    fatalIf(segments == 0 || segments > seg_max,
            "--segments must be in [1, " + std::to_string(seg_max) +
                "], got " + parser.getString("segments"));
    args.segments = static_cast<unsigned>(segments);
    args.seed = parser.getUint("seed");
    std::string fmt = parser.getString("output");
    if (fmt == "text") {
        args.format = TextTable::Format::Text;
    } else if (fmt == "csv") {
        args.format = TextTable::Format::Csv;
    } else if (fmt == "markdown" || fmt == "md") {
        args.format = TextTable::Format::Markdown;
    } else if (fmt == "json") {
        args.format = TextTable::Format::Json;
    } else {
        fatal("unknown --output format '" + fmt + "'");
    }
    std::uint64_t jobs = parser.getUint("jobs");
    fatalIf(jobs > std::numeric_limits<unsigned>::max(),
            "--jobs is out of range");
    args.jobs = static_cast<unsigned>(jobs);
    args.progress = parser.getBool("progress");
    args.json_path = parser.getString("json");
    std::uint64_t retries = parser.getUint("retries");
    fatalIf(retries > 100, "--retries is out of range");
    args.retries = static_cast<unsigned>(retries);
    args.keep_going = parser.getBool("keep-going");
    args.journal_path = parser.getString("journal");
    args.resume_path = parser.getString("resume");
    if (parser.given("fail-job"))
        args.fail_job =
            static_cast<std::int64_t>(parser.getUint("fail-job"));
    args.job_timeout_ns = durationFlag(parser, "job-timeout");
    args.sweep_deadline_ns = durationFlag(parser, "sweep-deadline");
    args.mem_budget = byteSizeFlag(parser, "mem-budget");
    return args;
}

trace::AtumLikeConfig
traceConfig(const CommonArgs &args)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = args.segments;
    if (args.seed != 0)
        cfg.seed = args.seed;
    return cfg;
}

SweepResult
runSweepChecked(const std::vector<RunSpec> &specs,
                const CommonArgs &args, const std::string &label)
{
    exec::SweepOptions opts;
    opts.jobs = args.jobs;
    exec::ProgressMeter meter(specs.size(), args.progress, label);
    if (args.progress)
        opts.progress = &meter;

    opts.max_retries = args.retries;
    opts.journal_path = args.journal_path;
    opts.resume_path = args.resume_path;
    opts.job_timeout_ns = args.job_timeout_ns;
    opts.sweep_deadline_ns = args.sweep_deadline_ns;
    opts.mem_budget = args.mem_budget;
    trace::AtumLikeConfig tcfg = traceConfig(args);
    opts.spec_hash =
        exec::hashSpecs(specs, tcfg.seed * 1000003ull + tcfg.segments);

    // With a journal in play, ^C must drain and checkpoint instead
    // of killing the process mid-write.
    exec::CancelToken cancel;
    if (!args.journal_path.empty() || !args.resume_path.empty()) {
        exec::installSigintHandler();
        cancel.watchSigint();
        opts.cancel = &cancel;
    }

    exec::FaultPlan plan;
    plan.fail_job = args.fail_job;
    exec::FaultInjector inject(plan);
    if (args.fail_job >= 0)
        opts.inject = &inject;

    SweepResult result = exec::runSweepChecked(specs, tcfg, opts);

    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const JobResult &j = result.jobs[i];
        if (j.status == JobStatus::Failed)
            warn(label + ": job " + std::to_string(i) + " failed (" +
                 std::to_string(j.attempts) + " attempt(s)): " +
                 j.error.text());
        else if (j.status == JobStatus::TimedOut ||
                 j.status == JobStatus::OverBudget)
            warn(label + ": job " + std::to_string(i) + " " +
                 exec::jobStatusName(j.status) + " (" +
                 std::to_string(j.attempts) + " attempt(s)): " +
                 j.error.text());
    }

    if (result.interrupted) {
        const std::string &journal = !args.journal_path.empty()
                                         ? args.journal_path
                                         : args.resume_path;
        Error e = Error::cancelled(
            label + " interrupted: " +
            std::to_string(result.cancelled()) + " of " +
            std::to_string(result.jobs.size()) + " jobs not run");
        if (!journal.empty())
            e.withContext("completed jobs are checkpointed; rerun "
                          "with --resume=" + journal);
        throwError(std::move(e));
    }
    // Resource-killed jobs (TimedOut / OverBudget) always render as
    // gaps: a deadline cutting a sweep short is the behavior the
    // flag asked for, not a malfunction. Only genuine failures need
    // --keep-going to continue.
    if (result.failures() > 0 && !args.keep_going) {
        Error e;
        for (const JobResult &j : result.jobs)
            if (j.status == JobStatus::Failed) {
                e = j.error;
                break;
            }
        throwError(std::move(e.withContext(
            "sweep '" + label + "' (pass --keep-going to render "
            "failed points as gaps)")));
    }
    return result;
}

std::vector<RunOutput>
runSweep(const std::vector<RunSpec> &specs, const CommonArgs &args,
         const std::string &label)
{
    // Route through the checked engine so --retries / --journal /
    // --resume work for every bench; callers of this signature need
    // every output, so any failure (already reported per job) is
    // rethrown regardless of --keep-going — including resource
    // kills, which the checked path would render as gaps.
    CommonArgs strict = args;
    strict.keep_going = false;
    SweepResult result = runSweepChecked(specs, strict, label);
    if (!result.allOk())
        throwError(Error(result.firstError())
                       .withContext("sweep '" + label +
                                    "' needs every point; it cannot "
                                    "render gaps"));
    std::vector<RunOutput> outs;
    outs.reserve(result.jobs.size());
    for (JobResult &j : result.jobs)
        outs.push_back(std::move(j.output));
    return outs;
}

int
sweepExitCode(const SweepResult &result)
{
    // Resource kills outrank plain failures: exit 4 tells a driver
    // "raise the deadline/budget", exit 2 "inspect the errors".
    if (result.resourceKilled() > 0)
        return 4;
    return result.failures() == 0 ? 0 : 2;
}

std::string
gapCell()
{
    return "-";
}

std::vector<std::string>
gapRow(const std::string &head, std::size_t cols)
{
    std::vector<std::string> row;
    row.reserve(cols + 1);
    row.push_back(head);
    for (std::size_t i = 0; i < cols; ++i)
        row.push_back(gapCell());
    return row;
}

void
runJobs(std::vector<std::function<void()>> jobs,
        const CommonArgs &args, const std::string &label)
{
    exec::ProgressMeter meter(jobs.size(), args.progress, label);
    exec::runJobs(std::move(jobs), args.jobs,
                  args.progress ? &meter : nullptr);
}

void
maybeWriteSweepJson(const CommonArgs &args,
                    const std::vector<RunSpec> &specs,
                    const std::vector<RunOutput> &outs)
{
    if (args.json_path.empty())
        return;
    Expected<void> ok =
        exec::writeSweepJsonFile(args.json_path, specs, outs);
    if (!ok.ok())
        throwError(ok.takeError().withContext("--json"));
}

void
maybeWriteSweepJson(const CommonArgs &args,
                    const std::vector<RunSpec> &specs,
                    const SweepResult &result)
{
    if (args.json_path.empty())
        return;
    Expected<void> ok =
        exec::writeSweepJsonFile(args.json_path, specs, result);
    if (!ok.ok())
        throwError(ok.takeError().withContext("--json"));
}

} // namespace bench
} // namespace assoc
