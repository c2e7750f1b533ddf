/**
 * @file
 * Trace-file toolbox: generate, convert, inspect, damage, and replay
 * .din and framed .ftr traces.
 *
 * Subcommands (first positional argument):
 *   gen <out>        generate an ATUM-like corpus straight to disk
 *                    (--refs=180M writes ~180 million references in
 *                    bounded memory; format from the extension)
 *   convert <in> <out>  re-encode any trace file; the output format
 *                    follows the extension (.din or .ftr)
 *   stats <in>       print the reference mix and footprint (32-byte
 *                    blocks) of the whole trace, then one row per
 *                    flush-delimited segment
 *   info <in>        print header / frame-index facts
 *   verify <in>      stream every frame, print record count + digest
 *                    (exit 2 on damage under the chosen --errors)
 *   corrupt <file>   deterministic damage: --flips, --truncate,
 *                    --tear-footer, --crash (for tests and CI
 *                    smoke runs)
 *   sweep <in>       replay the file through a small scheme sweep
 *                    (--json, --journal/--resume, --jobs,
 *                    --mem-budget, --errors) — the end-to-end
 *                    recovery path CI exercises on damaged corpora.
 *                    A clean .ftr is decoded once, frames in
 *                    parallel, into one buffer its jobs share (and
 *                    its level one is simulated once), when the
 *                    --mem-budget admits it; a damaged or unindexed
 *                    file, a .din, or a smaller budget streams one
 *                    reader per job, with the same output
 *
 *   $ trace_pack gen /tmp/big.ftr --refs=8M --frame-records=64K
 *   $ trace_pack convert /tmp/big.ftr /tmp/big.din
 *   $ trace_pack stats /tmp/big.din --errors=skip
 *   $ trace_pack corrupt /tmp/big.ftr --flips=16 --seed=9
 *   $ trace_pack sweep /tmp/big.ftr --errors=skip --mem-budget=256M
 */

#include <cstdio>
#include <iostream>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "trace/atum_like.h"
#include "trace/ftr_reader.h"
#include "trace/trace_file.h"
#include "trace/trace_stats.h"
#include "util/argparse.h"
#include "util/error.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/table.h"

using namespace assoc;
using namespace assoc::trace;

namespace {

/** FNV-1a over the raw record fields: a cheap replay digest that is
 *  bit-identical across readers iff the streams are. */
class TraceDigest
{
  public:
    void
    add(const MemRef &r)
    {
        fnvByte(h_, r.addr & 0xff);
        fnvByte(h_, (r.addr >> 8) & 0xff);
        fnvByte(h_, (r.addr >> 16) & 0xff);
        fnvByte(h_, (r.addr >> 24) & 0xff);
        fnvByte(h_, static_cast<std::uint8_t>(r.type));
        fnvByte(h_, r.pid);
        ++n_;
    }

    std::uint64_t value() const { return h_; }
    std::uint64_t records() const { return n_; }

  private:
    std::uint64_t h_ = kFnvInit;
    std::uint64_t n_ = 0;
};

ErrorPolicy
policyFromArgs(const ArgParser &args)
{
    ErrorPolicy policy;
    Expected<ErrorMode> mode =
        errorModeFromString(args.getString("errors"));
    if (!mode.ok())
        throwError(Error(mode.error()).withContext("--errors"));
    policy.mode = mode.value();
    policy.max_skips = args.getUint("max-skips");
    return policy;
}

/** After a full read of @p path: throw the reader's error, or
 *  report the records it skipped as damaged. */
void
finishRead(const TraceSource &in, const std::string &path)
{
    throwIfFailed(in);
    if (in.skippedRecords() > 0)
        std::fprintf(stderr,
                     "trace_pack: skipped %llu damaged record(s) in "
                     "%s\n",
                     static_cast<unsigned long long>(
                         in.skippedRecords()),
                     path.c_str());
}

/** Counts with size suffixes: --refs=8M, --frame-records=64K. */
std::uint64_t
countArg(const ArgParser &args, const std::string &name)
{
    Expected<std::uint64_t> n = parseByteSize(args.getString(name));
    if (!n.ok())
        throwError(Error(n.error()).withContext("--" + name));
    return n.value();
}

/** The small fixed sweep the `sweep` subcommand replays: three
 *  associativities, three lookup schemes each — big enough to be a
 *  real multi-job workload, small enough that the trace stream (not
 *  the cache planes) dominates memory. */
std::vector<sim::RunSpec>
sweepSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u}) {
        sim::RunSpec spec;
        spec.hier = {mem::CacheGeometry(4096, 16, 1),
                     mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec s;
        s.kind = core::SchemeKind::Naive;
        spec.schemes.push_back(s);
        s.kind = core::SchemeKind::Mru;
        spec.schemes.push_back(s);
        spec.schemes.push_back(core::SchemeSpec::paperPartial(a));
        specs.push_back(spec);
    }
    return specs;
}

int
cmdSweep(const ArgParser &args, const std::string &path)
{
    ErrorPolicy policy = policyFromArgs(args);
    std::vector<sim::RunSpec> specs = sweepSpecs();

    exec::SweepOptions opts;
    opts.jobs = args.getUint32("jobs");
    opts.journal_path = args.getString("journal");
    opts.resume_path = args.getString("resume");
    opts.spec_hash = exec::hashSpecs(specs, fnvString(path));
    if (args.given("mem-budget"))
        opts.mem_budget = countArg(args, "mem-budget");
    if (args.given("job-mem-budget"))
        opts.job_mem_budget = countArg(args, "job-mem-budget");

    // ^C (or a driver's SIGINT) drains in-flight jobs, checkpoints
    // the journal, and exits 130; --resume then completes the rest.
    CancelToken token;
    token.watchSigint();
    installSigintHandler();
    opts.cancel = &token;

    exec::FaultPlan plan;
    if (args.given("cancel-after"))
        plan.cancel_after =
            static_cast<std::int64_t>(args.getUint("cancel-after"));
    exec::FaultInjector inject(plan, &token);
    if (plan.cancel_after >= 0)
        opts.inject = &inject;

    exec::SweepResult result =
        exec::runSweepChecked(specs, path, policy, opts);

    std::uint64_t skipped = 0;
    std::size_t ok = 0;
    for (const exec::JobResult &job : result.jobs) {
        if (job.ok()) {
            ++ok;
            skipped += job.output.skipped_records;
        }
    }
    std::fprintf(stderr,
                 "trace_pack: %zu/%zu jobs ok, %llu records skipped "
                 "as damaged, %zu resumed from journal\n",
                 ok, result.jobs.size(),
                 static_cast<unsigned long long>(skipped),
                 static_cast<std::size_t>(result.resumed));

    if (args.given("json")) {
        std::string out = args.getString("json");
        Expected<void> wrote = {};
        if (ok == result.jobs.size()) {
            // Status-free form: byte-identical whether the sweep ran
            // clean or was killed and resumed — what the recovery
            // tests diff.
            std::vector<sim::RunOutput> outs;
            outs.reserve(result.jobs.size());
            for (const exec::JobResult &job : result.jobs)
                outs.push_back(job.output);
            wrote = exec::writeSweepJsonFile(out, specs, outs);
        } else {
            wrote = exec::writeSweepJsonFile(out, specs, result);
        }
        if (!wrote.ok())
            throwError(wrote.takeError().withContext("--json"));
    }

    if (result.interrupted)
        throwError(Error::cancelled(
            "sweep interrupted (" +
            std::to_string(result.cancelled()) +
            " jobs not run; resume with --resume=<journal>)"));
    if (ok != result.jobs.size()) {
        const exec::JobResult *bad = nullptr;
        for (const exec::JobResult &job : result.jobs)
            if (!job.ok())
                bad = &job;
        throwError(Error(bad->error)
                       .withContext(std::to_string(result.jobs.size() -
                                                   ok) +
                                    " of " +
                                    std::to_string(result.jobs.size()) +
                                    " jobs failed"));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("trace_pack",
                   "generate, convert, inspect, damage, and replay "
                   "trace files");
    args.addFlag("refs", "1M", "gen: total references (k/M suffixes)");
    args.addFlag("segments", "4", "gen: flush-delimited segments");
    args.addFlag("seed", "0", "gen/corrupt: deterministic seed");
    args.addFlag("frame-records", "64K",
                 "gen/convert: records per ftr frame");
    args.addFlag("errors", "fail-fast",
                 "damage policy: fail-fast|skip|strict");
    args.addFlag("max-skips", "100",
                 "skip mode: tolerated damaged regions");
    args.addFlag("flips", "8", "corrupt: random byte flips");
    args.addFlag("truncate", "",
                 "corrupt: cut the file to this many bytes");
    args.addSwitch("tear-footer",
                   "corrupt: rip off the ftr frame index");
    args.addSwitch("crash",
                   "corrupt: tear the index AND zero the header "
                   "total — a writer killed before finish()");
    args.addFlag("jobs", "0", "sweep: worker threads (0 = all)");
    args.addFlag("json", "", "sweep: write results here ('-' stdout)");
    args.addFlag("journal", "", "sweep: checkpoint journal path");
    args.addFlag("resume", "", "sweep: resume from this journal");
    args.addFlag("mem-budget", "",
                 "sweep: global memory budget (e.g. 256M)");
    args.addFlag("job-mem-budget", "",
                 "sweep: per-job memory budget");
    args.addFlag("cancel-after", "",
                 "sweep: trip the cancel token after N completed "
                 "jobs (deterministic kill for recovery tests)");
    return guardedMain("trace_pack", [&]() -> int {
        if (!args.parse(argc, argv))
            return 0;
        const auto &pos = args.positional();
        fatalIf(pos.empty(),
                "usage: trace_pack "
                "gen|convert|stats|info|verify|corrupt|sweep <files>");
        const std::string &cmd = pos[0];
        std::uint32_t frame_records = ArgParser::checkUint32(
            "frame-records", countArg(args, "frame-records"));

        if (cmd == "gen") {
            fatalIf(pos.size() != 2, "usage: trace_pack gen <out>");
            AtumLikeConfig cfg;
            cfg.segments = args.getUint32("segments");
            if (cfg.segments == 0)
                cfg.segments = 1;
            if (args.getUint("seed") != 0)
                cfg.seed = args.getUint("seed");
            cfg.refs_per_segment =
                std::max<std::uint64_t>(1, countArg(args, "refs") /
                                               cfg.segments);
            AtumLikeGenerator gen(cfg);
            writeTraceFile(gen, pos[1], frame_records);
            std::printf("wrote %llu references to %s\n",
                        static_cast<unsigned long long>(
                            gen.totalRefs()),
                        pos[1].c_str());
        } else if (cmd == "convert") {
            fatalIf(pos.size() != 3,
                    "usage: trace_pack convert <in> <out>");
            std::unique_ptr<TraceSource> in =
                openTraceFile(pos[1], policyFromArgs(args));
            writeTraceFile(*in, pos[2], frame_records);
            finishRead(*in, pos[1]);
            std::printf("%s -> %s\n", pos[1].c_str(), pos[2].c_str());
        } else if (cmd == "stats") {
            fatalIf(pos.size() != 2, "usage: trace_pack stats <in>");
            std::unique_ptr<TraceSource> in =
                openTraceFile(pos[1], policyFromArgs(args));
            std::vector<TraceStats> segments;
            TraceStats whole = collectStats(*in, 32, &segments);
            finishRead(*in, pos[1]);
            whole.print(std::cout);
            TextTable t;
            t.setHeader({"Segment", "Refs", "Read%", "Write%",
                         "Ifetch%", "Footprint(KB)"});
            for (std::size_t i = 0; i < segments.size(); ++i) {
                const TraceStats &seg = segments[i];
                t.addRow({std::to_string(i), TextTable::num(seg.refs),
                          TextTable::num(100 * seg.readFraction(), 1),
                          TextTable::num(100 * seg.writeFraction(), 1),
                          TextTable::num(100 * seg.ifetchFraction(), 1),
                          TextTable::num(seg.footprintBytes() / 1024)});
            }
            std::cout << "\n";
            t.print(std::cout);
        } else if (cmd == "info") {
            fatalIf(pos.size() != 2, "usage: trace_pack info <in>");
            Expected<TraceFormat> fmt = detectTraceFormat(pos[1]);
            if (!fmt.ok())
                throwError(Error(fmt.error()));
            std::printf("format: %s\n", traceFormatName(fmt.value()));
            if (fmt.value() == TraceFormat::Ftr) {
                ErrorPolicy policy = policyFromArgs(args);
                FtrTraceSource src(pos[1], policy);
                throwIfFailed(src);
                std::printf("records: %llu\n",
                            static_cast<unsigned long long>(
                                src.totalRecords()));
                std::printf("frames: %zu\n", src.frameIndex().size());
                std::printf("frame-records hint: %u\n",
                            src.frameRecords());
                std::printf("index: %s\n",
                            src.indexRebuilt() ? "rebuilt by scan"
                                               : "footer");
            }
        } else if (cmd == "verify") {
            fatalIf(pos.size() != 2, "usage: trace_pack verify <in>");
            ErrorPolicy policy = policyFromArgs(args);
            std::unique_ptr<TraceSource> in =
                openTraceFile(pos[1], policy);
            TraceDigest digest;
            MemRef r;
            while (in->next(r))
                digest.add(r);
            throwIfFailed(*in);
            std::printf("records: %llu\nskipped: %llu\ndigest: "
                        "%016llx\n",
                        static_cast<unsigned long long>(
                            digest.records()),
                        static_cast<unsigned long long>(
                            in->skippedRecords()),
                        static_cast<unsigned long long>(
                            digest.value()));
        } else if (cmd == "corrupt") {
            fatalIf(pos.size() != 2,
                    "usage: trace_pack corrupt <file>");
            std::uint64_t seed = args.getUint("seed");
            if (args.getBool("crash")) {
                std::uint64_t cut =
                    exec::FaultInjector::tearFooter(pos[1]);
                fatalIf(cut == 0,
                        "'" + pos[1] + "' has no valid ftr footer "
                        "to tear off");
                fatalIf(!exec::FaultInjector::unpatchHeader(pos[1]),
                        "'" + pos[1] + "' has no valid ftr header "
                        "to unpatch");
                std::printf("crash shape: tore %llu footer bytes "
                            "off %s and zeroed its header total\n",
                            static_cast<unsigned long long>(cut),
                            pos[1].c_str());
            } else if (args.getBool("tear-footer")) {
                std::uint64_t cut =
                    exec::FaultInjector::tearFooter(pos[1]);
                fatalIf(cut == 0,
                        "'" + pos[1] + "' has no valid ftr footer "
                        "to tear off");
                std::printf("tore %llu footer bytes off %s\n",
                            static_cast<unsigned long long>(cut),
                            pos[1].c_str());
            } else if (args.given("truncate")) {
                std::uint64_t keep = countArg(args, "truncate");
                exec::FaultInjector::truncateFile(pos[1], keep);
                std::printf("truncated %s to %llu bytes\n",
                            pos[1].c_str(),
                            static_cast<unsigned long long>(keep));
            } else {
                unsigned flips = args.getUint32("flips");
                // Protect the 32-byte file header: damage recovery
                // is frame-level; a destroyed header is a different
                // (and separately tested) failure.
                std::uint64_t flipped =
                    exec::FaultInjector::corruptBytes(
                        pos[1], seed ^ 0xf7f, flips,
                        /*skip=*/ftr::kHeaderBytes);
                std::printf("flipped %llu byte(s) of %s\n",
                            static_cast<unsigned long long>(flipped),
                            pos[1].c_str());
            }
        } else if (cmd == "sweep") {
            fatalIf(pos.size() != 2, "usage: trace_pack sweep <in>");
            return cmdSweep(args, pos[1]);
        } else {
            fatal("unknown subcommand '" + cmd + "'");
        }
        return 0;
    });
}
