/**
 * @file
 * Differential fuzzer for the lookup schemes (src/check).
 *
 * Samples random cache hierarchies, scheme parameterizations and
 * synthetic traces, runs one ground-truth simulation per case with
 * every scheme metered, and checks each lookup against the invariant
 * catalog (probe bounds, reference re-execution, oracle agreement,
 * step-1 superset, LRU-stack integrity, inclusion) plus the exact
 * Section 2 probe-cost identities. Every failure prints a one-line
 * repro command and a minimized counterexample trace.
 *
 *   fuzz_diff --iterations=10000 --seed=1      # campaign
 *   fuzz_diff --seed=1 --config=123            # replay one case
 *   fuzz_diff --inject=naive-skip              # harness self-test
 *   fuzz_diff --digest --iterations=50         # determinism digest
 *   fuzz_diff --inject-faults --iterations=200 # fault campaign
 *   fuzz_diff --threads=4 --iterations=200     # concurrent service
 *                                              # campaign (src/svc)
 *   fuzz_diff --svc-chaos --iterations=250     # overload/shedding
 *                                              # chaos campaign
 *
 * Exit codes follow the repository convention: 0 ok, 1 usage or a
 * failing campaign, 2 data, 3 internal.
 */

#include <iostream>

#include "check/fault_campaign.h"
#include "check/fuzz.h"
#include "check/svc_chaos.h"
#include "check/svc_check.h"
#include "exec/sweep.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/error.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace {

using namespace assoc;

/** Digest a short AtumLike stream: cross-process bit-identical
 *  synthetic trace generation. */
std::uint64_t
atumDigest(std::uint64_t seed)
{
    trace::AtumLikeConfig cfg;
    cfg.seed = seed;
    cfg.segments = 2;
    cfg.refs_per_segment = 20000;
    trace::AtumLikeGenerator gen(cfg);
    std::uint64_t h = kFnvInit;
    trace::MemRef r;
    while (gen.next(r)) {
        fnvMix(h, r.addr);
        fnvMix(h, static_cast<std::uint64_t>(r.type));
        fnvMix(h, r.pid);
    }
    return h;
}

/** Digest a small parallel sweep (jobs=2): RunOutputs must be
 *  bit-identical across processes and thread schedules. A job that
 *  does not finish Ok is an error, never part of a digest. */
std::uint64_t
sweepDigest(std::uint64_t seed)
{
    trace::AtumLikeConfig tcfg;
    tcfg.seed = seed;
    tcfg.segments = 1;
    tcfg.refs_per_segment = 20000;

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

    exec::SweepOptions opt;
    opt.jobs = 2;
    exec::SweepResult run = exec::runSweepChecked(specs, tcfg, opt);
    if (!run.allOk())
        throwError(Error(run.firstError())
                       .withContext("--digest sweep"));

    std::uint64_t h = kFnvInit;
    for (const exec::JobResult &job : run.jobs) {
        const sim::RunOutput &out = job.output;
        fnvMix(h, out.stats.proc_refs);
        fnvMix(h, out.stats.l1_misses);
        fnvMix(h, out.stats.read_in_hits);
        fnvMix(h, out.stats.write_backs);
        for (const core::ProbeStats &ps : out.probes) {
            fnvMix(h, ps.read_in_hits.count());
            fnvMix(h, static_cast<std::uint64_t>(ps.read_in_hits.sum()));
            fnvMix(h,
                   static_cast<std::uint64_t>(ps.read_in_misses.sum()));
            fnvMix(h, static_cast<std::uint64_t>(ps.write_backs.sum()));
        }
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fuzz_diff",
                   "differential fuzzing + invariant checks for all "
                   "lookup schemes");
    args.addFlag("seed", "1", "campaign master seed");
    args.addFlag("iterations", "1000", "fuzz cases to run");
    args.addFlag("config", "",
                 "replay exactly one case index from the campaign");
    args.addFlag("inject", "none",
                 "deliberately broken scheme (harness self-test): "
                 "none|naive-skip|mru-undercount|partial-filter|"
                 "memo-stale");
    args.addFlag("max-failures", "1",
                 "stop after this many failing cases");
    args.addSwitch("no-minimize",
                   "report failing traces without ddmin shrinking");
    args.addSwitch("digest",
                   "print determinism digests (fuzz + trace + "
                   "parallel sweep) and exit");
    args.addFlag("threads", "",
                 "run the concurrent service campaign (src/svc) "
                 "with this many client threads per case instead "
                 "of the scheme fuzzer; 0 samples 2-4 threads per "
                 "case. Failing cases echo the flag in their repro "
                 "line");
    args.addSwitch("inject-faults",
                   "run the fault-injection campaign (corrupted "
                   "traces, failing jobs, cancel + resume, hang / "
                   "slow / oom runaways) instead of the scheme "
                   "fuzzer");
    args.addSwitch("svc-chaos",
                   "run the service overload/shedding chaos "
                   "campaign (lock-holder stall, tenant flood, "
                   "budget squeeze, deadline storm; each case run "
                   "twice and diffed) instead of the scheme fuzzer");
    args.addFlag("job-timeout", "",
                 "watchdog deadline for the campaign's hang cases "
                 "(e.g. 50ms; default 50ms); failing runaway cases "
                 "echo it in their repro line");
    args.addSwitch("quiet", "suppress the summary line");
    return guardedMain("fuzz_diff", [&]() -> int {
        if (!args.parse(argc, argv))
            return 0;
        if (args.getBool("svc-chaos")) {
            check::SvcChaosOptions opt;
            opt.seed = args.getUint("seed");
            opt.iterations = args.getUint("iterations");
            if (args.given("threads"))
                opt.threads = args.getUint32("threads");
            if (args.given("config")) {
                opt.have_only_case = true;
                opt.only_case = args.getUint("config");
            }
            opt.max_failures = args.getUint32("max-failures");
            opt.log = &std::cerr;

            check::SvcChaosSummary sum = check::runSvcChaos(opt);
            if (args.getBool("digest")) {
                std::cout << "digest chaos=0x" << std::hex
                          << sum.digest << std::dec << "\n";
            } else if (!args.getBool("quiet")) {
                std::cout << "fuzz_diff: " << sum.cases_run
                          << " chaos cases, " << sum.ops
                          << " requests (" << sum.totals.shed()
                          << " shed, " << sum.totals.degraded
                          << " degraded, " << sum.totals.failed()
                          << " failed), " << sum.failures.size()
                          << " failing case(s)\n";
            }
            return sum.ok() ? 0 : 1;
        }

        if (args.given("threads")) {
            check::SvcFuzzOptions opt;
            opt.seed = args.getUint("seed");
            opt.iterations = args.getUint("iterations");
            opt.threads = args.getUint32("threads");
            if (args.given("config")) {
                opt.have_only_case = true;
                opt.only_case = args.getUint("config");
            }
            opt.max_failures = args.getUint32("max-failures");
            opt.log = &std::cerr;

            check::SvcFuzzSummary sum = check::runSvcFuzz(opt);
            if (args.getBool("digest")) {
                std::cout << "digest svc=0x" << std::hex
                          << sum.digest << std::dec << "\n";
            } else if (!args.getBool("quiet")) {
                std::cout << "fuzz_diff: " << sum.cases_run
                          << " svc cases, " << sum.ops
                          << " service ops applied, "
                          << sum.failures.size()
                          << " failing case(s)\n";
            }
            return sum.ok() ? 0 : 1;
        }

        if (args.getBool("inject-faults")) {
            check::FaultCampaignOptions opt;
            opt.seed = args.getUint("seed");
            opt.iterations = args.getUint("iterations");
            if (args.given("config")) {
                opt.have_only_case = true;
                opt.only_case = args.getUint("config");
            }
            opt.max_failures = args.getUint32("max-failures");
            opt.log = &std::cerr;
            if (args.given("job-timeout")) {
                Expected<std::uint64_t> ns =
                    parseDuration(args.getString("job-timeout"));
                if (!ns.ok())
                    throwError(Error(ns.error())
                                   .withContext("--job-timeout"));
                opt.job_timeout_ns = ns.value();
            }

            check::FaultCampaignSummary sum =
                check::runFaultCampaign(opt);
            if (!args.getBool("quiet")) {
                std::cout << "fuzz_diff: " << sum.cases_run
                          << " fault cases, " << sum.faults_injected
                          << " faults injected, "
                          << sum.failures.size()
                          << " contract violation(s)\n";
            }
            return sum.ok() ? 0 : 1;
        }

        check::FuzzOptions opt;
        opt.seed = args.getUint("seed");
        opt.iterations = args.getUint("iterations");
        if (args.given("config")) {
            opt.have_only_case = true;
            opt.only_case = args.getUint("config");
        }
        opt.inject = check::bugInjectionFromString(
            args.getString("inject"));
        opt.max_failures = args.getUint32("max-failures");
        opt.minimize = !args.getBool("no-minimize");
        opt.log = &std::cerr;

        check::FuzzSummary sum = check::runFuzz(opt);

        if (args.getBool("digest")) {
            std::cout << "digest fuzz=0x" << std::hex << sum.digest
                      << " atum=0x" << atumDigest(opt.seed)
                      << " sweep=0x" << sweepDigest(opt.seed)
                      << std::dec << "\n";
        } else if (!args.getBool("quiet")) {
            std::cout << "fuzz_diff: " << sum.cases_run << " cases, "
                      << sum.accesses << " lookups audited, "
                      << sum.failures.size() << " failing case(s)\n";
        }
        return sum.ok() ? 0 : 1;
    });
}
