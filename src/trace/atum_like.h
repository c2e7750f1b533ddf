/**
 * @file
 * Synthetic ATUM-like multiprogrammed trace generator.
 *
 * The paper's evaluation drives a two-level cache hierarchy with one
 * very large trace built by concatenating 23 ATUM traces (~350,000
 * references each) of a multiprogrammed VAX operating-system
 * workload, flushing both cache levels between the pieces (Table 3).
 * ATUM traces are not redistributable, so this generator produces a
 * statistically similar stream: the same segmented structure and
 * flush markers, a multiprogrammed mix of user processes plus OS
 * activity with context switches, per-process virtual address
 * spaces (skewed high tag bits), and locality calibrated so the
 * three level-one caches of the paper land near the miss ratios
 * reported in Table 3 (0.1181 / 0.0657 / 0.0513).
 */

#ifndef ASSOC_TRACE_ATUM_LIKE_H
#define ASSOC_TRACE_ATUM_LIKE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/process_model.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace assoc {
namespace trace {

/** Configuration of the synthetic multiprogrammed trace. */
struct AtumLikeConfig
{
    /** Master seed: the whole trace is a pure function of it. */
    std::uint64_t seed = 0x1989'0605;

    /** Number of concatenated sub-traces ("segments"). */
    unsigned segments = 23;
    /** References per segment (paper: ~350,000). */
    std::uint64_t refs_per_segment = 350000;
    /** Emit a flush marker between segments (cold caches). */
    bool flush_between_segments = true;

    /** User processes per segment (the OS is extra, pid 0). */
    unsigned processes = 4;
    /** Mean references between context switches. */
    std::uint64_t switch_mean = 6000;
    /** Probability that a scheduling burst runs the OS process. */
    double os_burst_prob = 0.12;
    /** OS bursts are shorter: mean references per OS burst. */
    std::uint64_t os_burst_mean = 1500;

    /** Behaviour knobs applied to every user process. */
    ProcessParams user;
    /** Behaviour knobs of the OS pseudo-process. */
    ProcessParams os;

    AtumLikeConfig()
    {
        // The OS touches more code and a wider data footprint with
        // poorer locality than user processes (interrupt handlers,
        // buffer management): a large driver of the paper's fairly
        // high L1 miss ratios.
        os.ifetch_fraction = 0.60;
        os.functions = 96;
        os.jump_prob = 0.16;
        os.new_block_prob = 0.05;
        os.short_reuse_prob = 0.65;
        os.geom_p = 0.10;
        os.zipf_theta = 0.75;
    }
};

/**
 * Check a configuration without constructing a generator. Returns a
 * Usage error describing the first invalid field, or ok.
 */
Error validateConfig(const AtumLikeConfig &cfg);

/**
 * The generator. A resettable TraceSource: reset() replays the
 * identical stream (it is a pure function of the config seed).
 * The constructor throws ErrorException (a FatalError) when
 * validateConfig() rejects @p cfg.
 */
class AtumLikeGenerator : public TraceSource
{
  public:
    explicit AtumLikeGenerator(const AtumLikeConfig &cfg = {});

    bool next(MemRef &ref) override;
    void reset() override;

    /** Total references this source will emit (including flush
     *  markers). */
    std::uint64_t totalRefs() const;

    /**
     * Write segment @p seg alone to @p out: the config's
     * refs_per_segment references, exactly the records the serial
     * stream emits for it. The flush marker that follows the segment
     * in the stream is not written. The generator is left where the
     * stream stands after the segment's last reference, so next()
     * continues from there. Segments share no state, so separate
     * generators can write the segments of one trace concurrently.
     */
    void emitSegment(unsigned seg, MemRef *out);

    /** The configuration in use. */
    const AtumLikeConfig &config() const { return cfg_; }

  private:
    void startSegment(unsigned seg);
    void scheduleBurst();
    /** The current segment's next reference. */
    MemRef nextInSegment();

    AtumLikeConfig cfg_;
    /** Burst lengths: OS bursts and user time slices. */
    Geometric os_burst_;
    Geometric user_burst_;

    unsigned segment_ = 0;
    std::uint64_t emitted_in_segment_ = 0;
    bool flush_pending_ = false;
    bool done_ = false;

    Pcg32 sched_rng_;
    std::vector<std::unique_ptr<ProcessModel>> procs_; ///< [0]=OS
    std::size_t current_proc_ = 0;
    std::uint64_t burst_left_ = 0;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_ATUM_LIKE_H
