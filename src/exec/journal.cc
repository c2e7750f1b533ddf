#include "exec/journal.h"

#include <cstring>
#include <sstream>

#include "util/fnv.h"

namespace assoc {
namespace exec {

namespace {

std::uint64_t
doubleBits(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

double
bitsDouble(std::uint64_t u)
{
    double d = 0.0;
    std::memcpy(&d, &u, sizeof(d));
    return d;
}

/** Hex-encode a string (names may contain spaces). */
std::string
hexString(const std::string &s)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() * 2);
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        out += digits[u >> 4];
        out += digits[u & 0xf];
    }
    return out.empty() ? "-" : out;
}

bool
unhexString(const std::string &h, std::string &out)
{
    out.clear();
    if (h == "-")
        return true;
    if (h.size() % 2 != 0)
        return false;
    auto nib = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    };
    for (std::size_t i = 0; i < h.size(); i += 2) {
        int hi = nib(h[i]), lo = nib(h[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out += static_cast<char>((hi << 4) | lo);
    }
    return true;
}

/** Token-level reader with failure latching. */
class TokenReader
{
  public:
    explicit TokenReader(const std::string &s) : iss_(s) {}

    bool
    word(std::string &out)
    {
        return static_cast<bool>(iss_ >> out);
    }

    bool
    u64(std::uint64_t &out)
    {
        std::string tok;
        if (!word(tok))
            return false;
        try {
            std::size_t pos = 0;
            out = std::stoull(tok, &pos, 10);
            return pos == tok.size();
        } catch (const std::logic_error &) {
            return false;
        }
    }

    bool
    hexU64(std::uint64_t &out)
    {
        std::string tok;
        if (!word(tok))
            return false;
        try {
            std::size_t pos = 0;
            out = std::stoull(tok, &pos, 16);
            return pos == tok.size();
        } catch (const std::logic_error &) {
            return false;
        }
    }

    bool
    bitsDoubleTok(double &out)
    {
        std::uint64_t u = 0;
        if (!hexU64(u))
            return false;
        out = bitsDouble(u);
        return true;
    }

    /** Expect the literal keyword @p kw next. */
    bool
    keyword(const char *kw)
    {
        std::string tok;
        return word(tok) && tok == kw;
    }

  private:
    std::istringstream iss_;
};

void
encodeAccum(std::ostringstream &os, const MeanAccum &a)
{
    os << " " << hex16(doubleBits(a.sum())) << " "
       << hex16(doubleBits(a.sumSquares())) << " " << a.count();
}

bool
decodeAccum(TokenReader &r, MeanAccum &a)
{
    double sum = 0.0, sumsq = 0.0;
    std::uint64_t n = 0;
    if (!r.bitsDoubleTok(sum) || !r.bitsDoubleTok(sumsq) || !r.u64(n))
        return false;
    a = MeanAccum::fromRaw(sum, sumsq, n);
    return true;
}

} // namespace

namespace {

/** Fold one spec's result-relevant fields into @p h. */
void
fnvMixSpec(std::uint64_t &h, const sim::RunSpec &spec)
{
    for (const mem::CacheGeometry *g :
         {&spec.hier.l1, &spec.hier.l2}) {
        fnvMix(h, g->sizeBytes());
        fnvMix(h, g->blockBytes());
        fnvMix(h, g->assoc());
    }
    fnvMix(h, spec.hier.allocate_on_wb_miss);
    fnvMix(h, spec.hier.enforce_inclusion);
    fnvMix(h, static_cast<std::uint64_t>(spec.hier.write_policy));
    fnvMix(h, static_cast<std::uint64_t>(spec.hier.l2_replacement));
    fnvMix(h, spec.schemes.size());
    for (const core::SchemeSpec &s : spec.schemes) {
        fnvMix(h, static_cast<std::uint64_t>(s.kind));
        fnvMix(h, s.mru_list_len);
        fnvMix(h, s.partial_k);
        fnvMix(h, s.partial_subsets);
        fnvMix(h, static_cast<std::uint64_t>(s.transform));
        fnvMix(h, s.tag_bits);
        fnvMix(h, s.memo_entries);
        fnvMix(h, s.memo_region_bits);
        fnvMix(h, s.memo_tagged);
        fnvMix(h, static_cast<std::uint64_t>(s.memo_underlying));
    }
    fnvMix(h, spec.wb_optimization);
    fnvMix(h, spec.with_distances);
    fnvMix(h, doubleBits(spec.coherency_rate));
    fnvMix(h, spec.occupancy_sample_period);
}

} // namespace

std::uint64_t
hashSpecs(const std::vector<sim::RunSpec> &specs, std::uint64_t salt)
{
    std::uint64_t h = kFnvInit;
    fnvMix(h, salt);
    fnvMix(h, specs.size());
    for (const sim::RunSpec &spec : specs)
        fnvMixSpec(h, spec);
    return h;
}

std::uint64_t
hashSpec(const sim::RunSpec &spec)
{
    std::uint64_t h = kFnvInit;
    fnvMixSpec(h, spec);
    return h;
}

std::string
encodeRunOutput(const sim::RunOutput &out)
{
    std::ostringstream os;
    const mem::HierarchyStats &st = out.stats;
    os << "v2 stats";
    for (std::uint64_t v :
         {st.proc_refs, st.l1_hits, st.l1_misses, st.read_ins,
          st.read_in_hits, st.read_in_misses, st.write_backs,
          st.write_back_hits, st.write_back_misses, st.hint_correct,
          st.hint_wrong, st.flushes, st.inclusion_invalidations,
          st.inclusion_dirty_invalidations,
          st.coherency_invalidations})
        os << " " << v;
    os << " schemes " << out.probes.size();
    for (std::size_t i = 0; i < out.probes.size(); ++i) {
        const core::ProbeStats &p = out.probes[i];
        os << " " << hexString(i < out.names.size() ? out.names[i]
                                                    : std::string());
        encodeAccum(os, p.read_in_hits);
        encodeAccum(os, p.read_in_misses);
        encodeAccum(os, p.write_backs);
        os << " " << p.alias_hits << " " << p.alias_wrong_way;
    }
    os << " f " << out.f.size();
    for (double v : out.f)
        os << " " << hex16(doubleBits(v));
    os << " occ " << hex16(doubleBits(out.mean_occupancy));
    os << " coh " << out.coherency_invalidations;
    os << " skips " << out.skipped_records;
    return os.str();
}

Expected<sim::RunOutput>
decodeRunOutput(const std::string &payload)
{
    Error bad = Error::data("corrupt journal payload");
    TokenReader r(payload);
    std::string version;
    if (!r.word(version) || (version != "v1" && version != "v2") ||
        !r.keyword("stats"))
        return bad;

    sim::RunOutput out;
    mem::HierarchyStats &st = out.stats;
    for (std::uint64_t *v :
         {&st.proc_refs, &st.l1_hits, &st.l1_misses, &st.read_ins,
          &st.read_in_hits, &st.read_in_misses, &st.write_backs,
          &st.write_back_hits, &st.write_back_misses, &st.hint_correct,
          &st.hint_wrong, &st.flushes, &st.inclusion_invalidations,
          &st.inclusion_dirty_invalidations,
          &st.coherency_invalidations})
        if (!r.u64(*v))
            return bad;

    std::uint64_t n = 0;
    if (!r.keyword("schemes") || !r.u64(n) || n > 1000)
        return bad;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string hexname, name;
        if (!r.word(hexname) || !unhexString(hexname, name))
            return bad;
        core::ProbeStats p;
        if (!decodeAccum(r, p.read_in_hits) ||
            !decodeAccum(r, p.read_in_misses) ||
            !decodeAccum(r, p.write_backs) || !r.u64(p.alias_hits) ||
            !r.u64(p.alias_wrong_way))
            return bad;
        out.names.push_back(std::move(name));
        out.probes.push_back(p);
    }

    if (!r.keyword("f") || !r.u64(n) || n > 100000)
        return bad;
    out.f.resize(n);
    for (std::uint64_t i = 0; i < n; ++i)
        if (!r.bitsDoubleTok(out.f[i]))
            return bad;

    if (!r.keyword("occ") || !r.bitsDoubleTok(out.mean_occupancy))
        return bad;
    if (!r.keyword("coh") || !r.u64(out.coherency_invalidations))
        return bad;
    // v1 predates skip accounting; those journals decode with 0.
    if (version == "v2" &&
        (!r.keyword("skips") || !r.u64(out.skipped_records)))
        return bad;
    return out;
}

Expected<JournalData>
readJournal(const std::string &path, MemBudget *budget)
{
    std::ifstream in(path);
    if (!in)
        return Error::io("cannot open journal '" + path + "'");

    JournalData data;
    std::string line;
    bool have_meta = false;
    std::uint64_t lineno = 0;
    // Guards the reader's buffers: every journal byte read is
    // charged until the entries are handed to the caller, so a
    // runaway journal file fails with a budget error, not an OOM.
    MemCharge read_charge;
    std::uint64_t charged = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (budget && !line.empty()) {
            // Re-charge the running total (release first so the old
            // and new charges never overlap).
            read_charge.release();
            Expected<MemCharge> c = MemCharge::charge(
                budget, charged + line.size(),
                "journal '" + path + "' read buffers");
            if (!c.ok())
                return Error(c.error())
                    .withContext("reading journal line " +
                                 std::to_string(lineno));
            read_charge = c.take();
            charged += line.size();
        }
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream iss(line);
        std::string kind;
        iss >> kind;
        if (kind == "meta") {
            std::string hash_kv, jobs_kv;
            iss >> hash_kv >> jobs_kv;
            if (hash_kv.rfind("hash=", 0) != 0 ||
                jobs_kv.rfind("jobs=", 0) != 0)
                return Error::data("journal '" + path +
                                   "': bad meta line")
                    .withContext("line " + std::to_string(lineno));
            try {
                data.spec_hash = std::stoull(hash_kv.substr(5),
                                             nullptr, 16);
                data.jobs = std::stoull(jobs_kv.substr(5));
            } catch (const std::logic_error &) {
                return Error::data("journal '" + path +
                                   "': bad meta line")
                    .withContext("line " + std::to_string(lineno));
            }
            have_meta = true;
            continue;
        }
        if (kind != "job") {
            ++data.dropped_lines; // unknown/torn line
            continue;
        }
        std::string idx_tok, d_kv;
        iss >> idx_tok >> d_kv;
        std::size_t index = 0;
        std::uint64_t digest = 0;
        try {
            index = std::stoull(idx_tok);
            if (d_kv.rfind("d=", 0) != 0)
                throw std::invalid_argument("digest");
            digest = std::stoull(d_kv.substr(2), nullptr, 16);
        } catch (const std::logic_error &) {
            ++data.dropped_lines;
            continue;
        }
        std::string payload;
        std::getline(iss, payload);
        if (!payload.empty() && payload[0] == ' ')
            payload.erase(0, 1);
        if (fnvString(payload) != digest) {
            ++data.dropped_lines; // torn or corrupted record
            continue;
        }
        Expected<sim::RunOutput> out = decodeRunOutput(payload);
        if (!out) {
            ++data.dropped_lines;
            continue;
        }
        data.entries[index] = out.take(); // duplicates: last wins
    }
    if (!have_meta)
        return Error::data("journal '" + path +
                           "' has no meta line (not a journal, or "
                           "the header write was lost)");
    return data;
}

Error
JournalWriter::open(const std::string &path, std::uint64_t spec_hash,
                    std::uint64_t jobs, bool append)
{
    path_ = path;
    bool write_header = true;
    if (append) {
        std::ifstream probe(path);
        write_header = !probe || probe.peek() == EOF;
    }
    out_.open(path, append ? (std::ios::out | std::ios::app)
                           : (std::ios::out | std::ios::trunc));
    if (!out_)
        return Error::io("cannot open journal '" + path +
                         "' for writing");
    if (write_header) {
        out_ << "# assoc sweep journal v1\n";
        out_ << "meta hash=" << hex16(spec_hash) << " jobs=" << jobs
             << "\n";
        out_.flush();
        if (!out_.good())
            return Error::io("error writing journal '" + path + "'");
    }
    return Error();
}

Error
JournalWriter::append(std::size_t index, const sim::RunOutput &out)
{
    std::string payload = encodeRunOutput(out);
    out_ << "job " << index << " d=" << hex16(fnvString(payload)) << " "
         << payload << "\n";
    out_.flush();
    if (!out_.good())
        return Error::io("error appending to journal '" + path_ + "'");
    return Error();
}

Error
JournalWriter::close()
{
    if (!out_.is_open())
        return Error();
    out_.flush();
    bool good = out_.good();
    out_.close();
    if (!good || !out_)
        return Error::io("error closing journal '" + path_ + "'");
    return Error();
}

} // namespace exec
} // namespace assoc
