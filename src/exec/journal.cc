#include "exec/journal.h"

#include <bit>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "util/fnv.h"
#include "util/stats.h"

namespace assoc {
namespace exec {

namespace {

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

    /** A string written with std::quoted (names may hold spaces). */
    bool
    quoted(std::string &out)
    {
        return static_cast<bool>(iss_ >> std::quoted(out));
    }

    /** A counter, in decimal unless @p base says otherwise, written
     *  after @p prefix (e.g. "d=" before a digest). */
    bool
    number(std::uint64_t &out, int base = 10, std::string_view prefix = "")
    {
        std::string tok;
        if (!word(tok) || !tok.starts_with(prefix))
            return false;
        try {
            std::size_t pos = 0;
            out = std::stoull(tok.substr(prefix.size()), &pos, base);
            return pos == tok.size() - prefix.size();
        } catch (const std::logic_error &) {
            return false;
        }
    }

    /** A double, as the hex of its bits. */
    bool
    number(double &out)
    {
        std::uint64_t u = 0;
        if (!number(u, 16))
            return false;
        out = std::bit_cast<double>(u);
        return true;
    }

    /** Expect the literal keyword @p kw next. */
    bool
    keyword(const char *kw)
    {
        std::string tok;
        return word(tok) && tok == kw;
    }

    /** The rest of the line, after its separating space. */
    std::string
    rest()
    {
        std::string out;
        std::getline(iss_, out);
        return out.starts_with(' ') ? out.substr(1) : out;
    }

  private:
    std::istringstream iss_;
};

/** Append every number of @p record, in its list's order: counters
 *  in decimal, doubles as the hex of their bits. */
template <class Record>
void
encodeStats(std::ostringstream &os, const Record &record)
{
    forEachStat(record, [&](const char *, const auto &v, StatClass) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                     double>)
            os << " " << hex16(std::bit_cast<std::uint64_t>(v));
        else
            os << " " << v;
    });
}

/** Read back what encodeStats() wrote. */
template <class Record>
bool
decodeStats(TokenReader &r, Record &record)
{
    bool ok = true;
    forEachStat(record, [&](const char *, auto &v, StatClass) {
        ok = ok && r.number(v);
    });
    return ok;
}

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
    fnvMix(h, std::bit_cast<std::uint64_t>(spec.coherency_rate));
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
    os << "v3 stats";
    encodeStats(os, out.stats);
    os << " schemes " << out.probes.size();
    for (std::size_t i = 0; i < out.probes.size(); ++i) {
        os << " " << std::quoted(i < out.names.size() ? out.names[i]
                                                      : std::string());
        encodeStats(os, out.probes[i]);
    }
    os << " f " << out.f.size();
    for (double v : out.f)
        os << " " << hex16(std::bit_cast<std::uint64_t>(v));
    os << " occ " << hex16(std::bit_cast<std::uint64_t>(out.mean_occupancy));
    os << " skips " << out.skipped_records;
    return os.str();
}

Expected<sim::RunOutput>
decodeRunOutput(const std::string &payload)
{
    // Older payloads (v1, v2) left counters out, so they fail here
    // and their jobs run again rather than resume with zeros.
    Error bad = Error::data("corrupt journal payload");
    TokenReader r(payload);
    sim::RunOutput out;
    if (!r.keyword("v3") || !r.keyword("stats") ||
        !decodeStats(r, out.stats))
        return bad;

    std::uint64_t n = 0;
    if (!r.keyword("schemes") || !r.number(n) || n > 1000)
        return bad;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        core::ProbeStats p;
        if (!r.quoted(name) || !decodeStats(r, p))
            return bad;
        out.names.push_back(std::move(name));
        out.probes.push_back(p);
    }

    if (!r.keyword("f") || !r.number(n) || n > 100000)
        return bad;
    out.f.resize(n);
    for (std::uint64_t i = 0; i < n; ++i)
        if (!r.number(out.f[i]))
            return bad;

    if (!r.keyword("occ") || !r.number(out.mean_occupancy) ||
        !r.keyword("skips") || !r.number(out.skipped_records))
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
        TokenReader r(line);
        std::string kind;
        r.word(kind);
        if (kind == "meta") {
            if (!r.number(data.spec_hash, 16, "hash=") ||
                !r.number(data.jobs, 10, "jobs="))
                return Error::data("journal '" + path +
                                   "': bad meta line")
                    .withContext("line " + std::to_string(lineno));
            have_meta = true;
            continue;
        }
        std::uint64_t index = 0, digest = 0;
        Expected<sim::RunOutput> out = Error::data("not a job line");
        if (kind == "job" && r.number(index) &&
            r.number(digest, 16, "d=")) {
            std::string payload = r.rest();
            if (fnvString(payload) == digest)
                out = decodeRunOutput(payload);
        }
        if (!out) {
            ++data.dropped_lines; // unknown, torn or corrupted line
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
