#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace assoc {

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back(Row{std::move(row), false});
}

void
TextTable::addRule()
{
    rows_.push_back(Row{{}, true});
}

std::string
TextTable::num(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
TextTable::num(std::uint64_t v)
{
    return std::to_string(v);
}

std::size_t
TextTable::rowCount() const
{
    std::size_t n = 0;
    for (const auto &r : rows_)
        if (!r.rule)
            ++n;
    return n;
}

void
TextTable::print(std::ostream &os, Format fmt) const
{
    // Compute column widths over header and all rows.
    std::size_t ncols = header_.size();
    for (const auto &r : rows_)
        ncols = std::max(ncols, r.cells.size());

    std::vector<std::size_t> width(ncols, 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            width[i] = std::max(width[i], cells[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        if (!r.rule)
            widen(r.cells);

    auto emit_csv = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < ncols; ++i) {
            if (i)
                os << ',';
            if (i < cells.size())
                os << cells[i];
        }
        os << '\n';
    };

    // A cell is emitted as a bare JSON number when strtod consumes
    // it entirely and the value is finite; anything else (including
    // starred cells like "*1.23" and the empty string) is quoted.
    auto json_numeric = [](const std::string &c) {
        if (c.empty())
            return false;
        char *end = nullptr;
        double v = std::strtod(c.c_str(), &end);
        return end == c.c_str() + c.size() && std::isfinite(v);
    };

    auto json_escape = [](const std::string &s) {
        std::string out;
        for (char ch : s) {
            if (ch == '"' || ch == '\\')
                out += '\\';
            out += ch;
        }
        return out;
    };

    auto emit_md = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t i = 0; i < ncols; ++i) {
            os << ' ' << (i < cells.size() ? cells[i] : "") << " |";
        }
        os << '\n';
    };

    auto emit_text = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < ncols; ++i) {
            const std::string &c = i < cells.size() ? cells[i] : "";
            os << c << std::string(width[i] - c.size() + 2, ' ');
        }
        os << '\n';
    };

    switch (fmt) {
      case Format::Csv:
        if (!header_.empty())
            emit_csv(header_);
        for (const auto &r : rows_)
            if (!r.rule)
                emit_csv(r.cells);
        break;
      case Format::Markdown:
        if (!header_.empty()) {
            emit_md(header_);
            os << '|';
            for (std::size_t i = 0; i < ncols; ++i)
                os << "---|";
            os << '\n';
        }
        for (const auto &r : rows_)
            if (!r.rule)
                emit_md(r.cells);
        break;
      case Format::Json: {
        os << "[\n";
        bool first = true;
        for (const auto &r : rows_) {
            if (r.rule)
                continue;
            os << (first ? "" : ",\n") << "  {";
            for (std::size_t i = 0; i < ncols; ++i) {
                std::string key = "c";
                if (i < header_.size() && !header_[i].empty())
                    key = header_[i];
                else
                    key += std::to_string(i);
                const std::string &c =
                    i < r.cells.size() ? r.cells[i] : "";
                os << (i ? ", " : "") << '"' << json_escape(key)
                   << "\": ";
                if (json_numeric(c))
                    os << c;
                else
                    os << '"' << json_escape(c) << '"';
            }
            os << '}';
            first = false;
        }
        os << "\n]\n";
        break;
      }
      case Format::Text:
      default: {
        std::size_t total = 0;
        for (std::size_t w : width)
            total += w + 2;
        if (!header_.empty()) {
            emit_text(header_);
            os << std::string(total, '-') << '\n';
        }
        for (const auto &r : rows_) {
            if (r.rule)
                os << std::string(total, '-') << '\n';
            else
                emit_text(r.cells);
        }
        break;
      }
    }
}

std::string
TextTable::toString(Format fmt) const
{
    std::ostringstream oss;
    print(oss, fmt);
    return oss.str();
}

} // namespace assoc
