#include "util/argparse.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/logging.h"

namespace assoc {

ArgParser::ArgParser(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &def,
                   const std::string &help)
{
    panicIf(flags_.count(name) != 0, "duplicate flag --" + name);
    flags_[name] = Flag{def, help, def, false, false};
    order_.push_back(name);
}

void
ArgParser::addSwitch(const std::string &name, const std::string &help)
{
    panicIf(flags_.count(name) != 0, "duplicate flag --" + name);
    flags_[name] = Flag{"false", help, "false", true, false};
    order_.push_back(name);
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string name = body;
        std::string value;
        bool has_value = false;
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
            has_value = true;
        }
        auto it = flags_.find(name);
        fatalIf(it == flags_.end(), "unknown flag --" + name +
                "\n" + usage());
        Flag &f = it->second;
        if (f.is_switch) {
            f.value = has_value ? value : "true";
        } else if (has_value) {
            f.value = value;
        } else {
            fatalIf(i + 1 >= argc, "flag --" + name + " needs a value");
            f.value = argv[++i];
        }
        f.given = true;
    }
    return true;
}

const ArgParser::Flag &
ArgParser::find(const std::string &name) const
{
    auto it = flags_.find(name);
    panicIf(it == flags_.end(), "flag --" + name + " was never registered");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return find(name).value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const Flag &f = find(name);
    try {
        std::size_t pos = 0;
        std::int64_t v = std::stoll(f.value, &pos, 0);
        fatalIf(pos != f.value.size(), "flag --" + name +
                ": trailing junk in '" + f.value + "'");
        return v;
    } catch (const std::invalid_argument &) {
        fatal("flag --" + name + ": '" + f.value + "' is not an integer");
    } catch (const std::out_of_range &) {
        fatal("flag --" + name + ": '" + f.value + "' is out of range");
    }
}

std::uint64_t
ArgParser::getUint(const std::string &name) const
{
    std::int64_t v = getInt(name);
    fatalIf(v < 0, "flag --" + name + " must be non-negative");
    return static_cast<std::uint64_t>(v);
}

std::uint32_t
ArgParser::getUint32(const std::string &name) const
{
    return checkUint32(name, getUint(name));
}

std::uint32_t
ArgParser::checkUint32(const std::string &name, std::uint64_t v)
{
    if (v > std::numeric_limits<std::uint32_t>::max())
        throwError(Error::usage("--" + name + "=" +
                                std::to_string(v) +
                                " is out of range (max 4294967295)"));
    return static_cast<std::uint32_t>(v);
}

double
ArgParser::getDouble(const std::string &name) const
{
    const Flag &f = find(name);
    try {
        std::size_t pos = 0;
        double v = std::stod(f.value, &pos);
        fatalIf(pos != f.value.size(), "flag --" + name +
                ": trailing junk in '" + f.value + "'");
        return v;
    } catch (const std::invalid_argument &) {
        fatal("flag --" + name + ": '" + f.value + "' is not a number");
    } catch (const std::out_of_range &) {
        fatal("flag --" + name + ": '" + f.value + "' is out of range");
    }
}

bool
ArgParser::getBool(const std::string &name) const
{
    std::string v = find(name).value;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

bool
ArgParser::given(const std::string &name) const
{
    return find(name).given;
}

const std::vector<std::string> &
ArgParser::positional() const
{
    return positional_;
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << prog_ << " — " << description_ << "\n\nFlags:\n";
    for (const auto &name : order_) {
        const Flag &f = flags_.at(name);
        oss << "  --" << name;
        if (!f.is_switch)
            oss << "=<" << (f.def.empty() ? "value" : f.def) << ">";
        oss << "\n      " << f.help << "\n";
    }
    oss << "  --help\n      Show this message.\n";
    return oss.str();
}

} // namespace assoc
