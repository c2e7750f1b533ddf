/**
 * @file
 * A tiny command-line flag parser shared by the examples and the
 * benchmark harnesses (--key=value and --key value forms, --help).
 */

#ifndef ASSOC_UTIL_ARGPARSE_H
#define ASSOC_UTIL_ARGPARSE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace assoc {

/**
 * Declarative flag parser. Register flags with defaults and help
 * text, then parse(argc, argv); typed getters fetch the values.
 */
class ArgParser
{
  public:
    /** @param prog program name, @param description one-line help. */
    ArgParser(std::string prog, std::string description);

    /** Register a flag (name without leading dashes). */
    void addFlag(const std::string &name, const std::string &def,
                 const std::string &help);

    /** Register a boolean switch (off by default; present = true). */
    void addSwitch(const std::string &name, const std::string &help);

    /**
     * Parse the command line.
     * @return false when --help was requested (usage printed);
     *         calls fatal() on unknown or malformed flags.
     */
    bool parse(int argc, const char *const *argv);

    /** String value of flag @p name (the default if not given). */
    std::string getString(const std::string &name) const;

    /** Integer value of flag @p name. */
    std::int64_t getInt(const std::string &name) const;

    /** Unsigned integer value of flag @p name. */
    std::uint64_t getUint(const std::string &name) const;

    /** getUint() narrowed to 32 bits, checked by checkUint32(). */
    std::uint32_t getUint32(const std::string &name) const;

    /**
     * @p v, the value of flag --@p name, narrowed to 32 bits. A
     * value that does not fit is a usage error (ErrorException),
     * where a plain cast would wrap 4294967297 to 1.
     */
    static std::uint32_t checkUint32(const std::string &name,
                                     std::uint64_t v);

    /** Floating-point value of flag @p name. */
    double getDouble(const std::string &name) const;

    /** Boolean value ("1"/"true"/"yes"/"on" are true). */
    bool getBool(const std::string &name) const;

    /** True when the user supplied the flag explicitly. */
    bool given(const std::string &name) const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const;

    /** Usage text. */
    std::string usage() const;

  private:
    struct Flag
    {
        std::string def;
        std::string help;
        std::string value;
        bool is_switch = false;
        bool given = false;
    };

    const Flag &find(const std::string &name) const;

    std::string prog_;
    std::string description_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
    std::vector<std::string> positional_;
};

} // namespace assoc

#endif // ASSOC_UTIL_ARGPARSE_H
