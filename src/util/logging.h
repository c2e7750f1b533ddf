/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (a bug in this library), fatal() for user errors
 * (bad configuration, unreadable file), warn()/inform() for
 * non-fatal status messages.
 */

#ifndef ASSOC_UTIL_LOGGING_H
#define ASSOC_UTIL_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace assoc {

/** Error thrown by fatal(): the user asked for something invalid. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Error thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error(what)
    {}
};

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments). Throws FatalError so library users can catch it;
 * command-line tools catch it in main() and exit(1).
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal bug: a condition that should be impossible
 * regardless of user input. Throws PanicError.
 */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr (does not stop execution). */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Globally silence warn()/inform() (used by tests). */
void setQuiet(bool quiet);

/**
 * Check a user-facing precondition: calls fatal() with @p msg when
 * @p cond is true. The message is materialized as a std::string only
 * when the check fails, so a passing check with a literal message
 * allocates nothing.
 */
inline void
fatalIf(bool cond, std::string_view msg)
{
    if (cond)
        fatal(std::string(msg));
}

/**
 * Check an internal invariant: calls panic() with @p msg when @p cond
 * is true. As with fatalIf(), the message is materialized only on
 * failure.
 */
inline void
panicIf(bool cond, std::string_view msg)
{
    if (cond)
        panic(std::string(msg));
}

} // namespace assoc

#endif // ASSOC_UTIL_LOGGING_H
