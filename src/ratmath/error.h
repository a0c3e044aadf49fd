/**
 * @file
 * Error types shared by the access-normalization library.
 *
 * Following the paper's setting (a compiler), we distinguish between
 * conditions caused by bad user input (UserError: malformed programs,
 * unsupported constructs) and internal invariant violations
 * (InternalError: a bug in the library itself). Arithmetic overflow in
 * the exact-math layer raises OverflowError so that a transformation is
 * never silently wrong; an input too large for the simulator's 64-bit
 * counters raises its LimitError subclass.
 */

#ifndef ANC_RATMATH_ERROR_H
#define ANC_RATMATH_ERROR_H

#include <stdexcept>
#include <string>

namespace anc {

/** Base class for all errors raised by this library. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &msg) : std::runtime_error(msg) {}
};

/** Raised when checked 64-bit arithmetic would overflow. */
class OverflowError : public Error
{
  public:
    explicit OverflowError(const std::string &msg) : Error(msg) {}
};

/**
 * Raised when an input is valid but too large for a fixed-width limit of
 * the model: a simulation whose counters or loop trip counts would leave
 * 64 bits. Not a bug in the library; drivers report it as "input exceeds
 * a limit". An OverflowError, so every handler of arithmetic overflow
 * still handles it.
 */
class LimitError : public OverflowError
{
  public:
    explicit LimitError(const std::string &msg) : OverflowError(msg) {}
};

/** Raised on mathematically invalid operations (division by zero, ...). */
class MathError : public Error
{
  public:
    explicit MathError(const std::string &msg) : Error(msg) {}
};

/** Raised on malformed or unsupported user input. */
class UserError : public Error
{
  public:
    explicit UserError(const std::string &msg) : Error(msg) {}
};

/** Raised when a library invariant is violated (a bug, not user error). */
class InternalError : public Error
{
  public:
    explicit InternalError(const std::string &msg) : Error(msg) {}
};

} // namespace anc

#endif // ANC_RATMATH_ERROR_H
