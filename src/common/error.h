// Error handling for the muffin library.
//
// All recoverable failures are reported with muffin::Error (an exception),
// following I.10 of the C++ Core Guidelines. MUFFIN_REQUIRE is the library's
// precondition check: it states the contract at the top of a function and
// throws with location context when violated.
#pragma once

#include <stdexcept>
#include <string>

namespace muffin {

/// Exception thrown for all recoverable library failures
/// (bad arguments, dimension mismatches, invalid configurations).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Load-shed rejection: an admission-bounded queue (the queue of a
/// serve::InferenceEngine with max_queue set) is full. Thrown at
/// enqueue, before any scoring work, so overload is reported in
/// microseconds instead of timing out deep in the stack. Deliberately a distinct type: retry layers must NOT
/// retry it (a shed is a capacity signal — retrying amplifies the
/// overload), and callers are expected to back off instead.
class Overloaded : public Error {
 public:
  explicit Overloaded(const std::string& what) : Error(what) {}
};

/// Deadline drop: a queued request waited past its serving deadline (a
/// serve::InferenceEngine's deadline) and was failed before any scoring
/// work was spent on it. A distinct type so a caller can count and skip
/// drops; retry layers treat it as any other Error.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_error(const char* file, int line, const char* cond,
                              const std::string& message);
}  // namespace detail

}  // namespace muffin

/// Precondition check: throws muffin::Error with file/line context when
/// `cond` does not hold. `msg` is a std::string (or convertible) explaining
/// the violated contract in the caller's vocabulary.
#define MUFFIN_REQUIRE(cond, msg)                                   \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::muffin::detail::throw_error(__FILE__, __LINE__, #cond, msg); \
    }                                                               \
  } while (false)
