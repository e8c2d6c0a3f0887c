// Status and Result<T>: exception-free error handling for the Sight library.
//
// The API follows the Arrow/RocksDB idiom: fallible operations return a
// Status (or a Result<T> carrying a value on success), and callers are
// expected to check `ok()` before using the value. Constructors never fail;
// fallible construction goes through static Create() factories.

#ifndef SIGHT_UTIL_STATUS_H_
#define SIGHT_UTIL_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace sight {

// Canonical error space, a deliberately small subset of the absl/gRPC codes.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kResourceExhausted = 8,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A Status carries either success (OK) or an error code plus message.
///
/// Statuses are cheap to copy in the OK case (no allocation) and are
/// intended to be returned by value. The class itself is [[nodiscard]]:
/// silently dropping a returned Status is a compile warning (an error
/// under SIGHT_WERROR). Use `status.IgnoreError()` for the rare call
/// site where dropping is intentional.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Merges `other` into this status, keeping the FIRST error seen:
  /// if this status is OK it becomes `other`; if it already holds an
  /// error, `other` is dropped. Lets loops accumulate a batch of
  /// fallible steps and report the earliest failure:
  ///
  ///   Status st;
  ///   for (const auto& row : rows) st.Update(ProcessRow(row));
  ///   return st;
  void Update(const Status& other) {
    if (ok()) *this = other;
  }
  void Update(Status&& other) {
    if (ok()) *this = std::move(other);
  }

  /// Explicitly discards this status. The only sanctioned way to drop a
  /// Status on the floor; grep-able, unlike a (void) cast.
  void IgnoreError() const {}

  /// "OK" or "<CodeName>: <message>".
  [[nodiscard]] std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Result<T> holds either a value of type T or an error Status.
///
/// Accessing the value of an errored Result aborts the process (the same
/// contract as arrow::Result); call ok() first. Like Status, the class is
/// [[nodiscard]]: ignoring a returned Result discards both the value and
/// the error, which is never intentional.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: allows `return value;` in functions returning
  /// Result<T>.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status. Constructing from an OK status is a
  /// programming error and is converted to an Internal error.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    if (std::get<Status>(repr_).ok()) {
      repr_ = Status::Internal("Result constructed from OK status");
    }
  }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Error status; OK if the result holds a value.
  [[nodiscard]] Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  [[nodiscard]] const T& value() const& {
    AbortIfError();
    return std::get<T>(repr_);
  }
  [[nodiscard]] T& value() & {
    AbortIfError();
    return std::get<T>(repr_);
  }
  /// Moves the value out. Returns by value (not T&&) so that binding the
  /// result of `SomeCall().value()` in a range-for or reference never
  /// dangles after the temporary Result is destroyed.
  [[nodiscard]] T value() && {
    AbortIfError();
    return std::move(std::get<T>(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this result holds an error.
  [[nodiscard]] T value_or(T fallback) const {
    if (ok()) return std::get<T>(repr_);
    return fallback;
  }

 private:
  void AbortIfError() const;

  std::variant<T, Status> repr_;
};

namespace internal {
[[noreturn]] void DieOnBadResult(const Status& status);
}  // namespace internal

template <typename T>
void Result<T>::AbortIfError() const {
  if (!ok()) internal::DieOnBadResult(std::get<Status>(repr_));
}

// Propagates an error status out of the current function.
//
//   SIGHT_RETURN_IF_ERROR(DoSomething());
#define SIGHT_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::sight::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (false)

// Assigns the value of a Result expression to `lhs`, or propagates the
// error.  `lhs` may include a declaration:
//
//   SIGHT_ASSIGN_OR_RETURN(auto pools, BuildPools(...));
#define SIGHT_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value();

#define SIGHT_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define SIGHT_ASSIGN_OR_RETURN_NAME(x, y) SIGHT_ASSIGN_OR_RETURN_CONCAT(x, y)
#define SIGHT_ASSIGN_OR_RETURN(lhs, rexpr)                               \
  SIGHT_ASSIGN_OR_RETURN_IMPL(                                           \
      SIGHT_ASSIGN_OR_RETURN_NAME(_sight_result_, __COUNTER__), lhs, rexpr)

}  // namespace sight

#endif  // SIGHT_UTIL_STATUS_H_
