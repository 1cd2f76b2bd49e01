// Lightweight error-propagation types used throughout MALT.
//
// The library avoids exceptions on its hot paths; fallible operations return
// a Status (or Result<T> when they also produce a value). Status is cheap to
// copy in the OK case (no allocation).

#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace malt {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kFailedPrecondition = 4,
  kOutOfRange = 5,
  kUnavailable = 6,     // peer dead / unreachable; retry after recovery
  kDeadlineExceeded = 7,
  kResourceExhausted = 8,
  kAborted = 9,         // operation interrupted (e.g. process killed)
  kInternal = 10,
};

// Returns a stable human-readable name ("OK", "UNAVAILABLE", ...).
std::string_view StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(code == StatusCode::kOk
                     ? nullptr
                     : std::make_shared<const std::string>(std::move(message))) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  std::string_view message() const {
    return message_ ? std::string_view(*message_) : std::string_view();
  }

  // "UNAVAILABLE: node 3 unreachable" or "OK".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::shared_ptr<const std::string> message_;  // shared: Status is copied around freely
};

inline Status OkStatus() { return Status(); }
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);
Status ResourceExhaustedError(std::string message);
Status AbortedError(std::string message);
Status InternalError(std::string message);

// Fatal check failure for Result<T>::value() on an error (prints the status).
[[noreturn]] void DieOnErrorValue(const Status& status);

// Result<T> holds either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : rep_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(rep_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOkSingleton;
    return ok() ? kOkSingleton : std::get<Status>(rep_);
  }

  T& value() & {
    CheckOk();
    return std::get<T>(rep_);
  }
  const T& value() const& {
    CheckOk();
    return std::get<T>(rep_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  // Reading the value of an error is a programming bug in every build type:
  // fail loudly with the status text instead of a bad_variant_access.
  void CheckOk() const {
    if (!ok()) {
      DieOnErrorValue(std::get<Status>(rep_));
    }
  }

  std::variant<Status, T> rep_;
};

#define MALT_RETURN_IF_ERROR(expr)        \
  do {                                    \
    ::malt::Status status_ = (expr);      \
    if (!status_.ok()) {                  \
      return status_;                     \
    }                                     \
  } while (0)

}  // namespace malt

#endif  // SRC_BASE_STATUS_H_
