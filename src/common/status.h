// Minimal Status/StatusOr pair for fallible APIs. Library code reports errors
// by value instead of throwing across module boundaries, per the project's
// os-systems conventions.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace iccache {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kUnavailable,
  kInternal,
};

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return message_.empty() ? CodeName() : CodeName() + ": " + message_;
  }

 private:
  std::string CodeName() const {
    switch (code_) {
      case StatusCode::kOk:
        return "OK";
      case StatusCode::kInvalidArgument:
        return "INVALID_ARGUMENT";
      case StatusCode::kNotFound:
        return "NOT_FOUND";
      case StatusCode::kFailedPrecondition:
        return "FAILED_PRECONDITION";
      case StatusCode::kUnavailable:
        return "UNAVAILABLE";
      case StatusCode::kInternal:
        return "INTERNAL";
    }
    return "UNKNOWN";
  }

  StatusCode code_;
  std::string message_;
};

template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT: implicit by design
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT: implicit by design

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }
  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_ = Status::Ok();
  std::optional<T> value_;
};

}  // namespace iccache

#endif  // SRC_COMMON_STATUS_H_
