#include "src/base/status.h"

#include <gtest/gtest.h>

namespace malt {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = UnavailableError("node 3 unreachable");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "node 3 unreachable");
  EXPECT_EQ(s.ToString(), "UNAVAILABLE: node 3 unreachable");
}

TEST(Status, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DeadlineExceededError("").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(AbortedError("").code(), StatusCode::kAborted);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
}

TEST(Status, CopyIsCheapAndShared) {
  Status a = InternalError("boom");
  Status b = a;  // shares the message
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(a, b);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = NotFoundError("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// Reading the value of an error must die with the status text in every build
// type (an assert would compile away under NDEBUG and leave a bad_variant_access).
TEST(ResultDeathTest, ValueOnErrorIsFatalWithStatusText) {
  Result<int> r = InvalidArgumentError("unknown sync mode 'bogus'");
  EXPECT_DEATH((void)r.value(), "INVALID_ARGUMENT: unknown sync mode 'bogus'");
  EXPECT_DEATH((void)*r, "Result::value\\(\\) on error");
}

Status Fails() { return OutOfRangeError("x"); }
Status Chains() {
  MALT_RETURN_IF_ERROR(Fails());
  return OkStatus();
}

TEST(Status, ReturnIfErrorMacro) {
  EXPECT_EQ(Chains().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace malt
