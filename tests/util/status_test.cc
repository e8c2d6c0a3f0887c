#include "util/status.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sight {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::NotFound("missing").message(), "missing");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status s = Status::InvalidArgument("bad alpha");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad alpha");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusCodeTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> ok(7);
  Result<int> err(Status::Internal("x"));
  EXPECT_EQ(ok.value_or(-1), 7);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ConstructingFromOkStatusBecomesInternalError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, ArrowOperatorOnValue) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

TEST(StatusTest, UpdateKeepsFirstError) {
  Status s;
  s.Update(Status::OK());
  EXPECT_TRUE(s.ok());
  s.Update(Status::NotFound("first"));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "first");
  // A later error must not overwrite the first one.
  s.Update(Status::Internal("second"));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "first");
  // Nor must a later OK clear it.
  s.Update(Status::OK());
  EXPECT_FALSE(s.ok());
}

TEST(StatusTest, UpdateAccumulatesOverLoop) {
  std::vector<Status> steps = {Status::OK(), Status::OutOfRange("bin 7"),
                               Status::OK(), Status::InvalidArgument("late")};
  Status s;
  for (const Status& step : steps) s.Update(step);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.message(), "bin 7");
}

TEST(StatusTest, IgnoreErrorDiscardsExplicitly) {
  // The sanctioned way to drop a [[nodiscard]] Status; must compile
  // without warnings and do nothing.
  Status::Internal("dropped on purpose").IgnoreError();
}

Status FailingOperation() { return Status::OutOfRange("boom"); }

Status UsesReturnIfError(bool fail) {
  SIGHT_RETURN_IF_ERROR(fail ? FailingOperation() : Status::OK());
  return Status::AlreadyExists("reached end");
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError(true).code(), StatusCode::kOutOfRange);
  // On OK the macro must fall through to the rest of the function.
  EXPECT_EQ(UsesReturnIfError(false).code(), StatusCode::kAlreadyExists);
}

Result<int> ProducesValue() { return 10; }
Result<int> ProducesError() { return Status::NotFound("no value"); }

Status UsesAssignOrReturn(bool fail, int* out) {
  SIGHT_ASSIGN_OR_RETURN(int v, fail ? ProducesError() : ProducesValue());
  *out = v;
  return Status::OK();
}

TEST(StatusMacroTest, AssignOrReturnAssignsOnSuccess) {
  int out = 0;
  ASSERT_TRUE(UsesAssignOrReturn(false, &out).ok());
  EXPECT_EQ(out, 10);
}

TEST(StatusMacroTest, AssignOrReturnPropagatesError) {
  int out = 0;
  Status s = UsesAssignOrReturn(true, &out);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(out, 0);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r(Status::Internal("fatal"));
  EXPECT_DEATH({ (void)r.value(); }, "errored Result");
}

}  // namespace
}  // namespace sight
