// Admission validation: every reject reason has a unit test, plus the
// queue's determinism and bookkeeping contracts.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "serve/queue.h"

namespace quickdrop::serve {
namespace {

ServiceRequest make_request(RequestKind kind, int target) {
  ServiceRequest request;
  request.kind = kind;
  request.target = target;
  return request;
}

ValidationContext make_context() {
  ValidationContext ctx;
  ctx.num_classes = 10;
  ctx.num_clients = 4;
  return ctx;
}

TEST(ValidateTest, AcceptsInRangeRequests) {
  const auto ctx = make_context();
  EXPECT_TRUE(validate_request(make_request(RequestKind::kClass, 0), ctx).accepted);
  EXPECT_TRUE(validate_request(make_request(RequestKind::kClass, 9), ctx).accepted);
  EXPECT_TRUE(validate_request(make_request(RequestKind::kClient, 3), ctx).accepted);
}

TEST(ValidateTest, RejectsTargetOutOfRange) {
  const auto ctx = make_context();
  for (const int target : {-1, 10, 42}) {
    const auto decision = validate_request(make_request(RequestKind::kClass, target), ctx);
    ASSERT_FALSE(decision.accepted) << target;
    EXPECT_EQ(decision.reason, RejectReason::kTargetOutOfRange) << decision.message;
  }
  const auto decision = validate_request(make_request(RequestKind::kClient, 4), ctx);
  ASSERT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason, RejectReason::kTargetOutOfRange);
}

TEST(ValidateTest, RejectsAlreadyForgotten) {
  auto ctx = make_context();
  const std::set<int> classes = {2};
  const std::set<int> clients = {1};
  ctx.forgotten_classes = &classes;
  ctx.forgotten_clients = &clients;
  const auto d1 = validate_request(make_request(RequestKind::kClass, 2), ctx);
  ASSERT_FALSE(d1.accepted);
  EXPECT_EQ(d1.reason, RejectReason::kAlreadyForgotten);
  const auto d2 = validate_request(make_request(RequestKind::kClient, 1), ctx);
  ASSERT_FALSE(d2.accepted);
  EXPECT_EQ(d2.reason, RejectReason::kAlreadyForgotten);
  // The *other* kind with the same numeric target is unrelated.
  EXPECT_TRUE(validate_request(make_request(RequestKind::kClass, 1), ctx).accepted);
}

TEST(ValidateTest, RejectsDuplicatePending) {
  auto ctx = make_context();
  std::vector<ServiceRequest> pending = {make_request(RequestKind::kClass, 5)};
  pending[0].id = 17;
  ctx.pending = &pending;
  const auto decision = validate_request(make_request(RequestKind::kClass, 5), ctx);
  ASSERT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason, RejectReason::kDuplicatePending);
  EXPECT_NE(decision.message.find("#17"), std::string::npos) << decision.message;
  // Same target, different kind: not a duplicate.
  EXPECT_TRUE(validate_request(make_request(RequestKind::kClient, 3), ctx).accepted);
}

TEST(ValidateTest, RejectsEmptyForgetSet) {
  auto ctx = make_context();
  ctx.has_forget_data = [](const ServiceRequest& request) { return request.target != 7; };
  const auto decision = validate_request(make_request(RequestKind::kClass, 7), ctx);
  ASSERT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason, RejectReason::kEmptyForgetSet);
  EXPECT_TRUE(validate_request(make_request(RequestKind::kClass, 6), ctx).accepted);
}

TEST(QueueTest, AssignsMonotoneIdsInAdmissionOrder) {
  AdmissionQueue queue;
  const auto ctx = make_context();
  for (const int target : {4, 1, 8}) {
    ASSERT_TRUE(queue.admit(make_request(RequestKind::kClass, target), ctx).accepted);
  }
  ASSERT_EQ(queue.pending().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.pending()[i].id, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(queue.pending()[0].target, 4);
  EXPECT_EQ(queue.pending()[2].target, 8);
  EXPECT_EQ(queue.admitted_count(), 3);
}

TEST(QueueTest, RecordsRejectionsAndKeepsThemOutOfPending) {
  AdmissionQueue queue;
  const auto ctx = make_context();
  ASSERT_TRUE(queue.admit(make_request(RequestKind::kClass, 5), ctx).accepted);
  // Duplicate of the now-pending request: the queue wires its own pending
  // list into the context.
  ASSERT_FALSE(queue.admit(make_request(RequestKind::kClass, 5), ctx).accepted);
  ASSERT_FALSE(queue.admit(make_request(RequestKind::kClass, 77), ctx).accepted);
  EXPECT_EQ(queue.pending().size(), 1u);
  ASSERT_EQ(queue.rejected().size(), 2u);
  EXPECT_EQ(queue.rejected()[0].reason, RejectReason::kDuplicatePending);
  EXPECT_EQ(queue.rejected()[1].reason, RejectReason::kTargetOutOfRange);
  EXPECT_EQ(queue.admitted_count(), 1);
}

TEST(QueueTest, TakeRemovesByIdAndPreservesOrder) {
  AdmissionQueue queue;
  const auto ctx = make_context();
  for (const int target : {0, 1, 2, 3}) {
    ASSERT_TRUE(queue.admit(make_request(RequestKind::kClass, target), ctx).accepted);
  }
  const auto taken = queue.take({2, 0});
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, 0);  // sorted back into admission order
  EXPECT_EQ(taken[1].id, 2);
  ASSERT_EQ(queue.pending().size(), 2u);
  EXPECT_EQ(queue.pending()[0].id, 1);
  EXPECT_EQ(queue.pending()[1].id, 3);
  EXPECT_THROW(queue.take({2}), std::invalid_argument);  // already taken
}

}  // namespace
}  // namespace quickdrop::serve
