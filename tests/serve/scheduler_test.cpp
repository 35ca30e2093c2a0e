// Scheduler policy contracts: priority selection, coalescing, and coalesce
// with max_batch 1 as the serial admission-order baseline.
#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/scheduler.h"
#include "serve/service.h"

namespace quickdrop::serve {
namespace {

ServiceRequest make_request(std::int64_t id, RequestKind kind, int target, int priority = 0) {
  ServiceRequest request;
  request.id = id;
  request.kind = kind;
  request.target = target;
  request.priority = priority;
  return request;
}

TEST(SchedulerTest, PolicyNamesRoundTrip) {
  for (const auto policy : {SchedulerPolicy::kPriority, SchedulerPolicy::kCoalesce}) {
    EXPECT_EQ(policy_from_name(policy_name(policy)), policy);
  }
  EXPECT_THROW(policy_from_name("lifo"), std::invalid_argument);
  EXPECT_THROW(policy_from_name("fifo"), std::invalid_argument);  // coalesce, max_batch 1
}

TEST(SchedulerTest, CoalesceMaxBatchOnePicksTheFrontRequestOnly) {
  const Scheduler scheduler(SchedulerPolicy::kCoalesce, 1);
  EXPECT_TRUE(scheduler.next_batch({}).empty());
  const std::vector<ServiceRequest> pending = {
      make_request(3, RequestKind::kClass, 1, 0),
      make_request(4, RequestKind::kClass, 2, 9),  // higher priority is ignored
  };
  const auto ids = scheduler.next_batch(pending);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 3);
}

TEST(SchedulerTest, ServiceDefaultServesOneRequestPerCycleInAdmissionOrder) {
  // perfbench's serve_http runs ApiService on the library defaults, so they
  // must keep serving exactly one request per cycle, earliest admission first.
  const ServiceConfig config;
  const Scheduler scheduler(config.policy, config.max_batch);
  const std::vector<ServiceRequest> pending = {
      make_request(3, RequestKind::kClass, 1, 0),
      make_request(4, RequestKind::kClient, 2, 9),
      make_request(5, RequestKind::kClass, 3, 0),
  };
  EXPECT_EQ(scheduler.next_batch(pending), (std::vector<std::int64_t>{3}));
}

TEST(SchedulerTest, PriorityPicksHighestThenEarliestAdmitted) {
  const Scheduler scheduler(SchedulerPolicy::kPriority);
  const std::vector<ServiceRequest> pending = {
      make_request(0, RequestKind::kClass, 1, 1),
      make_request(1, RequestKind::kClient, 2, 5),
      make_request(2, RequestKind::kClass, 3, 5),  // ties with #1; #1 admitted first
      make_request(3, RequestKind::kClass, 4, 0),
  };
  const auto ids = scheduler.next_batch(pending);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 1);
}

TEST(SchedulerTest, CoalesceMergesAllClassAndClientRequests) {
  const Scheduler scheduler(SchedulerPolicy::kCoalesce);
  const std::vector<ServiceRequest> pending = {
      make_request(0, RequestKind::kClass, 1),
      make_request(1, RequestKind::kClient, 0),
      make_request(2, RequestKind::kClass, 4),
  };
  EXPECT_EQ(scheduler.next_batch(pending), (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(SchedulerTest, CoalesceHonorsMaxBatch) {
  const Scheduler scheduler(SchedulerPolicy::kCoalesce, 2);
  const std::vector<ServiceRequest> pending = {
      make_request(0, RequestKind::kClass, 1),
      make_request(1, RequestKind::kClass, 2),
      make_request(2, RequestKind::kClass, 3),
  };
  EXPECT_EQ(scheduler.next_batch(pending), (std::vector<std::int64_t>{0, 1}));
  EXPECT_THROW(Scheduler(SchedulerPolicy::kCoalesce, -1), std::invalid_argument);
}

}  // namespace
}  // namespace quickdrop::serve
