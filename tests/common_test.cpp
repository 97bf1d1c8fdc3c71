#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stop.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"

namespace fpva::common {
namespace {

TEST(CheckTest, PassesAndThrows) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), Error);
  EXPECT_THROW(fail("always"), Error);
  try {
    check(false, "context-message");
    FAIL() << "expected throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("context-message"),
              std::string::npos);
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  EXPECT_NE(a2(), c());  // different seeds diverge immediately (w.h.p.)
}

TEST(RngTest, NextBelowIsInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = rng.next_below(5);
    EXPECT_LT(value, 5u);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRespectsInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto value = rng.next_in(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
  }
  EXPECT_EQ(rng.next_in(5, 5), 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool(0.5);
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(19);
  const auto sample = rng.sample_indices(50, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const std::size_t index : sample) EXPECT_LT(index, 50u);
  EXPECT_THROW(rng.sample_indices(3, 4), Error);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = items;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(items.begin(), items.end(),
                                  shuffled.begin()));
}

TEST(StringsTest, CatJoinsArbitraryTypes) {
  EXPECT_EQ(cat("valve ", 3, '/', 7.5), "valve 3/7.5");
  EXPECT_EQ(cat(), "");
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(StringsTest, TrimAndPads) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(StringsTest, ToFixed) {
  EXPECT_EQ(to_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(to_fixed(2.0, 0), "2");
  EXPECT_THROW(to_fixed(1.0, -1), Error);
}

TEST(StringsTest, StrictNumericParsing) {
  EXPECT_EQ(parse_int("15"), 15);
  EXPECT_EQ(parse_int("-3"), -3);
  EXPECT_EQ(parse_int("abc"), std::nullopt);
  EXPECT_EQ(parse_int("5x"), std::nullopt);
  EXPECT_EQ(parse_int(""), std::nullopt);
  EXPECT_EQ(parse_int("4294967298"), std::nullopt);  // not wrapped to 2
  EXPECT_EQ(parse_double("0.3"), 0.3);
  EXPECT_EQ(parse_double("1e-2"), 0.01);
  EXPECT_EQ(parse_double("abc"), std::nullopt);
  EXPECT_EQ(parse_double("0.3 "), std::nullopt);
  EXPECT_EQ(parse_double("nan"), std::nullopt);
  EXPECT_EQ(parse_double("inf"), std::nullopt);
}

TEST(TableTest, AlignsColumns) {
  Table table({"Dim", "n_v"});
  table.add_row({"5 x 5", "39"});
  table.add_row({"30 x 30", "1704"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("Dim"), std::string::npos);
  EXPECT_NE(text.find("1704"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(StopTokenTest, EmptyTokenNeverTrips) {
  const StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopTokenTest, SourceTripsItsToken) {
  StopSource source;
  const StopToken token = source.token();
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(source.stop_requested());
}

TEST(StopTokenTest, CopiesShareTheFlag) {
  StopSource source;
  const StopSource copy = source;
  const StopToken token = copy.token();
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
}

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.active());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_seconds(),
            std::numeric_limits<double>::infinity());
  // Composing an inactive deadline onto a token is free.
  const StopToken token = StopToken{}.with_deadline(deadline);
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(DeadlineTest, ExpiredDeadlineTripsAToken) {
  const Deadline deadline = Deadline::after(0.0);
  EXPECT_TRUE(deadline.active());
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_seconds(), 0.0);
  const StopToken token = StopToken{}.with_deadline(deadline);
  EXPECT_TRUE(token.stop_possible());
  EXPECT_TRUE(token.stop_requested());
}

TEST(DeadlineTest, FutureDeadlineDoesNotTripYet) {
  const Deadline deadline = Deadline::after(3600.0);
  EXPECT_TRUE(deadline.active());
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining_seconds(), 0.0);
  const StopToken token = StopToken{}.with_deadline(deadline);
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(DeadlineTest, SourceTokenWithDeadlineTripsOnEither) {
  StopSource source;
  const StopToken far = source.token().with_deadline(Deadline::after(3600.0));
  EXPECT_FALSE(far.stop_requested());
  source.request_stop();
  EXPECT_TRUE(far.stop_requested());
  const StopToken past =
      StopSource{}.token().with_deadline(Deadline::after(0.0));
  EXPECT_TRUE(past.stop_requested());
}

TEST(ParallelTest, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_GE(resolve_thread_count(0), 1);   // hardware concurrency
  EXPECT_GE(resolve_thread_count(-3), 1);
}

TEST(ParallelTest, PlanWorkersNeverExceedsJobs) {
  EXPECT_EQ(plan_workers(8, 3), 3);
  EXPECT_EQ(plan_workers(2, 100), 2);
  EXPECT_EQ(plan_workers(4, 0), 1);  // degenerate: the calling thread
}

TEST(ParallelTest, RunJobsExecutesEveryJobExactlyOnce) {
  for (const int threads : {1, 4, 8}) {
    const std::size_t jobs = 37;
    std::vector<std::atomic<int>> hits(jobs);
    run_jobs(threads, jobs, [&](int worker, std::size_t job) {
      EXPECT_GE(worker, 0);
      hits[job].fetch_add(1);
    });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1) << threads;
  }
}

TEST(ParallelTest, RunJobsPropagatesTheFirstException) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        run_jobs(threads, 8,
                 [](int, std::size_t job) {
                   if (job == 3) fail("job exploded");
                 }),
        Error)
        << threads;
  }
}

TEST(TimerTest, MeasuresForwardTime) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), timer.seconds() * 1000.0 * 0.99);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

}  // namespace
}  // namespace fpva::common
