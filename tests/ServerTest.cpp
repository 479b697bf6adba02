//===- tests/ServerTest.cpp - scheduler-as-a-service layer tests ----------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer above the pool: JobQueue fairness and capacity, the
/// JobSpec JSON round trip (canonical spellings, validation errors), the
/// in-process JobServer lifecycle (submit / wait / totals, admission
/// shedding, deadline expiry), and an HTTP smoke test over the loopback
/// wire API.
///
//===----------------------------------------------------------------------===//

#include "problems/ProblemRegistry.h"
#include "server/Server.h"
#include "support/LoopbackHttp.h"
#include "trace/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

using namespace atc;

namespace {

//===----------------------------------------------------------------------===//
// JobQueue
//===----------------------------------------------------------------------===//

TEST(JobQueue, CapacityIsAHardCap) {
  JobQueue Q(2);
  EXPECT_TRUE(Q.push("a", 1));
  EXPECT_TRUE(Q.push("a", 2));
  EXPECT_FALSE(Q.push("a", 3)) << "push past capacity must refuse";
  EXPECT_EQ(Q.size(), 2u);
  std::uint64_t Id = 0;
  ASSERT_TRUE(Q.pop(Id));
  EXPECT_EQ(Id, 1u);
  EXPECT_TRUE(Q.push("a", 3)) << "pop frees capacity";
}

TEST(JobQueue, RoundRobinAcrossTenantsFifoWithin) {
  JobQueue Q(16);
  // Tenant a floods, tenant b trickles: dispatch interleaves 1:1 until
  // b's lane drains, and each lane stays FIFO.
  for (std::uint64_t I = 1; I <= 4; ++I)
    ASSERT_TRUE(Q.push("a", I));
  ASSERT_TRUE(Q.push("b", 10));
  ASSERT_TRUE(Q.push("b", 11));
  EXPECT_EQ(Q.activeTenants(), 2u);
  std::vector<std::uint64_t> Order;
  std::uint64_t Id = 0;
  for (int I = 0; I != 6; ++I) {
    ASSERT_TRUE(Q.pop(Id));
    Order.push_back(Id);
  }
  EXPECT_EQ(Order, (std::vector<std::uint64_t>{1, 10, 2, 11, 3, 4}));
  EXPECT_EQ(Q.size(), 0u);
  EXPECT_EQ(Q.activeTenants(), 0u);
}

TEST(JobQueue, CloseDrainsThenRefuses) {
  JobQueue Q(8);
  ASSERT_TRUE(Q.push("a", 1));
  Q.close();
  EXPECT_FALSE(Q.push("a", 2)) << "push after close must refuse";
  std::uint64_t Id = 0;
  EXPECT_TRUE(Q.pop(Id)) << "pop drains queued work after close";
  EXPECT_EQ(Id, 1u);
  EXPECT_FALSE(Q.pop(Id)) << "then reports closed";
}

TEST(JobQueue, PopBlocksUntilPush) {
  JobQueue Q(8);
  std::uint64_t Got = 0;
  std::thread Popper([&] {
    std::uint64_t Id = 0;
    if (Q.pop(Id))
      Got = Id;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(Q.push("a", 42));
  Popper.join();
  EXPECT_EQ(Got, 42u);
}

//===----------------------------------------------------------------------===//
// JobSpec JSON round trip
//===----------------------------------------------------------------------===//

TEST(JobSpecJson, MinimalSpecGetsDefaults) {
  // A legacy "tuning" key is ignored like any other unknown key.
  for (const char *Text :
       {R"({"problem": "fib"})", R"({"problem": "fib", "tuning": "on"})"}) {
    JobSpec S;
    std::string Err;
    ASSERT_TRUE(parseJobSpec(Text, S, Err)) << Text << ": " << Err;
    EXPECT_EQ(S.Problem, "fib");
    EXPECT_EQ(S.Size, problemDefaultSize("fib")) << "0 resolves the default";
    EXPECT_EQ(S.Tenant, "default");
    EXPECT_EQ(S.Kind, SchedulerKind::AdaptiveTC);
    EXPECT_EQ(S.Workers, 0);
    EXPECT_EQ(S.DeadlineMs, 0);
    EXPECT_EQ(jobSpecJson(S).find("tuning"), std::string::npos) << Text;
  }
}

TEST(JobSpecJson, FullSpecRoundTrips) {
  const std::string Text =
      R"({"problem": "nqueens-array", "size": 9, "tenant": "alice",)"
      R"( "scheduler": "cilk-synched", "workers": 2,)"
      R"( "cutoff": 5,)"
      R"( "deadline_ms": 2000})";
  JobSpec S;
  std::string Err;
  ASSERT_TRUE(parseJobSpec(Text, S, Err)) << Err;
  EXPECT_EQ(S.Problem, "nqueens-array");
  EXPECT_EQ(S.Size, 9);
  EXPECT_EQ(S.Tenant, "alice");
  EXPECT_EQ(S.Kind, SchedulerKind::CilkSynched);
  EXPECT_EQ(S.Workers, 2);
  EXPECT_EQ(S.Cutoff, 5);
  EXPECT_EQ(S.DeadlineMs, 2000);

  // Render and re-parse: the wire form is its own fixed point.
  JobSpec S2;
  ASSERT_TRUE(parseJobSpec(jobSpecJson(S), S2, Err)) << Err;
  EXPECT_EQ(S2.Problem, S.Problem);
  EXPECT_EQ(S2.Size, S.Size);
  EXPECT_EQ(S2.Tenant, S.Tenant);
  EXPECT_EQ(S2.Kind, S.Kind);
  EXPECT_EQ(S2.Workers, S.Workers);
  EXPECT_EQ(S2.Cutoff, S.Cutoff);
  EXPECT_EQ(S2.DeadlineMs, S.DeadlineMs);
}

TEST(JobSpecJson, KindSpellingsCanonicalize) {
  // Like the scheduler-kind parsers: case-insensitive, "-"/"_"
  // interchangeable; the parsed spec carries the canonical spelling.
  JobSpec S;
  std::string Err;
  ASSERT_TRUE(parseJobSpec(
      R"({"problem": "NQueens_Array", "scheduler": "Cilk-SYNCHED"})", S, Err))
      << Err;
  EXPECT_EQ(S.Problem, "nqueens-array");
  EXPECT_EQ(S.Kind, SchedulerKind::CilkSynched);
}

TEST(JobSpecJson, RejectsBadSpecs) {
  JobSpec S;
  std::string Err;
  EXPECT_FALSE(parseJobSpec("{}", S, Err)) << "missing problem";
  EXPECT_FALSE(parseJobSpec(R"({"problem": "no-such-kind"})", S, Err));
  EXPECT_FALSE(parseJobSpec(R"({"problem": "fib", "size": 99})", S, Err))
      << "size out of the kind's range";
  EXPECT_FALSE(parseJobSpec(R"({"problem": "fib", "size": 1.5})", S, Err))
      << "non-integer size";
  EXPECT_FALSE(
      parseJobSpec(R"({"problem": "fib", "scheduler": "magic"})", S, Err));
  EXPECT_EQ(Err, "unknown scheduler kind 'magic' (expected "
                 "sequential|cilk|cilk-synched|cutoff|adaptivetc|tascell)");
  // The steal-width option is gone. Unknown keys are otherwise ignored,
  // so a spec that still names it must fail instead of silently running
  // with one-continuation steals.
  for (const char *Steal : {"half", "one"}) {
    EXPECT_FALSE(parseJobSpec(
        std::string(R"({"problem": "fib", "steal": ")") + Steal + "\"}", S,
        Err))
        << Steal;
    EXPECT_EQ(Err,
              "field 'steal' was removed: every thief steals one continuation");
  }
  // The deque option is gone too: every run uses the THE deque, so a
  // spec naming any deque, "the" included, fails rather than silently
  // running on another one.
  for (const char *Deque : {"chaselev", "the", "atomic"}) {
    EXPECT_FALSE(parseJobSpec(
        std::string(R"({"problem": "fib", "deque": ")") + Deque + "\"}", S,
        Err))
        << Deque;
    EXPECT_EQ(Err, "field 'deque' was removed: every run uses the THE deque");
  }
  // And the victim ordering: every thief draws a uniformly random
  // victim, so a spec naming any ordering, "random" included, fails
  // rather than silently running with another one.
  for (const char *Victim : {"affinity", "random", "partitioned"}) {
    EXPECT_FALSE(parseJobSpec(
        std::string(R"({"problem": "fib", "victim": ")") + Victim + "\"}", S,
        Err))
        << Victim;
    EXPECT_EQ(Err, "field 'victim' was removed: every thief picks a "
                   "uniformly random victim");
  }
  EXPECT_FALSE(parseJobSpec("not json at all", S, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(JobSpecJson, EscaperRoundTripsEveryAsciiByte) {
  // One string per byte, embedded between two letters, plus one string
  // holding all of them: escapeJson's output must parse back exactly.
  std::string All;
  for (int B = 0x01; B <= 0x7F; ++B) {
    const std::string Raw = std::string("a") + static_cast<char>(B) + "b";
    All += static_cast<char>(B);
    for (const std::string &Str : {Raw, All}) {
      const std::string Text = "{\"s\": \"" + escapeJson(Str) + "\"}";
      json::Value Doc;
      std::string Err;
      ASSERT_TRUE(json::parse(Text, Doc, Err)) << "byte " << B << ": " << Err;
      EXPECT_EQ(Doc["s"].asString(), Str) << "byte " << B;
    }
  }
  // A control byte in a tenant is echoed escaped, never raw.
  JobSpec S;
  std::string Err;
  ASSERT_TRUE(
      parseJobSpec(R"({"problem": "fib", "tenant": "a\u0001b"})", S, Err))
      << Err;
  EXPECT_EQ(S.Tenant, std::string("a\x01" "b"));
  EXPECT_EQ(jobSpecJson(S).find('\x01'), std::string::npos);
}

TEST(JobSpecJson, LongTenantSurvivesTheRecord) {
  // Records are built by appending, not in fixed buffers: a 600-byte
  // tenant comes back whole from parseJobSpec -> jobRecordJson -> parse.
  const std::string Tenant(600, 't');
  JobRecord R;
  std::string Err;
  ASSERT_TRUE(parseJobSpec(
      R"({"problem": "fib", "tenant": ")" + Tenant + "\"}", R.Spec, Err))
      << Err;
  R.Error = std::string(300, 'e');
  json::Value Doc;
  ASSERT_TRUE(json::parse(jobRecordJson(R), Doc, Err)) << Err;
  EXPECT_EQ(Doc["spec"]["tenant"].asString(), Tenant);
  EXPECT_EQ(Doc["error"].asString(), R.Error);
}

//===----------------------------------------------------------------------===//
// JobServer, in-process API
//===----------------------------------------------------------------------===//

JobServerOptions inProcessOptions() {
  JobServerOptions O;
  O.PoolThreads = 2;
  O.HttpPort = -1; // In-process only.
  return O;
}

TEST(JobServer, SubmitRunWaitMatchesOracle) {
  JobServer Server(inProcessOptions());
  ASSERT_TRUE(Server.start());

  ProblemRunner Oracle;
  std::string Err;
  ASSERT_TRUE(makeProblemRunner("nqueens-array", 9, Oracle, Err)) << Err;
  const long long Expected = Oracle.RunSequential();

  std::vector<std::uint64_t> Ids;
  for (int I = 0; I != 8; ++I) {
    JobSpec Spec;
    Spec.Problem = "nqueens-array";
    Spec.Size = 9;
    Spec.Tenant = I % 2 ? "alice" : "bob";
    JobServer::SubmitResult R = Server.submit(Spec);
    ASSERT_TRUE(R.Accepted) << R.Reason;
    Ids.push_back(R.Id);
  }
  for (std::uint64_t Id : Ids) {
    JobRecord Rec;
    ASSERT_TRUE(Server.waitResult(Id, Rec, 30000)) << "id " << Id;
    EXPECT_EQ(Rec.State, JobState::Done) << Rec.Error;
    EXPECT_EQ(Rec.Value, Expected);
    EXPECT_GT(Rec.latencyNs(), 0u);
    EXPECT_GT(Rec.Stats.TasksCreated + Rec.Stats.FakeTasks, 0u);
  }
  JobServer::Totals T = Server.totals();
  EXPECT_EQ(T.Submitted, 8u);
  EXPECT_EQ(T.Completed, 8u);
  EXPECT_EQ(T.Shed, 0u);
  EXPECT_EQ(T.Failed, 0u);
  EXPECT_GT(Server.latencyQuantileNs(0.5), 0.0);
  Server.stop();
}

TEST(JobServer, QueueFullShedsWithRecord) {
  JobServerOptions O = inProcessOptions();
  O.MaxQueuedJobs = 2;
  // Never started: nothing drains the queue, so admission is exact.
  JobServer Server(O);
  JobSpec Spec;
  Spec.Problem = "fib";
  Spec.Size = 10;
  EXPECT_TRUE(Server.submit(Spec).Accepted);
  EXPECT_TRUE(Server.submit(Spec).Accepted);
  JobServer::SubmitResult Third = Server.submit(Spec);
  EXPECT_FALSE(Third.Accepted);
  EXPECT_EQ(Third.Reason, "queue-full");
  // Shed submissions are never silently lost: the id resolves to a
  // terminal record carrying the reason.
  JobRecord Rec;
  ASSERT_TRUE(Server.getResult(Third.Id, Rec));
  EXPECT_EQ(Rec.State, JobState::Shed);
  EXPECT_EQ(Rec.Error, "queue-full");
  JobServer::Totals T = Server.totals();
  EXPECT_EQ(T.Submitted, 3u);
  EXPECT_EQ(T.Shed, 1u);
  EXPECT_EQ(T.Queued, 2u);
}

TEST(JobServer, BackpressureShedsPastBothWatermarks) {
  JobServerOptions O = inProcessOptions();
  O.QueueSoftWatermark = 1;
  O.DequeDepthWatermark = 4;
  JobServer Server(O); // Not started: queue depth stays where we put it.
  JobSpec Spec;
  Spec.Problem = "fib";
  Spec.Size = 10;
  // Below the soft watermark the depth check never applies.
  EXPECT_TRUE(Server.submit(Spec).Accepted);
  // Past the soft watermark but with shallow deques: still admitted.
  EXPECT_TRUE(Server.submit(Spec).Accepted);
  // Deep live deques + queue past the watermark: shed as backpressure.
  Server.registry().cell(0).dequeDepthGauge().store(
      5, std::memory_order_relaxed);
  JobServer::SubmitResult R = Server.submit(Spec);
  EXPECT_FALSE(R.Accepted);
  EXPECT_EQ(R.Reason, "backpressure");
  // Depth back under the watermark: admission recovers.
  Server.registry().cell(0).dequeDepthGauge().store(
      0, std::memory_order_relaxed);
  EXPECT_TRUE(Server.submit(Spec).Accepted);
}

TEST(JobServer, NarrowJobsNeverShrinkTheSharedRegistry) {
  // Regression: a spec with workers < pool width used to make the
  // runtime reset (reallocate) the server's shared registry down to the
  // job's width, a use-after-free for HTTP threads iterating the cells
  // concurrently. The registry must stay permanently sized to the pool.
  JobServer Server(inProcessOptions()); // PoolThreads = 2.
  ASSERT_TRUE(Server.start());
  ASSERT_EQ(Server.registry().numWorkers(), 2);
  JobSpec Spec;
  Spec.Problem = "fib";
  Spec.Size = 15;
  Spec.Workers = 1; // Narrower than the pool.
  JobServer::SubmitResult R = Server.submit(Spec);
  ASSERT_TRUE(R.Accepted) << R.Reason;
  JobRecord Rec;
  ASSERT_TRUE(Server.waitResult(R.Id, Rec, 30000));
  EXPECT_EQ(Rec.State, JobState::Done) << Rec.Error;
  EXPECT_EQ(Server.registry().numWorkers(), 2)
      << "narrow job must re-arm cells in place, not resize";
  EXPECT_EQ(Server.registry().Meta.Source, "server")
      << "the runtime must not stomp the owner's Meta";
  Server.stop();
}

TEST(JobServer, DeadlineExpiresWhileQueued) {
  JobServer Server(inProcessOptions());
  JobSpec Spec;
  Spec.Problem = "nqueens-array";
  Spec.Size = 8;
  Spec.DeadlineMs = 1;
  // Submit before the dispatcher exists, let the deadline lapse, then
  // start: the dispatcher must expire it instead of running it.
  JobServer::SubmitResult R = Server.submit(Spec);
  ASSERT_TRUE(R.Accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(Server.start());
  JobRecord Rec;
  ASSERT_TRUE(Server.waitResult(R.Id, Rec, 10000));
  EXPECT_EQ(Rec.State, JobState::Expired);
  EXPECT_EQ(Server.totals().Expired, 1u);
  Server.stop();
}

TEST(JobServer, BadSpecFailsAtDispatchNotSilently) {
  JobServer Server(inProcessOptions());
  ASSERT_TRUE(Server.start());
  // parseJobSpec would catch this on the wire; the in-process API takes
  // the spec verbatim, so the dispatcher's own validation must fire.
  JobSpec Spec;
  Spec.Problem = "no-such-problem";
  JobServer::SubmitResult R = Server.submit(Spec);
  ASSERT_TRUE(R.Accepted);
  JobRecord Rec;
  ASSERT_TRUE(Server.waitResult(R.Id, Rec, 10000));
  EXPECT_EQ(Rec.State, JobState::Failed);
  EXPECT_FALSE(Rec.Error.empty());
  EXPECT_EQ(Server.totals().Failed, 1u);
  Server.stop();
}

TEST(JobServer, StopDrainsQueuedJobs) {
  JobServer Server(inProcessOptions());
  ASSERT_TRUE(Server.start());
  std::vector<std::uint64_t> Ids;
  for (int I = 0; I != 4; ++I) {
    JobSpec Spec;
    Spec.Problem = "fib";
    Spec.Size = 15;
    JobServer::SubmitResult R = Server.submit(Spec);
    ASSERT_TRUE(R.Accepted);
    Ids.push_back(R.Id);
  }
  Server.stop(); // Graceful: every queued job still runs.
  for (std::uint64_t Id : Ids) {
    JobRecord Rec;
    ASSERT_TRUE(Server.getResult(Id, Rec));
    EXPECT_EQ(Rec.State, JobState::Done) << "id " << Id;
  }
  EXPECT_EQ(Server.totals().Completed, 4u);
}

//===----------------------------------------------------------------------===//
// HTTP smoke
//===----------------------------------------------------------------------===//

TEST(JobServerHttp, WireApiSmoke) {
  JobServerOptions O;
  O.PoolThreads = 2;
  O.HttpPort = 0; // Ephemeral.
  O.HttpThreads = 2;
  JobServer Server(O);
  ASSERT_TRUE(Server.start());
  const int Port = Server.httpPort();
  ASSERT_GT(Port, 0);

  int Status = 0;
  std::string Body;

  ASSERT_TRUE(httpRequest(Port, "GET", "/healthz", "", Status, Body));
  EXPECT_EQ(Status, 200);
  EXPECT_NE(Body.find("\"ok\""), std::string::npos);

  ASSERT_TRUE(httpRequest(Port, "POST", "/job",
                          R"({"problem": "nqueens-array", "size": 8})",
                          Status, Body));
  ASSERT_EQ(Status, 200) << Body;
  json::Value Resp;
  std::string Err;
  ASSERT_TRUE(json::parse(Body, Resp, Err)) << Body;
  const auto Id = static_cast<std::uint64_t>(Resp["id"].numberOr(0));
  ASSERT_GT(Id, 0u);

  ASSERT_TRUE(httpRequest(Port, "GET",
                          "/result/" + std::to_string(Id) + "?wait=20000", "",
                          Status, Body));
  ASSERT_EQ(Status, 200) << Body;
  json::Value Rec;
  ASSERT_TRUE(json::parse(Body, Rec, Err)) << Body;
  EXPECT_EQ(Rec["state"].stringOr(""), "done") << Body;
  ProblemRunner Oracle;
  ASSERT_TRUE(makeProblemRunner("nqueens-array", 8, Oracle, Err)) << Err;
  EXPECT_EQ(static_cast<long long>(Rec["value"].numberOr(-1)),
            Oracle.RunSequential());

  ASSERT_TRUE(httpRequest(Port, "GET", "/result/999999", "", Status, Body));
  EXPECT_EQ(Status, 404);

  ASSERT_TRUE(httpRequest(Port, "POST", "/job", "{broken", Status, Body));
  EXPECT_EQ(Status, 400);

  // Parse errors echo client input; the 400 body must stay valid JSON
  // even when that input contains a quote.
  ASSERT_TRUE(httpRequest(Port, "POST", "/job",
                          R"({"problem": "no\"such\"kind"})", Status, Body));
  EXPECT_EQ(Status, 400);
  json::Value ErrDoc;
  EXPECT_TRUE(json::parse(Body, ErrDoc, Err)) << Body;

  ASSERT_TRUE(httpRequest(Port, "GET", "/metrics", "", Status, Body));
  EXPECT_EQ(Status, 200);
  EXPECT_NE(Body.find("atc_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(Body.find("atc_job_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(Body.find("atc_epoch"), std::string::npos);

  ASSERT_TRUE(httpRequest(Port, "GET", "/stats", "", Status, Body));
  EXPECT_EQ(Status, 200);
  json::Value Stats;
  ASSERT_TRUE(json::parse(Body, Stats, Err)) << Body;
  EXPECT_EQ(static_cast<int>(Stats["completed"].numberOr(-1)), 1);

  EXPECT_FALSE(Server.shutdownRequested());
  ASSERT_TRUE(httpRequest(Port, "POST", "/shutdown", "", Status, Body));
  EXPECT_EQ(Status, 200);
  EXPECT_TRUE(Server.shutdownRequested());
  Server.stop();
}

} // namespace
